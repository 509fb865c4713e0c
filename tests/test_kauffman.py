"""Replacement enumeration against the worked handcuff/theta examples
and the family's invariance under diagram moves."""

import hashlib
import itertools
import json
import logging
from collections import Counter

import pytest

from graphhom import invariants, kauffman

from graphhom.catalog import (
    handcuff,
    hopf_handcuff,
    hopf_negative,
    hopf_positive,
    theta,
    trefoil_right,
    unknot,
    unknot_kink,
    unlink,
)
from graphhom.diagrams import GraphDiagram, connected_sum, disjoint_union, union_classes
from graphhom.errors import CapExceeded, InvalidDiagram
from graphhom.invariants import Fingerprint, alexander, fingerprint, jones, reduce_diagram
from graphhom.kauffman import (
    apply_replacement,
    assignment_count,
    closed_pair_tuples,
    family,
    vertex_choices,
)
from graphhom.moves import random_move_sequence
from test_diagrams import census_diagrams

FP_UNKNOT = fingerprint(unknot())
FP_UNLINK2 = fingerprint(unlink(2))
FP_HOPF = fingerprint(hopf_negative())


def by_fingerprint(fam):
    return {m.fingerprint: m.multiplicity for m in fam.members}


def g6_base_scrambled(seed):
    """G6's connected sum before its R4/R5 scramble with the given seed."""
    g = connected_sum(hopf_handcuff(), connected_sum(theta(), hopf_handcuff()))
    return random_move_sequence(g, count=10, seed=seed, kinds={"R4", "R5"})[0]


def g6():
    """The fixed benchmark graph G6: six trivalent vertices, 729
    assignments, eight distinct members."""
    return g6_base_scrambled(3)


def nonempty_links(g):
    """The replacement links of every assignment, in product order,
    with the empty ones dropped."""
    per_vertex = [vertex_choices(len(v)) or [None] for v in g.vertices]
    for combo in itertools.product(*per_vertex):
        link = apply_replacement(g, dict(enumerate(combo)))
        if link.crossings or link.loops:
            yield link


def family_json_of(g, weighted_links):
    """``family(g).to_json()`` from (link, assignment count) pairs in
    product order: every nonempty link is reduced and keyed, then grouped
    by canonical key and merged by fingerprint, each member keeping its
    first link."""
    groups = {}
    for link, count in weighted_links:
        if not (link.crossings or link.loops):
            continue
        reduced = reduce_diagram(link)
        groups.setdefault(reduced.canonical_key(), [link, reduced, 0])[2] += count
    merged = {}
    for link, reduced, count in groups.values():
        fp = fingerprint(reduced)
        merged.setdefault(fp.sort_key(), []).append((fp, link, count))
    return {
        "assignments": assignment_count(g),
        "members": [
            {
                "fingerprint": parts[0][0].to_json(),
                "diagram": parts[0][1].to_json(),
                "multiplicity": sum(p[2] for p in parts),
            }
            for _, parts in sorted(merged.items())
        ],
    }


def slow_family_json(g):
    """``family(g).to_json()`` the slow way: every assignment's link is
    built."""
    return family_json_of(g, ((link, 1) for link in nonempty_links(g)))


def per_system_family_json(g):
    """``family(g).to_json()`` with one link built per tuple of closed
    pairs and every nonempty one reduced, equal links included."""
    return family_json_of(
        g,
        (
            (apply_replacement(g, dict(enumerate(first))), count)
            for _, first, count in closed_pair_tuples(g)
        ),
    )


def g8(seed):
    g = connected_sum(
        hopf_handcuff(),
        connected_sum(theta(), connected_sum(hopf_handcuff(), theta())),
    )
    return random_move_sequence(g, count=10, seed=seed, kinds={"R4", "R5"})[0]


# A bar: one arc between two valence-1 vertices.
BAR = GraphDiagram([], [(0,), (0,)], 0, {0: ("v", 1, 0)})
# One valence-4 vertex with two loops, each filling two adjacent slots.
BOUQUET = GraphDiagram.from_pd([], [(0, 0, 1, 1)])
# One valence-4 vertex whose two loops cross once: pairs (0, 2) and
# (1, 3) each close one loop.
CROSSED = GraphDiagram.from_pd([(0, 1, 2, 3)], [(0, 3, 2, 1)], orientations={1: 1, 3: -1})
# Two valence-2 vertices joined by two arcs.
LENS = GraphDiagram.from_pd([], [(0, 1), (0, 1)])
# A valence-5 vertex with two loops and a pendant edge to a valence-1
# vertex, and a valence-6 vertex with three loops.
PENDANT_BOUQUET = GraphDiagram.from_pd([], [(0, 0, 1, 1, 2), (2,)])
TRIPLE_BOUQUET = GraphDiagram.from_pd([], [(0, 0, 1, 1, 2, 2)])

# Graphs with the vertex shapes a memo key must get right.
CORNER_GRAPHS = {
    "bar": connected_sum(hopf_handcuff(), BAR),
    "bar+theta": connected_sum(connected_sum(hopf_handcuff(), BAR, arc_a=0), theta()),
    "bouquet": connected_sum(hopf_handcuff(), BOUQUET),
    "crossed": connected_sum(CROSSED, connected_sum(theta(), hopf_handcuff())),
    "crossed+bouquet": connected_sum(CROSSED, BOUQUET),
    "lens": connected_sum(LENS, hopf_handcuff()),
    "pendant bouquet": connected_sum(hopf_handcuff(), PENDANT_BOUQUET),
    "triple bouquet": connected_sum(hopf_handcuff(), TRIPLE_BOUQUET),
    # components that meet no vertex: a ring around a theta edge, and a
    # kinked circle beside a theta
    "hopf#theta": connected_sum(hopf_positive(), theta()),
    "kink+theta": disjoint_union(unknot_kink(1), theta()),
}


def oracle_pool():
    """(name, graph) pairs the memoized family is checked on."""
    census_graphs = [d for d in census_diagrams() if d.vertices]
    pool = [(make.__name__, make()) for make in (handcuff, hopf_handcuff, theta)]
    pool += [(f"census {i}", g) for i, g in enumerate(census_graphs)]
    pool += [(f"G6 seed {s}", g6_base_scrambled(s)) for s in (1, 2, 3, 4)]
    pool += [(f"G8 seed {s}", g8(s)) for s in (1, 2)]
    for name, g in CORNER_GRAPHS.items():
        pool.append((name, g))
        pool += [
            (f"{name} seed {s}", random_move_sequence(g, 10, s, kinds={"R4", "R5"})[0])
            for s in (0, 1)
        ]
    return pool


ORACLE_POOL = oracle_pool()


def test_oracle_pool_covers_the_memo_key_corners():
    graphs = [g for _, g in ORACLE_POOL]
    valences = {len(v) for g in graphs for v in g.vertices}
    assert {1, 2, 3, 4, 5, 6} <= valences
    assert any(len(set(v)) < len(v) for g in graphs for v in g.vertices)
    assert sum(name.startswith("census") for name, _ in ORACLE_POOL) == 3
    assert any(vertex_free_edges(g) for g in graphs)


def vertex_free_edges(g):
    """Edges (arcs joined through crossings) that meet no vertex."""
    edge = g.strand_classes()
    return set(edge.values()) - {edge[a] for v in g.vertices for a in v}


@pytest.mark.parametrize("name,g", ORACLE_POOL, ids=[n for n, _ in ORACLE_POOL])
def test_family_matches_slow_path(name, g):
    g.validate_strict()
    assert family(g).to_json() == slow_family_json(g)


def reference_closed_keys(g):
    """Closed-pair tuple -> [first assignment, assignment count], in
    first-occurrence order, from one union-find per assignment: every
    assignment joins the graph's edges through its chosen pairs, and a
    pair is closed when its class reaches no unchosen slot."""
    edge = g.strand_classes()
    edges = sorted({edge[a] for v in g.vertices for a in v})
    options = []
    for v in g.vertices:
        at = [edge[a] for a in v]
        options.append(
            [
                (pair, pair and (at[pair[0]], at[pair[1]]),
                 [e for s, e in enumerate(at) if s not in (pair or ())])
                for pair in vertex_choices(len(v)) or [None]
            ]
        )
    keys = {}
    for combo in itertools.product(*options):
        label = union_classes(edges, [joined for _, joined, _ in combo if joined])
        open_labels = {label[e] for _, _, loose in combo for e in loose}
        key = tuple(
            pair if joined and label[joined[0]] not in open_labels else None
            for pair, joined, _ in combo
        )
        keys.setdefault(key, [tuple(pair for pair, _, _ in combo), 0])[1] += 1
    return keys


def assert_closed_pair_tuples_match_reference(g):
    got = closed_pair_tuples(g)
    want = [(key, first, count) for key, (first, count) in reference_closed_keys(g).items()]
    assert got == want
    assert sum(count for _, _, count in got) == assignment_count(g)


@pytest.mark.parametrize("name,g", ORACLE_POOL, ids=[n for n, _ in ORACLE_POOL])
def test_closed_pair_tuples_match_reference(name, g):
    assert_closed_pair_tuples_match_reference(g)


# A theta whose first edge passes a valence-2 vertex, numbered last: the
# first choices at vertices 0 and 1 close a cycle through it, so the first
# assignment that closes nothing is found only if valence-2 vertices count
# as fixed from the start.
SUBDIVIDED_THETA = GraphDiagram.from_pd([], [(0, 1, 2), (1, 3, 2), (0, 3)])
# The same, summed with a Hopf handcuff along the edge that skips vertex 2.
SUBDIVIDED_SUM = connected_sum(SUBDIVIDED_THETA, hopf_handcuff(), arc_a=2)


@pytest.mark.parametrize(
    "g",
    [
        SUBDIVIDED_THETA,
        SUBDIVIDED_SUM,
        random_move_sequence(SUBDIVIDED_SUM, 10, 1, kinds={"R4", "R5"})[0],
    ],
    ids=["bare", "sum", "sum seed 1"],
)
def test_first_assignment_needs_completions(g):
    g.validate_strict()
    assert_closed_pair_tuples_match_reference(g)
    assert family(g).to_json() == slow_family_json(g)


def circle(n):
    """A circle through n valence-2 vertices, closed in every assignment."""
    return GraphDiagram.from_pd([], [(i, (i + 1) % n) for i in range(n)])


# Thirty valence-2 vertices, each closing its own loop.
KINKS = GraphDiagram.from_pd([], [(i, i) for i in range(30)])


@pytest.mark.parametrize(
    "g",
    [
        disjoint_union(KINKS, hopf_handcuff()),
        disjoint_union(circle(3), theta()),
        connected_sum(circle(4), hopf_handcuff()),
        connected_sum(hopf_handcuff(), circle(4)),
        connected_sum(SUBDIVIDED_THETA, circle(3), arc_a=1),
        disjoint_union(GraphDiagram.from_pd([], [(0,), (0, 1), (1,)]), theta()),
    ],
    ids=[
        "kinks",
        "circle+theta",
        "circle#hopf",
        "hopf#circle",
        "subdivided#circle",
        "bar through valence 2+theta",
    ],
)
def test_runs_through_valence_two_vertices(g):
    assert_closed_pair_tuples_match_reference(g)
    assert family(g).to_json() == slow_family_json(g)


def test_long_valence_two_circle():
    fam = family(circle(1500))
    assert fam.assignments == 1
    assert [m.multiplicity for m in fam.members] == [1]


def test_closed_pair_tuples_match_reference_on_ten_vertices():
    g = hopf_handcuff()
    for piece in (theta(), hopf_handcuff(), theta(), hopf_handcuff()):
        g = connected_sum(g, piece)
    g = random_move_sequence(g, count=10, seed=1, kinds={"R4", "R5"})[0]
    assert assignment_count(g) == 59049
    assert_closed_pair_tuples_match_reference(g)


def unlink_circles(g, key):
    """The number of circles of the link left by the closed pairs ``key``
    (None where a vertex's pair is open) when that link is a
    crossing-free unlink, else None: an oracle for ``apply_replacement``
    read off the edges alone.

    An edge is closed when it meets no vertex or when the closed pairs
    hold its ends.  A crossing survives the replacement exactly when
    both of its strands lie on closed edges; when none does, every
    closed curve becomes a crossing-free circle, so the link is
    ``g.loops`` plus one circle per class of closed edges joined through
    the closed pairs."""
    edge = g.strand_classes()
    closed = vertex_free_edges(g)
    joins = []
    for vi, pair in enumerate(key):
        if pair is not None:
            ends = (edge[g.vertices[vi][pair[0]]], edge[g.vertices[vi][pair[1]]])
            closed.update(ends)
            joins.append(ends)
    if any(edge[c[0]] in closed and edge[c[1]] in closed for c in g.crossings):
        return None
    return g.loops + len(set(union_classes(closed, joins).values()))


@pytest.mark.parametrize("name,g", ORACLE_POOL, ids=[n for n, _ in ORACLE_POOL])
def test_unlink_circles_match_apply_replacement(name, g):
    for key, first, _ in closed_pair_tuples(g):
        link = apply_replacement(g, dict(enumerate(first)))
        assert unlink_circles(g, key) == (None if link.crossings else link.loops), key


@pytest.mark.parametrize("name,g", ORACLE_POOL, ids=[n for n, _ in ORACLE_POOL])
def test_family_matches_one_build_per_system(name, g):
    assert family(g).to_json() == per_system_family_json(g)


def test_merged_links_share_oriented_polynomials():
    """Each member's tables come from its first link, in that link's
    orientation, so every nonempty built link that ``family`` folds into
    the member, the one whose fingerprint its reduction has, must have
    the first link's oriented Jones and Alexander polynomials."""
    folds = []
    for name, g in ORACLE_POOL:
        members = {m.fingerprint.sort_key(): m for m in family(g).members}
        built = {}
        for _, first, _ in closed_pair_tuples(g):
            link = apply_replacement(g, dict(enumerate(first)))
            if link.crossings or link.loops:
                built.setdefault(link.exact_form(), link)
        folds += [(name, link, members[fingerprint(reduce_diagram(link)).sort_key()]) for link in built.values()]
    # Some member merges two or more distinct built links.
    assert max(Counter(id(m) for _, _, m in folds).values()) >= 2
    for name, link, m in folds:
        assert jones(link) == jones(m.diagram), name
        assert alexander(link) == alexander(m.diagram), name


@pytest.mark.parametrize(
    "g,systems,distinct",
    [(g6(), 32, 8), (g8(1), 64, 19)],
    ids=["G6", "G8"],
)
def test_family_reduces_each_distinct_link_once(g, systems, distinct, monkeypatch):
    links = [apply_replacement(g, dict(enumerate(first))) for _, first, _ in closed_pair_tuples(g)]
    assert len(links) == systems
    nonempty = [link for link in links if link.crossings or link.loops]
    assert len({json.dumps(link.to_json(), sort_keys=True) for link in nonempty}) == distinct
    built, reduced = [], []

    def counted_build(g, choice):
        built.append(choice)
        return apply_replacement(g, choice)

    def counted_reduce(d):
        reduced.append(d)
        return reduce_diagram(d)

    monkeypatch.setattr(kauffman, "apply_replacement", counted_build)
    monkeypatch.setattr(kauffman, "reduce_diagram", counted_reduce)
    family(g)
    assert (len(built), len(reduced)) == (systems, distinct)


def test_family_scan_reduces_each_built_form_once(monkeypatch):
    """The seed-1 benchmark inputs (G6 scrambles 1 to 5 and G8 scramble 1):
    one reduction per distinct nonempty built link, none in the
    fingerprint, which takes the reduced diagram ``family`` hands it."""
    graphs = [g6_base_scrambled(s) for s in range(1, 6)] + [g8(1)]
    distinct = 0
    for g in graphs:
        links = [apply_replacement(g, dict(enumerate(first))) for _, first, _ in closed_pair_tuples(g)]
        nonempty = {json.dumps(link.to_json(), sort_keys=True) for link in links if link.crossings or link.loops}
        distinct += len(nonempty)
    calls = []
    for mod in (kauffman, invariants):
        monkeypatch.setattr(mod, "reduce_diagram", lambda d, f=reduce_diagram: calls.append(d) or f(d))
    for g in graphs:
        family(g)
    assert len(calls) == distinct == 86


# sha256 of ``family(g).to_json()`` dumped with sorted keys.  The
# benchmark gate allows a finer split and ignores member diagrams, so
# these pin the bytes it would let change.
FAMILY_DIGESTS = [
    (g6_base_scrambled, 1, "3f3a5837dcea168a753f16a71516230abeeee0cf8e63ac77e2298276e8c66512"),
    (g6_base_scrambled, 2, "32c1a69f72ac3415f956eaa1e67038ecb20208e23ef72ecedd3495f418aab732"),
    (g6_base_scrambled, 3, "f126d11e0b8feda8e651476a4efa345942046d5adb926852888af670b073a64e"),
    (g6_base_scrambled, 4, "5b1e6c729641f8bc50e5fb6bd92ab1f218674a96f816c8fd7b3f4c1375a106c9"),
    (g6_base_scrambled, 5, "a85f28216824075059bc995f74bc16f9b332711d9c703e624c346fb1d515a8f5"),
    (g8, 1, "29b877596b2bfb3571c0c897c6dbca9ff1ba6cb6d2a48026a78fbc03530482d5"),
]


@pytest.mark.parametrize(
    "make,seed,digest",
    FAMILY_DIGESTS,
    ids=[f"{'G8' if make is g8 else 'G6'}-seed{seed}" for make, seed, _ in FAMILY_DIGESTS],
)
def test_family_output_is_pinned(make, seed, digest):
    text = json.dumps(family(make(seed)).to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_vertex_choices_counts():
    assert len(vertex_choices(3)) == 3
    assert len(vertex_choices(4)) == 6
    assert vertex_choices(1) == []
    assert vertex_choices(0) == []


def test_assignment_counts():
    assert assignment_count(handcuff()) == 9
    assert assignment_count(theta()) == 9
    assert assignment_count(trefoil_right()) == 1


def test_family_handcuff():
    fam = family(handcuff())
    assert fam.assignments == 9
    assert by_fingerprint(fam) == {FP_UNLINK2: 1, FP_UNKNOT: 4}


def test_family_hopf_handcuff():
    fam = family(hopf_handcuff())
    assert fam.assignments == 9
    assert by_fingerprint(fam) == {FP_HOPF: 1, FP_UNKNOT: 4}


def test_family_theta():
    fam = family(theta())
    assert fam.assignments == 9
    assert by_fingerprint(fam) == {FP_UNKNOT: 3}


def test_family_vertexless_is_identity():
    fam = family(trefoil_right())
    assert fam.assignments == 1
    assert len(fam.members) == 1
    assert fam.members[0].fingerprint == fingerprint(trefoil_right())
    assert fam.members[0].multiplicity == 1


def test_members_are_valid_nonempty_links():
    for g in (handcuff(), hopf_handcuff(), theta()):
        for m in family(g).members:
            m.diagram.validate_strict()
            assert not m.diagram.vertices
            assert m.diagram.loops > 0 or m.diagram.crossings


def test_members_sorted_by_fingerprint():
    fam = family(handcuff())
    keys = [m.fingerprint.sort_key() for m in fam.members]
    assert keys == sorted(keys)


def test_apply_replacement_closes_both_loops():
    out = apply_replacement(handcuff(), {0: (0, 1), 1: (0, 1)})
    assert out.loops == 2 and not out.crossings


def test_apply_replacement_routes_loop_into_bridge():
    out = apply_replacement(handcuff(), {0: (0, 1), 1: (0, 2)})
    assert out.loops == 1 and not out.crossings


def test_apply_replacement_all_open_is_empty():
    out = apply_replacement(handcuff(), {0: (0, 2), 1: (0, 2)})
    assert out.loops == 0 and not out.crossings


def test_apply_replacement_splices_surviving_strand():
    # deleting one clasped loop drags the other straight through both
    # crossings, leaving a bare circle
    out = apply_replacement(hopf_handcuff(), {0: (1, 2), 1: (0, 1)})
    assert out.loops == 1 and not out.crossings
    both = apply_replacement(hopf_handcuff(), {0: (0, 2), 1: (0, 1)})
    assert fingerprint(both) == FP_HOPF


def test_choice_validation():
    g = handcuff()
    with pytest.raises(InvalidDiagram):
        apply_replacement(g, {0: (0, 1)})
    with pytest.raises(InvalidDiagram):
        apply_replacement(g, {0: (0, 1), 1: None})
    with pytest.raises(InvalidDiagram):
        apply_replacement(g, {0: (0, 3), 1: (0, 1)})
    with pytest.raises(InvalidDiagram):
        apply_replacement(g, {0: (1, 1), 1: (0, 1)})


def test_valence_one_isolates():
    bar = GraphDiagram([], [(0,), (0,)], 0, {0: ("v", 1, 0)})
    bar.validate_strict()
    out = apply_replacement(bar, {0: None, 1: None})
    assert out.loops == 0 and not out.crossings
    with pytest.raises(InvalidDiagram):
        apply_replacement(bar, {0: (0, 1), 1: None})


def test_family_cap():
    with pytest.raises(CapExceeded) as err:
        family(handcuff(), cap=4)
    assert "9" in str(err.value)


def test_family_json_shape():
    doc = family(handcuff()).to_json()
    assert doc["assignments"] == 9
    assert {"fingerprint", "diagram", "multiplicity"} == set(doc["members"][0])


@pytest.mark.parametrize("make", [theta, handcuff, hopf_handcuff])
def test_family_fingerprints_invariant_under_moves(make):
    g = make()
    base = [m.fingerprint for m in family(g).members]
    for seed in (0, 1, 2):
        moved, applied = random_move_sequence(g, 8, seed)
        assert applied
        assert [m.fingerprint for m in family(moved).members] == base


@pytest.mark.parametrize("make", [handcuff, hopf_handcuff, theta, g6])
def test_family_matches_per_assignment_fingerprints(make):
    g = make()
    first, counts = {}, {}
    for link in nonempty_links(g):
        fp = fingerprint(link)
        first.setdefault(fp, link)
        counts[fp] = counts.get(fp, 0) + 1
    fam = family(g)
    assert [m.fingerprint for m in fam.members] == sorted(first, key=Fingerprint.sort_key)
    for m in fam.members:
        assert m.multiplicity == counts[m.fingerprint]
        assert m.diagram.to_json() == first[m.fingerprint].to_json()


def test_g6_fingerprints_each_reduced_diagram_once(monkeypatch):
    calls = []

    def counted(d):
        calls.append(d)
        return fingerprint(d)

    monkeypatch.setattr(kauffman, "fingerprint", counted)
    g = g6()
    fam = family(g)
    assert sum(1 for _ in nonempty_links(g)) == 601
    assert sum(m.multiplicity for m in fam.members) == 601
    assert len(calls) == len(fam.members) == 8


def test_fingerprint_collision_merges_and_warns_once(monkeypatch, caplog):
    g = hopf_handcuff()
    monkeypatch.setattr(kauffman, "fingerprint", lambda d: FP_UNKNOT)
    with caplog.at_level(logging.WARNING, logger=kauffman.__name__):
        fam = family(g)
    links = list(nonempty_links(g))
    assert len(fam.members) == 1
    (m,) = fam.members
    assert m.fingerprint == FP_UNKNOT
    assert m.multiplicity == len(links)
    assert m.diagram.to_json() == links[0].to_json()
    collisions = [r for r in caplog.records if "fingerprint collision" in r.getMessage()]
    assert len(collisions) == 1
