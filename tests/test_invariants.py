"""Bracket, Jones, Conway, Alexander, determinant, and fingerprint oracles.

Expected values are the standard table entries for the small knots and
links in the catalog, written out as explicit coefficient dictionaries.
The skein recursion ``skein_conway`` is the reference for the Conway
polynomial that ``grid.conway`` takes from a Seifert matrix, and for
the Alexander polynomial and determinant of the Fox route.
"""

import json
from importlib import resources
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from graphhom import catalog
from graphhom.diagrams import (
    GraphDiagram,
    _splice_pairs,
    connected_sum,
    disjoint_union,
    union_classes,
)
from graphhom.errors import CapExceeded, InvalidDiagram
from graphhom.grid import conway
from graphhom.invariants import (
    A,
    BRACKET_CROSSING_CAP,
    DELTA,
    ORIENTATION_FLIP_CAP,
    alexander,
    determinant,
    fingerprint,
    jones,
    kauffman_bracket,
    reduce_diagram,
    smoothing_circles,
    _alexander_from_rows,
    _fox_rows,
    _is_split,
    _mask_writhes,
    _over_arcs,
)
from graphhom.kauffman import family
from graphhom.khovanov import unnormalized_jones
from graphhom.laurent import Laurent, T, Z, normalize_alexander
from graphhom.linalg import smith_invariant_factors
from graphhom.moves import random_move_sequence
from test_graph_homology import knotted_k
from test_kauffman import g6_base_scrambled, g8
from test_laurent import conway_to_alexander
from test_linalg import KHOVANOV_Z_BRAIDS


def L(tag, terms):
    return Laurent(tag, {(2 * e,): c for e, c in terms.items()})


def test_bracket_unknot_and_unlink():
    assert kauffman_bracket(catalog.unknot()) == Laurent.one(A)
    assert kauffman_bracket(catalog.unlink(2)) == L(A, {2: -1, -2: -1})


def test_bracket_negative_kink():
    assert kauffman_bracket(catalog.unknot_kink(-1)) == L(A, {-3: -1})


def test_bracket_positive_kink():
    assert kauffman_bracket(catalog.unknot_kink(1)) == L(A, {3: -1})


def test_bracket_hopf():
    assert kauffman_bracket(catalog.hopf_positive()) == L(A, {4: -1, -4: -1})


def test_bracket_cap():
    with pytest.raises(CapExceeded):
        kauffman_bracket(catalog.trefoil_right(), cap=2)


# -- bracket by state counts against the per-state sum -------------------------


def reference_bracket(d):
    """The bracket as first written: one Laurent term per smoothing state."""
    c = len(d.crossings)
    out = Laurent.zero(A)
    for state, circle in enumerate(smoothing_circles(d)):
        circles = len(set(circle.values())) + d.loops
        b = bin(state).count("1")
        sigma = (c - b) - b
        out = out + Laurent.term(A, (2 * sigma,)) * DELTA ** (circles - 1)
    return out


def census_link(name):
    text = (resources.files("graphhom.census") / f"{name}.diagram.json").read_text("utf-8")
    return GraphDiagram.from_json(json.loads(text))


CENSUS_LINKS = [
    "figure_eight",
    "hopf_negative",
    "hopf_positive",
    "trefoil_left",
    "trefoil_right",
    "unknot",
    "unlink2",
]

BRAIDS = [
    ([1], 2),
    ([1] * 4, 2),
    ([1] * 7, 2),
    ([1, -2] * 3, 3),
    ([1, -2] * 5, 3),
    ([1, 2] * 4, 3),
    ([1, 1, 1, 2, -1, 2], 3),
    ([1, 1, 1, -2, 1, -2, -2, -2], 3),
    ([1, -2, 3, 1, -2, 3, -1, 2, -3, 2], 4),
]


# Split diagrams, some with crossing-free loops or kinks.
SPLIT_AND_LOOPED = [
    ("3_1+4_1", disjoint_union(catalog.trefoil_right(), catalog.figure_eight())),
    ("hopf+kink", disjoint_union(catalog.hopf_positive(), catalog.unknot_kink(-1))),
    ("kink+kink", disjoint_union(catalog.unknot_kink(1), catalog.unknot_kink(1))),
    ("3_1+2_loops", GraphDiagram(
        catalog.trefoil_left().crossings, (), 2, catalog.trefoil_left().heads
    )),
    ("3_loops+hopf", disjoint_union(catalog.unlink(3), catalog.hopf_negative())),
    ("4_loops", catalog.unlink(4)),
]


@pytest.mark.parametrize(
    "d",
    [pytest.param(census_link(name), id=name) for name in CENSUS_LINKS]
    + [
        pytest.param(
            catalog.braid_closure(word, strands),
            id="braid(" + ",".join(map(str, word)) + ")",
        )
        for word, strands in BRAIDS
    ]
    + [pytest.param(d, id=name) for name, d in SPLIT_AND_LOOPED],
)
def test_bracket_matches_per_state_sum(d):
    assert len(d.crossings) <= 10
    assert kauffman_bracket(d) == reference_bracket(d)


# -- bracket by contraction: the per-state sum as oracle ------------------------


def has_kink(d):
    """Some crossing holds one arc in two neighboring slots, so one of
    its smoothings pairs that arc with itself."""
    return any(c[s] == c[(s + 1) % 4] for c in d.crossings for s in range(4))


@st.composite
def braid_words(draw, max_letters):
    strands = draw(st.integers(min_value=2, max_value=4))
    gen = st.integers(min_value=1, max_value=strands - 1)
    letter = st.tuples(gen, st.booleans()).map(lambda p: p[0] if p[1] else -p[0])
    return draw(st.lists(letter, min_size=1, max_size=max_letters)), strands


@settings(max_examples=60, deadline=None)
@given(braid_words(max_letters=10))
def test_bracket_matches_per_state_sum_on_random_braids(braid):
    d = catalog.braid_closure(*braid)
    assert kauffman_bracket(d) == reference_bracket(d)


def test_bracket_matches_per_state_sum_on_scrambled_census():
    # R1 kinks put one arc in two neighboring slots of a crossing; R2
    # and R3 leave bigons and triangles that the contraction order must
    # cross.  R4 and R5 find no vertex on a link.
    kinked = 0
    for seed in range(14):
        base = census_link(CENSUS_LINKS[seed % len(CENSUS_LINKS)])
        d, _ = random_move_sequence(
            base, count=6, seed=900 + seed, budget=len(base.crossings) + 4,
            kinds={"R1", "R2", "R3", "R4", "R5"},
        )
        assert len(d.crossings) <= 12
        kinked += has_kink(d)
        assert kauffman_bracket(d) == reference_bracket(d)
    assert kinked >= 3


def test_bracket_matches_per_state_sum_at_twelve_crossings():
    d = catalog.braid_closure([1, -2] * 6, 3)
    assert len(d.crossings) == 12
    assert kauffman_bracket(d) == reference_bracket(d)


# -- reorientation by rebuilt diagrams: the reference for flipped Fox rows -----


def reverse_component(d, comp):
    """Reverse the orientation of one closed component of a link."""
    _, labels = d.split_components()
    return _reverse_arcs(d, {a for a, k in labels.items() if k == comp})


def _reverse_arcs(d, arcs):
    """Reverse every arc in ``arcs``, a union of closed components, and
    turn each crossing whose under-strand they hold so that slot 0 stays
    its inflow."""
    ends = d.arc_endpoints()
    heads = dict(d.heads)
    for a in arcs:
        e1, e2 = ends[a]
        heads[a] = e1 if heads[a] == e2 else e2
    rot = {i: 2 for i, c in enumerate(d.crossings) if c[0] in arcs}
    return GraphDiagram(d.crossings, d.vertices, d.loops, heads)._rotate_crossings(rot)


# Links of 2 or 3 components; the closure of (s1 s2^-1)^3 is the
# Borromean rings.
HOPF = catalog.hopf_positive()
BORROMEAN = catalog.braid_closure([1, -2] * 3, 3)
T24 = catalog.braid_closure([1] * 4, 2)
HOPF_TREFOIL = disjoint_union(catalog.hopf_positive(), catalog.trefoil_right())


@pytest.mark.parametrize(
    "d", [HOPF, BORROMEAN, HOPF_TREFOIL], ids=["hopf", "borromean", "hopf+trefoil"]
)
def test_bracket_ignores_component_orientation(d):
    # One bracket per fingerprint rests on this: reversing a component
    # changes the writhe, never the smoothings.
    ncomp, labels = d.split_components()
    assert ncomp >= 2
    for comp in sorted(set(labels.values())):
        flipped = reverse_component(d, comp)
        assert flipped.heads != d.heads
        assert kauffman_bracket(flipped) == kauffman_bracket(d)


def reference_fingerprint(d):
    """Fingerprint by the per-mask loop: each orientation of the
    unpinned components is built by reversing them one at a time and
    gets its own Jones polynomial, hence its own bracket, and its own
    Alexander polynomial."""
    reduced = reduce_diagram(d)
    ncomp, labels = reduced.split_components()
    flippable = sorted(set(labels.values()))[1:]
    assert len(flippable) <= ORIENTATION_FLIP_CAP
    best = None
    for mask in range(1 << len(flippable)):
        cur = reduced
        for bit, comp in enumerate(flippable):
            if mask >> bit & 1:
                cur = reverse_component(cur, comp)
        j, a = jones(cur), alexander(cur)
        key = (j.sort_key(), a.sort_key())
        if best is None or key < best[0]:
            best = (key, j, a)
    _, j, a = best
    return (ncomp, j, a)


@pytest.mark.parametrize(
    "d, reorients",
    [(BORROMEAN, False), (T24, True), (HOPF_TREFOIL, True)],
    ids=["borromean", "T(2,4)", "hopf+trefoil"],
)
def test_fingerprint_matches_jones_per_orientation(d, reorients):
    # Where the orientations disagree on Jones, the writhe renormalization
    # of the shared bracket decides the minimum; the Borromean rings have
    # linking numbers 0, so reversing a component fixes their Jones.
    reduced = reduce_diagram(d)
    assert (jones(reverse_component(reduced, 1)) != jones(reduced)) == reorients
    fp = fingerprint(d)
    assert (fp.components, fp.jones, fp.alexander) == reference_fingerprint(d)


T33 = catalog.braid_closure([1, 2] * 3, 3)
T44 = catalog.braid_closure([1, 2, 3] * 4, 4)


@pytest.mark.parametrize(
    "d", [HOPF, BORROMEAN, T33, T44, HOPF_TREFOIL, catalog.unlink(3)],
    ids=["hopf", "borromean", "T(3,3)", "T(4,4)", "hopf+trefoil", "3 loops"],
)
def test_mask_writhes_match_reversed_diagrams(d):
    # Two unpinned components that cross each other: reversing both
    # keeps the sign of every crossing between them.
    _, labels = d.split_components()
    flippable = sorted(set(labels.values()))[1:]
    writhes = _mask_writhes(d, labels, flippable)
    assert len(writhes) == 1 << len(flippable)
    for mask, w in enumerate(writhes):
        cur = d
        for bit, comp in enumerate(flippable):
            if mask >> bit & 1:
                cur = reverse_component(cur, comp)
        assert w == cur.writhe()
        flipped = {comp for bit, comp in enumerate(flippable) if mask >> bit & 1}
        arcs = {a for a, comp in labels.items() if comp in flipped}
        assert _reverse_arcs(d, arcs).to_json() == cur.to_json()


def family_member_links():
    """The member diagrams of G6 and G8 at scramble seeds 1 to 5."""
    out = []
    for seed in range(1, 6):
        for name, g in (("G6", g6_base_scrambled(seed)), ("G8", g8(seed))):
            for k, m in enumerate(family(g).members):
                out.append((f"{name} seed {seed} member {k}", m.diagram))
    return out


FAMILY_MEMBERS = family_member_links()

FINGERPRINT_POOL = (
    [(name, census_link(name)) for name in CENSUS_LINKS]
    + [
        ("braid(" + ",".join(map(str, word)) + ")", catalog.braid_closure(word, strands))
        for word, strands in (
            ([1, -2] * 3, 3),
            ([1, 2] * 3, 3),
            ([1, 2, 3] * 4, 4),
            ([1, -2, 3, -2] * 2, 4),
            # two orientations reach the least Jones polynomial with
            # different Alexander polynomials
            ([2, 2, -1, 2, -1, -1, -1, -2, 1, -2, -1, -1], 3),
        )
    ]
    + SPLIT_AND_LOOPED
    + [(f"{k} loops", GraphDiagram([], [], k)) for k in (1, 2, 3)]
    + [("hopf+2 loops", disjoint_union(HOPF, catalog.unlink(2)))]
    + FAMILY_MEMBERS
)


def crosses_between_unpinned(d):
    """Some crossing joins two different components, neither of them
    the pinned one."""
    reduced = reduce_diagram(d)
    _, labels = reduced.split_components()
    return any(
        labels[c[0]] and labels[c[1]] and labels[c[0]] != labels[c[1]]
        for c in reduced.crossings
    )


def test_fingerprint_pool_covers_the_orientation_cases():
    links = [d for _, d in FINGERPRINT_POOL]
    assert any(crosses_between_unpinned(d) for d in links)
    assert any(not reduce_diagram(d).crossings and d.loops > 1 for d in links)
    assert any(_is_split(reduce_diagram(d)) and reduce_diagram(d).crossings for d in links)
    assert sum(name.startswith(("G6", "G8")) for name, _ in FINGERPRINT_POOL) >= 50


@pytest.mark.parametrize("name,d", FINGERPRINT_POOL, ids=[n for n, _ in FINGERPRINT_POOL])
def test_fingerprint_matches_per_mask_loop(name, d):
    fp = fingerprint(d)
    assert (fp.components, fp.jones, fp.alexander) == reference_fingerprint(d)


def test_jones_unknot_and_kinks():
    one = Laurent.one(T)
    assert jones(catalog.unknot()) == one
    assert jones(catalog.unknot_kink(1)) == one
    assert jones(catalog.unknot_kink(-1)) == one


def test_jones_trefoils():
    right = jones(catalog.trefoil_right())
    assert right == L(T, {1: 1, 3: 1, 4: -1})
    left = jones(catalog.trefoil_left())
    assert left == L(T, {-1: 1, -3: 1, -4: -1})


def test_jones_figure_eight_palindromic():
    v = jones(catalog.figure_eight())
    assert v == L(T, {2: 1, 1: -1, 0: 1, -1: -1, -2: 1})


def test_jones_hopf_half_integer_exponents():
    v = jones(catalog.hopf_positive())
    assert v == Laurent(T, {(5,): -1, (1,): -1})  # -t^(5/2) - t^(1/2)
    w = jones(catalog.hopf_negative())
    assert w == Laurent(T, {(-5,): -1, (-1,): -1})


def test_jones_unlink():
    assert jones(catalog.unlink(2)) == Laurent(T, {(1,): -1, (-1,): -1})


def test_reduce_removes_kinks_and_bigons():
    assert reduce_diagram(catalog.unknot_kink(1)).crossings == ()
    # braid word 1, -1 closes to a two-component unlink with one bigon
    d = catalog.braid_closure([1, -1], 2)
    r = reduce_diagram(d)
    assert r.crossings == ()
    assert r.loops == 2


def test_reduce_keeps_clasp():
    assert len(reduce_diagram(catalog.hopf_positive()).crossings) == 2


# -- skein recursion: the reference for the Conway polynomial ----------------

# Most nodes the skein recursion of one Conway polynomial visits.
SKEIN_NODE_CAP = 100000


def _first_bad_crossing(d: GraphDiagram) -> Optional[int]:
    """Walk each component from its minimal arc in flow order; a crossing
    whose first visit rides the under-strand is bad.  None means the
    diagram is descending, hence an unlink."""
    _, labels = d.split_components()
    comps: Dict[int, List[int]] = {}
    for a, comp in labels.items():
        comps.setdefault(comp, []).append(a)
    visited: Dict[int, int] = {}
    for comp in sorted(comps):
        base = min(comps[comp])
        a = base
        while True:
            e = d.heads[a]
            if e[0] != "x":
                raise InvalidDiagram(["skein recursion expects a link diagram"])
            _, i, s = e
            if i not in visited:
                visited[i] = s
                if s % 2 == 0:  # first arrival dives under
                    return i
            nxt = {0: 2, 1: 3, 3: 1}[s]
            a = d.crossings[i][nxt]
            if a == base:
                break
    return None


def _switch_crossing(d: GraphDiagram, i: int) -> GraphDiagram:
    c = d.crossings[i]
    r = 3 if d.heads.get(c[3]) == ("x", i, 3) else 1
    return d._rotate_crossings({i: r})


def _oriented_smoothing(d: GraphDiagram, i: int) -> GraphDiagram:
    if d.crossing_sign(i) > 0:
        return _splice_pairs(d, i, ((0, 1), (2, 3)))
    return _splice_pairs(d, i, ((0, 3), (1, 2)))


def skein_conway(d: GraphDiagram) -> Laurent:
    """Skein polynomial: nabla(o) = 1, split links vanish, and
    nabla(L+) - nabla(L-) = z nabla(L0)."""
    if not d.is_link():
        raise InvalidDiagram(["skein recursion is defined for link diagrams"])
    memo: Dict[Tuple, Laurent] = {}
    budget = [SKEIN_NODE_CAP]

    z = Laurent.term(Z, (2,))

    def rec(cur: GraphDiagram) -> Laurent:
        cur = reduce_diagram(cur)
        if budget[0] <= 0:
            raise CapExceeded(f"skein recursion exceeded {SKEIN_NODE_CAP} nodes")
        budget[0] -= 1
        if not cur.crossings:
            n = cur.loops
            return Laurent.one(Z) if n == 1 else Laurent.zero(Z)
        if _is_split(cur):
            return Laurent.zero(Z)
        key = cur.canonical_key()
        hit = memo.get(key)
        if hit is not None:
            return hit
        bad = _first_bad_crossing(cur)
        if bad is None:
            ncomp, _ = cur.split_components()
            value = Laurent.one(Z) if ncomp == 1 else Laurent.zero(Z)
        else:
            sign = cur.crossing_sign(bad)
            switched = rec(_switch_crossing(cur, bad))
            smoothed = rec(_oriented_smoothing(cur, bad))
            value = switched + z * smoothed.scale(sign)
        memo[key] = value
        return value

    return rec(d)


def test_conway_base_cases():
    assert conway(catalog.unknot()) == Laurent.one(Z)
    assert conway(catalog.unlink(2)) == Laurent.zero(Z)
    assert conway(disjoint_union(catalog.trefoil_right(), catalog.unknot())) == Laurent.zero(Z)


def test_conway_hopf_signs():
    assert conway(catalog.hopf_positive()) == L(Z, {1: 1})
    assert conway(catalog.hopf_negative()) == L(Z, {1: -1})


def test_conway_trefoil_and_figure_eight():
    expected = L(Z, {2: 1, 0: 1})
    assert conway(catalog.trefoil_right()) == expected
    assert conway(catalog.trefoil_left()) == expected
    assert conway(catalog.figure_eight()) == L(Z, {0: 1, 2: -1})


def test_conway_connected_sum_multiplies():
    d = connected_sum(catalog.trefoil_right(), catalog.figure_eight())
    assert conway(d) == conway(catalog.trefoil_right()) * conway(catalog.figure_eight())


def test_alexander_values():
    assert alexander(catalog.unknot()) == Laurent.one(T)
    assert alexander(catalog.trefoil_right()) == L(T, {1: 1, 0: -1, -1: 1})
    assert alexander(catalog.figure_eight()) == L(T, {1: 1, 0: -3, -1: 1})
    # one-variable symmetric form for the Hopf link, half-integer powers
    assert alexander(catalog.hopf_positive()) == Laurent(T, {(1,): 1, (-1,): -1})


def test_determinants():
    assert determinant(catalog.unknot()) == 1
    assert determinant(catalog.unknot_kink(1)) == 1
    assert determinant(catalog.hopf_positive()) == 2
    assert determinant(catalog.trefoil_right()) == 3
    assert determinant(catalog.trefoil_left()) == 3
    assert determinant(catalog.figure_eight()) == 5
    assert determinant(catalog.unlink(2)) == 0


def test_determinant_agrees_with_skein_route():
    # |Delta(-1)| computed from the Conway polynomial at z^2 = -4
    for make in (
        catalog.hopf_positive,
        catalog.trefoil_right,
        catalog.figure_eight,
    ):
        d = make()
        nabla = skein_conway(d)
        even = sum(
            c * (-4) ** (m // 4) for (m,), c in nabla.terms.items() if m % 4 == 0
        )
        odd = sum(
            c * (-4) ** (m // 4) for (m,), c in nabla.terms.items() if m % 4 == 2
        )
        assert even == 0 or odd == 0
        assert determinant(d) == abs(even) + 2 * abs(odd)


# -- determinant at t = -1 against the coloring matrix's Smith form -----------


def reference_determinant(d):
    """|H1| of the double branched cover by Wirtinger coloring rows, as
    first written: each crossing contributes 2*over - in - out, and the
    product of the Smith invariant factors of the minor with one row and
    column struck, 0 when it has lower rank."""
    if not d.crossings:
        return 1 if d.loops == 1 else 0
    if _is_split(d):
        return 0
    over = union_classes(d.arc_ids(), [(c[1], c[3]) for c in d.crossings])
    col = {cls: k for k, cls in enumerate(sorted(set(over.values())))}
    classes = len(col)
    if classes != len(d.crossings):  # a component lies over the rest: split
        return 0
    rows = []
    for c in d.crossings:
        o, a, b = col[over[c[1]]], col[over[c[0]]], col[over[c[2]]]
        row = [0] * classes
        row[o] += 2
        row[a] -= 1
        row[b] -= 1
        rows.append(row)
    minor = [row[1:] for row in rows[1:]]
    if not minor or not minor[0]:
        return 1
    factors = smith_invariant_factors(minor)
    if len(factors) < len(minor):
        return 0
    det = 1
    for f in factors:
        det *= f
    return det


DETERMINANT_BASES = (
    [(name, census_link(name)) for name in CENSUS_LINKS]
    + [
        ("braid(" + ",".join(map(str, word)) + ")", catalog.braid_closure(word, strands))
        for word, strands in (
            ([1] * 5, 2),
            ([1] * 7, 2),
            ([1, 2] * 4, 3),
            ([1, -2] * 3, 3),
            ([1, -2] * 6, 3),
            ([1, 2, 3] * 4, 4),
        )
    ]
    + SPLIT_AND_LOOPED
    + [
        ("3_1#4_1", connected_sum(catalog.trefoil_right(), catalog.figure_eight())),
        ("hopf#3_1", connected_sum(catalog.hopf_positive(), catalog.trefoil_right())),
        ("3_1#3_1", connected_sum(catalog.trefoil_left(), catalog.trefoil_left())),
    ]
)


def scrambled(d, seed):
    """d after R1-R3 moves, which leave kinks, bigons and fused over-arcs."""
    return random_move_sequence(
        d, count=6, seed=seed, budget=len(d.crossings) + 4, kinds={"R1", "R2", "R3"}
    )[0]


DETERMINANT_POOL = DETERMINANT_BASES + [
    (f"{name} scrambled {seed}", scrambled(d, seed))
    for name, d in DETERMINANT_BASES
    if d.crossings
    for seed in (1, 2, 3)
]


@pytest.mark.parametrize("name,d", DETERMINANT_POOL, ids=[n for n, _ in DETERMINANT_POOL])
def test_determinant_matches_coloring_smith_form(name, d):
    assert determinant(d) == reference_determinant(d)


def test_determinant_pool_covers_zero_and_scrambles():
    # T(4,4) is not split, but its coloring minor has lower rank.
    values = [reference_determinant(d) for _, d in DETERMINANT_POOL]
    assert max(values) > 100
    assert any(v == 0 and not _is_split(d) for v, (_, d) in zip(values, DETERMINANT_POOL))
    moved = [d for name, d in DETERMINANT_POOL if "scrambled" in name]
    assert sum(has_kink(d) for d in moved) >= 3


# -- fingerprint of an unreduced diagram: the slow path of its contract --------

# The braids of the benchmark's floer-links workload, which closes every
# cyclic rotation of them.
FLOER_BENCH_BRAIDS = [
    ([1, -2, 1, -2], 3),
    ([1] * 5, 2),
    ([1, 2] * 4, 3),
    ([1, 1, 1, 2, -1, 2], 3),
    ([1, -2] * 3, 3),
    ([1] * 7, 2),
    ([1, -2] * 6, 3),
]

UNREDUCED_POOL = (
    [
        (f"{name} scrambled {seed}", scrambled(census_link(name), seed))
        for name in CENSUS_LINKS
        for seed in (1, 2, 3)
    ]
    + [
        (f"braid({','.join(map(str, word[k:] + word[:k]))})", catalog.braid_closure(word[k:] + word[:k], strands))
        for word, strands in FLOER_BENCH_BRAIDS
        for k in range(len(word))
    ]
)


def test_unreduced_pool_is_unreduced_and_under_the_bracket_cap():
    ds = [d for _, d in UNREDUCED_POOL]
    assert all(len(d.crossings) <= BRACKET_CROSSING_CAP for d in ds)
    assert sum(len(reduce_diagram(d).crossings) < len(d.crossings) for d in ds) >= 20


@pytest.mark.parametrize("name,d", UNREDUCED_POOL, ids=[n for n, _ in UNREDUCED_POOL])
def test_fingerprint_is_unchanged_by_reduction(name, d):
    # ``fingerprint`` expects a reduced diagram; any diagram of the link
    # must still give the same value.
    assert fingerprint(d) == fingerprint(reduce_diagram(d))


# -- Alexander of each orientation from flipped Fox rows -----------------------


REORIENTATION_POOL = (
    [
        ("hopf+", catalog.hopf_positive()),
        ("hopf-", catalog.hopf_negative()),
        ("T(2,4)", T24),
        ("T(2,6)", catalog.braid_closure([1] * 6, 2)),
        ("hopf#3_1", connected_sum(catalog.hopf_positive(), catalog.trefoil_right())),
    ]
    + [
        ("braid(" + ",".join(map(str, word)) + ")", catalog.braid_closure(word, strands))
        for word, strands in (([1, -2] * 3, 3), ([1, 2] * 3, 3), ([1, -2, 3, -2] * 2, 4))
    ]
    + FAMILY_MEMBERS
)


def flip_sets(d):
    """The reversed arcs of each orientation mask of d's components;
    bit k of the mask reverses component k."""
    _, labels = d.split_components()
    masks = 1 << len(set(labels.values()))
    return [{a for a, k in labels.items() if mask >> k & 1} for mask in range(masks)]


@pytest.mark.parametrize("name,d", REORIENTATION_POOL, ids=[n for n, _ in REORIENTATION_POOL])
def test_flipped_fox_rows_match_reversed_diagrams(name, d):
    for arcs in flip_sets(d):
        assert _alexander_from_rows(_fox_rows(d, _over_arcs(d), arcs)) == alexander(
            _reverse_arcs(d, arcs)
        )


def test_reorientation_pool_covers_both_flip_cases():
    # Some mask reverses both strands of a crossing between two
    # components, keeping its sign, and some exactly one, flipping it.
    both = one = False
    for _, d in REORIENTATION_POOL:
        _, labels = d.split_components()
        for arcs in flip_sets(d):
            for c in d.crossings:
                flips = (c[0] in arcs) + (c[1] in arcs)
                both |= flips == 2 and labels[c[0]] != labels[c[1]]
                one |= flips == 1
    assert both and one
    assert sum(name.startswith(("G6", "G8")) for name, _ in REORIENTATION_POOL) >= 50


def test_fingerprint_distinguishes_catalog():
    prints = {
        name: fingerprint(make())
        for name, make in (
            ("unknot", catalog.unknot),
            ("unlink2", lambda: catalog.unlink(2)),
            ("hopf+", catalog.hopf_positive),
            ("tref_r", catalog.trefoil_right),
            ("tref_l", catalog.trefoil_left),
            ("fig8", catalog.figure_eight),
        )
    }
    keys = [p.sort_key() for p in prints.values()]
    assert len(set(keys)) == len(keys)


def test_fingerprint_identifies_unoriented_hopf_mirrors():
    # reversing one component carries the positive clasp to the negative
    # one, so the unoriented currency must not separate them
    assert fingerprint(catalog.hopf_positive()) == fingerprint(catalog.hopf_negative())


def test_fingerprint_ignores_kinks_and_orientation():
    assert fingerprint(catalog.unknot_kink(1)) == fingerprint(catalog.unknot())
    hopf = catalog.hopf_positive()
    assert fingerprint(reverse_component(hopf, 1)) == fingerprint(hopf)
    assert fingerprint(hopf.reverse()) == fingerprint(hopf)


def test_fingerprint_json_shape():
    blob = fingerprint(catalog.trefoil_right()).to_json()
    assert set(blob) == {"components", "jones", "alexander"}
    assert blob["components"] == 1


def test_fingerprint_repr():
    # the collision warning in family() prints this text
    fp = fingerprint(catalog.hopf_negative())
    assert repr(fp) == (
        f"Fingerprint(components=2, jones={fp.jones!r}, alexander={fp.alexander!r})"
    )


def test_fingerprint_orientation_cap():
    # one component stays pinned, so six Hopf components reorient five
    # and eight would reorient seven, past ORIENTATION_FLIP_CAP
    hopf = catalog.hopf_negative()
    six = disjoint_union(hopf, disjoint_union(hopf, hopf))
    assert fingerprint(six).components == 6
    eight = disjoint_union(six, hopf)
    assert eight.split_components()[0] == 8
    with pytest.raises(CapExceeded):
        fingerprint(eight)


def test_link_only_guards():
    theta = catalog.theta()
    with pytest.raises(InvalidDiagram):
        kauffman_bracket(theta)
    with pytest.raises(InvalidDiagram):
        conway(theta)
    with pytest.raises(InvalidDiagram):
        alexander(theta)
    with pytest.raises(InvalidDiagram):
        determinant(theta)


@pytest.mark.parametrize("invariant", [kauffman_bracket, jones, fingerprint])
def test_empty_diagram_is_invalid(invariant):
    # No crossings and no loops is a link diagram of zero components:
    # the bracket's normalization <o> = 1 has no circle to stand on.
    empty = GraphDiagram.from_json({"crossings": [], "loops": 0})
    with pytest.raises(InvalidDiagram, match="at least one component"):
        invariant(empty)


# -- Wirtinger Alexander polynomial against the skein route --------------------


def skein_alexander(d):
    return normalize_alexander(conway_to_alexander(skein_conway(d)))


def orientations(d):
    """d with every subset of its components reversed."""
    _, labels = d.split_components()
    comps = sorted(set(labels.values()))
    out = []
    for mask in range(1 << len(comps)):
        cur = d
        for bit, comp in enumerate(comps):
            if mask >> bit & 1:
                cur = reverse_component(cur, comp)
        out.append(cur)
    return out


CATALOG_LINKS = [
    catalog.unknot(),
    catalog.unknot_kink(1),
    catalog.unknot_kink(-1),
    catalog.unlink(2),
    catalog.hopf_positive(),
    catalog.hopf_negative(),
    catalog.trefoil_right(),
    catalog.trefoil_left(),
    catalog.figure_eight(),
]

# The braids of the benchmark's floer-links and khovanov-z workloads.
BENCHMARK_BRAIDS = [
    ([1, -2, 1, -2], 3),
    ([1, 1, 1, 2, -1, 2], 3),
    ([1, -2] * 3, 3),
    ([1, -2] * 6, 3),
] + KHOVANOV_Z_BRAIDS


@pytest.mark.parametrize(
    "d",
    [pytest.param(census_link(name), id=name) for name in CENSUS_LINKS]
    + [pytest.param(d, id=f"catalog-{k}") for k, d in enumerate(CATALOG_LINKS)],
)
def test_alexander_matches_skein_on_census_and_catalog(d):
    for cur in orientations(d):
        assert alexander(cur) == skein_alexander(cur)


@pytest.mark.parametrize(
    "word, strands",
    BENCHMARK_BRAIDS,
    ids=["braid(" + ",".join(map(str, w)) + ")" for w, _ in BENCHMARK_BRAIDS],
)
def test_alexander_matches_skein_on_benchmark_braids(word, strands):
    for cur in orientations(catalog.braid_closure(word, strands)):
        assert alexander(cur) == skein_alexander(cur)


def test_alexander_matches_skein_on_scrambled_diagrams():
    # R1-R3 moves leave the diagram unreduced: kinks, bigons and
    # over-arcs that the Wirtinger rows must fuse correctly.
    kinds = set()
    for seed in range(12):
        base = census_link(CENSUS_LINKS[seed % len(CENSUS_LINKS)])
        d, moves = random_move_sequence(
            base, count=8, seed=500 + seed, budget=len(base.crossings) + 5,
            kinds={"R1", "R2", "R3"},
        )
        kinds |= {(m.kind, m.insert) for m in moves}
        assert alexander(d) == skein_alexander(d)
    assert {("R1", True), ("R2", True), ("R3", True)} <= kinds


def test_alexander_of_split_diagrams_is_zero():
    hopf = catalog.hopf_positive()
    # Switching one clasp crossing lays one component over the other:
    # it never passes under, so it adds an over-arc class with no row.
    over = _switch_crossing(hopf, 0)
    assert not _is_split(over) and _over_arcs(over) is None
    borromean_on_top = BORROMEAN
    _, labels = BORROMEAN.split_components()
    for i, c in enumerate(BORROMEAN.crossings):
        if labels[c[0]] == 0:  # component 0 passes under here
            borromean_on_top = _switch_crossing(borromean_on_top, i)
    assert not _is_split(borromean_on_top) and _over_arcs(borromean_on_top) is None
    split = [
        over,
        borromean_on_top,
        disjoint_union(catalog.trefoil_right(), catalog.unknot()),
        disjoint_union(catalog.hopf_positive(), catalog.figure_eight()),
        catalog.unlink(3),
    ]
    for d in split:
        assert skein_alexander(d).is_zero()
        assert alexander(d).is_zero()
        assert determinant(d) == 0


def test_alexander_of_loop_diagrams():
    one = GraphDiagram.from_json({"crossings": [], "loops": 1})
    assert alexander(one) == skein_alexander(one) == Laurent.one(T)
    two = GraphDiagram.from_json({"crossings": [], "loops": 2})
    assert alexander(two).is_zero() and skein_alexander(two).is_zero()


@settings(max_examples=60, deadline=None)
@given(braid_words(max_letters=8))
def test_alexander_matches_skein_on_random_braids(braid):
    word, strands = braid
    d = catalog.braid_closure(word, strands)
    assert alexander(d) == skein_alexander(d)


# -- Conway polynomial from the Seifert matrix against the skein recursion -----


@pytest.mark.parametrize("name,d", REORIENTATION_POOL, ids=[n for n, _ in REORIENTATION_POOL])
def test_conway_matches_skein_under_every_orientation(name, d):
    for arcs in flip_sets(d):
        cur = _reverse_arcs(d, arcs)
        assert conway(reduce_diagram(cur)) == skein_conway(cur)


# Closures up to 16 crossings; the skein recursion takes seconds past that.
CONWAY_BRAIDS = BRAIDS + [b for b in BENCHMARK_BRAIDS if b not in BRAIDS] + [
    ([1, -2] * 7, 3),
    ([1, 2] * 7, 3),
    ([1, -2, 3] * 5, 4),
    ([1, -2] * 8, 3),
    ([1, 1, -2, 3, -2, 3] * 2 + [1, 2, -3, 2], 4),
    ([2, 2, -1, 2, -1, -1, -1, -2, 1, -2, -1, -1], 3),
]

CONWAY_BASES = [(name, census_link(name)) for name in CENSUS_LINKS] + [
    ("braid(" + ",".join(map(str, word)) + ")", catalog.braid_closure(word, strands))
    for word, strands in CONWAY_BRAIDS
]

CONWAY_POOL = (
    CONWAY_BASES
    + [(f"{name} mirrored", d.mirror()) for name, d in CONWAY_BASES]
    + [
        (f"{name} scrambled {seed}", scrambled(d, seed))
        for name, d in CONWAY_BASES
        if d.crossings and len(d.crossings) <= 10
        for seed in (1, 2, 3)
    ]
)


@pytest.mark.parametrize("name,d", CONWAY_POOL, ids=[n for n, _ in CONWAY_POOL])
def test_conway_matches_skein(name, d):
    # ``conway`` takes a reduced diagram; the skein recursion, any diagram.
    assert conway(reduce_diagram(d)) == skein_conway(d)


def test_conway_pool_reaches_sixteen_crossings_and_both_parities():
    sizes = [len(d.crossings) for _, d in CONWAY_POOL]
    assert max(sizes) == 16
    parities = {d.split_components()[0] % 2 for _, d in CONWAY_POOL}
    assert parities == {0, 1}
    moved = [d for name, d in CONWAY_POOL if "scrambled" in name]
    assert sum(has_kink(d) for d in moved) >= 3


# -- reduction keeps the polynomials the Euler checks compare ------------------
# The per-link paths take the reduced diagram only: the Khovanov and Floer
# Euler checks compare its homology with its own Jones and Alexander
# polynomials, so the reduction must keep both on the diagrams they see.

REDUCTION_POOL = (
    FAMILY_MEMBERS
    + [(f"K member {k}", m.diagram) for k, m in enumerate(family(knotted_k()).members)]
    + [(name, census_link(name)) for name in CENSUS_LINKS]
    + [(name, d) for name, d in CONWAY_POOL if " scrambled " in name]
)


@pytest.mark.parametrize("name,d", REDUCTION_POOL, ids=[n for n, _ in REDUCTION_POOL])
def test_reduction_keeps_jones_and_alexander(name, d):
    reduced = reduce_diagram(d)
    assert unnormalized_jones(reduced) == unnormalized_jones(d)
    assert alexander(reduced) == alexander(d)


def test_reduction_pool_holds_unreduced_diagrams():
    assert sum(reduce_diagram(d) is not d for _, d in REDUCTION_POOL) >= 80
