"""Grid presentations: moves, simplification, and braid-based conversion."""

import hashlib
import json
import random
from functools import reduce
from importlib import resources

import pytest

from graphhom import grid as grid_mod
from graphhom.catalog import (
    braid_closure,
    figure_eight,
    hopf_negative,
    hopf_positive,
    theta,
    trefoil_left,
    trefoil_right,
    unknot,
    unlink,
)
from graphhom.diagrams import GraphDiagram, connected_sum, disjoint_union
from graphhom.errors import InvalidDiagram, RoutingFailure
from graphhom.grid import (
    GridDiagram,
    braid_to_grid,
    braid_word,
    commute_cols,
    commute_rows,
    destabilize,
    find_destabilization,
    grid_to_diagram,
    grid_union,
    pd_to_grid,
    piece_grids,
    simplify_grid,
    split_pieces,
    translate,
)
from graphhom.invariants import fingerprint, jones, reduce_diagram
from graphhom.kauffman import family

UNKNOT_GRID = GridDiagram(2, (1, 0), (0, 1))


def stabilize(g: GridDiagram, r: int, down: bool = True, right: bool = True) -> GridDiagram:
    """Split row r's X marker into an L of three markers on an n+1 grid."""
    c = g.X[r]
    rn = r + 1 if down else r
    cn = c + 1 if right else c
    rr = r if down else r + 1
    cc = c if right else c + 1

    def row_of(t: int) -> int:
        return t if t < rn else t + 1

    def col_of(u: int) -> int:
        return u if u < cn else u + 1

    n = g.n + 1
    xs, os_ = [-1] * n, [-1] * n
    for t in range(g.n):
        xs[row_of(t)] = col_of(g.X[t])
        os_[row_of(t)] = col_of(g.O[t])
    xs[rr], xs[rn], os_[rn] = cn, cc, cn
    return GridDiagram(n, tuple(xs), tuple(os_))


def mirror_grid(g):
    """Reflect across a vertical line; presents the mirror link."""
    m = g.n - 1
    return GridDiagram(
        g.n,
        tuple(m - c for c in g.X),
        tuple(m - c for c in g.O),
    )


def reverse_grid(g):
    """Swap marker roles, reversing the orientation of every component."""
    return GridDiagram(g.n, g.O, g.X)


def test_validation_rejects_small_and_malformed():
    with pytest.raises(InvalidDiagram):
        GridDiagram(1, (0,), (0,))
    with pytest.raises(InvalidDiagram):
        GridDiagram(3, (0, 1, 1), (2, 0, 1))
    with pytest.raises(InvalidDiagram):
        GridDiagram(2, (0, 1), (0, 1))


def test_json_round_trip():
    g = pd_to_grid(trefoil_right())
    assert GridDiagram.from_json(g.to_json()) == g
    with pytest.raises(InvalidDiagram):
        GridDiagram.from_json({"n": 2, "X": [1, 0]})
    with pytest.raises(InvalidDiagram):
        GridDiagram.from_json({"n": 2, "X": [1, 0], "O": ["0", 1]})
    with pytest.raises(InvalidDiagram, match="n, X and O must be an integer and two integer lists"):
        GridDiagram.from_json({"n": 2, "X": [True, False], "O": [False, True]})


def test_component_counts():
    assert UNKNOT_GRID.component_count() == 1
    assert pd_to_grid(hopf_positive()).component_count() == 2
    assert pd_to_grid(trefoil_right()).component_count() == 1
    u = grid_union(UNKNOT_GRID, pd_to_grid(hopf_positive()))
    assert u.component_count() == 3


def test_single_letter_braid_grid_frozen():
    g = braid_to_grid([1], 2)
    assert (g.n, g.X, g.O) == (5, (0, 1, 2, 3, 4), (4, 3, 0, 2, 1))
    d = grid_to_diagram(g)
    assert len(d.crossings) == 1 and d.crossing_sign(0) == 1
    assert fingerprint(d) == fingerprint(unknot())


def test_negative_letter_gives_negative_crossing():
    d = grid_to_diagram(braid_to_grid([-1], 2))
    assert len(d.crossings) == 1 and d.crossing_sign(0) == -1


def test_unknot_converts_to_minimal_grid():
    assert pd_to_grid(unknot()) == UNKNOT_GRID


@pytest.mark.parametrize(
    "make",
    [trefoil_right, trefoil_left, hopf_positive, hopf_negative, figure_eight],
    ids=["trefoil_r", "trefoil_l", "hopf_pos", "hopf_neg", "figure8"],
)
def test_conversion_round_trip(make):
    d = make()
    g = pd_to_grid(d)
    assert fingerprint(grid_to_diagram(g)) == fingerprint(d)


def test_chirality_survives_conversion():
    r = grid_to_diagram(pd_to_grid(trefoil_right()))
    l = grid_to_diagram(pd_to_grid(trefoil_left()))
    assert fingerprint(r) != fingerprint(l)


def test_antiparallel_clasp_needs_pokes_and_round_trips():
    from test_invariants import reverse_component

    d = reverse_component(hopf_positive(), 1)
    g = pd_to_grid(d)
    assert fingerprint(grid_to_diagram(g)) == fingerprint(d)


def test_composite_diagrams_round_trip():
    for d in (
        connected_sum(trefoil_right(), trefoil_right()),
        disjoint_union(unknot(), trefoil_right()),
    ):
        assert fingerprint(grid_to_diagram(pd_to_grid(d))) == fingerprint(d)


# Census links by name, with the number of split pieces each has.
CENSUS_LINK_PIECES = {
    "figure_eight": 1,
    "hopf_negative": 1,
    "hopf_positive": 1,
    "trefoil_left": 1,
    "trefoil_right": 1,
    "unknot": 1,
    "unlink2": 2,
}


def census_link(name):
    text = (resources.files("graphhom.census") / f"{name}.diagram.json").read_text("utf-8")
    return GraphDiagram.from_json(json.loads(text))


@pytest.mark.parametrize(
    "d, pieces",
    [pytest.param(census_link(name), k, id=name) for name, k in CENSUS_LINK_PIECES.items()]
    + [pytest.param(unlink(k), k, id=f"unlink{k}") for k in (1, 2, 3)]
    + [pytest.param(disjoint_union(hopf_positive(), trefoil_right()), 2, id="hopf+trefoil")],
)
def test_pd_to_grid_stacks_the_piece_grids(d, pieces):
    grids = piece_grids(d)
    assert len(grids) == pieces
    assert pd_to_grid(d) == reduce(grid_union, grids)
    assert sum(g.component_count() for g in grids) == d.split_components()[0]


def mirror_braid_words(monkeypatch):
    """Make grid conversion extract the mirror of every piece's braid."""

    def mirrored(d):
        word, strands = braid_word(d)
        return [-g for g in word], strands

    monkeypatch.setattr(grid_mod, "braid_word", mirrored)


def test_wrong_braid_closure_raises_routing_failure(monkeypatch):
    # The trefoil is chiral, so its mirrored word closes to another link.
    mirror_braid_words(monkeypatch)
    with pytest.raises(RoutingFailure, match="extracted braid closure presents a different link"):
        piece_grids(trefoil_right())
    with pytest.raises(RoutingFailure, match="extracted braid closure presents a different link"):
        grid_mod.conway(trefoil_right())


def test_reversed_component_braid_raises_routing_failure(monkeypatch):
    # (1, -2, -1, -1, -2) on 3 strands closes to T(2,4) with one
    # component reversed: the unoriented fingerprint cannot tell it from
    # the s1^4 closure, but the oriented Jones polynomial can.
    reversed_word = ([1, -2, -1, -1, -2], 3)
    torus = braid_closure([1, 1, 1, 1], 2)
    wrong = braid_closure(*reversed_word)
    assert fingerprint(reduce_diagram(wrong)) == fingerprint(torus)
    assert jones(wrong) != jones(torus)
    monkeypatch.setattr(grid_mod, "braid_word", lambda d: reversed_word)
    with pytest.raises(RoutingFailure, match="extracted braid closure presents a different link"):
        piece_grids(torus)
    with pytest.raises(RoutingFailure, match="extracted braid closure presents a different link"):
        grid_mod.conway(torus)


def test_braid_word_recovers_torus_words():
    word, strands = braid_word(trefoil_right())
    assert strands == 2 and word == [1, 1, 1]
    word, strands = braid_word(hopf_positive())
    assert strands == 2 and word == [1, 1]


def test_braid_word_closure_matches_figure_eight():
    word, strands = braid_word(figure_eight())
    assert fingerprint(braid_closure(word, strands)) == fingerprint(figure_eight())


def test_braid_word_needs_crossings():
    with pytest.raises(InvalidDiagram):
        braid_word(unknot())


def test_pd_to_grid_rejects_graphs():
    with pytest.raises(InvalidDiagram):
        pd_to_grid(theta())


def test_translations_preserve_link():
    g = pd_to_grid(figure_eight())
    want = fingerprint(figure_eight())
    for dr, dc in ((1, 0), (0, 1), (3, 7), (9, 9)):
        assert fingerprint(grid_to_diagram(translate(g, dr, dc))) == want


def transpose(g):
    """Reflect across the main diagonal.

    The reflection mirrors the picture but also trades the over strand
    for the under one, so the two flips cancel: the link is unchanged,
    with every component reversed.
    """
    xs, os_ = [0] * g.n, [0] * g.n
    for r in range(g.n):
        xs[g.X[r]] = r
        os_[g.O[r]] = r
    return GridDiagram(g.n, tuple(xs), tuple(os_))


def test_transpose_preserves_link():
    g = pd_to_grid(trefoil_right())
    assert fingerprint(grid_to_diagram(transpose(g))) == fingerprint(
        trefoil_right()
    )


def test_mirror_grid_presents_mirror():
    g = pd_to_grid(trefoil_right())
    assert fingerprint(grid_to_diagram(mirror_grid(g))) == fingerprint(
        trefoil_left()
    )


def test_reverse_presents_reversed_orientation():
    d = hopf_positive()
    g = pd_to_grid(d)
    assert fingerprint(grid_to_diagram(reverse_grid(g))) == fingerprint(d.reverse())


@pytest.mark.parametrize("down", [True, False])
@pytest.mark.parametrize("right", [True, False])
def test_stabilize_variants(down, right):
    g = pd_to_grid(trefoil_right())
    st = stabilize(g, 2, down, right)
    assert st.n == g.n + 1
    assert fingerprint(grid_to_diagram(st)) == fingerprint(trefoil_right())
    assert find_destabilization(st) is not None


def test_destabilize_inverts_stabilize():
    g = pd_to_grid(trefoil_right())
    st = stabilize(g, 2, True, True)
    assert destabilize(st, 2, g.X[2]) == g


def test_destabilize_handles_wraparound():
    st = translate(stabilize(UNKNOT_GRID, 0), 1, 1)
    pos = find_destabilization(st)
    assert pos is not None
    assert destabilize(st, *pos).n == 2


def test_destabilize_rejects_blocks_outside_the_grid():
    g = GridDiagram(4, (1, 2, 3, 0), (0, 1, 2, 3))
    for r, c in ((4, 0), (-2, -2), (0, 4), (-1, 3)):
        with pytest.raises(InvalidDiagram, match=rf"block at \({r}, {c}\) lies outside the 4 x 4 grid"):
            destabilize(g, r, c)


def test_destabilize_rejects_blocks_without_three_markers():
    g = GridDiagram(4, (1, 2, 3, 0), (0, 1, 2, 3))
    with pytest.raises(InvalidDiagram, match=r"block at \(0, 2\) has 1 markers, not 3"):
        destabilize(g, 0, 2)
    # A block that wraps is named as the caller gave it, not as shifted.
    with pytest.raises(InvalidDiagram, match=r"block at \(3, 1\) has 1 markers, not 3"):
        destabilize(g, 3, 1)
    with pytest.raises(InvalidDiagram, match=r"block at \(0, 0\) has 4 markers, not 3"):
        destabilize(UNKNOT_GRID, 0, 0)


# -- references: the block scan and transposed commutation they replaced ------


def ref_block_markers(g, r, c):
    found = []
    for t in (r, (r + 1) % g.n):
        for u in (c, (c + 1) % g.n):
            if g.X[t] == u:
                found.append((t, u, "X"))
            if g.O[t] == u:
                found.append((t, u, "O"))
    return found


def ref_find_destabilization(g):
    for r in range(g.n):
        for c in range(g.n):
            if len(ref_block_markers(g, r, c)) == 3:
                return (r, c)
    return None


def ref_destabilize(g, r, c):
    if (r + 1) % g.n != r + 1:
        return ref_destabilize(translate(g, 1, 0), 0, c)
    if (c + 1) % g.n != c + 1:
        return ref_destabilize(translate(g, 0, 1), r, 0)
    marks = ref_block_markers(g, r, c)
    if len(marks) != 3:
        raise InvalidDiagram([f"block at ({r}, {c}) has {len(marks)} markers, not 3"])
    cells = {(t, u) for t, u, _ in marks}
    (re, ce) = next((t, u) for t in (r, r + 1) for u in (c, c + 1) if (t, u) not in cells)
    rk, ck = r + r + 1 - re, c + c + 1 - ce
    kinds = {(t, u): k for t, u, k in marks}
    arm = kinds[(rk, ce)]
    if arm != kinds[(re, ck)] or kinds[(rk, ck)] == arm:
        raise InvalidDiagram(["destabilization block is not an L of equal arms"])
    xs, os_ = [], []
    for t in range(g.n):
        if t == rk:
            continue
        row = {"X": g.X[t], "O": g.O[t]}
        if t == re:
            row[arm] = ce
        xs.append(row["X"] - (row["X"] > ck))
        os_.append(row["O"] - (row["O"] > ck))
    return GridDiagram(g.n - 1, tuple(xs), tuple(os_))


def ref_commute_cols(g, c):
    if not 0 <= c < g.n - 1:
        return None
    swapped = commute_rows(transpose(g), c)
    return None if swapped is None else transpose(swapped)


def random_grid(rng, n):
    xs = list(range(n))
    rng.shuffle(xs)
    while True:
        os_ = list(range(n))
        rng.shuffle(os_)
        if all(a != b for a, b in zip(xs, os_)):
            return GridDiagram(n, tuple(xs), tuple(os_))


def reference_pool():
    """Random grids with n = 2..9, and stabilized ones shifted so their
    three-marker block wraps around an edge."""
    rng = random.Random(27)
    pool = [random_grid(rng, rng.randint(2, 9)) for _ in range(400)]
    for _ in range(100):
        g = random_grid(rng, rng.randint(2, 8))
        st = stabilize(g, rng.randrange(g.n), rng.random() < 0.5, rng.random() < 0.5)
        pool.append(translate(st, rng.randrange(st.n), rng.randrange(st.n)))
    return pool


def test_grid_moves_match_the_block_scan_references():
    wrapped = 0
    for g in reference_pool():
        assert find_destabilization(g) == ref_find_destabilization(g)
        for r in range(g.n):
            for c in range(g.n):
                k = len(ref_block_markers(g, r, c))
                if k != 3:
                    with pytest.raises(InvalidDiagram, match=rf"block at \({r}, {c}\) has {k} markers, not 3"):
                        destabilize(g, r, c)
                    continue
                assert destabilize(g, r, c) == ref_destabilize(g, r, c)
                wrapped += r == g.n - 1 or c == g.n - 1
        for c in range(-1, g.n + 1):
            assert commute_cols(g, c) == ref_commute_cols(g, c)
    assert wrapped >= 50


# (braid word, strands) of the benchmark's floer-links cases.
FLOER_LINK_BRAIDS = [
    ([1, -2, 1, -2], 3),
    ([1] * 5, 2),
    ([1, 2] * 4, 3),
    ([1, 1, 1, 2, -1, 2], 3),
    ([1, -2] * 3, 3),
    ([1] * 7, 2),
    ([1, -2] * 6, 3),
]


# sha256 of the simplified grids' JSON, recorded with the n^2 block-scan
# search that ``_three_marker_blocks`` replaced.
BRAIDS_DIGEST = "461c88294faf6b8b154ef7cdfabfbfaa252806f5143b645c9804fa3bf9c3f90d"
KNOTTED_DIGEST = "bf3de2159ddf55cd4348c3d15ee955963c31a0da041c64394144a30ea96a32ed"
RANDOM_DIGEST = "b349ea89818b738676dacb56930447f1a22cc6f276ea84e840d10a431deddade"


def simplify_digest(grids):
    outs = [simplify_grid(g).to_json() for g in grids]
    return hashlib.sha256(json.dumps(outs).encode()).hexdigest()


def test_simplify_grid_output_is_pinned():
    from test_graph_homology import knotted_k

    braids = []
    for seed in range(1, 8):
        rng = random.Random(seed)
        for word, strands in FLOER_LINK_BRAIDS:
            k = rng.randrange(len(word))
            braids.append(pd_to_grid(braid_closure(word[k:] + word[:k], strands)))
    knotted = [
        piece_grids(p)[0] for m in family(knotted_k()).members for p in split_pieces(m.reduced) if p.crossings
    ]
    assert [g.n for g in knotted] == [19, 25]
    rng = random.Random(27)
    randoms = [random_grid(rng, rng.randint(2, 9)) for _ in range(300)]
    assert [simplify_digest(gs) for gs in (braids, knotted, randoms)] == [
        BRAIDS_DIGEST, KNOTTED_DIGEST, RANDOM_DIGEST
    ]


def test_commutation_legality():
    g = GridDiagram(4, (0, 2, 1, 3), (3, 0, 2, 1))
    swapped = commute_rows(g, 1)
    if swapped is not None:
        assert fingerprint(grid_to_diagram(swapped)) == fingerprint(
            grid_to_diagram(g)
        )
    lo, hi = sorted((g.X[1], g.O[1]))
    lo2, hi2 = sorted((g.X[2], g.O[2]))
    shared = len({lo, hi} & {lo2, hi2}) > 0
    if shared:
        assert commute_rows(g, 1) is None


def test_commutations_preserve_link_randomized():
    rng = random.Random(5)
    g = pd_to_grid(figure_eight())
    want = fingerprint(figure_eight())
    for _ in range(12):
        moves = [commute_rows(g, r) for r in range(g.n - 1)]
        moves += [commute_cols(g, c) for c in range(g.n - 1)]
        legal = [m for m in moves if m is not None]
        if not legal:
            break
        g = rng.choice(legal)
        assert fingerprint(grid_to_diagram(g)) == want


@pytest.mark.parametrize(
    "make,start,end",
    [(trefoil_right, 7, 5), (figure_eight, 10, 6), (hopf_positive, 6, 4)],
    ids=["trefoil", "figure8", "hopf"],
)
def test_simplify_reaches_known_sizes(make, start, end):
    d = make()
    g = pd_to_grid(d)
    assert g.n == start
    s = simplify_grid(g)
    assert s.n == end
    assert fingerprint(grid_to_diagram(s)) == fingerprint(d)


def test_simplify_never_grows():
    rng = random.Random(9)
    g = pd_to_grid(hopf_negative())
    for _ in range(4):
        g = stabilize(
            g, rng.randrange(g.n), rng.random() < 0.5, rng.random() < 0.5
        )
    s = simplify_grid(g)
    assert s.n <= g.n
    assert fingerprint(grid_to_diagram(s)) == fingerprint(hopf_negative())


def test_stabilized_three_by_three_simplifies_to_two():
    st = stabilize(UNKNOT_GRID, 0, True, False)
    assert st.n == 3
    assert simplify_grid(st) == UNKNOT_GRID or simplify_grid(st).n == 2
