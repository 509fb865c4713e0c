"""Grid homology: frozen small tables, Euler identities, and the
structural symmetries (duality, reversal, unions, sums)."""

import json
import random
import tracemalloc
from array import array
from collections import Counter
from importlib import resources
from itertools import permutations

import pytest

from graphhom.bigraded import BigradedDims
from graphhom.catalog import (
    braid_closure,
    figure_eight,
    hopf_negative,
    hopf_positive,
    trefoil_left,
    trefoil_right,
    unknot,
    unlink,
)
from graphhom.diagrams import GraphDiagram, connected_sum, disjoint_union
from graphhom import floer, linalg
from graphhom.errors import CapExceeded, DeconvolutionError, InvalidDiagram
from graphhom.floer import (
    euler_matches_skein,
    hat_euler,
    hat_from_grid,
    hfk_hat,
    tilde_homology,
    total_homology,
    total_homology_from_grid,
)
from graphhom.grid import (
    GridDiagram,
    commute_cols,
    commute_rows,
    grid_union,
    pd_to_grid,
    simplify_grid,
)
from graphhom.laurent import Laurent, T, U, UT, exact_divide
from test_grid import mirror_grid, reverse_grid, stabilize

UNKNOT_GRID = GridDiagram(2, (1, 0), (0, 1))

# The rank-two disjoint-union factor: one generator at Maslov 1/2, one
# at -1/2, both at Alexander 0.
X_FACTOR = BigradedDims.of_ranks({(1, 0): 1, (-1, 0): 1})


def total_rank(dims):
    return sum(r for r, _ in dims.dims.values())


def dual_ranks(dims):
    return BigradedDims.of_ranks({(-i, -j): r for (i, j), (r, _) in dims.dims.items() if r})


def random_grid(rng, n):
    while True:
        xs = list(range(n))
        os_ = list(range(n))
        rng.shuffle(xs)
        rng.shuffle(os_)
        if all(a != b for a, b in zip(xs, os_)):
            return GridDiagram(n, tuple(xs), tuple(os_))


# -- slow reference kernel ----------------------------------------------------
# The grid complex as first written: gradings by O(n^2) pair counts per
# generator, rectangles by a loop over row pairs that scans each
# rectangle's interior rows.  ``floer._complex`` must agree with it.


def _dominated(pts_a, pts_b):
    """Count pairs (a, b) with a strictly southwest of b."""
    total = 0
    for ax, ay in pts_a:
        for bx, by in pts_b:
            if ax < bx and ay < by:
                total += 1
    return total


def _generator_points(x):
    return [(2 * c, 2 * r) for r, c in enumerate(x)]


def _marker_points(cols):
    # Markers sit in cell centers, offset northeast of the lattice point
    # sharing their indices.
    return [(2 * c + 1, 2 * r + 1) for r, c in enumerate(cols)]


def gradings(g, x):
    """Doubled (Maslov, Alexander) gradings of one generator."""
    n, ell = g.n, g.component_count()
    pts = _generator_points(x)
    xpts = _marker_points(g.X)
    opts = _marker_points(g.O)
    i_xx = _dominated(xpts, xpts)
    i_oo = _dominated(opts, opts)
    i_gg = _dominated(pts, pts)
    j2_go = _dominated(pts, opts) + _dominated(opts, pts)
    j2_gx = _dominated(pts, xpts) + _dominated(xpts, pts)
    m2 = 2 * (i_gg - j2_go + i_oo + 1) + (ell - 1)
    a2 = j2_gx - j2_go - i_xx + i_oo - (n - ell)
    return m2, a2


def reference_edges(g, block_x):
    """Rectangle edges (i, j) reduced mod 2, by the row-pair loop."""
    n = g.n
    gens = list(permutations(range(n)))
    blocked = floer._cell_masks(n, g.O)
    if block_x:
        xmasks = floer._cell_masks(n, g.X)
        blocked = [
            [bo | bx for bo, bx in zip(ro, rx)] for ro, rx in zip(blocked, xmasks)
        ]
    cols = floer._cell_masks(n, range(n))
    gidx = {x: i for i, x in enumerate(gens)}
    parity = Counter()
    for ix, x in enumerate(gens):
        for r1 in range(n):
            for r2 in range(r1 + 1, n):
                y = list(x)
                y[r1], y[r2] = y[r2], y[r1]
                iy = gidx[tuple(y)]
                for ra, rb in ((r1, r2), (r2, r1)):
                    ca, cb = x[ra], x[rb]
                    length = (rb - ra) % n
                    width = (cb - ca) % n
                    if blocked[ra][length] & cols[ca][width]:
                        continue
                    inner = cols[(ca + 1) % n][width - 1]
                    if any((1 << x[(ra + i) % n]) & inner for i in range(1, length)):
                        continue
                    parity[ix, iy] ^= 1
    return {pair for pair, bit in parity.items() if bit}


def mod2_edges(edges):
    parity = Counter()
    for i, j, coeff in edges:
        parity[i, j] ^= coeff % 2
    return {pair for pair, bit in parity.items() if bit}


def census_grid(name):
    text = (resources.files("graphhom.census") / f"{name}.diagram.json").read_text("utf-8")
    return simplify_grid(pd_to_grid(GraphDiagram.from_json(json.loads(text))))


CENSUS_LINKS = [
    "figure_eight",
    "hopf_negative",
    "hopf_positive",
    "trefoil_left",
    "trefoil_right",
    "unknot",
    "unlink2",
]


def _oracle_grids():
    census = [pytest.param(census_grid(name), id=name) for name in CENSUS_LINKS]
    rng = random.Random(41)
    stabilized = []
    for name in CENSUS_LINKS:
        g = census_grid(name)
        if g.n <= 5:
            down, right = rng.random() < 0.5, rng.random() < 0.5
            stab = stabilize(g, rng.randrange(g.n), down=down, right=right)
            stabilized.append(pytest.param(stab, id=f"{name}-stabilized"))
    randoms = [
        pytest.param(random_grid(rng, n), id=f"random{n}-{k}")
        for n in range(2, 7)
        for k in range(2)
    ]
    # Wide grids, where the sweep's marker-free widths cut rectangles
    # short: T(2,5)'s simplified grid and a random one, both n = 7.
    t25 = simplify_grid(pd_to_grid(braid_closure([1] * 5, 2)))
    assert t25.n == 7
    wide = [
        pytest.param(t25, id="T(2,5)"),
        pytest.param(random_grid(rng, 7), id="random7"),
    ]
    return census + stabilized + randoms + wide


ORACLE_GRIDS = _oracle_grids()


@pytest.mark.parametrize("block_x", [True, False], ids=["tilde", "total"])
@pytest.mark.parametrize("g", ORACLE_GRIDS)
def test_complex_gradings_match_reference(g, block_x):
    m2s, a2s, _edges = floer._complex(g, block_x)
    assert isinstance(m2s, array) and isinstance(a2s, array)
    gens = list(permutations(range(g.n)))
    assert list(zip(m2s, a2s)) == [gradings(g, x) for x in gens]


@pytest.mark.parametrize("block_x", [True, False], ids=["tilde", "total"])
@pytest.mark.parametrize("g", ORACLE_GRIDS)
def test_complex_edges_match_reference(g, block_x):
    _m2s, _a2s, edges = floer._complex(g, block_x)
    assert mod2_edges(edges) == reference_edges(g, block_x)


# -- slow-path hat -------------------------------------------------------------
# The hat as first computed: homology of the whole tilde complex, with the
# stabilization factor V^(n - l) divided out.  ``hat_from_grid`` reads
# the hat off the a2 >= 0 summand only and must agree with it.

_V_HAT = Laurent(UT, {(0, 0): 1, (-2, -2): 1})


def full_hat(g):
    tilde = tilde_homology(g).poincare(UT)
    power = g.n - g.component_count()
    quotient = exact_divide(tilde, _V_HAT ** power, require_nonnegative=True)
    return BigradedDims.of_ranks(dict(quotient.terms))


# The links of the benchmark's floer-links workload that fit under the
# grid cap: figure-eight, T(2,5), T(3,4), s1^3 s2 s1^-1 s2 and the
# Borromean rings (n = 8).
FLOER_LINK_BRAIDS = [
    ("figure-eight", [1, -2, 1, -2], 3),
    ("T(2,5)", [1] * 5, 2),
    ("T(3,4)", [1, 2] * 4, 3),
    ("s1^3 s2 s1^-1 s2", [1, 1, 1, 2, -1, 2], 3),
    ("borromean", [1, -2] * 3, 3),
]


def _hat_oracle_grids():
    grids = [(p.id, p.values[0]) for p in ORACLE_GRIDS]
    grids += [
        (name, simplify_grid(pd_to_grid(braid_closure(word, strands))))
        for name, word, strands in FLOER_LINK_BRAIDS
    ]
    rng = random.Random(53)
    grids += [(f"random{n}-{k}", random_grid(rng, n)) for n in range(2, 9) for k in range(2)]
    grids += [(f"{name}-mirror", mirror_grid(g)) for name, g in grids]
    return [pytest.param(g, id=name) for name, g in grids]


@pytest.mark.parametrize("g", _hat_oracle_grids())
def test_hat_matches_the_full_tilde_complex(g):
    assert hat_from_grid(g) == full_hat(g)


@pytest.mark.parametrize("g", ORACLE_GRIDS)
def test_full_hat_is_symmetric(g):
    # The premise of the reflection in ``hat_from_grid``:
    # (m2, a2) and (m2 - 2 a2, -a2) have equal rank.
    ranks = full_hat(g).ranks()
    assert ranks == {(m2 - 2 * a2, -a2): r for (m2, a2), r in ranks.items()}


@pytest.mark.parametrize("g", ORACLE_GRIDS)
def test_top_half_walk_lists_the_a2_slice(g):
    gens = list(permutations(range(g.n)))
    want = [x for x in gens if gradings(g, x)[1] >= 0]
    codes, m2s, a2s = floer._generators(g, top_half=True)
    xs = floer._decode(g.n, codes)
    assert xs == want
    assert list(zip(m2s, a2s)) == [gradings(g, x) for x in want]
    # Its rectangles are the full complex's edges out of the slice, and
    # none leaves it.
    index = {x: i for i, x in enumerate(gens)}
    _m2s, _a2s, edges = floer._complex(g, block_x=True, top_half=True)
    got = {(index[xs[i]], index[xs[j]]) for i, j in mod2_edges(edges)}
    sliced = {index[x] for x in want}
    assert got == {(i, j) for i, j in reference_edges(g, True) if i in sliced}


@pytest.mark.parametrize("diagram", [trefoil_right(), figure_eight(), hopf_positive()])
def test_hat_is_unchanged_by_stabilization_past_the_cap(diagram):
    g = simplify_grid(pd_to_grid(diagram))
    want = hat_from_grid(g)
    rng = random.Random(g.n)
    stab = g
    while stab.n < 10:
        stab = stabilize(
            stab, rng.randrange(stab.n), down=rng.random() < 0.5, right=rng.random() < 0.5
        )
        if stab.n >= 9:
            assert hat_from_grid(stab, cap=10) == want
            with pytest.raises(CapExceeded):
                hat_from_grid(stab)


def test_two_by_two_gradings_multiset():
    got = sorted(gradings(UNKNOT_GRID, x) for x in [(0, 1), (1, 0)])
    assert got == [(-2, -2), (0, 0)]


def test_two_by_two_tilde():
    assert tilde_homology(UNKNOT_GRID).ranks() == {(0, 0): 1, (-2, -2): 1}


def test_stabilized_unknot_tilde_rank():
    g = GridDiagram(3, (1, 2, 0), (0, 1, 2))
    assert total_rank(tilde_homology(g)) == 4


def test_unknot_hat():
    assert hfk_hat(unknot()).ranks() == {(0, 0): 1}


def test_trefoil_hats_and_duality():
    right = hfk_hat(trefoil_right())
    left = hfk_hat(trefoil_left())
    assert total_rank(right) == 3
    assert left == dual_ranks(right)
    assert hat_euler(right) == Laurent(T, {(2,): 1, (0,): -1, (-2,): 1})


def test_hopf_hat_table():
    hat = hfk_hat(hopf_positive())
    assert total_rank(hat) == 4
    assert hat.ranks() == {(3, 2): 1, (1, 0): 2, (-1, -2): 1}
    assert hfk_hat(hopf_negative()) == dual_ranks(hat)


def test_figure_eight_hat_is_self_dual():
    hat = hfk_hat(figure_eight())
    assert hat.ranks() == {(-2, -2): 1, (0, 0): 3, (2, 2): 1}
    assert hat == dual_ranks(hat)


def test_unlink_hat_is_the_rank_two_factor():
    assert hfk_hat(unlink(2)) == X_FACTOR


@pytest.mark.parametrize(
    "diagram,expected",
    [
        (unknot(), Laurent.one(U)),
        (trefoil_right(), Laurent.one(U)),
        (hopf_positive(), Laurent(U, {(1,): 1, (-1,): 1})),
        (unlink(2), Laurent(U, {(1,): 1, (-1,): 1})),
    ],
)
def test_total_homology_rank_two_power(diagram, expected):
    assert total_homology(diagram) == expected


# Traced peak of ``total_homology_from_grid`` on the Borromean grid when
# every generator carried a grading tuple and a row array, and two
# blocks of bitset rows were alive at once.
_BORROMEAN_TOTAL_PEAK_BEFORE = 27.4 * 2**20


def test_total_complex_memory_on_the_borromean_grid():
    g = simplify_grid(pd_to_grid(braid_closure([1, -2] * 3, 3)))
    assert g.n == 8
    tracemalloc.start()
    try:
        total = total_homology_from_grid(g)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert total == Laurent(U, {(2,): 1, (0,): 2, (-2,): 1})
    assert peak <= _BORROMEAN_TOTAL_PEAK_BEFORE / 2


@pytest.mark.parametrize(
    "diagram",
    [unknot(), hopf_positive(), hopf_negative(), trefoil_right(), figure_eight(), unlink(2)],
)
def test_hat_euler_matches_skein(diagram):
    report = euler_matches_skein(hfk_hat(diagram), diagram)
    assert report["verdict"] == "pass"
    assert report["offset2"] == 0


def test_stabilization_doubles_tilde_rank():
    rng = random.Random(11)
    for _ in range(6):
        g = random_grid(rng, rng.randrange(2, 5))
        base = total_rank(tilde_homology(g))
        stab = stabilize(
            g, rng.randrange(g.n), down=rng.random() < 0.5, right=rng.random() < 0.5
        )
        assert total_rank(tilde_homology(stab)) == 2 * base


def test_commutation_preserves_tilde():
    rng = random.Random(23)
    done = 0
    while done < 6:
        g = random_grid(rng, rng.randrange(3, 5))
        moved = commute_rows(g, rng.randrange(g.n))
        if moved is None:
            moved = commute_cols(g, rng.randrange(g.n))
        if moved is None:
            continue
        assert tilde_homology(moved) == tilde_homology(g)
        done += 1


@pytest.mark.parametrize("diagram", [trefoil_right(), hopf_positive(), figure_eight()])
def test_mirror_duality_on_grids(diagram):
    g = simplify_grid(pd_to_grid(diagram))
    assert hat_from_grid(mirror_grid(g)) == dual_ranks(hat_from_grid(g))


@pytest.mark.parametrize("diagram", [trefoil_left(), hopf_positive()])
def test_orientation_reversal_invariance(diagram):
    g = simplify_grid(pd_to_grid(diagram))
    assert hat_from_grid(reverse_grid(g)) == hat_from_grid(g)


def test_disjoint_union_tensors_with_x():
    left, right = unknot(), trefoil_right()
    got = hfk_hat(disjoint_union(left, right))
    assert got == hfk_hat(left).tensor_ranks(hfk_hat(right)).tensor_ranks(X_FACTOR)


def test_connected_sum_tensors():
    granny = connected_sum(trefoil_right(), trefoil_right())
    expected = hfk_hat(trefoil_right()).tensor_ranks(hfk_hat(trefoil_right()))
    assert hfk_hat(granny) == expected


def test_grid_cap_reports_generator_count():
    big = GridDiagram(9, tuple((r + 1) % 9 for r in range(9)), tuple(range(9)))
    with pytest.raises(CapExceeded) as exc:
        tilde_homology(big, cap=8)
    assert exc.value.detail["generators"] == 362880


def test_hat_cap_reports_size_not_generator_count():
    # The hat walks only the A >= 0 summand, so n! overstates its cost.
    big = GridDiagram(9, tuple((r + 1) % 9 for r in range(9)), tuple(range(9)))
    with pytest.raises(CapExceeded) as exc:
        hat_from_grid(big, cap=8)
    assert exc.value.detail == {"n": 9}
    assert str(exc.value) == "grid size 9 is over the cap 8"


def test_d2_check_failure_raises_invalid_diagram(monkeypatch):
    # Force every d∘d product to read as nonzero.  The trefoil grid
    # (n = 5) has composable blocks in both complexes, so each must raise;
    # the 2 x 2 unknot grid has none and would compare no product.
    g = simplify_grid(pd_to_grid(trefoil_right()))
    assert g.n == 5
    monkeypatch.setattr(linalg, "f2_is_zero", lambda rows: False)
    monkeypatch.setattr(linalg, "int_is_zero", lambda rows: False)
    with pytest.raises(InvalidDiagram, match="square to zero"):
        tilde_homology(g)
    with pytest.raises(InvalidDiagram, match="square to zero"):
        total_homology_from_grid(g)
    # The trefoil's a2 >= 0 summand has no composable blocks; T(2,5)'s
    # (n = 7) has.
    t25 = simplify_grid(pd_to_grid(braid_closure([1] * 5, 2)))
    with pytest.raises(InvalidDiagram, match="square to zero"):
        hat_from_grid(t25)


def test_inconsistent_slice_table_raises_deconvolution_error(monkeypatch):
    # The trefoil grid has n - l = 4 stabilization factors, so one class
    # at (4, 2) accounts for 4 classes at (2, 0); a table with only one
    # there leaves a hat rank of -3.
    g = simplify_grid(pd_to_grid(trefoil_right()))
    assert g.n - g.component_count() == 4
    table = {(4, 2): (1, ()), (2, 0): (1, ())}
    monkeypatch.setattr(floer, "block_homology", lambda *args: table)
    with pytest.raises(DeconvolutionError):
        hat_from_grid(g)
