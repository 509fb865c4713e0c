"""Khovanov homology: frozen small-link tables, cube structure, graded
Euler identity, and move invariance."""

import pytest

from graphhom import linalg
from graphhom.bigraded import BigradedDims
from graphhom.catalog import (
    braid_closure,
    figure_eight,
    hopf_handcuff,
    hopf_positive,
    hopf_negative,
    theta,
    trefoil_left,
    trefoil_right,
    unknot,
    unknot_kink,
    unlink,
)
from graphhom.diagrams import GraphDiagram
from graphhom.errors import CapExceeded, InvalidDiagram
from graphhom.graph_homology import SKIP_CROSSINGS, graph_homology
from graphhom.invariants import reduce_diagram
from graphhom.khovanov import (
    KHOVANOV_CROSSING_CAP,
    _cube_homology,
    build_cube,
    graded_euler,
    khovanov_homology,
    unnormalized_jones,
)
from graphhom.moves import random_move_sequence
from test_acceptance import CENSUS_LINKS, _randomized_links
from test_floer import total_rank


def doubled(table):
    return {(2 * i, 2 * j): v for (i, j), v in table.items()}


# -- frozen tables ------------------------------------------------------------
# Integral Khovanov homology of the small census links, entered from the
# standard published tables: (i, j) -> (free rank, torsion orders).

UNKNOT_KH = doubled({(0, -1): (1, ()), (0, 1): (1, ())})

HOPF_POS_KH = doubled(
    {(0, 0): (1, ()), (0, 2): (1, ()), (2, 4): (1, ()), (2, 6): (1, ())}
)

TREFOIL_RIGHT_KH = doubled(
    {
        (0, 1): (1, ()),
        (0, 3): (1, ()),
        (2, 5): (1, ()),
        (3, 7): (0, (2,)),
        (3, 9): (1, ()),
    }
)

FIGURE_EIGHT_KH = doubled(
    {
        (-2, -5): (1, ()),
        (-1, -3): (0, (2,)),
        (-1, -1): (1, ()),
        (0, -1): (1, ()),
        (0, 1): (1, ()),
        (1, 1): (1, ()),
        (2, 3): (0, (2,)),
        (2, 5): (1, ()),
    }
)


def test_unknot_table():
    assert khovanov_homology(unknot()).dims == UNKNOT_KH


def test_unknot_presentations_agree():
    for d in (unknot_kink(1), unknot_kink(-1)):
        assert khovanov_homology(d).dims == UNKNOT_KH


def test_unlink_two_components():
    kh = khovanov_homology(unlink(2))
    assert kh.dims == doubled({(0, -2): (1, ()), (0, 0): (2, ()), (0, 2): (1, ())})


def test_hopf_positive_table():
    assert khovanov_homology(hopf_positive()).dims == HOPF_POS_KH


def test_hopf_negative_is_dual():
    kh = khovanov_homology(hopf_negative())
    assert kh.ranks() == {(-i, -j): r for (i, j), r in khovanov_homology(hopf_positive()).ranks().items()}


def test_trefoil_right_table():
    assert khovanov_homology(trefoil_right()).dims == TREFOIL_RIGHT_KH


def test_trefoil_left_mirror_duality():
    left = khovanov_homology(trefoil_left())
    assert left.ranks() == {
        (-i, -j): rank for (i, j), (rank, _) in TREFOIL_RIGHT_KH.items() if rank
    }


def test_figure_eight_table():
    assert khovanov_homology(figure_eight()).dims == FIGURE_EIGHT_KH


# -- crossing-free loops --------------------------------------------------------

def _with_loops(d, k):
    return GraphDiagram(d.crossings, d.vertices, d.loops + k, d.heads)


LOOPED = {
    "trefoil+1": _with_loops(trefoil_right(), 1),
    "trefoil+2": _with_loops(trefoil_right(), 2),
    "trefoil+3": _with_loops(trefoil_right(), 3),
    "hopf+2": _with_loops(hopf_positive(), 2),
    "loops4": unlink(4),
}


@pytest.mark.parametrize("coeffs", ["z", "f2"])
@pytest.mark.parametrize("name", sorted(LOOPED))
def test_loops_factor_out_of_the_cube(name, coeffs):
    # Each removed loop tensors the table with V = q + q^-1; the cube
    # over the whole diagram, loops included, is the slow-path oracle.
    d = LOOPED[name]
    assert khovanov_homology(d, coeffs) == _cube_homology(d, coeffs, KHOVANOV_CROSSING_CAP)


# -- cube structure -----------------------------------------------------------

def test_hopf_cube_circle_counts():
    cube = build_cube(hopf_positive())
    assert [len(cube.circles[s]) for s in range(4)] == [2, 1, 1, 2]
    assert (cube.n_plus, cube.n_minus) == (2, 0)


def test_cube_edge_signs_anticommute():
    cube = build_cube(trefoil_right())
    # Around every 2-face the four edge signs multiply to -1.
    sign = {(s, k): g for s, k, g in cube.edges()}
    n = len(cube.diagram.crossings)
    for s in range(1 << n):
        for a in range(n):
            for b in range(a + 1, n):
                if s >> a & 1 or s >> b & 1:
                    continue
                prod = (
                    sign[(s, a)]
                    * sign[(s | 1 << a, b)]
                    * sign[(s, b)]
                    * sign[(s | 1 << b, a)]
                )
                assert prod == -1


def test_cube_cap():
    from graphhom.catalog import braid_closure

    d = braid_closure([1, -1] * 4, 2)
    with pytest.raises(CapExceeded):
        build_cube(d, cap=7)


def test_vertex_diagram_rejected():
    with pytest.raises(InvalidDiagram):
        khovanov_homology(theta())


# -- coefficient comparisons ----------------------------------------------------

@pytest.mark.parametrize(
    "make",
    [
        unknot,
        hopf_positive,
        trefoil_right,
        trefoil_left,
        figure_eight,
        pytest.param(lambda: braid_closure([1, -2] * 4, 3), id="s1_s2inv_pow4"),
        pytest.param(lambda: braid_closure([1, -2] * 3, 3), id="s1_s2inv_pow3"),
    ],
)
def test_f2_dominates_z(make):
    d = make()
    assert_universal_coefficients(khovanov_homology(d, "z"), khovanov_homology(d, "f2"))


def assert_universal_coefficients(z, f2):
    def even_torsion(key):
        return sum(1 for order in z.dims.get(key, (0, ()))[1] if order % 2 == 0)

    # Universal coefficients at every bigrading: the differential raises
    # i, so H(C; F2) at (i, j) is H^(i, j) ⊗ F2 plus Tor(H^(i+1, j), F2).
    keys = set(z.dims) | set(f2.dims) | {(i2 - 2, j2) for i2, j2 in z.dims}
    for i2, j2 in keys:
        want = (
            z.dims.get((i2, j2), (0, ()))[0]
            + even_torsion((i2, j2))
            + even_torsion((i2 + 2, j2))
        )
        assert f2.dims.get((i2, j2), (0, ()))[0] == want, (i2, j2)


def test_universal_coefficients_on_census_and_randomized_pool():
    # The census links and criterion 3's randomized pool, reduced as
    # criterion 3 reduces them.
    diagrams = [make() for make in CENSUS_LINKS.values()] + _randomized_links()
    for d in diagrams:
        r = reduce_diagram(d)
        assert_universal_coefficients(khovanov_homology(r, "z"), khovanov_homology(r, "f2"))
    assert len(diagrams) >= 27


def test_reach_ten_crossings_over_z():
    # The closure of (σ1σ2⁻¹)⁵: 10 crossings, 1024 cube states.
    d = braid_closure([1, -2] * 5, 3)
    z = khovanov_homology(d, "z")
    assert graded_euler(z) == unnormalized_jones(d)
    assert_universal_coefficients(z, khovanov_homology(d, "f2"))
    assert sum(len(torsion) for _, torsion in z.dims.values()) == 60


# -- graded Euler characteristic -----------------------------------------------

@pytest.mark.parametrize(
    "make",
    [unknot, lambda: unlink(3), hopf_positive, hopf_negative, trefoil_right, figure_eight],
)
def test_euler_matches_unnormalized_jones(make):
    d = make()
    for coeffs in ("z", "f2"):
        kh = khovanov_homology(d, coeffs)
        assert graded_euler(kh) == unnormalized_jones(d)


def test_euler_matches_on_random_diagrams():
    for seed in range(5):
        d, _ = random_move_sequence(trefoil_right(), 5, seed=seed, kinds=("R1", "R2", "R3"))
        if len(d.crossings) > 10:
            continue
        kh = khovanov_homology(d, "f2")
        assert graded_euler(kh) == unnormalized_jones(d)


# -- invariance -----------------------------------------------------------------

@pytest.mark.parametrize("make,seed", [
    (unknot_kink, 0),
    (hopf_positive, 1),
    (trefoil_right, 2),
    (figure_eight, 3),
])
def test_khovanov_invariant_under_moves(make, seed):
    d0 = make() if make is not unknot_kink else unknot_kink(1)
    ref = khovanov_homology(d0, "f2")
    d, _ = random_move_sequence(d0, 6, seed=seed, kinds=("R1", "R2", "R3"), budget=10)
    assert khovanov_homology(d, "f2").dims == ref.dims


def test_khovanov_integral_invariance_small():
    d0 = trefoil_right()
    ref = khovanov_homology(d0)
    d, _ = random_move_sequence(d0, 4, seed=11, kinds=("R1", "R2"), budget=7)
    assert khovanov_homology(d).dims == ref.dims


# -- families -------------------------------------------------------------------

def test_kkh_family_direct_sum():
    report = graph_homology(hopf_handcuff(), floer=False)
    # Members: one negative Hopf link and one unknot.
    kkh = report.aggregate_khovanov
    hopf = khovanov_homology(hopf_negative())
    unk = khovanov_homology(unknot())
    assert kkh.dims == hopf.add(unk).dims
    assert total_rank(kkh) == 6


def test_kkh_family_cap_reports_completed():
    report = graph_homology(hopf_handcuff(), floer=False, crossing_cap=1)
    skipped = [m for m in report.members if m.khovanov_skip]
    completed = [m for m in report.members if m.khovanov is not None]
    assert [m.khovanov_skip for m in skipped] == [SKIP_CROSSINGS]
    assert skipped[0].fingerprint.components == 2 and skipped[0].khovanov is None
    assert [m.khovanov.dims for m in completed] == [khovanov_homology(unknot()).dims]
    assert report.aggregate_khovanov.dims == khovanov_homology(unknot()).dims
    assert report.verdicts == {"khovanov_euler": "partial"}


def test_d2_check_failure_raises_invalid_diagram(monkeypatch):
    # Force every d∘d product to read as nonzero: the trefoil cube has
    # composable blocks, so both rings must raise.
    monkeypatch.setattr(linalg, "f2_is_zero", lambda rows: False)
    monkeypatch.setattr(linalg, "int_is_zero", lambda rows: False)
    for coeffs in ("z", "f2"):
        with pytest.raises(InvalidDiagram, match="square to zero"):
            khovanov_homology(trefoil_right(), coeffs)
