"""Grid homology: frozen small tables, Euler identities, and the
structural symmetries (duality, reversal, unions, sums)."""

import random

import pytest

from graphhom.bigraded import BigradedDims
from graphhom.catalog import (
    figure_eight,
    hopf_negative,
    hopf_positive,
    trefoil_left,
    trefoil_right,
    unknot,
    unlink,
)
from graphhom.diagrams import connected_sum, disjoint_union
from graphhom import linalg
from graphhom.errors import CapExceeded, InvalidDiagram
from graphhom.floer import (
    euler_matches_skein,
    gradings,
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
    mirror_grid,
    pd_to_grid,
    reverse,
    simplify_grid,
    stabilize,
)
from graphhom.laurent import Laurent, T, U

UNKNOT_GRID = GridDiagram(2, (1, 0), (0, 1))

# The rank-two disjoint-union factor: one generator at Maslov 1/2, one
# at -1/2, both at Alexander 0.
X_FACTOR = BigradedDims.of_ranks({(1, 0): 1, (-1, 0): 1})


def random_grid(rng, n):
    while True:
        xs = list(range(n))
        os_ = list(range(n))
        rng.shuffle(xs)
        rng.shuffle(os_)
        if all(a != b for a, b in zip(xs, os_)):
            return GridDiagram(n, tuple(xs), tuple(os_))


def test_two_by_two_gradings_multiset():
    got = sorted(gradings(UNKNOT_GRID, x) for x in [(0, 1), (1, 0)])
    assert got == [(-2, -2), (0, 0)]


def test_two_by_two_tilde():
    assert tilde_homology(UNKNOT_GRID).ranks() == {(0, 0): 1, (-2, -2): 1}


def test_stabilized_unknot_tilde_rank():
    g = GridDiagram(3, (1, 2, 0), (0, 1, 2))
    assert tilde_homology(g).total_rank() == 4


def test_unknot_hat():
    assert hfk_hat(unknot()).ranks() == {(0, 0): 1}


def test_trefoil_hats_and_duality():
    right = hfk_hat(trefoil_right())
    left = hfk_hat(trefoil_left())
    assert right.total_rank() == 3
    assert left == right.dual_ranks()
    assert hat_euler(right) == Laurent(T, {(2,): 1, (0,): -1, (-2,): 1})


def test_hopf_hat_table():
    hat = hfk_hat(hopf_positive())
    assert hat.total_rank() == 4
    assert hat.ranks() == {(3, 2): 1, (1, 0): 2, (-1, -2): 1}
    assert hfk_hat(hopf_negative()) == hat.dual_ranks()


def test_figure_eight_hat_is_self_dual():
    hat = hfk_hat(figure_eight())
    assert hat.ranks() == {(-2, -2): 1, (0, 0): 3, (2, 2): 1}
    assert hat == hat.dual_ranks()


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
        base = tilde_homology(g).total_rank()
        stab = stabilize(
            g, rng.randrange(g.n), down=rng.random() < 0.5, right=rng.random() < 0.5
        )
        assert tilde_homology(stab).total_rank() == 2 * base


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
    assert hat_from_grid(mirror_grid(g)) == hat_from_grid(g).dual_ranks()


@pytest.mark.parametrize("diagram", [trefoil_left(), hopf_positive()])
def test_orientation_reversal_invariance(diagram):
    g = simplify_grid(pd_to_grid(diagram))
    assert hat_from_grid(reverse(g)) == hat_from_grid(g)


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
