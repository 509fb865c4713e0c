"""Khovanov homology: frozen small-link tables, cube structure, graded
Euler identity, and move invariance."""

import hashlib
import json

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
from graphhom.invariants import reduce_diagram, smoothing_circles
from graphhom.khovanov import (
    KHOVANOV_CROSSING_CAP,
    _cube_edges,
    _cube_homology,
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


# sha256 of ``khovanov_homology(d, ring).to_json()`` dumped with sorted
# keys, recorded before the resolution cube became local to
# ``_cube_homology``: the benchmark's Khovanov braids (unrotated), the
# census links, the trefoil with 3 loops and the 3-component unlink.
KHOVANOV_BRAIDS = {
    "T(2,5)": ([1] * 5, 2),
    "T(2,7)": ([1] * 7, 2),
    "T(3,4)": ([1, 2] * 4, 3),
    "(s1 s2^-1)^4": ([1, -2] * 4, 3),
    "s1^3 s2^-1 s1 s2^-3": ([1, 1, 1, -2, 1, -2, -2, -2], 3),
}
PINNED = {
    **{name: (lambda w=w, n=n: braid_closure(w, n)) for name, (w, n) in KHOVANOV_BRAIDS.items()},
    **CENSUS_LINKS,
    "trefoil+3": lambda: LOOPED["trefoil+3"],
    "unlink3": lambda: unlink(3),
}
KHOVANOV_DIGESTS = {
    ("T(2,5)", "z"): "d2c0ccf4b932b684d1c9fe0adaf5c1a7ef2fddb6e5867a58e29633679471fa62",
    ("T(2,5)", "f2"): "361c348408cc60a0bf337da423f43e581e77d74b89d3d044182660d7955020e8",
    ("T(2,7)", "z"): "d4cf46c3622ba499495942966f8ba69abf2f19086045837c636e8f879874d5dc",
    ("T(2,7)", "f2"): "d276b8d0a4b620d49901e04b555fc777218d0bac8e9f71c140640214e7d7935a",
    ("T(3,4)", "z"): "2f3fe5b79546cdf0cfa96944900f1a15a540112bf091961f0f512fdbf42a2e6c",
    ("T(3,4)", "f2"): "f3b29863213156ef50a1475506b0ed187d8c92f5f99029f84d82ad9f47bcc18c",
    ("(s1 s2^-1)^4", "z"): "b21c13842b28e3e85a2b4e3564e40adfaeb14935ddb64351877bc67879f3fd28",
    ("(s1 s2^-1)^4", "f2"): "f95beeb5bc9ebe0f556ab5ca4b3cdc6b8d71307d57b200b381c59cc7c0e10ccb",
    ("s1^3 s2^-1 s1 s2^-3", "z"): "77452957185354b2a53d5cd125ed794d3e7593cee6afcf213e9436ca7da00406",
    ("s1^3 s2^-1 s1 s2^-3", "f2"): "3940b619f99d561e759f943fadf4a7f55818ac587aeab23520be45cfb0516629",
    ("unknot", "z"): "bb067ce94848e03782871a7409ba7afc9c168f6944bad6d20f4715baf7d7f268",
    ("unknot", "f2"): "bb067ce94848e03782871a7409ba7afc9c168f6944bad6d20f4715baf7d7f268",
    ("hopf_positive", "z"): "7c92eac5cf1067e9851c9d668965ccb2f3a32508a68fd5fcebc890e752465817",
    ("hopf_positive", "f2"): "7c92eac5cf1067e9851c9d668965ccb2f3a32508a68fd5fcebc890e752465817",
    ("hopf_negative", "z"): "bd601186f041ceac800af839a481b4b408e59de23336dcef0ccd4249209da496",
    ("hopf_negative", "f2"): "bd601186f041ceac800af839a481b4b408e59de23336dcef0ccd4249209da496",
    ("trefoil_right", "z"): "00a0976970868367968984081f5533be9ef2778851c9acae96d79758f972b36d",
    ("trefoil_right", "f2"): "d5d4790570a34e47c15a1485e4c1b0bab0caaaf94a115426e6f0a704b0aed115",
    ("trefoil_left", "z"): "235a45d41e88606ab528a2efc4c0fe6e711b25c6fe8b3179e227b5689fb0a260",
    ("trefoil_left", "f2"): "62957b5de24387dd401163a921b9ff5133774a37a5ac06405df0593636920d72",
    ("figure_eight", "z"): "3d7d415776cce63b6b710c9e32aa840abbd62b9b1f2b2738c059b82ad055cc9f",
    ("figure_eight", "f2"): "ab27bd9193a2f35b4aebfb473439eb20f8431300d288937f23f725e657829861",
    ("unlink2", "z"): "078b8be52f27722ac89bb243ccfabbf4b8dfef32879e017e680a3a5e9dc2384b",
    ("unlink2", "f2"): "078b8be52f27722ac89bb243ccfabbf4b8dfef32879e017e680a3a5e9dc2384b",
    ("trefoil+3", "z"): "ddf1d69a96afeb331276fce83feb8fbef5fa89fbe8e19df2a133b9fd644c15fc",
    ("trefoil+3", "f2"): "a00f4f94bd8ecbe47f3ad07e1be2f6cf2ce21488ada39f177e64470f9d4ae778",
    ("unlink3", "z"): "f34d9b92867499eb31caa329e855b94b7dc6567448f612ab7ead60eedd9418f7",
    ("unlink3", "f2"): "f34d9b92867499eb31caa329e855b94b7dc6567448f612ab7ead60eedd9418f7",
}


@pytest.mark.parametrize(
    "name,ring", sorted(KHOVANOV_DIGESTS), ids=[f"{n}-{r}" for n, r in sorted(KHOVANOV_DIGESTS)]
)
def test_khovanov_output_is_pinned(name, ring):
    text = json.dumps(khovanov_homology(PINNED[name](), ring).to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == KHOVANOV_DIGESTS[(name, ring)]


def test_coefficient_ring_name_is_case_insensitive():
    d = trefoil_right()
    assert khovanov_homology(d, "Z") == khovanov_homology(d, "z")
    assert khovanov_homology(d, "F2") == khovanov_homology(d, "f2")
    with pytest.raises(ValueError, match="unknown coefficient ring"):
        khovanov_homology(d, "q")


# -- cube structure -----------------------------------------------------------

def test_hopf_cube_circle_counts():
    d = hopf_positive()
    assert [len(set(m.values())) for m in smoothing_circles(d)] == [2, 1, 1, 2]
    assert d.positive_negative() == (2, 0)


def cube_edge_signs(d):
    """(state, flipped crossing) -> sign, read off ``_cube_edges``' entries
    of the loop-free diagram ``d``; every entry of one edge has its sign."""
    arc_circle = list(smoothing_circles(d))
    circles = [sorted(set(m.values())) for m in arc_circle]
    offset, state = [], []
    for s, cids in enumerate(circles):
        offset.append(len(state))
        state += [s] * (1 << len(cids))
    sign = {}
    for i, j, g in _cube_edges(d.crossings, arc_circle, circles, offset):
        s, t = state[i], state[j]
        flipped = t ^ s
        assert t & s == s and flipped & (flipped - 1) == 0, (s, t)
        assert sign.setdefault((s, flipped.bit_length() - 1), g) == g
    return sign


def test_cube_edge_signs_anticommute():
    d = trefoil_right()
    # Around every 2-face the four edge signs multiply to -1.
    sign = cube_edge_signs(d)
    n = len(d.crossings)
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
    d = braid_closure([1, -1] * 4, 2)
    with pytest.raises(CapExceeded):
        khovanov_homology(d, cap=7)


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
