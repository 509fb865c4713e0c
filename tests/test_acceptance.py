"""Acceptance gate: one test per delivery criterion.

Each test name carries its criterion number, so a verbose run prints
one pass/fail line per criterion.  Runtime ceilings are asserted with
wall-clock measurements inside the tests themselves.
"""

import json
import time

from graphhom import floer as floer_mod
from graphhom import khovanov as khovanov_mod
from graphhom.bigraded import BigradedDims
from graphhom.catalog import (
    figure_eight,
    handcuff,
    hopf_handcuff,
    hopf_negative,
    hopf_positive,
    theta,
    trefoil_left,
    trefoil_right,
    unknot,
    unlink,
)
from graphhom.diagrams import connected_sum, disjoint_union
from graphhom.floer import (
    euler_matches_skein,
    hfk_hat,
    tilde_homology,
    total_homology,
)
from graphhom.graph_homology import graph_homology
from graphhom.grid import GridDiagram, pd_to_grid, simplify_grid
from graphhom.invariants import fingerprint, reduce_diagram
from graphhom.kauffman import family
from graphhom.khovanov import graded_euler, khovanov_homology, unnormalized_jones
from graphhom.laurent import U, Laurent
from graphhom.moves import random_move_sequence
from test_floer import dual_ranks, total_rank
from test_grid import stabilize

CENSUS_LINKS = {
    "unknot": unknot,
    "hopf_positive": hopf_positive,
    "hopf_negative": hopf_negative,
    "trefoil_right": trefoil_right,
    "trefoil_left": trefoil_left,
    "figure_eight": figure_eight,
    "unlink2": lambda: unlink(2),
}

CENSUS_GRAPHS = {
    "handcuff": handcuff,
    "hopf_handcuff": hopf_handcuff,
    "theta": theta,
}

X_FACTOR = BigradedDims.of_ranks({(1, 0): 1, (-1, 0): 1})
UNKNOT_HAT = BigradedDims.of_ranks({(0, 0): 1})


def _elapsed(t0):
    return round(time.perf_counter() - t0, 2)


def test_criterion_1_handcuff_family_and_decomposition():
    t0 = time.perf_counter()
    fam = family(handcuff())

    by_components = {m.fingerprint.components: m for m in fam.members}
    assert set(by_components) == {1, 2}, "family must be {2-component unlink, unknot}"
    assert len(fam.members) == 2
    assert by_components[1].fingerprint == fingerprint(unknot())
    assert by_components[2].fingerprint == fingerprint(unlink(2))

    report = graph_homology(handcuff(), khovanov=False)
    members = {m.fingerprint.components: m for m in report.members}
    expected_unlink = UNKNOT_HAT.tensor_ranks(UNKNOT_HAT).tensor_ranks(X_FACTOR)
    assert members[2].floer.ranks() == expected_unlink.ranks()
    assert members[1].floer.ranks() == UNKNOT_HAT.ranks()
    assert total_rank(report.aggregate_floer) == 3
    assert report.aggregate_floer.ranks() == {(1, 0): 1, (-1, 0): 1, (0, 0): 1}

    dt = _elapsed(t0)
    assert dt < 5.0
    print(f"criterion 1: PASS family={{unlink2, unknot}}, total rank 3 ({dt}s)")


def test_criterion_2_hopf_handcuff_family_and_total_homology():
    t0 = time.perf_counter()
    fam = family(hopf_handcuff())

    by_components = {m.fingerprint.components: m for m in fam.members}
    assert set(by_components) == {1, 2}, "family must be {Hopf, unknot}"
    hopf_member = by_components[2]
    assert hopf_member.fingerprint == fingerprint(hopf_negative())
    assert by_components[1].fingerprint == fingerprint(unknot())

    total = total_homology(hopf_member.diagram)
    assert total == Laurent(U, {(1,): 1, (-1,): 1}), "Poincare polynomial u^{1/2} + u^{-1/2}"
    assert sum(total.terms.values()) == 2, "total homology rank 2^{2-1}"

    unknot_total = total_homology(by_components[1].diagram)
    assert unknot_total == Laurent.one(U)

    dt = _elapsed(t0)
    assert dt < 30.0
    print(f"criterion 2: PASS Hopf total homology rank 2, u^(1/2)+u^(-1/2) ({dt}s)")


def _randomized_links(max_crossings=10, want=20):
    pool = []
    for idx, make in enumerate(CENSUS_LINKS.values()):
        base = make()
        budget = len(base.crossings) + 4
        for k in range(4):
            mutated, _ = random_move_sequence(
                base, count=16, seed=9000 + 100 * idx + k, budget=budget
            )
            reduced = reduce_diagram(mutated)
            if len(reduced.crossings) <= max_crossings:
                pool.append(mutated)
    assert len(pool) >= want
    return pool


def test_criterion_3_euler_identities_exact():
    t0 = time.perf_counter()

    diagrams = [make() for make in CENSUS_LINKS.values()] + _randomized_links()
    checked_kh = 0
    for d in diagrams:
        dims = khovanov_homology(reduce_diagram(d), "z")
        assert graded_euler(dims) == unnormalized_jones(d), "Khovanov Euler != Jones"
        checked_kh += 1
    assert checked_kh >= 27

    checked_floer = 0
    for name, make in CENSUS_LINKS.items():
        d = make()
        g = simplify_grid(pd_to_grid(d))
        assert g.n <= 7, f"{name}: census grids stay small"
        verdict = euler_matches_skein(hfk_hat(d), d)
        assert verdict["verdict"] == "pass", f"{name}: Floer Euler != Alexander skein"
        checked_floer += 1
    assert checked_floer == len(CENSUS_LINKS)

    dt = _elapsed(t0)
    assert dt < 300.0
    print(
        f"criterion 3: PASS {checked_kh} Khovanov and {checked_floer} Floer"
        f" Euler identities exact ({dt}s)"
    )


def _member_signature(d):
    """Family fingerprints with per-member homology dims, in family order."""
    fam = family(d)
    rows = []
    for m in fam.members:
        kh = khovanov_homology(reduce_diagram(m.diagram), "z").to_json()
        hat = hfk_hat(m.diagram).to_json()
        rows.append(
            (
                json.dumps(m.fingerprint.to_json(), sort_keys=True),
                m.multiplicity,
                json.dumps(kh, sort_keys=True),
                json.dumps(hat, sort_keys=True),
            )
        )
    return rows


def test_criterion_4_move_invariance_suite():
    t0 = time.perf_counter()
    items = dict(CENSUS_LINKS)
    items.update(CENSUS_GRAPHS)

    sequences = 0
    for idx, (name, make) in enumerate(items.items()):
        base = make()
        baseline = _member_signature(base)
        budget = len(base.crossings) + 2
        for k in range(50):
            mutated, _ = random_move_sequence(
                base, count=12, seed=1000 * idx + k, budget=budget
            )
            assert _member_signature(mutated) == baseline, (
                f"{name}: seed {1000 * idx + k} changed an invariant"
            )
            sequences += 1
    assert sequences == 50 * len(items)

    dt = _elapsed(t0)
    assert dt < 600.0
    print(f"criterion 4: PASS {sequences} move sequences left all dims unchanged ({dt}s)")


def test_criterion_5_structural_rank_identities():
    t0 = time.perf_counter()

    reversal_cases = ["unknot", "hopf_positive", "hopf_negative",
                      "trefoil_right", "trefoil_left", "figure_eight"]
    for name in reversal_cases:
        d = CENSUS_LINKS[name]()
        assert hfk_hat(d.reverse()).ranks() == hfk_hat(d).ranks(), name

    mirror_cases = reversal_cases
    for name in mirror_cases:
        d = CENSUS_LINKS[name]()
        assert hfk_hat(d.mirror()).ranks() == dual_ranks(hfk_hat(d)).ranks(), name

    union_pairs = [
        ("unknot", "unknot"),
        ("unknot", "hopf_positive"),
        ("unknot", "trefoil_right"),
        ("unknot", "figure_eight"),
        ("hopf_positive", "hopf_negative"),
    ]
    for a, b in union_pairs:
        left, right = CENSUS_LINKS[a](), CENSUS_LINKS[b]()
        got = hfk_hat(disjoint_union(left, right))
        want = hfk_hat(left).tensor_ranks(hfk_hat(right)).tensor_ranks(X_FACTOR)
        assert got.ranks() == want.ranks(), (a, b)

    sum_pairs = [
        ("unknot", "unknot"),
        ("unknot", "trefoil_right"),
        ("trefoil_right", "trefoil_right"),
        ("trefoil_right", "trefoil_left"),
        ("unknot", "figure_eight"),
    ]
    for a, b in sum_pairs:
        left, right = CENSUS_LINKS[a](), CENSUS_LINKS[b]()
        got = hfk_hat(connected_sum(left, right))
        want = hfk_hat(left).tensor_ranks(hfk_hat(right))
        assert got.ranks() == want.ranks(), (a, b)

    dt = _elapsed(t0)
    print(
        f"criterion 5: PASS reversal x{len(reversal_cases)}, mirror x{len(mirror_cases)},"
        f" union x{len(union_pairs)}, sum x{len(sum_pairs)}, all offsets zero ({dt}s)"
    )


def test_criterion_6_internal_consistency_oracles(monkeypatch):
    t0 = time.perf_counter()
    import random

    # Every complex goes through block_homology, which raises unless
    # d∘d = 0; count the complexes each flavor hands it.
    complexes = {"floer": 0, "khovanov": 0}

    def counting(flavor, mod):
        inner = mod.block_homology

        def wrapper(*args):
            complexes[flavor] += 1
            return inner(*args)

        monkeypatch.setattr(mod, "block_homology", wrapper)

    counting("floer", floer_mod)
    counting("khovanov", khovanov_mod)

    deconvolutions = 0
    for make in CENSUS_LINKS.values():
        hfk_hat(make())
        deconvolutions += 1
    khovanov_homology(reduce_diagram(trefoil_right()), "z")
    assert deconvolutions == len(CENSUS_LINKS), "every deconvolution divided exactly"

    rng = random.Random(77)
    doubled = 0
    while doubled < 20:
        n = rng.randrange(2, 7)
        cols = list(range(n))
        rng.shuffle(cols)
        xs = tuple(cols)
        cols = list(range(n))
        rng.shuffle(cols)
        os_ = tuple(cols)
        if any(x == o for x, o in zip(xs, os_)):
            continue
        g = GridDiagram(n, xs, os_)
        before = total_rank(tilde_homology(g))
        st = stabilize(
            g, rng.randrange(n), down=rng.random() < 0.5, right=rng.random() < 0.5
        )
        assert total_rank(tilde_homology(st)) == 2 * before
        doubled += 1

    assert complexes["floer"] > 0
    assert complexes["khovanov"] > 0

    dt = _elapsed(t0)
    print(
        f"criterion 6: PASS d2=0 on {complexes['floer']} grid and"
        f" {complexes['khovanov']} cube complexes, {deconvolutions}"
        f" exact deconvolutions, 20 stabilization doublings ({dt}s)"
    )


def test_criterion_7_performance_floor():
    t0 = time.perf_counter()
    khovanov_homology(reduce_diagram(trefoil_right()), "z")
    kh_time = time.perf_counter() - t0
    assert kh_time < 1.0

    g6 = simplify_grid(pd_to_grid(figure_eight()))
    assert g6.n == 6
    t1 = time.perf_counter()
    tilde_homology(g6)
    t6 = time.perf_counter() - t1
    assert t6 < 30.0

    g7 = stabilize(g6, 0)
    assert g7.n == 7
    t2 = time.perf_counter()
    tilde_homology(g7, cap=8)
    t7 = time.perf_counter() - t2
    assert t7 < 600.0

    print(
        f"criterion 7: PASS Kh(trefoil)/Z {round(kh_time, 3)}s,"
        f" tilde n=6 {round(t6, 3)}s, n=7 {round(t7, 3)}s"
    )
