"""Family direct sums: handcuff-type decompositions plus skip/empty paths."""

import json

import pytest

from graphhom import floer
from graphhom import graph_homology as gh
from graphhom.bigraded import BigradedDims
from graphhom.catalog import handcuff, hopf_handcuff, theta, trefoil_right
from graphhom.diagrams import GraphDiagram, connected_sum
from graphhom.floer import FLOER_GRID_CAP, hat_euler, hat_from_grid, total_homology_from_grid
from graphhom.graph_homology import (
    SKIP_CROSSINGS,
    SKIP_GRID,
    _weighted,
    graph_homology,
)
from graphhom.grid import pd_to_grid, simplify_grid
from graphhom.kauffman import family
from graphhom.laurent import Laurent, T
from graphhom.moves import random_move_sequence
from test_floer import total_rank


def g6():
    """The fixed benchmark graph G6: six trivalent vertices, 729
    assignments, eight distinct members."""
    g = connected_sum(hopf_handcuff(), connected_sum(theta(), hopf_handcuff()))
    return random_move_sequence(g, count=10, seed=3, kinds={"R4", "R5"})[0]


def test_handcuff_hfg_decomposition():
    report = graph_homology(handcuff(), khovanov=False)
    assert len(report.members) == 2
    assert report.aggregate_floer.ranks() == {(1, 0): 1, (-1, 0): 1, (0, 0): 1}
    assert total_rank(report.aggregate_floer) == 3
    assert report.verdicts == {"floer_euler": "pass"}
    # The unlink member's Euler characteristic cancels to zero, so only
    # the unknot contributes to the aggregate.
    assert report.aggregate_floer_euler == Laurent(T, {(0,): 1})


def test_hopf_handcuff_hfg():
    report = graph_homology(hopf_handcuff(), khovanov=False)
    assert len(report.members) == 2
    by_components = {m.fingerprint.components: m for m in report.members}
    hopf_member = by_components[2]
    assert total_rank(hopf_member.floer) == 4
    assert hopf_member.floer.ranks() == {(-3, -2): 1, (-1, 0): 2, (1, 2): 1}
    assert hopf_member.total_check == "pass"
    assert total_rank(by_components[1].floer) == 1
    assert total_rank(report.aggregate_floer) == 5
    assert report.verdicts["floer_euler"] == "pass"


def test_vertexless_link_is_a_singleton_family():
    report = graph_homology(trefoil_right(), khovanov=False)
    assert len(report.members) == 1
    assert total_rank(report.aggregate_floer) == 3
    assert report.verdicts == {"floer_euler": "pass"}


def test_handcuff_kkh():
    report = graph_homology(handcuff(), floer=False)
    assert total_rank(report.aggregate_khovanov) == 6
    assert report.verdicts["khovanov_euler"] == "pass"


def test_hopf_handcuff_kkh():
    report = graph_homology(hopf_handcuff(), floer=False)
    assert total_rank(report.aggregate_khovanov) == 6
    assert report.verdicts["khovanov_euler"] == "pass"
    members = sorted(total_rank(m.khovanov) for m in report.members)
    assert members == [2, 4]


def test_empty_family_is_flagged_zero_homology():
    bare_edge = GraphDiagram.from_pd([], [(0,), (0,)])
    report = graph_homology(bare_edge)
    assert report.empty_family
    assert not report.members
    assert total_rank(report.aggregate_floer) == 0
    assert total_rank(report.aggregate_khovanov) == 0


def test_multiset_weights_by_multiplicity():
    plain = graph_homology(handcuff(), khovanov=False)
    weighted = graph_homology(handcuff(), khovanov=False, multiset=True)
    expected = sum(
        m.multiplicity * total_rank(m.floer) for m in weighted.members
    )
    assert total_rank(weighted.aggregate_floer) == expected
    assert total_rank(weighted.aggregate_floer) >= total_rank(plain.aggregate_floer)


def test_weighted_equals_repeated_direct_sum():
    dims = BigradedDims({(0, 2): (1, (2,)), (2, 6): (0, (3, 2)), (-2, 0): (2, ())})
    for weight in (1, 2, 5):
        summed = BigradedDims({})
        for _ in range(weight):
            summed = summed.add(dims)
        assert _weighted(dims, weight) == summed
        assert _weighted(dims, weight).to_json() == summed.to_json()


def test_floer_skip_degrades_verdict_to_partial():
    report = graph_homology(trefoil_right(), grid_cap=2)
    member = report.members[0]
    assert member.floer_skip == SKIP_GRID
    assert member.floer is None
    assert member.grid_size == 5
    assert report.verdicts == {"floer_euler": "partial", "khovanov_euler": "pass"}


def test_khovanov_skip_degrades_verdict_to_partial():
    report = graph_homology(trefoil_right(), crossing_cap=2)
    assert report.members[0].khovanov_skip == SKIP_CROSSINGS
    assert report.verdicts["khovanov_euler"] == "partial"


def test_theta_graph_reports_cleanly():
    report = graph_homology(theta())
    assert report.verdicts["floer_euler"] == "pass"
    assert report.verdicts["khovanov_euler"] == "pass"
    assert report.to_json()["distinct_members"] == len(report.members)


def test_g6_floer_is_complete():
    report = graph_homology(g6(), khovanov=False)
    assert report.assignments == 729
    assert len(report.members) == 8
    assert all(m.floer is not None and m.floer_skip is None for m in report.members)
    assert max(m.fingerprint.components for m in report.members) == 5
    assert max(m.grid_size for m in report.members) == 10
    assert report.verdicts == {"floer_euler": "pass"}


def test_g6_computes_each_members_alexander_once(monkeypatch):
    # The Euler check reuses the polynomial the aggregates need, so
    # neither module computes it a second time.
    calls = []
    for mod in (gh, floer):
        wrapped = mod.alexander
        monkeypatch.setattr(mod, "alexander", lambda d, f=wrapped: calls.append(d) or f(d))
    report = graph_homology(g6(), khovanov=False)
    assert len(report.members) == 8
    assert len(calls) == 8
    assert report.verdicts == {"floer_euler": "pass"}


@pytest.mark.parametrize("graph", [handcuff, hopf_handcuff, g6], ids=lambda f: f.__name__)
def test_split_pieces_match_the_stacked_grid(graph):
    """Per-piece tables tensored together equal the tables of the whole
    member's stacked grid, wherever that grid fits under the cap."""
    g = graph()
    compared = 0
    for fm, m in zip(family(g).members, graph_homology(g, khovanov=False).members):
        assert m.fingerprint == fm.fingerprint
        stacked = simplify_grid(pd_to_grid(fm.diagram))
        if stacked.n > FLOER_GRID_CAP:
            continue
        hat = hat_from_grid(stacked)
        total = total_homology_from_grid(stacked)
        assert json.dumps(m.floer.to_json()) == json.dumps(hat.to_json())
        assert json.dumps(m.floer_euler.to_json()) == json.dumps(hat_euler(hat).to_json())
        assert json.dumps(m.total_poincare.to_json()) == json.dumps(total.to_json())
        compared += 1
    assert compared == {"handcuff": 2, "hopf_handcuff": 2, "g6": 7}[graph.__name__]
