"""Family direct sums: handcuff-type decompositions plus skip/empty paths."""

import hashlib
import importlib
import json
import pkgutil

import pytest

import graphhom
from graphhom import cli, floer, grid, invariants, kauffman, khovanov
from graphhom import graph_homology as gh
from graphhom.bigraded import BigradedDims
from graphhom.catalog import (
    braid_closure,
    figure_eight,
    handcuff,
    hopf_handcuff,
    theta,
    trefoil_left,
    trefoil_right,
)
from graphhom.diagrams import GraphDiagram, connected_sum
from graphhom.floer import FLOER_GRID_CAP, hat_euler, hat_from_grid, total_homology_from_grid
from graphhom.graph_homology import (
    SKIP_CROSSINGS,
    SKIP_GRID,
    _weighted,
    floer_fields,
    graph_homology,
)
from graphhom.grid import pd_to_grid, piece_grids, simplify_grid
from graphhom.kauffman import family
from graphhom.khovanov import khovanov_homology
from graphhom.laurent import Laurent, T
from graphhom.moves import random_move_sequence
from test_floer import total_rank
from test_kauffman import g6_base_scrambled, g8


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


def knotted_k():
    """A graph with members over the grid cap: a Hopf handcuff summed
    with T(2,5) # 4_1 on one of its loops."""
    inner = connected_sum(braid_closure([1] * 5, 2), figure_eight())
    return connected_sum(hopf_handcuff(), inner, arc_a=0)


def counted(monkeypatch, name, modules):
    """Wrap ``name`` in each of ``modules``; the list of its first
    arguments."""
    calls = []
    for mod in modules:
        wrapped = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda d, *rest, f=wrapped, **kw: calls.append(d) or f(d, *rest, **kw))
    return calls


def test_g6_computes_each_members_alexander_once(monkeypatch):
    # The Euler check reuses the polynomial the aggregates need, so
    # neither module computes it a second time.
    calls = counted(monkeypatch, "alexander", (gh, floer))
    report = graph_homology(g6(), khovanov=False)
    assert len(report.members) == 8
    assert len(calls) == 8
    assert report.verdicts == {"floer_euler": "pass"}


def test_alexander_only_for_floer_computed_members(monkeypatch):
    calls = counted(monkeypatch, "alexander", (gh, floer))
    report = graph_homology(knotted_k(), khovanov=False)
    computed = [m for m in report.members if m.floer is not None]
    assert len(report.members) == 3
    assert len(computed) == 1
    assert len(calls) == 1
    assert all((m.alexander is None) == (m.floer is None) for m in report.members)


# Every module that calls ``reduce_diagram``; ``graph_homology`` does not.
REDUCING_MODULES = (invariants, kauffman, grid, cli)


def test_g6_reduction_count(monkeypatch):
    # Family building reduces each distinct built link once; the member
    # hands its reduction to the Floer and Khovanov paths.
    calls = counted(monkeypatch, "reduce_diagram", REDUCING_MODULES)
    graph_homology(g6())
    assert len(calls) == 8
    assert not hasattr(gh, "reduce_diagram")


def test_k_floer_reduction_count(monkeypatch):
    calls = counted(monkeypatch, "reduce_diagram", REDUCING_MODULES)
    graph_homology(knotted_k(), khovanov=False)
    assert len(calls) == 3


def test_census_reduction_count(monkeypatch, capsys):
    # One reduction per census link where it enters, one per distinct
    # built link of each census graph's family.
    calls = counted(monkeypatch, "reduce_diagram", REDUCING_MODULES)
    assert cli.main(["census"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
    assert len(calls) == 12


def test_invariants_reduces_once(monkeypatch, tmp_path, capsys):
    p = tmp_path / "link.json"
    p.write_text(json.dumps(braid_closure([1, -2] * 7, 3).to_json()))
    calls = counted(monkeypatch, "reduce_diagram", REDUCING_MODULES)
    assert cli.main(["invariants", str(p)]) == 0
    assert len(calls) == 1


def holders(fn):
    """Every graphhom module that holds ``fn`` under its own name."""
    mods = [importlib.import_module(f"graphhom.{m.name}") for m in pkgutil.iter_modules(graphhom.__path__)]
    return [m for m in mods if getattr(m, fn.__name__, None) is fn]


def fingerprint_holders():
    """Every graphhom module that holds ``invariants.fingerprint``."""
    return holders(invariants.fingerprint)


def test_g6_fingerprint_count(monkeypatch):
    # One fingerprint per distinct built link in family dedup; grid
    # conversion checks its braids without one.
    calls = counted(monkeypatch, "fingerprint", fingerprint_holders())
    graph_homology(g6())
    assert len(calls) == 8
    assert not hasattr(grid, "fingerprint")


def test_k_floer_fingerprint_count(monkeypatch):
    calls = counted(monkeypatch, "fingerprint", fingerprint_holders())
    graph_homology(knotted_k(), khovanov=False)
    assert len(calls) == 3


# The calls that members share within one ``graph_homology`` call.
SHARED_CALLS = [
    (grid, "_checked_braid"),
    (floer, "hat_from_grid"),
    (floer, "total_homology_from_grid"),
    (khovanov, "_cube_homology"),
    (invariants, "kauffman_bracket"),
]


def count_shared_calls(monkeypatch):
    """name -> the calls of each of ``SHARED_CALLS``, wherever graphhom
    holds it."""
    return {name: counted(monkeypatch, name, holders(getattr(home, name))) for home, name in SHARED_CALLS}


def g8_seed1():
    return g8(1)


@pytest.mark.parametrize(
    "graph,want",
    [
        (g6, {"_checked_braid": 1, "hat_from_grid": 2, "total_homology_from_grid": 2,
              "_cube_homology": 3, "kauffman_bracket": 18}),
        (g8_seed1, {"_checked_braid": 1, "hat_from_grid": 2, "total_homology_from_grid": 2,
                    "_cube_homology": 3, "kauffman_bracket": 24}),
    ],
    ids=["G6", "G8-seed1"],
)
def test_members_share_pieces_and_cores(monkeypatch, graph, want):
    # G6's 8 members hold 17 split pieces, 7 of them Hopf links, of 2
    # exact forms (a Hopf link and a loop), and 8 loop-free cores of 3.
    # Each distinct piece is braided, checked and computed once, and
    # each distinct core gets one cube; the brackets left are those of
    # the family's fingerprints, the one braid check and each member's
    # Jones check.
    calls = count_shared_calls(monkeypatch)
    report = graph_homology(graph())
    assert {name: len(c) for name, c in calls.items()} == want
    assert report.verdicts == {"floer_euler": "pass", "khovanov_euler": "pass"}


def test_graph_homology_keeps_no_state_across_calls(monkeypatch):
    calls = count_shared_calls(monkeypatch)
    counts = []
    for _ in range(2):
        graph_homology(g6())
        counts.append({name: len(c) for name, c in calls.items()})
        for c in calls.values():
            c.clear()
    assert counts[0] == counts[1]
    assert counts[0]["_checked_braid"] == 1
    state = [
        name
        for name, value in vars(gh).items()
        if not name.startswith("__") and (isinstance(value, (dict, list, set)) or hasattr(value, "cache_info"))
    ]
    assert state == []


# sha256 of ``graph_homology(g, coeffs=c, multiset=m).to_json()`` dumped
# with sorted keys.  K over Z runs without Khovanov: its 11-crossing
# member takes over a minute there.
REPORT_GRAPHS = {
    **{f"G6-seed{s}": (lambda s=s: g6_base_scrambled(s)) for s in range(1, 6)},
    **{f"G8-seed{s}": (lambda s=s: g8(s)) for s in (1, 2)},
    "handcuff": handcuff,
    "hopf_handcuff": hopf_handcuff,
    "theta": theta,
    "K": knotted_k,
}
G6_DIGESTS = {
    False: "8005aae5fd0a25018b3153fb7f680bb83e4e0f8e431166a11582605c304349b1",
    True: "91319a372a1aa6bfa6f4c1a3860f67da15bd6d146590a3a36fd2abfe9a6e92aa",
}
G8_DIGESTS = {
    False: "addc1db82d281669c38bec6b75c165762f94208ef43befd29087b829be52250b",
    True: "b097aea9611c990534cf721de43d0aa7da0fac63839d2249efaeefba4f2a61fb",
}
REPORT_DIGESTS = {
    **{(f"G6-seed{s}", c, m): G6_DIGESTS[m] for s in range(1, 6) for c in ("z", "f2") for m in (False, True)},
    **{(f"G8-seed{s}", c, m): G8_DIGESTS[m] for s in (1, 2) for c in ("z", "f2") for m in (False, True)},
    **{("handcuff", c, False): "bc51c430c61d288112b4aec56056106e551141a6fe4f12a567f3df2c85bb8534" for c in ("z", "f2")},
    **{("handcuff", c, True): "4fd1ecf1c39675a8b9dab93be6e0f2983cf54b98bb886b4ad6639f9bbb372dc5" for c in ("z", "f2")},
    **{("hopf_handcuff", c, False): "70757d3d011635da60235c9b912966d11e7322e86e0bf020635c26183b27832e" for c in ("z", "f2")},
    **{("hopf_handcuff", c, True): "bc24cea323c338f5c5ddafe2348b78f8bfd03b0ddb6308a17bd42fc58b415cc7" for c in ("z", "f2")},
    **{("theta", c, False): "8a34d8fe92be1d3c9818c1c04599cfe562ddde56f1684e48b94fa6529d113a5e" for c in ("z", "f2")},
    **{("theta", c, True): "4dd95a851138b89953ed8725842079d2012a1d6f609ee6835ce0f6cc9613d2f2" for c in ("z", "f2")},
    ("K", "z", False): "4c64a94e5eef552ed9601c585dbdd9d23e3fc4f057de4db2afd2a9409f4e0963",
    ("K", "z", True): "81210d10fa9caeee07181590334064e6582fe1763ef851a5b997053b46f3c6fe",
    ("K", "f2", False): "8869e3adfffbeb2230470eb936d278355d9df998146283267aa7f227df1895b2",
    ("K", "f2", True): "c6d19bc8572f03b745ed646c387b1308653fce20ae8d5e9cbc7d70c23d670b74",
}


@pytest.mark.parametrize(
    "name,coeffs,multiset",
    list(REPORT_DIGESTS),
    ids=[f"{n}-{c}-{'multiset' if m else 'set'}" for n, c, m in REPORT_DIGESTS],
)
def test_graph_homology_output_is_pinned(name, coeffs, multiset):
    khovanov = not (name == "K" and coeffs == "z")
    report = graph_homology(
        REPORT_GRAPHS[name](), coeffs=coeffs, multiset=multiset, khovanov=khovanov
    )
    doc = report.to_json()
    assert all("alexander" not in member for member in doc["members"])
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[name, coeffs, multiset]


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


def two_trefoils():
    """A theta with a right-handed trefoil on one edge and a left-handed
    one on another: two members are mirror trefoils, pieces of one size
    and one Alexander polynomial whose tables differ."""
    return connected_sum(trefoil_right(), connected_sum(theta(), trefoil_left(), arc_a=2), arc_b=0)


@pytest.mark.parametrize(
    "graph", [handcuff, hopf_handcuff, g6, g8_seed1, two_trefoils, knotted_k], ids=lambda f: f.__name__
)
def test_shared_tables_match_each_member_alone(graph):
    """Each member's tables, assembled from what the members share, equal
    that member computed alone with nothing shared: the Floer fields from
    a table per piece, Khovanov from the cube of its whole reduced
    diagram.  K runs without Khovanov: its 11-crossing member takes over
    a minute over Z."""
    g = graph()
    fam = family(g)
    alone = [
        floer_fields([{"grid": simplify_grid(p)} for p in piece_grids(fm.reduced)], fm.reduced)
        for fm in fam.members
    ]
    with_khovanov = graph is not knotted_k
    for coeffs in ("z", "f2") if with_khovanov else ("z",):
        report = graph_homology(g, coeffs=coeffs, khovanov=with_khovanov)
        assert len(report.members) == len(fam.members)
        for fm, m, fields in zip(fam.members, report.members, alone):
            assert m.fingerprint == fm.fingerprint
            assert {name: getattr(m, name) for name in fields} == fields
            if with_khovanov:
                assert m.khovanov == khovanov_homology(fm.reduced, coeffs)
