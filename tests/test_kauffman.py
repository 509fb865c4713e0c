"""Replacement enumeration against the worked handcuff/theta examples
and the family's invariance under diagram moves."""

import itertools
import logging

import pytest

from graphhom import kauffman

from graphhom.catalog import (
    handcuff,
    hopf_handcuff,
    hopf_negative,
    theta,
    trefoil_right,
    unknot,
    unlink,
)
from graphhom.diagrams import GraphDiagram, connected_sum
from graphhom.errors import CapExceeded, InvalidDiagram
from graphhom.invariants import Fingerprint, fingerprint
from graphhom.kauffman import (
    apply_replacement,
    assignment_count,
    family,
    vertex_choices,
)
from graphhom.moves import random_move_sequence

FP_UNKNOT = fingerprint(unknot())
FP_UNLINK2 = fingerprint(unlink(2))
FP_HOPF = fingerprint(hopf_negative())


def by_fingerprint(fam):
    return {m.fingerprint: m.multiplicity for m in fam.members}


def g6():
    """The fixed benchmark graph G6: six trivalent vertices, 729
    assignments, eight distinct members."""
    g = connected_sum(hopf_handcuff(), connected_sum(theta(), hopf_handcuff()))
    return random_move_sequence(g, count=10, seed=3, kinds={"R4", "R5"})[0]


def nonempty_links(g):
    """The replacement links of every assignment, in product order,
    with the empty ones dropped."""
    per_vertex = [vertex_choices(len(v)) or [None] for v in g.vertices]
    for combo in itertools.product(*per_vertex):
        link = apply_replacement(g, dict(enumerate(combo)))
        if link.crossings or link.loops:
            yield link


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
