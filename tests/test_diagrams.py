"""Diagram encoding, validation, connectivity, faces, and canonical keys."""

import json
from importlib import resources

import pytest
from hypothesis import given, strategies as st

from graphhom import catalog
from graphhom.diagrams import (
    NOT_PLANAR,
    GraphDiagram,
    connected_sum,
    disjoint_union,
    splice_crossing,
    union_classes,
)
from graphhom.errors import InvalidDiagram


def test_loops_only_diagram_is_valid():
    d = catalog.unlink(3)
    assert d.validate() == []
    assert d.split_components() == (3, {})
    assert d.is_link()


def test_negative_loops_rejected():
    d = GraphDiagram([], [], -1, {})
    assert any("loop" in v for v in d.validate())


def test_arc_multiplicity_violation_reported():
    d = GraphDiagram([(0, 1, 1, 1)], [], 0, {0: ("x", 0, 0), 1: ("x", 0, 1)})
    assert any("multiplicity" in v for v in d.validate())


def test_under_out_head_rejected():
    # arc 1 flowing into slot 2 contradicts the under-out convention
    d = GraphDiagram(
        [(0, 0, 1, 1)], [], 0, {0: ("x", 0, 0), 1: ("x", 0, 2)}
    )
    assert d.validate()


def test_hopf_diagram_valid_and_connected():
    d = catalog.hopf_positive()
    assert d.validate() == []
    ncomp, labels = d.split_components()
    assert ncomp == 2
    assert set(labels) == set(d.arc_ids())


def test_braid_closure_writhe_and_signs():
    right = catalog.trefoil_right()
    assert right.writhe() == 3
    assert right.positive_negative() == (3, 0)
    left = catalog.trefoil_left()
    assert left.writhe() == -3
    assert left.positive_negative() == (0, 3)
    assert catalog.figure_eight().writhe() == 0


def test_left_trefoil_reference_pd_matches_braid():
    pd = GraphDiagram.from_pd([(0, 3, 1, 4), (2, 5, 3, 0), (4, 1, 5, 2)])
    assert pd.validate() == []
    assert pd.writhe() == -3
    ncomp, _ = pd.split_components()
    assert ncomp == 1


def test_kink_signs():
    assert catalog.unknot_kink(1).writhe() == 1
    assert catalog.unknot_kink(-1).writhe() == -1


def test_mirror_is_involution_and_flips_writhe():
    d = catalog.trefoil_right()
    m = d.mirror()
    assert m.validate() == []
    assert m.writhe() == -3
    assert m.mirror().canonical_key() == d.canonical_key()


def test_arc_endpoints_table_is_built_once_per_diagram():
    d = catalog.trefoil_right()
    ends = d.arc_endpoints()
    assert d.arc_endpoints() is ends
    scanned = {}
    for a, e in d.endpoints():
        scanned.setdefault(a, []).append(e)
    assert ends == scanned
    # a new diagram gets its own table
    assert d.mirror().arc_endpoints() is not ends


def test_reverse_is_involution():
    d = catalog.figure_eight()
    r = d.reverse()
    assert r.validate() == []
    assert r.reverse().canonical_key() == d.canonical_key()
    assert r.writhe() == d.writhe()


def test_canonical_key_relabel_invariant():
    d = catalog.trefoil_right()
    assert d.relabeled(17).canonical_key() == d.canonical_key()


def test_canonical_key_separates_orientations():
    hopf = catalog.hopf_positive()
    from test_invariants import reverse_component

    flipped = reverse_component(hopf, 1)
    assert flipped.validate() == []
    assert flipped.canonical_key() != hopf.canonical_key()
    assert flipped.writhe() == -2


def test_theta_faces_and_euler():
    d = catalog.theta()
    assert d.validate() == []
    faces = d.faces()
    assert sorted(len(f) for f in faces) == [2, 2, 2]
    assert d.euler_ok()


def test_handcuff_valid():
    d = catalog.handcuff()
    assert d.validate() == []
    assert d.euler_ok()


def test_hopf_handcuff_planar():
    d = catalog.hopf_handcuff()
    assert d.validate() == []
    assert d.euler_ok()
    assert len(d.faces()) == 5


def test_kink_faces_contain_monogon():
    d = catalog.unknot_kink(-1)
    sizes = sorted(len(f) for f in d.faces())
    assert sizes == [1, 1, 2]
    assert d.euler_ok()


def test_all_catalog_links_pass_euler():
    for make in (
        catalog.unknot,
        catalog.hopf_positive,
        catalog.hopf_negative,
        catalog.trefoil_right,
        catalog.trefoil_left,
        catalog.figure_eight,
    ):
        assert make().euler_ok(), make.__name__


# two crossings whose rotation system leaves 2 faces where Euler's
# formula wants 4; every structural check passes
NONPLANAR_PD = [(0, 1, 2, 3), (2, 0, 3, 1)]


def test_nonplanar_pd_fails_validation():
    d = GraphDiagram.from_pd(NONPLANAR_PD)
    assert len(d.faces()) == 2 and not d.euler_ok()
    assert d.validate() == [NOT_PLANAR]
    with pytest.raises(InvalidDiagram, match="not planar"):
        d.validate_strict()


def test_nonplanar_orientation_override_is_not_an_orientation_error():
    # a theta graph whose two vertices turn the same way embeds on the
    # torus only; flipping an edge is a consistent override
    theta_on_torus = [(0, 1, 2), (0, 1, 2)]
    assert GraphDiagram.from_pd([], theta_on_torus).validate() == [NOT_PLANAR]
    flipped = GraphDiagram.from_pd([], theta_on_torus, orientations={0: -1})
    assert flipped.validate() == [NOT_PLANAR]


def test_split_diagrams_are_planar():
    # faces are counted per connected piece, so each piece adds 2
    d = disjoint_union(catalog.trefoil_right(), catalog.hopf_positive())
    assert d.euler_ok()
    assert disjoint_union(catalog.handcuff(), catalog.theta()).validate() == []


def census_diagrams():
    """Every bundled census diagram, in file-name order."""
    base = resources.files("graphhom.census")
    names = sorted(e.name for e in base.iterdir() if e.name.endswith(".diagram.json"))
    return [GraphDiagram.from_json(json.loads((base / n).read_text("utf-8"))) for n in names]


def test_every_catalog_and_census_diagram_validates():
    made = [
        catalog.unknot(), catalog.unlink(3), catalog.unknot_kink(1),
        catalog.unknot_kink(-1), catalog.hopf_positive(), catalog.hopf_negative(),
        catalog.trefoil_right(), catalog.trefoil_left(), catalog.figure_eight(),
        catalog.handcuff(), catalog.hopf_handcuff(), catalog.theta(),
        catalog.braid_closure([1, -2] * 3, 3), catalog.braid_closure([1] * 7, 2),
    ]
    census = census_diagrams()
    assert len(census) == 10
    for d in made + census:
        assert d.validate() == [], d


def test_disjoint_union_counts():
    d = disjoint_union(catalog.trefoil_right(), catalog.hopf_positive())
    assert d.validate() == []
    ncomp, _ = d.split_components()
    assert ncomp == 3
    assert d.writhe() == 5


def test_connected_sum_counts():
    d = connected_sum(catalog.trefoil_right(), catalog.trefoil_left())
    assert d.validate() == []
    ncomp, _ = d.split_components()
    assert ncomp == 1
    assert len(d.crossings) == 6
    assert d.writhe() == 0


def test_connected_sum_with_unknot_is_loop_absorption():
    d = connected_sum(catalog.unknot(), catalog.trefoil_right())
    assert d.validate() == []
    assert d.loops == 0
    assert len(d.crossings) == 3


def test_splice_kink_leaves_circle():
    d = splice_crossing(catalog.unknot_kink(1), 0)
    assert d.validate() == []
    assert d.crossings == ()
    assert d.loops == 1


def test_splice_hopf_once_gives_kinkless_circle():
    # one crossing whose two strands each close up through it: every
    # structural check passes, but two closed curves in the plane cross an
    # even number of times, so the rotation system is not planar
    d = splice_crossing(catalog.hopf_positive(), 0)
    assert d.validate() == [NOT_PLANAR]
    assert not d.euler_ok()
    assert len(d.crossings) == 1


def test_json_round_trip():
    for make in (catalog.trefoil_right, catalog.figure_eight, catalog.hopf_handcuff):
        d = make()
        blob = d.to_json()
        back = GraphDiagram.from_json(blob)
        assert back.canonical_key() == d.canonical_key()


def test_from_json_rejects_malformed():
    with pytest.raises(InvalidDiagram):
        GraphDiagram.from_json({"crossings": [[0, 1, 2]], "vertices": [], "loops": 0})
    with pytest.raises(InvalidDiagram):
        GraphDiagram.from_json({"crossings": "nope", "vertices": [], "loops": 0})


def test_orientation_solver_respects_overrides():
    plain = GraphDiagram.from_pd([(0, 0, 1, 1)])
    assert plain.writhe() == 1
    flipped = plain.reverse()
    blob = flipped.to_json()
    assert GraphDiagram.from_json(blob).canonical_key() == flipped.canonical_key()


pair_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=11), st.integers(min_value=0, max_value=11)),
    max_size=20,
)


@given(pair_lists.flatmap(lambda ps: st.tuples(st.just(ps), st.permutations(ps))))
def test_union_classes_label_is_class_minimum(pairs_and_order):
    pairs, reordered = pairs_and_order
    classes = [{a} for a in range(12)]
    for u, v in pairs:
        cu = next(c for c in classes if u in c)
        cv = next(c for c in classes if v in c)
        if cu is not cv:
            cu |= cv
            classes.remove(cv)
    want = {a: min(c) for c in classes for a in c}
    assert union_classes(range(12), pairs) == want
    assert union_classes(reversed(range(12)), reordered) == want
    assert union_classes(range(12), [(v, u) for u, v in reordered]) == want


def test_site_components_order():
    links = disjoint_union(catalog.trefoil_right(), catalog.hopf_positive())
    d = disjoint_union(catalog.theta(), links)
    trefoil = [("x", i) for i in range(3)]
    hopf = [("x", 3), ("x", 4)]
    theta = [("v", 0), ("v", 1)]
    assert [sorted(p) for p in d.site_components()] == [trefoil, hopf, theta]
    assert catalog.unlink(2).site_components() == []
