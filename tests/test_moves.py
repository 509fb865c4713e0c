"""Move soundness: every rewrite yields a valid planar diagram, every
insert/remove pair restores the original up to relabeling, and link
invariants survive random move sequences."""

import hashlib
import json
import random

import pytest

from graphhom.catalog import (
    braid_closure,
    figure_eight,
    handcuff,
    hopf_handcuff,
    hopf_negative,
    hopf_positive,
    theta,
    trefoil_right,
    unknot,
)
from graphhom.diagrams import connected_sum
from graphhom.errors import PatternMismatch
from graphhom.invariants import jones, kauffman_bracket
from graphhom.kauffman import assignment_count, family
from graphhom.laurent import Laurent
from graphhom.moves import (
    MoveSite,
    _orbit_of,
    _r3,
    apply_move,
    legal_sites,
    random_move_sequence,
)

A = ("A",)


def _search_inverse(before, after, candidates):
    key = before.canonical_key()
    for site in candidates:
        try:
            if apply_move(after, site).canonical_key() == key:
                return site
        except PatternMismatch:
            continue
    raise PatternMismatch("no inverse site reproduces the original diagram")


def _face_site_kinds(face):
    return {(k, i) for k, i, _ in face}


def apply_move_with_inverse(d, s):
    """Like apply_move, and also a site that provably undoes the move
    (verified by canonical form)."""
    if s.kind == "R3":
        out, inv_dart = _r3(d, *s.params)
        return out, MoveSite("R3", True, (inv_dart,))
    out = apply_move(d, s)
    if s.kind == "R1" and s.insert:
        return out, MoveSite("R1", False, (len(out.crossings) - 1,))
    if s.kind == "R2" and s.insert:
        new = {("x", len(out.crossings) - 2), ("x", len(out.crossings) - 1)}
        cands = [
            MoveSite("R2", False, (f[0],))
            for f in out.faces()
            if len(f) == 2 and _face_site_kinds(f) == new
        ]
        return out, _search_inverse(d, out, cands)
    if s.kind == "R4" and s.insert:
        corner = s.params[0]
        return out, MoveSite("R4", False, (corner[1], corner[2]))
    if s.kind == "R5" and s.insert:
        corner = s.params[0]
        target = {("x", len(out.crossings) - 1), ("v", corner[1])}
        cands = [
            MoveSite("R5", False, (f[0],))
            for f in out.faces()
            if len(f) == 2 and _face_site_kinds(f) == target
        ]
        return out, _search_inverse(d, out, cands)
    if s.kind == "R1":
        cands = [
            MoveSite("R1", True, (arc, var))
            for arc in sorted(out.arc_ids()) + [None]
            for var in range(4)
        ]
        return out, _search_inverse(d, out, cands)
    if s.kind == "R2":
        cands = []
        for f in out.faces():
            for da in f:
                for db in f:
                    if da != db and out.arc_at(da) != out.arc_at(db):
                        cands.append(MoveSite("R2", True, (da, db, False)))
                        cands.append(MoveSite("R2", True, (da, db, True)))
        return out, _search_inverse(d, out, cands)
    if s.kind == "R4":
        vi, j = s.params
        corner = ("v", vi, j)
        cands = []
        for f in out.faces():
            if corner not in f:
                continue
            for da in f:
                if da != corner:
                    cands.append(MoveSite("R4", True, (corner, da, False)))
                    cands.append(MoveSite("R4", True, (corner, da, True)))
        return out, _search_inverse(d, out, cands)
    if s.kind == "R5":
        vis = {i for k, i, _ in _orbit_of(d, s.params[0]) if k == "v"}
        vi = vis.pop()
        deg = len(out.vertices[vi])
        cands = [
            MoveSite("R5", True, (("v", vi, c), over))
            for c in range(deg)
            for over in (False, True)
        ]
        return out, _search_inverse(d, out, cands)
    raise PatternMismatch(f"unknown move kind {s.kind!r}")


def check_round_trip(d, site):
    out, inv = apply_move_with_inverse(d, site)
    out.validate_strict()
    assert out.euler_ok()
    back = apply_move(out, inv)
    assert back.canonical_key() == d.canonical_key()
    return out


def test_r1_insert_all_variants_invert():
    d = trefoil_right()
    for arc in sorted(d.arc_ids()):
        for var in range(4):
            out = check_round_trip(d, MoveSite("R1", True, (arc, var)))
            assert len(out.crossings) == 4


def test_r1_free_loop_variants():
    d = unknot()
    for var in (0, 2):
        out = check_round_trip(d, MoveSite("R1", True, (None, var)))
        assert out.loops == 0
        assert len(out.crossings) == 1


def test_r1_kink_scales_bracket():
    d = trefoil_right()
    base = kauffman_bracket(d)
    pos = Laurent(A, {(6,): -1})
    neg = Laurent(A, {(-6,): -1})
    arc = min(d.arc_ids())
    assert kauffman_bracket(apply_move(d, MoveSite("R1", True, (arc, 0)))) == base * pos
    assert kauffman_bracket(apply_move(d, MoveSite("R1", True, (arc, 1)))) == base * pos
    assert kauffman_bracket(apply_move(d, MoveSite("R1", True, (arc, 2)))) == base * neg
    assert kauffman_bracket(apply_move(d, MoveSite("R1", True, (arc, 3)))) == base * neg


def test_r1_remove_needs_monogon():
    d = trefoil_right()
    with pytest.raises(PatternMismatch):
        apply_move(d, MoveSite("R1", False, (0,)))
    with pytest.raises(PatternMismatch):
        apply_move(d, MoveSite("R1", False, (17,)))


def test_r2_round_trip_every_site():
    d = trefoil_right()
    jv = jones(d)
    n = 0
    for f in d.faces():
        for da in f:
            for db in f:
                if da == db or d.arc_at(da) == d.arc_at(db):
                    continue
                for over in (False, True):
                    out = check_round_trip(d, MoveSite("R2", True, (da, db, over)))
                    assert len(out.crossings) == 5
                    assert jones(out) == jv
                    n += 1
    assert n == 36


def test_r2_rejects_darts_on_different_faces():
    d = trefoil_right()
    faces = d.faces()
    da = faces[0][0]
    db = next(f[0] for f in faces if da not in f)
    with pytest.raises(PatternMismatch):
        apply_move(d, MoveSite("R2", True, (da, db, False)))


def test_r2_remove_rejects_clasp_bigons():
    d = hopf_positive()
    bigons = [f for f in d.faces() if len(f) == 2]
    assert bigons
    for f in bigons:
        with pytest.raises(PatternMismatch):
            apply_move(d, MoveSite("R2", False, (f[0],)))


def test_r3_braid_relation_sites():
    legal = {(1, 2, 1): 1, (-1, -2, -1): 1, (1, 2, -1): 1, (-1, 2, -1): 0, (1, -2, 1): 0}
    for word, count in legal.items():
        d = braid_closure(list(word), 3)
        sites = [s for s in legal_sites(d, kinds={"R3"})]
        assert len(sites) == count, word
        for s in sites:
            out = check_round_trip(d, s)
            assert len(out.crossings) == len(d.crossings)
            assert jones(out) == jones(d)


def test_r3_rejects_non_triangle():
    d = trefoil_right()
    dart = d.faces()[0][0]
    with pytest.raises(PatternMismatch):
        apply_move(d, MoveSite("R3", True, (dart,)))


def test_r4_site_counts():
    assert not [s for s in legal_sites(theta(), kinds={"R4"}) if s.insert]
    assert len([s for s in legal_sites(handcuff(), kinds={"R4"}) if s.insert]) == 8
    assert len([s for s in legal_sites(hopf_handcuff(), kinds={"R4"}) if s.insert]) == 12


def test_r4_round_trip_every_site():
    for d in (handcuff(), hopf_handcuff()):
        for s in legal_sites(d, kinds={"R4"}):
            if not s.insert:
                continue
            deg = len(d.vertices[s.params[0][1]])
            out = check_round_trip(d, s)
            assert len(out.crossings) == len(d.crossings) + deg


def test_r4_rejects_strand_ending_on_vertex():
    d = handcuff()
    corner = ("v", 0, 0)
    face = next(f for f in d.faces() if corner in f)
    bar = next(da for da in face if da != corner and d.arc_at(da) == 1)
    with pytest.raises(PatternMismatch):
        apply_move(d, MoveSite("R4", True, (corner, bar, False)))


def test_r4_remove_rejects_uncrossed_vertex():
    with pytest.raises(PatternMismatch):
        apply_move(handcuff(), MoveSite("R4", False, (0, 0)))


def test_r5_round_trip_every_corner():
    for d in (theta(), handcuff(), hopf_handcuff()):
        sites = [s for s in legal_sites(d, kinds={"R5"}) if s.insert]
        assert len(sites) == 12
        for s in sites:
            out = check_round_trip(d, s)
            assert len(out.crossings) == len(d.crossings) + 1


def test_r5_needs_vertex():
    with pytest.raises(PatternMismatch):
        apply_move(trefoil_right(), MoveSite("R5", True, (("v", 0, 0), True)))
    d = hopf_positive()
    bigon = next(f for f in d.faces() if len(f) == 2)
    with pytest.raises(PatternMismatch):
        apply_move(d, MoveSite("R5", False, (bigon[0],)))


def test_unknown_kind_rejected():
    with pytest.raises(PatternMismatch):
        apply_move(unknot(), MoveSite("R7", True, ()))


WALK_SEEDS = (0, 1, 2)


@pytest.mark.parametrize(
    "make",
    [trefoil_right, hopf_positive, theta, handcuff, hopf_handcuff, unknot],
)
def test_random_walk_every_step_invertible(make):
    d = make()
    budget = len(d.crossings) + 4
    for seed in WALK_SEEDS:
        rng = random.Random(seed)
        cur = d
        for _ in range(6):
            sites = legal_sites(cur)
            if len(cur.crossings) >= budget:
                shrinking = [s for s in sites if not s.insert or s.kind == "R3"]
                sites = shrinking or sites
            site = rng.choice(sites)
            nxt, inv = apply_move_with_inverse(cur, site)
            nxt.validate_strict()
            assert nxt.euler_ok()
            assert apply_move(nxt, inv).canonical_key() == cur.canonical_key()
            cur = nxt


@pytest.mark.parametrize("make", [trefoil_right, figure_eight, hopf_negative])
def test_jones_invariant_under_random_link_moves(make):
    d = make()
    jv = jones(d)
    for seed in WALK_SEEDS:
        out, applied = random_move_sequence(d, 10, seed, kinds={"R1", "R2", "R3"})
        out.validate_strict()
        assert applied
        assert jones(out) == jv


def test_random_sequence_deterministic():
    first = random_move_sequence(theta(), 10, seed=99)
    second = random_move_sequence(theta(), 10, seed=99)
    assert first[1] == second[1]
    assert first[0].canonical_key() == second[0].canonical_key()


@pytest.mark.parametrize("kinds", [{"R9"}, {""}, {"R1", "r2"}])
def test_random_sequence_rejects_unknown_kinds(kinds):
    with pytest.raises(PatternMismatch):
        random_move_sequence(theta(), 5, seed=1, kinds=kinds)


def test_g6_scramble_stream_is_pinned():
    """The ROADMAP's G6 and the benchmark's graph inputs are R4/R5
    scrambles; a change to the site order or the random draw moves them."""
    g = connected_sum(hopf_handcuff(), connected_sum(theta(), hopf_handcuff()))
    d, applied = random_move_sequence(g, count=10, seed=3, kinds={"R4", "R5"})
    digest = hashlib.sha256(json.dumps(d.to_json(), sort_keys=True).encode()).hexdigest()
    assert digest == "823ffcbda208fa15bf141e7b204457f676db3b0ba04e8601410f5d79d8371df4"
    assert len(applied) == 10
    assert (len(d.crossings), len(d.vertices)) == (10, 6)
    assert assignment_count(d) == 729
    assert len(family(d).members) == 8


def scrambles():
    from test_kauffman import g6_base_scrambled, g8

    return [g6_base_scrambled(seed) for seed in range(1, 8)] + [g8(seed) for seed in range(1, 8)]


def test_legal_sites_on_the_g6_and_g8_scrambles_are_pinned():
    """The G6 and G8 scrambles at seeds 1-7 hold 82 triangle faces, two of
    them R3 sites; the digest was recorded before R3 had one recognizer."""
    sites = repr([legal_sites(d) for d in scrambles()])
    digest = hashlib.sha256(sites.encode()).hexdigest()
    assert digest == "2a5a3b91b4899352216be969e75bd112f2f6b8a7d52100b6dca621228e7be680"


def test_r3_sites_are_the_triangles_r3_applies_to():
    words = [([1, 2, 1], 3), ([1, -2] * 3, 3), ([1, 1, 2, -1, 2, 2], 3), ([1, 2, 3] * 3, 4)]
    closures = [braid_closure(w, k) for w, k in words]
    triangles = applied = 0
    for d in closures + scrambles():
        listed = {s.params[0] for s in legal_sites(d, kinds={"R3"})}
        for f in d.faces():
            if len(f) != 3:
                continue
            triangles += 1
            try:
                _r3(d, f[0])
            except PatternMismatch:
                assert f[0] not in listed
                continue
            assert f[0] in listed
            applied += 1
    assert triangles >= 100 and applied >= 3


def test_legal_sites_all_apply():
    for d in (trefoil_right(), handcuff(), theta()):
        for s in legal_sites(d):
            out = apply_move(d, s)
            out.validate_strict()
            assert out.euler_ok()


def reference_r4_removals(d):
    """R4 removal sites found by running the whole removal, splice
    included, at every vertex slot."""
    sites = []
    for vi, v in enumerate(d.vertices):
        for j in range(len(v)):
            site = MoveSite("R4", False, (vi, j))
            try:
                apply_move(d, site)
            except PatternMismatch:
                continue
            sites.append(site)
    return sites


def test_legal_sites_r4_removals_match_full_removal():
    found = 0
    for make in (theta, handcuff, hopf_handcuff):
        for seed in range(1, 8):
            d, _ = random_move_sequence(make(), count=6, seed=seed, kinds={"R4", "R5"})
            want = reference_r4_removals(d)
            got = [s for s in legal_sites(d) if s.kind == "R4" and not s.insert]
            assert got == want
            assert [s for s in legal_sites(d, kinds={"R4"}) if not s.insert] == want
            found += len(want)
    assert found
