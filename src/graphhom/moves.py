"""Local rewrites of graph diagrams: kink, poke, slide-past-crossing,
vertex slide, and vertex twist, plus seeded random walks over them.

Rewrites are expressed against the face structure: removal sites are
face orbits of the right shape, insertion sites are darts of a common
face.  Each applier either returns a valid diagram or raises
PatternMismatch naming the failed check.

Compass bookkeeping: a new crossing is described by the four arcs on
its N/E/S/W rays plus the ray carrying the incoming under-strand; the
slot tuple then reads counterclockwise from that ray.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from .diagrams import Dart, Endpoint, GraphDiagram, _put, splice_crossing
from .errors import PatternMismatch

_RAYS_CCW = {
    "S": ("S", "E", "N", "W"),
    "E": ("E", "N", "W", "S"),
    "N": ("N", "W", "S", "E"),
    "W": ("W", "S", "E", "N"),
}

_OPPOSITE = {"N": "S", "S": "N", "E": "W", "W": "E"}


def crossing_from_compass(
    rays: Dict[str, int], under_in: str
) -> Tuple[Tuple[int, int, int, int], Dict[str, int]]:
    order = _RAYS_CCW[under_in]
    return tuple(rays[r] for r in order), {r: k for k, r in enumerate(order)}


class MoveSite(NamedTuple):
    """A move kind, its direction, and the darts or indices it targets.

    params by kind and direction:
      R1 insert: (arc or None for a free loop, variant 0..3)
      R1 remove: (crossing,)
      R2 insert: (dart_a, dart_b, over_b) with both darts on one face
      R2 remove: (dart,) naming the bigon face
      R3:        (dart,) naming the triangle face; self-inverse shape
      R4 insert: (corner_dart, dart_a, over)
      R4 remove: (vertex, corner_slot)
      R5 insert: (corner_dart, over)
      R5 remove: (dart,) naming the crossing-vertex bigon face
    """

    kind: str
    insert: bool
    params: Tuple


def _orbit_of(d: GraphDiagram, dart: Dart) -> Tuple[Dart, ...]:
    for face in d.faces():
        if dart in face:
            return face
    raise PatternMismatch(f"dart {dart} is not a face corner of the diagram")


# -- R1: kink ------------------------------------------------------------------

_R1_SLOTS = {
    0: (("A", "A2", "N", "N"), {"A": 0, "N": 3}),
    1: (("N", "N", "A2", "A"), {"N": 0, "A": 3}),
    2: (("A", "N", "N", "A2"), {"A": 0, "N": 1}),
    3: (("N", "A", "A2", "N"), {"N": 0, "A": 1}),
}


def _r1_insert(d: GraphDiagram, arc: Optional[int], variant: int) -> GraphDiagram:
    if variant not in _R1_SLOTS:
        raise PatternMismatch(f"R1 variant {variant} is not one of 0..3")
    heads = dict(d.heads)
    crossings = [list(c) for c in d.crossings]
    vertices = [list(v) for v in d.vertices]
    i = len(crossings)
    if arc is None:
        if d.loops < 1:
            raise PatternMismatch("R1 on a free loop requires loops >= 1")
        if variant not in (0, 2):
            raise PatternMismatch("free-loop R1 uses variant 0 (positive) or 2 (negative)")
        x = d.fresh_arc_id()
        n = x + 1
        if variant == 0:
            crossings.append([x, x, n, n])
            heads[x] = ("x", i, 0)
            heads[n] = ("x", i, 3)
        else:
            crossings.append([x, n, n, x])
            heads[x] = ("x", i, 0)
            heads[n] = ("x", i, 1)
        return GraphDiagram(crossings, vertices, d.loops - 1, heads)
    if arc not in heads:
        raise PatternMismatch(f"R1 target arc {arc} is not in the diagram")
    a2 = d.fresh_arc_id()
    n = a2 + 1
    names = {"A": arc, "A2": a2, "N": n}
    slots, inflow = _R1_SLOTS[variant]
    old_head = heads[arc]
    _put(crossings, vertices, old_head, a2)
    crossings.append([names[t] for t in slots])
    heads[a2] = old_head
    for token, s in inflow.items():
        heads[names[token]] = ("x", i, s)
    return GraphDiagram(crossings, vertices, d.loops, heads)


def _r1_remove(d: GraphDiagram, i: int) -> GraphDiagram:
    if not 0 <= i < len(d.crossings):
        raise PatternMismatch(f"no crossing {i} to unkink")
    c = d.crossings[i]
    if not any(c[s] == c[(s + 1) % 4] for s in range(4)):
        raise PatternMismatch(f"crossing {i} has no monogon lobe")
    return splice_crossing(d, i)


# -- R2: poke ------------------------------------------------------------------

# a-strand compass parts per (walk_with_flow_b, walk_with_flow_a): for
# the west and east crossings, the ray of the incoming a-piece plus the
# arc tokens on that ray and its opposite.
_R2_A_PARTS = {
    (True, True): (("N", "MID", "POST"), ("S", "A", "MID")),
    (True, False): (("S", "A", "MID"), ("N", "MID", "POST")),
    (False, True): (("N", "A", "MID"), ("S", "MID", "POST")),
    (False, False): (("S", "MID", "POST"), ("N", "A", "MID")),
}


def _r2_insert(d: GraphDiagram, da: Dart, db: Dart, over_b: bool) -> GraphDiagram:
    orbit = _orbit_of(d, db)
    if da not in orbit:
        raise PatternMismatch("R2 darts do not border a common face")
    a = d.arc_at(da)
    b = d.arc_at(db)
    if a == b:
        raise PatternMismatch("R2 requires two distinct arcs")
    with_a = d.heads[a] != da
    with_b = d.heads[b] != db
    a_mid = d.fresh_arc_id()
    a_post, b_mid, b_post = a_mid + 1, a_mid + 2, a_mid + 3
    names = {"A": a, "MID": a_mid, "POST": a_post}
    heads = dict(d.heads)
    crossings = [list(c) for c in d.crossings]
    vertices = [list(v) for v in d.vertices]
    _put(crossings, vertices, d.heads[a], a_post)
    heads[a_post] = d.heads[a]
    _put(crossings, vertices, d.heads[b], b_post)
    heads[b_post] = d.heads[b]
    part_w, part_e = _R2_A_PARTS[(with_b, with_a)]
    for idx, b_pair, (ray, tok_in, tok_out) in (
        (len(crossings), (b, b_mid), part_w),
        (len(crossings) + 1, (b_mid, b_post), part_e),
    ):
        b_in, b_out = b_pair
        rays = {"W": b_in, "E": b_out, ray: names[tok_in], _OPPOSITE[ray]: names[tok_out]}
        under_in = ray if over_b else "W"
        tup, slot_of = crossing_from_compass(rays, under_in)
        crossings.append(list(tup))
        heads[b_in] = ("x", idx, slot_of["W"])
        heads[names[tok_in]] = ("x", idx, slot_of[ray])
    return GraphDiagram(crossings, vertices, d.loops, heads)


def _bigon_crossings(orbit: Tuple[Dart, ...]) -> Tuple[int, int]:
    """The two crossings of a poked bigon face, given as its orbit."""
    if len(orbit) != 2:
        raise PatternMismatch(f"face {orbit} is not a bigon")
    (k1, i1, s1), (k2, i2, s2) = orbit
    if k1 != "x" or k2 != "x":
        raise PatternMismatch("bigon removal needs both corners at crossings")
    if i1 == i2:
        raise PatternMismatch("bigon corners sit at one crossing; use R1")
    if s1 % 2 != (s2 - 1) % 2:
        raise PatternMismatch("bigon strands are clasped, not poked")
    return i1, i2


def _r2_remove(d: GraphDiagram, dart: Dart) -> GraphDiagram:
    i1, i2 = _bigon_crossings(_orbit_of(d, dart))
    out = splice_crossing(d, max(i1, i2))
    return splice_crossing(out, min(i1, i2))


# -- R3: slide past a crossing -------------------------------------------------

def _triangle_crossings(orbit: Tuple[Dart, ...]) -> Set[int]:
    """The three crossings of a triangle face where R3 applies, given as
    its orbit: one strand must pass uniformly over or under it."""
    if len(orbit) != 3:
        raise PatternMismatch(f"face {orbit} is not a triangle")
    if any(k != "x" for k, _, _ in orbit):
        raise PatternMismatch("triangle corners must all be crossings")
    xs = {i for _, i, _ in orbit}
    if len(xs) != 3:
        raise PatternMismatch("triangle touches some crossing twice")
    if not any(orbit[k][2] % 2 == (orbit[(k + 1) % 3][2] - 1) % 2 for k in range(3)):
        raise PatternMismatch("no strand passes uniformly over or under the triangle")
    return xs


def _r3(d: GraphDiagram, dart: Dart) -> Tuple[GraphDiagram, Dart]:
    orbit = _orbit_of(d, dart)
    xs = _triangle_crossings(orbit)
    strands = []
    for k in range(3):
        _, xi, si = orbit[k]
        _, xj, sj = orbit[(k + 1) % 3]
        sj = (sj - 1) % 4
        m = d.crossings[xi][si]
        if d.heads[m] == ("x", xi, si):
            xi, si, xj, sj = xj, sj, xi, si  # list tail crossing first
        strands.append((m, xi, si, d.crossings[xi][(si + 2) % 4], xj, sj))
    writes: Dict[Tuple[int, int], int] = {}
    mid_slots: Dict[Tuple[int, int], int] = {}
    heads = dict(d.heads)
    for m, ci, si, ui, cj, sj in strands:
        uj = d.crossings[cj][(sj + 2) % 4]
        writes[(ci, (si + 2) % 4)] = m
        writes[(ci, si)] = uj
        writes[(cj, sj)] = ui
        writes[(cj, (sj + 2) % 4)] = m
        mid_slots[(ci, (si + 2) % 4)] = m
        mid_slots[(cj, (sj + 2) % 4)] = m
        heads[ui] = ("x", cj, sj)
        heads[m] = ("x", ci, (si + 2) % 4)
    if len(writes) != 12:
        raise PatternMismatch("triangle slot writes collide")
    crossings = [list(c) for c in d.crossings]
    for (xi, s), arc in writes.items():
        crossings[xi][s] = arc
    out = GraphDiagram(crossings, d.vertices, d.loops, heads)
    x0 = min(xs)
    p, q = sorted(s for (xi, s) in mid_slots if xi == x0)
    inv = ("x", x0, q) if (p + 1) % 4 == q else ("x", x0, p)
    return out, inv


# -- R4: slide a strand across a vertex ----------------------------------------

def _r4_insert(d: GraphDiagram, corner: Dart, da: Dart, over: bool) -> GraphDiagram:
    kind, vi, j = corner
    if kind != "v" or not 0 <= vi < len(d.vertices):
        raise PatternMismatch("R4 corner must sit at a vertex")
    deg = len(d.vertices[vi])
    orbit = _orbit_of(d, corner)
    if da not in orbit or da == corner:
        raise PatternMismatch("R4 strand dart must share the corner's face")
    a = d.arc_at(da)
    ends = d.arc_endpoints()
    if any(e[:2] == ("v", vi) for e in ends[a]):
        raise PatternMismatch("R4 strand may not end on the slide vertex")
    with_a = d.heads[a] != da
    heads = dict(d.heads)
    crossings = [list(c) for c in d.crossings]
    vertices = [list(v) for v in d.vertices]
    k = deg
    base = d.fresh_arc_id()
    fresh = [base + t for t in range(k)]
    segs = [a] + fresh if with_a else fresh + [a]
    base += k
    first = len(crossings)
    crossings.extend([0, 0, 0, 0] for _ in range(k))
    if with_a:
        _put(crossings, vertices, d.heads[a], segs[-1])
        heads[segs[-1]] = d.heads[a]
    else:
        _put(crossings, vertices, da, segs[0])
        heads[segs[0]] = da

    # the slid strand crosses every vertex edge once, nearest first from
    # da's end; a loop at the vertex is crossed twice
    fan = [(j + t) % deg for t in range(k)]
    pos_of = {i: t for t, i in enumerate(fan)}
    slot_piece: Dict[int, Tuple[int, int]] = {}  # fan slot -> (v-side, outer)
    into: Dict[int, int] = {}  # edge piece -> fan crossing it flows into
    done: set = set()
    for t, i in enumerate(fan):
        if i in done:
            continue
        e = vertices[vi][i]
        twin = next(x for x in ends[e] if x != ("v", vi, i))
        if twin[:2] == ("v", vi) and twin[2] in pos_of:
            i2 = twin[2]
            t2 = pos_of[i2]
            if d.heads[e] != ("v", vi, i):
                tail_slot, tail_t, head_slot, head_t = i, t, i2, t2
            else:
                tail_slot, tail_t, head_slot, head_t = i2, t2, i, t
            mid, vhead = base, base + 1
            base += 2
            slot_piece[tail_slot] = (e, mid)
            slot_piece[head_slot] = (vhead, mid)
            vertices[vi][head_slot] = vhead
            into[e] = first + tail_t
            into[mid] = first + head_t
            heads[vhead] = ("v", vi, head_slot)
            done.update((i, i2))
            continue
        ev = base
        base += 1
        if d.heads[e] == ("v", vi, i):
            # edge flows into the vertex: outer piece keeps the id
            slot_piece[i] = (ev, e)
            vertices[vi][i] = ev
            heads[ev] = ("v", vi, i)
            into[e] = first + t
        else:
            slot_piece[i] = (e, ev)
            _put(crossings, vertices, twin, ev)
            heads[ev] = d.heads[e]
            into[e] = first + t
        done.add(i)

    for t, i in enumerate(fan):
        ev, eo = slot_piece[i]
        edge_in = "S" if into.get(ev) == first + t else "N"
        rays = {"E": segs[t], "W": segs[t + 1], "S": ev, "N": eo}
        strand_in = "E" if with_a else "W"
        under_in = edge_in if over else strand_in
        tup, slot_of = crossing_from_compass(rays, under_in)
        crossings[first + t] = list(tup)
        heads[rays[strand_in]] = ("x", first + t, slot_of[strand_in])
        heads[rays[edge_in]] = ("x", first + t, slot_of[edge_in])
    return GraphDiagram(crossings, vertices, d.loops, heads)


def _r4_fan(d: GraphDiagram, vi: int, j: int, ends: Dict[int, List[Endpoint]]) -> List[int]:
    """Crossings of a strand slid across vertex vi, the fan read from
    slot j; PatternMismatch unless the edges from vi run one by one into
    distinct crossings chained along a strand that passes uniformly over
    or under them.  ``ends`` is ``d.arc_endpoints()``."""
    if not 0 <= vi < len(d.vertices):
        raise PatternMismatch(f"no vertex {vi}")
    deg = len(d.vertices[vi])
    passes: List[Tuple[int, int]] = []  # (crossing, vertex-side slot there)
    for t in range(deg):
        i = (j + t) % deg
        e = d.vertices[vi][i]
        far = next(x for x in ends[e] if x != ("v", vi, i))
        if far[0] != "x":
            raise PatternMismatch(f"vertex slot {i} does not reach a crossing")
        passes.append((far[1], far[2]))
    xs = [x for x, _ in passes]
    if len(set(xs)) != len(xs):
        raise PatternMismatch("fan edges share a crossing; not a slid strand")
    parities = {(st + 1) % 2 for _, st in passes}
    if len(parities) != 1:
        raise PatternMismatch("strand is not uniformly over or under the fan")
    for t in range(len(passes) - 1):
        xt, st = passes[t]
        xn, sn = passes[t + 1]
        here = {d.crossings[xt][(st + 1) % 4], d.crossings[xt][(st + 3) % 4]}
        there = {d.crossings[xn][(sn + 1) % 4], d.crossings[xn][(sn + 3) % 4]}
        if not here & there:
            raise PatternMismatch("fan crossings are not chained along one strand")
    return xs


def _r4_remove(d: GraphDiagram, vi: int, j: int) -> GraphDiagram:
    out = d
    for xt in sorted(_r4_fan(d, vi, j, d.arc_endpoints()), reverse=True):
        out = splice_crossing(out, xt)
    return out


# -- R5: vertex twist ----------------------------------------------------------

def _r5_under_ray(inflows: Dict[str, int], over_first: bool) -> str:
    # the S-N axis twists the slot-(c-1) side; over_first puts it on top
    sn = next(r for r in ("S", "N") if r in inflows)
    we = next(r for r in ("W", "E") if r in inflows)
    return we if over_first else sn


def _r5_insert(d: GraphDiagram, corner: Dart, over_first: bool) -> GraphDiagram:
    kind, vi, c = corner
    if kind != "v" or not 0 <= vi < len(d.vertices):
        raise PatternMismatch("R5 corner must sit at a vertex")
    deg = len(d.vertices[vi])
    if deg < 2:
        raise PatternMismatch("R5 needs vertex valence at least 2")
    i, ip = (c - 1) % deg, c
    e_i = d.vertices[vi][i]
    e_ip = d.vertices[vi][ip]
    heads = dict(d.heads)
    crossings = [list(x) for x in d.crossings]
    vertices = [list(v) for v in d.vertices]
    xi = len(crossings)
    base = d.fresh_arc_id()
    ends = d.arc_endpoints()
    inflows: Dict[str, int] = {}
    vertex_heads: Dict[int, Dart] = {}

    if e_i == e_ip:
        # twisting a loop edge pinches a kink into it; the twist swaps
        # the loop's two ends at the vertex, so the tail piece lands on
        # the slot the head used to occupy
        if d.heads[e_i] == ("v", vi, ip):
            q, p, o = e_i, base, base + 1
            inflows["W"] = q
            inflows["N"] = o
            vertex_heads[p] = ("v", vi, i)
        else:
            p, q, o = e_i, base, base + 1
            inflows["S"] = p
            inflows["E"] = o
            vertex_heads[q] = ("v", vi, ip)
        rays = {"S": p, "W": q, "E": o, "N": o}
    else:
        pieces = []
        for edge, old_slot, new_slot, vray, oray in (
            (e_ip, ip, i, "S", "N"),
            (e_i, i, ip, "W", "E"),
        ):
            if d.heads[edge] == ("v", vi, old_slot):
                vside, outer = base, edge
                base += 1
                inflows[oray] = outer
                vertex_heads[vside] = ("v", vi, new_slot)
            else:
                vside, outer = edge, base
                base += 1
                inflows[vray] = vside
                far = next(x for x in ends[edge] if x != ("v", vi, old_slot))
                _put(crossings, vertices, far, outer)
                heads[outer] = d.heads[edge]
            pieces.append((vray, vside, oray, outer))
        rays = {}
        for vray, vside, oray, outer in pieces:
            rays[vray] = vside
            rays[oray] = outer
        p, q = rays["S"], rays["W"]

    under_in = _r5_under_ray(inflows, over_first)
    tup, slot_of = crossing_from_compass(rays, under_in)
    crossings.append(list(tup))
    vertices[vi][i] = p
    vertices[vi][ip] = q
    for ray, arc in inflows.items():
        heads[arc] = ("x", xi, slot_of[ray])
    heads.update(vertex_heads)
    return GraphDiagram(crossings, vertices, d.loops, heads)


def _r5_remove(d: GraphDiagram, dart: Dart) -> GraphDiagram:
    orbit = _orbit_of(d, dart)
    if len(orbit) != 2:
        raise PatternMismatch(f"face of {dart} is not a bigon")
    kinds = sorted(k for k, _, _ in orbit)
    if kinds != ["v", "x"]:
        raise PatternMismatch("untwisting needs one crossing corner and one vertex corner")
    xi = vi = vc = None
    for k, i, s in orbit:
        if k == "x":
            xi = i
        else:
            vi, vc = i, s
    deg = len(d.vertices[vi])
    i1, i2 = (vc - 1) % deg, vc
    out = splice_crossing(d, xi)
    vertices = [list(v) for v in out.vertices]
    heads = dict(out.heads)
    a1, a2 = vertices[vi][i1], vertices[vi][i2]
    vertices[vi][i1], vertices[vi][i2] = a2, a1
    for arc in {a1, a2}:
        h = heads.get(arc)
        if h == ("v", vi, i1):
            heads[arc] = ("v", vi, i2)
        elif h == ("v", vi, i2):
            heads[arc] = ("v", vi, i1)
    return GraphDiagram(out.crossings, vertices, out.loops, heads)


# -- dispatch, inverses, enumeration, random walks ------------------------------

def apply_move(d: GraphDiagram, s: MoveSite) -> GraphDiagram:
    """Rewrite d at the given site; PatternMismatch if the site does not
    match its local pattern."""
    if s.kind == "R1":
        return _r1_insert(d, *s.params) if s.insert else _r1_remove(d, *s.params)
    if s.kind == "R2":
        return _r2_insert(d, *s.params) if s.insert else _r2_remove(d, *s.params)
    if s.kind == "R3":
        return _r3(d, *s.params)[0]
    if s.kind == "R4":
        return _r4_insert(d, *s.params) if s.insert else _r4_remove(d, *s.params)
    if s.kind == "R5":
        return _r5_insert(d, *s.params) if s.insert else _r5_remove(d, *s.params)
    raise PatternMismatch(f"unknown move kind {s.kind!r}")


def legal_sites(d: GraphDiagram, kinds: Optional[set] = None) -> List[MoveSite]:
    """Deterministic enumeration of applicable sites (insertion sites for
    R2/R4 restricted to darts of a common face)."""
    sites: List[MoveSite] = []

    def want(kind: str) -> bool:
        return kinds is None or kind in kinds

    if want("R1"):
        for a in sorted(d.arc_ids()):
            for var in range(4):
                sites.append(MoveSite("R1", True, (a, var)))
        if d.loops > 0:
            sites.append(MoveSite("R1", True, (None, 0)))
            sites.append(MoveSite("R1", True, (None, 2)))
        for i, c in enumerate(d.crossings):
            if any(c[s] == c[(s + 1) % 4] for s in range(4)):
                sites.append(MoveSite("R1", False, (i,)))
    faces = d.faces()
    for f in faces:
        if len(f) == 2:
            ks = sorted(k for k, _, _ in f)
            if ks == ["x", "x"] and want("R2"):
                try:
                    _bigon_crossings(f)
                except PatternMismatch:
                    pass
                else:
                    sites.append(MoveSite("R2", False, (f[0],)))
            elif ks == ["v", "x"] and want("R5"):
                sites.append(MoveSite("R5", False, (f[0],)))
        if len(f) == 3 and want("R3"):
            try:
                _triangle_crossings(f)
            except PatternMismatch:
                pass
            else:
                sites.append(MoveSite("R3", True, (f[0],)))
        if want("R2"):
            for da in f:
                for db in f:
                    if da != db and d.arc_at(da) != d.arc_at(db):
                        for over in (False, True):
                            sites.append(MoveSite("R2", True, (da, db, over)))
        if want("R4"):
            for corner in f:
                if corner[0] != "v":
                    continue
                for da in f:
                    if da == corner:
                        continue
                    if d.arc_at(da) in d.vertices[corner[1]]:
                        continue  # the strand would end on the slide vertex
                    for over in (False, True):
                        sites.append(MoveSite("R4", True, (corner, da, over)))
    if want("R4"):
        ends = d.arc_endpoints()
        for vi, v in enumerate(d.vertices):
            for j in range(len(v)):
                try:
                    _r4_fan(d, vi, j, ends)
                except PatternMismatch:
                    continue
                sites.append(MoveSite("R4", False, (vi, j)))
    if want("R5"):
        for vi, v in enumerate(d.vertices):
            if len(v) < 2:
                continue
            for c in range(len(v)):
                for over in (False, True):
                    sites.append(MoveSite("R5", True, (("v", vi, c), over)))
    return sites


def random_move_sequence(
    d: GraphDiagram,
    count: int,
    seed: int,
    budget: Optional[int] = None,
    kinds: Optional[set] = None,
) -> Tuple[GraphDiagram, List[MoveSite]]:
    """Apply count random legal moves, biased toward removals once the
    crossing count exceeds the budget.  Deterministic in the seed;
    PatternMismatch for a kind outside R1..R5."""
    unknown = set(kinds or ()) - {"R1", "R2", "R3", "R4", "R5"}
    if unknown:
        raise PatternMismatch(f"unknown move kinds {sorted(unknown)}")
    rng = random.Random(seed)
    if budget is None:
        budget = len(d.crossings) + 4
    applied: List[MoveSite] = []
    for _ in range(count):
        sites = legal_sites(d, kinds)
        if not sites:
            break
        if len(d.crossings) >= budget:
            shrinking = [
                s for s in sites if not s.insert or s.kind == "R3"
            ]
            if shrinking:
                sites = shrinking
        s = rng.choice(sites)
        d = apply_move(d, s)
        applied.append(s)
    return d, applied
