"""Planar diagrams of links and embedded graphs.

A diagram is a list of crossings (4-tuples of arc ids, counterclockwise
from the incoming under-strand), a list of vertices (tuples of arc ids in
counterclockwise cyclic order), a count of crossing-free circles, and an
orientation given by each arc's head endpoint.  Arc ids appear exactly
twice across all slots; 0-crossing circles carry no arcs and live in the
``loops`` counter.

Slot conventions, fixed once and used everywhere downstream:
  - crossing slot 0 = incoming under-strand, slot 2 = outgoing under,
    slots 1 and 3 = the over-strand;
  - a crossing is positive when the over-strand enters at slot 3 and
    negative when it enters at slot 1;
  - faces are orbits of next-slot-after-partner and lie on the right of
    the traversal direction.

Diagrams are treated as immutable; every operation returns a new one.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import InvalidDiagram

Endpoint = Tuple[str, int, int]   # (kind "x"|"v", site index, slot)
Dart = Endpoint

# The violation ``validate`` reports for a rotation system that is not planar.
NOT_PLANAR = "not planar: the face count breaks Euler's formula"


def _json_int(value: object, field: str) -> int:
    """``value`` if it is a JSON integer; ``int`` would take a float, a
    bool or a numeric string too."""
    if type(value) is not int:
        raise InvalidDiagram([f"{field} must be an integer, not {value!r}"])
    return value


def _arc_key(key: object) -> int:
    """An orientation key as an arc id; ``int`` alone would read '03',
    '+3' and ' 3' too, so one document could orient an arc twice."""
    if not (isinstance(key, str) and key.removeprefix("-").isdecimal() and str(int(key)) == key):
        raise InvalidDiagram([f"orientation key {key!r} is not an arc id"])
    return int(key)


def union_classes(elements: Iterable[int], pairs: Iterable[Tuple[int, int]]) -> Dict[int, int]:
    """Join the two elements of every pair; map each element to the
    smallest element of its class, whatever order the pairs come in."""
    # Every element's parent is no larger than itself, so each root is
    # its class minimum and one ascending pass settles every element.
    parent = {a: a for a in sorted(elements)}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru < rv:
            parent[rv] = ru
        elif rv < ru:
            parent[ru] = rv
    for a, p in parent.items():
        parent[a] = parent[p]
    return parent


class GraphDiagram:
    __slots__ = ("crossings", "vertices", "loops", "heads", "_ends")

    def __init__(
        self,
        crossings: Sequence[Sequence[int]],
        vertices: Sequence[Sequence[int]] = (),
        loops: int = 0,
        heads: Optional[Dict[int, Endpoint]] = None,
    ):
        self.crossings: Tuple[Tuple[int, int, int, int], ...] = tuple(
            tuple(c) for c in crossings
        )
        self.vertices: Tuple[Tuple[int, ...], ...] = tuple(tuple(v) for v in vertices)
        self.loops = loops
        self.heads: Dict[int, Endpoint] = dict(heads) if heads else {}
        self._ends: Optional[Dict[int, List[Endpoint]]] = None

    # -- basic queries -------------------------------------------------------

    def is_link(self) -> bool:
        return not self.vertices

    def endpoints(self) -> Iterator[Tuple[int, Endpoint]]:
        for i, c in enumerate(self.crossings):
            for s, a in enumerate(c):
                yield a, ("x", i, s)
        for i, v in enumerate(self.vertices):
            for s, a in enumerate(v):
                yield a, ("v", i, s)

    def arc_ids(self) -> List[int]:
        seen = set()
        for a, _ in self.endpoints():
            seen.add(a)
        return sorted(seen)

    def fresh_arc_id(self) -> int:
        ids = self.arc_ids()
        return (max(ids) + 1) if ids else 0

    def arc_at(self, e: Endpoint) -> int:
        kind, i, s = e
        return self.crossings[i][s] if kind == "x" else self.vertices[i][s]

    def site_degree(self, kind: str, i: int) -> int:
        return 4 if kind == "x" else len(self.vertices[i])

    def arc_endpoints(self) -> Dict[int, List[Endpoint]]:
        """Arc -> the endpoints it occupies, in scan order.  The table is
        built on the first call and shared by every later one, so callers
        must read it and never change it."""
        if self._ends is None:
            out: Dict[int, List[Endpoint]] = {}
            for a, e in self.endpoints():
                out.setdefault(a, []).append(e)
            self._ends = out
        return self._ends

    def crossing_sign(self, i: int) -> int:
        c = self.crossings[i]
        if self.heads.get(c[3]) == ("x", i, 3):
            return 1
        if self.heads.get(c[1]) == ("x", i, 1):
            return -1
        raise InvalidDiagram([f"crossing {i} has no over-strand inflow"])

    def writhe(self) -> int:
        return sum(self.crossing_sign(i) for i in range(len(self.crossings)))

    def positive_negative(self) -> Tuple[int, int]:
        signs = [self.crossing_sign(i) for i in range(len(self.crossings))]
        return signs.count(1), signs.count(-1)

    # -- validation ----------------------------------------------------------

    def validate(self) -> List[str]:
        """Report every violated invariant; empty list iff well-formed."""
        bad: List[str] = []
        if self.loops < 0:
            bad.append("negative loop count")
        for i, c in enumerate(self.crossings):
            if len(c) != 4:
                bad.append(f"crossing {i} has {len(c)} slots")
        for i, v in enumerate(self.vertices):
            if len(v) < 1:
                bad.append(f"vertex {i} has no slots")
        ends = self.arc_endpoints()
        for a, es in sorted(ends.items()):
            if len(es) != 2:
                bad.append(f"arc multiplicity: arc {a} appears {len(es)} times")
        if set(self.heads) != set(ends):
            extra = sorted(set(self.heads) - set(ends))
            missing = sorted(set(ends) - set(self.heads))
            if extra:
                bad.append(f"orientation given for unknown arcs {extra}")
            if missing:
                bad.append(f"missing orientation for arcs {missing}")
        for a, e in self.heads.items():
            if a in ends and len(ends[a]) == 2 and e not in ends[a]:
                bad.append(f"head of arc {a} is not one of its endpoints")
        if bad:
            return bad
        for i, c in enumerate(self.crossings):
            if self.heads.get(c[0]) != ("x", i, 0):
                bad.append(f"crossing {i}: slot 0 is not an under-strand inflow")
            if self.heads.get(c[2]) == ("x", i, 2):
                bad.append(f"crossing {i}: slot 2 is not an under-strand outflow")
            over_in = sum(
                1 for s in (1, 3) if self.heads.get(c[s]) == ("x", i, s)
            )
            if over_in != 1:
                bad.append(f"crossing {i}: over-strand has {over_in} inflows")
        if not bad and not self.euler_ok():
            bad.append(NOT_PLANAR)
        return bad

    def validate_strict(self) -> "GraphDiagram":
        bad = self.validate()
        if bad:
            raise InvalidDiagram(bad)
        return self

    # -- components and faces --------------------------------------------------

    def strand_classes(self) -> Dict[int, int]:
        """Union arcs connected through crossings (not vertices)."""
        pairs = [(c[0], c[2]) for c in self.crossings] + [(c[1], c[3]) for c in self.crossings]
        return union_classes(self.arc_ids(), pairs)

    def split_components(self) -> Tuple[int, Dict[int, int]]:
        """Closed-curve count and an arc -> component label map (links only)."""
        if not self.is_link():
            raise InvalidDiagram(["split_components expects a link diagram"])
        classes = self.strand_classes()
        labels: Dict[int, int] = {}
        order: Dict[int, int] = {}
        for a in sorted(classes):
            root = classes[a]
            if root not in order:
                order[root] = len(order)
            labels[a] = order[root]
        return len(order) + self.loops, labels

    def sigma(self, d: Dart) -> Dart:
        kind, i, s = d
        return (kind, i, (s + 1) % self.site_degree(kind, i))

    def faces(self) -> List[Tuple[Dart, ...]]:
        """Orbits of sigma∘partner; each face lies right of its traversal."""
        ends = self.arc_endpoints()

        def alpha(d: Dart) -> Dart:
            a = self.arc_at(d)
            e1, e2 = ends[a]
            return e2 if d == e1 else e1

        todo = {e for _, e in self.endpoints()}
        out: List[Tuple[Dart, ...]] = []
        while todo:
            start = min(todo)
            orbit = [start]
            todo.discard(start)
            d = self.sigma(alpha(start))
            while d != start:
                orbit.append(d)
                todo.discard(d)
                d = self.sigma(alpha(d))
            out.append(tuple(orbit))
        return out

    def euler_ok(self) -> bool:
        """Planarity of the rotation system: F = E - V + 2C, each of the C
        connected pieces a sphere of its own (faces are counted per piece),
        loops excluded on both sides."""
        sites = len(self.crossings) + len(self.vertices)
        if sites == 0:
            return True
        narcs = len(self.arc_ids())
        comps = len(self.site_components())
        return len(self.faces()) == narcs - sites + 2 * comps

    def site_components(self) -> List[List[Tuple[str, int]]]:
        """Sites of each connected piece, pieces in order of their smallest
        site with crossings before vertices; crossing-free loops have none."""
        ends = self.arc_endpoints()
        seen: set = set()
        pieces: List[List[Tuple[str, int]]] = []
        all_sites = [("x", i) for i in range(len(self.crossings))] + [
            ("v", i) for i in range(len(self.vertices))
        ]
        for site in all_sites:
            if site in seen:
                continue
            seen.add(site)
            piece = [site]
            for kind, i in piece:  # grows while it is walked
                row = self.crossings[i] if kind == "x" else self.vertices[i]
                for a in row:
                    for k2, i2, _ in ends[a]:
                        if (k2, i2) not in seen:
                            seen.add((k2, i2))
                            piece.append((k2, i2))
            pieces.append(piece)
        return pieces

    # -- symmetries ------------------------------------------------------------

    def _rotate_crossings(self, rot: Dict[int, int]) -> "GraphDiagram":
        """Cyclically rotate crossing tuples; rot maps crossing index to the
        old slot that becomes slot 0.  Heads are remapped to follow."""
        crossings = []
        for i, c in enumerate(self.crossings):
            r = rot.get(i, 0)
            crossings.append(tuple(c[(r + k) % 4] for k in range(4)))
        heads = {}
        for a, (kind, i, s) in self.heads.items():
            if kind == "x" and i in rot:
                heads[a] = ("x", i, (s - rot[i]) % 4)
            else:
                heads[a] = (kind, i, s)
        return GraphDiagram(crossings, self.vertices, self.loops, heads)

    def mirror(self) -> "GraphDiagram":
        """Swap every crossing's over/under strand (links only)."""
        if not self.is_link():
            raise InvalidDiagram(["mirror is defined for link diagrams"])
        rot = {}
        for i, c in enumerate(self.crossings):
            rot[i] = 3 if self.heads.get(c[3]) == ("x", i, 3) else 1
        return self._rotate_crossings(rot)

    def reverse(self) -> "GraphDiagram":
        """Reverse the orientation of every component."""
        ends = self.arc_endpoints()
        flipped = GraphDiagram(
            self.crossings,
            self.vertices,
            self.loops,
            {a: (ends[a][0] if self.heads[a] == ends[a][1] else ends[a][1]) for a in self.heads},
        )
        return flipped._rotate_crossings({i: 2 for i in range(len(self.crossings))})

    def relabeled(self, offset: int) -> "GraphDiagram":
        return GraphDiagram(
            [tuple(a + offset for a in c) for c in self.crossings],
            [tuple(a + offset for a in v) for v in self.vertices],
            self.loops,
            {a + offset: e for a, e in self.heads.items()},
        )

    # -- serialization -----------------------------------------------------------

    def _scan_first(self) -> Dict[int, Endpoint]:
        first: Dict[int, Endpoint] = {}
        for a, e in self.endpoints():
            if a not in first:
                first[a] = e
        return first

    def to_json(self) -> Dict:
        first = self._scan_first()
        orientations = {
            str(a): (-1 if self.heads[a] == first[a] else 1) for a in sorted(self.heads)
        }
        return {
            "crossings": [list(c) for c in self.crossings],
            "vertices": [list(v) for v in self.vertices],
            "loops": self.loops,
            "orientations": orientations,
        }

    @classmethod
    def from_json(cls, data: Dict) -> "GraphDiagram":
        if not isinstance(data, dict):
            raise InvalidDiagram([f"diagram JSON must be an object, not {type(data).__name__}"])
        try:
            crossings = [tuple(_json_int(a, "crossing arc id") for a in c) for c in data.get("crossings", [])]
            vertices = [tuple(_json_int(a, "vertex arc id") for a in v) for v in data.get("vertices", [])]
            loops = _json_int(data.get("loops", 0), "loops")
            orientations = {
                _arc_key(a): _json_int(s, f"orientation of arc {a}")
                for a, s in (data.get("orientations") or {}).items()
            }
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidDiagram([f"malformed diagram JSON: {exc}"])
        bad = [f"orientation of arc {a} must be 1 or -1" for a, s in orientations.items() if s not in (1, -1)]
        if bad:
            raise InvalidDiagram(bad)
        return cls.from_pd(crossings, vertices, loops, orientations)

    @classmethod
    def from_pd(
        cls,
        crossings: Sequence[Sequence[int]],
        vertices: Sequence[Sequence[int]] = (),
        loops: int = 0,
        orientations: Optional[Dict[int, int]] = None,
    ) -> "GraphDiagram":
        """Build a diagram from PD data, solving for arc orientations.

        Under-strand slots pin their arcs; over-strand constraints
        propagate; arcs left free (through-over strands, vertex-to-vertex
        edges) default to head-at-second-occurrence, matching the +1
        serialization convention.  Explicit orientations, when given, are
        ±1 relative to each arc's first scan occurrence and override the
        defaults but must satisfy the crossing constraints.
        """
        bad = [f"crossing {i} has {len(c)} slots" for i, c in enumerate(crossings) if len(c) != 4]
        if bad:
            raise InvalidDiagram(bad)
        shell = cls(crossings, vertices, loops, heads=None)
        ends = shell.arc_endpoints()
        for a, es in sorted(ends.items()):
            if len(es) != 2:
                raise InvalidDiagram([f"arc multiplicity: arc {a} appears {len(es)} times"])
        first = shell._scan_first()

        heads: Dict[int, Endpoint] = {}

        def other(a: int, e: Endpoint) -> Endpoint:
            e1, e2 = ends[a]
            return e2 if e == e1 else e1

        def assign(a: int, head: Endpoint, why: str) -> None:
            if a in heads:
                if heads[a] != head:
                    raise InvalidDiagram([f"inconsistent orientation at arc {a} ({why})"])
                return
            heads[a] = head
            queue.append(a)

        # unit constraints from under-strands
        queue: List[int] = []
        for i, c in enumerate(shell.crossings):
            assign(c[0], ("x", i, 0), "under inflow")
            assign(c[2], other(c[2], ("x", i, 2)), "under outflow")

        # over-strand through-flow: inflow at slot 1 xor inflow at slot 3
        over_links: Dict[int, List[Tuple[int, int]]] = {}
        for i, c in enumerate(shell.crossings):
            if c[1] != c[3]:
                over_links.setdefault(c[1], []).append((i, 1))
                over_links.setdefault(c[3], []).append((i, 3))
        while queue:
            a = queue.pop()
            for i, s in over_links.get(a, []):
                c = shell.crossings[i]
                mate_slot = 4 - s
                mate = c[mate_slot]
                if heads[a] == ("x", i, s):
                    # a flows in here, so the mate flows out: its head is
                    # its far endpoint
                    assign(mate, other(mate, ("x", i, mate_slot)), "over through")
                elif other(a, heads[a]) == ("x", i, s):
                    assign(mate, ("x", i, mate_slot), "over through")

        for a in sorted(ends):
            if a not in heads:
                e1, e2 = ends[a]
                heads[a] = e2 if first[a] == e1 else e1

        built = cls(crossings, vertices, loops, heads)
        if orientations:
            flipped = built
            flips = []
            for a, sign in sorted(orientations.items()):
                if a not in ends:
                    raise InvalidDiagram([f"orientation given for unknown arc {a}"])
                want = other(a, first[a]) if sign > 0 else first[a]
                if built.heads[a] != want:
                    flips.append((a, want))
            if flips:
                heads2 = dict(built.heads)
                for a, want in flips:
                    heads2[a] = want
                flipped = cls(crossings, vertices, loops, heads2)
                # planarity does not depend on orientation
                bad = [v for v in flipped.validate() if v != NOT_PLANAR]
                if bad:
                    raise InvalidDiagram(["requested orientations are inconsistent"] + bad)
            return flipped
        return built

    # -- canonical form -----------------------------------------------------------

    def exact_form(self) -> Tuple:
        """Equal for equal diagrams, arc and site labels included."""
        return (self.crossings, self.vertices, self.loops, tuple(sorted(self.heads.items())))

    def canonical_key(self) -> Tuple:
        """Label-independent form: minimal BFS serialization per connected
        component, components sorted.  Preserves chirality (rotations are
        never reflected) and orientation."""
        ends = self.arc_endpoints()
        comp_keys = []
        for comp in self.site_components():
            starts = []
            for kind, i in comp:
                deg = self.site_degree(kind, i)
                for s in range(deg) if kind == "v" else (0,):
                    starts.append((kind, i, s))
            comp_keys.append(min(self._bfs_key(st, ends) for st in starts))
        return (self.loops, tuple(sorted(comp_keys)))

    def _bfs_key(self, start: Dart, ends: Dict[int, List[Endpoint]]) -> Tuple:
        kind0, i0, s0 = start
        order: Dict[Tuple[str, int], int] = {}
        entry: Dict[Tuple[str, int], int] = {}
        queue = [(kind0, i0)]
        entry[(kind0, i0)] = s0
        order[(kind0, i0)] = 0
        qi = 0
        arc_label: Dict[int, int] = {}
        emitted: List[Tuple] = []
        first_end_is_head: List[int] = []
        while qi < len(queue):
            kind, i = queue[qi]
            qi += 1
            deg = self.site_degree(kind, i)
            row = self.crossings[i] if kind == "x" else self.vertices[i]
            base = 0 if kind == "x" else entry[(kind, i)]
            rel = []
            for k in range(deg):
                s = (base + k) % deg
                a = row[s]
                if a not in arc_label:
                    arc_label[a] = len(arc_label)
                    first_end_is_head.append(1 if self.heads.get(a) == (kind, i, s) else 0)
                rel.append(arc_label[a])
                e1, e2 = ends[a]
                nxt = e2 if (kind, i, s) == e1 else e1
                nk, ni, ns = nxt
                if (nk, ni) not in order:
                    order[(nk, ni)] = len(queue)
                    entry[(nk, ni)] = ns
                    queue.append((nk, ni))
            emitted.append((kind, tuple(rel)))
        return (tuple(emitted), tuple(first_end_is_head))

    def __repr__(self) -> str:
        return (
            f"GraphDiagram(crossings={len(self.crossings)}, "
            f"vertices={len(self.vertices)}, loops={self.loops})"
        )


def disjoint_union(a: GraphDiagram, b: GraphDiagram) -> GraphDiagram:
    off = a.fresh_arc_id()
    b2 = b.relabeled(off)
    heads = dict(a.heads)
    nx, nv = len(a.crossings), len(a.vertices)
    for arc, (kind, i, s) in b2.heads.items():
        heads[arc] = (kind, i + (nx if kind == "x" else nv), s)
    return GraphDiagram(
        a.crossings + b2.crossings,
        a.vertices + b2.vertices,
        a.loops + b.loops,
        heads,
    )


def _put(crossings: List[List[int]], vertices: List[List[int]], e: Endpoint, arc: int) -> None:
    kind, i, s = e
    (crossings if kind == "x" else vertices)[i][s] = arc


def connected_sum(
    a: GraphDiagram,
    b: GraphDiagram,
    arc_a: Optional[int] = None,
    arc_b: Optional[int] = None,
) -> GraphDiagram:
    """Splice one strand of a into one strand of b, respecting flow.

    A 0-crossing circle side has no arc to cut, so summing with it just
    absorbs one loop.
    """
    if not a.arc_ids():
        if a.loops < 1:
            raise InvalidDiagram(["connected sum with an empty diagram"])
        out = disjoint_union(a, b)
        return GraphDiagram(out.crossings, out.vertices, out.loops - 1, out.heads)
    if not b.arc_ids():
        return connected_sum(b, a, arc_b, arc_a)
    off = a.fresh_arc_id()
    d = disjoint_union(a, b)
    x = max(a.arc_ids()) if arc_a is None else arc_a
    y = (max(b.arc_ids()) if arc_b is None else arc_b) + off
    ex, ey = d.heads[x], d.heads[y]
    crossings = [list(c) for c in d.crossings]
    vertices = [list(v) for v in d.vertices]
    _put(crossings, vertices, ey, x)
    _put(crossings, vertices, ex, y)
    heads = dict(d.heads)
    heads[x] = ey
    heads[y] = ex
    return GraphDiagram(crossings, vertices, d.loops, heads)


def splice_crossing(d: GraphDiagram, i: int) -> GraphDiagram:
    """Delete crossing i, reconnecting both strands straight through.

    Not an isotopy on its own; legal rewrites (R2 removal, surviving
    strands of a vertex replacement) are built from it.  A strand whose
    arcs all terminate at this crossing closes into a crossing-free
    circle.
    """
    return _splice_pairs(d, i, ((0, 2), (1, 3)))


def _splice_pairs(
    d: GraphDiagram, i: int, slot_pairs: Tuple[Tuple[int, int], Tuple[int, int]]
) -> GraphDiagram:
    """Delete crossing i, joining its arcs as directed by slot_pairs.

    ((0, 2), (1, 3)) passes both strands straight through; the oriented
    smoothings pair an inflow with an outflow instead.
    """
    c = d.crossings[i]
    ends = d.arc_endpoints()
    pairs = [(c[su], c[sv]) for su, sv in slot_pairs]
    label = union_classes(set(c), pairs)
    groups: Dict[int, List[int]] = {}
    for a, rep in label.items():
        groups.setdefault(rep, []).append(a)
    # a pair whose arcs are already joined closes a crossing-free circle
    closed = len(pairs) - (len(label) - len(groups))

    def shift(e: Endpoint) -> Endpoint:
        kind, j, s = e
        return ("x", j - 1, s) if kind == "x" and j > i else e

    crossings = [list(x) for j, x in enumerate(d.crossings) if j != i]
    vertices = [list(v) for v in d.vertices]
    heads = {
        a: shift(e) for a, e in d.heads.items() if a not in label
    }
    for rep, members in groups.items():
        far = [
            (m, e) for m in members for e in ends[m] if e[:2] != ("x", i)
        ]
        if not far:
            continue  # closed circle, already counted
        inflow = [e for m, e in far if d.heads[m] == e]
        if len(inflow) != 1:
            raise InvalidDiagram([f"inconsistent flow while splicing crossing {i}"])
        for _, e in far:
            kind, j, s = shift(e)
            (crossings if kind == "x" else vertices)[j][s] = rep
        heads[rep] = shift(inflow[0])
    return GraphDiagram(crossings, vertices, d.loops + closed, heads)
