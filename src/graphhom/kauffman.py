"""Vertex replacements and the link family they generate.

A replacement choice routes one pair of edge-ends through each vertex
and leaves the rest as free ends.  Applying a full assignment deletes
every open strand, splices surviving strands straight through the
crossings that lose a passage, and keeps the closed curves.  The family
collects the nonempty results over all assignments with multiplicities.

An assignment's link depends only on its closed pairs: the chosen pairs
that lie on a cycle of graph edges (arcs joined through crossings)
passing each of its vertices through the chosen pair.  They form a
vertex-disjoint system of such cycles.  ``family`` enumerates the
cycles and their disjoint systems, counts each system's assignments by
inclusion-exclusion, and builds one link per system, from the system's
first assignment in product order.  Systems often build the same link,
so each distinct nonempty link is reduced and keyed once.  Assignments
are grouped by the canonical key of their reduced link, each group is
fingerprinted once, and groups with equal fingerprints merge into one
member: its first link in product order and that link's reduction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import comb, prod
from typing import Dict, List, Optional, Tuple

from .diagrams import GraphDiagram, union_classes
from .errors import CapExceeded, InvalidDiagram
from .invariants import Fingerprint, fingerprint, reduce_diagram

log = logging.getLogger(__name__)

SlotPair = Tuple[int, int]
ReplacementChoice = Dict[int, Optional[SlotPair]]

# Most replacement assignments a family may count.  Assignments are
# counted per closed-cycle system, not visited, so this bounds the
# reported count rather than the enumeration work.
FAMILY_ASSIGNMENT_CAP = 10**6

# an arc end is (arc id, endpoint it sits at)
_End = Tuple[int, Tuple[str, int, int]]


def vertex_choices(valence: int) -> List[SlotPair]:
    """All unordered slot pairs a replacement can connect; empty when
    there is nothing to connect through."""
    return [(i, j) for i in range(valence) for j in range(i + 1, valence)]


def assignment_count(g: GraphDiagram) -> int:
    return prod(max(comb(len(v), 2), 1) for v in g.vertices)


def _check_choice(g: GraphDiagram, choice: ReplacementChoice) -> None:
    if set(choice) != set(range(len(g.vertices))):
        raise InvalidDiagram(["replacement choice does not cover the vertex set"])
    for vi, pair in choice.items():
        deg = len(g.vertices[vi])
        if deg <= 1:
            if pair is not None:
                raise InvalidDiagram([f"vertex {vi} has valence {deg}; nothing to connect"])
            continue
        if pair is None:
            raise InvalidDiagram([f"vertex {vi} needs a connected pair"])
        a, b = pair
        if not (0 <= a < deg and 0 <= b < deg and a != b):
            raise InvalidDiagram([f"slot pair {pair} invalid at vertex {vi}"])


def apply_replacement(g: GraphDiagram, choice: ReplacementChoice) -> GraphDiagram:
    """Route each vertex through its chosen pair, delete open strands,
    and return the remaining link diagram (possibly empty)."""
    _check_choice(g, choice)
    ends = g.arc_endpoints()

    def end_at(e: Tuple[str, int, int]) -> _End:
        kind, i, s = e
        arc = (g.crossings if kind == "x" else g.vertices)[i][s]
        return (arc, e)

    def other_end(end: _End) -> _End:
        arc, e = end
        e1, e2 = ends[arc]
        return (arc, e2 if e == e1 else e1)

    # strands: arcs joined through crossing passages and chosen pairs
    pairs = [(c[0], c[2]) for c in g.crossings] + [(c[1], c[3]) for c in g.crossings]
    for vi, pair in choice.items():
        if pair is not None:
            pairs.append((g.vertices[vi][pair[0]], g.vertices[vi][pair[1]]))
    strand = union_classes(ends, pairs)

    open_roots = set()
    for vi, v in enumerate(g.vertices):
        pair = choice[vi] or ()
        for s, arc in enumerate(v):
            if s not in pair:
                open_roots.add(strand[arc])

    def closed(arc: int) -> bool:
        return strand[arc] not in open_roots

    junction: Dict[_End, _End] = {}

    def join(e1: Tuple[str, int, int], e2: Tuple[str, int, int]) -> None:
        a, b = end_at(e1), end_at(e2)
        junction[a] = b
        junction[b] = a

    kept: List[int] = []
    for i, c in enumerate(g.crossings):
        under_closed, over_closed = closed(c[0]), closed(c[1])
        if under_closed and over_closed:
            kept.append(i)
        elif under_closed:
            join(("x", i, 0), ("x", i, 2))
        elif over_closed:
            join(("x", i, 1), ("x", i, 3))
    for vi, pair in choice.items():
        if pair is not None and closed(g.vertices[vi][pair[0]]):
            join(("v", vi, pair[0]), ("v", vi, pair[1]))

    new_index = {ki: n for n, ki in enumerate(kept)}
    crossings: List[List[int]] = [[-1] * 4 for _ in kept]
    heads: Dict[int, Tuple[str, int, int]] = {}
    consumed: set = set()
    seen_arcs: set = set()
    seg = 0

    def walk_segment(dep: _End) -> Tuple[List[int], _End]:
        chain = [dep[0]]
        cur = dep
        while True:
            far = other_end(cur)
            if far not in junction:
                return chain, far
            cur = junction[far]
            chain.append(cur[0])

    for ki in kept:
        for s in range(4):
            start = end_at(("x", ki, s))
            if start in consumed:
                continue
            dep = start
            while True:
                chain, arr = walk_segment(dep)
                consumed.add(dep)
                consumed.add(arr)
                seen_arcs.update(chain)
                _, (_, a_ki, a_slot) = arr
                _, (_, d_ki, d_slot) = dep
                crossings[new_index[d_ki]][d_slot] = seg
                crossings[new_index[a_ki]][a_slot] = seg
                heads[seg] = ("x", new_index[a_ki], a_slot)
                seg += 1
                dep = end_at(("x", a_ki, (a_slot + 2) % 4))
                if dep == start:
                    break

    loops = g.loops
    for arc in sorted(ends):
        if arc in seen_arcs or not closed(arc):
            continue
        start = (arc, ends[arc][0])
        cur = start
        while True:
            seen_arcs.add(cur[0])
            cur = junction[other_end(cur)]
            if cur == start:
                break
        loops += 1

    # reorient crossings whose under-strand was walked backward
    for n, c in enumerate(crossings):
        if heads[c[2]] == ("x", n, 2):
            crossings[n] = [c[2], c[3], c[0], c[1]]
            for a in set(c):
                k, i, s = heads[a]
                if (k, i) == ("x", n):
                    heads[a] = ("x", n, (s + 2) % 4)
    return GraphDiagram(crossings, [], loops, heads)


@dataclass(frozen=True)
class FamilyMember:
    diagram: GraphDiagram
    reduced: GraphDiagram  # what every per-link computation takes; not in to_json
    fingerprint: Fingerprint
    multiplicity: int

    def to_json(self) -> dict:
        return {
            "fingerprint": self.fingerprint.to_json(),
            "diagram": self.diagram.to_json(),
            "multiplicity": self.multiplicity,
        }


@dataclass(frozen=True)
class LinkFamily:
    assignments: int
    members: Tuple[FamilyMember, ...]

    def to_json(self) -> dict:
        return {
            "assignments": self.assignments,
            "members": [m.to_json() for m in self.members],
        }


# A cycle of graph edges: the bitmask of its vertices of valence 3 or
# more, and the slot pair it passes each of its vertices through.
_Cycle = Tuple[int, Dict[int, SlotPair]]


def _cycles(g: GraphDiagram) -> Tuple[List[List[_Cycle]], Dict[int, SlotPair]]:
    """Every cycle of graph edges through a vertex of valence 3 or more,
    listed under its lowest such vertex, and the pairs of the cycles
    through valence-2 vertices only, which every assignment closes.

    An edge is a class of arcs joined through crossings and runs between
    two vertex slots.  A valence-2 vertex has one choice, so a run of
    edges through such vertices acts as one edge.  The walk leaves the
    lowest vertex through the first slot of its pair and visits only
    higher ones, so each cycle is found once."""
    edge = g.strand_classes()
    ends: Dict[int, List[Tuple[int, int]]] = {}
    for vi, v in enumerate(g.vertices):
        for s, arc in enumerate(v):
            ends.setdefault(edge[arc], []).append((vi, s))
    # (vertex, slot) -> (vertex, slot) at the other end of its edge
    far = {}
    for a, b in ends.values():
        far[a], far[b] = b, a
    # (vertex, slot) off valence 2 -> the next such (vertex, slot) along
    # its run of edges, and the valence-2 vertices passed on the way
    hop = {}
    for end in far:
        if len(g.vertices[end[0]]) != 2:
            passed = []
            w, t = far[end]
            while len(g.vertices[w]) == 2:
                passed.append(w)
                w, t = far[(w, 1 - t)]
            hop[end] = ((w, t), passed)
    forced: Dict[int, SlotPair] = {}
    on_runs = {w for _, passed in hop.values() for w in passed}
    for vi, v in enumerate(g.vertices):
        if len(v) == 2 and vi not in on_runs and vi not in forced:
            w, t = far[(vi, 0)]
            forced[w] = (0, 1)
            while w != vi:
                w, t = far[(w, 1 - t)]
                forced[w] = (0, 1)
    cycles: List[List[_Cycle]] = [[] for _ in g.vertices]

    def walk(low: int, last: int, end: Tuple[int, int], mask: int, pairs: Dict) -> None:
        (w, t), passed = hop[end]
        pairs = {**pairs, **dict.fromkeys(passed, (0, 1))}
        if w == low:
            if t == last:
                cycles[low].append((mask, pairs))
        elif w > low and len(g.vertices[w]) > 2 and not mask >> w & 1:
            for u in range(len(g.vertices[w])):
                if u != t:
                    walk(low, last, (w, u), mask | 1 << w, {**pairs, w: (min(t, u), max(t, u))})

    for vi, v in enumerate(g.vertices):
        if len(v) > 2:
            for i, j in vertex_choices(len(v)):
                walk(vi, j, (vi, i), 1 << vi, {vi: (i, j)})
    return cycles, forced


def closed_pair_tuples(g: GraphDiagram) -> List[Tuple[Tuple, Tuple, int]]:
    """``(closed pairs, first assignment, count)`` for every tuple of
    closed pairs (None where a vertex's pair is open) that an assignment
    of ``g`` produces, in the ``itertools.product`` order of the first
    assignments.

    An assignment's closed pairs form a vertex-disjoint system S of
    cycles of graph edges, and its other choices close no cycle among
    the vertices W off S.  Those choices number A(W), where by
    inclusion-exclusion over the disjoint systems T of cycles inside W,
    A(W) = sum of (-1)^|T| times the product of c_w over w in W off T,
    c_w being the number of choices at w.

    The first assignment walks W in order, giving each vertex its first
    choice that closes no cycle whose other vertices are fixed: those on
    S, those of valence 2, and those walked so far.  At valence k >= 3 a
    choice closes one only if paths through fixed pairs join its slots;
    such slot pairs are disjoint, so at most floor(k/2) of the C(k, 2)
    choices do.  So each walked prefix extends, and A(W) is never 0."""
    options = [vertex_choices(len(v)) or [None] for v in g.vertices]
    cycles, forced = _cycles(g)
    # vertices with more than one choice
    full = sum(1 << v for v, choices in enumerate(options) if len(choices) > 1)
    free_memo = {0: 1}

    def free(mask: int) -> int:
        """A(mask): choices at the vertices in ``mask`` that close no
        cycle among them."""
        if mask not in free_memo:
            v = (mask & -mask).bit_length() - 1
            total = len(options[v]) * free(mask & ~(1 << v))
            for cycle, _ in cycles[v]:
                if cycle & mask == cycle:
                    total -= free(mask & ~cycle)
            free_memo[mask] = total
        return free_memo[mask]

    flat = [c for per in cycles for c in per]
    passing = [[c for c in flat if c[0] >> v & 1] for v in range(len(options))]
    found = []

    def add(mask: int, pairs: Dict[int, SlotPair]) -> None:
        rest = full & ~mask
        fixed = dict(pairs)
        for v, choices in enumerate(options):
            if rest >> v & 1:
                # pairs at v closing a cycle whose other open vertices lie below v
                shut = {
                    through[v]
                    for cycle, through in passing[v]
                    if (cycle & rest) >> v == 1
                    and all(fixed.get(u, p) == p for u, p in through.items())
                }
                fixed[v] = next(choice for choice in choices if choice not in shut)
        first = tuple(fixed.get(v, choices[0]) for v, choices in enumerate(options))
        found.append((tuple(map(pairs.get, range(len(options)))), first, free(rest)))

    def systems(start: int, mask: int, pairs: Dict[int, SlotPair]) -> None:
        add(mask, pairs)
        for k in range(start, len(flat)):
            cycle, through = flat[k]
            if not cycle & mask:
                systems(k + 1, mask | cycle, {**pairs, **through})

    systems(0, 0, forced)
    # vertex_choices lists pairs in increasing order, so this is product order
    found.sort(key=lambda f: f[1])
    return found


def family(g: GraphDiagram, cap: int = FAMILY_ASSIGNMENT_CAP) -> LinkFamily:
    """All nonempty links produced by vertex replacements, deduplicated
    by fingerprint in deterministic order.

    ``apply_replacement`` runs once per tuple of closed pairs, on its
    first assignment in ``itertools.product`` order over the vertices'
    choices; see ``closed_pair_tuples``.  ``reduce_diagram`` and
    ``canonical_key`` run once per distinct nonempty link so built, and
    the group of its key gains the tuple's assignment count."""
    g.validate_strict()
    n = assignment_count(g)
    if n > cap:
        raise CapExceeded(f"{n} replacement assignments exceed the cap of {cap}")
    # reduced canonical key -> [first link, its reduction, assignment count]
    groups: Dict[Tuple, List] = {}
    # exact form of a built link -> its group
    by_form: Dict[Tuple, List] = {}
    for _, first, count in closed_pair_tuples(g):
        link = apply_replacement(g, dict(enumerate(first)))
        if not (link.crossings or link.loops):
            continue
        form = link.exact_form()
        if form not in by_form:
            reduced = reduce_diagram(link)
            by_form[form] = groups.setdefault(reduced.canonical_key(), [link, reduced, 0])
        by_form[form][2] += count
    # fingerprint sort key -> [(fingerprint, first link, reduction, count)] per group
    merged: Dict[Tuple, List[Tuple[Fingerprint, GraphDiagram, GraphDiagram, int]]] = {}
    for link, reduced, count in groups.values():
        fp = fingerprint(reduced)
        merged.setdefault(fp.sort_key(), []).append((fp, link, reduced, count))
    members = []
    for _, parts in sorted(merged.items()):
        fp, link, reduced, _ = parts[0]
        if len(parts) > 1:
            log.warning("fingerprint collision: distinct reduced diagrams share %s", fp)
        members.append(FamilyMember(link, reduced, fp, sum(p[3] for p in parts)))
    return LinkFamily(assignments=n, members=tuple(members))
