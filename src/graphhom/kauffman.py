"""Vertex replacements and the link family they generate.

A replacement choice routes one pair of edge-ends through each vertex
and leaves the rest as free ends.  Applying a full assignment deletes
every open strand, splices surviving strands straight through the
crossings that lose a passage, and keeps the closed curves.  The family
collects the nonempty results over all assignments with multiplicities.

An assignment's link depends only on which vertices' chosen pairs are
closed: joined through chosen pairs into a cycle of graph edges (arcs
joined through crossings) that reaches no unchosen slot.  ``family``
finds that tuple of closed pairs with a union-find over the edges, and
builds, reduces and keys the link once per distinct tuple.  Assignments
are grouped by the canonical key of their reduced link, each group is
fingerprinted once, and groups with equal fingerprints merge into one
member, whose diagram is its first link in product order.
"""

from __future__ import annotations

import itertools
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

# Most replacement assignments a family enumerates.
FAMILY_ASSIGNMENT_CAP = 10**6

# an arc end is (arc id, endpoint it sits at)
_End = Tuple[int, Tuple[str, int, int]]


def vertex_choices(valence: int) -> List[SlotPair]:
    """All unordered slot pairs a replacement can connect; empty when
    there is nothing to connect through."""
    if valence < 0:
        raise InvalidDiagram(["negative valence"])
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
    source: GraphDiagram
    assignments: int
    members: Tuple[FamilyMember, ...]

    def to_json(self) -> dict:
        return {
            "assignments": self.assignments,
            "members": [m.to_json() for m in self.members],
        }


def _edge_options(g: GraphDiagram, edge: Dict[int, int]) -> List[List[Tuple]]:
    """Per vertex, one ``(pair, joined, loose)`` per replacement choice:
    the slot pair, the two edges it joins (None when there is no pair)
    and the edges at its unchosen slots, where ``edge`` maps each arc to
    its edge."""
    options = []
    for v in g.vertices:
        at = [edge[a] for a in v]
        options.append(
            [
                (pair, pair and (at[pair[0]], at[pair[1]]),
                 [e for s, e in enumerate(at) if s not in (pair or ())])
                for pair in vertex_choices(len(v)) or [None]
            ]
        )
    return options


def family(g: GraphDiagram, cap: int = FAMILY_ASSIGNMENT_CAP) -> LinkFamily:
    """All nonempty links produced by vertex replacements, deduplicated
    by fingerprint in deterministic order.

    Assignments run in ``itertools.product`` order over the vertices'
    choices.  Each one only joins edges through its chosen pairs; its
    link is determined by which vertices' pairs end up closed (on a cycle
    of chosen pairs with no unchosen slot), so ``apply_replacement``,
    ``reduce_diagram`` and ``canonical_key`` run once per distinct tuple
    of closed pairs and later assignments with that tuple only add to its
    group's count."""
    g.validate_strict()
    n = assignment_count(g)
    if n > cap:
        raise CapExceeded(f"{n} replacement assignments exceed the cap of {cap}")
    # an edge is a class of arcs joined through crossings, named by its
    # smallest arc
    edge = g.strand_classes()
    edges = sorted({edge[a] for v in g.vertices for a in v})
    options = _edge_options(g, edge)
    # reduced canonical key -> [first link, its reduction, assignment count]
    groups: Dict[Tuple, List] = {}
    # closed pair per vertex (None where open) -> its group's key, None
    # when the link is empty
    built: Dict[Tuple, Optional[Tuple]] = {}
    for combo in itertools.product(*options):
        label = union_classes(edges, [joined for _, joined, _ in combo if joined])
        open_labels = {label[e] for _, _, loose in combo for e in loose}
        key = tuple(
            pair if joined and label[joined[0]] not in open_labels else None
            for pair, joined, _ in combo
        )
        if key not in built:
            link = apply_replacement(g, {vi: o[0] for vi, o in enumerate(combo)})
            built[key] = None
            if link.crossings or link.loops:
                reduced = reduce_diagram(link)
                built[key] = reduced.canonical_key()
                groups.setdefault(built[key], [link, reduced, 0])
        if built[key] is not None:
            groups[built[key]][2] += 1
    # fingerprint sort key -> [(fingerprint, first link, count)] per group
    merged: Dict[Tuple, List[Tuple[Fingerprint, GraphDiagram, int]]] = {}
    for link, reduced, count in groups.values():
        fp = fingerprint(reduced)
        merged.setdefault(fp.sort_key(), []).append((fp, link, count))
    members = []
    for _, parts in sorted(merged.items()):
        fp, link, _ = parts[0]
        if len(parts) > 1:
            log.warning("fingerprint collision: distinct reduced diagrams share %s", fp)
        members.append(
            FamilyMember(diagram=link, fingerprint=fp, multiplicity=sum(p[2] for p in parts))
        )
    return LinkFamily(source=g, assignments=n, members=tuple(members))
