"""Classical link invariants: the Kauffman bracket, the Wirtinger
Alexander polynomial and determinant, and the fingerprints used to
compare links up to the tool's resolving power.

The bracket counts smoothing states by B-smoothings and circles without
visiting them one by one: crossings are added one at a time, and
partial states that leave the open arc ends matched alike are merged,
the planar-algebra contraction of Bar-Natan's local Khovanov algorithm
(arXiv:math/0606318) cut down to the bracket.  Its cost follows the
width of the diagram, the number of arc ends open between the placed
crossings and the rest, rather than the 2^c states.  The tests keep
the per-state sum as its oracle.

The Alexander polynomial of every orientation and the determinant
come from one matrix, the Fox derivatives of the Wirtinger
presentation: Delta(t) from its minor at t = 0 .. c - 1, and the
determinant as |Delta(-1)|, the same minor at t = -1.  The over-arc
classes behind the rows are found once per diagram and serve every
orientation.  ``_det_poly``, the minor's determinant as a polynomial,
also takes the Seifert-matrix determinant behind ``grid.conway``.  The
tests hold the Alexander polynomial against their skein recursion's
Conway polynomial under z = t^(1/2) - t^(-1/2), and the determinant
against the Smith form of the Wirtinger coloring matrix and against
that Conway polynomial at z^2 = -4.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import AbstractSet, Dict, Iterator, List, Optional, Sequence, Tuple

from .diagrams import GraphDiagram, splice_crossing, union_classes
from .errors import CapExceeded, InvalidDiagram, PatternMismatch
from .laurent import Laurent, T, normalize_alexander
from .moves import _bigon_crossings, _r1_remove

A = ("A",)

DELTA = Laurent(A, {(4,): -1, (-4,): -1})  # circle value -A^2 - A^-2

# Most crossings the bracket is computed for.
BRACKET_CROSSING_CAP = 24

# Most components a fingerprint reorients; one more stays pinned, so a
# fingerprint computes at most 2^6 Jones and Alexander pairs.
ORIENTATION_FLIP_CAP = 6


def smoothing_circles(d: GraphDiagram) -> Iterator[Dict[int, int]]:
    """Arc -> circle label (the circle's smallest arc) for each smoothing
    state s = 0 .. 2^c - 1 in turn.  Bit i of s set gives crossing i its
    B-smoothing (slots 0-3 and 1-2), clear its A-smoothing (0-1 and 2-3).
    Crossing-free circles carry no arcs and do not appear."""
    arcs = d.arc_ids()
    for state in range(1 << len(d.crossings)):
        pairs = []
        for i, c in enumerate(d.crossings):
            if state >> i & 1:
                pairs += ((c[0], c[3]), (c[1], c[2]))
            else:
                pairs += ((c[0], c[1]), (c[2], c[3]))
        yield union_classes(arcs, pairs)


def _contraction_order(crossings: Sequence[Tuple[int, ...]]) -> List[int]:
    """Crossings in the order the bracket contraction adds them: next is
    the one with the most slots on arcs that a placed crossing already
    holds, the lowest index on ties, so the open frontier stays narrow."""
    placed: set = set()
    left = list(range(len(crossings)))
    order = []
    while left:
        best = max(left, key=lambda i: (sum(a in placed for a in crossings[i]), -i))
        left.remove(best)
        order.append(best)
        placed.update(crossings[best])
    return order


def _smoothing_counts(d: GraphDiagram) -> Counter:
    """(B-smoothings, circles) -> number of smoothing states, by adding
    the crossings one at a time.

    A partial state joins the arcs met so far into closed circles and
    open paths.  It is kept as the matching of the open paths' end arcs
    (each arc that only one placed crossing holds) with, per (b, closed
    circles), the number of states that reach it; states with equal
    matchings merge.  A crossing's A pairs (slots 0-1, 2-3) or B pairs
    (0-3, 1-2) each join two arcs: an arc paired with itself is a kink
    and closes a circle, two ends of one open path close it, and any
    other pair joins the paths through them (an arc met for the first
    time is a path of its own, both of whose ends it is).  The work
    follows the number of matchings, which the width of the frontier
    bounds, rather than the 2^c states."""
    states: Dict[Tuple, Counter] = {(): Counter({(0, 0): 1})}
    for i in _contraction_order(d.crossings):
        c = d.crossings[i]
        smoothings = (
            (0, ((c[0], c[1]), (c[2], c[3]))),
            (1, ((c[0], c[3]), (c[1], c[2]))),
        )
        nxt: Dict[Tuple, Counter] = {}
        for matching, counts in states.items():
            for b, pairs in smoothings:
                ends = dict(matching)
                closed = 0
                for u, v in pairs:
                    if u == v:
                        closed += 1
                    elif ends.get(u) == v:
                        del ends[u], ends[v]
                        closed += 1
                    else:
                        pu, pv = ends.pop(u, u), ends.pop(v, v)
                        ends[pu], ends[pv] = pv, pu
                into = nxt.setdefault(tuple(sorted(ends.items())), Counter())
                for (b0, k0), n in counts.items():
                    into[b0 + b, k0 + closed] += n
        states = nxt
    return states[()]


def kauffman_bracket(d: GraphDiagram, cap: int = BRACKET_CROSSING_CAP) -> Laurent:
    """Bracket of a link diagram; unoriented, unnormalized, <o> = 1.

    A state with b B-smoothings and k circles contributes
    A^(c - 2b) (-A^2 - A^-2)^(k - 1), so states are counted by (b, k).
    The counts come from ``_smoothing_counts``, whose cost follows the
    width of the diagram rather than the 2^c states.  Each distinct
    circle count's power of the circle value is expanded once, and each
    (b, k) pair adds that table's terms shifted by A^(c - 2b) and scaled
    by its count."""
    if not d.is_link():
        raise InvalidDiagram(["bracket is defined for link diagrams"])
    if not d.crossings and not d.loops:
        raise InvalidDiagram(["bracket is defined for diagrams with at least one component"])
    c = len(d.crossings)
    if c > cap:
        raise CapExceeded(f"bracket state sum over {c} crossings exceeds cap {cap}")
    powers: Dict[int, Dict[Tuple[int, ...], int]] = {}
    terms: Dict[Tuple[int, ...], int] = {}
    for (b, circles), count in _smoothing_counts(d).items():
        k = circles + d.loops - 1
        if k not in powers:
            powers[k] = (DELTA ** k).terms
        shift = 2 * (c - 2 * b)
        for (e,), coeff in powers[k].items():
            key = (e + shift,)
            terms[key] = terms.get(key, 0) + coeff * count
    return Laurent(A, terms)


def _jones_from_bracket(bracket: Laurent, writhe: int) -> Laurent:
    """(-A^3)^(-w) <D> under A = t^(-1/4)."""
    correction = Laurent(A, {(-6 * writhe,): (-1) ** (writhe % 2)})
    terms: Dict[Tuple[int, ...], int] = {}
    for (m,), coeff in (correction * bracket).terms.items():
        k = m // 2  # true A exponent; always even after normalization
        if k % 2:
            raise InvalidDiagram([f"bracket exponent {k} not expressible in t"])
        terms[(-k // 2,)] = terms.get((-k // 2,), 0) + coeff
    return Laurent(T, terms)


def jones(d: GraphDiagram) -> Laurent:
    """(-A^3)^(-w) <D> under A = t^(-1/4); half-integer powers of t occur
    exactly for even component counts."""
    return _jones_from_bracket(kauffman_bracket(d), d.writhe())


# -- greedy reduction ---------------------------------------------------------

def reduce_diagram(d: GraphDiagram) -> GraphDiagram:
    """Remove kink and bigon patterns until none remain.

    A monogon face marks a kink; a bigon face that ``moves`` reads as
    poked marks a second Reidemeister pair.  Both erase by splicing the
    crossings straight through.  Vertices are left untouched.
    """
    while True:
        for face in d.faces():
            if len(face) == 1 and face[0][0] == "x":
                d = _r1_remove(d, face[0][1])
                break
            if len(face) == 2:
                try:
                    i1, i2 = _bigon_crossings(face)
                except PatternMismatch:
                    continue
                d = splice_crossing(splice_crossing(d, max(i1, i2)), min(i1, i2))
                break
        else:
            return d


def _is_split(d: GraphDiagram) -> bool:
    return len(d.site_components()) + d.loops > 1


def _over_arcs(d: GraphDiagram) -> Optional[List[Tuple[int, int, int]]]:
    """Each crossing's (over, under-in, under-out) over-arc classes, arcs
    fused across over-passages, numbered from 0; one list serves every
    orientation.  None when the link is split, as when a component lies
    above the rest: it never passes under, so adds a class and no row."""
    if not d.crossings:
        return [] if d.loops == 1 else None
    if _is_split(d):
        return None
    over = union_classes(d.arc_ids(), [(c[1], c[3]) for c in d.crossings])
    col = {cls: k for k, cls in enumerate(sorted(set(over.values())))}
    if len(col) != len(d.crossings):
        return None
    return [(col[over[c[1]]], col[over[c[0]]], col[over[c[2]]]) for c in d.crossings]


def _bareiss_det(m: List[List[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination;
    the input is overwritten."""
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        rk = m[k]
        pivot = rk[k]
        for i in range(k + 1, n):
            ri = m[i]
            v = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pivot - v * rk[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1] if n else 1


def _interpolate(values: List[int]) -> List[int]:
    """Coefficients, constant first, of the integer polynomial of degree
    below len(values) that takes values[k] at t = k.  Newton's form at the
    nodes 0, 1, ...: the k-th forward difference of an integer polynomial
    at 0 is divisible by k!, so every step stays in the integers."""
    diffs = []
    row = list(values)
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    factorial = 1
    for k in range(1, len(diffs)):
        factorial *= k
        diffs[k] //= factorial
    poly: List[int] = []
    for k in range(len(diffs) - 1, -1, -1):
        # poly <- poly * (t - k) + diffs[k]
        shifted = [0] + poly
        for e, c in enumerate(poly):
            shifted[e] -= k * c
        shifted[0] += diffs[k]
        poly = shifted
    return poly


def _fox_rows(
    d: GraphDiagram,
    arcs: Optional[List[Tuple[int, int, int]]],
    flipped: AbstractSet[int] = frozenset(),
) -> Optional[List[List[List[int]]]]:
    """Fox-derivative rows of the Wirtinger presentation of ``d``, with
    over-arc classes ``arcs`` from ``_over_arcs`` (None when split), and
    with the arcs in ``flipped``, a union of closed components, reversed.
    Row 0 and column 0 are struck; each entry is [constant, t-coefficient].

    Each crossing gives one row over the over-arc classes, with every
    generator sent to t.  Positive crossings take the relation
    x_out = x_over^-1 x_in x_over, whose row is over: t - 1, in: 1,
    out: -t, and negative ones x_out = x_over x_in x_over^-1, whose row is
    over: 1 - t, in: t, out: -1.  Exchanging the two relations at every
    crossing only replaces t by 1/t, which the Alexander normalization
    absorbs; a row that ignored the sign would not.  Reversing components
    leaves the over-arc classes alone: in and out trade places where the
    under-strand is reversed, and the sign flips where exactly one of the
    two strands is, so the rows are those of the reoriented diagram.
    """
    if arcs is None:
        return None
    c = len(arcs)
    rows = []
    for i, (o, a, b) in enumerate(arcs[1:], start=1):
        under, over = d.crossings[i][0] in flipped, d.crossings[i][1] in flipped
        if under:
            a, b = b, a
        row = [[0, 0] for _ in range(c)]
        for k, (c0, c1) in (
            ((o, (-1, 1)), (a, (1, 0)), (b, (0, -1)))
            if (d.crossing_sign(i) > 0) == (under == over)
            else ((o, (1, -1)), (a, (0, 1)), (b, (-1, 0)))
        ):
            row[k][0] += c0
            row[k][1] += c1
        rows.append(row[1:])
    return rows


def _det_poly(rows: List[List[List[int]]]) -> List[int]:
    """Unnormalized coefficients, constant first, of the determinant of
    the rows [c0, c1] = c0 + c1 t, for the Fox minor and ``grid.conway``'s
    Seifert rows alike: its degree is at most the row count r, so it is
    evaluated at t = 0 .. r by Bareiss elimination and interpolated."""
    return _interpolate([
        _bareiss_det([[c0 + c1 * t for c0, c1 in row] for row in rows])
        for t in range(len(rows) + 1)
    ])


def _alexander_from_rows(rows: Optional[List[List[List[int]]]]) -> Laurent:
    """Delta(t) of ``_fox_rows`` output, centered and signed."""
    if rows is None:
        return Laurent.zero(T)
    poly = _det_poly(rows)
    return normalize_alexander(Laurent(T, {(2 * e,): v for e, v in enumerate(poly)}))


def alexander(d: GraphDiagram) -> Laurent:
    """Symmetric-normalized Alexander polynomial from the determinant of
    the Fox minor of ``_fox_rows``, a unit multiple of Delta(t).

    The tests hold it against ``skein_alexander``, their skein
    recursion's Conway polynomial under z = t^(1/2) - t^(-1/2), and each
    flipped orientation that
    ``fingerprint`` takes against ``alexander`` of the diagram rebuilt
    with those components reversed.
    """
    if not d.is_link():
        raise InvalidDiagram(["Alexander polynomial is defined for link diagrams"])
    return _alexander_from_rows(_fox_rows(d, _over_arcs(d)))


def determinant(d: GraphDiagram) -> int:
    """|H1| of the double branched cover: |Delta(-1)|, the absolute
    determinant of the Fox minor of ``_fox_rows`` at t = -1, by one
    Bareiss elimination.

    At t = -1 each Fox row is, up to sign, the Wirtinger coloring row
    2*over - in - out.  The tests hold the result against
    ``reference_determinant``, the Smith form of the coloring minor, and
    against their skein recursion's Conway polynomial at z^2 = -4.
    """
    if not d.is_link():
        raise InvalidDiagram(["determinant is defined for link diagrams"])
    rows = _fox_rows(d, _over_arcs(d))
    if rows is None:
        return 0
    return abs(_bareiss_det([[c0 - c1 for c0, c1 in row] for row in rows]))


# -- fingerprints -------------------------------------------------------------

@dataclass(frozen=True)
class Fingerprint:
    """Comparison currency for links: component count, Jones, Alexander,
    minimized over component orientations so unoriented isotopy classes
    compare stably.  Presentation data (crossing counts, writhe) stays
    out: distinct diagrams of one link must compare equal."""

    components: int
    jones: Laurent
    alexander: Laurent

    def sort_key(self) -> Tuple:
        return (
            self.components,
            self.jones.sort_key(),
            self.alexander.sort_key(),
        )

    def to_json(self) -> Dict:
        return {
            "components": self.components,
            "jones": self.jones.to_json(),
            "alexander": self.alexander.to_json(),
        }


def _mask_writhes(d: GraphDiagram, labels: Dict[int, int], flippable: List[int]) -> List[int]:
    """Writhe of ``d`` with the components of each mask reversed, masks
    0 .. 2^k - 1 over the k components in ``flippable`` (bit i for
    ``flippable[i]``); ``labels`` maps arcs to components.  A crossing's
    sign flips when exactly one of its two strands' components is
    reversed, so no diagram is built."""
    bit = {comp: 1 << k for k, comp in enumerate(flippable)}
    # under bit ^ over bit -> summed sign of those crossings; a mask flips
    # them when it holds exactly one of the two bits
    signs: Dict[int, int] = {}
    for i, c in enumerate(d.crossings):
        pair = bit.get(labels[c[0]], 0) ^ bit.get(labels[c[1]], 0)
        signs[pair] = signs.get(pair, 0) + d.crossing_sign(i)
    return [
        sum(-s if bin(mask & pair).count("1") == 1 else s for pair, s in signs.items())
        for mask in range(1 << len(flippable))
    ]


def fingerprint(reduced: GraphDiagram) -> Fingerprint:
    """Fingerprint of a link, reoriented to minimize the (Jones,
    Alexander) sort keys.  It is an isotopy invariant, so any diagram
    of the link gives the same value, but the bracket's cost and cap
    follow the crossings: callers pass a diagram that ``reduce_diagram``
    has already reduced.  Global reversal fixes both polynomials,
    so one component stays pinned; the result does not depend on how an
    unoriented link happened to be oriented on arrival.

    An orientation is a mask over the other components.  Reversing
    components keeps every smoothing, so one bracket serves all masks and
    only the writhe changes, which ``_mask_writhes`` reads off a table of
    crossing signs without building a diagram.  Jones depends on the mask
    through the writhe alone, and sort keys are injective, so the minimum
    is the least Jones and, among the masks that reach it, the least
    Alexander polynomial.  Only those masks get one, from the Fox rows
    with that mask's arcs flipped, so no reoriented diagram is built;
    and one serves all masks when the diagram has no crossings or is
    split, where Alexander does not depend on orientation."""
    ncomp, labels = reduced.split_components()
    flippable = sorted(set(labels.values()))[1:]
    if len(flippable) > ORIENTATION_FLIP_CAP:
        raise CapExceeded(f"{len(flippable) + 1} components exceed the orientation cap")
    bracket = kauffman_bracket(reduced)
    writhes = _mask_writhes(reduced, labels, flippable)
    jones_at = {w: _jones_from_bracket(bracket, w) for w in set(writhes)}
    j = min(jones_at.values(), key=Laurent.sort_key)
    if not reduced.crossings or _is_split(reduced):
        return Fingerprint(ncomp, j, alexander(reduced))
    over = _over_arcs(reduced)
    arcs = [{a for a, k in labels.items() if k == comp} for comp in flippable]
    candidates = []
    for mask, w in enumerate(writhes):
        if jones_at[w] == j:
            flipped = set().union(*(arcs[k] for k in range(len(arcs)) if mask >> k & 1))
            candidates.append(_alexander_from_rows(_fox_rows(reduced, over, flipped)))
    return Fingerprint(ncomp, j, min(candidates, key=Laurent.sort_key))
