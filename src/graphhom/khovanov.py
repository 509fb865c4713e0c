"""Khovanov homology of link diagrams over Z and F2.

The resolution cube assigns each crossing a 0-smoothing (joining slots
0-1 and 2-3) or a 1-smoothing (joining 0-3 and 1-2).  A chain generator
is a cube vertex together with a labeling of its circles by 1 or x; the
differential flips one coordinate from 0 to 1 and applies the Frobenius
multiplication on a merge or comultiplication on a split, with the usual
sign given by the parity of the lower-indexed coordinates already set.

Gradings: with r the number of 1-smoothings and (#1 - #x) the labeling
weight, a generator sits in homological degree i = r - n_minus and
quantum degree j = (#1 - #x) + r + n_plus - 2 n_minus.  Both are stored
doubled like every other grading in this package, so the table keys are
(2i, 2j).

The graded Euler characteristic recovers the unnormalized Jones
polynomial under q = -t^(1/2); helpers for both sides of that identity
live here so tests and the CLI can compare them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from .bigraded import BigradedDims
from .diagrams import GraphDiagram
from .errors import CapExceeded, InvalidDiagram
from .invariants import jones, smoothing_circles
from .laurent import Laurent, Q
from .linalg import f2_is_zero, f2_mul, f2_rank, int_is_zero, int_mul, smith_invariant_factors

# Most crossings a resolution cube (2^c states) is built over.
KHOVANOV_CROSSING_CAP = 14

# Running tallies of composition checks, readable by tests: every chain
# complex assembled here verifies d∘d = 0 and records the outcome.
D2_CHECKS = {"complexes": 0, "failures": 0}


@dataclass(frozen=True)
class ResolutionCube:
    """All smoothing states of a link diagram with their circle sets.

    ``circles[s]`` lists the circle ids of state ``s`` in sorted order;
    crossing-free components of the diagram appear in every state as
    negative ids.  ``arc_circle[s]`` maps each arc to its circle id (the
    circle's smallest arc) in state ``s``.  Writhe shifts are captured by
    ``n_plus``/``n_minus``.
    """

    diagram: GraphDiagram
    n_plus: int
    n_minus: int
    circles: Tuple[Tuple[int, ...], ...]
    arc_circle: Tuple[Dict[int, int], ...]

    def circle_count(self, state: int) -> int:
        return len(self.circles[state])

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """Yield (state, flipped coordinate, sign) for every cube edge."""
        c = len(self.diagram.crossings)
        for s in range(1 << c):
            for k in range(c):
                if not s >> k & 1:
                    low = s & ((1 << k) - 1)
                    sign = -1 if bin(low).count("1") % 2 else 1
                    yield s, k, sign


def build_cube(d: GraphDiagram, cap: int = KHOVANOV_CROSSING_CAP) -> ResolutionCube:
    if not d.is_link():
        raise InvalidDiagram(["resolution cube is defined for link diagrams"])
    c = len(d.crossings)
    if c > cap:
        raise CapExceeded(f"resolution cube over {c} crossings exceeds cap {cap}")
    n_plus, n_minus = d.positive_negative() if c else (0, 0)
    free = tuple(-(k + 1) for k in range(d.loops))
    arc_circle = tuple(smoothing_circles(d))
    circles = tuple(tuple(sorted(set(m.values()) | set(free))) for m in arc_circle)
    return ResolutionCube(d, n_plus, n_minus, circles, arc_circle)


def _coeff_tag(coeffs: str) -> str:
    tag = coeffs.lower()
    if tag not in ("z", "f2"):
        raise ValueError(f"unknown coefficient ring {coeffs!r}; use 'z' or 'f2'")
    return tag


def khovanov_homology(
    d: GraphDiagram, coeffs: str = "z", cap: int = KHOVANOV_CROSSING_CAP
) -> BigradedDims:
    """Bigraded homology of the resolution cube; keys are (2i, 2j).

    Over Z the table carries free ranks and torsion orders from Smith
    normal form; over F2 it carries dimensions.  Every complex built is
    checked for d∘d = 0 before ranks are extracted.
    """
    tag = _coeff_tag(coeffs)
    cube = build_cube(d, cap)
    nc = len(d.crossings)
    shift = cube.n_plus - 2 * cube.n_minus

    # Basis: (state, labeling mask) with set bits marking x labels on the
    # state's sorted circle list.  Grouped into blocks by (r, 2j).
    block_basis: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    position: Dict[Tuple[int, int], int] = {}
    for s in range(1 << nc):
        r = bin(s).count("1")
        k = len(cube.circles[s])
        for mask in range(1 << k):
            j2 = 2 * (k - 2 * bin(mask).count("1") + r + shift)
            box = block_basis.setdefault((r, j2), [])
            position[(s, mask)] = len(box)
            box.append((s, mask))

    # Differential entries grouped by source block.
    positions = [{cid: b for b, cid in enumerate(circles)} for circles in cube.circles]
    entries: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = {}
    for s, k, sign in cube.edges():
        t = s | (1 << k)
        r = bin(s).count("1")
        src_circles, tgt_circles = cube.circles[s], cube.circles[t]
        src_pos, tgt_pos = positions[s], positions[t]
        cr = d.crossings[k]
        srcs = sorted({cube.arc_circle[s][a] for a in cr})
        tgts = sorted({cube.arc_circle[t][a] for a in cr})
        spectators = [cid for cid in src_circles if cid not in srcs]

        for mask in range(1 << len(src_circles)):
            base = 0
            for cid in spectators:
                if mask >> src_pos[cid] & 1:
                    base |= 1 << tgt_pos[cid]
            col = position[(s, mask)]
            j2 = 2 * (len(src_circles) - 2 * bin(mask).count("1") + r + shift)
            outs: List[int] = []
            if len(srcs) == 2 and len(tgts) == 1:
                xu = mask >> src_pos[srcs[0]] & 1
                xv = mask >> src_pos[srcs[1]] & 1
                if not (xu and xv):  # x.x multiplies to zero
                    out = base
                    if xu or xv:
                        out |= 1 << tgt_pos[tgts[0]]
                    outs.append(out)
            elif len(srcs) == 1 and len(tgts) == 2:
                xu = mask >> src_pos[srcs[0]] & 1
                b1, b2 = (1 << tgt_pos[tgts[0]]), (1 << tgt_pos[tgts[1]])
                if xu:
                    outs.append(base | b1 | b2)
                else:
                    outs.append(base | b1)
                    outs.append(base | b2)
            else:
                raise InvalidDiagram(
                    [f"smoothing change at crossing {k} is neither merge nor split"]
                )
            j2_t = 2 * (
                len(tgt_circles) - 2 * bin(outs[0]).count("1") + (r + 1) + shift
            ) if outs else j2
            if outs and j2_t != j2:
                raise InvalidDiagram(
                    [f"differential broke the quantum grading at crossing {k}"]
                )
            for out in outs:
                row = position[(t, out)]
                entries.setdefault((r, j2), []).append((row, col, sign))

    # Assemble per-(i, j) matrices and take homology block by block.
    out: Dict[Tuple[int, int], Tuple[int, Tuple[int, ...]]] = {}
    all_j2 = sorted({j2 for _, j2 in block_basis})
    for j2 in all_j2:
        dims = {r: len(block_basis.get((r, j2), ())) for r in range(nc + 2)}
        mats: Dict[int, object] = {}
        ranks: Dict[int, int] = {}
        for r in range(nc + 1):
            rows_n, cols_n = dims.get(r + 1, 0), dims.get(r, 0)
            ent = entries.get((r, j2), [])
            if tag == "f2":
                rows = [0] * rows_n
                for row, col, _sign in ent:
                    rows[row] ^= 1 << col
                mats[r] = rows
                ranks[r] = f2_rank(rows) if rows_n and cols_n else 0
            else:
                m = [[0] * cols_n for _ in range(rows_n)]
                for row, col, sign in ent:
                    m[row][col] += sign
                mats[r] = m
                ranks[r] = (
                    len(smith_invariant_factors(m)) if rows_n and cols_n else 0
                )

        D2_CHECKS["complexes"] += 1
        for r in range(nc):
            if dims.get(r, 0) and dims.get(r + 1, 0) and dims.get(r + 2, 0):
                if tag == "f2":
                    ok = f2_is_zero(f2_mul(mats[r + 1], mats[r]))
                else:
                    ok = int_is_zero(int_mul(mats[r + 1], mats[r]))
                if not ok:
                    D2_CHECKS["failures"] += 1
                    raise InvalidDiagram(
                        [f"differential does not square to zero at (r={r}, j2={j2})"]
                    )

        for r in range(nc + 1):
            n_r = dims.get(r, 0)
            if not n_r:
                continue
            rank_out = ranks.get(r, 0)
            rank_in = ranks.get(r - 1, 0)
            free = n_r - rank_out - rank_in
            torsion: Tuple[int, ...] = ()
            if tag == "z" and r >= 1:
                prev = mats.get(r - 1)
                if prev and dims.get(r - 1, 0):
                    torsion = tuple(
                        f for f in smith_invariant_factors(prev) if f > 1
                    )
            if free or torsion:
                i2 = 2 * (r - cube.n_minus)
                key = (i2, j2)
                old = out.get(key, (0, ()))
                out[key] = (old[0] + free, tuple(sorted(old[1] + torsion)))
    return BigradedDims(out)


def graded_euler(dims: BigradedDims) -> Laurent:
    """Alternating sum over the homological axis as a polynomial in q."""
    terms: Dict[Tuple[int, ...], int] = {}
    for (i2, j2), (rank, _) in dims.dims.items():
        if i2 % 2:
            raise ValueError("Khovanov gradings must have integer homological degree")
        sign = -1 if (i2 // 2) % 2 else 1
        terms[(j2,)] = terms.get((j2,), 0) + sign * rank
    return Laurent(Q, terms)


def unnormalized_jones(d: GraphDiagram, cap: int = 24) -> Laurent:
    """Jones polynomial rescaled by (q + 1/q) and rewritten under the
    substitution q = -t^(1/2)."""
    j = jones(d, cap)
    terms: Dict[Tuple[int, ...], int] = {}
    for (m,), coeff in j.terms.items():
        # t^(m/2) = (-q)^m
        sign = -1 if m % 2 else 1
        terms[(2 * m,)] = terms.get((2 * m,), 0) + sign * coeff
    circle = Laurent(Q, {(2,): 1, (-2,): 1})
    return Laurent(Q, terms) * circle
