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

``khovanov_homology`` builds the cube over the crossings alone, and
``tensor_loops`` tensors the table with V = q + q^-1 once per loop.

The graded Euler characteristic recovers the unnormalized Jones
polynomial under q = -t^(1/2); helpers for both sides of that identity
live here so tests and the CLI can compare them exactly.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from .bigraded import BigradedDims
from .diagrams import GraphDiagram
from .errors import CapExceeded, InvalidDiagram
from .invariants import jones, smoothing_circles
from .laurent import Laurent, Q
from .linalg import block_homology

# Most crossings a resolution cube (2^c states) is built over.
KHOVANOV_CROSSING_CAP = 14


def khovanov_homology(
    d: GraphDiagram, coeffs: str = "z", cap: int = KHOVANOV_CROSSING_CAP
) -> BigradedDims:
    """Bigraded homology of the link diagram; keys are (2i, 2j).

    Over Z the table carries free ranks and torsion orders from Smith
    normal form, over F2 dimensions; ``coeffs`` is case-insensitive.  The
    cube sees only the crossings; ``tensor_loops`` adds the loops.
    """
    core = GraphDiagram(d.crossings, d.vertices, 0, d.heads)
    return tensor_loops(_cube_homology(core, coeffs.lower(), cap), d.loops)


def tensor_loops(dims: BigradedDims, loops: int) -> BigradedDims:
    """The table ``dims`` of a link L made that of L with ``loops`` split
    unknots: C(L u O) = C(L) (x) V with V = q + q^-1 free, so Kunneth
    adds no Tor term over Z (Khovanov, arXiv:math/9908171)."""
    for _ in range(loops):
        up = BigradedDims({(i, j + 2): e for (i, j), e in dims.dims.items()})
        dims = up.add(BigradedDims({(i, j - 2): e for (i, j), e in dims.dims.items()}))
    return dims


def _cube_homology(d: GraphDiagram, coeffs: str, cap: int) -> BigradedDims:
    """Homology of the whole resolution cube of ``d``, loops included as
    negative circle ids; ``linalg.block_homology`` checks the ring name
    and d∘d = 0.  In state s, ``arc_circle[s]`` maps each arc to its
    circle id (the circle's smallest arc); ``circles[s]`` lists the ids."""
    if not d.is_link():
        raise InvalidDiagram(["resolution cube is defined for link diagrams"])
    c = len(d.crossings)
    if c > cap:
        raise CapExceeded(f"resolution cube over {c} crossings exceeds cap {cap}")
    n_plus, n_minus = d.positive_negative()
    shift = n_plus - 2 * n_minus
    free = {-(k + 1) for k in range(d.loops)}
    arc_circle = list(smoothing_circles(d))
    circles = [sorted(set(m.values()) | free) for m in arc_circle]

    # Generators are (state, labeling mask) pairs, with set bits marking x
    # labels on the state's sorted circle list; (s, mask) has index
    # offset[s] + mask and sits in block (r, 2j).
    offset: List[int] = []
    keys: List[Tuple[int, int]] = []
    for s, cids in enumerate(circles):
        offset.append(len(keys))
        r, k = bin(s).count("1"), len(cids)
        keys.extend((r, 2 * (k - 2 * bin(mask).count("1") + r + shift)) for mask in range(1 << k))

    edges = _cube_edges(d.crossings, arc_circle, circles, offset)
    table = block_homology(keys, edges, lambda k: (k[0] + 1, k[1]), coeffs)
    return BigradedDims({(2 * (r - n_minus), j2): e for (r, j2), e in table.items()})


def _cube_edges(
    crossings: Sequence[Tuple[int, ...]], arc_circle: List[Dict[int, int]],
    circles: List[List[int]], offset: List[int],
) -> Iterator[Tuple[int, int, int]]:
    """Differential entries (source, target, sign) over all cube edges: the
    Frobenius multiplication on a merge, comultiplication on a split.  The
    edge from state s that flips crossing k carries the sign
    (-1)^(number of bits of s below k)."""
    positions = [{cid: b for b, cid in enumerate(cids)} for cids in circles]
    for s in range(len(circles)):
        for k, cr in enumerate(crossings):
            if s >> k & 1:
                continue
            sign = -1 if bin(s & ((1 << k) - 1)).count("1") % 2 else 1
            t = s | (1 << k)
            src_pos, tgt_pos = positions[s], positions[t]
            srcs = sorted({arc_circle[s][a] for a in cr})
            tgts = sorted({arc_circle[t][a] for a in cr})
            spectators = [cid for cid in circles[s] if cid not in srcs]
            if (len(srcs), len(tgts)) not in ((2, 1), (1, 2)):
                raise InvalidDiagram([f"smoothing change at crossing {k} is neither merge nor split"])

            for mask in range(1 << len(circles[s])):
                base = 0
                for cid in spectators:
                    if mask >> src_pos[cid] & 1:
                        base |= 1 << tgt_pos[cid]
                outs: List[int] = []
                if len(srcs) == 2:
                    xu = mask >> src_pos[srcs[0]] & 1
                    xv = mask >> src_pos[srcs[1]] & 1
                    if not (xu and xv):  # x.x multiplies to zero
                        out = base
                        if xu or xv:
                            out |= 1 << tgt_pos[tgts[0]]
                        outs.append(out)
                else:
                    xu = mask >> src_pos[srcs[0]] & 1
                    b1, b2 = (1 << tgt_pos[tgts[0]]), (1 << tgt_pos[tgts[1]])
                    if xu:
                        outs.append(base | b1 | b2)
                    else:
                        outs.append(base | b1)
                        outs.append(base | b2)
                for out in outs:
                    yield offset[s] + mask, offset[t] + out, sign


def graded_euler(dims: BigradedDims) -> Laurent:
    """Alternating sum over the homological axis as a polynomial in q."""
    terms: Dict[Tuple[int, ...], int] = {}
    for (i2, j2), (rank, _) in dims.dims.items():
        if i2 % 2:
            raise ValueError("Khovanov gradings must have integer homological degree")
        sign = -1 if (i2 // 2) % 2 else 1
        terms[(j2,)] = terms.get((j2,), 0) + sign * rank
    return Laurent(Q, terms)


def unnormalized_jones(d: GraphDiagram) -> Laurent:
    """Jones polynomial rescaled by (q + 1/q) and rewritten under the
    substitution q = -t^(1/2)."""
    j = jones(d)
    terms: Dict[Tuple[int, ...], int] = {}
    for (m,), coeff in j.terms.items():
        # t^(m/2) = (-q)^m
        sign = -1 if m % 2 else 1
        terms[(2 * m,)] = terms.get((2 * m,), 0) + sign * coeff
    circle = Laurent(Q, {(2,): 1, (-2,): 1})
    return Laurent(Q, terms) * circle
