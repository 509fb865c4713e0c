"""Grid homology over F2: the tilde complex, its hat deconvolution, and
the collapsed total homology.

Generators of an n-by-n grid are permutations (one point on each
horizontal and vertical line); the differential counts empty rectangles
between generators differing by a transposition.  Blocking both marker
types gives the tilde complex, whose homology is the hat invariant
tensored with n - l copies of a rank-two piece; blocking only the O
markers collapses the Alexander axis and computes the total homology,
of rank 2^(l-1) for an l-component link.

Gradings use the symmetric link convention: the Maslov grading is
shifted by (l-1)/2 and the Alexander grading is centered with (n-l)/2,
so mirror duality and the disjoint-union rank-two factor hold on the
nose.  For knots both agree with the usual formulas.  All gradings are
stored doubled.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Dict, List, Sequence, Tuple

from .bigraded import BigradedDims
from .diagrams import GraphDiagram
from .errors import CapExceeded
from .grid import GridDiagram, pd_to_grid, simplify_grid
from .invariants import alexander
from .laurent import Laurent, T, U, UT, euler_substitute, exact_divide
from .linalg import f2_is_zero, f2_mul, f2_rank

# Largest grid size whose n! generators are enumerated.
FLOER_GRID_CAP = 8

# Running totals of explicit d^2 = 0 matrix checks, mirroring the
# Khovanov module's counter so test suites can assert coverage.
D2_CHECKS = {"complexes": 0, "failures": 0}

# Rank-two factor split off per stabilization level: hat version keeps
# both gradings, total homology only the Maslov axis.
_V_HAT = Laurent(UT, {(0, 0): 1, (-2, -2): 1})
_W_TOTAL = Laurent(U, {(0,): 1, (-2,): 1})


def _dominated(pts_a: Sequence[Tuple[int, int]], pts_b: Sequence[Tuple[int, int]]) -> int:
    """Count pairs (a, b) with a strictly southwest of b."""
    total = 0
    for ax, ay in pts_a:
        for bx, by in pts_b:
            if ax < bx and ay < by:
                total += 1
    return total


def _generator_points(x: Sequence[int]) -> List[Tuple[int, int]]:
    return [(2 * c, 2 * r) for r, c in enumerate(x)]


def _marker_points(cols: Sequence[int]) -> List[Tuple[int, int]]:
    # Markers sit in cell centers, offset northeast of the lattice point
    # sharing their indices.
    return [(2 * c + 1, 2 * r + 1) for r, c in enumerate(cols)]


def gradings(g: GridDiagram, x: Sequence[int]) -> Tuple[int, int]:
    """Doubled (Maslov, Alexander) gradings of one generator."""
    xpts = _marker_points(g.X)
    opts = _marker_points(g.O)
    return _gradings_inner(
        g.n,
        g.component_count(),
        _generator_points(x),
        xpts,
        opts,
        _dominated(xpts, xpts),
        _dominated(opts, opts),
    )


def _gradings_inner(n, ell, pts, xpts, opts, i_xx, i_oo) -> Tuple[int, int]:
    i_gg = _dominated(pts, pts)
    j2_go = _dominated(pts, opts) + _dominated(opts, pts)
    j2_gx = _dominated(pts, xpts) + _dominated(xpts, pts)
    m2 = 2 * (i_gg - j2_go + i_oo + 1) + (ell - 1)
    a2 = j2_gx - j2_go - i_xx + i_oo - (n - ell)
    return m2, a2


def _require_cap(n: int, cap: int) -> None:
    if n > cap:
        raise CapExceeded(
            f"grid size {n} needs {math.factorial(n)} generators (cap {cap})",
            detail={"n": n, "generators": math.factorial(n)},
        )


def _cell_masks(n: int, cols: Sequence[int]) -> List[List[int]]:
    """masks[a][L] = column bits of the markers in cell rows a..a+L-1 mod n."""
    masks = []
    for a in range(n):
        row = [0]
        acc = 0
        for step in range(1, n + 1):
            acc |= 1 << cols[(a + step - 1) % n]
            row.append(acc)
        masks.append(row)
    return masks


def _col_masks(n: int) -> List[List[int]]:
    """masks[a][K] = bits of the K cell columns a..a+K-1 mod n."""
    masks = []
    for a in range(n):
        row = [0]
        acc = 0
        for step in range(1, n + 1):
            acc |= 1 << ((a + step - 1) % n)
            row.append(acc)
        masks.append(row)
    return masks


def _complex(g: GridDiagram, block_x: bool):
    """Generators, doubled gradings, and mod-2 rectangle edges.

    Each unordered generator pair differing by a transposition spans
    four torus rectangles; the two whose ascending row and column
    intervals start at points of x go from x.  A rectangle counts when
    it avoids the blocked markers and every other generator point.
    """
    n = g.n
    xpts = _marker_points(g.X)
    opts = _marker_points(g.O)
    i_xx = _dominated(xpts, xpts)
    i_oo = _dominated(opts, opts)
    ell = g.component_count()

    gens = list(permutations(range(n)))
    gidx = {x: i for i, x in enumerate(gens)}
    grads = [
        _gradings_inner(n, ell, _generator_points(x), xpts, opts, i_xx, i_oo)
        for x in gens
    ]

    blocked = _cell_masks(n, g.O)
    if block_x:
        xmasks = _cell_masks(n, g.X)
        blocked = [
            [bo | bx for bo, bx in zip(ro, rx)] for ro, rx in zip(blocked, xmasks)
        ]
    cols = _col_masks(n)

    parity: Dict[Tuple[int, int], int] = {}
    pairs = [(r1, r2) for r1 in range(n) for r2 in range(r1 + 1, n)]
    for ix, x in enumerate(gens):
        m2x, a2x = grads[ix]
        for r1, r2 in pairs:
            y = list(x)
            y[r1], y[r2] = y[r2], y[r1]
            iy = gidx[tuple(y)]
            for ra, rb in ((r1, r2), (r2, r1)):
                ca, cb = x[ra], x[rb]
                length = (rb - ra) % n
                width = (cb - ca) % n
                if blocked[ra][length] & cols[ca][width]:
                    continue
                inner = cols[(ca + 1) % n][width - 1]
                hit = False
                for i in range(1, length):
                    if (1 << x[(ra + i) % n]) & inner:
                        hit = True
                        break
                if hit:
                    continue
                m2y, a2y = grads[iy]
                assert m2x - m2y == 2, "empty rectangle must drop Maslov by one"
                if block_x:
                    assert a2x == a2y, "tilde rectangle must preserve Alexander"
                key = (ix, iy)
                parity[key] = parity.get(key, 0) ^ 1

    edges = [k for k, v in parity.items() if v]
    return gens, grads, edges


def _block_homology(
    keys: List[Tuple], edges: List[Tuple[int, int]], key_of, drop
) -> Dict[Tuple, int]:
    """F2 homology of a complex split into gradings-preserving blocks.

    ``key_of(i)`` names generator i's block and ``drop(key)`` the block
    its differential lands in.  Includes an explicit d^2 = 0 check.
    """
    blocks: Dict[Tuple, List[int]] = {}
    pos: Dict[int, int] = {}
    for i in range(len(keys)):
        k = key_of(i)
        pos[i] = len(blocks.setdefault(k, []))
        blocks[k].append(i)

    mats: Dict[Tuple, List[int]] = {}
    for i, j in edges:
        k = key_of(i)
        if k not in mats:
            mats[k] = [0] * len(blocks[k])
        mats[k][pos[i]] |= 1 << pos[j]

    D2_CHECKS["complexes"] += 1
    for k, rows in mats.items():
        nxt = mats.get(drop(k))
        if nxt is not None:
            if not f2_is_zero(f2_mul(rows, nxt)):
                D2_CHECKS["failures"] += 1
                raise AssertionError("rectangle differential fails d^2 = 0")

    ranks = {k: f2_rank(rows) for k, rows in mats.items()}
    out: Dict[Tuple, int] = {}
    for k, members in blocks.items():
        injecting = 0
        for src, rk in ranks.items():
            if drop(src) == k:
                injecting = rk
                break
        h = len(members) - ranks.get(k, 0) - injecting
        if h:
            out[k] = h
    return out


def tilde_homology(g: GridDiagram, cap: int = FLOER_GRID_CAP) -> BigradedDims:
    """Homology of the fully blocked rectangle complex, (M, A)-bigraded."""
    _require_cap(g.n, cap)
    gens, grads, edges = _complex(g, block_x=True)
    table = _block_homology(
        grads,
        edges,
        key_of=lambda i: grads[i],
        drop=lambda k: (k[0] - 2, k[1]),
    )
    return BigradedDims.of_ranks(table)


def hat_from_grid(g: GridDiagram, cap: int = FLOER_GRID_CAP) -> BigradedDims:
    """Hat homology: tilde dims with the stabilization factors divided out."""
    tilde = tilde_homology(g, cap)
    power = g.n - g.component_count()
    quotient = exact_divide(
        tilde.poincare(UT), _V_HAT ** power, require_nonnegative=True
    )
    return BigradedDims.of_ranks(dict(quotient.terms))


def hfk_hat(d: GraphDiagram, cap: int = FLOER_GRID_CAP) -> BigradedDims:
    """Hat homology of a link diagram via grid conversion and cleanup."""
    return hat_from_grid(simplify_grid(pd_to_grid(d)), cap)


def total_homology_from_grid(g: GridDiagram, cap: int = FLOER_GRID_CAP) -> Laurent:
    """Poincare polynomial in u of the total homology.

    Only the O markers block rectangles, so the Alexander axis
    collapses; the result for an l-component link is
    (u^(1/2) + u^(-1/2))^(l-1) regardless of the link type.
    """
    _require_cap(g.n, cap)
    gens, grads, edges = _complex(g, block_x=False)
    table = _block_homology(
        grads,
        edges,
        key_of=lambda i: (grads[i][0],),
        drop=lambda k: (k[0] - 2,),
    )
    poly = Laurent(U, {k: r for k, r in table.items()})
    power = g.n - g.component_count()
    return exact_divide(poly, _W_TOTAL ** power, require_nonnegative=True)


def total_homology(d: GraphDiagram, cap: int = FLOER_GRID_CAP) -> Laurent:
    return total_homology_from_grid(simplify_grid(pd_to_grid(d)), cap)


def hat_euler(dims: BigradedDims) -> Laurent:
    """Graded Euler characteristic of a hat table, as a polynomial in t."""
    poly = dims.poincare(UT)
    half = any(m % 2 for (m, _a) in poly.terms)
    return euler_substitute(poly, half_shift=half)


def skein_euler_target(d: GraphDiagram) -> Laurent:
    """(t^(1/2) - t^(-1/2))^(l-1) * Delta(t) from the skein oracle."""
    ell = d.split_components()[0]
    half_diff = Laurent(T, {(1,): 1, (-1,): -1})
    return alexander(d) * half_diff ** (ell - 1)


def euler_matches_skein(dims: BigradedDims, d: GraphDiagram) -> dict:
    """Compare a hat Euler polynomial with the skein prediction.

    A global sign and a uniform half-power shift are convention slack;
    both are reported.  Exact agreement means offset 0.
    """
    got = hat_euler(dims)
    want = skein_euler_target(d)
    if want.is_zero() or got.is_zero():
        ok = got.is_zero() and want.is_zero()
        return {"verdict": "pass" if ok else "fail", "offset2": 0, "sign": 1}
    (top_g,) = max(got.terms)
    (top_w,) = max(want.terms)
    offset = top_g - top_w
    shifted = want.shift((offset,))
    for sign in (1, -1):
        if got == shifted.scale(sign):
            return {"verdict": "pass", "offset2": offset, "sign": sign}
    return {"verdict": "fail", "offset2": offset, "sign": 0}
