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

The kernel lists the generators in one walk over the rows that builds
each shared prefix once.  Gradings come from two corner tables per grid,
one per marker type: entry (r, c) counts the markers northeast plus
southwest of lattice point (c, r), so a generator's marker counts are
sums of one entry per row, added as the walk places each row.  The walk
also gives each generator an integer code with s bits per row, so a
rectangle's target, which swaps two rows, is its source's code plus a
precomputed difference, found with one dict lookup.  Rectangles
starting at a row are found by one upward sweep that carries the
narrowest column offset seen so far, which decides emptiness without
rescanning the rows inside, and a table of the widest marker-free
width per corner and length, which ends the sweep where every longer
rectangle holds a marker.

Homology, with its d^2 = 0 check, is taken by ``linalg.block_homology``,
the routine the Khovanov complex also goes through.  The Euler check
compares the hat table with the Alexander polynomial of
``invariants.alexander``, the Wirtinger route that the tests check
against the skein recursion.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import List, Sequence

from .bigraded import BigradedDims
from .diagrams import GraphDiagram
from .errors import CapExceeded
from .grid import GridDiagram, pd_to_grid, simplify_grid
from .invariants import alexander
from .laurent import Laurent, T, U, UT, euler_substitute, exact_divide
from .linalg import block_homology

# Largest grid size whose n! generators are enumerated.
FLOER_GRID_CAP = 8

# Rank-two factor split off per stabilization level: hat version keeps
# both gradings, total homology only the Maslov axis.
_V_HAT = Laurent(UT, {(0, 0): 1, (-2, -2): 1})
_W_TOTAL = Laurent(U, {(0,): 1, (-2,): 1})


def _ascents(cols: Sequence[int]) -> int:
    """Count row pairs r1 < r2 with cols[r1] < cols[r2]: points, one per
    row, strictly southwest of one another."""
    return sum(
        1 for r2 in range(len(cols)) for r1 in range(r2) if cols[r1] < cols[r2]
    )


def _corner_table(n: int, cols: Sequence[int]) -> List[List[int]]:
    """t[r][c] = markers strictly northeast of lattice point (c, r) plus
    markers strictly southwest of it.  The marker of row mr sits in the
    cell whose southwest corner is (cols[mr], mr)."""
    return [
        [
            sum(1 for mr, mc in enumerate(cols) if (mc >= c) == (mr >= r))
            for c in range(n)
        ]
        for r in range(n)
    ]


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


def _complex(g: GridDiagram, block_x: bool):
    """Doubled gradings of the generators and their rectangle edges.

    Generators come in ``itertools.permutations`` order.  One walk over
    the rows lists them, prefix by prefix: placing row r at column c adds
    the corner tables' entries at (c, r) to the O and X marker counts,
    and the number of columns left of c already used by lower rows to the
    count of point pairs.  Each prefix is built once and shared by every
    generator that extends it.  The walk also gives each generator the
    integer code sum of x[r] * 2^(s r), with s bits per row, which
    ``_rectangles`` uses to find rectangle targets.
    """
    n = g.n
    ell = g.component_count()
    t_o = _corner_table(n, g.O)
    t_x = _corner_table(n, g.X)
    i_oo = _ascents(g.O)
    # m2 = 2 (i_gg - j_go + i_oo + 1) + (l - 1), a2 = j_gx - j_go - i_xx + i_oo - (n - l)
    m_base = 2 * (i_oo + 1) + (ell - 1)
    a_base = i_oo - _ascents(g.X) - (n - ell)
    shift = max(1, (n - 1).bit_length())
    # unused[used] = (c, bit, 2 * used columns left of c) for each unused c.
    unused = [
        [(c, 1 << c, 2 * (used & ((1 << c) - 1)).bit_count())
         for c in range(n) if not used >> c & 1]
        for used in range(1 << n)
    ]
    level = [(0, 0, m_base, a_base)]
    for r in range(n):
        dm = [-2 * v for v in t_o[r]]
        da = [vx - vo for vx, vo in zip(t_x[r], t_o[r])]
        s = shift * r
        level = [
            (used | bit, code + (c << s), m2 + left + dm[c], a2 + da[c])
            for used, code, m2, a2 in level
            for c, bit, left in unused[used]
        ]
    codes = [code for _used, code, _m2, _a2 in level]
    grads = [(m2, a2) for _used, _code, m2, a2 in level]

    blocked = _cell_masks(n, g.O)
    if block_x:
        xmasks = _cell_masks(n, g.X)
        blocked = [
            [bo | bx for bo, bx in zip(ro, rx)] for ro, rx in zip(blocked, xmasks)
        ]
    return grads, _rectangles(n, shift, codes, blocked)


def _rectangles(n: int, shift: int, codes: List[int], blocked: List[List[int]]):
    """Rectangle edges (i, j, 1) of the generators with the given codes.

    A rectangle runs from the point of x in row ra to the point in row rb,
    over cell rows ra .. rb - 1 and the columns to the right of x[ra],
    both mod n.  The sweep moves rb upward from each ra, keeping the
    smallest column offset of the rows passed so far: the rectangle
    holds no other point of x exactly when its width is below it.  It
    holds no blocked marker exactly when its width is at most the widest
    marker-free width for its corner and length.  Marker-freeness is
    monotone in both width and length, so the sweep from corner (ra, ca)
    stops at the first length whose widest marker-free width is 0.

    Swapping x[ra] = ca and x[rb] = cb changes the code by
    (cb - ca) (2^(s ra) - 2^(s rb)), so a target is one dict lookup.
    ``steps[ra][ca]`` lists, for each length in sweep order, the pair
    (rb, table) with rb = ra + length mod n and ``table[cb]`` holding
    the width cb - ca mod n and that code change, or None for a
    rectangle that holds a marker; the sweep reads ``table[x[rb]]``
    directly.  A pair joined by two rectangles yields two edges, which
    cancel mod 2 where ``linalg.block_homology`` sums them.
    """
    cols = _cell_masks(n, range(n))
    weight = [1 << (shift * r) for r in range(n)]
    steps = []
    for ra, brow in enumerate(blocked):
        per_corner = []
        for ca in range(n):
            sweep = []
            for length in range(1, n):
                widest = max(w for w in range(n) if not brow[length] & cols[ca][w])
                if not widest:
                    break
                rb = (ra + length) % n
                dw = weight[ra] - weight[rb]
                sweep.append((rb, tuple(
                    ((cb - ca) % n, (cb - ca) * dw if (cb - ca) % n <= widest else None)
                    for cb in range(n)
                )))
            per_corner.append(sweep)
        steps.append(per_corner)
    gidx = {code: i for i, code in enumerate(codes)}
    for ix, (x, code) in enumerate(zip(permutations(range(n)), codes)):
        for ra, per_corner in enumerate(steps):
            least = n  # smallest column offset among the rows passed
            for rb, table in per_corner[x[ra]]:
                width, delta = table[x[rb]]
                if width < least:
                    if delta is not None:
                        yield ix, gidx[code + delta], 1
                    if width == 1:
                        break
                    least = width


def tilde_homology(g: GridDiagram, cap: int = FLOER_GRID_CAP) -> BigradedDims:
    """Homology of the fully blocked rectangle complex, (M, A)-bigraded."""
    _require_cap(g.n, cap)
    grads, edges = _complex(g, block_x=True)
    table = block_homology(grads, edges, lambda k: (k[0] - 2, k[1]), "f2")
    return BigradedDims(table)


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
    grads, edges = _complex(g, block_x=False)
    table = block_homology([m2 for m2, _a2 in grads], edges, lambda m2: m2 - 2, "f2")
    poly = Laurent(U, {(m2,): r for m2, (r, _t) in table.items()})
    power = g.n - g.component_count()
    return exact_divide(poly, _W_TOTAL ** power, require_nonnegative=True)


def total_homology(d: GraphDiagram, cap: int = FLOER_GRID_CAP) -> Laurent:
    return total_homology_from_grid(simplify_grid(pd_to_grid(d)), cap)


def hat_euler(dims: BigradedDims) -> Laurent:
    """Graded Euler characteristic of a hat table, as a polynomial in t."""
    return euler_substitute(dims.poincare(UT))


def skein_euler_target(delta: Laurent, components: int) -> Laurent:
    """(t^(1/2) - t^(-1/2))^(l-1) * delta, the hat Euler characteristic
    that an l-component link's Alexander polynomial delta predicts."""
    half_diff = Laurent(T, {(1,): 1, (-1,): -1})
    return delta * half_diff ** (components - 1)


def euler_matches_skein(dims: BigradedDims, d: GraphDiagram) -> dict:
    """Compare a hat Euler polynomial with the Alexander prediction.

    A global sign and a uniform half-power shift are convention slack;
    both are reported.  Exact agreement means offset 0.
    """
    got = hat_euler(dims)
    want = skein_euler_target(alexander(d), d.split_components()[0])
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
