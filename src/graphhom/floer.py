"""Grid homology over F2: the tilde complex, the hat invariant read off
its top Alexander half, and the collapsed total homology.

Generators of an n-by-n grid are permutations (one point on each
horizontal and vertical line); the differential counts empty rectangles
between generators differing by a transposition.  Blocking both marker
types gives the tilde complex, whose homology is the hat invariant
tensored with n - l copies of a rank-two piece V (Manolescu, Ozsvath
and Sarkar); blocking only the O markers collapses the Alexander axis
and computes the total homology, of rank 2^(l-1) for an l-component
link.

The tilde differential preserves the Alexander grading A, so the
generators with A >= 0 span a direct summand.  V only lowers A, so the
tilde ranks there give the hat ranks there, peeled off from the top
down, and the symmetry of the hat invariant under A -> -A (Ozsvath and
Szabo) gives the rest.  ``hat_from_grid`` builds only that summand: on
the Borromean rings (n = 8) it has 1,312 of the 40,320 generators.  The
n! generators of a grid now set the cost of the total complex alone,
and of ``tilde_homology``, which keeps the whole complex.

Gradings use the symmetric link convention: the Maslov grading is
shifted by (l-1)/2 and the Alexander grading is centered with (n-l)/2,
so mirror duality and the disjoint-union rank-two factor hold on the
nose.  For knots both agree with the usual formulas.  All gradings are
stored doubled.

The kernel lists the generators in one walk over the rows that builds
each shared prefix once.  Gradings come from two corner tables per grid,
one per marker type: entry (r, c) counts the markers northeast plus
southwest of lattice point (c, r), so a generator's marker counts are
sums of one entry per row, added as the walk places each row.  For the
hat, a DP over the 2^n sets of used columns bounds the Alexander
grading the remaining rows can still add, and the walk drops every
prefix that cannot reach A >= 0.  The walk also gives each generator an
integer code with s bits per row, so a rectangle's target, which swaps
two rows, is its source's code plus a precomputed difference, found
with one dict lookup.  Codes and gradings are returned as typed arrays,
one word per generator each, which ``block_homology`` reads once; no
tuple or list per generator is kept.  Rectangles starting at a row are
found by one upward sweep that carries the narrowest column offset seen
so far, which decides emptiness without rescanning the rows inside, and
a table of the widest marker-free width per corner and length, which
ends the sweep where every longer rectangle holds a marker.

Homology, with its d^2 = 0 check, is taken by ``linalg.block_homology``,
the routine the Khovanov complex also goes through.  The Euler check
compares the hat table with the Alexander polynomial of
``invariants.alexander``, the Wirtinger route that the tests check
against the skein recursion.
"""

from __future__ import annotations

import math
from array import array
from itertools import permutations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .bigraded import BigradedDims
from .diagrams import GraphDiagram
from .errors import CapExceeded, DeconvolutionError
from .grid import GridDiagram, pd_to_grid, simplify_grid
from .invariants import alexander
from .laurent import Laurent, T, U, UT, euler_substitute, exact_divide
from .linalg import block_homology

# Largest grid size whose complexes are built; the total complex and
# ``tilde_homology`` enumerate all n! generators, the hat only A >= 0.
FLOER_GRID_CAP = 8

# Rank-two factor split off per stabilization level of the total
# homology, which keeps only the Maslov axis.
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


def _row_bits(n: int) -> int:
    """Bits per row in a generator's integer code."""
    return max(1, (n - 1).bit_length())


def _best_gain(da: List[List[int]], unused) -> List[int]:
    """best[used] = the largest sum of ``da[r][c]`` that the rows left
    after a prefix on the columns ``used`` can add, one DP over the 2^n
    column masks.  A mask with k bits set has placed rows 0 .. k - 1,
    and adding a column only makes a mask larger, so descending order
    finishes every mask before the masks it extends."""
    best = [0] * len(unused)
    for used in range(len(unused) - 2, -1, -1):
        row = da[used.bit_count()]
        best[used] = max(row[c] + best[used | bit] for c, bit, _left in unused[used])
    return best


def _generators(g: GridDiagram, top_half: bool = False):
    """Integer codes and doubled Maslov and Alexander gradings of the
    generators, in ``itertools.permutations`` order, as three arrays.

    One walk over the rows lists them, prefix by prefix: placing row r at
    column c adds the corner tables' entries at (c, r) to the O and X
    marker counts, and the number of columns left of c already used by
    lower rows to the count of point pairs.  Each prefix is built once
    and shared by every generator that extends it.  The code of a
    generator x is sum of x[r] * 2^(s r), with s = ``_row_bits(n)``; it
    fits the codes' 64-bit words up to n = 16.

    With ``top_half`` only the generators of Alexander grading a2 >= 0
    are listed: a prefix is dropped as soon as its a2 plus the largest
    gain the remaining rows can add (``_best_gain``) is negative, so no
    generator outside the slice is built and the order is that of the
    full walk with the others left out.
    """
    n = g.n
    ell = g.component_count()
    t_o = _corner_table(n, g.O)
    t_x = _corner_table(n, g.X)
    i_oo = _ascents(g.O)
    # m2 = 2 (i_gg - j_go + i_oo + 1) + (l - 1), a2 = j_gx - j_go - i_xx + i_oo - (n - l)
    m_base = 2 * (i_oo + 1) + (ell - 1)
    a_base = i_oo - _ascents(g.X) - (n - ell)
    shift = _row_bits(n)
    # unused[used] = (c, bit, 2 * used columns left of c) for each unused c.
    unused = [
        [(c, 1 << c, 2 * (used & ((1 << c) - 1)).bit_count())
         for c in range(n) if not used >> c & 1]
        for used in range(1 << n)
    ]
    da_rows = [[vx - vo for vx, vo in zip(rx, ro)] for rx, ro in zip(t_x, t_o)]
    best = _best_gain(da_rows, unused) if top_half else None
    level = [(0, 0, m_base, a_base)]
    for r in range(n):
        dm = [-2 * v for v in t_o[r]]
        da = da_rows[r]
        s = shift * r
        level = [
            (used | bit, code + (c << s), m2 + left + dm[c], a2 + da[c])
            for used, code, m2, a2 in level
            for c, bit, left in unused[used]
        ]
        if best is not None:
            level = [p for p in level if p[3] + best[p[0]] >= 0]
    codes = array("Q", [code for _used, code, _m2, _a2 in level])
    m2s = array("i", [m2 for _used, _code, m2, _a2 in level])
    a2s = array("i", [a2 for _used, _code, _m2, a2 in level])
    return codes, m2s, a2s


def _decode(n: int, codes: Iterable[int]) -> List[Tuple[int, ...]]:
    """The generators, as column tuples, with the given codes."""
    shift = _row_bits(n)
    mask = (1 << shift) - 1
    return [tuple(code >> (shift * r) & mask for r in range(n)) for code in codes]


def _complex(g: GridDiagram, block_x: bool, top_half: bool = False):
    """Doubled Maslov and Alexander gradings of the generators, as two
    arrays, and their rectangle edges.

    ``top_half`` lists only the generators with a2 >= 0 (see
    ``_generators``).  It needs ``block_x``: a rectangle that avoids
    both marker types preserves the Alexander grading, so every edge
    stays inside the slice, which is then a direct summand.
    """
    n = g.n
    codes, m2s, a2s = _generators(g, top_half)
    xs = _decode(n, codes) if top_half else permutations(range(n))
    blocked = _cell_masks(n, g.O)
    if block_x:
        xmasks = _cell_masks(n, g.X)
        blocked = [
            [bo | bx for bo, bx in zip(ro, rx)] for ro, rx in zip(blocked, xmasks)
        ]
    return m2s, a2s, _rectangles(n, xs, codes, blocked)


def _rectangles(n: int, xs: Iterable[Sequence[int]], codes: Sequence[int], blocked: List[List[int]]):
    """Rectangle edges (i, j, 1) between the generators ``xs``, whose
    codes are ``codes``; every target must be among them.

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
    shift = _row_bits(n)
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
    for ix, (x, code) in enumerate(zip(xs, codes)):
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
    m2s, a2s, edges = _complex(g, block_x=True)
    table = block_homology(zip(m2s, a2s), edges, lambda k: (k[0] - 2, k[1]), "f2")
    return BigradedDims(table)


def hat_from_grid(g: GridDiagram, cap: int = FLOER_GRID_CAP) -> BigradedDims:
    """Hat homology from the tilde complex's a2 >= 0 summand.

    Tilde homology is the hat homology tensored with V^(n - l), where V
    has doubled gradings (0, 0) and (-2, -2), so it only moves A down:
    the tilde ranks at a2 >= 0 give the hat ranks at a2 >= 0, read off
    from the top.  The rest follows from the symmetry of the hat
    homology, (m2, a2) <-> (m2 - 2 a2, -a2) in doubled gradings.
    """
    if g.n > cap:
        raise CapExceeded(f"grid size {g.n} is over the cap {cap}", detail={"n": g.n})
    m2s, a2s, edges = _complex(g, block_x=True, top_half=True)
    table = block_homology(zip(m2s, a2s), edges, lambda k: (k[0] - 2, k[1]), "f2")
    top = _deconvolve_top({k: r for k, (r, _t) in table.items()}, g.n - g.component_count())
    ranks = dict(top)
    for (m2, a2), r in top.items():
        ranks[m2 - 2 * a2, -a2] = r
    return BigradedDims.of_ranks(ranks)


def _deconvolve_top(tilde: Dict[Tuple[int, int], int], power: int) -> Dict[Tuple[int, int], int]:
    """Hat ranks at a2 >= 0 from the tilde ranks there, top-down:
    hat(m2, a2) = tilde(m2, a2) - sum over k >= 1 of
    C(power, k) hat(m2 + 2k, a2 + 2k).  A negative rank means the table
    is no tilde homology of a grid, and raises ``DeconvolutionError``."""
    rest = dict(tilde)
    hat: Dict[Tuple[int, int], int] = {}
    while rest:
        key = max(rest, key=lambda k: k[1])
        rank = rest.pop(key)
        if rank < 0:
            raise DeconvolutionError(f"negative hat rank {rank} at doubled grading {key}")
        if rank:
            hat[key] = rank
            m2, a2 = key
            for k in range(1, min(power, a2 // 2) + 1):
                low = (m2 - 2 * k, a2 - 2 * k)
                rest[low] = rest.get(low, 0) - math.comb(power, k) * rank
    return hat


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
    m2s, _a2s, edges = _complex(g, block_x=False)
    table = block_homology(m2s, edges, lambda m2: m2 - 2, "f2")
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


def euler_matches_skein(
    dims: BigradedDims, d: GraphDiagram, delta: Optional[Laurent] = None
) -> dict:
    """Compare a hat Euler polynomial with the Alexander prediction.

    ``delta`` is the Alexander polynomial of ``d`` when the caller has
    already computed it.  A global sign and a uniform half-power shift
    are convention slack; both are reported.  Exact agreement means
    offset 0.
    """
    if delta is None:
        delta = alexander(d)
    got = hat_euler(dims)
    want = skein_euler_target(delta, d.split_components()[0])
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
