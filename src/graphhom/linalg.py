"""Exact linear algebra over F2 and Z.

F2 matrices are lists of Python ints used as bitsets: bit j of row i is
the (i, j) entry.  Integer matrices are dense lists of lists.  Both stay
exact; nothing here floats.  ``block_homology`` takes the homology of a
block-graded chain complex over either ring; both homology flavors of
the package go through it.

Differentials are mostly zeros, so the integer loops that run per
entry skip them: ``int_mul``, behind the d∘d check, multiplies over
each row's nonzero entries, and the Smith form eliminates over the
pivot row's nonzero columns, clears that row with one remainder per
nonzero entry, and passes over zero rows in its pivot search.  The
matrices themselves stay dense, and so do the pivot search within a
nonzero row and the divisibility scan after a non-unit pivot.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Sequence, Tuple

from .errors import InvalidDiagram


# -- GF(2) ------------------------------------------------------------------

def f2_rank(rows: Sequence[int]) -> int:
    lead: dict[int, int] = {}
    rank = 0
    for r in rows:
        while r:
            top = r.bit_length() - 1
            if top in lead:
                r ^= lead[top]
            else:
                lead[top] = r
                rank += 1
                break
    return rank


def f2_mul(a_rows: Sequence[int], b_rows: Sequence[int]) -> List[int]:
    """Product of bitset matrices: row i of the result is XOR of the
    b-rows selected by the set bits of a_rows[i]."""
    out = []
    for a in a_rows:
        acc = 0
        x = a
        while x:
            j = (x & -x).bit_length() - 1
            acc ^= b_rows[j]
            x &= x - 1
        out.append(acc)
    return out


def f2_is_zero(rows: Sequence[int]) -> bool:
    return all(r == 0 for r in rows)


# -- integers ---------------------------------------------------------------

def int_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> List[List[int]]:
    """Dense product of integer matrices.  Each b-row's nonzero columns
    are listed once, and row i of the result adds v * w only over the
    nonzero entries v of a-row i and w of the b-rows they select."""
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    ncols = len(b[0])
    b_support = [[(k, w) for k, w in enumerate(row) if w] for row in b]
    out = []
    for row in a:
        acc = [0] * ncols
        for j, v in enumerate(row):
            if v:
                for k, w in b_support[j]:
                    acc[k] += v * w
        out.append(acc)
    return out


def int_is_zero(rows: Sequence[Sequence[int]]) -> bool:
    return not any(map(any, rows))


def smith_invariant_factors(matrix: Sequence[Sequence[int]]) -> List[int]:
    """Nonzero diagonal of the Smith normal form, d1 | d2 | ... | dr.

    Smallest-pivot elimination with integer row and column operations.
    The length of the result is the rank; entries greater than one are
    the torsion coefficients when the matrix presents a cokernel.

    Rows above step t are zero from column t on, so the pivot search
    starts at row t and passes over each row that is zero from column t
    on with one ``any``, and a column swap touches rows t and below.
    Each step lists the pivot row's nonzero columns once and eliminates
    the rows below over those columns only.  Once column t is zero below
    the pivot, a column operation on column t changes row t alone, so
    clearing row t is one remainder per nonzero entry.  A leftover entry,
    from either pass, is smaller than the pivot and becomes the next
    pivot when the step is redone.  Only a non-unit pivot needs the scan
    of the trailing block for an entry it does not divide: a ±1 pivot
    divides everything.
    """
    m = [list(row) for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    factors: List[int] = []
    t = 0
    while t < nrows and t < ncols:
        pr = pc = -1
        best = 0
        for i in range(t, nrows):
            row = m[i]
            if not any(row[t:]):
                continue
            for j in range(t, ncols):
                v = abs(row[j])
                if v and (best == 0 or v < best):
                    best, pr, pc = v, i, j
                    if best == 1:
                        break
            if best == 1:
                break
        if best == 0:
            break
        if pr != t:
            m[t], m[pr] = m[pr], m[t]
        if pc != t:
            for row in m[t:]:
                row[t], row[pc] = row[pc], row[t]

        rt = m[t]
        pivot = rt[t]
        support = [k for k in range(t, ncols) if rt[k]]
        clean = True
        for i in range(t + 1, nrows):
            ri = m[i]
            v = ri[t]
            if v:
                q = v // pivot
                if q:
                    for k in support:
                        ri[k] -= q * rt[k]
                if ri[t]:
                    clean = False
        if not clean:
            continue
        for j in support[1:]:
            rt[j] %= pivot
            if rt[j]:
                clean = False
        if not clean:
            continue

        # A non-unit pivot must divide every remaining entry for the
        # divisibility chain; fold an offending row into row t and redo
        # this step.
        if best > 1:
            offending = -1
            for i in range(t + 1, nrows):
                row = m[i]
                if any(row[j] % pivot for j in range(t + 1, ncols)):
                    offending = i
                    break
            if offending >= 0:
                ri = m[offending]
                for k in range(t, ncols):
                    rt[k] += ri[k]
                continue
        factors.append(abs(pivot))
        t += 1
    return factors


# -- homology -----------------------------------------------------------------

def block_homology(
    keys: Sequence[Hashable],
    edges: Iterable[Tuple[int, int, int]],
    target: Callable[[Hashable], Hashable],
    ring: str,
) -> Dict[Hashable, Tuple[int, Tuple[int, ...]]]:
    """Homology of a chain complex split into blocks, over ``"f2"`` or ``"z"``.

    Generator i sits in block ``keys[i]``; ``edges`` yields each
    differential entry ``(i, j, coeff)`` from generator i to generator j
    once, and the differential maps block k into block ``target(k)``,
    a one-to-one map.  Returns block -> (free rank, torsion orders) for
    every block with nonzero homology.  Over Z one Smith form per matrix
    gives both its rank and the torsion it leaves in its target block.

    Raises ``InvalidDiagram`` when an entry leaves the target block or
    when d∘d is not zero on some pair of composable blocks.
    """
    pos: List[int] = []
    sizes: Dict[Hashable, int] = {}
    for k in keys:
        n = sizes.get(k, 0)
        pos.append(n)
        sizes[k] = n + 1

    # One row per source generator, in both rings.
    f2 = ring == "f2"
    mats: Dict[Hashable, list] = {}
    targets: Dict[Hashable, Hashable] = {}
    for i, j, coeff in edges:
        k = keys[i]
        rows = mats.get(k)
        if rows is None:
            t = targets[k] = target(k)
            if f2:
                rows = mats[k] = [0] * sizes[k]
            else:
                rows = mats[k] = [[0] * sizes.get(t, 0) for _ in range(sizes[k])]
        if keys[j] != targets[k]:
            raise InvalidDiagram([f"differential entry leaves block {k} for {keys[j]}"])
        if f2:
            if coeff % 2:
                rows[pos[i]] ^= 1 << pos[j]
        else:
            rows[pos[i]][pos[j]] += coeff

    mul, is_zero = (f2_mul, f2_is_zero) if f2 else (int_mul, int_is_zero)
    for k, rows in mats.items():
        nxt = mats.get(targets[k])
        if nxt is not None and not is_zero(mul(rows, nxt)):
            raise InvalidDiagram([f"differential does not square to zero from block {k}"])

    rank: Dict[Hashable, int] = {}
    torsion: Dict[Hashable, Tuple[int, ...]] = {}
    for k, rows in mats.items():
        if f2:
            rank[k] = f2_rank(rows)
        else:
            factors = smith_invariant_factors(rows)
            rank[k] = len(factors)
            torsion[targets[k]] = tuple(f for f in factors if f > 1)
    incoming = {t: rank[k] for k, t in targets.items()}

    out: Dict[Hashable, Tuple[int, Tuple[int, ...]]] = {}
    for k, n in sizes.items():
        free = n - rank.get(k, 0) - incoming.get(k, 0)
        tors = torsion.get(k, ())
        if free or tors:
            out[k] = (free, tors)
    return out
