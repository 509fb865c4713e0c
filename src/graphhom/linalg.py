"""Exact linear algebra over F2 and Z.

F2 matrices are lists of Python ints used as bitsets: bit j of row i is
the (i, j) entry.  Integer matrices are dense lists of lists.  Both stay
exact; nothing here floats.  ``block_homology`` takes the homology of a
block-graded chain complex over either ring; both homology flavors of
the package go through it.

``block_homology`` keeps the complex in flat typed arrays: each
generator's block id and position within its block, and each block's
entries as source position, target position and, over Z, coefficient.
No Python object per generator outlives the reading of the input.  It
walks the blocks along the differential and builds a block's bitsets or
dense rows only when the walk reaches it.  Over F2 the rows serve the
d∘d check of the block before and are then consumed by ``f2_rank``, so
one block is held in matrix form at a time, plus the pivots; over Z a
block's dense rows and the next block's are held together for the
check.  ``f2_mul``, behind the F2 d∘d check, reads its left factor as
those entries and does one XOR per nonzero entry.

Differentials are mostly zeros, so the integer loops that run per
entry skip them: ``int_mul``, behind the Z d∘d check, multiplies over
each row's nonzero entries, and the Smith form eliminates over the
pivot row's nonzero columns, clears that row with one remainder per
nonzero entry, and passes over zero rows in its pivot search.  The
pivot search within a nonzero row and the divisibility scan after a
non-unit pivot stay dense.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Hashable, Iterable, List, Sequence, Tuple

from .errors import InvalidDiagram


# -- GF(2) ------------------------------------------------------------------

def f2_rank(rows: List[int]) -> int:
    """Rank by elimination on the highest set bit, keyed by bit length.

    Consumes ``rows``: each is read in order and its slot set to 0, so
    only the pivots outlive the elimination."""
    lead: dict[int, int] = {}
    rank = 0
    for i, r in enumerate(rows):
        rows[i] = 0
        while r:
            pivot = lead.get(r.bit_length())
            if pivot is None:
                lead[r.bit_length()] = r
                rank += 1
                break
            r ^= pivot
    return rank


def f2_mul(
    a_entries: Iterable[Tuple[int, int]], a_height: int, b_rows: Sequence[int]
) -> List[int]:
    """Product of a sparse matrix and a bitset matrix: ``a_entries``
    lists the (row, column) pairs of the nonzero entries of the left
    factor, which has ``a_height`` rows, in any order, and row i of the
    result is the XOR of the b-rows that row i's entries select.  An
    entry listed twice cancels."""
    out = [0] * a_height
    for i, j in a_entries:
        out[i] ^= b_rows[j]
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
    keys: Iterable[Hashable],
    edges: Iterable[Tuple[int, int, int]],
    target: Callable[[Hashable], Hashable],
    ring: str,
) -> Dict[Hashable, Tuple[int, Tuple[int, ...]]]:
    """Homology of a chain complex split into blocks, over ``"f2"`` or ``"z"``.

    Generator i sits in the block named by the i-th key; ``keys`` is read
    once, before ``edges``.  ``edges`` yields each differential entry
    ``(i, j, coeff)`` from generator i to generator j once, in any order,
    and the differential maps block k into block ``target(k)``, a
    one-to-one map.  Returns block -> (free rank, torsion orders) for
    every block with nonzero homology.  Over Z one Smith form per matrix
    gives both its rank and the torsion it leaves in its target block.

    The blocks that carry entries form chains and cycles under
    ``target``.  The walk follows each chain from its head, and then each
    cycle from any block.  Over F2 it builds block k's bitset rows once:
    they serve the d∘d check of the block before k, and then ``f2_rank``
    consumes them, so one block's rows and their pivots are held at a
    time.  Over Z it builds block k's dense rows, takes their Smith form,
    builds the next block's rows for the d∘d check of k, and drops k's.
    A cycle builds its first block's matrix a second time for the check
    that closes it.

    Raises ``ValueError`` for a ring name other than ``"f2"`` or
    ``"z"``, and ``InvalidDiagram`` when an entry leaves the target
    block or when d∘d is not zero on some pair of composable blocks.
    """
    if ring not in ("f2", "z"):
        raise ValueError(f"unknown coefficient ring {ring!r}; use 'z' or 'f2'")
    f2 = ring == "f2"
    ids: Dict[Hashable, int] = {}
    sizes: List[int] = []
    block = array("i")  # block id of each generator
    pos = array("I")  # its position within the block
    for k in keys:
        b = ids.setdefault(k, len(sizes))
        if b == len(sizes):
            sizes.append(0)
        block.append(b)
        pos.append(sizes[b])
        sizes[b] += 1
    names = list(ids)
    nxt = [ids.get(target(k), -1) for k in names]

    # Block b's entries as source position, target position and, over Z,
    # coefficient, each within a signed 64-bit word (array raises
    # OverflowError past it).  Over F2 an even coefficient is no entry.
    # The grid complex yields its entries grouped by source, so what
    # depends on the source alone is looked up once per run of entries.
    src = [array("I") for _ in names]
    dst = [array("I") for _ in names]
    val = None if f2 else [array("q") for _ in names]
    last = None
    for i, j, coeff in edges:
        if i != last:
            last, b, at = i, block[i], pos[i]
            t = nxt[b]
            add_src, add_dst = src[b].append, dst[b].append
        if block[j] != t:
            raise InvalidDiagram(
                [f"differential entry leaves block {names[b]} for {names[block[j]]}"]
            )
        if f2:
            if coeff % 2:
                add_src(at)
                add_dst(pos[j])
        else:
            add_src(at)
            add_dst(pos[j])
            val[b].append(coeff)

    def matrix(b: int) -> list:
        if f2:
            bits = [0] * sizes[b]
            for i, j in zip(src[b], dst[b]):
                bits[i] ^= 1 << j
            return bits
        width = sizes[nxt[b]]
        dense = [[0] * width for _ in range(sizes[b])]
        for i, j, v in zip(src[b], dst[b], val[b]):
            dense[i][j] += v
        return dense

    def squares_to_zero(b: int, rows: list, next_rows: list) -> bool:
        if f2:
            return f2_is_zero(f2_mul(zip(src[b], dst[b]), sizes[b], next_rows))
        return int_is_zero(int_mul(rows, next_rows))

    live = [len(e) > 0 for e in src]
    rank = [0] * len(names)
    torsion: Dict[int, Tuple[int, ...]] = {}
    seen = [False] * len(names)

    def walk(b: int) -> None:
        rows = matrix(b)
        while True:
            seen[b] = True
            if f2:
                rank[b] = f2_rank(rows)
            else:
                factors = smith_invariant_factors(rows)
                rank[b] = len(factors)
                torsion[nxt[b]] = tuple(f for f in factors if f > 1)
            t = nxt[b]  # a block with entries has a target block
            if not live[t]:
                return
            next_rows = matrix(t)
            if not squares_to_zero(b, rows, next_rows):
                raise InvalidDiagram(
                    [f"differential does not square to zero from block {names[b]}"]
                )
            if seen[t]:
                return
            b, rows = t, next_rows

    heads = set(range(len(names))) - {t for b, t in enumerate(nxt) if live[b]}
    for b in sorted(heads) + list(range(len(names))):
        if live[b] and not seen[b]:
            walk(b)

    incoming = [0] * len(names)
    for b, t in enumerate(nxt):
        if live[b]:
            incoming[t] += rank[b]
    out: Dict[Hashable, Tuple[int, Tuple[int, ...]]] = {}
    for b, k in enumerate(names):
        free = sizes[b] - rank[b] - incoming[b]
        tors = torsion.get(b, ())
        if free or tors:
            out[k] = (free, tors)
    return out
