"""Rank, Smith form and block homology checks against hand-computable
matrices and complexes, the Smith form against a dense reference, and
the block walk against the all-blocks reference."""

import pytest
from hypothesis import given, settings, strategies as st

from graphhom import linalg
from graphhom.catalog import braid_closure
from graphhom.errors import InvalidDiagram
from graphhom.khovanov import khovanov_homology
from graphhom.linalg import (
    block_homology,
    f2_is_zero,
    f2_mul,
    f2_rank,
    int_is_zero,
    int_mul,
    smith_invariant_factors,
)
from test_acceptance import CENSUS_LINKS


def test_f2_rank_basic():
    assert f2_rank([]) == 0
    assert f2_rank([0, 0]) == 0
    assert f2_rank([0b11, 0b01, 0b10]) == 2
    assert f2_rank([0b111, 0b011, 0b100]) == 2
    assert f2_rank([1 << 100, 1]) == 2
    # The rows are consumed as they are read.
    rows = [0b11, 0b01, 0b10]
    assert f2_rank(rows) == 2
    assert rows == [0, 0, 0]


def test_f2_mul_and_zero():
    # [[1,1],[0,1]] squared over F2 is [[1,0],[0,1]]; the left factor
    # lists its nonzero entries as (row, column), the right one is
    # bitset rows.
    a = [(0, 0), (0, 1), (1, 1)]
    assert f2_mul(a, 2, [0b11, 0b10]) == [0b01, 0b10]
    assert f2_mul(reversed(a), 2, [0b11, 0b10]) == [0b01, 0b10]
    assert f2_is_zero(f2_mul([(0, 0), (0, 1)], 1, [0b1, 0b1]))
    # An entry listed twice cancels; a row without entries is zero.
    assert f2_mul([(0, 1), (0, 1)], 2, [0b1, 0b10]) == [0, 0]


@given(st.lists(st.integers(min_value=0, max_value=2**12 - 1), max_size=8))
def test_f2_rank_invariant_under_row_xor(rows):
    r = f2_rank(rows[:])
    if len(rows) >= 2:
        mixed = rows[:]
        mixed[0] ^= mixed[1]
        assert f2_rank(mixed) == r


def test_smith_known_forms():
    assert smith_invariant_factors([]) == []
    assert smith_invariant_factors([[0, 0], [0, 0]]) == []
    assert smith_invariant_factors([[1, 0], [0, 1]]) == [1, 1]
    assert smith_invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert smith_invariant_factors([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]
    # presentation of Z/2 + Z/2 inside Z^3
    assert smith_invariant_factors([[2, 0, 0], [0, 2, 0]]) == [2, 2]


def test_smith_rank_matches_obvious_rank():
    assert len(smith_invariant_factors([[1, 2], [2, 4]])) == 1
    assert len(smith_invariant_factors([[1, 2], [3, 4]])) == 2
    assert len(smith_invariant_factors([[0]])) == 0


@given(
    st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_smith_divisibility_chain(rows):
    factors = smith_invariant_factors(rows)
    assert all(f > 0 for f in factors)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    assert len(factors) <= min(len(rows), 3)


# -- Smith form against the dense reference -------------------------------------


def reference_smith(matrix):
    """The dense Smith form, kept as the slow path: every pass reads the
    whole trailing block, and the divisibility scan runs after every
    pivot, unit or not."""
    m = [list(row) for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    factors = []
    t = 0
    while t < nrows and t < ncols:
        pr = pc = -1
        best = 0
        for i in range(t, nrows):
            row = m[i]
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
            for row in m:
                row[t], row[pc] = row[pc], row[t]

        pivot = m[t][t]
        clean = True
        for i in range(t + 1, nrows):
            v = m[i][t]
            if v:
                q = v // pivot
                if q:
                    ri, rt = m[i], m[t]
                    for k in range(t, ncols):
                        ri[k] -= q * rt[k]
                if m[i][t]:
                    clean = False
        if not clean:
            continue
        for j in range(t + 1, ncols):
            v = m[t][j]
            if v:
                q = v // pivot
                if q:
                    for i in range(t, nrows):
                        m[i][j] -= q * m[i][t]
                if m[t][j]:
                    clean = False
        if not clean:
            continue

        # Pivot must divide every remaining entry for the divisibility
        # chain; fold an offending row into row t and redo this step.
        offending = -1
        for i in range(t + 1, nrows):
            row = m[i]
            if any(row[j] % pivot for j in range(t + 1, ncols)):
                offending = i
                break
        if offending >= 0:
            ri, rt = m[offending], m[t]
            for k in range(t, ncols):
                rt[k] += ri[k]
            continue
        factors.append(abs(pivot))
        t += 1
    return factors


# Entries are mostly zeros and units, like a differential's, with a few
# non-units so that the divisibility scan and row folding still run.
ENTRIES = st.sampled_from([0] * 6 + [1, -1] * 3 + [2, -2, 3, -3, 4, -4])


@st.composite
def int_matrices(draw):
    nrows = draw(st.integers(min_value=1, max_value=8))
    ncols = draw(st.integers(min_value=1, max_value=8))
    row = st.lists(ENTRIES, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows))


@given(int_matrices())
def test_smith_matches_reference(rows):
    assert smith_invariant_factors(rows) == reference_smith(rows)


# The braids of the benchmark's khovanov-z workload, 5 to 8 crossings.
KHOVANOV_Z_BRAIDS = [
    ([1] * 5, 2),
    ([1] * 7, 2),
    ([1, 2] * 4, 3),
    ([1, -2] * 4, 3),
    ([1, 1, 1, -2, 1, -2, -2, -2], 3),
]


def test_smith_matches_reference_on_khovanov_blocks(monkeypatch):
    blocks = []

    def recording(matrix):
        blocks.append(matrix)
        return smith_invariant_factors(matrix)

    monkeypatch.setattr(linalg, "smith_invariant_factors", recording)
    census = [make() for make in CENSUS_LINKS.values()]
    for d in census + [braid_closure(w, s) for w, s in KHOVANOV_Z_BRAIDS]:
        khovanov_homology(d, "z")
    assert len(blocks) > 150
    for m in blocks:
        assert smith_invariant_factors(m) == reference_smith(m)


def test_int_mul():
    a = [[1, 2], [3, 4]]
    b = [[0, 1], [1, 0]]
    assert int_mul(a, b) == [[2, 1], [4, 3]]
    assert int_is_zero(int_mul([[1, -1]], [[1, 1], [1, 1]]))


# -- block homology -------------------------------------------------------------
# Blocks are homological degrees 0, 1, 2 with the differential raising
# the degree by one.


def _up(k):
    return k + 1


def test_f2_block_ranks():
    # Degree 0: a, b; degree 1: c, d, e; degree 2: f.
    # d(a) = d(b) = c + d, d(c) = d(d) = f, d(e) = 0; d(d(a)) = 2f = 0 mod 2.
    keys = [0, 0, 1, 1, 1, 2]
    edges = [(0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 5, 1), (3, 5, 1)]
    assert block_homology(keys, iter(edges), _up, "f2") == {0: (1, ()), 1: (1, ())}
    # Without d on degree 1, f survives and c, d, e carry H1 = 3 - 1.
    table = block_homology(keys, iter(edges[:4]), _up, "f2")
    assert table == {0: (1, ()), 1: (2, ()), 2: (1, ())}
    # A coefficient of 2 vanishes mod 2; two entries on one pair cancel.
    assert block_homology([0, 1], [(0, 1, 2)], _up, "f2") == {0: (1, ()), 1: (1, ())}
    assert block_homology([0, 1], [(0, 1, 1), (0, 1, 1)], _up, "f2") == {
        0: (1, ()),
        1: (1, ()),
    }


def test_z_torsion_lands_in_target_block():
    # Z --2--> Z: no free homology, Z/2 in the target block.
    assert block_homology([0, 1], [(0, 1, 2)], _up, "z") == {1: (0, (2,))}
    assert block_homology([0, 1], [(0, 1, 2)], _up, "f2") == {0: (1, ()), 1: (1, ())}
    # Z^2 --[[2, 0], [0, 3]]--> Z^2 leaves Z/6, from the invariant factors 1, 6.
    edges = [(0, 2, 2), (1, 3, 3)]
    assert block_homology([0, 0, 1, 1], edges, _up, "z") == {1: (0, (6,))}
    # Entries on one pair add: 1 + 1 = 2.
    assert block_homology([0, 1], [(0, 1, 1), (0, 1, 1)], _up, "z") == {1: (0, (2,))}


@pytest.mark.parametrize("ring", ["Z", "q", "F2", ""])
def test_unknown_ring_rejected(ring):
    # Ring names are exact: any other name computed over Z before.
    with pytest.raises(ValueError, match="unknown coefficient ring"):
        block_homology([0, 1], [(0, 1, 2)], _up, ring)


@pytest.mark.parametrize("ring", ["f2", "z"])
def test_nonzero_square_raises(ring):
    # a -> b -> c with both maps 1, so d(d(a)) = c.
    with pytest.raises(InvalidDiagram, match="square to zero"):
        block_homology([0, 1, 2], [(0, 1, 1), (1, 2, 1)], _up, ring)


def test_square_zero_only_mod_2():
    # a -> b1, b2 -> c with every map 1: d(d(a)) = 2c, zero over F2 only.
    keys = [0, 1, 1, 2]
    edges = [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)]
    assert block_homology(keys, edges, _up, "f2") == {}
    with pytest.raises(InvalidDiagram, match="square to zero"):
        block_homology(keys, edges, _up, "z")


@pytest.mark.parametrize("ring", ["f2", "z"])
@pytest.mark.parametrize("bad", [0, 1, 2])
def test_nonzero_square_raises_at_each_pair_of_a_chain(ring, bad):
    # Blocks 0 -> 1 -> ... -> 4 hold a_k = 2k and b_k = 2k + 1, with
    # d(a_k) = b_(k+1), so d∘d = 0, until b_(bad+1) also maps to
    # a_(bad+2): then d(d(a_bad)) is not zero.  The walk checks each pair
    # after the rank has consumed its first block's rows.
    keys = [k for k in range(5) for _ in range(2)]
    edges = [(2 * k, 2 * k + 3, 1) for k in range(4)]
    edges.append((2 * bad + 3, 2 * bad + 4, 1))
    with pytest.raises(InvalidDiagram, match=f"square to zero from block {bad}$"):
        block_homology(keys, edges, _up, ring)


@pytest.mark.parametrize("ring", ["f2", "z"])
@pytest.mark.parametrize("y_first", [True, False], ids=["from-100", "from-101"])
def test_square_checked_around_a_cycle(ring, y_first):
    # Blocks 100 and 101 map into each other.  x -> y -> z runs
    # 101 -> 100 -> 101 and nothing runs 100 -> 101 -> 100, so only one
    # of the two products is nonzero; the walk must check both, from
    # whichever block it starts.
    if y_first:
        keys, x, y, z = [100, 101, 101], 1, 0, 2
    else:
        keys, x, y, z = [101, 100, 101], 0, 1, 2
    with pytest.raises(InvalidDiagram, match="square to zero"):
        block_homology(keys, [(x, y, 1), (y, z, 1)], _chain_or_cycle, ring)


@pytest.mark.parametrize("ring", ["f2", "z"])
def test_entry_outside_target_block_raises(ring):
    with pytest.raises(InvalidDiagram, match="leaves block"):
        block_homology([0, 1, 2], [(0, 2, 1)], _up, ring)
    # Also when the target block has no generators at all.
    with pytest.raises(InvalidDiagram, match="leaves block"):
        block_homology([0, 2], [(0, 1, 1)], _up, ring)


# -- the block walk against the all-blocks reference ---------------------------


def reference_block_homology(keys, edges, target, ring):
    """``block_homology`` as first written: every block's bitset or dense
    rows are built at once, and d∘d is checked over F2 by peeling the set
    bits of each bitset row."""

    def bitset_mul(a_rows, b_rows):
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

    pos, sizes = [], {}
    for k in keys:
        n = sizes.get(k, 0)
        pos.append(n)
        sizes[k] = n + 1
    f2 = ring == "f2"
    mats, targets = {}, {}
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
    mul, is_zero = (bitset_mul, f2_is_zero) if f2 else (int_mul, int_is_zero)
    for k, rows in mats.items():
        nxt = mats.get(targets[k])
        if nxt is not None and not is_zero(mul(rows, nxt)):
            raise InvalidDiagram([f"differential does not square to zero from block {k}"])
    rank, torsion = {}, {}
    for k, rows in mats.items():
        if f2:
            rank[k] = f2_rank(rows)
        else:
            factors = smith_invariant_factors(rows)
            rank[k] = len(factors)
            torsion[targets[k]] = tuple(f for f in factors if f > 1)
    incoming = {t: rank[k] for k, t in targets.items()}
    out = {}
    for k, n in sizes.items():
        free = n - rank.get(k, 0) - incoming.get(k, 0)
        tors = torsion.get(k, ())
        if free or tors:
            out[k] = (free, tors)
    return out


def _chain_or_cycle(k):
    """Blocks 0, 1, ... form a chain; blocks 100 and 101 a 2-cycle."""
    return 201 - k if k in (100, 101) else k + 1


@st.composite
def block_complexes(draw):
    """(keys, edges, homology) of a random chain complex with d∘d = 0.

    The complex starts as a sum of cancelling pairs a -> m b and isolated
    generators, so the F2 and Z homology are known, and is then scrambled
    by basis changes e_p -> e_p + e_q within a block: row p of the block's
    matrix gains row q, and the matrix into the block loses column p from
    column q.  Blocks may end up empty, edgeless, or between two edgeless
    blocks of the chain; generators of all blocks interleave.
    """
    blocks = list(range(draw(st.integers(min_value=1, max_value=5))))
    if draw(st.booleans()):
        blocks += [100, 101]
    rows = {k: [] for k in blocks}  # rows[k][p] = {target position: coeff}
    size = dict.fromkeys(blocks, 0)
    expected = {}
    for k in blocks:
        t = _chain_or_cycle(k)
        for _ in range(draw(st.integers(min_value=0, max_value=2)) if t in size else 0):
            # Only order-2 torsion, so the expected orders need no Smith form.
            m = draw(st.sampled_from([1, 1, -1, 2, -2]))
            rows[k].append({size[t]: m})
            rows[t].append({})
            size[k] += 1
            size[t] += 1
            if m in (2, -2):
                free, tors = expected.get(t, (0, ()))
                expected[t] = (free, tors + (2,))
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            rows[k].append({})
            size[k] += 1
            free, tors = expected.get(k, (0, ()))
            expected[k] = (free + 1, tors)
    into = {_chain_or_cycle(k): k for k in blocks}
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        k = draw(st.sampled_from(blocks))
        if size[k] < 2:
            continue
        p = draw(st.integers(min_value=0, max_value=size[k] - 1))
        q = draw(st.integers(min_value=0, max_value=size[k] - 1))
        if p == q:
            continue
        for j, v in rows[k][q].items():
            rows[k][p][j] = rows[k][p].get(j, 0) + v
        for row in rows.get(into.get(k), []):
            if p in row:
                row[q] = row.get(q, 0) - row[p]
    gens = [(k, p) for k in blocks for p in range(size[k])]
    order = draw(st.permutations(range(len(gens))))
    index = {gens[g]: i for i, g in enumerate(order)}
    keys = [gens[g][0] for g in order]
    edges = []
    for k in blocks:
        t = _chain_or_cycle(k)
        for p, row in enumerate(rows[k]):
            for j, v in row.items():
                if v:
                    edges.append((index[k, p], index[t, j], v))
    return keys, edges, expected


@settings(max_examples=150, deadline=None)
@given(block_complexes(), st.sampled_from(["f2", "z"]), st.data())
def test_block_walk_matches_all_blocks_reference(complex_, ring, data):
    keys, edges, expected = complex_
    if edges and data.draw(st.booleans()):
        # A stray entry inside the target block usually breaks d∘d = 0.
        i, j, _ = data.draw(st.sampled_from(edges))
        partners = [g for g, k in enumerate(keys) if k == keys[j]]
        edges = edges + [(i, data.draw(st.sampled_from(partners)), 1)]
        expected = None
    try:
        want = reference_block_homology(keys, iter(edges), _chain_or_cycle, ring)
    except InvalidDiagram:
        with pytest.raises(InvalidDiagram, match="square to zero"):
            block_homology(keys, iter(edges), _chain_or_cycle, ring)
        return
    assert block_homology(keys, iter(edges), _chain_or_cycle, ring) == want
    if expected is not None and ring == "z":
        assert want == expected


@settings(max_examples=100, deadline=None)
@given(block_complexes(), st.sampled_from(["f2", "z"]), st.randoms(use_true_random=False))
def test_block_homology_ignores_edge_order(complex_, ring, rng):
    # Edges need not be grouped by source (the Khovanov cube yields them
    # edge by edge), and ``keys`` may be a one-pass iterator.
    keys, edges, _expected = complex_
    want = block_homology(keys, iter(edges), _chain_or_cycle, ring)
    shuffled = edges[:]
    rng.shuffle(shuffled)
    assert block_homology(iter(keys), iter(shuffled), _chain_or_cycle, ring) == want
