"""Grid presentations of link diagrams.

A grid of size n places one X and one O marker in every row and every
column, with the two markers of a row never sharing a cell.  Row 0 is
drawn topmost.  Horizontal segments run O -> X, vertical segments run
X -> O, and verticals always cross over horizontals, so the pair of
permutations determines an oriented link.

Conversion from a planar diagram goes through braid form: Seifert
circles are made coherently nested by poking strands across defect
faces (a type II move through any face bordered by two same-sense arcs
of distinct circles), the braid word is read off the nested annuli and
checked by the oriented Jones and Alexander polynomials of its closure,
and the closed braid is laid out on a grid column by column.

The braid word also gives ``conway`` the Conway polynomial through a
Seifert matrix; the tests hold it against a skein recursion.
"""

from collections import deque
from dataclasses import dataclass
from functools import reduce
from typing import Dict, List, Optional, Sequence, Tuple

from .catalog import braid_closure
from .diagrams import Dart, GraphDiagram, union_classes
from .errors import InvalidDiagram, RoutingFailure
from .invariants import _det_poly, _is_split, alexander, jones, reduce_diagram
from .laurent import Laurent, T, Z, alexander_to_conway
from .moves import _r2_insert, crossing_from_compass

# Most grids one commutation search of simplify_grid visits.
SIMPLIFY_SEARCH_CAP = 4000

# Longest extracted braid word whose closure is checked by oriented Jones
# and Alexander against its piece; Khovanov homology has the same bound.
BRAID_CHECK_CAP = 14


@dataclass(frozen=True)
class GridDiagram:
    """Two marker permutations; X[r] and O[r] are the columns used by row r."""

    n: int
    X: Tuple[int, ...]
    O: Tuple[int, ...]

    def __post_init__(self) -> None:
        problems: List[str] = []
        if self.n < 2:
            problems.append("grid size must be at least 2")
        for name, perm in (("X", self.X), ("O", self.O)):
            if len(perm) != self.n or sorted(perm) != list(range(self.n)):
                problems.append(f"{name} is not a permutation of 0..{self.n - 1}")
        if not problems:
            for r in range(self.n):
                if self.X[r] == self.O[r]:
                    problems.append(f"row {r} places both markers in one cell")
        if problems:
            raise InvalidDiagram(problems)

    def component_count(self) -> int:
        seen = [False] * self.n
        cycles = 0
        for start in range(self.n):
            if seen[start]:
                continue
            cycles += 1
            r = start
            while not seen[r]:
                seen[r] = True
                r = self.O.index(self.X[r])
        return cycles

    def to_json(self) -> Dict:
        return {"n": self.n, "X": list(self.X), "O": list(self.O)}

    @staticmethod
    def from_json(payload: Dict) -> "GridDiagram":
        if not isinstance(payload, dict):
            raise InvalidDiagram(["grid payload must be an object"])
        missing = [k for k in ("n", "X", "O") if k not in payload]
        if missing:
            raise InvalidDiagram([f"grid payload lacks key {k!r}" for k in missing])
        unknown = sorted(set(payload) - {"n", "X", "O"})
        if unknown:
            raise InvalidDiagram(["unknown keys " + ", ".join(repr(k) for k in unknown)])
        n, xs, os_ = payload["n"], payload["X"], payload["O"]
        if type(n) is not int or not all(
            isinstance(v, list) and all(type(u) is int for u in v) for v in (xs, os_)
        ):
            raise InvalidDiagram(["grid payload fields n, X and O must be an integer and two integer lists"])
        return GridDiagram(n, tuple(xs), tuple(os_))


def translate(g: GridDiagram, dr: int, dc: int) -> GridDiagram:
    """Cyclic shift; moving the outermost strand across infinity keeps the link."""
    n = g.n
    xs, os_ = [0] * n, [0] * n
    for r in range(n):
        xs[(r + dr) % n] = (g.X[r] + dc) % n
        os_[(r + dr) % n] = (g.O[r] + dc) % n
    return GridDiagram(n, tuple(xs), tuple(os_))


def grid_union(a: GridDiagram, b: GridDiagram) -> GridDiagram:
    """Block-diagonal sum presenting the split union of the two links."""
    shift = a.n
    return GridDiagram(
        a.n + b.n,
        a.X + tuple(c + shift for c in b.X),
        a.O + tuple(c + shift for c in b.O),
    )


# -- destabilization -------------------------------------------------------------


def _three_marker_blocks(g: GridDiagram) -> Dict[Tuple[int, int], int]:
    """Top-left cell -> row t of each 2x2 block with three markers."""
    n, blocks = g.n, {}
    for t in range(n):
        for c in (g.X[t], g.O[t]):
            cols = {c, (c + 1) % n}
            if cols == {g.X[t], g.O[t]}:
                above, below = (t - 1) % n, (t + 1) % n
                for r, s in ((above, above), (t, below)):
                    if len(cols & {g.X[s], g.O[s]}) == 1:
                        blocks[(r, c)] = t
    return blocks


def find_destabilization(g: GridDiagram) -> Optional[Tuple[int, int]]:
    """Top-left cell of the first 2x2 block in row-major order holding
    three markers: row t's X and O in cyclically adjacent columns, and
    one marker of a row next to t in those columns."""
    return min(_three_marker_blocks(g), default=None)


def destabilize(g: GridDiagram, r: int, c: int) -> GridDiagram:
    """Collapse the three-marker block at (r, c) to one marker: delete
    its row t holding two markers and merge columns c and c+1.  The lone
    marker shares a column with one of row t's two, so it has the kind
    of the other, and the merged column keeps one X and one O."""
    n = g.n
    if not (0 <= r < n and 0 <= c < n):
        raise InvalidDiagram([f"block at ({r}, {c}) lies outside the {n} x {n} grid"])
    t = _three_marker_blocks(g).get((r, c))
    if t is None:
        k = sum(m in (c, (c + 1) % n) for s in (r, (r + 1) % n) for m in (g.X[s], g.O[s]))
        raise InvalidDiagram([f"block at ({r}, {c}) has {k} markers, not 3"])
    dr, dc = r == n - 1, c == n - 1
    if dr or dc:
        return destabilize(translate(g, dr, dc), (r + dr) % n, (c + dc) % n)
    keep = [s for s in range(n) if s != t]
    return GridDiagram(n - 1, *(tuple(p[s] - (p[s] > c) for s in keep) for p in (g.X, g.O)))


def _spans_commute(p: Tuple[int, int], q: Tuple[int, int]) -> bool:
    (a1, b1), (a2, b2) = sorted(p), sorted(q)
    disjoint = b1 < a2 or b2 < a1
    nested = (a1 < a2 and b2 < b1) or (a2 < a1 and b1 < b2)
    return disjoint or nested


_Markers = Tuple[Tuple[int, ...], Tuple[int, ...]]


def _swap_rows(xs: Tuple[int, ...], os_: Tuple[int, ...], r: int) -> Optional[_Markers]:
    """X and O with rows r and r+1 swapped, when their column spans are
    nested or disjoint."""
    if not (0 <= r < len(xs) - 1 and _spans_commute((xs[r], os_[r]), (xs[r + 1], os_[r + 1]))):
        return None
    return xs[:r] + (xs[r + 1], xs[r]) + xs[r + 2:], os_[:r] + (os_[r + 1], os_[r]) + os_[r + 2:]


def _swap_cols(xs: Tuple[int, ...], os_: Tuple[int, ...], c: int) -> Optional[_Markers]:
    """X and O with columns c and c+1 swapped, when their row spans are
    nested or disjoint."""
    if not (0 <= c < len(xs) - 1 and _spans_commute(*((xs.index(u), os_.index(u)) for u in (c, c + 1)))):
        return None
    swap = {c: c + 1, c + 1: c}
    return tuple(swap.get(m, m) for m in xs), tuple(swap.get(m, m) for m in os_)


def commute_rows(g: GridDiagram, r: int) -> Optional[GridDiagram]:
    """Swap rows r and r+1 when their column spans are nested or disjoint."""
    swapped = _swap_rows(g.X, g.O, r)
    return None if swapped is None else GridDiagram(g.n, *swapped)


def commute_cols(g: GridDiagram, c: int) -> Optional[GridDiagram]:
    """Swap columns c and c+1 when their row spans are nested or disjoint."""
    swapped = _swap_cols(g.X, g.O, c)
    return None if swapped is None else GridDiagram(g.n, *swapped)


def simplify_grid(g: GridDiagram) -> GridDiagram:
    """Greedy destabilization; commutations are searched breadth-first at
    fixed size until one exposes a destabilization, so n never increases.
    A commutation's markers are looked up among those already seen
    before a grid is built from them."""
    while True:
        pos = find_destabilization(g)
        if pos is not None:
            g = destabilize(g, *pos)
            continue
        frontier = deque([g])
        seen = {(g.X, g.O)}
        unlocked = None
        while frontier and unlocked is None and len(seen) < SIMPLIFY_SEARCH_CAP:
            state = frontier.popleft()
            xs, os_ = state.X, state.O
            for swapped in [_swap_rows(xs, os_, r) for r in range(state.n - 1)] + [
                _swap_cols(xs, os_, c) for c in range(state.n - 1)
            ]:
                if swapped is None or swapped in seen:
                    continue
                seen.add(swapped)
                trial = GridDiagram(state.n, *swapped)
                if find_destabilization(trial) is not None:
                    unlocked = trial
                    break
                frontier.append(trial)
        if unlocked is None:
            return g
        g = unlocked


# -- grid to planar diagram -----------------------------------------------------


def grid_to_diagram(g: GridDiagram) -> GraphDiagram:
    """Planar diagram of the drawn grid; verticals cross over horizontals."""
    n = g.n
    row_x = {c: r for r, c in enumerate(g.X)}
    row_o = {c: r for r, c in enumerate(g.O)}
    crossings_at: Dict[Tuple[int, int], int] = {}
    for r in range(n):
        lo, hi = sorted((g.X[r], g.O[r]))
        for c in range(lo + 1, hi):
            vlo, vhi = sorted((row_x[c], row_o[c]))
            if vlo < r < vhi:
                crossings_at[(r, c)] = len(crossings_at)

    def row_passages(r: int) -> List[int]:
        cols = sorted(c for (t, c) in crossings_at if t == r)
        if g.O[r] > g.X[r]:
            cols.reverse()
        return [crossings_at[(r, c)] for c in cols]

    def col_passages(c: int) -> List[int]:
        rows = sorted(t for (t, u) in crossings_at if u == c)
        if row_x[c] > row_o[c]:
            rows.reverse()
        return [crossings_at[(r, c)] for r in rows]

    under_arcs: Dict[int, Tuple[int, int]] = {}
    over_arcs: Dict[int, Tuple[int, int]] = {}
    loops = 0
    next_arc = 0
    seen_rows = [False] * n
    for start in range(n):
        if seen_rows[start]:
            continue
        stops: List[Tuple[int, bool]] = []
        r = start
        while not seen_rows[r]:
            seen_rows[r] = True
            stops.extend((cid, True) for cid in row_passages(r))
            stops.extend((cid, False) for cid in col_passages(g.X[r]))
            r = row_o[g.X[r]]
        if not stops:
            loops += 1
            continue
        first = next_arc
        for k, (cid, under) in enumerate(stops):
            arc_in = first + k
            arc_out = first + (k + 1) % len(stops)
            (under_arcs if under else over_arcs)[cid] = (arc_in, arc_out)
        next_arc += len(stops)

    crossings: List[Tuple[int, int, int, int]] = [None] * len(crossings_at)
    heads: Dict[int, Dart] = {}
    for (r, c), cid in crossings_at.items():
        u_in, u_out = under_arcs[cid]
        o_in, o_out = over_arcs[cid]
        east = g.O[r] < g.X[r]
        south = row_x[c] < row_o[c]
        rays = {
            "W" if east else "E": u_in,
            "E" if east else "W": u_out,
            "N" if south else "S": o_in,
            "S" if south else "N": o_out,
        }
        tup, slot_of = crossing_from_compass(rays, "W" if east else "E")
        crossings[cid] = tup
        heads[u_in] = ("x", cid, slot_of["W" if east else "E"])
        heads[o_in] = ("x", cid, slot_of["N" if south else "S"])
    return GraphDiagram([list(t) for t in crossings], [], loops, heads).validate_strict()


# -- planar diagram to braid form ------------------------------------------------


def seifert_classes(d: GraphDiagram) -> Dict[int, int]:
    """Arc -> circle label (its smallest arc) after smoothing every
    crossing along orientation."""
    pairs = []
    for i, c in enumerate(d.crossings):
        if d.crossing_sign(i) > 0:
            pairs += ((c[0], c[1]), (c[2], c[3]))
        else:
            pairs += ((c[0], c[3]), (c[1], c[2]))
    return union_classes(d.arc_ids(), pairs)


def _dart_sense(d: GraphDiagram, dart: Dart) -> bool:
    """True when the face traversal through this corner runs with the arc."""
    return d.heads[d.arc_at(dart)] != dart


def _defect_pair(d: GraphDiagram, classes: Dict[int, int]) -> Optional[Tuple[Dart, Dart]]:
    for face in d.faces():
        for i in range(len(face)):
            for j in range(i + 1, len(face)):
                if classes[d.arc_at(face[i])] == classes[d.arc_at(face[j])]:
                    continue
                if _dart_sense(d, face[i]) == _dart_sense(d, face[j]):
                    return (face[i], face[j])
    return None


_NEXT_SLOT = {1: {0: 1, 3: 2}, -1: {0: 3, 1: 2}}


def _circle_walks(d: GraphDiagram, classes: Dict[int, int]) -> Dict[int, List[int]]:
    """Crossing sequence met by each Seifert circle, in traversal order."""
    walks: Dict[int, List[int]] = {}
    for label in sorted(set(classes.values())):
        start = min(a for a in classes if classes[a] == label)
        arc, seq = start, []
        while True:
            kind, i, s = d.heads[arc]
            if kind != "x":
                raise InvalidDiagram(["braid conversion expects a link diagram"])
            seq.append(i)
            arc = d.crossings[i][_NEXT_SLOT[d.crossing_sign(i)][s]]
            if arc == start:
                break
        walks[label] = seq
    return walks


def _rotate_min(items: Sequence[int]) -> List[int]:
    k = items.index(min(items))
    return list(items[k:]) + list(items[:k])


def braid_word(d: GraphDiagram) -> Tuple[List[int], int]:
    """Braid whose closure is the connected link diagram d.

    Defect faces are poked away first, so the Seifert circles nest into
    annuli; the word lists the crossings in angular order with one
    generator per annulus.
    """
    if not d.crossings:
        raise InvalidDiagram(["braid conversion needs at least one crossing"])
    classes = seifert_classes(d)
    guard = 2 * len(set(classes.values())) ** 2 + 10
    for _ in range(guard):
        pair = _defect_pair(d, classes)
        if pair is None:
            break
        d = _r2_insert(d, pair[0], pair[1], True)
        classes = seifert_classes(d)
    else:
        raise RoutingFailure("defect faces persist after the poke budget")

    pair_of: Dict[int, Tuple[int, int]] = {}
    adjacency: Dict[int, set] = {}
    for i, c in enumerate(d.crossings):
        labels = {classes[a] for a in c}
        if len(labels) != 2:
            raise RoutingFailure("crossing joins a Seifert circle to itself")
        a, b = sorted(labels)
        pair_of[i] = (a, b)
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)

    ends = sorted(v for v, nb in adjacency.items() if len(nb) == 1)
    if len(adjacency) == 1 or len(ends) != 2 or any(
        len(nb) > 2 for nb in adjacency.values()
    ):
        raise RoutingFailure("nested circles do not form a single chain")
    path = [ends[0]]
    while len(path) < len(adjacency):
        step = adjacency[path[-1]] - set(path[-2:])
        if len(step) != 1:
            raise RoutingFailure("nested circles do not form a single chain")
        path.append(step.pop())
    position = {label: k for k, label in enumerate(path)}

    walks = _circle_walks(d, classes)
    order = walks[path[0]]
    for k in range(1, len(path)):
        walk = walks[path[k]]
        anchors = [i for i in walk if position[pair_of[i][0]] == k - 1
                   or position[pair_of[i][1]] == k - 1]
        anchor_set = set(anchors)
        if _rotate_min([i for i in order if i in anchor_set]) != _rotate_min(anchors):
            raise RoutingFailure("annulus orders disagree between circle walks")
        shift = walk.index(anchors[0])
        walk = walk[shift:] + walk[:shift]
        merged: List[int] = []
        for i in order:
            merged.append(i)
            if i in anchor_set:
                at = walk.index(i) + 1
                while at < len(walk) and walk[at] not in anchor_set:
                    merged.append(walk[at])
                    at += 1
        order = merged

    word = []
    for i in _rotate_min(order):
        a, b = pair_of[i]
        word.append(d.crossing_sign(i) * (min(position[a], position[b]) + 1))
    return word, len(path)


# -- braid closure on a grid -----------------------------------------------------


def braid_to_grid(word: Sequence[int], strands: int) -> GridDiagram:
    """Grid of the closed braid: strand columns descend, return columns rise."""
    descend = [("d", j) for j in range(strands)]
    cols = descend + [("r", j) for j in reversed(range(strands))]
    rows: List[Tuple[Tuple, Tuple]] = []
    for j in range(strands):
        rows.append(((("d", j), "X"), (("r", j), "O")))
    pos = list(descend)
    for k, letter in enumerate(word):
        p = abs(letter) - 1
        if not 0 <= p < strands - 1:
            raise InvalidDiagram([f"braid letter {letter} exceeds {strands} strands"])
        new = ("s", k)
        if letter > 0:
            cols.insert(cols.index(pos[p + 1]) + 1, new)
            rows.append(((pos[p], "O"), (new, "X")))
            pos[p], pos[p + 1] = pos[p + 1], new
        else:
            cols.insert(cols.index(pos[p]), new)
            rows.append(((pos[p + 1], "O"), (new, "X")))
            pos[p], pos[p + 1] = new, pos[p]
    for j in reversed(range(strands)):
        rows.append(((pos[j], "O"), (("r", j), "X")))
    index = {key: k for k, key in enumerate(cols)}
    xs, os_ = [-1] * len(rows), [-1] * len(rows)
    for r, mark_pair in enumerate(rows):
        for key, kind in mark_pair:
            (xs if kind == "X" else os_)[r] = index[key]
    return GridDiagram(len(rows), tuple(xs), tuple(os_))


# -- full conversion ---------------------------------------------------------------


def split_pieces(d: GraphDiagram) -> List[GraphDiagram]:
    """The split pieces of a link diagram, for grid conversion: each
    connected piece with its arcs and crossings numbered from 0, then a
    crossing-free loop per loop."""
    if not d.is_link():
        raise InvalidDiagram(["grid conversion expects a link diagram"])
    pieces = []
    for sites in d.site_components():
        members = sorted(i for _, i in sites)
        arcs = sorted({a for i in members for a in d.crossings[i]})
        arc_map = {a: k for k, a in enumerate(arcs)}
        site_map = {i: k for k, i in enumerate(members)}
        crossings = [[arc_map[a] for a in d.crossings[i]] for i in members]
        heads = {}
        for a in arcs:
            kind, i, s = d.heads[a]
            heads[arc_map[a]] = (kind, site_map[i], s)
        pieces.append(GraphDiagram(crossings, [], 0, heads))
    pieces += [GraphDiagram([], [], 1)] * d.loops
    if not pieces:
        raise InvalidDiagram(["empty diagram has no grid presentation"])
    return pieces


def _checked_braid(piece: GraphDiagram) -> Tuple[List[int], int]:
    """``braid_word`` of a connected piece, checked by oriented Jones and
    Alexander up to ``BRAID_CHECK_CAP`` letters (RoutingFailure on a
    mismatch).  Longer words go unchecked: the bracket and Alexander
    determinants grow with the word, for closure and piece alike."""
    word, strands = braid_word(piece)
    if len(word) <= BRAID_CHECK_CAP:
        closure = braid_closure(word, strands)
        if jones(closure) != jones(piece) or alexander(closure) != alexander(piece):
            raise RoutingFailure("extracted braid closure presents a different link")
    return word, strands


def piece_grids(d: GraphDiagram) -> List[GridDiagram]:
    """One grid per split piece of a reduced link diagram: the closure of
    a connected piece's ``_checked_braid``, the 2 x 2 unknot for a loop.
    The caller reduces; ``pd_to_grid`` takes any diagram."""
    unknot = GridDiagram(2, (1, 0), (0, 1))
    return [braid_to_grid(*_checked_braid(p)) if p.crossings else unknot for p in split_pieces(d)]


def pd_to_grid(d: GraphDiagram) -> GridDiagram:
    """Grid presentation of the oriented link: the piece grids of its
    reduced diagram stacked block-diagonally."""
    return reduce(grid_union, piece_grids(reduce_diagram(d)))


# -- Conway polynomial from the braid's Seifert matrix ----------------------------


def conway(d: GraphDiagram) -> Laurent:
    """Conway polynomial of a reduced link diagram, which the caller
    reduces: nabla(t^(1/2) - t^(-1/2)) = det(V - t V^T) t^(-m/2) for the
    m x m Seifert matrix V of the diagram's ``_checked_braid``;
    det(t V - V^T) would negate every link with an even number of
    components.  The surface is a disk per strand and a half-twisted band
    per letter (J. Collins, An algorithm for computing the Seifert
    matrix of a link from a braid representation).  A loop
    (p, q) runs up the band of letter p and down that of q, the next
    letter on its generator; with letter signs e, V[(p, q)][(p, q)] =
    -(e_p + e_q)/2, V[(p, q)][(q, s)] = 1 if e_q > 0 and V[(q, s)][(p, q)]
    = -1 if not, and for a loop (r, s) of the next generator
    V[(r, s)][(p, q)] = 1 if p < r < q < s, -1 if r < p < s < q; 0 elsewhere.
    """
    if not d.is_link():
        raise InvalidDiagram(["Conway polynomial is defined for link diagrams"])
    if not d.crossings or _is_split(d):
        return Laurent.one(Z) if not d.crossings and d.loops == 1 else Laurent.zero(Z)
    (piece,) = split_pieces(d)
    word, strands = _checked_braid(piece)
    loops = []
    for i in range(1, strands):
        at = [k for k, letter in enumerate(word) if abs(letter) == i]
        loops.extend((i, p, q) for p, q in zip(at, at[1:]))
    e = [1 if letter > 0 else -1 for letter in word]
    v = [[0] * len(loops) for _ in loops]
    for x, (i, p, q) in enumerate(loops):
        v[x][x] = -(e[p] + e[q]) // 2
        for y, (j, r, s) in enumerate(loops):
            if j == i and r == q:
                v[x][y], v[y][x] = (e[q] + 1) // 2, (e[q] - 1) // 2
            elif j == i + 1:
                v[y][x] = 1 if p < r < q < s else -1 if r < p < s < q else 0
    m = len(v)
    poly = _det_poly([[[v[x][y], -v[y][x]] for y in range(m)] for x in range(m)])
    return alexander_to_conway(Laurent(T, {(2 * k - m,): c for k, c in enumerate(poly)}))
