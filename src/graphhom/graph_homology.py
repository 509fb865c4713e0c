"""Graph homology assembly: link-family direct sums with Euler
bookkeeping.

The floer and khovanov flavors aggregate the per-member link homologies
over the distinct members of the replacement family.  Members whose
computation would breach a size cap are skipped with a reason instead
of failing the whole report, and any skip downgrades the corresponding
Euler verdict from pass/fail to partial.

Within one ``graph_homology`` call the members share, by exact form,
each split piece's checked braid, grid, hat and total homology and each
loop-free core's Khovanov table; each member checks its own tables
against its own Alexander and Jones polynomials and component count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .bigraded import BigradedDims
from .diagrams import GraphDiagram
from .floer import (
    FLOER_GRID_CAP,
    euler_matches_skein,
    hat_euler,
    hat_from_grid,
    skein_euler_target,
    total_homology_from_grid,
)
from .grid import piece_grids, simplify_grid, split_pieces
from .invariants import Fingerprint, alexander
from .kauffman import family
from .khovanov import KHOVANOV_CROSSING_CAP, graded_euler, khovanov_homology, tensor_loops, unnormalized_jones
from .laurent import Laurent, T, U

SKIP_GRID = "floer: skipped (grid too large)"
SKIP_CROSSINGS = "khovanov: skipped (too many crossings)"


@dataclass(frozen=True)
class MemberReport:
    """One distinct family member's homologies, or the reason they were
    skipped."""

    fingerprint: Fingerprint
    multiplicity: int
    grid_size: Optional[int] = None
    floer: Optional[BigradedDims] = None
    floer_skip: Optional[str] = None
    floer_euler: Optional[Laurent] = None
    floer_check: Optional[dict] = None
    total_poincare: Optional[Laurent] = None
    total_check: Optional[str] = None
    khovanov: Optional[BigradedDims] = None
    khovanov_skip: Optional[str] = None
    khovanov_euler: Optional[Laurent] = None
    jones_check: Optional[str] = None
    # The Alexander polynomial of a Floer-computed member, which the
    # aggregates sum; not part of the JSON report.
    alexander: Optional[Laurent] = None

    def to_json(self) -> dict:
        """Every field that is set, but ``alexander``."""
        return {
            name: value.to_json() if hasattr(value, "to_json") else value
            for name, value in vars(self).items()
            if value is not None and name != "alexander"
        }


@dataclass(frozen=True)
class GraphHomologyReport:
    """Family summary plus per-member and aggregate homology tables."""

    assignments: int
    members: Tuple[MemberReport, ...]
    multiset: bool
    empty_family: bool
    aggregate_floer: Optional[BigradedDims] = None
    aggregate_floer_euler: Optional[Laurent] = None
    aggregate_skein_target: Optional[Laurent] = None
    aggregate_alexander_sum: Optional[Laurent] = None
    aggregate_khovanov: Optional[BigradedDims] = None
    aggregate_khovanov_euler: Optional[Laurent] = None
    verdicts: Dict[str, str] = field(default_factory=dict)

    def to_json(self) -> dict:
        doc: dict = {
            "assignments": self.assignments,
            "distinct_members": len(self.members),
            "multiset": self.multiset,
            "empty_family": self.empty_family,
            "members": [m.to_json() for m in self.members],
            "verdicts": self.verdicts,
        }
        if self.aggregate_floer is not None:
            doc["aggregate_floer"] = self.aggregate_floer.to_json()
            doc["aggregate_floer_euler"] = self.aggregate_floer_euler.to_json()
            doc["aggregate_skein_target"] = self.aggregate_skein_target.to_json()
            doc["aggregate_alexander_sum"] = self.aggregate_alexander_sum.to_json()
        if self.aggregate_khovanov is not None:
            doc["aggregate_khovanov"] = self.aggregate_khovanov.to_json()
            doc["aggregate_khovanov_euler"] = self.aggregate_khovanov_euler.to_json()
        return doc


def _weighted(dims: BigradedDims, weight: int) -> BigradedDims:
    """The direct sum of ``weight`` copies of ``dims``."""
    return BigradedDims({k: (r * weight, t * weight) for k, (r, t) in dims.dims.items()})


def _expected_total(ell: int) -> Laurent:
    return Laurent(U, {(1,): 1, (-1,): 1}) ** (ell - 1)


# What each split piece past the first adds: HFK^(L1 u L2) is
# HFK^(L1) (x) HFK^(L2) (x) V, and V is the hat homology of the
# two-component unlink (Maslov +-1/2, Alexander 0, doubled); the total
# homology gains the factor u^1/2 + u^-1/2.
_HAT_SPLIT_FACTOR = BigradedDims.of_ranks({(1, 0): 1, (-1, 0): 1})
_TOTAL_SPLIT_FACTOR = _expected_total(2)


def _piece_tables(reduced: GraphDiagram, tables: dict) -> List[dict]:
    """The table of each split piece of a reduced link diagram: its
    simplified grid under "grid", to which ``floer_fields`` adds the hat
    and total homology.  ``tables`` keeps one per exact form of piece, so
    a piece met again is braided, checked and computed only once."""
    out = []
    for piece in split_pieces(reduced):
        key = ("piece", piece.exact_form())
        if key not in tables:
            tables[key] = {"grid": simplify_grid(*piece_grids(piece))}
        out.append(tables[key])
    return out


def floer_fields(pieces: Sequence[dict], diagram: GraphDiagram, cap: int = FLOER_GRID_CAP) -> dict:
    """Hat and total homology of the link ``diagram``, whose split pieces
    have the tables ``pieces`` (``_piece_tables``), checked against what
    the whole link predicts: the hat Euler characteristic against the
    skein polynomial of the Alexander polynomial of ``diagram``, which is
    kept as ``alexander``, the total homology against (u^1/2 + u^-1/2)^(l-1).

    Each table gets its piece's hat and total once, from its own grid, and
    the pieces are tensored, with one rank-two factor per piece past the
    first.  ``cap`` bounds the largest piece, since the total complex of a
    piece has n! generators: when a piece is over it, the link gets a skip
    reason and no Alexander polynomial.  ``grid_size`` is the sum of the
    piece sizes, the size of the stacked grid.
    """
    fields: dict = {"grid_size": sum(p["grid"].n for p in pieces)}
    if max(p["grid"].n for p in pieces) > cap:
        fields["floer_skip"] = SKIP_GRID
        return fields
    for p in pieces:
        if "hat" not in p:
            p["hat"] = hat_from_grid(p["grid"], cap)
            p["total"] = total_homology_from_grid(p["grid"], cap)
    hat, total = pieces[0]["hat"], pieces[0]["total"]
    for p in pieces[1:]:
        hat = hat.tensor_ranks(p["hat"]).tensor_ranks(_HAT_SPLIT_FACTOR)
        total = total * p["total"] * _TOTAL_SPLIT_FACTOR
    components = sum(p["grid"].component_count() for p in pieces)
    delta = alexander(diagram)
    fields["floer"] = hat
    fields["floer_euler"] = hat_euler(hat)
    fields["floer_check"] = euler_matches_skein(hat, diagram, delta)
    fields["alexander"] = delta
    fields["total_poincare"] = total
    fields["total_check"] = "pass" if total == _expected_total(components) else "fail"
    return fields


def _member_fields(
    reduced: GraphDiagram,
    tables: dict,
    floer: bool = True,
    khovanov: bool = True,
    coeffs: str = "z",
    grid_cap: int = FLOER_GRID_CAP,
    crossing_cap: int = KHOVANOV_CROSSING_CAP,
) -> dict:
    """The ``MemberReport`` fields of one reduced link diagram, the one
    per-link path.  ``tables`` holds what links share, by exact form: the
    ``_piece_tables`` and the Khovanov table of each loop-free core, to
    which ``tensor_loops`` adds the loops.  The checks are the link's own."""
    fields: dict = {}
    if floer:
        fields.update(floer_fields(_piece_tables(reduced, tables), reduced, grid_cap))
    if khovanov and len(reduced.crossings) > crossing_cap:
        fields["khovanov_skip"] = SKIP_CROSSINGS
    elif khovanov:
        core = GraphDiagram(reduced.crossings, [], 0, reduced.heads)
        key = ("core", core.exact_form())
        if key not in tables:
            tables[key] = khovanov_homology(core, coeffs, crossing_cap)
        dims = tensor_loops(tables[key], reduced.loops)
        euler = graded_euler(dims)
        check = "pass" if euler == unnormalized_jones(reduced) else "fail"
        fields.update(khovanov=dims, khovanov_euler=euler, jones_check=check)
    return fields


def graph_homology(
    g: GraphDiagram,
    floer: bool = True,
    khovanov: bool = True,
    coeffs: str = "z",
    grid_cap: int = FLOER_GRID_CAP,
    crossing_cap: int = KHOVANOV_CROSSING_CAP,
    multiset: bool = False,
) -> GraphHomologyReport:
    """Direct-sum homology report over the graph's link family.

    Everything past the member reports is read off them: each aggregate
    table sums the members whose table was computed, weighted by
    multiplicity under ``multiset``; the aggregate Euler polynomials are
    those of the aggregate tables; a skipped member turns its flavor's
    verdict from pass to partial."""
    fam = family(g)
    tables: dict = {}
    members = tuple(
        MemberReport(
            fingerprint=fm.fingerprint,
            multiplicity=fm.multiplicity,
            **_member_fields(fm.reduced, tables, floer, khovanov, coeffs, grid_cap, crossing_cap),
        )
        for fm in fam.members
    )
    weighted = [(m, m.multiplicity if multiset else 1) for m in members]
    aggregates: dict = {}
    verdicts: Dict[str, str] = {}
    if floer:
        done = [(m, w) for m, w in weighted if m.floer is not None]
        table = _direct_sum(_weighted(m.floer, w) for m, w in done)
        aggregates["aggregate_floer"] = table
        aggregates["aggregate_floer_euler"] = hat_euler(table)
        aggregates["aggregate_skein_target"] = sum(
            (skein_euler_target(m.alexander, m.fingerprint.components).scale(w) for m, w in done),
            Laurent.zero(T),
        )
        aggregates["aggregate_alexander_sum"] = sum((m.alexander.scale(w) for m, w in done), Laurent.zero(T))
        verdicts["floer_euler"] = _verdict(
            None if m.floer is None else "fail" if m.total_check == "fail" else m.floer_check["verdict"]
            for m in members
        )
    if khovanov:
        table = _direct_sum(_weighted(m.khovanov, w) for m, w in weighted if m.khovanov is not None)
        aggregates["aggregate_khovanov"] = table
        aggregates["aggregate_khovanov_euler"] = graded_euler(table)
        verdicts["khovanov_euler"] = _verdict(m.jones_check for m in members)
    return GraphHomologyReport(
        assignments=fam.assignments,
        members=members,
        multiset=multiset,
        empty_family=not members,
        verdicts=verdicts,
        **aggregates,
    )


def _direct_sum(tables: Iterable[BigradedDims]) -> BigradedDims:
    return reduce(BigradedDims.add, tables, BigradedDims({}))


def _verdict(checks: Iterable[Optional[str]]) -> str:
    """One flavor's verdict from its members' checks, None for a
    skipped member."""
    checks = list(checks)
    if "fail" in checks:
        return "fail"
    return "partial" if None in checks else "pass"
