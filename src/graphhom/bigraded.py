"""Bigraded dimension tables: free rank plus torsion orders at each
(homological, internal) bigrading, both gradings stored doubled so
half-integer gradings stay exact integers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

from .laurent import Laurent

Bigrading = Tuple[int, int]
Entry = Tuple[int, Tuple[int, ...]]  # (free rank, sorted torsion orders)


def _merge(a: Entry, b: Entry) -> Entry:
    return (a[0] + b[0], tuple(sorted(a[1] + b[1])))


@dataclass(frozen=True)
class BigradedDims:
    """Finitely supported map bigrading -> (rank, torsion orders)."""

    dims: Dict[Bigrading, Entry] = field(default_factory=dict)

    def __post_init__(self):
        clean = {
            k: (r, tuple(sorted(t)))
            for k, (r, t) in self.dims.items()
            if r or t
        }
        object.__setattr__(self, "dims", clean)

    @staticmethod
    def of_ranks(ranks: Dict[Bigrading, int]) -> "BigradedDims":
        return BigradedDims({k: (r, ()) for k, r in ranks.items()})

    def ranks(self) -> Dict[Bigrading, int]:
        return {k: r for k, (r, _) in self.dims.items() if r}

    def add(self, other: "BigradedDims") -> "BigradedDims":
        out = dict(self.dims)
        for k, e in other.dims.items():
            out[k] = _merge(out[k], e) if k in out else e
        return BigradedDims(out)

    def tensor_ranks(self, other: "BigradedDims") -> "BigradedDims":
        """Rank-level tensor product; torsion is ignored by design."""
        out: Dict[Bigrading, int] = {}
        for (i1, j1), (r1, _) in self.dims.items():
            for (i2, j2), (r2, _) in other.dims.items():
                if r1 and r2:
                    k = (i1 + i2, j1 + j2)
                    out[k] = out.get(k, 0) + r1 * r2
        return BigradedDims.of_ranks(out)

    def poincare(self, tags: Tuple[str, str] = ("u", "t")) -> Laurent:
        """Two-variable Poincare polynomial; exponent keys are the
        doubled gradings directly."""
        return Laurent(tags, {k: r for k, (r, _) in self.dims.items() if r})

    def to_json(self) -> dict:
        table = {}
        for (i, j), (r, t) in sorted(self.dims.items()):
            table[f"{i},{j}"] = {"rank": r, "torsion": list(t)}
        return table

    def __iter__(self) -> Iterable[Tuple[Bigrading, Entry]]:
        return iter(sorted(self.dims.items()))

    def __repr__(self) -> str:
        parts = [
            f"({i/2:g},{j/2:g}):{r}{'+' + str(list(t)) if t else ''}"
            for (i, j), (r, t) in sorted(self.dims.items())
        ]
        return "BigradedDims{" + ", ".join(parts) + "}"
