"""Spans around the calls into each layer, recorded from outside the program.

``Tracer.install`` replaces each listed function by a wrapper at every
``graphhom`` module attribute that holds it, which is where callers look
it up (``graph_homology.hat_from_grid``, ``khovanov.smith_invariant_factors``,
``kauffman.fingerprint``), so spans follow whatever path the program
takes.  Spans stay in memory as ``[name, start, end, parent]`` rows;
``layer_metrics`` derives inclusive and self times from them.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from math import factorial
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# A hook adds exact counts from a call's first argument and its result.
Hook = Optional[Callable[[Counter, object, object], None]]


def _count_family(counts, g, fam):
    counts["kauffman.assignments"] += fam.assignments
    counts["kauffman.members"] += len(fam.members)


def _count_simplify(counts, g, out):
    counts["grid.n_before_sum"] += g.n
    counts["grid.n_after_sum"] += out.n


def _count_generators(counts, g, _out):
    counts["floer.generators"] += factorial(g.n)


def _count_cube(counts, d, _out):
    counts["khovanov.cube_states"] += 2 ** len(d.crossings)


def _count_cells(counts, m, _out):
    counts["linalg.smith_cells"] += len(m) * (len(m[0]) if m else 0)


# layer -> [(function, span name, count hook)].  ``catalog``, ``diagrams``
# and ``moves`` only build inputs, so they have no spans.
LAYERS: Dict[str, List[Tuple[str, str, Hook]]] = {
    "cli": [("main", "main", None)],
    "graph_homology": [("graph_homology", "graph_homology", None)],
    "kauffman": [
        ("family", "family", _count_family),
        ("apply_replacement", "apply_replacement", None),
    ],
    "invariants": [
        ("fingerprint", "fingerprint", None),
        ("reduce_diagram", "reduce_diagram", None),
        ("jones", "jones", None),
        ("alexander", "alexander", None),
    ],
    "grid": [
        ("pd_to_grid", "pd_to_grid", None),
        ("simplify_grid", "simplify_grid", _count_simplify),
    ],
    "floer": [
        ("tilde_homology", "tilde", _count_generators),
        ("hat_from_grid", "hat", None),
        ("total_homology_from_grid", "total", _count_generators),
        ("euler_matches_skein", "euler_check", None),
    ],
    "khovanov": [
        ("khovanov_homology", "homology", _count_cube),
        ("unnormalized_jones", "unnormalized_jones", None),
    ],
    "linalg": [
        ("smith_invariant_factors", "smith", _count_cells),
        ("int_mul", "int_mul", None),
        ("f2_rank", "f2_rank", None),
        ("f2_mul", "f2_mul", None),
    ],
    "laurent": [("exact_divide", "exact_divide", None)],
}

COUNTS = [
    "kauffman.assignments",
    "kauffman.members",
    "grid.n_before_sum",
    "grid.n_after_sum",
    "floer.generators",
    "khovanov.cube_states",
    "linalg.smith_cells",
]


class Tracer:
    """Records spans and exact counts while installed."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def _wrap(self, name: str, fn: Callable, hook: Hook) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            row = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            try:
                out = fn(*args, **kwargs)
            finally:
                row[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counts, args[0] if args else next(iter(kwargs.values())), out)
            return out

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "graphhom" and m]
        for layer, funcs in LAYERS.items():
            home = sys.modules[f"graphhom.{layer}"]
            for attr, span, hook in funcs:
                orig = getattr(home, attr)
                wrapper = self._wrap(f"{layer}.{span}", orig, hook)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)
                            self._patched.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched = []


def write_spans(path, spans: List[list]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"columns": ["name", "start", "end", "parent"], "spans": spans}, fh)


def layer_metrics(spans: List[list], counts: Counter, wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass of ``wall`` seconds.

    ``<layer>.<span>_s`` is inclusive time, ``<layer>.self_s`` the layer's
    span time minus its child spans, and ``trace.outside_s`` the pass time
    no span covers; the self times plus ``trace.outside_s`` equal ``wall``.
    """
    child = [0.0] * len(spans)
    child_tilde = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
            if name == "floer.tilde":
                child_tilde[parent] += end - start
    out: Dict[str, float] = {}
    for layer, funcs in LAYERS.items():
        out[f"{layer}.self_s"] = 0.0
        for _attr, span, _hook in funcs:
            out[f"{layer}.{span}_calls"] = 0
            out[f"{layer}.{span}_s"] = 0.0
    out["kauffman.family_self_s"] = 0.0
    out["floer.deconv_s"] = 0.0
    outside = wall
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        layer = name.split(".")[0]
        out[f"{name}_calls"] += 1
        out[f"{name}_s"] += dur
        out[f"{layer}.self_s"] += dur - child[i]
        if name == "kauffman.family":
            out["kauffman.family_self_s"] += dur - child[i]
        elif name == "floer.hat":
            out["floer.deconv_s"] += dur - child_tilde[i]
        if parent < 0:
            outside -= dur
    for name in COUNTS:
        out[name] = counts[name]
    fp_calls = out["invariants.fingerprint_calls"]
    out["invariants.fingerprint_useful_ratio"] = (
        out["kauffman.members"] / fp_calls if fp_calls else 0.0
    )
    out["trace.outside_s"] = outside
    out["trace.solve_s"] = wall
    return out
