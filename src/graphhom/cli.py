"""Command line front end.

Subcommands cover diagram validation, link-family enumeration,
classical invariants, both homology flavors, randomized move
scrambling, and the bundled census regression corpus.  All structured
output is JSON with sorted keys so identical invocations are
byte-identical; "-" reads the input from stdin.

Exit codes: 0 success, 1 a check failed or a cap skipped part of the
work, 2 unusable input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import reduce
from importlib import resources
from typing import List, Optional, Tuple

from .diagrams import GraphDiagram
from .errors import CapExceeded, GraphhomError, InvalidDiagram, PatternMismatch
from .floer import FLOER_GRID_CAP
from .graph_homology import MemberReport, _member_fields, _piece_tables, floer_fields, graph_homology
from .grid import GridDiagram, conway, grid_to_diagram, grid_union, simplify_grid
from .invariants import determinant, fingerprint, reduce_diagram
from .kauffman import FAMILY_ASSIGNMENT_CAP, family
from .khovanov import KHOVANOV_CROSSING_CAP
from .moves import random_move_sequence

_CENSUS_PACKAGE = "graphhom.census"


class _Exit(Exception):
    """Abort with a message on stderr and a specific exit code."""

    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _Exit(2, f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise _Exit(2, f"cannot read {path}: not UTF-8 text (byte {exc.start})")


def _load_json(path: str) -> dict:
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _Exit(
            2,
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
        )
    except RecursionError:
        raise _Exit(2, f"{path}: malformed JSON: nested too deeply")
    except ValueError as exc:  # an integer literal past sys.get_int_max_str_digits()
        raise _Exit(2, f"{path}: malformed JSON: {exc}")


_DIAGRAM_KEYS = {"crossings", "vertices", "loops", "orientations"}

# Most crossing-free loops a document may hold.  Khovanov homology
# factors loops out of the resolution cube, one tensor factor each, but
# a Z table lists every torsion summand and each loop doubles their
# number: the trefoil with 18 loops has 2^18, which ``khovanov`` prints
# in about 0.4 s on a 2 vCPU Xeon.
LOOP_CAP = 18


def _diagram_from_doc(doc, path: str) -> GraphDiagram:
    """Parse and validate a diagram document; one with foreign keys (a
    grid, say), one describing no crossing, vertex or loop, or one that
    fails ``validate`` (non-planar included) is unusable input, and so
    is one with more than ``LOOP_CAP`` loops."""
    if isinstance(doc, dict) and not set(doc) <= _DIAGRAM_KEYS:
        unknown = ", ".join(sorted(repr(k) for k in set(doc) - _DIAGRAM_KEYS))
        raise _Exit(2, f"{path}: invalid diagram: unknown keys {unknown}")
    try:
        d = GraphDiagram.from_json(doc).validate_strict()
    except InvalidDiagram as exc:
        raise _Exit(2, f"{path}: invalid diagram: {exc}")
    except (KeyError, TypeError, ValueError) as exc:
        raise _Exit(2, f"{path}: not a diagram document: {exc}")
    if not (d.crossings or d.vertices or d.loops):
        raise _Exit(2, f"{path}: invalid diagram: it has no crossings, vertices or loops")
    if d.loops > LOOP_CAP:
        raise _Exit(2, f"{path}: invalid diagram: {d.loops} loops exceed LOOP_CAP = {LOOP_CAP}")
    return d


def _load_diagram(path: str) -> GraphDiagram:
    return _diagram_from_doc(_load_json(path), path)


def _require_link(d: GraphDiagram, path: str) -> GraphDiagram:
    """The reduced link: the link commands reduce here and nowhere else."""
    if not d.is_link():
        raise _Exit(2, f"{path}: this command needs a link diagram (no vertices)")
    return reduce_diagram(d)


def _non_negative(text: str) -> int:
    if not text.strip().removeprefix("+").isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a whole number of at least 0")
    return int(text)


def _memory_guard() -> Optional[str]:
    """Apply ``GRAPHHOM_MAX_MEM`` as an address-space limit; the raw
    value, or None when unset."""
    raw = os.environ.get("GRAPHHOM_MAX_MEM")
    if not raw:
        return None
    scale = {"k": 2**10, "m": 2**20, "g": 2**30}
    try:
        mult = scale.get(raw[-1].lower())
        limit = int(raw[:-1]) * mult if mult else int(raw)
    except ValueError:
        raise _Exit(2, f"GRAPHHOM_MAX_MEM={raw!r} is not a byte count")
    try:
        import resource as res

        res.setrlimit(res.RLIMIT_AS, (limit, limit))
    except (ImportError, ValueError, OSError) as exc:
        raise _Exit(2, f"cannot apply memory limit {raw}: {exc}")
    return raw


# -- subcommands -----------------------------------------------------------


def _cmd_validate(args) -> int:
    d = _load_diagram(args.path)
    doc = {
        "valid": True,
        "crossings": len(d.crossings),
        "vertices": len(d.vertices),
        "loops": d.loops,
        "link": d.is_link(),
    }
    if d.is_link():
        doc["components"] = d.split_components()[0]
    _emit(doc)
    return 0


def _cmd_family(args) -> int:
    d = _load_diagram(args.path)
    try:
        fam = family(d, cap=args.max_assignments)
    except CapExceeded as exc:
        raise _Exit(1, str(exc))
    _emit(fam.to_json())
    return 0


def _cmd_invariants(args) -> int:
    reduced = _require_link(_load_diagram(args.path), args.path)
    fp = fingerprint(reduced)
    _emit(
        {
            "components": fp.components,
            "jones": fp.jones.to_json(),
            "alexander": fp.alexander.to_json(),
            "conway": conway(reduced).to_json(),
            "determinant": determinant(reduced),
            "reduced_crossings": len(reduced.crossings),
        }
    )
    return 0


def _cmd_khovanov(args) -> int:
    d = _require_link(_load_diagram(args.path), args.path)
    fields = _member_fields(d, {}, floer=False, coeffs=args.coeffs, crossing_cap=args.max_crossings)
    if "khovanov_skip" in fields:
        _emit({"skip": fields["khovanov_skip"], "crossings": len(d.crossings)})
        return 1
    doc = {
        "coeffs": args.coeffs,
        "dims": fields["khovanov"].to_json(),
        "euler": fields["khovanov_euler"].to_json(),
    }
    code = 0
    if args.check_euler:
        doc["euler_check"] = fields["jones_check"]
        code = 0 if fields["jones_check"] == "pass" else 1
    _emit(doc)
    return code


def _looks_like_grid(doc: dict) -> bool:
    return isinstance(doc, dict) and {"n", "X", "O"} <= set(doc)


def _cmd_floer(args) -> int:
    doc = _load_json(args.path)
    if _looks_like_grid(doc):
        try:
            g = GridDiagram.from_json(doc)
        except InvalidDiagram as exc:
            raise _Exit(2, f"{args.path}: invalid grid: {exc}")
        d = grid_to_diagram(g)
        pieces = [{"grid": simplify_grid(g)}]
        source = "grid"
    else:
        d = _require_link(_diagram_from_doc(doc, args.path), args.path)
        pieces = _piece_tables(d, {})
        source = "link"
    g = reduce(grid_union, (p["grid"] for p in pieces))
    out: dict = {"source": source, "grid": g.to_json(), "components": g.component_count()}
    fields = floer_fields(pieces, d, args.max_grid)
    if "floer_skip" in fields:
        out["skip"] = fields["floer_skip"]
        _emit(out)
        return 1
    out.update(
        {
            "hat": fields["floer"].to_json(),
            "euler": fields["floer_euler"].to_json(),
            "euler_check": fields["floer_check"],
            "total_poincare": fields["total_poincare"].to_json(),
        }
    )
    _emit(out)
    return 0 if fields["floer_check"]["verdict"] == "pass" else 1


def _cmd_graph_homology(args) -> int:
    d = _load_diagram(args.path)
    want_floer = args.floer or not (args.floer or args.khovanov)
    want_khovanov = args.khovanov or not (args.floer or args.khovanov)
    try:
        report = graph_homology(
            d,
            floer=want_floer,
            khovanov=want_khovanov,
            coeffs=args.coeffs,
            grid_cap=args.max_grid,
            crossing_cap=args.max_crossings,
            multiset=args.multiset,
        )
    except CapExceeded as exc:
        raise _Exit(1, str(exc))
    doc = report.to_json()
    if args.summary:
        summary: dict = {"verdicts": report.verdicts, "empty_family": report.empty_family}
        if report.aggregate_floer is not None:
            summary["floer_poincare"] = report.aggregate_floer.poincare().to_json()
            summary["floer_euler"] = report.aggregate_floer_euler.to_json()
        if report.aggregate_khovanov is not None:
            summary["khovanov_poincare"] = report.aggregate_khovanov.poincare().to_json()
            summary["khovanov_euler"] = report.aggregate_khovanov_euler.to_json()
        _emit(summary)
    else:
        _emit(doc)
    states = set(report.verdicts.values())
    return 0 if states <= {"pass"} else 1


def _cmd_moves(args) -> int:
    d = _load_diagram(args.path)
    kinds = None if args.kinds is None else set(args.kinds.split(","))
    try:
        mutated, applied = random_move_sequence(
            d, count=args.count, seed=args.seed, budget=args.budget, kinds=kinds
        )
    except PatternMismatch as exc:
        raise _Exit(2, f"--kinds {args.kinds!r}: {exc}")
    sys.stderr.write(f"applied {len(applied)} moves\n")
    _emit(mutated.to_json())
    return 0


# -- census ----------------------------------------------------------------


def _census_dir():
    return resources.files(_CENSUS_PACKAGE)


def _census_names() -> List[str]:
    names = []
    for entry in _census_dir().iterdir():
        if entry.name.endswith(".diagram.json"):
            names.append(entry.name[: -len(".diagram.json")])
    return sorted(names)


# Member fields a census link entry leaves out of its golden file.
_CENSUS_LINK_OMITS = ("multiplicity", "floer_euler", "total_check")


def _census_report(doc: dict) -> dict:
    """Deterministic per-entry report; golden files hold its serialization."""
    d = GraphDiagram.from_json(doc)
    if d.is_link():
        reduced = reduce_diagram(d)
        out = MemberReport(fingerprint(reduced), 1, **_member_fields(reduced, {})).to_json()
        for key in _CENSUS_LINK_OMITS:
            out.pop(key, None)
        out["kind"] = "link"
        return out
    report = graph_homology(d)
    return {"kind": "graph", "graph_homology": report.to_json()}


def _census_entry_status(name: str, write: bool) -> Tuple[str, str]:
    base = _census_dir()
    doc = json.loads((base / f"{name}.diagram.json").read_text(encoding="utf-8"))
    text = json.dumps(_census_report(doc), sort_keys=True, indent=2) + "\n"
    golden_path = base / f"{name}.golden.json"
    if write:
        with resources.as_file(golden_path) as real:
            real.write_text(text, encoding="utf-8")
        return name, "written"
    try:
        golden = golden_path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return name, "missing-golden"
    return name, "pass" if golden == text else "mismatch"


def _cmd_census(args) -> int:
    names = _census_names()
    if args.list:
        _emit({"entries": names})
        return 0
    if args.dump is not None:
        if args.dump not in names:
            raise _Exit(2, f"unknown census entry {args.dump!r}; try --list")
        doc = json.loads(
            (_census_dir() / f"{args.dump}.diagram.json").read_text(encoding="utf-8")
        )
        _emit(doc)
        return 0
    statuses = [_census_entry_status(name, args.write_golden) for name in names]
    doc = {
        "entries": [{"name": n, "status": s} for n, s in statuses],
        "verdict": "pass" if all(s in ("pass", "written") for _, s in statuses) else "fail",
    }
    _emit(doc)
    return 0 if doc["verdict"] == "pass" else 1


# -- argument wiring ---------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="graphhom",
        description="Link families and homology invariants of knotted graph diagrams",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a diagram JSON document")
    p.add_argument("path")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("family", help="enumerate the link family of a graph")
    p.add_argument("path")
    p.add_argument("--max-assignments", type=_non_negative, default=FAMILY_ASSIGNMENT_CAP)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("invariants", help="classical polynomial invariants of a link")
    p.add_argument("path")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("khovanov", help="Khovanov homology of a link")
    p.add_argument("path")
    p.add_argument("--coeffs", choices=["z", "f2"], default="z")
    p.add_argument("--max-crossings", type=_non_negative, default=KHOVANOV_CROSSING_CAP)
    p.add_argument("--check-euler", action="store_true")
    p.set_defaults(func=_cmd_khovanov)

    p = sub.add_parser("floer", help="grid homology of a link or grid diagram")
    p.add_argument("path")
    p.add_argument("--max-grid", type=_non_negative, default=FLOER_GRID_CAP)
    p.set_defaults(func=_cmd_floer)

    p = sub.add_parser("graph-homology", help="family direct-sum homology report")
    p.add_argument("path")
    p.add_argument("--floer", action="store_true")
    p.add_argument("--khovanov", action="store_true")
    p.add_argument("--coeffs", choices=["z", "f2"], default="z")
    p.add_argument("--max-grid", type=_non_negative, default=FLOER_GRID_CAP)
    p.add_argument("--max-crossings", type=_non_negative, default=KHOVANOV_CROSSING_CAP)
    p.add_argument("--multiset", action="store_true")
    p.add_argument("--summary", action="store_true")
    p.set_defaults(func=_cmd_graph_homology)

    p = sub.add_parser("moves", help="apply a seeded random move sequence")
    p.add_argument("path")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=_non_negative, default=20)
    p.add_argument("--budget", type=_non_negative, default=None)
    p.add_argument("--kinds", default=None, help="comma-separated subset of R1..R5")
    p.set_defaults(func=_cmd_moves)

    p = sub.add_parser("census", help="run the bundled regression corpus")
    only = p.add_mutually_exclusive_group()
    only.add_argument("--write-golden", action="store_true")
    only.add_argument("--list", action="store_true")
    only.add_argument("--dump", default=None, metavar="NAME")
    p.set_defaults(func=_cmd_census)

    return top


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    limit = None
    try:
        limit = _memory_guard()
        return args.func(args)
    except _Exit as exc:
        sys.stderr.write(exc.message + "\n")
        return exc.code
    except BrokenPipeError:
        return 0
    except GraphhomError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError:
        pass  # reported below, once the traceback has let go of the frames' data
    named = f" under GRAPHHOM_MAX_MEM={limit}" if limit else ""
    sys.stderr.write(f"error: out of memory{named}\n")
    return 1


if __name__ == "__main__":
    sys.exit(main())
