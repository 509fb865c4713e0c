"""The four benchmark workloads: inputs built from a seed, the program
calls one case makes, and the correctness gate for its result.

Inputs come only from ``catalog``, ``diagrams.connected_sum`` and
``moves.random_move_sequence``; the program under test receives the
generated diagrams and nothing else.  The seed picks the R4/R5 scrambles
of the graphs and a cyclic rotation of every braid word.  Neither
changes the link or graph up to isotopy, so one reference table,
recorded at seed 3, serves every seed.

Every program call below goes through a module attribute looked up at
call time (``grid.pd_to_grid``, not a name bound at import), so the
spans installed by ``spans.Tracer`` see the calls this file makes too.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from math import comb
from typing import Callable, Dict, List, Optional, Tuple

from graphhom import catalog, cli, diagrams, errors, floer, grid, invariants, kauffman
from graphhom import khovanov, moves

# (name, braid word, strands).  The floer list runs from grid size 6 to
# the cap of 8, then two links whose grids exceed it: T(2,7) at n = 9 and
# a 12-crossing braid whose grid conversion alone takes seconds.
FLOER_BRAIDS = [
    ("figure-eight", [1, -2, 1, -2], 3),
    ("T(2,5)", [1] * 5, 2),
    ("T(3,4)", [1, 2] * 4, 3),
    ("s1^3 s2 s1^-1 s2", [1, 1, 1, 2, -1, 2], 3),
    ("borromean", [1, -2] * 3, 3),
    ("T(2,7)", [1] * 7, 2),
    ("(s1 s2^-1)^6", [1, -2] * 6, 3),
]

# 5 to 8 crossings with 0 to 22 torsion summands; Smith form dominates.
KHOVANOV_BRAIDS = [
    ("T(2,5)", [1] * 5, 2),
    ("T(2,7)", [1] * 7, 2),
    ("T(3,4)", [1, 2] * 4, 3),
    ("(s1 s2^-1)^4", [1, -2] * 4, 3),
    ("s1^3 s2^-1 s1 s2^-3", [1, 1, 1, -2, 1, -2, -2, -2], 3),
]

FAMILY_SCRAMBLES = 5


@dataclass(frozen=True)
class Case:
    name: str
    payload: object


@dataclass(frozen=True)
class Workload:
    """``build(seed)`` makes the cases, ``run(payload)`` makes the timed
    program calls for one case and returns its raw result, and
    ``check(case, result, reference)`` returns ``(problems, skips)``:
    what disagrees with an oracle or the reference, and the
    ``(case or member, flavor)`` pairs a size cap skipped."""

    name: str
    build: Callable[[int], List[Case]]
    run: Callable[[object], object]
    check: Callable[[Case, object, Optional[dict]], Tuple[List[str], List[Tuple[str, str]]]]
    record: Callable[[object], dict]


# -- inputs ----------------------------------------------------------------


def _rotated(word: List[int], rng: random.Random) -> List[int]:
    k = rng.randrange(len(word))
    return word[k:] + word[:k]


def _braid_cases(braids, seed: int) -> List[Case]:
    rng = random.Random(seed)
    cases = []
    for name, word, strands in braids:
        d = catalog.braid_closure(_rotated(word, rng), strands)
        cases.append(Case(name, (d, closure_components(word, strands))))
    return cases


def closure_components(word: List[int], strands: int) -> int:
    """Cycles of the braid's strand permutation, computed here so the
    total-homology oracle does not depend on the program."""
    perm = list(range(strands))
    for g in word:
        p = abs(g) - 1
        perm[p], perm[p + 1] = perm[p + 1], perm[p]
    seen, cycles = set(), 0
    for s in range(strands):
        if s not in seen:
            cycles += 1
            while s not in seen:
                seen.add(s)
                s = perm[s]
    return cycles


def g6_base():
    return diagrams.connected_sum(
        catalog.hopf_handcuff(),
        diagrams.connected_sum(catalog.theta(), catalog.hopf_handcuff()),
    )


def g8_base():
    return diagrams.connected_sum(
        catalog.hopf_handcuff(),
        diagrams.connected_sum(
            catalog.theta(),
            diagrams.connected_sum(catalog.hopf_handcuff(), catalog.theta()),
        ),
    )


def scramble(g, seed: int):
    """The ROADMAP's G6 is ``scramble(g6_base(), 3)``."""
    return moves.random_move_sequence(g, count=10, seed=seed, kinds={"R4", "R5"})[0]


def _g6_cases(seed: int) -> List[Case]:
    return [Case("G6", json.dumps(scramble(g6_base(), seed).to_json()))]


def _family_cases(seed: int) -> List[Case]:
    cases = [
        Case(f"G6 scramble {k}", scramble(g6_base(), seed + k))
        for k in range(FAMILY_SCRAMBLES)
    ]
    cases.append(Case("G8", scramble(g8_base(), seed)))
    return cases


# -- timed program calls ------------------------------------------------------


def _run_graph_cli(text: str) -> Tuple[int, str]:
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(["graph-homology", "-"])
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _run_floer(payload):
    d, _components = payload
    g = grid.simplify_grid(grid.pd_to_grid(d))
    try:
        hat = floer.hat_from_grid(g)
        total = floer.total_homology_from_grid(g)
    except errors.CapExceeded:
        return None
    return hat, total, floer.euler_matches_skein(hat, d)


def _run_khovanov(payload):
    d, _components = payload
    try:
        dims = khovanov.khovanov_homology(invariants.reduce_diagram(d), "z")
    except errors.CapExceeded:
        return None
    return dims, khovanov.graded_euler(dims) == khovanov.unnormalized_jones(d)


def _run_family(g):
    return kauffman.family(g)


# -- raw results to reference entries ----------------------------------------


def _record_graph(result) -> dict:
    code, text = result
    return {"exit": code, "report": json.loads(text)}


def _record_floer(result) -> dict:
    if result is None:
        return {"skipped": True}
    hat, total, _check = result
    return {"hat": hat.to_json(), "total": total.to_json()}


def _record_khovanov(result) -> dict:
    if result is None:
        return {"skipped": True}
    return {"table": result[0].to_json()}


def _record_family(fam) -> dict:
    return {
        "assignments": fam.assignments,
        "members": [
            {"fingerprint": m.fingerprint.to_json(), "multiplicity": m.multiplicity}
            for m in fam.members
        ],
    }


# -- correctness gate --------------------------------------------------------


def expected_total(components: int) -> dict:
    """(u^1/2 + u^-1/2)^(l-1) as doubled-exponent JSON terms."""
    k = components - 1
    return {str(2 * i - k): comb(k, i) for i in range(k + 1)}


def _fp_key(fp: dict) -> str:
    return json.dumps(fp, sort_keys=True)


def _table_sum(tables: List[dict]) -> dict:
    out: Dict[str, dict] = {}
    for table in tables:
        for key, entry in table.items():
            cur = out.setdefault(key, {"rank": 0, "torsion": []})
            cur["rank"] += entry["rank"]
            cur["torsion"] = sorted(cur["torsion"] + entry["torsion"])
    return out


def _check_graph(case: Case, result, ref: Optional[dict]):
    code, text = result
    if code not in (0, 1):
        return [f"exit code {code}"], []
    report = json.loads(text)
    problems: List[str] = []
    skips: List[Tuple[str, str]] = []
    flavors = {"floer": "floer_skip", "khovanov": "khovanov_skip"}
    member_tables: Dict[str, List[dict]] = {"floer": [], "khovanov": []}
    skipped_any = {"floer": False, "khovanov": False}
    for m in report["members"]:
        label = f"member {m['fingerprint']}"
        for flavor, skip_key in flavors.items():
            if skip_key in m:
                skipped_any[flavor] = True
                skips.append((label, flavor))
            elif flavor in m:
                member_tables[flavor].append(m[flavor])
        if "floer" in m:
            if m["floer_check"]["verdict"] != "pass":
                problems.append(f"{label}: Floer Euler check {m['floer_check']}")
            if m["total_poincare"] != expected_total(m["fingerprint"]["components"]):
                problems.append(f"{label}: total homology {m['total_poincare']}")
        if "khovanov" in m and m["jones_check"] != "pass":
            problems.append(f"{label}: Khovanov Euler check {m['jones_check']}")
    for flavor in flavors:
        agg = report.get(f"aggregate_{flavor}")
        if agg is not None and agg != _table_sum(member_tables[flavor]):
            problems.append(f"aggregate_{flavor} is not the sum of its members")
        verdict = report["verdicts"].get(f"{flavor}_euler")
        want = "partial" if skipped_any[flavor] else "pass"
        if verdict != want:
            problems.append(f"{flavor}_euler verdict {verdict!r}, expected {want!r}")
    want_code = 0 if set(report["verdicts"].values()) <= {"pass"} else 1
    if code != want_code:
        problems.append(f"exit code {code} with verdicts {report['verdicts']}")
    if ref is not None:
        problems += _compare_graph(report, ref["report"])
    return problems, skips


def _compare_graph(report: dict, ref: dict) -> List[str]:
    problems = []
    for key in ("assignments", "distinct_members", "multiset", "empty_family"):
        if report[key] != ref[key]:
            problems.append(f"{key} {report[key]} != reference {ref[key]}")
    got = {_fp_key(m["fingerprint"]): m for m in report["members"]}
    for want in ref["members"]:
        fp = _fp_key(want["fingerprint"])
        m = got.get(fp)
        if m is None:
            problems.append(f"reference member {fp} missing")
            continue
        if m["multiplicity"] != want["multiplicity"]:
            problems.append(f"member {fp}: multiplicity {m['multiplicity']}")
        for flavor, fields in (
            ("floer", ("floer", "total_poincare")),
            ("khovanov", ("khovanov",)),
        ):
            if flavor in want:
                if flavor not in m:
                    problems.append(f"member {fp}: {flavor} skipped, reference computed it")
                    continue
                for f in fields:
                    if m[f] != want[f]:
                        problems.append(f"member {fp}: {f} differs from reference")
    return problems


def _skipped(case: Case, flavor: str, ref: Optional[dict]):
    problems = [] if ref is None or ref.get("skipped") else ["skipped, reference computed it"]
    return problems, [(case.name, flavor)]


def _check_floer(case: Case, result, ref: Optional[dict]):
    if result is None:
        return _skipped(case, "floer", ref)
    hat, total, check = result
    problems = []
    if check["verdict"] != "pass":
        problems.append(f"Floer Euler check {check}")
    want_total = expected_total(case.payload[1])
    if total.to_json() != want_total:
        problems.append(f"total homology {total.to_json()} != {want_total}")
    if ref is not None and not ref.get("skipped"):
        if hat.to_json() != ref["hat"] or total.to_json() != ref["total"]:
            problems.append("hat or total table differs from reference")
    return problems, []


def _check_khovanov(case: Case, result, ref: Optional[dict]):
    if result is None:
        return _skipped(case, "khovanov", ref)
    dims, euler_ok = result
    problems = [] if euler_ok else ["graded Euler characteristic != unnormalized Jones"]
    if ref is not None and not ref.get("skipped") and dims.to_json() != ref["table"]:
        problems.append("Khovanov table differs from reference")
    return problems, []


def _check_family(case: Case, fam, ref: Optional[dict]):
    """A finer split than the reference's is allowed: assignment counts
    and the multiplicity total must match, and every reference
    fingerprint must still appear."""
    if ref is None:
        return [], []
    got = _record_family(fam)
    problems = []
    if got["assignments"] != ref["assignments"]:
        problems.append(f"assignments {got['assignments']} != {ref['assignments']}")
    mult = sum(m["multiplicity"] for m in got["members"])
    want_mult = sum(m["multiplicity"] for m in ref["members"])
    if mult != want_mult:
        problems.append(f"multiplicities sum to {mult}, reference {want_mult}")
    have = {_fp_key(m["fingerprint"]) for m in got["members"]}
    for m in ref["members"]:
        if _fp_key(m["fingerprint"]) not in have:
            problems.append(f"reference member {_fp_key(m['fingerprint'])} missing")
    return problems, []


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("graph-g6", _g6_cases, _run_graph_cli, _check_graph, _record_graph),
        Workload(
            "floer-links",
            lambda seed: _braid_cases(FLOER_BRAIDS, seed),
            _run_floer,
            _check_floer,
            _record_floer,
        ),
        Workload(
            "khovanov-z",
            lambda seed: _braid_cases(KHOVANOV_BRAIDS, seed),
            _run_khovanov,
            _check_khovanov,
            _record_khovanov,
        ),
        Workload("family-scan", _family_cases, _run_family, _check_family, _record_family),
    )
}
