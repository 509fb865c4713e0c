#!/usr/bin/env python3
"""Self-check of the benchmark's correctness gate on tiny inputs.

    python3 perfbench/selfcheck.py

For one tiny case of each workload kind it records a reference from the
program's own output, then shows that the gate passes the case against
that reference and counts one failed op against a deliberately perturbed
copy.  It also shows that a skip the reference did not have fails, that
computing what the reference skipped does not, and that a timeout, an
exception and exit code 2 each count as a failed op.  Exits 0 when every
expectation holds.
"""

from __future__ import annotations

import copy
import json
import signal
import sys

import run

run.use_checkout_source()

import workloads as W  # noqa: E402
from graphhom import catalog  # noqa: E402


def _tiny():
    """(workload, case, perturb) triples; ``perturb`` edits a recorded
    reference entry in place."""

    def bump_rank(table):
        first = next(iter(table.values()))
        first["rank"] += 1

    def braid(name, word, strands):
        d = catalog.braid_closure(word, strands)
        return W.Case(name, (d, W.closure_components(word, strands)))

    hopf_handcuff = W.Case("hopf-handcuff", json.dumps(catalog.hopf_handcuff().to_json()))
    return [
        (W.WORKLOADS["graph-g6"], hopf_handcuff,
         lambda ref: bump_rank(ref["report"]["members"][0]["khovanov"])),
        (W.WORKLOADS["floer-links"], braid("trefoil", [1, 1, 1], 2),
         lambda ref: bump_rank(ref["hat"])),
        (W.WORKLOADS["khovanov-z"], braid("trefoil", [1, 1, 1], 2),
         lambda ref: bump_rank(ref["table"])),
        (W.WORKLOADS["family-scan"], W.Case("theta", catalog.theta()),
         lambda ref: ref["members"][0]["fingerprint"]["jones"].update({"99": 1})),
    ]


def main() -> int:
    signal.signal(signal.SIGALRM, run._on_alarm)
    failures = []

    def expect(label, wl, case, result, reference, want_failed):
        failed = run.check_pass(wl, [case], [result], {case.name: reference} if reference else {})[0]
        status = "ok" if failed == want_failed else "WRONG"
        print(f"{status}: {wl.name} {label}: {failed} failed op(s), expected {want_failed}")
        if failed != want_failed:
            failures.append(label)

    for wl, case, perturb in _tiny():
        result = run.run_pass(wl, [case])[1][0]
        reference = wl.record(result)
        expect("against its own reference", wl, case, result, reference, 0)
        bad = copy.deepcopy(reference)
        perturb(bad)
        expect("against a perturbed reference", wl, case, result, bad, 1)

    floer = W.WORKLOADS["floer-links"]
    t27 = W.Case("T(2,7)", (catalog.braid_closure([1] * 7, 2), 1))
    skipped = run.run_pass(floer, [t27])[1][0]
    expect("skip the reference computed", floer, t27, skipped, {"hat": {}, "total": {}}, 1)
    trefoil = W.Case("trefoil", (catalog.trefoil_right(), 1))
    computed = run.run_pass(floer, [trefoil])[1][0]
    expect("computes what the reference skipped", floer, trefoil, computed, {"skipped": True}, 0)

    khovanov = W.WORKLOADS["khovanov-z"]
    slow = W.Case("T(2,7)", (catalog.braid_closure([1] * 7, 2), 2))
    budget, run.CASE_BUDGET_S = run.CASE_BUDGET_S, 0.05
    try:
        timed_out = run.run_pass(khovanov, [slow])[1][0]
    finally:
        run.CASE_BUDGET_S = budget
    expect("past its time budget", khovanov, slow, timed_out, None, 1)
    crash = W.Case("graph", (catalog.theta(), 1))
    expect("raising", khovanov, crash, run.run_pass(khovanov, [crash])[1][0], None, 1)
    graph = W.WORKLOADS["graph-g6"]
    garbage = W.Case("garbage", "not json")
    expect("exit code 2", graph, garbage, run.run_pass(graph, [garbage])[1][0], None, 1)

    print("self-check passed" if not failures else f"self-check FAILED: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
