#!/usr/bin/env python3
"""graphhom benchmark: one workload, closed loop, checked results.

    python3 perfbench/run.py --workload graph-g6 --seed 3 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
there.  One process and one thread run passes over the workload's cases,
each case starting after the previous one finished, until the next pass
would end after ``--seconds``.  The last stdout line is one JSON object:

* ``--trace 0``: ``setup_s`` (median of several fresh processes that
  import graphhom and build the inputs), ``solve_s`` (median wall time of
  one pass) and ``peak_rss_mb`` (after the first pass).
* ``--trace 1``: untraced and traced passes alternate; the per-layer
  spans and counts of the median traced pass, ``trace_overhead_ratio``,
  ``cases_skipped``, ``ops`` and ``ops_failed``.  The spans of that pass
  are written to ``perfbench/out/``.

``attempted`` and ``failed`` count cases over the whole run.  A case
fails when an oracle fails, a table differs from the reference in
``perfbench/reference/``, the program raises or exits 2, or it runs past
its time budget.  ``--record`` rewrites the reference from one pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from spans import Tracer, layer_metrics, write_spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE_DIR = HERE / "reference"
OUT_DIR = HERE / "out"

CASE_BUDGET_S = 60.0
# Every run must print its result well inside three minutes.
RUN_DEADLINE_S = 150.0
SETUP_SAMPLES = 5

_STARTED = perf_counter()


class CaseTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no handler
    inside the program can swallow it."""


def _on_alarm(signum, frame):
    raise CaseTimeout()


TIMEOUT = "timeout"


def _run_case(wl, case):
    """Result of one case, ``TIMEOUT``, or the exception it raised."""
    budget = min(CASE_BUDGET_S, RUN_DEADLINE_S - (perf_counter() - _STARTED))
    if budget <= 0:
        return TIMEOUT
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        return wl.run(case.payload)
    except CaseTimeout:
        return TIMEOUT
    except Exception as exc:  # a crash is a failed case, not a failed run
        traceback.print_exc()
        return exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def use_checkout_source() -> None:
    """Import graphhom from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "graphhom" / "__init__.py").is_file():
        sys.exit(f"no graphhom source under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def run_pass(wl, cases):
    t0 = perf_counter()
    results = [_run_case(wl, case) for case in cases]
    return perf_counter() - t0, results


def check_pass(wl, cases, results, reference):
    """(failed cases, cases or members with a skip, Floer skips) of one pass."""
    failed = 0
    skipped = set()
    for case, result in zip(cases, results):
        if result is TIMEOUT:
            problems, skips = ["ran past its time budget"], []
        elif isinstance(result, Exception):
            problems, skips = [f"raised {result!r}"], []
        else:
            problems, skips = wl.check(case, result, reference.get(case.name))
        for p in problems:
            sys.stderr.write(f"{wl.name} / {case.name}: {p}\n")
        failed += bool(problems)
        skipped.update((case.name, unit, flavor) for unit, flavor in skips)
    units = {(case_name, unit) for case_name, unit, _ in skipped}
    return failed, len(units), sum(flavor == "floer" for *_, flavor in skipped)


def _setup_probe(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _load_reference(name: str) -> dict:
    path = REFERENCE_DIR / f"{name}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["cases"]


def _record(wl, cases, seed: int) -> int:
    _wall, results = run_pass(wl, cases)
    entries = {}
    for case, result in zip(cases, results):
        if result is TIMEOUT or isinstance(result, Exception):
            sys.exit(f"{case.name}: {result!r}; reference not written")
        problems, _skips = wl.check(case, result, None)
        if problems:
            sys.exit(f"{case.name}: {problems}; reference not written")
        entries[case.name] = wl.record(result)
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{wl.name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "cases": entries}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _measure(wl, cases, reference, seconds: int):
    """Pass times, peak RSS after the first pass, attempted, failed, skipped.

    Later passes reuse freed memory unevenly, so the peak after one pass
    is the steadier figure; how many passes fit varies with machine speed.
    """
    walls, attempted, failed, skipped, rss_mb = [], 0, 0, 0, None
    while True:
        wall, results = run_pass(wl, cases)
        walls.append(wall)
        rss_mb = rss_mb or _peak_rss_mb()
        f, skipped, _ = check_pass(wl, cases, results, reference)
        attempted += len(cases)
        failed += f
        if perf_counter() - _STARTED + statistics.median(walls) > seconds:
            return walls, rss_mb, attempted, failed, skipped


def _measure_traced(wl, cases, reference, seconds: int, seed: int):
    tracer = Tracer()
    # The first pass in a process runs cold; keep it out of the ratio.
    _wall, results = run_pass(wl, cases)
    failed = check_pass(wl, cases, results, reference)[0]
    plain, traced, attempted = [], [], len(cases)
    consistent = True
    while True:
        wall, results = run_pass(wl, cases)
        plain.append(wall)
        failed += check_pass(wl, cases, results, reference)[0]
        tracer.reset()
        tracer.install()
        try:
            wall, results = run_pass(wl, cases)
        finally:
            tracer.uninstall()
        f, skipped, floer_skips = check_pass(wl, cases, results, reference)
        failed += f
        attempted += 2 * len(cases)
        if traced and tracer.counts != traced[0][2]:
            sys.stderr.write("exact counts differ between traced passes\n")
            consistent = False
        traced.append((wall, tracer.spans, tracer.counts))
        if perf_counter() - _STARTED + statistics.median(plain) + wall > seconds:
            break
    traced.sort(key=lambda t: t[0])
    wall, spans, counts = traced[(len(traced) - 1) // 2]
    metrics = layer_metrics(spans, counts, wall)
    metrics["trace_overhead_ratio"] = (
        statistics.median(t[0] for t in traced) / statistics.median(plain)
    )
    metrics["floer.grids_skipped"] = floer_skips
    metrics["cases_skipped"] = skipped
    metrics["ops"] = attempted
    metrics["ops_failed"] = failed
    OUT_DIR.mkdir(exist_ok=True)
    write_spans(OUT_DIR / f"spans-{wl.name}-seed{seed}.json", spans)
    return metrics, attempted, failed, consistent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record", action="store_true", help="rewrite the reference tables")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    use_checkout_source()
    t0 = perf_counter()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    cases = wl.build(args.seed)
    setup = perf_counter() - t0
    if args.setup_probe:
        print(repr(setup))
        return 0
    if args.record:
        return _record(wl, cases, args.seed)

    reference = _load_reference(wl.name)
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.trace:
        metrics, attempted, failed, consistent = _measure_traced(
            wl, cases, reference, args.seconds, args.seed
        )
        print(
            f"{wl.name} seed {args.seed}: traced solve {metrics['trace.solve_s']:.3f} s, "
            f"overhead x{metrics['trace_overhead_ratio']:.3f}, "
            f"cases_skipped {metrics['cases_skipped']}, ops {attempted}, ops_failed {failed}"
        )
        out = {k: _metric(v, _unit(k)) for k, v in metrics.items()}
    else:
        setups = [_setup_probe(wl.name, args.seed) for _ in range(SETUP_SAMPLES)]
        walls, rss_mb, attempted, failed, skipped = _measure(wl, cases, reference, args.seconds)
        consistent = True
        solve = statistics.median(walls)
        print(
            f"{wl.name} seed {args.seed}: solve_s {solve:.3f} s (median of {len(walls)} "
            f"passes: {' '.join(f'{w:.3f}' for w in walls)}), setup_s {statistics.median(setups):.4f} s, peak_rss_mb {rss_mb:.1f}, "
            f"cases_skipped {skipped}, ops {attempted}, ops_failed {failed}"
        )
        out = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "solve_s": _metric(solve, "s"),
            "peak_rss_mb": _metric(rss_mb, "MB"),
        }
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
