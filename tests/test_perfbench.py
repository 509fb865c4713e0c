"""The benchmark under perfbench/ reaches into the program by module and
function name; these tests fail when a refactor breaks what it uses."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _span_layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


def test_span_layers_resolve():
    for layer, funcs in _span_layers().items():
        module = importlib.import_module(f"graphhom.{layer}")
        for attr, _span, _hook in funcs:
            assert callable(getattr(module, attr, None)), f"graphhom.{layer}.{attr}"


def test_benchmark_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
