"""The benchmark's tracer patches functions of the package by name; a
deleted or renamed target would make every traced benchmark run fail."""

import importlib
import importlib.util
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "bench" / "spans.py"
# bounds a hung child only: the three traced passes take under a second together
PASS_LIMIT_S = 120


def _unresolved(targets):
    """Targets that the lookup of Tracer.install would miss: attributes
    along the path, then the last one in the owner's own namespace."""
    missing = []
    for mod_name, path in targets:
        owner = importlib.import_module(f"cubeblocks.{mod_name}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        if attr not in vars(owner or object):
            missing.append(f"cubeblocks.{mod_name}.{path}")
    return missing


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(mod, path) for mod, path, _ in spans.TRACED + spans.COUNTED]


def test_trace_targets_resolve():
    targets = _targets()
    assert len(targets) > 40
    assert _unresolved(targets) == []
    assert _unresolved([("dim4", "MatrixAlgebra.mul")]) == [
        "cubeblocks.dim4.MatrixAlgebra.mul"]


def test_import_loads_every_traced_module():
    # the tracer looks each module up in sys.modules after a bare
    # ``import cubeblocks``, so the package must load them all itself
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, cubeblocks; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    traced = {f"cubeblocks.{mod}" for mod, _ in _targets()}
    assert traced - set(loaded) == set()


def test_traced_pass_keeps_every_pinned_layer_nonzero(monkeypatch):
    # a call moved off a function the benchmark requires nonzero (say, the
    # b3 assembly off lattice.assemble_block) passes every other test; one
    # traced pass per workload, as bench/run.py makes it, catches that
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # run.py imports its siblings
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    for w in run.workloads.WORKLOADS:
        inputs = run.workloads.make_inputs(w, 1)
        result = run.run_pass(inputs, True, time.monotonic() + PASS_LIMIT_S)
        checks = run.Checks()
        checks.check_pass(inputs, result, None, w)
        assert checks.failures == []
        layers = run.per_layer(result)
        assert [name for name in run.layers.required_nonzero(w)
                if not layers[name] > 0] == [], w
