"""The benchmark's tracer patches functions of the package by name; a
deleted or renamed target would make every traced benchmark run fail."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "bench" / "spans.py"


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
