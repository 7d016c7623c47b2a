"""The benchmark's tracer patches functions of the package by name; a
deleted or renamed target would make every traced benchmark run fail."""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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


def test_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [(mod, path) for mod, path, _ in spans.TRACED + spans.COUNTED]
    assert len(targets) > 40
    assert _unresolved(targets) == []
    assert _unresolved([("dim4", "MatrixAlgebra.mul")]) == [
        "cubeblocks.dim4.MatrixAlgebra.mul"]
