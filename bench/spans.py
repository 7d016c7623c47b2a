"""Per-layer tracing of cubeblocks, installed from outside the package.

Each traced function is replaced by a wrapper at every module that binds
it: the package imports names with ``from .x import y``, so patching only
the defining module would miss calls such as ``census.rank`` or
``decomp3d.mat_det``.  Methods are patched on their class.  A wrapper
records one span (name, start, end, parent) in memory; scalar
``FiniteField.mul`` only counts calls, because a span per call would
swamp the run it measures.  The layer of a span is the first component
of its name, which is the cubeblocks module.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path, span name) of the public functions the CLI
# reaches, each traced with a span.  random_identity_check is unreachable
# today but has a per-layer metric of its own.
TRACED = [
    ("fields", "find_irreducible", "fields.find_irreducible"),
    ("fields", "FiniteField.__init__", "fields.FiniteField"),
    ("fields", "FiniteField.inv", "fields.inv"),
    ("fields", "FiniteField.pow", "fields.pow"),
    ("polys", "MultiPoly.__mul__", "polys.mul"),
    ("polys", "MultiPoly.__add__", "polys.add"),
    ("polys", "MultiPoly.__sub__", "polys.sub"),
    ("matrices", "mat_mul", "matrices.matmul"),
    ("matrices", "row_vec_mul", "matrices.row_vec_mul"),
    ("matrices", "rref", "matrices.rref"),
    ("matrices", "rank", "matrices.rank"),
    ("matrices", "mat_inverse", "matrices.mat_inverse"),
    ("matrices", "mat_det", "matrices.mat_det"),
    ("matrices", "charpoly", "matrices.charpoly"),
    ("fieldmat", "to_array", "fieldmat.to_array"),
    ("fieldmat", "from_array", "fieldmat.from_array"),
    ("fieldmat", "fold_reduce", "fieldmat.fold_reduce"),
    ("fieldmat", "matmul", "fieldmat.matmul"),
    ("fieldmat", "scalar_of", "fieldmat.scalar_of"),
    ("fieldmat", "rref", "fieldmat.rref"),
    ("fieldmat", "rank", "fieldmat.rank"),
    ("gf2", "pack_rows", "gf2.pack_rows"),
    ("lattice", "assemble_block", "lattice.assemble_block"),
    ("lattice", "evolve", "lattice.evolve"),
    ("census", "build_constraint_system", "census.build_constraint_system"),
    ("census", "count_configs", "census.count_configs"),
    ("census", "census_report", "census.census_report"),
    ("pointmap", "brute_force_census", "pointmap.brute_force_census"),
    ("identity", "random_identity_check", "identity.random_identity_check"),
    ("identity", "failure_bound_log2", "identity.failure_bound_log2"),
    ("decomp3d", "thick_basis_matrices", "decomp3d.thick_basis_matrices"),
    ("decomp3d", "mixed_product_difference", "decomp3d.mixed_product_difference"),
    ("decomp3d", "assemble_cube", "decomp3d.assemble_cube"),
    ("decomp3d", "verify_decomposition_3d", "decomp3d.verify_decomposition_3d"),
    ("decomp3d", "verify_decomposition_2d", "decomp3d.verify_decomposition_2d"),
    ("decomp3d", "verify_scalar_structure", "decomp3d.verify_scalar_structure"),
    ("decomp3d", "verify_triple_product_spectrum",
     "decomp3d.verify_triple_product_spectrum"),
    ("decomp3d", "symmetric_g_vectors", "decomp3d.symmetric_g_vectors"),
    ("decomp3d", "defining_g_vectors", "decomp3d.defining_g_vectors"),
    ("decomp3d", "g3_typo_report", "decomp3d.g3_typo_report"),
    ("decomp3d", "verify_symmetric_decomposition",
     "decomp3d.verify_symmetric_decomposition"),
    ("decomp3d", "evolution_census_closed_form",
     "decomp3d.evolution_census_closed_form"),
    ("decomp3d", "detect_evolution_summands", "decomp3d.detect_evolution_summands"),
    ("dim4", "shift_matrix", "dim4.shift_matrix"),
    ("dim4", "reduce_chain_4d", "dim4.reduce_chain_4d"),
    ("dim4", "nondegeneracy_4d", "dim4.nondegeneracy_4d"),
    ("dim4", "verify_stratification", "dim4.verify_stratification"),
    ("dim4", "cross_check_4d", "dim4.cross_check_4d"),
]

# (module, attribute path, counter name) of functions that only count calls.
COUNTED = [("fields", "FiniteField.mul", "fields.mul.calls")]


def _prod(xs) -> int:
    out = 1
    for x in xs:
        out *= x
    return out


# Work done by one call, computed from argument shapes and results (never
# measured): span name -> (counter name, f(args, result)).
WORK = {
    "fieldmat.matmul": ("fieldmat.matmul.madds",
                        lambda a, r: a[1].size * _prod(a[2].shape[1:])),
    "fieldmat.fold_reduce": ("fieldmat.fold_reduce.bytes",
                             lambda a, r: a[1].nbytes + r.nbytes),
    "fieldmat.rank": ("fieldmat.rank.pivots", lambda a, r: r),
    "lattice.assemble_block": ("lattice.vertex_steps",
                               lambda a, r: _prod(a[1].edges)),
    "pointmap.brute_force_census": ("pointmap.points",
                                    lambda a, r: a[0].ring.q ** a[0].rows),
}


class Tracer:
    """Spans and counters of one process, kept in memory until the end."""

    def __init__(self):
        # (name, start, end, parent index or -1, outermost of its name)
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patched: list = []

    def wrap(self, name: str, fn):
        spans, stack, active, counts = self.spans, self._stack, self._active, self.counts
        clock = time.perf_counter
        work = WORK.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer = not active[name]
            stack.append(idx)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                spans[idx] = (name, start, end, parent, outer)
            if work is not None:
                counts[work[0]] += work[1](args, result)
            return result

        return traced

    def count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> "Tracer":
        """Patch every traced function of the imported cubeblocks package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and n.split(".")[0] == "cubeblocks"]
        for specs, make in ((TRACED, self.wrap), (COUNTED, self.count)):
            for mod_name, path, name in specs:
                owner = sys.modules[f"cubeblocks.{mod_name}"]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                orig = owner.__dict__[attr]
                new = make(name, orig)
                if cls_path:
                    self._patch(owner, attr, orig, new)
                    continue
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, key, orig, new)
        return self

    def _patch(self, owner, attr, orig, new):
        setattr(owner, attr, new)
        self._patched.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def summarize(spans, counts) -> dict:
    """Per-layer metrics from spans and counters.

    ``<span>.calls`` counts calls, ``<span>.s`` is inclusive time of the
    outermost call of each name (recursion is not counted twice), and
    ``<layer>.self_s`` is the time of the layer's spans minus the part
    their child spans cover.
    """
    out: dict = defaultdict(int)
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, parent, outer) in enumerate(spans):
        dur = end - start
        out[f"{name}.calls"] += 1
        if outer:
            out[f"{name}.s"] += dur
        out[f"{name.split('.')[0]}.self_s"] += dur - child[i]
    out.update(counts)
    return dict(out)
