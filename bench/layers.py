"""The benchmark's metrics and the map from each per-layer metric to the
end-to-end metric and workload it should move.

BENCHMARK.json lists the same names, units and directions (a self-test
keeps the two in step); this table adds, for every per-layer metric, the
workloads on which a traced run must see it nonzero.
"""

END_TO_END = [
    # median wall time of one pass of the workload's CLI calls
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    # work per second of pass wall time: b3 trials, enumerated points,
    # or determinant evaluation points, by workload
    {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    # import of cubeblocks plus construction of the workload's fields
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    # ru_maxrss of the pass's process
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]

B3, CENSUS, EVOLVE = "b3-p7", "census-oracle", "evolve-symbolic"
ALL = (B3, CENSUS, EVOLVE)

# (name, unit, better, end-to-end metric it should move, workloads on
# which a traced pass must record it nonzero).  Units ending in
# ".computed" are derived from array shapes, not measured.
PER_LAYER = [
    ("fieldmat.matmul.calls", "count", "lower", "wall_s on b3-p7", (B3,)),
    ("fieldmat.matmul.s", "s", "lower", "wall_s on b3-p7", (B3,)),
    ("fieldmat.matmul.madds", "madds.computed", "lower", "wall_s on b3-p7", (B3,)),
    ("fieldmat.fold_reduce.s", "s", "lower", "wall_s on b3-p7", (B3,)),
    ("fieldmat.fold_reduce.bytes", "bytes.computed", "lower", "wall_s on b3-p7", (B3,)),
    ("fieldmat.rank.calls", "count", "lower", "wall_s on b3-p7", (B3,)),
    ("fieldmat.rank.s", "s", "lower", "wall_s on b3-p7", (B3,)),
    ("fieldmat.rank.pivots", "count", "lower", "wall_s on b3-p7", (B3,)),
    ("fieldmat.self_s", "s", "lower", "wall_s on b3-p7", (B3,)),
    ("fields.inv.calls", "count", "lower", "wall_s on b3-p7", (B3,)),
    ("fields.inv.s", "s", "lower", "wall_s on b3-p7", (B3,)),
    ("lattice.assemble_block.calls", "count", "lower", "wall_s on b3-p7", ALL),
    ("lattice.assemble_block.s", "s", "lower", "wall_s on b3-p7", ALL),
    ("lattice.vertex_steps", "count", "lower", "wall_s on b3-p7", ALL),
    ("decomp3d.verify_scalar_structure.s", "s", "lower", "wall_s on b3-p7", (B3, EVOLVE)),
    ("decomp3d.verify_triple_product_spectrum.s", "s", "lower", "wall_s on b3-p7",
     (B3, EVOLVE)),
    ("pointmap.brute_force_census.s", "s", "lower", "wall_s on census-oracle", (CENSUS,)),
    ("pointmap.points", "count", "lower", "wall_s on census-oracle", (CENSUS,)),
    ("pointmap.points_per_s", "1/s", "higher", "wall_s on census-oracle", (CENSUS,)),
    ("gf2.pack_rows.s", "s", "lower", "wall_s on census-oracle", (CENSUS,)),
    ("census.count_configs.s", "s", "lower", "wall_s on census-oracle", (CENSUS, EVOLVE)),
    ("matrices.rank.s", "s", "lower", "wall_s on census-oracle", (CENSUS, EVOLVE)),
    ("matrices.mat_det.calls", "count", "lower", "wall_s on evolve-symbolic", (EVOLVE,)),
    ("matrices.mat_det.s", "s", "lower", "wall_s on evolve-symbolic", (EVOLVE,)),
    ("matrices.charpoly.s", "s", "lower", "wall_s on evolve-symbolic", (EVOLVE,)),
    ("matrices.matmul.s", "s", "lower", "wall_s on evolve-symbolic", (EVOLVE,)),
    ("matrices.self_s", "s", "lower", "wall_s on evolve-symbolic", (CENSUS, EVOLVE)),
    ("fields.mul.calls", "count", "lower", "wall_s on evolve-symbolic", ALL),
    ("polys.mul.calls", "count", "lower", "wall_s on evolve-symbolic", (EVOLVE,)),
    ("polys.self_s", "s", "lower", "wall_s on evolve-symbolic", (EVOLVE,)),
    # the CLI never calls random_identity_check, so this reads 0 today
    ("identity.random_identity_check.s", "s", "lower", "wall_s on evolve-symbolic", ()),
    ("decomp3d.detect_evolution_summands.s", "s", "lower", "wall_s on evolve-symbolic",
     (EVOLVE,)),
    ("dim4.self_s", "s", "lower", "wall_s on evolve-symbolic", (EVOLVE,)),
    ("lattice.evolve.s", "s", "lower", "peak_rss_mb and wall_s on evolve-symbolic",
     (EVOLVE,)),
    ("fields.FiniteField.s", "s", "lower", "setup_s on every workload", ALL),
    ("fields.self_s", "s", "lower", "wall_s on every workload", ALL),
    ("lattice.self_s", "s", "lower", "wall_s on every workload", ALL),
    ("decomp3d.self_s", "s", "lower", "wall_s on b3-p7 and evolve-symbolic", (B3, EVOLVE)),
    ("gf2.self_s", "s", "lower", "wall_s on census-oracle", (CENSUS,)),
    ("census.self_s", "s", "lower", "wall_s on census-oracle", (CENSUS, EVOLVE)),
    ("pointmap.self_s", "s", "lower", "wall_s on census-oracle", (CENSUS,)),
    ("identity.self_s", "s", "lower", "wall_s on b3-p7", (B3,)),
    ("cli.main.verify.s", "s", "lower", "wall_s on b3-p7 and evolve-symbolic", (B3, EVOLVE)),
    ("cli.main.census.s", "s", "lower", "wall_s on census-oracle", (CENSUS,)),
    ("cli.main.evolve.s", "s", "lower", "wall_s on evolve-symbolic", (EVOLVE,)),
    ("cli.self_s", "s", "lower", "wall_s on every workload", ALL),
    # traced pass wall time minus untraced pass wall time, same run
    ("trace.overhead_s", "s", "lower", "none: the cost of tracing itself", ()),
]

PER_LAYER_UNITS = {name: unit for name, unit, *_ in PER_LAYER}


def required_nonzero(workload: str) -> list[str]:
    """Per-layer metrics a traced pass of the workload must see nonzero."""
    return [name for name, *_, workloads in PER_LAYER if workload in workloads]
