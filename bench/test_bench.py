"""Self-tests of the benchmark: python3 -m pytest -q bench"""

import json
import random
import shutil
import subprocess
import sys
import time

import layers
import run
import spans
import workloads


def test_same_seed_gives_identical_inputs():
    for w in workloads.WORKLOADS:
        a = json.dumps(workloads.make_inputs(w, 7), sort_keys=True).encode()
        b = json.dumps(workloads.make_inputs(w, 7), sort_keys=True).encode()
        assert a == b


def test_other_seed_gives_other_bricks():
    for w in workloads.WORKLOADS:
        a = workloads.make_inputs(w, 7)["calls"]
        b = workloads.make_inputs(w, 8)["calls"]
        assert [c["argv"] for c in a] != [c["argv"] for c in b]
    # calls 2, 3 and 4 carry the GF(2), GF(3) and GF(2^8) bricks
    bricks = [[c["argv"][2] for c in workloads.make_inputs("census-oracle", s)["calls"][2:]]
              for s in (7, 8)]
    assert all(x != y for x, y in zip(*bricks))


def test_evolve_brick_is_generic():
    t = workloads.Tables(2, 8, workloads.GF256_MODULUS)
    for seed in range(20):
        call = workloads.make_inputs("evolve-symbolic", seed)["calls"][1]
        a = json.loads(call["argv"][2])["entries"]
        assert all(x for row in a for x in row)
        assert workloads.mixed_product_difference(t, a) != 0


def test_reference_exponent_by_enumeration():
    # GF(3), 2D, edge 2: 3^4 points, small enough to enumerate here
    rng = random.Random(0)
    for _ in range(5):
        entries = [[rng.randrange(3) for _ in range(2)] for _ in range(2)]
        brick = {"d": 2, "thin_dims": [1, 1], "field": {"p": 3, "m": 1, "modulus": [0, 1]},
                 "entries": entries}
        # lex order (0,0), (0,1), (1,0), (1,1); axis-0 lines are indexed by
        # x1, axis-1 lines by x0
        def image(x):
            x = list(x)
            for v0, v1 in ((0, 0), (0, 1), (1, 0), (1, 1)):
                i, j = v1, 2 + v0
                a, b = x[i], x[j]
                x[i] = (a * entries[0][0] + b * entries[1][0]) % 3
                x[j] = (a * entries[0][1] + b * entries[1][1]) % 3
            return x
        count = 0
        for idx in range(3 ** 4):
            x = [(idx // 3 ** k) % 3 for k in range(4)]
            if image(x)[:2] == x[:2] and x[2:] == [0, 0]:
                count += 1
        e = workloads.reference_census_exponent(brick, 2, ["Periodic", "ZeroInput"])
        assert count == 3 ** e


def test_self_time_on_synthetic_tree():
    # a [0, 10] > b [1, 4] > a [2, 3]  and  a > c [5, 9]
    tree = [("x.a", 0.0, 10.0, -1, True), ("y.b", 1.0, 4.0, 0, True),
            ("x.a", 2.0, 3.0, 1, False), ("z.c", 5.0, 9.0, 0, True)]
    out = spans.summarize(tree, {"x.mul.calls": 5})
    assert out["x.a.calls"] == 2 and out["x.a.s"] == 10.0
    assert out["x.self_s"] == (10 - 3 - 4) + 1
    assert out["y.self_s"] == 3 - 1
    assert out["z.self_s"] == 4
    assert out["x.mul.calls"] == 5


def test_tracer_patches_every_binding_and_restores():
    sys.path.insert(0, str(run.SRC))
    from cubeblocks import census, matrices
    orig = matrices.rank
    tracer = spans.Tracer().install()
    try:
        assert census.rank is matrices.rank and matrices.rank is not orig
    finally:
        tracer.uninstall()
    assert census.rank is orig and matrices.rank is orig


def _small_inputs():
    brick = {"d": 3, "thin_dims": [1, 1, 1], "field": {"p": 2, "m": 1, "modulus": [0, 1]},
             "entries": [[1, 1, 0], [0, 1, 1], [1, 0, 1]]}
    calls = [workloads._census_call(brick, 2, "Periodic", True, 3),
             {"argv": ["verify", "b3", "--p", "3", "--trials", "1", "--no-timestamp"],
              "expect": {"kind": "b3", "p": 3, "trials": 1}, "work": 1}]
    return {"fields": [[2, 1, [0, 1]]], "calls": calls}


def test_traced_pass_returns_untraced_verdicts():
    inputs = _small_inputs()
    deadline = time.monotonic() + 120
    plain = run.run_pass(inputs, False, deadline)
    traced = run.run_pass(inputs, True, deadline)
    checks = run.Checks()
    checks.check_pass(inputs, plain, None, "untraced")
    checks.check_pass(inputs, traced, plain, "traced")
    assert checks.failures == [] and checks.attempted > 10
    assert traced["layers"]["pointmap.points"] == 2 ** 12
    assert traced["layers"]["fieldmat.rank.calls"] == 2


def test_benchmark_json_matches_layer_map():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["end_to_end"] == layers.END_TO_END
    assert spec["per_layer"] == [{"name": n, "unit": u, "better": b}
                                 for n, u, b, *_ in layers.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_tree_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "b3-p7",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
