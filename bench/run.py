"""cubeblocks benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source tree holding src/cubeblocks.  Makes the
workload's inputs from the seed, runs one untimed warm-up (import only),
then timed passes for about S seconds, each in a fresh process (child.py)
that imports cubeblocks and drives its CLI in-process.  Every report is
checked against the expected results.  With --trace 0 the passes are
untraced and the end-to-end metrics are reported; with --trace 1 the run
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is one JSON object; a record of every
pass goes to .bench_out/.  One closed-loop caller; BLAS and OpenMP pools
are fixed at one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One run must end within 180 s; leave room to report.
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
THREADS = "1"


class PassError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: THREADS for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(inputs: dict, trace: bool, deadline: float, spans_out=None) -> dict:
    """One pass in a fresh process; the process is killed and reaped if it
    outlives the run's deadline."""
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), "1" if trace else "0"]
    if spans_out:
        cmd.append(str(spans_out))
    try:
        proc = subprocess.run(cmd, input=json.dumps(inputs), capture_output=True,
                              text=True, env=child_env(), cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise PassError("pass timed out") from exc
    if proc.returncode != 0:
        raise PassError(f"pass exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": git_commit(),
            "loadavg_at_start": list(os.getloadavg()),
            "threads": {v: THREADS for v in THREAD_VARS}}


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)

    def check_pass(self, inputs: dict, result: dict, reference: dict | None, tag: str):
        """Every call's expected results, and byte-identical reports to
        the reference pass (so traced and untraced verdicts agree)."""
        for i, (call, got) in enumerate(zip(inputs["calls"], result["calls"])):
            for label, ok in workloads.check_call(call, got["code"], got["report"]):
                self.add(f"{tag} call {i}: {label}", ok)
            if reference is not None:
                self.add(f"{tag} call {i}: same report as first pass",
                         got["report"] == reference["calls"][i]["report"])


def per_layer(result: dict) -> dict:
    vals = {name: result["layers"].get(name, 0) for name, *_ in layers.PER_LAYER}
    s = vals["pointmap.brute_force_census.s"]
    vals["pointmap.points_per_s"] = vals["pointmap.points"] / s if s else 0
    return vals


def measure(args, inputs: dict, checks: Checks, record: dict) -> dict | None:
    deadline = time.monotonic() + RUN_LIMIT_S
    spans_out = OUT / f"spans-{args.workload}.json"
    passes = {False: [], True: []}
    try:
        # untimed warm-up: compiles the .pyc files and fills the file cache
        run_pass(dict(inputs, calls=[]), False, deadline)
        modes = (False, True) if args.trace else (False,)
        rounds = []
        stop = time.monotonic() + args.seconds
        while True:
            began = time.monotonic()
            for mode in modes:
                res = run_pass(inputs, mode, deadline, spans_out if mode else None)
                first = passes[False][0] if passes[False] else None
                checks.check_pass(inputs, res, first, "traced" if mode else "untraced")
                passes[mode].append(res)
            rounds.append(time.monotonic() - began)
            nxt = time.monotonic() + statistics.median(rounds)
            if nxt > stop or nxt > deadline:
                break
    except PassError as exc:
        checks.add(str(exc), False)
        print(f"error: {exc}", file=sys.stderr)
        if not passes[False]:
            return None
    untraced = passes[False]
    record["samples"] = [{k: p[k] for k in ("import_s", "fields_s", "setup_s",
                                            "wall_s", "cpu_s", "rss_mb")}
                         for p in untraced]
    med = statistics.median
    if not args.trace:
        return {"wall_s": med([p["wall_s"] for p in untraced]),
                "work_per_s": med([inputs["work"] / p["wall_s"] for p in untraced]),
                "setup_s": med([p["setup_s"] for p in untraced]),
                "peak_rss_mb": med([p["rss_mb"] for p in untraced])}
    traced = [per_layer(p) for p in passes[True]]
    if not traced:
        return None
    record["traced_samples"] = [{"wall_s": p["wall_s"], "layers": t}
                                for p, t in zip(passes[True], traced)]
    out = {name: med([t[name] for t in traced]) for name, *_ in layers.PER_LAYER}
    out["trace.overhead_s"] = (med([p["wall_s"] for p in passes[True]])
                               - med([p["wall_s"] for p in untraced]))
    for name in layers.required_nonzero(args.workload):
        checks.add(f"traced: {name} nonzero", all(t[name] > 0 for t in traced))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cubeblocks" / "__init__.py").is_file():
        print(f"error: no cubeblocks source under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment()}
    inputs = workloads.make_inputs(args.workload, args.seed)
    record["work"] = {"per_pass": inputs["work"], "unit": inputs["work_unit"]}
    checks = Checks()
    metrics = measure(args, inputs, checks, record)
    failed = len(checks.failures)
    record.update(metrics=metrics, attempted=checks.attempted,
                  failed_checks=checks.failures)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    if metrics is None:
        print("error: no pass completed", file=sys.stderr)
        return 1
    for label in checks.failures[:20]:
        print(f"FAILED: {label}", file=sys.stderr)
    print(f"failed_ratio={failed}/{checks.attempted} "
          f"samples={len(record['samples'])}", file=sys.stderr)
    units = (layers.PER_LAYER_UNITS if args.trace
             else {m["name"]: m["unit"] for m in layers.END_TO_END})
    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
