"""Seeded inputs, expected results and output checks for the benchmark.

Every input is derived from the workload name and the seed alone; the
program under test only ever sees the generated argv and brick JSON.
Expected census exponents come from an independent reference (table
arithmetic over GF(p^m) in numpy, a different vertex order and a
different elimination), never from cubeblocks itself.
"""

from __future__ import annotations

import itertools
import json
import random

import numpy as np

WORKLOADS = ("b3-p7", "census-oracle", "evolve-symbolic")

# Trials per pass of `verify b3 --p 7`: one trial (both claims) takes
# about 3 s on a 2-core box, so a 40 s run holds about twelve passes.
B3_TRIALS = 1

# Mirrors cubeblocks.pointmap.CENSUS_GUARD: every oracle census must stay
# under it, otherwise the program refuses the input.
CENSUS_GUARD = 1 << 22

# x^8 + x^4 + x^3 + x + 1, irreducible over F_2.
GF256_MODULUS = [1, 1, 0, 1, 1, 0, 0, 0, 1]


# ----------------------------------------------------------------------
# reference arithmetic
# ----------------------------------------------------------------------

class Tables:
    """Addition, subtraction, multiplication and inverse tables of GF(p^m),
    elements encoded as cubeblocks encodes them (base-p coefficient
    digits, lowest degree first).  Supports prime fields and GF(2^m)."""

    def __init__(self, p: int, m: int, modulus):
        q = p ** m
        a = np.arange(q, dtype=np.int64)
        if m == 1:
            self.add = np.add.outer(a, a) % p
            self.sub = np.subtract.outer(a, a) % p
            self.mul = np.multiply.outer(a, a) % p
        elif p == 2:
            modbits = sum(1 << i for i, c in enumerate(modulus) if c)
            x, y = np.meshgrid(a, a, indexing="ij")
            prod = np.zeros_like(x)
            for i in range(m):
                prod ^= np.where((y >> i) & 1, x << i, 0)
            for t in range(2 * m - 2, m - 1, -1):
                prod = np.where((prod >> t) & 1, prod ^ (modbits << (t - m)), prod)
            self.add = self.sub = a[:, None] ^ a[None, :]
            self.mul = prod
        else:
            raise ValueError(f"no reference tables for GF({p}^{m})")
        self.inv = np.zeros(q, dtype=np.int64)
        self.inv[1:] = np.argmax(self.mul[1:] == 1, axis=1)


def reference_rank(t: Tables, a: np.ndarray) -> int:
    """Rank by forward elimination with table arithmetic."""
    a = a.copy()
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        a[[r, piv]] = a[[piv, r]]
        below = r + 1 + np.flatnonzero(a[r + 1:, c])
        if below.size:
            f = t.mul[a[below, c], t.inv[a[r, c]]]
            a[below] = t.sub[a[below], t.mul[f[:, None], a[r][None, :]]]
        r += 1
        if r == rows:
            break
    return r


def reference_census_exponent(brick: dict, edge: int, tags: list[str]) -> int:
    """Exponent e of the census q^e: assemble the block in lexicographic
    vertex order (a linear extension of the lattice order, unlike the
    program's layered order), build the boundary constraints and subtract
    their rank from the dimension."""
    fld = brick["field"]
    t = Tables(fld["p"], fld["m"], fld["modulus"])
    d, thin = brick["d"], brick["thin_dims"]
    b = np.array(brick["entries"], dtype=np.int64)
    k = sum(thin)
    lines = edge ** (d - 1)
    offsets = list(itertools.accumulate([0] + [lines * s for s in thin]))
    n = offsets[-1]
    eye = np.eye(n, dtype=np.int64)
    acc = eye.copy()
    for v in itertools.product(range(edge), repeat=d):
        idx = []
        for i in range(d):
            slot = 0
            for x in v[:i] + v[i + 1:]:
                slot = slot * edge + x
            pos = offsets[i] + slot * thin[i]
            idx.extend(range(pos, pos + thin[i]))
        cols = acc[:, idx]
        new = np.zeros_like(cols)
        for j in range(k):
            for i in range(k):
                new[:, j] = t.add[new[:, j], t.mul[cols[:, i], b[i, j]]]
        acc[:, idx] = new
    constraints = []
    for axis, tag in enumerate(tags):
        for j in range(offsets[axis], offsets[axis + 1]):
            if tag == "Periodic":
                constraints.append(t.sub[acc[:, j], eye[:, j]])
            elif tag == "ZeroInput":
                constraints.append(eye[:, j])
    if not constraints:
        return n
    return n - reference_rank(t, np.stack(constraints, axis=1))


def mixed_product_difference(t: Tables, a) -> int:
    """a12 a23 a31 - a13 a32 a21: nonzero marks the generic 3D case."""
    pos = t.mul[t.mul[a[0][1], a[1][2]], a[2][0]]
    neg = t.mul[t.mul[a[0][2], a[2][1]], a[1][0]]
    return int(t.sub[pos, neg])


# ----------------------------------------------------------------------
# input generation
# ----------------------------------------------------------------------

def _field(p: int, m: int, modulus=None) -> dict:
    return {"p": p, "m": m, "modulus": modulus or [0, 1]}


def _brick(d, thin, field, entries) -> dict:
    return {"d": d, "thin_dims": list(thin), "field": field, "entries": entries}


def _census_call(brick: dict, edge: int, bcs: str, oracle: bool, seed: int) -> dict:
    fld = brick["field"]
    q = fld["p"] ** fld["m"]
    lines = edge ** (brick["d"] - 1)
    n = lines * sum(brick["thin_dims"])
    tags = bcs.split(",")
    if len(tags) == 1:
        tags = tags * brick["d"]
    points = q ** n if oracle else 0
    if points > CENSUS_GUARD:
        raise ValueError(f"census over {points} points exceeds the guard")
    argv = ["census", "--brick", json.dumps(brick, sort_keys=True),
            "--edge", str(edge), "--bcs", bcs, "--seed", str(seed),
            "--no-timestamp"]
    if oracle:
        argv.append("--oracle")
    return {"argv": argv,
            "expect": {"kind": "census", "q": q, "oracle": oracle,
                       "exponent": reference_census_exponent(brick, edge, tags)},
            "work": points}


def _b3(rng: random.Random) -> dict:
    p = 7
    argv = ["verify", "b3", "--p", str(p), "--trials", str(B3_TRIALS),
            "--seed", str(rng.randrange(1 << 31)), "--no-timestamp"]
    return {"fields": [[p, 16, None]],
            "calls": [{"argv": argv,
                       "expect": {"kind": "b3", "p": p, "trials": B3_TRIALS},
                       "work": B3_TRIALS}],
            "work_unit": "b3 trials"}


def _census(rng: random.Random) -> dict:
    gf2, gf3 = _field(2, 1), _field(3, 1)
    gf256 = _field(2, 8, GF256_MODULUS)
    thin = (2, 2, 1)
    packed = _brick(3, thin, gf2, [[rng.randrange(2) for _ in range(5)]
                                   for _ in range(5)])
    planar = _brick(2, (1, 1), gf3, [[rng.randrange(3) for _ in range(2)]
                                     for _ in range(2)])
    wide = _brick(3, (1, 1, 1), gf256, [[rng.randrange(256) for _ in range(3)]
                                        for _ in range(3)])
    calls = [_census_call(packed, 2, bcs, True, rng.randrange(1 << 31))
             for bcs in ("Periodic", "Free", "Periodic,ZeroInput,Free")]
    calls.append(_census_call(planar, 5, "Periodic,Free", True,
                              rng.randrange(1 << 31)))
    calls.append(_census_call(wide, 8, "Periodic,ZeroInput,Free", False,
                              rng.randrange(1 << 31)))
    return {"fields": [[2, 1, gf2["modulus"]], [3, 1, gf3["modulus"]],
                       [2, 8, GF256_MODULUS]],
            "calls": calls, "work_unit": "enumerated points"}


# verify all: (case, evaluation points) of its three evolution detections,
# whose blocks have dimensions 4, 12 and 12.
VERIFY_ALL_DETECTIONS = {"2d": 5, "3d-generic": 13, "3d-symmetric": 13}
VERIFY_ALL_RESULTS = 26


def _evolve(rng: random.Random) -> dict:
    t = Tables(2, 8, GF256_MODULUS)
    while True:
        a = [[rng.randrange(1, 256) for _ in range(3)] for _ in range(3)]
        if mixed_product_difference(t, a):
            break
    brick = json.dumps(_brick(3, (1, 1, 1), _field(2, 8, GF256_MODULUS), a),
                       sort_keys=True)
    all_argv = ["verify", "all", "--seed", str(rng.randrange(1 << 31)),
                "--no-timestamp"]
    calls = [{"argv": all_argv, "expect": {"kind": "verify-all"},
              "work": sum(VERIFY_ALL_DETECTIONS.values())}]
    # summand detection runs only while q = 256 exceeds twice the block
    # dimension: at 2 steps (48) it does, at 3 steps (192) it does not.
    for steps, dims, counts, points in ((2, [12, 48], [10, 6], 49),
                                        (3, [12, 48, 192], [36, 28], 0)):
        argv = ["evolve", "--brick", brick, "--steps", str(steps),
                "--seed", str(rng.randrange(1 << 31)), "--no-timestamp"]
        calls.append({"argv": argv,
                      "expect": {"kind": "evolve", "dimensions": dims,
                                 "case": "3d-generic",
                                 "predicted_counts": counts,
                                 "detection_points": points},
                      "work": points})
    return {"fields": [[2, 8, GF256_MODULUS], [2, 16, None]], "calls": calls,
            "work_unit": "determinant evaluation points"}


_MAKERS = {"b3-p7": _b3, "census-oracle": _census, "evolve-symbolic": _evolve}


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs and expected results, a function of
    (workload, seed) only."""
    rng = random.Random(f"cubeblocks-bench:{workload}:{seed}")
    out = _MAKERS[workload](rng)
    out["workload"] = workload
    out["seed"] = seed
    out["work"] = sum(c["work"] for c in out["calls"])
    return out


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

def _check_b3(expect, rep):
    p, trials = expect["p"], expect["trials"]
    res = {r["name"]: r for r in rep.get("results", [])}
    scalar = res.get(f"scalar-structure-p{p}", {})
    spectrum = res.get(f"triple-product-spectrum-p{p}", {})
    for r in (scalar, spectrum):
        yield "verdict", r.get("verdict") == "verified"
        yield "trials", r.get("details", {}).get("trials") == trials
        bound = r.get("log2_failure_bound")
        yield "failure bound", isinstance(bound, (int, float)) and bound < 0
    yield "scalar exponent", scalar.get("details", {}).get("scalar_exponent") == [p]
    yield "multiplicities", (spectrum.get("details", {}).get("multiplicities")
                             == [p * (p - 1) // 2, p * (p + 1) // 2])


def _check_census(expect, rep):
    c = rep.get("census", {})
    yield "q", c.get("q") == expect["q"]
    yield "exponent", c.get("exponent") == expect["exponent"]
    yield "oracle checked", c.get("oracle_checked") is expect["oracle"]
    if expect["oracle"]:
        yield "oracle agrees", c.get("oracle_agrees") is True


def _check_verify_all(expect, rep):
    results = rep.get("results", [])
    yield "result count", len(results) == VERIFY_ALL_RESULTS
    yield "all verified", all(r.get("verdict") == "verified" for r in results)
    by_name = {r["name"]: r for r in results}
    for case, points in VERIFY_ALL_DETECTIONS.items():
        det = by_name.get(f"evolution-detection-{case}", {}).get("details", {})
        yield f"detection points {case}", det.get("points") == points
    spec = by_name.get("triple-product-spectrum-p2", {}).get("details", {})
    yield "p=2 multiplicities", spec.get("multiplicities") == [1, 3]


def _check_evolve(expect, rep):
    yield "dimensions", rep.get("dimensions") == expect["dimensions"]
    yield "case", rep.get("case") == expect["case"]
    yield "predicted counts", rep.get("predicted_counts") == expect["predicted_counts"]
    det = rep.get("detection")
    if expect["detection_points"]:
        det = det or {}
        yield "detection verdict", det.get("verdict") == "verified"
        yield "detection points", (det.get("details", {}).get("points")
                                   == expect["detection_points"])
    else:
        yield "no detection", det is None


_CHECKS = {"b3": _check_b3, "census": _check_census,
           "verify-all": _check_verify_all, "evolve": _check_evolve}


def check_call(call: dict, code: int, text: str) -> list[tuple[str, bool]]:
    """(label, passed) for every check of one CLI call's exit code and
    report; the command must exit 0 with status "verified"."""
    out = [("exit code", code == 0)]
    try:
        rep = json.loads(text)
    except json.JSONDecodeError:
        return out + [("report is JSON", False)]
    out.append(("status", rep.get("status") == "verified"))
    expect = call["expect"]
    out.extend(_CHECKS[expect["kind"]](expect, rep))
    return out
