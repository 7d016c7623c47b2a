"""Randomized polynomial-identity testing with explicit failure bounds."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field

from .errors import InputError
from .fields import FiniteField
from .matrices import RingMatrix
from .polys import MultiPoly


@dataclass
class Verdict:
    """Outcome of a verification: exact when log2_failure_bound is None,
    otherwise correct except with probability at most 2^log2_failure_bound."""
    ok: bool
    log2_failure_bound: float | None = None
    witness: dict | None = None
    details: dict = dc_field(default_factory=dict)

    def to_json(self) -> dict:
        out = {"verified": self.ok}
        if self.log2_failure_bound is not None:
            out["log2_failure_bound"] = self.log2_failure_bound
        if self.witness is not None:
            out["witness"] = self.witness
        if self.details:
            out["details"] = self.details
        return out


def failure_bound_log2(degree_bound: int, q: int, trials: int) -> float:
    """log2 of (degree_bound / q)^trials, the chance that a nonzero
    polynomial of that degree vanishes at all sampled points.  With no
    trial nothing was tested, so there is no bound to give."""
    if trials < 1:
        raise InputError(f"need at least one trial, got {trials}")
    if degree_bound <= 0:
        return float("-inf")
    if degree_bound >= q:
        return 0.0
    return trials * (math.log2(degree_bound) - math.log2(q))


def _poly_vars(m: RingMatrix) -> tuple[str, ...]:
    for x in m.data:
        if isinstance(x, MultiPoly):
            return x.vars
    raise InputError("matrix holds no polynomial entries")


def _degree_bound(*mats: RingMatrix) -> int:
    deg = 0
    for m in mats:
        for x in m.data:
            if isinstance(x, MultiPoly):
                deg = max(deg, x.total_degree())
    return deg


def random_identity_check(lhs: RingMatrix, rhs: RingMatrix, trials: int,
                          field: FiniteField, seed: int) -> Verdict:
    """Entrywise Schwartz-Zippel test of lhs = rhs over a sampled field.

    Equality of every entry difference is tested at `trials` uniform
    points; agreement everywhere yields Verified with failure bound
    (degree_bound / |F|)^trials, disagreement yields a witness
    assignment.  Deterministic given the seed.
    """
    if (lhs.rows, lhs.cols) != (rhs.rows, rhs.cols):
        raise InputError("shape mismatch between the two sides")
    if lhs == rhs:
        return Verdict(True, log2_failure_bound=None,
                       details={"syntactic": True, "trials": 0})
    variables = _poly_vars(lhs)
    rng = random.Random(seed)
    deg = _degree_bound(lhs, rhs)
    for trial in range(trials):
        point = {v: field.sample(rng) for v in variables}
        for i in range(lhs.rows):
            for j in range(lhs.cols):
                a, b = lhs[i, j], rhs[i, j]
                if a == b:
                    continue
                va = a.specialize(point, field) if isinstance(a, MultiPoly) else field.from_int(a)
                vb = b.specialize(point, field) if isinstance(b, MultiPoly) else field.from_int(b)
                if va != vb:
                    return Verdict(False, witness={
                        "assignment": {v: point[v] for v in variables},
                        "entry": [i, j], "trial": trial,
                        "lhs_value": va, "rhs_value": vb})
    return Verdict(True,
                   log2_failure_bound=failure_bound_log2(deg, field.q, trials),
                   details={"trials": trials, "degree_bound": deg,
                            "field": field.to_json()})
