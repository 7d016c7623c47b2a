"""Exact configuration counting via linear constraints.

Per-axis boundary conditions on a block R acting on row vectors x:
Periodic pins the axis output to the axis input, ZeroInput pins the axis
input to zero, Free imposes nothing.  Each condition is linear in x, so
the permitted configurations form a subspace and the count is q^e.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .fields import FiniteField
from .matrices import RingMatrix, rank

TAGS = ("Periodic", "ZeroInput", "Free")


@dataclass(frozen=True)
class BoundaryConditions:
    tags: tuple[str, ...]

    def __post_init__(self):
        for t in self.tags:
            if t not in TAGS:
                raise InputError(f"unknown boundary tag {t!r}")

    @classmethod
    def uniform(cls, d: int, tag: str) -> "BoundaryConditions":
        return cls((tag,) * d)

    @classmethod
    def toric(cls, d: int) -> "BoundaryConditions":
        return cls.uniform(d, "Periodic")

    def to_json(self) -> list[str]:
        return list(self.tags)


@dataclass(frozen=True)
class ConfigCount:
    """The number of permitted configurations, stored as q^e."""
    p: int
    q: int
    e: int


def build_constraint_system(r: RingMatrix, profile, bcs: BoundaryConditions) -> RingMatrix:
    """Matrix C with one column per scalar constraint; x is permitted
    iff x @ C = 0."""
    field = r.ring
    if not isinstance(field, FiniteField):
        raise InputError("constraint system needs a finite field matrix")
    if len(bcs.tags) != profile.spec.d:
        raise InputError("boundary conditions must cover every axis")
    if r.rows != profile.total or r.cols != profile.total:
        raise InputError("block does not match the profile")
    n = r.rows
    cols: list[int] = []
    for axis, tag in enumerate(bcs.tags):
        block = list(profile.block_profile.block_range(axis))
        if tag == "Periodic":
            cols.extend(("rm1", j) for j in block)
        elif tag == "ZeroInput":
            cols.extend(("sel", j) for j in block)
    out = RingMatrix.zeros(field, n, len(cols))
    rm1 = r - RingMatrix.identity(field, n)
    for c, (kind, j) in enumerate(cols):
        if kind == "rm1":
            for i in range(n):
                out[i, c] = rm1[i, j]
        else:
            out[j, c] = field.one
    return out


def count_configs(r: RingMatrix, profile, bcs: BoundaryConditions) -> ConfigCount:
    field = r.ring
    c = build_constraint_system(r, profile, bcs)
    e = r.rows - rank(c)
    return ConfigCount(field.p, field.q, e)


def census_report(r: RingMatrix, profile, bcs: BoundaryConditions,
                  oracle_checked: bool = False) -> dict:
    count = count_configs(r, profile, bcs)
    return {"q": count.q, "exponent": count.e, "bcs": bcs.to_json(),
            "oracle_checked": oracle_checked}
