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


def build_constraint_system(r: RingMatrix, spec, bcs: BoundaryConditions) -> RingMatrix:
    """The constraints left on the free slots, as a matrix C.

    x is permitted iff x (R - I) vanishes on the Periodic slots and x
    vanishes on the ZeroInput slots.  A ZeroInput column e_j of that
    system forces x_j = 0: it adds exactly one to the rank and removes
    row j from the other columns.  So C keeps only the free rows (slots
    that no ZeroInput axis pins) and the Periodic columns of R - I, the
    restriction y of x to the free rows is permitted iff y @ C = 0, and
    the permitted configurations number q^(C.rows - rank C)."""
    field = r.ring
    if not isinstance(field, FiniteField):
        raise InputError("constraint system needs a finite field matrix")
    if len(bcs.tags) != spec.d:
        raise InputError("boundary conditions must cover every axis")
    if r.rows != spec.dimension or r.cols != spec.dimension:
        raise InputError("block does not match the lattice")
    free: list[int] = []
    periodic: list[int] = []
    for axis, tag in enumerate(bcs.tags):
        block = spec.block_range(axis)
        if tag != "ZeroInput":
            free.extend(block)
        if tag == "Periodic":
            periodic.extend(block)
    out = r.submatrix(free, periodic)
    # subtract the identity: each Periodic slot is also a free row
    row_of = {i: t for t, i in enumerate(free)}
    for c, j in enumerate(periodic):
        out[row_of[j], c] = field.sub(out[row_of[j], c], field.one)
    return out


def count_configs(r: RingMatrix, spec, bcs: BoundaryConditions) -> ConfigCount:
    field = r.ring
    c = build_constraint_system(r, spec, bcs)
    return ConfigCount(field.p, field.q, c.rows - rank(c))


def census_report(r: RingMatrix, spec, bcs: BoundaryConditions) -> dict:
    """The rank census; a caller that runs the oracle sets oracle_checked."""
    count = count_configs(r, spec, bcs)
    return {"q": count.q, "exponent": count.e, "bcs": bcs.to_json(),
            "oracle_checked": False}
