"""Exact configuration counting via linear constraints.

Per-axis boundary conditions on a block R acting on row vectors x:
Periodic pins the axis output to the axis input, ZeroInput pins the axis
input to zero, Free imposes nothing.  Each condition is linear in x, so
the permitted configurations form a subspace and the count is q^e.

Over GF(p^m) the census reads only the free rows of the block (the slots
that no ZeroInput axis pins), as a coefficient array, and from them only
the Periodic columns: ``free_rows`` assembles just those rows, and none
when no axis is Periodic, since then nothing constrains the free slots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fieldmat
from .errors import InputError
from .fields import FiniteField
from .lattice import assemble_block
from .matrices import rank

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


def free_and_periodic(spec, bcs: BoundaryConditions) -> tuple[list[int], list[int]]:
    """The free slots (those of every axis that is not ZeroInput) and the
    Periodic slots, each in increasing order."""
    if len(bcs.tags) != spec.d:
        raise InputError("boundary conditions must cover every axis")
    free: list[int] = []
    periodic: list[int] = []
    for axis, tag in enumerate(bcs.tags):
        block = spec.block_range(axis)
        if tag != "ZeroInput":
            free.extend(block)
        if tag == "Periodic":
            periodic.extend(block)
    return free, periodic


def free_rows(brick, spec, bcs: BoundaryConditions) -> np.ndarray | None:
    """The rows of the brick's block that the census reads: the free rows
    when an axis is Periodic, else None, with nothing assembled."""
    free, periodic = free_and_periodic(spec, bcs)
    return assemble_block(brick, spec, rows=free) if periodic else None


def build_constraint_system(field: FiniteField, rows: np.ndarray, spec,
                            bcs: BoundaryConditions) -> np.ndarray:
    """The constraints left on the free slots, as a coefficient array C.

    x is permitted iff x (R - I) vanishes on the Periodic slots and x
    vanishes on the ZeroInput slots.  A ZeroInput column e_j of that
    system forces x_j = 0: it adds exactly one to the rank and removes
    row j from the other columns.  So C keeps only the free rows (slots
    that no ZeroInput axis pins, given as rows, the block's rows at those
    slots) and the Periodic columns of R - I, the restriction y of x to
    the free rows is permitted iff y @ C = 0, and the permitted
    configurations number q^(|free| - rank C)."""
    if not isinstance(field, FiniteField):
        raise InputError("constraint system needs a finite field matrix")
    free, periodic = free_and_periodic(spec, bcs)
    if rows.shape != (len(free), spec.dimension, field.m):
        raise InputError("block rows do not match the lattice")
    out = rows[:, periodic]
    # subtract the identity: each Periodic slot is also a free row, and
    # the one of GF(p^m) has coefficients (1, 0, ..., 0)
    at, col = np.searchsorted(free, periodic), np.arange(len(periodic))
    out[at, col, 0] = (out[at, col, 0] - 1) % field.p
    return out


def count_configs(field: FiniteField, rows: np.ndarray | None, spec,
                  bcs: BoundaryConditions) -> ConfigCount:
    """q^(|free| - rank C) for the block's free rows (see
    ``build_constraint_system``).  With no Periodic axis nothing
    constrains the free slots: the count is q^|free| and rows is not
    read, so a caller may pass None (as ``free_rows`` does)."""
    free, periodic = free_and_periodic(spec, bcs)
    if not periodic:
        return ConfigCount(field.p, field.q, len(free))
    c = build_constraint_system(field, rows, spec, bcs)
    # through matrices.rank, which the benchmark times on its own
    # (matrices.rank.s); the conversion goes when that moves to fieldmat
    return ConfigCount(field.p, field.q, len(free) - rank(fieldmat.from_array(field, c)))


def census_report(field: FiniteField, rows: np.ndarray | None, spec,
                  bcs: BoundaryConditions) -> dict:
    """The rank census; a caller that runs the oracle sets oracle_checked."""
    count = count_configs(field, rows, spec, bcs)
    return {"q": count.q, "exponent": count.e, "bcs": bcs.to_json(),
            "oracle_checked": False}
