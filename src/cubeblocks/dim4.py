"""Four-dimensional blocks via chain reduction to three dimensions.

A 4x4 brick repeated l times along the fourth axis, with the axis-4
boundary condition folded in, acts like a 3x3 brick whose entries live
in the shift algebra F[t]/(t^l - 1) for the periodic condition or
F[t]/(t^l) for the zero-input one; as l x l matrices these are the
circulants and the upper triangular Toeplitz matrices.
The stratification of the hypercube block into independent 3D layers is
verified through the same conjugation identity as the scalar case.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InputError, SingularMatrixError
from .fields import FiniteField
from .identity import Verdict
from .lattice import LatticeSpec, BrickSpec, assemble_block
from .matrices import RingMatrix, mat_det
from .census import BoundaryConditions, count_configs
from .polys import ShiftAlgebra
from . import decomp3d

CASES = ("Periodic4", "ZeroInput4")


@dataclass
class Brick4:
    """A 4x4 brick with the split view used by the chain reduction."""
    matrix: RingMatrix

    def __post_init__(self):
        if self.matrix.rows != 4 or self.matrix.cols != 4:
            raise InputError("the 4D brick must be 4x4")

    @property
    def field(self) -> FiniteField:
        return self.matrix.ring

    @property
    def k(self) -> RingMatrix:
        return self.matrix.submatrix(range(3), range(3))

    @property
    def l_col(self) -> list:
        return [self.matrix[i, 3] for i in range(3)]

    @property
    def m_row(self) -> list:
        return [self.matrix[3, j] for j in range(3)]

    @property
    def b44(self):
        return self.matrix[3, 3]

    @classmethod
    def random(cls, field: FiniteField, rng: random.Random) -> "Brick4":
        return cls(RingMatrix(field, 4, 4,
                              [field.sample(rng) for _ in range(16)]))


def shift_matrix(field: FiniteField, l: int, case: str) -> RingMatrix:
    """Superdiagonal of ones; the periodic case closes the cycle with a
    lower-left one, the zero-input case is nilpotent."""
    if case not in CASES:
        raise InputError(f"unknown chain case {case!r}")
    t = RingMatrix.zeros(field, l, l)
    for i in range(l - 1):
        t[i, i + 1] = field.one
    if case == "Periodic4":
        t[l - 1, 0] = field.one
    return t


@dataclass
class Reduced3D:
    """3x3 brick with entries in the chain's shift algebra."""
    algebra: ShiftAlgebra
    entries: list          # 3x3 nested list of algebra elements

    def brick_over_field(self) -> BrickSpec:
        """The same brick flattened to a 3l x 3l field matrix with thin
        dimensions (l, l, l)."""
        alg = self.algebra
        l = alg.l
        out = RingMatrix.zeros(alg.base, 3 * l, 3 * l)
        for i in range(3):
            for j in range(3):
                out.set_block(i * l, j * l, alg.matrix(self.entries[i][j]))
        return BrickSpec(3, (l, l, l), out)


def reduce_chain_4d(brick: Brick4, l: int, case: str) -> Reduced3D:
    """Fold a length-l chain of 4x4 bricks along the fourth axis into a
    3x3 brick with entries k_ij + l_i m_j w in the shift algebra, where
    w = t (1 - b44 t)^-1 sums the paths through the chain."""
    if case not in CASES:
        raise InputError(f"unknown chain case {case!r}")
    field = brick.field
    b44 = brick.b44
    alg = ShiftAlgebra(field, l, case == "Periodic4")
    # (1 - b44 t)(1 + b44 t + ... + (b44 t)^(l-1)) = 1 - b44^l t^l, which
    # is 1 - b44^l when periodic and 1 when t^l = 0
    series = [field.one]
    for _ in range(l - 1):
        series.append(field.mul(series[-1], b44))
    if alg.periodic:
        rest = field.sub(field.one, field.mul(series[-1], b44))
        if rest == field.zero:
            raise SingularMatrixError(
                "b44 is an l-th root of unity; the chain cannot be folded")
        inv = field.inv(rest)
        w = [field.mul(c, inv) for c in series[-1:] + series[:-1]]
    else:
        w = [field.zero] + series[:-1]
    entries = []
    lcol, mrow = brick.l_col, brick.m_row
    for i in range(3):
        row = []
        for j in range(3):
            coeff = field.mul(lcol[i], mrow[j])
            entry = [field.mul(coeff, c) for c in w]
            entry[0] = field.add(brick.k[i, j], entry[0])
            row.append(tuple(entry))
        entries.append(row)
    return Reduced3D(alg, entries)


def _row_sum_image(brick: Brick4, case: str):
    """Image of each reduced entry under the algebra homomorphism that
    kills the shift structure: the row sum for circulants (shift -> 1),
    the diagonal entry for triangular Toeplitz (shift -> 0)."""
    field = brick.field
    if case == "Periodic4":
        w_img = field.div(field.one, field.sub(field.one, brick.b44))
    else:
        w_img = field.zero
    grid = []
    for i in range(3):
        row = []
        for j in range(3):
            coeff = field.mul(brick.l_col[i], brick.m_row[j])
            row.append(field.add(brick.k[i, j], field.mul(coeff, w_img)))
        grid.append(row)
    return grid


def nondegeneracy_4d(brick: Brick4, case: str, n: int) -> bool:
    """Whether the folded brick satisfies the 3D nondegeneracy condition
    for an edge of length 2^n, computed two ways: the scalar inequality
    through the structure-killing homomorphism, and the determinant of
    the algebra element itself."""
    field = brick.field
    if field.p != 2:
        raise InputError("the nondegeneracy criterion is for characteristic 2")
    l = 2 ** n
    if case == "Periodic4" and field.pow(brick.b44, l) == field.one:
        raise SingularMatrixError(
            "b44 is an l-th root of unity; the chain is degenerate")
    grid = _row_sum_image(brick, case)
    scalar_diff = decomp3d.mixed_product_difference(field, grid)
    via_scalar = scalar_diff != field.zero
    reduced = reduce_chain_4d(brick, l, case)
    alg = reduced.algebra
    d_elem = decomp3d.mixed_product_difference(alg, reduced.entries)
    via_det = mat_det(alg.matrix(d_elem)) != field.zero
    if via_scalar != via_det:
        raise RuntimeError("nondegeneracy routes disagree")
    return via_det


def verify_stratification(brick: Brick4, n: int, case: str) -> decomp3d.DecompositionReport:
    """Hypercube of edge 2^n with b44 = 0: the block splits into 2^n
    independent 3D layers, each decomposing per the cube identity with
    brick entries (b_ij + b_i4 b_4j)^(2^n) (periodic) or b_ij^(2^n)
    (zero-input)."""
    field = brick.field
    if field.p != 2:
        raise InputError("stratification is verified in characteristic 2")
    if brick.b44 != field.zero:
        raise InputError("the stratification identity assumes b44 = 0")
    if n > 2:
        raise InputError("step count capped at 2 for desk-scale runs")
    l = 2 ** n
    layers = l
    reduced = reduce_chain_4d(brick, l, case)
    alg = reduced.algebra
    e = 2 ** n
    # scalar-power law: every algebra element to the 2^n-th is scalar
    for row in reduced.entries:
        for x in row:
            acc = x
            for _ in range(n):
                acc = alg.mul(acc, acc)
            if not alg.is_scalar(acc):
                return decomp3d.DecompositionReport(
                    [], e, Verdict(False, witness={"failed": "scalar power"}))
    # predicted per-layer brick entries
    def predicted(i, j):
        coeff = field.mul(brick.l_col[i], brick.m_row[j]) \
            if case == "Periodic4" else field.zero
        return field.pow(field.add(brick.k[i, j], coeff), e)
    # evolve the algebra-valued brick and check the conjugation identity
    # at each step's brick (the cube identity over the algebra)
    current = [[x for x in row] for row in reduced.entries]
    for step in range(n):
        blk = decomp3d.assemble_cube(alg, current, 2)
        p_full = decomp3d._stack_basis(alg, decomp3d.thick_basis_rows(alg, current))
        if decomp3d._conjugation_mismatch(
                p_full, blk, decomp3d._sigma_generic(alg, current)) is not None:
            return decomp3d.DecompositionReport(
                [], e, Verdict(False, witness={"failed": "conjugation",
                                               "step": step}))
        current = [[alg.mul(current[i][j], current[i][j]) for j in range(3)]
                   for i in range(3)]
    # after n steps every entry must be the predicted scalar
    for i in range(3):
        for j in range(3):
            if current[i][j] != alg.scalar(predicted(i, j)):
                return decomp3d.DecompositionReport(
                    [], e, Verdict(False, witness={
                        "failed": "layer entries", "entry": [i, j]}))
    census = decomp3d.evolution_census_closed_form("3d-generic", n)
    summands = [("Brick", layers * census.counts[0]),
                ("TransposedBrick", layers * census.counts[1])]
    return decomp3d.DecompositionReport(
        summands, e, Verdict(True, details={"layers": layers, "case": case}),
        details={"layers": layers,
                 "layer_counts": list(census.counts),
                 "per_layer_entries": [[predicted(i, j) for j in range(3)]
                                       for i in range(3)]})


def cross_check_4d(brick: Brick4, case: str,
                   bcs3: BoundaryConditions) -> Verdict:
    """Count permitted configurations two ways for the 2x2x2x2 cube:
    directly on the genuine 4D block with the axis-4 condition imposed,
    and on the folded 3D block over the chain algebra."""
    field = brick.field
    l = 2
    b4 = BrickSpec(4, (1, 1, 1, 1), brick.matrix)
    spec4 = LatticeSpec(4, l)
    blk4 = assemble_block(b4, spec4)
    tag4 = "Periodic" if case == "Periodic4" else "ZeroInput"
    bcs4 = BoundaryConditions(tuple(bcs3.tags) + (tag4,))
    count4 = count_configs(blk4, spec4, bcs4)
    reduced = reduce_chain_4d(brick, l, case)
    b3 = reduced.brick_over_field()
    spec3 = LatticeSpec(3, 2, (l, l, l))
    blk3 = assemble_block(b3, spec3)
    count3 = count_configs(blk3, spec3, bcs3)
    if count4.e != count3.e:
        return Verdict(False, witness={"bcs": list(bcs3.tags), "case": case,
                                       "direct": count4.e, "reduced": count3.e})
    return Verdict(True, details={"exponent": count4.e, "case": case,
                                  "bcs": list(bcs3.tags)})
