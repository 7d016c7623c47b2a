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

from .errors import InputError, SingularMatrixError
from .fields import FiniteField
from .identity import Verdict
from .lattice import LatticeSpec, BrickSpec
from .matrices import RingMatrix, mat_det
from .census import BoundaryConditions, count_configs, free_rows
from .polys import ShiftAlgebra
from . import decomp3d

CASES = ("Periodic4", "ZeroInput4")


def _split(brick: BrickSpec):
    """The parts of a 4-axis brick with unit thin spaces that the chain
    folding reads: the 3x3 block k, the column l_i = b_i4, the row
    m_j = b_4j and the corner b44."""
    if brick.d != 4 or brick.thin_dims != (1, 1, 1, 1):
        raise InputError("the chain folds a 4-axis brick with unit thin spaces")
    a = brick.matrix
    return (a.submatrix(range(3), range(3)), [a[i, 3] for i in range(3)],
            [a[3, j] for j in range(3)], a[3, 3])


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


def reduce_chain_4d(brick: BrickSpec, l: int, case: str) -> BrickSpec:
    """Fold a length-l chain of 4x4 bricks along the fourth axis into a
    3x3 brick with entries k_ij + l_i m_j w in the shift algebra, where
    w = t (1 - b44 t)^-1 sums the paths through the chain."""
    if case not in CASES:
        raise InputError(f"unknown chain case {case!r}")
    k, lcol, mrow, b44 = _split(brick)
    field = brick.ring
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
    for i in range(3):
        for j in range(3):
            coeff = field.mul(lcol[i], mrow[j])
            entry = [field.mul(coeff, c) for c in w]
            entry[0] = field.add(k[i, j], entry[0])
            entries.append(tuple(entry))
    return BrickSpec(3, (1, 1, 1), RingMatrix(alg, 3, 3, entries))


def _row_sum_image(parts, case: str):
    """Image of each reduced entry under the algebra homomorphism that
    kills the shift structure: the row sum for circulants (shift -> 1),
    the diagonal entry for triangular Toeplitz (shift -> 0).  parts is
    _split of the brick."""
    k, lcol, mrow, b44 = parts
    field = k.ring
    if case == "Periodic4":
        w_img = field.div(field.one, field.sub(field.one, b44))
    else:
        w_img = field.zero
    grid = []
    for i in range(3):
        row = []
        for j in range(3):
            coeff = field.mul(lcol[i], mrow[j])
            row.append(field.add(k[i, j], field.mul(coeff, w_img)))
        grid.append(row)
    return grid


def nondegeneracy_4d(brick: BrickSpec, reduced: BrickSpec) -> bool:
    """Whether reduced, the fold reduce_chain_4d(brick, 2^n, case), satisfies
    the 3D nondegeneracy condition for an edge of length 2^n, computed two
    ways: the scalar inequality through the structure-killing homomorphism,
    and the determinant of the algebra element itself."""
    parts = _split(brick)
    field = brick.ring
    if field.p != 2:
        raise InputError("the nondegeneracy criterion is for characteristic 2")
    alg = reduced.ring
    # in characteristic 2, 1 - b44^l = (1 - b44)^l for l = 2^n, so a fold
    # that succeeded leaves 1 - b44 nonzero for the row-sum image to divide by
    grid = _row_sum_image(parts, "Periodic4" if alg.periodic else "ZeroInput4")
    scalar_diff = decomp3d.mixed_product_difference(field, grid)
    via_scalar = scalar_diff != field.zero
    d_elem = decomp3d.mixed_product_difference(alg, reduced.matrix.to_rows())
    via_det = mat_det(alg.matrix(d_elem)) != field.zero
    if via_scalar != via_det:
        raise RuntimeError("nondegeneracy routes disagree")
    return via_det


def verify_stratification(brick: BrickSpec, n: int, case: str) -> decomp3d.DecompositionReport:
    """Hypercube of edge 2^n with b44 = 0: the block splits into 2^n
    independent 3D layers, each decomposing per the cube identity with
    brick entries (b_ij + b_i4 b_4j)^(2^n) (periodic) or b_ij^(2^n)
    (zero-input)."""
    parts = _split(brick)
    field = brick.ring
    if field.p != 2:
        raise InputError("stratification is verified in characteristic 2")
    if parts[3] != field.zero:
        raise InputError("the stratification identity assumes b44 = 0")
    if n > 2:
        raise InputError("step count capped at 2 for desk-scale runs")
    e = layers = 2 ** n
    reduced = reduce_chain_4d(brick, e, case)
    alg = reduced.ring
    # predicted per-layer brick entries: with b44 = 0 the row-sum image is
    # b_ij + b_i4 b_4j (periodic) or b_ij (zero-input)
    predicted = [[field.pow(x, e) for x in row] for row in _row_sum_image(parts, case)]
    # evolve the algebra-valued brick and check the conjugation identity
    # at each step's brick (the cube identity over the algebra)
    current = reduced.matrix.to_rows()
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
            if current[i][j] != alg.scalar(predicted[i][j]):
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
                 "per_layer_entries": predicted})


def cross_check_4d(brick: BrickSpec, case: str,
                   bcs3: BoundaryConditions) -> Verdict:
    """Count permitted configurations two ways for the 2x2x2x2 cube:
    directly on the genuine 4D block with the axis-4 condition imposed,
    and on the folded 3D block, its algebra entries flattened to l x l
    field matrices with thin dimensions (l, l, l)."""
    l = 2
    reduced = reduce_chain_4d(brick, l, case)
    spec4 = LatticeSpec(4, l)
    tag4 = "Periodic" if case == "Periodic4" else "ZeroInput"
    bcs4 = BoundaryConditions(tuple(bcs3.tags) + (tag4,))
    count4 = count_configs(brick.ring, free_rows(brick, spec4, bcs4), spec4, bcs4)
    alg = reduced.ring
    flat = RingMatrix.zeros(brick.ring, 3 * l, 3 * l)
    for i in range(3):
        for j in range(3):
            flat.set_block(i * l, j * l, alg.matrix(reduced.matrix[i, j]))
    b3 = BrickSpec(3, (l, l, l), flat)
    spec3 = LatticeSpec(3, 2, (l, l, l))
    count3 = count_configs(brick.ring, free_rows(b3, spec3, bcs3), spec3, bcs3)
    if count4.e != count3.e:
        return Verdict(False, witness={"bcs": list(bcs3.tags), "case": case,
                                       "direct": count4.e, "reduced": count3.e})
    return Verdict(True, details={"exponent": count4.e, "case": case,
                                  "bcs": list(bcs3.tags)})
