"""Decomposition structure of cubic blocks in low characteristic.

The p x p x p block of a generic 3 x 3 brick splits, over a suitable
basis of each thick space, into Frobenius-twisted copies of the brick
and its transpose; in characteristic 2 with the symmetric degeneration
it instead splits into simple and double summands.  This module builds
the explicit bases, verifies every claimed identity either symbolically
over polynomial rings or at random field specializations with reported
failure bounds, and tracks the summand censuses under iterated block
making.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import InputError
from .fields import FiniteField
from .identity import Verdict, failure_bound_log2
from .lattice import LatticeSpec, BrickSpec, assemble_block
from .matrices import RingMatrix, charpoly, mat_det, row_vec_mul
from .polys import MultiPoly, PolyRing, ShiftAlgebra
from . import fieldmat

GEN3_VARS = ("a11", "a12", "a13", "a21", "a22", "a23", "a31", "a32", "a33")
SYM_VARS = ("a11", "a12", "a13", "a22", "a23", "a33")

# Slot order of the four lines inside each thick space of the 2x2x2 cube
# that makes the printed eigenvector rows correct.  Resolved by searching
# all per-axis permutations at a random specialization and confirmed
# symbolically (the search is resolve_line_ordering in tests/reference.py,
# rerun by test_resolved_ordering_regenerates): the lexicographic
# transverse-coordinate order needs no permutation, so the basis rows are
# used as printed and reports only record this order.
RESOLVED_LINE_ORDERING = ((0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 2, 3))

# Sampled checks draw their points from GF(p^SAMPLE_DEGREE).
SAMPLE_DEGREE = 16


# ----------------------------------------------------------------------
# Brick grids and thick-space basis rows
# ----------------------------------------------------------------------

def generic_brick_ring(char: int = 2) -> tuple[PolyRing, list[list[MultiPoly]]]:
    ring = PolyRing(GEN3_VARS, char)
    grid = [[ring.gen(f"a{i}{j}") for j in (1, 2, 3)] for i in (1, 2, 3)]
    return ring, grid


def symmetric_brick_ring() -> tuple[PolyRing, list[list[MultiPoly]]]:
    ring = PolyRing(SYM_VARS, 2)
    g = lambda i, j: ring.gen(f"a{min(i, j)}{max(i, j)}")
    grid = [[g(i, j) for j in (1, 2, 3)] for i in (1, 2, 3)]
    return ring, grid


def thick_basis_rows(ring, a) -> tuple[list, list, list]:
    """Rows (f, e1, e2, e3) of the three thick-space basis matrices, in
    printed slot order; a is a 3x3 nested list of ring elements."""
    mul, add = ring.mul, ring.add
    A = lambda i, j: a[i - 1][j - 1]
    m2 = mul

    # 2x2 combinations a_{i1 j1} a_{i2 j2} + a_{i3 j3} a_{i4 j4}
    def s(i1, j1, i2, j2, i3, j3, i4, j4):
        return add(m2(A(i1, j1), A(i2, j2)), m2(A(i3, j3), A(i4, j4)))

    z, one = ring.zero, ring.one
    t1 = [
        [m2(A(2, 1), A(3, 1)),
         m2(A(3, 1), s(2, 1, 3, 3, 2, 3, 3, 1)),
         m2(A(2, 1), s(2, 1, 3, 2, 2, 2, 3, 1)),
         m2(s(2, 1, 3, 3, 2, 3, 3, 1), s(2, 1, 3, 2, 2, 2, 3, 1))],
        [z, z, A(1, 2), s(1, 2, 3, 3, 1, 3, 3, 2)],
        [z, A(1, 3), z, s(1, 2, 2, 3, 1, 3, 2, 2)],
        [one, A(3, 3), A(2, 2), s(2, 2, 3, 3, 2, 3, 3, 2)],
    ]
    t2 = [
        [m2(A(1, 2), A(3, 2)),
         m2(A(3, 2), s(1, 2, 3, 3, 1, 3, 3, 2)),
         m2(A(1, 2), s(1, 1, 3, 2, 1, 2, 3, 1)),
         m2(s(1, 2, 3, 3, 1, 3, 3, 2), s(1, 1, 3, 2, 1, 2, 3, 1))],
        [one, A(3, 3), A(1, 1), s(1, 1, 3, 3, 1, 3, 3, 1)],
        [z, A(2, 3), z, s(1, 1, 2, 3, 1, 3, 2, 1)],
        [z, z, A(2, 1), s(2, 1, 3, 3, 2, 3, 3, 1)],
    ]
    t3 = [
        [m2(A(1, 3), A(2, 3)),
         m2(A(2, 3), s(1, 2, 2, 3, 1, 3, 2, 2)),
         m2(A(1, 3), s(1, 1, 2, 3, 1, 3, 2, 1)),
         m2(s(1, 2, 2, 3, 1, 3, 2, 2), s(1, 1, 2, 3, 1, 3, 2, 1))],
        [z, A(3, 2), z, s(1, 1, 3, 2, 1, 2, 3, 1)],
        [one, A(2, 2), A(1, 1), s(1, 1, 2, 2, 1, 2, 2, 1)],
        [z, z, A(3, 1), s(2, 1, 3, 2, 2, 2, 3, 1)],
    ]
    return t1, t2, t3


def thick_basis_matrices(ring, rows) -> list[RingMatrix]:
    """The three thick-space basis matrices from thick_basis_rows."""
    return [RingMatrix.from_rows(ring, r) for r in rows]


def mixed_product_difference(ring, a):
    """a12 a23 a31 - a13 a32 a21, the nondegeneracy element."""
    pos = ring.mul(ring.mul(a[0][1], a[1][2]), a[2][0])
    neg = ring.mul(ring.mul(a[0][2], a[2][1]), a[1][0])
    return ring.sub(pos, neg)


def sample_brick(case: str, field: FiniteField, rng: random.Random) -> list[list[int]]:
    """Entry rows of a random brick of one evolution case: "2d" draws
    a11 and a22, then nonzero a12 and a21; "3d-generic" draws nine
    nonzero entries until a12 a23 a31 != a13 a32 a21; "3d-symmetric"
    draws the SYM_VARS, all nonzero."""
    if case == "2d":
        a11, a22 = field.sample(rng), field.sample(rng)
        a12, a21 = field.sample_nonzero(rng), field.sample_nonzero(rng)
        return [[a11, a12], [a21, a22]]
    if case == "3d-generic":
        while True:
            a = [[field.sample_nonzero(rng) for _ in range(3)] for _ in range(3)]
            if mixed_product_difference(field, a) != field.zero:
                return a
    if case == "3d-symmetric":
        vals = {v: field.sample_nonzero(rng) for v in SYM_VARS}
        return [[vals[f"a{min(i, j)}{max(i, j)}"] for j in (1, 2, 3)] for i in (1, 2, 3)]
    raise InputError(f"unknown brick case {case!r}")


# ----------------------------------------------------------------------
# Cube assembly and full-basis conjugation identities
# ----------------------------------------------------------------------

def assemble_cube(ring, a, l: int) -> RingMatrix:
    blk = assemble_block(BrickSpec(3, (1, 1, 1), RingMatrix.from_rows(ring, a)),
                         LatticeSpec(3, l))
    return fieldmat.from_array(ring, blk) if isinstance(ring, FiniteField) else blk


def _cube_sub(blk: RingMatrix, n: int):
    """R_ij of a cube block with n lines per axis, as a function of i, j."""
    return lambda i, j: blk.submatrix(range(i * n, (i + 1) * n), range(j * n, (j + 1) * n))


def _stack_basis(ring, per_space_rows) -> RingMatrix:
    """Rows of the three 4-row basis matrices embedded at their axis
    blocks, giving the 12x12 change-of-basis matrix."""
    n = 12
    out = RingMatrix.zeros(ring, n, n)
    for i, rows in enumerate(per_space_rows):
        for s, row in enumerate(rows):
            for k, x in enumerate(row):
                out[4 * i + s, 4 * i + k] = x
    return out


def _conjugation_mismatch(p_full: RingMatrix, blk: RingMatrix, sigma: RingMatrix):
    """The first entry [i, j] where p_full @ blk and sigma @ p_full
    differ, or None when the conjugation identity holds."""
    lhs, rhs = p_full @ blk, sigma @ p_full
    return next(([i, j] for i in range(lhs.rows) for j in range(lhs.cols)
                 if lhs[i, j] != rhs[i, j]), None)


def _sigma_generic(ring, a) -> RingMatrix:
    """Target of the cube conjugation: slot f carries the transposed
    squared brick, slots e1..e3 each carry the squared brick."""
    out = RingMatrix.zeros(ring, 12, 12)
    for i in range(3):
        for j in range(3):
            sq = lambda x: ring.mul(x, x)
            out[4 * i + 0, 4 * j + 0] = sq(a[j][i])
            for s in (1, 2, 3):
                out[4 * i + s, 4 * j + s] = sq(a[i][j])
    return out


@dataclass
class DecompositionReport:
    summands: list
    frobenius_power: int
    verdict: Verdict
    details: dict = dc_field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "summands": [[tag, mult] for tag, mult in self.summands],
            "frobenius_power": self.frobenius_power,
            "verdict": "verified" if self.verdict.ok else "falsified",
            "ordering": [list(s) for s in RESOLVED_LINE_ORDERING],
            "report": self.verdict.to_json(),
            "details": self.details,
        }


def verify_decomposition_3d(mode: str = "symbolic", seed: int = 0) -> DecompositionReport:
    """Check that the 2x2x2 block of a 3x3 char-2 brick is conjugate, by
    the explicit thick bases, to (transposed squared brick) + 3 x
    (squared brick).  Sampled, the brick is a generic one over
    GF(2^SAMPLE_DEGREE); each thick-basis determinant is then
    (a12 a23 a31 + a13 a32 a21)^2, so a singular basis falsifies."""
    summands = [("TransposedBrick", 1), ("Brick", 3)]
    if mode == "symbolic":
        ring, a = generic_brick_ring()
    elif mode == "sampled":
        ring = FiniteField(2, SAMPLE_DEGREE)
        a = sample_brick("3d-generic", ring, random.Random(seed))
    else:
        raise InputError(f"unknown mode {mode!r}")
    blk = assemble_cube(ring, a, 2)
    rows = thick_basis_rows(ring, a)
    bad = _conjugation_mismatch(_stack_basis(ring, rows), blk, _sigma_generic(ring, a))
    if bad is not None:
        return DecompositionReport(summands, 2, Verdict(False, witness={
            "entry": bad, "mode": mode}))
    details = {"mode": mode}
    if mode == "sampled":
        if any(mat_det(m) == ring.zero for m in thick_basis_matrices(ring, rows)):
            return DecompositionReport(summands, 2, Verdict(False, witness={
                "failed": "singular thick basis", "mode": mode}))
        details["basis_dets_nonzero"] = True
    return DecompositionReport(summands, 2, Verdict(True, details=details),
                               details=details)


def verify_decomposition_2d(mode: str = "symbolic", seed: int = 0) -> DecompositionReport:
    """2x2 block: exact integer-coefficient form, then the char-2 split
    into two squared copies via the cleared basis (e1, e2, e1 R12, e2 R12)."""
    summands = [("Brick", 2)]
    if mode not in ("symbolic", "sampled"):
        raise InputError(f"unknown mode {mode!r}")
    if mode == "symbolic":
        zring = PolyRing(("a", "b", "c", "d"), 0)
        a, b, c, d = zring.gens()
        brick = BrickSpec(2, (1, 1), RingMatrix.from_rows(zring, [[a, b], [c, d]]))
        blk = assemble_block(brick, LatticeSpec(2, 2))
        two = zring.const(2)
        expected = RingMatrix.from_rows(zring, [
            [a * a, two * a * b * c, b * d, a * b * d + b * b * c],
            [zring.zero, a * a, b, a * b],
            [a * c, a * c * d + b * c * c, d * d, two * b * c * d],
            [c, c * d, zring.zero, d * d]])
        if blk != expected:
            bad = next((i, j) for i in range(4) for j in range(4)
                       if blk[i, j] != expected[i, j])
            return DecompositionReport(summands, 2, Verdict(
                False, witness={"entry": list(bad), "stage": "integer form"}))
        ring = PolyRing(("a", "b", "c", "d"), 2)
        a, b, c, d = ring.gens()
    else:
        ring = FiniteField(2, SAMPLE_DEGREE)
        (a, b), (c, d) = sample_brick("2d", ring, random.Random(seed))
    brick = BrickSpec(2, (1, 1), RingMatrix.from_rows(ring, [[a, b], [c, d]]))
    spec = LatticeSpec(2, 2)
    blk = assemble_block(brick, spec)
    blk = fieldmat.from_array(ring, blk) if mode == "sampled" else blk
    sub = lambda i, j: blk.submatrix(spec.block_range(i), spec.block_range(j))
    r11, r12, r21, r22 = sub(0, 0), sub(0, 1), sub(1, 0), sub(1, 1)
    sq = lambda x: ring.mul(x, x)
    checks = {
        "r11_scalar": r11 == RingMatrix.scalar(ring, 2, sq(a)),
        "r22_scalar": r22 == RingMatrix.scalar(ring, 2, sq(d)),
        "pair_product_scalar":
            (r12 @ r21 == r21 @ r12 ==
             RingMatrix.scalar(ring, 2, ring.mul(sq(b), sq(c)))),
    }
    # cleared conjugation: rows (e1, e2, e1 R12, e2 R12); the second pair
    # carries a factor b^2 relative to the true basis, so the target has
    # b^2-scaled off-diagonal blocks
    p_hat = RingMatrix.zeros(ring, 4, 4)
    p_hat[0, 0] = ring.one
    p_hat[1, 1] = ring.one
    for j in range(2):
        p_hat[2, 2 + j] = r12[0, j]
        p_hat[3, 2 + j] = r12[1, j]
    z = ring.zero
    b2c2 = ring.mul(sq(b), sq(c))
    sigma_hat = RingMatrix.from_rows(ring, [
        [sq(a), z, ring.one, z],
        [z, sq(a), z, ring.one],
        [b2c2, z, sq(d), z],
        [z, b2c2, z, sq(d)]])
    checks["cleared_conjugation"] = _conjugation_mismatch(p_hat, blk, sigma_hat) is None
    if not all(checks.values()):
        failing = [k for k, v in checks.items() if not v]
        return DecompositionReport(summands, 2, Verdict(
            False, witness={"failing": failing, "mode": mode}))
    return DecompositionReport(summands, 2, Verdict(True, details={"mode": mode}),
                               details={"checks": sorted(checks)})


# ----------------------------------------------------------------------
# Scalar structure and triple-product spectrum for p in {2, 3, 5, 7, 11}
# ----------------------------------------------------------------------

def _sampled_cube_arrays(field, rng):
    a = [[field.sample_nonzero(rng) for _ in range(3)] for _ in range(3)]
    brick = BrickSpec(3, (1, 1, 1), RingMatrix.from_rows(field, a))
    arr = assemble_block(brick, LatticeSpec(3, field.p))
    n = field.p ** 2
    blocks = {}
    for i in range(3):
        for j in range(3):
            blocks[i, j] = arr[i * n:(i + 1) * n, j * n:(j + 1) * n, :]
    return a, blocks, n


def _b3_degrees(p: int) -> tuple[int, int]:
    """Degrees in the brick entries of the polynomials each sampled claim
    tests, as (scalar, spectrum).  Block entries have degree <= p^3, so
    the pair products have degree 2p^3 and M = R12 R23 R31 degree 3p^3.
    The spectrum claim tests (M - lam1)(M - lam2), of degree 6p^3, and
    each expected rank r of M - lam through the (r+1)-minors, of degree
    (r+1) 3p^3; it takes the largest.

    The check takes one rank and infers the other from rank(M - lam1) +
    rank(M - lam2) = n, which holds once the annihilator does and lam1 !=
    lam2; the reported degree still bounds every polynomial tested, so it
    stays a valid, conservative bound.  A passing point with lam1 != lam2
    already forces both ranks over F_p(a), so 6p^3 would suffice, but that
    tightening changes the reports."""
    ranks = (p * (p - 1) // 2, p * (p + 1) // 2)
    return 2 * p ** 3, max(6 * p ** 3, *((r + 1) * 3 * p ** 3 for r in ranks))


def _scalar_failure_symbolic(ring, a, sub):
    sq = lambda x: ring.mul(x, x)
    for i in range(3):
        if sub(i, i) != RingMatrix.scalar(ring, 4, sq(a[i][i])):
            return {"block": [i, i]}
    for k, l in ((0, 1), (0, 2), (1, 2)):
        # s is a nonzero monomial, so R_kl R_lk = s I makes R_kl invertible
        # over the fraction field and R_lk R_kl = s I follows
        s = ring.mul(sq(a[k][l]), sq(a[l][k]))
        if sub(k, l) @ sub(l, k) != RingMatrix.scalar(ring, 4, s):
            return {"pair": [k, l]}
    return None


def _spectrum_failure_symbolic(ring, a, sub):
    m_op = sub(0, 1) @ sub(1, 2) @ sub(2, 0)
    sq = lambda x: ring.mul(x, x)
    lam1 = sq(ring.mul(ring.mul(a[0][2], a[2][1]), a[1][0]))
    lam2 = sq(ring.mul(ring.mul(a[0][1], a[1][2]), a[2][0]))
    id4 = RingMatrix.identity(ring, 4)
    quad = (m_op - id4.scalar_mul(lam1)) @ (m_op - id4.scalar_mul(lam2))
    if quad != RingMatrix.zeros(ring, 4, 4):
        return {"failed": "minimal polynomial"}
    # multiplicities: with the annihilator and lam1 != lam2, M is
    # diagonalizable over the fraction field, so det M = lam1^a lam2^(4-a)
    # for the multiplicity a of lam1; these are distinct monomials, so the
    # constant coefficient det M = lam1 lam2^3 decides a = 1
    if charpoly(m_op)[0] != ring.mul(lam1, ring.mul(lam2, sq(lam2))):
        return {"failed": "characteristic polynomial"}
    return None


def _scalar_failure_sampled(field, p, trial, a, blocks, n, exponents):
    """Witness of the first failed scalar check on one trial's blocks, or
    None after recording the pair products' exponents in exponents."""
    for i in range(3):
        want = fieldmat.scalar_matrix(field, n, field.pow(a[i][i], p))
        if not np.array_equal(blocks[i, i], want):
            return {"trial": trial, "block": [i, i], "entries": a}
    for k, l in ((0, 1), (0, 2), (1, 2)):
        fwd = fieldmat.matmul(field, blocks[k, l], blocks[l, k])
        s = fieldmat.scalar_of(field, fwd)
        # X Y = s I with s != 0 makes X invertible, so Y X = s I as well;
        # otherwise the reverse product decides the witness
        if s is None or s == field.zero:
            bwd = fieldmat.matmul(field, blocks[l, k], blocks[k, l])
            if not np.array_equal(fwd, bwd):
                return {"trial": trial, "pair": [k, l], "failed": "commutation"}
            if s is None:
                return {"trial": trial, "pair": [k, l], "failed": "scalar"}
        # the first t in 1..2p with base^t = s, by a running product
        base = field.mul(a[k][l], a[l][k])
        power = field.one
        for t in range(1, 2 * p + 1):
            power = field.mul(power, base)
            if power == s:
                exponents.add(t)
                break
        else:
            return {"trial": trial, "pair": [k, l], "failed": "exponent"}
    return None


def _spectrum_failure_sampled(field, p, trial, a, blocks, n):
    m_arr = fieldmat.matmul(field, fieldmat.matmul(
        field, blocks[0, 1], blocks[1, 2]), blocks[2, 0])
    lam1 = field.pow(field.mul(field.mul(a[0][2], a[2][1]), a[1][0]), p)
    lam2 = field.pow(field.mul(field.mul(a[0][1], a[1][2]), a[2][0]), p)
    d1 = fieldmat.sub(field, m_arr, fieldmat.scalar_matrix(field, n, lam1))
    d2 = fieldmat.sub(field, m_arr, fieldmat.scalar_matrix(field, n, lam2))
    if np.any(fieldmat.matmul(field, d1, d2)):
        return {"trial": trial, "failed": "minimal polynomial"}
    # with (M - lam1)(M - lam2) = 0 and (lam2 - lam1) I invertible, Sylvester's
    # rank inequality gives rank(d1) + rank(d2) = n; if lam1 = lam2, d1 = d2
    expected = [p * (p - 1) // 2, p * (p + 1) // 2]
    r2 = fieldmat.rank(field, d2)
    observed = [r2, n - r2 if lam1 != lam2 else r2]
    if observed != expected:
        return {"trial": trial, "failed": "multiplicities",
                "observed": observed, "expected": expected}
    return None


@functools.lru_cache(maxsize=1)
def _b3_pass(p: int, trials: int, seed: int) -> tuple[Verdict, Verdict]:
    """(scalar verdict, spectrum verdict), both checked on the same blocks:
    symbolically at p = 2, else at trials random bricks over
    GF(p^SAMPLE_DEGREE).

    A claim is not checked again after its first failure, so each verdict
    and witness is the one a separate pass over the same seed would give.
    Only the verdicts are cached, so that the second of the two public
    checks on the same arguments costs nothing."""
    if p == 2:
        ring, a = generic_brick_ring()
        sub = _cube_sub(assemble_cube(ring, a, 2), 4)
        bad_scalar = _scalar_failure_symbolic(ring, a, sub)
        bad_spectrum = _spectrum_failure_symbolic(ring, a, sub)
        bounds, details, exponent = (None, None), [{"mode": "symbolic", "p": 2}] * 2, 2
    else:
        field = FiniteField(p, SAMPLE_DEGREE)
        rng = random.Random(seed)
        exponents = set()
        bad_scalar = bad_spectrum = None
        for trial in range(trials):
            if bad_scalar and bad_spectrum:
                break
            a, blocks, n = _sampled_cube_arrays(field, rng)
            if bad_scalar is None:
                bad_scalar = _scalar_failure_sampled(
                    field, p, trial, a, blocks, n, exponents)
            if bad_spectrum is None:
                bad_spectrum = _spectrum_failure_sampled(field, p, trial, a, blocks, n)
        degrees = _b3_degrees(p)
        bounds = [failure_bound_log2(d, field.q, trials) for d in degrees]
        details = [{"mode": "sampled", "p": p, "trials": trials, "degree_bound": d}
                   for d in degrees]
        exponent = sorted(exponents)
    scalar = Verdict(False, witness=bad_scalar) if bad_scalar else Verdict(
        True, log2_failure_bound=bounds[0],
        details={**details[0], "scalar_exponent": exponent})
    spectrum = Verdict(False, witness=bad_spectrum) if bad_spectrum else Verdict(
        True, log2_failure_bound=bounds[1],
        details={**details[1], "multiplicities": [p * (p - 1) // 2, p * (p + 1) // 2]})
    return scalar, spectrum


def verify_scalar_structure(p: int, trials: int = 32, seed: int = 0) -> Verdict:
    """Diagonal blocks R_ii = a_ii^p and scalar commuting pair products
    R_kl R_lk; the scalar's observed exponent is reported."""
    return _b3_pass(p, trials, seed)[0]


def verify_triple_product_spectrum(p: int, trials: int = 32, seed: int = 0) -> Verdict:
    """Quadratic minimal polynomial of R12 R23 R31 with eigenvalue
    multiplicities p(p-1)/2 and p(p+1)/2."""
    return _b3_pass(p, trials, seed)[1]


# ----------------------------------------------------------------------
# Symmetric (non-diagonalizable) case
# ----------------------------------------------------------------------

def symmetric_g_vectors(ring, a):
    """Printed distinguished vectors of the three thick spaces, in
    lexicographic slot order (the resolved line ordering)."""
    mul = ring.mul
    sq = lambda x: mul(x, x)
    a12, a13, a23 = a[0][1], a[0][2], a[1][2]
    a11 = a[0][0]
    g1 = [ring.zero, ring.zero, ring.zero, mul(mul(a12, a13), sq(a23))]
    g23 = [ring.zero, mul(a13, sq(a23)), ring.zero, mul(mul(a11, a13), sq(a23))]
    return [g1, g23, list(g23)]


def _exact_div(ring, x, denom):
    """Exact division by an element known to divide x (a monomial in the
    polynomial case, a base scalar in the shift-algebra case)."""
    if isinstance(ring, ShiftAlgebra):
        if not ring.is_scalar(denom):
            raise InputError("shift-algebra division needs a scalar denominator")
        return tuple(_exact_div(ring.base, c, denom[0]) for c in x)
    if isinstance(x, MultiPoly):
        q = x.monomial_quotient(denom)
        if q is None:
            raise RuntimeError("quotient is not polynomial")
        return q
    return ring.mul(x, ring.inv(denom))


def defining_g_vectors(ring, a, blk):
    """All three distinguished vectors: the printed first one and the
    second and third from their defining quotients in the 2x2x2 cube
    block blk."""
    g1 = symmetric_g_vectors(ring, a)[0]
    sub = _cube_sub(blk, 4)
    out = [g1]
    for j, aij in ((1, a[0][1]), (2, a[0][2])):
        image = row_vec_mul(g1, sub(0, j))
        denom = ring.mul(aij, aij)
        out.append([_exact_div(ring, x, denom) for x in image])
    return out


def g3_typo_report() -> dict:
    """The printed third distinguished vector coincides with the second;
    recompute both from their definitions and report the true value."""
    ring, a = symmetric_brick_ring()
    printed = symmetric_g_vectors(ring, a)
    g2, g3 = defining_g_vectors(ring, a, assemble_cube(ring, a, 2))[1:]
    return {
        "printed_identical": printed[1] == printed[2],
        "g2_matches_printed": g2 == printed[1],
        "g3_matches_printed": g3 == printed[2],
        "typo_confirmed": g2 == printed[1] and g3 != printed[2],
        "g3_recomputed": [repr(x) for x in g3],
    }


def _sigma_symmetric(ring, a) -> RingMatrix:
    """Target for the symmetric basis order (e1, e2, g, f) per space:
    every slot carries the squared entry, and the g slot additionally
    feeds f when crossing between spaces 2 and 3."""
    out = RingMatrix.zeros(ring, 12, 12)
    for i in range(3):
        for j in range(3):
            sq = ring.mul(a[i][j], a[i][j])
            for s in range(4):
                out[4 * i + s, 4 * j + s] = sq
            if {i, j} == {1, 2}:
                out[4 * i + 2, 4 * j + 3] = sq
    return out


def verify_symmetric_decomposition(level: str = "simple", mode: str = "symbolic",
                                   seed: int = 0) -> DecompositionReport:
    """Conjugation identity for a symmetric brick: two squared simple
    summands plus one 6x6 double summand; at the double-brick level,
    checked symbolically only, four simple plus two double."""
    if mode not in ("symbolic", "sampled"):
        raise InputError(f"unknown mode {mode!r}")
    if level == "simple":
        if mode == "symbolic":
            ring, a = symmetric_brick_ring()
        else:
            ring = FiniteField(2, SAMPLE_DEGREE)
            a = sample_brick("3d-symmetric", ring, random.Random(seed))
        summands = [("SimpleSymmetric", 2), ("DoubleBrick", 1)]
    elif level == "double":
        if mode != "symbolic":
            raise InputError("the double level is checked symbolically only")
        base = PolyRing(SYM_VARS, 2)
        sym_of = lambda i, j: base.gen(f"a{min(i, j)}{max(i, j)}")
        # entries in base[t]/(t^2 - 1): a23 = a32 carries the involution t
        ring = ShiftAlgebra(base, 2, periodic=True)
        a = [[ring.scalar(sym_of(i, j)) for j in (1, 2, 3)] for i in (1, 2, 3)]
        a[1][2] = a[2][1] = (base.zero, sym_of(2, 3))
        summands = [("SimpleSymmetric", 4), ("DoubleBrick", 2)]
    else:
        raise InputError(f"unknown level {level!r}")

    blk = assemble_cube(ring, a, 2)
    # the second and third distinguished vectors come from their defining
    # quotients; the printed third one carries a typo (see g3_typo_report)
    gs = defining_g_vectors(ring, a, blk)
    per_space = [[t[1], t[2], g, t[0]] for t, g in zip(thick_basis_rows(ring, a), gs)]
    bad = _conjugation_mismatch(_stack_basis(ring, per_space), blk,
                                _sigma_symmetric(ring, a))
    if bad is not None:
        return DecompositionReport(summands, 2, Verdict(False, witness={
            "entry": bad, "level": level, "mode": mode}))
    return DecompositionReport(summands, 2,
                               Verdict(True, details={"mode": mode, "level": level}),
                               details={"level": level})


# ----------------------------------------------------------------------
# Evolution censuses
# ----------------------------------------------------------------------

@dataclass
class EvolutionCensus:
    case: str
    n: int
    counts: tuple[int, ...]
    q_matrix: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {"case": self.case, "n": self.n, "counts": list(self.counts),
                "q_matrix": [list(r) for r in self.q_matrix]}


_EVOLUTION_CASES = {
    "2d": (((2,),), (1,)),
    "3d-generic": (((3, 1), (1, 3)), (1, 0)),
    "3d-symmetric": (((2, 1), (4, 2)), (1, 0)),
}


def _closed_form(case: str, n: int) -> tuple[int, ...]:
    if case == "2d":
        return (2 ** n,)
    if case == "3d-generic":
        if n == 0:
            return (1, 0)
        return (2 ** (2 * n - 1) + 2 ** (n - 1), 2 ** (2 * n - 1) - 2 ** (n - 1))
    if case == "3d-symmetric":
        if n == 0:
            return (1, 0)
        return (2 ** (2 * n - 1), 2 ** (2 * n - 2))
    raise InputError(f"unknown evolution case {case!r}")


def evolution_census_closed_form(case: str, n: int) -> EvolutionCensus:
    """Summand counts after n block-making steps: the transfer-matrix
    recurrence and the closed forms, computed independently and asserted
    equal."""
    if n < 0:
        raise InputError("step count must be nonnegative")
    if case not in _EVOLUTION_CASES:
        raise InputError(f"unknown evolution case {case!r}")
    q, init = _EVOLUTION_CASES[case]
    vec = list(init)
    for _ in range(n):
        vec = [sum(vec[i] * q[i][j] for i in range(len(vec)))
               for j in range(len(vec))]
    closed = _closed_form(case, n)
    if tuple(vec) != closed:
        raise RuntimeError(
            f"recurrence {tuple(vec)} disagrees with closed form {closed}")
    return EvolutionCensus(case, n, closed, q)


def detect_evolution_summands(case: str, n: int, seed: int = 0,
                              brick: BrickSpec | None = None,
                              block: np.ndarray | None = None) -> Verdict:
    """Compare the block R after n evolution steps at a random
    specialization with the predicted direct sum: det(R - x) must agree
    with the product of the predicted summand determinants at more
    points than the polynomial degree.

    That makes the comparison exact, but what it proves is that R and
    the predicted sum have equal characteristic polynomials, not that
    they are similar: a Jordan block passes against the diagonal matrix
    with the same characteristic polynomial.  R and each predicted piece
    are reduced to Hessenberg form once, and their determinants are
    evaluated at all points together.  brick, when not given, is drawn
    over GF(2^SAMPLE_DEGREE) from the seed.  block, when given, is R as
    the caller already evolved it from brick, the coefficient array that
    lattice.evolve returns; otherwise R is evolved here.  The predicted
    pieces are built as int arrays and converted to coefficient arrays."""
    rng = random.Random(seed)
    census = evolution_census_closed_form(case, n)
    if brick is None:
        field = FiniteField(2, SAMPLE_DEGREE)
        a = sample_brick(case, field, rng)
        brick = BrickSpec(len(a), (1,) * len(a), RingMatrix.from_rows(field, a))
    field = brick.ring
    tilde = np.array([[field.pow(x, 2 ** n) for x in row]
                      for row in brick.matrix.to_rows()], dtype=object)
    # 3d-generic pairs the Frobenius-twisted brick with its transpose and
    # 3d-symmetric with the 6x6 double summand; 2d has a single count, so
    # zip drops the second piece
    second = tilde.T
    if case == "3d-symmetric":
        second = np.zeros((6, 6), dtype=object)
        second[0::2, 0::2] = second[1::2, 1::2] = tilde
        second[2, 5], second[4, 3] = tilde[1, 2], tilde[2, 1]
    pieces = [(fieldmat.ints_to_coeffs(field, x), mult)
              for x, mult in zip((tilde, second), census.counts)]
    if block is None:
        from .lattice import evolve
        block = evolve(brick, n)[-1]
    total_dim = sum(p.shape[0] * mult for p, mult in pieces)
    degree = block.shape[0]
    if degree != total_dim:
        return Verdict(False, witness={"failed": "dimension",
                                       "block": degree, "predicted": total_dim})
    points = rng.sample(range(field.q), degree + 1)

    def dets(arr):
        return fieldmat.det_shifted(field, fieldmat.hessenberg(field, arr), points)

    rhs = [field.one] * len(points)
    for piece, mult in pieces:
        rhs = [field.mul(r, field.pow(d, mult))
               for r, d in zip(rhs, dets(piece))]
    for x, lhs, r in zip(points, dets(block), rhs):
        if lhs != r:
            return Verdict(False, witness={"failed": "determinant", "x": x})
    return Verdict(True, details={
        "case": case, "n": n, "points": degree + 1,
        "exact": True, "counts": list(census.counts)})
