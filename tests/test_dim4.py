import functools
import itertools
import random

import pytest

from cubeblocks import dim4 as X
from cubeblocks.census import BoundaryConditions
from cubeblocks.errors import InputError, SingularMatrixError
from cubeblocks.fields import FiniteField
from cubeblocks.lattice import BrickSpec
from cubeblocks.matrices import RingMatrix, mat_det, mat_inverse
from cubeblocks.polys import ShiftAlgebra
from reference import circulant_det_charp, mat_add, perturb_cube, random_brick

F = FiniteField(2, 8)
UNIT4 = (1, 1, 1, 1)


def _brick(vals, field=F):
    return BrickSpec(4, UNIT4, RingMatrix.from_rows(field, vals))


def _random_b44_zero(rng, field=F):
    vals = [[field.sample(rng) for _ in range(4)] for _ in range(4)]
    vals[3][3] = field.zero
    return _brick(vals, field), vals


# ----------------------------------------------------------------------
# shift algebra
# ----------------------------------------------------------------------

def test_shift_matrices():
    assert X.shift_matrix(F, 2, "Periodic4").to_rows() == [[0, 1], [1, 0]]
    assert X.shift_matrix(F, 2, "ZeroInput4").to_rows() == [[0, 1], [0, 0]]
    t = X.shift_matrix(F, 3, "ZeroInput4")
    assert t @ t @ t == RingMatrix.zeros(F, 3, 3)


@pytest.mark.parametrize("periodic", [True, False], ids=["circulant", "toeplitz"])
@pytest.mark.parametrize("l", [2, 4, 8])
def test_power_l_of_shift_element_is_scalar(l, periodic):
    # in characteristic 2, (sum c_i t^i)^l = sum c_i^l t^(i l) for l = 2^n,
    # and t^l is 1 (periodic) or 0: the image with the shift killed, to the l-th
    alg = ShiftAlgebra(F, l, periodic)
    rng = random.Random(l)
    for _ in range(50):
        x = tuple(F.sample(rng) for _ in range(l))
        power = x
        for _ in range(l.bit_length() - 1):
            power = alg.mul(power, power)
        image = functools.reduce(F.add, x) if periodic else x[0]
        assert power == alg.scalar(F.pow(image, l))


# ----------------------------------------------------------------------
# chain folding
# ----------------------------------------------------------------------

def test_reduced_entries_b44_zero():
    # with b44 = 0 the folded entry is b_ij 1 + b_i4 b_4j T
    rng = random.Random(1)
    while True:
        b, vals = _random_b44_zero(rng)
        if all(vals[i][j] for i in range(3) for j in range(3)):
            break
    for case in X.CASES:
        red = X.reduce_chain_4d(b, 3, case)
        for i in range(3):
            for j in range(3):
                c = F.mul(vals[i][3], vals[3][j])
                want = RingMatrix.zeros(F, 3, 3)
                for k in range(3):
                    want[k, k] = vals[i][j]
                    if k < 2:
                        want[k, k + 1] = c
                if case == "Periodic4":
                    want[2, 0] = c
                assert red.ring.matrix(red.matrix[i, j]) == want, (case, i, j)


def _matrix_route(b, l, case):
    """Folded entries as l x l matrices: k_ij 1 + l_i m_j (1 - b44 T)^-1 T
    with T the shift matrix of the case."""
    a = b.matrix
    t = X.shift_matrix(F, l, case)
    w = mat_inverse(RingMatrix.identity(F, l) - t.scalar_mul(a[3, 3])) @ t
    return [[mat_add(RingMatrix.scalar(F, l, a[i, j]),
                     w.scalar_mul(F.mul(a[i, 3], a[3, j])))
             for j in range(3)] for i in range(3)]


def test_reduction_commutes_and_tags():
    # every folded entry equals its matrix-route value, so the entries
    # are circulant (periodic) or upper triangular Toeplitz (zero input)
    # polynomials in the shift; the matrix-route entries commute
    rng = random.Random(2)
    for l in (1, 2, 3, 4):
        for _ in range(3):
            while True:
                b = random_brick(F, 4, UNIT4, rng)
                if F.pow(b.matrix[3, 3], l) != F.one:
                    break
            for case in X.CASES:
                red = X.reduce_chain_4d(b, l, case)
                assert (red.d, red.thin_dims) == (3, (1, 1, 1))
                assert red.ring.periodic == (case == "Periodic4")
                ref = _matrix_route(b, l, case)
                got = [[red.ring.matrix(x) for x in row] for row in red.matrix.to_rows()]
                assert got == ref, (l, case)
                flat = [x for row in ref for x in row]
                assert all(x @ y == y @ x for x in flat for y in flat)


def test_degenerate_chain_rejected():
    vals = [[1, 1, 1, 1]] * 3 + [[1, 1, 1, 1]]
    b = _brick(vals)
    with pytest.raises(SingularMatrixError):
        X.reduce_chain_4d(b, 2, "Periodic4")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_nondegeneracy_refuses_a_root_of_unity_b44(n):
    # b44 = 1 makes 1 - b44^(2^n) = (1 - b44)^(2^n) vanish, so the fold
    # that nondegeneracy_4d reads is refused
    rng = random.Random(n)
    vals = [[F.sample_nonzero(rng) for _ in range(4)] for _ in range(4)]
    vals[3][3] = F.one
    with pytest.raises(SingularMatrixError):
        X.reduce_chain_4d(_brick(vals), 2 ** n, "Periodic4")


def test_circulant_determinant_formula():
    rng = random.Random(3)
    for size in (2, 4, 8):
        row = [F.sample(rng) for _ in range(size)]
        m = RingMatrix.from_rows(
            F, [[row[(j - i) % size] for j in range(size)] for i in range(size)])
        assert circulant_det_charp(F, row, size) == mat_det(m)
    f3 = FiniteField(3, 4)
    for size in (3, 9):
        row = [f3.sample(rng) for _ in range(size)]
        m = RingMatrix.from_rows(
            f3, [[row[(j - i) % size] for j in range(size)] for i in range(size)])
        assert circulant_det_charp(f3, row, size) == mat_det(m)


def test_nondegeneracy_routes_agree():
    # the function itself raises if the scalar and determinant routes
    # ever disagree, so running it over random bricks is the check
    rng = random.Random(4)
    for _ in range(10):
        b = random_brick(F, 4, UNIT4, rng)
        for case in X.CASES:
            try:
                X.nondegeneracy_4d(b, X.reduce_chain_4d(b, 2, case))
            except SingularMatrixError:
                pass


# ----------------------------------------------------------------------
# stratification and the 4D cross-check
# ----------------------------------------------------------------------

def test_stratification_n1():
    rng = random.Random(5)
    done = {case: 0 for case in X.CASES}
    while min(done.values()) < 2:
        b, vals = _random_b44_zero(rng)
        for case in X.CASES:
            try:
                if not X.nondegeneracy_4d(b, X.reduce_chain_4d(b, 2, case)):
                    continue
            except SingularMatrixError:
                continue
            rep = X.verify_stratification(b, 1, case)
            assert rep.verdict.ok, (case, rep.verdict.witness)
            assert sum(m for _, m in rep.summands) == 8
            done[case] += 1


@pytest.mark.parametrize("case", X.CASES)
def test_stratification_conjugation_failure_witness(case, monkeypatch):
    # the block of the second step's brick is perturbed; the first passes
    perturb_cube(monkeypatch, call=2)
    b = _brick([[12, 200, 7, 33], [5, 91, 140, 2], [250, 3, 66, 17],
                [9, 128, 45, 0]])
    rep = X.verify_stratification(b, 2, case)
    assert not rep.verdict.ok
    assert rep.verdict.witness == {"failed": "conjugation", "step": 1}


@pytest.mark.parametrize("entry", [(0, 0), (1, 2), (2, 1)])
@pytest.mark.parametrize("case", X.CASES)
def test_stratification_layer_entries_failure_witness(case, entry, monkeypatch):
    # the cube identity holds for any brick, so a perturbed fold passes
    # the conjugation checks and only the predicted layer entries differ
    fold = X.reduce_chain_4d

    def perturbed(brick, l, case):
        red = fold(brick, l, case)
        x = red.matrix[entry]
        red.matrix[entry] = (F.add(x[0], F.one),) + x[1:]
        return red

    monkeypatch.setattr(X, "reduce_chain_4d", perturbed)
    b = _brick([[12, 200, 7, 33], [5, 91, 140, 2], [250, 3, 66, 17],
                [9, 128, 45, 0]])
    rep = X.verify_stratification(b, 1, case)
    assert not rep.verdict.ok
    assert rep.verdict.witness == {"failed": "layer entries", "entry": list(entry)}


def test_stratification_requires_b44_zero():
    rng = random.Random(6)
    while True:
        b = random_brick(F, 4, UNIT4, rng)
        if b.matrix[3, 3] != F.zero:
            break
    with pytest.raises(InputError):
        X.verify_stratification(b, 1, "Periodic4")


def test_cross_check_small_field():
    rng = random.Random(7)
    f2 = FiniteField(2)
    b, _ = _random_b44_zero(rng, f2)
    for case in X.CASES:
        for tags in (("Periodic",) * 3, ("Free",) * 3,
                     ("Periodic", "ZeroInput", "Free")):
            v = X.cross_check_4d(b, case, BoundaryConditions(tags))
            assert v.ok, (case, tags, v.witness)


@pytest.mark.parametrize("d,thin", [(3, (1, 1, 1)), (4, (2, 1, 1, 1))],
                         ids=["three-axes", "thick-first-axis"])
@pytest.mark.parametrize("call", [
    lambda b: X.reduce_chain_4d(b, 2, "Periodic4"),
    lambda b: X.nondegeneracy_4d(b, X.reduce_chain_4d(
        random_brick(F, 4, UNIT4, random.Random(8)), 2, "Periodic4")),
    lambda b: X.verify_stratification(b, 1, "Periodic4"),
    lambda b: X.cross_check_4d(b, "Periodic4", BoundaryConditions.toric(3)),
], ids=["reduce", "nondegeneracy", "stratification", "cross-check"])
def test_entry_points_refuse_other_brick_shapes(call, d, thin):
    b = random_brick(F, d, thin, random.Random(8))
    with pytest.raises(InputError, match="4-axis brick with unit thin spaces"):
        call(b)
