import random

import pytest

from cubeblocks.errors import SingularMatrixError, UnsupportedRingError
from cubeblocks.fields import FiniteField
from cubeblocks.matrices import (
    RingMatrix, charpoly, mat_det, mat_inverse, mat_mul, rank,
    row_vec_mul, rref,
)
from cubeblocks.polys import PolyRing
from reference import direct_sum, gauge_conjugate, mat_add, row_kernel


def _random_matrix(f, n, rng):
    return RingMatrix(f, n, n, [f.sample(rng) for _ in range(n * n)])


# ----------------------------------------------------------------------
# elimination
# ----------------------------------------------------------------------

def test_rank_and_kernel():
    f = FiniteField(5)
    m = RingMatrix.from_rows(f, [[1, 2, 3], [2, 4, 1], [3, 6, 4]])
    r = rank(m)
    ker = row_kernel(m)
    assert r + len(ker) == 3
    for row in ker:
        assert all(x == f.zero for x in row_vec_mul(row, m))


def test_rref_idempotent():
    f = FiniteField(3, 2)
    rng = random.Random(2)
    for _ in range(20):
        m = _random_matrix(f, 4, rng)
        r1, pivots = rref(m)
        r2, pivots2 = rref(r1)
        assert r1 == r2 and pivots == pivots2


def test_inverse():
    f = FiniteField(2, 8)
    rng = random.Random(4)
    for _ in range(20):
        m = _random_matrix(f, 4, rng)
        try:
            inv = mat_inverse(m)
        except SingularMatrixError as exc:
            assert exc.rank < 4
            continue
        assert m @ inv == RingMatrix.identity(f, 4)
        assert inv @ m == RingMatrix.identity(f, 4)


# ----------------------------------------------------------------------
# determinants and characteristic polynomials
# ----------------------------------------------------------------------

def test_det_multiplicative():
    f = FiniteField(7, 2)
    rng = random.Random(6)
    for _ in range(20):
        a, b = _random_matrix(f, 4, rng), _random_matrix(f, 4, rng)
        assert mat_det(a @ b) == f.mul(mat_det(a), mat_det(b))


def test_charpoly_constant_term():
    f = FiniteField(5)
    rng = random.Random(8)
    for n in (2, 3, 4):
        m = _random_matrix(f, n, rng)
        cp = charpoly(m)
        assert len(cp) == n + 1
        assert cp[-1] == f.one
        # constant term is det(-M) = (-1)^n det(M)
        want = mat_det(m) if n % 2 == 0 else f.neg(mat_det(m))
        assert cp[0] == want


def test_cayley_hamilton():
    f = FiniteField(3, 3)
    rng = random.Random(10)
    m = _random_matrix(f, 3, rng)
    cp = charpoly(m)
    acc = RingMatrix.zeros(f, 3, 3)
    power = RingMatrix.identity(f, 3)
    for c in cp:
        acc = mat_add(acc, power.scalar_mul(c))
        power = power @ m
    assert acc == RingMatrix.zeros(f, 3, 3)


def test_det_over_integers():
    # over other rings the determinant is charpoly's constant term
    z = PolyRing(("x",), 0)
    m = RingMatrix.from_rows(z, [[z.const(2), z.const(3)], [z.const(5), z.const(7)]])
    with pytest.raises(UnsupportedRingError):
        mat_det(m)
    assert charpoly(m)[0] == z.const(-1)


# ----------------------------------------------------------------------
# block structure
# ----------------------------------------------------------------------

def test_direct_sum():
    f = FiniteField(2)
    a = RingMatrix.from_rows(f, [[1, 1], [0, 1]])
    b = RingMatrix.from_rows(f, [[1, 0], [1, 1]])
    ds = direct_sum([a, b])
    assert ds.submatrix(range(2), range(2)) == a
    assert ds.submatrix(range(2, 4), range(2, 4)) == b
    assert ds.submatrix(range(2), range(2, 4)) == RingMatrix.zeros(f, 2, 2)


def test_gauge_conjugate_preserves_rank_and_det():
    f = FiniteField(2, 4)
    rng = random.Random(12)
    m = _random_matrix(f, 4, rng)
    gs = []
    for _ in range(2):
        while True:
            g = _random_matrix(f, 2, rng)
            if rank(g) == 2:
                break
        gs.append(g)
    c = gauge_conjugate(m, gs)
    assert rank(c) == rank(m)
    assert mat_det(c) == mat_det(m)


def test_mat_mul_matches_operator():
    f = FiniteField(5)
    rng = random.Random(14)
    a, b = _random_matrix(f, 3, rng), _random_matrix(f, 3, rng)
    assert mat_mul(a, b) == a @ b
