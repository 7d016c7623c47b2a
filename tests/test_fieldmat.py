"""The coefficient-array kernels against generic paths that do not eliminate.

Every finite-field elimination runs on the one fieldmat kernel, so the
elimination results are checked against independent ground truth: the
Berkowitz characteristic polynomial (division-free) for determinants, a
brute-force count of the row kernel for ranks, and the defining
properties of the reduced row echelon form and of the inverse.
"""

import random

import numpy as np
import pytest

from cubeblocks import fieldmat
from cubeblocks.errors import SingularMatrixError
from cubeblocks.fields import FiniteField
from cubeblocks.matrices import RingMatrix, charpoly, mat_det, mat_inverse, rank, rref
from cubeblocks.pointmap import materialize_map

PARAMS = [(2, 1), (2, 8), (3, 4), (7, 3), (5, 1)]


def _random(f, nr, nc, rng):
    return RingMatrix(f, nr, nc, [f.sample(rng) for _ in range(nr * nc)])


def _sparse(f, nr, nc, rng):
    """Half the entries zero, so elimination needs row swaps at any q."""
    return RingMatrix(f, nr, nc, [f.sample(rng) if rng.random() < 0.5 else f.zero
                                  for _ in range(nr * nc)])


def _shapes(f, rng, n):
    """Square, non-square and rank-deficient matrices with at most n rows
    and columns."""
    out = []
    for _ in range(3):
        out += [_random(f, n, 1, rng) @ _random(f, 1, n, rng),
                _sparse(f, n, n - 1, rng), _sparse(f, n - 1, n, rng),
                _random(f, n, n, rng), _sparse(f, n, n, rng),
                RingMatrix.zeros(f, n, n)]
        if n > 2:
            out.append(_random(f, n, n - 2, rng) @ _random(f, n - 2, n, rng))
    return out


@pytest.mark.parametrize("p,m", PARAMS)
def test_array_roundtrip(p, m):
    f = FiniteField(p, m)
    rng = random.Random(p * 31 + m)
    mat = _random(f, 5, 3, rng)
    assert fieldmat.from_array(f, fieldmat.to_array(f, mat)) == mat


@pytest.mark.parametrize("p,m", PARAMS)
def test_matmul_matches_generic(p, m):
    f = FiniteField(p, m)
    rng = random.Random(p * 37 + m)
    for _ in range(10):
        a, b = _random(f, 4, 5, rng), _random(f, 5, 3, rng)
        got = fieldmat.matmul(f, fieldmat.to_array(f, a), fieldmat.to_array(f, b))
        assert fieldmat.from_array(f, got) == a @ b


@pytest.mark.parametrize("p,m", PARAMS)
def test_det_matches_charpoly_constant(p, m):
    f = FiniteField(p, m)
    rng = random.Random(p * 41 + m)
    for n in (4, 5):
        extra = [_sparse(f, n, n, rng) for _ in range(10)]
        for mat in _shapes(f, rng, n) + extra:
            if mat.rows != mat.cols:
                continue
            # det(x - M) at x = 0 is det(-M) = (-1)^n det(M)
            c0 = charpoly(mat)[0]
            assert mat_det(mat) == (f.neg(c0) if n % 2 else c0)


@pytest.mark.parametrize("p,m", PARAMS)
def test_rank_matches_brute_force_kernel(p, m):
    f = FiniteField(p, m)
    rng = random.Random(p * 43 + m)
    n = max([2] + [k for k in range(2, 17) if f.q ** k <= 1 << 16])
    budget = 1 << 18  # enumerated points, so large q takes fewer shapes
    for mat in _shapes(f, rng, n):
        if budget < f.q ** n:
            break
        budget -= f.q ** n
        # pad with zero rows or columns to a square n x n matrix with the
        # same rank; its row kernel then has q^(n - rank) points
        sq = RingMatrix.zeros(f, n, n)
        sq.set_block(0, 0, mat)
        kernel_points = materialize_map(sq).table.count(0)
        assert kernel_points == f.q ** (n - rank(mat))


@pytest.mark.parametrize("p,m", PARAMS)
def test_rref_defining_properties(p, m):
    f = FiniteField(p, m)
    rng = random.Random(p * 47 + m)
    for mat in _shapes(f, rng, 5):
        red, pivots = rref(mat)
        assert pivots == sorted(set(pivots))
        for i in range(red.rows):
            row = red.row(i)
            if i >= len(pivots):
                assert all(x == f.zero for x in row)
                continue
            c = pivots[i]
            assert all(x == f.zero for x in row[:c]) and row[c] == f.one
            assert all(red[k, c] == f.zero for k in range(red.rows) if k != i)
        assert rref(red) == (red, pivots)
        stacked = RingMatrix.from_rows(f, red.to_rows() + mat.to_rows())
        assert rank(stacked) == rank(mat) == len(pivots)


@pytest.mark.parametrize("p,m", PARAMS)
def test_inverse_times_matrix_is_identity(p, m):
    f = FiniteField(p, m)
    rng = random.Random(p * 53 + m)
    for mat in _shapes(f, rng, 5):
        if mat.rows != mat.cols:
            continue
        try:
            inv = mat_inverse(mat)
        except SingularMatrixError as exc:
            assert exc.rank == rank(mat) < mat.rows
            continue
        assert inv @ mat == RingMatrix.identity(f, mat.rows)
        assert mat @ inv == RingMatrix.identity(f, mat.rows)


def test_scalar_helpers():
    f = FiniteField(3, 4)
    s = fieldmat.scalar_matrix(f, 4, 7)
    assert fieldmat.scalar_of(f, s) == 7
    off = s.copy()
    off[0, 1, 0] = 1
    assert fieldmat.scalar_of(f, off) is None
    assert np.array_equal(fieldmat.eye(f, 3), fieldmat.scalar_matrix(f, 3, f.one))


@pytest.mark.parametrize("p,m", PARAMS)
def test_sub_matches_generic(p, m):
    f = FiniteField(p, m)
    rng = random.Random(p * 59 + m)
    a, b = _random(f, 3, 4, rng), _random(f, 3, 4, rng)
    got = fieldmat.sub(f, fieldmat.to_array(f, a), fieldmat.to_array(f, b))
    assert fieldmat.from_array(f, got) == a - b
