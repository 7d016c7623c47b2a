"""The coefficient-array kernels against generic paths that do not eliminate.

Products run as float32, float64 or int64 matrix products over the
regular representation, so they are checked against ``RingMatrix``
products with scalar ``FiniteField.mul``, on both sides of the 2^24 and
2^53 bounds, and the float reduction mod p on both sides of its own.  Every
finite-field elimination runs on the one fieldmat kernel, so the
elimination results are checked against independent ground truth: the
Berkowitz characteristic polynomial (division-free) for determinants,
a brute-force count of the row kernel and the nonzero minors for ranks,
and the defining properties of the reduced row echelon form and of the
inverse.  The Hessenberg reduction and the batched det(H - x) are checked
against Berkowitz and against one elimination per point.
"""

import itertools

import random

import numpy as np
import pytest

from cubeblocks import fieldmat
from cubeblocks.cli import main
from cubeblocks.errors import InputError, SingularMatrixError
from cubeblocks.fields import FiniteField, is_prime
from cubeblocks.matrices import RingMatrix, charpoly, mat_det, mat_inverse, rank, rref
from reference import direct_sum, materialize_map

PARAMS = [(2, 1), (2, 8), (3, 4), (7, 3), (5, 1)]
# the fields of the sampled b3 checks are GF(p^16)
WIDE = PARAMS + [(7, 16)]


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


@pytest.mark.parametrize("p,m,n", [(7, 16, 20), (11, 16, 20), (2, 8, 24)])
def test_matmul_matches_generic_at_size(p, m, n):
    f = FiniteField(p, m)
    rng = random.Random(p * 61 + m)
    a, b = _random(f, n, n + 1, rng), _random(f, n + 1, n - 1, rng)
    got = fieldmat.matmul(f, fieldmat.to_array(f, a), fieldmat.to_array(f, b))
    assert fieldmat.from_array(f, got) == a @ b


@pytest.mark.parametrize("k", [20, 21])
def test_matmul_at_float_int_boundary(k):
    # over GF(76001), k (p-1)^3 < 2^53 at k = 20 (float64) but not at
    # k = 21 (int64); entries near p - 1 keep the sums near the bound
    p = 76001
    assert (20 * (p - 1) ** 3 < 2 ** 53 <= 21 * (p - 1) ** 3)
    f = FiniteField(p)
    rng = random.Random(k)
    big = lambda nr, nc: RingMatrix(f, nr, nc, [p - 1 - rng.randrange(3)
                                                for _ in range(nr * nc)])
    a, b = big(20, k), big(k, 20)
    got = fieldmat.matmul(f, fieldmat.to_array(f, a), fieldmat.to_array(f, b))
    assert fieldmat.from_array(f, got) == a @ b


@pytest.mark.parametrize("k,dtype", [(9007, np.float64), (9009, np.int64)])
def test_product_switches_to_int64_at_2_53(k, dtype):
    # k (p-2)^2 is odd and above 2^53 at k = 9009, where float64 would
    # round it; at 9007 the bound k (p-1)^2 is still below 2^53
    p = 1000003
    x = np.full((2, k), p - 2, dtype=np.int64)
    y = np.full((k, 3), p - 2, dtype=np.int64)
    raw, bound = fieldmat._tier_product(p, x, y, p - 1)
    assert raw.dtype == dtype
    assert bound == (p - 1 if dtype is np.int64 else k * (p - 1) ** 2)
    got = fieldmat._product(p, x, y)
    assert got.dtype == fieldmat.coeff_dtype(p)
    assert (got == k * (p - 2) ** 2 % p).all()


@pytest.mark.parametrize("k,dtype", [(15, np.float32), (17, np.float64)])
def test_product_switches_to_float64_at_2_24(k, dtype):
    # k (p-2)^2 is odd and above 2^24 at k = 17, where float32 would
    # round it; at 15 the bound k (p-1)^2 is still below 2^24
    p = 1031
    assert 15 * (p - 1) ** 2 < 2 ** 24 <= 16 * (p - 1) ** 2
    assert fieldmat.product_dtype(p, k) == dtype
    x = np.full((2, k), p - 2, dtype=np.int64)
    y = np.full((k, 3), p - 2, dtype=np.int64)
    raw, bound = fieldmat._tier_product(p, x, y, p - 1)
    assert raw.dtype == dtype and (raw == k * (p - 2) ** 2).all()
    assert bound == k * (p - 1) ** 2
    got = fieldmat._product(p, x, y)
    assert got.dtype == fieldmat.coeff_dtype(p)
    assert (got == k * (p - 2) ** 2 % p).all()
    kept = fieldmat.reduced_product(p, x, y)
    assert kept.dtype == dtype and (kept == k * (p - 2) ** 2 % p).all()


@pytest.mark.parametrize("dtype,top", [(np.float32, 2 ** 22), (np.float64, 2 ** 51)])
@pytest.mark.parametrize("p", [3, 7, 11, 41, 61, 1031, 65537])
def test_float_reduction_is_exact_below_its_bound(dtype, top, p):
    # x - p floor((x + 1/2) (1/p)) in the float type, for every x in a
    # window at each end of [0, top) and random x between; at top and
    # above the reduction goes through int64.  Without the 1/2, float32
    # gets thousands of x below 2^22 wrong at p = 41 and 61.
    rng = np.random.default_rng(p)
    lo, hi = np.arange(1 << 14), np.arange(top - (1 << 14), top)
    for x in (np.concatenate([lo, hi, rng.integers(0, top, 1 << 14)]),
              top + rng.integers(0, top, 1 << 10)):
        got = fieldmat._reduce(x.astype(dtype), p, int(x.max()))
        assert got.dtype == dtype and np.array_equal(got.astype(np.int64), x % p)


def test_products_past_int64_are_refused():
    # (p-1)^2 >= 2^63: no exact product exists, so the CLI exits 2
    f = FiniteField(4294967311)
    rng = random.Random(3)
    with pytest.raises(InputError):
        mat_det(_random(f, 4, 4, rng))
    brick = ('{"d": 3, "thin_dims": [1, 1, 1], "entries": [[1, 2, 3], [4, 5, 6], '
             '[7, 8, 4294967310]], "field": {"p": 4294967311, "m": 1, "modulus": [0, 1]}}')
    assert main(["census", "--brick", brick, "--no-timestamp"]) == 2


def test_elements_beyond_int64_stay_exact():
    # GF(1000003^4) has about 2^80 elements, so their int encodings do
    # not fit in int64 on the way into or out of the arrays
    f = FiniteField(1000003, 4, (1, 1, 0, 0, 1))
    rng = random.Random(7)
    a, b = _random(f, 3, 4, rng), _random(f, 4, 3, rng)
    assert max(a.data) >= 2 ** 63
    got = fieldmat.matmul(f, fieldmat.to_array(f, a), fieldmat.to_array(f, b))
    assert fieldmat.from_array(f, got) == a @ b
    sq = a @ b
    assert mat_det(sq) == f.neg(charpoly(sq)[0])


def test_det_in_int64_range_matches_charpoly():
    # over GF(1000003) float64 is not exact but int64 is
    f = FiniteField(1000003)
    rng = random.Random(5)
    for _ in range(20):
        mat = _random(f, 4, 4, rng)
        assert mat_det(mat) == charpoly(mat)[0]


@pytest.mark.parametrize("p,m", WIDE)
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


def _minor_rank(mat):
    """The largest r with a nonzero r x r minor, each minor taken as the
    Berkowitz charpoly constant (no division, no elimination)."""
    for r in range(min(mat.rows, mat.cols), 0, -1):
        for rows in itertools.combinations(range(mat.rows), r):
            for cols in itertools.combinations(range(mat.cols), r):
                if charpoly(mat.submatrix(rows, cols))[0] != mat.ring.zero:
                    return r
    return 0


@pytest.mark.parametrize("p,m", WIDE)
def test_rank_matches_nonzero_minors(p, m):
    f = FiniteField(p, m)
    rng = random.Random(p * 67 + m)
    for mat in _shapes(f, rng, 4):
        assert rank(mat) == _minor_rank(mat)


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


@pytest.mark.parametrize("p,m", [(2, 12), (3, 7), (7, 4), (13, 3), (61, 2), (4093, 1)])
def test_inverse_exhaustive(p, m):
    f = FiniteField(p, m)
    assert f.q <= 2 ** 12
    for a in range(1, f.q):
        assert f.inv(a) == f.pow(a, f.q - 2)


@pytest.mark.parametrize("p,m", [(7, 16), (11, 16), (2, 16)])
def test_inverse_sampled(p, m):
    f = FiniteField(p, m)
    rng = random.Random(p * 71 + m)
    for _ in range(200):
        a = f.sample_nonzero(rng)
        inv = f.inv(a)
        assert inv == f.pow(a, f.q - 2) and f.mul(a, inv) == f.one


# GF(2^31 - 1): (p-1)^2 is above 2^53 but below 2^63, so every product
# runs in int64, two terms per slice
HESSENBERG_FIELDS = [(2, 8), (3, 4), (7, 1), (7, 16), (2 ** 31 - 1, 1)]


def _permuted_triangular(f, n, rng):
    """P U P^T for a random upper triangular U and permutation P: its
    eigenvalues are the diagonal of U, its Krylov spaces are small
    invariant subspaces, and the reduction must swap rows to find its
    pivots.  Returns the matrix and its eigenvalues."""
    diag = [f.sample(rng) for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    u = [[diag[i] if i == j else f.sample(rng) if i < j else f.zero
          for j in range(n)] for i in range(n)]
    rows = [[u[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    return RingMatrix.from_rows(f, rows), diag


def _hessenberg_inputs(f, n, rng):
    """(matrix, eigenvalues to evaluate at): dense, sparse, permuted
    triangular, and a block-diagonal sum of a dense and a permuted
    triangular block, whose Hessenberg form has a zero subdiagonal."""
    if n < 2:
        return [(_random(f, n, n, rng), [])]
    tri, eig = _permuted_triangular(f, n, rng)
    half, eig_half = _permuted_triangular(f, n - n // 2, rng)
    blocks = direct_sum([_random(f, n // 2, n // 2, rng), half])
    if n > 12:
        return [(blocks, eig_half[:3])]
    return [(_random(f, n, n, rng), []), (_sparse(f, n, n, rng), []),
            (tri, eig[:3]), (blocks, eig_half[:3])]


def _is_upper_hessenberg(h):
    nonzero = h.any(axis=2)
    return not np.tril(nonzero, -2).any()


@pytest.mark.parametrize("p,m", HESSENBERG_FIELDS)
@pytest.mark.parametrize("n", [0, 1, 2, 12, 48])
def test_hessenberg_and_batched_det_match_generic(p, m, n):
    f = FiniteField(p, m)
    rng = random.Random(p * 73 + m * 7 + n)
    for mat, eig in _hessenberg_inputs(f, n, rng):
        a = fieldmat.to_array(f, mat)
        h = fieldmat.hessenberg(f, a)
        assert h.shape == a.shape and _is_upper_hessenberg(h)
        assert np.array_equal(a, fieldmat.to_array(f, mat))  # input untouched
        points = rng.sample(range(f.q), min(f.q, 6)) + eig
        expect = [fieldmat.det(f, fieldmat.sub(f, a, fieldmat.scalar_matrix(f, n, x)))
                  for x in points]
        assert fieldmat.det_shifted(f, h, points) == expect
        assert all(expect[-len(eig):][i] == f.zero for i in range(len(eig)))
        if n <= 12 or m == 1:
            assert charpoly(fieldmat.from_array(f, h)) == charpoly(mat)
        else:
            # Berkowitz at n = 48 over an extension field takes seconds to a
            # minute in pure Python; compare det(h - x) by elimination instead
            assert [fieldmat.det(f, fieldmat.sub(f, h, fieldmat.scalar_matrix(f, n, x)))
                    for x in points] == expect


def test_hessenberg_zero_subdiagonal_and_swaps():
    # a block-diagonal input keeps a zero on the subdiagonal at the block
    # boundary, and a zero at (1, 0) above a nonzero row forces a swap
    f = FiniteField(7)
    rows = [[1, 2, 0, 0], [0, 3, 0, 0], [0, 0, 4, 5], [0, 0, 6, 1]]
    h = fieldmat.hessenberg(f, fieldmat.to_array(f, RingMatrix.from_rows(f, rows)))
    assert fieldmat.from_array(f, h).to_rows() == rows
    swap = RingMatrix.from_rows(f, [[1, 2, 3], [0, 4, 5], [6, 0, 1]])
    h = fieldmat.hessenberg(f, fieldmat.to_array(f, swap))
    assert _is_upper_hessenberg(h) and fieldmat.from_array(f, h)[1, 0] == 6
    assert charpoly(fieldmat.from_array(f, h)) == charpoly(swap)
    points = list(range(7))
    assert fieldmat.det_shifted(f, h, points) == [
        mat_det(swap - RingMatrix.scalar(f, 3, x)) for x in points]


def test_int64_products_slice_long_sums():
    # over GF(2^31 - 1) the sum of two products is below 2^63 but that of
    # three is not, so a 48-term sum is taken two terms at a time
    p = 2 ** 31 - 1
    assert 2 * (p - 1) ** 2 < 2 ** 63 <= 3 * (p - 1) ** 2
    x = np.full((2, 48), p - 1, dtype=np.int64)
    y = np.full((48, 3), p - 1, dtype=np.int64)
    got = fieldmat._product(p, x, y)
    assert (got == 48 % p).all()


# the largest prime whose values -(p-1) .. 2(p-1) fit each signed dtype,
# and the next prime, which needs the next dtype
@pytest.mark.parametrize("p,dtype", [
    (2, np.int8), (61, np.int8), (67, np.int16), (16381, np.int16), (16411, np.int32),
    (1073741789, np.int32), (1073741827, np.int64), (2 ** 31 - 1, np.int64)])
def test_coeff_dtype_is_the_narrowest_exact_one(p, dtype):
    assert is_prime(p)
    assert fieldmat.coeff_dtype(p) == dtype
    assert 2 * (p - 1) <= np.iinfo(dtype).max
    narrower = [dt for dt in (np.int8, np.int16, np.int32)
                if np.iinfo(dt).max < np.iinfo(dtype).max]
    assert all(2 * (p - 1) > np.iinfo(dt).max for dt in narrower)


def _extreme(f, nr, nc, rng):
    """Entries whose coefficients are each 0 or p - 1, so that sums of
    two reduced arrays reach 2(p - 1) and differences -(p - 1)."""
    return RingMatrix(f, nr, nc, [
        sum(rng.choice((0, f.p - 1)) * f.p ** i for i in range(f.m))
        for _ in range(nr * nc)])


def _poly_at(f, coeffs, x):
    out = f.zero
    for c in reversed(coeffs):
        out = f.add(f.mul(out, x), c)
    return out


BOUNDARY_FIELDS = [(61, 1), (61, 2), (67, 1), (67, 2), (16381, 1), (16411, 1),
                   (1073741789, 1), (1073741827, 1), (2 ** 31 - 1, 1)]


@pytest.mark.parametrize("p,m", BOUNDARY_FIELDS)
def test_kernels_at_coeff_dtype_boundaries_match_generic(p, m):
    from cubeblocks.lattice import BrickSpec, LatticeSpec, _assemble_field, _assemble_generic
    f = FiniteField(p, m)
    dtype = fieldmat.coeff_dtype(p)
    rng = random.Random(p + m)
    n = 5
    a, b, c = _extreme(f, n, n, rng), _extreme(f, n, n, rng), _extreme(f, n, 3, rng)
    low = _extreme(f, n, 2, rng) @ _extreme(f, 2, n, rng)
    arr = lambda mat: fieldmat.to_array(f, mat)
    assert arr(a).dtype == dtype

    got = fieldmat.sub(f, arr(a), arr(b))
    assert got.dtype == dtype and fieldmat.from_array(f, got) == a - b
    got = fieldmat.matmul(f, arr(a), arr(c))
    assert got.dtype == dtype and fieldmat.from_array(f, got) == a @ c

    for mat in (a, b, low):
        # det(x - M) at x = 0 is (-1)^n det(M)
        poly = charpoly(mat)
        assert fieldmat.det(f, arr(mat)) == (f.neg(poly[0]) if n % 2 else poly[0])
        assert fieldmat.rank(f, arr(mat)) == _minor_rank(mat)
        red, pivots = fieldmat.rref(f, arr(mat))
        assert red.dtype == dtype
        rows = fieldmat.from_array(f, red[:len(pivots)])
        assert rows.submatrix(range(len(pivots)), pivots) == RingMatrix.identity(f, len(pivots))
        # each row of M is its pivot-column entries times the rref rows
        assert mat.submatrix(range(n), pivots) @ rows == mat
        h = fieldmat.hessenberg(f, arr(mat))
        assert h.dtype == dtype and _is_upper_hessenberg(h)
        points = [0, 1, p - 1, rng.randrange(f.q)]
        sign = f.neg(f.one) if n % 2 else f.one
        assert fieldmat.det_shifted(f, h, points) == [
            f.mul(sign, _poly_at(f, poly, x)) for x in points]

    brick = BrickSpec(3, (1, 1, 1), _extreme(f, 3, 3, rng))
    spec = LatticeSpec(3, 2)
    fast = _assemble_field(brick, spec)
    assert fast.dtype == dtype
    assert fieldmat.from_array(f, fast) == _assemble_generic(brick, spec)
