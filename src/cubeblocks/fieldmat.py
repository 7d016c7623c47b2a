"""The array backend for matrices over GF(p^m).

A matrix is an int64 ndarray of shape (rows, cols, m) holding the
polynomial-basis coefficients of each entry, reduced mod p.  Every
Gaussian elimination over a finite field in the package runs here, on
one forward-elimination kernel: ``rank``, ``det`` and ``rref`` build on
it, and ``matrices`` routes its field routines through them.

Products go through the regular representation.  The multiplication
tensor T[a, b] = x^a * x^b mod f is built once per field by
``fold_reduce``, the one place where the modulus folds in; an entry e
then acts as the m x m matrix over F_p whose row s holds x^s * e.  So
``matmul``, each elimination step and each batch of block assembly is
one matrix product over the integers followed by one reduction mod p.
That product runs as float64 BLAS, which is exact integer arithmetic
while every partial sum stays below 2^53; past that bound it runs in
int64 on reduced operands, exact below 2^63, and past that it raises
``InputError``.  The choice follows from the shapes and from p alone.
"""

from __future__ import annotations

import functools

import numpy as np

from . import matrices
from .errors import InputError
from .fields import FiniteField

_FLOAT_EXACT = 1 << 53
_INT_EXACT = 1 << 63


def _int_dtype(field: FiniteField):
    """int64 for the int encodings of the elements when they fit, else
    Python ints, so that fields of 2^63 elements or more stay exact."""
    return np.int64 if field.q <= _INT_EXACT else object


def to_array(field: FiniteField, m: matrices.RingMatrix) -> np.ndarray:
    vals = np.array(m.data, dtype=_int_dtype(field)).reshape(m.rows, m.cols)
    return ints_to_coeffs(field, vals)


def from_array(field: FiniteField, arr: np.ndarray) -> matrices.RingMatrix:
    vals = coeffs_to_ints(field, arr)
    return matrices.RingMatrix(field, arr.shape[0], arr.shape[1],
                      [int(v) for v in vals.reshape(-1)])


def ints_to_coeffs(field: FiniteField, vals: np.ndarray) -> np.ndarray:
    out = np.empty(vals.shape + (field.m,), dtype=np.int64)
    v = vals.copy()
    for i in range(field.m):
        out[..., i] = v % field.p
        v = v // field.p
    return out


def coeffs_to_ints(field: FiniteField, arr: np.ndarray) -> np.ndarray:
    arr = arr.astype(_int_dtype(field), copy=False) % field.p
    out = arr[..., field.m - 1]
    for i in range(field.m - 2, -1, -1):
        out = out * field.p + arr[..., i]
    return out


def fold_reduce(field: FiniteField, conv: np.ndarray) -> np.ndarray:
    """Collapse (..., m, m) outer-product coefficients to (..., m) reduced
    entries: sum anti-diagonals, fold degrees >= m through the modulus,
    take everything mod p."""
    m = field.m
    full = np.zeros(conv.shape[:-2] + (2 * m - 1,), dtype=np.int64)
    for a in range(m):
        full[..., a:a + m] += conv[..., a, :]
    res = full[..., :m]
    if m > 1:
        res = res + full[..., m:] @ field.reduction_matrix
    return res % field.p


def _product(p: int, x: np.ndarray, y: np.ndarray, xmax: int, ymax: int,
             reduce: bool = True) -> tuple[np.ndarray, int]:
    """x @ y (numpy matmul broadcasting) for arrays of nonnegative
    integers at most xmax and ymax, and a bound on the entries returned.

    Float64 BLAS is exact while the sum of k terms is below 2^53.  Past
    that the operands are reduced mod p and multiplied in int64, exact
    below 2^63; past that the product cannot be formed exactly.  The
    result is reduced mod p (int64) unless reduce is false and float64
    was exact, in which case it is the unreduced float64 product."""
    k = x.shape[-1]
    bound = k * xmax * ymax
    if bound < _FLOAT_EXACT:
        out = np.matmul(x.astype(np.float64, copy=False), y.astype(np.float64, copy=False))
        if not reduce:
            return out, bound
        out = out.astype(np.int64)
        return np.remainder(out, p, out=out), p - 1
    if k * (p - 1) ** 2 >= _INT_EXACT:
        raise InputError(
            f"F_{p} is too large for exact int64 products of {k} terms")
    xr = np.asarray(x, dtype=np.int64) % p
    yr = np.asarray(y, dtype=np.int64) % p
    return np.matmul(xr, yr) % p, p - 1


@functools.lru_cache(maxsize=8)
def _tensor(field: FiniteField) -> np.ndarray:
    """T as an (m, m*m) float64 array: row a, column (b, t) holds
    coefficient t of x^a * x^b, so that e @ T, for the coefficients e of
    an entry, is its regular representation: (s, t) holds coefficient t
    of x^s * e."""
    m = field.m
    unit = np.eye(m, dtype=np.int64)
    t = fold_reduce(field, np.einsum("ai,bj->abij", unit, unit))
    t = t.reshape(m, m * m).astype(np.float64)
    t.flags.writeable = False  # shared by every caller with an equal field
    return t


def matmul(field: FiniteField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b through the regular representation of a's entries: row
    (i, k, s) holds x^s * a[i, k], so summing it against coefficient s of
    b[k, j] over (k, s) gives entry (i, j).  The representation stays
    unreduced; the product is reduced once, at the end."""
    p, m = field.p, field.m
    n, k = a.shape[0], a.shape[1]
    areg, bound = _product(p, a.reshape(-1, m), _tensor(field), p - 1, p - 1, reduce=False)
    bt = b.transpose(1, 0, 2).reshape(b.shape[1], k * m)
    return _product(p, bt, areg.reshape(n, k * m, m), p - 1, bound)[0]


def regular(field: FiniteField, b: np.ndarray) -> np.ndarray:
    """Right multiplication by the (k, j, m) array b as one (k*m, j*m)
    matrix over F_p: row (i, s), column (j, t) holds coefficient t of
    x^s * b[i, j]."""
    k, j, m = b.shape
    reg = _product(field.p, b.reshape(-1, m), _tensor(field), field.p - 1, field.p - 1)[0]
    return reg.reshape(k, j, m, m).transpose(0, 2, 1, 3).reshape(k * m, j * m)


def mul_regular(field: FiniteField, x: np.ndarray, reg: np.ndarray) -> np.ndarray:
    """x @ b for x of shape (..., k, m), given reg = regular(field, b)."""
    m = field.m
    out = _product(field.p, x.reshape(-1, reg.shape[0]), reg, field.p - 1, field.p - 1)[0]
    return out.reshape(x.shape[:-2] + (reg.shape[1] // m, m))


def sub(field: FiniteField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a - b) % field.p


def eye(field: FiniteField, n: int) -> np.ndarray:
    out = np.zeros((n, n, field.m), dtype=np.int64)
    out[np.arange(n), np.arange(n), 0] = 1
    return out


def scalar_matrix(field: FiniteField, n: int, value: int) -> np.ndarray:
    out = np.zeros((n, n, field.m), dtype=np.int64)
    out[np.arange(n), np.arange(n), :] = np.array(field.coeffs(value), dtype=np.int64)
    return out


def scalar_of(field: FiniteField, arr: np.ndarray) -> int | None:
    """If arr equals c * identity, return the int encoding of c, else None."""
    n = arr.shape[0]
    if arr.shape[1] != n:
        return None
    c = arr[0, 0]
    if not np.array_equal(arr, scalar_matrix(field, n, int(coeffs_to_ints(field, c)))):
        return None
    return int(coeffs_to_ints(field, c))


def _clear(field: FiniteField, a: np.ndarray, r: int, c: int, rows: np.ndarray) -> None:
    """Subtract from each of rows its column-c multiple of the unit-pivot
    row r, from column c rightwards (everything left of c is zero in r):
    the column entries times the pivot row's regular representation."""
    if rows.size:
        prod = mul_regular(field, a[rows, c:c + 1], regular(field, a[r:r + 1, c:]))
        a[rows, c:] = (a[rows, c:] - prod) % field.p


def _forward(field: FiniteField, a: np.ndarray) -> tuple[list[int], list[int], int]:
    """Forward elimination of a reduced array, in place.

    Each step swaps up the first row with a nonzero entry in the column,
    scales it to a unit pivot and clears the column below it.  Returns
    the pivot columns, the pivot values before scaling and the number of
    row swaps, so the determinant is (-1)^swaps times their product."""
    nrows, ncols = a.shape[0], a.shape[1]
    pivots, values = [], []
    swaps = r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(a[r:, c].any(axis=1))
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
            swaps += 1
        val = int(coeffs_to_ints(field, a[r, c]))
        inv = field.inv(val)
        if inv != field.one:
            inv_reg = regular(field, np.array(field.coeffs(inv), dtype=np.int64).reshape(1, 1, -1))
            a[r, c:] = mul_regular(field, a[r, c:, None], inv_reg)[:, 0]
        _clear(field, a, r, c, r + 1 + np.flatnonzero(a[r + 1:, c].any(axis=1)))
        pivots.append(c)
        values.append(val)
        r += 1
    return pivots, values, swaps


def rank(field: FiniteField, a: np.ndarray) -> int:
    return len(_forward(field, a % field.p)[0])


def det(field: FiniteField, a: np.ndarray) -> int:
    """Determinant of a square array."""
    n = a.shape[0]
    pivots, values, swaps = _forward(field, a % field.p)
    if len(pivots) < n:
        return field.zero
    out = field.neg(field.one) if swaps % 2 else field.one
    for v in values:
        out = field.mul(out, v)
    return out


def rref(field: FiniteField, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form (a new array) and its pivot columns: the
    forward pass, then each pivot clears its column above it, last
    pivot first."""
    a = a % field.p
    pivots = _forward(field, a)[0]
    for r in range(len(pivots) - 1, 0, -1):
        c = pivots[r]
        _clear(field, a, r, c, np.flatnonzero(a[:r, c].any(axis=1)))
    return a, pivots
