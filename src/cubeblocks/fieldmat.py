"""The array backend for matrices over GF(p^m).

A matrix is an int64 ndarray of shape (rows, cols, m) holding the
polynomial-basis coefficients of each entry, reduced mod p.  Every
Gaussian elimination over a finite field in the package runs here, on
one forward-elimination kernel: ``rank``, ``det`` and ``rref`` build on
it, and ``matrices`` routes its field routines through them.  Products
and the sampled structure checks use ``matmul`` and ``fold_reduce``.
"""

from __future__ import annotations

import numpy as np

from . import matrices
from .fields import FiniteField


def to_array(field: FiniteField, m: matrices.RingMatrix) -> np.ndarray:
    vals = np.array(m.data, dtype=np.int64).reshape(m.rows, m.cols)
    return ints_to_coeffs(field, vals)


def from_array(field: FiniteField, arr: np.ndarray) -> matrices.RingMatrix:
    vals = coeffs_to_ints(field, arr)
    return matrices.RingMatrix(field, arr.shape[0], arr.shape[1],
                      [int(v) for v in vals.reshape(-1)])


def ints_to_coeffs(field: FiniteField, vals: np.ndarray) -> np.ndarray:
    out = np.empty(vals.shape + (field.m,), dtype=np.int64)
    v = vals.copy()
    for i in range(field.m):
        v, out[..., i] = np.divmod(v, field.p)
    return out


def coeffs_to_ints(field: FiniteField, arr: np.ndarray) -> np.ndarray:
    out = np.zeros(arr.shape[:-1], dtype=np.int64)
    for i in range(field.m - 1, -1, -1):
        out = out * field.p + arr[..., i] % field.p
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


def matmul(field: FiniteField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    conv = np.einsum("ika,kjb->ijab", a, b)
    return fold_reduce(field, conv)


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
    row r, from column c rightwards (everything left of c is zero in r)."""
    if rows.size:
        prod = np.einsum("ka,cb->kcab", a[rows, c], a[r, c:])
        a[rows, c:] = (a[rows, c:] - fold_reduce(field, prod)) % field.p


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
            inv_coeffs = np.array(field.coeffs(inv), dtype=np.int64)
            a[r, c:] = fold_reduce(field, np.einsum("a,cb->cab", inv_coeffs, a[r, c:]))
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
