"""Vectorized kernels for matrices over GF(p^m).

A matrix is an int64 ndarray of shape (rows, cols, m) holding the
polynomial-basis coefficients of each entry, reduced mod p.  These
kernels back the sampled structure checks at p in {3, 5, 7, 11},
where scalar field arithmetic would be too slow; results agree exactly
with the generic RingMatrix path (tested).
"""

from __future__ import annotations

import numpy as np

from .fields import FiniteField
from .matrices import RingMatrix


def to_array(field: FiniteField, m: RingMatrix) -> np.ndarray:
    vals = np.array(m.data, dtype=np.int64).reshape(m.rows, m.cols)
    return ints_to_coeffs(field, vals)


def from_array(field: FiniteField, arr: np.ndarray) -> RingMatrix:
    vals = coeffs_to_ints(field, arr)
    return RingMatrix(field, arr.shape[0], arr.shape[1],
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


def add(field: FiniteField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a + b) % field.p


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


def rref(field: FiniteField, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    a = a % field.p
    nrows, ncols = a.shape[0], a.shape[1]
    pivots = []
    r = 0
    for c in range(ncols):
        col = a[r:, c, :]
        nz = np.nonzero(col.any(axis=1))[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        pivot_val = int(coeffs_to_ints(field, a[r, c]))
        inv = field.inv(pivot_val)
        if inv != field.one:
            inv_coeffs = np.array(field.coeffs(inv), dtype=np.int64)
            conv = np.einsum("a,cb->cab", inv_coeffs, a[r])
            a[r] = fold_reduce(field, conv)
        factors = a[:, c, :].copy()
        factors[r] = 0
        prod = np.einsum("ka,cb->kcab", factors, a[r])
        a = (a - fold_reduce(field, prod)) % field.p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def rank(field: FiniteField, a: np.ndarray) -> int:
    return len(rref(field, a.copy())[1])
