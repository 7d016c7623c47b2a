"""The array backend for matrices over GF(p^m).

A matrix is an ndarray of shape (rows, cols, m) holding the
polynomial-basis coefficients of each entry, reduced mod p, stored in
``coeff_dtype(p)``: the narrowest signed integer dtype that holds every
value from -(p-1) to 2(p-1), so that the difference of two reduced
arrays and the sum of two are exact in it (int8 up to p = 61, int16 up
to 16381, int32 up to 1073741789, else int64).  Every function here
that returns a coefficient array returns it in that dtype, except
``fold_reduce``, which builds the multiplication tensor once per field,
and ``reduced_product``, which stays in its product dtype for assembly.
Every Gaussian elimination over a finite field in the package runs
here, on one forward-elimination kernel: ``rank``, ``det`` and ``rref``
build on it, and ``matrices`` routes its field routines through them.
The kernel makes one step per pivot: one scan of the column finds the
pivot and the rows to clear, one field inverse, and three products
(the regular representations of the inverse and of the pivot row's
tail together, the multipliers, the update).  Pivot rows stay unscaled,
so ``det`` reads the pivot values as they are; ``rref`` back-substitutes
with the same step and scales each pivot row once, at the end.
Block assembly returns these arrays and the sampled b3 pass and summand
detection read them as they are; ``from_array`` makes a ``RingMatrix``
only where a caller reads entries as ints.
The one similarity reduction, ``hessenberg``, runs on the same step;
on its upper Hessenberg form ``det_shifted`` evaluates det(H - x) at
many points at once by the division-free recurrence in the leading
principal minors, so a characteristic polynomial is sampled at n + 1
points for the cost of one reduction instead of n + 1 eliminations.

Products go through the regular representation.  The multiplication
tensor T[a, b] = x^a * x^b mod f is built once per field by
``fold_reduce``, the one place where the modulus folds in; an entry e
then acts as the m x m matrix over F_p whose row s holds x^s * e:
``_reps`` gives it for every entry of an array, and ``regular`` lays it
out as one matrix, for block assembly only.  So ``matmul``,
``_mul_entries`` (entry by entry), each product of an elimination step
and each batch of block assembly is one matrix product over the
integers followed by one reduction mod p.
That product runs in one of three exact tiers, chosen from the shapes
and from p alone: float32 BLAS while every partial sum stays below 2^24,
float64 BLAS below 2^53, and past that int64 on reduced operands,
summing as many terms at a time as stay below 2^63; where a single
product (p-1)^2 reaches 2^63 it raises ``InputError``.  Operands widen
to the tier's dtype only inside the product.  Float results are reduced
mod p in their own dtype (see ``_reduce``), so block assembly keeps its
panel accumulator in the product dtype and narrows it to
``coeff_dtype(p)`` once per panel, as it writes the panel into the
block.
"""

from __future__ import annotations

import functools

import numpy as np

from . import matrices
from .errors import InputError
from .fields import FiniteField

# (dtype, bound): integer sums below the bound are exact in the dtype
_FLOAT_TIERS = ((np.float32, 1 << 24), (np.float64, 1 << 53))
_INT_EXACT = 1 << 63
# (dtype, largest value) for the storage dtypes narrower than int64
_COEFF_DTYPES = tuple((dt, int(np.iinfo(dt).max)) for dt in (np.int8, np.int16, np.int32))


def coeff_dtype(p: int):
    """The narrowest signed integer dtype holding -(p-1) .. 2(p-1): the
    storage dtype of coefficient arrays over F_p (int64 past int32)."""
    return next((dt for dt, top in _COEFF_DTYPES if 2 * (p - 1) <= top), np.int64)


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
                               vals.reshape(-1).tolist())


def ints_to_coeffs(field: FiniteField, vals: np.ndarray) -> np.ndarray:
    out = np.empty(vals.shape + (field.m,), dtype=coeff_dtype(field.p))
    v = vals.copy()
    for i in range(field.m):
        out[..., i] = v % field.p
        v = v // field.p
    return out


def coeffs_to_ints(field: FiniteField, arr: np.ndarray) -> np.ndarray:
    # reduced one coefficient plane at a time, so that no temporary is
    # as large as arr
    arr = arr.astype(_int_dtype(field), copy=False)
    out = arr[..., field.m - 1] % field.p
    for i in range(field.m - 2, -1, -1):
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


def _tier(bound: int):
    """The first of float32 and float64 in which integer sums below bound
    are exact, else int64."""
    return next((dt for dt, exact in _FLOAT_TIERS if bound < exact), np.int64)


def product_dtype(p: int, k: int):
    """The dtype in which products of reduced operands over F_p, summing
    k terms, run."""
    return _tier(k * (p - 1) ** 2)


def _tier_product(p: int, x: np.ndarray, y: np.ndarray, ymax: int) -> tuple[np.ndarray, int]:
    """x @ y (numpy matmul broadcasting) for x of reduced entries and y of
    nonnegative integers at most ymax, in the tier of its bound
    k * (p-1) * ymax, and a bound on the entries returned: the float
    product, unreduced, or the int64 product reduced mod p."""
    k = x.shape[-1]
    bound = k * (p - 1) * ymax
    dtype = _tier(bound)
    if dtype is not np.int64:
        return np.matmul(x.astype(dtype, copy=False), y.astype(dtype, copy=False)), bound
    step = (_INT_EXACT - 1) // (p - 1) ** 2
    if step == 0:
        raise InputError(f"F_{p} is too large for exact int64 products")
    xr = np.asarray(x, dtype=np.int64) % p
    yr = np.asarray(y, dtype=np.int64) % p
    out = np.matmul(xr[..., :step], yr[..., :step, :]) % p
    for s in range(step, k, step):
        out += np.matmul(xr[..., s:s + step], yr[..., s:s + step, :]) % p
        out %= p
    return out, p - 1


# x mod p as x - p * floor((x + 1/2) * r), with r = 1/p rounded to a
# float type of t-bit significands (unit roundoff u = 2^-t), is exact for
# integers 0 <= x < 2^(t-2).  Write x = q p + s with 0 <= s < p.  Then
# x + 1/2 is exact (x < 2^(t-1)), and (x + 1/2) / p = q + (s + 1/2) / p
# lies at least 1/(2p) inside (q, q + 1).  Rounding r and the product
# each add a relative error of at most u, so the computed quotient is off
# by at most (x + 1/2) / p * (2u + u^2) <= (2^(t-2) - 1/2) 2u (1 + u/2) / p
# = (1/2 - u)(1 + u/2) / p < 1/(2p), and its floor is q.  Then q p <= x
# and x - q p = s are exact.  The bound is 2^22 in float32 and 2^51 in
# float64; larger floats, still exact integers, reduce through int64.
_ROUND_EXACT = {np.dtype(np.float32): 1 << 22, np.dtype(np.float64): 1 << 51}


def _reduce(x: np.ndarray, p: int, bound: int) -> np.ndarray:
    """x mod p, in place, for a float array of integers in [0, bound]
    (any array when bound < p: it is already reduced)."""
    if bound < p:
        return x
    if bound >= _ROUND_EXACT[x.dtype]:
        x[...] = np.remainder(x.astype(np.int64), p)
        return x
    one = x.dtype.type(1)
    q = x + one / 2
    q *= one / x.dtype.type(p)
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def reduced_product(p: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y mod p for operands with entries in [0, p), in the dtype of
    its tier, product_dtype(p, k)."""
    out, bound = _tier_product(p, x, y, p - 1)
    return _reduce(out, p, bound)


def _product(p: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y mod p for operands with entries in [0, p), in coeff_dtype(p)."""
    return reduced_product(p, x, y).astype(coeff_dtype(p), copy=False)


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
    areg, bound = _tier_product(p, a.reshape(-1, m), _tensor(field), p - 1)
    bt = b.transpose(1, 0, 2).reshape(b.shape[1], k * m)
    out, bound = _tier_product(p, bt, areg.reshape(n, k * m, m), bound)
    return _reduce(out, p, bound).astype(coeff_dtype(p), copy=False)


def _reps(field: FiniteField, x: np.ndarray) -> np.ndarray:
    """The reduced regular representation of every entry e of x, shape
    x.shape[:-1] + (m, m): (..., s, t) holds coefficient t of x^s * e."""
    m = field.m
    reps = reduced_product(field.p, x.reshape(-1, m), _tensor(field))
    return reps.reshape(x.shape[:-1] + (m, m))


def regular(field: FiniteField, b: np.ndarray) -> np.ndarray:
    """Right multiplication by the (k, j, m) array b as one (k*m, j*m)
    matrix over F_p, for block assembly: row (i, s), column (j, t) holds
    coefficient t of x^s * b[i, j]."""
    k, j, m = b.shape
    return _reps(field, b).transpose(0, 2, 1, 3).reshape(k * m, j * m)


def sub(field: FiniteField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a - b for arrays of reduced entries: each difference is above -p,
    so p is added where it is negative (where its sign bit, shifted down
    arithmetically, gives -1)."""
    d = a - b
    d += (d >> (8 * d.itemsize - 1)) & field.p
    return d


def eye(field: FiniteField, n: int) -> np.ndarray:
    return scalar_matrix(field, n, field.one)


def scalar_matrix(field: FiniteField, n: int, value: int) -> np.ndarray:
    out = np.zeros((n, n, field.m), dtype=coeff_dtype(field.p))
    out[np.arange(n), np.arange(n), :] = field.coeffs(value)
    return out


def _entry(field: FiniteField, coeffs: np.ndarray) -> int:
    """The int encoding of one entry's coefficients, read with one tolist()."""
    out = 0
    for c in reversed(coeffs.tolist()):
        out = out * field.p + c
    return out


def scalar_of(field: FiniteField, arr: np.ndarray) -> int | None:
    """If arr equals c * identity, return the int encoding of c, else None."""
    n = arr.shape[0]
    if arr.shape[1] != n:
        return None
    c = _entry(field, arr[0, 0])
    if not np.array_equal(arr, scalar_matrix(field, n, c)):
        return None
    return c


def _step(field: FiniteField, a: np.ndarray, r: int, c: int, inv: int,
          rows: np.ndarray) -> np.ndarray | None:
    """Clear column c of rows with pivot row r, whose entry at c has
    inverse inv and which is zero left of c: each row loses f = (its
    entry at c) * inv times row r, in place, and the multipliers f are
    returned (None without rows).  Row r itself is left unscaled."""
    if not rows.size:
        return None
    p, m, w = field.p, field.m, a.shape[1] - c - 1
    # the regular representations of inv and of row r right of c, in one
    # product; then one product for the multipliers and one for the update
    reg = _reps(field, np.concatenate([[field.coeffs(inv)], a[r, c + 1:]]))
    f = _product(p, a[rows, c], reg[0])
    tail = reg[1:].transpose(1, 0, 2).reshape(m, w * m)
    a[rows, c + 1:] = sub(field, a[rows, c + 1:],
                          _product(p, f, tail).reshape(rows.size, w, m))
    a[rows, c] = 0
    return f


def _forward(field: FiniteField, a: np.ndarray) -> tuple[list[int], list[int], list[int], int]:
    """Forward elimination of a reduced array, in place.

    Each pivot takes one scan of its column for the rows with a nonzero
    entry: the first is swapped up to the pivot row, the rest are the rows
    that ``_step`` clears.  Pivot rows stay unscaled.  Returns the pivot
    columns, the pivot values, their inverses (one ``field.inv`` per
    pivot) and the number of row swaps, so the determinant is
    (-1)^swaps times the product of the values."""
    nrows, ncols = a.shape[0], a.shape[1]
    pivots, values, inverses = [], [], []
    swaps = r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = r + np.flatnonzero(a[r:, c].any(axis=1))
        if nz.size == 0:
            continue
        if nz[0] != r:
            a[[r, nz[0]]] = a[[nz[0], r]]
            swaps += 1
        val = _entry(field, a[r, c])
        inv = field.inv(val)
        _step(field, a, r, c, inv, nz[1:])
        pivots.append(c)
        values.append(val)
        inverses.append(inv)
        r += 1
    return pivots, values, inverses, swaps


def _reduced(field: FiniteField, a: np.ndarray) -> np.ndarray:
    """A working copy of a, reduced mod p, in coeff_dtype(p)."""
    return (a % field.p).astype(coeff_dtype(field.p), copy=False)


def rank(field: FiniteField, a: np.ndarray) -> int:
    return len(_forward(field, _reduced(field, a))[0])


def det(field: FiniteField, a: np.ndarray) -> int:
    """Determinant of a square array."""
    n = a.shape[0]
    pivots, values, _, swaps = _forward(field, _reduced(field, a))
    if len(pivots) < n:
        return field.zero
    out = field.neg(field.one) if swaps % 2 else field.one
    for v in values:
        out = field.mul(out, v)
    return out


def _mul_entries(field: FiniteField, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y entry by entry, for coefficient arrays of shape (..., m), y
    of x's shape or a single entry: each entry of x times the regular
    representation of its partner, in one product."""
    return _product(field.p, x[..., None, :], _reps(field, y))[..., 0, :]


def hessenberg(field: FiniteField, a: np.ndarray) -> np.ndarray:
    """An upper Hessenberg array similar to the square array a (a new
    array).  For each column c, one scan from row c + 1 down gives the
    pivot (the first nonzero), swapped into row c + 1 with the matching
    column, and the rows to clear (the rest).  ``_step`` clears them with
    one field inverse, and column c + 1 gains their columns times their
    multipliers f in one product: G h G^-1 with G = 1 - f e_{c+1}^T."""
    h = _reduced(field, a)
    n = h.shape[0]
    for c in range(n - 2):
        nz = c + 1 + np.flatnonzero(h[c + 1:, c].any(axis=1))
        if nz.size and nz[0] != c + 1:
            h[[c + 1, nz[0]]] = h[[nz[0], c + 1]]
            h[:, [c + 1, nz[0]]] = h[:, [nz[0], c + 1]]
        if nz.size > 1:
            f = _step(field, h, c + 1, c, field.inv(_entry(field, h[c + 1, c])), nz[1:])
            # f on the left, since matmul represents its left operand's
            # entries; np.take gathers the columns contiguously, h[:, rows] not
            cols = np.take(h, nz[1:], axis=1).transpose(1, 0, 2)
            h[:, c + 1] += matmul(field, f[None], cols)[0]
            h[:, c + 1] %= field.p
    return h


def det_shifted(field: FiniteField, h: np.ndarray, points: list[int]) -> list[int]:
    """det(h - x) at each x of points, for an upper Hessenberg array h.

    The leading principal minors q_k = det(h[:k, :k] - x) follow the
    division-free recurrence
        q_{k+1} = (h_kk - x) q_k + sum_{i<k} (-1)^(k-i) h_ik s_ik q_i,
    where s_ik is the product of the subdiagonal entries h_{j,j-1} for
    i < j <= k.  All points advance together: per k, one matmul of the
    coefficient row against the table of q_i and no inverse."""
    p, m, n = field.p, field.m, h.shape[0]
    xs = ints_to_coeffs(field, np.array(points, dtype=_int_dtype(field)))
    q = np.zeros((n + 1, len(points), m), dtype=coeff_dtype(p))
    q[0, :, 0] = 1
    s = np.zeros((0, m), dtype=q.dtype)
    for k in range(n):
        q[k + 1] = _mul_entries(field, (h[k, k] - xs) % p, q[k])
        if k == 0:
            continue
        # s holds (-1)^(k-i) s_ik: each step scales it by -h_{k,k-1}
        s = _mul_entries(field, np.concatenate([s, eye(field, 1)[0]]), -h[k, k - 1] % p)
        coef = _mul_entries(field, h[:k, k], s)
        q[k + 1] += matmul(field, coef[None], q[:k])[0]
        q[k + 1] %= p
    return [int(v) for v in coeffs_to_ints(field, q[n])]


def rref(field: FiniteField, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form (a new array) and its pivot columns: the
    forward pass, then each pivot clears its column above it with the
    same step, last pivot first; last, one product gives the regular
    representations of the pivot inverses and one more scales every
    pivot row by its own."""
    a = _reduced(field, a)
    pivots, _, inverses, _ = _forward(field, a)
    for r in range(len(pivots) - 1, 0, -1):
        c = pivots[r]
        _step(field, a, r, c, inverses[r], np.flatnonzero(a[:r, c].any(axis=1)))
    coeffs = ints_to_coeffs(field, np.array(inverses, dtype=_int_dtype(field)))
    a[:len(pivots)] = _product(field.p, a[:len(pivots)], _reps(field, coeffs))
    return a, pivots
