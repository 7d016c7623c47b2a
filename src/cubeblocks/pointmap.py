"""Brute-force census: the zeros of one folded constraint map on GF(q)^N.

Points are indexed little-endian in base q by slot: index = sum x_k q^k,
each digit x_k an int-encoded field element.  The boundary conditions on
a block R are linear in the input row x.  With P the slots of the
Periodic axes and Z those of the ZeroInput axes, x is permitted iff

    L(x) = (x (R - I) on the columns P,  x on the slots Z) = 0,

and `brute_force_census` counts the zeros of L over all q^N points.  Row
k of L, the image of e_k, folds the identity and the ZeroInput selectors
into row k of R.  The values of L come from an image-table builder that
works digit by digit: with the table known on the first q^k points, the
next digit fills the rest by

    table[c q^k + i] = table[i] + c row_k        (c = 1 .. q-1).

For q = 2 the rows are uint64 bit-rows from `gf2.pack_rows`, folded to
(row_k & P) ^ (bit k & (P | Z)) (P and Z come from different axes, so
the masks never overlap), and the sum is XOR.  Otherwise a table row
holds the base-p coefficient digits of every column of L, the rows are
c (R - I)[k, P] and c e_k on Z, and the sum is digit-wise mod p.  The
low digits are built once into a table of at most CHUNK_ROWS points;
each value of the remaining top digits adds one constant offset to it,
so the zeros of a chunk are the table rows equal to minus its offset,
and memory stays bounded whatever q^N is.

The enumeration is the ground truth that `census.count_configs` is
checked against, so it shares nothing with the rank path: the only
multiplications are the q N |cols| scalars c L[k, j], taken through
`FiniteField.mul`; there is no elimination, no `fieldmat` and no
multiplication tensor.
"""

from __future__ import annotations

import numpy as np

from .census import ConfigCount
from .errors import InputError, ResourceLimitError
from .fields import FiniteField
from .matrices import RingMatrix
from . import gf2

CENSUS_GUARD = 1 << 22
# points per chunk of the enumeration (one digit's q points if q is larger)
CHUNK_ROWS = 1 << 18
# ints of up to this many bits print in decimal (Python allows 4300 digits)
_PRINT_BITS = 14000


def points_above(q: int, n: int, limit: int) -> str | None:
    """q^n written out if it exceeds limit, else None.  A q^n too long to
    print in decimal, and surely above the limit, is written as a power
    and never formed."""
    if n * q.bit_length() > _PRINT_BITS and n * (q.bit_length() - 1) > limit.bit_length():
        return f"{q}^{n}"
    total = q ** n
    return str(total) if total > limit else None


def check_points(q: int, n: int, guard: int) -> None:
    total = points_above(q, n, guard)
    if total is not None:
        raise ResourceLimitError(f"q^N = {total} exceeds the guard {guard}")


def _low_digits(q: int, n: int) -> int:
    """Digits enumerated inside one chunk: q^low <= CHUNK_ROWS, at least one."""
    low = 1
    while q ** (low + 1) <= CHUNK_ROWS:
        low += 1
    return min(low, n)


def _chunks(scaled: np.ndarray, q: int, p: int):
    """(table, offset) per chunk of points, in index order.  scaled[k, c]
    is the image of c at slot k, with scaled[k, 0] = 0: a uint64 bit-row
    at q = 2, whose chunk images are table ^ offset, else a vector of
    base-p digits, reduced here, whose chunk images are
    (table + offset[:, None]) % p.  The points run along the last axis
    of the table, so each digit is one contiguous row."""
    add = np.bitwise_xor if q == 2 else np.add
    n = len(scaled)
    low = _low_digits(q, n)
    table = np.zeros(scaled.shape[2:] + (q ** low,), dtype=scaled.dtype)
    for k in range(low):
        block = q ** k
        for c in range(1, q):
            add(table[..., :block], scaled[k, c][..., None],
                out=table[..., c * block:(c + 1) * block])
    if q > 2:
        table %= p
    slots = np.arange(low, n)
    for top in range(q ** (n - low)):
        digits = np.array([top // q ** i % q for i in range(n - low)], dtype=np.intp)
        offset = add.reduce(scaled[slots, digits], axis=0, dtype=scaled.dtype)
        yield table, (offset if q == 2 else offset % p)


def _digit_rows(field: FiniteField, rows: list[list[int]], cols: int) -> np.ndarray:
    """(n, q, cols m) base-p digits of c rows[k][j] for c = 0 .. q-1, the
    digit d of column j at [k, c, j m + d]."""
    p, q, m, n = field.p, field.q, field.m, len(rows)
    # table digit sums are reduced mod p once, so the dtype holds n of
    # them, and a table digit plus an offset digit
    dtype = np.min_scalar_type(max(n, 2) * (p - 1))
    scaled = np.array([[[field.mul(c, x) for x in row] for c in range(q)]
                       for row in rows], dtype=np.int64).reshape(n, q, cols)
    return (scaled[..., None] // p ** np.arange(m) % p).astype(dtype).reshape(n, q, cols * m)


def brute_force_census(r: RingMatrix, spec, bcs):
    """Count permitted configurations by enumerating every input vector.

    The count is always a power of q (the constraints are linear); the
    exponent is returned via census.ConfigCount.
    """
    field = r.ring
    if not isinstance(field, FiniteField):
        raise InputError("census needs a finite field matrix")
    q = field.q
    check_points(q, r.rows, CENSUS_GUARD)
    periodic, zero = [], []
    for axis, tag in enumerate(bcs.tags):
        slots = list(spec.block_range(axis))
        if tag == "Periodic":
            periodic += slots
        elif tag == "ZeroInput":
            zero += slots
    count = 0
    if q == 2:
        pmask = sum(1 << j for j in periodic)
        zmask = sum(1 << j for j in zero)
        rows = [(row & pmask) ^ ((1 << k) & (pmask | zmask))
                for k, row in enumerate(gf2.pack_rows(r))]
        scaled = np.array([[0, row] for row in rows], dtype=np.uint64)
        for table, offset in _chunks(scaled, 2, 2):
            count += np.count_nonzero(table == offset)
    else:
        p = field.p
        # int(k == j) encodes the field's one on the diagonal, zero off it
        rows = [[field.sub(r[k, j], int(k == j)) for j in periodic]
                + [int(k == j) for j in zero] for k in range(r.rows)]
        scaled = _digit_rows(field, rows, len(periodic) + len(zero))
        for table, offset in _chunks(scaled, q, p):
            neg = -offset.astype(np.int64) % p
            count += np.count_nonzero((table == neg[:, None]).all(axis=0))
    e = 0
    c = count
    while c > 1:
        if c % q:
            raise RuntimeError(
                f"census count {count} is not a power of q = {q}")
        c //= q
        e += 1
    if count == 0:
        raise RuntimeError("census count is zero; constraints are linear, "
                           "the zero configuration always satisfies them")
    return ConfigCount(field.p, q, e)
