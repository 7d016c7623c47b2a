"""Brute-force enumeration of the map x -> x R on the q^N points of GF(q)^N.

Points are indexed little-endian in base q by slot: index = sum x_k q^k,
each digit x_k an int-encoded field element.  `brute_force_census` runs
on an image-table builder that works digit by digit: with the table
known on the first q^k points, the next digit fills the rest by

    table[c q^k + i] = table[i] + c row_k        (c = 1 .. q-1),

where row_k is row k of R.  For q = 2 the rows are uint64 bit-rows from
`gf2.pack_rows` and the sum is XOR; otherwise a table row holds the
base-p coefficient digits of every selected column, shape (cols, m), and
the sum is digit-wise, reduced mod p once per chunk.  The low digits are
built once into a table of at most CHUNK_ROWS points; each value of the
remaining top digits adds one constant offset to it, so memory stays
bounded whatever q^N is.  The census builds only the columns that a
Periodic axis constrains; a ZeroInput axis reads input digits only.

The enumeration is the ground truth that `census.count_configs` is
checked against, so it shares nothing with the rank path: the only
multiplications are the q N |cols| scalars c r[k, j], taken through
`FiniteField.mul`; there is no elimination, no `fieldmat` and no
multiplication tensor.
"""

from __future__ import annotations

import numpy as np

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


def _bit_chunks(r: RingMatrix, mask: int):
    """(first index, image bits & mask) per chunk, over GF(2)."""
    n = r.rows
    rows = np.array(gf2.pack_rows(r), dtype=np.uint64) & np.uint64(mask)
    low = _low_digits(2, n)
    table = np.zeros(1 << low, dtype=np.uint64)
    for k in range(low):
        table[1 << k:2 << k] = table[:1 << k] ^ rows[k]
    for top in range(1 << (n - low)):
        offset = np.uint64(0)
        for k in range(low, n):
            if top >> (k - low) & 1:
                offset ^= rows[k]
        yield top << low, table ^ offset


def _digit_chunks(r: RingMatrix, cols: list[int]):
    """(first index, image digits) per chunk, over GF(p^m) with q > 2: the
    digits have shape (points, len(cols), m), coefficient d of column
    cols[j] at [:, j, d]."""
    field = r.ring
    p, q, m, n = field.p, field.q, field.m, r.rows
    # digit sums are reduced mod p once per chunk, so the dtype holds n of them
    dtype = np.min_scalar_type(n * (p - 1))
    scaled = np.array([[[field.mul(c, r[k, j]) for j in cols] for c in range(q)]
                       for k in range(n)], dtype=np.int64).reshape(n, q, len(cols))
    scaled = (scaled[..., None] // p ** np.arange(m) % p).astype(dtype)
    low = _low_digits(q, n)
    table = np.zeros((q ** low, len(cols), m), dtype=dtype)
    for k in range(low):
        block = q ** k
        for c in range(1, q):
            np.add(table[:block], scaled[k, c], out=table[c * block:(c + 1) * block])
    for top in range(q ** (n - low)):
        offset = sum(scaled[k, top // q ** (k - low) % q] for k in range(low, n))
        yield top * q ** low, (table + offset) % p


def _elements(digits: np.ndarray, p: int) -> np.ndarray:
    """Int encodings of (..., m) coefficient digits."""
    return digits.astype(np.int64) @ p ** np.arange(digits.shape[-1])


def brute_force_census(r: RingMatrix, profile, bcs, guard: int = CENSUS_GUARD):
    """Count permitted configurations by enumerating every input vector.

    The count is always a power of q (the constraints are linear); the
    exponent is returned via census.ConfigCount.
    """
    from .census import ConfigCount
    field = r.ring
    if not isinstance(field, FiniteField):
        raise InputError("census needs a finite field matrix")
    q = field.q
    check_points(q, r.rows, guard)
    periodic, zero = [], []
    for axis, tag in enumerate(bcs.tags):
        slots = list(profile.block_profile.block_range(axis))
        if tag == "Periodic":
            periodic += slots
        elif tag == "ZeroInput":
            zero += slots
        elif tag != "Free":
            raise InputError(f"unknown boundary tag {tag!r}")
    count = 0
    if q == 2:
        pmask = np.uint64(sum(1 << j for j in periodic))
        zmask = np.uint64(sum(1 << j for j in zero))
        for start, y in _bit_chunks(r, pmask):
            x = np.arange(start, start + len(y), dtype=np.uint64)
            count += np.count_nonzero((((x & pmask) ^ y) | (x & zmask)) == 0)
    else:
        for start, y in _digit_chunks(r, periodic):
            x = np.arange(start, start + len(y), dtype=np.int64)
            ok = np.ones(len(y), dtype=bool)
            for j in zero:
                ok &= x // q ** j % q == 0
            ys = _elements(y, field.p)
            for c, j in enumerate(periodic):
                ok &= ys[:, c] == x // q ** j % q
            count += np.count_nonzero(ok)
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
