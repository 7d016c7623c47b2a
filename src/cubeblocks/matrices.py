"""Dense exact matrices over a commutative ring, right-action convention.

All vectors in this package are rows and matrices act on them from the
right: applying ``a`` then ``b`` to a row ``x`` is ``x @ (a @ b)``.
The elimination routines (rref, rank, inverse and the determinant) need
a ``FiniteField`` and run on the ``fieldmat`` array kernel; products and
the Berkowitz characteristic polynomial work over any commutative ring.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, SingularMatrixError, UnsupportedRingError
from .fields import FiniteField
from . import fieldmat


class RingMatrix:
    __slots__ = ("ring", "rows", "cols", "data")

    def __init__(self, ring, rows: int, cols: int, data: list):
        if len(data) != rows * cols:
            raise InputError("entry count does not match shape")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.data = data

    # -- constructors --------------------------------------------------

    @classmethod
    def from_rows(cls, ring, rows: list) -> "RingMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise InputError("ragged rows")
            flat.extend(row)
        return cls(ring, r, c, flat)

    @classmethod
    def identity(cls, ring, n: int) -> "RingMatrix":
        data = [ring.zero] * (n * n)
        for i in range(n):
            data[i * n + i] = ring.one
        return cls(ring, n, n, data)

    @classmethod
    def zeros(cls, ring, rows: int, cols: int) -> "RingMatrix":
        return cls(ring, rows, cols, [ring.zero] * (rows * cols))

    @classmethod
    def scalar(cls, ring, n: int, c) -> "RingMatrix":
        m = cls.zeros(ring, n, n)
        for i in range(n):
            m.data[i * n + i] = c
        return m

    # -- access --------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return self.data[i * self.cols + j]

    def __setitem__(self, key, value):
        i, j = key
        self.data[i * self.cols + j] = value

    def row(self, i: int) -> list:
        return self.data[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list:
        return [self.row(i) for i in range(self.rows)]

    def submatrix(self, row_idx, col_idx) -> "RingMatrix":
        row_idx = list(row_idx)
        col_idx = list(col_idx)
        data = [self.data[i * self.cols + j] for i in row_idx for j in col_idx]
        return RingMatrix(self.ring, len(row_idx), len(col_idx), data)

    def set_block(self, r0: int, c0: int, block: "RingMatrix") -> None:
        for i in range(block.rows):
            base = (r0 + i) * self.cols + c0
            self.data[base:base + block.cols] = block.row(i)

    def transpose(self) -> "RingMatrix":
        data = [self.data[i * self.cols + j]
                for j in range(self.cols) for i in range(self.rows)]
        return RingMatrix(self.ring, self.cols, self.rows, data)

    def __eq__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            self.ring == other.ring and self.data == other.data

    def __repr__(self):
        return f"RingMatrix({self.rows}x{self.cols} over {self.ring!r})"

    # -- arithmetic ----------------------------------------------------

    def __sub__(self, other):
        self._same_shape(other)
        sub = self.ring.sub
        return RingMatrix(self.ring, self.rows, self.cols,
                          [sub(a, b) for a, b in zip(self.data, other.data)])

    def scalar_mul(self, c) -> "RingMatrix":
        mul = self.ring.mul
        return RingMatrix(self.ring, self.rows, self.cols,
                          [mul(c, a) for a in self.data])

    def __matmul__(self, other):
        return mat_mul(self, other)

    def _same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols) or self.ring != other.ring:
            raise InputError("shape or ring mismatch")


def mat_mul(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    if a.cols != b.rows or a.ring != b.ring:
        raise InputError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    ring = a.ring
    add = ring.add
    mul = ring.mul
    zero = ring.zero
    n, k, m = a.rows, a.cols, b.cols
    out = [zero] * (n * m)
    brows = b.to_rows()
    for i in range(n):
        arow = a.row(i)
        acc = [zero] * m
        for t in range(k):
            av = arow[t]
            if av == zero:
                continue
            brow = brows[t]
            for j in range(m):
                bv = brow[j]
                if bv != zero:
                    acc[j] = add(acc[j], mul(av, bv))
        out[i * m:(i + 1) * m] = acc
    return RingMatrix(ring, n, m, out)


def row_vec_mul(x: list, a: RingMatrix) -> list:
    """Row vector times matrix."""
    if len(x) != a.rows:
        raise InputError("row vector length mismatch")
    ring = a.ring
    acc = [ring.zero] * a.cols
    for t, xv in enumerate(x):
        if xv == ring.zero:
            continue
        arow = a.row(t)
        for j in range(a.cols):
            acc[j] = ring.add(acc[j], ring.mul(xv, arow[j]))
    return acc


# ----------------------------------------------------------------------
# Elimination (finite fields, through the fieldmat kernel)
# ----------------------------------------------------------------------

def _finite_field(m: RingMatrix, what: str) -> FiniteField:
    if not isinstance(m.ring, FiniteField):
        raise UnsupportedRingError(f"{what} needs a finite field")
    return m.ring


def rref(m: RingMatrix) -> tuple[RingMatrix, list[int]]:
    """Reduced row echelon form over a finite field and its pivot columns."""
    field = _finite_field(m, "rref")
    red, pivots = fieldmat.rref(field, fieldmat.to_array(field, m))
    return fieldmat.from_array(field, red), pivots


def rank(m: RingMatrix) -> int:
    field = _finite_field(m, "rank")
    return fieldmat.rank(field, fieldmat.to_array(field, m))


def mat_inverse(m: RingMatrix) -> RingMatrix:
    if m.rows != m.cols:
        raise InputError("inverse of a non-square matrix")
    field = _finite_field(m, "inverse")
    n = m.rows
    aug = np.concatenate(
        [fieldmat.to_array(field, m), fieldmat.eye(field, n)], axis=1)
    red, pivots = fieldmat.rref(field, aug)
    got = len([p for p in pivots if p < n])
    if got < n:
        raise SingularMatrixError(f"singular matrix (rank {got})", rank=got)
    return fieldmat.from_array(field, red[:, n:])


def mat_det(m: RingMatrix):
    """Exact determinant over a finite field."""
    if m.rows != m.cols:
        raise InputError("determinant of a non-square matrix")
    field = _finite_field(m, "determinant")
    return fieldmat.det(field, fieldmat.to_array(field, m))


def charpoly(m: RingMatrix) -> list:
    """Characteristic polynomial det(x*1 - m) by the Berkowitz method
    (division-free, any commutative ring).  Returns coefficients
    [c_0, ..., c_n] with p(x) = sum c_i x^i, c_n = 1."""
    if m.rows != m.cols:
        raise InputError("charpoly of a non-square matrix")
    ring = m.ring
    n = m.rows
    if n == 0:
        return [ring.one]
    add, mul = ring.add, ring.mul
    # vector of charpoly coefficients, leading first
    poly = [ring.one, ring.neg(m[0, 0])]
    for k in range(1, n):
        # principal k+1 x k+1 leading submatrix pieces
        a_kk = m[k, k]
        row = [m[k, j] for j in range(k)]       # R: last row
        col = [m[i, k] for i in range(k)]       # C: last column
        top = m.submatrix(range(k), range(k))   # A: leading block
        # Toeplitz column: [1, -a_kk, -R C, -R A C, -R A^2 C, ...]
        tcol = [ring.one, ring.neg(a_kk)]
        vec = col
        for _ in range(k):
            tcol.append(ring.neg(_dot(ring, row, vec)))
            vec = [_dot(ring, top.row(i), vec) for i in range(k)]
        # multiply the lower-triangular Toeplitz matrix of tcol into poly
        new_poly = []
        for i in range(len(poly) + 1):
            acc = ring.zero
            for j in range(len(poly)):
                d = i - j
                if 0 <= d < len(tcol):
                    acc = add(acc, mul(tcol[d], poly[j]))
            new_poly.append(acc)
        poly = new_poly
    # poly is leading-first; return constant-first
    poly.reverse()
    return poly


def _dot(ring, xs, ys):
    acc = ring.zero
    for x, y in zip(xs, ys):
        acc = ring.add(acc, ring.mul(x, y))
    return acc
