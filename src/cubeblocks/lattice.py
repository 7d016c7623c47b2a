"""Cubic lattices, block assembly, and evolution.

A d-dimensional brick acts in a direct sum of d thin spaces.  Placing a
copy at every integer point of a cube and multiplying the copies in any
linear extension of the coordinatewise partial order yields the block,
an operator on the d thick spaces (one per axis, one thin-space copy per
lattice line parallel to that axis).  The block does not depend on the
linear extension, so it is always built in one: layer by layer in the
coordinate sum, each layer one product.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .errors import InputError, ResourceLimitError
from .fields import FiniteField, json_int, json_ints, json_item
from .matrices import RingMatrix
from . import fieldmat


class LatticeSpec:
    """The cube of l points along each of d axes, the thin dimension of
    each axis, and the slot layout of the thick spaces.

    For axis i, every line parallel to axis i is identified by its
    transverse coordinates (the d-1 coordinates on the other axes, in
    axis order).  Lines occupy consecutive slots, numbered by reading the
    transverse coordinates as a base-l number whose first digit is the
    most significant ("lex") or the least ("colex").  Each slot spans
    thin_dims[i] basis vectors.  Axis blocks are laid out in axis order.
    """

    def __init__(self, d: int, l: int, thin_dims: tuple[int, ...] | None = None,
                 ordering: str = "lex"):
        if d < 1:
            raise InputError(f"dimension must be >= 1, got {d}")
        if l < 1:
            raise InputError(f"edge length must be >= 1, got {l}")
        if thin_dims is None:
            thin_dims = (1,) * d
        thin_dims = tuple(int(t) for t in thin_dims)
        if len(thin_dims) != d or any(t < 1 for t in thin_dims):
            raise InputError(f"need {d} positive thin dimensions, got {thin_dims}")
        if ordering not in ("lex", "colex"):
            raise InputError(f"unknown line ordering {ordering!r}")
        self.d = d
        self.l = l
        self.edges = (l,) * d
        self.thin_dims = thin_dims
        self.ordering = ordering
        # one thin-space copy per line, l^(d-1) lines per axis
        self.dims = tuple(l ** (d - 1) * t for t in thin_dims)
        self.offsets = tuple(accumulate(self.dims, initial=0))[:-1]
        self.dimension = sum(self.dims)

    def block_range(self, axis: int) -> range:
        return range(self.offsets[axis], self.offsets[axis] + self.dims[axis])

    def affected(self, vertices) -> np.ndarray:
        """The global indices touched by the embedding at each vertex, as a
        (vertices, k) array in brick order: row t holds, axis by axis, the
        thin-space copy on the line through vertices[t] parallel to that
        axis."""
        v = np.asarray(vertices, dtype=np.int64).reshape(-1, self.d)
        table = []
        for i, (off, t) in enumerate(zip(self.offsets, self.thin_dims)):
            digits = [j for j in range(self.d) if j != i]
            if self.ordering == "colex":
                digits.reverse()
            slot = np.zeros(len(v), dtype=np.int64)
            for j in digits:
                slot = slot * self.l + v[:, j]
            table.append(off + t * slot[:, None] + np.arange(t))
        return np.concatenate(table, axis=1)

    def layers(self) -> list[np.ndarray]:
        """The index tables of the vertices with coordinate sum 0, 1, ...,
        d(l-1), lexicographic within each layer.

        Two vertices on one line differ in one coordinate only, so the
        vertices of a layer share no line and their embeddings commute.
        A vertex below another has a smaller sum, so the layers taken in
        order are a linear extension of the lattice order."""
        verts = np.indices(self.edges).reshape(self.d, -1).T
        sums = verts.sum(axis=1)
        table = self.affected(verts[np.argsort(sums, kind="stable")])
        return np.split(table, np.cumsum(np.bincount(sums))[:-1])

    def to_json(self) -> dict:
        return {"d": self.d, "edges": list(self.edges),
                "thin_dims": list(self.thin_dims)}

    def __repr__(self):
        return (f"LatticeSpec(d={self.d}, l={self.l}, thin_dims={self.thin_dims}, "
                f"ordering={self.ordering!r})")


class BrickSpec:
    """A d-dimensional brick: a square matrix partitioned by thin_dims."""

    def __init__(self, d: int, thin_dims: tuple[int, ...], matrix: RingMatrix):
        thin_dims = tuple(int(t) for t in thin_dims)
        if len(thin_dims) != d:
            raise InputError(f"need {d} thin dimensions, got {thin_dims}")
        n = sum(thin_dims)
        if matrix.rows != n or matrix.cols != n:
            raise InputError(
                f"brick matrix is {matrix.rows}x{matrix.cols}, partition needs {n}x{n}")
        self.d = d
        self.thin_dims = thin_dims
        self.matrix = matrix

    @property
    def ring(self):
        return self.matrix.ring

    @classmethod
    def from_json(cls, obj) -> "BrickSpec":
        """A brick description: d, the thin dims and the entries are JSON
        integers, and a missing key is reported by its key path (see the
        JSON readers in ``fields``)."""
        field = FiniteField.from_json(json_item(obj, "field"))
        entries = json_item(obj, "entries")
        if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
            raise InputError("'entries' must be a list of rows of JSON integers")
        if any(type(x) is not int or not 0 <= x < field.q for row in entries for x in row):
            raise InputError(f"brick entries must be integers in [0, {field.q})")
        m = RingMatrix.from_rows(field, entries)
        return cls(json_int(obj, "d"), tuple(json_ints(obj, "thin_dims")), m)


def assemble_block(brick: BrickSpec, spec: LatticeSpec,
                   rows=None) -> RingMatrix | np.ndarray:
    """Product of brick copies over the cube, layer by layer, earlier
    vertices applied first (leftmost factor, acting on row vectors from
    the right).  Over GF(p^m) the block is its (n, n, m) coefficient
    array in fieldmat.coeff_dtype(p), which fieldmat.from_array turns
    into a RingMatrix; over polynomial rings and ShiftAlgebra it is one.

    Over GF(p^m), rows (a list of slot indices) builds only those rows
    of the block, in that order, as a (len(rows), n, m) array: row r is
    e_r times the product, so each row is built on its own."""
    if brick.d != spec.d or brick.thin_dims != spec.thin_dims:
        raise InputError("brick shape does not match the lattice")
    if isinstance(brick.ring, FiniteField):
        return _assemble_field(brick, spec, rows)
    if rows is not None:
        raise InputError("only a block over a finite field is built row by row")
    return _assemble_generic(brick, spec)


def _assemble_generic(brick, spec) -> RingMatrix:
    n, k = spec.dimension, brick.matrix.rows
    acc = RingMatrix.identity(brick.ring, n)
    for idx in np.concatenate(spec.layers()).tolist():
        # acc <- acc @ embed(v): only the affected columns change
        cols = acc.submatrix(range(n), idx) @ brick.matrix
        for b, c in enumerate(idx):
            acc.data[c::n] = cols.data[b::k]
    return acc


# rows of the block built together; rows are independent (row r is e_r
# times the product), so a panel runs every layer on its own rows
PANEL_ROWS = 64


def _assemble_field(brick, spec, rows=None):
    """The block, or the given rows of it, as a C-contiguous coefficient
    array in fieldmat.coeff_dtype(p), built PANEL_ROWS rows at a time in
    one reused accumulator.

    The accumulator is column-major, (column, coefficient, row), so a
    layer's gather and scatter move whole columns of the panel, and it
    stays in the dtype of the layer products (float32 at small p).  A
    layer of V vertices is a gather of (V, k m, rows), one batched
    product with the transposed regular representation of the brick,
    reduced mod p in that dtype, and a scatter."""
    field = brick.ring
    n, m = spec.dimension, field.m
    km = brick.matrix.rows * m
    dtype = fieldmat.product_dtype(field.p, km)
    reg_t = fieldmat.regular(field, fieldmat.to_array(field, brick.matrix)).T
    reg_t = np.ascontiguousarray(reg_t, dtype=dtype)
    layers = spec.layers()
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.int64)
    out = np.empty((len(rows), n, m), dtype=fieldmat.coeff_dtype(field.p))
    buf = np.empty(n * m * min(PANEL_ROWS, len(rows)), dtype=dtype)
    for r0 in range(0, len(rows), PANEL_ROWS):
        panel = rows[r0:r0 + PANEL_ROWS]
        acc = buf[:n * m * len(panel)].reshape(n, m, len(panel))
        acc.fill(0)
        acc[panel, 0, np.arange(len(panel))] = 1
        for idx in layers:
            cols = acc[idx].reshape(len(idx), km, len(panel))
            acc[idx] = fieldmat.reduced_product(field.p, reg_t, cols).reshape(
                idx.shape + (m, len(panel)))
        out[r0:r0 + len(panel)] = acc.transpose(2, 0, 1)
    return out


def evolve(brick: BrickSpec, steps: int, cap: int = 4096) -> list[np.ndarray]:
    """Iterate block making on the cube of edge 2 for a brick over a
    FiniteField: each step's thick spaces become the next step's thin
    spaces.  Returns every stage's block as its coefficient array (see
    assemble_block); a stage becomes a RingMatrix only as the next
    step's brick, so the last and largest one never does."""
    if steps < 1:
        raise InputError(f"need at least one step, got {steps}")
    # each step multiplies the block dimension by the lines per axis, so
    # the last block is the largest: refuse it before the first step,
    # stopping at the first step past the cap
    dim, lines = sum(brick.thin_dims), 2 ** (brick.d - 1)
    if lines == 1:
        raise InputError(f"the block of a {brick.d}-axis brick at edge 2 never "
                         f"grows, so evolve has no bound on its steps")
    for step in range(1, steps + 1):
        dim *= lines
        if dim > cap:
            raise ResourceLimitError(
                f"block dimension {dim} at step {step} exceeds the cap {cap}")
    out = []
    current = brick
    for step in range(1, steps + 1):
        spec = LatticeSpec(current.d, 2, current.thin_dims)
        out.append(assemble_block(current, spec))
        if step < steps:
            current = BrickSpec(current.d, spec.dims,
                                fieldmat.from_array(current.ring, out[-1]))
    return out
