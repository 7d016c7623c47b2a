"""Cubic lattices, block assembly, and evolution.

A d-dimensional brick acts in a direct sum of d thin spaces.  Placing a
copy at every integer point of a box and multiplying the copies in any
linear extension of the coordinatewise partial order yields the block,
an operator on the d thick spaces (one per axis, one thin-space copy per
lattice line parallel to that axis).
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import InputError, ResourceLimitError
from .fields import FiniteField
from .matrices import BlockProfile, RingMatrix
from . import fieldmat


class LatticeSpec:
    """Box geometry: d axes, per-axis point counts, per-axis thin dimensions."""

    def __init__(self, d: int, l: int | None = None,
                 edges: tuple[int, ...] | None = None,
                 thin_dims: tuple[int, ...] | None = None):
        if d < 1:
            raise InputError(f"dimension must be >= 1, got {d}")
        if edges is None:
            if l is None:
                raise InputError("need an edge length l or an edges vector")
            edges = (l,) * d
        edges = tuple(int(e) for e in edges)
        if len(edges) != d or any(e < 1 for e in edges):
            raise InputError(f"need {d} positive edge lengths, got {edges}")
        if thin_dims is None:
            thin_dims = (1,) * d
        thin_dims = tuple(int(t) for t in thin_dims)
        if len(thin_dims) != d or any(t < 1 for t in thin_dims):
            raise InputError(f"need {d} positive thin dimensions, got {thin_dims}")
        self.d = d
        self.edges = edges
        self.thin_dims = thin_dims

    def vertices(self) -> list[tuple[int, ...]]:
        return [v for v in itertools.product(*(range(e) for e in self.edges))]

    def lines_per_axis(self, axis: int) -> int:
        n = 1
        for j, e in enumerate(self.edges):
            if j != axis:
                n *= e
        return n

    @property
    def dimension(self) -> int:
        """Dimension of the block: one thin-space copy per line per axis."""
        return sum(self.lines_per_axis(ax) * t for ax, t in enumerate(self.thin_dims))

    def to_json(self) -> dict:
        return {"d": self.d, "edges": list(self.edges),
                "thin_dims": list(self.thin_dims)}

    def __repr__(self):
        return f"LatticeSpec(d={self.d}, edges={self.edges}, thin_dims={self.thin_dims})"


class ThickProfile:
    """Slot layout of the thick spaces.

    For axis i, every line parallel to axis i is identified by its
    transverse coordinates (the d-1 coordinates on the other axes, in
    axis order).  Lines occupy consecutive slots, numbered by reading the
    transverse coordinates as a mixed-radix number whose first digit is
    the most significant ("lex") or the least ("colex").  Each slot spans
    thin_dims[i] basis vectors.  Axis blocks are laid out in axis order.
    """

    def __init__(self, spec: LatticeSpec, ordering="lex"):
        if ordering not in ("lex", "colex"):
            raise InputError(f"unknown line ordering {ordering!r}")
        self.spec = spec
        self.ordering = ordering
        self.dims = tuple(spec.lines_per_axis(i) * t for i, t in enumerate(spec.thin_dims))
        self.block_profile = BlockProfile(self.dims)
        self.total = self.block_profile.total

    def affected(self, vertices) -> np.ndarray:
        """The global indices touched by the embedding at each vertex, as a
        (vertices, k) array in brick order: row t holds, axis by axis, the
        thin-space copy on the line through vertices[t] parallel to that
        axis."""
        spec = self.spec
        v = np.asarray(vertices, dtype=np.int64).reshape(-1, spec.d)
        table = []
        for i, (off, t) in enumerate(zip(self.block_profile.offsets, spec.thin_dims)):
            digits = [j for j in range(spec.d) if j != i]
            if self.ordering == "colex":
                digits.reverse()
            slot = np.zeros(len(v), dtype=np.int64)
            for j in digits:
                slot = slot * spec.edges[j] + v[:, j]
            table.append(off + t * slot[:, None] + np.arange(t))
        return np.concatenate(table, axis=1)


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
        field = FiniteField.from_json(obj["field"])
        entries = obj["entries"]
        if any(type(x) is not int or not 0 <= x < field.q for row in entries for x in row):
            raise InputError(f"brick entries must be integers in [0, {field.q})")
        m = RingMatrix.from_rows(field, [list(row) for row in entries])
        return cls(int(obj["d"]), tuple(obj["thin_dims"]), m)


def default_order(spec: LatticeSpec) -> list[tuple[int, ...]]:
    """Layered order: by coordinate sum, lexicographic within a layer."""
    return sorted(spec.vertices(), key=lambda v: (sum(v), v))


def check_linear_extension(spec: LatticeSpec, order) -> list[tuple[int, ...]]:
    order = [tuple(v) for v in order]
    expected = set(spec.vertices())
    if set(order) != expected or len(order) != len(expected):
        raise InputError("order is not a permutation of the lattice points")
    # the partial order is the transitive closure of its covers w = v - e_i,
    # so it is enough that each vertex comes after its covered vertices
    when = {v: t for t, v in enumerate(order)}
    for v in order:
        for i, x in enumerate(v):
            w = v[:i] + (x - 1,) + v[i + 1:]
            if x > 0 and when[w] > when[v]:
                raise InputError(f"order violates the lattice partial order at {w} -> {v}")
    return order


def assemble_block(brick: BrickSpec, spec: LatticeSpec, order=None,
                   ordering="lex") -> tuple[RingMatrix, ThickProfile]:
    """Product of brick copies over the box, earlier vertices applied first
    (leftmost factor, acting on row vectors from the right)."""
    if brick.d != spec.d or brick.thin_dims != spec.thin_dims:
        raise InputError("brick shape does not match the lattice")
    profile = ThickProfile(spec, ordering)
    if order is None:
        order = default_order(spec)
    else:
        order = check_linear_extension(spec, order)
    if isinstance(brick.ring, FiniteField):
        arr = _assemble_field(brick, spec, profile, order)
        return fieldmat.from_array(brick.ring, arr), profile
    return _assemble_generic(brick, spec, profile, order), profile


def _assemble_generic(brick, spec, profile, order) -> RingMatrix:
    ring = brick.ring
    acc = RingMatrix.identity(ring, profile.total)
    n = profile.total
    k = brick.matrix.rows
    for idx in profile.affected(order).tolist():
        # acc <- acc @ embed(v): only the affected columns change
        new_cols = []
        for b in range(k):
            col = [ring.zero] * n
            for a in range(k):
                coeff = brick.matrix[a, b]
                if coeff == ring.zero:
                    continue
                ca = idx[a]
                for r in range(n):
                    x = acc.data[r * n + ca]
                    if x != ring.zero:
                        col[r] = ring.add(col[r], ring.mul(x, coeff))
            new_cols.append(col)
        for b in range(k):
            cb = idx[b]
            col = new_cols[b]
            for r in range(n):
                acc.data[r * n + cb] = col[r]
    return acc


def _disjoint_runs(table: np.ndarray) -> list[slice]:
    """Cut the rows of an index table (one vertex each, in order) greedily
    into runs of consecutive vertices whose indices are pairwise disjoint.
    The embeddings of a run commute, so a run is one product; the vertices
    of a layer of default_order share no line, so each layer is one run."""
    starts, used = [0], set()
    for t, idx in enumerate(table.tolist()):
        if used.intersection(idx):
            starts.append(t)
            used = set()
        used.update(idx)
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [len(table)])]


# rows of the block built together; rows are independent (row r is e_r
# times the product), so a panel runs every run on its own rows
PANEL_ROWS = 64


def _assemble_field(brick, spec, profile, order):
    """The block as a C-contiguous int64 coefficient array, built
    PANEL_ROWS rows at a time in one reused accumulator.

    The accumulator is column-major, (column, coefficient, row), so a
    run's gather and scatter move whole columns of the panel, and it
    stays in the dtype of the run products (float32 at small p).  A run
    of V vertices is a gather of (V, k m, rows), one batched product with
    the transposed regular representation of the brick, reduced mod p in
    that dtype, and a scatter."""
    field = brick.ring
    n, m = profile.total, field.m
    km = brick.matrix.rows * m
    dtype = fieldmat.product_dtype(field.p, km)
    reg_t = fieldmat.regular(field, fieldmat.to_array(field, brick.matrix)).T
    reg_t = np.ascontiguousarray(reg_t, dtype=dtype)
    table = profile.affected(order)
    runs = [table[run] for run in _disjoint_runs(table)]
    out = np.empty((n, n, m), dtype=np.int64)
    buf = np.empty(n * m * min(PANEL_ROWS, n), dtype=dtype)
    for r0 in range(0, n, PANEL_ROWS):
        rows = min(PANEL_ROWS, n - r0)
        acc = buf[:n * m * rows].reshape(n, m, rows)
        acc.fill(0)
        acc[np.arange(r0, r0 + rows), 0, np.arange(rows)] = 1
        for idx in runs:
            cols = acc[idx].reshape(len(idx), km, rows)
            acc[idx] = fieldmat.reduced_product(field.p, reg_t, cols).reshape(
                idx.shape + (m, rows))
        out[r0:r0 + rows] = acc.transpose(2, 0, 1)
    return out


def evolve(brick: BrickSpec, steps: int, edge: int,
           cap: int = 4096) -> list[tuple[RingMatrix, ThickProfile]]:
    """Iterate block making: each step's thick spaces become the next
    step's thin spaces."""
    if steps < 1:
        raise InputError(f"need at least one step, got {steps}")
    # each step multiplies the block dimension by the lines per axis, so
    # the last block is the largest: refuse it before the first step,
    # stopping at the first step past the cap
    dim, lines = sum(brick.thin_dims), edge ** (brick.d - 1)
    if lines == 1:
        raise InputError(f"the block of a {brick.d}-axis brick at edge {edge} never "
                         f"grows, so evolve has no bound on its steps")
    for step in range(1, steps + 1):
        dim *= lines
        if dim > cap:
            raise ResourceLimitError(
                f"block dimension {dim} at step {step} exceeds the cap {cap}")
    out = []
    current = brick
    for _ in range(steps):
        spec = LatticeSpec(current.d, edges=(edge,) * current.d,
                           thin_dims=current.thin_dims)
        block, profile = assemble_block(current, spec)
        out.append((block, profile))
        current = BrickSpec(current.d, profile.dims, block)
    return out
