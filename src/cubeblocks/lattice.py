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
    axis order).  Lines occupy consecutive slots; each slot spans
    thin_dims[i] basis vectors.  Axis blocks are laid out in axis order.
    """

    def __init__(self, spec: LatticeSpec, ordering="lex"):
        self.spec = spec
        d = spec.d
        self.axis_lines: list[list[tuple[int, ...]]] = []
        for i in range(d):
            other = [e for j, e in enumerate(spec.edges) if j != i]
            lines = [t for t in itertools.product(*(range(e) for e in other))]
            if ordering == "colex":
                lines.sort(key=lambda t: tuple(reversed(t)))
            elif ordering != "lex":
                raise InputError(f"unknown line ordering {ordering!r}")
            self.axis_lines.append(lines)
        self.line_slot = [
            {t: k for k, t in enumerate(lines)} for lines in self.axis_lines]
        self.dims = tuple(len(self.axis_lines[i]) * spec.thin_dims[i] for i in range(d))
        self.block_profile = BlockProfile(self.dims)
        self.total = self.block_profile.total

    def transverse(self, axis: int, vertex: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(x for j, x in enumerate(vertex) if j != axis)

    def position(self, axis: int, vertex: tuple[int, ...]) -> int:
        """First global index of the thin-space copy on the line through
        vertex parallel to the given axis."""
        slot = self.line_slot[axis][self.transverse(axis, vertex)]
        return (self.block_profile.offsets[axis]
                + slot * self.spec.thin_dims[axis])


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
        self.profile = BlockProfile(thin_dims)

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
    # no later vertex may precede an earlier one in the partial order
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            x, y = order[b], order[a]
            if x != y and all(u <= w for u, w in zip(x, y)):
                raise InputError(f"order violates the lattice partial order at {x} -> {y}")
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


def _affected(brick: BrickSpec, profile: ThickProfile, vertex):
    """Global indices touched by the embedding at vertex, in brick order."""
    spec = profile.spec
    idx = []
    for i in range(spec.d):
        base = profile.position(i, vertex)
        idx.extend(base + s for s in range(spec.thin_dims[i]))
    return idx


def _assemble_generic(brick, spec, profile, order) -> RingMatrix:
    ring = brick.ring
    acc = RingMatrix.identity(ring, profile.total)
    n = profile.total
    k = brick.matrix.rows
    for v in order:
        idx = _affected(brick, profile, v)
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


def _disjoint_runs(brick, profile, order) -> list[list[int]]:
    """Cut order greedily into runs of consecutive vertices whose affected
    indices are pairwise disjoint, each run given by those indices.  The
    embeddings of a run commute, so a run is one product; the vertices
    of a layer of default_order share no line, so each layer is one run."""
    runs, used = [], set()
    for v in order:
        idx = _affected(brick, profile, v)
        if not runs or used.intersection(idx):
            runs.append([])
            used = set()
        runs[-1].extend(idx)
        used.update(idx)
    return runs


def _assemble_field(brick, spec, profile, order):
    """The block as an int64 coefficient array.  The accumulator stays in
    the dtype of its run products (float32 at small p), so a run is a
    gather, one product reduced mod p in that dtype, and a scatter."""
    field = brick.ring
    n, km = profile.total, brick.matrix.rows * field.m
    dtype = fieldmat.product_dtype(field.p, km)
    acc = fieldmat.eye(field, n).astype(dtype)
    reg = fieldmat.regular(field, fieldmat.to_array(field, brick.matrix)).astype(dtype)
    for idx in _disjoint_runs(brick, profile, order):
        cols = acc[:, idx, :].reshape(-1, km)
        acc[:, idx, :] = fieldmat.reduced_product(field.p, cols, reg).reshape(n, len(idx), -1)
    return acc.astype(np.int64)


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
