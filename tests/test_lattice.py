import random

import numpy as np
import pytest

from cubeblocks import fieldmat
from cubeblocks.decomp3d import GEN3_VARS
from cubeblocks.errors import InputError
from cubeblocks.fields import FiniteField
from cubeblocks.lattice import BrickSpec, LatticeSpec, assemble_block, evolve
from cubeblocks.matrices import RingMatrix
from cubeblocks.polys import PolyRing, ShiftAlgebra
from reference import (
    affected_indices, brick_to_json, check_linear_extension, column_loop_assemble,
    layered_order, random_brick, random_linear_extension, row_major_assemble,
    sample_poly, thick_position, vertices,
)

F2 = FiniteField(2)
F4 = FiniteField(2, 2)


def layer_vertices(spec):
    """The vertices of each layer, read back from its index table; the
    axis-0 and axis-1 slots fix a vertex, so this needs d >= 2."""
    vs = vertices(spec)
    vertex_of = {tuple(row): v for v, row in zip(vs, spec.affected(vs).tolist())}
    assert len(vertex_of) == len(vs)
    return [[vertex_of[tuple(row)] for row in layer.tolist()] for layer in spec.layers()]


# ----------------------------------------------------------------------
# geometry bookkeeping
# ----------------------------------------------------------------------

def test_lines_per_axis():
    # one thin-space copy per line, l^(d-1) lines per axis
    spec = LatticeSpec(3, 4)
    assert spec.edges == (4, 4, 4)
    assert spec.dims == (16, 16, 16)
    assert LatticeSpec(1, 5).dims == (1,)
    assert LatticeSpec(4, 3, (1, 2, 1, 3)).dims == (27, 54, 27, 81)


def test_profile_total_dimension():
    spec = LatticeSpec(3, 2, (1, 2, 3))
    assert spec.dims == (4, 8, 12)
    assert spec.dimension == 4 * 1 + 4 * 2 + 4 * 3
    assert spec.offsets == (0, 4, 12)
    assert [list(spec.block_range(i)) for i in range(3)] == [
        list(range(0, 4)), list(range(4, 12)), list(range(12, 24))]
    assert LatticeSpec(3, 3, (1, 2, 3)).dimension == 9 * (1 + 2 + 3)


def test_spec_rejects_bad_shapes():
    for args in [(0, 2), (2, 0), (2, 2, (1,)), (2, 2, (1, 0))]:
        with pytest.raises(InputError):
            LatticeSpec(*args)
    with pytest.raises(InputError):
        LatticeSpec(2, 2, ordering="revlex")


def test_position_is_injective_per_axis():
    spec = LatticeSpec(3, 2)
    for axis in range(3):
        seen = {thick_position(spec, axis, v) for v in vertices(spec)}
        assert len(seen) == 4


@pytest.mark.parametrize("ordering", ["lex", "colex"])
@pytest.mark.parametrize("edges,thin", [
    ((4,), (2,)), ((3, 3), (1, 1)), ((2, 2), (2, 3)), ((3, 3, 3), (1, 1, 1)),
    ((2, 2, 2), (2, 1, 3)), ((3, 3, 3), (1, 2, 1)), ((2, 2, 2, 2), (1, 2, 1, 1))])
def test_index_table_matches_per_vertex_positions(ordering, edges, thin):
    spec = LatticeSpec(len(edges), edges[0], thin, ordering)
    assert spec.edges == edges
    order = layered_order(spec)
    table = spec.affected(order)
    assert table.shape == (len(order), sum(thin)) and table.dtype == np.int64
    for row, v in zip(table.tolist(), order):
        assert row == affected_indices(spec, v)
    assert np.array_equal(np.concatenate(spec.layers()), table)


def test_spec_json_roundtrip():
    # the "lattice" entry of a report: d, the edge of every axis and the
    # thin dimensions, which rebuild the spec
    spec = LatticeSpec(3, 2, (1, 2, 1), "colex")
    obj = spec.to_json()
    assert obj == {"d": 3, "edges": [2, 2, 2], "thin_dims": [1, 2, 1]}
    back = LatticeSpec(obj["d"], obj["edges"][0], obj["thin_dims"])
    assert back.edges == spec.edges and back.thin_dims == spec.thin_dims


def test_brick_json_roundtrip():
    rng = random.Random(0)
    brick = random_brick(F4, 3, (1, 1, 1), rng)
    back = BrickSpec.from_json(brick_to_json(brick))
    assert back.matrix == brick.matrix and back.thin_dims == brick.thin_dims


# ----------------------------------------------------------------------
# layers and linear extensions of the product order
# ----------------------------------------------------------------------

CUBES = [(d, l, thin, ordering)
         for d, thin in [(1, (2,)), (2, (1, 3)), (3, (1, 1, 1)), (3, (2, 1, 2)),
                         (4, (1, 1, 1, 1)), (4, (2, 1, 1, 2))]
         for l in (1, 2, 3) for ordering in ("lex", "colex")]


@pytest.mark.parametrize("d,l,thin,ordering", CUBES)
def test_layers_touch_disjoint_indices(d, l, thin, ordering):
    # the embeddings of a layer commute, so a layer is one product
    spec = LatticeSpec(d, l, thin, ordering)
    layers = spec.layers()
    assert len(layers) == d * (l - 1) + 1
    assert sum(len(layer) for layer in layers) == l ** d
    for layer in layers:
        assert layer.shape[1] == sum(thin)
        assert len(np.unique(layer)) == layer.size


def test_default_order_is_a_linear_extension():
    # the layers, read back as vertices, are the layered order, which is
    # a linear extension; one vertex per layer at d = 1
    for d, l, thin, ordering in CUBES:
        spec = LatticeSpec(d, l, thin, ordering)
        if d == 1:
            assert [len(layer) for layer in spec.layers()] == [1] * l
            continue
        layers = layer_vertices(spec)
        assert [sum(v) for layer in layers for v in layer] == sorted(
            sum(v) for v in vertices(spec))
        order = [v for layer in layers for v in layer]
        assert order == layered_order(spec)
        assert check_linear_extension(spec, order) == order


def test_bad_order_rejected():
    spec = LatticeSpec(2, 2)
    bad = [(1, 1), (0, 0), (0, 1), (1, 0)]
    with pytest.raises(InputError):
        check_linear_extension(spec, bad)


def test_single_swapped_cover_rejected():
    # swapping one vertex with the next in a valid order breaks exactly one
    # cover relation when the second covers the first
    spec = LatticeSpec(3, 3)
    order = layered_order(spec)
    for t in range(len(order) - 1):
        v, w = order[t], order[t + 1]
        swapped = order[:t] + [w, v] + order[t + 2:]
        covers = sum(a != b for a, b in zip(v, w)) == 1 and all(a <= b for a, b in zip(v, w))
        if covers:
            with pytest.raises(InputError):
                check_linear_extension(spec, swapped)
        else:
            assert check_linear_extension(spec, swapped) == swapped


def test_assembly_independent_of_linear_extension():
    # the layered block equals the row-major reference kernel run in
    # random linear extensions, for both line orderings
    rng = random.Random(7)
    for d, l, thin, ordering in CUBES:
        field = (F2, F4, FiniteField(3, 2))[rng.randrange(3)]
        brick = random_brick(field, d, thin, rng)
        spec = LatticeSpec(d, l, thin, ordering)
        blk = assemble_block(brick, spec)
        for _ in range(3):
            order = random_linear_extension(spec, rng)
            assert np.array_equal(blk, row_major_assemble(brick, spec, order))


# ----------------------------------------------------------------------
# assembly structure
# ----------------------------------------------------------------------

def test_identity_brick_gives_identity_block():
    brick = BrickSpec(3, (1, 1, 1), RingMatrix.identity(F2, 3))
    spec = LatticeSpec(3, 2)
    assert fieldmat.from_array(F2, assemble_block(brick, spec)) \
        == RingMatrix.identity(F2, spec.dimension)


def test_direct_sum_brick_blocks_do_not_mix():
    # a brick that maps each thin space to itself yields a block that is
    # block diagonal with respect to the axis slots
    rng = random.Random(11)
    m = RingMatrix.zeros(F4, 2, 2)
    m[0, 0] = F4.sample_nonzero(rng)
    m[1, 1] = F4.sample_nonzero(rng)
    brick = BrickSpec(2, (1, 1), m)
    spec = LatticeSpec(2, 2)
    blk = fieldmat.from_array(F4, assemble_block(brick, spec))
    for i in range(2):
        for j in range(2):
            if i != j:
                sub = blk.submatrix(spec.block_range(i), spec.block_range(j))
                assert sub == RingMatrix.zeros(F4, 2, 2)


def test_field_and_generic_paths_agree():
    # the numpy path handles plain fields; polynomial rings exercise the
    # generic path, so compare them on the same field brick
    from cubeblocks.lattice import _assemble_generic
    rng = random.Random(13)
    for field, d, l in [(F4, 2, 3), (FiniteField(3, 2), 3, 2)]:
        brick = random_brick(field, d, (1,) * d, rng)
        spec = LatticeSpec(d, l)
        assert fieldmat.from_array(field, assemble_block(brick, spec)) \
            == _assemble_generic(brick, spec)


@pytest.mark.parametrize("p,m,d,l,thin", [
    (7, 3, 3, 3, (1, 1, 1)), (2, 8, 3, 3, (1, 1, 1)), (3, 2, 3, 2, (2, 1, 1)),
    (5, 1, 3, 3, (1, 2, 1)), (2, 4, 2, 4, (2, 3))])
def test_batched_assembly_matches_generic(p, m, d, l, thin):
    # each layer is one product; the generic path applies one vertex at a
    # time, in the same order, and the reference kernel runs in other
    # linear extensions
    from cubeblocks.lattice import _assemble_field, _assemble_generic
    field = FiniteField(p, m)
    rng = random.Random(p * 100 + m * 10 + d)
    brick = random_brick(field, d, thin, rng)
    spec = LatticeSpec(d, l, thin)
    assert len(spec.layers()) == d * (l - 1) + 1
    fast = _assemble_field(brick, spec)
    assert fieldmat.from_array(field, fast) == _assemble_generic(brick, spec)
    for _ in range(4):
        order = random_linear_extension(spec, rng)
        assert np.array_equal(fast, row_major_assemble(brick, spec, order))


# a layer product sums k m terms, each at most (p-1)^2, for k = sum(thin)
@pytest.mark.parametrize("p,m,thin,dtype", [
    (7, 16, (1, 1, 1), np.float32),  # 1728
    (1031, 1, (1, 1, 1), np.float32),  # 3.2e6, below 2^22: rounded reduction
    (1031, 1, (2, 1, 1), np.float32),  # 4.2e6, above 2^22: int64 reduction
    (1031, 1, (6, 5, 5), np.float64),  # 1.7e7, above 2^24
    (2 ** 31 - 1, 1, (1, 1, 1), np.int64)])  # above 2^53: sliced int64
def test_assembly_matches_generic_in_every_product_tier(p, m, thin, dtype):
    from cubeblocks.lattice import _assemble_field, _assemble_generic
    field = FiniteField(p, m)
    assert fieldmat.product_dtype(p, sum(thin) * m) == dtype
    rng = random.Random(p + m)
    # entries near p - 1 keep the layer sums near their bound
    n = sum(thin)
    brick = BrickSpec(3, thin, RingMatrix(field, n, n, [
        field.q - 1 - rng.randrange(3) for _ in range(n * n)]))
    spec = LatticeSpec(3, 2, thin)
    fast = _assemble_field(brick, spec)
    assert fast.dtype == fieldmat.coeff_dtype(p)
    assert fieldmat.from_array(field, fast) == _assemble_generic(brick, spec)
    for _ in range(2):
        order = random_linear_extension(spec, rng)
        assert np.array_equal(fast, row_major_assemble(brick, spec, order))


# PANEL_ROWS = 64 rows per panel: several panels with a partial last one
# (147, 150 and 192 rows), blocks below one panel, thin dimensions above 1
@pytest.mark.parametrize("p,m,d,l,thin,ordering", [
    (7, 16, 3, 7, (1, 1, 1), "lex"), (2, 8, 3, 8, (1, 1, 1), "lex"),
    (2, 8, 3, 8, (1, 1, 1), "colex"), (3, 3, 3, 5, (1, 2, 3), "colex"),
    (3, 2, 3, 3, (1, 2, 1), "colex"), (5, 1, 2, 4, (2, 3), "lex"),
    (2, 2, 2, 5, (3, 2), "colex"), (11, 1, 2, 3, (2, 3), "lex")])
def test_panelled_assembly_matches_row_major(p, m, d, l, thin, ordering):
    from cubeblocks.lattice import _assemble_field
    field = FiniteField(p, m)
    rng = random.Random(p * 1000 + m * 100 + l)
    brick = random_brick(field, d, thin, rng)
    spec = LatticeSpec(d, l, thin, ordering)
    fast = _assemble_field(brick, spec)
    assert fast.dtype == fieldmat.coeff_dtype(p) and fast.flags.c_contiguous
    orders = [layered_order(spec)]
    if l ** d <= 125:  # a random extension cuts into many short reference runs
        orders += [random_linear_extension(spec, rng) for _ in range(2)]
    for order in orders:
        assert np.array_equal(fast, row_major_assemble(brick, spec, order))


def _ring_element(ring, rng):
    if isinstance(ring, ShiftAlgebra):
        return tuple(_ring_element(ring.base, rng) for _ in range(ring.l))
    if isinstance(ring, PolyRing):
        return sample_poly(ring, rng, max_terms=3, max_deg=1)
    return ring.sample(rng)


GENERIC_RINGS = {
    "Z[a,b,c,d]": PolyRing(("a", "b", "c", "d")),
    "F2[a11..a33]": PolyRing(GEN3_VARS, 2),
    "shift-over-poly": ShiftAlgebra(PolyRing(("a", "b", "c", "d")), 2, True),
    "shift-over-gf256": ShiftAlgebra(FiniteField(2, 8), 4, False),
}


@pytest.mark.parametrize("d,l,thin", [(2, 2, (1, 1)), (2, 3, (2, 1)),
                                      (3, 2, (1, 1, 1)), (3, 3, (1, 1, 1))])
@pytest.mark.parametrize("ring", GENERIC_RINGS.values(), ids=GENERIC_RINGS)
def test_generic_assembly_matches_column_loop(ring, d, l, thin):
    # one mat_mul of the affected columns per vertex against a multiply-add
    # loop per column, over the rings only the generic path handles
    from cubeblocks.lattice import _assemble_generic
    rng = random.Random(sum(thin) * 10 + l)
    k = sum(thin)
    brick = BrickSpec(d, thin, RingMatrix(ring, k, k, [_ring_element(ring, rng)
                                                       for _ in range(k * k)]))
    spec = LatticeSpec(d, l, thin)
    blk = _assemble_generic(brick, spec)
    assert blk == column_loop_assemble(brick, spec)
    assert blk != RingMatrix.identity(ring, spec.dimension)


ARRAY_FIELDS = {"GF2": F2, "GF4": F4, "GF3": FiniteField(3), "GF9": FiniteField(3, 2),
                "GF49": FiniteField(7, 2)}
THIN_3D = ((1, 1, 1), (2, 1, 1))
# the generic rings at edge 2 only: their column loop at edge 3 takes seconds
CONTRACT_CASES = ([(name, thin, l) for name in ARRAY_FIELDS for thin in THIN_3D
                   for l in (2, 3)]
                  + [(name, thin, 2) for name in GENERIC_RINGS for thin in THIN_3D])


@pytest.mark.parametrize("name,thin,l", CONTRACT_CASES, ids=[
    f"{name}-{''.join(map(str, thin))}-{l}" for name, thin, l in CONTRACT_CASES])
def test_assemble_block_is_an_array_over_fields_only(name, thin, l):
    # over GF(p^m) the block is the (n, n, m) coefficient array of the
    # column-loop reference; over the other rings it is the RingMatrix
    ring = {**ARRAY_FIELDS, **GENERIC_RINGS}[name]
    rng = random.Random(sum(thin) * 10 + l)
    k = sum(thin)
    brick = BrickSpec(3, thin, RingMatrix(ring, k, k, [_ring_element(ring, rng)
                                                       for _ in range(k * k)]))
    spec = LatticeSpec(3, l, thin)
    blk, ref = assemble_block(brick, spec), column_loop_assemble(brick, spec)
    if isinstance(ring, FiniteField):
        n = spec.dimension
        assert isinstance(blk, np.ndarray) and blk.shape == (n, n, ring.m)
        assert blk.dtype == fieldmat.coeff_dtype(ring.p)
        assert np.array_equal(blk, fieldmat.to_array(ring, ref))
    else:
        assert isinstance(blk, RingMatrix) and blk == ref


def test_evolve_dimensions():
    rng = random.Random(15)
    brick = random_brick(F2, 2, (1, 1), rng)
    stages = evolve(brick, 3)
    assert [blk.shape[0] for blk in stages] == [4, 8, 16]
