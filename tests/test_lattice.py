import itertools
import random

import numpy as np
import pytest

from cubeblocks.errors import InputError
from cubeblocks.fields import FiniteField
from cubeblocks.lattice import (
    BrickSpec, LatticeSpec, ThickProfile, assemble_block, check_linear_extension,
    default_order, evolve,
)
from cubeblocks.matrices import RingMatrix
from reference import (
    affected_indices, brick_to_json, random_brick, random_linear_extension, row_major_assemble,
    thick_position,
)

F2 = FiniteField(2)
F4 = FiniteField(2, 2)


# ----------------------------------------------------------------------
# geometry bookkeeping
# ----------------------------------------------------------------------

def test_lines_per_axis():
    spec = LatticeSpec(3, edges=(2, 3, 4))
    assert spec.lines_per_axis(0) == 12
    assert spec.lines_per_axis(1) == 8
    assert spec.lines_per_axis(2) == 6


def test_profile_total_dimension():
    spec = LatticeSpec(3, l=2, thin_dims=(1, 2, 3))
    prof = ThickProfile(spec)
    assert prof.total == spec.dimension == 4 * 1 + 4 * 2 + 4 * 3
    assert tuple(prof.block_profile.sizes) == (4, 8, 12)
    spec = LatticeSpec(3, edges=(2, 3, 4), thin_dims=(1, 2, 3))
    assert spec.dimension == ThickProfile(spec).total == 12 * 1 + 8 * 2 + 6 * 3


def test_position_is_injective_per_axis():
    spec = LatticeSpec(3, l=2)
    prof = ThickProfile(spec)
    for axis in range(3):
        seen = {thick_position(prof, axis, v) for v in spec.vertices()}
        assert len(seen) == 4


@pytest.mark.parametrize("ordering", ["lex", "colex"])
@pytest.mark.parametrize("edges,thin", [
    ((4,), (2,)), ((3, 2), (1, 1)), ((2, 3), (2, 3)), ((3, 1, 4), (1, 1, 1)),
    ((2, 3, 2), (2, 1, 3)), ((3, 3, 3), (1, 2, 1)), ((2, 3, 1, 2), (1, 2, 1, 1))])
def test_index_table_matches_per_vertex_positions(ordering, edges, thin):
    spec = LatticeSpec(len(edges), edges=edges, thin_dims=thin)
    prof = ThickProfile(spec, ordering)
    order = default_order(spec)
    table = prof.affected(order)
    assert table.shape == (len(order), sum(thin)) and table.dtype == np.int64
    for row, v in zip(table.tolist(), order):
        assert row == affected_indices(prof, v)


def test_spec_json_roundtrip():
    # the "lattice" entry of a report holds the constructor's arguments
    spec = LatticeSpec(3, edges=(2, 3, 2), thin_dims=(1, 2, 1))
    back = LatticeSpec(**spec.to_json())
    assert back.edges == spec.edges and back.thin_dims == spec.thin_dims


def test_brick_json_roundtrip():
    rng = random.Random(0)
    brick = random_brick(F4, 3, (1, 1, 1), rng)
    back = BrickSpec.from_json(brick_to_json(brick))
    assert back.matrix == brick.matrix and back.thin_dims == brick.thin_dims


# ----------------------------------------------------------------------
# linear extensions of the product order
# ----------------------------------------------------------------------

def test_default_order_is_a_linear_extension():
    spec = LatticeSpec(3, l=3)
    check_linear_extension(spec, default_order(spec))


def test_bad_order_rejected():
    spec = LatticeSpec(2, l=2)
    bad = [(1, 1), (0, 0), (0, 1), (1, 0)]
    with pytest.raises(InputError):
        check_linear_extension(spec, bad)


def test_single_swapped_cover_rejected():
    # swapping one vertex with the next in a valid order breaks exactly one
    # cover relation when the second covers the first
    spec = LatticeSpec(3, edges=(3, 2, 3))
    order = default_order(spec)
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
    rng = random.Random(7)
    for field, d, l in [(F2, 2, 3), (F4, 2, 2), (F2, 3, 2), (F4, 3, 2)]:
        brick = random_brick(field, d, (1,) * d, rng)
        spec = LatticeSpec(d, l=l)
        base, _ = assemble_block(brick, spec)
        for _ in range(5):
            order = random_linear_extension(spec, rng)
            blk, _ = assemble_block(brick, spec, order=order)
            assert blk == base


# ----------------------------------------------------------------------
# assembly structure
# ----------------------------------------------------------------------

def test_identity_brick_gives_identity_block():
    brick = BrickSpec(3, (1, 1, 1), RingMatrix.identity(F2, 3))
    blk, prof = assemble_block(brick, LatticeSpec(3, l=2))
    assert blk == RingMatrix.identity(F2, prof.total)


def test_direct_sum_brick_blocks_do_not_mix():
    # a brick that maps each thin space to itself yields a block that is
    # block diagonal with respect to the axis slots
    rng = random.Random(11)
    m = RingMatrix.zeros(F4, 2, 2)
    m[0, 0] = F4.sample_nonzero(rng)
    m[1, 1] = F4.sample_nonzero(rng)
    brick = BrickSpec(2, (1, 1), m)
    blk, prof = assemble_block(brick, LatticeSpec(2, l=2))
    bp = prof.block_profile
    for i in range(2):
        for j in range(2):
            if i != j:
                sub = blk.submatrix(bp.block_range(i), bp.block_range(j))
                assert sub == RingMatrix.zeros(F4, 2, 2)


def test_field_and_generic_paths_agree():
    # the numpy path handles plain fields; polynomial rings exercise the
    # generic path, so compare them through a specialization
    rng = random.Random(13)
    for field, d, l in [(F4, 2, 3), (FiniteField(3, 2), 3, 2)]:
        brick = random_brick(field, d, (1,) * d, rng)
        spec = LatticeSpec(d, l=l)
        fast, prof = assemble_block(brick, spec)
        from cubeblocks.lattice import _assemble_generic
        slow = _assemble_generic(brick, spec, prof, default_order(spec))
        assert fast == slow


@pytest.mark.parametrize("p,m,d,l,thin", [
    (7, 3, 3, 3, (1, 1, 1)), (2, 8, 3, 3, (1, 1, 1)), (3, 2, 3, 2, (2, 1, 1)),
    (5, 1, 3, 3, (1, 2, 1)), (2, 4, 2, 4, (2, 3))])
def test_batched_assembly_matches_generic(p, m, d, l, thin):
    # each run of vertices with disjoint affected indices is one product;
    # the generic path applies one vertex at a time, in the same order
    from cubeblocks import fieldmat
    from cubeblocks.lattice import _assemble_field, _assemble_generic, _disjoint_runs
    field = FiniteField(p, m)
    rng = random.Random(p * 100 + m * 10 + d)
    brick = random_brick(field, d, thin, rng)
    spec = LatticeSpec(d, l=l, thin_dims=thin)
    prof = ThickProfile(spec)
    # the layers of the default order are its runs: d(l-1)+1 products
    assert len(_disjoint_runs(prof.affected(default_order(spec)))) == d * (l - 1) + 1
    orders = [default_order(spec)] + [random_linear_extension(spec, rng) for _ in range(4)]
    for order in orders:
        fast = fieldmat.from_array(field, _assemble_field(brick, spec, prof, order))
        assert fast == _assemble_generic(brick, spec, prof, order)


# a run product sums k m terms, each at most (p-1)^2, for k = sum(thin)
@pytest.mark.parametrize("p,m,thin,dtype", [
    (7, 16, (1, 1, 1), np.float32),  # 1728
    (1031, 1, (1, 1, 1), np.float32),  # 3.2e6, below 2^22: rounded reduction
    (1031, 1, (2, 1, 1), np.float32),  # 4.2e6, above 2^22: int64 reduction
    (1031, 1, (6, 5, 5), np.float64),  # 1.7e7, above 2^24
    (2 ** 31 - 1, 1, (1, 1, 1), np.int64)])  # above 2^53: sliced int64
def test_assembly_matches_generic_in_every_product_tier(p, m, thin, dtype):
    from cubeblocks import fieldmat
    from cubeblocks.lattice import _assemble_field, _assemble_generic
    field = FiniteField(p, m)
    assert fieldmat.product_dtype(p, sum(thin) * m) == dtype
    rng = random.Random(p + m)
    # entries near p - 1 keep the run sums near their bound
    n = sum(thin)
    brick = BrickSpec(3, thin, RingMatrix(field, n, n, [
        field.q - 1 - rng.randrange(3) for _ in range(n * n)]))
    spec = LatticeSpec(3, l=2, thin_dims=thin)
    prof = ThickProfile(spec)
    for order in [default_order(spec)] + [random_linear_extension(spec, rng)
                                          for _ in range(2)]:
        fast = _assemble_field(brick, spec, prof, order)
        assert fast.dtype == np.int64
        assert fieldmat.from_array(field, fast) == _assemble_generic(brick, spec, prof, order)


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
    spec = LatticeSpec(d, l=l, thin_dims=thin)
    prof = ThickProfile(spec, ordering)
    orders = [default_order(spec)]
    if len(orders[0]) <= 125:  # random_linear_extension is cubic in the vertices
        orders += [random_linear_extension(spec, rng) for _ in range(2)]
    for order in orders:
        fast = _assemble_field(brick, spec, prof, order)
        assert fast.dtype == np.int64 and fast.flags.c_contiguous
        assert np.array_equal(fast, row_major_assemble(brick, spec, prof, order))


def test_evolve_dimensions():
    rng = random.Random(15)
    brick = random_brick(F2, 2, (1, 1), rng)
    stages = evolve(brick, 3, edge=2)
    assert [blk.rows for blk, _ in stages] == [4, 8, 16]
