import itertools
import random

import pytest

from cubeblocks.census import (
    BoundaryConditions, build_constraint_system, census_report, count_configs,
)
from cubeblocks.errors import InputError
from cubeblocks.fieldmat import from_array
from cubeblocks.fields import FiniteField
from cubeblocks.lattice import BrickSpec, LatticeSpec, assemble_block
from cubeblocks.matrices import RingMatrix, rank
from cubeblocks.pointmap import brute_force_census
from reference import full_system_exponent, gauge_conjugate, random_brick, row_kernel

F2 = FiniteField(2)
F4 = FiniteField(2, 2)
TAGS = ("Periodic", "ZeroInput", "Free")


def test_unknown_tag_rejected():
    with pytest.raises(InputError):
        BoundaryConditions(("Periodic", "Sideways"))


def test_free_only_counts_everything():
    rng = random.Random(1)
    brick = random_brick(F2, 2, (1, 1), rng)
    spec = LatticeSpec(2, l=2)
    blk = from_array(brick.ring, assemble_block(brick, spec))
    cc = count_configs(blk, spec, BoundaryConditions.uniform(2, "Free"))
    assert cc.e == blk.rows


def test_oracle_equivalence_small():
    rng = random.Random(2)
    for _ in range(10):
        d, l = rng.choice([(2, 2), (2, 3), (3, 2)])
        brick = random_brick(F2, d, (1,) * d, rng)
        spec = LatticeSpec(d, l=l)
        blk = from_array(brick.ring, assemble_block(brick, spec))
        for tags in itertools.product(TAGS, repeat=d):
            bcs = BoundaryConditions(tags)
            assert brute_force_census(blk, spec, bcs) \
                == count_configs(blk, spec, bcs), (d, l, tags)


def test_toric_exponent_is_fixed_space_dimension():
    rng = random.Random(3)
    brick = random_brick(F4, 3, (1, 1, 1), rng)
    spec = LatticeSpec(3, l=2)
    blk = from_array(brick.ring, assemble_block(brick, spec))
    cc = count_configs(blk, spec, BoundaryConditions.toric(3))
    ker = row_kernel(blk - RingMatrix.identity(F4, blk.rows))
    assert cc.e == len(ker)


def test_gauge_invariance():
    rng = random.Random(4)
    brick = random_brick(F4, 2, (1, 1), rng)
    spec = LatticeSpec(2, l=2)
    blk = from_array(brick.ring, assemble_block(brick, spec))
    base = {tags: count_configs(blk, spec, BoundaryConditions(tags))
            for tags in itertools.product(TAGS, repeat=2)}
    for _ in range(5):
        gs = []
        for size in spec.dims:
            while True:
                g = RingMatrix(F4, size, size,
                               [F4.sample(rng) for _ in range(size * size)])
                if rank(g) == size:
                    break
            gs.append(g)
        conj = gauge_conjugate(blk, gs)
        for tags, want in base.items():
            assert count_configs(conj, spec, BoundaryConditions(tags)) == want


def test_census_consistent_with_decomposition():
    # toric count of the cube block equals the sum over the predicted
    # summands, each counted as the dimension of its fixed space
    from cubeblocks.decomp3d import SAMPLE_DEGREE, sample_brick, verify_decomposition_3d
    f = FiniteField(2, SAMPLE_DEGREE)
    a = sample_brick("3d-generic", f, random.Random(5))
    # the sampled check draws the same brick from the same seed
    rep = verify_decomposition_3d("sampled", seed=5)
    assert rep.verdict.ok
    brick = BrickSpec(3, (1, 1, 1), RingMatrix.from_rows(f, a))
    spec = LatticeSpec(3, l=2)
    blk = from_array(brick.ring, assemble_block(brick, spec))
    cc = count_configs(blk, spec, BoundaryConditions.toric(3))
    tilde = RingMatrix.from_rows(f, [[f.mul(x, x) for x in row] for row in a])
    e_simple = len(row_kernel(tilde - RingMatrix.identity(f, 3)))
    e_trans = len(row_kernel(tilde.transpose() - RingMatrix.identity(f, 3)))
    assert cc.e == e_trans + 3 * e_simple


def test_census_report_fields():
    rng = random.Random(6)
    brick = random_brick(F2, 2, (1, 1), rng)
    spec = LatticeSpec(2, l=2)
    blk = from_array(brick.ring, assemble_block(brick, spec))
    rep = census_report(blk, spec, BoundaryConditions.toric(2))
    assert set(rep) >= {"q", "exponent", "bcs"}


def test_constraint_columns_count():
    rng = random.Random(7)
    brick = random_brick(F2, 2, (1, 1), rng)
    spec = LatticeSpec(2, l=2)
    blk = from_array(brick.ring, assemble_block(brick, spec))
    c = build_constraint_system(blk, spec, BoundaryConditions(("Periodic", "ZeroInput")))
    # the zero-input axis pins its slots, so only the periodic axis's
    # slots stay as rows; the periodic axis contributes its slot columns
    # of (r - 1), and the zero-input axis no column at all
    assert c.rows == 2
    assert c.cols == 2
    assert c.to_rows() == [[blk[i, j] ^ (i == j) for j in (0, 1)] for i in (0, 1)]


@pytest.mark.parametrize("p,m,thin,edge", [
    (2, 1, (1, 1, 1), 2), (2, 2, (1, 1), 3), (3, 1, (2, 1), 2),
    (3, 2, (1, 1), 2), (2, 8, (1, 1, 1), 2)],
    ids=["GF2", "GF4", "GF3", "GF9", "GF256"])
def test_count_configs_matches_full_system(p, m, thin, edge):
    # C keeps only the free rows and the Periodic columns; the full
    # system [R - I | E_Z] must give the same exponent for every tag mix,
    # all-ZeroInput and all-Free included, on assembled blocks, dense
    # random blocks and rank-one perturbations of the identity (whose
    # R - I leaves most constraints dependent)
    f = FiniteField(p, m)
    rng = random.Random(p * 100 + m)
    spec = LatticeSpec(len(thin), l=edge, thin_dims=thin)
    for _ in range(2):
        blk = from_array(f, assemble_block(random_brick(f, len(thin), thin, rng), spec))
        n = spec.dimension
        dense = RingMatrix(f, n, n, [f.sample(rng) for _ in range(n * n)])
        u = [f.sample(rng) for _ in range(n)]
        v = [f.sample(rng) for _ in range(n)]
        near = RingMatrix(f, n, n, [f.add(int(i == j), f.mul(u[i], v[j]))
                                    for i in range(n) for j in range(n)])
        for r in (blk, dense, near):
            for tags in itertools.product(TAGS, repeat=len(thin)):
                bcs = BoundaryConditions(tags)
                assert count_configs(r, spec, bcs).e \
                    == full_system_exponent(r, spec, bcs), tags
