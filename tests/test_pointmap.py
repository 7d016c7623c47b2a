import itertools
import random

import pytest

from cubeblocks import fieldmat, pointmap
from cubeblocks.census import BoundaryConditions, count_configs
from cubeblocks.errors import ResourceLimitError
from cubeblocks.fields import FiniteField
from cubeblocks.lattice import LatticeSpec, assemble_block
from cubeblocks.matrices import RingMatrix, rank, row_vec_mul
from cubeblocks.pointmap import brute_force_census
from reference import (
    PointMap, affected_indices, direct_sum, layered_order, materialize_map, random_brick,
)

F2 = FiniteField(2)
F3 = FiniteField(3)
TAGS = ("Periodic", "ZeroInput", "Free")
# (p, m, thin dims, edge): q^N stays small enough for per-point references
CASES = [(2, 1, (1, 1, 1), 2), (3, 1, (1, 1), 3), (5, 1, (1, 1), 2),
         (2, 2, (1, 1), 3), (3, 2, (1, 1), 2), (131, 1, (1, 1), 1)]
CASE_IDS = ["GF2", "GF3", "GF5", "GF4", "GF9", "GF131"]


# ----------------------------------------------------------------------
# per-point references: one row_vec_mul per point, no image-table builder
# ----------------------------------------------------------------------

def point_to_vector(field: FiniteField, idx: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        out.append(idx % field.q)
        idx //= field.q
    return out


def vector_to_point(field: FiniteField, vec) -> int:
    idx = 0
    for x in reversed(list(vec)):
        idx = idx * field.q + x
    return idx


def per_point_table(a: RingMatrix) -> list[int]:
    f, n = a.ring, a.rows
    return [vector_to_point(f, row_vec_mul(point_to_vector(f, idx, n), a))
            for idx in range(f.q ** n)]


def per_point_census(r: RingMatrix, spec, tags, table) -> int:
    """Exponent of the number of points whose input and image meet the
    per-axis tags, read off a per-point image table."""
    f, n = r.ring, r.rows
    count = 0
    for idx, image in enumerate(table):
        x, y = point_to_vector(f, idx, n), point_to_vector(f, image, n)
        ok = True
        for axis, tag in enumerate(tags):
            slots = spec.block_range(axis)
            if tag == "Periodic":
                ok &= all(y[j] == x[j] for j in slots)
            elif tag == "ZeroInput":
                ok &= not any(x[j] for j in slots)
        count += ok
    e = 0
    while count > 1:
        assert count % f.q == 0
        count //= f.q
        e += 1
    return e


def compose(f: PointMap, g: PointMap) -> list[int]:
    """Table of f followed by g (matching x -> (x A) B)."""
    return [g.table[t] for t in f.table]


def direct_sum_table(f: PointMap, g: PointMap) -> list[int]:
    """Table of a direct sum: Cartesian product on the little-endian index
    set, first summand in the low digits."""
    block = f.q ** f.n
    return [f.table[i] + g.table[j] * block
            for j in range(g.q ** g.n) for i in range(block)]


def propagate_configuration(brick, spec, order, x: list[int]) -> list[int]:
    """Run the local dynamics: lines carry values, each vertex applies the
    brick map to the values of the d lines through it, in assembly order."""
    field = brick.ring
    state = list(x)
    for v in order:
        idx = affected_indices(spec, v)
        local = [state[g] for g in idx]
        new = [field.zero] * len(local)
        for a in range(len(local)):
            for b in range(len(local)):
                new[b] = field.add(new[b], field.mul(local[a], brick.matrix[a, b]))
        for g, val in zip(idx, new):
            state[g] = val
    return state


def _random_block(case, seed):
    p, m, thin, edge = case
    f = FiniteField(p, m)
    rng = random.Random(seed)
    spec = LatticeSpec(len(thin), l=edge, thin_dims=thin)
    random_brick(f, len(thin), thin, rng)  # keeps the seeded draws of r
    n = spec.dimension
    r = RingMatrix(f, n, n, [f.sample(rng) for _ in range(n * n)])
    return r, spec


# ----------------------------------------------------------------------
# the builder against the per-point references
# ----------------------------------------------------------------------

@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_materialize_map_matches_per_point(case, monkeypatch):
    r, _ = _random_block(case, 11)
    want = per_point_table(r)
    assert materialize_map(r).table == want
    # low digit in one chunk, q^(N-1) >= 3 chunks over the top digits
    monkeypatch.setattr(pointmap, "CHUNK_ROWS", r.ring.q)
    assert pointmap._low_digits(r.ring.q, r.rows) == 1
    assert materialize_map(r).table == want


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_census_matches_per_point(case, monkeypatch):
    r, spec = _random_block(case, 12)
    q, n = r.ring.q, r.rows
    table = per_point_table(r)
    d = len(case[2])
    # the last axis owns the top digit, so the chunked pass sees
    # Periodic and ZeroInput columns there
    assert n - 1 in spec.block_range(d - 1)
    for tags in itertools.product(TAGS, repeat=d):
        want = per_point_census(r, spec, tags, table)
        bcs = BoundaryConditions(tags)
        assert brute_force_census(r, spec, bcs).e == want, tags
        monkeypatch.setattr(pointmap, "CHUNK_ROWS", q ** (n - 2))
        assert q ** (n - pointmap._low_digits(q, n)) >= 3
        assert brute_force_census(r, spec, bcs).e == want, tags
        monkeypatch.undo()


def test_census_digit_sums_do_not_wrap():
    # over GF(89) a point's image digit sums up to 3 * 88 > 255 before its
    # reduction; R = 1 + u v with dense u, v fixes the q^2 points x with
    # x u = 0, and a wrapped sum would lose some of them
    f = FiniteField(89)
    rng = random.Random(14)
    u = [rng.randrange(1, 89) for _ in range(3)]
    v = [rng.randrange(1, 89) for _ in range(3)]
    r = RingMatrix(f, 3, 3, [(int(i == j) + u[i] * v[j]) % 89
                             for i in range(3) for j in range(3)])
    assert brute_force_census(r, LatticeSpec(3, l=1), BoundaryConditions.toric(3)).e == 2


def test_oracle_does_not_touch_fieldmat(monkeypatch):
    blocks = [_random_block(case, 13) for case in CASES]

    def fail(*args, **kwargs):
        raise AssertionError("fieldmat reached from the oracle")
    for name in dir(fieldmat):
        if callable(getattr(fieldmat, name)) and not name.startswith("__"):
            monkeypatch.setattr(fieldmat, name, fail)
    for r, spec in blocks:
        materialize_map(r)
        brute_force_census(r, spec, BoundaryConditions(("Periodic",) * spec.d))


# ----------------------------------------------------------------------
# operator laws and local dynamics
# ----------------------------------------------------------------------

def test_point_vector_roundtrip():
    for f in (F2, F3, FiniteField(2, 2)):
        for idx in range(min(f.q ** 3, 64)):
            v = point_to_vector(f, idx, 3)
            assert vector_to_point(f, v) == idx


def test_operator_laws_hold_for_invertible_maps():
    # identity -> identity map, product -> composition, direct sum ->
    # product map
    rng = random.Random(1)
    for f in (F2, F3):
        mats = []
        for n in (2, 3):
            while True:
                m = RingMatrix(f, n, n, [f.sample(rng) for _ in range(n * n)])
                if rank(m) == n:
                    break
            mats.append(m)
        ident = materialize_map(RingMatrix.identity(f, 3)).table
        assert ident == list(range(f.q ** 3))
        for a in mats:
            for b in mats:
                maps = materialize_map(a), materialize_map(b)
                if a.rows == b.rows:
                    assert materialize_map(a @ b).table == compose(*maps)
                assert materialize_map(direct_sum([a, b])).table \
                    == direct_sum_table(*maps)


def test_image_size_of_singular_map():
    m = RingMatrix.from_rows(F2, [[1, 1], [1, 1]])
    assert len(set(materialize_map(m).table)) == 2


def test_map_guard():
    f = FiniteField(2, 8)
    big = RingMatrix.identity(f, 4)
    with pytest.raises(ResourceLimitError):
        materialize_map(big, guard=100)


def test_brute_force_census_is_q_power():
    rng = random.Random(3)
    brick = random_brick(F3, 2, (1, 1), rng)
    spec = LatticeSpec(2, l=2)
    blk = fieldmat.from_array(brick.ring, assemble_block(brick, spec))
    for tags in itertools.product(TAGS, repeat=2):
        cc = brute_force_census(blk, spec, BoundaryConditions(tags))
        assert cc.q == 3
        assert cc == count_configs(blk, spec, BoundaryConditions(tags))


def test_interior_determinism():
    # stepping the local dynamics vertex by vertex equals applying the
    # assembled block to the input row vector
    rng = random.Random(5)
    for d, l in ((2, 2), (3, 2), (2, 3)):
        brick = random_brick(F2, d, (1,) * d, rng)
        spec = LatticeSpec(d, l=l)
        blk = fieldmat.from_array(brick.ring, assemble_block(brick, spec))
        order = layered_order(spec)
        n = blk.rows
        for idx in range(2 ** n):
            x = point_to_vector(F2, idx, n)
            assert propagate_configuration(brick, spec, order, x) \
                == row_vec_mul(x, blk)
