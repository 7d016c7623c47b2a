"""Acceptance suite: every headline claim, one printed pass/fail line each.

Each test re-derives the claim from scratch at the stated size and time
budget; everything here is an exact algebraic identity or an integer
count, so there are no tolerances anywhere.
"""

import itertools
import random
import time

import numpy as np
import pytest

from cubeblocks import decomp3d as D
from cubeblocks import fieldmat
from cubeblocks import dim4 as X
from cubeblocks.census import BoundaryConditions, count_configs
from cubeblocks.errors import SingularMatrixError
from cubeblocks.fields import FiniteField
from cubeblocks.lattice import BrickSpec, LatticeSpec, assemble_block
from cubeblocks.matrices import RingMatrix, charpoly, mat_det, rank
from cubeblocks.pointmap import brute_force_census
from reference import (
    circulant_det_charp, gauge_conjugate, random_brick, random_linear_extension,
    row_major_assemble, symmetrize_brick,
)

F2 = FiniteField(2)
F4 = FiniteField(2, 2)
F256 = FiniteField(2, 8)
TAGS = ("Periodic", "ZeroInput", "Free")


_CAPSYS = None


@pytest.fixture(autouse=True)
def _expose_capsys(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(num: int, name: str, ok: bool, t0: float) -> None:
    line = (f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} "
            f"{name} ({time.time() - t0:.1f}s)")
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


# ----------------------------------------------------------------------
# 1. the 2x2 block over the integers, entry for entry
# ----------------------------------------------------------------------

def test_criterion_01_integer_block_exact():
    t0 = time.time()
    rep = D.verify_decomposition_2d("symbolic")
    ok = rep.verdict.ok and time.time() - t0 < 1.0
    _report(1, "2x2 block matches the integer closed form", ok, t0)
    assert ok


# ----------------------------------------------------------------------
# 2. 2x2 split: symbolic conjugation plus a sampled two-step evolution
# ----------------------------------------------------------------------

def test_criterion_02_planar_split_and_evolution():
    t0 = time.time()
    rep = D.verify_decomposition_2d("symbolic")
    census = D.evolution_census_closed_form("2d", 2)
    detect = D.detect_evolution_summands("2d", 2, seed=0)
    ok = (rep.verdict.ok and census.counts == (4,) and detect.ok
          and detect.details.get("counts") == [4]
          and time.time() - t0 < 5.0)
    _report(2, "planar split symbolically, 4 fourth-power copies at n=2",
            ok, t0)
    assert ok


# ----------------------------------------------------------------------
# 3. cube block structure in characteristic 2, fully symbolic
# ----------------------------------------------------------------------

def test_criterion_03_block_structure_char2_symbolic():
    t0 = time.time()
    scalar = D.verify_scalar_structure(2)
    spectrum = D.verify_triple_product_spectrum(2)
    ok = (scalar.ok and scalar.log2_failure_bound is None
          and spectrum.ok and spectrum.log2_failure_bound is None
          and spectrum.details["multiplicities"] == [1, 3]
          and time.time() - t0 < 10.0)
    _report(3, "scalar diagonals, commuting pairs, spectrum (1,3) at p=2",
            ok, t0)
    assert ok


# ----------------------------------------------------------------------
# 4. block structure at p = 3, 5, 7 by randomized identity testing
# ----------------------------------------------------------------------

@pytest.mark.parametrize("p,mults", [(3, [3, 6]), (5, [10, 15]), (7, [21, 28])])
def test_criterion_04_block_structure_odd_p(p, mults):
    t0 = time.time()
    scalar = D.verify_scalar_structure(p, trials=32, seed=0)
    spectrum = D.verify_triple_product_spectrum(p, trials=32, seed=0)
    ok = (scalar.ok and spectrum.ok
          and scalar.log2_failure_bound <= -100
          and spectrum.log2_failure_bound <= -100
          and spectrum.details["multiplicities"] == mults)
    if p == 7:
        ok = ok and time.time() - t0 < 300.0
    _report(4, f"p={p}: 32 trials over GF({p}^16), multiplicities {mults}",
            ok, t0)
    assert ok


# ----------------------------------------------------------------------
# 5. cube conjugation identity and thick determinants, symbolic
# ----------------------------------------------------------------------

def test_criterion_05_cube_conjugation_symbolic():
    t0 = time.time()
    rep = D.verify_decomposition_3d("symbolic")
    ring, a = D.generic_brick_ring()
    basis = D.thick_basis_matrices(ring, D.thick_basis_rows(ring, a))
    pos = ring.mul(ring.mul(a[0][1], a[1][2]), a[2][0])
    neg = ring.mul(ring.mul(a[0][2], a[2][1]), a[1][0])
    want = ring.mul(ring.add(pos, neg), ring.add(pos, neg))
    # each basis matrix is 4x4 over F2[a11..a33], so its determinant is
    # the constant term of its (division-free) characteristic polynomial
    dets_ok = all(charpoly(m)[0] == want for m in basis)
    ok = rep.verdict.ok and dets_ok and time.time() - t0 < 60.0
    _report(5, "cube conjugation and thick determinants over F2[a11..a33]",
            ok, t0)
    assert ok


# ----------------------------------------------------------------------
# 6. symmetric bricks: symmetrization, conjugations, counting
# ----------------------------------------------------------------------

def test_criterion_06_symmetric_case():
    t0 = time.time()
    rng = random.Random(0)
    sym_ok = True
    produced = 0
    while produced < 100:
        a11, a12, a22, a23, a33, a21, a32, a31 = (
            F256.sample_nonzero(rng) for _ in range(8))
        a13 = F256.div(F256.mul(F256.mul(a12, a23), a31), F256.mul(a32, a21))
        if a13 == F256.zero:
            continue
        m = RingMatrix.from_rows(
            F256, [[a11, a12, a13], [a21, a22, a23], [a31, a32, a33]])
        _, sym = symmetrize_brick(F256, m)
        sym_ok &= all(sym[i, j] == sym[j, i] for i in range(3) for j in range(3))
        produced += 1
    simple = D.verify_symmetric_decomposition("simple")
    double = D.verify_symmetric_decomposition("double")
    counts_ok = True
    for n in range(11):
        c = D.evolution_census_closed_form("3d-symmetric", n).counts
        counts_ok &= (c == (2 ** (2 * n - 1), 2 ** (2 * n - 2)) if n >= 1
                      else c == (1, 0))
    ok = (sym_ok and simple.verdict.ok and double.verdict.ok
          and double.summands == [("SimpleSymmetric", 4), ("DoubleBrick", 2)]
          and counts_ok)
    _report(6, "100 symmetrizations, symbolic conjugations, counts to n=10",
            ok, t0)
    assert ok


# ----------------------------------------------------------------------
# 7. censuses against the brute-force oracle
# ----------------------------------------------------------------------

def test_criterion_07_census_oracle():
    t0 = time.time()
    rng = random.Random(1)
    shapes = [(2, 2), (2, 3), (3, 2)]
    ok = True
    for trial in range(51):
        d, l = shapes[trial % len(shapes)]
        brick = random_brick(F2, d, (1,) * d, rng)
        spec = LatticeSpec(d, l=l)
        blk = fieldmat.from_array(brick.ring, assemble_block(brick, spec))
        assert blk.rows <= 22
        for tags in itertools.product(TAGS, repeat=d):
            bcs = BoundaryConditions(tags)
            ok &= brute_force_census(blk, spec, bcs) \
                == count_configs(blk, spec, bcs)
    _report(7, "51 bricks, every boundary mix, vs exhaustive enumeration",
            ok, t0)
    assert ok


# ----------------------------------------------------------------------
# 8. census exponents under block-diagonal gauges
# ----------------------------------------------------------------------

def test_criterion_08_gauge_invariance():
    t0 = time.time()
    rng = random.Random(2)
    instances = [
        random_brick(F4, 2, (1, 1), rng),
        random_brick(F4, 3, (1, 1, 1), rng),
        random_brick(F2, 2, (2, 2), rng),
    ]
    ok = True
    for brick in instances:
        spec = LatticeSpec(brick.d, 2, brick.thin_dims)
        blk = fieldmat.from_array(brick.ring, assemble_block(brick, spec))
        field = brick.ring
        base = {tags: count_configs(blk, spec, BoundaryConditions(tags))
                for tags in itertools.product(TAGS, repeat=brick.d)}
        for _ in range(20):
            gs = []
            for size in spec.dims:
                while True:
                    g = RingMatrix(field, size, size,
                                   [field.sample(rng) for _ in range(size * size)])
                    if rank(g) == size:
                        break
                gs.append(g)
            conj = gauge_conjugate(blk, gs)
            for tags, want in base.items():
                ok &= count_configs(conj, spec, BoundaryConditions(tags)) == want
    _report(8, "census exponents fixed under 20 gauges per instance", ok, t0)
    assert ok


# ----------------------------------------------------------------------
# 9. assembly independent of the chosen linear extension
# ----------------------------------------------------------------------

def test_criterion_09_linear_extension_independence():
    t0 = time.time()
    rng = random.Random(3)
    ok = True
    for field in (F2, F4):
        for d in (2, 3):
            for l in (2, 3):
                brick = random_brick(field, d, (1,) * d, rng)
                spec = LatticeSpec(d, l=l)
                base = assemble_block(brick, spec)
                for _ in range(20):
                    order = random_linear_extension(spec, rng)
                    ok &= np.array_equal(base, row_major_assemble(brick, spec, order))
    _report(9, "the layered block equals the reference kernel in 20 random "
               "linear extensions per instance", ok, t0)
    assert ok


# ----------------------------------------------------------------------
# 10. chain folding along the fourth axis
# ----------------------------------------------------------------------

def test_criterion_10_chain_folding():
    t0 = time.time()
    rng = random.Random(4)
    ok = True
    # closed form of the folded entries at b44 = 0
    while True:
        vals = [[F256.sample(rng) for _ in range(4)] for _ in range(4)]
        vals[3][3] = F256.zero
        if all(vals[i][j] for i in range(3) for j in range(3)):
            break
    brick = BrickSpec(4, (1, 1, 1, 1), RingMatrix.from_rows(F256, vals))
    for case in X.CASES:
        red = X.reduce_chain_4d(brick, 3, case)
        for i in range(3):
            for j in range(3):
                c = F256.mul(vals[i][3], vals[3][j])
                want = RingMatrix.zeros(F256, 3, 3)
                for k in range(3):
                    want[k, k] = vals[i][j]
                    if k < 2:
                        want[k, k + 1] = c
                if case == "Periodic4":
                    want[2, 0] = c
                ok &= red.ring.matrix(red.matrix[i, j]) == want
    # commutativity and structure tags for longer chains: circulant when
    # periodic, upper triangular Toeplitz for the zero-input chain
    for l in (2, 3, 4):
        while True:
            b = random_brick(F256, 4, (1, 1, 1, 1), rng)
            if F256.pow(b.matrix[3, 3], l) != F256.one:
                break
        for case in X.CASES:
            red = X.reduce_chain_4d(b, l, case)
            mats = [red.ring.matrix(x) for x in red.matrix.data]
            for m in mats:
                for i in range(l):
                    for j in range(l):
                        if case == "Periodic4":
                            ok &= m[i, j] == m[0, (j - i) % l]
                        else:
                            ok &= m[i, j] == (m[0, j - i] if j >= i else F256.zero)
            ok &= all(x @ y == y @ x for x in mats for y in mats)
    # circulant determinant closed form
    for field, sizes in ((F256, (2, 4, 8)), (FiniteField(3, 4), (3, 9))):
        for size in sizes:
            row = [field.sample(rng) for _ in range(size)]
            m = RingMatrix.from_rows(field, [[row[(j - i) % size]
                                              for j in range(size)]
                                             for i in range(size)])
            ok &= circulant_det_charp(field, row, size) == mat_det(m)
    _report(10, "folded entries, commutativity, circulant determinants",
            ok, t0)
    assert ok


# ----------------------------------------------------------------------
# 11. hypercube stratification with the independent 4D cross-check
# ----------------------------------------------------------------------

def test_criterion_11_stratification():
    t0 = time.time()
    rng = random.Random(5)
    ok = True
    done = {case: 0 for case in X.CASES}
    while min(done.values()) < 10:
        vals = [[F256.sample(rng) for _ in range(4)] for _ in range(4)]
        vals[3][3] = F256.zero
        brick = BrickSpec(4, (1, 1, 1, 1), RingMatrix.from_rows(F256, vals))
        for case in X.CASES:
            if done[case] >= 10:
                continue
            try:
                if not X.nondegeneracy_4d(brick, X.reduce_chain_4d(brick, 2, case)):
                    continue
            except SingularMatrixError:
                continue
            rep = X.verify_stratification(brick, 1, case)
            ok &= rep.verdict.ok
            cross = X.cross_check_4d(brick, case, BoundaryConditions.toric(3))
            ok &= cross.ok
            done[case] += 1
    ok &= time.time() - t0 < 120.0
    _report(11, "10 bricks per case: layer split plus genuine 4D census",
            ok, t0)
    assert ok


# ----------------------------------------------------------------------
# 12. everything above is exact
# ----------------------------------------------------------------------

def test_criterion_12_no_tolerances():
    t0 = time.time()
    # every check in this file is an equality of ring elements, integer
    # exponents, or integer counts; no tolerance parameter exists in the
    # package API
    import cubeblocks.census
    import cubeblocks.identity
    ok = not any(hasattr(mod, name)
                 for mod in (cubeblocks.census, cubeblocks.identity)
                 for name in ("atol", "rtol", "TOLERANCE"))
    _report(12, "all acceptance checks are exact identities or counts", ok, t0)
    assert ok
