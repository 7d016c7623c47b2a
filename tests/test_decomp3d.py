import random
import tracemalloc

import numpy as np
import pytest

from cubeblocks import decomp3d as D
from cubeblocks import fieldmat, lattice, matrices
from cubeblocks.errors import InputError
from cubeblocks.fieldmat import scalar_of
from cubeblocks.fields import FiniteField
from cubeblocks.lattice import BrickSpec, assemble_block, evolve
from cubeblocks.matrices import RingMatrix, mat_det, mat_inverse
from reference import (
    perturb_cube, resolve_line_ordering, scalar_failure_two_products,
    spectrum_failure_full_charpoly, spectrum_failure_two_ranks, symmetrize_brick,
)


# ----------------------------------------------------------------------
# line ordering
# ----------------------------------------------------------------------

def test_resolved_ordering_regenerates():
    assert resolve_line_ordering() == D.RESOLVED_LINE_ORDERING


# ----------------------------------------------------------------------
# 2x2 block
# ----------------------------------------------------------------------

def test_2d_symbolic():
    rep = D.verify_decomposition_2d("symbolic")
    assert rep.verdict.ok and rep.summands == [("Brick", 2)]


def test_2d_sampled_and_degenerate():
    rep = D.verify_decomposition_2d("sampled", seed=1)
    assert rep.verdict.ok
    # the split needs nonzero off-diagonal entries, and the sampler never
    # draws a brick without them
    f = FiniteField(2, 4)
    rng = random.Random(1)
    for _ in range(200):
        (_, a12), (a21, _) = D.sample_brick("2d", f, rng)
        assert a12 != f.zero and a21 != f.zero


# ----------------------------------------------------------------------
# cube block, generic brick
# ----------------------------------------------------------------------

def test_cube_symbolic():
    rep = D.verify_decomposition_3d("symbolic")
    assert rep.verdict.ok
    assert rep.summands == [("TransposedBrick", 1), ("Brick", 3)]
    assert rep.frobenius_power == 2


def test_cube_sampled():
    rep = D.verify_decomposition_3d("sampled", seed=2)
    assert rep.verdict.ok and rep.details["basis_dets_nonzero"]


def test_cube_sampled_redraws_equal_triple_products():
    # the first brick drawn at seed 2263 has a12 a23 a31 = a13 a32 a21
    f = FiniteField(2, D.SAMPLE_DEGREE)
    rng = random.Random(2263)
    first = [[f.sample_nonzero(rng) for _ in range(3)] for _ in range(3)]
    assert D.mixed_product_difference(f, first) == f.zero
    a = D.sample_brick("3d-generic", f, random.Random(2263))
    assert a != first and D.mixed_product_difference(f, a) != f.zero


def test_cube_singular_thick_basis_is_falsified(monkeypatch):
    monkeypatch.setattr(D, "mat_det", lambda m: m.ring.zero)
    rep = D.verify_decomposition_3d("sampled", seed=2)
    assert rep.to_json()["verdict"] == "falsified"
    assert rep.verdict.witness == {"failed": "singular thick basis", "mode": "sampled"}


def test_sample_brick_cases():
    f = FiniteField(2, 4)
    rng = random.Random(3)
    for _ in range(50):
        a = D.sample_brick("3d-generic", f, rng)
        assert D.mixed_product_difference(f, a) != f.zero
        a = D.sample_brick("3d-symmetric", f, rng)
        assert all(a[i][j] == a[j][i] != f.zero for i in range(3) for j in range(3))
    with pytest.raises(InputError):
        D.sample_brick("4d", f, rng)


def test_thick_basis_determinants_sampled():
    f = FiniteField(2, 16)
    rng = random.Random(4)
    a = [[f.sample_nonzero(rng) for _ in range(3)] for _ in range(3)]
    basis = D.thick_basis_matrices(f, D.thick_basis_rows(f, a))
    pos = f.mul(f.mul(a[0][1], a[1][2]), a[2][0])
    neg = f.mul(f.mul(a[0][2], a[2][1]), a[1][0])
    want = f.pow(f.add(pos, neg), 2)
    for m in basis:
        assert mat_det(m) == want


# ----------------------------------------------------------------------
# conjugation failures
# ----------------------------------------------------------------------

def test_cube_check_builds_thick_basis_rows_once(monkeypatch):
    # the conjugation and the sampled determinants share one build
    rows, calls = D.thick_basis_rows, []

    def counting(ring, a):
        calls.append(None)
        return rows(ring, a)

    monkeypatch.setattr(D, "thick_basis_rows", counting)
    assert D.verify_decomposition_3d("sampled", seed=3).verdict.ok
    assert len(calls) == 1


@pytest.mark.parametrize("mode", ["symbolic", "sampled"])
def test_cube_conjugation_failure_witness(mode, monkeypatch):
    perturb_cube(monkeypatch)
    rep = D.verify_decomposition_3d(mode, seed=2)
    assert not rep.verdict.ok
    assert rep.verdict.witness == {"entry": [8, 7], "mode": mode}


@pytest.mark.parametrize("mode", ["symbolic", "sampled"])
def test_symmetric_conjugation_failure_witness(mode, monkeypatch):
    perturb_cube(monkeypatch)
    rep = D.verify_symmetric_decomposition("simple", mode=mode, seed=8)
    assert not rep.verdict.ok
    assert rep.verdict.witness == {"entry": [8, 7], "level": "simple", "mode": mode}


# ----------------------------------------------------------------------
# block structure for general characteristic
# ----------------------------------------------------------------------

def test_scalar_structure_char2_symbolic():
    v = D.verify_scalar_structure(2)
    assert v.ok and v.details["mode"] == "symbolic"


def test_scalar_structure_sampled_p3():
    v = D.verify_scalar_structure(3, trials=4, seed=5)
    assert v.ok
    assert v.details["scalar_exponent"] == [3]


def test_spectrum_char2_symbolic():
    v = D.verify_triple_product_spectrum(2)
    assert v.ok and v.details["multiplicities"] == [1, 3]


def test_spectrum_sampled_p3():
    v = D.verify_triple_product_spectrum(3, trials=4, seed=5)
    assert v.ok and v.details["multiplicities"] == [3, 6]
    assert v.log2_failure_bound < 0


@pytest.mark.parametrize("swapped", [False, True], ids=["M", "swapped-M"])
def test_symbolic_spectrum_shortcut_matches_full_charpoly(swapped):
    # the swapped operator (lam1 + lam2) I - M satisfies the same quadratic
    # annihilator but has multiplicities (3, 1), so only the determinant,
    # or the whole characteristic polynomial, can reject it
    ring, a = D.generic_brick_ring()
    sub = D._cube_sub(D.assemble_cube(ring, a, 2), 4)
    m_op = sub(0, 1) @ sub(1, 2) @ sub(2, 0)
    want = None
    if swapped:
        sq = lambda x: ring.mul(x, x)
        lam1 = sq(ring.mul(ring.mul(a[0][2], a[2][1]), a[1][0]))
        lam2 = sq(ring.mul(ring.mul(a[0][1], a[1][2]), a[2][0]))
        m_op = RingMatrix.scalar(ring, 4, ring.add(lam1, lam2)) - m_op
        want = {"failed": "characteristic polynomial"}
    eye = RingMatrix.identity(ring, 4)
    blocks = {(0, 1): m_op, (1, 2): eye, (2, 0): eye}
    crafted = lambda i, j: blocks[i, j]
    assert D._spectrum_failure_symbolic(ring, a, crafted) == want
    assert spectrum_failure_full_charpoly(ring, a, crafted) == want


def test_b3_bounds_use_each_claims_degree():
    # scalar checks are quadratic in the block entries (degree 2p^3); the
    # spectrum claim's largest test is a (p(p+1)/2 + 1)-minor of M - lam,
    # M = R12 R23 R31 having degree 3p^3
    from cubeblocks.identity import failure_bound_log2
    scalar = D.verify_scalar_structure(3, trials=4, seed=5)
    spectrum = D.verify_triple_product_spectrum(3, trials=4, seed=5)
    assert scalar.details["degree_bound"] == 2 * 27
    assert spectrum.details["degree_bound"] == (6 + 1) * 3 * 27
    for v in (scalar, spectrum):
        assert v.log2_failure_bound == failure_bound_log2(
            v.details["degree_bound"], 3 ** 16, 4)
    # the default 4 trials at p = 11 still bound failure below 2^-100
    assert failure_bound_log2(D._b3_degrees(11)[1], 11 ** 16, 4) <= -100


def test_b3_claims_share_one_assembly_per_trial(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return assemble_block(*args, **kwargs)

    monkeypatch.setattr(D, "assemble_block", counting)
    D._b3_pass.cache_clear()
    assert D.verify_scalar_structure(3, trials=3, seed=1).ok
    assert D.verify_triple_product_spectrum(3, trials=3, seed=1).ok
    assert len(calls) == 3


def test_b3_scalar_failure_leaves_spectrum_checked(monkeypatch):
    calls = []

    def failing_fourth(field, arr):
        calls.append(None)
        return None if len(calls) == 4 else scalar_of(field, arr)

    monkeypatch.setattr(fieldmat, "scalar_of", failing_fourth)
    D._b3_pass.cache_clear()
    scalar = D.verify_scalar_structure(3, trials=3, seed=1)
    spectrum = D.verify_triple_product_spectrum(3, trials=3, seed=1)
    D._b3_pass.cache_clear()
    assert not scalar.ok
    assert scalar.witness == {"trial": 1, "pair": [0, 1], "failed": "scalar"}
    assert len(calls) == 4
    assert spectrum.ok and spectrum.details["trials"] == 3
    assert spectrum.details["multiplicities"] == [3, 6]


# The sampled checks skip work that identities already checked imply: the
# reverse pair product when the forward one is a nonzero scalar, and the
# rank of M - lam1 once (M - lam1)(M - lam2) = 0 holds.  Each must agree
# with the reference that computes everything, witness for witness.

def _both_checks(field, p, a, blocks, n):
    got, want = set(), set()
    scalar = (D._scalar_failure_sampled(field, p, 0, a, blocks, n, got),
              scalar_failure_two_products(field, p, 0, a, blocks, n, want))
    spectrum = (D._spectrum_failure_sampled(field, p, 0, a, blocks, n),
                spectrum_failure_two_ranks(field, p, 0, a, blocks, n))
    assert scalar[0] == scalar[1] and got == want
    assert spectrum[0] == spectrum[1]
    return scalar[0], spectrum[0]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_b3_shortcuts_match_reference_on_random_trials(p):
    field, rng = FiniteField(p, D.SAMPLE_DEGREE), random.Random(p)
    for _ in range(2):
        a, blocks, n = D._sampled_cube_arrays(field, rng)
        assert _both_checks(field, p, a, blocks, n) == (None, None)


_F = FiniteField(3, 4)


def _diag(values):
    n = len(values)
    return fieldmat.to_array(_F, RingMatrix.from_rows(
        _F, [[values[i] if i == j else _F.zero for j in range(n)] for i in range(n)]))


def _unit(n, *cells):
    rows = [[_F.zero] * n for _ in range(n)]
    for i, j in cells:
        rows[i][j] = _F.one
    return fieldmat.to_array(_F, RingMatrix.from_rows(_F, rows))


def _crafted_brick(rng, equal_lambdas=False):
    """A brick over GF(3^4) and its two eigenvalues (a13 a32 a21)^3 and
    (a12 a23 a31)^3, equal or not as asked."""
    while True:
        a = [[_F.sample_nonzero(rng) for _ in range(3)] for _ in range(3)]
        if equal_lambdas:
            a[0][1] = _F.div(_F.mul(_F.mul(a[0][2], a[2][1]), a[1][0]),
                             _F.mul(a[1][2], a[2][0]))
        lam1 = _F.pow(_F.mul(_F.mul(a[0][2], a[2][1]), a[1][0]), 3)
        lam2 = _F.pow(_F.mul(_F.mul(a[0][1], a[1][2]), a[2][0]), 3)
        if (lam1 == lam2) == equal_lambdas:
            return a, lam1, lam2


def _spectrum_blocks(m_arr):
    eye = fieldmat.eye(_F, 9)
    return {(0, 1): m_arr, (1, 2): eye, (2, 0): eye}


@pytest.mark.parametrize("case", ["expected", "equal", "wrong", "identity-fails"])
def test_spectrum_shortcut_matches_reference_on_crafted_blocks(case):
    rng = random.Random(4)
    a, lam1, lam2 = _crafted_brick(rng, equal_lambdas=case == "equal")
    if case == "expected":
        # lam1 three times and lam2 six times, in a random basis
        p_mat = RingMatrix.from_rows(_F, [[_F.sample(rng) for _ in range(9)]
                                          for _ in range(9)])
        while mat_det(p_mat) == _F.zero:
            p_mat = RingMatrix.from_rows(_F, [[_F.sample(rng) for _ in range(9)]
                                              for _ in range(9)])
        m_arr = fieldmat.matmul(_F, fieldmat.matmul(
            _F, fieldmat.to_array(_F, p_mat), _diag([lam1] * 3 + [lam2] * 6)),
            fieldmat.to_array(_F, mat_inverse(p_mat)))
        want = None
    elif case == "equal":
        # M = lam + N with N^2 = 0: the annihilator holds, ranks (1, 1)
        m_arr = fieldmat.sub(_F, _diag([lam1] * 9), _unit(9, (0, 1)))
        want = {"trial": 0, "failed": "multiplicities",
                "observed": [1, 1], "expected": [3, 6]}
    elif case == "wrong":
        m_arr = _diag([lam1] * 4 + [lam2] * 5)
        want = {"trial": 0, "failed": "multiplicities",
                "observed": [4, 5], "expected": [3, 6]}
    else:
        m_arr = _diag([lam1] * 3 + [lam2] * 5 + [_F.zero])
        want = {"trial": 0, "failed": "minimal polynomial"}
    blocks = _spectrum_blocks(m_arr)
    assert D._spectrum_failure_sampled(_F, 3, 0, a, blocks, 9) == want
    assert spectrum_failure_two_ranks(_F, 3, 0, a, blocks, 9) == want


@pytest.mark.parametrize("case", ["commutation", "scalar", "exponent-zero",
                                  "exponent-nonzero", "passes"])
def test_scalar_shortcut_matches_reference_on_crafted_blocks(case):
    rng = random.Random(5)
    a, _, _ = _crafted_brick(rng)
    blocks = {(i, i): fieldmat.scalar_matrix(_F, 9, _F.pow(a[i][i], 3)) for i in range(3)}
    powers = {}
    for k, l in ((0, 1), (0, 2), (1, 2)):
        base = _F.mul(a[k][l], a[l][k])
        powers[k, l] = [_F.pow(base, t) for t in range(1, 7)]
        # X Y = Y X = base^3 I, with X = a_kl I
        blocks[k, l] = fieldmat.scalar_matrix(_F, 9, a[k][l])
        blocks[l, k] = fieldmat.scalar_matrix(_F, 9, _F.div(powers[k, l][2], a[k][l]))
    want = {"trial": 0, "pair": [0, 1], "failed": case.split("-")[0]}
    if case == "commutation":
        # X Y = 0, Y X = E_01
        blocks[0, 1], blocks[1, 0] = _unit(9, (0, 1)), _unit(9, (0, 0))
    elif case == "scalar":
        blocks[0, 1] = blocks[1, 0] = _diag([_F.one] + [_F.zero] * 8)
    elif case == "exponent-zero":
        blocks[0, 1] = blocks[1, 0] = _unit(9, (0, 1))
    elif case == "exponent-nonzero":
        # a nonzero scalar that is no power base^t, t in 1..6
        c = next(x for x in range(1, _F.q) if x not in powers[0, 1])
        blocks[0, 1], blocks[1, 0] = fieldmat.eye(_F, 9), fieldmat.scalar_matrix(_F, 9, c)
    else:
        want = None
    got, ref = set(), set()
    assert D._scalar_failure_sampled(_F, 3, 0, a, blocks, 9, got) == want
    assert scalar_failure_two_products(_F, 3, 0, a, blocks, 9, ref) == want
    assert got == ref == ({3} if want is None else set())


def test_b3_trial_takes_one_rank_and_six_products(monkeypatch):
    counts = {"rank": 0, "matmul": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in counts:
        monkeypatch.setattr(fieldmat, name, counting(name, getattr(fieldmat, name)))
    D._b3_pass.cache_clear()
    scalar, spectrum = D._b3_pass(5, 3, 2)
    D._b3_pass.cache_clear()
    assert scalar.ok and spectrum.ok
    assert counts == {"rank": 3, "matmul": 18}


def test_b3_trial_at_p7_stays_in_its_memory_budget():
    # coefficient arrays at p = 7 are int8: one p = 7 trial peaks at about
    # 3.6 MiB of traced allocations, against 6.6 MiB when they were int64
    field = FiniteField(7, D.SAMPLE_DEGREE)
    _, blocks, _ = D._sampled_cube_arrays(field, random.Random(1))
    assert all(blk.dtype == np.int8 for blk in blocks.values())
    D._b3_pass.cache_clear()
    D._b3_pass(3, 1, 0)  # warm-up: the lazy imports and per-field caches
    tracemalloc.start()
    try:
        scalar, spectrum = D._b3_pass(7, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        D._b3_pass.cache_clear()
    assert scalar.ok and spectrum.ok
    assert peak < 4.5 * 2 ** 20


@pytest.mark.parametrize("entry,pair", [
    ((1, 5), [0, 1]), ((5, 1), [0, 1]), ((1, 9), [0, 2]),
    ((9, 1), [0, 2]), ((5, 9), [1, 2]), ((9, 7), [1, 2])])
def test_symbolic_scalar_check_fails_on_a_perturbed_entry(entry, pair, monkeypatch):
    # p = 2 forms only R_kl R_lk; a perturbed entry of either factor shows
    perturb_cube(monkeypatch, entry=entry)
    D._b3_pass.cache_clear()
    scalar = D.verify_scalar_structure(2)
    D._b3_pass.cache_clear()
    assert not scalar.ok and scalar.witness == {"pair": pair}


# ----------------------------------------------------------------------
# symmetric bricks
# ----------------------------------------------------------------------

def _symmetrizable_brick(f, rng):
    while True:
        a11, a12, a22, a23, a33, a21, a32, a31 = (
            f.sample_nonzero(rng) for _ in range(8))
        a13 = f.div(f.mul(f.mul(a12, a23), a31), f.mul(a32, a21))
        if a13 != f.zero:
            return RingMatrix.from_rows(
                f, [[a11, a12, a13], [a21, a22, a23], [a31, a32, a33]])


def test_symmetrize_brick():
    f = FiniteField(2, 8)
    rng = random.Random(6)
    for _ in range(10):
        m = _symmetrizable_brick(f, rng)
        g, sym = symmetrize_brick(f, m)
        assert g[0] == f.one
        for i in range(3):
            for j in range(3):
                assert sym[i, j] == sym[j, i]


def test_symmetrize_rejects_generic_brick():
    f = FiniteField(2, 8)
    a = D.sample_brick("3d-generic", f, random.Random(7))
    with pytest.raises(InputError):
        symmetrize_brick(f, RingMatrix.from_rows(f, a))


def test_distinguished_vector_recomputation():
    rep = D.g3_typo_report()
    assert rep["printed_identical"]
    assert rep["g2_matches_printed"]
    assert not rep["g3_matches_printed"]
    assert rep["typo_confirmed"]


def test_symmetric_simple_symbolic():
    rep = D.verify_symmetric_decomposition("simple")
    assert rep.verdict.ok
    assert rep.summands == [("SimpleSymmetric", 2), ("DoubleBrick", 1)]


def test_symmetric_double_symbolic():
    rep = D.verify_symmetric_decomposition("double")
    assert rep.verdict.ok
    assert rep.summands == [("SimpleSymmetric", 4), ("DoubleBrick", 2)]


def test_symmetric_double_is_symbolic_only():
    with pytest.raises(InputError):
        D.verify_symmetric_decomposition("double", mode="sampled")


@pytest.mark.parametrize("check", [D.verify_decomposition_2d, D.verify_decomposition_3d,
                                   D.verify_symmetric_decomposition])
def test_unknown_mode_is_rejected(check):
    # a mode that no branch implements must not run the sampled check
    with pytest.raises(InputError):
        check(mode="exact")


def test_symmetric_sampled():
    rep = D.verify_symmetric_decomposition("simple", mode="sampled", seed=8)
    assert rep.verdict.ok


# ----------------------------------------------------------------------
# evolution counts
# ----------------------------------------------------------------------

def test_closed_forms_match_recurrence():
    for case in ("2d", "3d-generic", "3d-symmetric"):
        for n in range(11):
            D.evolution_census_closed_form(case, n)


def test_closed_form_values():
    assert D.evolution_census_closed_form("2d", 3).counts == (8,)
    assert D.evolution_census_closed_form("3d-generic", 2).counts == (10, 6)
    assert D.evolution_census_closed_form("3d-symmetric", 2).counts == (8, 4)


def test_unknown_case_rejected():
    with pytest.raises(InputError):
        D.evolution_census_closed_form("4d", 1)


def test_detection():
    assert D.detect_evolution_summands("2d", 1, seed=9).ok
    assert D.detect_evolution_summands("2d", 2, seed=9).ok
    assert D.detect_evolution_summands("3d-generic", 1, seed=9).ok
    assert D.detect_evolution_summands("3d-symmetric", 1, seed=9).ok


def test_detection_eliminates_no_matrix_per_point(monkeypatch):
    # each block is reduced to Hessenberg form once; no determinant is
    # taken by elimination at any evaluation point
    def fail(*args):
        raise AssertionError("elimination per point")
    monkeypatch.setattr(D, "mat_det", fail)
    monkeypatch.setattr(matrices, "mat_det", fail)
    monkeypatch.setattr(fieldmat, "det", fail)
    assert D.detect_evolution_summands("3d-generic", 2, seed=3).ok


@pytest.mark.parametrize("seed", range(4))
def test_detection_witness_matches_per_point_loop(seed, monkeypatch):
    # A wrong prediction: the evolved block with one entry changed, at the
    # same dimension.  Wrong summand counts would not do, since each
    # predicted piece has the characteristic polynomial of another (a
    # matrix and its transpose; the double summand and the simple one
    # squared).  The witness must be the first failing point in the order
    # of the sampled points, as a loop of one elimination per point finds.
    field = FiniteField(2, 8)
    a = D.sample_brick("3d-generic", field, random.Random(seed))
    brick = BrickSpec(3, (1, 1, 1), RingMatrix.from_rows(field, a))
    block = fieldmat.from_array(field, evolve(brick, 1)[-1])
    block[0, 0] = field.add(block[0, 0], field.one)
    monkeypatch.setattr(lattice, "evolve",
                        lambda *args, **kwargs: [fieldmat.to_array(field, block)])
    verdict = D.detect_evolution_summands("3d-generic", 1, seed=seed,
                                          brick=brick)

    tilde = RingMatrix.from_rows(field, [[field.pow(x, 2) for x in row] for row in a])
    counts = D.evolution_census_closed_form("3d-generic", 1).counts
    pieces = [(tilde, counts[0]), (tilde.transpose(), counts[1])]
    expected = None
    for x in random.Random(seed).sample(range(field.q), block.rows + 1):
        lhs = mat_det(block - RingMatrix.scalar(field, block.rows, x))
        rhs = field.one
        for piece, mult in pieces:
            d = mat_det(piece - RingMatrix.scalar(field, piece.rows, x))
            rhs = field.mul(rhs, field.pow(d, mult))
        if lhs != rhs:
            expected = {"failed": "determinant", "x": x}
            break
    assert expected is not None
    assert not verdict.ok and verdict.witness == expected
