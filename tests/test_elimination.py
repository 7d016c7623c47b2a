"""The elimination step against the unit-pivot kernel, and its cost.

``fieldmat`` eliminates with unscaled pivot rows, three products per
pivot that clears rows.  ``reference.unit_pivot_*`` is the kernel that
scales every pivot row to a unit pivot first; both must give the same
rank, determinant, reduced row echelon form (pivots and entries) and
inverse on every product tier, int64 included, and on the shapes where
elimination has edge cases.  ``fieldmat.hessenberg`` clears its columns
with the same step and must return the very array of
``reference.column_update_hessenberg``.  The cost guards count calls,
never time.
"""

import random
from collections import Counter

import numpy as np
import pytest

from cubeblocks import fieldmat
from cubeblocks.errors import SingularMatrixError
from cubeblocks.fields import FiniteField
from cubeblocks.matrices import mat_inverse
from reference import (
    column_update_hessenberg, unit_pivot_det, unit_pivot_forward, unit_pivot_inverse,
    unit_pivot_rank, unit_pivot_rref,
)

# GF(61) is the last int8 field; GF(2^31 - 1) runs its products in int64
FIELDS = [(2, 1), (3, 1), (2, 8), (3, 4), (7, 16), (61, 1), (2 ** 31 - 1, 1)]
IDS = ["GF2", "GF3", "GF256", "GF81", "GF7^16", "GF61", "GF2^31-1"]


def _random(f, nr, nc, rng, density=1.0):
    vals = [f.sample(rng) if rng.random() < density else f.zero for _ in range(nr * nc)]
    return fieldmat.ints_to_coeffs(
        f, np.array(vals, dtype=fieldmat._int_dtype(f)).reshape(nr, nc))


def _cases(f, rng):
    """rows < cols, rows > cols, zero columns, rank-deficient, sparse (row
    swaps at any q), all-zero and 1x1 arrays."""
    zero_cols = _random(f, 4, 6, rng)
    zero_cols[:, [0, 3]] = 0
    low_rank = fieldmat.matmul(f, _random(f, 5, 2, rng), _random(f, 2, 5, rng))
    dtype = fieldmat.coeff_dtype(f.p)
    return [_random(f, 3, 5, rng), _random(f, 5, 3, rng), zero_cols, low_rank,
            _random(f, 5, 5, rng), _random(f, 6, 6, rng, density=0.4),
            _random(f, 4, 4, rng, density=0.3), np.zeros((3, 4, f.m), dtype),
            np.zeros((4, 4, f.m), dtype), _random(f, 1, 1, rng),
            np.zeros((1, 1, f.m), dtype)]


@pytest.mark.parametrize("p,m", FIELDS, ids=IDS)
def test_elimination_matches_the_unit_pivot_kernel(p, m):
    f = FiniteField(p, m)
    rng = random.Random(p * 31 + m)
    for a in _cases(f, rng):
        assert fieldmat.rank(f, a) == unit_pivot_rank(f, a)
        red, pivots = fieldmat.rref(f, a)
        want, want_pivots = unit_pivot_rref(f, a)
        assert pivots == want_pivots
        assert np.array_equal(red, want)
        if a.shape[0] != a.shape[1]:
            continue
        assert fieldmat.det(f, a) == unit_pivot_det(f, a)
        inv = unit_pivot_inverse(f, a)
        if inv is None:
            with pytest.raises(SingularMatrixError):
                mat_inverse(fieldmat.from_array(f, a))
        else:
            assert mat_inverse(fieldmat.from_array(f, a)) == fieldmat.from_array(f, inv)


@pytest.mark.parametrize("p,m", FIELDS, ids=IDS)
def test_rank_makes_one_inverse_per_pivot_and_three_products_per_clearing_pivot(
        p, m, monkeypatch):
    f = FiniteField(p, m)
    rng = random.Random(p * 37 + m)
    calls = Counter()
    product, inv = fieldmat.reduced_product, FiniteField.inv

    def counted_product(*args):
        calls["product"] += 1
        return product(*args)

    def counted_inv(self, x):
        calls["inv"] += 1
        return inv(self, x)

    for a in _cases(f, rng):
        pivots, _, _, clearing = unit_pivot_forward(f, fieldmat._reduced(f, a))
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(fieldmat, "reduced_product", counted_product)
            mp.setattr(FiniteField, "inv", counted_inv)
            assert fieldmat.rank(f, a) == len(pivots)
        assert calls["inv"] == len(pivots)
        assert calls["product"] <= 3 * clearing


def _hessenberg_cases(f, n, rng):
    """Dense; block diagonal, whose reduction meets a column with nothing
    below the diagonal; a zero at (1, 0) above nonzeros (a row and column
    swap, then rows to clear); a single nonzero below it (a swap and no
    rows); all zero; already upper Hessenberg."""
    dense = _random(f, n, n, rng)
    blocks = _random(f, n, n, rng)
    blocks[:n // 2, n // 2:] = blocks[n // 2:, :n // 2] = 0
    swap, single = _random(f, n, n, rng), _random(f, n, n, rng)
    hess = _random(f, n, n, rng)
    hess[np.tril(np.ones((n, n), bool), -2)] = 0
    if n > 2:
        swap[1, 0] = 0
        swap[2, 0] = f.coeffs(f.one)
        single[1:, 0] = 0
        single[n - 1, 0] = f.coeffs(f.one)
    return [dense, blocks, swap, single, np.zeros_like(dense), hess]


@pytest.mark.parametrize("n", [1, 2, 3, 12, 48])
@pytest.mark.parametrize("p,m", FIELDS, ids=IDS)
def test_hessenberg_matches_the_column_update_reduction(p, m, n):
    f = FiniteField(p, m)
    rng = random.Random(p * 41 + m * 7 + n)
    points = [f.sample(rng) for _ in range(3)]
    for a in _hessenberg_cases(f, n, rng):
        h = fieldmat.hessenberg(f, a)
        want = column_update_hessenberg(f, a)
        assert h.dtype == want.dtype and np.array_equal(h, want)
        assert fieldmat.det_shifted(f, h, points) == fieldmat.det_shifted(f, want, points)


@pytest.mark.parametrize("p,m", FIELDS, ids=IDS)
def test_hessenberg_makes_one_inverse_and_one_step_per_clearing_column(p, m, monkeypatch):
    f = FiniteField(p, m)
    rng = random.Random(p * 43 + m)
    calls = Counter()
    step, inv = fieldmat._step, FiniteField.inv

    def counted_step(*args):
        calls["step"] += 1
        return step(*args)

    def counted_inv(self, x):
        calls["inv"] += 1
        return inv(self, x)

    def no_regular(*args):
        raise AssertionError("fieldmat.regular is for block assembly only")

    for a in _hessenberg_cases(f, 12, rng):
        # the reference makes one inverse per column with rows to clear
        with monkeypatch.context() as mp:
            mp.setattr(FiniteField, "inv", counted_inv)
            column_update_hessenberg(f, a)
        clearing = calls["inv"]
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(fieldmat, "_step", counted_step)
            mp.setattr(FiniteField, "inv", counted_inv)
            mp.setattr(fieldmat, "regular", no_regular)
            fieldmat.det_shifted(f, fieldmat.hessenberg(f, a), [f.zero, f.one])
        assert calls == Counter(inv=clearing, step=clearing)
        calls.clear()
