"""The elimination step against the unit-pivot kernel, and its cost.

``fieldmat`` eliminates with unscaled pivot rows, three products per
pivot that clears rows.  ``reference.unit_pivot_*`` is the kernel that
scales every pivot row to a unit pivot first; both must give the same
rank, determinant, reduced row echelon form (pivots and entries) and
inverse on every product tier, int64 included, and on the shapes where
elimination has edge cases.  The cost guard counts calls, never time.
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
    unit_pivot_det, unit_pivot_forward, unit_pivot_inverse, unit_pivot_rank,
    unit_pivot_rref,
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
