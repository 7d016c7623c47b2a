import random

import pytest
from hypothesis import given, settings, strategies as st

from cubeblocks.dim4 import shift_matrix
from cubeblocks.fields import FiniteField
from cubeblocks.matrices import RingMatrix
from cubeblocks.polys import MultiPoly, PolyRing, ShiftAlgebra
from reference import mat_add, poly_pow, sample_poly

VARS = ("a", "b", "c")


# ----------------------------------------------------------------------
# ring laws, checked through specialization homomorphisms
# ----------------------------------------------------------------------

def test_specialize_is_homomorphism():
    ring = PolyRing(VARS, 0)
    f = FiniteField(7, 2)
    rng = random.Random(1)
    for _ in range(30):
        x, y = sample_poly(ring, rng), sample_poly(ring, rng)
        point = {v: f.sample(rng) for v in VARS}
        ev = lambda p: p.specialize(point, f)
        assert ev(x + y) == f.add(ev(x), ev(y))
        assert ev(x * y) == f.mul(ev(x), ev(y))
        assert ev(x - y) == f.sub(ev(x), ev(y))


def test_char_p_collapse():
    ring = PolyRing(("a",), 2)
    a = ring.gen("a")
    assert a + a == ring.zero
    assert (a + ring.one) * (a + ring.one) == a * a + ring.one


def test_char_zero_keeps_coefficients():
    ring = PolyRing(("a",), 0)
    a = ring.gen("a")
    assert (a + a) == ring.const(2) * a


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
@settings(max_examples=30, deadline=None)
def test_power_law(i, j):
    ring = PolyRing(("a", "b"), 0)
    x = ring.gen("a") + ring.gen("b")
    assert poly_pow(x, i) * poly_pow(x, j) == poly_pow(x, i + j)


# ----------------------------------------------------------------------
# structure helpers
# ----------------------------------------------------------------------

def test_monomial_quotient():
    ring = PolyRing(VARS, 2)
    a, b, c = ring.gens()
    num = a * a * b + a * b * c
    got = num.monomial_quotient(a * b)
    assert got == a + c
    assert (a + b).monomial_quotient(c) is None


def test_total_degree_and_terms():
    ring = PolyRing(VARS, 0)
    a, b, c = ring.gens()
    p = a * b * c + a + ring.one
    assert p.total_degree() == 3
    assert len(p.terms) == 3


def test_term_order_is_unobservable():
    ring = PolyRing(VARS, 3)
    a, b, c = ring.gens()
    x, y = a * b + c * c + ring.const(2), ring.const(2) + c * c + b * a
    assert list(x.terms) != list(y.terms)
    assert x == y
    assert repr(x) == repr(y) == "a*b + c^2 + 2"


# ----------------------------------------------------------------------
# shift algebra
# ----------------------------------------------------------------------

@pytest.mark.parametrize("base", [FiniteField(2, 8), FiniteField(3, 2),
                                  PolyRing(("x", "y"), 0)], ids=repr)
@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_shift_algebra_matrix_is_ring_homomorphism(base, periodic, l):
    alg = ShiftAlgebra(base, l, periodic)
    rng = random.Random(l)
    mat = alg.matrix
    draw = base.sample if isinstance(base, FiniteField) else lambda r: sample_poly(base, r)
    sample = lambda: tuple(draw(rng) for _ in range(l))
    assert mat(alg.one) == RingMatrix.identity(base, l)
    for _ in range(8):
        a, b = sample(), sample()
        assert mat(alg.mul(a, b)) == mat(a) @ mat(b)
        assert mat(alg.add(a, b)) == mat_add(mat(a), mat(b))
        assert mat(alg.sub(a, b)) == mat(a) - mat(b)
    if l >= 2:
        t = (base.zero, base.one) + (base.zero,) * (l - 2)
        case = "Periodic4" if periodic else "ZeroInput4"
        assert mat(t) == shift_matrix(base, l, case)
