import random

import pytest
from hypothesis import given, settings, strategies as st

from cubeblocks.dim4 import shift_matrix
from cubeblocks.errors import InputError
from cubeblocks.fields import FiniteField
from cubeblocks.matrices import RingMatrix
from cubeblocks.polys import MultiPoly, PolyRing, ShiftAlgebra
from reference import (
    mat_add, poly_pow, sample_poly, tuple_monomial_quotient, tuple_poly_add,
    tuple_poly_clean, tuple_poly_mul, tuple_poly_repr, tuple_poly_specialize,
)

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
# packed monomials against the tuple-keyed reference
# ----------------------------------------------------------------------

LIMIT = 2 ** 15
DIFF_RINGS = [(n, char) for n in (1, 4, 9) for char in (0, 2, 3)]


def random_terms(n, char, rng, big=True, max_terms=6):
    """{exponent tuple: coefficient}; with big, some exponents below but
    near 2^14, so that products fill the 16-bit fields without reaching
    the guard bit.  Coefficients include zeros and, in characteristic p,
    values outside [0, p)."""
    draw = lambda: (rng.randrange(2 ** 13, 2 ** 14) if big and rng.random() < 0.2
                    else rng.randrange(4))
    return {tuple(draw() for _ in range(n)): rng.randrange(-5, 6)
            for _ in range(rng.randrange(max_terms + 1))}


@pytest.mark.parametrize("n,char", DIFF_RINGS)
def test_packed_ring_ops_match_tuple_reference(n, char):
    names = tuple(f"x{i}" for i in range(n))
    poly = lambda t: MultiPoly(names, char, t)
    rng = random.Random(100 * n + char)
    for _ in range(60):
        x, y = random_terms(n, char, rng), random_terms(n, char, rng)
        tx, ty = tuple_poly_clean(x, char), tuple_poly_clean(y, char)
        px, py = poly(x), poly(y)
        assert repr(px) == tuple_poly_repr(names, tx)
        assert px * py == poly(tuple_poly_mul(tx, ty, char))
        assert repr(px * py) == tuple_poly_repr(names, tuple_poly_mul(tx, ty, char))
        assert repr(px + py) == tuple_poly_repr(names, tuple_poly_add(tx, ty, char))
        neg_y = {e: -c for e, c in ty.items()}
        assert repr(px - py) == tuple_poly_repr(names, tuple_poly_add(tx, neg_y, char))
        assert (px == py) == (tx == ty)
        shuffled = list(x.items())
        rng.shuffle(shuffled)
        assert poly(dict(shuffled)) == px
        assert px.total_degree() == max((sum(e) for e in tx), default=0)


@pytest.mark.parametrize("n,char", DIFF_RINGS)
def test_packed_monomial_quotient_matches_tuple_reference(n, char):
    names = tuple(f"x{i}" for i in range(n))
    poly = lambda t: MultiPoly(names, char, t)
    rng = random.Random(200 * n + char)
    outcomes = set()
    for _ in range(80):
        d = random_terms(n, char, rng, max_terms=1)
        d = {e: c or 1 for e, c in d.items()} or {(0,) * n: 1}
        if char == 0 and rng.random() < 0.5:
            d = {e: rng.choice((2, -3)) for e in d}  # inexact integer division
        kind = rng.randrange(3)
        if kind == 0:  # a multiple of d
            x = tuple_poly_mul(random_terms(n, char, rng), d, char)
        elif kind == 1:  # any polynomial: an exponent may go negative
            x = random_terms(n, char, rng)
        else:  # a divisor with two terms
            d = tuple_poly_add(d, {tuple(rng.randrange(4) for _ in range(n)): 1}, char)
            x = tuple_poly_mul(random_terms(n, char, rng), d, char)
        tx, td = tuple_poly_clean(x, char), tuple_poly_clean(d, char)
        want = tuple_monomial_quotient(tx, td, char)
        got = poly(tx).monomial_quotient(poly(td))
        outcomes.add((kind, want is None))
        assert (got is None) == (want is None)
        if want is not None:
            assert got == poly(want) and repr(got) == tuple_poly_repr(names, want)
    # every kind of divisor met both a quotient and a None, except that a
    # two-term divisor only ever gives None
    assert outcomes >= {(0, False), (1, False), (1, True), (2, True)}


@pytest.mark.parametrize("n,char", DIFF_RINGS)
def test_packed_specialize_matches_tuple_reference(n, char):
    names = tuple(f"x{i}" for i in range(n))
    field = FiniteField(char or 7, 2)
    rng = random.Random(300 * n + char)
    for _ in range(20):
        x = tuple_poly_clean(random_terms(n, char, rng, big=False), char)
        point = [field.sample(rng) for _ in names]
        got = MultiPoly(names, char, x).specialize(dict(zip(names, point)), field)
        assert got == tuple_poly_specialize(x, point, field)


def test_exponent_overflow_is_refused():
    ring = PolyRing(("a", "b"), 2)
    half = MultiPoly(ring.vars, 2, {(0, 2 ** 14): 1})
    below = MultiPoly(ring.vars, 2, {(3, 2 ** 14 - 1): 1})
    assert repr(half * below) == "a^3*b^32767"
    with pytest.raises(InputError):
        half * half
    with pytest.raises(InputError):
        (half + ring.one) * (half + ring.gen("a"))
    with pytest.raises(InputError):
        MultiPoly(ring.vars, 2, {(LIMIT - 1, 0): 1}) * ring.gen("a")


@pytest.mark.parametrize("e", [(-1, 0), (0, LIMIT), (LIMIT, 0), (1,), (1, 0, 0)])
def test_constructor_refuses_bad_exponents(e):
    with pytest.raises(InputError):
        MultiPoly(("a", "b"), 0, {e: 1})


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
