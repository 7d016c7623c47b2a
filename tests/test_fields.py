import itertools
import json
import random
import time

import numpy as np
import pytest

from cubeblocks.cli import main
from cubeblocks.errors import InputError
from cubeblocks.fields import FiniteField, find_irreducible, is_prime
from reference import convolution_mul, reduction_rows, sqrt_char2


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def test_prime_field_tables():
    f = FiniteField(5)
    assert f.q == 5
    assert f.add(3, 4) == 2
    assert f.mul(3, 4) == 2
    assert f.inv(3) == 2
    assert f.neg(2) == 3


def test_modulus_is_deterministic():
    assert FiniteField(2, 8).modulus == FiniteField(2, 8).modulus
    assert FiniteField(3, 4).modulus == FiniteField(3, 4).modulus


def test_find_irreducible_small():
    # x^2 + x + 1 is the only monic irreducible quadratic over GF(2)
    assert find_irreducible(2, 2) == (1, 1, 1)


# the moduli of the fields the CLI and the benchmark build, as Rabin's
# test chose them; Ben-Or's test must pick the same
PINNED_MODULI = {
    (7, 16): (3, 2) + (0,) * 14 + (1,),
    (11, 16): (5, 1, 1) + (0,) * 13 + (1,),
    (3, 16): (1, 0, 1, 1) + (0,) * 12 + (1,),
    (2, 16): (1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
}


@pytest.mark.parametrize("p,m", sorted(PINNED_MODULI))
def test_moduli_are_pinned(p, m):
    assert find_irreducible(p, m) == PINNED_MODULI[p, m]
    assert FiniteField(p, m).modulus == PINNED_MODULI[p, m]


def _mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("p,top", [(2, 10), (3, 6), (5, 4), (7, 3)])
def test_irreducible_counts_match_gauss_formula(p, top):
    # the monic irreducibles of degree m over F_p number
    # (1/m) sum over d | m of mu(d) p^(m/d)
    from cubeblocks.fields import _is_irreducible
    for m in range(1, top + 1):
        count = sum(_is_irreducible([code // p ** i % p for i in range(m)] + [1], p)
                    for code in range(p ** m))
        assert count * m == sum(_mobius(d) * p ** (m // d)
                                for d in range(1, m + 1) if m % d == 0)


@pytest.mark.parametrize("modulus", [(1, 0, 0, 0, 1), (1, 0, 1, 0, 1), (1, 1, 1, 1, 1, 1, 1)],
                         ids=["(x+1)^4", "(x^2+x+1)^2", "x^6+...+1"])
def test_reducible_modulus_is_refused(modulus):
    # no roots, or no factor below degree m/2: (x^2 + x + 1)^2, and
    # x^6 + x^5 + ... + 1 = (x^3 + x + 1)(x^3 + x^2 + 1) over F_2
    with pytest.raises(InputError):
        FiniteField(2, len(modulus) - 1, modulus)


def test_bad_characteristic_rejected():
    with pytest.raises(InputError):
        FiniteField(4)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(20000) if is_prime(n)] \
        == [n for n in range(20000) if trial(n)]
    rng = random.Random(2)
    for n in (rng.randrange(10 ** 6, 10 ** 9) for _ in range(200)):
        assert is_prime(n) == trial(n)


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to every prime base up to 7, 23 and 37 in turn,
    # and squares and products of large primes
    for n in (3215031751, 3825123056546413051, 318665857834031151167461,
              (2 ** 31 - 1) ** 2, 1000003 * (2 ** 61 - 1)):
        assert not is_prime(n)
    for n in (2 ** 61 - 1, 2 ** 31 - 1, 1000003, 4294967311):
        assert is_prime(n)


def test_is_prime_refuses_undecided_range():
    with pytest.raises(InputError):
        is_prime(2 ** 89 - 1)


def test_large_prime_field_answers_at_once():
    t0 = time.perf_counter()
    f = FiniteField(2 ** 61 - 1)
    assert time.perf_counter() - t0 < 1.0
    assert f.mul(f.inv(12345), 12345) == 1


def test_census_over_large_prime_is_exit_2(capsys):
    brick = {"d": 2, "thin_dims": [1, 1], "entries": [[1, 2], [3, 4]],
             "field": {"p": 2 ** 61 - 1, "m": 1, "modulus": [0, 1]}}
    assert main(["census", "--brick", json.dumps(brick), "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "Traceback" not in captured.err


# ----------------------------------------------------------------------
# field axioms on random samples
# ----------------------------------------------------------------------

@pytest.mark.parametrize("p,m", [(2, 8), (3, 4), (7, 3), (2, 16)])
def test_axioms(p, m):
    f = FiniteField(p, m)
    rng = random.Random(17)
    for _ in range(60):
        x, y, z = (f.sample(rng) for _ in range(3))
        assert f.add(x, y) == f.add(y, x)
        assert f.mul(x, y) == f.mul(y, x)
        assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
        assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
        assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
        assert f.add(x, f.neg(x)) == f.zero
        if x != f.zero:
            assert f.mul(x, f.inv(x)) == f.one


@pytest.mark.parametrize("p,m", [(2, 8), (2, 16), (3, 4), (7, 16), (11, 16), (2, 1), (7, 1)])
def test_reduction_matrix_rows_are_powers_of_x(p, m):
    # at p = 2 the rows are x^t from carry-less products by x (bit 1),
    # elsewhere the shift-and-fold recurrence; at m = 1 there are none
    f = FiniteField(p, m)
    red = f.reduction_matrix
    assert red.shape == (m - 1, m) and red.dtype == np.int64
    if p == 2:
        want, x_t = [], 1
        for t in range(2 * m - 1):
            if t >= m:
                want.append([x_t >> i & 1 for i in range(m)])
            x_t = f._mul2(x_t, 2)
    else:
        want = reduction_rows(f)
    assert red.tolist() == want


@pytest.mark.parametrize("p,m", [(3, 4), (7, 16)])
def test_add_sub_neg_match_digitwise(p, m):
    # every pair at GF(3^4); at GF(7^16) random pairs and the extremes
    f = FiniteField(p, m)
    digits = lambda x: [x // p ** i % p for i in range(m)]
    undigits = lambda ds: sum(d % p * p ** i for i, d in enumerate(ds))
    if f.q <= 81:
        pairs = itertools.product(range(f.q), repeat=2)
    else:
        rng = random.Random(p * m)
        ends = [0, 1, p - 1, f.q - 1]
        pairs = list(itertools.product(ends, repeat=2)) + [
            (f.sample(rng), f.sample(rng)) for _ in range(2000)]
    for a, b in pairs:
        da, db = digits(a), digits(b)
        assert f.add(a, b) == undigits([x + y for x, y in zip(da, db)])
        assert f.sub(a, b) == undigits([x - y for x, y in zip(da, db)])
        assert f.neg(b) == undigits([-y for y in db])


@pytest.mark.parametrize("p,m", [(3, 16), (7, 16), (11, 16), (5, 8), (65537, 2)])
def test_kronecker_mul_matches_convolution(p, m):
    # the packed product against the O(m^2) digit convolution, on random
    # pairs and on 0, 1 and q - 1, whose digits are all p - 1 and fill
    # every slot to its bound (2m - 1)(p - 1)^2
    f = FiniteField(p, m)
    rng = random.Random(p * m)
    special = [0, 1, f.q - 1]
    pairs = [(x, y) for x in special for y in special]
    pairs += [(f.sample(rng), f.sample(rng)) for _ in range(300)]
    pairs += [(x, f.sample(rng)) for x in special for _ in range(10)]
    for x, y in pairs:
        assert f.mul(x, y) == convolution_mul(f, x, y), (x, y)


@pytest.mark.parametrize("p,m", [(2, 8), (3, 4), (5, 2)])
def test_frobenius_is_additive(p, m):
    f = FiniteField(p, m)
    rng = random.Random(3)
    for _ in range(40):
        x, y = f.sample(rng), f.sample(rng)
        assert f.pow(f.add(x, y), p) == f.add(f.pow(x, p), f.pow(y, p))


def test_multiplicative_order():
    f = FiniteField(2, 8)
    rng = random.Random(5)
    for _ in range(20):
        x = f.sample_nonzero(rng)
        assert f.pow(x, f.q - 1) == f.one


def test_sqrt_char2():
    f = FiniteField(2, 16)
    rng = random.Random(9)
    for _ in range(40):
        x = f.sample(rng)
        r = sqrt_char2(f, x)
        assert f.mul(r, r) == x


def test_json_roundtrip():
    f = FiniteField(3, 4)
    g = FiniteField.from_json(f.to_json())
    assert g.p == 3 and g.m == 4 and g.modulus == f.modulus


def test_constructor_reduces_a_python_modulus():
    # a JSON description must give the coefficients in [0, p)
    # (tests/test_cli.py); a caller in Python may pass any integers
    f = FiniteField(3, 2, (4, -3, 7))
    assert f.modulus == FiniteField(3, 2, (1, 0, 1)).modulus == (1, 0, 1)


def test_build_extension_field():
    # GF(p^m) is built by the constructor with its lowest irreducible modulus
    f = FiniteField(2, 5)
    assert f.q == 32
    assert f.modulus == find_irreducible(2, 5)
    assert all(f.pow(x, 31) == f.one for x in range(1, 32))

