"""Exact arithmetic in prime fields GF(p) and extensions GF(p^m).

An element of GF(p^m) is a Python int in [0, p^m): its base-p digits are
the coefficients of the polynomial-basis representation, constant term in
the lowest digit.  For m = 1 this is the usual residue representation.

The reducing modulus for GF(p^m) is chosen deterministically: the monic
irreducible of degree m whose coefficient vector (constant term first)
encodes to the smallest integer in base p.  The same (p, m) therefore
always yields the same field.
"""

from __future__ import annotations

import json
from functools import lru_cache

import numpy as np

from .errors import InputError


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; refuses n where it is not proven exact."""
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise InputError(f"primality of {n} is not decided above {_MR_BOUND}")
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ----------------------------------------------------------------------
# Polynomials over F_p as little-endian coefficient lists
# ----------------------------------------------------------------------

def _trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _pmod(a: list[int], f: list[int], p: int) -> list[int]:
    # f monic
    a = a[:]
    df = len(f) - 1
    while len(a) - 1 >= df and a:
        c = a[-1] % p
        if c:
            shift = len(a) - 1 - df
            for i in range(df + 1):
                a[shift + i] = (a[shift + i] - c * f[i]) % p
        a.pop()
    return _trim(a)


def _ppowmod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    acc = _pmod(base, f, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, acc, p), f, p)
        acc = _pmod(_pmul(acc, acc, p), f, p)
        e >>= 1
    return result


def _monic(f: list[int], p: int) -> list[int]:
    inv = pow(f[-1], p - 2, p)
    return [c * inv % p for c in f]


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        b = _monic(b, p)  # _pmod divides by a monic polynomial
        a, b = b, _pmod(a, b, p)
    return _monic(a, p) if a else a


def _digits(x: int, p: int, m: int) -> list[int]:
    """The m lowest base-p digits of x, lowest first."""
    out = []
    for _ in range(m):
        out.append(x % p)
        x //= p
    return out


def _psub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return _trim([(x - y) % p for x, y in zip(a, b)])


def _is_irreducible(f: list[int], p: int) -> bool:
    """Ben-Or's test for a monic polynomial f of degree m over F_p: f is
    irreducible iff gcd(f, x^(p^i) - x) = 1 for every i <= m/2, since a
    reducible f has an irreducible factor of degree at most m/2 and those
    of degree dividing i are exactly the factors of x^(p^i) - x.  Stops
    at the first nontrivial gcd, so most candidates fail at small i."""
    m = len(f) - 1
    if m < 1:
        return False
    x = [0, 1]
    xq = x
    for _ in range(m // 2):
        xq = _ppowmod(xq, p, f, p)
        if _pgcd(f, _psub(xq, x, p), p) != [1]:
            return False
    return True


@lru_cache(maxsize=None)
def find_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Deterministic monic irreducible of degree m over F_p.

    Candidates are scanned in increasing order of the base-p integer
    encoding of their lower coefficients (constant term in the lowest
    digit); the first irreducible wins.
    """
    if m == 1:
        return (0, 1)  # modulus x: plain residues
    for code in range(p ** m):
        f = _digits(code, p, m) + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise RuntimeError(f"no irreducible of degree {m} over F_{p}")  # unreachable


# ----------------------------------------------------------------------
# Field
# ----------------------------------------------------------------------

class FiniteField:
    """GF(p^m) with int-encoded elements; also serves as a ring object.

    Ring protocol attributes used throughout the package: ``zero``,
    ``one``, ``char``, and methods ``add``, ``sub``, ``neg``, ``mul``,
    ``inv``.
    """

    def __init__(self, p: int, m: int = 1, modulus: tuple[int, ...] | None = None):
        if not is_prime(p):
            raise InputError(f"characteristic {p} is not prime")
        if m < 1:
            raise InputError(f"extension degree must be >= 1, got {m}")
        self.p = p
        self.m = m
        self.q = p ** m
        self.char = p
        if modulus is None:
            modulus = find_irreducible(p, m)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise InputError("modulus must be monic of degree m")
            if m > 1 and not _is_irreducible(list(modulus), p):
                raise InputError("modulus is not irreducible over F_p")
        self.modulus = modulus
        self.zero = 0
        self.one = 1 % self.q
        # (m-1, m) int64 array: row t-m holds x^t mod modulus, t >= m
        self.reduction_matrix = red = np.zeros((m - 1, m), dtype=np.int64)
        for t in range(m, 2 * m - 1):
            row = _pmod([0] * t + [1], list(modulus), p)
            red[t - m, :len(row)] = row
        # Kronecker slots for products at odd p (see mul): a slot never
        # exceeds (2m - 1)(p - 1)^2, so b bits hold it without a carry
        self._slot = bits = ((2 * m - 1) * (p - 1) ** 2).bit_length()
        self._red_packed = [sum(c << bits * i for i, c in enumerate(row))
                            for row in red.tolist()]
        # the modulus as a bit pattern, for products in characteristic 2
        self._modbits = sum(1 << i for i, c in enumerate(modulus) if c)

    # -- representation ------------------------------------------------

    def coeffs(self, x: int) -> list[int]:
        return _digits(x, self.p, self.m)

    def from_int(self, k: int) -> int:
        """Embed an integer via the prime subfield."""
        return k % self.p

    # -- arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        return self._digitwise(a, b, 1)

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
        return self._digitwise(0, a, -1)

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a - b) % self.p
        return self._digitwise(a, b, -1)

    def _digitwise(self, a: int, b: int, sign: int) -> int:
        """a + sign * b, one base-p digit at a time (odd p, m > 1)."""
        p = self.p
        out, shift = 0, 1
        for _ in range(self.m):
            out += (a + sign * b) % p * shift
            a //= p
            b //= p
            shift *= p
        return out

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if self.p == 2:
            return self._mul2(a, b)
        # Kronecker substitution: the coefficients sit in b-bit slots of
        # one int, so a single int product gives the convolution, m - 1
        # packed reduction rows fold its high slots into the low m, and
        # the slots unpack with % p.  Slot i of the convolution is a sum
        # of at most m digit products, at most m (p - 1)^2; folding adds
        # (c_t mod p) x^t-row entries, at most (m - 1)(p - 1)^2 more.
        # The largest slot value is thus (2m - 1)(p - 1)^2 < 2^b.
        p, m, bits = self.p, self.m, self._slot
        mask = (1 << bits) - 1
        prod = self._pack(a) * self._pack(b)
        low = prod & ((1 << bits * m) - 1)
        high = prod >> bits * m
        for row in self._red_packed:
            low += (high & mask) % p * row
            high >>= bits
        x = 0
        for shift in range(bits * (m - 1), -1, -bits):
            x = x * p + (low >> shift & mask) % p
        return x

    def _pack(self, a: int) -> int:
        """The base-p digits of a, one per Kronecker slot."""
        out = shift = 0
        while a:
            a, c = divmod(a, self.p)
            out |= c << shift
            shift += self._slot
        return out

    def _mul2(self, a: int, b: int) -> int:
        # carry-less multiply then reduce by the modulus bit pattern
        res = 0
        aa = a
        while b:
            if b & 1:
                res ^= aa
            aa <<= 1
            b >>= 1
        m, modbits = self.m, self._modbits
        for t in range(res.bit_length() - 1, m - 1, -1):
            if res >> t & 1:
                res ^= modbits << (t - m)
        return res

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = self.one
        acc = a
        while e:
            if e & 1:
                result = self.mul(result, acc)
            acc = self.mul(acc, acc)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        p = self.p
        if self.m == 1:
            return pow(a, p - 2, p)
        if p == 2:
            return self._inv2(a)
        # extended Euclid in F_p[x], keeping r_i = s_i * a mod the modulus;
        # the modulus is irreducible, so the remainders end in a constant.
        # Each step divides r0 by r1 in place, long division from the top.
        r0, r1 = list(self.modulus), _trim(self.coeffs(a))
        s0, s1 = [], [1]
        while len(r1) > 1:
            d = len(r1) - 1
            lead_inv = pow(r1[-1], p - 2, p)
            while len(r0) > d:
                c = r0.pop() * lead_inv % p
                if not c:
                    continue
                shift = len(r0) - d
                for i in range(d):
                    r0[shift + i] = (r0[shift + i] - c * r1[i]) % p
                s0.extend([0] * (shift + len(s1) - len(s0)))
                for i, x in enumerate(s1):
                    s0[shift + i] = (s0[shift + i] - c * x) % p
            r0, r1, s0, s1 = r1, _trim(r0), s1, _trim(s0)
        c = pow(r1[0], p - 2, p)
        out = 0
        for x in reversed(s1):
            out = out * p + x * c % p
        return out

    def _inv2(self, a: int) -> int:
        # extended Euclid on bit patterns (carry-less), keeping
        # u = g1 * a and v = g2 * a mod the modulus, until u = 1
        u, v, g1, g2 = a, self._modbits, 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, g1, g2 = v, u, g2, g1
                j = -j
            u ^= v << j
            g1 ^= g2 << j
        return g1

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    # -- misc ----------------------------------------------------------

    def sample(self, rng) -> int:
        return rng.randrange(self.q)

    def sample_nonzero(self, rng) -> int:
        return rng.randrange(1, self.q)

    def __eq__(self, other):
        return (isinstance(other, FiniteField)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteField":
        """The field of a brick description's "field" object: p and m are
        JSON integers, p a prime, and the modulus coefficients integers in
        [0, p)."""
        p = json_int(obj, "p", "field.")
        if not is_prime(p):
            raise InputError(f"characteristic {p} is not prime")
        m = json_int(obj, "m", "field.")
        modulus = json_ints(obj, "modulus", "field.")
        if any(not 0 <= c < p for c in modulus):
            raise InputError(f"'field.modulus' coefficients must lie in [0, {p})")
        return cls(p, m, tuple(modulus))


# Readers of decoded JSON objects.  A value is named by its key path in
# the brick description, where + key (where is "field." inside the field
# object), and a missing key is reported as missing key '<path>'.

def json_item(obj, key: str, where: str = ""):
    if not isinstance(obj, dict):
        raise InputError(f"{where[:-1] or 'the brick description'} must be a JSON object")
    if key not in obj:
        raise InputError(f"missing key {where + key!r}")
    return obj[key]


def json_int(obj, key: str, where: str = "") -> int:
    """A JSON integer: floats, and booleans, which Python counts as ints,
    are refused."""
    x = json_item(obj, key, where)
    if type(x) is not int:
        raise InputError(f"{where + key!r} must be a JSON integer, got {json.dumps(x)}")
    return x


def json_ints(obj, key: str, where: str = "") -> list[int]:
    xs = json_item(obj, key, where)
    if not isinstance(xs, list) or any(type(x) is not int for x in xs):
        raise InputError(f"{where + key!r} must be a list of JSON integers")
    return xs
