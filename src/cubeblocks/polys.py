"""Sparse multivariate polynomials over F_p or the integers, and the
shift algebras base[t]/(t^l - 1) and base[t]/(t^l) over any ring.

A polynomial is a map from monomials to nonzero coefficients.  The
coefficient ring is tagged by ``char``: 0 means integer coefficients
(Python ints, so no overflow), a prime p means F_p.

A monomial is one packed int (Monagan and Pearce, CASC 2007): each
variable has a 16-bit field, the first variable in the most significant
one, so numeric order on the packed ints is lexicographic order on the
exponent vectors.  Exponents lie in [0, 2^15); the top bit of each field
is a guard.  Multiplying monomials adds their ints, and a field that
reaches 2^15 sets its guard bit, which the product refuses.  Dividing
sets every guard bit first, (e | G) - d, and a guard bit that the
subtraction clears marks an exponent that would go negative.  Terms are
stored in no particular order and printed in graded-lexicographic order.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import or_

from .errors import InputError
from .fields import FiniteField
from .matrices import RingMatrix

_BITS = 16
_LIMIT = 1 << _BITS - 1  # exponents lie in [0, _LIMIT)
_MASK = (1 << _BITS) - 1


def _pack(e: tuple[int, ...]) -> int:
    k = 0
    for x in e:
        k = k << _BITS | x
    return k


def _unpack(k: int, n: int) -> tuple[int, ...]:
    return tuple(k >> _BITS * i & _MASK for i in range(n - 1, -1, -1))


@lru_cache(maxsize=None)
def _guard(n: int) -> int:
    """The guard bits of n packed exponents."""
    return _pack((_LIMIT,) * n)


def _clean(char: int, terms: dict) -> dict:
    """terms without zero coefficients, reduced mod char when char > 0."""
    if char:
        return {k: r for k, c in terms.items() if (r := c % char)}
    return {k: c for k, c in terms.items() if c}


class MultiPoly:
    __slots__ = ("vars", "char", "terms")

    def __init__(self, variables: tuple[str, ...], char: int, terms: dict):
        """terms maps exponent tuples, one exponent per variable, to
        coefficients."""
        variables = tuple(variables)
        packed = {}
        for e, c in terms.items():
            e = tuple(e)
            if len(e) != len(variables):
                raise InputError(f"exponent {e} does not match the variables {variables}")
            if any(not 0 <= x < _LIMIT for x in e):
                raise InputError(f"exponent {e} is outside [0, {_LIMIT})")
            packed[_pack(e)] = c
        self.vars = variables
        self.char = char
        self.terms = _clean(char, packed)

    @classmethod
    def _packed(cls, variables, char, packed: dict) -> "MultiPoly":
        """The polynomial of packed monomials; variables is a tuple."""
        out = object.__new__(cls)
        out.vars = variables
        out.char = char
        out.terms = _clean(char, packed)
        return out

    # -- constructors --------------------------------------------------

    @classmethod
    def const(cls, variables, char, c):
        return cls._packed(tuple(variables), char, {0: c})

    @classmethod
    def gen(cls, variables, char, name):
        variables = tuple(variables)
        if name not in variables:
            raise InputError(f"unknown variable {name!r}")
        shift = _BITS * (len(variables) - 1 - variables.index(name))
        return cls._packed(variables, char, {1 << shift: 1})

    # -- ring structure ------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars or self.char != other.char:
            raise InputError("polynomials belong to different rings")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return MultiPoly._packed(self.vars, self.char, out)

    def __neg__(self):
        return MultiPoly._packed(self.vars, self.char,
                                 {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        out: dict = {}
        get = out.get
        right = other.terms.items()
        for k1, c1 in self.terms.items():
            for k2, c2 in right:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        if reduce(or_, out, 0) & _guard(len(self.vars)):
            raise InputError(f"an exponent of the product reaches {_LIMIT}")
        return MultiPoly._packed(self.vars, self.char, out)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.vars, self.char, self.terms) == (other.vars, other.char, other.terms)

    # -- queries -------------------------------------------------------

    def total_degree(self) -> int:
        n = len(self.vars)
        return max((sum(_unpack(k, n)) for k in self.terms), default=0)

    def monomial_quotient(self, other: "MultiPoly") -> "MultiPoly | None":
        """Exact quotient self / other when other is a single term, else None."""
        self._check(other)
        if len(other.terms) != 1:
            return None
        (d, dc), = other.terms.items()
        guard = _guard(len(self.vars))
        if self.char:
            dinv = pow(dc, self.char - 2, self.char)
        out = {}
        for k, c in self.terms.items():
            q = (k | guard) - d
            if q & guard != guard:
                return None
            if self.char:
                c = c * dinv
            else:
                if c % dc:
                    return None
                c = c // dc
            out[q ^ guard] = c
        return MultiPoly._packed(self.vars, self.char, out)

    # -- evaluation ----------------------------------------------------

    def specialize(self, assignment: dict, field: FiniteField) -> int:
        """Value at a point, as a field element.

        Integer coefficients reduce mod the characteristic; F_p
        coefficients require a matching characteristic.
        """
        if self.char and self.char != field.p:
            raise InputError(
                f"cannot specialize char-{self.char} coefficients into {field!r}")
        for v in self.vars:
            if v not in assignment:
                raise InputError(f"assignment missing variable {v!r}")
        point = [assignment[v] for v in self.vars]
        n = len(self.vars)
        terms = [(_unpack(k, n), c) for k, c in self.terms.items()]
        # cache powers per variable up to the needed exponent
        maxdeg = [0] * n
        for e, _ in terms:
            for i, x in enumerate(e):
                if x > maxdeg[i]:
                    maxdeg[i] = x
        powers = []
        for i, x in enumerate(point):
            row = [field.one]
            for _ in range(maxdeg[i]):
                row.append(field.mul(row[-1], x))
            powers.append(row)
        acc = field.zero
        for e, c in terms:
            term = field.from_int(c)
            for i, x in enumerate(e):
                if x:
                    term = field.mul(term, powers[i][x])
            acc = field.add(acc, term)
        return acc

    # -- display ---------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        n = len(self.vars)
        parts = []
        # graded lex, highest first; packed order is lex order
        terms = [(_unpack(k, n), k, c) for k, c in self.terms.items()]
        for e, _, c in sorted(terms, key=lambda t: (sum(t[0]), t[1]), reverse=True):
            mono = "*".join(f"{v}^{x}" if x > 1 else v
                            for v, x in zip(self.vars, e) if x)
            if mono and c == 1:
                parts.append(mono)
            elif mono:
                parts.append(f"{c}*{mono}")
            else:
                parts.append(str(c))
        return " + ".join(parts)


class PolyRing:
    """Ring object over MultiPoly elements (char 0 = integers)."""

    def __init__(self, variables, char: int = 0):
        self.vars = tuple(variables)
        self.char = char
        self.zero = MultiPoly(self.vars, char, {})
        self.one = MultiPoly.const(self.vars, char, 1)

    def gen(self, name: str) -> MultiPoly:
        return MultiPoly.gen(self.vars, self.char, name)

    def gens(self) -> list[MultiPoly]:
        return [self.gen(v) for v in self.vars]

    def const(self, c) -> MultiPoly:
        return MultiPoly.const(self.vars, self.char, c)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def __eq__(self, other):
        return (isinstance(other, PolyRing)
                and (self.vars, self.char) == (other.vars, other.char))

    def __repr__(self):
        base = "Z" if self.char == 0 else f"F_{self.char}"
        return f"{base}[{', '.join(self.vars)}]"


class ShiftAlgebra:
    """The commutative algebra base[t]/(t^l - 1) (periodic) or
    base[t]/(t^l) over a ring, with elements as coefficient tuples
    (c_0, ..., c_{l-1}); the product is cyclic or truncated convolution.

    In the regular representation t is the l x l superdiagonal shift
    (closed into a cycle when periodic), so every element is a circulant
    or an upper triangular Toeplitz matrix; ``matrix`` gives it."""

    def __init__(self, base, l: int, periodic: bool):
        self.base = base
        self.l = l
        self.periodic = periodic
        self.zero = (base.zero,) * l
        self.one = self.scalar(base.one)

    def scalar(self, c) -> tuple:
        return (c,) + (self.base.zero,) * (self.l - 1)

    def is_scalar(self, a) -> bool:
        return all(c == self.base.zero for c in a[1:])

    def add(self, a, b):
        add = self.base.add
        return tuple(add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        sub = self.base.sub
        return tuple(sub(x, y) for x, y in zip(a, b))

    def mul(self, a, b):
        base, l = self.base, self.l
        zero = base.zero
        out = [zero] * l
        for i, x in enumerate(a):
            if x == zero:
                continue
            for j, y in enumerate(b):
                k = i + j
                if k >= l:
                    if not self.periodic:
                        break
                    k -= l
                if y != zero:
                    out[k] = base.add(out[k], base.mul(x, y))
        return tuple(out)

    def matrix(self, a) -> RingMatrix:
        """Regular representation: entry (i, j) is the coefficient of
        t^(j - i), the exponent taken mod l when periodic and the entry
        zero below the diagonal otherwise."""
        l, zero = self.l, self.base.zero
        if self.periodic:
            rows = [[a[(j - i) % l] for j in range(l)] for i in range(l)]
        else:
            rows = [[a[j - i] if j >= i else zero for j in range(l)]
                    for i in range(l)]
        return RingMatrix.from_rows(self.base, rows)

    def __eq__(self, other):
        return (isinstance(other, ShiftAlgebra)
                and (self.base, self.l, self.periodic)
                == (other.base, other.l, other.periodic))

    def __repr__(self):
        rel = f"t^{self.l} - 1" if self.periodic else f"t^{self.l}"
        return f"{self.base!r}[t]/({rel})"
