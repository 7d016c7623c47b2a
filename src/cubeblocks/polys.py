"""Sparse multivariate polynomials over F_p or the integers, and the
shift algebras base[t]/(t^l - 1) and base[t]/(t^l) over any ring.

A polynomial is a map from exponent vectors to nonzero coefficients.
The coefficient ring is tagged by ``char``: 0 means integer coefficients
(Python ints, so no overflow), a prime p means F_p.  Terms are stored
in no particular order and printed in graded-lexicographic order.
"""

from __future__ import annotations

from .errors import InputError
from .fields import FiniteField
from .matrices import RingMatrix


class MultiPoly:
    __slots__ = ("vars", "char", "terms")

    def __init__(self, variables: tuple[str, ...], char: int, terms: dict):
        self.vars = tuple(variables)
        self.char = char
        cleaned = {}
        for e, c in terms.items():
            if char:
                c %= char
            if c:
                cleaned[tuple(e)] = c
        self.terms = cleaned

    # -- constructors --------------------------------------------------

    @classmethod
    def const(cls, variables, char, c):
        return cls(variables, char, {(0,) * len(variables): c})

    @classmethod
    def gen(cls, variables, char, name):
        variables = tuple(variables)
        if name not in variables:
            raise InputError(f"unknown variable {name!r}")
        e = [0] * len(variables)
        e[variables.index(name)] = 1
        return cls(variables, char, {tuple(e): 1})

    # -- ring structure ------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars or self.char != other.char:
            raise InputError("polynomials belong to different rings")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MultiPoly(self.vars, self.char, out)

    def __neg__(self):
        return MultiPoly(self.vars, self.char, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MultiPoly(self.vars, self.char, out)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.vars, self.char, self.terms) == (other.vars, other.char, other.terms)

    # -- queries -------------------------------------------------------

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def monomial_quotient(self, other: "MultiPoly") -> "MultiPoly | None":
        """Exact quotient self / other when other is a single term, else None."""
        self._check(other)
        if len(other.terms) != 1:
            return None
        (de, dc), = other.terms.items()
        out = {}
        for e, c in self.terms.items():
            q = tuple(a - b for a, b in zip(e, de))
            if any(x < 0 for x in q):
                return None
            if self.char:
                c = c * pow(dc, self.char - 2, self.char) % self.char
            else:
                if c % dc:
                    return None
                c = c // dc
            out[q] = c
        return MultiPoly(self.vars, self.char, out)

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
        # cache powers per variable up to the needed exponent
        maxdeg = [0] * len(self.vars)
        for e in self.terms:
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
        for e, c in self.terms.items():
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
        parts = []
        # graded lex, highest first
        for e, c in sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]),
                           reverse=True):
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
