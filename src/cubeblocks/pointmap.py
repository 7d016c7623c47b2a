"""Permutation-type operators as maps on finite point sets.

A matrix over GF(q) acting on row vectors of length N induces a map on
the q^N points of the vector space.  Points are indexed little-endian in
base q by slot: index = sum x_slot * q^slot.  These maps are the
combinatorial ground truth that the linear-algebra counting is checked
against.
"""

from __future__ import annotations

from .errors import InputError, ResourceLimitError
from .fields import FiniteField
from .matrices import RingMatrix, row_vec_mul
from . import gf2

MAP_GUARD = 1 << 20
CENSUS_GUARD = 1 << 22


def point_to_vector(field: FiniteField, idx: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        out.append(idx % field.q)
        idx //= field.q
    return out


def vector_to_point(field: FiniteField, vec) -> int:
    idx = 0
    for x in reversed(list(vec)):
        idx = idx * field.q + x
    return idx


class PointMap:
    """Image table of a map on q^N points."""

    def __init__(self, q: int, n: int, table: list[int]):
        if len(table) != q ** n:
            raise InputError("image table length must be q^N")
        if any(not 0 <= t < q ** n for t in table):
            raise InputError("image table entry out of range")
        self.q = q
        self.n = n
        self.table = table

    def __call__(self, idx: int) -> int:
        return self.table[idx]

    def image_size(self) -> int:
        return len(set(self.table))

    def compose(self, other: "PointMap") -> "PointMap":
        """self followed by other (matching x -> (x A) B)."""
        if (self.q, self.n) != (other.q, other.n):
            raise InputError("maps live on different point sets")
        return PointMap(self.q, self.n, [other.table[t] for t in self.table])

    def __eq__(self, other):
        if not isinstance(other, PointMap):
            return NotImplemented
        return (self.q, self.n, self.table) == (other.q, other.n, other.table)


def materialize_map(a: RingMatrix, guard: int = MAP_GUARD) -> PointMap:
    field = a.ring
    if not isinstance(field, FiniteField):
        raise InputError("point maps need a finite field matrix")
    if a.rows != a.cols:
        raise InputError("point maps need a square matrix")
    n = a.rows
    total = field.q ** n
    if total > guard:
        raise ResourceLimitError(f"q^N = {total} exceeds the guard {guard}")
    if field.q == 2:
        rows = gf2.pack_rows(a)
        table = [0] * total
        for x in range(1, total):
            low = (x & -x).bit_length() - 1
            table[x] = table[x & (x - 1)] ^ rows[low]
        return PointMap(2, n, table)
    table = []
    for idx in range(total):
        vec = point_to_vector(field, idx, n)
        table.append(vector_to_point(field, row_vec_mul(vec, a)))
    return PointMap(field.q, n, table)


def direct_sum_map(f: PointMap, g: PointMap) -> PointMap:
    """Map of a direct sum: Cartesian product on the little-endian index
    set, first summand in the low digits."""
    if f.q != g.q:
        raise InputError("maps live over different fields")
    q, n1, n2 = f.q, f.n, g.n
    block = q ** n1
    table = []
    for j in range(q ** n2):
        gj = g.table[j] * block
        for i in range(q ** n1):
            table.append(f.table[i] + gj)
    return PointMap(q, n1 + n2, table)


def check_operator_laws(mats: list[RingMatrix], guard: int = MAP_GUARD):
    """Identity -> identity map, product -> composition, direct sum ->
    product map.  Returns (True, None) or (False, witness description)."""
    if not mats:
        raise InputError("need at least one matrix")
    field = mats[0].ring
    ident = RingMatrix.identity(field, mats[0].rows)
    id_map = materialize_map(ident, guard)
    if id_map.table != list(range(len(id_map.table))):
        return False, {"law": "identity", "point": next(
            i for i, t in enumerate(id_map.table) if t != i)}
    for a in mats:
        for b in mats:
            if a.cols != b.rows or a.ring != b.ring:
                continue
            lhs = materialize_map(a @ b, guard)
            rhs = materialize_map(a, guard).compose(materialize_map(b, guard))
            if lhs != rhs:
                bad = next(i for i in range(len(lhs.table))
                           if lhs.table[i] != rhs.table[i])
                return False, {"law": "product", "point": bad}
            from .matrices import direct_sum
            lhs = materialize_map(direct_sum([a, b]), guard)
            rhs = direct_sum_map(materialize_map(a, guard), materialize_map(b, guard))
            if lhs != rhs:
                bad = next(i for i in range(len(lhs.table))
                           if lhs.table[i] != rhs.table[i])
                return False, {"law": "direct_sum", "point": bad}
    return True, None


# ----------------------------------------------------------------------
# Brute-force configuration counting
# ----------------------------------------------------------------------

def _satisfies(bcs, profile, x: list[int], y: list[int]) -> bool:
    for axis, tag in enumerate(bcs.tags):
        rng_ = profile.block_profile.block_range(axis)
        if tag == "Periodic":
            if any(y[j] != x[j] for j in rng_):
                return False
        elif tag == "ZeroInput":
            if any(x[j] for j in rng_):
                return False
        elif tag != "Free":
            raise InputError(f"unknown boundary tag {tag!r}")
    return True


def brute_force_census(r: RingMatrix, profile, bcs, guard: int = CENSUS_GUARD):
    """Count permitted configurations by enumerating every input vector.

    The count is always a power of q (the constraints are linear); the
    exponent is returned via census.ConfigCount.
    """
    from .census import ConfigCount
    field = r.ring
    if not isinstance(field, FiniteField):
        raise InputError("census needs a finite field matrix")
    n = r.rows
    total = field.q ** n
    if total > guard:
        raise ResourceLimitError(f"q^N = {total} exceeds the guard {guard}")
    count = 0
    if field.q == 2:
        rows = gf2.pack_rows(r)
        masks = []
        for axis, tag in enumerate(bcs.tags):
            m = 0
            for j in profile.block_profile.block_range(axis):
                m |= 1 << j
            masks.append(m)
        # incremental image table: flipping one input bit XORs one row
        ys = [0] * total
        for x in range(1, total):
            low = (x & -x).bit_length() - 1
            ys[x] = ys[x & (x - 1)] ^ rows[low]
        for x in range(total):
            y = ys[x]
            ok = True
            for tag, m in zip(bcs.tags, masks):
                if tag == "Periodic":
                    if (x ^ y) & m:
                        ok = False
                        break
                elif tag == "ZeroInput":
                    if x & m:
                        ok = False
                        break
            if ok:
                count += 1
    else:
        for idx in range(total):
            x = point_to_vector(field, idx, n)
            y = row_vec_mul(x, r)
            if _satisfies(bcs, profile, x, y):
                count += 1
    e = 0
    c = count
    while c > 1:
        if c % field.q:
            raise RuntimeError(
                f"census count {count} is not a power of q = {field.q}")
        c //= field.q
        e += 1
    if count == 0:
        raise RuntimeError("census count is zero; constraints are linear, "
                           "the zero configuration always satisfies them")
    return ConfigCount(field.p, field.q, e)


def propagate_configuration(brick, spec, profile, order, x: list[int]) -> list[int]:
    """Run the local dynamics: lines carry values, each vertex applies the
    brick map to the values of the d lines through it, in assembly order.
    The final line values must equal x @ R for the assembled block R."""
    field = brick.ring
    state = list(x)
    off = brick.profile.offsets
    d = spec.d
    for v in order:
        pos = [profile.position(i, v) for i in range(d)]
        idx = []
        for i in range(d):
            idx.extend(pos[i] + s for s in range(spec.thin_dims[i]))
        local = [state[g] for g in idx]
        new = [field.zero] * len(local)
        for a in range(len(local)):
            if local[a] == field.zero:
                continue
            for b in range(len(local)):
                coeff = brick.matrix[a, b]
                if coeff != field.zero:
                    new[b] = field.add(new[b], field.mul(local[a], coeff))
        for g, val in zip(idx, new):
            state[g] = val
    return state
