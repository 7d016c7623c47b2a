"""Reference code that only the tests use.

The `cubeblocks` package holds what its command line runs.  The helpers
here build test inputs (random bricks, random linear extensions, random
polynomials), check them (the linear-extension checker), serve as
independent references (the row-major block assembly and its per-vertex
slot lookup, the column-loop assembly over any ring, the convolution
product in GF(p^m) and the x^t reduction rows it folds with, row kernels,
the unit-pivot elimination kernel, image tables, the census of a
RingMatrix block, the full-system census rank, the circulant determinant
formula, the two-product scalar and two-rank spectrum checks of the
sampled b3 claims, the full characteristic-polynomial check of the
symbolic b3 spectrum), re-derive an acceptance
criterion (the line-ordering search, gauges and symmetrization) or inject
a fault (a perturbed cube block).
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from cubeblocks import census, decomp3d, fieldmat, gf2, pointmap
from cubeblocks.decomp3d import assemble_cube, mixed_product_difference, thick_basis_rows
from cubeblocks.errors import InputError, SingularMatrixError, UnsupportedRingError
from cubeblocks.fields import FiniteField
from cubeblocks.lattice import BrickSpec, LatticeSpec
from cubeblocks.matrices import (
    RingMatrix, charpoly, mat_det, mat_inverse, mat_mul, rank, row_vec_mul, rref,
)
from cubeblocks.polys import MultiPoly, PolyRing, ShiftAlgebra


# ----------------------------------------------------------------------
# random inputs
# ----------------------------------------------------------------------

def random_brick(field: FiniteField, d: int, thin_dims, rng) -> BrickSpec:
    thin_dims = tuple(thin_dims)
    n = sum(thin_dims)
    m = RingMatrix(field, n, n, [field.sample(rng) for _ in range(n * n)])
    return BrickSpec(d, thin_dims, m)


def brick_to_json(brick: BrickSpec) -> dict:
    """The brick description that `BrickSpec.from_json` and the CLI read."""
    return {"d": brick.d, "thin_dims": list(brick.thin_dims),
            "field": brick.ring.to_json(), "entries": brick.matrix.to_rows()}


def vertices(spec: LatticeSpec) -> list[tuple[int, ...]]:
    """The lattice points in lexicographic order."""
    return list(itertools.product(range(spec.l), repeat=spec.d))


def layered_order(spec: LatticeSpec) -> list[tuple[int, ...]]:
    """The vertices in the order of spec.layers(): by coordinate sum,
    lexicographic within a sum."""
    return sorted(vertices(spec), key=lambda v: (sum(v), v))


def random_linear_extension(spec: LatticeSpec, rng: random.Random) -> list[tuple[int, ...]]:
    remaining = set(vertices(spec))
    order = []
    while remaining:
        # the placed vertices are closed downwards, so a remaining vertex
        # is minimal once every vertex it covers is placed
        minimal = [v for v in remaining
                   if all(v[:i] + (x - 1,) + v[i + 1:] not in remaining
                          for i, x in enumerate(v) if x > 0)]
        v = rng.choice(sorted(minimal))
        order.append(v)
        remaining.remove(v)
    return order


def check_linear_extension(spec: LatticeSpec, order) -> list[tuple[int, ...]]:
    """order as a list of tuples, or InputError when it is not a linear
    extension of the coordinatewise order on the lattice points."""
    order = [tuple(v) for v in order]
    expected = set(vertices(spec))
    if set(order) != expected or len(order) != len(expected):
        raise InputError("order is not a permutation of the lattice points")
    # the partial order is the transitive closure of its covers w = v - e_i,
    # so it is enough that each vertex comes after its covered vertices
    when = {v: t for t, v in enumerate(order)}
    for v in order:
        for i, x in enumerate(v):
            w = v[:i] + (x - 1,) + v[i + 1:]
            if x > 0 and when[w] > when[v]:
                raise InputError(f"order violates the lattice partial order at {w} -> {v}")
    return order


def poly_pow(x: MultiPoly, n: int) -> MultiPoly:
    """x^n for n >= 0 by repeated squaring."""
    result = MultiPoly.const(x.vars, x.char, 1)
    while n:
        if n & 1:
            result = result * x
        x = x * x
        n >>= 1
    return result


def sample_poly(ring: PolyRing, rng, max_terms: int = 5, max_deg: int = 3) -> MultiPoly:
    span = ring.char if ring.char else 7
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        e = tuple(rng.randrange(max_deg + 1) for _ in ring.vars)
        terms[e] = terms.get(e, 0) + rng.randrange(1, span)
    return MultiPoly(ring.vars, ring.char, terms)


# ----------------------------------------------------------------------
# block assembly
# ----------------------------------------------------------------------

def thick_position(spec: LatticeSpec, axis: int, vertex) -> int:
    """First global index of the thin-space copy on the line through
    vertex parallel to axis: the lines of the axis are enumerated by
    their transverse coordinates, sorted lex or colex, and counted; the
    axis blocks hold l^(d-1) slots each, in axis order."""
    lines = list(itertools.product(range(spec.l), repeat=spec.d - 1))
    if spec.ordering == "colex":
        lines.sort(key=lambda t: tuple(reversed(t)))
    slot = lines.index(tuple(x for j, x in enumerate(vertex) if j != axis))
    offset = len(lines) * sum(spec.thin_dims[:axis])
    return offset + slot * spec.thin_dims[axis]


def affected_indices(spec: LatticeSpec, vertex) -> list[int]:
    """Global indices touched by the embedding at vertex, in brick order."""
    idx = []
    for axis, t in enumerate(spec.thin_dims):
        base = thick_position(spec, axis, vertex)
        idx.extend(range(base, base + t))
    return idx


def row_major_assemble(brick: BrickSpec, spec: LatticeSpec, order) -> np.ndarray:
    """The block as an int64 coefficient array by the row-major kernel:
    one (n, n, m) accumulator in the product dtype; order is cut into runs
    of consecutive vertices with pairwise disjoint affected indices, and
    a run is a gather of acc[:, idx, :] across every row, one product with
    the regular representation of the brick, reduced mod p, and a
    scatter."""
    field = brick.ring
    n, km = spec.dimension, brick.matrix.rows * field.m
    dtype = fieldmat.product_dtype(field.p, km)
    acc = fieldmat.eye(field, n).astype(dtype)
    reg = fieldmat.regular(field, fieldmat.to_array(field, brick.matrix)).astype(dtype)
    runs, used = [], set()
    for v in order:
        idx = affected_indices(spec, v)
        if not runs or used.intersection(idx):
            runs.append([])
            used = set()
        runs[-1].extend(idx)
        used.update(idx)
    for idx in runs:
        cols = acc[:, idx, :].reshape(-1, km)
        acc[:, idx, :] = fieldmat.reduced_product(field.p, cols, reg).reshape(n, len(idx), -1)
    return acc.astype(np.int64)


def column_loop_assemble(brick: BrickSpec, spec: LatticeSpec) -> RingMatrix:
    """The block over any ring, one vertex at a time in the order of
    spec.layers(), each affected column rebuilt by its own multiply-add
    loop over the brick column."""
    ring = brick.ring
    n = spec.dimension
    acc = RingMatrix.identity(ring, n)
    k = brick.matrix.rows
    for idx in np.concatenate(spec.layers()).tolist():
        new_cols = []
        for b in range(k):
            col = [ring.zero] * n
            for a in range(k):
                coeff = brick.matrix[a, b]
                if coeff == ring.zero:
                    continue
                ca = idx[a]
                for r in range(n):
                    x = acc.data[r * n + ca]
                    if x != ring.zero:
                        col[r] = ring.add(col[r], ring.mul(x, coeff))
            new_cols.append(col)
        for b in range(k):
            cb = idx[b]
            col = new_cols[b]
            for r in range(n):
                acc.data[r * n + cb] = col[r]
    return acc


# ----------------------------------------------------------------------
# field products
# ----------------------------------------------------------------------

def reduction_rows(field: FiniteField) -> list[list[int]]:
    """x^t mod the modulus for t = m .. 2m-2, as coefficient lists, by the
    shift-and-fold recurrence: x^m is minus the lower coefficients of the
    modulus, and x^(t+1) is x^t shifted up one degree with its top
    coefficient folded back through the x^m row."""
    p, m = field.p, field.m
    rows, cur = [], [-c % p for c in field.modulus[:-1]]
    for _ in range(m - 1):
        rows.append(cur)
        cur = [(lo + cur[-1] * c) % p for lo, c in zip([0] + cur[:-1], rows[0])]
    return rows


def convolution_mul(field: FiniteField, a: int, b: int) -> int:
    """The product in GF(p^m) as a digit convolution reduced by the
    x^t mod modulus rows, O(m^2) scalar steps."""
    ca, cb = field.coeffs(a), field.coeffs(b)
    m, red = field.m, field.reduction_matrix.tolist()
    conv = [0] * (2 * m - 1)
    for i, ai in enumerate(ca):
        for j, bj in enumerate(cb):
            conv[i + j] += ai * bj
    res = conv[:m]
    for t in range(m, 2 * m - 1):
        for i in range(m):
            res[i] += conv[t] * red[t - m][i]
    x = 0
    for c in reversed(res):
        x = x * field.p + c % field.p
    return x


# ----------------------------------------------------------------------
# matrices
# ----------------------------------------------------------------------

def mat_add(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    """The entrywise sum of two matrices of one shape over one ring."""
    if (a.rows, a.cols) != (b.rows, b.cols) or a.ring != b.ring:
        raise InputError("shape or ring mismatch")
    return RingMatrix(a.ring, a.rows, a.cols,
                      [a.ring.add(x, y) for x, y in zip(a.data, b.data)])


def direct_sum(ms: list) -> RingMatrix:
    if not ms:
        raise InputError("direct sum of an empty list")
    ring = ms[0].ring
    rows = sum(m.rows for m in ms)
    cols = sum(m.cols for m in ms)
    out = RingMatrix.zeros(ring, rows, cols)
    r = c = 0
    for m in ms:
        if m.ring != ring:
            raise InputError("ring mismatch in direct sum")
        out.set_block(r, c, m)
        r += m.rows
        c += m.cols
    return out


def row_kernel(m: RingMatrix) -> list[list]:
    """Basis of {x : x @ m = 0} over a finite field, in RREF."""
    ring = m.ring
    if not isinstance(ring, FiniteField):
        raise UnsupportedRingError("row_kernel needs a finite field")
    # right nullspace of m^T
    red, pivots = rref(m.transpose())
    n = m.rows
    piv_set = set(pivots)
    free = [j for j in range(n) if j not in piv_set]
    basis = []
    for f in free:
        x = [ring.zero] * n
        x[f] = ring.one
        for r_i, pc in enumerate(pivots):
            # pivot coordinate determined by free coordinates
            x[pc] = ring.neg(red[r_i, f])
        basis.append(x)
    if not basis:
        return []
    normalized, _ = rref(RingMatrix.from_rows(ring, basis))
    return normalized.to_rows()


def gauge_conjugate(r: RingMatrix, gs: list[RingMatrix]) -> RingMatrix:
    """Conjugate by the block-diagonal matrix built from gs: G^-1 r G."""
    if sum(g.rows for g in gs) != r.rows or r.rows != r.cols:
        raise InputError("gauge blocks do not cover the matrix")
    g = direct_sum(gs)
    try:
        ginv = mat_inverse(g)
    except SingularMatrixError as exc:
        raise InputError(f"gauge factor is singular: {exc}") from exc
    return mat_mul(mat_mul(ginv, r), g)


def circulant_det_charp(field: FiniteField, first_row: list, size: int):
    """Determinant of the circulant with the given first row: when the
    size is a power of the characteristic, it is the size-th power of
    the row sum; otherwise fall back to plain elimination."""
    if len(first_row) != size:
        raise InputError("first row length must equal the size")
    s = size
    while s % field.p == 0:
        s //= field.p
    if s != 1:
        return mat_det(ShiftAlgebra(field, size, True).matrix(first_row))
    total = field.zero
    for x in first_row:
        total = field.add(total, x)
    return field.pow(total, size)


# ----------------------------------------------------------------------
# elimination with unit pivots, the reference for fieldmat's elimination
# ----------------------------------------------------------------------

def unit_pivot_clear(field: FiniteField, a: np.ndarray, r: int, c: int,
                     rows: np.ndarray) -> None:
    """Subtract from each of rows its column-c multiple of the unit-pivot
    row r, from column c rightwards (everything left of c is zero in r):
    the column entries times the pivot row's regular representation."""
    if rows.size:
        prod = fieldmat.mul_regular(field, a[rows, c:c + 1],
                                    fieldmat.regular(field, a[r:r + 1, c:]))
        a[rows, c:] = fieldmat.sub(field, a[rows, c:], prod)


def unit_pivot_forward(field: FiniteField, a: np.ndarray):
    """Forward elimination of a reduced array, in place.

    Each step swaps up the first row with a nonzero entry in the column,
    scales it to a unit pivot and clears the column below it.  Returns
    the pivot columns, the pivot values before scaling, the number of
    row swaps and the number of pivots that cleared at least one row."""
    nrows, ncols = a.shape[0], a.shape[1]
    pivots, values = [], []
    swaps = r = clearing = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(a[r:, c].any(axis=1))
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
            swaps += 1
        val = fieldmat._entry(field, a[r, c])
        inv = field.inv(val)
        if inv != field.one:
            reg = fieldmat.regular(field, fieldmat.scalar_matrix(field, 1, inv))
            a[r, c:] = fieldmat.mul_regular(field, a[r, c:, None], reg)[:, 0]
        below = r + 1 + np.flatnonzero(a[r + 1:, c].any(axis=1))
        clearing += bool(below.size)
        unit_pivot_clear(field, a, r, c, below)
        pivots.append(c)
        values.append(val)
        r += 1
    return pivots, values, swaps, clearing


def unit_pivot_rank(field: FiniteField, a: np.ndarray) -> int:
    return len(unit_pivot_forward(field, fieldmat._reduced(field, a))[0])


def unit_pivot_det(field: FiniteField, a: np.ndarray) -> int:
    pivots, values, swaps, _ = unit_pivot_forward(field, fieldmat._reduced(field, a))
    if len(pivots) < a.shape[0]:
        return field.zero
    out = field.neg(field.one) if swaps % 2 else field.one
    for v in values:
        out = field.mul(out, v)
    return out


def unit_pivot_rref(field: FiniteField, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    a = fieldmat._reduced(field, a)
    pivots = unit_pivot_forward(field, a)[0]
    for r in range(len(pivots) - 1, 0, -1):
        c = pivots[r]
        unit_pivot_clear(field, a, r, c, np.flatnonzero(a[:r, c].any(axis=1)))
    return a, pivots


def unit_pivot_inverse(field: FiniteField, a: np.ndarray) -> np.ndarray | None:
    """The inverse of a square array from the rref of [a | 1], or None
    when a is singular."""
    n = a.shape[0]
    red, pivots = unit_pivot_rref(field, np.concatenate([a, fieldmat.eye(field, n)], axis=1))
    return red[:, n:] if len([c for c in pivots if c < n]) == n else None


# ----------------------------------------------------------------------
# the brute-force map x -> x R as an image table
# ----------------------------------------------------------------------

MAP_GUARD = 1 << 20


class PointMap:
    """Image table of a map on q^N points."""

    def __init__(self, q: int, n: int, table: list[int]):
        bound = q ** n
        if len(table) != bound:
            raise InputError("image table length must be q^N")
        if min(table) < 0 or max(table) >= bound:
            raise InputError("image table entry out of range")
        self.q = q
        self.n = n
        self.table = table


def materialize_map(a: RingMatrix, guard: int = MAP_GUARD) -> PointMap:
    """The image table of x -> x a, from the oracle's chunked builder."""
    field = a.ring
    if not isinstance(field, FiniteField):
        raise InputError("point maps need a finite field matrix")
    if a.rows != a.cols:
        raise InputError("point maps need a square matrix")
    n, p, q = a.rows, field.p, field.q
    pointmap.check_points(q, n, guard)
    if q == 2:
        scaled = np.array([[0, row] for row in gf2.pack_rows(a)], dtype=np.uint64)
        parts = [table ^ offset for table, offset in pointmap._chunks(scaled, q, p)]
    else:
        # point index = sum of digit d of entry j * p^(j m + d)
        scaled = pointmap._digit_rows(field, a.to_rows(), n)
        weights = p ** np.arange(n * field.m)
        parts = [weights @ ((table + offset[:, None]) % p)
                 for table, offset in pointmap._chunks(scaled, q, p)]
    return PointMap(field.q, n, np.concatenate(parts).tolist())


# ----------------------------------------------------------------------
# censuses
# ----------------------------------------------------------------------

def census_of(r: RingMatrix, spec: LatticeSpec, bcs):
    """census.count_configs on the free rows of a RingMatrix block."""
    free = census.free_and_periodic(spec, bcs)[0]
    return census.count_configs(r.ring, fieldmat.to_array(r.ring, r)[free], spec, bcs)


def full_system_exponent(r: RingMatrix, spec: LatticeSpec, bcs) -> int:
    """The census exponent n - rank([R - I | E_Z]) from every constraint
    column: the Periodic columns of R - I and a selector column e_j for
    each ZeroInput slot j."""
    field, n = r.ring, r.rows
    rm1 = r - RingMatrix.identity(field, n)
    cols = []
    for axis, tag in enumerate(bcs.tags):
        for j in spec.block_range(axis):
            if tag == "Periodic":
                cols.append([rm1[i, j] for i in range(n)])
            elif tag == "ZeroInput":
                cols.append([field.one if i == j else field.zero for i in range(n)])
    return n - rank(RingMatrix.from_rows(field, cols).transpose())


# ----------------------------------------------------------------------
# characteristic 2: square roots, symmetrization, the line ordering
# ----------------------------------------------------------------------

def sqrt_char2(field: FiniteField, x: int) -> int:
    """The unique square root in characteristic 2: x^(2^(m-1))."""
    if field.p != 2:
        raise UnsupportedRingError("square roots via Frobenius need characteristic 2")
    return field.pow(x, 1 << (field.m - 1))


def matrix_grid(m: RingMatrix) -> list[list]:
    return [[m[i, j] for j in range(3)] for i in range(3)]


def symmetrize_brick(field: FiniteField, a: RingMatrix):
    """Gauge (1, sqrt(a21/a12), sqrt(a31/a13)) making the brick symmetric;
    requires the two triple products to agree and be nonzero."""
    if field.p != 2:
        raise InputError("symmetrization needs characteristic 2")
    grid = matrix_grid(a)
    pos = field.mul(field.mul(grid[0][1], grid[1][2]), grid[2][0])
    neg = field.mul(field.mul(grid[0][2], grid[2][1]), grid[1][0])
    if pos != neg:
        raise InputError("triple products differ; brick is not symmetrizable")
    if pos == field.zero:
        raise InputError("triple products vanish; brick is not symmetrizable")
    g = (field.one,
         sqrt_char2(field, field.div(grid[1][0], grid[0][1])),
         sqrt_char2(field, field.div(grid[2][0], grid[0][2])))
    out = RingMatrix.zeros(field, 3, 3)
    for i in range(3):
        for j in range(3):
            out[i, j] = field.mul(field.div(grid[i][j], g[i]), g[j])
    for i in range(3):
        for j in range(3):
            if out[i, j] != out[j, i]:
                raise RuntimeError("gauge failed to symmetrize the brick")
    return g, out


def resolve_line_ordering(seed: int = 2026, m: int = 16):
    """Recover the slot order of the four lines in each thick space by
    requiring the printed basis rows to satisfy their defining
    eigenvector and transfer relations at a random specialization.

    The search factorizes: axis 1 from the triple-product eigenvector
    conditions, then axes 2 and 3 from the single-block transfers."""
    field = FiniteField(2, m)
    rng = random.Random(seed)
    while True:
        a = [[field.sample_nonzero(rng) for _ in range(3)] for _ in range(3)]
        if mixed_product_difference(field, a) != field.zero:
            break
    sub = decomp3d._cube_sub(assemble_cube(field, a, 2), 4)
    m_op = sub(0, 1) @ sub(1, 2) @ sub(2, 0)
    t1, t2, t3 = thick_basis_rows(field, a)
    sq = lambda x: field.mul(x, x)
    lam1 = sq(field.mul(field.mul(a[0][2], a[2][1]), a[1][0]))
    lam2 = sq(field.mul(field.mul(a[0][1], a[1][2]), a[2][0]))

    def permuted(row, sigma):
        out = [field.zero] * 4
        for k in range(4):
            out[sigma[k]] = row[k]
        return out

    def scaled(row, c):
        return [field.mul(c, x) for x in row]

    def transfer_ok(rows_from, s_from, rows_to, s_to, block, coeff_f, coeff_e):
        v = row_vec_mul(permuted(rows_from[0], s_from), block)
        if v != scaled(permuted(rows_to[0], s_to), coeff_f):
            return False
        return all(
            row_vec_mul(permuted(rows_from[k], s_from), block)
            == scaled(permuted(rows_to[k], s_to), coeff_e)
            for k in (1, 2, 3))

    solutions = []
    for s1 in itertools.permutations(range(4)):
        f = permuted(t1[0], s1)
        if row_vec_mul(f, m_op) != scaled(f, lam1):
            continue
        if not all(row_vec_mul(permuted(t1[k], s1), m_op)
                   == scaled(permuted(t1[k], s1), lam2) for k in (1, 2, 3)):
            continue
        for s2 in itertools.permutations(range(4)):
            if not transfer_ok(t1, s1, t2, s2, sub(0, 1),
                               sq(a[1][0]), sq(a[0][1])):
                continue
            for s3 in itertools.permutations(range(4)):
                if transfer_ok(t1, s1, t3, s3, sub(0, 2),
                               sq(a[2][0]), sq(a[0][2])):
                    solutions.append((s1, s2, s3))
    if len(solutions) != 1:
        raise RuntimeError(f"line-ordering search found {len(solutions)} solutions")
    return solutions[0]


# ----------------------------------------------------------------------
# sampled b3 checks that compute every product and rank they compare
# ----------------------------------------------------------------------

def scalar_failure_two_products(field, p, trial, a, blocks, n, exponents):
    """decomp3d._scalar_failure_sampled with both pair products formed
    for every pair and compared before the scalar test."""
    for i in range(3):
        want = fieldmat.scalar_matrix(field, n, field.pow(a[i][i], p))
        if not np.array_equal(blocks[i, i], want):
            return {"trial": trial, "block": [i, i], "entries": a}
    for k, l in ((0, 1), (0, 2), (1, 2)):
        fwd = fieldmat.matmul(field, blocks[k, l], blocks[l, k])
        bwd = fieldmat.matmul(field, blocks[l, k], blocks[k, l])
        if not np.array_equal(fwd, bwd):
            return {"trial": trial, "pair": [k, l], "failed": "commutation"}
        s = fieldmat.scalar_of(field, fwd)
        if s is None:
            return {"trial": trial, "pair": [k, l], "failed": "scalar"}
        base = field.mul(a[k][l], a[l][k])
        power = field.one
        for t in range(1, 2 * p + 1):
            power = field.mul(power, base)
            if power == s:
                exponents.add(t)
                break
        else:
            return {"trial": trial, "pair": [k, l], "failed": "exponent"}
    return None


def spectrum_failure_two_ranks(field, p, trial, a, blocks, n):
    """decomp3d._spectrum_failure_sampled with both ranks eliminated."""
    m_arr = fieldmat.matmul(field, fieldmat.matmul(
        field, blocks[0, 1], blocks[1, 2]), blocks[2, 0])
    lam1 = field.pow(field.mul(field.mul(a[0][2], a[2][1]), a[1][0]), p)
    lam2 = field.pow(field.mul(field.mul(a[0][1], a[1][2]), a[2][0]), p)
    d1 = fieldmat.sub(field, m_arr, fieldmat.scalar_matrix(field, n, lam1))
    d2 = fieldmat.sub(field, m_arr, fieldmat.scalar_matrix(field, n, lam2))
    if np.any(fieldmat.matmul(field, d1, d2)):
        return {"trial": trial, "failed": "minimal polynomial"}
    expected = [p * (p - 1) // 2, p * (p + 1) // 2]
    observed = [fieldmat.rank(field, d2), fieldmat.rank(field, d1)]
    if observed != expected:
        return {"trial": trial, "failed": "multiplicities",
                "observed": observed, "expected": expected}
    return None


# ----------------------------------------------------------------------
# the symbolic b3 spectrum check against the whole characteristic polynomial
# ----------------------------------------------------------------------

def poly_coeffs_product(ring, roots_with_mult):
    """Coefficients (constant first) of prod (x - r)^mult over the ring;
    signs collapse in characteristic 2 and are tracked exactly otherwise."""
    coeffs = [ring.one]
    for root, mult in roots_with_mult:
        for _ in range(mult):
            nxt = [ring.zero] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] = ring.add(nxt[i + 1], c)
                nxt[i] = ring.sub(nxt[i], ring.mul(root, c))
            coeffs = nxt
    return coeffs


def spectrum_failure_full_charpoly(ring, a, sub):
    """decomp3d._spectrum_failure_symbolic with every coefficient of the
    characteristic polynomial compared to (x - lam1)(x - lam2)^3."""
    m_op = sub(0, 1) @ sub(1, 2) @ sub(2, 0)
    sq = lambda x: ring.mul(x, x)
    lam1 = sq(ring.mul(ring.mul(a[0][2], a[2][1]), a[1][0]))
    lam2 = sq(ring.mul(ring.mul(a[0][1], a[1][2]), a[2][0]))
    id4 = RingMatrix.identity(ring, 4)
    quad = (m_op - id4.scalar_mul(lam1)) @ (m_op - id4.scalar_mul(lam2))
    if quad != RingMatrix.zeros(ring, 4, 4):
        return {"failed": "minimal polynomial"}
    if charpoly(m_op) != poly_coeffs_product(ring, [(lam1, 1), (lam2, 3)]):
        return {"failed": "characteristic polynomial"}
    return None


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------

def perturb_cube(monkeypatch, call=1, entry=(9, 7)):
    """Add one to the given entry of the block that the call-th
    assemble_cube returns, so that a check on that entry must fail."""
    assemble, calls = decomp3d.assemble_cube, []

    def perturbed(ring, a, l):
        blk = assemble(ring, a, l)
        calls.append(None)
        if len(calls) == call:
            blk[entry] = ring.add(blk[entry], ring.one)
        return blk

    monkeypatch.setattr(decomp3d, "assemble_cube", perturbed)
