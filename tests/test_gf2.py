"""Packed rows must carry the entries of the generic matrix bit for bit."""

import random

from cubeblocks.fields import FiniteField
from cubeblocks.gf2 import pack_rows
from cubeblocks.matrices import RingMatrix

F2 = FiniteField(2)


def test_pack_rows_bits_match_entries():
    rng = random.Random(1)
    for _ in range(20):
        nr, nc = rng.randrange(1, 9), rng.randrange(1, 9)
        m = RingMatrix(F2, nr, nc, [rng.randrange(2) for _ in range(nr * nc)])
        rows = pack_rows(m)
        assert len(rows) == nr
        assert all(rows[i] >> nc == 0 for i in range(nr))
        assert all((rows[i] >> j) & 1 == m[i, j] for i in range(nr) for j in range(nc))
