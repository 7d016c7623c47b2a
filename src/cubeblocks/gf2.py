"""Bit-packed GF(2) rows for the q=2 enumeration.

A row is a Python int with bit j = entry in column j, so row addition is
a single XOR regardless of width.
"""

from __future__ import annotations

from .matrices import RingMatrix


def pack_rows(m: RingMatrix) -> list[int]:
    rows = []
    for i in range(m.rows):
        acc = 0
        for j in range(m.cols):
            if m[i, j]:
                acc |= 1 << j
        rows.append(acc)
    return rows
