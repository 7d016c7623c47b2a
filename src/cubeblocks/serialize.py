"""JSON forms for matrices over finite fields."""

from __future__ import annotations

from .errors import InputError
from .fields import FiniteField
from .matrices import RingMatrix


def matrix_to_json(m: RingMatrix) -> dict:
    if not isinstance(m.ring, FiniteField):
        raise InputError("only finite-field matrices serialize to JSON")
    return {"rows": m.rows, "cols": m.cols,
            "ring": m.ring.to_json(), "entries": m.to_rows()}

