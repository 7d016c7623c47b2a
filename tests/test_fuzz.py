"""Malformed brick JSON must end in exit code 0, 1 or 2, never an exception."""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from cubeblocks.cli import main
from cubeblocks.fields import find_irreducible

# Leaves of any JSON type, huge and non-finite numbers included.
LEAF = st.one_of(
    st.integers(min_value=-3, max_value=12),
    st.integers(min_value=-(1 << 80), max_value=1 << 80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e400, -1e400, 1e300, 2.5]),
    st.text(max_size=3), st.booleans(), st.none(),
    st.lists(st.integers(0, 3), max_size=2))

# Replacements for p and m: small integers or junk, never a large finite
# number, so no slow primality test or irreducible-polynomial search runs.
SMALL = st.one_of(st.integers(-3, 13), st.sampled_from([1e400, -1e400, float("nan"), 2.5]),
                  st.text(max_size=3), st.booleans(), st.none())


@st.composite
def bricks(draw):
    """A valid brick over GF(p^m) with p <= 13 and m <= 4, then a few
    corruptions: a key dropped, a leaf replaced, a row made ragged, or a
    level of nesting added or removed."""
    d = draw(st.integers(1, 4))
    thin = draw(st.lists(st.integers(1, 2), min_size=d, max_size=d))
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    m = draw(st.integers(1, 4))
    n = sum(thin)
    entries = draw(st.lists(st.lists(st.integers(0, min(p ** m, 50) - 1),
                                     min_size=n, max_size=n), min_size=n, max_size=n))
    brick = {"d": d, "thin_dims": thin, "entries": entries,
             "field": {"p": p, "m": m, "modulus": list(find_irreducible(p, m))}}
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["drop", "leaf", "field", "entry", "ragged", "nest"]))
        if kind == "drop":
            brick.pop(draw(st.sampled_from(sorted(brick))), None)
        elif kind == "leaf":
            brick[draw(st.sampled_from(["d", "thin_dims", "field", "entries"]))] = draw(LEAF)
        elif kind == "field" and isinstance(brick.get("field"), dict):
            key = draw(st.sampled_from(["p", "m", "modulus"]))
            brick["field"][key] = draw(LEAF if key == "modulus" else SMALL)
        elif kind in ("entry", "ragged", "nest") and brick.get("entries"):
            rows = brick["entries"]
            if not isinstance(rows, list) or not all(isinstance(r, list) and r for r in rows):
                continue
            i = draw(st.integers(0, len(rows) - 1))
            if kind == "entry":
                rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(LEAF)
            elif kind == "ragged":
                rows[i] = rows[i][:-1]
            else:
                rows[i] = draw(st.sampled_from([[rows[i]], rows[i][0]]))
    return brick


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(bricks(), st.sampled_from(["census", "evolve"]))
def test_brick_json_never_raises(brick, command):
    text = json.dumps(brick)
    assert _run([command, "--brick", text, "--no-timestamp"]) in (0, 1, 2)
