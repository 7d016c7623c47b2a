"""The package is what the CLI runs: a fixed set of CLI calls, run under
``sys.setprofile``, must enter every function defined in src/cubeblocks.

Code that only tests use belongs in tests/reference.py.  The exceptions
are listed in ALLOWED with their reasons; an entry that the calls do
reach, or that names no function, fails the test too, so the list stays
exact.
"""

import contextlib
import inspect
import io
import json
import sys
import types
from pathlib import Path

import cubeblocks
from cubeblocks import cli, fields

PKG = Path(cubeblocks.__file__).resolve().parent

# span targets of bench/spans.py stay in the package, with their bodies,
# for as long as the benchmark traces them
TRACED = "traced by name in bench/spans.py"
ALLOWED = {
    "identity.random_identity_check": TRACED,
    "identity._poly_vars": "called only by random_identity_check",
    "identity._degree_bound": "called only by random_identity_check",
    "polys.MultiPoly.total_degree": "called only by random_identity_check",
    "polys.MultiPoly.specialize": "called only by random_identity_check",
    "fields.FiniteField.from_int": "called only by random_identity_check and "
                                   "MultiPoly.specialize",
    "dim4.shift_matrix": TRACED,
    "matrices.rref": TRACED,
    "matrices.mat_inverse": TRACED,
    "fieldmat.rref": TRACED + "; called only by matrices.rref and mat_inverse",
}


def _brick(p, m, rows, d=None):
    field = fields.FiniteField(p, m)
    d = d or len(rows)
    return json.dumps({"d": d, "thin_dims": [1] * d, "field": field.to_json(),
                       "entries": rows})


GEN3 = [[3, 5, 9], [7, 11, 13], [17, 19, 23]]
SYM3 = [[3, 5, 9], [5, 11, 13], [9, 13, 23]]
B4 = [[3, 5, 9, 2], [7, 11, 13, 4], [17, 19, 23, 6], [1, 2, 3, 0]]
# b44 = 1 is a root of unity, so the periodic chain is degenerate
B4_DEGENERATE = [[3, 5, 9, 2], [7, 11, 13, 4], [17, 19, 23, 6], [1, 2, 3, 1]]
CALLS = [
    ["verify", "all"],
    ["verify", "b3", "--p", "3", "--trials", "1"],
    ["verify", "2d", "--format", "csv"],
    ["assemble", "--brick", _brick(2, 2, [[1, 2, 3], [2, 3, 1], [3, 1, 2]])],
    ["assemble", "--brick", _brick(2, 2, [[1, 2, 3], [2, 3, 1], [3, 1, 2]]),
     "--ordering", "colex"],
    ["census", "--brick", _brick(2, 1, [[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
     "--bcs", "Periodic,ZeroInput,Free", "--oracle", "--cap-points", "4096"],
    ["census", "--brick", _brick(3, 1, [[1, 2], [2, 2]]), "--bcs",
     "Periodic,ZeroInput", "--oracle"],
    ["evolve", "--brick", _brick(2, 8, [[3, 5], [7, 11]]), "--steps", "2"],
    ["evolve", "--brick", _brick(2, 8, GEN3)],
    ["evolve", "--brick", _brick(2, 8, SYM3)],
    ["evolve", "--brick", _brick(3, 1, [[1, 2], [2, 2]])],
    ["reduce4d", "--brick", _brick(2, 8, B4), "--case", "Periodic4"],
    ["reduce4d", "--brick", _brick(2, 8, B4), "--case", "ZeroInput4"],
    ["reduce4d", "--brick", _brick(2, 8, B4_DEGENERATE), "--case", "Periodic4"],
    ["reduce4d", "--brick", _brick(3, 2, [[3, 5, 8, 2], [7, 1, 3, 4], [1, 2, 2, 6],
                                           [1, 2, 3, 0]])],
]


def _defined() -> dict:
    """(file, first line) -> module.qualname of every function in the
    package, nested functions and dunder methods included; __repr__ is
    left out, since only a person reading an object calls it."""
    out = {}

    def walk(code, prefix):
        for c in code.co_consts:
            if not isinstance(c, types.CodeType):
                continue
            if c.co_name.startswith("<"):  # lambdas and comprehensions
                walk(c, prefix)
            elif c.co_flags & inspect.CO_OPTIMIZED:  # a function
                name = prefix + c.co_name
                if c.co_name != "__repr__":
                    out[c.co_filename, c.co_firstlineno] = name
                walk(c, name + ".<locals>.")
            else:  # a class body
                walk(c, prefix + c.co_name + ".")

    for path in sorted(PKG.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem + ".")
    return out


def _entered() -> set:
    # a cached result would skip a function body, so start from cold caches
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "cubeblocks":
            continue
        for obj in vars(module).values():
            members = vars(obj).values() if isinstance(obj, type) else ()
            for fn in (obj, *members):
                if callable(getattr(fn, "cache_clear", None)):
                    fn.cache_clear()
    codes_seen = set()

    def profile(frame, event, arg):
        if event == "call":
            codes_seen.add(frame.f_code)

    exits = []
    sys.setprofile(profile)
    try:
        for argv in CALLS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                exits.append(cli.main([*argv, "--no-timestamp"]))
    finally:
        sys.setprofile(None)
    assert exits == [0] * len(CALLS)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in codes_seen}


def test_cli_enters_every_package_function():
    defined = _defined()
    entered = _entered()
    missed = {name for key, name in defined.items() if key not in entered}
    assert sorted(missed - set(ALLOWED)) == []
    assert sorted(set(ALLOWED) - missed) == []
