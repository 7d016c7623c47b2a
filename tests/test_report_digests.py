"""Reports are byte-identical across refactors: a fixed list of
``--no-timestamp`` CLI calls must reproduce the SHA-256 of their stdout,
their stderr and their exit code recorded in report_digests.json.

A change that alters a report on purpose regenerates the file with
``PYTHONPATH=src python tests/test_report_digests.py`` and says why in its
description.  The script prints the name of each entry whose digest
changed and rewrites the file only when one did.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from cubeblocks import cli, fields

DIGESTS = Path(__file__).with_name("report_digests.json")


def _brick(p, m, rows, d=None):
    field = fields.FiniteField(p, m)
    d = d or len(rows)
    return json.dumps({"d": d, "thin_dims": [1] * d, "field": field.to_json(),
                       "entries": rows})


GF2_CUBE = _brick(2, 1, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
GF4_CUBE = _brick(2, 2, [[1, 2, 3], [2, 3, 1], [3, 1, 2]])
GEN3 = _brick(2, 8, [[3, 5, 9], [7, 11, 13], [17, 19, 23]])
SYM3 = _brick(2, 8, [[3, 5, 9], [5, 11, 13], [9, 13, 23]])
B4 = _brick(2, 8, [[12, 200, 7, 33], [5, 91, 140, 2], [250, 3, 66, 17],
                   [9, 128, 45, 77]])
# b44 = 1 is a root of unity, so the periodic chain is degenerate
B4_DEGENERATE = _brick(2, 8, [[3, 5, 9, 2], [7, 11, 13, 4], [17, 19, 23, 6],
                              [1, 2, 3, 1]])

CALLS = {
    "verify-all-seed0": ["verify", "all", "--seed", "0"],
    "verify-all-seed1": ["verify", "all", "--seed", "1"],
    "verify-all-seed2": ["verify", "all", "--seed", "2"],
    "b3-p2": ["verify", "b3", "--p", "2"],
    "b3-p3": ["verify", "b3", "--p", "3", "--seed", "1"],
    "b3-p5": ["verify", "b3", "--p", "5", "--trials", "4"],
    "csv-2d": ["verify", "2d", "--format", "csv", "--seed", "3"],
    "csv-b3": ["verify", "b3", "--p", "3", "--trials", "2", "--format", "csv"],
    "csv-diag3": ["verify", "diag3", "--format", "csv", "--seed", "3"],
    "csv-symmetric": ["verify", "symmetric", "--format", "csv", "--seed", "3"],
    "csv-algebra": ["verify", "algebra", "--format", "csv", "--seed", "3"],
    "csv-dim4": ["verify", "dim4", "--format", "csv", "--seed", "3"],
    "assemble-lex": ["assemble", "--brick", GF4_CUBE],
    "assemble-colex": ["assemble", "--brick", GF4_CUBE, "--ordering", "colex"],
    "census": ["census", "--brick", GF2_CUBE, "--bcs", "Periodic,ZeroInput,Free"],
    "census-oracle": ["census", "--brick", GF2_CUBE, "--bcs",
                      "Periodic,ZeroInput,Free", "--oracle"],
    "census-oracle-p3": ["census", "--brick", _brick(3, 1, [[1, 2], [2, 2]]),
                         "--bcs", "Periodic,Free", "--oracle"],
    "evolve-2d": ["evolve", "--brick", _brick(2, 8, [[3, 5], [7, 11]]),
                  "--steps", "2"],
    "evolve-3d-generic": ["evolve", "--brick", GEN3],
    "evolve-3d-symmetric": ["evolve", "--brick", SYM3, "--seed", "4"],
    "reduce4d-periodic": ["reduce4d", "--brick", B4, "--case", "Periodic4"],
    "reduce4d-zeroinput": ["reduce4d", "--brick", B4, "--case", "ZeroInput4",
                           "--n", "2"],
    "reduce4d-degenerate": ["reduce4d", "--brick", B4_DEGENERATE, "--case",
                            "Periodic4"],
    "csv-assemble": ["assemble", "--brick", GF4_CUBE, "--format", "csv"],
    "csv-census-oracle": ["census", "--brick", GF2_CUBE, "--bcs",
                          "Periodic,ZeroInput,Free", "--oracle", "--format", "csv"],
    "csv-evolve-3d-generic": ["evolve", "--brick", GEN3, "--format", "csv"],
    "csv-reduce4d-periodic": ["reduce4d", "--brick", B4, "--case", "Periodic4",
                              "--format", "csv"],
    "error-b3-prime": ["verify", "b3", "--p", "13"],
    "error-2d-p": ["verify", "2d", "--p", "3"],
    "error-malformed-brick": ["census", "--brick", '{"nonsense": true}'],
    "error-cap-dim": ["assemble", "--brick", GF4_CUBE, "--edge", "4",
                      "--cap-dim", "10"],
}


def _digest(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--no-timestamp"])
    sha = lambda text: hashlib.sha256(text.encode()).hexdigest()
    return {"stdout": sha(out.getvalue()), "stderr": sha(err.getvalue()),
            "exit": code}


def test_digest_file_lists_every_call():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_report_digest(name):
    assert _digest(CALLS[name]) == json.loads(DIGESTS.read_text())[name]


if __name__ == "__main__":
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    new = {name: _digest(argv) for name, argv in CALLS.items()}
    changed = sorted(name for name in old.keys() | new.keys()
                     if old.get(name) != new.get(name))
    for name in changed:
        print(name)
    if changed:
        DIGESTS.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
