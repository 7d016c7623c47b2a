import json
import random
import types

import numpy as np
import pytest

from cubeblocks import cli, decomp3d, dim4, fieldmat, lattice
from cubeblocks.cli import main, matrix_to_json
from cubeblocks.fields import FiniteField
from cubeblocks.identity import Verdict
from cubeblocks.lattice import BrickSpec
from cubeblocks.matrices import RingMatrix, mat_inverse
from reference import brick_to_json, mat_add, random_brick


@pytest.fixture
def brick3_path(tmp_path):
    rng = random.Random(1)
    brick = random_brick(FiniteField(2), 3, (1, 1, 1), rng)
    path = tmp_path / "brick3.json"
    path.write_text(json.dumps(brick_to_json(brick)))
    return str(path)


def _run_json(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_verify_2d_report(capsys):
    code, rep = _run_json(["verify", "2d", "--no-timestamp"], capsys)
    assert code == 0
    assert rep["status"] == "verified"
    assert rep["version"]
    assert rep["seed"] == 0
    assert rep["ordering"] == [[0, 1, 2, 3]] * 3
    assert all(r["verdict"] == "verified" for r in rep["results"])


@pytest.mark.parametrize("suite", ["diag3", "all"])
def test_cube_seed_with_equal_triple_products_is_verified(suite, capsys):
    # the first cube brick drawn at seed 2263 has a12 a23 a31 = a13 a32 a21;
    # the sampled check draws again instead of failing on it
    code, rep = _run_json(["verify", suite, "--seed", "2263", "--no-timestamp"], capsys)
    assert code == 0 and rep["status"] == "verified"
    cube = next(r for r in rep["results"] if r["name"] == "cube-sampled")
    assert cube["verdict"] == "verified"


def test_reports_are_reproducible(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["verify", "diag3", "--no-timestamp", "--out", a]) == 0
    assert main(["verify", "diag3", "--no-timestamp", "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


@pytest.mark.parametrize("target,reason", [("missing/r.json", "No such file or directory"),
                                           (".", "Is a directory")],
                         ids=["missing-dir", "dir"])
def test_unwritable_out_is_exit_2(tmp_path, target, reason, capsys):
    # the suite has run; the report cannot be written, and that is an
    # error line, not a traceback
    out = str(tmp_path / target)
    assert main(["verify", "2d", "--no-timestamp", "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write report to {out!r}: {reason}\n"


def test_csv_format(capsys):
    code = main(["verify", "2d", "--no-timestamp", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "key,value"
    assert any(line.startswith("status,") for line in out.splitlines())


def test_assemble_and_census(brick3_path, capsys):
    code, rep = _run_json(["assemble", "--brick", brick3_path, "--edge", "2",
                           "--no-timestamp"], capsys)
    assert code == 0 and rep["dimension"] == 12

    code, rep = _run_json(["census", "--brick", brick3_path, "--edge", "2",
                           "--bcs", "Periodic", "--oracle", "--no-timestamp"],
                          capsys)
    assert code == 0
    assert rep["census"]["oracle_agrees"]


def test_evolve_2d(tmp_path, capsys):
    rng = random.Random(2)
    f = FiniteField(2, 16)
    brick = random_brick(f, 2, (1, 1), rng)
    path = tmp_path / "b2.json"
    path.write_text(json.dumps(brick_to_json(brick)))
    code, rep = _run_json(["evolve", "--brick", str(path), "--steps", "2",
                           "--no-timestamp"], capsys)
    assert code == 0
    assert rep["case"] == "2d"
    assert rep["predicted_counts"] == [4]


def test_evolve_planar_odd_p_is_unclassified(capsys):
    # the split into two squared copies holds only in characteristic 2
    brick = ('{"d": 2, "thin_dims": [1, 1], "entries": [[38, 37], [6, 27]], '
             '"field": {"p": 13, "m": 3, "modulus": [2, 0, 0, 1]}}')
    code, rep = _run_json(["evolve", "--brick", brick, "--no-timestamp"], capsys)
    assert code == 0
    assert rep["case"] == "unclassified" and "detection" not in rep


F256 = FiniteField(2, 8)
BRICK4 = [[12, 200, 7, 33], [5, 91, 140, 2], [250, 3, 66, 17], [9, 128, 45, 77]]


def _brick4_json(b44=77):
    rows = [list(r) for r in BRICK4]
    rows[3][3] = b44
    return json.dumps({"d": 4, "thin_dims": [1, 1, 1, 1], "entries": rows,
                       "field": F256.to_json()})


@pytest.mark.parametrize("case,tag", [("Periodic4", "Circulant"),
                                      ("ZeroInput4", "UpperToeplitz")])
def test_reduce4d_entries_match_matrix_route(case, tag, capsys):
    code, rep = _run_json(["reduce4d", "--brick", _brick4_json(), "--case", case,
                           "--n", "1", "--no-timestamp"], capsys)
    assert code == 0 and rep["status"] == "verified"
    assert rep["chain_length"] == 2
    assert rep["entry_tags"] == [[tag] * 3] * 3
    # k_ij 1 + b_i4 b_4j (1 - b44 T)^-1 T, with T the 2x2 shift matrix
    b = RingMatrix.from_rows(F256, BRICK4)
    t = dim4.shift_matrix(F256, 2, case)
    w = mat_inverse(RingMatrix.identity(F256, 2) - t.scalar_mul(b[3, 3])) @ t
    want = [[matrix_to_json(F256, mat_add(RingMatrix.scalar(F256, 2, b[i, j]),
                                          w.scalar_mul(F256.mul(b[i, 3], b[3, j]))).to_rows())
             for j in range(3)] for i in range(3)]
    assert rep["entries"] == want


@pytest.mark.parametrize("case", ["Periodic4", "ZeroInput4"])
def test_reduce4d_odd_p_reports_entries(case, capsys):
    # the chain folds in every characteristic; only the nondegeneracy
    # criterion is for characteristic 2, so it is left open
    f3 = FiniteField(3)
    rows = [[1, 2, 0, 1], [2, 1, 1, 0], [0, 1, 2, 2], [1, 1, 0, 0]]
    brick = json.dumps({"d": 4, "thin_dims": [1, 1, 1, 1], "entries": rows,
                        "field": f3.to_json()})
    code, rep = _run_json(["reduce4d", "--brick", brick, "--case", case,
                           "--n", "1", "--no-timestamp"], capsys)
    assert code == 0 and rep["status"] == "verified"
    assert rep["nondegenerate"] is None
    assert "characteristic 2" in rep["nondegenerate_reason"]
    # b44 = 0, so w = T and the entries are k_ij 1 + b_i4 b_4j T
    t = dim4.shift_matrix(f3, 2, case)
    want = [[matrix_to_json(f3, mat_add(RingMatrix.scalar(f3, 2, rows[i][j]),
                                        t.scalar_mul(f3.mul(rows[i][3], rows[3][j]))).to_rows())
             for j in range(3)] for i in range(3)]
    assert rep["entries"] == want


def test_reduce4d_root_of_unity_is_degenerate(capsys):
    code, rep = _run_json(["reduce4d", "--brick", _brick4_json(b44=1),
                           "--case", "Periodic4", "--no-timestamp"], capsys)
    assert code == 0
    assert rep["status"] == "degenerate" and "entries" not in rep


def test_reduce4d_needs_four_axes(brick3_path, capsys):
    assert main(["reduce4d", "--brick", brick3_path, "--no-timestamp"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--n", "-1"], ["--n", "70"], ["--n", "11"],
                                   ["--n", "2", "--cap-dim", "6"]],
                         ids=["negative", "n70", "n11", "cap"])
def test_reduce4d_bad_n_is_exit_2(extra, capsys, monkeypatch):
    # refused on arithmetic alone: folding the chain must not start
    def fail(*args):
        raise AssertionError("reduce_chain_4d called")
    monkeypatch.setattr(dim4, "reduce_chain_4d", fail)
    assert main(["reduce4d", "--brick", _brick4_json(), *extra,
                 "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_reduce4d_folds_the_chain_once(capsys, monkeypatch):
    # the report's entries and the nondegeneracy verdict read one fold
    fold, calls = dim4.reduce_chain_4d, []

    def counted(brick, l, case):
        calls.append((l, case))
        return fold(brick, l, case)
    monkeypatch.setattr(dim4, "reduce_chain_4d", counted)
    code, rep = _run_json(["reduce4d", "--brick", _brick4_json(), "--case",
                           "Periodic4", "--n", "3", "--no-timestamp"], capsys)
    assert code == 0 and rep["nondegenerate"] is not None
    assert calls == [(8, "Periodic4")]


# ----------------------------------------------------------------------
# exit codes of reports that no unpatched input falsifies
# ----------------------------------------------------------------------

def _cube_json(field, rows):
    return json.dumps({"d": 3, "thin_dims": [1, 1, 1], "entries": rows,
                       "field": field.to_json()})


GF2_CUBE = _cube_json(FiniteField(2), [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
GEN3 = _cube_json(F256, [[3, 5, 9], [7, 11, 13], [17, 19, 23]])
FALSIFIED = Verdict(False, witness={"patched": True})


def _oracle_disagrees(monkeypatch):
    # no rank census has a negative exponent
    monkeypatch.setattr(cli, "brute_force_census",
                        lambda *args: types.SimpleNamespace(e=-1))


def _detection_fails(monkeypatch):
    monkeypatch.setattr(decomp3d, "detect_evolution_summands",
                        lambda *args, **kwargs: FALSIFIED)


def _scalar_structure_fails(monkeypatch):
    monkeypatch.setattr(decomp3d, "verify_scalar_structure",
                        lambda *args, **kwargs: FALSIFIED)


@pytest.mark.parametrize("argv,falsify,verdicts,want", [
    (["census", "--brick", GF2_CUBE, "--oracle"], _oracle_disagrees,
     lambda rep: rep["census"]["oracle_agrees"], False),
    (["evolve", "--brick", GEN3], _detection_fails,
     lambda rep: rep["detection"]["verdict"], "falsified"),
    (["verify", "b3", "--p", "2"], _scalar_structure_fails,
     lambda rep: [r["verdict"] for r in rep["results"]], ["falsified", "verified"]),
], ids=["census-oracle", "evolve-detection", "verify-b3"])
def test_falsified_report_is_exit_1(argv, falsify, verdicts, want, capsys,
                                    monkeypatch):
    falsify(monkeypatch)
    code, rep = _run_json([*argv, "--no-timestamp"], capsys)
    assert code == 1 and rep["status"] == "falsified"
    assert verdicts(rep) == want


def test_falsified_report_unwritable_out_is_exit_2(tmp_path, capsys, monkeypatch):
    _oracle_disagrees(monkeypatch)
    out = str(tmp_path / "missing" / "r.json")
    assert main(["census", "--brick", GF2_CUBE, "--oracle", "--out", out,
                 "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write report to {out!r}")


def test_degenerate_reduce4d_csv_is_exit_0(capsys):
    assert main(["reduce4d", "--brick", _brick4_json(b44=1), "--case",
                 "Periodic4", "--format", "csv", "--no-timestamp"]) == 0
    assert 'status,"degenerate"' in capsys.readouterr().out.splitlines()


def test_malformed_brick_is_exit_2(capsys):
    assert main(["census", "--brick", '{"nonsense": true}',
                 "--no-timestamp"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("entries", [[[999, -3], [1, 1]], [[1.5, 0], [1, 1]],
                                     [[True, 0], [1, 1]]])
def test_brick_entry_outside_field_is_exit_2(entries, capsys):
    brick = {"d": 2, "thin_dims": [1, 1], "entries": entries,
             "field": {"p": 2, "m": 1, "modulus": [0, 1]}}
    assert main(["census", "--oracle", "--brick", json.dumps(brick),
                 "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "Traceback" not in captured.err


def _header_brick(**changes):
    """A valid GF(2) cube brick description with fields replaced; a
    change to p, m or modulus goes into the field object, None drops the
    key."""
    brick = {"d": 3, "thin_dims": [1, 1, 1], "entries": [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
             "field": {"p": 2, "m": 1, "modulus": [0, 1]}}
    for key, value in changes.items():
        obj = brick["field"] if key in ("p", "m", "modulus") else brick
        if value is None:
            del obj[key]
        else:
            obj[key] = value
    return json.dumps(brick)


@pytest.mark.parametrize("key,value,message", [
    ("d", 3.9, "'d' must be a JSON integer, got 3.9"),
    ("thin_dims", [1.7, 1, 1], "'thin_dims' must be a list of JSON integers"),
    ("p", 2.5, "'field.p' must be a JSON integer, got 2.5"),
    ("m", True, "'field.m' must be a JSON integer, got true"),
    ("modulus", [2, 1], "'field.modulus' coefficients must lie in [0, 2)"),
    ("entries", 5, "'entries' must be a list of rows of JSON integers"),
    ("entries", [1, 2, 3], "'entries' must be a list of rows of JSON integers"),
    ("p", 1, "characteristic 1 is not prime"),
    ("p", 0, "characteristic 0 is not prime"),
    ("p", -3, "characteristic -3 is not prime")],
    ids=["d", "thin_dims", "p", "m", "modulus", "entries-int", "entries-flat",
         "p-one", "p-zero", "p-negative"])
def test_non_integer_brick_header_is_exit_2(key, value, message, capsys):
    # each was truncated (or, for the modulus, reduced mod p) and
    # assembled; a header field must be a JSON integer as it stands.  Flat
    # entries and a p that is not prime failed with another field's message
    assert main(["assemble", "--brick", _header_brick(**{key: value}),
                 "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == f"error: malformed brick description: {message}\n"


@pytest.mark.parametrize("key,path", [("modulus", "missing key 'field.modulus'"),
                                      ("m", "missing key 'field.m'"),
                                      ("thin_dims", "missing key 'thin_dims'"),
                                      ("field", "missing key 'field'")],
                         ids=["modulus", "m", "thin_dims", "field"])
def test_missing_brick_key_names_its_path(key, path, capsys):
    assert main(["assemble", "--brick", _header_brick(**{key: None}),
                 "--no-timestamp"]) == 2
    assert capsys.readouterr().err == f"error: malformed brick description: {path}\n"


@pytest.mark.parametrize("field,d", [('{"p": 1e400, "m": 1, "modulus": [0, 1]}', "2"),
                                     ('{"p": 2, "m": 1, "modulus": [0, 1]}', "1e400"),
                                     ('{"p": 2, "m": -1e400, "modulus": [0, 1]}', "2"),
                                     ('{"p": 2, "m": 1, "modulus": [0, Infinity]}', "2")],
                         ids=["p", "d", "m", "modulus"])
def test_non_finite_json_number_is_exit_2(field, d, capsys):
    text = (f'{{"d": {d}, "thin_dims": [1, 1], "field": {field}, '
            f'"entries": [[1, 0], [1, 1]]}}')
    assert main(["census", "--brick", text, "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("extra,message", [
    (["--edge", "2", "--cap-points", "100"], "4096 points exceeds --cap-points 100"),
    (["--edge", "3"], "q^N = 134217728 exceeds the guard 4194304"),
    (["--edge", "100000"], "q^N = 2^30000000000 exceeds the guard 4194304")],
    ids=["cap-points", "guard", "huge"])
def test_oracle_caps_refuse_before_assembly(brick3_path, extra, message,
                                            capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("assemble_block called")
    monkeypatch.setattr(cli, "assemble_block", fail)
    assert main(["census", "--brick", brick3_path, "--oracle", *extra,
                 "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_missing_file_is_exit_2(capsys):
    assert main(["assemble", "--brick", "/no/such/file.json",
                 "--no-timestamp"]) == 2


def test_cap_dim_is_exit_2(brick3_path, capsys):
    assert main(["assemble", "--brick", brick3_path, "--edge", "4",
                 "--cap-dim", "10", "--no-timestamp"]) == 2


@pytest.mark.parametrize("command", ["census", "assemble"])
def test_default_cap_dim_refuses_before_assembly(command, brick3_path, capsys,
                                                 monkeypatch):
    # edge 100000 gives a block of dimension 3 * 10^10; without --cap-dim
    # the default of 4096 must refuse it before anything is assembled
    def fail(*args, **kwargs):
        raise AssertionError("assemble_block called")
    monkeypatch.setattr(lattice, "assemble_block", fail)
    monkeypatch.setattr(cli, "assemble_block", fail)
    assert main([command, "--brick", brick3_path, "--edge", "100000",
                 "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: block dimension 30000000000 exceeds "
                            "--cap-dim 4096\n")


@pytest.mark.parametrize("extra,message", [
    (["--steps", "2", "--cap-dim", "40"], "block dimension 48 at step 2 exceeds the cap 40"),
    (["--steps", "1000000"], "block dimension 12288 at step 6 exceeds the cap 4096")],
    ids=["cap-40", "steps-1e6"])
def test_evolve_cap_bounds_the_final_block(brick3_path, extra, message, capsys,
                                          monkeypatch):
    # a 3x3 brick's block has dimension 3 * 4^n after n steps; the cap
    # applies to that, not to one axis, and is checked before any step
    def fail(*args, **kwargs):
        raise AssertionError("assemble_block called")
    monkeypatch.setattr(lattice, "assemble_block", fail)
    assert main(["evolve", "--brick", brick3_path, *extra, "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_evolve_one_axis_brick_is_exit_2(capsys, monkeypatch):
    # a one-axis block has one line per axis and never grows, so the cap
    # cannot bound the steps; refused before the first step
    def fail(*args, **kwargs):
        raise AssertionError("assemble_block called")
    monkeypatch.setattr(lattice, "assemble_block", fail)
    brick = json.dumps({"d": 1, "thin_dims": [1], "entries": [[1]],
                        "field": {"p": 2, "m": 1, "modulus": [0, 1]}})
    assert main(["evolve", "--brick", brick, "--steps", "10000000",
                 "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the block of a 1-axis brick at edge 2 never grows, "
                            "so evolve has no bound on its steps\n")


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_b3_without_trials_is_exit_2(trials, capsys):
    # no trial tests nothing, so there is no failure bound to report
    assert main(["verify", "b3", "--p", "3", "--trials", trials,
                 "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: need at least one trial, got {trials}\n"


@pytest.mark.parametrize("argv", [["b3", "--p", "2", "--trials", "-3"],
                                  ["all", "--trials", "0"]])
def test_b3_without_trials_is_exit_2_at_p2(argv, capsys, monkeypatch):
    # p = 2 is symbolic and takes no trials, but a count below one is
    # refused there too, before anything is assembled
    def fail(*args, **kwargs):
        raise AssertionError("assemble_block called")
    monkeypatch.setattr(lattice, "assemble_block", fail)
    monkeypatch.setattr(decomp3d, "assemble_block", fail)
    decomp3d._b3_pass.cache_clear()
    assert main(["verify", *argv, "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: need at least one trial, got {argv[-1]}\n"


@pytest.mark.parametrize("argv", [["2d", "--trials", "-5", "--p", "4"],
                                  ["dim4", "--p", "13"],
                                  ["diag3", "--trials", "3"],
                                  ["symmetric", "--p", "2"],
                                  ["algebra", "--trials", "1"]])
def test_suites_without_b3_options_refuse_them(argv, capsys):
    # only b3 and all read --p and --trials; another suite given them
    # would run without them and report verified
    assert main(["verify", *argv, "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    for opt in ("--p", "--trials"):
        assert (opt in argv) == (opt in captured.err), opt


def test_cap_points_is_a_census_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "2d", "--cap-points", "5", "--no-timestamp"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap-points 5" in capsys.readouterr().err


def test_cap_points_without_oracle_is_refused(brick3_path, capsys):
    # only the --oracle enumeration reads it; census alone would ignore it
    assert main(["census", "--brick", brick3_path, "--cap-points", "5",
                 "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --cap-points") and "--oracle" in captured.err


def test_b3_cap_dim_refuses_before_assembly(capsys, monkeypatch):
    # the p = 11 block has dimension 3 * 11^2 = 363
    def fail(*args, **kwargs):
        raise AssertionError("assemble_block called")
    monkeypatch.setattr(decomp3d, "assemble_block", fail)
    decomp3d._b3_pass.cache_clear()
    assert main(["verify", "b3", "--p", "11", "--cap-dim", "100",
                 "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: block dimension 363 exceeds --cap-dim 100\n"


def test_verify_all_runs_the_chain_algebra_suite_once(capsys, monkeypatch):
    # dim4 repeats the algebra results in its report without recomputing
    # them: one stratification per case, where recomputing made two
    calls = []
    stratification = dim4.verify_stratification

    def counting(*args, **kwargs):
        calls.append(args[2])
        return stratification(*args, **kwargs)

    monkeypatch.setattr(dim4, "verify_stratification", counting)
    code, rep = _run_json(["verify", "all", "--no-timestamp"], capsys)
    assert code == 0 and len(rep["results"]) == 26
    assert calls == list(dim4.CASES)
    algebra = [r for r in rep["results"] if r["name"].startswith("chain-algebra")]
    assert len(algebra) == 4 and algebra[:2] == algebra[2:]
    # dim4 on its own still computes them
    code, rep = _run_json(["verify", "dim4", "--no-timestamp"], capsys)
    assert code == 0 and calls == list(dim4.CASES) * 2


def _case_brick(case, rng):
    """A GF(2^8) brick whose evolve report names the given case."""
    f = FiniteField(2, 8)
    nz = lambda: f.sample_nonzero(rng)
    if case == "2d":
        return BrickSpec(2, (1, 1), RingMatrix.from_rows(f, [[nz(), nz()], [nz(), nz()]]))
    if case == "3d-symmetric":
        v = {k: nz() for k in ("11", "12", "13", "22", "23", "33")}
        rows = [[v[f"{min(i, j)}{max(i, j)}"] for j in (1, 2, 3)] for i in (1, 2, 3)]
    else:
        rows = [[nz() for _ in range(3)] for _ in range(3)]
    return BrickSpec(3, (1, 1, 1), RingMatrix.from_rows(f, rows))


@pytest.mark.parametrize("case", ["2d", "3d-generic", "3d-symmetric"])
def test_evolve_passes_detection_the_block_it_would_build(case, capsys, monkeypatch):
    brick = _case_brick(case, random.Random(11))
    calls = []
    detect = decomp3d.detect_evolution_summands

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return detect(*args, **kwargs)
    monkeypatch.setattr(decomp3d, "detect_evolution_summands", spy)
    code, rep = _run_json(["evolve", "--brick", json.dumps(brick_to_json(brick)),
                           "--steps", "2", "--no-timestamp"], capsys)
    assert code == 0 and rep["case"] == case and rep["detection"]["verdict"] == "verified"
    (args, kwargs), = calls
    passed = kwargs.pop("block")
    built = []
    evolve = lattice.evolve

    def spy_evolve(*a, **k):
        out = evolve(*a, **k)
        built.append(out[-1])
        return out
    monkeypatch.setattr(lattice, "evolve", spy_evolve)
    assert detect(*args, **kwargs) == detect(*args, **kwargs, block=passed)
    assert len(built) == 1 and np.array_equal(built[0], passed)


def _conversions(monkeypatch):
    """Record (name, rows) of every fieldmat.to_array and from_array call."""
    calls = []
    for name in ("to_array", "from_array"):
        def spy(field, mat, name=name, real=getattr(fieldmat, name)):
            rows = mat.shape[0] if isinstance(mat, np.ndarray) else mat.rows
            calls.append((name, rows))
            return real(field, mat)
        monkeypatch.setattr(fieldmat, name, spy)
    return calls


def test_b3_pass_and_evolve_keep_blocks_as_arrays(capsys, monkeypatch):
    # the only conversion of a b3 trial is the 3x3 brick; the 147-dim block
    # at p = 7 goes from assembly to the checks as an array.  evolve turns
    # a stage into a RingMatrix only as the next step's brick.
    calls = _conversions(monkeypatch)
    decomp3d._b3_pass.cache_clear()
    code, rep = _run_json(["verify", "b3", "--p", "7", "--trials", "1",
                           "--no-timestamp"], capsys)
    assert code == 0 and rep["status"] == "verified"
    assert calls == [("to_array", 3)]
    calls.clear()
    brick = _case_brick("3d-generic", random.Random(5))
    code, rep = _run_json(["evolve", "--brick", json.dumps(brick_to_json(brick)),
                           "--steps", "3", "--no-timestamp"], capsys)
    assert code == 0 and rep["dimensions"] == [12, 48, 192]
    assert ("from_array", 192) not in calls


def test_unknown_suite_rejected():
    with pytest.raises(SystemExit):
        main(["verify", "nonsense"])


def test_unknown_ordering_rejected(brick3_path):
    with pytest.raises(SystemExit) as exc:
        main(["assemble", "--brick", brick3_path, "--ordering", "((1, 0), (0, 1))"])
    assert exc.value.code == 2


# ----------------------------------------------------------------------
# the census assembles only the rows it reads
# ----------------------------------------------------------------------

def _spy_conversions(monkeypatch):
    """Rows of every array fieldmat.from_array converts and of every
    matrix fieldmat.to_array converts, and rows of every block assembly
    over a finite field, in call order."""
    seen = {"from_array": [], "to_array": [], "assembled": []}
    from_array, to_array, assemble = fieldmat.from_array, fieldmat.to_array, \
        lattice._assemble_field

    def spy_from(field, arr):
        seen["from_array"].append(arr.shape[0])
        return from_array(field, arr)

    def spy_to(field, m):
        seen["to_array"].append(m.rows)
        return to_array(field, m)

    def spy_assemble(*args):
        out = assemble(*args)
        seen["assembled"].append(out.shape[0])
        return out
    monkeypatch.setattr(fieldmat, "from_array", spy_from)
    monkeypatch.setattr(fieldmat, "to_array", spy_to)
    monkeypatch.setattr(lattice, "_assemble_field", spy_assemble)
    return seen


def test_census_assembles_and_converts_only_free_rows(capsys, monkeypatch):
    # GF(2^8) at edge 8: a 192-dim block, 128 free rows, 64 Periodic columns
    seen = _spy_conversions(monkeypatch)
    code, rep = _run_json(["census", "--brick", GEN3, "--edge", "8", "--bcs",
                           "Periodic,ZeroInput,Free", "--no-timestamp"], capsys)
    assert code == 0 and rep["census"]["oracle_checked"] is False
    assert seen["assembled"] == [128]
    assert 192 not in seen["from_array"] + seen["to_array"]


def test_oracle_census_assembles_its_block_once(capsys, monkeypatch):
    seen = _spy_conversions(monkeypatch)
    code, rep = _run_json(["census", "--brick", GF2_CUBE, "--edge", "2", "--bcs",
                           "Periodic,ZeroInput,Free", "--oracle", "--no-timestamp"], capsys)
    assert code == 0 and rep["census"]["oracle_agrees"] is True
    assert seen["assembled"] == [12]
