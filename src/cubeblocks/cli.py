"""Command line interface: verification suites, block assembly, censuses."""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import random
import sys

from . import __version__
from .errors import InputError, ResourceLimitError, SingularMatrixError
from .fields import FiniteField
from .lattice import BrickSpec, LatticeSpec, assemble_block, evolve
from .matrices import RingMatrix
from .census import BoundaryConditions, census_report, free_and_periodic, free_rows
from .pointmap import CENSUS_GUARD, brute_force_census, check_points, points_above
from . import decomp3d
from . import dim4
from . import fieldmat

EXIT_VERIFIED = 0
EXIT_FALSIFIED = 1
EXIT_ERROR = 2

SUITES = ("2d", "b3", "diag3", "symmetric", "algebra", "dim4", "all")
B3_PRIMES = (2, 3, 5, 7, 11)


# ----------------------------------------------------------------------
# report plumbing
# ----------------------------------------------------------------------

def _report_skeleton(args) -> dict:
    rep = {
        "tool": "cubeblocks",
        "version": __version__,
        "command": args.command,
        "seed": args.seed,
        "ordering": [list(s) for s in decomp3d.RESOLVED_LINE_ORDERING],
    }
    if not args.no_timestamp:
        rep["timestamp"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
    return rep


def _flatten(obj, prefix=""):
    """Dotted-key rows for the csv form."""
    rows = []
    if isinstance(obj, dict):
        for k in obj:
            rows.extend(_flatten(obj[k], f"{prefix}.{k}" if prefix else str(k)))
    elif isinstance(obj, (list, tuple)):
        for i, x in enumerate(obj):
            rows.extend(_flatten(x, f"{prefix}[{i}]"))
    else:
        rows.append((prefix, obj))
    return rows


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        lines = ["key,value"]
        for key, val in _flatten(report):
            sval = json.dumps(val) if isinstance(val, str) else str(val)
            lines.append(f"{key},{sval}")
        text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(
                f"cannot write report to {args.out!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _from_verdict(name: str, verdict) -> dict:
    out = {"name": name,
           "verdict": "verified" if verdict.ok else "falsified"}
    out.update(verdict.to_json())
    out.pop("verified", None)
    return out


def _from_decomp(name: str, report) -> dict:
    out = report.to_json()
    out["name"] = name
    return out


def matrix_to_json(m: RingMatrix) -> dict:
    """A matrix over a finite field as it appears in reports."""
    return {"rows": m.rows, "cols": m.cols,
            "ring": m.ring.to_json(), "entries": m.to_rows()}


# ----------------------------------------------------------------------
# input loading
# ----------------------------------------------------------------------

def _load_json_arg(text: str):
    """Inline JSON when the argument starts with '{', else a file path."""
    try:
        if text.lstrip().startswith("{"):
            return json.loads(text)
        with open(text) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read brick description: {exc}") from exc


def _load_brick(text: str) -> BrickSpec:
    obj = _load_json_arg(text)
    try:
        return BrickSpec.from_json(obj)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed brick description: {exc}") from exc


def _parse_bcs(text: str, d: int) -> BoundaryConditions:
    tags = tuple(t.strip() for t in text.split(","))
    if len(tags) == 1 and d > 1:
        tags = tags * d
    if len(tags) != d:
        raise InputError(f"need {d} boundary tags, got {len(tags)}")
    return BoundaryConditions(tags)


def _check_caps(dim: int, args) -> None:
    if dim > args.cap_dim:
        raise ResourceLimitError(
            f"block dimension {dim} exceeds --cap-dim {args.cap_dim}")


# ----------------------------------------------------------------------
# verify suites
# ----------------------------------------------------------------------

def _suite_2d(args) -> list[dict]:
    results = [
        _from_decomp("2d-symbolic", decomp3d.verify_decomposition_2d("symbolic")),
        _from_decomp("2d-sampled", decomp3d.verify_decomposition_2d(
            "sampled", seed=args.seed)),
    ]
    return results


def _suite_diag3(args) -> list[dict]:
    return [
        _from_decomp("cube-symbolic",
                     decomp3d.verify_decomposition_3d("symbolic")),
        _from_decomp("cube-sampled", decomp3d.verify_decomposition_3d(
            "sampled", seed=args.seed)),
    ]


def _b3_args(args) -> tuple[int, int]:
    """The b3 prime and trial count, after refusing a prime, block size
    or count the suite cannot run; p = 2 is checked symbolically and
    reads no trials, but a count below one is refused there too."""
    p = 2 if args.p is None else args.p
    if p not in B3_PRIMES:
        raise InputError(f"prime {p} not supported; choose one of {B3_PRIMES}")
    _check_caps(3 * p * p, args)
    trials = args.trials
    if trials is None:
        trials = 4 if p == 11 else 32
    if trials < 1:
        raise InputError(f"need at least one trial, got {trials}")
    return p, trials


def _suite_b3(args) -> list[dict]:
    p, trials = _b3_args(args)
    results = [
        _from_verdict(f"scalar-structure-p{p}", decomp3d.verify_scalar_structure(
            p, trials=trials, seed=args.seed)),
        _from_verdict(f"triple-product-spectrum-p{p}",
                      decomp3d.verify_triple_product_spectrum(
                          p, trials=trials, seed=args.seed)),
    ]
    return results


def _suite_symmetric(args) -> list[dict]:
    results = [
        _from_decomp("symmetric-simple-symbolic",
                     decomp3d.verify_symmetric_decomposition("simple")),
        _from_decomp("symmetric-double-symbolic",
                     decomp3d.verify_symmetric_decomposition("double")),
        _from_decomp("symmetric-simple-sampled",
                     decomp3d.verify_symmetric_decomposition(
                         "simple", mode="sampled", seed=args.seed)),
    ]
    typo = decomp3d.g3_typo_report()
    results.append({"name": "distinguished-vector-recomputation",
                    "verdict": "verified" if typo["typo_confirmed"] else "falsified",
                    "details": typo})
    for case in ("2d", "3d-generic", "3d-symmetric"):
        census = decomp3d.evolution_census_closed_form(case, 3)
        results.append({"name": f"evolution-counts-{case}",
                        "verdict": "verified",
                        "details": census.to_json()})
        results.append(_from_verdict(
            f"evolution-detection-{case}",
            decomp3d.detect_evolution_summands(case, 1, seed=args.seed)))
    return results


def _nondegenerate_brick(field, rng, case: str, b44_zero: bool) -> BrickSpec:
    """The first random 4x4 brick, entries drawn row by row, with b44 set
    to zero if asked, that is nondegenerate for the case at chain length
    2."""
    while True:
        brick = BrickSpec(4, (1, 1, 1, 1), RingMatrix(
            field, 4, 4, [field.sample(rng) for _ in range(16)]))
        if b44_zero:
            brick.matrix[3, 3] = field.zero
        try:
            if dim4.nondegeneracy_4d(brick, dim4.reduce_chain_4d(brick, 2, case)):
                return brick
        except SingularMatrixError:
            continue


def _suite_algebra(args) -> list[dict]:
    """Cube conjugation identity with entries in a chain algebra."""
    field = FiniteField(2, 8)
    rng = random.Random(args.seed)
    return [_from_decomp(f"chain-algebra-conjugation-{case}",
                         dim4.verify_stratification(
                             _nondegenerate_brick(field, rng, case, True), 1, case))
            for case in dim4.CASES]


def _suite_dim4(args, algebra: list[dict] | None = None) -> list[dict]:
    """The chain-algebra results, taken from algebra when this run already
    has them, then the fold cross-checks on bricks of their own draw."""
    field = FiniteField(2, 8)
    rng = random.Random(args.seed)
    results = list(_suite_algebra(args) if algebra is None else algebra)
    for case in dim4.CASES:
        brick = _nondegenerate_brick(field, rng, case, False)
        for bcs in (BoundaryConditions.toric(3),
                    BoundaryConditions.uniform(3, "Free"),
                    BoundaryConditions(("Periodic", "ZeroInput", "Free"))):
            tagstr = "-".join(t.lower() for t in bcs.tags)
            results.append(_from_verdict(
                f"fold-cross-check-{case}-{tagstr}",
                dim4.cross_check_4d(brick, case, bcs)))
    return results


def cmd_verify(args) -> dict:
    suites = {
        "2d": _suite_2d,
        "diag3": _suite_diag3,
        "b3": _suite_b3,
        "symmetric": _suite_symmetric,
        "algebra": _suite_algebra,
        "dim4": _suite_dim4,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    if "b3" in names:
        _b3_args(args)  # refuse bad b3 arguments before any suite runs
    else:
        given = [opt for opt, value in (("--p", args.p), ("--trials", args.trials))
                 if value is not None]
        if given:
            raise InputError(f"the {args.suite} suite does not read "
                             f"{' or '.join(given)}; only b3 and all do")
    by_name = {}
    for name in names:
        if name == "dim4" and "algebra" in by_name:
            by_name[name] = _suite_dim4(args, by_name["algebra"])
        else:
            by_name[name] = suites[name](args)
    results = [r for name in names for r in by_name[name]]
    falsified = any(r.get("verdict") == "falsified" for r in results)
    return {"suite": args.suite, "results": results,
            "status": "falsified" if falsified else "verified"}


# ----------------------------------------------------------------------
# assemble / census / evolve / reduce4d
# ----------------------------------------------------------------------

def cmd_assemble(args) -> dict:
    brick = _load_brick(args.brick)
    spec = LatticeSpec(brick.d, args.edge, brick.thin_dims, args.ordering)
    _check_caps(spec.dimension, args)
    blk = fieldmat.from_array(brick.ring, assemble_block(brick, spec))
    return {"lattice": spec.to_json(), "dimension": blk.rows,
            "block": matrix_to_json(blk)}


def cmd_census(args) -> dict:
    if args.cap_points is not None and not args.oracle:
        raise InputError("--cap-points bounds the --oracle enumeration; "
                         "census without --oracle does not read it")
    brick = _load_brick(args.brick)
    spec = LatticeSpec(brick.d, args.edge, brick.thin_dims)
    dim = spec.dimension
    bcs = _parse_bcs(args.bcs, brick.d)
    if args.oracle:
        # refuse an oversized enumeration before assembling anything
        q = brick.ring.q
        if args.cap_points is not None:
            points = points_above(q, dim, args.cap_points)
            if points is not None:
                raise ResourceLimitError(
                    f"{points} points exceeds --cap-points {args.cap_points}")
        check_points(q, dim, CENSUS_GUARD)
    _check_caps(dim, args)
    field = brick.ring
    if args.oracle:
        # the oracle reads every row, so the block is assembled once for both
        block = assemble_block(brick, spec)
        free = free_and_periodic(spec, bcs)[0]
        census = census_report(field, block[free], spec, bcs)
        census["oracle_checked"] = True
        census["oracle_agrees"] = brute_force_census(
            fieldmat.from_array(field, block), spec, bcs).e == census["exponent"]
    else:
        census = census_report(field, free_rows(brick, spec, bcs), spec, bcs)
    agree = census.get("oracle_agrees", True)
    return {"lattice": spec.to_json(), "census": census,
            "status": "verified" if agree else "falsified"}


def cmd_evolve(args) -> dict:
    brick = _load_brick(args.brick)
    field, a = brick.ring, brick.matrix
    stages = evolve(brick, args.steps, cap=args.cap_dim)
    report = {"steps": args.steps, "dimensions": [blk.shape[0] for blk in stages]}
    d = brick.d
    case = None
    if d == 2 and brick.thin_dims == (1, 1) and field.p == 2:
        case = "2d"
    elif d == 3 and brick.thin_dims == (1, 1, 1) and field.p == 2:
        sym = a == a.transpose()
        diff = decomp3d.mixed_product_difference(field, a.to_rows())
        if sym and diff == field.zero:
            case = "3d-symmetric"
        elif diff != field.zero:
            case = "3d-generic"
    if case is not None:
        census = decomp3d.evolution_census_closed_form(case, args.steps)
        report["case"] = case
        report["predicted_counts"] = list(census.counts)
        dim = stages[-1].shape[0]
        if field.q > 2 * dim:
            verdict = decomp3d.detect_evolution_summands(
                case, args.steps, seed=args.seed, brick=brick,
                block=stages[-1])
            report["detection"] = _from_verdict("summand-detection", verdict)
            if not verdict.ok:
                report["status"] = "falsified"
    else:
        report["case"] = "unclassified"
    report.setdefault("status", "verified")
    return report


def cmd_reduce4d(args) -> dict:
    brick = _load_brick(args.brick)
    if args.n < 0:
        raise InputError(f"--n must be at least 0, got {args.n}")
    cap = args.cap_dim
    # compare exponents first, so that a huge n is never raised to a power
    if args.n > cap.bit_length() or 3 * 2 ** args.n > cap:
        raise ResourceLimitError(
            f"folded brick dimension 3*2^{args.n} exceeds --cap-dim {cap}")
    length = 2 ** args.n
    report = {"case": args.case, "chain_length": length}
    try:
        reduced = dim4.reduce_chain_4d(brick, length, args.case)
    except SingularMatrixError as exc:
        report["status"] = "degenerate"
        report["degenerate_reason"] = str(exc)
        return report
    tag = "Circulant" if args.case == "Periodic4" else "UpperToeplitz"
    report["entry_tags"] = [[tag] * 3 for _ in range(3)]
    report["entries"] = [[matrix_to_json(reduced.ring.matrix(x)) for x in row]
                         for row in reduced.matrix.to_rows()]
    if brick.ring.p != 2:
        # the folding holds in every characteristic, the criterion does not
        report["nondegenerate"] = None
        report["nondegenerate_reason"] = "the nondegeneracy criterion is for characteristic 2"
    else:
        report["nondegenerate"] = dim4.nondegeneracy_4d(brick, reduced)
    report["status"] = "verified"
    return report


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubeblocks",
        description="Assemble lattice blocks from bricks, verify their "
                    "direct-sum structure, and count permitted configurations.")
    parser.add_argument("--version", action="version",
                        version=f"cubeblocks {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="random seed for sampled checks")
    common.add_argument("--out", help="write the report to this file")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--cap-dim", type=int, default=4096,
                        help="refuse blocks larger than this dimension (default 4096)")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp for reproducible reports")

    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--p", type=int, default=None,
                          help="characteristic for the b3 suite (default 2); "
                               "read by b3 and all only")
    p_verify.add_argument("--trials", type=int, default=None,
                          help="sampled trials for the b3 suite; "
                               "read by b3 and all only")
    p_verify.set_defaults(func=cmd_verify)

    p_asm = sub.add_parser("assemble", parents=[common],
                           help="assemble the block of a brick over a cube")
    p_asm.add_argument("--brick", required=True,
                       help="brick description: JSON text or a file path")
    p_asm.add_argument("--edge", type=int, default=2)
    p_asm.add_argument("--ordering", choices=("lex", "colex"), default="lex")
    p_asm.set_defaults(func=cmd_assemble)

    p_cen = sub.add_parser("census", parents=[common],
                           help="count permitted configurations")
    p_cen.add_argument("--brick", required=True)
    p_cen.add_argument("--edge", type=int, default=2)
    p_cen.add_argument("--bcs", default="Periodic",
                       help="comma-separated per-axis tags "
                            "(Periodic, ZeroInput, Free)")
    p_cen.add_argument("--oracle", action="store_true",
                       help="cross-check by enumerating every configuration")
    p_cen.add_argument("--cap-points", type=int, default=None,
                       help="with --oracle, refuse enumerations over more points")
    p_cen.set_defaults(func=cmd_census)

    p_evo = sub.add_parser("evolve", parents=[common],
                           help="iterate block making and predict summands")
    p_evo.add_argument("--brick", required=True)
    p_evo.add_argument("--steps", type=int, default=1)
    p_evo.set_defaults(func=cmd_evolve)

    p_red = sub.add_parser("reduce4d", parents=[common],
                           help="fold a 4-axis brick chain into a 3-axis "
                                "brick over the shift algebra")
    p_red.add_argument("--brick", required=True)
    p_red.add_argument("--case", choices=dim4.CASES, default="Periodic4")
    p_red.add_argument("--n", type=int, default=1,
                       help="the chain has length 2^n")
    p_red.set_defaults(func=cmd_reduce4d)
    return parser


def main(argv=None) -> int:
    """Run one command and emit its report: the skeleton, taken after the
    work, then the command's section.  Exit 1 when the report is
    falsified, 2 on an input or resource error, else 0."""
    args = build_parser().parse_args(argv)
    try:
        section = args.func(args)
        _emit({**_report_skeleton(args), **section}, args)
    except (InputError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if section.get("status") == "falsified":
        return EXIT_FALSIFIED
    return EXIT_VERIFIED


if __name__ == "__main__":
    sys.exit(main())
