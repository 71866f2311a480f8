"""Command line front end.

Subcommands: gen, check, spectrum, cheeger, evolve, certify.  Exit codes:
0 = hypotheses/bounds verified, 1 = verified false, 2 = input error,
3 = numeric failure.  Every JSON report embeds the resolved configuration,
the tool version and the probed interior size, so runs are auditable and a
fixed configuration reproduces byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .generators import LadderSpec, TreeSpec, make_ladder, make_random_balanced, make_tree
from .graph import (
    DirectedGraph,
    GraphError,
    NumericError,
    assumption_report,
    ball,
    check_asymmetry,
    check_kirchhoff,
    combinatorial_distance,
    graph_to_dict,
    load_graph,
    symmetrize,
)
from .operators import assemble
from .semigroup import evolve_trace
from .spectral import (
    accretivity_certificate,
    check_sector,
    cheeger_bound_check,
    cheeger_bruteforce,
    numrange_boundary,
)

GENERATORS = ("ladder", "tree", "random")


def _finite_float(text: str) -> float:
    """The argparse type of every float option: NaN and infinities are input errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _add_generator_options(parser: argparse.ArgumentParser) -> None:
    gen = parser.add_argument_group("generator options")
    gen.add_argument("--N", type=int, default=20, help="ladder depth (default 20)")
    gen.add_argument("--k", type=_finite_float, default=1.0, help="ladder drift weight (default 1)")
    gen.add_argument(
        "--measure", choices=("sqrt", "unit"), default="sqrt", help="ladder vertex measure"
    )
    gen.add_argument("--depth", type=int, default=4, help="tree depth (default 4)")
    gen.add_argument("--n", type=int, default=12, help="random graph size (default 12)")
    gen.add_argument("--seed", type=int, default=0, help="random generator seed")
    gen.add_argument("--density", type=_finite_float, default=0.5, help="extra cycles per vertex")


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    src = parser.add_argument_group("graph source (exactly one)")
    src.add_argument("--graph", metavar="FILE", help="graph JSON file")
    src.add_argument("--gen", choices=GENERATORS, help="built-in generator")
    _add_generator_options(parser)


def _add_truncation(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--root", help="truncation root label (default: generator origin)")
    parser.add_argument(
        "--radius",
        type=int,
        default=None,
        help="truncation radius (default: eccentricity of the root minus 1)",
    )


def _build_graph(args) -> tuple[DirectedGraph, str | None]:
    if (args.graph is None) == (args.gen is None):
        raise GraphError("provide exactly one of --graph FILE or --gen NAME")
    if args.graph is not None:
        return load_graph(args.graph), None
    if args.gen == "ladder":
        mode = "sqrt_n" if args.measure == "sqrt" else "unit"
        return make_ladder(LadderSpec(depth=args.N, k=args.k, measure_mode=mode)), "x0"
    if args.gen == "tree":
        return make_tree(TreeSpec(depth=args.depth)), "r"
    return make_random_balanced(args.n, args.seed, args.density), "v0"


def _resolve_ball(g: DirectedGraph, args, default_root: str | None):
    root_label = args.root or default_root or g.label(0)
    root = g.index(root_label)
    radius = args.radius
    if radius is None:
        radius = max(1, int(combinatorial_distance(g, root).max()) - 1)
    return ball(g, root, radius)


# Parsed arguments that name output files or the handler, not the computation.
_NOT_CONFIG = frozenset({"func", "out", "out_csv", "dump_matrix"})


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_report(payload: dict, args, ball_) -> None:
    """Add the resolved configuration, the version and the interior size, then emit."""
    payload["config"] = {key: value for key, value in vars(args).items() if key not in _NOT_CONFIG}
    payload["version"] = __version__
    payload["interior_size"] = len(ball_.interior)
    _emit(payload, args.out)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _dump_matrix(op, prefix: str) -> None:
    matrix = op.matrix
    np.savetxt(prefix + ".csv", matrix, delimiter=",")
    rows, cols = np.nonzero(matrix)
    with open(prefix + ".triplets.txt", "w", encoding="utf-8") as fh:
        for i, j, value in zip(rows.tolist(), cols.tolist(), matrix[rows, cols].tolist()):
            fh.write(f"{i} {j} {value!r}\n")


def _parse_time_grid(text: str) -> np.ndarray:
    try:
        start, stop, step = (_finite_float(part) for part in text.split(":"))
    except (ValueError, argparse.ArgumentTypeError):
        raise GraphError(f"time grid {text!r} must be three finite numbers start:stop:step") from None
    if step <= 0 or stop < start or not math.isfinite((stop - start) / step):
        raise GraphError("time grid needs step > 0, stop >= start and a finite number of points")
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(count)


# -- subcommands ----------------------------------------------------------------


def cmd_gen(args) -> int:
    g, _ = _build_graph(args)
    _emit(graph_to_dict(g), args.out)
    return 0


def cmd_check(args) -> int:
    g, default_root = _build_graph(args)
    ball_ = _resolve_ball(g, args, default_root)
    report = assumption_report(g, ball_.interior)
    balance = check_kirchhoff(g, sorted(ball_.interior), tol=args.tol_kirchhoff)
    payload = report.to_dict(labels=g.labels)
    payload["kirchhoff_ok"] = balance.ok
    payload["worst_vertex"] = None if balance.worst_vertex is None else g.label(balance.worst_vertex)
    _emit_report(payload, args, ball_)
    return 0 if balance.ok else 1


def cmd_spectrum(args) -> int:
    g, default_root = _build_graph(args)
    ball_ = _resolve_ball(g, args, default_root)
    op = assemble(g, ball_, "laplacian")
    if args.dump_matrix:
        _dump_matrix(op, args.dump_matrix)
    sample = numrange_boundary(op, args.angles)
    constant = check_asymmetry(g, ball_.vertices) if args.constant is None else args.constant
    sector, ok = check_sector(sample, constant)
    if args.out_csv:
        _write_csv(
            args.out_csv,
            ["angle", "re", "im"],
            ((a, z.real, z.imag) for a, z in zip(sample.angles, sample.points)),
        )
    payload = {
        "min_real": sample.min_real,
        "asymmetry_constant": constant,
        "sector": {"vertex": sector.vertex, "half_angle": sector.half_angle},
        "sector_ok": ok,
        "angles": args.angles,
    }
    _emit_report(payload, args, ball_)
    return 0 if ok else 1


def cmd_cheeger(args) -> int:
    g, default_root = _build_graph(args)
    ball_ = _resolve_ball(g, args, default_root)
    if not np.all(g.measures == 1.0):
        raise GraphError("Cheeger analysis requires unit vertex measure (ladder: --measure unit)")
    g_sym = symmetrize(g)
    cap = args.max_subset_size
    if cap is None:
        # complete (certified) enumeration for small graphs, bounded work above
        cap = len(g) - 1 if len(g) <= 20 else 10
    result = cheeger_bruteforce(g_sym, max_subset_size=cap)
    bound = cheeger_bound_check(g, ball_, result.value)
    # An uncertified h is only an upper bound, so a failed comparison proves
    # nothing; the exit code still reports the bound as unverified.
    verdict = "pass" if bound.ok else ("fail" if result.certified else "inconclusive")
    payload = {
        "h": result.value,
        "witness": [g.label(v) for v in result.witness],
        "certified": result.certified,
        "max_degree": g.max_degree,
        "lambda0": bound.lambda0,
        "min_real": bound.min_real,
        "verdict": verdict,
    }
    _emit_report(payload, args, ball_)
    return 0 if bound.ok else 1


def cmd_evolve(args) -> int:
    g, default_root = _build_graph(args)
    ball_ = _resolve_ball(g, args, default_root)
    op = assemble(g, ball_, "laplacian")
    if args.dump_matrix:
        _dump_matrix(op, args.dump_matrix)
    times = _parse_time_grid(args.t)
    v0 = np.zeros(op.n)
    v0[op.row_of(ball_.root)] = 1.0
    trace = evolve_trace(op, v0, times, lambda0=args.lambda0)
    if args.out_csv:
        _write_csv(
            args.out_csv,
            ["t", "opnorm", "bound", "state_norm"],
            zip(trace.times, trace.operator_norms, trace.bounds, trace.state_norms),
        )
    payload = trace.to_dict()
    _emit_report(payload, args, ball_)
    return 0 if trace.ok else 1


def cmd_certify(args) -> int:
    g, default_root = _build_graph(args)
    ball_ = _resolve_ball(g, args, default_root)
    cert = accretivity_certificate(g, ball_)
    _emit_report(cert.to_dict(), args, ball_)
    return 0 if cert.verdicts["m_sectorial_supported"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirlap",
        description="Non-symmetric Laplacians on directed weighted graphs: "
        "balance checks, numerical range, Cheeger bounds and heat semigroups.",
    )
    parser.add_argument("--version", action="version", version=f"dirlap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a generated graph as JSON")
    p.add_argument("family", choices=GENERATORS)
    _add_generator_options(p)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_gen, graph=None)

    p = sub.add_parser("check", help="Kirchhoff balance and asymmetry constants")
    _add_graph_source(p)
    _add_truncation(p)
    p.add_argument("--tol-kirchhoff", type=_finite_float, default=None, dest="tol_kirchhoff")
    p.add_argument("--out", help="report file (default: stdout)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("spectrum", help="numerical range boundary and sector check")
    _add_graph_source(p)
    _add_truncation(p)
    p.add_argument("--angles", type=int, default=360)
    p.add_argument("--constant", type=_finite_float, default=None, help="asymmetry constant override")
    p.add_argument("--out-csv", dest="out_csv", help="boundary points CSV file")
    p.add_argument("--dump-matrix", dest="dump_matrix", help="matrix dump prefix (.csv, .triplets.txt)")
    p.add_argument("--out", help="summary JSON file (default: stdout)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("cheeger", help="Cheeger constant and numerical range lower bound")
    _add_graph_source(p)
    _add_truncation(p)
    p.add_argument("--max-subset-size", dest="max_subset_size", type=int, default=None)
    p.add_argument("--out", help="report file (default: stdout)")
    p.set_defaults(func=cmd_cheeger)

    p = sub.add_parser("evolve", help="heat semigroup contraction and decay trace")
    _add_graph_source(p)
    _add_truncation(p)
    p.add_argument("--t", default="0:5:0.5", help="time grid start:stop:step")
    p.add_argument("--lambda0", type=_finite_float, default=None, help="expected decay rate")
    p.add_argument("--out-csv", dest="out_csv", help="trace CSV file")
    p.add_argument("--dump-matrix", dest="dump_matrix", help="matrix dump prefix")
    p.add_argument("--out", help="verdict JSON file (default: stdout)")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("certify", help="aggregate accretivity/sectoriality certificate")
    _add_graph_source(p)
    _add_truncation(p)
    p.add_argument("--angles", type=int, default=72, help="no effect: certify samples no boundary")
    p.add_argument("--out", help="certificate JSON file (default: stdout)")
    p.set_defaults(func=cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen":
        args.gen = args.family
    try:
        # Non-finite values raise NumericError; numpy's warnings would repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (GraphError, OSError) as exc:
        print(f"dirlap: input error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"dirlap: numeric failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())
