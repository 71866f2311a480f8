"""Command line front end.

Subcommands: gen, check, spectrum, cheeger, evolve, certify.  Exit codes:
0 = hypotheses/bounds verified, 1 = verified false, 2 = input error,
3 = numeric failure.  Every JSON report embeds the resolved configuration,
the tool version and the probed interior size, so runs are auditable and a
fixed configuration reproduces byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .generators import LadderSpec, TreeSpec, make_ladder, make_random_balanced, make_tree
from .graph import (
    Ball,
    DirectedGraph,
    GraphError,
    NumericError,
    _ball,
    assumption_report,
    ball,  # noqa: F401  (kept importable here; perfbench's tracer test rebinds it)
    check_asymmetry,
    combinatorial_distance,
    graph_to_dict,
    load_graph,
    save_graph,
)
from .operators import assemble
from .semigroup import evolve_trace
from .spectral import (
    _cheeger,
    _require_unit_measure,
    accretivity_certificate,
    check_sector,
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
    parser.add_argument("--root", help="truncation root label (default: the first vertex, a generator's origin)")
    parser.add_argument(
        "--radius",
        type=int,
        default=None,
        help="truncation radius (default: eccentricity of the root minus 1)",
    )


def _build_graph(args) -> DirectedGraph:
    if (args.graph is None) == (args.gen is None):
        raise GraphError("provide exactly one of --graph FILE or --gen NAME")
    if args.graph is not None:
        return load_graph(args.graph)
    if args.gen == "ladder":
        mode = "sqrt_n" if args.measure == "sqrt" else "unit"
        return make_ladder(LadderSpec(depth=args.N, k=args.k, measure_mode=mode))
    if args.gen == "tree":
        return make_tree(TreeSpec(depth=args.depth))
    return make_random_balanced(args.n, args.seed, args.density)


def _resolve_ball(g: DirectedGraph, args):
    # Vertex id 0 is a graph file's first vertex and every generator's origin (x0, r, v0).
    root = g.index(g.label(0) if args.root is None else args.root)
    radius = args.radius
    if radius is not None and radius < 1:
        # A radius-0 ball has no interior, and the certificate's radius-1 probes would lie outside it.
        raise GraphError(f"--radius must be >= 1, got {radius}")
    dist = combinatorial_distance(g, root)
    if radius is None:
        radius = max(1, int(dist.max()) - 1)
    return _ball(root, radius, dist)


# Parsed arguments that name output files or the handler, not the computation.
_NOT_CONFIG = frozenset({"func", "out", "out_csv", "dump_matrix"})


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _dump_matrix(op, prefix: str) -> None:
    np.savetxt(prefix + ".csv", op.dense(), delimiter=",")
    # The CSR arrays are in row-major order; stored zeros (a sink's diagonal) are skipped.
    nonzero = op.data != 0.0
    rows, cols, values = op._entry_rows()[nonzero], op.indices[nonzero], op.data[nonzero]
    with open(prefix + ".triplets.txt", "w", encoding="utf-8") as fh:
        for i, j, value in zip(rows.tolist(), cols.tolist(), values.tolist()):
            fh.write(f"{i} {j} {value!r}\n")


def _parse_time_grid(text: str) -> tuple[float, float, int]:
    """``start:stop:step`` as :func:`evolve_trace`'s (start, step, count); a stop within 1e-9 steps of a point is one."""
    try:
        start, stop, step = (_finite_float(part) for part in text.split(":"))
    except (ValueError, argparse.ArgumentTypeError):
        raise GraphError(f"time grid {text!r} must be three finite numbers start:stop:step") from None
    if step <= 0 or stop < start or not math.isfinite((stop - start) / step):
        raise GraphError("time grid needs step > 0, stop >= start and a finite number of points")
    return start, step, int(np.floor((stop - start) / step + 1e-9)) + 1


# -- subcommands ----------------------------------------------------------------
# Each verdict maps the graph, its truncation ball and the parsed arguments to
# its report and exit code; main adds the envelope and emits the report.


def cmd_check(g: DirectedGraph, ball_: Ball, args) -> tuple[dict, int]:
    report = assumption_report(g, ball_.interior, args.tol_kirchhoff)
    return report, 0 if report["kirchhoff_ok"] else 1


def cmd_spectrum(g: DirectedGraph, ball_: Ball, args) -> tuple[dict, int]:
    op = assemble(g, ball_, "laplacian")
    sample = numrange_boundary(op, args.angles)
    constant = check_asymmetry(g, ball_.vertices) if args.constant is None else args.constant
    sector, ok = check_sector(sample, constant)
    if args.dump_matrix:
        _dump_matrix(op, args.dump_matrix)
    if args.out_csv:
        _write_csv(
            args.out_csv,
            ["angle", "re", "im"],
            ((a, z.real, z.imag) for a, z in zip(sample.angles, sample.points)),
        )
    report = {
        "min_real": sample.min_real,
        "asymmetry_constant": constant,
        "sector": {"vertex": sector.vertex, "half_angle": sector.half_angle},
        "sector_ok": ok,
        "angles": args.angles,
    }
    return report, 0 if ok else 1


def cmd_cheeger(g: DirectedGraph, ball_: Ball, args) -> tuple[dict, int]:
    _require_unit_measure(g, "Cheeger analysis requires unit vertex measure (ladder: --measure unit)")
    result = cheeger_bruteforce(g, max_subset_size=args.max_subset_size)
    record = _cheeger(g, ball_, result.value)
    # An uncertified h is only an upper bound, so a failed comparison proves
    # nothing; the exit code still reports the bound as unverified.
    verdict = "pass" if record.ok else ("fail" if result.certified else "inconclusive")
    report = {
        "h": result.value,
        "witness": [g.label(v) for v in result.witness],
        "certified": result.certified,
        "max_degree": g.max_degree,
        "lambda0": record.bound,
        "min_real": record.value[1],
        "verdict": verdict,
    }
    return report, 0 if record.ok else 1


def cmd_evolve(g: DirectedGraph, ball_: Ball, args) -> tuple[dict, int]:
    op = assemble(g, ball_, "laplacian")
    start, step, count = _parse_time_grid(args.t)
    v0 = np.zeros(op.n)
    v0[op.row_of(ball_.root)] = 1.0
    trace = evolve_trace(op, v0, start, step, count, lambda0=args.lambda0)
    if args.dump_matrix:
        _dump_matrix(op, args.dump_matrix)
    if args.out_csv:
        columns = ("times", "operator_norms", "bounds", "state_norms")
        _write_csv(args.out_csv, ["t", "opnorm", "bound", "state_norm"], zip(*(trace[c] for c in columns)))
    return trace, 0 if trace["ok"] else 1


def cmd_certify(g: DirectedGraph, ball_: Ball, args) -> tuple[dict, int]:
    cert = accretivity_certificate(g, ball_)
    return cert, 0 if cert["verdicts"]["m_sectorial_supported"] else 1


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
    p.set_defaults(graph=None)

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


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process: building it takes far longer than parsing."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "gen":
        args.gen = args.family
    try:
        # Non-finite values raise NumericError; numpy's warnings would repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            g = _build_graph(args)
            if args.command == "gen":
                if args.out:
                    save_graph(g, args.out)
                else:
                    _emit(graph_to_dict(g), None)
                return 0
            ball_ = _resolve_ball(g, args)
            report, code = args.func(g, ball_, args)
        # The envelope: the resolved configuration, the version and the interior size.
        report["config"] = {key: value for key, value in vars(args).items() if key not in _NOT_CONFIG}
        report["version"] = __version__
        report["interior_size"] = len(ball_.interior)
        _emit(report, args.out)
        return code
    except (GraphError, OSError) as exc:
        print(f"dirlap: input error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"dirlap: numeric failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())
