"""Verdict benchmark for dirlap.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/dirlap`` must exist).  One run:

1. set-up, outside every timed region: pins BLAS/OpenMP to one thread and
   computes the reference values the reports are checked against
   (``reference.py``); the workload inputs are generator ladders, the same
   for every ``--seed``;
2. with ``--trace 0``, measures ``setup_s`` by starting fresh interpreters
   that import ``dirlap.cli`` and ``scipy.linalg`` (median of several);
3. starts one workload process (``worker.py``) that runs verdicts through
   ``dirlap.cli.main(argv)`` in a closed loop, one client, for ``S`` seconds;
   with ``--trace 1`` traced verdicts alternate with untraced ones;
4. checks every report: exit code, the oracle of ``reference.py``, and byte
   identity with the first report (traced reports included);
5. prints a machine line, then one JSON line with ``correct``, ``attempted``,
   ``failed`` and ``metrics``: the ``end_to_end`` metrics of ``BENCHMARK.json``
   with ``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker  # first: pins BLAS/OpenMP threads here and in every child, before numpy is imported
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 20
WORKER_SLACK_S = 100

def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def machine_block() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in (*worker.THREAD_VARS, "DIRLAP_THREADS")},
        "platform": platform.platform(),
    }


def measure_setup(env: dict) -> list[float]:
    """Seconds from starting an interpreter until ``dirlap.cli`` is imported.

    The probe prints its ``perf_counter`` reading once the imports are done;
    that clock is system-wide on Linux, so the parent can subtract its own
    reading taken just before the start.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--probe"], stdout=subprocess.PIPE, env=env, cwd=ROOT
        )
        try:
            out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        words = out.decode().split()
        if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        samples.append(float(words[1]) - start)
    return samples


def run_worker(job: dict, env: dict, timeout: float) -> dict:
    job_path = WORK / f"{job['tag']}-job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(job_path)], env=env, cwd=ROOT)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(Path(job["result"]).read_text(encoding="utf-8"))


def judge(ref, result: dict, report_path: Path) -> tuple[list[bool], list[str]]:
    """Per-verdict pass flags and the distinct problems found in the run.

    A verdict passes when it did not raise, its report is byte-identical to
    the first report of the run and the oracle accepts that report with the
    verdict's exit code.  Traced verdicts also fail when the traced functions
    were not restored or the sampled boundary misses the reference support
    values.
    """
    from reference import boundary_problems, check_report, support_values

    report = None
    if report_path.exists():
        try:
            report = json.loads(report_path.read_bytes())
        except ValueError:
            report = None
    records = result["untraced"] + result["traced"]
    first_digest = records[0]["digest"]
    problems: dict[str, None] = {}
    oracle: dict = {}
    flags = []
    for i, rec in enumerate(records):
        if rec["error"] is not None:
            why = [f"verdict {i} raised:\n{rec['error']}"]
        elif rec["digest"] is None or rec["digest"] != first_digest:
            why = ["a report differs from the first report of the run"]
        else:
            if rec["exit_code"] not in oracle:
                oracle[rec["exit_code"]] = check_report(ref, rec["exit_code"], report)
            why = oracle[rec["exit_code"]]
        problems.update(dict.fromkeys(why))
        flags.append(not why)

    traced = result["traced"]
    why = []
    if traced and result["restored"] is not True:
        why.append("traced functions were not restored")
    for sample in traced[0].get("trace", {}).get("samples", []) if traced else []:
        angles = sample["angles"]
        points = [complex(a, b) for a, b in zip(sample["re"], sample["im"])]
        why += boundary_problems(points, angles, support_values(ref.trunc, angles), ref.trunc.tol())
    if why:
        problems.update(dict.fromkeys(why))
        flags[len(result["untraced"]):] = [False] * len(traced)
    return flags, list(problems)


def end_to_end_metrics(result: dict, setup: list[float], flags: list[bool]) -> dict:
    untraced = result["untraced"]
    return {
        "verdict_s_p50": statistics.median(r["wall_s"] for r in untraced),
        "verdict_cpu_s_p50": statistics.median(r["cpu_s"] for r in untraced),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
        # 1 - failed_frac: a metric that is never 0 while any verdict passes.
        "ok_frac": flags.count(True) / len(flags),
    }


def layer_metrics(result: dict, names) -> dict:
    """The per-layer metrics ``names``, each the median over the traced verdicts.

    ``<layer>.self_s`` sums the self time of a layer's spans; ``<span>.self_s``
    and ``<span>.calls`` read one traced function; ``verdict_traced_s`` and
    ``trace.overhead_frac`` compare traced with untraced verdicts; any other
    name is a size the worker's observers record (0 when never recorded).
    """
    import spans

    functions = {f"{layer}.{attr}" for layer, attrs in spans.TRACED.items() for attr in attrs}
    traces = [rec["trace"] for rec in result["traced"] if "trace" in rec]
    traced_s = statistics.median(t["total_s"] for t in traces)
    untraced_s = statistics.median(rec["wall_s"] for rec in result["untraced"])

    def value(name: str) -> float:
        if name == "verdict_traced_s":
            return traced_s
        if name == "trace.overhead_frac":
            return (traced_s - untraced_s) / untraced_s
        span, _, kind = name.rpartition(".")
        if kind == "self_s" and span in spans.LAYERS:
            per = [sum(s for n, s in t["self_s"].items() if spans.layer_of(n) == span) for t in traces]
        elif kind in ("self_s", "calls"):
            if span not in functions:
                raise KeyError(f"{name}: {span} is not a traced function")
            per = [t[kind].get(span, 0) for t in traces]
        else:
            per = [t["observed"].get(name, 0) for t in traces]
        return statistics.median(per)

    return {name: value(name) for name in names}


def with_units(values: dict, specs) -> dict:
    """The metrics listed in ``specs`` (entries of ``BENCHMARK.json``) with their units."""
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in specs}


def dominant_share(names, result: dict) -> float:
    """Median share of a traced verdict spent in the expected dominant spans."""
    traces = [rec["trace"] for rec in result["traced"] if "trace" in rec]
    return statistics.median(sum(t["self_s"].get(n, 0.0) for n in names) / t["total_s"] for t in traces)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dirlap" / "cli.py").is_file():
        return fail(f"no dirlap sources under {SRC}; run from a source checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = dict(os.environ)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    workload = workloads.WORKLOADS[args.workload]
    ref = workload.reference()
    argv_ = list(workload.argv)

    setup = measure_setup(env) if args.trace == 0 else []
    report_path = WORK / f"{tag}-report.json"
    job = {
        "tag": tag,
        "argv": argv_,
        "out": str((WORK / f"{tag}-out.json").relative_to(ROOT)),
        "report": str(report_path),
        "result": str(WORK / f"{tag}-worker.json"),
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }
    if report_path.exists():
        report_path.unlink()
    result = run_worker(job, env, timeout=args.seconds + WORKER_SLACK_S)
    flags, problems = judge(ref, result, report_path)

    attempted = len(flags)
    failed = flags.count(False)
    if args.trace == 0:
        metrics = with_units(end_to_end_metrics(result, setup, flags), bench["end_to_end"])
    else:
        metrics = with_units(layer_metrics(result, [m["name"] for m in bench["per_layer"]]), bench["per_layer"])
    correct = failed == 0 and not problems
    for problem in problems[:10]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print("machine:", json.dumps(machine_block(), sort_keys=True))
    if args.trace == 1:
        share = dominant_share(workload.dominant, result)
        print("dominant:", json.dumps({"spans": workload.dominant, "share": share}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
