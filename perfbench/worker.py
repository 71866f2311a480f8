"""The workload process: runs verdicts through ``dirlap.cli.main`` in-process.

    python3 perfbench/worker.py --probe     # import, print "ready <perf_counter>", exit
    python3 perfbench/worker.py JOB.json    # run the verdict loop of a job

BLAS and OpenMP are pinned to one thread before numpy is first imported, and
``DIRLAP_THREADS`` is removed, so the angle sweep runs serially.

A job names the command line, the report path, how many seconds to measure
and whether to trace.  Each verdict is one ``main(argv)`` call plus reading
the report back, timed in wall and process CPU seconds.  With tracing,
untraced and traced verdicts alternate (see ``spans.py``); the traced
functions are restored after each traced verdict.  The worker writes its
measurements to the job's result path and leaves the first report for the
parent to check.
"""

import os
import sys

# Pins every process that imports this module and the children it starts.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
os.environ.pop("DIRLAP_THREADS", None)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

MIN_VERDICTS = 3


def _import_program():
    # Every CLI run pays for scipy.linalg, also if the package comes to import it lazily.
    import scipy.linalg  # noqa: F401

    import dirlap.cli

    if not os.path.abspath(dirlap.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"dirlap imported from {dirlap.cli.__file__}, not from {SRC}")
    return dirlap.cli


def _observers():
    def graph_size(seen, g):
        seen.setdefault("graph.vertices", len(g))
        seen.setdefault("graph.edges", g.edge_count)

    def assembled(seen, op):
        seen["operators.rows"] = seen.get("operators.rows", 0) + op.n
        seen["operators.dense_bytes"] = seen.get("operators.dense_bytes", 0) + 8 * op.n * op.n

    def similarity(seen, matrix):
        rows, cols = matrix.shape
        seen["operators.dense_bytes"] = seen.get("operators.dense_bytes", 0) + 8 * rows * cols

    def sample(seen, result):
        seen.setdefault("samples", []).append(result)

    return {
        "generators.make_ladder": graph_size,
        "operators.assemble": assembled,
        "operators.similarity_to_standard": similarity,
        "spectral.numrange_boundary": sample,
    }


def _loop(call, seconds: float, out: str, modes) -> tuple[list, bytes | None]:
    """Closed loop of verdicts; verdict i runs as ``modes[i % len(modes)](call)``.

    Returns one record per verdict and the bytes of the first report.
    """
    import hashlib
    import time
    import traceback

    records = []
    first = None
    start = time.perf_counter()
    last = 0.0
    # Start another verdict only while it is expected to end within the time.
    while len(records) < MIN_VERDICTS * len(modes) or time.perf_counter() - start + last <= seconds:
        mode = len(records) % len(modes)
        if os.path.exists(out):
            os.remove(out)
        record = {"mode": mode, "exit_code": None, "error": None, "digest": None}
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            (code, data), extra = modes[mode](call)
        except SystemExit as exc:  # argparse rejects a command line by exiting
            code, data, extra = exc.code, None, None
        except Exception:  # a verdict that raises counts as failed; the loop goes on
            code, data, extra = None, None, None
            record["error"] = traceback.format_exc(limit=4)
        record["wall_s"] = last = time.perf_counter() - wall0
        record["cpu_s"] = time.process_time() - cpu0
        record["exit_code"] = code
        if data is not None:
            record["digest"] = hashlib.sha256(data).hexdigest()
            first = data if first is None else first
        if extra is not None:
            record["trace"] = extra
        records.append(record)
    return records, first


def _trace_summary(verdict) -> dict:
    samples = verdict.observed.pop("samples", [])
    return {
        "total_s": verdict.total_s,
        "self_s": verdict.self_s,
        "calls": verdict.calls,
        "observed": verdict.observed,
        "samples": [
            {"re": s.points.real.tolist(), "im": s.points.imag.tolist(), "angles": s.angles.tolist()}
            for s in samples
        ],
    }


def run_job(job: dict) -> dict:
    import resource

    import spans

    cli = _import_program()
    argv = [*job["argv"], "--out", job["out"]]

    def call():
        code = cli.main(argv)
        with open(job["out"], "rb") as fh:
            return code, fh.read()

    def untraced(f):
        return f(), None

    modes = [untraced]
    restored = None
    if job["trace"]:
        # Traced verdicts alternate with untraced ones, so both meet the same
        # machine conditions; the functions are rebound only around each
        # traced verdict.
        tracer = spans.Tracer(_observers())
        restored = True

        def traced(f):
            nonlocal restored
            handle = spans.install(tracer)
            try:
                result, verdict = tracer.verdict(f)
            finally:
                restored = handle.restore() and restored
            return result, _trace_summary(verdict)

        modes.append(traced)
    records, first = _loop(call, job["seconds"], job["out"], modes)
    traced_records = [r for r in records if r["mode"] == 1]
    for record in traced_records[1:]:
        # Keep boundary samples of the first traced verdict only.
        record.get("trace", {}).pop("samples", None)
    if first is not None:
        with open(job["report"], "wb") as fh:
            fh.write(first)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "untraced": [r for r in records if r["mode"] == 0],
        "traced": traced_records,
        "restored": restored,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def main() -> int:
    if sys.argv[1:] == ["--probe"]:
        _import_program()
        import time

        print("ready", repr(time.perf_counter()), flush=True)
        return 0
    import json

    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    result = run_job(job)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
