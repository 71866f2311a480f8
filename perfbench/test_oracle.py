"""Tests of the benchmark's own checks, on small instances of each command.

    python3 -m pytest perfbench -q
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import dirlap  # noqa: E402
import dirlap.cli  # noqa: E402
import reference as refm  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def verdict(tmp_path, argv):
    out = tmp_path / "report.json"
    code = dirlap.cli.main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text())


@pytest.fixture(scope="module")
def certify(tmp_path_factory):
    ref = refm.certify_reference(refm.ladder_data(20, "sqrt"))
    code, report = verdict(tmp_path_factory.mktemp("certify"), ["certify", "--gen", "ladder", "--N", "20"])
    return ref, code, report


def test_certify_report_passes(certify):
    ref, code, report = certify
    assert refm.check_report(ref, code, report) == []


def test_flipped_verdict_fails(certify):
    ref, code, report = certify
    bad = copy.deepcopy(report)
    bad["verdicts"]["m_sectorial_supported"] = False
    assert refm.check_report(ref, code, bad)


def test_min_real_beyond_tolerance_fails(certify):
    ref, code, report = certify
    tol = ref.trunc.tol()
    near = copy.deepcopy(report)
    near["min_real"] += 0.1 * tol
    assert refm.check_report(ref, code, near) == []
    far = copy.deepcopy(report)
    far["min_real"] += 10 * tol
    assert refm.check_report(ref, code, far)


def test_wrong_exit_code_fails(certify):
    ref, code, report = certify
    assert code == 0
    assert refm.check_report(ref, 1, report)


def test_missing_field_fails(certify):
    ref, code, report = certify
    bad = copy.deepcopy(report)
    del bad["sector"]
    assert refm.check_report(ref, code, bad)


def test_boundary_compared_by_support_values():
    ladder = dirlap.make_ladder(dirlap.LadderSpec(depth=20))
    op = dirlap.assemble(ladder, dirlap.ball(ladder, 0, 19), "laplacian")
    sample = dirlap.numrange_boundary(op, 72)
    ref = refm.certify_reference(refm.ladder_data(20, "sqrt"))
    support = refm.support_values(ref.trunc, sample.angles)
    tol = ref.trunc.tol()
    assert refm.boundary_problems(sample.points, sample.angles, support, tol) == []
    # Moving each point by 1e-7 along the supporting line keeps its support value.
    along = sample.points + 1e-7j * np.exp(-1j * sample.angles)
    assert refm.boundary_problems(along, sample.angles, support, tol) == []
    # Moving it by 1e-7 across the line does not.
    across = sample.points + 1e-7 * np.exp(-1j * sample.angles)
    assert tol < 1e-7
    assert refm.boundary_problems(across, sample.angles, support, tol)


def test_evolve_report_and_perturbation(tmp_path):
    times = np.arange(9) * 0.5
    ref = refm.evolve_reference(refm.ladder_data(20, "unit"), times, 0.1666)
    argv = ["evolve", "--gen", "ladder", "--N", "20", "--measure", "unit", "--t", "0:4:0.5", "--lambda0", "0.1666"]
    code, report = verdict(tmp_path, argv)
    assert refm.check_report(ref, code, report) == []
    bad = copy.deepcopy(report)
    bad["operator_norms"][3] += 10 * ref.values["tols"][3]
    assert refm.check_report(ref, code, bad)


def record(digest="a", code=0, error=None):
    return {"exit_code": code, "error": error, "digest": digest, "wall_s": 1.0, "cpu_s": 1.0}


def test_judge_counts_each_failing_verdict(certify, tmp_path):
    ref, _, report = certify
    path = tmp_path / "first.json"
    path.write_text(json.dumps(report))
    result = {
        "untraced": [record(), record("b"), record(code=1), record(error="Traceback")],
        "traced": [],
        "restored": None,
    }
    flags, problems = run.judge(ref, result, path)
    assert flags == [True, False, False, False]
    assert len(problems) == 3


def test_judge_fails_traced_verdicts_not_restored(certify, tmp_path):
    ref, _, report = certify
    path = tmp_path / "first.json"
    path.write_text(json.dumps(report))
    result = {"untraced": [record()], "traced": [record(), record()], "restored": False}
    flags, problems = run.judge(ref, result, path)
    assert flags == [True, False, False]
    assert problems == ["traced functions were not restored"]


def test_tracer_rebinds_aliases_and_restores():
    import dirlap.spectral

    original = dirlap.graph.ball
    assert dirlap.spectral.make_ball is original
    g = dirlap.make_ladder(dirlap.LadderSpec(depth=10))
    tracer = spans.Tracer()
    handle = spans.install(tracer)
    try:
        assert dirlap.spectral.make_ball is not original and dirlap.ball is dirlap.cli.ball
        _, v = tracer.verdict(lambda: dirlap.cli.ball(g, 0, 3))
    finally:
        assert handle.restore()
    assert dirlap.spectral.make_ball is original and dirlap.ball is original and dirlap.cli.ball is original
    assert v.calls == {"cli.main": 1, "graph.ball": 1, "graph.combinatorial_distance": 1}
    assert sum(v.self_s.values()) == pytest.approx(v.total_s, rel=1e-9)


def test_layer_metrics_reads_names():
    trace = {
        "total_s": 1.0,
        "self_s": {"cli.main": 0.25, "graph.ball": 0.5, "graph.combinatorial_distance": 0.25},
        "calls": {"cli.main": 1, "graph.ball": 1, "graph.combinatorial_distance": 3},
        "observed": {"graph.vertices": 21},
    }
    result = {"untraced": [record(), record()], "traced": [record() | {"trace": trace}]}
    names = ["graph.self_s", "graph.ball.self_s", "graph.combinatorial_distance.calls", "spectral.self_s",
             "graph.vertices", "operators.rows", "verdict_traced_s", "trace.overhead_frac"]
    assert run.layer_metrics(result, names) == dict(zip(names, [0.75, 0.5, 3, 0, 21, 0, 1.0, 0.0]))
    with pytest.raises(KeyError):
        run.layer_metrics(result, ["graph.no_such_function.self_s"])
