import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dirlap as dl
from dirlap.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_check_round_trip(tmp_path, capsys):
    path = tmp_path / "ladder.json"
    code, _, _ = run(capsys, "gen", "ladder", "--N", "20", "--out", str(path))
    assert code == 0
    loaded = dl.load_graph(path)
    assert len(loaded) == 41

    report = tmp_path / "check.json"
    code, _, _ = run(
        capsys, "check", "--graph", str(path), "--radius", "15", "--out", str(report)
    )
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["kirchhoff_ok"] is True
    assert payload["asymmetry_constant"] <= 12.0
    assert payload["version"] == dl.__version__
    assert payload["interior_size"] == 29
    assert payload["config"]["radius"] == 15


def test_check_generated_tree(tmp_path, capsys):
    report = tmp_path / "tree.json"
    code, _, _ = run(capsys, "check", "--gen", "tree", "--depth", "4", "--out", str(report))
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["asymmetry_constant"] == 4.0
    assert payload["total_asymmetry_constant"] == 2.0


def test_check_unbalanced_graph_exits_one(tmp_path, capsys):
    g = dl.DirectedGraph([("u", 1.0), ("v", 1.0)], [("u", "v", 3.0)])
    path = tmp_path / "edge.json"
    dl.save_graph(g, path)
    report = tmp_path / "report.json"
    code, _, _ = run(capsys, "check", "--graph", str(path), "--radius", "1", "--out", str(report))
    assert code == 1
    payload = json.loads(report.read_text())
    assert payload["kirchhoff_max_imbalance"] == 3.0
    assert payload["worst_vertex"] == "u"


def test_malformed_graph_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [{"id": "a", "m": 1}], "edges": [{"from": "a"}]}')
    code, _, err = run(capsys, "check", "--graph", str(bad))
    assert code == 2
    assert "edges[0]" in err

    worse = tmp_path / "worse.json"
    worse.write_text("{oops")
    code, _, err = run(capsys, "check", "--graph", str(worse))
    assert code == 2 and "line" in err


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe{}", "UTF-8"),
        (None, "directory"),
        (b'{"vertices": [{"id": "a", "m": "x"}], "edges": []}', "vertex 'a'"),
        (
            b'{"vertices": [{"id": "a", "m": 1}, {"id": "b", "m": 1}],'
            b' "edges": [{"from": "a", "to": "b", "b": [1]}]}',
            "edge 0",
        ),
    ],
    ids=["not-utf8", "directory", "measure-not-a-number", "weight-not-a-number"],
)
def test_unreadable_graph_files_are_input_errors(tmp_path, capsys, content, message):
    path = tmp_path / "g.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code, _, err = run(capsys, "check", "--graph", str(path))
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("dirlap: input error: ")
    assert message in err


def test_graph_source_required(capsys):
    code, _, err = run(capsys, "check")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "check", "--gen", "ladder", "--graph", "x.json")
    assert code == 2


def test_spectrum_outputs(tmp_path, capsys):
    csv = tmp_path / "pts.csv"
    summary = tmp_path / "summary.json"
    code, _, _ = run(
        capsys,
        "spectrum", "--gen", "ladder", "--N", "12", "--radius", "10",
        "--angles", "90", "--out-csv", str(csv), "--out", str(summary),
    )
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "angle,re,im"
    assert len(lines) == 91
    payload = json.loads(summary.read_text())
    assert payload["sector_ok"] is True
    assert payload["min_real"] >= 0.0
    assert payload["asymmetry_constant"] == 10.0


def test_spectrum_symmetric_reports_degenerate_sector(tmp_path, capsys):
    g_sym = dl.symmetrize(dl.make_ladder(dl.LadderSpec(depth=8)))
    path = tmp_path / "sym.json"
    dl.save_graph(g_sym, path)
    summary = tmp_path / "summary.json"
    code, _, _ = run(
        capsys, "spectrum", "--graph", str(path), "--root", "x0", "--radius", "6",
        "--angles", "16", "--out", str(summary),
    )
    assert code == 0
    payload = json.loads(summary.read_text())
    assert payload["sector"]["half_angle"] == 0.0


def test_spectrum_dump_matrix(tmp_path, capsys):
    prefix = str(tmp_path / "mat")
    code, _, _ = run(
        capsys, "spectrum", "--gen", "ladder", "--N", "6", "--radius", "4",
        "--angles", "8", "--dump-matrix", prefix, "--out", str(tmp_path / "s.json"),
    )
    assert code == 0
    dense = np.loadtxt(prefix + ".csv", delimiter=",")
    triplets = (tmp_path / "mat.triplets.txt").read_text().strip().splitlines()
    nnz = sum(1 for line in triplets)
    assert dense.shape[0] == dense.shape[1] == 9
    assert nnz == np.count_nonzero(dense)
    i, j, v = triplets[0].split()
    assert dense[int(i), int(j)] == float(v)


def test_cheeger_command(tmp_path, capsys):
    report = tmp_path / "ch.json"
    code, _, _ = run(
        capsys, "cheeger", "--gen", "ladder", "--N", "6", "--measure", "unit",
        "--radius", "5", "--out", str(report),
    )
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["verdict"] == "pass"
    assert payload["certified"] is True
    assert payload["min_real"] >= payload["lambda0"] - 1e-9
    assert payload["max_degree"] == 3
    assert payload["witness"]
    assert "angles" not in payload["config"]
    # min_real does not depend on the angles, so the option is gone.
    with pytest.raises(SystemExit) as exc:
        main(["cheeger", "--gen", "ladder", "--measure", "unit", "--angles", "8"])
    assert exc.value.code == 2


def test_cheeger_rejects_nonunit_measure(capsys):
    code, _, err = run(capsys, "cheeger", "--gen", "ladder", "--N", "6", "--radius", "4")
    assert code == 2 and "unit" in err


def test_cheeger_default_cap_on_larger_graph(tmp_path, capsys):
    report = tmp_path / "ch.json"
    code, _, _ = run(
        capsys, "cheeger", "--gen", "ladder", "--N", "10", "--measure", "unit",
        "--radius", "8", "--out", str(report),
    )
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["certified"] is False
    assert payload["verdict"] == "pass"


def test_evolve_pass_and_fail(tmp_path, capsys):
    csv = tmp_path / "trace.csv"
    ok = tmp_path / "ok.json"
    code, _, _ = run(
        capsys, "evolve", "--gen", "ladder", "--N", "7", "--measure", "unit",
        "--radius", "5", "--t", "0:2:0.5", "--lambda0", "0.1666", "--out", str(ok),
        "--out-csv", str(csv),
    )
    assert code == 0
    payload = json.loads(ok.read_text())
    assert payload["ok"] is True and payload["flagged"] == []
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t,opnorm,bound,state_norm"
    assert len(lines) == 6

    code, _, _ = run(
        capsys, "evolve", "--gen", "ladder", "--N", "7", "--measure", "unit",
        "--radius", "5", "--t", "0:2:0.5", "--lambda0", "10", "--out", str(tmp_path / "bad.json"),
    )
    assert code == 1


def test_evolve_grid_validation(capsys):
    code, _, err = run(capsys, "evolve", "--gen", "ladder", "--t", "5:0:1")
    assert code == 2 and "grid" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("evolve", "--gen", "ladder", "--t", "0:nan:1"),
        ("evolve", "--gen", "ladder", "--t", "0:inf:1"),
        ("evolve", "--gen", "ladder", "--lambda0", "nan"),
        ("check", "--gen", "ladder", "--k", "nan"),
        ("check", "--gen", "random", "--density", "nan"),
        ("check", "--gen", "ladder", "--tol-kirchhoff", "nan"),
        ("spectrum", "--gen", "ladder", "--constant", "inf"),
        # Finite parts whose point count overflows.
        ("evolve", "--gen", "ladder", "--t", "0:1e300:1e-300"),
    ],
    ids=lambda argv: " ".join(argv[3:]),
)
def test_non_finite_options_are_input_errors(tmp_path, capsys, argv):
    report = tmp_path / "report.json"
    try:
        code = main([*argv, "--out", str(report)])
    except SystemExit as exc:  # argparse rejects the option value
        code = exc.code
    assert code == 2
    assert not report.exists()
    assert "finite" in capsys.readouterr().err


def test_certify_positive_and_negative(tmp_path, capsys):
    good = tmp_path / "good.json"
    code, _, _ = run(
        capsys, "certify", "--gen", "ladder", "--N", "10", "--radius", "8",
        "--angles", "24", "--out", str(good),
    )
    assert code == 0
    payload = json.loads(good.read_text())
    assert payload["verdicts"]["m_sectorial_supported"] is True

    g = dl.DirectedGraph([("u", 1.0), ("v", 1.0)], [("u", "v", 3.0)])
    path = tmp_path / "edge.json"
    dl.save_graph(g, path)
    code, _, _ = run(
        capsys, "certify", "--graph", str(path), "--radius", "1", "--angles", "8",
        "--out", str(tmp_path / "bad.json"),
    )
    assert code == 1
    bad = json.loads((tmp_path / "bad.json").read_text())
    assert bad["kirchhoff"]["worst_vertex"] == "u"


# b = 1e308 both ways: every weight is valid, but b + b~ and the Hermitian
# part overflow, so no verdict may be reported; its strengths stay finite.
PAIR = [("a", "b", 1e308), ("b", "a", 1e308)]


def test_subnormal_weights_are_a_numeric_failure(tmp_path, capsys):
    g = dl.make_random_balanced(12, 0, 0.5)
    edges = [(g.label(x), g.label(y), w * 1e-318) for x, y, w in g.iter_edges()]
    vertices = [(g.label(x), g.measure(x)) for x in g.vertex_ids()]
    dl.save_graph(dl.DirectedGraph(vertices, edges), tmp_path / "g.json")
    report = tmp_path / "report.json"
    code, _, err = run(capsys, "certify", "--graph", str(tmp_path / "g.json"), "--out", str(report))
    assert code == 3
    assert len(err.splitlines()) == 1 and "subnormal" in err
    assert not report.exists()


@pytest.mark.parametrize(
    "command, edges, measure_a",
    [pytest.param(cmd, PAIR, 1.0, id=cmd) for cmd in ("spectrum", "certify", "cheeger", "evolve")]
    + [
        # a's strengths overflow, so the Kirchhoff imbalance inf - inf is NaN.
        pytest.param("check", PAIR + [("a", "c", 1e308), ("c", "a", 1e308)], 1.0, id="check-strength"),
        # (b - b~)^2 overflows, so the asymmetry constant is infinite.
        pytest.param("check", [("a", "b", 1e308), ("b", "a", 1.0)], 1.0, id="check-asymmetry"),
        # Every weight sum is finite; dividing by m(a) overflows.
        pytest.param("check", [("a", "b", 1e10), ("b", "a", 1.0)], 1e-300, id="check-tiny-measure"),
    ],
)
def test_non_finite_values_are_a_numeric_failure(tmp_path, capsys, command, edges, measure_a):
    def save(edges, name, measure_a=1.0):
        vertices = sorted({v for x, y, _ in edges for v in (x, y)})
        measures = [(v, measure_a if v == "a" else 1.0) for v in vertices]
        dl.save_graph(dl.DirectedGraph(measures, edges), tmp_path / name)
        return str(tmp_path / name)

    report = tmp_path / "report.json"
    argv = ("--radius", "2", "--out", str(report))
    code, _, err = run(capsys, command, "--graph", save(edges, "g.json", measure_a), *argv)
    assert code == 3
    assert len(err.splitlines()) == 1 and err.startswith("dirlap: numeric failure: ")
    assert not report.exists()
    code, _, _ = run(capsys, "check", "--graph", save(PAIR, "pair.json"), *argv)
    assert code == 0
    assert "NaN" not in report.read_text() and "Infinity" not in report.read_text()


@pytest.mark.parametrize(
    "argv, k",
    [
        # Unscaled, lambda0 = 1.333 > min_real = 0.823 with an uncertified h: "inconclusive".
        (("cheeger", "--radius", "8", "--max-subset-size", "1"), -40),
        # The total asymmetry grows with the radius on the sqrt ladder.
        (("certify",), -50),
        # C/8 >= 2^53, where atan(C/8) rounds to pi/2.
        (("certify",), 56),
        (("spectrum",), 56),
    ],
    ids=["cheeger-2^-40", "certify-2^-50", "certify-2^56", "spectrum-2^56"],
)
def test_verdicts_do_not_change_when_the_weights_scale(tmp_path, capsys, argv, k):
    spec = dl.LadderSpec(depth=10, measure_mode="unit") if argv[0] == "cheeger" else dl.LadderSpec(depth=20)
    doc = dl.graph_to_dict(dl.make_ladder(spec))
    results = []
    for scale in (1.0, 2.0**k):
        for edge in doc["edges"]:
            edge["b"] *= scale
        path, report = tmp_path / "g.json", tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run(capsys, *argv, "--graph", str(path), "--root", "x0", "--out", str(report))
        payload = json.loads(report.read_text())
        trend = payload.get("total_asymmetry", {}).get("trend")
        results.append((code, payload.get("verdict"), payload.get("verdicts"), trend, payload.get("sector_ok")))
    assert results[0] == results[1]
    assert results[0][0] == (1 if argv[0] == "cheeger" else 0)


@pytest.mark.parametrize("angles", ["8", "24", "72", "360"])
@pytest.mark.parametrize(
    "argv",
    [("--gen", "ladder", "--N", "20", "--constant", "4.0495"),
     ("--gen", "tree", "--depth", "4", "--radius", "3", "--constant", "1.0876")],
    ids=["ladder", "tree"],
)
def test_spectrum_sector_verdict_does_not_depend_on_the_angles(capsys, argv, angles):
    # W crosses the sector line between sampled angles at every angle count.
    code, out, _ = run(capsys, "spectrum", *argv, "--angles", angles)
    assert code == 1
    assert json.loads(out)["sector_ok"] is False


def test_certify_angles_have_no_effect(capsys):
    reports = []
    for angles in ("8", "360"):
        code, out, _ = run(capsys, "certify", "--gen", "ladder", "--N", "10", "--radius", "8", "--angles", angles)
        assert code == 0
        reports.append(json.loads(out))
        assert reports[-1]["config"].pop("angles") == int(angles)
    assert reports[0] == reports[1]


def test_reports_are_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        code, _, _ = run(
            capsys, "certify", "--gen", "random", "--n", "10", "--seed", "5",
            "--radius", "4", "--angles", "16", "--out", str(out),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_spectrum_boundary_csv_is_deterministic(tmp_path, capsys):
    texts = []
    for name in ("a.csv", "b.csv"):
        code, _, _ = run(
            capsys, "spectrum", "--gen", "ladder", "--N", "20", "--angles", "73",
            "--out-csv", str(tmp_path / name), "--out", str(tmp_path / "s.json"),
        )
        assert code == 0
        texts.append((tmp_path / name).read_bytes())
    assert texts[0] == texts[1]
    assert len(texts[0].splitlines()) == 74


def test_cli_import_leaves_scipy_sparse_unloaded():
    # scipy.sparse is imported by the sweep itself, so starting the CLI does not pay for it.
    src = str(Path(dl.__file__).resolve().parents[1])
    code = "import sys, dirlap.cli; sys.exit('scipy.sparse' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_gen_random_stdout(capsys):
    code, out, _ = run(capsys, "gen", "random", "--n", "8", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    g = dl.graph_from_dict(doc)
    assert dl.check_kirchhoff(g, g.vertex_ids()).ok
