import json

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


@pytest.mark.parametrize(
    "command, edges",
    [pytest.param(cmd, PAIR, id=cmd) for cmd in ("spectrum", "certify", "cheeger", "evolve")]
    + [
        # a's strengths overflow, so the Kirchhoff imbalance inf - inf is NaN.
        pytest.param("check", PAIR + [("a", "c", 1e308), ("c", "a", 1e308)], id="check-strength"),
        # (b - b~)^2 overflows, so the asymmetry constant is infinite.
        pytest.param("check", [("a", "b", 1e308), ("b", "a", 1.0)], id="check-asymmetry"),
    ],
)
def test_non_finite_values_are_a_numeric_failure(tmp_path, capsys, command, edges):
    def save(edges, name):
        vertices = sorted({v for x, y, _ in edges for v in (x, y)})
        dl.save_graph(dl.DirectedGraph([(v, 1.0) for v in vertices], edges), tmp_path / name)
        return str(tmp_path / name)

    report = tmp_path / "report.json"
    argv = ("--radius", "2", "--out", str(report))
    code, _, err = run(capsys, command, "--graph", save(edges, "g.json"), *argv)
    assert code == 3
    assert len(err.splitlines()) == 1 and err.startswith("dirlap: numeric failure: ")
    assert not report.exists()
    code, _, _ = run(capsys, "check", "--graph", save(PAIR, "pair.json"), *argv)
    assert code == 0
    assert "NaN" not in report.read_text() and "Infinity" not in report.read_text()


def test_reports_are_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        code, _, _ = run(
            capsys, "certify", "--gen", "random", "--n", "10", "--seed", "5",
            "--radius", "4", "--angles", "16", "--out", str(out),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_random_stdout(capsys):
    code, out, _ = run(capsys, "gen", "random", "--n", "8", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    g = dl.graph_from_dict(doc)
    assert dl.check_kirchhoff(g, g.vertex_ids()).ok
