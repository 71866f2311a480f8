import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dirlap as dl
from dirlap.cli import main

from conftest import directed_unit_cycle, unit_measure_copy


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
        (b"[]", "must be a JSON object"),
        (b'{"vertices": [{"id": "a"}], "edges": []}', "vertices[0]: expected an object with 'id' and 'm'"),
    ],
    ids=["not-utf8", "directory", "measure-not-a-number", "weight-not-a-number", "not-an-object", "vertex-without-m"],
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


@pytest.mark.parametrize(
    "options, message",
    [
        (("--seed", "-1"), "seed must be >= 0, got -1"),
        (("--n", "5", "--density", "1e308"), "density * n must be finite, got density 1e+308 at n = 5"),
    ],
    ids=["negative-seed", "overflowing-density"],
)
def test_random_generator_inputs_that_numpy_rejects_are_input_errors(capsys, options, message):
    # Exit 1 means "verified false"; a bad generator input is exit 2 with one line, not a traceback.
    code, out, err = run(capsys, "check", "--gen", "random", *options)
    assert code == 2 and out == ""
    assert err == f"dirlap: input error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--gen", "random", "--n", str(10**19)),
        ("check", "--gen", "random", "--n", str(10**18)),
        ("certify", "--gen", "ladder", "--N", str(10**19)),
        ("certify", "--gen", "ladder", "--N", str(10**18)),
    ],
    ids=["random-1e19", "random-1e18", "ladder-1e19", "ladder-1e18"],
)
def test_generator_sizes_too_large_to_allocate_are_input_errors(argv):
    # numpy refuses both sizes before touching memory; the ids are sized before any per-vertex
    # Python work, so the run ends at once rather than looping over labels.
    env = {**os.environ, "PYTHONPATH": str(Path(dl.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "dirlap", *argv], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.count("\n") == 1 and "too many to allocate" in done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "ladder", "--N", str(2**63 - 1)),
        ("gen", "random", "--n", str(2**63 - 1)),
        ("spectrum", "--gen", "ladder", "--N", "5", "--angles", str(2**63 - 1)),
        ("evolve", "--gen", "ladder", "--N", "5", "--t", f"0:{2**63 - 1}:1"),
    ],
    ids=["ladder", "random", "angles", "times"],
)
def test_sizes_numpy_returns_empty_for_are_input_errors(argv):
    # np.arange(2^63 - 1) overflows its length and returns an empty array instead of refusing. Taken as
    # empty, the random generator ran for over a minute, spectrum failed with an IndexError, and the
    # ladder and the time grid were refused with messages about an unknown vertex and an empty grid.
    env = {**os.environ, "PYTHONPATH": str(Path(dl.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "dirlap", *argv], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.count("\n") == 1 and "too many to allocate" in done.stderr


def test_an_empty_root_label_is_that_vertex_not_the_first(tmp_path, capsys):
    path = tmp_path / "g.json"
    vertices = [{"id": label, "m": 1} for label in ("a", "", "c")]
    edges = [{"from": x, "to": y, "b": 1} for x, y in (("a", ""), ("", "a"), ("", "c"), ("c", ""))]
    path.write_text(json.dumps({"vertices": vertices, "edges": edges}))
    code, out, _ = run(capsys, "check", "--graph", str(path), "--root", "", "--radius", "1")
    report = json.loads(out)
    assert code == 0 and report["config"]["root"] == ""
    assert report["probed_vertices"] == [""] and report["interior_size"] == 1


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


@pytest.mark.parametrize(
    "argv",
    [("evolve", "--gen", "ladder", "--N", "5", "--t", "5:0:1"),
     ("spectrum", "--gen", "ladder", "--N", "5", "--angles", "3")],
    ids=["evolve", "spectrum"],
)
def test_dump_matrix_is_not_written_on_an_input_error(tmp_path, capsys, argv):
    prefix = tmp_path / "P"
    code, out, _ = run(capsys, *argv, "--dump-matrix", str(prefix))
    assert code == 2
    assert out == ""
    assert not (tmp_path / "P.csv").exists()
    assert not (tmp_path / "P.triplets.txt").exists()


def _old_triplets(matrix):
    """The triplet file of the dense dump: np.nonzero in row-major order, values by repr."""
    rows, cols = np.nonzero(matrix)
    return "".join(f"{i} {j} {v!r}\n" for i, j, v in zip(rows.tolist(), cols.tolist(), matrix[rows, cols].tolist()))


DUMP_SOURCES = {
    "ladder": ("--gen", "ladder", "--N", "6"),
    "tree": ("--gen", "tree"),
    "random": ("--gen", "random", "--seed", "3"),
    "sink": ("sink",),
}
# The spectrum cases keep their plain ids; the evolve cases are prefixed.
DUMP_COMMANDS = {"": ("spectrum", "--angles", "8"), "evolve-": ("evolve", "--measure", "unit", "--t", "0:1:0.5")}


@pytest.mark.parametrize(
    "command, source",
    [pytest.param(cmd, src, id=prefix + name) for prefix, cmd in DUMP_COMMANDS.items() for name, src in DUMP_SOURCES.items()],
)
def test_dump_matrix_lists_the_row_major_nonzeros(tmp_path, capsys, command, source):
    sink = source == ("sink",)
    if sink:
        # b has no outgoing edge: its Laplacian row, diagonal included, is zero.
        g = dl.DirectedGraph([("a", 1.0), ("b", 2.0), ("c", 0.5)], [("a", "b", 1.5), ("c", "b", 2.0), ("a", "c", 1.0)])
        dl.save_graph(g, tmp_path / "sink.json")
        source = ("--graph", str(tmp_path / "sink.json"), "--radius", "2")
    prefix = str(tmp_path / "mat")
    code, _, _ = run(capsys, *command, *source, "--dump-matrix", prefix, "--out", str(tmp_path / "s.json"))
    assert code in (0, 1)
    dense = np.loadtxt(prefix + ".csv", delimiter=",", ndmin=2)
    assert (tmp_path / "mat.triplets.txt").read_text() == _old_triplets(dense)
    if sink:
        assert not np.any(dense[1])


@pytest.mark.parametrize("command", ["check", "spectrum", "cheeger", "evolve", "certify"])
@pytest.mark.parametrize("radius", ["0", "-1"])
def test_radius_below_one_is_an_input_error(tmp_path, capsys, command, radius):
    # A radius-0 ball has no interior; certify's radius-1 probes would lie outside it.
    out = tmp_path / "report.json"
    code, stdout, err = run(capsys, command, "--gen", "ladder", "--N", "5", "--measure", "unit",
                            "--radius", radius, "--out", str(out))
    assert code == 2
    assert stdout == "" and not out.exists()
    assert err == f"dirlap: input error: --radius must be >= 1, got {radius}\n"


@pytest.mark.parametrize(
    "argv, searches",
    [
        # The graph's connectivity check searches from the root x0; the default radius and
        # ball and the certificate's probes and cutoffs reuse its distances.
        (["certify", "--gen", "ladder", "--N", "12"], 1),
        (["evolve", "--gen", "ladder", "--N", "12", "--measure", "unit", "--t", "0:1:0.5"], 1),
        # Another root takes one more search, for the ball; the certificate reads the ball's distances.
        (["certify", "--gen", "ladder", "--N", "12", "--root", "y5", "--radius", "3"], 2),
        # The Cheeger constant reads b' from the host graph's slots, so no rebuilt graph searches again.
        (["certify", "--gen", "ladder", "--N", "12", "--measure", "unit"], 1),
        (["cheeger", "--gen", "ladder", "--N", "12", "--measure", "unit"], 1),
    ],
)
def test_default_ball_runs_one_breadth_first_search(capsys, monkeypatch, argv, searches):
    import dirlap.graph as graph

    distances, roots = graph._distances, []

    def counted(ptr, nbr, x0):
        roots.append(x0)
        return distances(ptr, nbr, x0)

    monkeypatch.setattr(graph, "_distances", counted)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and len(roots) == searches
    monkeypatch.undo()
    assert run(capsys, *argv) == (code, out, "")


def test_certify_at_another_root_reads_its_own_distances(capsys):
    # Root y5 is not id 0, so the stored distances from x0 must not stand in for its own.
    g = dl.make_ladder(dl.LadderSpec(depth=20))
    code, out, _ = run(capsys, "certify", "--gen", "ladder", "--root", "y5", "--radius", "6")
    report = json.loads(out)
    cert = dl.accretivity_certificate(g, dl.ball(g, g.index("y5"), 6))
    assert code == 0
    assert {key: report[key] for key in cert} == json.loads(json.dumps(cert))
    assert report["interior_size"] == cert["interior_size"]


REPORT_INPUTS = [
    pytest.param(
        ["--gen", "ladder", "--N", "12", "--measure", "unit"],
        lambda: dl.make_ladder(dl.LadderSpec(12, measure_mode="unit")),
        id="unit-ladder",
    ),
    pytest.param(["--gen", "tree", "--depth", "2"], lambda: dl.make_tree(dl.TreeSpec(depth=2)), id="tree"),
    pytest.param(["--gen", "random", "--n", "30"], lambda: dl.make_random_balanced(30, 0, 0.5), id="random"),
    pytest.param(
        ["--gen", "ladder", "--N", "6", "--measure", "unit"],
        lambda: dl.make_ladder(dl.LadderSpec(6, measure_mode="unit")),
        id="small-unit-ladder",
    ),
]


def default_ball(g):
    return dl.ball(g, 0, max(1, int(dl.combinatorial_distance(g, 0).max()) - 1))


@pytest.mark.parametrize("source,build", REPORT_INPUTS)
def test_certify_emits_the_library_report(capsys, source, build):
    g = build()
    code, out, _ = run(capsys, "certify", *source)
    report = json.loads(out)
    cert = dl.accretivity_certificate(g, default_ball(g))
    assert code == (0 if cert["verdicts"]["m_sectorial_supported"] else 1)
    assert {key: report[key] for key in cert} == json.loads(json.dumps(cert))
    if source[1] == "ladder":
        # certify reports the Cheeger constant only where its enumeration is complete.
        if len(g) <= 20:
            assert isinstance(report["cheeger"], dict)
        else:
            assert report["cheeger"] is None


# Unit-measure graphs of at most 20 vertices, each with the radius to probe (None: the default).
AGREEMENT_INPUTS = (
    [
        pytest.param(dl.make_ladder(dl.LadderSpec(N, measure_mode="unit")), None, id=f"unit-ladder-{N}")
        for N in range(2, 10)
    ]
    + [pytest.param(dl.make_tree(dl.TreeSpec(depth=d)), None, id=f"tree-{d}") for d in (1, 2)]
    + [
        pytest.param(directed_unit_cycle(n), radius, id=f"cycle-{n}-radius-{radius}")
        for n in range(3, 21)
        for radius in (None, n)
    ]
    + [
        pytest.param(unit_measure_copy(dl.make_random_balanced(n, 0, 1.0)), None, id=f"unit-random-{n}")
        for n in range(3, 13)
    ]
)


@pytest.mark.parametrize("g, radius", AGREEMENT_INPUTS)
def test_certify_and_cheeger_report_one_cheeger_constant(tmp_path, capsys, g, radius):
    dl.save_graph(g, tmp_path / "g.json")
    argv = ["--graph", str(tmp_path / "g.json")] + ([] if radius is None else ["--radius", str(radius)])
    _, out, _ = run(capsys, "certify", *argv)
    cert = json.loads(out)
    code, out, _ = run(capsys, "cheeger", *argv)
    report = json.loads(out)
    keys = ("h", "witness", "certified", "lambda0")
    assert {key: cert["cheeger"][key] for key in keys} == {key: report[key] for key in keys}
    assert report["certified"] is True
    assert cert["verdicts"]["cheeger_bound_supported"] is (code == 0)


def test_certify_enumerates_no_subsets_above_20_vertices(capsys, monkeypatch):
    from dirlap import spectral

    calls = []
    enumerate_subsets = spectral._connected_subsets
    monkeypatch.setattr(
        spectral, "_connected_subsets", lambda g, k_max: calls.append(k_max) or enumerate_subsets(g, k_max)
    )
    source = ["--gen", "ladder", "--N", "12", "--measure", "unit"]
    report = json.loads(run(capsys, "certify", *source)[1])
    assert report["cheeger"] is None and report["verdicts"]["cheeger_bound_supported"] is None
    assert calls == []
    # The counter is live: cheeger on the same 25 vertices enumerates up to its default cap.
    run(capsys, "cheeger", *source)
    assert calls == [10]


def test_certify_cheeger_block_on_nine_vertices(capsys):
    code, out, _ = run(capsys, "certify", "--gen", "ladder", "--N", "4", "--measure", "unit")
    block = json.loads(out)["cheeger"]
    assert code == 0
    assert block["h"] == pytest.approx(math.sqrt(2.0) / 4.0, rel=1e-15)  # 0.3536
    assert block["lambda0"] == pytest.approx(1.0 / 48.0, rel=1e-15)  # h^2 / (2 * 3)
    assert block["witness"] == ["x1", "y1", "x2", "y2", "x3", "y3", "x4", "y4"]
    assert block["certified"] is True and block["ok"] is True


@pytest.mark.parametrize("source,build", REPORT_INPUTS)
def test_check_emits_the_library_report(capsys, source, build):
    g = build()
    code, out, _ = run(capsys, "check", *source)
    envelope = {"config", "version", "interior_size"}
    report = {key: value for key, value in json.loads(out).items() if key not in envelope}
    assert code == 0
    assert report == json.loads(json.dumps(dl.assumption_report(g, default_ball(g).interior)))


@pytest.mark.parametrize("source,build", REPORT_INPUTS)
@pytest.mark.parametrize("lambda0", [None, 5.0])
def test_evolve_emits_the_library_report(capsys, source, build, lambda0):
    # Grids whose float differences are one value, several values, and that start after 0.
    from dirlap.cli import _parse_time_grid

    g = build()
    rate = [] if lambda0 is None else ["--lambda0", str(lambda0)]
    envelope = {"config", "version", "interior_size"}
    ball_ = default_ball(g)
    op = dl.assemble(g, ball_, "laplacian")
    v0 = np.zeros(op.n)
    v0[op.row_of(ball_.root)] = 1.0
    for grid in ("0:2:0.25", "0:2:0.1", "0.5:2:0.3"):
        code, out, _ = run(capsys, "evolve", *source, "--t", grid, *rate)
        report = {key: value for key, value in json.loads(out).items() if key not in envelope}
        trace = dl.evolve_trace(op, v0, *_parse_time_grid(grid), lambda0=lambda0)
        assert code == (0 if trace["ok"] else 1)
        assert report == json.loads(json.dumps(trace))


def test_main_builds_its_parser_once(capsys, monkeypatch):
    import dirlap.cli as cli

    argv = ["check", "--gen", "ladder", "--N", "5"]
    first = run(capsys, *argv)

    def rebuilt():
        raise AssertionError("main built a second parser")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    assert run(capsys, *argv) == first == (0, first[1], "")


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
        # Text that is no number at all.
        ("check", "--gen", "ladder", "--k", "abc"),
        ("evolve", "--gen", "ladder", "--t", "0:x:1"),
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


@pytest.mark.parametrize("tol, code", [("-1e-3", 2), ("0", 0), ("1e-3", 0)])
def test_kirchhoff_tolerance_must_be_non_negative(capsys, tol, code):
    # The N = 10 ladder is exactly balanced; a negative tolerance must not fail it.
    assert run(capsys, "check", "--gen", "ladder", "--N", "10", f"--tol-kirchhoff={tol}")[0] == code


@pytest.mark.parametrize("grid", ["0:1e15:1", "0:1:1e-300"])
def test_time_grids_too_large_to_allocate_are_input_errors(tmp_path, capsys, grid):
    # numpy refuses both arrays before touching memory: 8e15 bytes, and more points than an index holds.
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "evolve", "--gen", "ladder", "--t", grid, "--out", str(report))
    assert code == 2 and out == ""
    assert not report.exists()
    assert err.count("\n") == 1 and "too many to allocate" in err


def test_angle_grids_too_large_to_allocate_are_input_errors(tmp_path, capsys):
    # numpy refuses 8e13 bytes before touching memory.
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "spectrum", "--gen", "ladder", "--N", "5", "--angles", "10000000000000", "--out", str(report))
    assert code == 2 and out == ""
    assert not report.exists()
    assert err.count("\n") == 1 and "too many to allocate" in err


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
# b(a, c) = 5e-324 is a valid weight, but b'(a, c) = b/2 + b~/2 rounds to 0.
SUBNORMAL_SLOT = [("a", "b", 1.0), ("b", "a", 1.0), ("b", "c", 1.0), ("c", "b", 1.0), ("a", "c", 5e-324)]


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


def test_evolve_rejects_subnormal_entries_as_every_verdict_does(tmp_path, capsys):
    g = dl.make_random_balanced(12, 0, 0.5)
    edges = [(g.label(x), g.label(y), w * 1e-318) for x, y, w in g.iter_edges()]
    dl.save_graph(dl.DirectedGraph([(g.label(x), g.measure(x)) for x in g.vertex_ids()], edges), tmp_path / "g.json")
    path = str(tmp_path / "g.json")
    message = "dirlap: numeric failure: the operator has subnormal entries, whose rounding no tolerance covers\n"
    for command in ("evolve", "spectrum", "certify"):
        assert run(capsys, command, "--graph", path) == (3, "", message)
    # The check reads numpy alone, so evolve still leaves scipy.sparse unloaded.
    code = "import sys; from dirlap.cli import main; sys.exit(main(sys.argv[1:]) != 3 or 'scipy.sparse' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(dl.__file__).resolve().parents[1])}
    argv = [sys.executable, "-c", code, "evolve", "--graph", path]
    assert subprocess.run(argv, env=env, capture_output=True, timeout=60).returncode == 0


def test_evolve_traces_a_first_step_of_subnormal_norm(tmp_path, capsys):
    # Measures 2^j, j in [-26, 0], give exp(-h A) on the radius-1 ball sigma_1 = 1.6e-308, subnormal,
    # while every entry of the operator is normal: a verdict, not a numeric failure.
    g = dl.make_random_balanced(100, 150)
    exponents = np.random.default_rng(150).integers(-26, 1, size=len(g))
    vertices = [(g.label(x), 2.0 ** int(j)) for x, j in zip(g.vertex_ids(), exponents)]
    edges = [(g.label(x), g.label(y), w) for x, y, w in g.iter_edges()]
    dl.save_graph(dl.DirectedGraph(vertices, edges), tmp_path / "g.json")
    report = tmp_path / "report.json"
    argv = ["evolve", "--graph", str(tmp_path / "g.json"), "--radius", "1", "--t", "0:0.05078125:0.05078125"]
    assert run(capsys, *argv, "--out", str(report)) == (0, "", "")
    assert json.loads(report.read_text())["ok"] is True


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
        # cheeger reads b' from the graph as given, and its operator has a subnormal entry.
        pytest.param("cheeger", SUBNORMAL_SLOT, 1.0, id="cheeger-subnormal"),
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


@pytest.mark.parametrize("command", ["check", "certify"])
def test_an_underflowed_symmetrized_weight_is_named(tmp_path, capsys, command):
    dl.save_graph(dl.DirectedGraph([(v, 1.0) for v in "abc"], SUBNORMAL_SLOT), tmp_path / "g.json")
    code, out, err = run(capsys, command, "--graph", str(tmp_path / "g.json"), "--radius", "1")
    assert (code, out) == (3, "")
    assert err == "dirlap: numeric failure: the symmetrized weight b' of 'a' and 'c' underflows to 0\n"


def test_kirchhoff_tolerance_is_checked_before_any_sum(tmp_path, capsys):
    # The asymmetry of this graph is a numeric failure, but the bad tolerance is reported first.
    dl.save_graph(dl.DirectedGraph([(v, 1.0) for v in "abc"], SUBNORMAL_SLOT), tmp_path / "g.json")
    code, out, err = run(capsys, "check", "--graph", str(tmp_path / "g.json"), "--radius", "1", "--tol-kirchhoff=-1")
    assert (code, out) == (2, "")
    assert err == "dirlap: input error: Kirchhoff tolerance must be finite and >= 0, got -1.0\n"


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


def test_spectrum_certifies_where_the_top_eigenvector_jumps(tmp_path, capsys):
    # Around phi = pi/2 the top eigenvector of cos(phi) S + i sin(phi) K jumps from
    # one end of the ladder to the other, so the warm start leans on a lower one.
    csv = tmp_path / "points.csv"
    argv = ("--gen", "ladder", "--N", "450", "--k", "2")
    code, _, err = run(capsys, "spectrum", *argv, "--out-csv", str(csv), "--out", str(tmp_path / "s.json"))
    assert code == 0 and err == ""
    g = dl.make_ladder(dl.LadderSpec(depth=450, k=2.0))
    ball_ = dl.ball(g, 0, int(dl.combinatorial_distance(g, 0).max()) - 1)
    a = dl.similarity_to_standard(dl.assemble(g, ball_, "laplacian"))
    sym, skew = (a + a.T) / 2.0, (a - a.T) / 2.0
    tol = 100 * len(a) * np.finfo(float).eps * np.linalg.norm(a, 2)
    for phi, re, im in np.loadtxt(csv, delimiter=",", skiprows=1)[90:93]:
        expected = np.linalg.eigvalsh(np.cos(phi) * sym + 1j * np.sin(phi) * skew)[-1]
        assert abs((np.exp(1j * phi) * complex(re, im)).real - expected) <= tol


def test_spectrum_passes_on_the_longer_sqrt_ladder(tmp_path, capsys):
    # The sweep used to run out of solves near phi = pi/2 from N = 1200 on; it runs only for the CSV.
    csv = tmp_path / "points.csv"
    argv = ("--gen", "ladder", "--N", "1200", "--out-csv", str(csv), "--out", str(tmp_path / "s.json"))
    code, _, err = run(capsys, "spectrum", *argv)
    assert code == 0 and err == ""
    assert len(csv.read_text().splitlines()) == 1 + 360


def scaled_ladder(k):
    doc = dl.graph_to_dict(dl.make_ladder(dl.LadderSpec(depth=20)))
    for edge in doc["edges"]:
        edge["b"] *= 2.0**k
    return dl.graph_from_dict(doc)


@pytest.mark.parametrize(
    "build",
    [
        lambda: dl.make_ladder(dl.LadderSpec(depth=20)),
        lambda: dl.make_tree(dl.TreeSpec(depth=3)),
        lambda: dl.make_random_balanced(30, 0, 0.5),
        lambda: scaled_ladder(56),
    ],
    ids=["ladder", "tree", "random", "spectrum-2^56"],
)
def test_spectrum_decides_on_one_frame_and_sweeps_only_for_the_csv(tmp_path, capsys, monkeypatch, build):
    import dirlap.cli as cli
    import dirlap.spectral as spectral

    g = build()
    dl.save_graph(g, tmp_path / "g.json")
    argv = ("spectrum", "--graph", str(tmp_path / "g.json"), "--angles", "36")
    frame, frames = spectral._standard_frame, []

    def counted(*args, **kwargs):
        frames.append(1)
        return frame(*args, **kwargs)

    def no_sweep(*args, **kwargs):
        raise AssertionError("the verdict swept the boundary")

    # The verdict reads min_real and the sector from one frame, as the certificate does.
    for module in (spectral, cli):
        monkeypatch.setattr(module, "_standard_frame", counted, raising=False)
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_top_eigenpair", no_sweep)
        code, plain, _ = run(capsys, *argv)
    assert len(frames) == 1

    frames.clear()
    csv = tmp_path / "points.csv"
    assert run(capsys, *argv, "--out-csv", str(csv)) == (code, plain, "")
    assert len(frames) == 1
    monkeypatch.undo()
    sample = dl.numrange_boundary(dl.assemble(g, default_ball(g), "laplacian"), 36)
    rows = [f"{float(a)!r},{float(z.real)!r},{float(z.imag)!r}" for a, z in zip(sample.angles, sample.points)]
    assert csv.read_text().splitlines() == ["angle,re,im", *rows]


def test_cli_import_leaves_scipy_sparse_unloaded():
    # scipy.sparse is imported by the sweep itself, so starting the CLI does not pay for it.
    src = str(Path(dl.__file__).resolve().parents[1])
    code = "import sys, dirlap.cli; sys.exit('scipy.sparse' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


@pytest.mark.parametrize(
    "code",
    [
        "import sys, dirlap; sys.exit('scipy.sparse' in sys.modules)",
        "import sys; from dirlap.cli import main; "
        "code = main(['evolve', '--gen', 'ladder', '--N', '20', '--measure', 'unit', '--out', sys.argv[1]]); "
        "sys.exit(code != 0 or 'scipy.sparse' in sys.modules)",
    ],
    ids=["import", "evolve"],
)
def test_import_and_evolve_leave_scipy_sparse_unloaded(tmp_path, code):
    # Loading scipy.sparse costs megabytes of peak memory that a heat-semigroup verdict never uses.
    src = str(Path(dl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-c", code, str(tmp_path / "evolve.json")]
    assert subprocess.run(argv, env=env, timeout=60).returncode == 0


def test_gen_random_stdout(capsys):
    code, out, _ = run(capsys, "gen", "random", "--n", "8", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    g = dl.graph_from_dict(doc)
    assert dl.check_kirchhoff(g, g.vertex_ids()).ok
