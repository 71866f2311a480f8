import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dirlap as dl
from dirlap import GraphError

# Every directed edge of the depth-5 two-rail graph with k = 1, written out
# by hand from the weight table.
LADDER_5_EDGES = {
    ("x0", "x1"): 3.0,
    ("y1", "x0"): 3.0,
    ("x0", "y1"): 1.0,
    ("x1", "x0"): 1.0,
    ("x1", "x2"): 6.0,
    ("x2", "x1"): 2.0,
    ("x2", "x3"): 12.0,
    ("x3", "x2"): 6.0,
    ("x3", "x4"): 20.0,
    ("x4", "x3"): 12.0,
    ("x4", "x5"): 30.0,
    ("x5", "x4"): 20.0,
    ("y1", "y2"): 2.0,
    ("y2", "y1"): 6.0,
    ("y2", "y3"): 6.0,
    ("y3", "y2"): 12.0,
    ("y3", "y4"): 12.0,
    ("y4", "y3"): 20.0,
    ("y4", "y5"): 20.0,
    ("y5", "y4"): 30.0,
    ("y1", "x1"): 2.0,
    ("x2", "y2"): 1.0,
    ("y2", "x2"): 3.0,
    ("x3", "y3"): 2.0,
    ("y3", "x3"): 4.0,
    ("x4", "y4"): 3.0,
    ("y4", "x4"): 5.0,
    ("x5", "y5"): 4.0,
    ("y5", "x5"): 6.0,
}


def test_ladder_golden_table():
    g = dl.make_ladder(dl.LadderSpec(depth=5))
    actual = {(g.label(x), g.label(y)): w for x, y, w in g.iter_edges()}
    assert actual == LADDER_5_EDGES


def test_ladder_rung_weights():
    g = dl.make_ladder(dl.LadderSpec(depth=5))
    assert g.weight(g.index("x2"), g.index("y2")) == 1.0
    assert g.weight(g.index("y2"), g.index("x2")) == 3.0
    # the n=1 rung is one-way: weight 0 edges are absent
    assert g.weight(g.index("x1"), g.index("y1")) == 0.0
    assert g.weight(g.index("y1"), g.index("x1")) == 2.0


def test_ladder_measures():
    g = dl.make_ladder(dl.LadderSpec(depth=5))
    assert g.measure(g.index("x0")) == 1.0
    assert g.measure(g.index("x3")) == np.sqrt(3.0)
    unit = dl.make_ladder(dl.LadderSpec(depth=5, measure_mode="unit"))
    assert np.all(unit.measures == 1.0)


def test_ladder_k_zero_omits_edges():
    g = dl.make_ladder(dl.LadderSpec(depth=4, k=0.0))
    assert g.weight(g.index("x0"), g.index("y1")) == 0.0
    assert g.weight(g.index("x1"), g.index("x0")) == 0.0
    assert g.weight(g.index("x0"), g.index("x1")) == 2.0
    interior = dl.ball(g, 0, 4).interior
    assert dl.check_kirchhoff(g, interior).max_imbalance == 0.0


def test_ladder_interior_balance_for_various_k():
    for k in (0.0, 1.0, 2.5):
        g = dl.make_ladder(dl.LadderSpec(depth=8, k=k))
        report = dl.check_kirchhoff(g, dl.ball(g, 0, 8).interior)
        assert report.ok, f"k={k}: {report}"


def test_ladder_spec_validation():
    with pytest.raises(GraphError):
        dl.LadderSpec(depth=1)
    with pytest.raises(GraphError):
        dl.LadderSpec(depth=5, k=-1.0)
    with pytest.raises(GraphError):
        dl.LadderSpec(depth=5, measure_mode="cube")


# -- tree ------------------------------------------------------------------------


def oriented_counts(g, x):
    out_only = sum(1 for y in g.neighbors(x) if g.weight(x, y) > 0 and g.weight(y, x) == 0)
    in_only = sum(1 for y in g.neighbors(x) if g.weight(y, x) > 0 and g.weight(x, y) == 0)
    return out_only, in_only


def test_tree_orientation_rule(tree4):
    g = tree4
    dist = dl.combinatorial_distance(g, g.index("r"))
    for x in g.vertex_ids():
        if dist[x] == 4:
            continue  # leaves are truncation boundary
        assert oriented_counts(g, x) == (1, 1), g.label(x)


def test_tree_simple_weights_and_measures(tree4):
    assert np.all(tree4.measures == 1.0)
    assert all(w == 1.0 for _, _, w in tree4.iter_edges())


def test_tree_root_degree_and_sizes():
    g = dl.make_tree(dl.TreeSpec(depth=3))
    assert len(g.neighbors(g.index("r"))) == 3
    # level sizes 1, 3, 12, 60 with branching d + 3
    assert len(g) == 76


def test_tree_kirchhoff_interior(tree4):
    interior = dl.ball(tree4, 0, 4).interior
    assert dl.check_kirchhoff(tree4, interior).max_imbalance == 0.0


def test_tree_spec_validation():
    with pytest.raises(GraphError):
        dl.TreeSpec(depth=0)


# -- random balanced ----------------------------------------------------------------


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10**9))
def test_random_balanced_exact_balance(seed):
    g = dl.make_random_balanced(10, seed=seed)
    report = dl.check_kirchhoff(g, g.vertex_ids(), tol=0.0)
    assert report.ok and report.max_imbalance == 0.0


def test_random_balanced_structure():
    g = dl.make_random_balanced(12, seed=3, density=0.8)
    assert len(g) == 12
    assert all(x != y for x, y, _ in g.iter_edges())
    # dyadic weights on a 1/16 grid
    assert all(w * 16 == round(w * 16) for _, _, w in g.iter_edges())


def test_random_balanced_deterministic():
    a = dl.make_random_balanced(9, seed=11)
    b = dl.make_random_balanced(9, seed=11)
    assert sorted(a.iter_edges()) == sorted(b.iter_edges())
    assert np.array_equal(a.measures, b.measures)


def test_random_balanced_needs_three_vertices():
    with pytest.raises(GraphError):
        dl.make_random_balanced(2, seed=0)


def test_random_balanced_rejects_a_negative_density():
    with pytest.raises(GraphError, match="density must be >= 0"):
        dl.make_random_balanced(5, seed=0, density=-1)


def test_single_cycle_balance_by_hand():
    g = dl.DirectedGraph(
        [("a", 1.0), ("b", 1.0), ("c", 1.0)],
        [("a", "b", 2.5), ("b", "c", 2.5), ("c", "a", 2.5)],
    )
    for x in g.vertex_ids():
        assert dl.out_strength(g, x) == 2.5
        assert dl.check_kirchhoff(g, [x], tol=0.0) == (True, 0.0, None)


def test_superposed_cycles_add_at_shared_vertex():
    g = dl.DirectedGraph(
        [("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 1.0)],
        [
            ("a", "b", 1.0), ("b", "a", 1.0),      # 2-cycle through a, weight 1
            ("a", "c", 0.5), ("c", "d", 0.5), ("d", "a", 0.5),  # 3-cycle, weight 0.5
        ],
    )
    assert dl.out_strength(g, 0) == 1.5
    assert dl.check_kirchhoff(g, [0], tol=0.0) == (True, 0.0, None)


# -- the array core against the label constructor -------------------------------


def rebuilt_by_labels(g):
    """The same vertices and edges through the label constructor, via the interchange dict."""
    data = dl.graph_to_dict(g)
    return dl.DirectedGraph(
        [(v["id"], v["m"]) for v in data["vertices"]],
        [(e["from"], e["to"], e["b"]) for e in data["edges"]],
    )


def symmetrized_by_labels(g):
    """symmetrize as a label round trip: one edge per slot, in slot order."""
    from dirlap.graph import _b_sym

    labels = g.labels
    edges = [
        (labels[x], labels[y], w)
        for x, y, w in zip(g._rows.tolist(), g._nbr.tolist(), _b_sym(g).tolist())
    ]
    return dl.DirectedGraph(zip(labels, g._m.tolist()), edges)


def assert_bitwise_equal(a, b):
    assert a.labels == b.labels
    for name in ("_m", "_ptr", "_nbr", "_b_out", "_b_in"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def ladders(depth, k):
    """Ladders with depth and drift drawn from the given strategies, in either measure."""
    modes = st.sampled_from(["sqrt_n", "unit"])
    return st.builds(lambda depth, k, mode: dl.make_ladder(dl.LadderSpec(depth, k, mode)), depth, k, modes)


TREES = st.builds(lambda depth: dl.make_tree(dl.TreeSpec(depth)), st.integers(1, 3))
RANDOMS = st.builds(dl.make_random_balanced, st.integers(3, 60), st.integers(0, 2**32 - 1), st.floats(0.0, 2.0))
GENERATED = st.one_of(ladders(st.integers(2, 60), st.sampled_from([0.0, 0.5, 1.0, 3.3])), TREES, RANDOMS)


@settings(deadline=None, max_examples=50)
@given(GENERATED)
def test_generators_match_the_label_constructor(g):
    assert_bitwise_equal(g, rebuilt_by_labels(g))
    assert_bitwise_equal(dl.symmetrize(g), symmetrized_by_labels(g))


def reference_random_balanced(n, seed, density=0.5):
    """make_random_balanced as a loop over a dict of edges: the same draws, in the same order."""
    rng = np.random.default_rng(seed)
    weights = {}

    def add_cycle(order):
        w = int(rng.integers(4, 33)) / 16.0
        for a, b in zip(order, list(order[1:]) + [order[0]]):
            key = (int(a), int(b))
            weights[key] = weights.get(key, 0.0) + w

    add_cycle(list(rng.permutation(n)))
    for _ in range(int(round(density * n))):
        length = int(rng.integers(2, min(6, n) + 1))
        add_cycle(list(rng.choice(n, size=length, replace=False)))

    measures = rng.integers(4, 33, size=n) / 16.0
    edges = sorted(weights.items())
    return dl.DirectedGraph._from_arrays(
        [f"v{i}" for i in range(n)],
        measures,
        [a for (a, _), _ in edges],
        [b for (_, b), _ in edges],
        [w for _, w in edges],
    )


@settings(deadline=None, max_examples=60)
@given(st.integers(3, 80), st.integers(0, 2**32 - 1), st.floats(0.0, 3.0))
def test_random_balanced_matches_the_dict_reference(n, seed, density):
    assert_bitwise_equal(dl.make_random_balanced(n, seed, density), reference_random_balanced(n, seed, density))


@settings(deadline=None, max_examples=60)
@given(ladders(st.integers(2, 300), st.integers(0, 1600).map(lambda j: j / 16)) | TREES | RANDOMS, st.booleans())
def test_generated_imbalances_are_zero_or_beyond_the_default_tolerance(g, symmetric):
    # check_kirchhoff's default allows an imbalance of 1e-12 max(out, in) on every graph.  On the
    # graphs whose weights are all dyadic no vertex has a nonzero imbalance that small, so their
    # verdicts are those of tol=0.  A non-dyadic k rounds: at k = 0.001, x1 is off by 8.9e-16 of 6.
    from dirlap.graph import _row_sums

    g = dl.symmetrize(g) if symmetric else g
    every = np.arange(len(g))
    s_out, s_in = _row_sums(g, every, g._b_out), _row_sums(g, every, g._b_in)
    imbalance = np.abs(s_out - s_in)
    assert np.all((imbalance == 0.0) | (imbalance > 1e-12 * np.maximum(s_out, s_in)))


def csr_digest(g):
    h = hashlib.sha256("\n".join(g.labels).encode())
    for a in (g._m, g._ptr, g._nbr, g._b_out, g._b_in):
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "mode, digest",
    [
        ("sqrt_n", "4566bac2fff99060e99a186fbf9eeecdede65eb36ddfcf9a6bebe136136112ae"),
        ("unit", "79e17d5eda2465bebe2a4c07ec474a107eb6d6e1b6cd910293860b209f7675d5"),
    ],
)
def test_benchmark_ladders_keep_their_arrays(mode, digest):
    # Digests of the labels and CSR arrays of the label-built ladders (N = 150).
    assert csr_digest(dl.make_ladder(dl.LadderSpec(150, measure_mode=mode))) == digest


@pytest.mark.parametrize("k, shown", [(float("nan"), "nan"), (float("inf"), "inf")])
def test_non_finite_ladder_drift_is_a_graph_error(k, shown):
    spec = dl.LadderSpec(depth=3, k=k)
    with pytest.raises(GraphError, match=rf"^edge 0 \('x0' -> 'x1'\): weight must be finite and > 0, got {shown}$"):
        dl.make_ladder(spec)


def test_generators_do_not_go_through_the_label_constructor(monkeypatch):
    import dirlap.graph as graph

    def label_path(*args, **kwargs):
        raise AssertionError("built through the label constructor")

    monkeypatch.setattr(graph, "_positive", label_path, raising=False)
    monkeypatch.setattr(graph, "_float", label_path, raising=False)
    monkeypatch.setattr(dl.DirectedGraph, "__init__", label_path)
    graphs = [
        dl.make_ladder(dl.LadderSpec(depth=6)),
        dl.make_ladder(dl.LadderSpec(depth=6, k=0.0, measure_mode="unit")),
        dl.make_tree(dl.TreeSpec(depth=2)),
        dl.make_random_balanced(12, seed=4),
    ]
    for g in graphs:
        assert dl.check_total_asymmetry(dl.symmetrize(g), g.vertex_ids()) == 0.0
