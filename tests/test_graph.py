import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dirlap as dl
from dirlap import GraphError, TruncationError, UnknownVertexError

from conftest import naive_adjacency


def naive_vertex_sums(g, term):
    """sum over y of term(x, y, b(x,y), b(y,x)) at every vertex, in ascending-neighbor order."""
    weights, nbrs = naive_adjacency(g)
    sums = []
    for x in g.vertex_ids():
        total = 0.0
        for y in nbrs[x]:
            total += term(x, y, weights.get((x, y), 0.0), weights.get((y, x), 0.0))
        sums.append(total)
    return sums


# -- construction invariants --------------------------------------------------


def test_rejects_loops():
    with pytest.raises(GraphError, match="loop"):
        dl.DirectedGraph([("a", 1.0), ("b", 1.0)], [("a", "a", 1.0), ("a", "b", 1.0)])


def test_rejects_nonpositive_weight_and_measure():
    with pytest.raises(GraphError, match="weight"):
        dl.DirectedGraph([("a", 1.0), ("b", 1.0)], [("a", "b", 0.0), ("b", "a", 1.0)])
    with pytest.raises(GraphError, match="measure"):
        dl.DirectedGraph([("a", -1.0), ("b", 1.0)], [("a", "b", 1.0)])


def test_rejects_isolated_vertex_and_disconnected():
    with pytest.raises(GraphError, match="incident"):
        dl.DirectedGraph([("a", 1.0), ("b", 1.0), ("c", 1.0)], [("a", "b", 1.0)])
    with pytest.raises(GraphError, match="connected"):
        dl.DirectedGraph(
            [("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 1.0)],
            [("a", "b", 1.0), ("c", "d", 1.0)],
        )


def test_rejects_single_vertex():
    with pytest.raises(GraphError):
        dl.DirectedGraph([("a", 1.0)], [])


def test_rejects_duplicates_and_unknown_endpoints():
    with pytest.raises(GraphError, match="duplicate vertex"):
        dl.DirectedGraph([("a", 1.0), ("a", 2.0)], [])
    with pytest.raises(GraphError, match="duplicate edge"):
        dl.DirectedGraph([("a", 1.0), ("b", 1.0)], [("a", "b", 1.0), ("a", "b", 2.0)])
    with pytest.raises(GraphError, match="unknown vertex"):
        dl.DirectedGraph([("a", 1.0), ("b", 1.0)], [("a", "zz", 1.0)])


def from_arrays(measures=(1.0, 1.0, 1.0), sources=(0, 1, 1), targets=(1, 2, 0), weights=(1.0, 1.0, 2.0)):
    """The array core on the labels a, b, c (by default the path a -> b -> c with b -> a)."""
    return dl.DirectedGraph._from_arrays(["a", "b", "c", "d"][: len(measures)], measures, sources, targets, weights)


BAD_VALUES = [(0.0, "0.0"), (-1.5, "-1.5"), (float("nan"), "nan"), (float("inf"), "inf"), (-float("inf"), "-inf")]


@pytest.mark.parametrize("value, shown", BAD_VALUES)
def test_array_core_names_the_first_bad_value(value, shown):
    with pytest.raises(GraphError, match=rf"^edge 1 \('b' -> 'c'\): weight must be finite and > 0, got {shown}$"):
        from_arrays(weights=(1.0, value, value))
    with pytest.raises(GraphError, match=rf"^vertex 'b': measure must be finite and > 0, got {shown}$"):
        from_arrays(measures=(1.0, value, value))


@pytest.mark.parametrize(
    "sources, targets, message",
    [
        ((0, 1, 2), (1, 2, 2), "edge 2 ('c' -> 'c'): loops are not allowed"),
        ((0, 1, 0), (1, 2, 1), "edge 2 ('a' -> 'b'): duplicate edge"),
        ((0, 1, 1), (1, 3, 0), "edge 1 ('b' -> 3): unknown vertex 3"),
        ((0, -1, 1), (1, 2, 0), "edge 1 (-1 -> 'c'): unknown vertex -1"),
        # A later edge may carry several faults; the first faulty edge and its first fault are named.
        ((0, 1, 1), (1, 1, 9), "edge 1 ('b' -> 'b'): loops are not allowed"),
        ((0, 0, 1), (1, 1, 1), "edge 1 ('a' -> 'b'): duplicate edge"),
        ((9, 1, 1), (9, 2, 0), "edge 0 (9 -> 9): unknown vertex 9"),
    ],
)
def test_array_core_names_the_first_faulty_edge(sources, targets, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        from_arrays(sources=sources, targets=targets)


def test_array_core_rejects_isolated_and_disconnected_graphs():
    with pytest.raises(GraphError, match="^vertex 'c' has no incident edge$"):
        from_arrays(sources=(0,), targets=(1,), weights=(1.0,))
    with pytest.raises(GraphError, match="^graph is not weakly connected: vertex 'c' unreachable from 'a'$"):
        from_arrays(measures=(1.0,) * 4, sources=(0, 2), targets=(1, 3), weights=(1.0, 1.0))


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        # The first faulty edge by position, whatever the fault of a later one.
        ([("a", 1), ("b", 1)], [("a", "b", 1), ("b", "a", 0), ("a", "zz", 1)],
         "edge 1 ('b' -> 'a'): weight must be finite and > 0, got 0"),
        ([("a", 1), ("b", 1)], [("a", "b", 1), ("a", "zz", 1), ("b", "a", 0)], "edge 1 ('a' -> 'zz'): unknown vertex 'zz'"),
        ([("a", 1), ("b", 1)], [("a", "b", 1), ("b", "b", "x"), ("a", "b", 1)], "edge 1 ('b' -> 'b'): loops are not allowed"),
        ([("a", 1), ("b", 1)], [("a", "b", 1), ("a", "b", "x"), ("b", "a", 1)],
         "edge 1 ('a' -> 'b'): weight must be finite and > 0, got 'x'"),
        ([("a", 1), ("b", 1)], [("a", "b", 1), ("b", "a", None), ("a", "b", 2)],
         "edge 1 ('b' -> 'a'): weight must be finite and > 0, got None"),
        ([("a", 1), ("b", 1)], [("a", "b", 1), ("b", "a", 1), ("a", "b", 2), ("b", "b", 1)],
         "edge 2 ('a' -> 'b'): duplicate edge"),
        # The first faulty vertex by position, before any edge.
        ([("a", 1), ("b", "m"), ("a", 1)], [("a", "q", 1)], "vertex 'b': measure must be finite and > 0, got 'm'"),
        ([("a", 1), ("a", 0), ("b", 0)], [("a", "q", 1)], "duplicate vertex 'a'"),
        ([], [("a", "q", 1)], "graph needs at least one vertex"),
    ],
)
def test_label_constructor_names_the_first_fault_by_position(vertices, edges, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        dl.DirectedGraph(vertices, edges)


def test_accessors(single_edge):
    g = single_edge
    assert len(g) == 2
    assert g.labels == ("u", "v")
    assert g.weight(0, 1) == 3.0 and g.weight(1, 0) == 0.0
    assert len(g.neighbors(0)) == 1 and g.max_degree == 1
    with pytest.raises(UnknownVertexError):
        g.index("w")
    with pytest.raises(UnknownVertexError):
        g.label(5)


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
def test_booleans_are_not_vertex_ids(flag):
    # bool subclasses int, and numpy coerces [2, True] to integers: neither may stand for vertex 1 or 0.
    g = dl.make_ladder(dl.LadderSpec(depth=2))
    calls = [
        lambda: dl.ball(g, flag, 2),
        lambda: g.label(flag),
        lambda: dl.asymmetry_at(g, flag),
        lambda: dl.check_asymmetry(g, [flag]),
        lambda: dl.check_asymmetry(g, [np.int64(2), flag]),
        lambda: dl.check_kirchhoff(g, [2, flag]),
    ]
    for call in calls:
        with pytest.raises(UnknownVertexError, match=f"^unknown vertex id {re.escape(repr(flag))}$"):
            call()


@pytest.mark.parametrize(
    "ids",
    [[], [3, 0, 3], np.array([4, 1]), frozenset({2, 4}), (np.int32(1), 2), [True, 2],
     [0, 99, -1], [0, -1, 99], [1, "x"], [1, 2.0], [[0], [1, 2]], [[0, 1]], [2**70], [None],
     np.array([0, 99]), np.array([1.0, 2.0]), np.array([], dtype=float), np.array([[0, 1]]),
     np.array([2, 1], dtype=np.uint8)],
)
def test_vertex_arrays_match_the_per_id_check(ids):
    from dirlap.graph import _vertex_array

    g = dl.make_ladder(dl.LadderSpec(depth=2))
    try:
        for x in list(ids):
            g.require_vertex(x)
    except UnknownVertexError as exc:
        with pytest.raises(UnknownVertexError, match=f"^{re.escape(str(exc))}$"):
            _vertex_array(g, ids)
    else:
        got = _vertex_array(g, ids)
        assert got.dtype == np.intp and got.tolist() == [int(x) for x in ids]


def test_ball_arrays_pass_the_vertex_check_uncopied(ladder_sqrt):
    from dirlap.graph import _vertex_array

    b = dl.ball(ladder_sqrt, 0, 4)
    assert _vertex_array(ladder_sqrt, b.vertices) is b.vertices


# -- strengths and Kirchhoff balance ------------------------------------------


def test_strengths_on_ladder(ladder_sqrt):
    g = ladder_sqrt
    assert dl.out_strength(g, g.index("x0")) == 4.0
    for n in range(2, 11):
        x = g.index(f"x{n}")
        expected = 2 * n * n + 3 * n + 1
        assert dl.out_strength(g, x) == expected
        assert dl.check_kirchhoff(g, [x], tol=0.0) == (True, 0.0, None)


def test_strengths_single_edge(single_edge):
    assert dl.out_strength(single_edge, 0) == 3.0
    assert dl.out_strength(single_edge, 1) == 0.0
    # The in-strengths are 0 and 3: each vertex is off balance by 3.
    assert dl.check_kirchhoff(single_edge, [0]).max_imbalance == 3.0
    assert dl.check_kirchhoff(single_edge, [1]).max_imbalance == 3.0


def test_strengths_symmetric_graph(two_vertex_symmetric):
    for x in two_vertex_symmetric.vertex_ids():
        assert dl.out_strength(two_vertex_symmetric, x) == 1.0
        assert dl.check_kirchhoff(two_vertex_symmetric, [x], tol=0.0) == (True, 0.0, None)


def test_kirchhoff_ladder_interior_exact(ladder_sqrt):
    g = ladder_sqrt
    interior = dl.ball(g, g.index("x0"), 12).interior
    ok, imbalance, worst = dl.check_kirchhoff(g, interior)
    assert ok and imbalance == 0.0 and worst is None


def test_kirchhoff_tree_interior_exact(tree4):
    interior = dl.ball(tree4, tree4.index("r"), 4).interior
    ok, imbalance, _ = dl.check_kirchhoff(tree4, interior)
    assert ok and imbalance == 0.0


def test_kirchhoff_single_edge_fails(single_edge):
    ok, imbalance, worst = dl.check_kirchhoff(single_edge, [0])
    assert not ok and imbalance == 3.0 and worst == 0


def test_kirchhoff_float_tolerance():
    g = dl.DirectedGraph(
        [("a", 1.0), ("b", 1.0), ("c", 1.0)],
        [("a", "b", 0.1), ("b", "c", 0.1), ("c", "a", 0.1)],
    )
    assert dl.check_kirchhoff(g, g.vertex_ids()).ok


def test_kirchhoff_zero_tolerance_asks_for_exact_balance():
    # a receives 0.1 + 0.2 = 0.30000000000000004 and sends 0.3.
    g = dl.DirectedGraph(
        [("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 1.0)],
        [("a", "b", 0.3), ("b", "c", 0.1), ("b", "d", 0.2), ("c", "a", 0.1), ("d", "a", 0.2)],
    )
    assert dl.check_kirchhoff(g, g.vertex_ids()).ok
    assert not dl.check_kirchhoff(g, g.vertex_ids(), tol=0.0).ok


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_kirchhoff_tolerance_must_be_finite_and_non_negative(tol):
    g = dl.DirectedGraph([("a", 1.0), ("b", 1.0)], [("a", "b", 1.0)])
    with pytest.raises(GraphError, match="Kirchhoff tolerance must be finite and >= 0"):
        dl.check_kirchhoff(g, [0, 1], tol=tol)


# -- symmetrize ----------------------------------------------------------------


def test_symmetrize_ladder_rail(ladder_sqrt):
    g_sym = dl.symmetrize(ladder_sqrt)
    for n in range(1, 12):
        u, v = g_sym.index(f"x{n}"), g_sym.index(f"x{n + 1}")
        assert g_sym.weight(u, v) == (n + 1) ** 2
        assert g_sym.weight(v, u) == (n + 1) ** 2


def test_symmetrize_fixed_point(two_vertex_symmetric):
    g_sym = dl.symmetrize(two_vertex_symmetric)
    assert g_sym.weight(0, 1) == 1.0 and g_sym.weight(1, 0) == 1.0


def test_symmetrize_single_edge(single_edge):
    g_sym = dl.symmetrize(single_edge)
    assert g_sym.weight(0, 1) == 1.5 and g_sym.weight(1, 0) == 1.5


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10**6))
def test_symmetrize_idempotent(seed):
    g = dl.make_random_balanced(8, seed=seed)
    once = dl.symmetrize(g)
    twice = dl.symmetrize(once)
    for x, y, w in once.iter_edges():
        assert twice.weight(x, y) == w


def test_symmetrize_commutes_with_relabeling(random_graphs):
    g = random_graphs[0]
    perm = np.random.default_rng(5).permutation(len(g))
    vertices = [(g.label(int(x)), g.measure(int(x))) for x in perm]
    edges = [(g.label(x), g.label(y), w) for x, y, w in g.iter_edges()]
    shuffled = dl.DirectedGraph(vertices, edges)
    a, b = dl.symmetrize(g), dl.symmetrize(shuffled)
    for x, y, w in a.iter_edges():
        assert b.weight(b.index(a.label(x)), b.index(a.label(y))) == w


# -- asymmetry constants ---------------------------------------------------------


def test_asymmetry_ladder_per_vertex(ladder_sqrt):
    g = ladder_sqrt
    for n in range(2, 11):
        value = dl.asymmetry_at(g, g.index(f"x{n}"))
        expected = (8.0 + 4.0 / n) / np.sqrt(n)
        assert value == pytest.approx(expected, rel=1e-12)
    assert dl.check_asymmetry(g, dl.ball(g, 0, 12).interior) <= 12.0


def test_asymmetry_tree_counts_one_way_edges(tree4):
    # Every non-leaf vertex has exactly two strictly oriented unit edges,
    # each contributing |1|^2 / (1/2) = 2, hence the constant 4.
    interior = dl.ball(tree4, 0, 4).interior
    assert dl.check_asymmetry(tree4, interior) == 4.0
    for x in sorted(interior)[:10]:
        assert dl.asymmetry_at(tree4, x) == 4.0


def test_asymmetry_symmetric_graph_zero(two_vertex_symmetric):
    assert dl.check_asymmetry(two_vertex_symmetric, [0, 1]) == 0.0


def test_asymmetry_names_the_slot_whose_symmetrized_weight_underflows():
    # b(a, c) = 5e-324 is a valid weight, but b'(a, c) = b/2 + b~/2 rounds to 0. Only the
    # vertices holding that slot fail; b's sums divide over b's slots alone, with no warning.
    edges = [("a", "b", 1.0), ("b", "a", 1.0), ("b", "c", 1.0), ("c", "b", 1.0), ("a", "c", 5e-324)]
    g = dl.DirectedGraph([(v, 1.0) for v in "abc"], edges)
    a, b, c = (g.index(v) for v in "abc")
    assert dl.asymmetry_at(g, b) == 0.0
    assert dl.check_asymmetry(g, [b]) == 0.0
    for x, message in ((a, "'a' and 'c'"), (c, "'c' and 'a'")):
        with pytest.raises(dl.NumericError, match=f"symmetrized weight b' of {message} underflows to 0"):
            dl.asymmetry_at(g, x)
        with pytest.raises(dl.NumericError, match=f"of {message} underflows"):
            dl.check_asymmetry(g, [b, x])
    assert dl.check_total_asymmetry(g, [a, b, c]) == 5e-324


def test_total_asymmetry_ladder(ladder_sqrt):
    g = ladder_sqrt
    for n in range(1, 11):
        value = dl.total_asymmetry_at(g, g.index(f"x{n}"))
        assert value == pytest.approx((4.0 * n + 4.0) / np.sqrt(n), rel=1e-12)


def test_total_asymmetry_tree_and_symmetric(tree4, two_vertex_symmetric):
    interior = dl.ball(tree4, 0, 4).interior
    assert dl.check_total_asymmetry(tree4, interior) == 2.0
    assert dl.check_total_asymmetry(two_vertex_symmetric, [0, 1]) == 0.0
    assert dl.check_total_asymmetry(two_vertex_symmetric, []) is None


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10**6))
def test_asymmetry_at_most_twice_total(seed):
    # |b - b~|^2 / b' <= 2 |b - b~| summand by summand.
    g = dl.make_random_balanced(10, seed=seed)
    interior = list(g.vertex_ids())
    assert dl.check_asymmetry(g, interior) <= 2.0 * dl.check_total_asymmetry(g, interior) + 1e-12


# -- distances, balls, cutoffs ---------------------------------------------------


def test_distances_ladder_spheres(ladder_sqrt):
    g = ladder_sqrt
    dist = dl.combinatorial_distance(g, g.index("x0"))
    assert dist[g.index("x0")] == 0
    for n in range(1, 13):
        assert dist[g.index(f"x{n}")] == n
        assert dist[g.index(f"y{n}")] == n
    assert set(np.flatnonzero(dist == 2).tolist()) == {g.index("x2"), g.index("y2")}


def test_distance_path():
    g = dl.DirectedGraph(
        [("u", 1.0), ("v", 1.0), ("w", 1.0)],
        [("u", "v", 1.0), ("v", "u", 1.0), ("v", "w", 1.0), ("w", "v", 1.0)],
    )
    assert dl.combinatorial_distance(g, 0)[2] == 2
    # Root 0's distances are the graph's own; every root's are read-only alike.
    for root, expected in ((0, [0, 1, 2]), (2, [2, 1, 0])):
        dist = dl.combinatorial_distance(g, root)
        assert dist.tolist() == expected and not dist.flags.writeable


def test_ball_structure(ladder_sqrt):
    g = ladder_sqrt
    b = dl.ball(g, g.index("x0"), 3)
    expected = sorted(g.index(s) for s in ("x0", "x1", "y1", "x2", "y2", "x3", "y3"))
    assert b.vertices.tolist() == expected
    assert b.interior.tolist() == sorted(g.index(s) for s in ("x0", "x1", "y1", "x2", "y2"))
    b0 = dl.ball(g, g.index("x0"), 0)
    assert b0.vertices.tolist() == [g.index("x0")] and b0.interior.tolist() == []
    for ids in (b.vertices, b.interior, b0.interior):
        assert ids.dtype == np.intp and not ids.flags.writeable
    with pytest.raises(GraphError):
        dl.ball(g, 0, -1)


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 5), st.integers(0, 5))
def test_ball_monotonicity(r1, r2):
    g = dl.make_ladder(dl.LadderSpec(depth=8))
    lo, hi = sorted((r1, r2))
    assert set(dl.ball(g, 0, lo).vertices) <= set(dl.ball(g, 0, hi).vertices)


def test_checker_monotonic_in_probed_set(ladder_sqrt):
    g = ladder_sqrt
    small = dl.ball(g, 0, 4).interior
    large = dl.ball(g, 0, 10).interior
    assert dl.check_asymmetry(g, small) <= dl.check_asymmetry(g, large)
    assert dl.check_total_asymmetry(g, small) <= dl.check_total_asymmetry(g, large)


def test_cutoffs_shape_and_constant(ladder_sqrt):
    g = ladder_sqrt
    radii = [2, 4]
    cut = dl.build_cutoffs(g, 0, radii)
    dist = dl.combinatorial_distance(g, 0)
    assert len(cut.functions) == len(cut.per_radius) == len(radii)
    for r, chi in zip(radii, cut.functions):
        assert np.all((0.0 <= chi) & (chi <= 1.0))
        assert np.array_equal(chi == 1.0, dist <= r)
        assert np.all(chi[dist >= 2 * r] == 0.0)
    assert cut.constant == max(cut.per_radius)


def test_cutoffs_constant_matches_naive(ladder_sqrt, random_graphs):
    for g in [ladder_sqrt, *random_graphs]:
        cut = dl.build_cutoffs(g, 0, [1, 3])
        for chi, constant in zip(cut.functions, cut.per_radius):
            energies = naive_vertex_sums(
                g, lambda x, y, bxy, byx: (bxy + byx) / 2.0 * (chi[x] - chi[y]) * (chi[x] - chi[y])
            )
            assert constant == max(e / m for e, m in zip(energies, g.measures))


def test_cutoffs_ladder_constants_stay_bounded():
    g = dl.make_ladder(dl.LadderSpec(depth=40))
    cut = dl.build_cutoffs(g, 0, [2, 4, 8, 16])
    assert all(b <= a + 1e-12 for a, b in zip(cut.per_radius, cut.per_radius[1:]))
    assert cut.constant == cut.per_radius[0]


def test_cutoffs_bad_radii(ladder_sqrt):
    with pytest.raises(GraphError):
        dl.build_cutoffs(ladder_sqrt, 0, [3, 3])
    with pytest.raises(GraphError):
        dl.build_cutoffs(ladder_sqrt, 0, [0, 2])


def test_checkers_match_naive_loops(ladder_sqrt, tree4, random_graphs):
    for g in [ladder_sqrt, tree4, *random_graphs]:
        m = g.measures
        asym = naive_vertex_sums(g, lambda x, y, bxy, byx: (bxy - byx) * (bxy - byx) / ((bxy + byx) / 2.0))
        total = naive_vertex_sums(g, lambda x, y, bxy, byx: abs(bxy - byx))
        s_out = naive_vertex_sums(g, lambda x, y, bxy, byx: bxy)
        s_in = naive_vertex_sums(g, lambda x, y, bxy, byx: byx)
        imbalance = [abs(a - b) for a, b in zip(s_out, s_in)]
        for x in g.vertex_ids():
            assert dl.asymmetry_at(g, x) == asym[x] / m[x]
            assert dl.total_asymmetry_at(g, x) == total[x] / m[x]
            assert dl.out_strength(g, x) == s_out[x]
            assert dl.check_kirchhoff(g, [x]).max_imbalance == imbalance[x]
        balance = dl.check_kirchhoff(g, g.vertex_ids())
        assert balance.max_imbalance == max(imbalance)
        assert balance.worst_vertex == (imbalance.index(max(imbalance)) if max(imbalance) > 0 else None)

        dist = dl.combinatorial_distance(g, 0)
        n_max = int(dist.max())
        rep = dl.divergence_criterion(g, 0, n_max)
        for step, side in ((1, rep.a_plus), (-1, rep.a_minus)):
            toward = naive_vertex_sums(
                g, lambda x, y, bxy, byx: (bxy + byx) / 2.0 if dist[y] == dist[x] + step else 0.0
            )
            expected = {}
            for x in g.vertex_ids():
                n = int(dist[x])
                if n + step in range(n_max + 1) and n in range(n_max + 1):
                    expected[n] = max(expected.get(n, 0.0), toward[x] / m[x])
            assert side == expected


# -- divergence criterion ----------------------------------------------------------


def test_divergence_criterion_ladder_values(ladder_sqrt):
    rep = dl.divergence_criterion(ladder_sqrt, 0, 10)
    for n in range(2, 10):
        assert rep.a_plus[n] == (n + 1) ** 2 / np.sqrt(n)
        assert rep.a_minus[n] == n**2 / np.sqrt(n)
        assert rep.a_minus[n] == pytest.approx(n**1.5, rel=1e-15)
    assert rep.partial_sum > 0


def test_divergence_partial_sum_grows(ladder_sqrt):
    partials = [dl.divergence_criterion(ladder_sqrt, 0, n).partial_sum for n in (4, 8, 11)]
    assert partials[0] < partials[1] < partials[2]


def test_divergence_requires_large_host(ladder_sqrt):
    with pytest.raises(TruncationError):
        dl.divergence_criterion(ladder_sqrt, 0, 13)


def test_divergence_needs_a_sphere(ladder_sqrt):
    with pytest.raises(GraphError, match="n_max must be >= 1"):
        dl.divergence_criterion(ladder_sqrt, 0, 0)


# -- assumption report ----------------------------------------------------------------


def test_assumption_report_fields(ladder_sqrt):
    g = ladder_sqrt
    interior = sorted(dl.ball(g, 0, 10).interior)
    rep = dl.assumption_report(g, interior)
    assert rep["kirchhoff_max_imbalance"] == 0.0
    assert rep["asymmetry_constant"] <= 2.0 * rep["total_asymmetry_constant"] + 1e-12
    assert rep["max_degree"] == 3
    assert rep["probed_vertices"] == [g.label(v) for v in interior]
    assert rep["probed_size"] == len(interior)
    assert "x0" in rep["probed_vertices"]


@pytest.mark.parametrize("ids", [[1.7, 2], ["x1"], [2, 99], np.array([0.0, 1.0])])
def test_assumption_report_rejects_what_the_checkers_reject(ladder_sqrt, ids):
    # Each id is checked as check_kirchhoff checks it: a float or a label is not truncated or parsed.
    with pytest.raises(UnknownVertexError):
        dl.check_kirchhoff(ladder_sqrt, ids)
    with pytest.raises(UnknownVertexError):
        dl.assumption_report(ladder_sqrt, ids)


def test_assumption_report_sorts_and_counts_repeated_ids(ladder_sqrt):
    g = ladder_sqrt
    rep = dl.assumption_report(g, np.array([3, 0, 3]))
    assert rep["probed_size"] == 3
    assert rep["probed_vertices"] == [g.label(0), g.label(3), g.label(3)]


# -- JSON round trip ---------------------------------------------------------------------


def test_json_round_trip(tmp_path, ladder_sqrt):
    path = tmp_path / "g.json"
    dl.save_graph(ladder_sqrt, path)
    loaded = dl.load_graph(path)
    assert loaded.labels == ladder_sqrt.labels
    assert np.array_equal(loaded.measures, ladder_sqrt.measures)
    assert sorted(loaded.iter_edges()) == sorted(ladder_sqrt.iter_edges())


def test_json_validation_messages(tmp_path):
    with pytest.raises(GraphError, match="vertices"):
        dl.graph_from_dict({"edges": []})
    with pytest.raises(GraphError, match=r"edges\[0\]"):
        dl.graph_from_dict({"vertices": [{"id": "a", "m": 1}], "edges": [{"from": "a"}]})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(GraphError, match="line"):
        dl.load_graph(bad)
