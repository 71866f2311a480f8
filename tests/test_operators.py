import numpy as np
import pytest

import dirlap as dl
from dirlap import GraphError, NumericError

from conftest import interior_random_vectors, naive_adjacency, weighted_norm

RNG = np.random.default_rng(20240817)


def naive_green_sides(g, ball_, f, h):
    """Both sides of the Green identity, recomputed with plain loops."""
    weights, nbrs = naive_adjacency(g)
    rows = {v: i for i, v in enumerate(ball_.vertices)}
    fh = {v: f[i] for v, i in rows.items()}
    hh = {v: h[i] for v, i in rows.items()}

    def lap(values, x):
        total = 0.0
        for y in nbrs[x]:
            total += weights.get((x, y), 0.0) * (values.get(x, 0.0) - values.get(y, 0.0))
        return total / g.measures[x]

    lhs = sum(g.measures[x] * lap(fh, x) * np.conj(hh.get(x, 0.0)) for x in rows)
    lhs += np.conj(sum(g.measures[x] * lap(hh, x) * np.conj(fh.get(x, 0.0)) for x in rows))
    rhs = sum(
        w * (fh.get(x, 0.0) - fh.get(y, 0.0)) * np.conj(hh.get(x, 0.0) - hh.get(y, 0.0))
        for (x, y), w in weights.items()
    )
    return lhs, rhs


def naive_matrices(g, ball_):
    """The four truncated operators, assembled entry by entry with plain loops."""
    weights, nbrs = naive_adjacency(g)
    index = {v: i for i, v in enumerate(ball_.vertices)}
    lap = np.zeros((len(index), len(index)))
    adj = np.zeros_like(lap)
    for x, i in index.items():
        m_x = g.measures[x]
        for matrix, forward in ((lap, True), (adj, False)):
            strength = 0.0
            for y in nbrs[x]:
                w = weights.get((x, y) if forward else (y, x), 0.0)
                strength += w
                if y in index and w != 0.0:
                    matrix[i, index[y]] -= w / m_x
            matrix[i, i] = strength / m_x
    return {
        "laplacian": lap,
        "adjoint": adj,
        "symmetric_part": (lap + adj) / 2.0,
        "skew_part": (lap - adj) / 2.0,
    }


# -- assembly -------------------------------------------------------------------


def test_two_vertex_symmetric_matrix(two_vertex_symmetric):
    op = dl.assemble(two_vertex_symmetric, dl.full_ball(two_vertex_symmetric, 0), "laplacian")
    assert op.dense().tolist() == [[1.0, -1.0], [-1.0, 1.0]]


def test_assemble_matches_naive_loops(ladder_sqrt, tree4, random_graphs):
    cases = [(ladder_sqrt, dl.ball(ladder_sqrt, 0, 5)), (tree4, dl.ball(tree4, 0, 3))]
    cases += [(g, dl.ball(g, 0, 1)) for g in random_graphs]
    for g, b in cases:
        for kind, expected in naive_matrices(g, b).items():
            assert dl.assemble(g, b, kind).dense().tobytes() == expected.tobytes()


def test_full_diagonal_keeps_out_of_ball_strength(ladder_sqrt):
    g = ladder_sqrt
    b = dl.ball(g, 0, 3)
    op = dl.assemble(g, b, "laplacian")
    i = op.row_of(g.index("x3"))
    assert op.dense()[i, i] == dl.out_strength(g, g.index("x3")) / g.measure(g.index("x3"))


def test_symmetric_part_equals_symmetrized_laplacian(ladder_sqrt, ladder_unit):
    for g, exact in ((ladder_unit, True), (ladder_sqrt, False)):
        b = dl.ball(g, 0, 4)
        h = dl.assemble(g, b, "symmetric_part").dense()
        h_direct = dl.assemble(dl.symmetrize(g), b, "laplacian").dense()
        if exact:
            assert np.array_equal(h, h_direct)
        else:
            assert np.allclose(h, h_direct, rtol=1e-15, atol=1e-15)


def test_decomposition_identity(ladder_unit, ladder_sqrt, tree4):
    for g, bitwise in ((ladder_unit, True), (tree4, True), (ladder_sqrt, False)):
        b = dl.ball(g, 0, 3)
        lap = dl.assemble(g, b, "laplacian").dense()
        sym = dl.assemble(g, b, "symmetric_part").dense()
        skew = dl.assemble(g, b, "skew_part").dense()
        if bitwise:
            assert np.array_equal(lap, sym + skew)
        else:
            assert np.allclose(lap, sym + skew, rtol=1e-15, atol=1e-15)


def test_offdiagonal_signs(ladder_sqrt):
    b = dl.ball(ladder_sqrt, 0, 4)
    for kind in ("laplacian", "adjoint", "symmetric_part"):
        matrix = dl.assemble(ladder_sqrt, b, kind).dense()
        np.fill_diagonal(matrix, 0.0)
        assert np.all(matrix <= 0.0)


def test_skew_part_of_symmetric_graph_vanishes(two_vertex_symmetric):
    op = dl.assemble(two_vertex_symmetric, dl.full_ball(two_vertex_symmetric, 0), "skew_part")
    assert np.all(op.dense() == 0.0)


def test_assemble_rejects_unknown_kind(ladder_sqrt):
    with pytest.raises(GraphError):
        dl.assemble(ladder_sqrt, dl.ball(ladder_sqrt, 0, 2), "hamiltonian")


def test_assemble_near_the_float_limit():
    # a <-> b at 1e308 both ways: b + b~ overflows, b/2 + b~/2 does not.
    edges = [("a", "b", 1e308), ("b", "a", 1e308), ("b", "c", 1.0), ("c", "b", 1.0)]
    g = dl.DirectedGraph([(v, 1.0) for v in "abc"], edges)
    matrices = {kind: dl.assemble(g, dl.full_ball(g, 0), kind).dense() for kind in dl.KINDS}
    assert np.all(np.isfinite(matrices["laplacian"]))
    # The graph is symmetric, so every kind is the Laplacian or zero.
    assert np.array_equal(matrices["adjoint"], matrices["laplacian"])
    assert np.array_equal(matrices["symmetric_part"], matrices["laplacian"])
    assert not np.any(matrices["skew_part"])


def test_synthetic_operator_validation():
    with pytest.raises(GraphError):
        dl.TruncatedOperator(np.zeros((2, 3)), np.ones(2), "laplacian")
    for measure in ([1.0, 0.0], [np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]):
        with pytest.raises(GraphError):
            dl.TruncatedOperator(np.zeros((2, 2)), np.array(measure), "laplacian")
    with pytest.raises(GraphError, match="unknown operator kind 'hamiltonian'"):
        dl.TruncatedOperator(np.zeros((2, 2)), np.ones(2), "hamiltonian")


def test_row_of_a_vertex_outside_the_ball(ladder_sqrt):
    op = dl.assemble(ladder_sqrt, dl.ball(ladder_sqrt, 0, 2), "laplacian")
    outside = ladder_sqrt.index("x5")
    assert outside not in op.vertices
    with pytest.raises(GraphError, match="not in the truncation"):
        op.row_of(outside)


def test_rows_of_a_ball_and_of_a_synthetic_operator(ladder_sqrt):
    b = dl.ball(ladder_sqrt, 0, 4)
    op = dl.assemble(ladder_sqrt, b, "laplacian")
    assert [op.row_of(v) for v in b.vertices] == list(range(op.n))
    # Without a ball, row i is vertex i.
    synthetic = dl.TruncatedOperator(np.eye(3), np.ones(3), "laplacian")
    assert synthetic.vertices.tolist() == [0, 1, 2]
    assert synthetic.row_of(2) == 2
    with pytest.raises(GraphError, match="vertex 3 is not in the truncation"):
        synthetic.row_of(3)


# -- weighted geometry -------------------------------------------------------------


def test_similarity_identity_for_unit_measure(ladder_unit):
    op = dl.assemble(ladder_unit, dl.ball(ladder_unit, 0, 4), "laplacian")
    assert np.array_equal(dl.similarity_to_standard(op), op.dense())


def test_similarity_places_the_standard_entries_bit_for_bit(ladder_sqrt):
    # The dense D^(1/2) A D^(-1/2) is (x d_i) / d_j, d = sqrt(m), on the sqrt ladder and on
    # measures 2^j; a standard entry below the smallest normal float is a numeric failure.
    g = dl.make_random_balanced(30, 3)
    exponents = np.random.default_rng(3).integers(-20, 1, size=len(g))
    spread = dl.DirectedGraph(
        [(g.label(x), 2.0 ** int(j)) for x, j in zip(g.vertex_ids(), exponents)],
        [(g.label(x), g.label(y), w) for x, y, w in g.iter_edges()],
    )
    for host, radius in ((ladder_sqrt, 8), (spread, 3)):
        op = dl.assemble(host, dl.ball(host, 0, radius), "laplacian")
        d = np.sqrt(op.measure_vector)
        assert np.array_equal(dl.similarity_to_standard(op), op.dense() * d[:, None] / d[None, :])
    tiny = dl.TruncatedOperator(np.array([[1.0, -1e-300], [0.0, 1.0]]), np.array([1e-18, 1.0]), "laplacian")
    with pytest.raises(NumericError, match="subnormal"):
        dl.similarity_to_standard(tiny)


def test_similarity_preserves_quadratic_form(ladder_sqrt):
    op = dl.assemble(ladder_sqrt, dl.ball(ladder_sqrt, 0, 5), "laplacian")
    a_std = dl.similarity_to_standard(op)
    f = RNG.standard_normal(op.n) + 1j * RNG.standard_normal(op.n)
    g_std = np.sqrt(op.measure_vector) * f
    weighted = np.vdot(f, op.measure_vector * (op.dense() @ f))
    standard = np.vdot(g_std, a_std @ g_std)
    assert weighted == pytest.approx(complex(standard), rel=1e-12)


def test_quadratic_form_kinds(ladder_sqrt):
    # <A f, f> = sum m(x) (A f)(x) conj(f(x)) for f of weighted norm 1
    b = dl.ball(ladder_sqrt, 0, 5)
    f = RNG.standard_normal(len(b.vertices)) + 1j * RNG.standard_normal(len(b.vertices))
    m = dl.assemble(ladder_sqrt, b, "laplacian").measure_vector
    f = f / weighted_norm(f, m)
    form = {kind: np.vdot(f, m * dl.assemble(ladder_sqrt, b, kind).apply(f)) for kind in dl.KINDS}
    assert abs(form["symmetric_part"].imag) < 1e-12
    assert abs(form["skew_part"].real) < 1e-12
    assert form["laplacian"].real >= -1e-12
    # Re <L f, f> = <S f, f>
    assert form["laplacian"].real == pytest.approx(form["symmetric_part"].real, rel=1e-12)


def test_adjoint_pairing(ladder_sqrt):
    # <L f, h> == <f, L' h> for ball-supported vectors of a balanced region
    b = dl.ball(ladder_sqrt, 0, 8)
    lap = dl.assemble(ladder_sqrt, b, "laplacian")
    adj = dl.assemble(ladder_sqrt, b, "adjoint")
    f = RNG.standard_normal(lap.n) + 1j * RNG.standard_normal(lap.n)
    h = RNG.standard_normal(lap.n) + 1j * RNG.standard_normal(lap.n)
    lhs = np.vdot(h, lap.measure_vector * (lap.dense() @ f))
    rhs = np.vdot(adj.dense() @ h, lap.measure_vector * f)
    assert lhs == pytest.approx(rhs, rel=1e-12)


# -- Green identity ------------------------------------------------------------------


def test_green_residual_matches_naive(ladder_sqrt):
    g = ladder_sqrt
    b = dl.ball(g, 0, 6)
    f = interior_random_vectors(dl.assemble(g, b, "laplacian"), 1, RNG)[:, 0]
    h = interior_random_vectors(dl.assemble(g, b, "laplacian"), 1, RNG)[:, 0]
    lhs, rhs = naive_green_sides(g, b, f, h)
    assert abs(lhs - rhs) < 1e-10
    assert dl.green_residual_batch(g, b, f, h)[0] == pytest.approx(abs(lhs - rhs), abs=1e-12)


def test_green_residual_small_on_random_pairs(ladder_sqrt, ladder_unit, tree4, random_graphs):
    cases = [
        (ladder_sqrt, dl.ball(ladder_sqrt, 0, 8)),
        (ladder_unit, dl.ball(ladder_unit, 0, 8)),
        (tree4, dl.ball(tree4, 0, 3)),
        (random_graphs[0], dl.full_ball(random_graphs[0], 0)),
    ]
    for g, b in cases:
        op = dl.assemble(g, b, "laplacian")
        f = interior_random_vectors(op, 100, RNG)
        h = interior_random_vectors(op, 100, RNG)
        res = dl.green_residual_batch(g, b, f, h)
        scale = (
            np.linalg.norm(dl.similarity_to_standard(op), 2)
            * weighted_norm(f[:, 0], op.measure_vector)
            * weighted_norm(h[:, 0], op.measure_vector)
        )
        assert np.max(res) <= 1e-10 * scale


def test_green_identity_real_diagonal_is_edge_energy(ladder_sqrt):
    # with f = h real both sides equal sum b(x,y) (f(x)-f(y))^2 >= 0
    g = ladder_sqrt
    b = dl.ball(g, 0, 6)
    op = dl.assemble(g, b, "laplacian")
    f = interior_random_vectors(op, 1, RNG, complex_values=False)[:, 0].real
    lhs, rhs = naive_green_sides(g, b, f, f)
    assert rhs.real >= 0.0
    assert lhs == pytest.approx(2.0 * np.vdot(f, op.measure_vector * (op.dense() @ f)).real)


def test_green_residual_locally_constant_vanishes(ladder_sqrt):
    g = ladder_sqrt
    b = dl.ball(g, 0, 6)
    op = dl.assemble(g, b, "laplacian")
    # constant on a deep sub-ball, zero from two spheres before the boundary
    dist = dl.combinatorial_distance(g, 0)
    f = np.zeros(op.n)
    for i, v in enumerate(op.vertices):
        if dist[v] <= 3:
            f[i] = 1.0
    h = np.zeros(op.n)
    h[op.row_of(g.index("x0"))] = 1.0  # all neighbors of x0 share the value 1
    assert dl.green_residual_batch(g, b, f, h)[0] < 1e-12


def test_green_residual_rejects_boundary_support(ladder_sqrt):
    g = ladder_sqrt
    b = dl.ball(g, 0, 6)
    bad = np.zeros(len(b.vertices))
    boundary_row = [i for i, v in enumerate(b.vertices) if v not in b.interior][0]
    bad[boundary_row] = 1.0
    with pytest.raises(GraphError, match="interior"):
        dl.green_residual_batch(g, b, bad, bad)


def test_green_residual_rejects_misshapen_vectors(ladder_sqrt):
    b = dl.ball(ladder_sqrt, 0, 3)
    n = len(b.vertices)
    with pytest.raises(GraphError, match=f"expected vectors of length {n}, got shape \\({n + 1}, 1\\)"):
        dl.green_residual_batch(ladder_sqrt, b, np.zeros(n + 1), np.zeros(n + 1))
    with pytest.raises(GraphError, match="f and h must have matching shapes"):
        dl.green_residual_batch(ladder_sqrt, b, np.zeros((n, 2)), np.zeros(n))


# -- the two operator inequalities ------------------------------------------------------


def test_relative_bound(ladder_sqrt, tree4, random_graphs):
    cases = [
        (ladder_sqrt, dl.ball(ladder_sqrt, 0, 8)),
        (tree4, dl.ball(tree4, 0, 3)),
        (random_graphs[1], dl.full_ball(random_graphs[1], 0)),
    ]
    for g, b in cases:
        sym = dl.assemble(g, b, "symmetric_part")
        skew = dl.assemble(g, b, "skew_part")
        c = dl.check_asymmetry(g, b.vertices)
        m = sym.measure_vector
        f = interior_random_vectors(sym, 300, RNG)
        lhs = np.sum(m[:, None] * np.abs(skew.dense() @ f) ** 2, axis=0)
        rhs = (c * c / 4.0) * np.sum(m[:, None] * np.abs(f) ** 2, axis=0) + 0.25 * np.sum(
            m[:, None] * np.abs(sym.dense() @ f) ** 2, axis=0
        )
        assert np.all(lhs <= rhs + 1e-10 * (1.0 + rhs))


def test_sector_form_bound(ladder_sqrt, tree4):
    for g, b in ((ladder_sqrt, dl.ball(ladder_sqrt, 0, 8)), (tree4, dl.ball(tree4, 0, 3))):
        sym = dl.assemble(g, b, "symmetric_part")
        skew = dl.assemble(g, b, "skew_part")
        c = dl.check_asymmetry(g, b.vertices)
        m = sym.measure_vector
        f = interior_random_vectors(sym, 300, RNG)
        f = f / np.sqrt(np.sum(m[:, None] * np.abs(f) ** 2, axis=0))
        bf = np.abs(np.sum(m[:, None] * (skew.dense() @ f) * np.conj(f), axis=0))
        hf = np.real(np.sum(m[:, None] * (sym.dense() @ f) * np.conj(f), axis=0))
        assert np.all(2.0 * bf <= 1.0 + (c / 4.0) * hf + 1e-10)
