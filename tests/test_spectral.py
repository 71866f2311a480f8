import itertools
import json
import math

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dirlap as dl
from dirlap import GraphError

from conftest import directed_unit_cycle, unit_measure_copy

RNG = np.random.default_rng(991)


def exhaustive_cheeger(g):
    """Independent oracle: minimum quotient over ALL nonempty proper subsets."""
    n = len(g)
    edges = [(x, y, math.sqrt(w)) for x, y, w in g.iter_edges() if x < y]
    best, witness = math.inf, None
    for mask in range(1, (1 << n) - 1):
        members = [v for v in range(n) if mask >> v & 1]
        total = 0.0
        for x, y, sw in edges:
            if (mask >> x & 1) != (mask >> y & 1):
                total += sw
        q = total / len(members)
        if q < best:
            best, witness = q, tuple(members)
    return best, witness


# -- numerical range boundary -----------------------------------------------------


def test_hermitian_operator_boundary_is_real(two_vertex_symmetric):
    op = dl.assemble(two_vertex_symmetric, dl.full_ball(two_vertex_symmetric, 0), "laplacian")
    sample = dl.numrange_boundary(op, 16)
    assert np.max(np.abs(sample.points.imag)) < 1e-10
    assert sample.points.real.min() == pytest.approx(0.0, abs=1e-12)
    assert sample.points.real.max() == pytest.approx(2.0, rel=1e-12)


def test_symmetric_part_boundary_is_real(ladder_sqrt):
    op = dl.assemble(ladder_sqrt, dl.ball(ladder_sqrt, 0, 6), "symmetric_part")
    sample = dl.numrange_boundary(op, 32)
    assert np.max(np.abs(sample.points.imag)) < 1e-10
    eigs = np.linalg.eigvalsh(dl.similarity_to_standard(op))
    assert sample.min_real == pytest.approx(eigs[0], abs=1e-12)
    assert sample.points.real.max() == pytest.approx(eigs[-1], rel=1e-12)


def test_nilpotent_two_by_two_circle():
    op = dl.TruncatedOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), np.ones(2), "laplacian")
    sample = dl.numrange_boundary(op, 128)
    center = sample.points.mean()
    assert abs(center) < 1e-12
    radii = np.abs(sample.points)
    assert np.all(np.abs(radii - 0.5) < 1e-9)
    assert sample.min_real == pytest.approx(-0.5, abs=1e-12)
    # sampling oracle: the extremal modulus over many random unit vectors
    f = RNG.standard_normal((2, 10**6)) + 1j * RNG.standard_normal((2, 10**6))
    f /= np.linalg.norm(f, axis=0)
    values = np.abs(np.sum(np.conj(f) * (op.dense() @ f), axis=0))
    assert values.max() <= 0.5 + 1e-12
    assert values.max() >= 0.5 - 1e-3


def test_min_real_matches_boundary_minimum(ladder_sqrt):
    op = dl.assemble(ladder_sqrt, dl.ball(ladder_sqrt, 0, 6), "laplacian")
    sample = dl.numrange_boundary(op, 90)
    assert sample.points.real.min() == pytest.approx(sample.min_real, abs=1e-8)


def test_ladder_truncation_accretive(ladder_sqrt):
    op = dl.assemble(ladder_sqrt, dl.ball(ladder_sqrt, 0, 10), "laplacian")
    assert dl.numrange_boundary(op, 8).min_real >= -1e-12


def test_numrange_needs_four_angles(two_vertex_symmetric):
    op = dl.assemble(two_vertex_symmetric, dl.full_ball(two_vertex_symmetric, 0), "laplacian")
    with pytest.raises(GraphError):
        dl.numrange_boundary(op, 3)


def assert_matches_dense_sweep(op, n_angles):
    """Support values against a dense eigvalsh per angle, and the exact mirror."""
    sample = dl.numrange_boundary(op, n_angles)
    a = dl.similarity_to_standard(op)
    sym, skew = (a + a.T) / 2.0, (a - a.T) / 2.0
    expected = [
        np.linalg.eigvalsh(math.cos(phi) * sym + 1j * math.sin(phi) * skew)[-1] for phi in sample.angles
    ]
    support = np.real(np.exp(1j * sample.angles) * sample.points)
    tol = 100 * op.n * np.finfo(float).eps * np.linalg.norm(a, 2)
    assert np.max(np.abs(support - expected)) <= tol
    assert np.array_equal(sample.angles, 2.0 * np.pi * np.arange(n_angles) / n_angles)
    for k in range(1, n_angles):
        assert sample.points[n_angles - k] == np.conj(sample.points[k])


def _truncations(request, name):
    """Laplacians of a fixture's graphs at the CLI's default radius (radius 3 on the tree)."""
    graphs = request.getfixturevalue(name)
    for g in graphs if isinstance(graphs, list) else [graphs]:
        radius = 3 if name == "tree4" else max(1, int(dl.combinatorial_distance(g, 0).max()) - 1)
        yield dl.assemble(g, dl.ball(g, 0, radius), "laplacian")


@pytest.mark.parametrize("n_angles", [24, 25])
@pytest.mark.parametrize("name", ["ladder_sqrt", "ladder_unit", "tree4", "random_graphs"])
def test_sweep_matches_dense_support_values(request, name, n_angles):
    for op in _truncations(request, name):
        assert op.n >= 3
        assert_matches_dense_sweep(op, n_angles)


@pytest.mark.parametrize(
    "matrix",
    [
        [[2.0]],
        [[0.0, 1.0], [0.0, 0.0]],
        [[2.0, -1.0, 0.0], [-3.0, 4.0, -1.0], [0.0, -1.0, 1.0]],
        np.zeros((3, 3)),
    ],
    ids=["n1", "n2", "n3", "zero3"],
)
@pytest.mark.parametrize("n_angles", [8, 9])
def test_sweep_around_the_size_cutoff(matrix, n_angles):
    op = dl.TruncatedOperator(np.array(matrix), np.arange(1.0, len(matrix) + 1.0), "laplacian")
    assert_matches_dense_sweep(op, n_angles)


@pytest.mark.parametrize(
    "csr",
    [
        # Entry (0, 1) is stored and (1, 0) is not.
        ([2.0, -1.0, 1.0], [0, 1, 1], [0, 2, 3]),
        # A symmetric pattern without the diagonal of row 1.
        ([1.0, -1.0, -1.0], [0, 1, 0], [0, 2, 3]),
    ],
    ids=["asymmetric", "no-diagonal"],
)
def test_frame_rejects_a_pattern_it_cannot_transpose(csr):
    op = dl.TruncatedOperator(tuple(np.array(a) for a in csr), np.ones(2), "laplacian")
    with pytest.raises(GraphError, match="pattern"):
        dl.numrange_boundary(op, 8)


def test_frame_neither_sorts_nor_hashes(ladder_sqrt, monkeypatch):
    import dirlap.spectral as spectral

    op = dl.assemble(ladder_sqrt, dl.ball(ladder_sqrt, 0, 10), "laplacian")
    expected = spectral._standard_frame(op)

    def forbidden(*args, **kwargs):
        raise AssertionError("the frame sorted or hashed its pattern")

    for name in ("unique", "searchsorted", "lexsort"):
        monkeypatch.setattr(np, name, forbidden)
    frame = spectral._standard_frame(op)
    monkeypatch.undo()
    for got, want in zip(frame[:2], expected[:2]):
        assert np.array_equal(got.indices, op.indices) and np.array_equal(got.indptr, op.indptr)
        assert got.data.tobytes() == want.data.tobytes()
    assert frame[2:] == expected[2:]


def test_sweep_turns_solver_failures_into_numeric_errors(ladder_sqrt, monkeypatch):
    import scipy.sparse.linalg as sla

    import dirlap.spectral as spectral

    op = dl.assemble(ladder_sqrt, dl.ball(ladder_sqrt, 0, 6), "laplacian")
    splu = sla.splu

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    def only(kind, factor):
        # ``factor`` factors the matrices of this dtype kind, splu the others:
        # min_real factors real matrices, the sweep complex ones.
        def patched(*args, **kwargs):
            return (factor if args[0].dtype.kind == kind else splu)(*args, **kwargs)

        return patched

    def first_shift_only(*args, **kwargs):
        # The sweep's first shift certifies; no lower shift ever does.
        if factored:
            singular()
        factored.append(True)
        return splu(*args, **kwargs)

    class Flipped:
        """Factors whose solves return -w, so that the Noda iterate is negative."""

        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            return -self.lu.solve(b)

    with monkeypatch.context() as patch:
        patch.setattr(sla, "splu", only("c", singular))
        with pytest.raises(dl.NumericError, match="no shift"):
            dl.numrange_boundary(op, 8)
    with monkeypatch.context() as patch:
        factored = []
        patch.setattr(sla, "splu", only("c", first_shift_only))
        with pytest.raises(dl.NumericError, match="no certified eigenvalue .* at angle 0.000000"):
            dl.numrange_boundary(op, 8)
    # Each way Noda iteration can fail names min Re W, in the sweep and in the certificate.
    failures = [
        (sla, "splu", only("f", singular), r"exactly singular at sigma = .* for min Re W"),
        (sla, "splu", only("f", lambda *a, **k: Flipped(splu(*a, **k))), "Noda iterate for min Re W is not finite"),
        (spectral, "_NODA_SOLVES", 1, "no certified eigenvalue within 1 solves for min Re W"),
    ]
    for verdict in (lambda: dl.numrange_boundary(op, 8), lambda: dl.accretivity_certificate(ladder_sqrt, op.ball)):
        for module, name, value, message in failures:
            with monkeypatch.context() as patch:
                patch.setattr(module, name, value)
                with pytest.raises(dl.NumericError, match=message):
                    verdict()
    assert_matches_dense_sweep(op, 8)


def rebuilt(g, order=None, weight_scale=1.0, measure_scale=1.0):
    """``g`` with its vertices listed in ``order`` and its weights and measures scaled."""
    order = g.vertex_ids() if order is None else order
    return dl.DirectedGraph(
        [(g.label(int(x)), g.measure(int(x)) * measure_scale) for x in order],
        [(g.label(x), g.label(y), w * weight_scale) for x, y, w in g.iter_edges()],
    )


def _random30_sample(g):
    return dl.numrange_boundary(dl.assemble(g, dl.ball(g, g.index("v0"), 3), "laplacian"), 24)


@pytest.mark.parametrize("k", [-1000, -960, -3, 5, 20, 900, 1000])
def test_sweep_scales_exactly_with_the_weights(k):
    g = dl.make_random_balanced(30, seed=1, density=1)
    base, scaled = _random30_sample(g), _random30_sample(rebuilt(g, weight_scale=2.0**k))
    assert np.array_equal(scaled.points, base.points * 2.0**k)
    assert scaled.min_real == base.min_real * 2.0**k
    assert scaled.tolerance == base.tolerance * 2.0**k


def test_sweep_of_tiny_weights_does_not_overflow():
    # Weights near 1e-250: each solve grows v by ~1 / tol ~ 1e262, whose square overflows.
    g = dl.make_random_balanced(30, seed=1, density=1)
    base, scaled = _random30_sample(g), _random30_sample(rebuilt(g, weight_scale=2.0**-830))
    assert np.array_equal(scaled.points, base.points * 2.0**-830)


def test_subnormal_weights_are_a_numeric_failure():
    # Subnormal entries carry an absolute rounding of 2^-1075 each, which a
    # tolerance relative to ||A||_F does not cover: tau would read 0.
    g = rebuilt(dl.make_random_balanced(12, 0, 0.5), weight_scale=1e-318)
    ball_ = dl.full_ball(g, 0)
    verdicts = [
        lambda: dl.numrange_boundary(dl.assemble(g, ball_, "laplacian"), 8),
        lambda: dl.accretivity_certificate(g, ball_),
        lambda: dl.cheeger_bound_check(unit_measure_copy(g), ball_, 0.0),
    ]
    for verdict in verdicts:
        with pytest.raises(dl.NumericError, match="subnormal"):
            verdict()


@pytest.mark.parametrize("k", [-3, 5, 20])
def test_sweep_scales_exactly_with_the_measures(k):
    # L = B / m, so scaling every measure by 4^k scales the operator by 4^-k.
    g = dl.make_random_balanced(30, seed=1, density=1)
    base, scaled = _random30_sample(g), _random30_sample(rebuilt(g, measure_scale=4.0**k))
    assert np.array_equal(scaled.points, base.points * 4.0**-k)
    assert scaled.min_real == base.min_real * 4.0**-k


@pytest.mark.parametrize(
    "name, root, radius", [("ladder_sqrt", "x0", 10), ("tree4", "r", 3), ("random_graphs", "v0", 3)]
)
def test_relabeling_keeps_verdicts_and_support_values(request, name, root, radius):
    graphs = request.getfixturevalue(name)
    g = graphs[0] if isinstance(graphs, list) else graphs
    shuffled = rebuilt(g, np.random.default_rng(5).permutation(len(g)))
    assert shuffled.labels != g.labels
    verdicts, support = [], []
    for h in (g, shuffled):
        ball_ = dl.ball(h, h.index(root), radius)
        verdicts.append(dl.accretivity_certificate(h, ball_)["verdicts"])
        sample = dl.numrange_boundary(dl.assemble(h, ball_, "laplacian"), 24)
        support.append(np.real(np.exp(1j * sample.angles) * sample.points))
    assert verdicts[0] == verdicts[1]
    a = dl.similarity_to_standard(dl.assemble(h, ball_, "laplacian"))
    tol = 100 * len(a) * np.finfo(float).eps * np.linalg.norm(a, 2)
    assert np.max(np.abs(support[0] - support[1])) <= tol


# -- sector checks -------------------------------------------------------------------


def test_sector_geometry():
    sector = dl.Sector(vertex=-1.0, half_angle=math.atan(0.5))
    assert math.tan(sector.half_angle) == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(GraphError):
        dl.Sector(vertex=0.0, half_angle=np.pi / 2)


def test_check_sector_symmetric_any_constant(two_vertex_symmetric):
    op = dl.assemble(two_vertex_symmetric, dl.full_ball(two_vertex_symmetric, 0), "laplacian")
    sample = dl.numrange_boundary(op, 16)
    for c in (0.0, 5.0):
        sector, ok = dl.check_sector(sample, c)
        assert ok
    sector, _ = dl.check_sector(sample, 0.0)
    assert sector.half_angle == 0.0 and sector.vertex == pytest.approx(sample.min_real)


def test_check_sector_ladder_published_constant(ladder_sqrt):
    op = dl.assemble(ladder_sqrt, dl.ball(ladder_sqrt, 0, 10), "laplacian")
    sample = dl.numrange_boundary(op, 180)
    sector, ok = dl.check_sector(sample, 12.0)
    assert ok
    assert sector.vertex == pytest.approx(-4.0 / 12.0)
    assert sector.half_angle == pytest.approx(math.atan(12.0 / 8.0))


def test_check_sector_tree(tree4):
    op = dl.assemble(tree4, dl.ball(tree4, 0, 3), "laplacian")
    sample = dl.numrange_boundary(op, 90)
    _, ok = dl.check_sector(sample, dl.check_asymmetry(tree4, dl.ball(tree4, 0, 3).vertices))
    assert ok
    # the affine bound happens to hold on this truncation even with half the
    # true constant
    _, ok_small = dl.check_sector(sample, 2.0)
    assert ok_small


def dense_sector_value(op, c):
    """max over W of Im z - (C/8) Re z: the top eigenvalue of -(C/8) S - i K, by dense eigvalsh."""
    a = dl.similarity_to_standard(op)
    return np.linalg.eigvalsh(-(c / 8.0) * (a + a.T) / 2.0 - 0.5j * (a - a.T))[-1]


@pytest.mark.parametrize("n_angles", [8, 24, 72, 360])
def test_check_sector_finds_violations_between_sampled_angles(tree4, n_angles):
    # W crosses the line between the sampled angles, where no sampled point shows it.
    ladder = dl.make_ladder(dl.LadderSpec(depth=20))
    cases = [
        (dl.assemble(ladder, dl.ball(ladder, 0, 19), "laplacian"), 4.0495, 0.50136),
        (dl.assemble(tree4, dl.ball(tree4, 0, 3), "laplacian"), 1.0876, 0.50035),
    ]
    for op, c, exact in cases:
        assert dense_sector_value(op, c) == pytest.approx(exact, abs=5e-6)
        _, ok = dl.check_sector(dl.numrange_boundary(op, n_angles), c)
        assert not ok


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10**6), st.integers(3, 12), st.integers(1, 3), st.floats(0.0, 60.0))
def test_check_sector_matches_the_dense_support_value(seed, n, radius, c):
    g = dl.make_random_balanced(n, seed)
    op = dl.assemble(g, dl.ball(g, 0, radius), "laplacian")
    sample = dl.numrange_boundary(op, 4)
    value = dense_sector_value(op, c)
    _, ok = dl.check_sector(sample, c)
    # The support value is certified within tau, each coordinate carries tau.
    assert ok == (value <= 0.5) or abs(value - 0.5) <= 2.0 * sample.tolerance * (1.0 + c / 8.0)


def test_check_sector_half_angle_stays_below_a_right_angle(two_vertex_symmetric):
    # atan(C/8) rounds to pi/2 once C/8 >= 2^53; the true angle lies below it.
    op = dl.assemble(two_vertex_symmetric, dl.full_ball(two_vertex_symmetric, 0), "laplacian")
    sector, _ = dl.check_sector(dl.numrange_boundary(op, 8), 2.0**60)
    assert sector.half_angle == math.nextafter(math.pi / 2.0, 0.0)
    assert math.atan(2.0**57) == math.pi / 2.0


def test_sector_verdict_is_one_factorization(monkeypatch):
    import scipy.sparse.linalg as sla

    import dirlap.spectral as spectral

    ladder = dl.make_ladder(dl.LadderSpec(depth=150))
    ball_ = dl.ball(ladder, 0, int(dl.combinatorial_distance(ladder, 0).max()) - 1)
    sample = dl.numrange_boundary(dl.assemble(ladder, ball_, "laplacian"), 4)
    constant = dl.check_asymmetry(ladder, ball_.vertices)
    splu, kinds = sla.splu, []

    def counted(*args, **kwargs):
        kinds.append(args[0].dtype.kind)
        return splu(*args, **kwargs)

    def second_frame(*args, **kwargs):
        raise AssertionError("check_sector formed a second frame or eigensolve")

    with monkeypatch.context() as patch:
        patch.setattr(sla, "splu", counted)
        patch.setattr(spectral, "_standard_frame", second_frame)
        patch.setattr(spectral, "_lowest_eigenvalue", second_frame)
        patch.setattr(spectral, "_top_eigenpair", second_frame)
        patch.setattr(np.linalg, "eigvalsh", second_frame)
        _, ok = dl.check_sector(sample, constant)
    assert ok and kinds == ["c"]
    kinds.clear()
    monkeypatch.setattr(sla, "splu", counted)
    assert dl.accretivity_certificate(ladder, ball_)["sector"]["ok"]
    # min_real factors its first Noda shift, and those factors precondition its later
    # steps; the one complex factorization is the sector's.
    assert kinds == ["f", "c"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_constants_are_input_errors(ladder_unit, value):
    # A non-finite constant is a malformed input, never a verdict.
    ball_ = dl.ball(ladder_unit, 0, 4)
    sample = dl.numrange_boundary(dl.assemble(ladder_unit, ball_, "laplacian"), 8)
    with pytest.raises(GraphError, match="finite"):
        dl.cheeger_bound_check(ladder_unit, ball_, value)
    with pytest.raises(GraphError, match="finite"):
        dl.check_sector(sample, value)


def test_check_sector_rejects_negative_constant(two_vertex_symmetric):
    op = dl.assemble(two_vertex_symmetric, dl.full_ball(two_vertex_symmetric, 0), "laplacian")
    sample = dl.numrange_boundary(op, 8)
    with pytest.raises(GraphError):
        dl.check_sector(sample, -1.0)


def test_fit_sector(ladder_sqrt):
    op = dl.assemble(ladder_sqrt, dl.ball(ladder_sqrt, 0, 8), "laplacian")
    sample = dl.numrange_boundary(op, 90)
    sector = dl.fit_sector(sample, vertex=-1.0)
    pts = sample.points
    assert np.all(np.abs(pts.imag) <= math.tan(sector.half_angle) * (pts.real - sector.vertex) + 1e-12)
    tighter = dl.fit_sector(sample, vertex=-10.0)
    assert tighter.half_angle < sector.half_angle
    with pytest.raises(GraphError):
        dl.fit_sector(sample, vertex=sample.points.real.max() + 1.0)


def test_fit_sector_vertex_inside_a_real_range(two_vertex_symmetric):
    # Every point of a symmetric operator is real, so a vertex between two of them
    # leaves a point to its left and no sector of angle below pi/2 holds that point.
    op = dl.assemble(two_vertex_symmetric, dl.full_ball(two_vertex_symmetric, 0), "laplacian")
    sample = dl.numrange_boundary(op, 8)
    inside = (sample.points.real.min() + sample.points.real.max()) / 2.0
    with pytest.raises(GraphError, match="no sector"):
        dl.fit_sector(sample, vertex=inside)


# -- Cheeger constants ------------------------------------------------------------------


def test_cheeger_two_vertex(two_vertex_symmetric):
    result = dl.cheeger_bruteforce(two_vertex_symmetric)
    assert result.value == 1.0
    assert result.certified and len(result.witness) == 1


def test_cheeger_triangle():
    k3 = dl.DirectedGraph(
        [("a", 1.0), ("b", 1.0), ("c", 1.0)],
        [
            ("a", "b", 1.0), ("b", "a", 1.0),
            ("b", "c", 1.0), ("c", "b", 1.0),
            ("a", "c", 1.0), ("c", "a", 1.0),
        ],
    )
    result = dl.cheeger_bruteforce(k3)
    assert result.value == 1.0 and len(result.witness) == 2


def test_cheeger_preconditions(ladder_sqrt, single_edge):
    assert dl.cheeger_bruteforce(single_edge) == dl.cheeger_bruteforce(dl.symmetrize(single_edge))
    with pytest.raises(GraphError, match="unit"):
        dl.cheeger_bruteforce(dl.symmetrize(ladder_sqrt))


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10**6), st.integers(3, 10), st.floats(0.0, 1.5))
def test_cheeger_reads_the_symmetrized_weights_of_the_host(seed, n, density):
    # The boundary weight is sqrt(b'), and b' of symmetrize(g) is b' of g bit for bit.
    g = unit_measure_copy(dl.make_random_balanced(n, seed, density))
    host, sym = dl.cheeger_bruteforce(g), dl.cheeger_bruteforce(dl.symmetrize(g))
    assert host.value.hex() == sym.value.hex()
    assert (host.witness, host.certified) == (sym.witness, sym.certified)


def test_cheeger_budget_keeps_the_best_of_the_subsets_visited(random_graphs, monkeypatch):
    import dirlap.spectral as spectral
    from dirlap.spectral import _boundary_quotient, _connected_subsets, _out_edges

    g = unit_measure_copy(random_graphs[0])
    budget = 12
    first = list(itertools.islice(_connected_subsets(g, len(g) - 1), budget))
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_BUDGET", budget)
        result = dl.cheeger_bruteforce(g)
    assert not result.certified
    assert result.value == min(_boundary_quotient(_out_edges(g), s) for s in first)
    assert result.value > dl.cheeger_bruteforce(g).value


def test_cheeger_enumeration_limits(random_graphs, ladder_unit):
    g = unit_measure_copy(random_graphs[0])
    with pytest.raises(GraphError, match="max_subset_size must be >= 1"):
        dl.cheeger_bruteforce(g, max_subset_size=0)
    assert len(ladder_unit) > 20
    # Above 20 vertices the default size cap is 10, short of a complete enumeration.
    result = dl.cheeger_bruteforce(ladder_unit)
    assert result == dl.cheeger_bruteforce(ladder_unit, max_subset_size=10)
    assert not result.certified


def test_cheeger_reads_an_underflowed_symmetrized_weight_as_zero():
    # b'(a, c) = 5e-324 / 2 rounds to 0.  Its true square root is below 2**-537,
    # far below half an ulp of every quotient here, so reading it as 0 moves none.
    vertices = [(v, 1.0) for v in "abc"]
    path = [("a", "b", 1.0), ("b", "a", 1.0), ("b", "c", 1.0), ("c", "b", 1.0)]
    with_slot = dl.cheeger_bruteforce(dl.DirectedGraph(vertices, path + [("a", "c", 5e-324)]))
    without = dl.cheeger_bruteforce(dl.DirectedGraph(vertices, path))
    assert with_slot.value.hex() == without.value.hex()
    assert (with_slot.witness, with_slot.certified) == (without.witness, without.certified)


def test_cheeger_matches_exhaustive_oracle(random_graphs):
    for g in random_graphs[:3]:
        g_sym = dl.symmetrize(unit_measure_copy(g))
        value, _ = exhaustive_cheeger(g_sym)
        result = dl.cheeger_bruteforce(g_sym)
        assert result.certified
        assert result.value == pytest.approx(value, rel=1e-15)


def test_cheeger_cap_monotonicity(random_graphs):
    g_sym = dl.symmetrize(unit_measure_copy(random_graphs[0]))
    values = [dl.cheeger_bruteforce(g_sym, max_subset_size=k).value for k in range(1, len(g_sym))]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    assert not dl.cheeger_bruteforce(g_sym, max_subset_size=2).certified


def test_cheeger_relabel_invariance(random_graphs):
    g = unit_measure_copy(random_graphs[2])
    g_sym = dl.symmetrize(g)
    shuffled = rebuilt(g_sym, np.random.default_rng(8).permutation(len(g_sym)))
    assert dl.cheeger_bruteforce(shuffled).value == pytest.approx(
        dl.cheeger_bruteforce(g_sym).value, rel=1e-15
    )


def test_cheeger_nested_ladder_quotients(ladder_unit):
    g_sym = dl.symmetrize(ladder_unit)
    family = [dl.ball(ladder_unit, 0, n).vertices for n in range(1, 12)]
    result = dl.cheeger_nested(g_sym, family)
    quotients = [2.0 * (n + 1) / (2 * n + 1) for n in range(1, 12)]
    assert result.value == quotients[-1]
    assert result.witness_index == len(family) - 1
    for n, member in enumerate(family, start=1):
        single = dl.cheeger_nested(g_sym, [member])
        assert single.value == quotients[n - 1]


def test_cheeger_nested_validation(ladder_unit):
    g_sym = dl.symmetrize(ladder_unit)
    with pytest.raises(GraphError, match="proper"):
        dl.cheeger_nested(g_sym, [tuple(g_sym.vertex_ids())])
    with pytest.raises(GraphError, match="contain"):
        dl.cheeger_nested(g_sym, [(0, 1, 2), (3, 4)])
    with pytest.raises(GraphError):
        dl.cheeger_nested(g_sym, [])
    # A negative id would index from the end of the graph; a large one would overrun it.
    for family in ([[-1]], [[0, 10**6]]):
        with pytest.raises(dl.UnknownVertexError):
            dl.cheeger_nested(g_sym, family)


def test_cheeger_bound_check_ladder(ladder_unit):
    ball_ = dl.ball(ladder_unit, 0, 10)
    bound = dl.cheeger_bound_check(ladder_unit, ball_, 1.0)
    assert bound.lambda0 == pytest.approx(1.0 / 6.0)
    assert bound.ok and bound.min_real >= 1.0 / 6.0 - 1e-9
    sample = dl.numrange_boundary(dl.assemble(ladder_unit, ball_, "laplacian"))
    assert bound.min_real == sample.min_real
    lam0, min_real, ok = bound
    assert (lam0, min_real, ok) == (bound.lambda0, bound.min_real, bound.ok)


def test_cheeger_bound_zero_h(ladder_unit):
    bound = dl.cheeger_bound_check(ladder_unit, dl.ball(ladder_unit, 0, 6), 0.0)
    assert bound.lambda0 == 0.0 and bound.ok


def test_cheeger_bound_requires_unit_measure(ladder_sqrt):
    with pytest.raises(GraphError):
        dl.cheeger_bound_check(ladder_sqrt, dl.ball(ladder_sqrt, 0, 4), 1.0)


def test_connected_subset_enumeration_complete(random_graphs):
    # count of connected subsets must match a bitmask reference
    g = dl.symmetrize(unit_measure_copy(dl.make_random_balanced(9, seed=17)))
    from dirlap.spectral import _connected_subsets

    listed = set(_connected_subsets(g, len(g)))
    assert len(listed) == len(set(listed))
    nbrs = {x: set(g.neighbors(x)) for x in g.vertex_ids()}

    def connected(members):
        members = set(members)
        seen = {next(iter(members))}
        stack = [next(iter(seen))]
        while stack:
            x = stack.pop()
            for y in nbrs[x] & members:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen == members

    reference = {
        frozenset(v for v in range(len(g)) if mask >> v & 1)
        for mask in range(1, 1 << len(g))
        if connected([v for v in range(len(g)) if mask >> v & 1])
    }
    assert listed == reference


# -- certificate ---------------------------------------------------------------------


def test_certificate_ladder(ladder_sqrt):
    cert = dl.accretivity_certificate(ladder_sqrt, dl.ball(ladder_sqrt, 0, 10))
    assert cert["kirchhoff"]["ok"] and cert["kirchhoff"]["max_imbalance"] == 0.0
    assert cert["asymmetry_constant"] <= 12.0
    assert cert["total_asymmetry"]["trend"] == "growing"
    assert cert["sector"]["ok"]
    assert cert["verdicts"]["m_accretive_supported"]
    assert cert["verdicts"]["m_sectorial_supported"]
    payload = json.loads(json.dumps(cert))
    assert payload["verdicts"]["m_sectorial_supported"]


def test_certificate_tree(tree4):
    cert = dl.accretivity_certificate(tree4, dl.ball(tree4, 0, 3))
    assert cert["asymmetry_constant"] == 4.0
    assert cert["total_asymmetry"]["trend"] == "bounded"
    assert cert["verdicts"]["m_accretive_supported"]


def test_certificate_single_edge_negative(single_edge):
    cert = dl.accretivity_certificate(single_edge, dl.ball(single_edge, 0, 1))
    assert not cert["kirchhoff"]["ok"]
    assert cert["kirchhoff"]["max_imbalance"] == 3.0
    assert cert["kirchhoff"]["worst_vertex"] == "u"
    assert not cert["verdicts"]["m_accretive_supported"]


def test_certificate_forms_one_similarity(ladder_sqrt, monkeypatch):
    import scipy.linalg

    import dirlap.spectral as spectral

    frame, calls = spectral._standard_frame, []

    def counted(op):
        calls.append(op)
        return frame(op)

    def dense(*args, **kwargs):
        raise AssertionError("the certificate formed a dense matrix or ran a dense eigensolve")

    ball_ = dl.ball(ladder_sqrt, 0, 10)
    expected = dl.accretivity_certificate(ladder_sqrt, ball_)
    monkeypatch.setattr(spectral, "_standard_frame", counted)
    monkeypatch.setattr(dl.TruncatedOperator, "dense", dense)
    monkeypatch.setattr(np.linalg, "eigvalsh", dense)
    monkeypatch.setattr(scipy.linalg, "eigvalsh", dense)
    assert dl.accretivity_certificate(ladder_sqrt, ball_) == expected
    assert len(calls) == 1


def test_certificate_sweeps_no_boundary(ladder_sqrt, monkeypatch):
    import dirlap.spectral as spectral

    def no_sweep(*args, **kwargs):
        raise AssertionError("the certificate swept the boundary")

    ball_ = dl.ball(ladder_sqrt, 0, 10)
    expected = dl.accretivity_certificate(ladder_sqrt, ball_)
    monkeypatch.setattr(spectral, "numrange_boundary", no_sweep)
    assert dl.accretivity_certificate(ladder_sqrt, ball_) == expected


@pytest.mark.parametrize(
    "graph",
    [
        dl.make_ladder(dl.LadderSpec(depth=20)),
        dl.make_tree(dl.TreeSpec(depth=2)),
        dl.make_random_balanced(30, seed=5, density=1.0),
    ],
    ids=["ladder", "tree", "random"],
)
def test_shifted_factors_match_the_setdiag_construction(graph, monkeypatch):
    import scipy.sparse.linalg as sla

    import dirlap.spectral as spectral

    frame = spectral._standard_frame(dl.assemble(graph, dl.full_ball(graph, 0), "laplacian"))
    sector = frame.sym.astype(complex)
    sector.data[:] = -0.5 * frame.sym.data - 1j * frame.skew.data
    splu, factors = sla.splu, []

    def recorded(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(sla, "splu", recorded)
    for h in (-frame.sym, frame.sym, sector):
        diagonal = spectral._diagonal_positions(h)
        for sigma in (-1.0, -frame.min_real, 0.0, 0.25, 1.0 + frame.tol):
            factors.clear()
            spectral._negative_definite(h, sigma, diagonal)
            shifted = h.copy()
            shifted.setdiag(h.diagonal() - sigma)
            reference = splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})
            (lu,) = factors
            assert np.array_equal(lu.perm_r, reference.perm_r) and np.array_equal(lu.perm_c, reference.perm_c)
            assert lu.U.diagonal().tobytes() == reference.U.diagonal().tobytes()


def test_certificate_runs_one_breadth_first_search(ladder_sqrt, monkeypatch):
    import dirlap.graph as graph

    ball_ = dl.ball(ladder_sqrt, 0, 10)
    cert = dl.accretivity_certificate(ladder_sqrt, ball_)
    probes = [dl.check_total_asymmetry(ladder_sqrt, dl.ball(ladder_sqrt, 0, r).interior) for r in (2, 5, 10)]
    assert cert["total_asymmetry"]["values"] == probes
    assert cert["cutoff_constant"] == dl.build_cutoffs(ladder_sqrt, 0, [2, 5]).constant
    distances, roots = graph._distances, []

    def counted(ptr, nbr, x0):
        roots.append(x0)
        return distances(ptr, nbr, x0)

    monkeypatch.setattr(graph, "_distances", counted)
    assert dl.accretivity_certificate(ladder_sqrt, ball_) == cert
    # Root 0's distances were stored when the graph was built.
    assert roots == []


def test_certificate_memory_grows_with_the_entries():
    import tracemalloc

    ladder = dl.make_ladder(dl.LadderSpec(depth=2500))
    ball_ = dl.ball(ladder, 0, int(dl.combinatorial_distance(ladder, 0).max()) - 1)
    tracemalloc.start()
    try:
        cert = dl.accretivity_certificate(ladder, ball_)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One dense n-by-n array of this truncation (n = 4999) takes 200 MB.
    assert cert["verdicts"]["m_sectorial_supported"]
    assert peak < 50 * 2**20


def with_measure(g, measure):
    """``g`` with unit measures, or with m(x) = sqrt(1 + d(v0, x)) like the ladder's sqrt measure."""
    dist = dl.combinatorial_distance(g, 0)
    m = np.ones(len(g)) if measure == "unit" else np.sqrt(1.0 + dist)
    return dl.DirectedGraph(
        [(g.label(x), float(m[x])) for x in g.vertex_ids()],
        [(g.label(x), g.label(y), w) for x, y, w in g.iter_edges()],
    )


def min_real_slack(sym):
    """The certified half-width 100 (d + 2) eps ||S||_inf of min_real, d the most off-diagonal entries of a row."""
    eps = np.finfo(float).eps
    return 100 * (np.diff(sym.indptr).max() + 1) * eps * abs(sym).sum(axis=1).max()


def exact_eigenvalues(dense):
    """The eigenvalues of a real symmetric array, ascending, by mpmath at 30 digits."""
    import mpmath

    with mpmath.workdps(30):
        return sorted(float(x) for x in mpmath.eigsy(mpmath.matrix(dense.tolist()), eigvals_only=True))


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 10**6),
    st.integers(3, 14),
    st.integers(1, 3),
    st.sampled_from(dl.KINDS),
    st.sampled_from(["unit", "sqrt"]),
    st.floats(0.0, 2.0 * math.pi),
)
# eigvalsh puts lambda_max of this S 5.4e-16 below its exact value, beyond the allowance of 4.7e-16.
@example(seed=285693, n=12, radius=1, kind="laplacian", measure="unit", phi=0.0)
def test_min_real_encloses_the_dense_lowest_eigenvalue(seed, n, radius, kind, measure, phi):
    import dirlap.spectral as spectral

    g = with_measure(dl.make_random_balanced(n, seed), measure)
    frame = spectral._standard_frame(dl.assemble(g, dl.ball(g, 0, radius), kind))
    sym = frame.sym.toarray()
    eps = np.finfo(float).eps
    delta = min_real_slack(frame.sym)
    # The rounding of rho; the reference eigenvalues are exact to 30 digits.
    rho_error = len(sym) * eps * np.linalg.norm(sym, 2)
    exact = exact_eigenvalues(sym)
    rho = frame.min_real
    assert rho - delta - rho_error <= exact[0] <= rho + rho_error
    # -S is no Z-matrix, so lambda_max(S) comes from the sweep's routine, to the same slack.
    v = np.random.default_rng(0).standard_normal(len(sym))
    top = spectral._top_eigenpair(frame.sym, delta, v, math.inf, delta, "for max Re W")[0] if delta else 0.0
    assert top - rho_error <= exact[-1] <= top + delta + rho_error
    if frame.tol == 0.0:
        return  # a = 0, whose boundary points the sweep leaves at 0 without a solve
    # The routine behind min_real certifies each sweep angle's support value to tau.
    herm = frame.sym.astype(complex)
    herm.data[:] = math.cos(phi) * frame.sym.data + 1j * math.sin(phi) * frame.skew.data
    v = np.random.default_rng(seed).standard_normal(len(sym)).astype(complex)
    rho, _, _ = spectral._top_eigenpair(herm, frame.tol, v, math.inf, frame.tol, "at angle phi")
    dense = herm.toarray()
    # Both ends round: eigvalsh by about n eps ||h||_2 (a little more on small complex matrices),
    # and rho, whose exact value lies below lambda_max, by sums of at most n products each.
    rounding = len(sym) * eps * (np.linalg.norm(dense, 2) + 2.0 * np.linalg.norm(dense))
    assert rho - rounding <= np.linalg.eigvalsh(dense)[-1] <= rho + frame.tol + rounding


LAPLACIAN_KINDS = ("laplacian", "adjoint", "symmetric_part")


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 10**6),
    st.integers(3, 14),
    st.integers(1, 3),
    st.sampled_from(LAPLACIAN_KINDS),
    st.sampled_from(["unit", "sqrt"]),
)
def test_noda_encloses_the_exact_lowest_eigenvalue(seed, n, radius, kind, measure):
    import dirlap.spectral as spectral

    g = with_measure(dl.make_random_balanced(n, seed), measure)
    s = spectral._standard_frame(dl.assemble(g, dl.ball(g, 0, radius), kind)).sym
    # Every Laplacian kind gives a Z-matrix S, bit for bit, so min_real reads Noda's enclosure.
    off_diagonal = s.toarray()[~np.eye(s.shape[0], dtype=bool)]
    assert np.all(off_diagonal <= 0.0)
    delta = min_real_slack(s)
    lower, upper = spectral._noda(s, delta, spectral._diagonal_positions(s))
    assert upper - lower <= delta and spectral._lowest_eigenvalue(s)[0] == upper
    # The lower end is rigorous for the stored S.  The upper end is a computed
    # Rayleigh quotient, whose exact value lies above lambda_min.
    dense = s.toarray()
    lowest = exact_eigenvalues(dense)[0]
    assert lower <= lowest <= upper + len(dense) * np.finfo(float).eps * np.linalg.norm(dense, 2)


@settings(deadline=None, max_examples=30)
@given(
    st.integers(0, 10**6),
    st.integers(3, 14),
    st.integers(1, 3),
    st.sampled_from(LAPLACIAN_KINDS),
    st.sampled_from(["unit", "sqrt"]),
    st.integers(-40, 40),
)
def test_min_real_is_kept_by_relabeling_and_scales_with_the_weights(seed, n, radius, kind, measure, k):
    import dirlap.spectral as spectral

    g = with_measure(dl.make_random_balanced(n, seed), measure)
    shuffled = rebuilt(g, np.random.default_rng(seed).permutation(len(g)))
    frames = [
        spectral._standard_frame(dl.assemble(h, dl.ball(h, h.index("v0"), radius), kind))
        for h in (g, rebuilt(g, weight_scale=2.0**k), shuffled)
    ]
    (base, _), (scaled, _), (relabeled, _) = (frame.unscaled for frame in frames)
    assert scaled == base * 2.0**k
    # Both enclosures [m - delta, m] hold the same lambda_min, up to the rounding of each m.
    dense = frames[0].sym.toarray()
    rounding = len(dense) * np.finfo(float).eps * np.linalg.norm(dense, 2)
    assert abs(frames[2].min_real - frames[0].min_real) <= min_real_slack(frames[0].sym) + 2.0 * rounding
    assert math.ldexp(frames[2].min_real, frames[2].e) == relabeled


def test_noda_shifts_below_a_lower_end_that_is_already_exact():
    import scipy.sparse as sparse

    import dirlap.spectral as spectral

    # From u = 1 every quotient of a diagonal S is exact, so S - lower I would be singular.
    s = sparse.csc_matrix(np.diag([3.0, 1.0, 2.0]))
    delta = min_real_slack(s)
    lower, upper = spectral._noda(s, delta, spectral._diagonal_positions(s))
    assert lower <= 1.0 <= upper <= lower + delta


def noda_matrices():
    """S on the N = 150 sqrt ladder and the depth-4 tree at certify's default radius, and on random n = 300."""
    import dirlap.spectral as spectral

    balls = []
    for g in (dl.make_ladder(dl.LadderSpec(depth=150)), dl.make_tree(dl.TreeSpec(depth=4))):
        balls.append((g, dl.ball(g, 0, int(dl.combinatorial_distance(g, 0).max()) - 1)))
    g = dl.make_random_balanced(300, seed=1, density=0.5)
    balls.append((g, dl.full_ball(g, 0)))
    return [spectral._standard_frame(dl.assemble(g, ball_, "laplacian")).sym for g, ball_ in balls]


def test_noda_factors_once_and_preconditions_every_later_step(monkeypatch):
    import scipy.sparse.linalg as sla

    import dirlap.spectral as spectral

    splu, pcg, calls = sla.splu, spectral._pcg, []

    def counted_splu(*args, **kwargs):
        calls.append(args[0].dtype.kind)
        return splu(*args, **kwargs)

    def counted_pcg(*args):
        w, info = pcg(*args)
        calls.append(info)
        return w, info

    monkeypatch.setattr(sla, "splu", counted_splu)
    monkeypatch.setattr(spectral, "_pcg", counted_pcg)
    # A ladder and a tree factor with little fill, the random graph with much; one path serves all three.
    for s in noda_matrices():
        calls.clear()
        delta = min_real_slack(s)
        lower, upper = spectral._noda(s, delta, spectral._diagonal_positions(s))
        assert calls[0] == "f" and len(calls) >= 3 and calls[1:] == [0] * (len(calls) - 1)
        assert upper - lower <= delta
        assert upper == pytest.approx(np.linalg.eigvalsh(s.toarray())[0], abs=delta)
        calls.clear()
        spectral._lowest_eigenvalue(s)
        assert calls.count("f") == 1


@pytest.mark.parametrize("failure", ["no-convergence", "negative", "stalled"])
def test_noda_returns_to_factors_when_conjugate_gradients_fail(failure, monkeypatch):
    import scipy.sparse.linalg as sla

    import dirlap.spectral as spectral

    splu, pcg, calls = sla.splu, spectral._pcg, []

    def counted_splu(*args, **kwargs):
        calls.append("factors")
        return splu(*args, **kwargs)

    def failing_once(a, b, lu, maxiter):
        if "failed" in calls:
            calls.append("cg")
            return pcg(a, b, lu, maxiter)
        calls.append("failed")
        if failure == "no-convergence":
            return lu.solve(b), 1
        # A negative iterate, or w = u, which leaves upper - lower where it was.
        return (-lu.solve(b) if failure == "negative" else b), 0

    for s in noda_matrices():
        delta, diagonal = min_real_slack(s), spectral._diagonal_positions(s)
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_pcg", lambda a, b, lu, maxiter: (lu.solve(b), 1))  # every step factors
            factored = spectral._noda(s, delta, diagonal)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(sla, "splu", counted_splu)
            patch.setattr(spectral, "_pcg", failing_once)
            lower, upper = spectral._noda(s, delta, diagonal)
        # The failed step factors its own shift (a stalled one: the next step), and
        # those factors precondition the CG solves that follow.
        assert calls[:3] == ["factors", "failed", "factors"] and set(calls[3:]) <= {"cg"}
        assert upper - lower <= delta and lower <= factored[1] and factored[0] <= upper


@pytest.mark.skipif(
    tuple(int(part) for part in scipy.__version__.split(".")[:2]) < (1, 12),
    reason="scipy's cg runs this loop in Python, with rtol, from scipy 1.12 on",
)
def test_inline_conjugate_gradients_are_scipys_to_the_bit(monkeypatch):
    import scipy.sparse.linalg as sla

    import dirlap.spectral as spectral

    def scipy_cg(a, b, lu, maxiter, callback=None):
        m = sla.LinearOperator(a.shape, lu.solve, dtype=a.dtype)
        return sla.cg(a, b, x0=lu.solve(b), rtol=spectral._CG_RTOL, maxiter=maxiter, M=m, callback=callback)

    pcg, systems = spectral._pcg, []
    monkeypatch.setattr(spectral, "_pcg", lambda *args: systems.append(args) or pcg(*args))
    for s in noda_matrices():
        # The shifted systems and factors that Noda iteration solves (info 0)...
        start = len(systems)
        spectral._noda(s, min_real_slack(s), spectral._diagonal_positions(s))
        assert len(systems) - start >= 2
        a, b, lu, n = systems[start]
        steps = []
        assert scipy_cg(a, b, lu, n, steps.append)[1] == 0 and len(steps) >= 2
        # ...the first of them on budgets that run out, after one step (info 1) and on the
        # step whose residual would pass the test that is never reached (info = steps)...
        systems += [(a, b, lu, 1), (a, b, lu, len(steps))]
        # ...and preconditioned by its own factors, so that it stops before the first step.
        systems.append((a, b, spectral._factor(a), n))
        expected = [0] * (len(systems) - start - 3) + [1, len(steps), 0]
        for (a, b, lu, maxiter), info in zip(systems[start:], expected, strict=True):
            (x, got), (reference, want) = pcg(a, b, lu, maxiter), scipy_cg(a, b, lu, maxiter)
            assert np.array_equal(x, reference) and got == want == info
        assert np.array_equal(x, lu.solve(b))


def why_outcomes(cert, leave_out=()):
    """The ``ok``, ``method`` and ``reads`` of each record of the report's ``why`` block, and its verdict table."""
    why = cert["why"]
    records = {name: (r["ok"], r["method"], r["reads"]) for name, r in why["records"].items() if name not in leave_out}
    return records, why["verdicts"]


def dyadic_measures(g, seed, lowest):
    """``g`` with measures 2^j, j drawn from [lowest, 0]; lowest = 0 gives unit measure."""
    js = np.random.default_rng(seed).integers(lowest, 1, len(g))
    return dl.DirectedGraph(
        [(g.label(x), 2.0 ** int(j)) for x, j in zip(g.vertex_ids(), js)],
        [(g.label(x), g.label(y), w) for x, y, w in g.iter_edges()],
    )


SINGLE_EDGE = dl.DirectedGraph([("u", 1.0), ("v", 1.0)], [("u", "v", 3.0)])


@settings(deadline=None, max_examples=30)
@given(
    st.builds(
        lambda seed, n, lowest: dyadic_measures(dl.make_random_balanced(n, seed), seed, lowest),
        st.integers(0, 10**6),
        st.integers(3, 14),
        st.integers(-20, 0),
    ),
    st.integers(1, 3),
)
@example(SINGLE_EDGE, 1)
@example(directed_unit_cycle(5), 1)
@example(directed_unit_cycle(5), 5)
def test_every_verdict_reads_its_records(g, radius):
    cert = dl.accretivity_certificate(g, dl.ball(g, 0, radius))
    records, table = cert["why"]["records"], cert["why"]["verdicts"]
    assert table.keys() == cert["verdicts"].keys()
    for verdict, names in table.items():
        if all(name in records for name in names):
            assert cert["verdicts"][verdict] is all(records[name]["ok"] for name in names)
        else:
            assert cert["verdicts"][verdict] is None
    for record in records.values():
        value, bound = record["value"], record["bound"]
        if value is None:
            assert record["margin"] is None
        elif isinstance(value, list):
            assert record["margin"] == [end - bound for end in value]
        else:
            assert record["margin"] == value - bound


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10**6), st.integers(3, 12), st.integers(1, 3), st.booleans())
def test_relabeling_keeps_the_certificate(seed, n, radius, unit):
    g = dl.make_random_balanced(n, seed)
    g = unit_measure_copy(g) if unit else g
    shuffled = rebuilt(g, np.random.default_rng(seed).permutation(len(g)))
    certs = [dl.accretivity_certificate(h, dl.ball(h, h.index("v0"), radius)) for h in (g, shuffled)]
    assert certs[0]["verdicts"] == certs[1]["verdicts"]
    assert why_outcomes(certs[0]) == why_outcomes(certs[1])
    assert certs[0]["sector"]["ok"] == certs[1]["sector"]["ok"]
    assert certs[0]["total_asymmetry"]["trend"] == certs[1]["total_asymmetry"]["trend"]
    a = dl.similarity_to_standard(dl.assemble(g, dl.ball(g, g.index("v0"), radius), "laplacian"))
    tol = 100 * len(a) * np.finfo(float).eps * np.linalg.norm(a)
    assert abs(certs[0]["min_real"] - certs[1]["min_real"]) <= tol


@settings(deadline=None, max_examples=20)
@given(
    st.integers(0, 10**6),
    st.integers(3, 12),
    st.integers(1, 3),
    st.integers(-30, 30),
    st.floats(0.0, 2.0, allow_subnormal=False),
)
def test_verdicts_do_not_change_when_the_weights_scale(seed, n, radius, half_k, h):
    # Even k, so that sqrt(b), and with it the Cheeger constant, scales exactly by 2^(k/2).
    # The sector line 1/2 + (C/8) Re z is not homogeneous, so its verdicts and record are left out.
    k = 2 * half_k
    g = unit_measure_copy(dl.make_random_balanced(n, seed))
    outcomes = []
    for s, graph in ((0, g), (k, rebuilt(g, weight_scale=2.0**k))):
        ball_ = dl.ball(graph, 0, radius)
        cert = dl.accretivity_certificate(graph, ball_)
        verdicts = {key: value for key, value in cert["verdicts"].items() if key != "m_sectorial_supported"}
        bound = dl.cheeger_bound_check(graph, ball_, h * 2.0 ** (s // 2))
        op = dl.assemble(graph, ball_, "laplacian")
        # bound.lambda0 = h^2 / 2M scales by 2^k with h^2; the times 0, 0.5, ..., 2 scale by 2^-k.
        trace = dl.evolve_trace(op, np.eye(op.n)[0], 0.0, 0.5 * 2.0**-s, 5, lambda0=bound.lambda0)
        why = why_outcomes(cert, leave_out=("sector",))
        outcomes.append((verdicts, cert["total_asymmetry"]["trend"], bound.ok, trace["flagged"], why))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("k", [0, 10, 20])
def test_accretivity_threshold_scales_with_the_operator(k):
    # Exactly balanced, so min Re W = 0 and only rounding, which grows with
    # the weights, decides the sign of min_real.
    scaled = rebuilt(dl.make_random_balanced(60, seed=0, density=2), weight_scale=2.0**k)
    radius = int(dl.combinatorial_distance(scaled, 0).max())
    cert = dl.accretivity_certificate(scaled, dl.ball(scaled, 0, radius))
    assert cert["verdicts"]["accretive_truncation"]
