import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dirlap as dl
from dirlap import GraphError

from conftest import unit_measure_copy

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
    values = np.abs(np.sum(np.conj(f) * (op.matrix @ f), axis=0))
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


def test_sweep_turns_solver_failures_into_numeric_errors(ladder_sqrt, monkeypatch):
    import scipy.sparse.linalg as sla

    op = dl.assemble(ladder_sqrt, dl.ball(ladder_sqrt, 0, 6), "laplacian")
    splu = sla.splu

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    factored = []

    def first_shift_only(*args, **kwargs):
        # The first shift of the first angle certifies; no lower shift ever
        # does, so inverse iteration cannot certify a support value.
        if factored:
            singular()
        factored.append(True)
        return splu(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(sla, "splu", singular)
        with pytest.raises(dl.NumericError, match="no shift"):
            dl.numrange_boundary(op, 8)
    with monkeypatch.context() as patch:
        patch.setattr(sla, "splu", first_shift_only)
        with pytest.raises(dl.NumericError, match="no certified eigenvalue .* at angle 0.000000"):
            dl.numrange_boundary(op, 8)
    assert_matches_dense_sweep(op, 8)


def rebuilt(g, order=None, weight_scale=1.0, measure_scale=1.0):
    """``g`` with its vertices listed in ``order`` and its weights and measures scaled."""
    order = g.vertex_ids() if order is None else order
    return dl.DirectedGraph(
        [(g.label(int(x)), g.measure(int(x)) * measure_scale) for x in order],
        [(g.label(x), g.label(y), w * weight_scale) for x, y, w in g.iter_edges()],
        exact_weights=g.exact_weights,
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
        verdicts.append(dl.accretivity_certificate(h, ball_).verdicts)
        sample = dl.numrange_boundary(dl.assemble(h, ball_, "laplacian"), 24)
        support.append(np.real(np.exp(1j * sample.angles) * sample.points))
    assert verdicts[0] == verdicts[1]
    a = dl.similarity_to_standard(dl.assemble(h, ball_, "laplacian"))
    tol = 100 * len(a) * np.finfo(float).eps * np.linalg.norm(a, 2)
    assert np.max(np.abs(support[0] - support[1])) <= tol


# -- sector checks -------------------------------------------------------------------


def test_sector_geometry():
    sector = dl.Sector(vertex=-1.0, half_angle=math.atan(0.5))
    assert sector.contains([0.0, 1.0 + 0.99j])
    assert not sector.contains([1.0 + 1.1j])
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
    splu, calls = sla.splu, []

    def counted(*args, **kwargs):
        calls.append(args)
        return splu(*args, **kwargs)

    def second_frame(*args, **kwargs):
        raise AssertionError("check_sector formed a second similarity or eigensolve")

    with monkeypatch.context() as patch:
        patch.setattr(sla, "splu", counted)
        patch.setattr(spectral, "similarity_to_standard", second_frame)
        patch.setattr(np.linalg, "eigvalsh", second_frame)
        _, ok = dl.check_sector(sample, constant)
    assert ok and len(calls) == 1
    monkeypatch.setattr(sla, "splu", counted)
    assert dl.accretivity_certificate(ladder, ball_).sector_ok
    assert len(calls) == 2


def test_check_sector_rejects_negative_constant(two_vertex_symmetric):
    op = dl.assemble(two_vertex_symmetric, dl.full_ball(two_vertex_symmetric, 0), "laplacian")
    sample = dl.numrange_boundary(op, 8)
    with pytest.raises(GraphError):
        dl.check_sector(sample, -1.0)


def test_fit_sector(ladder_sqrt):
    op = dl.assemble(ladder_sqrt, dl.ball(ladder_sqrt, 0, 8), "laplacian")
    sample = dl.numrange_boundary(op, 90)
    sector = dl.fit_sector(sample, vertex=-1.0)
    assert sector.contains(sample.points, slack=1e-12)
    tighter = dl.fit_sector(sample, vertex=-10.0)
    assert tighter.half_angle < sector.half_angle
    with pytest.raises(GraphError):
        dl.fit_sector(sample, vertex=sample.points.real.max() + 1.0)


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
    with pytest.raises(GraphError, match="symmetriz"):
        dl.cheeger_bruteforce(single_edge)
    with pytest.raises(GraphError, match="unit"):
        dl.cheeger_bruteforce(dl.symmetrize(ladder_sqrt))


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
    assert cert.kirchhoff_ok and cert.kirchhoff_max_imbalance == 0.0
    assert cert.asymmetry_constant <= 12.0
    assert cert.total_asymmetry_trend == "growing"
    assert cert.sector_ok
    assert cert.verdicts["m_accretive_supported"]
    assert cert.verdicts["m_sectorial_supported"]
    payload = cert.to_dict()
    assert payload["verdicts"]["m_sectorial_supported"]


def test_certificate_tree(tree4):
    cert = dl.accretivity_certificate(tree4, dl.ball(tree4, 0, 3))
    assert cert.asymmetry_constant == 4.0
    assert cert.total_asymmetry_trend == "bounded"
    assert cert.verdicts["m_accretive_supported"]


def test_certificate_single_edge_negative(single_edge):
    cert = dl.accretivity_certificate(single_edge, dl.ball(single_edge, 0, 1))
    assert not cert.kirchhoff_ok
    assert cert.kirchhoff_max_imbalance == 3.0
    assert cert.kirchhoff_worst_vertex == "u"
    assert not cert.verdicts["m_accretive_supported"]


def test_certificate_forms_one_similarity(ladder_sqrt, monkeypatch):
    import dirlap.spectral as spectral

    calls = []

    def counted(op):
        calls.append(op)
        return dl.similarity_to_standard(op)

    ball_ = dl.ball(ladder_sqrt, 0, 10)
    expected = dl.accretivity_certificate(ladder_sqrt, ball_)
    monkeypatch.setattr(spectral, "similarity_to_standard", counted)
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


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10**6), st.integers(3, 12), st.integers(1, 3), st.booleans())
def test_relabeling_keeps_the_certificate(seed, n, radius, unit):
    g = dl.make_random_balanced(n, seed)
    g = unit_measure_copy(g) if unit else g
    shuffled = rebuilt(g, np.random.default_rng(seed).permutation(len(g)))
    certs = [dl.accretivity_certificate(h, dl.ball(h, h.index("v0"), radius)) for h in (g, shuffled)]
    assert certs[0].verdicts == certs[1].verdicts
    assert certs[0].sector_ok == certs[1].sector_ok
    assert certs[0].total_asymmetry_trend == certs[1].total_asymmetry_trend
    a = dl.similarity_to_standard(dl.assemble(g, dl.ball(g, g.index("v0"), radius), "laplacian"))
    tol = 100 * len(a) * np.finfo(float).eps * np.linalg.norm(a)
    assert abs(certs[0].min_real - certs[1].min_real) <= tol


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
    # The sector line 1/2 + (C/8) Re z is not homogeneous, so its verdicts are left out.
    k = 2 * half_k
    g = unit_measure_copy(dl.make_random_balanced(n, seed))
    outcomes = []
    for s, graph in ((0, g), (k, rebuilt(g, weight_scale=2.0**k))):
        ball_ = dl.ball(graph, 0, radius)
        cert = dl.accretivity_certificate(graph, ball_)
        verdicts = {key: value for key, value in cert.verdicts.items() if key != "m_sectorial_supported"}
        bound = dl.cheeger_bound_check(graph, ball_, h * 2.0 ** (s // 2))
        times = np.array([0.0, 0.5, 1.0, 2.0]) * 2.0**-s
        op = dl.assemble(graph, ball_, "laplacian")
        # bound.lambda0 = h^2 / 2M scales by 2^k with h^2.
        trace = dl.evolve_trace(op, np.eye(op.n)[0], times, lambda0=bound.lambda0)
        outcomes.append((verdicts, cert.total_asymmetry_trend, bound.ok, trace.flagged))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("k", [0, 10, 20])
def test_accretivity_threshold_scales_with_the_operator(k):
    # Exactly balanced, so min Re W = 0 and only rounding, which grows with
    # the weights, decides the sign of min_real.
    scaled = rebuilt(dl.make_random_balanced(60, seed=0, density=2), weight_scale=2.0**k)
    radius = int(dl.combinatorial_distance(scaled, 0).max())
    cert = dl.accretivity_certificate(scaled, dl.ball(scaled, 0, radius))
    assert cert.verdicts["accretive_truncation"]
