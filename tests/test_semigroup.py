import math
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import dirlap as dl
from dirlap import GraphError, NumericError
from dirlap.cli import _parse_time_grid
from dirlap.graph import _tolerance
from dirlap.operators import KINDS, _similar
from dirlap.semigroup import _norm, _propagator

RNG = np.random.default_rng(4321)


def laplacian_on_ball(g, radius=8, root=0):
    return dl.assemble(g, dl.ball(g, root, radius), "laplacian")


# -- expm_apply ---------------------------------------------------------------


def test_identity_at_time_zero(ladder_sqrt):
    op = laplacian_on_ball(ladder_sqrt)
    v = RNG.standard_normal(op.n)
    out = dl.expm_apply(op, 0.0, v)
    assert np.array_equal(out, v)


def test_scalar_exponential():
    op = dl.TruncatedOperator(np.array([[2.0]]), np.ones(1), "laplacian")
    out = dl.expm_apply(op, 1.0, np.array([1.0]))
    assert out[0] == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_diagonal_decouples():
    d = np.array([0.5, 1.0, 3.0])
    op = dl.TruncatedOperator(np.diag(d), np.ones(3), "laplacian")
    v = np.array([1.0, -2.0, 0.25])
    out = dl.expm_apply(op, 0.7, v)
    assert np.allclose(out, v * np.exp(-0.7 * d), rtol=1e-12)


def test_negative_time_rejected(ladder_sqrt):
    op = laplacian_on_ball(ladder_sqrt)
    with pytest.raises(GraphError):
        dl.expm_apply(op, -0.1, np.zeros(op.n))
    with pytest.raises(GraphError):
        dl.operator_norm_expm(op, -1.0)


def test_semigroup_law(ladder_sqrt):
    op = laplacian_on_ball(ladder_sqrt, radius=6)
    v = RNG.standard_normal(op.n) + 1j * RNG.standard_normal(op.n)
    for s, t in RNG.uniform(0.0, 5.0, size=(5, 2)):
        once = dl.expm_apply(op, s + t, v)
        twice = dl.expm_apply(op, float(s), dl.expm_apply(op, float(t), v))
        scale = dl.weighted_norm(once, op.measure_vector)
        assert dl.weighted_norm(once - twice, op.measure_vector) <= 1e-9 * max(scale, 1.0)


def test_doubled_step_reference(ladder_sqrt):
    op = laplacian_on_ball(ladder_sqrt, radius=6)
    v = RNG.standard_normal(op.n)
    t = 1.3
    coarse = dl.expm_apply(op, t, v)
    fine = v.copy()
    for _ in range(8):
        fine = dl.expm_apply(op, t / 8, fine)
    assert np.linalg.norm(coarse - fine) <= 1e-10 * np.linalg.norm(coarse)


# -- operator norms ---------------------------------------------------------------


def test_norm_one_at_time_zero(ladder_sqrt):
    assert dl.operator_norm_expm(laplacian_on_ball(ladder_sqrt), 0.0) == 1.0


def test_contraction_on_roster(ladder_sqrt, ladder_unit, tree4, random_graphs):
    cases = [
        laplacian_on_ball(ladder_sqrt, 8),
        laplacian_on_ball(ladder_unit, 8),
        laplacian_on_ball(tree4, 3),
        dl.assemble(random_graphs[0], dl.full_ball(random_graphs[0], 0), "laplacian"),
    ]
    for op in cases:
        for t in (0.5, 1.0, 2.0, 5.0):
            assert dl.operator_norm_expm(op, t) <= 1.0 + 1e-9


def test_fast_decay_unit_ladder(ladder_unit):
    op = laplacian_on_ball(ladder_unit, 5)
    for t in (0.5, 1.0, 2.0, 5.0):
        assert dl.operator_norm_expm(op, t) <= math.exp(-t / 6.0) + 1e-9


def test_operator_norm_matches_standard_frame(ladder_sqrt):
    # The norm is read in the weighted frame, D^(1/2) exp(-tA) D^(-1/2);
    # the reference exponentiates the similar matrix S = D^(1/2) A D^(-1/2).
    op = laplacian_on_ball(ladder_sqrt, 8)
    s = dl.similarity_to_standard(op)
    for t in (0.1, 1.0, 5.0):
        expected = np.linalg.norm(scipy.linalg.expm(-t * s), 2)
        assert dl.operator_norm_expm(op, t) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "verdict",
    [
        lambda op: dl.expm_apply(op, 1.0, np.ones(op.n)),
        lambda op: dl.operator_norm_expm(op, 1.0),
        lambda op: dl.positivity_check(op, 1.0),
    ],
    ids=["expm_apply", "operator_norm_expm", "positivity_check"],
)
def test_infinite_propagator_is_a_numeric_failure(verdict):
    op = dl.TruncatedOperator(np.array([[-1000.0]]), np.ones(1), "laplacian")
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        verdict(op)


def test_operator_norm_monotone(ladder_unit):
    op = laplacian_on_ball(ladder_unit, 6)
    norms = [dl.operator_norm_expm(op, t) for t in (0.0, 0.3, 0.9, 2.0, 4.0)]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def largest_singular_value(op, propagator):
    return np.linalg.svd(_similar(propagator, op.measure_vector), compute_uv=False)[0]


@settings(deadline=None, max_examples=20)
@given(
    st.integers(0, 10**6),
    st.integers(3, 12),
    st.integers(1, 3),
    st.sampled_from(KINDS),
    st.floats(0.0, 5.0),
)
def test_norm_matches_the_dense_svd(seed, n, radius, kind, t):
    g = dl.make_random_balanced(n, seed)
    op = dl.assemble(g, dl.ball(g, 0, radius), kind)
    sigma = largest_singular_value(op, _propagator(op, t))
    assert abs(dl.operator_norm_expm(op, t) - sigma) <= _tolerance(op.n, sigma)
    # A grid [0, t] steps I @ exp(-tA), which is exactly the one-shot propagator.
    trace = dl.evolve_trace(op, np.ones(op.n), [0.0, t])
    assert abs(trace.operator_norms[1] - sigma) <= _tolerance(op.n, sigma)


@pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
def test_norm_scales_exactly_with_the_propagator(k):
    # Q^T Q of P 2^k would underflow or overflow without the power-of-two scaling in _norm.
    g = dl.make_ladder(dl.LadderSpec(depth=6, measure_mode="unit"))
    op = laplacian_on_ball(g, 6)
    p = _propagator(op, 0.5)
    scaled = np.ldexp(p, k)
    norm = _norm(op, scaled, 0.5)
    assert norm == math.ldexp(_norm(op, p, 0.5), k)
    sigma = largest_singular_value(op, scaled)
    assert abs(norm - sigma) <= _tolerance(op.n, sigma)
    assert _norm(op, np.zeros_like(p), 0.5) == 0.0


def test_norm_of_a_propagator_near_the_identity():
    # Every eigenvalue of Q^T Q lies within rounding of 1/4 here, where LAPACK's
    # bisection for the top one alone fails; _norm falls back to the full solve.
    g = dl.make_random_balanced(12, 14271)
    op = dl.assemble(g, dl.ball(g, 0, 3), "laplacian")
    sigma = largest_singular_value(op, _propagator(op, 1e-20))
    assert abs(dl.operator_norm_expm(op, 1e-20) - sigma) <= _tolerance(op.n, sigma)


def test_only_the_resolvent_runs_an_svd(ladder_sqrt, monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    op = laplacian_on_ball(ladder_sqrt, 6)
    assert dl.operator_norm_expm(op, 1.0) <= 1.0 + _tolerance(op.n, 1.0)
    assert dl.evolve_trace(op, np.ones(op.n), [0.0, 0.5, 1.0]).ok
    with pytest.raises(AssertionError, match="svd"):
        dl.resolvent_norm(op, 1.0)


# -- resolvent ----------------------------------------------------------------------


def test_resolvent_bound_examples(ladder_sqrt):
    op = laplacian_on_ball(ladder_sqrt)
    assert dl.resolvent_norm(op, 1.0) <= 1.0 + 1e-9
    assert dl.resolvent_norm(op, 2.0 + 5.0j) <= 0.5 + 1e-9


def test_resolvent_zero_operator_exactly_one():
    op = dl.TruncatedOperator(np.zeros((3, 3)), np.ones(3), "laplacian")
    assert dl.resolvent_norm(op, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_resolvent_rejects_left_half_plane(ladder_sqrt):
    op = laplacian_on_ball(ladder_sqrt)
    with pytest.raises(GraphError):
        dl.resolvent_norm(op, -1.0)
    with pytest.raises(GraphError):
        dl.resolvent_norm(op, 1.0j)


def test_resolvent_grid(ladder_sqrt, random_graphs):
    ops = [
        laplacian_on_ball(ladder_sqrt, 8),
        dl.assemble(random_graphs[1], dl.full_ball(random_graphs[1], 0), "laplacian"),
    ]
    for op in ops:
        for re in (0.1, 1.0, 10.0):
            for im in (-10.0, 0.0, 10.0):
                lam = complex(re, im)
                assert dl.resolvent_norm(op, lam) <= 1.0 / re + 1e-9


def test_shifted_norm_lower_bound(ladder_sqrt):
    # ||(A + lam) f|| >= Re(lam) ||f|| on accretive truncations
    op = laplacian_on_ball(ladder_sqrt, 8)
    a = op.matrix.astype(complex)
    for lam in (0.5, 1.0 + 3.0j, 4.0 - 2.0j):
        shifted = a + lam * np.eye(op.n)
        for _ in range(20):
            f = RNG.standard_normal(op.n) + 1j * RNG.standard_normal(op.n)
            lhs = dl.weighted_norm(shifted @ f, op.measure_vector)
            rhs = lam.real * dl.weighted_norm(f, op.measure_vector)
            assert lhs >= rhs * (1.0 - 1e-12)


# -- evolution traces ------------------------------------------------------------------


def test_trace_contraction_only(ladder_unit):
    op = laplacian_on_ball(ladder_unit, 6)
    v0 = np.zeros(op.n)
    v0[0] = 1.0
    trace = dl.evolve_trace(op, v0, [0.0, 0.5, 1.0, 2.0])
    assert trace.ok and trace.flagged == ()
    assert np.all(trace.bounds == 1.0)
    assert all(b <= a + 1e-12 for a, b in zip(trace.state_norms, trace.state_norms[1:]))


def test_trace_flags_overclaimed_rate(ladder_unit):
    op = laplacian_on_ball(ladder_unit, 6)
    v0 = np.zeros(op.n)
    v0[0] = 1.0
    trace = dl.evolve_trace(op, v0, [0.0, 0.5, 1.0, 2.0], lambda0=10.0)
    assert not trace.ok and len(trace.flagged) >= 1
    honest = dl.evolve_trace(op, v0, [0.0, 0.5, 1.0, 2.0], lambda0=1.0 / 6.0)
    assert honest.ok


def test_trace_single_time_zero(ladder_unit):
    op = laplacian_on_ball(ladder_unit, 4)
    trace = dl.evolve_trace(op, np.ones(op.n), [0.0], lambda0=5.0)
    assert trace.ok and trace.operator_norms[0] == 1.0


def per_time_tolerance(op, t):
    """The oracle's slack for a norm <= 1 of exp(-tA): rounding of tA plus rounding of the norm."""
    a_norm = np.linalg.norm(dl.similarity_to_standard(op))
    return _tolerance(op.n, a_norm) * max(1.0, t) + _tolerance(op.n, 1.0)


def assert_matches_per_time(op, v0, trace):
    """Each stepped value agrees with the one propagator the per-time functions form."""
    v0_norm = dl.weighted_norm(v0, op.measure_vector)
    for i, t in enumerate(trace.times):
        tol = per_time_tolerance(op, t)
        assert abs(trace.operator_norms[i] - dl.operator_norm_expm(op, t)) <= tol
        state = dl.weighted_norm(dl.expm_apply(op, t, v0), op.measure_vector)
        assert abs(trace.state_norms[i] - state) <= tol * v0_norm


@pytest.fixture
def expm_calls(monkeypatch):
    """The arguments of every scipy.linalg.expm call made while the test runs."""
    calls = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(a) or expm(a))
    return calls


def test_trace_forms_one_propagator_per_step(ladder_sqrt, ladder_unit, random_graphs, expm_calls):
    ops = [laplacian_on_ball(ladder_sqrt, 6), laplacian_on_ball(ladder_unit, 6)]
    ops += [dl.assemble(g, dl.full_ball(g, 0), "laplacian") for g in random_graphs]
    for times, expected_calls in (([0.0, 0.25, 1.0, 3.0], 3), (np.arange(13) * 0.25, 1)):
        for op in ops:
            v0 = RNG.standard_normal(op.n)
            expm_calls.clear()
            trace = dl.evolve_trace(op, v0, times)
            assert len(expm_calls) == expected_calls
            assert trace.operator_norms[0] == 1.0
            assert trace.state_norms[0] == dl.weighted_norm(v0, op.measure_vector)
            assert_matches_per_time(op, v0, trace)


def test_trace_repeated_times_form_no_extra_propagator(ladder_unit, expm_calls):
    op = laplacian_on_ball(ladder_unit, 6)
    v0 = RNG.standard_normal(op.n)
    once = dl.evolve_trace(op, v0, [0.0, 0.5, 1.0])
    expm_calls.clear()
    repeated = dl.evolve_trace(op, v0, [0.0, 0.5, 0.5, 1.0, 1.0, 1.0])
    assert len(expm_calls) == 1
    for values in ("operator_norms", "state_norms"):
        assert np.array_equal(getattr(repeated, values), getattr(once, values)[[0, 1, 1, 2, 2, 2]])


def test_trace_starting_after_time_zero(ladder_sqrt, expm_calls):
    # The first time is the first step: 0.5, then 0.25 twice and 1.0.
    op = laplacian_on_ball(ladder_sqrt, 6)
    v0 = RNG.standard_normal(op.n)
    trace = dl.evolve_trace(op, v0, [0.5, 0.75, 1.0, 2.0])
    assert len(expm_calls) == 3
    assert_matches_per_time(op, v0, trace)


def test_trace_on_a_non_uniform_grid_frees_each_step(ladder_sqrt, monkeypatch):
    op = laplacian_on_ball(ladder_sqrt, 6)
    v0 = RNG.standard_normal(op.n)
    times = np.sort(RNG.uniform(0.0, 5.0, size=8))
    live = []
    expm = scipy.linalg.expm

    def tracked(a):
        # No step is needed twice, so at most the step just used may still be held.
        assert sum(ref() is not None for ref in live) <= 1
        out = expm(a)
        live.append(weakref.ref(out))
        return out

    monkeypatch.setattr(scipy.linalg, "expm", tracked)
    trace = dl.evolve_trace(op, v0, times)
    assert len(live) == 8
    assert_matches_per_time(op, v0, trace)


def test_trace_on_a_cli_grid_forms_one_propagator_per_distinct_step(ladder_unit, expm_calls):
    times = _parse_time_grid("0:5:0.1")
    assert len(set(np.diff(times).tolist())) == 7
    op = laplacian_on_ball(ladder_unit, 6)
    v0 = RNG.standard_normal(op.n)
    trace = dl.evolve_trace(op, v0, times)
    assert len(expm_calls) == 7
    assert_matches_per_time(op, v0, trace)


def test_long_trace_does_not_drift_past_an_exact_bound(ladder_sqrt):
    # On a symmetric operator the norm of exp(-tA) is exactly exp(-lambda_min t), so
    # every norm sits on its bound and only rounding, growing with the steps, could flag it.
    op = dl.assemble(dl.symmetrize(ladder_sqrt), dl.ball(ladder_sqrt, 0, 10), "laplacian")
    lambda0 = float(np.linalg.eigvalsh(dl.similarity_to_standard(op))[0])
    trace = dl.evolve_trace(op, np.eye(op.n)[0], 0.01 * np.arange(2001), lambda0=lambda0)
    assert trace.flagged == ()


def dyadic_measures(g, exponents):
    """``g`` with the measure of vertex i set to 2^exponents[i]."""
    vertices = [(g.label(x), 2.0 ** int(j)) for x, j in zip(g.vertex_ids(), exponents)]
    edges = [(g.label(x), g.label(y), w) for x, y, w in g.iter_edges()]
    return dl.DirectedGraph(vertices, edges, exact_weights=g.exact_weights)


def random_trace_case(seed, n):
    """A random balanced graph, measure exponents in [-3, 3], a start vector, a grid of uniform and random times, and a rate."""
    rng = np.random.default_rng(seed)
    g = dl.make_random_balanced(n, seed)
    exponents = rng.integers(-3, 4, size=n)
    uniform = rng.uniform(0.0, 1.0) + rng.uniform(0.01, 0.5) * np.arange(rng.integers(1, 12))
    times = np.sort(np.concatenate([uniform, rng.uniform(0.0, 5.0, size=rng.integers(0, 8))]))
    return g, exponents, rng.standard_normal(n), times, rng.uniform(0.0, 1.0)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10**6), st.integers(3, 12), st.integers(1, 3))
def test_stepped_trace_matches_the_dense_propagators(seed, n, radius):
    g, exponents, v, times, _ = random_trace_case(seed, n)
    g = dyadic_measures(g, exponents)
    ball_ = dl.ball(g, 0, radius)
    op = dl.assemble(g, ball_, "laplacian")
    v0 = v[list(ball_.vertices)]
    assert_matches_per_time(op, v0, dl.evolve_trace(op, v0, times))


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10**6), st.integers(3, 12), st.integers(1, 3), st.integers(-6, 4))
def test_trace_scales_exactly_with_the_measures(seed, n, radius, k):
    # L = B / m: measures x4^k scale A by 4^-k, so tA, and every propagator, is unchanged at
    # times x4^k; the weighted state norms scale by 2^k and the bounds exp(-lambda0 t) stay.
    g, exponents, v, times, lambda0 = random_trace_case(seed, n)
    traces = []
    for s in (0, k):
        scaled = dyadic_measures(g, exponents + 2 * s)
        ball_ = dl.ball(scaled, 0, radius)
        op = dl.assemble(scaled, ball_, "laplacian")
        traces.append(dl.evolve_trace(op, v[list(ball_.vertices)], times * 4.0**s, lambda0 * 4.0**-s))
    base, scaled = traces
    assert np.array_equal(scaled.operator_norms, base.operator_norms)
    assert np.array_equal(scaled.state_norms, base.state_norms * 2.0**k)
    assert scaled.flagged == base.flagged


@pytest.mark.parametrize("t", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "verdict",
    [
        lambda op, t: dl.expm_apply(op, t, np.ones(op.n)),
        lambda op, t: dl.operator_norm_expm(op, t),
        lambda op, t: dl.positivity_check(op, t),
        lambda op, t: dl.evolve_trace(op, np.ones(op.n), [0.0, t]),
    ],
    ids=["expm_apply", "operator_norm_expm", "positivity_check", "evolve_trace"],
)
def test_non_finite_times_are_input_errors(ladder_unit, verdict, t):
    with pytest.raises(GraphError, match="finite"):
        verdict(laplacian_on_ball(ladder_unit, 4), t)


@pytest.mark.parametrize("lambda0", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_decay_rate_is_an_input_error(ladder_unit, lambda0):
    op = laplacian_on_ball(ladder_unit, 4)
    with pytest.raises(GraphError, match="finite"):
        dl.evolve_trace(op, np.ones(op.n), [0.0, 0.5, 1.0], lambda0=lambda0)


def test_trace_grid_validation(ladder_unit):
    op = laplacian_on_ball(ladder_unit, 4)
    with pytest.raises(GraphError):
        dl.evolve_trace(op, np.ones(op.n), [])
    with pytest.raises(GraphError):
        dl.evolve_trace(op, np.ones(op.n), [1.0, 0.5])
    with pytest.raises(GraphError):
        dl.evolve_trace(op, np.ones(op.n), [-1.0, 0.5])


# -- positivity -------------------------------------------------------------------------


def test_positivity_two_vertex_closed_form(two_vertex_symmetric):
    op = dl.assemble(two_vertex_symmetric, dl.full_ball(two_vertex_symmetric, 0), "laplacian")
    t = 0.8
    expected = 0.5 * np.array(
        [
            [1.0 + math.exp(-2 * t), 1.0 - math.exp(-2 * t)],
            [1.0 - math.exp(-2 * t), 1.0 + math.exp(-2 * t)],
        ]
    )
    assert np.allclose(scipy.linalg.expm(-t * op.matrix), expected, rtol=1e-12)
    assert dl.positivity_check(op, t)


def test_positivity_roster(ladder_sqrt, tree4):
    assert dl.positivity_check(laplacian_on_ball(ladder_sqrt, 6), 1.0)
    assert dl.positivity_check(laplacian_on_ball(tree4, 3), 1.0)


def test_positivity_time_zero_and_skew(ladder_sqrt):
    op = laplacian_on_ball(ladder_sqrt, 4)
    assert dl.positivity_check(op, 0.0)
    skew = dl.assemble(ladder_sqrt, dl.ball(ladder_sqrt, 0, 4), "skew_part")
    with pytest.raises(GraphError):
        dl.positivity_check(skew, 1.0)


# -- generator consistency ----------------------------------------------------------------


def test_difference_quotient_converges_first_order(ladder_unit):
    op = laplacian_on_ball(ladder_unit, 5)
    v = RNG.standard_normal(op.n)
    av = op.matrix @ v
    errors = []
    for h in (1e-3, 1e-4):
        approx = (v - dl.expm_apply(op, h, v)) / h
        errors.append(np.linalg.norm(approx - av))
    assert errors[1] < errors[0]
    ratio = errors[0] / errors[1]
    assert 5.0 < ratio < 20.0
