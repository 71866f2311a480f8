import math

import numpy as np
import pytest
import scipy.linalg

import dirlap as dl
from dirlap import GraphError, NumericError

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


def test_trace_forms_one_propagator_per_time(ladder_sqrt, ladder_unit, random_graphs, monkeypatch):
    ops = [laplacian_on_ball(ladder_sqrt, 6), laplacian_on_ball(ladder_unit, 6)]
    ops += [dl.assemble(g, dl.full_ball(g, 0), "laplacian") for g in random_graphs]
    times = [0.0, 0.25, 1.0, 3.0]
    calls = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(a) or expm(a))
    for op in ops:
        v0 = RNG.standard_normal(op.n)
        calls.clear()
        trace = dl.evolve_trace(op, v0, times)
        assert len(calls) == 3
        for i, t in enumerate(times):
            assert trace.operator_norms[i] == dl.operator_norm_expm(op, t)
            state = dl.expm_apply(op, t, v0)
            assert trace.state_norms[i] == dl.weighted_norm(state, op.measure_vector)


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
