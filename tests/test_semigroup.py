import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dirlap as dl
from dirlap import GraphError, NumericError, semigroup
from dirlap.cli import _parse_time_grid, main
from dirlap.graph import _EPS, _tolerance
from dirlap.operators import KINDS
from dirlap.semigroup import (
    _SKETCH,
    _THETA13,
    _band_product,
    _band_sum,
    _column_sums,
    _dense,
    _largest_singular_value,
    _propagator,
    _range_basis,
)

from conftest import weighted_norm

RNG = np.random.default_rng(4321)


def laplacian_on_ball(g, radius=8, root=0):
    return dl.assemble(g, dl.ball(g, root, radius), "laplacian")


def standard(op, matrix):
    """D^(1/2) M D^(-1/2), D = diag(m): ``matrix``, acting on the ball, in the frame of a = D^(1/2) A D^(-1/2)."""
    d = np.sqrt(op.measure_vector)
    return matrix * d[:, None] / d[None, :]


def reference_propagator(op, t):
    """exp(-ta) = D^(1/2) exp(-tA) D^(-1/2), from scipy's exponential of the original matrix."""
    return standard(op, scipy.linalg.expm(-t * op.dense()))


# -- the propagator exp(-ta) -------------------------------------------------


def test_identity_at_time_zero(ladder_sqrt):
    op = laplacian_on_ball(ladder_sqrt)
    v = RNG.standard_normal(op.n)
    out = _propagator(op, 0.0) @ v
    assert np.array_equal(out, v)


def test_scalar_exponential():
    op = dl.TruncatedOperator(np.array([[2.0]]), np.ones(1), "laplacian")
    out = _propagator(op, 1.0) @ np.array([1.0])
    assert out[0] == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_diagonal_decouples():
    d = np.array([0.5, 1.0, 3.0])
    op = dl.TruncatedOperator(np.diag(d), np.ones(3), "laplacian")
    v = np.array([1.0, -2.0, 0.25])
    out = _propagator(op, 0.7) @ v
    assert np.allclose(out, v * np.exp(-0.7 * d), rtol=1e-12)


def test_negative_time_rejected(ladder_sqrt):
    op = laplacian_on_ball(ladder_sqrt)
    with pytest.raises(GraphError):
        _propagator(op, -0.1)
    with pytest.raises(GraphError):
        dl.operator_norm_expm(op, -1.0)


def test_semigroup_law(ladder_sqrt):
    op = laplacian_on_ball(ladder_sqrt, radius=6)
    v = RNG.standard_normal(op.n) + 1j * RNG.standard_normal(op.n)
    for s, t in RNG.uniform(0.0, 5.0, size=(5, 2)):
        once = _propagator(op, s + t) @ v
        twice = _propagator(op, float(s)) @ (_propagator(op, float(t)) @ v)
        assert np.linalg.norm(once - twice) <= 1e-9 * max(np.linalg.norm(once), 1.0)


def test_doubled_step_reference(ladder_sqrt):
    op = laplacian_on_ball(ladder_sqrt, radius=6)
    v = RNG.standard_normal(op.n)
    t = 1.3
    coarse = _propagator(op, t) @ v
    fine = v.copy()
    for _ in range(8):
        fine = _propagator(op, t / 8) @ fine
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
    # The norm is sigma_1 of exp(-ta), a = D^(1/2) A D^(-1/2); the reference moves scipy's
    # exp(-tA) into that frame, D^(1/2) exp(-tA) D^(-1/2).
    op = laplacian_on_ball(ladder_sqrt, 8)
    for t in (0.1, 1.0, 5.0):
        expected = np.linalg.norm(reference_propagator(op, t), 2)
        assert dl.operator_norm_expm(op, t) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "verdict",
    [
        lambda op: dl.operator_norm_expm(op, 1.0),
    ],
    ids=["operator_norm_expm"],
)
def test_infinite_propagator_is_a_numeric_failure(verdict):
    op = dl.TruncatedOperator(np.array([[-1000.0]]), np.ones(1), "laplacian")
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        verdict(op)


def test_operator_norm_monotone(ladder_unit):
    op = laplacian_on_ball(ladder_unit, 6)
    norms = [dl.operator_norm_expm(op, t) for t in (0.0, 0.3, 0.9, 2.0, 4.0)]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def largest_singular_value(propagator):
    """sigma_1 of a propagator in the frame of a, from the dense SVD: the weighted norm of exp(-tA)."""
    return np.linalg.svd(propagator, compute_uv=False)[0]


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
    sigma = largest_singular_value(_propagator(op, t))
    assert abs(dl.operator_norm_expm(op, t) - sigma) <= _tolerance(op.n, sigma)
    # A grid of the one time t forms exactly the one-shot propagator.
    trace = dl.evolve_trace(op, np.ones(op.n), t, 1.0, 1)
    assert abs(trace["operator_norms"][0] - sigma) <= _tolerance(op.n, sigma)


@pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
def test_norm_scales_exactly_with_the_propagator(k):
    # Q^T Q of P 2^k would underflow or overflow without the power-of-two scaling in
    # _largest_singular_value.
    g = dl.make_ladder(dl.LadderSpec(depth=6, measure_mode="unit"))
    op = laplacian_on_ball(g, 6)
    p = _propagator(op, 0.5)
    scaled = np.ldexp(p, k)

    def norm(propagator):
        return _largest_singular_value(propagator, "exp(-0.5 A)")

    assert norm(scaled) == math.ldexp(norm(p), k)
    sigma = largest_singular_value(scaled)
    assert abs(norm(scaled) - sigma) <= _tolerance(op.n, sigma)
    assert norm(np.zeros_like(p)) == 0.0


def test_norm_of_a_propagator_near_the_identity(monkeypatch):
    # Every eigenvalue of Q^T Q lies within rounding of 1/4 here. LAPACK's bisection for
    # the top one alone fails on such a matrix; the full solve (driver="ev") does not.
    # On the grid the first step keeps all n singular values, so its Gram matrix does too.
    g = dl.make_random_balanced(12, 14271)
    op = dl.assemble(g, dl.ball(g, 0, 3), "laplacian")
    drivers = []
    eigvalsh = scipy.linalg.eigvalsh
    monkeypatch.setattr(
        scipy.linalg, "eigvalsh", lambda a, **kw: drivers.append(kw.get("driver")) or eigvalsh(a, **kw)
    )
    trace = dl.evolve_trace(op, np.ones(op.n), 0.0, 1e-20, 3)
    assert "ev" in drivers
    assert trace["times"] == [0.0, 1e-20, 2e-20]
    for t, norm in zip(trace["times"], trace["operator_norms"]):
        sigma = largest_singular_value(_propagator(op, t))
        assert abs(dl.operator_norm_expm(op, t) - sigma) <= _tolerance(op.n, sigma)
        assert abs(norm - sigma) <= _tolerance(op.n, sigma)


def test_svd_calls_per_verdict(ladder_sqrt, monkeypatch):
    # Single times read a Gram matrix; sigma_min of the resolvent needs the SVD. A grid runs
    # SVDs on its first nonzero step only: below 2 _SKETCH rows the full SVD. Above, a sketch
    # of _SKETCH columns runs one with _SKETCH rows, which splits B = U^T Q (QR orthonormalizes
    # the sketch). A heat step stops there, with no SVD of n rows; a full-rank step then runs
    # the full SVD.
    shapes = []
    for module in (np.linalg, scipy.linalg):
        svd = module.svd
        monkeypatch.setattr(module, "svd", lambda a, *args, svd=svd, **kw: shapes.append(np.shape(a)) or svd(a, *args, **kw))

    def svd_shapes(verdict):
        shapes.clear()
        verdict()
        return list(shapes)

    op = laplacian_on_ball(ladder_sqrt, 6)
    v0 = np.ones(op.n)
    assert svd_shapes(lambda: dl.operator_norm_expm(op, 1.0)) == []
    assert svd_shapes(lambda: dl.positivity_check(op, 1.0)) == []
    assert svd_shapes(lambda: dl.resolvent_norm(op, 1.0)) == [(op.n, op.n)]
    assert svd_shapes(lambda: dl.evolve_trace(op, v0, 0.0, 0.25, 13)) == [(op.n, op.n)]
    assert svd_shapes(lambda: dl.evolve_trace(op, v0, 0.0, 0.5, 3)) == [(op.n, op.n)]
    assert svd_shapes(lambda: dl.evolve_trace(op, v0, 0.0, 1.0, 1)) == []

    g = dl.make_ladder(dl.LadderSpec(depth=50, measure_mode="unit"))
    heat, skew = (dl.assemble(g, dl.ball(g, 0, 49), kind) for kind in ("laplacian", "skew_part"))
    assert heat.n == 99
    v0 = np.ones(heat.n)
    for grid in ((0.0, 0.25, 13), (0.0, 0.5, 3)):
        assert svd_shapes(lambda: dl.evolve_trace(heat, v0, *grid)) == [(_SKETCH, heat.n)]
    sketch_then_full = [(_SKETCH, skew.n), (skew.n, skew.n)]
    assert svd_shapes(lambda: dl.evolve_trace(skew, v0, 0.0, 0.25, 13)) == sketch_then_full


def test_one_shot_rounding_grows_with_the_norm_of_tA():
    # The skew part generates rotations, so the norm of exp(-tK) is exactly 1. One
    # scaling-and-squaring of tK rounds in proportion to ||K|| t: here the one-shot norm is
    # 1 + 1.5e-13, over the grid's slack _tolerance(n, 1) = 1.1e-13. The stepped grid
    # composes 71 steps of ||K|| h = 0.22 and stays within that slack.
    g = dl.make_random_balanced(9, 0)
    op = dl.assemble(g, dl.ball(g, 0, 1), "skew_part")
    assert op.n == 5
    norm_k = float(np.linalg.norm(dl.similarity_to_standard(op), 2))
    t = 4.4375
    assert abs(dl.operator_norm_expm(op, t) - 1.0) <= _tolerance(op.n, norm_k * t)
    trace = dl.evolve_trace(op, np.ones(op.n), 0.0, 0.0625, 72)
    assert trace["times"][-1] == t
    assert np.all(np.abs(np.asarray(trace["operator_norms"]) - 1.0) <= _tolerance(op.n, 1.0))


# -- the banded Pade path ------------------------------------------------------------


def band_width(op):
    return int(np.abs(op._entry_rows() - op.indices).max(initial=0))


def one_norm(op):
    """||a||_1, the largest column sum of |D^(1/2) A D^(-1/2)|, which the propagator's dispatch reads."""
    return float(np.abs(standard(op, op.dense())).sum(axis=0).max())


def benchmark_ladder(measure="unit"):
    """The 299-row ladder of the ``evolve`` benchmark, pentadiagonal, on the banded path at t = 0.25."""
    return laplacian_on_ball(dl.make_ladder(dl.LadderSpec(depth=150, measure_mode=measure)), 149)


def diagonals(m, w):
    """The band of width w of m, stored by diagonals: row w + d holds m[i, i + d] in column i."""
    n = len(m)
    band = np.zeros((2 * w + 1, n))
    for d in range(-w, w + 1):
        band[w + d, max(0, -d) : n - max(0, d)] = np.diagonal(m, d)
    return band


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("w", [0, 1, 2, "n - 1"])
def test_band_product_matches_the_dense_product(n, w):
    # Small integers keep every product and sum exact, so any entry the diagonals miss shows.
    w = n - 1 if w == "n - 1" else min(w, n - 1)
    rng = np.random.default_rng(n + w)
    band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= w
    x, y = (np.where(band, rng.integers(-3, 4, (n, n)), 0).astype(float) for _ in range(2))
    product = _band_product(diagonals(x, w), diagonals(y, w))
    assert product.shape == (4 * w + 1, n)
    assert np.array_equal(_dense(product), x @ y)
    assert np.array_equal(_column_sums(product), (x @ y).sum(axis=0))
    combination = _band_sum(3.0, (2.0, diagonals(x, w)), (-1.0, product))
    assert np.array_equal(_dense(combination), 3 * np.eye(n) + 2 * x - x @ y)


def test_propagator_takes_the_band_only_where_a_squaring_follows(monkeypatch):
    # The benchmark ladder (w = 2 of 299 rows) at t = 0.25 takes the band; a step too short to
    # square, and a random graph's wide band, take scipy.linalg.expm of D^(1/2) A D^(-1/2), whose
    # output is unchanged.
    calls = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(len(a)) or expm(a))
    ladder = benchmark_ladder()
    g = dl.make_random_balanced(300, 0, 2.0)
    wide = dl.assemble(g, dl.ball(g, 0, int(dl.combinatorial_distance(g, 0).max()) - 1), "laplacian")
    assert (ladder.n, band_width(ladder)) == (299, 2) and 13 * band_width(wide) >= wide.n - 1
    for op, t, expected_calls in ((ladder, 0.25, 0), (ladder, 1e-12, 1), (wide, 0.25, 1), (wide, 1e-12, 1)):
        calls.clear()
        p = _propagator(op, t)
        assert len(calls) == expected_calls
        if expected_calls:
            assert np.array_equal(p, expm(-t * standard(op, op.dense())))


@settings(deadline=None, max_examples=20)
@given(
    st.integers(15, 40),
    st.sampled_from(["unit", "sqrt_n"]),
    st.sampled_from(KINDS),
    st.one_of(st.none(), st.integers(-12, 0)),
    st.floats(_THETA13 * (1 + 1e-9), 1e5),
    st.integers(0, 10**6),
)
# Just above 2^k theta_13, where ||ta||_1 asks for k + 1 squarings and the scaling rule takes k: 4, and none.
@example(depth=20, measure="unit", kind="laplacian", lowest=None, norm_t=16 * _THETA13 * (1 + 1e-9), seed=0)
@example(depth=20, measure="sqrt_n", kind="skew_part", lowest=None, norm_t=_THETA13 * (1 + 1e-9), seed=0)
# Long enough to square the powers in row windows: 4 of 11 squarings at 159 rows, 6 or 7 of 11 at 299.
@example(depth=80, measure="unit", kind="laplacian", lowest=None, norm_t=1e4, seed=0)
@example(depth=80, measure="sqrt_n", kind="laplacian", lowest=None, norm_t=1e4, seed=0)
@example(depth=150, measure="unit", kind="laplacian", lowest=None, norm_t=1e4, seed=0)
@example(depth=150, measure="sqrt_n", kind="laplacian", lowest=None, norm_t=1e4, seed=0)
# Measures 2^j down to 2^-16, where the frames of A and a differ most.
@example(depth=40, measure="unit", kind="laplacian", lowest=-16, norm_t=1e4, seed=0)
def test_banded_propagator_matches_scipy(depth, measure, kind, lowest, norm_t, seed):
    # Ladders are pentadiagonal, so n >= 29 rows take the band once ||ta||_1 > theta_13. None
    # keeps the ladder's own measures; else they are 2^j, j in [lowest, 0].
    g = dl.make_ladder(dl.LadderSpec(depth=depth, measure_mode=measure))
    if lowest is not None:
        g = spread_measures(g, seed, lowest)
    op = dl.assemble(g, dl.ball(g, 0, depth - 1), kind)
    assert 13 * band_width(op) < op.n - 1
    t = norm_t / one_norm(op)
    reference = reference_propagator(op, t)
    tol = per_time_tolerance(op, t)
    assert abs(dl.operator_norm_expm(op, t) - largest_singular_value(reference)) <= tol
    v = np.random.default_rng(seed).standard_normal(op.n)
    assert np.linalg.norm(_propagator(op, t) @ v - reference @ v) <= tol * np.linalg.norm(v)


@pytest.mark.parametrize(
    "diagonal, t",
    [(-1000.0, 1.0), (1e300, 1e10)],
    ids=["exp(-tA) overflows", "||tA||_1 overflows"],
)
def test_banded_propagator_non_finite_is_a_numeric_failure(diagonal, t):
    op = dl.TruncatedOperator(np.diag(np.full(30, diagonal)), np.ones(30), "laplacian")
    assert band_width(op) == 0
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        _propagator(op, t)


def counted_squarings(monkeypatch):
    """The input of every squaring of the banded Pade step, copied, while the test runs."""
    inputs = []
    square = semigroup._square
    monkeypatch.setattr(semigroup, "_square", lambda p, out: inputs.append(p.copy()) or square(p, out))
    return inputs


@pytest.mark.parametrize("measure, one_norm_count, count", [("unit", 13, 12), ("sqrt_n", 9, 9)])
def test_scaling_rule_squares_as_the_powers_of_the_step_require(monkeypatch, measure, one_norm_count, count):
    # ||ta||_1 = 22126.5 asks the unit ladder for 13 squarings, but min(max(d6, d8), max(d8, d10)) =
    # 2.611 * 2^13 needs 12; on the sqrt ladder both give 9. The ell term adds none to either.
    op = benchmark_ladder(measure)
    assert math.ceil(math.log2(0.25 * one_norm(op) / _THETA13)) == one_norm_count
    inputs = counted_squarings(monkeypatch)
    _propagator(op, 0.25)
    assert len(inputs) == count


def square_windows(p):
    """Per block of ``_SQUARE_ROWS`` rows, the columns [c0, c1) where ``_square`` may leave p @ p nonzero."""
    n, rows = len(p), semigroup._SQUARE_ROWS
    kept = ~(np.abs(p) < 0.5 * _EPS * np.abs(np.diag(p)).max() / n)
    blocks = [(r0, min(r0 + rows, n)) for r0 in range(0, n, rows)]
    windows = []
    for r0, r1 in blocks:
        columns = np.flatnonzero(kept[r0:r1].any(axis=0))
        windows.append((min(r0, columns.min(initial=n)), max(r1, columns.max(initial=-1) + 1)))
    return [
        (r0, r1, min(lo for (b0, b1), (lo, _) in zip(blocks, windows) if b0 < m1 and m0 < b1),
         max(hi for (b0, b1), (_, hi) in zip(blocks, windows) if b0 < m1 and m0 < b1))
        for (r0, r1), (m0, m1) in zip(blocks, windows)
    ]


def test_squaring_drops_only_entries_below_the_cut(monkeypatch):
    # The benchmark ladder's 12 squarings: the first 7 are windowed, and each lies within
    # 2 u ||P||_1^2 of the dense product and is exactly zero outside its windows. The last 5,
    # whose windows cover more than _SQUARE_SHARE of P or whose corners are not below the cut,
    # are np.matmul's bit for bit.
    square = semigroup._square
    inputs = counted_squarings(monkeypatch)
    _propagator(benchmark_ladder(), 0.25)
    results = [square(p, np.full_like(p, np.nan)) for p in inputs]
    assert [np.array_equal(out, p @ p) for p, out in zip(inputs, results)] == [False] * 7 + [True] * 5
    for p, out in zip(inputs, results):
        one = np.abs(p).sum(axis=0).max()
        assert np.abs(out - p @ p).sum(axis=0).max() <= 2 * (_EPS / 2) * one**2
    for p, out in zip(inputs[:7], results):
        windows = square_windows(p)
        assert sum((r1 - r0) * (c0 + len(p) - c1) for r0, r1, c0, c1 in windows) > 0
        for r0, r1, c0, c1 in windows:
            assert not out[r0:r1, :c0].any() and not out[r0:r1, c1:].any()
    # The last input takes the corner gate: its result is among the bit-for-bit ones above.
    corner = inputs[-1]
    assert max(abs(corner[0, -1]), abs(corner[-1, 0])) >= 0.5 * _EPS * np.abs(np.diag(corner)).max() / len(corner)


def test_a_nan_far_off_the_band_is_a_numeric_failure(monkeypatch, capsys):
    # A NaN 240 diagonals off the band of the benchmark ladder's Pade factor must reach the result,
    # not be windowed away with the entries below the cut.
    solve = scipy.linalg.solve_banded

    def poisoned(*args, **kwargs):
        p = solve(*args, **kwargs)
        p[10, 250] = np.nan
        return p

    monkeypatch.setattr(scipy.linalg, "solve_banded", poisoned)
    with pytest.raises(NumericError, match="non-finite"):
        _propagator(benchmark_ladder(), 0.25)
    assert main(["evolve", "--gen", "ladder", "--N", "150", "--measure", "unit", "--t", "0:1:0.25"]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("dirlap: numeric failure: ")


def test_a_failed_banded_lu_is_a_numeric_failure(monkeypatch, capsys):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(scipy.linalg, "solve_banded", singular)
    with pytest.raises(NumericError, match="Pade step"):
        _propagator(benchmark_ladder(), 0.25)
    assert main(["evolve", "--gen", "ladder", "--N", "150", "--measure", "unit", "--t", "0:1:0.25"]) == 3
    assert capsys.readouterr().err.startswith("dirlap: numeric failure: ")


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
    a = op.dense().astype(complex)
    for lam in (0.5, 1.0 + 3.0j, 4.0 - 2.0j):
        shifted = a + lam * np.eye(op.n)
        for _ in range(20):
            f = RNG.standard_normal(op.n) + 1j * RNG.standard_normal(op.n)
            lhs = weighted_norm(shifted @ f, op.measure_vector)
            rhs = lam.real * weighted_norm(f, op.measure_vector)
            assert lhs >= rhs * (1.0 - 1e-12)


# -- evolution traces ------------------------------------------------------------------


def test_trace_contraction_only(ladder_unit):
    op = laplacian_on_ball(ladder_unit, 6)
    v0 = np.zeros(op.n)
    v0[0] = 1.0
    trace = dl.evolve_trace(op, v0, 0.0, 0.5, 5)
    assert trace["ok"] and trace["flagged"] == []
    assert np.all(np.asarray(trace["bounds"]) == 1.0)
    assert all(b <= a + 1e-12 for a, b in zip(trace["state_norms"], trace["state_norms"][1:]))


def test_trace_flags_overclaimed_rate(ladder_unit):
    op = laplacian_on_ball(ladder_unit, 6)
    v0 = np.zeros(op.n)
    v0[0] = 1.0
    trace = dl.evolve_trace(op, v0, 0.0, 0.5, 5, lambda0=10.0)
    assert not trace["ok"] and len(trace["flagged"]) >= 1
    honest = dl.evolve_trace(op, v0, 0.0, 0.5, 5, lambda0=1.0 / 6.0)
    assert honest["ok"]


def test_trace_single_time_zero(ladder_unit):
    op = laplacian_on_ball(ladder_unit, 4)
    trace = dl.evolve_trace(op, np.ones(op.n), 0.0, 1.0, 1, lambda0=5.0)
    assert trace["ok"] and trace["operator_norms"][0] == 1.0


def per_time_tolerance(op, t):
    """The oracle's slack for a norm <= 1 of exp(-tA): rounding of tA plus rounding of the norm."""
    a_norm = np.linalg.norm(dl.similarity_to_standard(op))
    return _tolerance(op.n, a_norm) * max(1.0, t) + _tolerance(op.n, 1.0)


def assert_matches_per_time(op, v0, trace):
    """Each stepped value agrees with the one reference propagator D^(1/2) exp(-tA) D^(-1/2) of its time."""
    u0 = np.sqrt(op.measure_vector) * v0
    for i, t in enumerate(trace["times"]):
        tol = per_time_tolerance(op, t)
        reference = reference_propagator(op, t)
        assert abs(trace["operator_norms"][i] - largest_singular_value(reference)) <= tol
        assert abs(trace["state_norms"][i] - np.linalg.norm(reference @ u0)) <= tol * np.linalg.norm(u0)


@pytest.fixture
def expm_calls(monkeypatch):
    """The time t of every exp(-tA), t > 0, formed while the test runs; both of its paths go through _propagator."""
    calls = []
    propagator = semigroup._propagator

    def counted(op, t):
        if t > 0:
            calls.append(t)
        return propagator(op, t)

    monkeypatch.setattr(semigroup, "_propagator", counted)
    return calls


def test_trace_forms_one_propagator_per_step(ladder_sqrt, ladder_unit, random_graphs, expm_calls):
    ops = [laplacian_on_ball(ladder_sqrt, 6), laplacian_on_ball(ladder_unit, 6)]
    ops += [dl.assemble(g, dl.full_ball(g, 0), "laplacian") for g in random_graphs]
    for grid in ((0.0, 0.75, 5), (0.0, 0.25, 13)):
        for op in ops:
            v0 = RNG.standard_normal(op.n)
            expm_calls.clear()
            trace = dl.evolve_trace(op, v0, *grid)
            assert len(expm_calls) == 1
            assert trace["operator_norms"][0] == 1.0
            assert trace["state_norms"][0] == math.sqrt(np.sum((np.sqrt(op.measure_vector) * v0) ** 2))
            assert_matches_per_time(op, v0, trace)


def test_trace_starting_after_time_zero(ladder_sqrt, expm_calls):
    # The first time is the first step, 0.5; six steps of 0.25 follow.
    op = laplacian_on_ball(ladder_sqrt, 6)
    v0 = RNG.standard_normal(op.n)
    trace = dl.evolve_trace(op, v0, 0.5, 0.25, 7)
    assert expm_calls == [0.5, 0.25]
    assert trace["times"] == [0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
    assert_matches_per_time(op, v0, trace)


def test_trace_on_a_cli_grid_forms_one_propagator_per_distinct_step(ladder_unit, expm_calls):
    # The 51 float times of 0:5:0.1 differ by 7 distinct floats; the trace steps them all by
    # exp(-0.1 A), and reports the times the CLI grid names.
    op = laplacian_on_ball(ladder_unit, 6)
    v0 = RNG.standard_normal(op.n)
    for grid, calls in (("0:5:0.1", [0.1]), ("1:5:0.3", [1.0, 0.3])):
        start, step, count = _parse_time_grid(grid)
        expm_calls.clear()
        trace = dl.evolve_trace(op, v0, start, step, count)
        assert expm_calls == calls
        assert trace["times"] == (start + step * np.arange(count)).tolist()
        assert_matches_per_time(op, v0, trace)


def test_long_trace_does_not_drift_past_an_exact_bound(ladder_sqrt):
    # On a symmetric operator the norm of exp(-tA) is exactly exp(-lambda_min t), so
    # every norm sits on its bound and only rounding, growing with the steps, could flag it.
    op = dl.assemble(dl.symmetrize(ladder_sqrt), dl.ball(ladder_sqrt, 0, 10), "laplacian")
    lambda0 = float(np.linalg.eigvalsh(dl.similarity_to_standard(op))[0])
    trace = dl.evolve_trace(op, np.eye(op.n)[0], 0.0, 0.01, 2001, lambda0=lambda0)
    assert trace["flagged"] == []


@pytest.mark.parametrize("seed", range(6))
def test_long_rotation_does_not_drift_past_one(seed):
    # The skew part generates rotations: every norm is exactly 1, and its first step has full
    # rank. Stepping W^T Q_h W, with W orthonormal only to rounding, drifted past the slack
    # on 5 of these 6 grids of 1000 steps; stepping exp(-hA) itself stays below a fifth of it.
    g = dl.make_random_balanced(12, seed)
    op = dl.assemble(g, dl.ball(g, 0, 2), "skew_part")
    trace = dl.evolve_trace(op, np.ones(op.n), 0.0, 0.0625, 1001)
    assert trace["ok"]
    assert np.all(np.abs(np.asarray(trace["operator_norms"]) - 1.0) <= _tolerance(op.n, 1.0) / 5)


def dyadic_measures(g, exponents):
    """``g`` with the measure of vertex i set to 2^exponents[i]."""
    vertices = [(g.label(x), 2.0 ** int(j)) for x, j in zip(g.vertex_ids(), exponents)]
    edges = [(g.label(x), g.label(y), w) for x, y, w in g.iter_edges()]
    return dl.DirectedGraph(vertices, edges)


def spread_measures(g, seed, lowest):
    """``g`` with random measures 2^j, j in [lowest, 0]: a wider spread of A's spectrum, so heat steps of lower rank."""
    return dyadic_measures(g, np.random.default_rng(seed).integers(lowest, 1, size=len(g.vertex_ids())))


@settings(deadline=None, max_examples=40)
@given(
    st.integers(0, 10**6),
    st.integers(3, 200),
    st.integers(1, 8),
    st.sampled_from(KINDS),
    st.one_of(st.just(1e-12), st.floats(0.01, 2.0)),
    st.integers(-30, 0),
)
# sigma_1 = 1.6e-308, subnormal: the cut n eps sigma_1 is formed on the step scaled to unit size.
@example(seed=150, n=100, radius=1, kind="laplacian", h=0.05078125, lowest=-26)
def test_range_basis_drops_at_most_n_eps_sigma_1(seed, n, radius, kind, h, lowest):
    # Sketched (rank below n / 2) and full-SVD bases, r = n included (steps of 1e-12, the skew
    # part). The slack beyond n eps sigma_1 is rounding: W's departure from orthonormality,
    # ~r eps sigma_1 for forming (I - W W^T) Q, and ~eps sigma_1 for the dense SVD.
    g = spread_measures(dl.make_random_balanced(n, seed), seed, lowest)
    op = dl.assemble(g, dl.ball(g, 0, radius), kind)
    assert_range_certificate(_propagator(op, h), h)


def assert_range_certificate(q, h):
    """``_range_basis`` of the step ``q`` drops at most n eps sigma_1, up to the rounding of checking it."""
    n = len(q)
    w, sigma = _range_basis(q, h)
    r = len(sigma)
    reference = np.linalg.svd(q, compute_uv=False)
    assert w.shape == (n, r)
    departure = np.linalg.norm(w.T @ w - np.eye(r), 2) if r else 0.0
    assert departure <= _tolerance(n, 1.0)
    leak = np.linalg.svd(q - w @ (w.T @ q), compute_uv=False)[0]
    assert leak <= ((n + r + 1) * _EPS + departure) * reference[0]
    assert np.all(np.abs(sigma - reference[:r]) <= _tolerance(n, reference[0]))
    return sigma


def test_range_basis_doubles_a_sketch_whose_tail_is_already_below_the_cut(monkeypatch):
    # One singular value 1, a tail from n eps / 4 down to n eps / 8, and 20 zeros. The first sketch
    # keeps 31 of the tail's 179 values, so its residual is above n eps / 2 while its last singular
    # value is below it: no extrapolation applies, and k doubles to 64 for a second sketch, then
    # to 128, where 2k >= n takes the full SVD.
    n = 200
    tail = np.linspace(n * _EPS / 4, n * _EPS / 8, n - 21)
    shapes = []

    def svd(matrix, t):
        shapes.append(matrix.shape)
        return scipy.linalg.svd(matrix, full_matrices=False, check_finite=False)

    monkeypatch.setattr(semigroup, "_svd", svd)
    sigma = assert_range_certificate(np.diag(np.concatenate([[1.0], tail, np.zeros(20)])), 1.0)
    assert sigma.tolist() == [1.0]
    sketches = [rows for rows, cols in shapes if cols == n and rows < n]
    assert sketches == [_SKETCH, 2 * _SKETCH] and shapes[-1] == (n, n)


def test_range_basis_takes_the_full_svd_after_a_sketch_without_decay(monkeypatch):
    # Q = I: every singular value of the first sketch B = U^T is 1, far above the cut, so no rank
    # can be extrapolated and k goes straight to n. Rounding leaves the sorted tail a few eps below
    # the middle, so the patched SVD ties the sketch's values at 1, as exact arithmetic would.
    n = 200
    shapes = []

    def svd(matrix, t):
        shapes.append(matrix.shape)
        u, s, vt = scipy.linalg.svd(matrix, full_matrices=False, check_finite=False)
        return u, (np.ones_like(s) if len(matrix) < n else s), vt

    monkeypatch.setattr(semigroup, "_svd", svd)
    sigma = assert_range_certificate(np.eye(n), 1.0)
    assert sigma.tolist() == [1.0] * n
    assert shapes == [(_SKETCH, n), (n, n)]


@pytest.mark.parametrize("n", [100, 10], ids=["sketch", "full-svd"])
def test_a_subnormal_first_step_is_traced_and_an_underflowed_one_is_zero(n):
    # exp(-t I) = e^-t I: at t = 720 and 730 sigma_1 is subnormal, and at 700 it is 9.9e-305; the
    # range basis scales the step to unit size, so its cut n eps sigma_1 does not underflow. At 800
    # the step is exactly zero (r = 0).
    op = dl.TruncatedOperator(np.eye(n), np.ones(n), "laplacian")
    for t in (700.0, 720.0, 730.0):
        norms = dl.evolve_trace(op, np.ones(n), 0.0, t, 2)["operator_norms"]
        assert norms[0] == 1.0 and norms[1] == pytest.approx(math.exp(-t), rel=_tolerance(n, 1.0))
    trace = dl.evolve_trace(op, np.ones(n), 0.0, 800.0, 2)
    assert trace["operator_norms"] == [1.0, 0.0] and trace["ok"]


@settings(deadline=None, max_examples=20)
@given(
    st.integers(0, 10**6),
    st.integers(20, 150),
    st.integers(1, 8),
    st.sampled_from(KINDS),
    st.integers(-12, 0),
    st.floats(0.25, 2.0),
    st.booleans(),
    st.sampled_from([0.1, 0.25, None]),
    st.integers(3, 13),
)
# r = 17 of 87 rows at t = 2 and 23 at t = 1, and the norm decays: W^T Q_h W steps 12 and 11 times, from each start.
@example(seed=0, n=100, radius=3, kind="laplacian", lowest=-12, first=2.0, from_zero=False, step=0.25, count=13)
@example(seed=0, n=100, radius=3, kind="laplacian", lowest=-12, first=1.0, from_zero=True, step=None, count=13)
def test_trace_in_the_range_of_the_first_step_matches_the_dense_reference(
    seed, n, radius, kind, lowest, first, from_zero, step, count
):
    # Spread measures lower the rank r of the first step, so that many of these grids step
    # the r-by-r block W^T Q_h W (2r < n). The grid steps by `first` from 0, or starts at
    # `first` and steps by `step`; None repeats the first step.
    g = spread_measures(dl.make_random_balanced(n, seed), seed, lowest)
    op = dl.assemble(g, dl.ball(g, 0, radius), kind)
    start, step = (0.0, first) if from_zero else (first, first if step is None else step)
    v0 = np.random.default_rng(seed).standard_normal(op.n)
    trace = dl.evolve_trace(op, v0, start, step, count)
    # The reference multiplies the steps exp(-h_k a) in the grid's order, exp(-h_k a) exp(-t_(k-1) a):
    # the product in the frame of A would round relative to entries up to 2^12 times those of its result.
    weighted = np.eye(op.n)
    for h, norm in zip(grid_steps(start, step, count), trace["operator_norms"]):
        weighted = _propagator(op, h) @ weighted
        sigma = np.linalg.svd(weighted, compute_uv=False)[0]
        assert abs(norm - sigma) <= _tolerance(op.n, sigma)


def grid_steps(start, step, count):
    """The steps of the grid start + k step, k < count: start, then step."""
    return [start] + [step] * (count - 1)


def test_trace_in_the_range_of_the_first_step_on_the_ladders():
    # Unit ladder: r = 24 of 99 rows at step 0.25; sqrt ladder: r = 45. Grids from 0, and from
    # 0.5, whose first step forms the basis and is not the step.
    for measure in ("unit", "sqrt_n"):
        g = dl.make_ladder(dl.LadderSpec(depth=50, measure_mode=measure))
        op = laplacian_on_ball(g, 49)
        v0 = np.eye(op.n)[0]
        for grid in ((0.0, 0.25, 9), (0.5, 0.25, 9)):
            trace = dl.evolve_trace(op, v0, *grid)
            propagator = np.eye(op.n)
            for h, norm in zip(grid_steps(*grid), trace["operator_norms"]):
                propagator = propagator @ reference_propagator(op, h)
                sigma = largest_singular_value(propagator)
                assert abs(norm - sigma) <= _tolerance(op.n, sigma)
            assert_matches_per_time(op, v0, trace)


def random_trace_case(seed, n):
    """A random balanced graph, measure exponents in [-3, 3], a start vector, a grid (start, step, count), and a rate.

    The grid starts at 0 or at a random first time.
    """
    rng = np.random.default_rng(seed)
    g = dl.make_random_balanced(n, seed)
    exponents = rng.integers(-3, 4, size=n)
    first, step, count = rng.uniform(0.0, 1.0), rng.uniform(0.01, 0.5), int(rng.integers(1, 19))
    grid = (first if rng.integers(2) else 0.0, step, count)
    return g, exponents, rng.standard_normal(n), grid, rng.uniform(0.0, 1.0)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10**6), st.integers(3, 12), st.integers(1, 3))
def test_stepped_trace_matches_the_dense_propagators(seed, n, radius):
    g, exponents, v, grid, _ = random_trace_case(seed, n)
    g = dyadic_measures(g, exponents)
    ball_ = dl.ball(g, 0, radius)
    op = dl.assemble(g, ball_, "laplacian")
    v0 = v[list(ball_.vertices)]
    assert_matches_per_time(op, v0, dl.evolve_trace(op, v0, *grid))


@settings(deadline=None, max_examples=40)
@given(
    st.integers(0, 10**6),
    st.integers(3, 12),
    st.integers(1, 3),
    st.sampled_from(KINDS),
    st.booleans(),
    st.one_of(st.just(1e-12), st.floats(0.01, 2.0)),
    st.floats(0.01, 1.0),
    st.integers(1, 10),
)
def test_trace_matches_the_dense_reference(seed, n, radius, kind, from_zero, first, step, count):
    # The grid steps by `first` from 0, or starts at `first` and steps by `step`; a first
    # step of 1e-12 keeps every singular value of the step in the stepped basis.
    # Against the one-shot exp(-tA) the slack must also cover its rounding of tA.
    g = dl.make_random_balanced(n, seed)
    op = dl.assemble(g, dl.ball(g, 0, radius), kind)
    start, step = (0.0, first) if from_zero else (first, step)
    v0 = np.random.default_rng(seed).standard_normal(op.n)
    trace = dl.evolve_trace(op, v0, start, step, count)
    # The dense reference: the full n-by-n product of the grid's steps, and its SVD.
    propagator = np.eye(op.n)
    for h, norm in zip(grid_steps(start, step, count), trace["operator_norms"]):
        propagator = propagator @ reference_propagator(op, h)
        sigma = largest_singular_value(propagator)
        assert abs(norm - sigma) <= _tolerance(op.n, sigma)
    assert_matches_per_time(op, v0, trace)


def test_trace_steps_a_basis_far_smaller_than_the_truncation(monkeypatch):
    # The benchmark ladder: exp(-0.25 A) keeps 28 of 299 singular values above n eps sigma_1.
    g = dl.make_ladder(dl.LadderSpec(depth=150, measure_mode="unit"))
    op = laplacian_on_ball(g, 149)
    assert op.n == 299
    calls = []
    eigvalsh = scipy.linalg.eigvalsh
    monkeypatch.setattr(scipy.linalg, "eigvalsh", lambda a, **kw: calls.append((len(a), kw)) or eigvalsh(a, **kw))
    trace = dl.evolve_trace(op, np.eye(op.n)[0], *_parse_time_grid("0:5:0.25"), lambda0=0.1666)
    assert trace["ok"]
    rows = [n for n, _ in calls]
    assert len(rows) == 20 and max(rows) < op.n / 4
    # Each norm is one full solve: no bisection for the top eigenvalue alone.
    assert all(kw.get("driver") == "ev" and "subset_by_index" not in kw for _, kw in calls)


def test_trace_rejects_a_vector_of_the_wrong_length(ladder_unit, expm_calls):
    op = laplacian_on_ball(ladder_unit, 4)
    # A block of start vectors is refused too: its columns would be weighted by the wrong axis.
    for v0 in (np.ones(op.n + 1), np.ones((op.n, 2)), np.ones((op.n, op.n))):
        with pytest.raises(GraphError, match=f"expected a vector of length {op.n}"):
            dl.evolve_trace(op, v0, 0.5, 0.5, 2)
    assert expm_calls == []


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10**6), st.integers(3, 12), st.integers(1, 3), st.integers(-6, 4))
def test_trace_scales_exactly_with_the_measures(seed, n, radius, k):
    # L = B / m: measures x4^k scale A by 4^-k, so tA, and every propagator, is unchanged at
    # times x4^k; the weighted state norms scale by 2^k and the bounds exp(-lambda0 t) stay.
    g, exponents, v, (start, step, count), lambda0 = random_trace_case(seed, n)
    traces = []
    for s in (0, k):
        scaled = dyadic_measures(g, exponents + 2 * s)
        ball_ = dl.ball(scaled, 0, radius)
        op = dl.assemble(scaled, ball_, "laplacian")
        grid = (start * 4.0**s, step * 4.0**s, count)
        traces.append(dl.evolve_trace(op, v[list(ball_.vertices)], *grid, lambda0 * 4.0**-s))
    base, scaled = traces
    assert np.array_equal(scaled["operator_norms"], base["operator_norms"])
    assert np.array_equal(scaled["state_norms"], np.asarray(base["state_norms"]) * 2.0**k)
    assert scaled["flagged"] == base["flagged"]


@pytest.mark.parametrize("t", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "verdict",
    [
        lambda op, t: dl.operator_norm_expm(op, t),
        lambda op, t: dl.positivity_check(op, t),
        lambda op, t: dl.evolve_trace(op, np.ones(op.n), 0.0, t, 2),
        lambda op, t: dl.evolve_trace(op, np.ones(op.n), t, 1.0, 1),
    ],
    ids=["operator_norm_expm", "positivity_check", "evolve_trace", "evolve_trace_start"],
)
def test_non_finite_times_are_input_errors(ladder_unit, verdict, t):
    with pytest.raises(GraphError, match="finite"):
        verdict(laplacian_on_ball(ladder_unit, 4), t)


@pytest.mark.parametrize("lambda0", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_decay_rate_is_an_input_error(ladder_unit, lambda0):
    op = laplacian_on_ball(ladder_unit, 4)
    with pytest.raises(GraphError, match="finite"):
        dl.evolve_trace(op, np.ones(op.n), 0.0, 0.5, 3, lambda0=lambda0)


def test_trace_grid_validation(ladder_unit, expm_calls):
    op = laplacian_on_ball(ladder_unit, 4)
    parts = "finite start >= 0, finite step > 0 and count >= 1"
    for grid, message in (
        ((-1.0, 0.5, 2), parts),
        ((0.0, 0.0, 2), parts),
        ((0.0, -0.5, 2), parts),
        ((0.0, 0.5, 0), parts),
        ((0.0, 0.5, -3), parts),
        # Every part is finite, but the last time 2e308 is not.
        ((0.0, 1e308, 3), "time grid must be finite"),
    ):
        with pytest.raises(GraphError, match=message):
            dl.evolve_trace(op, np.ones(op.n), *grid)
    assert expm_calls == []


def test_trace_grids_too_large_to_allocate_are_input_errors(ladder_unit, expm_calls):
    # numpy refuses 10^300 points, and returns an empty array for 2^63 - 1.
    op = laplacian_on_ball(ladder_unit, 4)
    for count in (10**300, 2**63 - 1):
        with pytest.raises(GraphError, match="too many to allocate"):
            dl.evolve_trace(op, np.ones(op.n), 0.0, 1e-300, count)
    assert expm_calls == []


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
    assert np.allclose(scipy.linalg.expm(-t * op.dense()), expected, rtol=1e-12)
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
    av = op.dense() @ v
    errors = []
    for h in (1e-3, 1e-4):
        approx = (v - _propagator(op, h) @ v) / h
        errors.append(np.linalg.norm(approx - av))
    assert errors[1] < errors[0]
    ratio = errors[0] / errors[1]
    assert 5.0 < ratio < 20.0
