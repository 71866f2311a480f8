"""Acceptance suite: one test per numbered criterion, at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
Two criteria need a note on what they measure:

* criterion 1 pins the tree's *total* (L1) asymmetry constant to exactly 2:
  every interior vertex has two one-way unit edges, each contributing
  |1 - 0| = 1.  The quadratic constant of ``check_asymmetry`` is defined with
  the symmetrized weight b' = (b + b~)/2, so each such edge contributes
  |1 - 0|^2 / (1/2) = 2 and the value is 4 = 2 * 2; the test asserts that
  relation too;
* criterion 12 compares the sweep's ``min_real`` with an oracle that uses no
  eigensolver: a random search spending 1e6 Rayleigh-quotient evaluations on
  random complex vectors (best of a uniform batch, then shrinking random
  perturbations of the incumbent).  ``Re <Af, f> / <f, f>`` is the Rayleigh
  quotient of the Hermitian part, whose only local minima on the sphere are
  global, so the search converges for any seed.  Plain uniform sampling of
  1e6 unit vectors in complex dimension 12 stays about 1.4 above the bottom.
"""

import math
import time

import numpy as np
import pytest

import dirlap as dl

from conftest import interior_random_vectors, unit_measure_copy

RNG = np.random.default_rng(715_2026)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def ladder_sqrt_50():
    return dl.make_ladder(dl.LadderSpec(depth=50))


@pytest.fixture(scope="module")
def ladder_sqrt_22():
    return dl.make_ladder(dl.LadderSpec(depth=22))


@pytest.fixture(scope="module")
def ladder_unit_22():
    return dl.make_ladder(dl.LadderSpec(depth=22, measure_mode="unit"))


@pytest.fixture(scope="module")
def randoms20():
    return [dl.make_random_balanced(12, seed=100 + s, density=0.6) for s in range(20)]


@pytest.fixture(scope="module")
def roster(ladder_sqrt_22, ladder_unit_22, tree4, randoms20):
    """Every generated balance-satisfying test graph with its truncation."""
    cases = [
        ("ladder-sqrt", ladder_sqrt_22, dl.ball(ladder_sqrt_22, 0, 10)),
        ("ladder-unit", ladder_unit_22, dl.ball(ladder_unit_22, 0, 10)),
        ("tree", tree4, dl.ball(tree4, 0, 3)),
    ]
    for i, g in enumerate(randoms20):
        cases.append((f"random-{i}", g, dl.full_ball(g, 0)))
    return cases


def test_criterion_01_tree_asymmetry_constant(tree4):
    start = time.perf_counter()
    interior = dl.ball(tree4, tree4.index("r"), 4).interior
    constant = dl.check_total_asymmetry(tree4, interior)
    quadratic = dl.check_asymmetry(tree4, interior)
    elapsed = time.perf_counter() - start
    # Two one-way unit edges per interior vertex: each adds |1 - 0| = 1 to the
    # total constant and |1 - 0|^2 / ((1 + 0)/2) = 2 to the quadratic one.
    ok = constant == 2.0 and quadratic == 2.0 * constant == 4.0 and elapsed < 1.0
    _report(
        1,
        ok,
        f"tree total asymmetry constant = {constant} (required exactly 2), "
        f"quadratic constant = {quadratic} (= 2 x total), {elapsed:.2f}s",
    )
    assert elapsed < 1.0
    assert constant == 2.0
    assert quadratic == 2.0 * constant == 4.0


def test_criterion_02_ladder_asymmetry_bound(ladder_sqrt_50):
    start = time.perf_counter()
    g = ladder_sqrt_50
    worst_rel = 0.0
    for n in range(2, 49):
        value = dl.asymmetry_at(g, g.index(f"x{n}"))
        expected = (8.0 + 4.0 / n) / np.sqrt(n)
        worst_rel = max(worst_rel, abs(value - expected) / expected)
    global_max = dl.check_asymmetry(g, dl.ball(g, 0, 50).interior)
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-12 and global_max <= 12.0 and elapsed < 1.0
    _report(2, ok, f"per-vertex rel err {worst_rel:.2e}, global max {global_max} <= 12, {elapsed:.2f}s")
    assert worst_rel <= 1e-12
    assert global_max <= 12.0
    assert elapsed < 1.0


def test_criterion_03_total_asymmetry_separates(ladder_sqrt_50):
    g = ladder_sqrt_50
    values = []
    worst_rel = 0.0
    for n in range(1, 49):
        value = dl.total_asymmetry_at(g, g.index(f"x{n}"))
        expected = (4.0 * n + 4.0) / np.sqrt(n)
        worst_rel = max(worst_rel, abs(value - expected) / expected)
        values.append(value)
    monotone = all(b > a for a, b in zip(values, values[1:]))
    ok = worst_rel <= 1e-12 and monotone
    _report(3, ok, f"per-vertex rel err {worst_rel:.2e}, strictly growing over n=1..48: {monotone}")
    assert worst_rel <= 1e-12
    assert monotone


def test_criterion_04_divergence_criterion(ladder_sqrt_50):
    g = ladder_sqrt_50
    rep = dl.divergence_criterion(g, 0, 49)
    exact = True
    for n in range(2, 49):
        exact = exact and rep.a_plus[n] == (n + 1) ** 2 / np.sqrt(n)
        exact = exact and rep.a_minus[n] == n**2 / np.sqrt(n)
        exact = exact and abs(rep.a_minus[n] - n**1.5) <= 4e-16 * n**1.5
    partial_48 = dl.divergence_criterion(g, 0, 48).partial_sum
    ok = exact and partial_48 > 3.0
    _report(4, ok, f"sphere strengths exact: {exact}, partial sum at 48 = {partial_48:.3f} > 3")
    assert exact
    assert partial_48 > 3.0


def test_criterion_05_green_identity(roster):
    start = time.perf_counter()
    worst = 0.0
    for name, g, ball_ in roster:
        op = dl.assemble(g, ball_, "laplacian")
        f = interior_random_vectors(op, 1000, RNG)
        h = interior_random_vectors(op, 1000, RNG)
        residuals = dl.green_residual_batch(g, ball_, f, h)
        a_norm = np.linalg.norm(dl.similarity_to_standard(op), 2)
        m = op.measure_vector[:, None]
        scales = (
            np.sqrt(np.sum(m * np.abs(f) ** 2, axis=0))
            * np.sqrt(np.sum(m * np.abs(h) ** 2, axis=0))
            * a_norm
        )
        worst = max(worst, float(np.max(residuals / scales)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(5, ok, f"worst residual / (|f||h||A|) = {worst:.2e} <= 1e-10, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_06_accretiveness(roster):
    worst_min_real = math.inf
    worst_form = math.inf
    for name, g, ball_ in roster:
        op = dl.assemble(g, ball_, "laplacian")
        a_std = dl.similarity_to_standard(op)
        worst_min_real = min(worst_min_real, float(np.linalg.eigvalsh((a_std + a_std.T) / 2.0)[0]))
        f = RNG.standard_normal((op.n, 1000)) + 1j * RNG.standard_normal((op.n, 1000))
        m = op.measure_vector[:, None]
        forms = np.real(np.sum(m * (op.dense() @ f) * np.conj(f), axis=0)) / np.sum(
            m * np.abs(f) ** 2, axis=0
        )
        worst_form = min(worst_form, float(forms.min()))
    ok = worst_min_real >= -1e-12 and worst_form >= -1e-12
    _report(6, ok, f"worst min_real = {worst_min_real:.2e}, worst Re<Af,f> = {worst_form:.2e}")
    assert worst_min_real >= -1e-12
    assert worst_form >= -1e-12


def test_criterion_07_relative_bound(roster):
    worst = -math.inf
    for name, g, ball_ in roster:
        sym = dl.assemble(g, ball_, "symmetric_part")
        skew = dl.assemble(g, ball_, "skew_part")
        c = dl.check_asymmetry(g, ball_.vertices)
        m = sym.measure_vector[:, None]
        f = interior_random_vectors(sym, 1000, RNG)
        lhs = np.sum(m * np.abs(skew.dense() @ f) ** 2, axis=0)
        rhs = (c * c / 4.0) * np.sum(m * np.abs(f) ** 2, axis=0) + 0.25 * np.sum(
            m * np.abs(sym.dense() @ f) ** 2, axis=0
        )
        worst = max(worst, float(np.max((lhs - rhs) / (1.0 + rhs))))
    ok = worst <= 1e-10
    _report(7, ok, f"worst (|Bf|^2 - bound)/scale = {worst:.2e} <= 1e-10")
    assert worst <= 1e-10


def test_criterion_08_sector_containment(ladder_sqrt_22):
    start = time.perf_counter()
    worst_excess = -math.inf
    for radius in (10, 20):
        ball_ = dl.ball(ladder_sqrt_22, 0, radius)
        sample = dl.numrange_boundary(dl.assemble(ladder_sqrt_22, ball_, "laplacian"), 360)
        _, ok_r = dl.check_sector(sample, 12.0)
        excess = float(
            np.max(np.abs(sample.points.imag) - (0.5 + (12.0 / 8.0) * sample.points.real))
        )
        worst_excess = max(worst_excess, excess)
        assert ok_r
    elapsed = time.perf_counter() - start
    ok = worst_excess <= 1e-9 and elapsed < 30.0
    _report(8, ok, f"worst |Im z| - (1/2 + (C/8) Re z) = {worst_excess:.3f} <= 0, {elapsed:.2f}s")
    assert worst_excess <= 1e-9
    assert elapsed < 30.0


def test_criterion_09_cheeger_numbers(ladder_unit_22):
    g = ladder_unit_22
    g_sym = dl.symmetrize(g)
    family = [dl.ball(g, 0, n).vertices for n in range(1, 22)]
    quotients = [dl.cheeger_nested(g_sym, [member]).value for member in family]
    exact = all(
        q == 2.0 * (n + 1) / (2 * n + 1) for n, q in zip(range(1, 22), quotients)
    )
    decreasing = all(b < a for a, b in zip(quotients, quotients[1:]))
    toward_one = all(q > 1.0 for q in quotients) and quotients[-1] < 1.03
    bound = dl.cheeger_bound_check(g, dl.ball(g, 0, 10), 1.0)
    lambda0_ok = bound.lambda0 == 1.0 / 6.0 and g.max_degree == 3
    minreals = []
    for radius in (10, 20):
        sample = dl.numrange_boundary(dl.assemble(g, dl.ball(g, 0, radius), "laplacian"), 36)
        minreals.append(sample.min_real)
    bound_ok = all(mr >= 1.0 / 6.0 - 1e-9 for mr in minreals)
    ok = exact and decreasing and toward_one and lambda0_ok and bound_ok
    _report(
        9,
        ok,
        f"quotients exact: {exact}, decreasing to {quotients[-1]:.4f}, lambda0 = 1/6, "
        f"min_real(R=10,20) = {minreals[0]:.4f}, {minreals[1]:.4f} >= 1/6",
    )
    assert exact and decreasing and toward_one
    assert lambda0_ok
    assert bound_ok


def test_criterion_10_contraction_and_decay(roster, ladder_unit_22):
    start = time.perf_counter()
    times = (0.5, 1.0, 2.0, 5.0)
    worst_contraction = -math.inf
    for name, g, ball_ in roster:
        op = dl.assemble(g, ball_, "laplacian")
        for t in times:
            worst_contraction = max(worst_contraction, dl.operator_norm_expm(op, t) - 1.0)
    worst_decay = -math.inf
    for radius in (5, 10, 20):
        op = dl.assemble(ladder_unit_22, dl.ball(ladder_unit_22, 0, radius), "laplacian")
        for t in times:
            gap = dl.operator_norm_expm(op, t) - math.exp(-t / 6.0)
            worst_decay = max(worst_decay, gap)
    elapsed = time.perf_counter() - start
    ok = worst_contraction <= 1e-9 and worst_decay <= 1e-9 and elapsed < 60.0
    _report(
        10,
        ok,
        f"worst ||exp(-tA)|| - 1 = {worst_contraction:.2e}, "
        f"worst excess over e^(-t/6) = {worst_decay:.2e}, {elapsed:.2f}s",
    )
    assert worst_contraction <= 1e-9
    assert worst_decay <= 1e-9
    assert elapsed < 60.0


def test_criterion_11_resolvent_suite(roster):
    worst = -math.inf
    for name, g, ball_ in roster:
        op = dl.assemble(g, ball_, "laplacian")
        for re in (0.1, 1.0, 10.0):
            for im in (-10.0, 0.0, 10.0):
                excess = dl.resolvent_norm(op, complex(re, im)) - 1.0 / re
                worst = max(worst, excess)
    ok = worst <= 1e-9
    _report(11, ok, f"worst ||(A+lam)^-1|| - 1/Re(lam) = {worst:.2e} <= 1e-9")
    assert worst <= 1e-9


def _exhaustive_cheeger_value(g):
    n = len(g)
    edges = [(x, y, math.sqrt(w)) for x, y, w in g.iter_edges() if x < y]
    best = math.inf
    for mask in range(1, (1 << n) - 1):
        size = mask.bit_count()
        total = 0.0
        for x, y, sw in edges:
            if (mask >> x & 1) != (mask >> y & 1):
                total += sw
        best = min(best, total / size)
    return best


def _random_search_min_re(a, rng):
    """Smallest Re <a f, f> / <f, f> found by 10^6 evaluations, no eigensolver.

    Takes the best of 1000 random complex unit vectors, then for 999 rounds
    tries 1000 random perturbations of radius r around the incumbent: the best
    one is kept if it improves, otherwise r shrinks by 0.7.
    """
    batch, radius = 1000, 1.0

    def quotients(f):
        return np.real(np.sum(np.conj(f) * (a @ f), axis=0)) / np.sum(np.abs(f) ** 2, axis=0)

    def unit_vectors():
        f = rng.standard_normal((a.shape[0], batch)) + 1j * rng.standard_normal((a.shape[0], batch))
        return f / np.linalg.norm(f, axis=0)

    f = unit_vectors()
    q = quotients(f)
    k = int(np.argmin(q))
    best, value = f[:, k], float(q[k])
    for _ in range(999):
        f = best[:, None] + radius * unit_vectors()
        q = quotients(f)
        k = int(np.argmin(q))
        if q[k] < value:
            best, value = f[:, k] / np.linalg.norm(f[:, k]), float(q[k])
        else:
            radius *= 0.7
    return value


def test_criterion_12_oracle_equivalence(randoms20, ladder_unit_22):
    # The full ball of a balanced graph has min Re W = 0 at the constant
    # function; the Dirichlet truncation has a strictly positive one (~0.980).
    rng = np.random.default_rng(9918)
    gaps = []
    inside = []
    for g, ball_ in (
        (randoms20[0], dl.full_ball(randoms20[0], 0)),
        (ladder_unit_22, dl.ball(ladder_unit_22, 0, 5)),
    ):
        op = dl.assemble(g, ball_, "laplacian")
        sweep = dl.numrange_boundary(op, 360).min_real
        a_std = dl.similarity_to_standard(op)
        sampled = _random_search_min_re(a_std, rng)
        gaps.append(abs(sweep - sampled))
        # Every evaluated quotient is a point of W: none may lie left of min Re W.
        inside.append(sampled >= sweep - 1e-12 * np.linalg.norm(a_std, 2))
    gap = max(gaps)

    cheeger_exact = True
    for g_small, cap_seed in ((randoms20[1], 0), (randoms20[2], 1)):
        g_sym = dl.symmetrize(unit_measure_copy(g_small))
        cheeger_exact = cheeger_exact and dl.cheeger_bruteforce(g_sym).value == pytest.approx(
            _exhaustive_cheeger_value(g_sym), rel=1e-15
        )
    g14 = dl.make_random_balanced(14, seed=77, density=0.5)
    g14_sym = dl.symmetrize(unit_measure_copy(g14))
    cheeger_exact = cheeger_exact and dl.cheeger_bruteforce(g14_sym).value == pytest.approx(
        _exhaustive_cheeger_value(g14_sym), rel=1e-15
    )

    ok = gap <= 1e-3 and all(inside) and cheeger_exact
    _report(
        12,
        ok,
        f"sweep vs random-search (1e6 evaluations) min Re gap = {gap:.2e} (required <= 1e-3), "
        f"no sample left of the sweep: {all(inside)}, "
        f"connected-subset Cheeger == exhaustive enumeration: {cheeger_exact}",
    )
    assert cheeger_exact
    assert all(inside)
    assert gap <= 1e-3
