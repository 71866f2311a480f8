import math

import numpy as np
import pytest

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
    perm = np.random.default_rng(8).permutation(len(g_sym))
    vertices = [(g_sym.label(int(x)), 1.0) for x in perm]
    edges = [(g_sym.label(x), g_sym.label(y), w) for x, y, w in g_sym.iter_edges()]
    shuffled = dl.DirectedGraph(vertices, edges)
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
    cert = dl.accretivity_certificate(ladder_sqrt, dl.ball(ladder_sqrt, 0, 10), n_angles=36)
    assert cert.kirchhoff_ok and cert.kirchhoff_max_imbalance == 0.0
    assert cert.asymmetry_constant <= 12.0
    assert cert.total_asymmetry_trend == "growing"
    assert cert.sector_ok
    assert cert.verdicts["m_accretive_supported"]
    assert cert.verdicts["m_sectorial_supported"]
    payload = cert.to_dict()
    assert payload["verdicts"]["m_sectorial_supported"]


def test_certificate_tree(tree4):
    cert = dl.accretivity_certificate(tree4, dl.ball(tree4, 0, 3), n_angles=24)
    assert cert.asymmetry_constant == 4.0
    assert cert.total_asymmetry_trend == "bounded"
    assert cert.verdicts["m_accretive_supported"]


def test_certificate_single_edge_negative(single_edge):
    cert = dl.accretivity_certificate(single_edge, dl.ball(single_edge, 0, 1), n_angles=8)
    assert not cert.kirchhoff_ok
    assert cert.kirchhoff_max_imbalance == 3.0
    assert cert.kirchhoff_worst_vertex == "u"
    assert not cert.verdicts["m_accretive_supported"]
