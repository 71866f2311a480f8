"""Numerical range boundaries, sector checks, Cheeger constants.

The boundary of the numerical range of a truncation is computed by the
rotated-Hermitian-part sweep: for each angle phi, the top eigenvector v of
the Hermitian part of e^{i phi} A gives the boundary point <Av, v>.  All
weighted quantities are reduced to standard ones through
:func:`dirlap.operators.similarity_to_standard`.

Sector containment uses the affine bound |Im z| <= 1/2 + (C/8) Re z with C
the quadratic asymmetry constant of the probed vertices; the implied sector
has vertex -4/C and semi-angle atan(C/8).

Cheeger constants follow the sqrt-of-weight convention
    h = inf over finite proper U of  sum_{x in U, y outside} sqrt(b'(x,y)) / #U
on symmetric graphs with unit measure, and bound the real part of the
numerical range from below by h^2 / (2 * max degree).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .graph import (
    Ball,
    DirectedGraph,
    GraphError,
    NumericError,
    _finite,
    build_cutoffs,
    check_asymmetry,
    check_kirchhoff,
    check_total_asymmetry,
)
from .graph import ball as make_ball
from .graph import symmetrize
from .operators import TruncatedOperator, assemble, similarity_to_standard

__all__ = [
    "NumericError",
    "NumericalRangeSample",
    "Sector",
    "CheegerResult",
    "CheegerBound",
    "Certificate",
    "numrange_boundary",
    "check_sector",
    "fit_sector",
    "cheeger_bruteforce",
    "cheeger_nested",
    "cheeger_bound_check",
    "accretivity_certificate",
]


@dataclass(frozen=True)
class NumericalRangeSample:
    """Boundary points of the numerical range from an angle sweep.

    ``min_real`` is the smallest eigenvalue of the weighted-Hermitian part,
    i.e. the leftmost real part of the numerical range; for an even number
    of angles it coincides with the boundary point at angle pi up to solver
    tolerance.
    """

    points: np.ndarray
    angles: np.ndarray
    min_real: float


def _hermitian_part(a_std: np.ndarray) -> tuple[np.ndarray, float]:
    """The finite Hermitian part of ``a_std`` and its smallest eigenvalue, min Re W(a_std)."""
    sym = _finite((a_std + a_std.T) / 2.0, "the Hermitian part")
    try:
        eigenvalues = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolve failed on the Hermitian part: {exc}") from exc
    return sym, float(_finite(eigenvalues, "the spectrum of the Hermitian part")[0])


def numrange_boundary(op: TruncatedOperator, n_angles: int = 360) -> NumericalRangeSample:
    """Sample the numerical range boundary at ``n_angles`` equispaced angles.

    Raises :class:`NumericError` when the Hermitian part, a boundary point
    or ``min_real`` is not finite.
    """
    if n_angles < 4:
        raise GraphError("need at least 4 angles")
    a_std = similarity_to_standard(op)
    sym, min_real = _hermitian_part(a_std)
    skew = (a_std - a_std.T) / 2.0
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles

    def boundary_point(phi: float) -> complex:
        herm = math.cos(phi) * sym + 1j * math.sin(phi) * skew
        try:
            _, vecs = np.linalg.eigh(herm)
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                f"eigensolve failed at angle {phi:.6f} (cond={np.linalg.cond(a_std):.3e}): {exc}"
            ) from exc
        v = vecs[:, -1]
        return complex(np.vdot(v, a_std @ v))

    points = np.array([boundary_point(phi) for phi in angles], dtype=complex)
    return NumericalRangeSample(_finite(points, "the swept boundary"), angles, min_real)


@dataclass(frozen=True)
class Sector:
    """Closed sector {z : |Im z| <= tan(half_angle) * (Re z - vertex)}."""

    vertex: float
    half_angle: float

    def __post_init__(self):
        if not (0.0 <= self.half_angle < np.pi / 2.0):
            raise GraphError("sector half-angle must lie in [0, pi/2)")

    @property
    def slope(self) -> float:
        return math.tan(self.half_angle)

    def contains(self, points: Iterable[complex], slack: float = 0.0) -> bool:
        pts = np.asarray(list(points), dtype=complex)
        return bool(np.all(np.abs(pts.imag) <= self.slope * (pts.real - self.vertex) + slack))


def check_sector(sample: NumericalRangeSample, asymmetry_constant: float, slack: float = 1e-9):
    """Verify |Im z| <= 1/2 + (C/8) Re z on every sampled boundary point.

    Returns the implied sector (vertex -4/C, semi-angle atan(C/8); degenerate
    half-line at the leftmost point when C = 0) and the pass flag.
    """
    c = float(asymmetry_constant)
    if c < 0:
        raise GraphError("asymmetry constant must be >= 0")
    pts = sample.points
    ok = bool(np.all(np.abs(pts.imag) <= 0.5 + (c / 8.0) * pts.real + slack))
    if c == 0.0:
        return Sector(vertex=sample.min_real, half_angle=0.0), ok
    return Sector(vertex=-4.0 / c, half_angle=math.atan(c / 8.0)), ok


def fit_sector(sample: NumericalRangeSample, vertex: float) -> Sector:
    """Smallest sector with the given vertex containing all sampled points."""
    pts = sample.points
    gaps = pts.real - vertex
    if np.any(gaps <= 0) and np.any(np.abs(pts.imag[gaps <= 0]) > 0):
        raise GraphError("vertex must lie strictly left of the sampled numerical range")
    with np.errstate(divide="ignore", invalid="ignore"):
        angles = np.arctan2(np.abs(pts.imag), gaps)
    theta = float(np.max(angles, initial=0.0))
    if theta >= np.pi / 2.0:
        raise GraphError("no sector with this vertex contains the sampled points")
    return Sector(vertex=float(vertex), half_angle=theta)


# -- Cheeger constants -----------------------------------------------------------


@dataclass(frozen=True)
class CheegerResult:
    value: float
    witness: tuple[int, ...]
    method: str
    certified: bool
    witness_index: int | None = None


def _require_unit_symmetric(g: DirectedGraph) -> None:
    if not g.is_symmetric():
        raise GraphError("Cheeger constants are defined on symmetrized graphs; symmetrize first")
    if not np.all(g.measures == 1.0):
        raise GraphError("Cheeger constants require unit vertex measure")


def _out_edges(g: DirectedGraph) -> list[Mapping[int, float]]:
    """Every vertex's out-edges, fetched once for the many quotients that follow."""
    return [g.out_edges(x) for x in g.vertex_ids()]


def _boundary_quotient(out_edges: list[Mapping[int, float]], subset: frozenset[int]) -> float:
    total = 0.0
    for x in subset:
        for y, w in out_edges[x].items():
            if y not in subset:
                total += math.sqrt(w)
    return total / len(subset)


def _connected_subsets(g: DirectedGraph, k_max: int):
    """Yield every connected vertex set of size <= k_max exactly once."""
    nbrs = [g.neighbors(v) for v in g.vertex_ids()]

    def extend(sub: list[int], ext: list[int], visited: set[int], root: int):
        yield frozenset(sub)
        if len(sub) == k_max:
            return
        ext = list(ext)
        while ext:
            w = ext.pop()
            fresh = [u for u in nbrs[w] if u > root and u not in visited]
            yield from extend(sub + [w], ext + fresh, visited | set(fresh), root)

    for root in g.vertex_ids():
        start_ext = [u for u in nbrs[root] if u > root]
        yield from extend([root], start_ext, {root} | set(start_ext), root)


def cheeger_bruteforce(
    g: DirectedGraph, max_subset_size: int | None = None, budget: int = 2_000_000
) -> CheegerResult:
    """Exact minimum of the boundary quotient over connected proper subsets.

    A disconnected minimizer decomposes into a connected piece with no larger
    quotient, so restricting to connected subsets loses nothing.  The result
    is flagged uncertified when the size cap is below #V - 1 or the subset
    budget was exhausted; it is then only the best value found, an upper
    bound on the true constant.
    """
    _require_unit_symmetric(g)
    n = len(g)
    if max_subset_size is None:
        if n > 20:
            raise GraphError("graphs with more than 20 vertices need an explicit max_subset_size")
        max_subset_size = n - 1
    k_max = min(int(max_subset_size), n - 1)
    if k_max < 1:
        raise GraphError("max_subset_size must be >= 1")
    best = math.inf
    witness: frozenset[int] = frozenset()
    exhausted = False
    count = 0
    out_edges = _out_edges(g)
    for subset in _connected_subsets(g, k_max):
        count += 1
        if count > budget:
            exhausted = True
            break
        q = _boundary_quotient(out_edges, subset)
        if q < best:
            best = q
            witness = subset
    return CheegerResult(
        value=best,
        witness=tuple(sorted(witness)),
        method="connected-subsets",
        certified=k_max >= n - 1 and not exhausted,
    )


def cheeger_nested(g: DirectedGraph, family: Sequence[Iterable[int]]) -> CheegerResult:
    """Minimum boundary quotient over a nested increasing family of proper subsets."""
    _require_unit_symmetric(g)
    sets = [frozenset(int(v) for v in member) for member in family]
    if not sets:
        raise GraphError("family must not be empty")
    all_vertices = frozenset(g.vertex_ids())
    prev: frozenset[int] = frozenset()
    for i, s in enumerate(sets):
        if not s or s >= all_vertices:
            raise GraphError(f"family member {i} must be a nonempty proper subset of the vertices")
        if not prev <= s:
            raise GraphError(f"family member {i} does not contain member {i - 1}")
        prev = s
    out_edges = _out_edges(g)
    quotients = [_boundary_quotient(out_edges, s) for s in sets]
    idx = int(np.argmin(quotients))
    return CheegerResult(
        value=quotients[idx],
        witness=tuple(sorted(sets[idx])),
        method="nested-family",
        certified=False,
        witness_index=idx,
    )


class CheegerBound(NamedTuple):
    """Outcome of the lower bound min Re W >= h^2 / (2 max_degree)."""

    lambda0: float
    min_real: float
    ok: bool


def _cheeger_bound(h: float, g: DirectedGraph, min_real: float) -> CheegerBound:
    """Compare ``min_real`` with lambda0 = h^2 / (2 M), M the max degree of ``g``."""
    lambda0 = h**2 / (2.0 * g.max_degree)
    return CheegerBound(lambda0, min_real, min_real >= lambda0 - 1e-9)


def cheeger_bound_check(g: DirectedGraph, ball_: Ball, h: float) -> CheegerBound:
    """Check min Re W(truncation) >= h^2 / (2 M) with M the host max degree."""
    if h < 0:
        raise GraphError("Cheeger constant must be >= 0")
    if not np.all(g.measures == 1.0):
        raise GraphError("the Cheeger lower bound requires unit vertex measure")
    _, min_real = _hermitian_part(similarity_to_standard(assemble(g, ball_, "laplacian")))
    return _cheeger_bound(h, g, min_real)


# -- aggregated certificate --------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Aggregated verdicts on a truncation of a directed weighted graph.

    ``verdicts`` states which operator conclusions are numerically supported
    on the probed truncation: accretivity plus a bounded asymmetry constant
    and bounded cutoff energies back m-accretivity, the sector check backs
    m-sectoriality, and (for unit measure) the Cheeger quotient bounds the
    real part of the numerical range from below.
    """

    radius: int
    interior_size: int
    kirchhoff_ok: bool
    kirchhoff_max_imbalance: float
    kirchhoff_worst_vertex: str | None
    asymmetry_constant: float
    sector_constant: float
    cutoff_constant: float
    total_asymmetry_values: tuple[float, ...]
    total_asymmetry_trend: str
    min_real: float
    sector_vertex: float
    sector_half_angle: float
    sector_ok: bool
    cheeger: dict | None
    verdicts: dict

    def to_dict(self) -> dict:
        return {
            "radius": self.radius,
            "interior_size": self.interior_size,
            "kirchhoff": {
                "ok": self.kirchhoff_ok,
                "max_imbalance": self.kirchhoff_max_imbalance,
                "worst_vertex": self.kirchhoff_worst_vertex,
            },
            "asymmetry_constant": self.asymmetry_constant,
            "sector_constant": self.sector_constant,
            "cutoff_constant": self.cutoff_constant,
            "total_asymmetry": {
                "values": list(self.total_asymmetry_values),
                "trend": self.total_asymmetry_trend,
            },
            "min_real": self.min_real,
            "sector": {
                "vertex": self.sector_vertex,
                "half_angle": self.sector_half_angle,
                "ok": self.sector_ok,
            },
            "cheeger": self.cheeger,
            "verdicts": self.verdicts,
        }


def accretivity_certificate(
    g: DirectedGraph,
    ball_: Ball,
    n_angles: int = 72,
    cheeger_cap: int = 8,
) -> Certificate:
    """Run every checker on one truncation and aggregate the verdicts.

    Graphs failing the Kirchhoff balance still get their truncation analyzed;
    the certificate then reports the hypotheses as not met, which is useful
    when exploring counterexamples.
    """
    interior = sorted(ball_.interior)
    balance = check_kirchhoff(g, interior)
    asym = check_asymmetry(g, interior)
    sector_constant = check_asymmetry(g, ball_.vertices)

    radii = sorted({max(1, ball_.radius // 4), max(1, ball_.radius // 2), max(1, ball_.radius)})
    gamma_values = []
    for r in radii:
        sub = make_ball(g, ball_.root, r)
        probe = sorted(sub.interior) or list(sub.vertices)
        value = check_total_asymmetry(g, probe)
        gamma_values.append(value if value is not None else 0.0)
    growing = len(gamma_values) >= 2 and gamma_values[-1] > gamma_values[0] * (1.0 + 1e-9) + 1e-12
    trend = "growing" if growing else "bounded"

    cutoff_radii = sorted({max(1, ball_.radius // 4), max(1, ball_.radius // 2)})
    cutoffs = build_cutoffs(g, ball_.root, cutoff_radii)

    sample = numrange_boundary(assemble(g, ball_, "laplacian"), n_angles)
    sector, sector_ok = check_sector(sample, sector_constant)

    cheeger_info = None
    cheeger_ok = None
    if np.all(g.measures == 1.0) and len(g) <= 200:
        g_sym = symmetrize(g)
        cap = min(cheeger_cap, len(g) - 1)
        result = cheeger_bruteforce(g_sym, max_subset_size=cap, budget=500_000)
        bound = _cheeger_bound(result.value, g, sample.min_real)
        cheeger_ok = bound.ok if result.certified else None
        cheeger_info = {
            "h": result.value,
            "witness": [g.label(v) for v in result.witness],
            "certified": result.certified,
            "lambda0": bound.lambda0,
            "ok": cheeger_ok,
        }

    accretive = sample.min_real >= -1e-12
    verdicts = {
        "kirchhoff_balance": balance.ok,
        "accretive_truncation": accretive,
        "m_accretive_supported": bool(balance.ok and accretive),
        "m_sectorial_supported": bool(balance.ok and accretive and sector_ok),
        "cheeger_bound_supported": cheeger_ok,
    }

    return Certificate(
        radius=ball_.radius,
        interior_size=len(interior),
        kirchhoff_ok=balance.ok,
        kirchhoff_max_imbalance=balance.max_imbalance,
        kirchhoff_worst_vertex=None if balance.worst_vertex is None else g.label(balance.worst_vertex),
        asymmetry_constant=asym,
        sector_constant=sector_constant,
        cutoff_constant=cutoffs.constant,
        total_asymmetry_values=tuple(gamma_values),
        total_asymmetry_trend=trend,
        min_real=sample.min_real,
        sector_vertex=sector.vertex,
        sector_half_angle=sector.half_angle,
        sector_ok=sector_ok,
        cheeger=cheeger_info,
        verdicts=verdicts,
    )
