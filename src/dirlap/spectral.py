"""Numerical range boundaries, sector checks, Cheeger constants.

The boundary of the numerical range of a truncation is computed by the
rotated-Hermitian-part sweep (Johnson, SIAM J. Numer. Anal. 15, 1978): for
each angle phi, the top eigenvector v of the Hermitian part of e^{i phi} A
gives the boundary point <Av, v>.  A is real, so only the angles in [0, pi]
are solved and the rest are their conjugates.  Each top eigenvector comes
from inverse iteration on sparse LDL^H factorizations, warm-started from the
previous angle; the factorization's negative pivots certify that a shift
lies above the spectrum, and a point is emitted only once a shift within
the tolerance below certifies.  All weighted quantities are reduced to
standard ones once, in the :class:`Frame` that every verdict reads.

A value derived from a matrix A of n rows may carry rounding up to
tau = 100 n eps ||A||_F (:func:`dirlap.graph._tolerance`): the accretivity,
Cheeger and sector verdicts allow tau below 0, tau below lambda0 and
tau (1 + C/8).  The sweep runs on A scaled by a power of two to unit size,
so its points, ``min_real`` and tau scale exactly with the weights.

Sector containment uses the affine bound |Im z| <= 1/2 + (C/8) Re z with C
the quadratic asymmetry constant of the probed vertices; the implied sector
has vertex -4/C and semi-angle atan(C/8).  The bound is decided on all of W,
not on sampled points: W is symmetric about the real axis, the largest
Im z - (C/8) Re z over W is lambda_max(-(C/8) S - i K), and one LDL^H
factorization decides lambda_max(-(C/8) S - i K) < 1/2 + tau (1 + C/8).

Cheeger constants follow the sqrt-of-weight convention
    h = inf over finite proper U of  sum_{x in U, y outside} sqrt(b'(x,y)) / #U
on symmetric graphs with unit measure, and bound the real part of the
numerical range from below by h^2 / (2 * max degree).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np
import scipy.linalg

from .graph import (
    Ball,
    DirectedGraph,
    GraphError,
    NumericError,
    _finite,
    _tolerance,
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

class Frame(NamedTuple):
    """a = 2^-e D^(1/2) A D^(-1/2) with ||a||_F in [1/2, 1) (e = 0 for A = 0).

    ``a``, S = ``sym`` and K = ``skew`` share the CSC pattern of a + a^T plus
    the diagonal; ``min_real`` and ``max_real`` bound Re W(a), and ``tol`` is
    the tolerance of a.  The scaling is exact and every later step is
    homogeneous, so results of a scaled back by 2^e are those of A.
    """

    a: "scipy.sparse.csc_matrix"
    sym: "scipy.sparse.csc_matrix"
    skew: "scipy.sparse.csc_matrix"
    min_real: float
    max_real: float
    tol: float
    e: int

    @property
    def unscaled(self) -> tuple[float, float]:
        """``min_real`` and ``tol`` of A, scaled back by 2^e."""
        return math.ldexp(self.min_real, self.e), math.ldexp(self.tol, self.e)


@dataclass(frozen=True)
class NumericalRangeSample:
    """Boundary points of the numerical range from an angle sweep.

    ``min_real`` is the smallest eigenvalue of the weighted-Hermitian part,
    i.e. the leftmost real part of the numerical range; for an even number
    of angles it coincides with the boundary point at angle pi up to solver
    tolerance.  ``tolerance`` is the rounding slack 100 n eps ||A||_F of the
    standard-frame matrix A that the sweep certified its points to.
    ``frame`` is the scaled frame the sweep ran on, which :func:`check_sector` reads.
    """

    points: np.ndarray
    angles: np.ndarray
    min_real: float
    tolerance: float
    frame: Frame = field(repr=False, compare=False)


def _standard_frame(op: TruncatedOperator) -> Frame:
    """The :class:`Frame` of ``op``; a subnormal entry of D^(1/2) A D^(-1/2) is a
    :class:`NumericError`, as its rounding is not relative to ||A||_F."""
    import scipy.sparse as sparse

    a_std = similarity_to_standard(op)
    if np.any((a_std != 0.0) & (np.abs(a_std) < np.finfo(float).tiny)):
        raise NumericError("the operator has subnormal entries, whose rounding no tolerance covers")
    # The Frobenius norm bounds the spectral norm and costs one pass; BLAS
    # nrm2 scales, so it does not overflow early.
    norm = _finite(scipy.linalg.norm(a_std.ravel(), check_finite=False), "the norm of the operator")
    norm, e = math.frexp(norm)
    np.ldexp(a_std, -e, out=a_std)
    sym = _finite((a_std + a_std.T) / 2.0, "the Hermitian part")
    try:
        eigenvalues = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolve failed on the Hermitian part: {exc}") from exc
    _finite(eigenvalues, "the spectrum of the Hermitian part")
    pattern = sparse.csc_matrix((a_std != 0.0) | (a_std.T != 0.0) | np.eye(op.n, dtype=bool))
    rows, cols = pattern.indices, np.repeat(np.arange(op.n), np.diff(pattern.indptr))

    def csc(data: np.ndarray):
        return sparse.csc_matrix((data, rows, pattern.indptr), shape=pattern.shape)

    skew = csc(a_std[rows, cols] / 2.0 - a_std[cols, rows] / 2.0)
    low, high = float(eigenvalues[0]), float(eigenvalues[-1])
    return Frame(csc(a_std[rows, cols]), csc(sym[rows, cols]), skew, low, high, _tolerance(op.n, norm), e)


# Raising a rejected shift ten-fold from a margin >= tol reaches the
# Gershgorin cap of any matrix with n >= 1 rows within this many tries.
_SHIFT_TRIES = 16
# Solves per angle.  Inverse iteration never lowers rho, and sigma - rho
# starts below 2 sqrt(n) ||A||_F + tol <= 2**47 tol, so 47 halvings bring it
# under tol, where rho + tol certifies.  When the halfway shift fails,
# lambda_max lies above it, so the next solve at least doubles the top
# eigencomponent of v against all below rho: 53 such solves lift it from
# rounding level.
_SOLVES = 47 + 53


def _negative_definite(h, sigma: float):
    """LDL^H factors of h - sigma I if they certify sigma > lambda_max(h), else None.

    ``h`` is Hermitian CSC with its diagonal in its pattern.  SuperLU factors
    P (h - sigma I) P^T = L D L^H with diagonal pivots (``perm_r == perm_c`` is
    checked).  If every pivot is negative, sigma lies above the spectrum of h
    by Sylvester's law of inertia, up to the rounding of the factors (Rump, BIT 46, 2006).
    """
    from scipy.sparse.linalg import splu

    shifted = h.copy()
    shifted.setdiag(h.diagonal() - sigma)
    try:
        lu = splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError:  # exactly singular: sigma is an eigenvalue
        return None
    certified = np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal().real < 0.0)
    return lu if certified else None


def numrange_boundary(op: TruncatedOperator, n_angles: int = 360) -> NumericalRangeSample:
    """Sample the numerical range boundary at ``n_angles`` equispaced angles.

    Only the angles phi in [0, pi] are solved.  The operator is real, so its
    numerical range is symmetric about the real axis, and the point at angle
    2 pi - phi is the conjugate of the point at phi: ``points[n_angles - k]
    == conj(points[k])``.  At each solved angle the top eigenvector v of
    H = cos(phi) S + i sin(phi) K gives the point <Av, v>.

    The first shift sigma is the predicted support value plus twice the
    previous prediction error (at least tau), raised ten-fold up to the
    Gershgorin bound of H until :func:`_negative_definite` certifies it.
    Each solve gives rho = <Hv, v> <= lambda_max(H).  Once rho + tau
    certifies, lambda_max(H) lies in [rho, rho + tau) and one last solve
    gives the point; until then sigma moves halfway to rho when that
    certifies.  v is warm-started (Braconnier & Higham, BIT 36, 1996) from a
    fixed vector and sigma from just above max eig S, so the sweep is deterministic.

    Raises :class:`NumericError` on a subnormal entry, when the Hermitian
    part, a boundary point or ``min_real`` is not finite, when an eigensolve
    fails, or when no shift certifies within the budget of solves.
    """
    if n_angles < 4:
        raise GraphError("need at least 4 angles")
    frame = _standard_frame(op)
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    solved = angles[: n_angles // 2 + 1]

    def solve(lu, v: np.ndarray, phi: float) -> np.ndarray:
        # w may be ~||A||_F / tol times longer than v; BLAS nrm2 scales, so
        # its norm does not overflow for tiny weights.
        w = lu.solve(v)
        return _finite(w / scipy.linalg.norm(w, check_finite=False), f"the eigenvector at angle {phi:.6f}")

    half = np.zeros(len(solved), complex)
    herm = frame.sym.astype(complex)
    v = np.random.default_rng(0).standard_normal(op.n).astype(complex)
    base, margin = frame.max_real, frame.tol
    # a has unit size, so tol is 0 only for A = 0, whose points stay 0.
    for k, phi in enumerate(solved if frame.tol else ()):
        rotation = complex(math.cos(phi), math.sin(phi))
        if k:
            base = (rotation * half[k - 1]).real
        herm.data[:] = math.cos(phi) * frame.sym.data + (1j * math.sin(phi)) * frame.skew.data
        cap = float(np.bincount(herm.indices, np.abs(herm.data), op.n).max()) + frame.tol
        for attempt in range(_SHIFT_TRIES):
            sigma = min(base + margin * 10.0**attempt, cap)
            lu = _negative_definite(herm, sigma)
            if lu is not None or sigma == cap:
                break
        if lu is None:
            raise NumericError(f"no shift above the spectrum was certified at angle {phi:.6f}")
        for _ in range(_SOLVES):
            v = solve(lu, v, phi)
            rho = np.vdot(v, herm @ v).real
            top_lu = _negative_definite(herm, rho + frame.tol)
            if top_lu is not None:
                v = solve(top_lu, v, phi)
                break
            halfway = rho + (sigma - rho) / 2.0
            half_lu = _negative_definite(herm, halfway)
            if half_lu is not None:
                sigma, lu = halfway, half_lu
        else:
            raise NumericError(f"no certified eigenvalue within {_SOLVES} solves at angle {phi:.6f}")
        half[k] = np.vdot(v, frame.a @ v)
        margin = max(2.0 * ((rotation * half[k]).real - base), frame.tol)
    # phi = 0 and phi = pi are their own mirrors.  W is convex and closed
    # under conjugation, so the real part of their point is a point of W
    # with the same support value.
    half[0] = half[0].real
    if n_angles % 2 == 0:
        half[-1] = half[-1].real
    points = np.concatenate([half, np.conj(half[1 : n_angles - len(solved) + 1][::-1])])
    points = np.ldexp(_finite(points, "the swept boundary").view(float), frame.e).view(complex)
    return NumericalRangeSample(points, angles, *frame.unscaled, frame)


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


def _sector(frame: Frame, c: float) -> tuple[Sector, bool]:
    """:func:`check_sector` on a scaled frame of :func:`_standard_frame`."""
    if c < 0:
        raise GraphError("asymmetry constant must be >= 0")
    slope = c / 8.0
    h = frame.sym.astype(complex)
    h.data[:] = -slope * frame.sym.data - 1j * frame.skew.data
    ok = _negative_definite(h, math.ldexp(0.5, -frame.e) + frame.tol * (1.0 + slope)) is not None
    if c == 0.0:
        return Sector(vertex=frame.unscaled[0], half_angle=0.0), ok
    return Sector(vertex=-4.0 / c, half_angle=min(math.atan(slope), math.nextafter(math.pi / 2.0, 0.0))), ok


def check_sector(sample: NumericalRangeSample, asymmetry_constant: float):
    """Verify |Im z| <= 1/2 + (C/8) Re z on the whole numerical range, not on the points.

    With s = C/8, one LDL^H factorization decides lambda_max(-s S - i K) <
    1/2 + tau (1 + s) by inertia; that eigenvalue is the largest Im z - s Re z
    over W.  Returns the implied sector (vertex -4/C, semi-angle atan(C/8),
    which lies below pi/2 even where it rounds to it; degenerate half-line at
    the leftmost point when C = 0) and the pass flag.
    """
    return _sector(sample.frame, float(asymmetry_constant))


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


def _cheeger_bound(h: float, g: DirectedGraph, min_real: float, tol: float) -> CheegerBound:
    """Compare ``min_real``, computed to ``tol``, with lambda0 = h^2 / (2 M), M the max degree of ``g``."""
    lambda0 = h**2 / (2.0 * g.max_degree)
    return CheegerBound(lambda0, min_real, min_real >= lambda0 - tol)


def cheeger_bound_check(g: DirectedGraph, ball_: Ball, h: float) -> CheegerBound:
    """Check min Re W(truncation) >= h^2 / (2 M) with M the host max degree."""
    if h < 0:
        raise GraphError("Cheeger constant must be >= 0")
    if not np.all(g.measures == 1.0):
        raise GraphError("the Cheeger lower bound requires unit vertex measure")
    return _cheeger_bound(h, g, *_standard_frame(assemble(g, ball_, "laplacian")).unscaled)


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


def accretivity_certificate(g: DirectedGraph, ball_: Ball, cheeger_cap: int = 8) -> Certificate:
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
    # Each value is a per-vertex sum of at most max_degree terms.
    growing = gamma_values[-1] > gamma_values[0] + _tolerance(g.max_degree, gamma_values[0])
    trend = "growing" if growing else "bounded"

    cutoff_radii = sorted({max(1, ball_.radius // 4), max(1, ball_.radius // 2)})
    cutoffs = build_cutoffs(g, ball_.root, cutoff_radii)

    frame = _standard_frame(assemble(g, ball_, "laplacian"))
    sector, sector_ok = _sector(frame, sector_constant)
    min_real, tol = frame.unscaled

    cheeger_info = None
    cheeger_ok = None
    if np.all(g.measures == 1.0) and len(g) <= 200:
        g_sym = symmetrize(g)
        cap = min(cheeger_cap, len(g) - 1)
        result = cheeger_bruteforce(g_sym, max_subset_size=cap, budget=500_000)
        bound = _cheeger_bound(result.value, g, min_real, tol)
        cheeger_ok = bound.ok if result.certified else None
        cheeger_info = {
            "h": result.value,
            "witness": [g.label(v) for v in result.witness],
            "certified": result.certified,
            "lambda0": bound.lambda0,
            "ok": cheeger_ok,
        }

    accretive = min_real >= -tol
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
        min_real=min_real,
        sector_vertex=sector.vertex,
        sector_half_angle=sector.half_angle,
        sector_ok=sector_ok,
        cheeger=cheeger_info,
        verdicts=verdicts,
    )
