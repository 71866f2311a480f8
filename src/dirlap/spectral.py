"""Numerical range boundaries, sector checks, Cheeger constants and the certificate.

The boundary of the numerical range of a truncation is computed by the
rotated-Hermitian-part sweep (Johnson, SIAM J. Numer. Anal. 15, 1978): for
each angle phi, the top eigenvector v of the Hermitian part of e^{i phi} A
gives the boundary point <Av, v>.  A is real, so only the angles in [0, pi]
are solved and the rest are their conjugates.  Every verdict reads one
:class:`Frame`, A in the standard frame, formed in O(nnz).

Certified eigenvalues come from two routines: min Re W = lambda_min(S), S the
Hermitian part, from Noda iteration (:func:`_noda`) on the Z-matrix S of each
Laplacian kind, and everything else from :func:`_top_eigenpair`, inverse
iteration on sparse LDL^H factors whose inertia certifies each shift.  An
enclosure that does not certify is a :class:`NumericError`, never a verdict.

A value derived from a matrix A of n rows may carry rounding up to
tau = 100 n eps ||A||_F (:func:`dirlap.graph._tolerance`).  The sweep runs on
A scaled by a power of two to unit size, so its points, ``min_real`` and tau
scale exactly with the weights.  Each check of
:func:`accretivity_certificate` returns one :class:`_Record` with its bound,
value, margin, slack and method: the accretivity, Cheeger and sector checks
allow tau below 0, tau below lambda0 and tau (1 + C/8).

Sector containment, |Im z| <= 1/2 + (C/8) Re z with C the quadratic asymmetry
constant of the probed vertices, is decided on all of W by one LDL^H
factorization (:func:`check_sector`).

Cheeger constants follow the sqrt-of-weight convention
    h = inf over finite proper U of  sum_{x in U, y outside} sqrt(b'(x,y)) / #U
on graphs with unit measure, b' = (b + b~)/2 the symmetrized weight read from
the graph's own slots, and bound the real part of the numerical range from
below by h^2 / (2 * max degree).  The defaults of :func:`cheeger_bruteforce`
are the one enumeration policy; they are complete up to 20 vertices, the only
graphs on which :func:`accretivity_certificate` reports the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np
import scipy.linalg

from .graph import (
    Ball,
    DirectedGraph,
    GraphError,
    NumericError,
    _EPS,
    _b_sym,
    _cutoffs,
    _finite,
    _indices,
    _tolerance,
    _vertex_array,
    check_asymmetry,
    check_kirchhoff,
    check_total_asymmetry,
)
from .graph import ball as make_ball  # noqa: F401  (kept importable here; perfbench's tracer test rebinds it)
from .operators import TruncatedOperator, _standard_entries, assemble

__all__ = [
    "NumericalRangeSample",
    "Sector",
    "CheegerResult",
    "CheegerBound",
    "numrange_boundary",
    "check_sector",
    "fit_sector",
    "cheeger_bruteforce",
    "cheeger_nested",
    "cheeger_bound_check",
    "accretivity_certificate",
]

class Frame(NamedTuple):
    """a = 2^-e D^(1/2) A D^(-1/2) with ||a||_F in [1/2, 1) (e = 0 for A = 0), held as its two halves.

    S = ``sym`` and K = ``skew``, a = S + K, are CSC matrices on the
    operator's own CSR pattern, filled in O(nnz) by one transposition with
    no sort, hash or n-by-n array; ``min_real`` = m and ``delta`` from
    :func:`_lowest_eigenvalue`, lambda_min(S) = min Re W(a) in [m - delta, m],
    and ``tol`` is the tolerance of a.  The scaling is exact and every later
    step is homogeneous, so results of a scaled back by 2^e are those of A.
    """

    sym: "scipy.sparse.csc_matrix"
    skew: "scipy.sparse.csc_matrix"
    min_real: float
    delta: float
    tol: float
    e: int

    @property
    def unscaled(self) -> tuple[float, float]:
        """``min_real`` and ``tol`` of A, scaled back by 2^e."""
        return math.ldexp(self.min_real, self.e), math.ldexp(self.tol, self.e)


class _Record(NamedTuple):
    """One check's certificate; every ``certify`` verdict is read from these.

    ``ok`` tests ``bound`` as a lower bound, value >= bound - ``slack``, or
    for the Kirchhoff balance as an upper bound on the imbalance.  ``value``
    is a number, a certified enclosure [lower, upper], or None where LDL^H
    inertia decides only a sign; ``margin`` is value - bound, end by end.
    ``reads`` names the records whose value this one shares.
    """

    ok: bool
    bound: float
    value: float | list[float] | None
    margin: float | list[float] | None
    slack: float | None
    method: str
    reads: list[str]


def _above(frame: Frame, bound: float, method: str, reads: list[str]) -> _Record:
    """The record of min Re W >= ``bound``: the upper end m of [m - delta, m], to tau."""
    m, tol = frame.unscaled
    lower = math.ldexp(frame.min_real - frame.delta, frame.e)
    return _Record(m >= bound - tol, bound, [lower, m], [lower - bound, m - bound], tol, method, reads)


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

    n, rows = op.n, op._entry_rows()
    values = _standard_entries(op)
    # The Frobenius norm bounds the spectral norm and costs one pass over the
    # row-major nonzeros; BLAS nrm2 scales, so it does not overflow early.
    norm = _finite(scipy.linalg.norm(values[values != 0.0], check_finite=False), "the norm of the operator")
    norm, e = math.frexp(norm)
    np.ldexp(values, -e, out=values)
    # The CSR arrays of a are the CSC arrays of a^T, so on the operator's symmetric
    # pattern ``values`` holds a_ji and the transpose (Gustavson's counting pass) holds a_ij.
    transpose = sparse.csr_matrix((values, op.indices, op.indptr), shape=(n, n)).tocsc()
    same = np.array_equal(transpose.indices, op.indices) and np.array_equal(transpose.indptr, op.indptr)
    if not same or np.count_nonzero(op.indices == rows) < n:
        raise GraphError("the operator's sparsity pattern is not symmetric with the whole diagonal")
    a_ij, a_ji = transpose.data, values

    def csc(data: np.ndarray):
        return sparse.csc_matrix((data, op.indices, op.indptr), shape=(n, n))

    sym = csc((a_ij + a_ji) / 2.0)
    return Frame(sym, csc(a_ij / 2.0 - a_ji / 2.0), *_lowest_eigenvalue(sym), _tolerance(n, norm), e)


# Raising a rejected shift ten-fold from a margin >= slack reaches the
# Gershgorin cap of any matrix with n >= 1 rows within this many tries.
_SHIFT_TRIES = 16
# Solves per call of _top_eigenpair.  Every solve at least halves the bracket
# [low, sigma] of lambda_max, which starts below 2 ||h||_inf + slack: below
# 2**46 delta for min_real, as delta >= 200 eps ||h||_inf, and below 2**47 tau
# at a sweep angle, as ||h||_inf <= sqrt(n) ||A||_F.  So 48 solves bring sigma
# within the slack of lambda_max, and the other 52 halve the bracket to
# rounding level, where one solve turns any v to the top eigenvectors.
_SOLVES = 48 + 52


def _diagonal_positions(h) -> np.ndarray:
    """The positions in ``h.data`` of the diagonal of a canonical CSC ``h`` whose pattern holds it."""
    return np.flatnonzero(h.indices == np.repeat(np.arange(h.shape[1]), np.diff(h.indptr)))


def _shifted(h, sigma: float, diagonal: np.ndarray):
    """h - sigma I on the pattern of h: only the data at the ``diagonal`` positions changes."""
    data = h.data.copy()
    data[diagonal] -= sigma
    return type(h)((data, h.indices, h.indptr), shape=h.shape)


def _factor(h):
    """SuperLU factors P h P^T = L U with diagonal pivots, LDL^H for a Hermitian ``h``.

    Raises RuntimeError when a pivot is exactly zero.
    """
    from scipy.sparse.linalg import splu

    return splu(h, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})


def _negative_definite(h, sigma: float, diagonal: np.ndarray):
    """LDL^H factors of h - sigma I if they certify sigma > lambda_max(h), else None.

    ``h`` is Hermitian canonical CSC with its diagonal at the positions
    ``diagonal`` of its data (:func:`_diagonal_positions`).  SuperLU factors
    P (h - sigma I) P^T = L D L^H with diagonal pivots (``perm_r == perm_c`` is
    checked).  If every pivot is negative, sigma lies above the spectrum of h
    by Sylvester's law of inertia, up to the rounding of the factors (Rump, BIT 46, 2006).
    """
    try:
        lu = _factor(_shifted(h, sigma, diagonal))
    except RuntimeError:  # exactly singular: sigma is an eigenvalue
        return None
    certified = np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal().real < 0.0)
    return lu if certified else None


def _inverse_step(lu, v: np.ndarray, where: str) -> np.ndarray:
    """The unit vector along (h - sigma I)^-1 v, from the factors ``lu``."""
    w = lu.solve(v)
    # w may be ~||h|| / slack times longer than v; BLAS nrm2 scales, so its
    # norm does not overflow for tiny weights.
    return _finite(w / scipy.linalg.norm(w, check_finite=False), f"the eigenvector {where}")


def _top_eigenpair(h, slack: float, v: np.ndarray, base: float, margin: float, where: str):
    """(rho, v, lu) with lambda_max(h) in [rho, rho + slack] certified by the factors ``lu``.

    ``h`` is Hermitian canonical CSC with its diagonal in its pattern, and
    ``slack`` > 0.  The first shift sigma is base + margin 10^k, capped at the
    Gershgorin bound of h plus ``slack``, for the least k that
    :func:`_negative_definite` certifies.  Inverse iteration from ``v``
    (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998) keeps a bracket
    [low, sigma] of lambda_max.  After each solve it tries
    rho + ||h v - rho v|| when that lies in the lower half of the bracket,
    and else its midpoint, so every solve at least halves the bracket.  Once
    the residual of the Rayleigh quotient rho = <h v, v> is within ``slack``,
    the last shift or one factorization at rho + slack certifies the
    enclosure.  When rho + slack does not, v has settled on a lower
    eigenvector; that shift raises low and the bisection goes on.  An
    uncertified shift search or solve budget raises :class:`NumericError`,
    whose message names the eigenvalue by ``where``.
    """
    n, diagonal = h.shape[0], _diagonal_positions(h)
    diag = h.data[diagonal].real
    sums = np.bincount(h.indices, np.abs(h.data), n)
    cap = float(np.max(diag + (sums - np.abs(diag)))) + slack
    for attempt in range(_SHIFT_TRIES):
        sigma = min(base + margin * 10.0**attempt, cap)
        lu = _negative_definite(h, sigma, diagonal)
        if lu is not None or sigma == cap:
            break
    if lu is None:
        raise NumericError(f"no shift above the spectrum was certified {where}")
    low = -math.inf  # lambda_max lies above every Rayleigh quotient and every rejected shift
    for _ in range(_SOLVES):
        v = _inverse_step(lu, v, where)
        hv = h @ v
        rho = float(np.vdot(v, hv).real)
        residual = float(scipy.linalg.norm(hv - rho * v, check_finite=False))
        if residual <= slack:
            if sigma <= rho + slack:
                return rho, v, lu
            top_lu = _negative_definite(h, rho + slack, diagonal)
            if top_lu is not None:
                return rho, v, top_lu
            low = rho + slack  # the top eigenvector jumped away from v
        else:
            # Some eigenvalue lies within the residual of rho, and once v leans on
            # the top eigenvector it is lambda_max.
            low = max(low, rho)
            trial = rho + residual
            if low < trial < low + (sigma - low) / 2.0:
                trial_lu = _negative_definite(h, trial, diagonal)
                if trial_lu is not None:
                    sigma, lu = trial, trial_lu
                    continue
                low = trial
        trial = low + (sigma - low) / 2.0
        trial_lu = _negative_definite(h, trial, diagonal)
        if trial_lu is None:
            low = trial
        else:
            sigma, lu = trial, trial_lu
    raise NumericError(f"no certified eigenvalue within {_SOLVES} solves {where}")


# Solves per call of _noda.  Noda iteration converges quadratically once the
# shift nears lambda_min; every ladder, tree and random balanced truncation
# tried certified within 8 solves.
_NODA_SOLVES = 32
# Relative residual of each CG solve.  Any positive u gives a rigorous lower
# end, so the solves may be inexact (Jia, Lin & Liu, Numer. Math. 130, 2015).
_CG_RTOL = 1e-4


def _positive(w: np.ndarray) -> bool:
    return bool(np.all((w > 0.0) & (w < math.inf)))


def _pcg(a, b: np.ndarray, lu, maxiter: int) -> tuple[np.ndarray, int]:
    """(x, info) of conjugate gradients on a x = b, preconditioned by the factors ``lu`` and started from their solve.

    This is the arithmetic of scipy's ``cg(a, b, x0=lu.solve(b), rtol=_CG_RTOL,
    maxiter=maxiter, M=LinearOperator(a.shape, lu.solve))`` (scipy >= 1.12),
    operation for operation, without its per-call setup: the iterates are
    the same to the bit.  info is 0 once ||r|| < _CG_RTOL ||b||, tested
    before each step, and ``maxiter`` when the steps run out.
    """
    x = lu.solve(b)
    r = b - a @ x
    atol = _CG_RTOL * float(np.linalg.norm(b))
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0
        z = lu.solve(r)
        rho = np.dot(r, z)
        if iteration:
            p *= rho / rho_prev
            p += z
        else:
            p = z
        q = a @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, maxiter


def _noda(s, delta: float, diagonal: np.ndarray) -> tuple[float, float]:
    """[lower, upper], upper - lower <= ``delta``, containing lambda_min(s) of a symmetric Z-matrix.

    ``s`` is real symmetric canonical CSC with its diagonal at the positions
    ``diagonal`` of its data and no positive off-diagonal entry.  For the
    current u > 0, starting from u = 1:

    * lower = min_i ((S u)_i - gamma (|S| u)_i) / u_i.  B = c I - S is
      nonnegative, so rho(B) <= max_i (B u)_i / u_i (Collatz-Wielandt, for
      any u > 0, reducible S too), that is lambda_min(S) >= min_i
      (S u)_i / u_i.  The computed (S u)_i, a sum of at most d + 1
      products, is off by at most gamma_(d+1) (|S| u)_i (Higham, Accuracy
      and Stability of Numerical Algorithms, 2nd ed., section 3.1);
      gamma = gamma_(d+3) also covers the subtraction and the division;
    * upper = <S u, u> / <u, u>, the Rayleigh quotient.

    Once they lie within ``delta`` they are returned.  Otherwise a Noda step
    (Noda, Numer. Math. 17, 1971) solves (S - sigma I) w = u and sets
    u = w / max w.  The shift sigma = lower - delta / 2 lies below
    lambda_min, so S - sigma I is a positive definite M-matrix whose inverse
    is entrywise nonnegative, nonsingular even when the quotients of u are
    already exact (a diagonal S).  The first step factors its shift with
    SuperLU.  Each later step runs conjugate gradients preconditioned by the
    last factors, started from their solve of u (:func:`_pcg`, scipy's
    ``cg`` arithmetic without its per-call setup): the factored shift lies
    below the current one, so the preconditioned matrix is I less a
    positive semidefinite term that is small except near lambda_min.  A step
    factors its own shift, which then preconditions, when CG stops short or
    its w is not finite and positive, or when the previous CG step did not
    halve upper - lower (on rows where u is tiny an inexact w stalls the
    lower end).  A factored w that is not finite and positive, an exactly
    singular factorization or a spent budget of ``_NODA_SOLVES`` solves is
    a :class:`NumericError` naming min Re W.
    """
    n, unit = s.shape[0], _EPS / 2.0
    terms = int(np.diff(s.indptr).max()) + 2
    gamma = terms * unit / (1.0 - terms * unit)
    magnitude = abs(s)
    u, lu, gap = np.ones(n), None, math.inf
    for solves in range(_NODA_SOLVES + 1):
        su = s @ u
        lower = float(np.min((su - gamma * (magnitude @ u)) / u))
        upper = float(np.dot(su, u) / np.dot(u, u))
        if upper - lower <= delta:
            return lower, upper
        if solves == _NODA_SOLVES:
            raise NumericError(f"no certified eigenvalue within {_NODA_SOLVES} solves for min Re W")
        sigma, halved = lower - delta / 2.0, upper - lower <= gap / 2.0
        gap = upper - lower
        shifted = _shifted(s, sigma, diagonal)
        w, info = None, 1
        if lu is not None and halved:
            w, info = _pcg(shifted, u, lu, n)
        if info != 0 or not _positive(w):
            try:
                lu, gap = _factor(shifted), math.inf  # a factored step is exact: no stall to watch
            except RuntimeError:
                raise NumericError(f"S - sigma I is exactly singular at sigma = {sigma!r} for min Re W") from None
            w = lu.solve(u)
            if not _positive(w):
                raise NumericError("the Noda iterate for min Re W is not finite and positive")
        u = w / np.max(w)


def _lowest_eigenvalue(s) -> tuple[float, float]:
    """(m, delta), lambda_min(s) in [m - delta, m] certified, for a real symmetric CSC ``s`` with its diagonal.

    The data slack is delta = 100 (d + 2) eps ||s||_inf, d the largest number
    of off-diagonal entries in a row: the rounding of the entries of s moves
    no eigenvalue further (Weyl).  When no off-diagonal entry of s is
    positive (every Laplacian kind), m is the upper end of :func:`_noda`,
    whose lower end is a Collatz-Wielandt bound.  Otherwise (the rounding
    noise of the ``skew_part``) :func:`_top_eigenpair` runs on h = -s from
    the Gershgorin cap and a fixed vector, and m = -rho.
    """
    n = s.shape[0]
    delta = _tolerance(int(np.diff(s.indptr).max()) + 1, float(np.bincount(s.indices, np.abs(s.data), n).max()))
    if delta == 0.0:
        return 0.0, 0.0
    diagonal = _diagonal_positions(s)
    if np.all(np.delete(s.data, diagonal) <= 0.0):
        return _noda(s, delta, diagonal)[1], delta
    v = np.random.default_rng(0).standard_normal(n)
    return -_top_eigenpair(-s, delta, v, math.inf, delta, "for min Re W")[0], delta


def _angle_grid(n_angles: int) -> np.ndarray:
    """The ``n_angles`` equispaced angles 2 pi k / n_angles; fewer than 4, or more than can be allocated, is a :class:`GraphError`."""
    if n_angles < 4:
        raise GraphError("need at least 4 angles")
    return 2.0 * np.pi * _indices(n_angles, "the angle grid") / n_angles


def _sweep(frame: Frame, angles: np.ndarray) -> np.ndarray:
    """The boundary points of W(A) at the ``angles`` of :func:`_angle_grid`, swept on ``frame`` (see :func:`numrange_boundary`)."""
    n_angles = len(angles)
    solved = angles[: n_angles // 2 + 1]
    half = np.zeros(len(solved), complex)
    herm = frame.sym.astype(complex)
    v = np.random.default_rng(0).standard_normal(frame.sym.shape[0]).astype(complex)
    base, margin = math.inf, frame.tol
    # a has unit size, so tol is 0 only for A = 0, whose points stay 0.
    for k, phi in enumerate(solved if frame.tol else ()):
        rotation = complex(math.cos(phi), math.sin(phi))
        if k:
            base = (rotation * half[k - 1]).real
        herm.data[:] = math.cos(phi) * frame.sym.data + (1j * math.sin(phi)) * frame.skew.data
        where = f"at angle {phi:.6f}"
        _, v, lu = _top_eigenpair(herm, frame.tol, v, base, margin, where)
        v = _inverse_step(lu, v, where)
        # <a v, v> = <S v, v> + <K v, v>: S is symmetric and K antisymmetric, so the one is real and the other imaginary.
        half[k] = complex(np.vdot(v, frame.sym @ v).real, np.vdot(v, frame.skew @ v).imag)
        margin = max(2.0 * ((rotation * half[k]).real - base), frame.tol)
    # phi = 0 and phi = pi are their own mirrors.  W is convex and closed
    # under conjugation, so the real part of their point is a point of W
    # with the same support value.
    half[0] = half[0].real
    if n_angles % 2 == 0:
        half[-1] = half[-1].real
    points = np.concatenate([half, np.conj(half[1 : n_angles - len(solved) + 1][::-1])])
    return np.ldexp(_finite(points, "the swept boundary").view(float), frame.e).view(complex)


def numrange_boundary(op: TruncatedOperator, n_angles: int = 360) -> NumericalRangeSample:
    """Sample the numerical range boundary at ``n_angles`` equispaced angles.

    Only the angles phi in [0, pi] are solved.  The operator is real, so its
    numerical range is symmetric about the real axis, and the point at angle
    2 pi - phi is the conjugate of the point at phi: ``points[n_angles - k]
    == conj(points[k])``.  At each solved angle the top eigenvector v of
    H = cos(phi) S + i sin(phi) K gives the point <Av, v> = <Sv, v> + <Kv, v>.

    :func:`_top_eigenpair` certifies lambda_max(H) to within tau, and one
    more solve on its certifying factors gives v.  phi = 0 starts from the
    Gershgorin cap; every later angle from the support value its
    predecessor's point predicts, plus twice the previous prediction error
    (at least tau).  v is warm-started from the previous angle (Braconnier &
    Higham, BIT 36, 1996) and at phi = 0 from a fixed vector, so the sweep
    is deterministic.  No verdict reads the points: ``spectrum`` sweeps only for its CSV.

    Raises :class:`GraphError` for fewer than 4 angles or more than can be
    allocated, and :class:`NumericError` on a subnormal entry, when the norm
    of the operator, an eigenvector or a boundary point is not finite, or
    when ``min_real`` or a support value does not certify.
    """
    angles = _angle_grid(n_angles)
    frame = _standard_frame(op)
    return NumericalRangeSample(_sweep(frame, angles), angles, *frame.unscaled, frame)


@dataclass(frozen=True)
class Sector:
    """Closed sector {z : |Im z| <= tan(half_angle) * (Re z - vertex)}."""

    vertex: float
    half_angle: float

    def __post_init__(self):
        if not (0.0 <= self.half_angle < np.pi / 2.0):
            raise GraphError("sector half-angle must lie in [0, pi/2)")


def _sector(frame: Frame, c: float) -> tuple[Sector, _Record]:
    """:func:`check_sector` on a scaled frame of :func:`_standard_frame`, with its record."""
    if not 0.0 <= c < math.inf:
        raise GraphError(f"asymmetry constant must be finite and >= 0, got {c!r}")
    slope, sym = c / 8.0, frame.sym
    h = type(sym)((-slope * sym.data - 1j * frame.skew.data, sym.indices, sym.indptr), shape=sym.shape)
    slack = frame.tol * (1.0 + slope)
    ok = _negative_definite(h, math.ldexp(0.5, -frame.e) + slack, _diagonal_positions(h)) is not None
    method = "one LDL^H of -(C/8) S - i K - (1/2 + slack) I, negative definite by inertia"
    record = _Record(ok, 0.5, None, None, math.ldexp(slack, frame.e), method, [])
    if c == 0.0:
        return Sector(vertex=frame.unscaled[0], half_angle=0.0), record
    return Sector(vertex=-4.0 / c, half_angle=min(math.atan(slope), math.nextafter(math.pi / 2.0, 0.0))), record


def check_sector(sample: NumericalRangeSample, asymmetry_constant: float):
    """Verify |Im z| <= 1/2 + (C/8) Re z on the whole numerical range, not on the points.

    With s = C/8, one LDL^H factorization decides lambda_max(-s S - i K) <
    1/2 + tau (1 + s) by inertia; that eigenvalue is the largest Im z - s Re z
    over W.  Returns the implied sector (vertex -4/C, semi-angle atan(C/8),
    which lies below pi/2 even where it rounds to it; degenerate half-line at
    the leftmost point when C = 0) and the pass flag.
    """
    sector, record = _sector(sample.frame, float(asymmetry_constant))
    return sector, record.ok


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
    certified: bool
    witness_index: int | None = None


def _require_unit_measure(g: DirectedGraph, message: str = "Cheeger constants require unit vertex measure") -> None:
    if not np.all(g.measures == 1.0):
        raise GraphError(message)


def _out_edges(g: DirectedGraph) -> list[list[tuple[int, float]]]:
    """Every row's (neighbor, sqrt b') slots, read once for the many quotients that follow."""
    ptr, nbr, roots = g._ptr.tolist(), g._nbr.tolist(), np.sqrt(_b_sym(g)).tolist()
    return [list(zip(nbr[lo:hi], roots[lo:hi])) for lo, hi in zip(ptr, ptr[1:])]


def _boundary_quotient(edges: list[list[tuple[int, float]]], subset: frozenset[int]) -> float:
    total = 0.0
    for x in subset:
        for y, root_b in edges[x]:
            if y not in subset:
                total += root_b
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


# Connected subsets that one enumeration visits at most.
_BUDGET = 2_000_000
# A graph with at most this many vertices has at most 2**20 - 2 connected proper
# subsets, below _BUDGET, so its default enumeration is complete.
_COMPLETE_ENUMERATION = 20


def cheeger_bruteforce(g: DirectedGraph, max_subset_size: int | None = None) -> CheegerResult:
    """Exact minimum of the boundary quotient over connected proper subsets.

    ``g`` is any graph with unit measure.  Each boundary slot weighs
    sqrt(b'), b' = (b + b~)/2, so ``g`` and ``symmetrize(g)`` have the same
    constant.  A disconnected minimizer decomposes into a connected piece
    with no larger quotient, so restricting to connected subsets loses
    nothing.  The default size cap is #V - 1 (complete) up to 20 vertices
    and 10 above.  The result is flagged uncertified when the size cap is
    below #V - 1 or the budget of ``_BUDGET`` subsets was spent; it is then
    only the best value found, an upper bound on the true constant.
    """
    _require_unit_measure(g)
    n = len(g)
    if max_subset_size is None:
        max_subset_size = n - 1 if n <= _COMPLETE_ENUMERATION else 10
    k_max = min(int(max_subset_size), n - 1)
    if k_max < 1:
        raise GraphError("max_subset_size must be >= 1")
    best, witness, count, edges = math.inf, frozenset(), 0, _out_edges(g)
    for count, subset in enumerate(_connected_subsets(g, k_max), 1):
        if count > _BUDGET:
            break
        q = _boundary_quotient(edges, subset)
        if q < best:
            best, witness = q, subset
    return CheegerResult(best, tuple(sorted(witness)), certified=k_max >= n - 1 and count <= _BUDGET)


def cheeger_nested(g: DirectedGraph, family: Sequence[Iterable[int]]) -> CheegerResult:
    """Minimum boundary quotient over a nested increasing family of proper subsets."""
    _require_unit_measure(g)
    sets = [frozenset(_vertex_array(g, member).tolist()) for member in family]
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
    edges = _out_edges(g)
    quotients = [_boundary_quotient(edges, s) for s in sets]
    idx = int(np.argmin(quotients))
    return CheegerResult(quotients[idx], tuple(sorted(sets[idx])), certified=False, witness_index=idx)


class CheegerBound(NamedTuple):
    """Outcome of the lower bound min Re W >= h^2 / (2 max_degree)."""

    lambda0: float
    min_real: float
    ok: bool


def _cheeger(g: DirectedGraph, ball_: Ball, h: float, frame: Frame | None = None) -> _Record:
    """The record of min Re W >= lambda0 = h^2 / (2 M), M the host max degree, on ``frame`` or a new one."""
    frame = _standard_frame(assemble(g, ball_, "laplacian")) if frame is None else frame
    method = "lambda0 = h^2 / (2 max degree), h by enumeration of connected subsets"
    return _above(frame, h**2 / (2.0 * g.max_degree), method, ["accretivity"])


def cheeger_bound_check(g: DirectedGraph, ball_: Ball, h: float) -> CheegerBound:
    """Check min Re W(truncation) >= h^2 / (2 M) with M the host max degree."""
    if not 0.0 <= h < math.inf:
        raise GraphError(f"Cheeger constant must be finite and >= 0, got {h!r}")
    _require_unit_measure(g, "the Cheeger lower bound requires unit vertex measure")
    record = _cheeger(g, ball_, h)
    return CheegerBound(record.bound, record.value[1], record.ok)


# -- aggregated certificate --------------------------------------------------------


# Each verdict is the `and` of the `ok` of the records it names; None when one is absent (Cheeger above 20 vertices).
_VERDICTS = {
    "kirchhoff_balance": ("kirchhoff",),
    "accretive_truncation": ("accretivity",),
    "m_accretive_supported": ("kirchhoff", "accretivity"),
    "m_sectorial_supported": ("kirchhoff", "accretivity", "sector"),
    "cheeger_bound_supported": ("cheeger",),
}


def accretivity_certificate(g: DirectedGraph, ball_: Ball) -> dict:
    """Run every check on one truncation and return the report ``certify`` emits.

    Each check returns one :class:`_Record`: the Kirchhoff balance on the
    interior, accretivity (``min_real`` >= -tol), the sector and, for unit
    measure up to 20 vertices, the Cheeger bound.  Each verdict reads the
    records ``_VERDICTS`` names, and the ``why`` block holds both.  The
    asymmetry, total asymmetry and cutoff constants are reported; no verdict
    reads them.  A graph failing the Kirchhoff balance still gets its
    truncation analyzed, which is useful when exploring counterexamples.
    """
    balance = check_kirchhoff(g, ball_.interior)
    sector_constant = check_asymmetry(g, ball_.vertices)

    # The ball's distance array serves every probe ball and the cutoffs.
    dist = ball_.dist
    radii = sorted({max(1, ball_.radius // 4), max(1, ball_.radius // 2), max(1, ball_.radius)})
    # The interior of the ball of radius r >= 1 holds its root, so no probe is empty.
    gamma_values = [check_total_asymmetry(g, np.flatnonzero((0 <= dist) & (dist < r))) for r in radii]
    # Each value is a per-vertex sum of at most max_degree terms.
    growing = gamma_values[-1] > gamma_values[0] + _tolerance(g.max_degree, gamma_values[0])
    trend = "growing" if growing else "bounded"

    cutoffs = _cutoffs(g, dist, sorted({max(1, ball_.radius // 4), max(1, ball_.radius // 2)}))

    frame = _standard_frame(assemble(g, ball_, "laplacian"))
    sector, sector_record = _sector(frame, sector_constant)
    imbalance = balance.max_imbalance
    kirchhoff_method = "max |out - in| over the interior, each vertex within 1e-12 max(out, in)"
    records = {
        "kirchhoff": _Record(balance.ok, 0.0, imbalance, imbalance, None, kirchhoff_method, []),
        "accretivity": _above(frame, 0.0, "Noda iteration on S, its Collatz-Wielandt and Rayleigh ends", []),
        "sector": sector_record,
    }

    cheeger_info = None
    # The default enumeration is complete only there, so the h reported is the constant itself.
    if np.all(g.measures == 1.0) and len(g) <= _COMPLETE_ENUMERATION:
        result = cheeger_bruteforce(g)
        records["cheeger"] = cheeger = _cheeger(g, ball_, result.value, frame)
        cheeger_info = {
            "h": result.value,
            "witness": [g.label(v) for v in result.witness],
            "certified": result.certified,
            "lambda0": cheeger.bound,
            "ok": cheeger.ok,
        }

    return {
        "radius": ball_.radius,
        "interior_size": len(ball_.interior),
        "kirchhoff": {
            "ok": balance.ok,
            "max_imbalance": imbalance,
            "worst_vertex": None if balance.worst_vertex is None else g.label(balance.worst_vertex),
        },
        "asymmetry_constant": check_asymmetry(g, ball_.interior),
        "sector_constant": sector_constant,
        "cutoff_constant": cutoffs.constant,
        "total_asymmetry": {"values": gamma_values, "trend": trend},
        "min_real": records["accretivity"].value[1],
        "sector": {"vertex": sector.vertex, "half_angle": sector.half_angle, "ok": sector_record.ok},
        "cheeger": cheeger_info,
        "verdicts": {
            verdict: all(records[name].ok for name in names) if records.keys() >= set(names) else None
            for verdict, names in _VERDICTS.items()
        },
        "why": {
            "records": {name: record._asdict() for name, record in records.items()},
            "verdicts": {verdict: list(names) for verdict, names in _VERDICTS.items()},
        },
    }
