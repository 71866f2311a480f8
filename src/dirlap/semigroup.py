"""Heat semigroup exp(-tA) and resolvent bounds for truncated operators.

On accretive truncations the semigroup is a contraction in the weighted
norm, the resolvent satisfies ||(A + lambda)^{-1}|| <= 1 / Re(lambda) on the
right half-plane, and a positive lower bound on the real part of the
numerical range turns contraction into exponential decay.  All norms are
taken in the measure-weighted geometry via the similarity transform.

A single time t forms one propagator P = exp(-tA) by dense
scaling-and-squaring (exact to rounding at the intended sizes, a few
thousand rows at most).  Both P v and the weighted operator norm are read
from that one P.  The norm, the largest singular value of
Q = D^(1/2) P D^(-1/2), is the square root of the top eigenvalue of Q^T Q
(one full symmetric eigenvalue solve, no SVD), with Q scaled by a power of
two so that Q^T Q stays in range.  A time grid forms one scaling-and-squaring
per distinct step, not one per time.  It does not carry the n-by-n
propagator: one SVD of its first nonzero step keeps the r singular
directions above n eps sigma_1 (r is small for heat flow, n for the skew
part), and each later step acts on that n-by-r block, whose r-by-r Gram
matrix gives the norm.  The state vector is stepped on its own.
:func:`evolve_trace` returns the trace as the JSON object ``evolve`` emits.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .graph import _EPS, GraphError, NumericError, _finite, _tolerance
from .operators import TruncatedOperator, _similar, _standard_entries, similarity_to_standard, weighted_norm

__all__ = [
    "expm_apply",
    "operator_norm_expm",
    "resolvent_norm",
    "evolve_trace",
    "positivity_check",
]


def _propagator(op: TruncatedOperator, t: float) -> np.ndarray:
    """exp(-tA) as a dense matrix; t must be finite and nonnegative (one-sided semigroup)."""
    if not math.isfinite(t):
        raise GraphError(f"time must be finite, got {t}")
    if t < 0:
        raise GraphError("the semigroup is one-sided: t must be >= 0")
    if t == 0.0:
        return np.eye(op.n)
    return _finite(scipy.linalg.expm(-t * op.dense()), f"exp(-{t} A)")


def _vector(op: TruncatedOperator, values) -> np.ndarray:
    values = np.asarray(values)
    if values.shape[:1] != (op.n,):
        raise GraphError(f"expected a vector of length {op.n}")
    return values


def _largest_singular_value(q: np.ndarray, what: str) -> float:
    """sigma_1(q) = sqrt(lambda_max(q^T q)) for a real n-by-r block q.

    q is first scaled by the power of two 2^-e that brings max |q| into
    [1/2, 1), so q^T q neither underflows nor overflows and the value scales
    exactly with q.  One full symmetric eigenvalue solve of the r-by-r Gram
    matrix (LAPACK's QR iteration, ``driver="ev"``) replaces an SVD.  Unlike
    bisection for the top eigenvalue alone, it also converges when every
    eigenvalue lies within rounding of the others, as for exp(-tA) within
    ~1e-21 of the identity.
    """
    _finite(q, what)
    peak = float(np.abs(q).max(initial=0.0))
    if peak == 0.0:
        return 0.0
    e = math.frexp(peak)[1]
    q = np.ldexp(q, -e)
    try:
        top = scipy.linalg.eigvalsh(q.T @ q, driver="ev")[-1]
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"largest singular value of {what} failed: {exc}") from exc
    return math.ldexp(math.sqrt(max(float(top), 0.0)), e)


def _range_basis(op: TruncatedOperator, step: np.ndarray, t: float) -> np.ndarray:
    """D^(-1/2) U_r Sigma_r from the SVD Q = U Sigma V^T of the weighted step Q = D^(1/2) E D^(-1/2).

    Keeps the r columns with sigma_j > n eps sigma_1, r = n allowed (Golub &
    Van Loan, *Matrix Computations*, section 2.4).  As V is orthogonal, the
    weighted norm of R E, ||W Q|| with W = D^(1/2) R D^(-1/2), equals
    sigma_1(D^(1/2) R basis) up to ||W|| n eps sigma_1, the rounding of
    forming R E itself.
    """
    q = _finite(_similar(step, op.measure_vector), f"exp(-{t} A)")
    try:
        u, s = scipy.linalg.svd(q, check_finite=False)[:2]
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular values of exp(-{t} A) failed: {exc}") from exc
    r = int(np.count_nonzero(s > op.n * _EPS * s[0]))
    return u[:, :r] * (s[:r] / np.sqrt(op.measure_vector)[:, None])


def expm_apply(op: TruncatedOperator, t: float, values: np.ndarray) -> np.ndarray:
    """Apply exp(-tA) to a vector; t must be nonnegative (one-sided semigroup)."""
    values = _vector(op, values)
    return _finite(_propagator(op, t) @ values, f"exp(-{t} A) v")


def operator_norm_expm(op: TruncatedOperator, t: float) -> float:
    """Weighted operator norm of exp(-tA): sigma_1(Q), Q = D^(1/2) exp(-tA) D^(-1/2), from its Gram matrix."""
    return _largest_singular_value(_similar(_propagator(op, t), op.measure_vector), f"exp(-{t} A)")


def resolvent_norm(op: TruncatedOperator, lam: complex) -> float:
    """Weighted operator norm of (A + lambda)^{-1} for Re(lambda) > 0."""
    lam = complex(lam)
    if lam.real <= 0:
        raise GraphError("resolvent bound needs Re(lambda) > 0")
    shifted = similarity_to_standard(op).astype(complex)
    shifted[np.diag_indices_from(shifted)] += lam
    _finite(shifted, f"A + {lam}")
    # sigma_min stays on the SVD: through a Gram matrix it would square the condition number.
    try:
        smallest = np.linalg.svd(shifted, compute_uv=False)[-1]
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular values of A + {lam} failed: {exc}") from exc
    if smallest == 0.0:
        # Cannot occur for accretive truncations with Re(lambda) > 0.
        raise NumericError(f"(A + {lam}) is singular")
    return float(1.0 / smallest)


def evolve_trace(
    op: TruncatedOperator,
    v0: np.ndarray,
    t_grid,
    lambda0: float | None = None,
) -> dict:
    """Evolve v0 under exp(-tA) over a sorted, finite, nonnegative time grid.

    Returns the JSON object ``evolve`` emits before its envelope, of lists:
    the ``times``, the weighted norms of exp(-tA) (``operator_norms``) and of
    exp(-tA) v0 (``state_norms``), the ``bounds`` min(1, exp(-lambda0 t)) (1
    without ``lambda0``), the ``flagged`` indices whose norm exceeds its bound
    by more than the slack 100 n eps, then ``lambda0`` and ``ok`` (none flagged).

    The grid is stepped by the semigroup law, exp(-t_k A) = exp(-h_k A)
    exp(-t_(k-1) A) with h_k = t_k - t_(k-1) and t_(-1) = 0, so only each
    distinct step h forms a matrix exponential: a uniform grid forms one.
    A step is cached by its float value only until its last use on the
    grid, so the cache never holds a step no later time needs.  Each h_k is
    the exact difference when t_(k-1) >= t_k / 2 (Sterbenz), so the steps
    then sum to t_k exactly.

    Until the first nonzero step E the propagator is the identity (norm 1).
    After it, exp(-t_k A) = R_k E, and the n-by-r block of ``_range_basis``
    stands in for E: each later step multiplies that block (n^2 r flops, not
    2 n^3), and sigma_1 comes from its r-by-r Gram matrix.  v is stepped the
    same way, v_k = exp(-h_k A) v_(k-1).  Each product adds one product's
    rounding, so the error grows linearly with the number of steps.

    A subnormal entry of D^(1/2) A D^(-1/2) is a :class:`NumericError`, as in
    :func:`dirlap.spectral.numrange_boundary`: no slack covers its rounding.
    """
    times = np.asarray(list(t_grid), dtype=float)
    if times.size == 0:
        raise GraphError("time grid must not be empty")
    if not np.all(np.isfinite(times)):
        raise GraphError("time grid must be finite")
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise GraphError("time grid must be sorted and nonnegative")
    if lambda0 is not None and not math.isfinite(lambda0):
        raise GraphError(f"decay rate lambda0 must be finite, got {lambda0}")

    v = _vector(op, v0)
    _standard_entries(op)

    steps = np.diff(times, prepend=0.0).tolist()
    last_use = {h: k for k, h in enumerate(steps)}
    cache: dict[float, np.ndarray] = {}
    root_measure = np.sqrt(op.measure_vector)[:, None]
    basis = None
    op_norms, state_norms = np.ones_like(times), np.empty_like(times)
    for k, (t, h) in enumerate(zip(times.tolist(), steps)):
        step = cache.pop(h) if h in cache else _propagator(op, h)
        if last_use[h] > k:
            cache[h] = step
        v = _finite(step @ v, f"exp(-{t} A) v")
        if basis is not None:
            basis = _finite(step @ basis, f"exp(-{t} A)")
        elif h > 0.0:
            basis = _range_basis(op, step, t)
        if basis is not None:
            op_norms[k] = _largest_singular_value(root_measure * basis, f"exp(-{t} A)")
        state_norms[k] = weighted_norm(v, op.measure_vector)
    if lambda0 is None:
        bounds = np.ones_like(times)
    else:
        bounds = np.minimum(1.0, np.exp(-float(lambda0) * times))
    flagged = np.flatnonzero(op_norms > bounds + _tolerance(op.n, 1.0)).tolist()
    return {
        "times": times.tolist(),
        "operator_norms": op_norms.tolist(),
        "state_norms": state_norms.tolist(),
        "bounds": bounds.tolist(),
        "flagged": flagged,
        "lambda0": lambda0,
        "ok": not flagged,
    }


def positivity_check(op: TruncatedOperator, t: float) -> bool:
    """True when exp(-tA) is entrywise nonnegative, up to the rounding slack 100 n eps max |exp(-tA)|.

    Defined for the Laplacian-like kinds whose negated matrix has nonnegative
    off-diagonal entries; the skew part generates rotations, not heat flow.
    """
    if op.kind == "skew_part":
        raise GraphError("positivity is not defined for the skew part")
    propagator = _propagator(op, t)
    return bool(np.all(propagator >= -_tolerance(op.n, np.abs(propagator).max())))
