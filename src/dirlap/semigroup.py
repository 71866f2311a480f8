"""Heat semigroup exp(-tA) and resolvent bounds for truncated operators.

On accretive truncations the semigroup is a contraction in the weighted
norm, the resolvent satisfies ||(A + lambda)^{-1}|| <= 1 / Re(lambda) on the
right half-plane, and a positive lower bound on the real part of the
numerical range turns contraction into exponential decay.  All norms are
taken in the measure-weighted geometry via the similarity transform.

A single time t forms one propagator P = exp(-tA), in the weighted frame,
by dense scaling-and-squaring (exact to rounding at the intended sizes, a
few thousand rows at most).  Both P v and the weighted operator norm, the
largest singular value of D^(1/2) P D^(-1/2), are read from that one P.  A
time grid steps one propagator through the grid by the semigroup law, so it
forms one scaling-and-squaring per distinct step, not one per time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .graph import GraphError, NumericError, _finite, _tolerance
from .operators import TruncatedOperator, _similar, similarity_to_standard, weighted_norm

__all__ = [
    "EvolutionTrace",
    "expm_apply",
    "operator_norm_expm",
    "resolvent_norm",
    "evolve_trace",
    "positivity_check",
]


def _singular_values(a: np.ndarray, what: str) -> np.ndarray:
    """Singular values of a finite matrix, largest first."""
    _finite(a, what)
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular values of {what} failed: {exc}") from exc


def _propagator(op: TruncatedOperator, t: float) -> np.ndarray:
    """exp(-tA) as a dense matrix; t must be finite and nonnegative (one-sided semigroup)."""
    if not math.isfinite(t):
        raise GraphError(f"time must be finite, got {t}")
    if t < 0:
        raise GraphError("the semigroup is one-sided: t must be >= 0")
    if t == 0.0:
        return np.eye(op.n)
    return _finite(scipy.linalg.expm(-t * op.matrix), f"exp(-{t} A)")


def _apply(propagator: np.ndarray, t: float, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values)
    if values.shape[0] != propagator.shape[0]:
        raise GraphError(f"expected a vector of length {propagator.shape[0]}")
    return _finite(propagator @ values, f"exp(-{t} A) v")


def _norm(op: TruncatedOperator, propagator: np.ndarray, t: float) -> float:
    """Weighted operator norm of a propagator: the largest singular value after similarity."""
    return float(_singular_values(_similar(propagator, op.measure_vector), f"exp(-{t} A)")[0])


def expm_apply(op: TruncatedOperator, t: float, values: np.ndarray) -> np.ndarray:
    """Apply exp(-tA) to a vector; t must be nonnegative (one-sided semigroup)."""
    return _apply(_propagator(op, t), t, values)


def operator_norm_expm(op: TruncatedOperator, t: float) -> float:
    """Weighted operator norm of exp(-tA), the largest singular value after similarity."""
    return _norm(op, _propagator(op, t), t)


def resolvent_norm(op: TruncatedOperator, lam: complex) -> float:
    """Weighted operator norm of (A + lambda)^{-1} for Re(lambda) > 0."""
    lam = complex(lam)
    if lam.real <= 0:
        raise GraphError("resolvent bound needs Re(lambda) > 0")
    shifted = similarity_to_standard(op).astype(complex)
    shifted[np.diag_indices_from(shifted)] += lam
    smallest = _singular_values(shifted, f"A + {lam}")[-1]
    if smallest == 0.0:
        # Cannot occur for accretive truncations with Re(lambda) > 0.
        raise NumericError(f"(A + {lam}) is singular")
    return float(1.0 / smallest)


@dataclass(frozen=True)
class EvolutionTrace:
    """Weighted norms of exp(-tA) along a time grid.

    ``bounds[i]`` is min(1, exp(-lambda0 * t_i)) (just 1 when no decay rate
    was given); ``flagged`` lists the grid indices where the operator norm
    exceeds its bound by more than the rounding slack 100 n eps of a norm <= 1.
    """

    times: np.ndarray
    operator_norms: np.ndarray
    state_norms: np.ndarray
    bounds: np.ndarray
    flagged: tuple[int, ...]
    lambda0: float | None

    @property
    def ok(self) -> bool:
        return not self.flagged

    def to_dict(self) -> dict:
        return {
            "times": self.times.tolist(),
            "operator_norms": self.operator_norms.tolist(),
            "state_norms": self.state_norms.tolist(),
            "bounds": self.bounds.tolist(),
            "flagged": list(self.flagged),
            "lambda0": self.lambda0,
            "ok": self.ok,
        }


def evolve_trace(
    op: TruncatedOperator,
    v0: np.ndarray,
    t_grid,
    lambda0: float | None = None,
) -> EvolutionTrace:
    """Evolve v0 under exp(-tA) over a sorted, finite, nonnegative time grid.

    The propagator is stepped through the grid by the semigroup law,
    P_k = P_(k-1) exp(-h_k A) with h_k = t_k - t_(k-1) and t_(-1) = 0, so
    only each distinct step h forms a matrix exponential: a uniform grid
    forms one.  A step is cached by its float value only until its last use
    on the grid, so the cache never holds a step no later time needs.  Each
    h_k is the exact difference when t_(k-1) >= t_k / 2 (Sterbenz), so the
    steps then sum to t_k exactly; each product adds one matrix product's
    rounding, so the error grows linearly with the number of steps.
    """
    times = np.asarray(list(t_grid), dtype=float)
    if times.size == 0:
        raise GraphError("time grid must not be empty")
    if not np.all(np.isfinite(times)):
        raise GraphError("time grid must be finite")
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise GraphError("time grid must be sorted and nonnegative")

    steps = np.diff(times, prepend=0.0).tolist()
    last_use = {h: k for k, h in enumerate(steps)}
    cache: dict[float, np.ndarray] = {}
    p = None
    op_norms, state_norms = np.empty_like(times), np.empty_like(times)
    for k, (t, h) in enumerate(zip(times.tolist(), steps)):
        step = cache.pop(h) if h in cache else _propagator(op, h)
        if last_use[h] > k:
            cache[h] = step
        p = step if p is None else _finite(p @ step, f"exp(-{t} A)")
        op_norms[k] = _norm(op, p, t)
        state_norms[k] = weighted_norm(_apply(p, t, v0), op.measure_vector)
    if lambda0 is None:
        bounds = np.ones_like(times)
    else:
        bounds = np.minimum(1.0, np.exp(-float(lambda0) * times))
    flagged = tuple(int(i) for i in np.nonzero(op_norms > bounds + _tolerance(op.n, 1.0))[0])
    return EvolutionTrace(times, op_norms, state_norms, bounds, flagged, lambda0)


def positivity_check(op: TruncatedOperator, t: float) -> bool:
    """True when exp(-tA) is entrywise nonnegative, up to the rounding slack 100 n eps max |exp(-tA)|.

    Defined for the Laplacian-like kinds whose negated matrix has nonnegative
    off-diagonal entries; the skew part generates rotations, not heat flow.
    """
    if op.kind == "skew_part":
        raise GraphError("positivity is not defined for the skew part")
    propagator = _propagator(op, t)
    return bool(np.all(propagator >= -_tolerance(op.n, np.abs(propagator).max())))
