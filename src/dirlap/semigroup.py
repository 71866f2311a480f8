"""Heat semigroup exp(-tA) and resolvent bounds for truncated operators.

On accretive truncations the semigroup is a contraction in the weighted
norm, the resolvent satisfies ||(A + lambda)^{-1}|| <= 1 / Re(lambda) on the
right half-plane, and a positive lower bound on the real part of the
numerical range turns contraction into exponential decay.  All norms are
taken in the measure-weighted geometry via the similarity transform.

Matrix exponentials use dense scaling-and-squaring; at the intended sizes
(a few thousand rows at most) this is exact to rounding and simpler than
Krylov alternatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .graph import GraphError, NumericError
from .operators import TruncatedOperator, similarity_to_standard, weighted_norm

__all__ = [
    "EvolutionTrace",
    "expm_apply",
    "operator_norm_expm",
    "resolvent_norm",
    "evolve_trace",
    "positivity_check",
]


def _finite(a: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise NumericError(f"{what} has non-finite entries")
    return a


def _singular_values(a: np.ndarray, what: str) -> np.ndarray:
    """Singular values of a finite matrix, largest first."""
    _finite(a, what)
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular values of {what} failed: {exc}") from exc


def expm_apply(op: TruncatedOperator, t: float, values: np.ndarray) -> np.ndarray:
    """Apply exp(-tA) to a vector; t must be nonnegative (one-sided semigroup)."""
    if t < 0:
        raise GraphError("the semigroup is one-sided: t must be >= 0")
    values = np.asarray(values)
    if values.shape[0] != op.n:
        raise GraphError(f"expected a vector of length {op.n}")
    if t == 0.0:
        return values.copy()
    return _finite(scipy.linalg.expm(-t * op.matrix) @ values, f"exp(-{t} A) v")


def operator_norm_expm(op: TruncatedOperator, t: float) -> float:
    """Weighted operator norm of exp(-tA), the largest singular value after similarity."""
    if t < 0:
        raise GraphError("the semigroup is one-sided: t must be >= 0")
    if t == 0.0:
        return 1.0
    propagator = scipy.linalg.expm(-t * similarity_to_standard(op))
    return float(_singular_values(propagator, f"exp(-{t} A)")[0])


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
    exceeds its bound by more than 1e-9.
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
    """Evolve v0 under exp(-tA) over a sorted nonnegative time grid."""
    times = np.asarray(list(t_grid), dtype=float)
    if times.size == 0:
        raise GraphError("time grid must not be empty")
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise GraphError("time grid must be sorted and nonnegative")
    v0 = np.asarray(v0)
    op_norms = np.array([operator_norm_expm(op, float(t)) for t in times])
    state_norms = np.array(
        [weighted_norm(expm_apply(op, float(t), v0), op.measure_vector) for t in times]
    )
    if lambda0 is None:
        bounds = np.ones_like(times)
    else:
        bounds = np.minimum(1.0, np.exp(-float(lambda0) * times))
    flagged = tuple(int(i) for i in np.nonzero(op_norms > bounds + 1e-9)[0])
    return EvolutionTrace(times, op_norms, state_norms, bounds, flagged, lambda0)


def positivity_check(op: TruncatedOperator, t: float) -> bool:
    """True when exp(-tA) is entrywise nonnegative (up to -1e-12).

    Defined for the Laplacian-like kinds whose negated matrix has nonnegative
    off-diagonal entries; the skew part generates rotations, not heat flow.
    """
    if op.kind == "skew_part":
        raise GraphError("positivity is not defined for the skew part")
    if t < 0:
        raise GraphError("the semigroup is one-sided: t must be >= 0")
    if t == 0.0:
        return True
    propagator = scipy.linalg.expm(-t * op.matrix)
    return bool(np.all(propagator >= -1e-12))
