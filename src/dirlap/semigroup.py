"""Heat semigroup exp(-tA) and resolvent bounds for truncated operators.

On accretive truncations the semigroup is a contraction in the weighted
norm, the resolvent satisfies ||(A + lambda)^{-1}|| <= 1 / Re(lambda) on the
right half-plane, and a positive lower bound on the real part of the
numerical range turns contraction into exponential decay.  All norms are
taken in the measure-weighted geometry via the similarity transform.

Each time t forms one propagator P = exp(-tA), in the weighted frame, by
dense scaling-and-squaring (exact to rounding at the intended sizes, a few
thousand rows at most).  Both P v and the weighted operator norm, the
largest singular value of D^(1/2) P D^(-1/2), are read from that one P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .graph import GraphError, NumericError, _finite
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
    """exp(-tA) as a dense matrix; t must be nonnegative (one-sided semigroup)."""
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

    def norms_at(t: float) -> tuple[float, float]:
        # Both norms come from one propagator, freed before the next is formed.
        p = _propagator(op, t)
        return _norm(op, p, t), weighted_norm(_apply(p, t, v0), op.measure_vector)

    op_norms, state_norms = np.array([norms_at(float(t)) for t in times]).T
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
    return bool(np.all(_propagator(op, t) >= -1e-12))
