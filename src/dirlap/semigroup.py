"""Heat semigroup exp(-tA) and resolvent bounds for truncated operators.

On accretive truncations the semigroup is a contraction in the weighted
norm, the resolvent satisfies ||(A + lambda)^{-1}|| <= 1 / Re(lambda) on the
right half-plane, and a positive lower bound on the real part of the
numerical range turns contraction into exponential decay.  All norms are
taken in the measure-weighted geometry via the similarity transform.

A single time t forms one propagator P = exp(-tA) by
scaling-and-squaring (exact to rounding at the intended sizes, a few
thousand rows at most).  Both P v and the weighted operator norm are read
from that one P.  The norm, the largest singular value of
Q = D^(1/2) P D^(-1/2), is the square root of the top eigenvalue of Q^T Q
(one full symmetric eigenvalue solve, no SVD), with Q scaled by a power of
two so that Q^T Q stays in range.  A time grid forms one scaling-and-squaring
per distinct step, not one per time.  It does not carry the n-by-n
propagator.  A randomized range finder with an explicitly computed residual
finds the r singular directions of its first nonzero step above
n eps sigma_1, in O(n^2 r) flops, and falls back to the full SVD when r is
near n (the skew part, tiny steps).  All propagators commute, so each later
step maps those directions into themselves, up to n eps sigma_1.  The grid
steps the r-by-r block W^T Q_h W, formed once per distinct step, when r is
below n / 2, and the n-by-r block of the SVD otherwise.  The norm is read
from the r-by-r Gram matrix.  The state vector is stepped on its own.
:func:`evolve_trace` returns the trace as the JSON object ``evolve`` emits.

Two paths: a truncation of band width w with 13 w < n - 1 (a ladder) forms
the Pade-13 step on the band and squares it densely when ||tA||_1 >
theta_13; every other input takes ``scipy.linalg.expm``.
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

# Columns of the first range sketch of a grid's first nonzero step; a rejected sketch at least doubles them.
_SKETCH = 32
# Rows per block of the explicit sketch residual and of the banded Pade products.
_BLOCK_ROWS = 64
# The Pade-13 coefficients b_0..b_13, and theta_13, the largest ||X||_1 it takes unscaled (Higham 2005).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0, 129060195264000.0,
           10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _propagator(op: TruncatedOperator, t: float) -> np.ndarray:
    """exp(-tA) as a dense matrix; t must be finite and nonnegative (one-sided semigroup).

    :func:`_banded_expm` forms it when the stored band width w has 13 w < n - 1 and
    ||tA||_1 > theta_13; else, for wide bands and steps too short to square, ``scipy.linalg.expm``.
    """
    if not math.isfinite(t):
        raise GraphError(f"time must be finite, got {t}")
    if t < 0:
        raise GraphError("the semigroup is one-sided: t must be >= 0")
    if t == 0.0:
        return np.eye(op.n)
    width = int(np.abs(op._entry_rows() - op.indices).max(initial=0))
    if 13 * width < op.n - 1:
        if not math.isfinite(norm := t * float(np.bincount(op.indices, np.abs(op.data), op.n).max())):
            raise NumericError(f"||{t} A||_1 is not finite")
        if norm > _THETA13:
            return _finite(_banded_expm(op, t, norm, width), f"exp(-{t} A)")
    return _finite(scipy.linalg.expm(-t * op.dense()), f"exp(-{t} A)")


def _band_product(x: np.ndarray, y: np.ndarray, wx: int, wy: int, out: np.ndarray | None = None) -> np.ndarray:
    """x @ y for n-by-n x and y zero beyond |i - j| > wx and wy, in row blocks that touch only the band.

    The product goes into ``out`` (zero off the band) or, without it, into a new array.
    """
    out = np.zeros_like(x) if out is None else out
    for i in range(0, len(x), _BLOCK_ROWS):
        inner = slice(max(0, i - wx), i + _BLOCK_ROWS + wx)
        cols = slice(max(0, i - wx - wy), i + _BLOCK_ROWS + wx + wy)
        out[i : i + _BLOCK_ROWS, cols] = x[i : i + _BLOCK_ROWS, inner] @ y[inner, cols]
    return out


def _banded_expm(op: TruncatedOperator, t: float, norm: float, w: int) -> np.ndarray:
    """exp(-tA) for band width w, by scaling and squaring of the Pade-13 approximant.

    X = 2^-s (-tA), with s = ceil(log2(||tA||_1 / theta_13)), has ||X||_1 <= theta_13 (Higham,
    *SIAM J. Matrix Anal. Appl.* 26, 2005).  X^2, X^4, X^6 and the Pade numerator V + U and
    denominator V - U have band width at most 13 w, so their products touch only the band.  One
    dense solve gives P = (V - U)^-1 (V + U), and s dense squarings give exp(-tA) = P^(2^s).
    """
    n, b = op.n, _PADE13
    s = math.ceil(math.log2(norm / _THETA13))
    x = np.zeros((n, n))
    x[op._entry_rows(), op.indices] = np.ldexp(-t * op.data, -s)
    powers = np.zeros((4, n, n))  # I, X^2, X^4, X^6; tensordot(c, powers, 1) sums c_k times the k-th
    powers[0].flat[:: n + 1] = 1.0
    _band_product(x, x, w, w, powers[1])
    _band_product(powers[1], powers[1], 2 * w, 2 * w, powers[2])
    _band_product(powers[2], powers[1], 4 * w, 2 * w, powers[3])
    u = _band_product(powers[3], np.tensordot(b[9:14:2], powers[1:], 1), 6 * w, 6 * w)
    u = _band_product(x, u + np.tensordot(b[1:8:2], powers, 1), w, 12 * w)
    v = _band_product(powers[3], np.tensordot(b[8:13:2], powers[1:], 1), 6 * w, 6 * w)
    v += np.tensordot(b[0:7:2], powers, 1)
    p, spare = np.linalg.solve(v - u, v + u), np.empty((n, n))
    for _ in range(s):
        p, spare = np.matmul(p, p, out=spare), p
    return p


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


def _residual(q: np.ndarray, u: np.ndarray, b: np.ndarray) -> float:
    """||q - u b||_F, formed in row blocks so that no n-by-n temporary is made."""
    norm = 0.0
    for i in range(0, len(q), _BLOCK_ROWS):
        norm = math.hypot(norm, np.linalg.norm(q[i : i + _BLOCK_ROWS] - u[i : i + _BLOCK_ROWS] @ b))
    return norm


def _svd(matrix: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The thin SVD U, sigma, V^T of ``matrix``, a block formed from exp(-tA)."""
    try:
        return scipy.linalg.svd(matrix, full_matrices=False, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular values of exp(-{t} A) failed: {exc}") from exc


def _range_basis(op: TruncatedOperator, step: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """W (n-by-r, orthonormal) and sigma_1..sigma_r with Q V = W Sigma_r + F V, ||F||_2 <= n eps sigma_1.

    Q = D^(1/2) E D^(-1/2) is the weighted step.  V has r orthonormal
    columns, and F is what the basis drops.  A randomized range finder (Halko,
    Martinsson & Tropp, *SIAM Review* 53, 2011) sketches Y = Q Omega, with a
    Gaussian Omega of fixed seed from numpy's legacy ``RandomState``, whose
    stream numpy keeps frozen.  It orthonormalizes Y to U (n-by-k), the
    right singular vectors of Y^T.  So the SVD serves every factorization
    here, and no SVD input has n rows unless it is the full one.  The small
    k-by-n block B = U^T Q has the SVD U_B Sigma V_B^T.  The residual
    rho = ||Q - U B||_F is computed explicitly, and the sketch is accepted
    only when rho <= n eps sigma_1 / 2, with sigma_1 = sigma_1(B) <=
    sigma_1(Q).  It keeps the r singular values above n eps sigma_1 - rho:
    W = U U_B[:, :r] and V = V_B[:, :r].  F, the dropped singular values plus
    the residual, then has norm at most n eps sigma_1.

    A rejected sketch grows k by extending U with new sketch columns, each
    block orthogonalized against U and normalized twice, so no product is
    repeated.  The next k is at least 2k.  It is at least the rank where the
    decay of B's lower half of singular values, extrapolated, reaches
    n eps sigma_1 / 2, and n without decay.  Doubling alone would not do:
    rounding leaves the last singular value of a full-rank step's sketch
    just below the middle one, so at n = 299 it would run sketches of 32, 64
    and 128 columns before the SVD.  Once k would reach n / 2 the sketch no
    longer pays: U = I, and Q gets the full SVD, with r the count of
    sigma_j > n eps sigma_1 (Golub & Van Loan, *Matrix Computations*,
    section 2.4), and then F V = 0.  A full-rank step (the skew part, or
    ||A|| h far below 1) pays one sketch of ``_SKETCH`` columns before that
    SVD.  An all-zero step has r = 0.  Q is first scaled in place by the
    power of two that brings max |Q| into [1/2, 1), and sigma is scaled
    back: W and sigma are unchanged while values stay in range, and the cut
    n eps sigma_1 cannot underflow, even when sigma_1 is subnormal.
    """
    q = _finite(_similar(step, op.measure_vector), f"exp(-{t} A)")
    e = math.frexp(float(max(q.max(initial=0.0), -q.min(initial=0.0))))[1]
    np.ldexp(q, -e, out=q)
    n = op.n
    rng = np.random.RandomState(0)
    u, b = np.empty((n, 0)), np.empty((0, n))
    k = _SKETCH
    while 2 * k < n:
        y = q @ rng.standard_normal((n, k - u.shape[1]))
        for _ in range(2):
            y = _svd((y - u @ (u.T @ y)).T, t)[2].T
        u, b = np.hstack([u, y]), np.vstack([b, y.T @ q])
        u_b, s, _ = _svd(b, t)
        rho, tol = _residual(q, u, b), n * _EPS * s[0]
        if rho <= tol / 2:
            r = int(np.count_nonzero(s > tol - rho))
            return u @ u_b[:, :r], np.ldexp(s[:r], e)
        half = k // 2
        tail, mid = s[-1], s[-1 - half]
        if tail <= tol / 2:
            k *= 2
        elif tail >= mid:
            k = n
        else:
            k = max(2 * k, k + math.ceil(half * math.log(tol / 2 / tail) / math.log(tail / mid)))
    u, s, _ = _svd(q, t)
    r = int(np.count_nonzero(s > n * _EPS * s[0]))
    return u[:, :r], np.ldexp(s[:r], e)


def expm_apply(op: TruncatedOperator, t: float, values: np.ndarray) -> np.ndarray:
    """Apply exp(-tA) to a vector; t must be nonnegative (one-sided semigroup)."""
    values = _vector(op, values)
    return _finite(_propagator(op, t) @ values, f"exp(-{t} A) v")


def operator_norm_expm(op: TruncatedOperator, t: float) -> float:
    """Weighted operator norm of exp(-tA): sigma_1(Q), Q = D^(1/2) exp(-tA) D^(-1/2), from its Gram matrix.

    Its rounding grows with ||A|| t: scaling-and-squaring forms exp(-tA)
    from 2^s squarings of a Pade approximant, with 2^s ~ ||A|| t.  On a
    rotation (the skew part) with ||A|| t ~ 16 the norm came out 1.5e-13
    above 1, over the slack 100 n eps of ``evolve``; stepping a grid of
    short steps, as :func:`evolve_trace` does, rounds far less.
    """
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
    On a grid of non-dyadic times the differences round to several floats,
    and each forms its own: 7 for ``0:5:0.1``, where ``0:5:0.125`` forms 1.
    A step is cached by its float value only until its last use on the
    grid, so the cache never holds a step no later time needs.  Each h_k is
    the exact difference when t_(k-1) >= t_k / 2 (Sterbenz), so the steps
    then sum to t_k exactly.

    Until the first nonzero step E_1 the propagator is the identity (norm
    1).  After it, exp(-t_k A) = R_k E_1, with R_k the product of the later
    steps.  In the weighted frame, where Q_h = D^(1/2) exp(-hA) D^(-1/2),
    ``_range_basis`` gives Q_1 V = W Sigma_r + F V, with W and V orthonormal
    and ||F|| <= n eps sigma_1.  The trace reads sigma_1 of X_k = R_k Q_1 V.
    As Q_1 (I - V V^T) = F (I - V V^T), this is within ||R_k|| n eps sigma_1
    of ||R_k Q_1||, the rounding of the dense product itself.

    With 2r < n, X_k is tracked inside span W by Y_k = W C_k.  Here C_1 =
    Sigma_r and C_k = M_(h_k) C_(k-1) is r-by-r, with M_h = W^T Q_h W =
    (D^(1/2) W)^T exp(-hA) (D^(-1/2) W).  M_h is formed once per distinct
    step in 2 n^2 r flops, with no n-by-n temporary.  Each later step then
    costs r^3 flops, not n^2 r, and sigma_1(Y_k) = sigma_1(C_k).  Let
    P = W W^T, so Y_k = P Q_(h_k) Y_(k-1).  The part of X_k that leaks out of
    span W stays small because every propagator commutes with Q_1:
    Q_(h_k) X_(k-1) = Q_1 R_k V, and (I - P) Q_1 = (I - P) F.  So
    X_k - Y_k = P Q_(h_k) (X_(k-1) - Y_(k-1)) + (I - P) F R_k V, and
    ||X_k - Y_k|| <= ||Q_(h_k)|| ||X_(k-1) - Y_(k-1)|| + ||R_k|| n eps sigma_1,
    starting from ||X_1 - Y_1|| = ||F V|| <= n eps sigma_1.  On a
    contraction the error thus grows by at most n eps sigma_1 per step, like
    the rounding of the products.  The exact propagators commute; the
    computed ones do so to rounding.

    With 2r >= n (the skew part, tiny steps), W^T Q_h W would cost more
    than it saves, and it would round worse: W is orthonormal only to
    rounding, so ||M_h|| can exceed ||Q_h|| by a few eps, and a repeated
    step compounds that excess.  On 1000 steps of a rotation it crossed the
    slack 100 n eps.  So the n-by-r block D^(-1/2) W Sigma_r is stepped by
    exp(-hA) itself, n^2 r flops per step, and sigma_1 is read from D^(1/2)
    times it; then Y_k = X_k - R_k F V.

    v is stepped in full, v_k = exp(-h_k A) v_(k-1).  Each product adds one
    product's rounding, so the error grows linearly with the number of steps.

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
    # A distinct step h keeps [exp(-hA), M_h or None] until its last use on the grid.
    cache: dict[float, list] = {}
    root_measure = np.sqrt(op.measure_vector)[:, None]
    block = left = right = None
    frame = 1.0
    op_norms, state_norms = np.ones_like(times), np.empty_like(times)
    for k, (t, h) in enumerate(zip(times.tolist(), steps)):
        entry = cache.pop(h) if h in cache else [_propagator(op, h), None]
        if last_use[h] > k:
            cache[h] = entry
        step = entry[0]
        v = _finite(step @ v, f"exp(-{t} A) v")
        if h > 0.0 and block is None:
            w, sigma = _range_basis(op, step, t)
            if 2 * len(sigma) < op.n:
                left, right, block = root_measure * w, w / root_measure, np.diag(sigma)
            else:  # Step D^(-1/2) W Sigma_r by exp(-hA) itself; the docstring says why.
                frame, block = root_measure, w * (sigma / root_measure)
        elif h > 0.0 and left is None:
            block = step @ block
        elif h > 0.0:
            if entry[1] is None:
                entry[1] = _finite(left.T @ (step @ right), f"exp(-{h} A)")
            block = entry[1] @ block
        if block is not None:
            op_norms[k] = _largest_singular_value(frame * block, f"exp(-{t} A)")
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
