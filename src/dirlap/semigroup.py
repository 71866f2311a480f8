"""Heat semigroup exp(-tA) and resolvent bounds for truncated operators.

On accretive truncations the semigroup is a contraction in the weighted
norm, the resolvent satisfies ||(A + lambda)^{-1}|| <= 1 / Re(lambda) on the
right half-plane, and a positive lower bound on the real part of the
numerical range turns contraction into exponential decay.  All norms are
plain 2-norms in the frame of a = D^(1/2) A D^(-1/2), D = diag(m), which
``operators._standard_entries`` alone forms: f -> D^(1/2) f maps ell^2(m)
isometrically onto ell^2, so exp(-tA) in the weighted norm is exp(-ta) in
the plain one, and scaling-and-squaring of a is backward stable relative to
||a||_2, the weighted norm of A (Higham, *SIAM J. Matrix Anal. Appl.* 26, 2005).

A single time t forms one propagator P = exp(-ta) by scaling-and-squaring
(exact to rounding at the intended sizes, a few thousand rows at most).  Its
norm sigma_1(P) is the square root of the top eigenvalue of P^T P (one full
symmetric eigenvalue solve, no SVD), with P scaled by a power of two so that
P^T P stays in range.  A time grid start + k step forms at most two
scaling-and-squarings, exp(-start a) and exp(-step a), not one per time.
It does not carry the n-by-n propagator.  A randomized range finder with an
explicitly computed residual finds the r singular directions of its first
nonzero step above n eps sigma_1, in O(n^2 r) flops, and falls back to the
full SVD when r is near n (the skew part, tiny steps).  All propagators
commute, so each later step maps those directions into themselves, up to
n eps sigma_1.  The grid steps the r-by-r block W^T Q_h W, formed once, when
r is below n / 2, and the n-by-r block of the SVD otherwise.  The norm is
read from the r-by-r Gram matrix.  The state D^(1/2) v0 is stepped on its own.
:func:`evolve_trace` returns the trace as the JSON object ``evolve`` emits.

Two paths: a truncation of band width w with 13 w < n - 1 (a ladder) takes
:func:`_banded_expm` when ||ta||_1 > theta_13, every other input
``scipy.linalg.expm``.  The banded step forms the Pade-13 polynomials on the
band, takes s from Al-Mohy & Higham's scaling rule, solves for the Pade
factor P by banded LU, and squares P s times, in row windows while its
powers are numerically banded.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .graph import _EPS, GraphError, NumericError, _finite, _indices, _tolerance
from .operators import TruncatedOperator, _standard_entries, similarity_to_standard

__all__ = [
    "operator_norm_expm",
    "resolvent_norm",
    "evolve_trace",
    "positivity_check",
]

# Columns of the first range sketch of a grid's first nonzero step; a rejected sketch at least doubles them.
_SKETCH = 32
# Rows per block of the explicit sketch residual.
_BLOCK_ROWS = 64
# Rows per block of a windowed squaring, and the share of P its windows may cover before it is squared densely.
# The benchmark ladder's 12 squarings (n = 299, 2-vCPU VM, BLAS on one thread) took 8.8 ms at 32 rows and 0.7,
# against 19.6 ms dense; with FTZ/DAZ 7.9 against 9.6 ms. 48 rows did as well; 64 rows or 0.5 took 0.3-0.6 ms longer.
_SQUARE_ROWS = 32
_SQUARE_SHARE = 0.7
# The Pade-13 coefficients b_0..b_13, and theta_13, the largest ||X||_1 (or eta of the scaling rule) it takes unscaled.
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0, 129060195264000.0,
           10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152
# 1/|c_27|, the first coefficient of the Pade-13 backward-error series, which the ell term reads (Al-Mohy & Higham 2009).
_C27 = 113250775606021113483283660800000000.0


def _check_time(t: float) -> None:
    """A :class:`GraphError` unless t is finite and nonnegative (the semigroup is one-sided)."""
    if not math.isfinite(t):
        raise GraphError(f"time must be finite, got {t}")
    if t < 0:
        raise GraphError("the semigroup is one-sided: t must be >= 0")


def _propagator(op: TruncatedOperator, t: float) -> np.ndarray:
    """exp(-ta), a = D^(1/2) A D^(-1/2), as a dense matrix; t must be finite and nonnegative.

    :func:`_banded_expm` forms it when the stored band width w has 13 w < n - 1 and
    ||ta||_1 > theta_13; else, for wide bands and steps too short to square, ``scipy.linalg.expm``.
    A subnormal entry of a is a :class:`NumericError`, at t = 0 too.
    """
    _check_time(t)
    entries = _standard_entries(op)
    if t == 0.0:
        return np.eye(op.n)
    width = int(np.abs(op._entry_rows() - op.indices).max(initial=0))
    if 13 * width < op.n - 1:
        if not math.isfinite(norm := t * float(np.bincount(op.indices, np.abs(entries), op.n).max())):
            raise NumericError(f"||{t} A||_1 is not finite")
        if norm > _THETA13:
            return _finite(_banded_expm(op, entries, t, norm, width), f"exp(-{t} A)")
    return _finite(scipy.linalg.expm(-t * similarity_to_standard(op)), f"exp(-{t} A)")


def _band_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for band matrices stored by diagonals, whose widths are below n.

    A band of width k is a (2k + 1)-by-n array whose row k + d holds the
    diagonal d, entry (i, i + d) in column i, with zeros where i + d falls
    outside the matrix.  The product of widths a and b has width a + b and
    costs 2a + 1 passes over a (2b + 1)-by-n array, one per diagonal of x.
    """
    a, b, n = len(x) // 2, len(y) // 2, x.shape[1]
    out = np.zeros((2 * (a + b) + 1, n))
    for d in range(-a, a + 1):
        lo, hi = max(0, -d), min(n, n - d)
        out[a + d : a + d + 2 * b + 1, lo:hi] += x[a + d, lo:hi] * y[:, lo + d : hi + d]
    return out


def _band_sum(identity: float, *terms: tuple[float, np.ndarray]) -> np.ndarray:
    """identity * I plus the sum of c M over the (c, M) terms, stored by diagonals at the width of the widest M."""
    width = max(len(m) for _, m in terms)
    out = np.zeros((width, terms[0][1].shape[1]))
    out[width // 2] = identity
    for c, m in terms:
        k = (width - len(m)) // 2
        out[k : width - k] += c * m
    return out


def _column_sums(band: np.ndarray) -> np.ndarray:
    """The column sums of a band stored by diagonals."""
    width, n = band.shape
    return np.bincount((np.arange(width)[:, None] + np.arange(n)).ravel(), band.ravel())[width // 2 :][:n]


def _dense(band: np.ndarray) -> np.ndarray:
    """The n-by-n matrix of a band stored by diagonals."""
    k, n = len(band) // 2, band.shape[1]
    out = np.zeros((n, n))
    flat = out.reshape(-1)
    for d in range(-min(k, n - 1), min(k, n - 1) + 1):
        lo, hi = max(0, -d), min(n, n - d)
        flat[lo * (n + 1) + d : hi * (n + 1) + d : n + 1] = band[k + d, lo:hi]
    return out


def _squarings(x: np.ndarray, x6: np.ndarray, x8: np.ndarray, x10: np.ndarray, s: int) -> int:
    """The number of squarings that Al-Mohy & Higham's rule picks for X = 2^-s (-ta), from the bands of X^k.

    eta = min(max(d6, d8), max(d8, d10)), with d_k = ||X^k||_1^(1/k) read
    exactly from the bands, bounds the backward error of the Pade-13 step
    as ||X||_1 does, and is smaller for a non-normal X.  The count is the
    least s' >= 0 with 2^(s - s') eta <= theta_13, plus the ell term, the
    squarings that keep alpha = || |X'|^27 ||_1 / (||X'||_1 |c_27|^-1) at
    X' = 2^(s - s') X below the unit roundoff u = 2^-53 (*SIAM J. Matrix
    Anal. Appl.* 31, 2009, Algorithm 5.1).  || |X|^27 ||_1 comes from 9
    products of a row vector with the band |X|^3.
    """
    d6, d8, d10 = (_column_sums(np.abs(p)).max() ** (1 / k) for p, k in ((x6, 6), (x8, 8), (x10, 10)))
    eta = min(max(d6, d8), max(d8, d10))
    fewer = max(s + math.ceil(math.log2(eta / _THETA13)), 0) if eta > 0.0 else 0
    magnitude, power = np.abs(x), np.ones(x.shape[1])
    cube = _band_product(magnitude, _band_product(magnitude, magnitude))
    for _ in range(9):
        power = _column_sums(cube * power)
    if not power.max() > 0.0:
        return fewer
    # log2(alpha / u) at X' = 2^(s - fewer) X, in logarithms, so that no power of X' can overflow.
    excess = 26 * (s - fewer) + math.log2(power.max() / _column_sums(magnitude).max() / _C27) + 53
    return fewer + max(math.ceil(excess / 26), 0)


def _banded_expm(op: TruncatedOperator, entries: np.ndarray, t: float, norm: float, w: int) -> np.ndarray:
    """exp(-ta) for band width w, from the stored ``entries`` of a, by scaling and squaring of the Pade-13 approximant.

    X = 2^-s (-ta), with s = ceil(log2(||ta||_1 / theta_13)), has ||X||_1 <=
    theta_13 (Higham, *SIAM J. Matrix Anal. Appl.* 26, 2005).  X and its even
    powers up to X^10 are formed on the band, stored by diagonals (X^k has
    width kw), each X^(2j+2) as X^2 X^(2j).  :func:`_squarings` reads the
    rule's count from them, and the powers are rescaled to it by powers of
    two, exactly.  The Pade numerator V + U and denominator V - U, of width
    13 w, are formed on the band too: U = X (X^2 (b13 X^10 + b11 X^8 +
    b9 X^6) + b7 X^6 + b5 X^4 + b3 X^2 + b1 I), and V alike.  So only V + U
    and the s squarings touch n-by-n arrays.  LAPACK's banded LU (``gbsv``)
    solves P (V - U) = V + U, the same P as (V - U) P = V + U because U and V
    commute: the diagonals of V - U, stored as here, are LAPACK's band
    layout of its transpose, and the solution overwrites V + U.  s squarings
    by :func:`_square`, each dense or in row windows, give exp(-ta) = P^(2^s).
    """
    b = _PADE13
    s = math.ceil(math.log2(norm / _THETA13))
    rows = op._entry_rows()
    x = np.zeros((2 * w + 1, op.n))
    x[op.indices - rows + w, rows] = np.ldexp(-t * entries, -s)
    x2 = _band_product(x, x)
    x4 = _band_product(x2, x2)
    x6 = _band_product(x2, x4)
    x8 = _band_product(x2, x6)
    x10 = _band_product(x2, x8)
    squarings = _squarings(x, x6, x8, x10, s)
    for k, power in ((1, x), (2, x2), (4, x4), (6, x6), (8, x8), (10, x10)):
        np.ldexp(power, k * (s - squarings), out=power)
    u = _band_product(x2, _band_sum(0.0, (b[13], x10), (b[11], x8), (b[9], x6)))
    u = _band_product(x, _band_sum(b[1], (1.0, u), (b[7], x6), (b[5], x4), (b[3], x2)))
    v = _band_product(x2, _band_sum(0.0, (b[12], x10), (b[10], x8), (b[8], x6)))
    v = _band_sum(b[0], (1.0, v), (b[6], x6), (b[4], x4), (b[2], x2))
    k = len(u) // 2
    try:
        p = scipy.linalg.solve_banded(
            (k, k), _band_sum(0.0, (1.0, v), (-1.0, u)), _dense(_band_sum(0.0, (1.0, v), (1.0, u))).T,
            overwrite_b=True, check_finite=False,
        ).T
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"the Pade step of exp(-{t} A) failed: {exc}") from exc
    spare = np.empty_like(p)
    for _ in range(squarings):
        p, spare = _square(p, spare), p
    return p


def _square(p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """p @ p, into ``out``: one squaring of the Pade step, without the part of P below a cut.

    The powers of a banded P are numerically banded: the entries of the
    exponential of a band matrix decay super-exponentially away from the
    diagonal (Iserles, *NZ J. Math.* 29, 2000; Benzi & Golub, *BIT* 39,
    1999).  With the cut u max|diag P| / n <= u max|P| / n, u = 2^-53, each
    block of ``_SQUARE_ROWS`` rows gets the column window that holds its own
    columns and every entry not below the cut; a non-finite entry counts as
    not below it.  A block's rows of the product are then one product
    P[rows, window] P[window, c0:c1], with [c0, c1) the union of the windows
    of the blocks that meet its window, and zero outside [c0, c1).  Every
    dropped term P_ik P_kj has a factor below the cut, so the squaring's
    extra error has 1-norm at most 2 n cut ||P||_1 <= 2 u ||P||_1^2, about
    2 / n of the product's own rounding bound gamma_n ||P||_1^2.  P is
    squared densely, as ``np.matmul``, when a corner entry is not below the
    cut or when the windows cover more than ``_SQUARE_SHARE`` of it.
    """
    n = len(p)
    cut = 0.5 * _EPS * float(np.abs(p.diagonal()).max()) / n
    if not (abs(p[0, -1]) < cut and abs(p[-1, 0]) < cut):
        return np.matmul(p, p, out=out)
    starts = np.arange(0, n, _SQUARE_ROWS)
    ends = np.minimum(starts + _SQUARE_ROWS, n)
    lo, hi = np.empty_like(starts), np.empty_like(starts)
    for b, (r0, r1) in enumerate(zip(starts, ends)):
        kept = np.flatnonzero(~(np.abs(p[r0:r1]).max(axis=0) < cut))
        lo[b], hi[b] = kept.min(initial=r0), kept.max(initial=r1 - 1) + 1
    if ((ends - starts) * (hi - lo)).sum() > _SQUARE_SHARE * n * n:
        return np.matmul(p, p, out=out)
    for r0, r1, m0, m1 in zip(starts, ends, lo, hi):
        meeting = slice(m0 // _SQUARE_ROWS, (m1 - 1) // _SQUARE_ROWS + 1)
        c0, c1 = lo[meeting].min(), hi[meeting].max()
        np.matmul(p[r0:r1, m0:m1], p[m0:m1, c0:c1], out=out[r0:r1, c0:c1])
        out[r0:r1, :c0] = 0.0
        out[r0:r1, c1:] = 0.0
    return out


def _unit_scaled(q: np.ndarray) -> tuple[np.ndarray, int]:
    """2^-e q and e, for the power of two 2^-e that brings max |q| into [1/2, 1); e = 0 when q is all zero or empty."""
    e = math.frexp(float(np.abs(q).max(initial=0.0)))[1]
    return np.ldexp(q, -e), e


def _largest_singular_value(q: np.ndarray, what: str) -> float:
    """sigma_1(q) = sqrt(lambda_max(q^T q)) for a real n-by-r block q.

    q is first scaled to unit size (:func:`_unit_scaled`), so q^T q neither
    underflows nor overflows and the value scales exactly with q; 0 if q is.
    One full symmetric eigenvalue solve of the r-by-r Gram matrix (LAPACK's
    QR iteration, ``driver="ev"``) replaces an SVD.  Unlike bisection for
    the top eigenvalue alone, it also converges when every eigenvalue lies
    within rounding of the others, as for exp(-ta) within ~1e-21 of I.
    """
    q, e = _unit_scaled(_finite(q, what))
    if not q.any():
        return 0.0
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
    """The thin SVD U, sigma, V^T of ``matrix``, a block formed from exp(-ta)."""
    try:
        return scipy.linalg.svd(matrix, full_matrices=False, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular values of exp(-{t} A) failed: {exc}") from exc


def _range_basis(step: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """W (n-by-r, orthonormal) and sigma_1..sigma_r with Q V = W Sigma_r + F V, ||F||_2 <= n eps sigma_1.

    Q = exp(-ta) is the step, in the frame of a.  V has r orthonormal
    columns, and F is what the basis drops.  A randomized range finder (Halko,
    Martinsson & Tropp, *SIAM Review* 53, 2011) sketches Y = Q Omega, with a
    Gaussian Omega of fixed seed from numpy's legacy ``RandomState``, whose
    stream numpy keeps frozen.  An economic Householder QR orthonormalizes Y
    to U (n-by-k), to working accuracy whatever Y's conditioning.  The small
    k-by-n block B = U^T Q has the SVD U_B Sigma V_B^T, and no SVD input has
    n rows unless it is the full one.  The residual
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
    ||a|| h far below 1) pays one sketch of ``_SKETCH`` columns before that
    SVD.  An all-zero step has r = 0.  A copy of Q is first scaled to unit
    size by :func:`_unit_scaled`, and sigma is scaled back: W and sigma are
    unchanged while values stay in range, and the cut n eps sigma_1 cannot
    underflow, even when sigma_1 is subnormal.
    """
    q, e = _unit_scaled(_finite(step, f"exp(-{t} A)"))
    n = len(q)
    rng = np.random.RandomState(0)
    u, b = np.empty((n, 0)), np.empty((0, n))
    k = _SKETCH
    while 2 * k < n:
        y = q @ rng.standard_normal((n, k - u.shape[1]))
        for _ in range(2):
            y = scipy.linalg.qr(y - u @ (u.T @ y), mode="economic", check_finite=False)[0]
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


def operator_norm_expm(op: TruncatedOperator, t: float) -> float:
    """Weighted operator norm of exp(-tA): sigma_1 of the propagator exp(-ta), from its Gram matrix.

    Its rounding grows with ||a|| t: scaling-and-squaring forms exp(-ta)
    from 2^s squarings of a Pade approximant, with 2^s ~ ||a|| t.  On a
    rotation (the skew part) with ||a|| t ~ 16 the norm came out 1.5e-13
    above 1, over the slack 100 n eps of ``evolve``; stepping a grid of
    short steps, as :func:`evolve_trace` does, rounds far less.
    """
    return _largest_singular_value(_propagator(op, t), f"exp(-{t} A)")


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
    start: float,
    step: float,
    count: int,
    lambda0: float | None = None,
) -> dict:
    """Evolve v0 under exp(-tA) over the time grid t_k = start + k step, k < count.

    Returns the JSON object ``evolve`` emits before its envelope, of lists:
    the ``times``, the weighted norms of exp(-tA) (``operator_norms``) and of
    exp(-tA) v0 (``state_norms``), the ``bounds`` min(1, exp(-lambda0 t)) (1
    without ``lambda0``), the ``flagged`` indices whose norm exceeds its bound
    by more than the slack 100 n eps, then ``lambda0`` and ``ok`` (none flagged).

    The grid forms at most two matrix exponentials: exp(-start A) for t_0,
    the identity when start = 0, and, when count > 1, exp(-step A), which
    steps every later time by the semigroup law exp(-t_k A) =
    exp(-step A) exp(-t_(k-1) A).  So the trace is exp(-A (start + k step))
    at the exact nominal times, up to rounding; ``times`` reports them
    rounded to floats, as ``start + step * arange(count)``.  Write h_k for
    the step to t_k: start for k = 0, step after it.

    In the frame of a, each step is Q_h = exp(-ha) (:func:`_propagator`).
    Until the first nonzero step Q_1 the propagator is the identity (norm 1).
    After it, exp(-t_k a) = R_k Q_1, with R_k the product of the later steps.
    ``_range_basis`` gives Q_1 V = W Sigma_r + F V, with W and V orthonormal
    and ||F|| <= n eps sigma_1.  The trace reads sigma_1 of X_k = R_k Q_1 V.
    As Q_1 (I - V V^T) = F (I - V V^T), this is within ||R_k|| n eps sigma_1
    of ||R_k Q_1||, the rounding of the dense product itself.

    With 2r < n, X_k is tracked inside span W by Y_k = W C_k.  Here C_1 =
    Sigma_r and C_k = M_(h_k) C_(k-1) is r-by-r, with M_h = W^T Q_h W.
    M_h is formed once, for h = step, in 2 n^2 r flops, with no n-by-n
    temporary.  Each later step then costs r^3 flops, not n^2 r, and
    sigma_1(Y_k) = sigma_1(C_k).  Let P = W W^T, so Y_k = P Q_(h_k) Y_(k-1).
    The part of X_k that leaks out of span W stays small because every
    propagator commutes with Q_1:
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
    slack 100 n eps.  So the n-by-r block W Sigma_r is stepped by Q_h
    itself, n^2 r flops per step; then Y_k = X_k - R_k F V.

    u = D^(1/2) v0 is stepped in full, u_k = Q_(h_k) u_(k-1); ||u_k|| is the
    weighted norm of exp(-t_k A) v0.  Each product adds one product's
    rounding, so the error grows linearly with the number of steps.

    A subnormal entry of a is a :class:`NumericError`, as in
    :func:`dirlap.spectral.numrange_boundary`: no slack covers its rounding.
    """
    start, step = float(start), float(step)
    if not (0.0 <= start < math.inf and 0.0 < step < math.inf and count >= 1):
        raise GraphError(f"time grid needs finite start >= 0, finite step > 0 and count >= 1: {start}, {step}, {count}")
    if lambda0 is not None and not math.isfinite(lambda0):
        raise GraphError(f"decay rate lambda0 must be finite, got {lambda0}")
    indices = _indices(count, "the time grid")
    if not math.isfinite(last := start + step * (count - 1)):
        raise GraphError(f"time grid must be finite, got last time {last}")
    times = start + step * indices

    v0 = np.asarray(v0)
    if v0.shape != (op.n,):
        raise GraphError(f"expected a vector of length {op.n}")
    u = np.sqrt(op.measure_vector) * v0
    block = stepped = None
    op_norms, state_norms = np.ones_like(times), np.empty_like(times)
    for k, t in enumerate(times.tolist()):
        if k < 2:
            h = start if k == 0 else step
            propagator = _propagator(op, h)
        u = _finite(propagator @ u, f"exp(-{t} A) v")
        if h > 0.0 and block is None:
            w, sigma = _range_basis(propagator, t)
            # With 2r >= n, W Sigma_r is stepped by exp(-ha) itself; the docstring says why.
            small = 2 * len(sigma) < op.n
            block = np.diag(sigma) if small else w * sigma
        elif h > 0.0:
            if stepped is None:
                stepped = _finite(w.T @ (propagator @ w), f"exp(-{h} A)") if small else propagator
            block = stepped @ block
        if block is not None:
            op_norms[k] = _largest_singular_value(block, f"exp(-{t} A)")
        state_norms[k] = math.sqrt(np.sum(np.abs(u) ** 2))
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
    """True when exp(-sA) is entrywise nonnegative for every s in [0, t].

    For t > 0 that holds exactly when no off-diagonal entry of A is positive
    (Varga, Matrix Iterative Analysis, 2nd ed., 2000), so the signs of the
    stored entries decide it in O(nnz) with no exponential; at t = 0,
    exp(0) = I.  Defined for the Laplacian-like kinds; the skew part
    generates rotations, not heat flow.  t must be finite and >= 0 (a
    :class:`GraphError`), and a non-finite entry is a :class:`NumericError`.
    """
    if op.kind == "skew_part":
        raise GraphError("positivity is not defined for the skew part")
    _check_time(t)
    data = _finite(op.data, "the operator")
    return t == 0.0 or bool(np.all(data[op.indices != op._entry_rows()] <= 0.0))
