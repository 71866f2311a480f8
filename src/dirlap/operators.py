"""Finite matrix truncations of the graph Laplacian in weighted geometry.

For a ball B of the host graph, the truncated Laplacian acts on functions
supported in B with the Dirichlet convention and a *full* diagonal: row x
keeps the complete strength sum over all host neighbors, including the ones
outside the ball.  The matrix action then coincides exactly with the host
operator on every function supported in the ball, so the algebraic identities
below hold to rounding, not asymptotically.

Kinds:

* ``"laplacian"``       A[x][x] = out_strength(x)/m(x),  A[x][y] = -b(x,y)/m(x)
* ``"adjoint"``         the same with b(y,x) in place of b(x,y)
* ``"symmetric_part"``  (laplacian + adjoint) / 2, the Laplacian of the
                        symmetrized weight
* ``"skew_part"``       (laplacian - adjoint) / 2

The inner product is the measure-weighted one, <u, v> = sum m(x) u(x)
conj(v(x)).  :func:`similarity_to_standard` maps a truncation to the matrix
whose standard numerical range and norms equal the weighted ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Ball, DirectedGraph, GraphError, _row_sums, _vertex_array

__all__ = [
    "KINDS",
    "TruncatedOperator",
    "assemble",
    "weighted_dot",
    "weighted_norm",
    "similarity_to_standard",
    "quadratic_form",
    "green_residual",
    "green_residual_batch",
]

KINDS = ("laplacian", "adjoint", "symmetric_part", "skew_part")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TruncatedOperator:
    """A real matrix acting on functions supported in a ball.

    ``vertices[i]`` is the host vertex of row i; ``measure_vector[i]`` its
    measure, defining the weighted inner product.  ``graph`` and ``ball`` are
    kept for provenance and may be None for synthetic operators built in
    tests or edge cases.  Instances are immutable and safe to share.
    """

    matrix: np.ndarray
    measure_vector: np.ndarray
    kind: str
    vertices: tuple[int, ...] = ()
    graph: DirectedGraph | None = None
    ball: Ball | None = None

    def __post_init__(self):
        matrix = _read_only(np.array(self.matrix, dtype=float))
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise GraphError("operator matrix must be square")
        measure = _read_only(np.array(self.measure_vector, dtype=float))
        if measure.shape != (matrix.shape[0],) or np.any(measure <= 0):
            raise GraphError("measure vector must be positive with one entry per row")
        if self.kind not in KINDS:
            raise GraphError(f"unknown operator kind {self.kind!r}")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "measure_vector", measure)
        if not self.vertices:
            object.__setattr__(self, "vertices", tuple(range(matrix.shape[0])))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def interior_rows(self) -> np.ndarray:
        """Row indices whose host vertex is interior to the ball."""
        if self.ball is None:
            return np.arange(self.n)
        return np.array([i for i, v in enumerate(self.vertices) if v in self.ball.interior], dtype=int)

    def row_of(self, vertex: int) -> int:
        try:
            return self.vertices.index(vertex)
        except ValueError:
            raise GraphError(f"vertex {vertex} is not in the truncation") from None

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.matrix @ values


def assemble(g: DirectedGraph, ball_: Ball, kind: str) -> TruncatedOperator:
    """Assemble the truncated operator of the given kind on a ball."""
    if kind not in KINDS:
        raise GraphError(f"unknown operator kind {kind!r}; expected one of {KINDS}")
    rows = _vertex_array(g, ball_.vertices)
    n = len(rows)
    measures = g.measures[rows]
    pos = np.full(len(g), -1)
    pos[rows] = np.arange(n)
    # Slots joining two ball vertices; the diagonal keeps every host slot.
    slot_rows = g._slot_rows()
    inside = np.flatnonzero((pos[slot_rows] >= 0) & (pos[g._nbr] >= 0))
    slot_measures = g.measures[slot_rows[inside]]

    def entries(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _row_sums(g, rows, weights) / measures, 0.0 - weights[inside] / slot_measures

    if kind == "laplacian":
        diag, off = entries(g._b_out)
    elif kind == "adjoint":
        diag, off = entries(g._b_in)
    else:
        (lap_diag, lap_off), (adj_diag, adj_off) = entries(g._b_out), entries(g._b_in)
        if kind == "symmetric_part":
            diag, off = (lap_diag + adj_diag) / 2.0, (lap_off + adj_off) / 2.0
        else:
            diag, off = (lap_diag - adj_diag) / 2.0, (lap_off - adj_off) / 2.0
    matrix = np.zeros((n, n))
    matrix[pos[slot_rows[inside]], pos[g._nbr[inside]]] = off
    matrix[np.diag_indices(n)] = diag
    return TruncatedOperator(matrix, measures, kind, tuple(ball_.vertices), g, ball_)


# -- weighted geometry ---------------------------------------------------------


def weighted_dot(u: np.ndarray, v: np.ndarray, measure: np.ndarray) -> complex:
    """<u, v> = sum m(x) u(x) conj(v(x))."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape or u.shape != np.asarray(measure).shape:
        raise GraphError("weighted_dot needs vectors and measure of equal length")
    return complex(np.sum(measure * u * np.conj(v)))


def weighted_norm(u: np.ndarray, measure: np.ndarray) -> float:
    return float(np.sqrt(np.sum(measure * np.abs(np.asarray(u)) ** 2)))


def similarity_to_standard(op: TruncatedOperator) -> np.ndarray:
    """D^(1/2) A D^(-1/2) with D = diag(m).

    The standard numerical range and operator norm of the result equal the
    measure-weighted ones of ``op``.
    """
    return _similar(op.matrix, op.measure_vector)


def _similar(matrix: np.ndarray, measure: np.ndarray) -> np.ndarray:
    """D^(1/2) M D^(-1/2) with D = diag(measure), for any matrix M acting on the ball."""
    d = np.sqrt(measure)
    return matrix * d[:, None] / d[None, :]


def quadratic_form(op: TruncatedOperator, values: np.ndarray) -> complex:
    """<A f, f> in the weighted inner product, for f normalized to norm 1."""
    values = np.asarray(values)
    nrm = weighted_norm(values, op.measure_vector)
    if nrm == 0.0:
        raise GraphError("quadratic form of the zero vector is undefined")
    f = values / nrm
    return weighted_dot(op.apply(f), f, op.measure_vector)


# -- Green identity -------------------------------------------------------------


def _as_columns(values: np.ndarray, n: int) -> np.ndarray:
    a = np.asarray(values)
    if a.ndim == 1:
        a = a[:, None]
    if a.shape[0] != n:
        raise GraphError(f"expected vectors of length {n}, got shape {a.shape}")
    return a


def green_residual_batch(
    g: DirectedGraph, ball_: Ball, f: np.ndarray, h: np.ndarray
) -> np.ndarray:
    """Green identity residuals for columns of f and h (see green_residual)."""
    n = len(ball_.vertices)
    F = _as_columns(f, n)
    H = _as_columns(h, n)
    if F.shape != H.shape:
        raise GraphError("f and h must have matching shapes")

    interior = ball_.interior
    boundary_rows = [i for i, v in enumerate(ball_.vertices) if v not in interior]
    if boundary_rows and (np.any(F[boundary_rows] != 0) or np.any(H[boundary_rows] != 0)):
        raise GraphError("green_residual needs f and h supported in the ball interior")

    op = assemble(g, ball_, "laplacian")
    m = op.measure_vector
    lf = op.matrix @ F
    lh = op.matrix @ H
    lhs = np.sum(m[:, None] * lf * np.conj(H), axis=0) + np.conj(
        np.sum(m[:, None] * lh * np.conj(F), axis=0)
    )

    # Edge sum over all host directed edges, with f, h extended by zero.
    fh = np.zeros((len(g), F.shape[1]), dtype=complex)
    hh = np.zeros((len(g), F.shape[1]), dtype=complex)
    rows = list(ball_.vertices)
    fh[rows] = F
    hh[rows] = H
    edges = np.flatnonzero(g._b_out)
    src, dst, w = g._slot_rows()[edges], g._nbr[edges], g._b_out[edges]
    df = fh[src] - fh[dst]
    dh = hh[src] - hh[dst]
    rhs = np.sum(w[:, None] * df * np.conj(dh), axis=0)
    return np.abs(lhs - rhs)


def green_residual(g: DirectedGraph, ball_: Ball, f: np.ndarray, h: np.ndarray) -> float:
    """|<Lf, h> + conj(<Lh, f>) - sum_edges b(x,y)(f(x)-f(y)) conj(h(x)-h(y))|.

    Both sides are exact for f, h supported in the interior of the ball: the
    left-hand side uses the truncated Laplacian, the right-hand side the raw
    edge sum over the whole host graph.  Under the Kirchhoff balance the
    conjugated pairing equals the adjoint pairing <L'f, h>, and with f = h
    the identity reduces to 2 Re <Lf, f> = sum b(x,y) |f(x)-f(y)|^2 >= 0.
    """
    return float(green_residual_batch(g, ball_, f, h)[0])
