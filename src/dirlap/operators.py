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

A truncation is stored sparse, as the CSR arrays ``data``, ``indices`` and
``indptr`` that :func:`assemble` builds straight from the graph's CSR slots;
:meth:`TruncatedOperator.dense` forms the n-by-n matrix of A for dumps.

The inner product is the measure-weighted one, <u, v> = sum m(x) u(x)
conj(v(x)).  ``_standard_entries`` alone forms a = D^(1/2) A D^(-1/2), whose
standard numerical range and norms equal the weighted ones of A; the
spectral frame reads its entries, and :func:`similarity_to_standard` places
them in the dense array that the matrix exponential and the resolvent read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Ball, DirectedGraph, GraphError, NumericError, _not_positive, _read_only, _row_sums, _vertex_array

__all__ = [
    "KINDS",
    "TruncatedOperator",
    "assemble",
    "similarity_to_standard",
    "green_residual_batch",
]

KINDS = ("laplacian", "adjoint", "symmetric_part", "skew_part")


@dataclass(frozen=True, init=False)
class TruncatedOperator:
    """A real matrix acting on functions supported in a ball, stored as CSR arrays.

    Invariant: the stored pattern is symmetric and holds the whole diagonal
    (a stored value may be 0.0), so the spectral frame reads a^T on it.
    ``matrix`` is a dense square array, which stores its entries where it or
    its transpose is nonzero, plus the diagonal; or the triple ``(data,
    indices, indptr)`` in the layout of ``scipy.sparse.csr_matrix``, which
    must hold such a pattern with ascending column indices in each row and no
    duplicates (the frame raises :class:`GraphError` otherwise).  Only these
    three read-only arrays are kept; :meth:`dense` forms the n-by-n array.

    ``measure_vector[i]`` is the measure of row i, defining the weighted
    inner product.  ``ball`` is the ball the rows come from: row i is its
    i-th vertex (see :attr:`vertices`).  It is None for synthetic operators
    built in tests or edge cases, whose row i is vertex i.
    Instances are immutable and safe to share.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    measure_vector: np.ndarray
    kind: str
    ball: Ball | None

    def __init__(self, matrix, measure_vector, kind: str, ball: Ball | None = None):
        if isinstance(matrix, tuple):
            data, indices, indptr = (np.array(a) for a in matrix)
        else:
            dense = np.array(matrix, dtype=float)
            if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
                raise GraphError("operator matrix must be square")
            stored = dense != 0.0
            rows, indices = np.nonzero(stored | stored.T | np.eye(len(dense), dtype=bool))
            data = dense[rows, indices]
            indptr = np.searchsorted(rows, np.arange(len(dense) + 1))
        n = len(indptr) - 1
        measure = _read_only(np.array(measure_vector, dtype=float))
        if measure.shape != (n,) or _not_positive(measure).any():
            raise GraphError("measure vector must be finite and positive with one entry per row")
        if kind not in KINDS:
            raise GraphError(f"unknown operator kind {kind!r}")
        fields = {
            "data": _read_only(np.asarray(data, dtype=float)),
            "indices": _read_only(np.asarray(indices, dtype=np.intp)),
            "indptr": _read_only(np.asarray(indptr, dtype=np.intp)),
            "measure_vector": measure,
            "kind": kind,
            "ball": ball,
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.measure_vector)

    @property
    def vertices(self) -> np.ndarray:
        """The host vertex of each row: the ball's vertices, else ``arange(n)``."""
        return np.arange(self.n) if self.ball is None else self.ball.vertices

    def _entry_rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def dense(self) -> np.ndarray:
        """The n-by-n matrix as a new dense array."""
        matrix = np.zeros((self.n, self.n))
        matrix[self._entry_rows(), self.indices] = self.data
        return matrix

    def row_of(self, vertex: int) -> int:
        vertices = self.vertices
        row = int(np.searchsorted(vertices, vertex))
        if row == self.n or vertices[row] != vertex:
            raise GraphError(f"vertex {vertex} is not in the truncation")
        return row

    def apply(self, values: np.ndarray) -> np.ndarray:
        """The matrix times a vector, or times each column of a 2-D array."""
        values = np.asarray(values)
        terms = self.data.reshape((-1,) + (1,) * (values.ndim - 1)) * values[self.indices]
        out = np.zeros((self.n,) + values.shape[1:], dtype=terms.dtype)
        np.add.at(out, self._entry_rows(), terms)
        return out


def assemble(g: DirectedGraph, ball_: Ball, kind: str) -> TruncatedOperator:
    """Assemble the truncated operator of the given kind on a ball, straight from the CSR slots.

    Row i stores its diagonal and one entry per slot joining two ball vertices;
    that pattern is symmetric, and an entry is 0.0 where only the reverse edge exists.
    """
    if kind not in KINDS:
        raise GraphError(f"unknown operator kind {kind!r}; expected one of {KINDS}")
    rows = _vertex_array(g, ball_.vertices)
    n = len(rows)
    measures = g.measures[rows]
    pos = np.full(len(g), -1)
    pos[rows] = np.arange(n)
    # Slots joining two ball vertices; the diagonal keeps every host slot.
    inside = np.flatnonzero((pos[g._rows] >= 0) & (pos[g._nbr] >= 0))
    slot_measures = g.measures[g._rows[inside]]

    def entries(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Each off-diagonal -b/m is bounded by its row's diagonal, which _row_sums checks is finite.
        return _row_sums(g, rows, weights, per_measure=True), 0.0 - weights[inside] / slot_measures

    if kind == "laplacian":
        diag, off = entries(g._b_out)
    elif kind == "adjoint":
        diag, off = entries(g._b_in)
    else:
        (lap_diag, lap_off), (adj_diag, adj_off) = entries(g._b_out), entries(g._b_in)
        # Halving before adding keeps every entry finite, as in graph._b_sym.
        if kind == "symmetric_part":
            diag, off = lap_diag / 2.0 + adj_diag / 2.0, lap_off / 2.0 + adj_off / 2.0
        else:
            diag, off = lap_diag / 2.0 - adj_diag / 2.0, lap_off / 2.0 - adj_off / 2.0
    every = np.arange(n)
    row = np.concatenate([pos[g._rows[inside]], every])
    col = np.concatenate([pos[g._nbr[inside]], every])
    order = np.lexsort((col, row))
    csr = (np.concatenate([off, diag])[order], col[order], np.searchsorted(row[order], np.arange(n + 1)))
    return TruncatedOperator(csr, measures, kind, ball_)


# -- weighted geometry ---------------------------------------------------------


def similarity_to_standard(op: TruncatedOperator) -> np.ndarray:
    """D^(1/2) A D^(-1/2) with D = diag(m), as a dense array: the entries of ``_standard_entries`` in place.

    The standard numerical range and operator norm of the result equal the
    measure-weighted ones of ``op``.  A subnormal entry is a :class:`NumericError`.
    """
    matrix = np.zeros((op.n, op.n))
    matrix[op._entry_rows(), op.indices] = _standard_entries(op)
    return matrix


def _standard_entries(op: TruncatedOperator) -> np.ndarray:
    """The stored entries of D^(1/2) A D^(-1/2), in the order of ``op.data``.

    A subnormal entry is a :class:`NumericError`: its rounding is absolute,
    not relative to ||A||, so no tolerance covers it.  Every verdict on an
    operator, the heat semigroup's included, calls this.
    """
    d = np.sqrt(op.measure_vector)
    values = op.data * d[op._entry_rows()] / d[op.indices]
    if np.any((values != 0.0) & (np.abs(values) < np.finfo(float).tiny)):
        raise NumericError("the operator has subnormal entries, whose rounding no tolerance covers")
    return values


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
    """Green identity residuals, one per column of f and h:

        |<Lf, h> + conj(<Lh, f>) - sum_edges b(x,y)(f(x)-f(y)) conj(h(x)-h(y))|.

    Both sides are exact for f, h supported in the interior of the ball: the
    left-hand side uses the truncated Laplacian, the right-hand side the raw
    edge sum over the whole host graph.  Under the Kirchhoff balance the
    conjugated pairing equals the adjoint pairing <L'f, h>, and with f = h
    the identity reduces to 2 Re <Lf, f> = sum b(x,y) |f(x)-f(y)|^2 >= 0.
    """
    n = len(ball_.vertices)
    F = _as_columns(f, n)
    H = _as_columns(h, n)
    if F.shape != H.shape:
        raise GraphError("f and h must have matching shapes")

    boundary_rows = ball_.dist[ball_.vertices] == ball_.radius
    if np.any(F[boundary_rows] != 0) or np.any(H[boundary_rows] != 0):
        raise GraphError("the Green identity needs f and h supported in the ball interior")

    op = assemble(g, ball_, "laplacian")
    m = op.measure_vector
    lf = op.apply(F)
    lh = op.apply(H)
    lhs = np.sum(m[:, None] * lf * np.conj(H), axis=0) + np.conj(
        np.sum(m[:, None] * lh * np.conj(F), axis=0)
    )

    # Edge sum over all host directed edges, with f, h extended by zero.
    fh = np.zeros((len(g), F.shape[1]), dtype=complex)
    hh = np.zeros((len(g), F.shape[1]), dtype=complex)
    fh[ball_.vertices] = F
    hh[ball_.vertices] = H
    edges = np.flatnonzero(g._b_out)
    src, dst, w = g._rows[edges], g._nbr[edges], g._b_out[edges]
    df = fh[src] - fh[dst]
    dh = hh[src] - hh[dst]
    rhs = np.sum(w[:, None] * df * np.conj(dh), axis=0)
    return np.abs(lhs - rhs)
