"""Directed weighted graphs with vertex measures.

The central object is :class:`DirectedGraph`: a finite, weakly connected
graph carrying a strictly positive weight ``b(x, y)`` on every directed edge
and a strictly positive measure ``m(x)`` on every vertex.  Finite graphs here
usually stand for truncations of infinite ones, so every structural checker
takes an explicit set of *interior* vertices over which suprema are taken;
vertices polluted by the truncation boundary are simply left out by the
caller.

The graph is stored once, as a read-only undirected adjacency in CSR form:
row ``x`` owns the slots ``ptr[x]:ptr[x+1]``, slot ``k`` lies in row
``rows[k]``, names the neighbor ``nbr[k]`` (ascending within each row) and
carries the weight pair ``b(x, nbr[k])`` and ``b(nbr[k], x)``, with 0.0 for
an absent direction.  Every accessor and checker reads these arrays;
per-vertex sums add the slots of a row in ascending-neighbor order, with one
``np.bincount`` over ``rows``.

Every graph is built by one array core from vertex ids: a measure array and
the edges as source, target and weight arrays, validated with whole-array
checks.  The generators and :func:`symmetrize` call it directly; the label
constructor ``DirectedGraph(vertices, edges)`` interns the labels to ids and
converts the values first.  The graph keeps the distances from id 0 (every
generator's root) that its connectivity check computes.

Checkers implemented in this module:

* Kirchhoff balance: total incoming weight equals total outgoing weight,
* the (quadratic) asymmetry constant  ``sup_x (1/m(x)) sum_y |b(x,y)-b(y,x)|^2 / b'(x,y)``,
* the total (L1) asymmetry constant   ``sup_x (1/m(x)) sum_y |b(x,y)-b(y,x)|``,
* combinatorial distances and balls of the undirected skeleton,
* tent-shaped cutoff sequences with their exact per-vertex energy constant,
* the sphere-growth divergence criterion certifying that cutoffs exist.

All graph values are immutable after construction and safe to share across
concurrent readers; every checker is a pure function.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "GraphError",
    "UnknownVertexError",
    "TruncationError",
    "NumericError",
    "VertexId",
    "DirectedGraph",
    "Ball",
    "KirchhoffReport",
    "CutoffSequence",
    "DivergenceReport",
    "out_strength",
    "check_kirchhoff",
    "symmetrize",
    "check_asymmetry",
    "asymmetry_at",
    "check_total_asymmetry",
    "total_asymmetry_at",
    "combinatorial_distance",
    "ball",
    "full_ball",
    "build_cutoffs",
    "divergence_criterion",
    "assumption_report",
    "load_graph",
    "save_graph",
    "graph_from_dict",
    "graph_to_dict",
]

# Vertices are interned to dense integer ids; external names are kept as labels.
VertexId = int

_EPS = float(np.finfo(float).eps)


class GraphError(ValueError):
    """Invalid graph data or a violated precondition."""


class UnknownVertexError(GraphError):
    """A vertex id or label that does not belong to the graph."""


class TruncationError(GraphError):
    """The host graph is too small for the requested computation."""


class NumericError(RuntimeError):
    """A computed value is not finite, or an eigenvalue or factorization routine failed."""


def _finite(a: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise NumericError(f"{what} has non-finite entries")
    return a


def _indices(count: int, what: str) -> np.ndarray:
    """``np.arange(count)``; a count numpy refuses to allocate, before touching memory, is a GraphError.

    Just above 2^63 - 1 numpy's length overflows and it returns an empty array, so a short one is refused too.
    """
    try:
        indices = np.arange(count)
    except (MemoryError, ValueError):  # more bytes than the machine has, or than an array may index
        indices = None
    if indices is None or len(indices) < count:
        raise GraphError(f"{what} has {count:.3g} points, too many to allocate")
    return indices


def _tolerance(terms: int, scale: float) -> float:
    """Rounding slack 100 terms eps scale of a value formed from ``terms`` terms of size ``scale`` (Higham)."""
    return 100.0 * terms * _EPS * scale


def _float(value) -> float:
    """``float(value)``, or NaN when it does not convert, so that the array checks reject it."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _not_positive(values: np.ndarray) -> np.ndarray:
    """Mask of the values that are not finite and > 0 (NaN included)."""
    return ~((0.0 < values) & (values < math.inf))


class DirectedGraph:
    """Finite directed graph with positive edge weights and vertex measures.

    Parameters
    ----------
    vertices
        Iterable of ``(label, measure)`` pairs.  Labels must be unique
        strings, measures strictly positive reals.
    edges
        Iterable of ``(from_label, to_label, weight)`` triples with strictly
        positive weights.  Loops and duplicate edges are rejected.

    Every graph is built by one array core, :meth:`_from_arrays`, from
    vertex labels, a measure array and the edges as three arrays (source
    id, target id, weight).  It validates with whole-array checks: finite
    measures and weights > 0, ids in range, no loops, no duplicate edge, at
    least one incident undirected edge per vertex, and weak connectivity of
    the undirected skeleton.  Each error names the first faulty vertex or
    edge by position.  The generators and :func:`symmetrize` call the core
    directly; this constructor only interns the labels to ids and converts
    the values to floats, then calls it.  A vertex with no outgoing edge is
    accepted (it arises at truncation boundaries) but fails the Kirchhoff
    check, so it never hides inside an interior set.
    """

    __slots__ = ("_labels", "_index", "_m", "_ptr", "_rows", "_nbr", "_b_out", "_b_in", "_dist0")

    def __init__(self, vertices: Iterable[tuple[str, float]], edges: Iterable[tuple[str, str, float]]):
        vertices = [(str(label), m) for label, m in vertices]
        edges = list(edges)
        labels = [label for label, _ in vertices]
        index = dict(zip(labels, range(len(labels))))
        ends = [(index.get(str(src), -1), index.get(str(dst), -1)) for src, dst, _ in edges]
        self._build(
            labels,
            [_float(m) for _, m in vertices],
            [u for u, _ in ends],
            [v for _, v in ends],
            [_float(w) for _, _, w in edges],
            given=(vertices, edges),
        )

    @classmethod
    def _from_arrays(cls, labels: Sequence[str], measures, sources, targets, weights) -> DirectedGraph:
        """The graph on ``labels`` whose edge i runs from id ``sources[i]`` to id ``targets[i]``."""
        g = cls.__new__(cls)
        g._build(labels, measures, sources, targets, weights)
        return g

    def _build(self, labels, measures, sources, targets, weights, given=None) -> None:
        """Validate the arrays and store the CSR adjacency; ``given`` holds the raw
        ``(vertices, edges)`` of the label constructor, which the errors then quote."""
        labels = tuple(labels)
        n = len(labels)
        m_arr = np.array(measures, dtype=float)
        u = np.asarray(sources, dtype=np.int64)
        v = np.asarray(targets, dtype=np.int64)
        w = np.asarray(weights, dtype=float)
        index = dict(zip(labels, range(n)))
        if len(index) < n or _not_positive(m_arr).any():
            raise GraphError(_vertex_fault(labels, m_arr, given))
        if not n:
            raise GraphError("graph needs at least one vertex")
        if ((u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v) | _not_positive(w)).any():
            raise GraphError(_edge_fault(labels, u, v, w, given))

        # One slot per ordered pair of adjacent vertices, sorted by (row, neighbor):
        # edge u -> v fills b_out of slot (u, v) and b_in of slot (v, u).
        pairs = np.concatenate([u, v]) * n + np.concatenate([v, u])
        keys, slot = np.unique(pairs, return_inverse=True)
        b_out = np.zeros(len(keys))
        b_in = np.zeros(len(keys))
        b_out[slot[: len(u)]] = w
        b_in[slot[len(u) :]] = w
        # Every weight is > 0, so two edges share a slot exactly when fewer slots are filled.
        if np.count_nonzero(b_out) < len(u):
            raise GraphError(_edge_fault(labels, u, v, w, given))
        nbr = keys % n
        rows = np.floor_divide(keys, n, out=keys)  # the spent keys' buffer holds the rows
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])

        isolated = np.flatnonzero(np.diff(ptr) == 0)
        if isolated.size:
            raise GraphError(f"vertex {labels[isolated[0]]!r} has no incident edge")
        dist = _distances(ptr, nbr, 0)
        if dist.min() < 0:
            missing = labels[int(np.argmin(dist))]
            raise GraphError(f"graph is not weakly connected: vertex {missing!r} unreachable from {labels[0]!r}")

        for arr in (m_arr, ptr, rows, nbr, b_out, b_in, dist):
            arr.setflags(write=False)
        self._labels = labels
        self._index = index
        self._m = m_arr
        self._ptr = ptr
        self._rows = rows
        self._nbr = nbr
        self._b_out = b_out
        self._b_in = b_in
        self._dist0 = dist

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._labels)

    def __repr__(self) -> str:
        return f"DirectedGraph({len(self)} vertices, {self.edge_count} directed edges)"

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def measures(self) -> np.ndarray:
        """Vertex measures as a read-only array indexed by vertex id."""
        return self._m

    @property
    def max_degree(self) -> int:
        return int(np.diff(self._ptr).max())

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self._b_out))

    def vertex_ids(self) -> range:
        return range(len(self._labels))

    def require_vertex(self, x: VertexId) -> None:
        if not (isinstance(x, (int, np.integer)) and not isinstance(x, bool) and 0 <= x < len(self._labels)):
            raise UnknownVertexError(f"unknown vertex id {x!r}")

    def index(self, label: str) -> VertexId:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex label {label!r}") from None

    def label(self, x: VertexId) -> str:
        self.require_vertex(x)
        return self._labels[x]

    def measure(self, x: VertexId) -> float:
        self.require_vertex(x)
        return float(self._m[x])

    def weight(self, x: VertexId, y: VertexId) -> float:
        """Edge weight b(x, y), or 0.0 when the directed edge is absent."""
        self.require_vertex(x)
        self.require_vertex(y)
        hi = self._ptr[x + 1]
        k = bisect_left(self._nbr, y, self._ptr[x], hi)
        return float(self._b_out[k]) if k < hi and self._nbr[k] == y else 0.0

    def neighbors(self, x: VertexId) -> tuple[int, ...]:
        """Undirected neighbors, i.e. the ends of all incident edges."""
        self.require_vertex(x)
        return tuple(self._nbr[self._ptr[x] : self._ptr[x + 1]].tolist())

    def iter_edges(self) -> Iterable[tuple[int, int, float]]:
        """All directed edges as (source id, target id, weight), by ascending (source, target)."""
        s = np.flatnonzero(self._b_out)
        return zip(self._rows[s].tolist(), self._nbr[s].tolist(), self._b_out[s].tolist())


# -- whole-array helpers ------------------------------------------------------


def _vertex_fault(labels: tuple[str, ...], measures: np.ndarray, given) -> str:
    """The error of the first vertex, by position, with a repeated label or a bad measure."""
    seen: set[str] = set()
    for x, label in enumerate(labels):
        if label in seen:
            return f"duplicate vertex {label!r}"
        seen.add(label)
        if _not_positive(measures[x]):
            value = given[0][x][1] if given else float(measures[x])
            return f"vertex {label!r}: measure must be finite and > 0, got {value!r}"
    raise AssertionError("no faulty vertex")


def _edge_fault(labels: tuple[str, ...], u: np.ndarray, v: np.ndarray, w: np.ndarray, given) -> str:
    """The error of the first faulty edge by position.

    Each edge is checked for an unknown end, a loop, a bad weight and a
    repeat of an earlier (source, target) pair, in that order, as a loop over
    the edges would.  Ends are named by the raw ``given`` edge, else by label,
    or by id when out of range.
    """
    n = len(labels)
    unknown = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    keys = np.where(unknown, -1 - np.arange(len(u)), u * n + v)
    order = np.argsort(keys, kind="stable")
    repeat = np.zeros(len(u), dtype=bool)
    repeat[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    faults = (unknown, u == v, _not_positive(w), repeat)
    pos = int(np.flatnonzero(np.logical_or.reduce(faults))[0])
    ends = [int(u[pos]), int(v[pos])]
    if given:
        src, dst, value = given[1][pos]
        missing = str(src) if ends[0] < 0 else str(dst)
    else:
        missing = ends[0] if not 0 <= ends[0] < n else ends[1]
        src, dst = (labels[x] if 0 <= x < n else x for x in ends)
        value = float(w[pos])
    what = (
        f"unknown vertex {missing!r}",
        "loops are not allowed",
        f"weight must be finite and > 0, got {value!r}",
        "duplicate edge",
    )[next(k for k, fault in enumerate(faults) if fault[pos])]
    return f"edge {pos} ({src!r} -> {dst!r}): {what}"


def _distances(ptr: np.ndarray, nbr: np.ndarray, x0: int) -> np.ndarray:
    """Breadth-first distances over the slots; -1 marks unreached vertices."""
    ptr_l, nbr_l = ptr.tolist(), nbr.tolist()
    dist = [-1] * (len(ptr_l) - 1)
    dist[x0] = 0
    queue: deque[int] = deque([x0])
    while queue:
        x = queue.popleft()
        for y in nbr_l[ptr_l[x] : ptr_l[x + 1]]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    return np.array(dist, dtype=np.int64)


def _vertex_array(g: DirectedGraph, xs: Iterable[VertexId]) -> np.ndarray:
    """Validated vertex ids as an index array, in iteration order.

    Integer ids are checked in one pass, and a 1-D integer array is passed
    through uncopied; anything else is checked one id at a time, so the first bad id
    raises as :meth:`DirectedGraph.require_vertex` does.
    """
    ids = xs if isinstance(xs, np.ndarray) and xs.ndim == 1 else None
    if ids is None:
        xs = list(xs)
        try:
            ids = np.array(xs, dtype=None if xs else np.intp)
        except (ValueError, OverflowError):  # ragged or out-of-range input: checked below
            ids = None
        if any(isinstance(x, (bool, np.bool_)) for x in xs):  # numpy coerces [2, True] to integers
            ids = None
    if ids is not None and ids.dtype.kind in "iu" and ids.ndim == 1 and np.all((0 <= ids) & (ids < len(g))):
        return ids.astype(np.intp, copy=False)
    for x in xs:
        g.require_vertex(x)
    return np.array(xs, dtype=np.intp)


def _row_sums(
    g: DirectedGraph, rows: np.ndarray, values: np.ndarray, per_measure: bool = False
) -> np.ndarray:
    """Sum of the per-slot ``values`` over each row in ``rows``, in ascending-neighbor order.

    With ``per_measure`` each sum is divided by the measure of its row.
    Finite weights and measures can still overflow, so a non-finite result
    (checked after the division) raises :class:`NumericError`.
    """
    total = np.bincount(g._rows, values, len(g))[rows]
    if per_measure:
        total = total / g._m[rows]
    return _finite(total, "the vector of per-vertex weight sums")


def _b_sym(g: DirectedGraph) -> np.ndarray:
    """The symmetrized weight b'(x,y) = (b(x,y) + b(y,x))/2 of every slot.

    Halving before adding keeps b' finite for any two finite weights.
    """
    return g._b_out / 2.0 + g._b_in / 2.0


# -- strengths and the Kirchhoff balance ------------------------------------


def out_strength(g: DirectedGraph, x: VertexId) -> float:
    """Total outgoing weight at ``x``."""
    return float(_row_sums(g, _vertex_array(g, [x]), g._b_out)[0])


class KirchhoffReport(NamedTuple):
    ok: bool
    max_imbalance: float
    worst_vertex: int | None


def check_kirchhoff(
    g: DirectedGraph,
    interior: Iterable[VertexId],
    tol: float | None = None,
) -> KirchhoffReport:
    """Check in-strength == out-strength on a set of interior vertices.

    With ``tol=None`` each vertex may be off by ``1e-12 * max(out, in)``,
    since floating weights carry rounding; ``tol=0.0`` asks for exact
    balance.  ``worst_vertex`` is the first probed vertex of largest
    imbalance.
    """
    if tol is not None and not 0.0 <= tol < math.inf:
        raise GraphError(f"Kirchhoff tolerance must be finite and >= 0, got {tol!r}")
    rows = _vertex_array(g, interior)
    s_out = _row_sums(g, rows, g._b_out)
    s_in = _row_sums(g, rows, g._b_in)
    imbalance = np.abs(s_out - s_in)
    allowed = 1e-12 * np.maximum(s_out, s_in) if tol is None else tol
    worst_imbalance = float(np.fmax.reduce(imbalance, initial=0.0))
    worst = int(rows[np.argmax(imbalance == worst_imbalance)]) if worst_imbalance > 0.0 else None
    return KirchhoffReport(not np.any(imbalance > allowed), worst_imbalance, worst)


def symmetrize(g: DirectedGraph) -> DirectedGraph:
    """Graph with the same vertices and the averaged weight (b(x,y)+b(y,x))/2.

    The output is symmetric; idempotent on already-symmetric graphs.
    """
    return DirectedGraph._from_arrays(g.labels, g._m, g._rows, g._nbr, _b_sym(g))


# -- asymmetry constants -----------------------------------------------------


def _asymmetry(g: DirectedGraph, rows: np.ndarray) -> np.ndarray:
    """Divides only over the slots of ``rows``; a slot there whose b' underflows to 0 is a NumericError."""
    slots = np.flatnonzero(np.isin(g._rows, rows))
    b_sym = _b_sym(g)[slots]
    if not b_sym.all():
        k = slots[np.argmin(b_sym)]
        x, y = g.labels[g._rows[k]], g.labels[g._nbr[k]]
        raise NumericError(f"the symmetrized weight b' of {x!r} and {y!r} underflows to 0")
    d = g._b_out[slots] - g._b_in[slots]
    values = np.zeros(len(g._rows))
    values[slots] = d * d / b_sym
    return _row_sums(g, rows, values, per_measure=True)


def _total_asymmetry(g: DirectedGraph, rows: np.ndarray) -> np.ndarray:
    return _row_sums(g, rows, np.abs(g._b_out - g._b_in), per_measure=True)


def asymmetry_at(g: DirectedGraph, x: VertexId) -> float:
    """(1/m(x)) sum over neighbors of |b(x,y)-b(y,x)|^2 / b'(x,y)."""
    return float(_asymmetry(g, _vertex_array(g, [x]))[0])


def check_asymmetry(g: DirectedGraph, interior: Iterable[VertexId]) -> float:
    """Maximum of :func:`asymmetry_at` over the probed vertices (0.0 if empty)."""
    return float(np.max(_asymmetry(g, _vertex_array(g, interior)), initial=0.0))


def total_asymmetry_at(g: DirectedGraph, x: VertexId) -> float:
    """(1/m(x)) sum over neighbors of |b(x,y)-b(y,x)|."""
    return float(_total_asymmetry(g, _vertex_array(g, [x]))[0])


def check_total_asymmetry(g: DirectedGraph, interior: Iterable[VertexId]) -> float | None:
    """Maximum of :func:`total_asymmetry_at` over the probed vertices.

    Returns None for an empty probe set.  Callers compare values across
    truncation radii to detect growth; a single finite value never proves
    boundedness on the infinite graph.
    """
    values = _total_asymmetry(g, _vertex_array(g, interior))
    return float(values.max()) if values.size else None


# -- distances, balls, cutoffs ----------------------------------------------


def combinatorial_distance(g: DirectedGraph, x0: VertexId) -> np.ndarray:
    """Breadth-first distances over undirected edges, as a read-only array indexed by vertex id."""
    g.require_vertex(x0)
    return g._dist0 if x0 == 0 else _read_only(_distances(g._ptr, g._nbr, int(x0)))


class Ball(NamedTuple):
    """A distance ball, with the read-only distances from ``root`` it was cut with.

    ``vertices`` and ``interior`` are read-only ascending id arrays cut from ``dist``.
    """

    root: int
    radius: int
    vertices: np.ndarray
    interior: np.ndarray
    dist: np.ndarray


def ball(g: DirectedGraph, x0: VertexId, radius: int) -> Ball:
    """Closed distance ball of the given radius around ``x0``.

    ``interior`` holds the vertices at distance <= radius-1; by local
    finiteness all their neighbors lie inside the ball, so checks restricted
    to the interior see no truncation artifacts.
    """
    if radius < 0:
        raise GraphError("radius must be >= 0")
    return _ball(x0, radius, combinatorial_distance(g, x0))


def _ball(x0: VertexId, radius: int, dist: np.ndarray) -> Ball:
    """:func:`ball` from the read-only distances ``dist`` to ``x0``."""
    vertices = _read_only(np.flatnonzero((0 <= dist) & (dist <= radius)))
    interior = _read_only(np.flatnonzero((0 <= dist) & (dist < radius)))
    return Ball(int(x0), int(radius), vertices, interior, dist)


def full_ball(g: DirectedGraph, x0: VertexId = 0) -> Ball:
    """Ball covering the whole graph with every vertex interior."""
    dist = combinatorial_distance(g, x0)
    return _ball(x0, int(dist.max()) + 1, dist)


@dataclass(frozen=True)
class CutoffSequence:
    """Tent-shaped cutoff functions equal to 1 on nested balls.

    ``functions[i]``, for the i-th requested radius r, is defined on every
    host vertex, equals 1 exactly on the ball of radius r and vanishes
    outside the ball of radius 2r.  ``per_radius[i]`` is the exact maximum
    over all host vertices of its per-vertex weighted gradient energy

        (1/m(x)) * sum_y b'(x,y) * |chi(x) - chi(y)|^2,

    and ``constant`` the maximum over the sequence: a probed bound, not a
    proof of the infinite-graph property.
    """

    functions: tuple[np.ndarray, ...]
    constant: float
    per_radius: tuple[float, ...]


def build_cutoffs(g: DirectedGraph, x0: VertexId, radii: Sequence[int]) -> CutoffSequence:
    """Build cutoffs chi_r(x) = clamp(2 - d(x0,x)/r, 0, 1) for each radius."""
    radii = [int(r) for r in radii]
    if not radii or any(r <= 0 for r in radii) or any(b <= a for a, b in zip(radii, radii[1:])):
        raise GraphError("radii must be strictly increasing positive integers")
    return _cutoffs(g, combinatorial_distance(g, x0), radii)


def _cutoffs(g: DirectedGraph, dist: np.ndarray, radii: list[int]) -> CutoffSequence:
    """:func:`build_cutoffs` from the distances ``dist`` to its root and valid ``radii``."""
    dist = dist.astype(float)
    every = np.arange(len(g))
    b_sym = _b_sym(g)
    functions = []
    per_radius = []
    for r in radii:
        chi = np.clip(2.0 - dist / r, 0.0, 1.0)
        chi.setflags(write=False)
        diff = chi[g._rows] - chi[g._nbr]
        energy = _row_sums(g, every, b_sym * diff * diff, per_measure=True)
        functions.append(chi)
        per_radius.append(float(np.max(energy, initial=0.0)))
    return CutoffSequence(
        functions=tuple(functions),
        constant=max(per_radius),
        per_radius=tuple(per_radius),
    )


class DivergenceReport(NamedTuple):
    a_plus: dict[int, float]
    a_minus: dict[int, float]
    partial_sum: float


def divergence_criterion(g: DirectedGraph, x0: VertexId, n_max: int) -> DivergenceReport:
    """Per-sphere symmetrized strengths and the cutoff-existence partial sum.

    ``a_plus[n]`` is the maximum over the sphere S_n of the measure-normalized
    symmetrized weight toward S_{n+1}; ``a_minus[n]`` is the analogue toward
    S_{n-1}.  The partial sum

        sum_{n=0}^{n_max-1} 1 / sqrt(a_plus[n] + a_minus[n+1])

    diverges (as n_max grows) on graphs admitting cutoff sequences of the
    kind built by :func:`build_cutoffs`.
    """
    if n_max < 1:
        raise GraphError("n_max must be >= 1")
    dist = combinatorial_distance(g, x0)
    if int(dist.max()) < n_max:
        raise TruncationError(
            f"sphere {int(dist.max()) + 1} is empty; use a host graph of radius >= {n_max}"
        )
    every = np.arange(len(g))
    step = dist[g._nbr] - dist[g._rows]
    b_sym = _b_sym(g)
    up = _row_sums(g, every, np.where(step == 1, b_sym, 0.0), per_measure=True)
    down = _row_sums(g, every, np.where(step == -1, b_sym, 0.0), per_measure=True)
    a_plus = {n: float(np.max(up[dist == n], initial=0.0)) for n in range(0, n_max)}
    a_minus = {n: float(np.max(down[dist == n], initial=0.0)) for n in range(1, n_max + 1)}
    partial = sum(1.0 / math.sqrt(a_plus[n] + a_minus[n + 1]) for n in range(0, n_max))
    return DivergenceReport(a_plus, a_minus, partial)


# -- aggregated assumption report ---------------------------------------------


def assumption_report(g: DirectedGraph, interior: Iterable[VertexId], tol: float | None = None) -> dict:
    """Evaluate all per-vertex assumption constants over ``interior``.

    The report is the JSON object ``check`` emits before its envelope, with
    vertices named by their labels; ``tol`` is the Kirchhoff tolerance of
    :func:`check_kirchhoff`.
    """
    probed = np.sort(_vertex_array(g, interior))
    balance = check_kirchhoff(g, probed, tol)
    return {
        "kirchhoff_ok": balance.ok,
        "kirchhoff_max_imbalance": balance.max_imbalance,
        "worst_vertex": None if balance.worst_vertex is None else g.labels[balance.worst_vertex],
        "total_asymmetry_constant": check_total_asymmetry(g, probed),
        "asymmetry_constant": check_asymmetry(g, probed),
        "max_degree": g.max_degree,
        "probed_size": len(probed),
        "probed_vertices": [g.labels[v] for v in probed.tolist()],
    }


# -- JSON interchange ----------------------------------------------------------


def graph_to_dict(g: DirectedGraph) -> dict:
    """Serialize to the interchange schema ``{"vertices": [...], "edges": [...]}``."""
    return {
        "vertices": [{"id": g.label(x), "m": g.measure(x)} for x in g.vertex_ids()],
        "edges": [
            {"from": g.label(x), "to": g.label(y), "b": w} for x, y, w in g.iter_edges()
        ],
    }


def graph_from_dict(data: dict) -> DirectedGraph:
    """Build a graph from the interchange schema, naming offenders on failure."""
    if not isinstance(data, dict):
        raise GraphError("graph document must be a JSON object")
    for key in ("vertices", "edges"):
        if key not in data or not isinstance(data[key], list):
            raise GraphError(f"graph document needs a {key!r} list")
    vertices = []
    for i, entry in enumerate(data["vertices"]):
        if not isinstance(entry, dict) or "id" not in entry or "m" not in entry:
            raise GraphError(f"vertices[{i}]: expected an object with 'id' and 'm'")
        vertices.append((entry["id"], entry["m"]))
    edges = []
    for i, entry in enumerate(data["edges"]):
        if not isinstance(entry, dict) or any(k not in entry for k in ("from", "to", "b")):
            raise GraphError(f"edges[{i}]: expected an object with 'from', 'to' and 'b'")
        edges.append((entry["from"], entry["to"], entry["b"]))
    return DirectedGraph(vertices, edges)


def save_graph(g: DirectedGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(g), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_graph(path) -> DirectedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from None
        except UnicodeDecodeError as exc:
            raise GraphError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return graph_from_dict(data)
