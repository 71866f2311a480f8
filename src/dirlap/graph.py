"""Directed weighted graphs with vertex measures.

The central object is :class:`DirectedGraph`: a finite, weakly connected
graph carrying a strictly positive weight ``b(x, y)`` on every directed edge
and a strictly positive measure ``m(x)`` on every vertex.  Finite graphs here
usually stand for truncations of infinite ones, so every structural checker
takes an explicit set of *interior* vertices over which suprema are taken;
vertices polluted by the truncation boundary are simply left out by the
caller.

The graph is stored once, as a read-only undirected adjacency in CSR form:
row ``x`` owns the slots ``ptr[x]:ptr[x+1]``, slot ``k`` names the neighbor
``nbr[k]`` (ascending within each row) and carries the weight pair
``b(x, nbr[k])`` and ``b(nbr[k], x)``, with 0.0 for an absent direction.
Every accessor and checker reads these arrays; per-vertex sums add the slots
of a row in ascending-neighbor order.

Checkers implemented in this module:

* Kirchhoff balance: total incoming weight equals total outgoing weight,
* the (quadratic) asymmetry constant  ``sup_x (1/m(x)) sum_y |b(x,y)-b(y,x)|^2 / b'(x,y)``,
* the total (L1) asymmetry constant   ``sup_x (1/m(x)) sum_y |b(x,y)-b(y,x)|``,
* combinatorial distances, balls and spheres of the undirected skeleton,
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
from typing import Iterable, Mapping, NamedTuple, Sequence

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
    "AssumptionReport",
    "out_strength",
    "in_strength",
    "check_kirchhoff",
    "symmetrize",
    "check_asymmetry",
    "asymmetry_at",
    "check_total_asymmetry",
    "total_asymmetry_at",
    "combinatorial_distance",
    "spheres",
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
    exact_weights
        Set by generators whose weights are exactly representable, so that
        balance checks may use tolerance zero.

    Construction validates: no loops, strictly positive weights and measures,
    at least one incident undirected edge per vertex, and weak connectivity
    of the undirected skeleton.  A vertex with no outgoing edge is accepted
    (it arises at truncation boundaries) but fails the Kirchhoff check, so it
    never hides inside an interior set.
    """

    __slots__ = ("_labels", "_index", "_m", "_ptr", "_nbr", "_b_out", "_b_in", "exact_weights")

    def __init__(
        self,
        vertices: Iterable[tuple[str, float]],
        edges: Iterable[tuple[str, str, float]],
        *,
        exact_weights: bool = False,
    ):
        labels: list[str] = []
        measures: list[float] = []
        index: dict[str, int] = {}
        for label, m in vertices:
            label = str(label)
            if label in index:
                raise GraphError(f"duplicate vertex {label!r}")
            m = float(m)
            if not math.isfinite(m) or m <= 0.0:
                raise GraphError(f"vertex {label!r}: measure must be finite and > 0, got {m}")
            index[label] = len(labels)
            labels.append(label)
            measures.append(m)
        if not labels:
            raise GraphError("graph needs at least one vertex")

        n = len(labels)
        us: list[int] = []
        vs: list[int] = []
        ws: list[float] = []
        seen: set[tuple[int, int]] = set()
        for pos, (src, dst, w) in enumerate(edges):
            try:
                u = index[str(src)]
                v = index[str(dst)]
            except KeyError as exc:
                raise GraphError(f"edge {pos} ({src!r} -> {dst!r}): unknown vertex {exc.args[0]!r}") from None
            if u == v:
                raise GraphError(f"edge {pos} ({src!r} -> {dst!r}): loops are not allowed")
            w = float(w)
            if not math.isfinite(w) or w <= 0.0:
                raise GraphError(f"edge {pos} ({src!r} -> {dst!r}): weight must be finite and > 0, got {w}")
            if (u, v) in seen:
                raise GraphError(f"edge {pos} ({src!r} -> {dst!r}): duplicate edge")
            seen.add((u, v))
            us.append(u)
            vs.append(v)
            ws.append(w)

        # One slot per ordered pair of adjacent vertices, sorted by (row, neighbor):
        # edge u -> v fills b_out of slot (u, v) and b_in of slot (v, u).
        pairs = np.array(us + vs, dtype=np.int64) * n + np.array(vs + us, dtype=np.int64)
        keys, slot = np.unique(pairs, return_inverse=True)
        b_out = np.zeros(len(keys))
        b_in = np.zeros(len(keys))
        b_out[slot[: len(us)]] = ws
        b_in[slot[len(us) :]] = ws
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n, minlength=n), out=ptr[1:])
        nbr = keys % n

        isolated = np.flatnonzero(np.diff(ptr) == 0)
        if isolated.size:
            raise GraphError(f"vertex {labels[isolated[0]]!r} has no incident edge")
        dist = _distances(ptr, nbr, 0)
        if dist.min() < 0:
            missing = labels[int(np.argmin(dist))]
            raise GraphError(f"graph is not weakly connected: vertex {missing!r} unreachable from {labels[0]!r}")

        m_arr = np.asarray(measures, dtype=float)
        for arr in (m_arr, ptr, nbr, b_out, b_in):
            arr.setflags(write=False)
        self._labels = tuple(labels)
        self._index = index
        self._m = m_arr
        self._ptr = ptr
        self._nbr = nbr
        self._b_out = b_out
        self._b_in = b_in
        self.exact_weights = bool(exact_weights)

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
        if not (isinstance(x, (int, np.integer)) and 0 <= x < len(self._labels)):
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

    def _row_edges(self, x: VertexId, weights: np.ndarray) -> dict[int, float]:
        self.require_vertex(x)
        lo, hi = self._ptr[x], self._ptr[x + 1]
        return {y: w for y, w in zip(self._nbr[lo:hi].tolist(), weights[lo:hi].tolist()) if w}

    def out_edges(self, x: VertexId) -> Mapping[int, float]:
        """Targets and weights b(x, y) of the edges leaving ``x``, by ascending id."""
        return self._row_edges(x, self._b_out)

    def in_edges(self, x: VertexId) -> Mapping[int, float]:
        """Sources and weights b(y, x) of the edges entering ``x``, by ascending id."""
        return self._row_edges(x, self._b_in)

    def neighbors(self, x: VertexId) -> tuple[int, ...]:
        """Undirected neighbors, i.e. the ends of all incident edges."""
        self.require_vertex(x)
        return tuple(self._nbr[self._ptr[x] : self._ptr[x + 1]].tolist())

    def degree(self, x: VertexId) -> int:
        return len(self.neighbors(x))

    def _slot_rows(self) -> np.ndarray:
        """The vertex whose row holds each slot."""
        return np.repeat(np.arange(len(self)), np.diff(self._ptr))

    def iter_edges(self) -> Iterable[tuple[int, int, float]]:
        """All directed edges as (source id, target id, weight), by ascending (source, target)."""
        s = np.flatnonzero(self._b_out)
        return zip(self._slot_rows()[s].tolist(), self._nbr[s].tolist(), self._b_out[s].tolist())

    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self._b_out, self._b_in))


# -- whole-array helpers ------------------------------------------------------


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
    """Validated vertex ids as an index array, in iteration order."""
    xs = list(xs)
    for x in xs:
        g.require_vertex(x)
    return np.array(xs, dtype=np.intp)


def _row_sums(g: DirectedGraph, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sum of the per-slot ``values`` over each row in ``rows``.

    Step k adds the k-th slot of every row that has one, so each row is
    accumulated left to right in ascending-neighbor order, bit for bit like
    a scalar loop over its neighbors (``np.add.reduceat`` is not).  Finite
    weights can still overflow, so a non-finite sum raises :class:`NumericError`.
    """
    start = g._ptr[rows]
    degree = g._ptr[rows + 1] - start
    total = np.zeros(len(rows))
    for k in range(int(degree.max(initial=0))):
        has = degree > k
        total[has] += values[start[has] + k]
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


def in_strength(g: DirectedGraph, x: VertexId) -> float:
    """Total incoming weight at ``x``."""
    return float(_row_sums(g, _vertex_array(g, [x]), g._b_in)[0])


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

    With ``tol=None`` the tolerance is 0 for graphs built by the generators
    (``exact_weights``) and ``1e-12 * max(out, in)`` per vertex otherwise,
    since user-supplied floating weights carry rounding.  ``worst_vertex`` is
    the first probed vertex of largest imbalance.
    """
    rows = _vertex_array(g, interior)
    s_out = _row_sums(g, rows, g._b_out)
    s_in = _row_sums(g, rows, g._b_in)
    imbalance = np.abs(s_out - s_in)
    if tol is None:
        allowed = 0.0 if g.exact_weights else 1e-12 * np.maximum(s_out, s_in)
    else:
        allowed = tol
    worst_imbalance = float(np.fmax.reduce(imbalance, initial=0.0))
    worst = int(rows[np.argmax(imbalance == worst_imbalance)]) if worst_imbalance > 0.0 else None
    return KirchhoffReport(not np.any(imbalance > allowed), worst_imbalance, worst)


def symmetrize(g: DirectedGraph) -> DirectedGraph:
    """Graph with the same vertices and the averaged weight (b(x,y)+b(y,x))/2.

    The output is symmetric; idempotent on already-symmetric graphs.
    """
    labels = g.labels
    edges = [
        (labels[x], labels[y], w)
        for x, y, w in zip(g._slot_rows().tolist(), g._nbr.tolist(), _b_sym(g).tolist())
    ]
    return DirectedGraph(zip(labels, g._m.tolist()), edges, exact_weights=g.exact_weights)


# -- asymmetry constants -----------------------------------------------------


def _asymmetry(g: DirectedGraph, rows: np.ndarray) -> np.ndarray:
    d = g._b_out - g._b_in
    return _row_sums(g, rows, d * d / _b_sym(g)) / g._m[rows]


def _total_asymmetry(g: DirectedGraph, rows: np.ndarray) -> np.ndarray:
    return _row_sums(g, rows, np.abs(g._b_out - g._b_in)) / g._m[rows]


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
    """Breadth-first distances over undirected edges, indexed by vertex id."""
    g.require_vertex(x0)
    return _distances(g._ptr, g._nbr, int(x0))


def spheres(g: DirectedGraph, x0: VertexId, n_max: int | None = None) -> list[tuple[int, ...]]:
    """Vertex spheres S_n = {x : d(x0, x) = n} up to ``n_max`` (or the eccentricity)."""
    dist = combinatorial_distance(g, x0)
    radius = int(dist.max()) if n_max is None else int(n_max)
    out = [tuple(np.nonzero(dist == r)[0]) for r in range(radius + 1)]
    return out


class Ball(NamedTuple):
    root: int
    radius: int
    vertices: tuple[int, ...]
    interior: frozenset[int]


def ball(g: DirectedGraph, x0: VertexId, radius: int) -> Ball:
    """Closed distance ball of the given radius around ``x0``.

    ``interior`` holds the vertices at distance <= radius-1; by local
    finiteness all their neighbors lie inside the ball, so checks restricted
    to the interior see no truncation artifacts.
    """
    if radius < 0:
        raise GraphError("radius must be >= 0")
    dist = combinatorial_distance(g, x0)
    vertices = tuple(int(v) for v in np.nonzero((0 <= dist) & (dist <= radius))[0])
    interior = frozenset(int(v) for v in np.nonzero((0 <= dist) & (dist <= radius - 1))[0])
    return Ball(int(x0), int(radius), vertices, interior)


def full_ball(g: DirectedGraph, x0: VertexId = 0) -> Ball:
    """Ball covering the whole graph with every vertex interior."""
    radius = int(combinatorial_distance(g, x0).max()) + 1
    return ball(g, x0, radius)


@dataclass(frozen=True)
class CutoffSequence:
    """Tent-shaped cutoff functions equal to 1 on nested balls.

    ``functions[i]`` is defined on every host vertex, equals 1 on the ball of
    radius ``radii[i]`` and vanishes outside the ball of radius
    ``2 * radii[i]``.  ``constant`` is the exact maximum over the sequence and
    over all host vertices of the per-vertex weighted gradient energy

        (1/m(x)) * sum_y b'(x,y) * |chi(x) - chi(y)|^2,

    a probed bound, not a proof of the infinite-graph property.
    """

    root: int
    radii: tuple[int, ...]
    sets: tuple[frozenset[int], ...]
    functions: tuple[np.ndarray, ...]
    constant: float
    per_radius: tuple[float, ...]


def build_cutoffs(g: DirectedGraph, x0: VertexId, radii: Sequence[int]) -> CutoffSequence:
    """Build cutoffs chi_r(x) = clamp(2 - d(x0,x)/r, 0, 1) for each radius."""
    radii = [int(r) for r in radii]
    if not radii or any(r <= 0 for r in radii) or any(b <= a for a, b in zip(radii, radii[1:])):
        raise GraphError("radii must be strictly increasing positive integers")
    dist = combinatorial_distance(g, x0).astype(float)
    rows = g._slot_rows()
    every = np.arange(len(g))
    b_sym = _b_sym(g)
    sets = []
    functions = []
    per_radius = []
    for r in radii:
        chi = np.clip(2.0 - dist / r, 0.0, 1.0)
        chi.setflags(write=False)
        diff = chi[rows] - chi[g._nbr]
        energy = _row_sums(g, every, b_sym * diff * diff)
        sets.append(frozenset(int(v) for v in np.nonzero(dist <= r)[0]))
        functions.append(chi)
        per_radius.append(float(np.max(energy / g._m, initial=0.0)))
    return CutoffSequence(
        root=int(x0),
        radii=tuple(radii),
        sets=tuple(sets),
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
    step = dist[g._nbr] - dist[g._slot_rows()]
    b_sym = _b_sym(g)
    up = _row_sums(g, every, np.where(step == 1, b_sym, 0.0)) / g._m
    down = _row_sums(g, every, np.where(step == -1, b_sym, 0.0)) / g._m
    a_plus = {n: float(np.max(up[dist == n], initial=0.0)) for n in range(0, n_max)}
    a_minus = {n: float(np.max(down[dist == n], initial=0.0)) for n in range(1, n_max + 1)}
    partial = sum(1.0 / math.sqrt(a_plus[n] + a_minus[n + 1]) for n in range(0, n_max))
    return DivergenceReport(a_plus, a_minus, partial)


# -- aggregated assumption report ---------------------------------------------


@dataclass(frozen=True)
class AssumptionReport:
    """Constants extracted from a graph over a probed set of vertices."""

    kirchhoff_max_imbalance: float
    total_asymmetry_constant: float | None
    asymmetry_constant: float
    max_degree: int
    probed_vertices: tuple[int, ...]

    def to_dict(self, labels: Sequence[str] | None = None) -> dict:
        probed: list = sorted(self.probed_vertices)
        if labels is not None:
            probed = [labels[v] for v in probed]
        return {
            "kirchhoff_max_imbalance": self.kirchhoff_max_imbalance,
            "total_asymmetry_constant": self.total_asymmetry_constant,
            "asymmetry_constant": self.asymmetry_constant,
            "max_degree": self.max_degree,
            "probed_size": len(probed),
            "probed_vertices": probed,
        }


def assumption_report(g: DirectedGraph, interior: Iterable[VertexId]) -> AssumptionReport:
    """Evaluate all per-vertex assumption constants over ``interior``."""
    probed = tuple(sorted(int(x) for x in interior))
    balance = check_kirchhoff(g, probed)
    return AssumptionReport(
        kirchhoff_max_imbalance=balance.max_imbalance,
        total_asymmetry_constant=check_total_asymmetry(g, probed),
        asymmetry_constant=check_asymmetry(g, probed),
        max_degree=g.max_degree,
        probed_vertices=probed,
    )


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
    return graph_from_dict(data)
