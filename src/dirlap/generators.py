"""Generators for the worked example families and random balanced graphs.

Two deterministic families with exactly prescribed weights:

* :func:`make_ladder` builds the two-rail graph with almost constant degree,
  quadratically growing rail weights and a fixed cross-rail drift.  Every
  interior vertex is Kirchhoff balanced exactly, the quadratic asymmetry
  constant stays bounded, while the total (L1) asymmetry constant grows with
  the sphere index when the sqrt measure is used.
* :func:`make_tree` builds a rooted tree with increasing branching, unit
  weights and unit measures, where every non-leaf vertex has exactly one
  strictly outgoing and one strictly incoming incident edge and all other
  incident edges are bidirectional.

:func:`make_random_balanced` superposes directed cycles with dyadic weights,
so the Kirchhoff balance holds bitwise at every vertex for any seed.

Every generator computes vertex ids, measures and weights as arrays and
builds its graph through the array core of :class:`DirectedGraph`, with no
label round trip; the labels are only attached for reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import DirectedGraph, GraphError, _indices

__all__ = ["LadderSpec", "TreeSpec", "make_ladder", "make_tree", "make_random_balanced"]


@dataclass(frozen=True)
class LadderSpec:
    """Parameters of the two-rail family.

    ``depth`` is the index of the last sphere (>= 2).  ``k`` shifts the four
    weights around the origin; with ``k = 0`` the two zero-weight edges are
    omitted and the graph stays weakly connected.  ``measure_mode`` selects
    m(x_n) = m(y_n) = sqrt(n) (``"sqrt_n"``) or m = 1 (``"unit"``); the origin
    always has measure 1.
    """

    depth: int
    k: float = 1.0
    measure_mode: str = "sqrt_n"

    def __post_init__(self):
        if self.depth < 2:
            raise GraphError("ladder depth must be >= 2")
        if self.k < 0:
            raise GraphError("ladder drift k must be >= 0")
        if self.measure_mode not in ("sqrt_n", "unit"):
            raise GraphError("measure_mode must be 'sqrt_n' or 'unit'")


def make_ladder(spec: LadderSpec) -> DirectedGraph:
    """Build the two-rail graph x_0; x_n, y_n (1 <= n <= depth).

    Weights, with k = spec.k:

    * b(x_0, x_1) = b(y_1, x_0) = k + 2 and b(x_0, y_1) = b(x_1, x_0) = k,
    * b(x_n, x_{n+1}) = (n+1)^2 + (n+1) and b(x_{n+1}, x_n) = (n+1)^2 - (n+1),
    * b(y_n, y_{n+1}) = (n+1)^2 - (n+1) and b(y_{n+1}, y_n) = (n+1)^2 + (n+1),
    * b(x_n, y_n) = n - 1 and b(y_n, x_n) = n + 1.

    Zero-valued entries (the rung x_1 -> y_1, and x_0 -> y_1, x_1 -> x_0 when
    k = 0) are absent edges.
    """
    n_max, k = spec.depth, float(spec.k)
    n = _indices(n_max, "the ladder's rail") + 1
    labels = ["x0", *(f"{rail}{i}" for i in n.tolist() for rail in "xy")]
    m = np.sqrt(n.astype(float)) if spec.measure_mode == "sqrt_n" else np.ones(n_max)
    measures = np.concatenate([[1.0], np.repeat(m, 2)])
    x, y = 2 * n - 1, 2 * n  # ids of x_n and y_n; x_0 is 0

    # Edges in the order of the docstring: origin, the rails of each step n -> n + 1, the rungs.
    origin = ([0, 2, 0, 1], [1, 0, 2, 0], [k + 2.0, k + 2.0, k, k])
    s = n[1:]  # n + 1 for the steps n -> n + 1
    up, down = (s * s + s).astype(float), (s * s - s).astype(float)
    rails = (
        np.stack([x[:-1], x[1:], y[:-1], y[1:]], axis=1),
        np.stack([x[1:], x[:-1], y[1:], y[:-1]], axis=1),
        np.stack([up, down, down, up], axis=1),
    )
    rungs = (np.stack([x, y], axis=1), np.stack([y, x], axis=1), np.stack([n - 1, n + 1], axis=1).astype(float))
    # The k-weighted origin edges exist only for k > 0; the rung x_1 -> y_1 (weight 0) never does.
    edges = [
        np.concatenate([first[: 4 if k > 0.0 else 2], rail.ravel(), rung.ravel()[1:]])
        for first, rail, rung in zip(origin, rails, rungs)
    ]
    return DirectedGraph._from_arrays(labels, measures, *edges)


@dataclass(frozen=True)
class TreeSpec:
    """Parameters of the increasing-branching tree.

    Every vertex at depth d has d + 3 children: at least three, so that it
    can host one strictly outgoing, one strictly incoming and at least one
    bidirectional child edge.
    """

    depth: int

    def __post_init__(self):
        if self.depth < 1:
            raise GraphError("tree depth must be >= 1")


# Child-edge orientation depends on how the vertex is attached to its parent,
# so that every non-leaf vertex ends up with exactly one strictly outgoing and
# one strictly incoming incident edge:
#   root / parent edge bidirectional: first child out-only, second in-only;
#   parent edge incoming at the vertex: first child out-only;
#   parent edge outgoing at the vertex: first child in-only.
# Kinds of an edge seen from the parent; the child sees the negated kind.
_OUT, _IN, _BOTH = 1, -1, 0


def make_tree(spec: TreeSpec) -> DirectedGraph:
    """Build the increasing-branching tree with unit weights and measures."""
    labels = ["r"]
    frontier = np.zeros(1, dtype=np.int64)
    views = np.array([_BOTH])  # the parent edge of each frontier vertex, seen from the vertex
    sources, targets = [], []
    for c in range(3, spec.depth + 3):
        parents = np.repeat(frontier, c).reshape(-1, c)
        children = len(labels) + np.arange(parents.size).reshape(-1, c)
        kinds = np.full(children.shape, _BOTH)
        kinds[:, 0] = np.where(views == _OUT, _IN, _OUT)
        kinds[views == _BOTH, 1] = _IN
        # Per child, the edge to it and then the edge from it.
        keep = np.stack([kinds != _IN, kinds != _OUT], axis=-1)
        sources.append(np.stack([parents, children], axis=-1)[keep])
        targets.append(np.stack([children, parents], axis=-1)[keep])
        labels += [f"{labels[p]}.{i}" for p in frontier.tolist() for i in range(c)]
        frontier, views = children.ravel(), -kinds.ravel()
    sources, targets = np.concatenate(sources), np.concatenate(targets)
    return DirectedGraph._from_arrays(labels, np.ones(len(labels)), sources, targets, np.ones(len(sources)))


def make_random_balanced(n: int, seed: int, density: float = 0.5) -> DirectedGraph:
    """Random weakly connected graph with exact Kirchhoff balance.

    The graph is a superposition of directed cycles with one dyadic weight
    per cycle: each cycle contributes its weight to both the in- and the
    out-strength of every visited vertex, so the balance holds bitwise.  A
    cycle through a random permutation of all vertices guarantees weak
    connectivity; ``density`` controls how many extra short cycles are added.
    """
    if n < 3:
        raise GraphError("need at least 3 vertices")
    if seed < 0:
        raise GraphError(f"seed must be >= 0, got {seed}")
    if density < 0:
        raise GraphError("density must be >= 0")
    if not math.isfinite(density * n):
        raise GraphError(f"density * n must be finite, got density {density!r} at n = {n}")
    rng = np.random.default_rng(seed)
    # Each cycle draws its vertices, then its weight; the measures come last.
    cycles = [rng.permutation(_indices(n, "the random graph"))]
    weights = [int(rng.integers(4, 33)) / 16.0]
    for _ in range(int(round(density * n))):
        cycles.append(rng.choice(n, size=int(rng.integers(2, min(6, n) + 1)), replace=False))
        weights.append(int(rng.integers(4, 33)) / 16.0)
    measures = rng.integers(4, 33, size=n) / 16.0

    # Edge i runs from sources[i] to the next vertex of its cycle; repeated edges add their weights.
    lengths = np.array([len(c) for c in cycles])
    starts = np.cumsum(lengths) - lengths
    sources = np.concatenate(cycles)
    targets = np.roll(sources, -1)
    targets[starts + lengths - 1] = sources[starts]
    keys, edge = np.unique(sources * n + targets, return_inverse=True)
    summed = np.bincount(edge, weights=np.repeat(weights, lengths))
    return DirectedGraph._from_arrays([f"v{i}" for i in range(n)], measures, keys // n, keys % n, summed)
