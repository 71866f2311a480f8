import numpy as np
import pytest
from hypothesis import settings

import dirlap as dl

# Every run draws the same Hypothesis examples and replays none from a local example database, so
# whether tier-1 passes does not depend on the checkout's history; the pinned @examples still run.
# derandomize seeds each test from its own function and overrides --hypothesis-seed; to draw new
# examples, run `pytest --hypothesis-profile explore --hypothesis-seed N`.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def ladder_sqrt():
    return dl.make_ladder(dl.LadderSpec(depth=12))


@pytest.fixture(scope="session")
def ladder_unit():
    return dl.make_ladder(dl.LadderSpec(depth=12, measure_mode="unit"))


@pytest.fixture(scope="session")
def tree4():
    return dl.make_tree(dl.TreeSpec(depth=4))


@pytest.fixture(scope="session")
def random_graphs():
    return [dl.make_random_balanced(12, seed=100 + s, density=0.6) for s in range(6)]


@pytest.fixture(scope="session")
def single_edge():
    return dl.DirectedGraph([("u", 1.0), ("v", 1.0)], [("u", "v", 3.0)])


@pytest.fixture(scope="session")
def two_vertex_symmetric():
    return dl.DirectedGraph([("u", 1.0), ("v", 1.0)], [("u", "v", 1.0), ("v", "u", 1.0)])


def unit_measure_copy(g):
    """Same vertices and edges with every measure set to 1."""
    vertices = [(g.label(x), 1.0) for x in g.vertex_ids()]
    edges = [(g.label(x), g.label(y), w) for x, y, w in g.iter_edges()]
    return dl.DirectedGraph(vertices, edges)


def directed_unit_cycle(n):
    """The directed cycle v0 -> v1 -> ... -> v(n-1) -> v0 with unit weights and measures."""
    labels = [f"v{i}" for i in range(n)]
    return dl.DirectedGraph([(v, 1.0) for v in labels], [(labels[i], labels[(i + 1) % n], 1.0) for i in range(n)])


def weighted_norm(u, measure):
    """The norm of u in ell^2(m), sqrt(sum m(x) |u(x)|^2)."""
    return float(np.sqrt(np.sum(measure * np.abs(u) ** 2)))


def naive_adjacency(g):
    """Edge weights {(x, y): b(x, y)} and ascending neighbor lists, from the edge list alone."""
    weights = {(x, y): w for x, y, w in g.iter_edges()}
    nbrs = {x: set() for x in g.vertex_ids()}
    for x, y in weights:
        nbrs[x].add(y)
        nbrs[y].add(x)
    return weights, {x: sorted(ys) for x, ys in nbrs.items()}


def interior_random_vectors(op, count, rng, complex_values=True):
    """Random vectors supported on the interior rows of a truncation (every row of a synthetic operator)."""
    rows = np.arange(op.n) if op.ball is None else np.searchsorted(op.vertices, op.ball.interior)
    out = np.zeros((op.n, count), dtype=complex if complex_values else float)
    block = rng.standard_normal((len(rows), count))
    if complex_values:
        block = block + 1j * rng.standard_normal((len(rows), count))
    out[rows] = block
    return out
