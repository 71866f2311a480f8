"""Independent reference values and the report oracle.

Everything here is recomputed from the graph data alone with plain numpy and
scipy, without calling into ``dirlap``: the ladder is rebuilt from its
published weight formulas, and the truncation, Laplacian, spectra and
semigroup norms are computed directly.

Tolerances follow one policy: a value derived from a matrix of n rows and
scale ||A|| may differ from the reference by ``TOL_FACTOR * n * eps * ||A||``
(plus the time scale for the semigroup); structural constants may differ by
``TOL_FACTOR * degree * eps`` relative.  Values that are exact by
construction (the Kirchhoff imbalance of integer weights, sizes, verdict
flags) must be equal.

Boundary points of the numerical range are compared by their support values
max Re(e^{i phi} z), never by position: on flat stretches of the boundary the
maximising point is not unique.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.linalg

EPS = float(np.finfo(float).eps)
TOL_FACTOR = 100.0


@dataclass
class GraphData:
    """A directed weighted graph as plain arrays, vertices in insertion order."""

    labels: list[str]
    measures: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray

    @property
    def n(self) -> int:
        return len(self.labels)

    @classmethod
    def from_dict(cls, data: dict) -> "GraphData":
        labels = [str(v["id"]) for v in data["vertices"]]
        index = {label: i for i, label in enumerate(labels)}
        edges = data["edges"]
        return cls(
            labels,
            np.array([float(v["m"]) for v in data["vertices"]]),
            np.array([index[str(e["from"])] for e in edges], dtype=np.int64),
            np.array([index[str(e["to"])] for e in edges], dtype=np.int64),
            np.array([float(e["b"]) for e in edges]),
        )

    def pairs(self):
        """Undirected neighbour pairs x < y with the weights b(x,y) and b(y,x) (0 if absent)."""
        lo = np.minimum(self.src, self.dst)
        hi = np.maximum(self.src, self.dst)
        key = lo * self.n + hi
        uniq, inv = np.unique(key, return_inverse=True)
        forward = np.zeros(len(uniq))
        backward = np.zeros(len(uniq))
        np.add.at(forward, inv[self.src < self.dst], self.w[self.src < self.dst])
        np.add.at(backward, inv[self.src > self.dst], self.w[self.src > self.dst])
        return uniq // self.n, uniq % self.n, forward, backward

    def neighbours(self) -> list[list[int]]:
        x, y, _, _ = self.pairs()
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for a, b in zip(x.tolist(), y.tolist()):
            nbrs[a].append(b)
            nbrs[b].append(a)
        return nbrs

    def distances(self, root: int) -> np.ndarray:
        nbrs = self.neighbours()
        dist = np.full(self.n, -1, dtype=np.int64)
        dist[root] = 0
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in nbrs[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        return dist


def ladder_data(depth: int, measure: str) -> GraphData:
    """The two-rail graph x0; x_n, y_n (1 <= n <= depth) with the CLI's drift k = 1."""
    k = 1.0
    labels = ["x0"]
    measures = [1.0]
    for n in range(1, depth + 1):
        labels += [f"x{n}", f"y{n}"]
        measures += [math.sqrt(n) if measure == "sqrt" else 1.0] * 2
    edges = [("x0", "x1", k + 2.0), ("y1", "x0", k + 2.0), ("x0", "y1", k), ("x1", "x0", k)]
    for n in range(1, depth):
        up, down = float((n + 1) ** 2 + (n + 1)), float((n + 1) ** 2 - (n + 1))
        edges += [(f"x{n}", f"x{n + 1}", up), (f"x{n + 1}", f"x{n}", down)]
        edges += [(f"y{n}", f"y{n + 1}", down), (f"y{n + 1}", f"y{n}", up)]
    for n in range(1, depth + 1):
        if n > 1:
            edges.append((f"x{n}", f"y{n}", float(n - 1)))
        edges.append((f"y{n}", f"x{n}", float(n + 1)))
    return GraphData.from_dict(
        {
            "vertices": [{"id": label, "m": m} for label, m in zip(labels, measures)],
            "edges": [{"from": a, "to": b, "b": w} for a, b, w in edges],
        }
    )


# -- per-vertex constants -----------------------------------------------------


def vertex_constants(g: GraphData):
    """Kirchhoff imbalance, quadratic and total asymmetry and degree per vertex."""
    x, y, bxy, byx = g.pairs()
    d = bxy - byx
    quad = d * d / ((bxy + byx) / 2.0)
    asym = np.zeros(g.n)
    total = np.zeros(g.n)
    np.add.at(asym, x, quad)
    np.add.at(asym, y, quad)
    np.add.at(total, x, np.abs(d))
    np.add.at(total, y, np.abs(d))
    out_s = np.bincount(g.src, weights=g.w, minlength=g.n)
    in_s = np.bincount(g.dst, weights=g.w, minlength=g.n)
    degree = np.bincount(x, minlength=g.n) + np.bincount(y, minlength=g.n)
    return np.abs(out_s - in_s), asym / g.measures, total / g.measures, degree


def cutoff_constant(g: GraphData, dist: np.ndarray, radii) -> float:
    """Largest per-vertex energy of the tent cutoffs clamp(2 - d/r, 0, 1)."""
    x, y, bxy, byx = g.pairs()
    sym = (bxy + byx) / 2.0
    best = 0.0
    for r in radii:
        chi = np.clip(2.0 - dist.astype(float) / r, 0.0, 1.0)
        term = sym * (chi[x] - chi[y]) ** 2
        energy = np.zeros(g.n)
        np.add.at(energy, x, term)
        np.add.at(energy, y, term)
        best = max(best, float(np.max(energy / g.measures)))
    return best


# -- truncated operator ---------------------------------------------------------


@dataclass
class Truncation:
    radius: int
    rows: np.ndarray  # host vertex of each row, ascending
    interior: np.ndarray  # host vertices at distance <= radius - 1
    standard: np.ndarray  # D^(1/2) A D^(-1/2) of the Dirichlet Laplacian on the ball
    scale: float  # spectral norm of ``standard``

    @property
    def n(self) -> int:
        return len(self.rows)

    def tol(self) -> float:
        return TOL_FACTOR * self.n * EPS * self.scale


def truncate(g: GraphData, dist: np.ndarray, radius: int) -> Truncation:
    rows = np.nonzero((dist >= 0) & (dist <= radius))[0]
    interior = np.nonzero((dist >= 0) & (dist <= radius - 1))[0]
    row_of = np.full(g.n, -1)
    row_of[rows] = np.arange(len(rows))
    a = np.zeros((len(rows), len(rows)))
    inside = row_of[g.src] >= 0
    i = row_of[g.src[inside]]
    rate = g.w[inside] / g.measures[g.src[inside]]
    np.add.at(a, (i, i), rate)
    both = row_of[g.dst[inside]] >= 0
    np.add.at(a, (i[both], row_of[g.dst[inside]][both]), -rate[both])
    d = np.sqrt(g.measures[rows])
    standard = a * d[:, None] / d[None, :]
    return Truncation(radius, rows, interior, standard, float(np.linalg.norm(standard, 2)))


def min_real(t: Truncation) -> float:
    return float(np.linalg.eigvalsh((t.standard + t.standard.T) / 2.0)[0])


def support_values(t: Truncation, angles: np.ndarray) -> np.ndarray:
    """max Re(e^{i phi} z) over the numerical range, one value per angle."""
    sym = (t.standard + t.standard.T) / 2.0
    skew = (t.standard - t.standard.T) / 2.0
    return np.array(
        [np.linalg.eigvalsh(math.cos(phi) * sym + 1j * math.sin(phi) * skew)[-1] for phi in angles]
    )


def boundary_problems(points, angles, reference: np.ndarray, tol: float) -> list[str]:
    """Compare sampled boundary points to reference support values at their angles."""
    points = np.asarray(points, dtype=complex)
    angles = np.asarray(angles, dtype=float)
    if points.shape != reference.shape or angles.shape != reference.shape:
        return [f"boundary: expected {reference.size} points, got {points.size}"]
    if not np.all(np.isfinite(points)):
        return ["boundary: non-finite point"]
    support = np.real(np.exp(1j * angles) * points)
    gap = float(np.max(np.abs(support - reference)))
    return [] if gap <= tol else [f"boundary: support values off by {gap:.3e} > {tol:.3e}"]


# -- expected reports ---------------------------------------------------------------


@dataclass
class Reference:
    """What a correct report of one ``dirlap`` command must contain."""

    command: str
    exit_code: int
    trunc: Truncation
    values: dict


def time_grid(text: str) -> np.ndarray:
    """The times of a ``start:stop:step`` grid, stop included."""
    start, stop, step = (float(part) for part in text.split(":"))
    return start + step * np.arange(math.floor((stop - start) / step + 1e-9) + 1)


def _default_trunc(g: GraphData) -> tuple[Truncation, np.ndarray]:
    dist = g.distances(0)
    return truncate(g, dist, max(1, int(dist.max()) - 1)), dist


def certify_reference(g: GraphData) -> Reference:
    trunc, dist = _default_trunc(g)
    imbalance, asym, total, degree = vertex_constants(g)
    radius = trunc.radius
    gamma = []
    for r in sorted({max(1, radius // 4), max(1, radius // 2), max(1, radius)}):
        probe = np.nonzero(dist <= r - 1)[0]
        gamma.append(float(total[probe].max()))
    c = float(asym[trunc.rows].max())
    values = {
        "radius": radius,
        "interior_size": len(trunc.interior),
        "kirchhoff_max_imbalance": float(imbalance[trunc.interior].max()),
        "asymmetry_constant": float(asym[trunc.interior].max()),
        "sector_constant": c,
        "sector_vertex": -4.0 / c,
        "sector_half_angle": math.atan(c / 8.0),
        "total_asymmetry_values": gamma,
        "total_asymmetry_trend": "growing" if gamma[-1] > gamma[0] * (1.0 + 1e-9) + 1e-12 else "bounded",
        "cutoff_constant": cutoff_constant(g, dist, sorted({max(1, radius // 4), max(1, radius // 2)})),
        "min_real": min_real(trunc),
        "rel_tol": TOL_FACTOR * EPS * float(degree.max()),
    }
    return Reference("certify", 0, trunc, values)


def evolve_reference(g: GraphData, times: np.ndarray, lambda0: float) -> Reference:
    trunc, _ = _default_trunc(g)
    d = np.sqrt(g.measures[trunc.rows])
    v0 = np.zeros(trunc.n)
    v0[0] = 1.0  # the root x0 is the first row
    op_norms, state_norms, tols = [], [], []
    for t in times:
        prop = scipy.linalg.expm(-t * trunc.standard)
        op_norms.append(float(np.linalg.norm(prop, 2)))
        # exp(-tA) = D^(-1/2) exp(-tS) D^(1/2); the weighted norm multiplies by D^(1/2) again.
        state_norms.append(float(np.linalg.norm(prop @ (d * v0))))
        tols.append(trunc.tol() * max(1.0, float(t)) + TOL_FACTOR * trunc.n * EPS)
    values = {
        "times": times.tolist(),
        "operator_norms": op_norms,
        "state_norms": state_norms,
        "bounds": np.minimum(1.0, np.exp(-lambda0 * times)).tolist(),
        "tols": tols,
        "lambda0": lambda0,
        "interior_size": len(trunc.interior),
    }
    return Reference("evolve", 0, trunc, values)


# -- the oracle -------------------------------------------------------------------------


def _close(name: str, got, want: float, tol: float, problems: list[str]) -> None:
    if not isinstance(got, (int, float)) or isinstance(got, bool) or not math.isfinite(got):
        problems.append(f"{name}: expected a finite number, got {got!r}")
    elif abs(got - want) > tol:
        problems.append(f"{name}: {got!r} differs from reference {want!r} by more than {tol:.3e}")


def _equal(name: str, got, want, problems: list[str]) -> None:
    if got != want or type(got) is not type(want):
        problems.append(f"{name}: expected {want!r}, got {got!r}")


def _close_list(name: str, got, want, tols, problems: list[str]) -> None:
    if not isinstance(got, list) or len(got) != len(want):
        problems.append(f"{name}: expected {len(want)} values, got {got!r:.80}")
        return
    for i, (a, b, tol) in enumerate(zip(got, want, tols)):
        _close(f"{name}[{i}]", a, b, tol, problems)


def check_report(ref: Reference, exit_code: int, report) -> list[str]:
    """Every way ``report`` (a parsed JSON report) departs from the reference."""
    problems: list[str] = []
    if exit_code != ref.exit_code:
        problems.append(f"exit code {exit_code}, expected {ref.exit_code}")
    if not isinstance(report, dict):
        return problems + ["report is not a JSON object"]
    try:
        CHECKS[ref.command](ref, report, problems)
    except (KeyError, TypeError, AttributeError, IndexError) as exc:
        problems.append(f"malformed report: {type(exc).__name__}: {exc}")
    return problems


def _check_certify(ref: Reference, r: dict, problems: list[str]) -> None:
    v = ref.values
    verdicts = r["verdicts"]
    for key in ("kirchhoff_balance", "accretive_truncation", "m_accretive_supported", "m_sectorial_supported"):
        if key not in verdicts:
            problems.append(f"verdicts.{key} missing")
    for key, value in verdicts.items():
        _equal(f"verdicts.{key}", value, None if key == "cheeger_bound_supported" else True, problems)
    _equal("cheeger", r["cheeger"], None, problems)
    _equal("radius", r["radius"], v["radius"], problems)
    _equal("interior_size", r["interior_size"], v["interior_size"], problems)
    _equal("kirchhoff.ok", r["kirchhoff"]["ok"], True, problems)
    _equal("kirchhoff.max_imbalance", r["kirchhoff"]["max_imbalance"], v["kirchhoff_max_imbalance"], problems)
    _equal("kirchhoff.worst_vertex", r["kirchhoff"]["worst_vertex"], None, problems)
    rel = v["rel_tol"]
    for key in ("asymmetry_constant", "sector_constant", "cutoff_constant"):
        _close(key, r[key], v[key], rel * abs(v[key]), problems)
    _close("sector.vertex", r["sector"]["vertex"], v["sector_vertex"], rel * abs(v["sector_vertex"]), problems)
    _close("sector.half_angle", r["sector"]["half_angle"], v["sector_half_angle"], rel, problems)
    _equal("sector.ok", r["sector"]["ok"], True, problems)
    gamma = v["total_asymmetry_values"]
    _close_list("total_asymmetry.values", r["total_asymmetry"]["values"], gamma, [rel * g for g in gamma], problems)
    _equal("total_asymmetry.trend", r["total_asymmetry"]["trend"], v["total_asymmetry_trend"], problems)
    _close("min_real", r["min_real"], v["min_real"], ref.trunc.tol(), problems)


def _check_evolve(ref: Reference, r: dict, problems: list[str]) -> None:
    v = ref.values
    _equal("flagged", r["flagged"], [], problems)
    _equal("ok", r["ok"], True, problems)
    _equal("interior_size", r["interior_size"], v["interior_size"], problems)
    _close("lambda0", r["lambda0"], v["lambda0"], 0.0, problems)
    exact = [TOL_FACTOR * EPS * max(1.0, t) for t in v["times"]]
    _close_list("times", r["times"], v["times"], exact, problems)
    _close_list("bounds", r["bounds"], v["bounds"], [TOL_FACTOR * EPS] * len(v["bounds"]), problems)
    _close_list("operator_norms", r["operator_norms"], v["operator_norms"], v["tols"], problems)
    _close_list("state_norms", r["state_norms"], v["state_norms"], v["tols"], problems)


CHECKS = {
    "certify": _check_certify,
    "evolve": _check_evolve,
}
