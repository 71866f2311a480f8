"""Spans around the public functions of ``dirlap``, recorded from outside.

:func:`install` replaces each function named in :data:`TRACED` by a timing
wrapper, at every module attribute that holds it (``dirlap.check_asymmetry``,
``dirlap.cli.check_asymmetry``, ``dirlap.graph.check_asymmetry``, and aliases
such as ``dirlap.spectral.make_ball``), so calls made inside the package are
timed as well.  No file of the package changes.  The returned handle restores
the originals.

Per-element helpers (``out_strength``, ``asymmetry_at``, ``weighted_norm``,
...) are left unwrapped: a span per vertex would cost more than the work it
times, and their time belongs to the checker that loops over the vertices.
The ``cli`` layer is the root span, one ``dirlap.cli.main(argv)`` call plus
reading the report back; its self time is the verdict time no other span
covers (argument parsing, report assembly, JSON encoding and writing).

Spans nest on one stack (the verdicts run on one thread): a span's self time
is its duration minus the durations of the spans it directly caused.  Spans
are folded into per-function totals as they close, so a verdict with many
small calls keeps a bounded record.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

ROOT = "cli.main"
TRACED = {
    "generators": ("make_ladder", "make_tree", "make_random_balanced"),
    "graph": (
        "load_graph", "check_kirchhoff", "check_asymmetry", "check_total_asymmetry",
        "assumption_report", "ball", "full_ball", "spheres", "combinatorial_distance",
        "build_cutoffs", "divergence_criterion", "symmetrize",
    ),
    "operators": ("assemble", "similarity_to_standard", "green_residual_batch"),
    "spectral": (
        "numrange_boundary", "check_sector", "fit_sector", "cheeger_bruteforce",
        "cheeger_nested", "cheeger_bound_check", "accretivity_certificate",
    ),
    "semigroup": ("evolve_trace", "operator_norm_expm", "expm_apply", "resolvent_norm", "positivity_check"),
}
LAYERS = ("cli", *TRACED)


@dataclass
class Verdict:
    """Per-function totals of one traced verdict."""

    self_s: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)
    total_s: float = 0.0
    observed: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, observers=None):
        self.observers = observers or {}
        self.current: Verdict | None = None
        self._stack: list[list] = []  # [name, start, child seconds]

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> float:
        end = time.perf_counter()
        name, start, child = self._stack.pop()
        duration = end - start
        v = self.current
        v.self_s[name] = v.self_s.get(name, 0.0) + duration - child
        v.calls[name] = v.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def verdict(self, fn, *args):
        """Run ``fn(*args)`` as the root span of a new verdict; return (result, Verdict)."""
        done = self.current = Verdict()
        self._enter(ROOT)
        try:
            result = fn(*args)
        finally:
            done.total_s = self._exit()
            self.current = None
        return result, done

    def wrap(self, name: str, fn):
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if observe is not None:
                observe(self.current.observed, result)
            return result

        return traced


class Installed:
    """Handle on the rebound attributes; :meth:`restore` puts the originals back."""

    def __init__(self, bindings):
        self.bindings = bindings  # (module, attribute, original)

    def restore(self) -> bool:
        for module, attr, original in self.bindings:
            setattr(module, attr, original)
        return all(getattr(m, a) is o for m, a, o in self.bindings)


def install(tracer: Tracer) -> Installed:
    """Rebind every function in :data:`TRACED` at every attribute holding it.

    A listed function the package no longer defines is skipped; its metrics
    then read zero calls.
    """
    names = {}
    for layer, attrs in TRACED.items():
        module = importlib.import_module(f"dirlap.{layer}")
        for attr in attrs:
            fn = getattr(module, attr, None)
            if inspect.isfunction(fn):
                names[fn] = f"{layer}.{attr}"
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in names.items()}
    holders = [m for key, m in sorted(sys.modules.items()) if key == "dirlap" or key.startswith("dirlap.")]
    bindings = []
    for module in holders:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                bindings.append((module, attr, obj))
    for module, attr, original in bindings:
        setattr(module, attr, wrappers[original])
    return Installed(bindings)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
