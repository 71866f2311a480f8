"""The benchmark workloads.

Each workload is one ``dirlap`` command line, run as a verdict through
``dirlap.cli.main(argv)``, together with the reference its reports are
checked against; both are built from the same parameters.  The workloads
are chosen so that each puts nearly all of its time in a different layer,
the one a planned optimisation targets; the other workload then predicts
"no change" for it.  ``dominant`` names the spans expected to hold at least
90% of a traced verdict.  Names and the rationale of each workload are in
``BENCHMARK.json``.  Both inputs are generator ladders, so they do not depend
on the seed.

Two further workloads were measured and left out, because their verdict time
is interpreter-bound and drifts with the load of the shared 2-vCPU machine:
over ten runs of 24-36 s, the medians spread (interquartile range over
median) by up to 0.28 for ``check --graph <20000-vertex random balanced
graph> --radius <ecc+1>`` and 0.27-0.31 for ``cheeger --gen ladder --N 30
--measure unit --max-subset-size 12``, beyond the largest bound (0.25) a
metric may have.  The two kept here stayed at 0.05-0.21.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from reference import Reference, certify_reference, evolve_reference, ladder_data, time_grid


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    dominant: tuple[str, ...]
    reference: Callable[[], Reference]


def certify_ladder(depth: int, angles: int) -> Workload:
    return Workload(
        ("certify", "--gen", "ladder", "--N", str(depth), "--angles", str(angles)),
        ("spectral.numrange_boundary",),
        lambda: certify_reference(ladder_data(depth, "sqrt")),
    )


def evolve_ladder_unit(depth: int, grid: str, lambda0: str) -> Workload:
    return Workload(
        ("evolve", "--gen", "ladder", "--N", str(depth), "--measure", "unit", "--t", grid, "--lambda0", lambda0),
        ("semigroup.operator_norm_expm", "semigroup.expm_apply"),
        lambda: evolve_reference(ladder_data(depth, "unit"), time_grid(grid), float(lambda0)),
    )


WORKLOADS = {
    "certify-ladder": certify_ladder(150, 72),
    "evolve-ladder-unit": evolve_ladder_unit(150, "0:5:0.25", "0.1666"),
}
