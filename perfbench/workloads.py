"""The benchmark's workloads: which CLI calls one pass makes, and what records
each call must print.

A workload is a tuple of ``Job``s.  One pass runs every job once, in order,
through ``quantfield.cli.main``.  Only ``point-queries`` depends on the seed;
the other workloads run fixed inputs, so ``--seed`` leaves them unchanged.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

# The 18 checks of ``quantfield verify``, in the order it prints them.  The
# benchmark keeps its own copy so that a check that disappears or is renamed
# shows as a missing record instead of passing unnoticed.
VERIFY_CHECKS = (
    "weyl-denominator-duality",
    "root-product-harmonic",
    "character-weight-sum",
    "half-form-density-duality",
    "weyl-reduction-3sigma",
    "corrected-su2-flat",
    "bare-su2-anchors",
    "bare-torus-curvature",
    "spherical-legendre-oracle",
    "sphere-m3-flat",
    "sphere-m2-asymptote",
    "circle-slope",
    "toeplitz-derivative-identity",
    "toeplitz-q-monotone",
    "circle-cross-module",
    "flat-loop-holonomy",
    "abelian-stokes-phase",
    "twist-then-trivialize",
)

GRID_Y = (0.5, 1.0, 2.0)
LARGE_K = (150, 200)
LARGE_Y = (1.0, 2.0)


def _csv(values) -> str:
    return ",".join(f"{v:g}" for v in values)


@dataclass(frozen=True)
class Job:
    """One CLI call.

    ``command`` is a subcommand of the CLI.  Point commands (``sweep``,
    ``curvature``, ``asymptote``) print one record per (k, Im s) pair,
    ordered by k, then Im s; ``flatness`` and ``transport`` print one record;
    ``verify`` prints one line per check.
    """

    command: str
    model: str = ""
    corrected: bool = False
    ks: tuple = ()
    ys: tuple = ()

    @property
    def is_point(self) -> bool:
        return self.command in ("sweep", "curvature", "asymptote")

    def argv(self) -> list:
        if self.command == "transport":
            return ["transport", "--example", "abelian-area",
                    "--loop", "unit-square"]
        if self.command == "verify":
            return ["verify"]
        out = [self.command, "--model", self.model]
        if self.corrected:
            out.append("--corrected")
        return out + ["--k", _csv(self.ks), "--im-s", _csv(self.ys)]

    def points(self) -> list:
        """(k, Im s) of each record a point command prints, in print order."""
        return [(k, y) for k in self.ks for y in self.ys]

    def label(self) -> str:
        return " ".join(self.argv())


# Sweep jobs of grid-sweep.  Every family runs through the finite-difference
# curvature route; the families with a closed form also run the cross-check.
SWEEPS = (
    Job("sweep", "group:su2", True, (0, 1, 2, 3, 5, 8), GRID_Y),
    Job("sweep", "group:su2", False, (0, 1, 2, 3, 5, 8), GRID_Y),
    Job("sweep", "torus:1", False, (0, 1, 2), GRID_Y),
    Job("sweep", "torus:2", False, (0, 1, 2), GRID_Y),
    Job("sweep", "torus:3", False, (0, 1), GRID_Y),
    Job("sweep", "sphere:2", True, (5, 10, 20), GRID_Y),
    Job("sweep", "sphere:3", True, (5, 10, 20), GRID_Y),
    Job("sweep", "sphere:4", True, (5, 10, 20), GRID_Y),
    Job("sweep", "circle:1", False, (10, 20, 40, 80), GRID_Y),
)

GRID_SWEEP = SWEEPS + (
    Job("flatness", "group:su2", True, (0, 1, 2), GRID_Y),
    Job("flatness", "group:su2", False, (0, 1, 2), GRID_Y),
    Job("flatness", "torus:2", False, (0, 1, 2), GRID_Y),
)

SPHERE_LARGE_K = (
    Job("asymptote", "sphere:2", True, LARGE_K, LARGE_Y),
    Job("asymptote", "sphere:4", True, LARGE_K, LARGE_Y),
    Job("sweep", "sphere:3", True, LARGE_K, LARGE_Y),
)

# transport first: set-up time is measured to the first record of the first
# job, and verify prints nothing until all 18 checks have run.
VERIFY_SUITE = (
    Job("transport"),
    Job("verify"),
)

POINTS_PER_QUERY_RUN = 48


def point_menu() -> dict:
    """The grid-sweep points without torus:3, grouped by (model, corrected).

    torus:3 is left out because one of its points costs as much as a dozen
    of the others, so which of them a seed drew would dominate the timing.
    """
    return {(j.model, j.corrected): j.points()
            for j in SWEEPS if j.model != "torus:3"}


def point_queries(seed: int) -> tuple:
    """48 single-point ``curvature`` calls drawn from the menu by the seed.

    The draw is stratified, six points from each of the eight families, so
    that every seed runs the same mix of engines and only the k and Im s
    within each family vary.
    """
    rng = random.Random(seed)
    menu = point_menu()
    per_family = POINTS_PER_QUERY_RUN // len(menu)
    jobs = []
    for (model, corrected), points in sorted(menu.items()):
        for k, y in rng.sample(points, per_family):
            jobs.append(Job("curvature", model, corrected, (k,), (y,)))
    rng.shuffle(jobs)
    return tuple(jobs)


# Workloads whose records are expected to miss their oracle, and why.  Their
# misses count as failed; a miss anywhere else makes the run incorrect.
KNOWN_FAULTS = {
    "sphere-large-k": (
        "finite-difference cancellation in quadrature.kappa_from_log: "
        "log p ~ k^2 Im s, so rounding error divided by h^2 swamps a kappa "
        "of size 1/(k^2 y^3)"),
}

WORKLOADS = ("grid-sweep", "sphere-large-k", "point-queries", "verify-suite")


def jobs_for(workload: str, seed: int) -> tuple:
    if workload == "grid-sweep":
        return GRID_SWEEP
    if workload == "sphere-large-k":
        return SPHERE_LARGE_K
    if workload == "point-queries":
        return point_queries(seed)
    if workload == "verify-suite":
        return VERIFY_SUITE
    raise ValueError(f"unknown workload {workload!r}; have {list(WORKLOADS)}")
