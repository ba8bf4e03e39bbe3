"""Oracles the benchmark checks every CLI record against.

Nothing here calls quantfield: each oracle is worked out from the paper's
formulas, with mpmath where a closed form has to be differentiated, or read
from ``sphere_oracle.json`` (written by ``regen_sphere_oracle.py``).

Tolerances: sphere records must lie within 2% of their oracle, all others
within 1e-5 of ``max(|oracle|, m/(8y^2))``.  The two flat families judge
their zero against a scale of their own: ``m/(8y^2)`` for corrected su2 and
the asymptote's ``1/(8(2k+m-1)^2 y^3)`` for sphere:3.
"""
from __future__ import annotations

import cmath
import json
import os
from dataclasses import dataclass

import mpmath
from mpmath import mp, mpf

SPHERE_TOL = 0.02
OTHER_TOL = 1e-5
SPHERE_TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "sphere_oracle.json")

# the paper's table: verdict of each flatness job's family
FLATNESS_VERDICTS = {
    ("group:su2", True): "Flat",
    ("group:su2", False): "NotProjectivelyFlat",
    ("torus:2", False): "ProjectivelyFlat",
}

TRANSPORT_PHASE = cmath.exp(1j)   # unit-square loop, unit curvature


@dataclass(frozen=True)
class Target:
    """A record passes when ``|kappa - value| <= tol * scale``."""

    value: float
    scale: float
    tol: float

    def accepts(self, kappa) -> bool:
        return (isinstance(kappa, (int, float))
                and abs(kappa - self.value) <= self.tol * self.scale)


def manifold_dim(model: str) -> int:
    kind, _, arg = model.partition(":")
    if kind == "group":
        return {"su2": 3}[arg]
    if kind in ("torus", "sphere"):
        return int(arg)
    if kind == "circle":
        return 1
    raise ValueError(f"no oracle for model {model!r}")


def sphere_asymptote(k: int, m: int, y: float) -> float:
    """The paper's large-k curvature (m-1)(m-3) / (8 (2k+m-1)^2 y^3)."""
    return (m - 1) * (m - 3) / (8.0 * (2 * k + m - 1) ** 2 * y ** 3)


def su2_bare_kappa(k: int, y: float) -> float:
    """kappa of the bare su2 character sum, differentiated exactly.

    p = y^{-3/2} f(y) with f = sum_j e^{n_j y} (1 + 2 n_j y), n_j = (k-2j)^2,
    so 4 kappa = 3/(2y^2) + f''/f - (f'/f)^2 with
    f' = sum e^{ny} n (3 + 2ny) and f'' = sum e^{ny} n^2 (5 + 2ny).
    """
    with mp.workdps(40):
        y = mpf(y)
        f = d1 = d2 = mpf(0)
        for j in range(k + 1):
            n = (k - 2 * j) ** 2
            e = mp.exp(n * y)
            f += e * (1 + 2 * n * y)
            d1 += e * n * (3 + 2 * n * y)
            d2 += e * n * n * (5 + 2 * n * y)
        return float((mpf(3) / (2 * y * y) + d2 / f - (d1 / f) ** 2) / 4)


def circle_kappa(r: float, k: int, y: float) -> float:
    """kappa of the bare truncated circle from the erf closed form of p.

    p = y^{-1} int_{-r}^{r} e^{-z^2/y + 2kz} dz
      = y^{-1} e^{k^2 y} sqrt(pi y)/2 (erfc((ky-r)/sqrt y) - erfc((ky+r)/sqrt y)),
    differentiated twice in y by mpmath at 40 digits.
    """
    with mp.workdps(40):
        r, k = mpf(r), mpf(k)

        def log_p(t):
            st = mp.sqrt(t)
            return (-mp.log(t) + k * k * t + mp.log(mp.sqrt(mp.pi * t) / 2)
                    + mp.log(mp.erfc((k * t - r) / st)
                             - mp.erfc((k * t + r) / st)))

        return float(mp.diff(log_p, mpf(y), 2) / 4)


def load_sphere_table(path: str = SPHERE_TABLE) -> dict:
    """(m, k, Im s) -> kappa from the stored 40-digit moment identity."""
    with open(path) as fh:
        payload = json.load(fh)
    return {(e["m"], e["k"], float(e["im_s"])): float(e["kappa"])
            for e in payload["entries"]}


class Oracles:
    """Oracle values for one run, computed once, before any timed pass."""

    def __init__(self, sphere_table: dict | None = None):
        self._sphere = (load_sphere_table() if sphere_table is None
                        else sphere_table)
        self._memo = {}

    def kappa(self, model: str, corrected: bool, k: int, y: float) -> Target:
        key = (model, corrected, k, y)
        if key not in self._memo:
            self._memo[key] = self._kappa(model, corrected, k, y)
        return self._memo[key]

    def _kappa(self, model, corrected, k, y) -> Target:
        kind, _, arg = model.partition(":")
        m = manifold_dim(model)
        floor = m / (8.0 * y * y)
        if kind == "sphere":
            if not corrected:
                raise ValueError("spheres are defined with the corrected weight")
            if m == 3:
                return Target(0.0, 1.0 / (8.0 * (2 * k + 2) ** 2 * y ** 3),
                              SPHERE_TOL)
            value = self._sphere[(m, k, y)]
            return Target(value, abs(value), SPHERE_TOL)
        if model == "group:su2":
            if corrected:
                return Target(0.0, floor, OTHER_TOL)
            value = su2_bare_kappa(k, y)
        elif kind == "torus" and not corrected:
            value = floor
        elif kind == "circle" and not corrected:
            value = circle_kappa(float(arg), k, y)
        else:
            raise ValueError(f"no oracle for {model} corrected={corrected}")
        return Target(value, max(abs(value), floor), OTHER_TOL)
