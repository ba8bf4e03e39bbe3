"""Regenerate ``sphere_oracle.json``: sphere curvature from the moment identity.

    python3 perfbench/regen_sphere_oracle.py        # about 5 minutes

For the corrected sphere S^m the weight on the radial variable t is

    w(t) = e^{-t^2/y} (sinh 2t)^q t^q C_k^q(cosh 2t),   q = (m-1)/2,

where the Gegenbauer polynomial C_k^q(cosh 2t) is, up to a constant factor
that cancels, the inner integral int_0^pi (cosh 2t + sinh 2t cos u)^k
sin^{m-2} u du (Laplace's integral).  Differentiating log p = -(m/2) log y +
log int w dt twice in y gives

    kappa = (1/4) (Var[t^2]/y^4 - 2 E[t^2]/y^3 + m/(2 y^2)).

The moments are computed by mpmath tanh-sinh quadrature at DPS digits and
again at CHECK_DPS digits; the two must agree to 1e-20 relative.  The command
also confirms that the paper's asymptote (m-1)(m-3)/(8(2k+m-1)^2 y^3) lies
within 1e-4 (relative) of every sphere-large-k value, so that it may stand in
for the stored values there.  It exits 1 if either confirmation fails.
"""
from __future__ import annotations

import json
import sys

from mpmath import mp, mpf

from oracles import SPHERE_TABLE, sphere_asymptote
from workloads import SPHERE_LARGE_K, SWEEPS

DPS = 40
CHECK_DPS = 50
AGREEMENT = 1e-20
ASYMPTOTE_TOL = 1e-4


def points() -> list:
    """(m, k, y, large) for every sphere record with m != 3 the workloads
    make; large marks the sphere-large-k points."""
    out = []
    for jobs, large in ((SWEEPS, False), (SPHERE_LARGE_K, True)):
        for job in jobs:
            kind, _, arg = job.model.partition(":")
            if kind == "sphere" and arg != "3":
                out += [(int(arg), k, y, large) for k, y in job.points()]
    return out


def sphere_kappa(m: int, k: int, y: float, dps: int):
    """kappa of the corrected sphere from the moment identity, as an mpf."""
    with mp.workdps(dps):
        y = mpf(y)
        q = mpf(m - 1) / 2
        cache = {}

        def w(t):
            if t not in cache:
                z = mp.cosh(2 * t)
                prev, cur = mpf(1), 2 * q * z            # C_0, C_1
                if k == 0:
                    cur = prev
                for n in range(2, k + 1):
                    prev, cur = cur, (2 * z * (n + q - 1) * cur
                                      - (n + 2 * q - 2) * prev) / n
                cache[t] = mp.exp(-t * t / y) * (mp.sinh(2 * t) * t) ** q * cur
            return cache[t]

        # the weight peaks at t = (k+q) y with width ~ sqrt(y/2); 16 sqrt(y)
        # on either side leaves e^-256 of the mass outside
        peak, width = (k + q) * y, mp.sqrt(y)
        lo = max(mpf(0), peak - 16 * width - 2)
        cuts = [lo] + [c for c in (peak - 4 * width, peak, peak + 4 * width)
                       if c > lo] + [peak + 16 * width + 2]
        i0 = mp.quad(w, cuts)
        e2 = mp.quad(lambda t: w(t) * t ** 2, cuts) / i0
        e4 = mp.quad(lambda t: w(t) * t ** 4, cuts) / i0
        return (e4 - e2 * e2) / (4 * y ** 4) - e2 / (2 * y ** 3) \
            + mpf(m) / (8 * y * y)


def main() -> int:
    entries, ok = [], True
    for m, k, y, large in points():
        value = sphere_kappa(m, k, y, DPS)
        check = sphere_kappa(m, k, y, CHECK_DPS)
        agreement = float(abs(value - check) / abs(check))
        asym = sphere_asymptote(k, m, y)
        asym_rel = abs(asym / float(value) - 1.0)
        line = (f"m={m} k={k} y={y:g} kappa={float(value):.12e} "
                f"dps-agreement={agreement:.1e} asymptote-rel={asym_rel:.2e}")
        if agreement > AGREEMENT:
            ok = False
            line += "  PRECISION NOT REACHED"
        if large and asym_rel > ASYMPTOTE_TOL:
            ok = False
            line += "  ASYMPTOTE OFF"
        print(line, flush=True)
        with mp.workdps(DPS):
            text = mp.nstr(value, DPS)
        entries.append({"m": m, "k": k, "im_s": y, "kappa": text,
                        "asymptote": asym, "asymptote_rel_err": asym_rel,
                        "dps_agreement": agreement})
    payload = {
        "formula": "kappa = (Var[t^2]/y^4 - 2 E[t^2]/y^3 + m/(2y^2)) / 4 under "
                   "w(t) = exp(-t^2/y) (sinh 2t)^q t^q C_k^q(cosh 2t), "
                   "q = (m-1)/2",
        "dps": DPS,
        "check_dps": CHECK_DPS,
        "quadrature": "mpmath tanh-sinh on [max(0, p-16 sqrt y - 2), p-4 sqrt y,"
                      " p, p+4 sqrt y, p+16 sqrt y + 2], p = (k+q) y",
        "entries": entries,
    }
    if not ok:
        print("not written: a confirmation failed", file=sys.stderr)
        return 1
    with open(SPHERE_TABLE, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(entries)} values to {SPHERE_TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
