"""Parse what one CLI call printed and judge each record against its oracle."""
from __future__ import annotations

import json
from dataclasses import dataclass

from oracles import (FLATNESS_VERDICTS, OTHER_TOL, TRANSPORT_PHASE, Oracles,
                     sphere_asymptote)
from workloads import VERIFY_CHECKS, Job


@dataclass(frozen=True)
class Outcome:
    """The verdict on one expected record."""

    job: str
    record: str
    ok: bool
    detail: str = ""
    counted: bool = True      # False: malformed output, not an owed record
    off_value: bool = False   # True: in place and well formed, kappa missed

    @property
    def is_kappa(self) -> bool:
        """A sweep, curvature or asymptote record (named by _point_key)."""
        return self.record.startswith("k=")


def _point_key(k, y) -> str:
    return f"k={k} im_s={y:g}"


def check_job(job: Job, rc: int, out: str, oracles: Oracles) -> list:
    """One Outcome per record the job should print, in print order.

    A call that exits non-zero fails every record it owed; a record that is
    missing, unparseable or off its oracle fails on its own.
    """
    label = job.label()
    if rc != 0:
        names = ([_point_key(k, y) for k, y in job.points()] if job.is_point
                 else list(VERIFY_CHECKS) if job.command == "verify"
                 else [job.command])
        return [Outcome(label, n, False, f"exit code {rc}") for n in names]
    lines = out.splitlines()
    if job.is_point:
        return _check_points(job, label, lines, oracles)
    if job.command == "flatness":
        return [_check_flatness(job, label, lines, oracles)]
    if job.command == "transport":
        return [_check_transport(label, lines)]
    return _check_verify(label, lines)


def _parse_json(line: str):
    try:
        return json.loads(line)
    except json.JSONDecodeError:
        return None


def _check_points(job, label, lines, oracles) -> list:
    records = [_parse_json(line) for line in lines]
    outcomes = []
    for i, (k, y) in enumerate(job.points()):
        name = _point_key(k, y)
        rec = records[i] if i < len(records) else None
        if not isinstance(rec, dict):
            outcomes.append(Outcome(label, name, False, "record missing"))
            continue
        if (rec.get("model"), rec.get("corrected"), rec.get("k"),
                rec.get("s")) != (job.model, job.corrected, k,
                                  {"re": 0.0, "im": y}):
            outcomes.append(Outcome(label, name, False,
                                    f"record out of place: {rec}"))
            continue
        target = oracles.kappa(job.model, job.corrected, k, y)
        kappa = rec.get("kappa")
        ok = target.accepts(kappa)
        off_value = not ok and isinstance(kappa, float)
        detail = f"kappa={kappa!r} oracle={target.value!r}"
        if job.command == "asymptote":
            m = int(job.model.partition(":")[2])
            want = sphere_asymptote(k, m, y)
            asym = rec.get("asymptote")
            if not (isinstance(asym, float)
                    and abs(asym - want) <= 1e-12 * abs(want)):
                ok = off_value = False
                detail += f" asymptote={asym!r} expected {want!r}"
        outcomes.append(Outcome(label, name, ok, detail, off_value=off_value))
    if len(records) > len(outcomes):
        outcomes.append(Outcome(label, "extra output", False,
                                f"{len(records) - len(outcomes)} extra lines",
                                counted=False))
    return outcomes


def _check_flatness(job, label, lines, oracles) -> Outcome:
    rec = _parse_json(lines[0]) if len(lines) == 1 else None
    if not isinstance(rec, dict):
        return Outcome(label, "verdict", False, f"expected one record: {lines}")
    targets = [oracles.kappa(job.model, job.corrected, k, y)
               for k, y in job.points()]
    want_max = max(abs(t.value) for t in targets)
    scale = max(t.scale for t in targets)
    verdict = rec.get("verdict")
    max_abs = rec.get("max_abs_kappa")
    ok = (verdict == FLATNESS_VERDICTS[(job.model, job.corrected)]
          and isinstance(max_abs, float)
          and abs(max_abs - want_max) <= OTHER_TOL * scale)
    return Outcome(label, "verdict", ok,
                   f"verdict={verdict} max_abs_kappa={max_abs!r} "
                   f"oracle max={want_max!r}")


def _check_transport(label, lines) -> Outcome:
    rec = _parse_json(lines[0]) if len(lines) == 1 else None
    try:
        phase = complex(rec["phase"]["re"], rec["phase"]["im"])
    except (TypeError, KeyError):
        return Outcome(label, "phase", False, f"expected one record: {lines}")
    gap = abs(phase - TRANSPORT_PHASE)
    return Outcome(label, "phase", gap <= OTHER_TOL,
                   f"phase={phase!r} |phase - e^i|={gap:.3e}")


def _check_verify(label, lines) -> list:
    outcomes = []
    for i, name in enumerate(VERIFY_CHECKS):
        parts = lines[i].split() if i < len(lines) else []
        ok = len(parts) >= 4 and parts[0] == name and parts[3] == "PASS"
        outcomes.append(Outcome(label, name, ok,
                                lines[i] if i < len(lines) else "line missing"))
    summary = f"{len(VERIFY_CHECKS)}/{len(VERIFY_CHECKS)} checks passed"
    if lines[len(VERIFY_CHECKS):] != [summary]:
        outcomes.append(Outcome(label, "summary", False,
                                f"expected {summary!r} as the last line",
                                counted=False))
    return outcomes


class Tally:
    """Verdicts over a run's passes, kept in constant memory.

    The first pass given (the warm-up) fixes which records fail; every later
    pass must fail the same ones, since the program is deterministic.  Only
    ``add(..., timed=True)`` passes count towards ``attempted`` and ``failed``.
    A failure is unexpected unless the workload names a known fault and the
    record is one that fault explains: parsed, in place, and carrying a
    numeric kappa that misses its oracle.  A non-zero exit, an exception, a
    missing or out-of-place record is never excused.
    """

    def __init__(self, known_fault: str | None = None):
        self.known_fault = known_fault
        self.verdicts = None
        self.unrepeated = 0
        self.attempted = self.failed = 0
        self.failed_lines: set = set()
        self.unexpected: set = set()

    def add(self, outcomes, timed: bool = True) -> None:
        verdicts = [o.ok for o in outcomes]
        if self.verdicts is None:
            self.verdicts = verdicts
        elif timed and verdicts != self.verdicts:
            self.unrepeated += 1
        for o in outcomes:
            if timed and o.counted:
                self.attempted += 1
                self.failed += not o.ok
            if o.ok:
                continue
            line = f"{o.job} :: {o.record} :: {o.detail}"
            if o.counted:
                self.failed_lines.add(line)
            if not (self.known_fault and o.off_value):
                self.unexpected.add(line)

    @property
    def correct(self) -> bool:
        return not self.unexpected and not self.unrepeated
