"""Fast tests of the benchmark's own parts: oracles, record checks, tracing.

    python3 -m pytest -q perfbench
"""
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from check import Tally, check_job                             # noqa: E402
from oracles import (Oracles, circle_kappa, load_sphere_table,  # noqa: E402
                     sphere_asymptote, su2_bare_kappa)
from regen_sphere_oracle import sphere_kappa                    # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_time, totals  # noqa: E402
from workloads import (KNOWN_FAULTS, LARGE_K, LARGE_Y,        # noqa: E402
                       VERIFY_CHECKS, Job, jobs_for, point_queries)


# -- oracles against their anchors -------------------------------------------

def test_su2_bare_anchors():
    assert su2_bare_kappa(0, 1.0) == pytest.approx(0.375, abs=1e-14)
    assert su2_bare_kappa(1, 1.0) == pytest.approx(0.375 - 1 / 9, abs=1e-14)
    assert round(su2_bare_kappa(1, 1.0), 4) == 0.2639


def test_torus_and_flat_targets():
    oracles = Oracles(sphere_table={})
    for m in (1, 2, 3):
        for y in (0.5, 1.0, 2.0):
            t = oracles.kappa(f"torus:{m}", False, 2, y)
            assert t.value == m / (8 * y * y)
    su2 = oracles.kappa("group:su2", True, 5, 0.5)
    assert (su2.value, su2.scale) == (0.0, 3 / (8 * 0.25))
    s3 = oracles.kappa("sphere:3", True, 20, 1.0)
    assert (s3.value, s3.scale) == (0.0, 1 / (8 * 42 ** 2))


def test_circle_slope_tends_to_r_over_2y3():
    r, y = 1.0, 1.0
    k_inf = 0.25 * (-2 * r * r / y ** 3 + 1 / y ** 2)
    gaps = [abs(k * (circle_kappa(r, k, y) - k_inf) - r / (2 * y ** 3))
            for k in (20, 80, 320)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 2e-3


def test_sphere_table_matches_moment_identity_and_asymptote():
    table = load_sphere_table()
    assert float(sphere_kappa(2, 5, 0.5, 30)) == pytest.approx(
        table[(2, 5, 0.5)], rel=1e-12)
    for m in (2, 4):
        for k in LARGE_K:
            for y in LARGE_Y:
                assert sphere_asymptote(k, m, y) == pytest.approx(
                    table[(m, k, y)], rel=1e-4)
    # the value quoted for the wrong-sign record below
    assert table[(2, 200, 1.0)] == pytest.approx(-7.7739e-7, rel=1e-4)


# -- record checks ------------------------------------------------------------

def _point_line(model, k, y, kappa, **extra):
    rec = {"model": model, "corrected": True, "k": k,
           "s": {"re": 0.0, "im": y}, "kappa": kappa, **extra}
    return json.dumps(rec) + "\n"


def test_wrong_sign_record_counts_as_failed():
    oracles = Oracles()
    job = Job("sweep", "sphere:2", True, (200,), (1.0,))
    bad = check_job(job, 0, _point_line("sphere:2", 200, 1.0, 3.37e-7),
                    oracles)
    good = check_job(job, 0, _point_line("sphere:2", 200, 1.0, -7.77e-7),
                     oracles)
    assert [(o.ok, o.counted, o.off_value) for o in bad] == \
        [(False, True, True)]
    assert [(o.ok, o.counted, o.off_value) for o in good] == \
        [(True, True, False)]


def _large_k_tally(rc, out_for):
    """Tally a warm-up and one timed pass of sphere-large-k in which every
    call exits with rc and prints out_for(job)."""
    oracles = Oracles()
    jobs = jobs_for("sphere-large-k", 0)
    tally = Tally(KNOWN_FAULTS["sphere-large-k"])
    for timed in (False, True):
        tally.add([o for job in jobs
                   for o in check_job(job, rc, out_for(job), oracles)],
                  timed=timed)
    return tally


def _wrong_sign_lines(job):
    out = ""
    for k, y in job.points():
        extra = {}
        if job.command == "asymptote":
            m = int(job.model.partition(":")[2])
            extra["asymptote"] = sphere_asymptote(k, m, y)
        out += _point_line(job.model, k, y, 1e-3, **extra).replace(
            "true", "true" if job.corrected else "false")
    return out


def test_known_fault_excuses_only_off_value_kappa():
    tally = _large_k_tally(0, _wrong_sign_lines)
    assert (tally.attempted, tally.failed) == (12, 12)
    assert tally.correct and not tally.unexpected


@pytest.mark.parametrize("rc, out_for", [
    (2, lambda job: ""),                          # the CLI refused the call
    ("exception", lambda job: ""),                # cli.main raised
    (0, lambda job: ""),                          # exit 0, nothing printed
    (0, lambda job: _wrong_sign_lines(job).replace('"k": ', '"k": 1')),
])
def test_known_fault_does_not_excuse_a_broken_call(rc, out_for):
    tally = _large_k_tally(rc, out_for)
    assert (tally.attempted, tally.failed) == (12, 12)
    assert not tally.correct and tally.unexpected


def test_passes_must_fail_the_same_records():
    oracles = Oracles(sphere_table={})
    job = Job("sweep", "torus:1", False, (0,), (1.0,))
    good = _point_line("torus:1", 0, 1.0, 0.125).replace("true", "false")
    tally = Tally()
    tally.add(check_job(job, 0, good, oracles), timed=False)
    tally.add(check_job(job, 0, good, oracles))
    assert tally.correct and (tally.attempted, tally.failed) == (1, 0)
    tally.add(check_job(job, 0, good.replace("0.125", "-0.125"), oracles))
    assert not tally.correct and tally.unrepeated == 1


def test_missing_records_and_exit_codes_fail_every_owed_record():
    oracles = Oracles(sphere_table={})
    job = Job("sweep", "torus:1", False, (0, 1), (1.0, 2.0))
    half = "".join(_point_line("torus:1", k, y, 0.125 / y ** 2)
                   .replace("true", "false") for k, y in job.points()[:2])
    assert [o.ok for o in check_job(job, 0, half, oracles)] == \
        [True, True, False, False]
    assert [o.ok for o in check_job(job, 1, "", oracles)] == [False] * 4


def test_verify_and_transport_records():
    lines = [f"{n}  residual=0.000e+00  tol=1e-06  PASS" for n in VERIFY_CHECKS]
    out = "\n".join(lines + ["18/18 checks passed"]) + "\n"
    assert all(o.ok for o in check_job(Job("verify"), 0, out, None))
    lines[4] = lines[4].replace("PASS", "FAIL")
    out = "\n".join(lines + ["17/18 checks passed"]) + "\n"
    outcomes = check_job(Job("verify"), 1, out, None)
    assert len(outcomes) == 18 and not any(o.ok for o in outcomes)
    phase = {"phase": {"re": math.cos(1.0), "im": math.sin(1.0)}}
    assert check_job(Job("transport"), 0, json.dumps(phase), None)[0].ok
    phase["phase"]["im"] = -phase["phase"]["im"]
    assert not check_job(Job("transport"), 0, json.dumps(phase), None)[0].ok


def test_point_queries_are_a_fixed_mix_drawn_by_the_seed():
    a, b = point_queries(1), point_queries(2)
    assert len(a) == 48 and a == point_queries(1) and a != b
    family = sorted((j.model, j.corrected) for j in a)
    assert family == sorted((j.model, j.corrected) for j in b)
    assert all(j.model != "torus:3" for j in a)


# -- tracing ------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    parent = Span("p", 0.0, 10.0, -1, None)
    kids = [Span("a", 1.0, 3.0, 0, None), Span("b", 2.0, 4.0, 0, None),
            Span("c", 6.0, 7.0, 0, None), Span("d", 9.0, 12.0, 0, None)]
    # covered: [1,4] + [6,7] + [9,10] = 5
    assert self_time(parent, kids) == pytest.approx(5.0)
    assert self_time(parent, []) == 10.0


def test_totals_count_recursion_once_and_groups_by_outermost_span():
    spans = [Span("f", 0.0, 10.0, -1, "j"), Span("f", 1.0, 5.0, 0, "j"),
             Span("g", 2.0, 3.0, 1, "j"), Span("g", 6.0, 8.0, 0, "j")]
    t = totals(spans, {"fg": lambda n: n in ("f", "g")})
    assert t.calls == {"f": 2, "g": 2}
    assert t.seconds["f"] == 10.0 and t.seconds["g"] == 3.0
    assert t.seconds["fg"] == 10.0
    # f: (10 - 4 - 2) + (4 - 1); g: 1 + 2
    assert t.self_seconds["f"] == pytest.approx(7.0)
    assert t.self_seconds["g"] == pytest.approx(3.0)


def test_tracer_counts_repeat_and_originals_come_back():
    from quantfield import cli, quadrature, quantization
    originals = (cli.main, quantization.curvature, quadrature.kappa_from_log)
    argv = ["curvature", "--model", "circle:1", "--k", "10", "--im-s", "1"]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            assert cli.main(argv) == 0
        metrics = layer_metrics(tracer.spans, useful_records=1)
        counts.append({k: v for k, (v, unit) in metrics.items()
                       if unit != "s"})
    assert (cli.main, quantization.curvature,
            quadrature.kappa_from_log) == originals
    assert counts[0] == counts[1]
    c = counts[0]
    assert c["quantization.curvature.calls"] == 1
    # 6 FD samples plus the CLI's own log p: no closed form for the circle
    assert c["quantization.p_truncated_circle.calls"] == 7
    assert c["quantization.logp_evals"] == 7
    assert c["quantization.kappa_per_logp_eval"] == pytest.approx(1 / 7)
    assert c["quadrature.integrate_log_panels.nodes"] == 7 * 16 * (
        len(quantization._circle_breakpoints(1.0)) - 1)
