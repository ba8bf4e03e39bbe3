"""Oracle-checked benchmark of quantfield, driven through its command line.

    python3 perfbench/run.py --workload grid-sweep --seed 0 --seconds 15 --trace 0

Every CLI call goes through ``quantfield.cli.main(argv)`` in this process, on
one thread, with its output captured in memory; one untimed warm-up pass runs
first.  Every record is checked against an oracle the benchmark computes
itself (``oracles.py``), outside the timed passes.  The last line printed is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, ``records_per_s``
and ``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of ``tracing.py``, with the tracing overhead,
and writes the spans to ``perfbench/out/spans-<workload>-seed<n>.jsonl``.
"""
import os

# One BLAS thread, and the CLI's own default of one sweep thread: set before
# numpy is first imported, and inherited by the set-up launches.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("QUANTFIELD_THREADS", None)

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

from check import Tally, check_job
from oracles import Oracles
from tracing import Tracer, layer_metrics
from workloads import KNOWN_FAULTS, WORKLOADS, jobs_for

SETUP_LAUNCHES = 7
MIN_PASSES = 3

# A fresh interpreter that runs one CLI call, as a user's shell would.
CHILD = ("import json, sys\n"
         "from quantfield import cli\n"
         "sys.exit(cli.main(json.loads(sys.argv[1])))\n")


def import_cli():
    """quantfield.cli from this checkout's src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "quantfield", "cli.py")):
        raise SystemExit(f"error: no quantfield sources under {SRC}")
    sys.path.insert(0, SRC)
    from quantfield import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported quantfield from {cli.__file__}")
    return cli


def run_pass(cli, jobs, tracer=None):
    """Run every job once; return (seconds, [(rc, stdout, stderr), ...])."""
    argvs = [(job.label(), job.argv()) for job in jobs]
    outputs = []
    start = time.perf_counter()
    for label, argv in argvs:
        if tracer is not None:
            tracer.job = label
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception:
                rc = "exception"
                err.write(traceback.format_exc())
        outputs.append((rc, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, outputs


def check_pass(jobs, outputs, oracles):
    outcomes = []
    for job, (rc, out, _) in zip(jobs, outputs):
        outcomes += check_job(job, rc, out, oracles)
    return outcomes


def launch_to_first_record(job):
    """Seconds from starting a fresh interpreter to the job's first record,
    and the job's full (rc, stdout)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-u", "-c", CHILD, json.dumps(job.argv())],
        cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    try:
        first = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    return elapsed, proc.returncode, first + rest


def measure_setup(job, oracles):
    """Median launch-to-first-record time, and the launches' outcomes."""
    times, outcomes = [], []
    for _ in range(SETUP_LAUNCHES):
        elapsed, rc, out = launch_to_first_record(job)
        times.append(elapsed)
        outcomes += check_job(job, rc, out, oracles)
    return statistics.median(times), outcomes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_cli()
    jobs = jobs_for(args.workload, args.seed)
    oracles = Oracles()
    for job in jobs:                       # every oracle, before any timing
        for k, y in job.points():
            oracles.kappa(job.model, job.corrected, k, y)

    metrics = {}
    setup_outcomes = []
    if not args.trace:
        setup_s, setup_outcomes = measure_setup(jobs[0], oracles)
        metrics["setup_s"] = (setup_s, "s")

    # Each pass is judged as soon as it ends and only its tally is kept, so
    # the memory held for checking does not grow with the number of passes.
    tally = Tally(KNOWN_FAULTS.get(args.workload))
    _, warm = run_pass(cli, jobs)
    warm_outcomes = check_pass(jobs, warm, oracles)
    tally.add(warm_outcomes, timed=False)
    tally.add(setup_outcomes, timed=False)
    records_per_pass = sum(o.counted for o in warm_outcomes)
    useful = sum(o.ok for o in warm_outcomes if o.counted and o.is_kappa)
    del warm, warm_outcomes, setup_outcomes

    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds
           or len(plain) + len(traced) < MIN_PASSES * (1 + args.trace)):
        if args.trace and len(traced) < len(plain):
            tracer = Tracer()
            with tracer.installed():
                secs, outputs = run_pass(cli, jobs, tracer)
            traced.append(secs)
            tracers.append(tracer)
        else:
            secs, outputs = run_pass(cli, jobs)
            plain.append(secs)
        tally.add(check_pass(jobs, outputs, oracles))
        del outputs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    unrepeated_counts = []
    if not args.trace:
        metrics["records_per_s"] = (
            records_per_pass / statistics.median(plain), "1/s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    else:
        layers, unrepeated_counts = traced_metrics(tracers, traced, plain,
                                                   useful)
        metrics.update(layers)
        os.makedirs(OUT_DIR, exist_ok=True)
        write_spans(os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"), tracers)

    q1, med, q3 = statistics.quantiles(plain, n=4)
    print(f"{args.workload}: {len(plain)} untraced passes of "
          f"{records_per_pass} records, pass time median {med:.4f} s "
          f"(quartiles {q1:.4f}, {q3:.4f})")
    if tally.failed:
        print(f"{tally.failed} of {tally.attempted} records failed their "
              "oracle" + (f"; known fault: {tally.known_fault}"
                          if tally.known_fault else ""))
        for line in sorted(tally.failed_lines):
            print(f"  FAILED {line}")
    for line in sorted(tally.unexpected):
        print(f"  UNEXPECTED {line}")
    if tally.unrepeated:
        print(f"  UNEXPECTED {tally.unrepeated} passes failed other records "
              "than the warm-up pass")
    for name in unrepeated_counts:
        print(f"  UNREPEATED count {name} differs between traced passes")
    print(json.dumps({
        "correct": tally.correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def traced_metrics(tracers, traced, plain, useful):
    """Per-layer metrics: counts from one traced pass, which every other
    traced pass must repeat, and the median of each time over the passes.
    Returns the metrics and the names of counts that did not repeat."""
    per_pass = [layer_metrics(t.spans, useful) for t in tracers]
    out, unrepeated = {}, []
    for name, (value, unit) in per_pass[0].items():
        values = [p[name][0] for p in per_pass]
        if unit == "s":
            out[name] = (statistics.median(values), unit)
        else:
            out[name] = (value, unit)
            if any(v != value for v in values):
                unrepeated.append(name)
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    out["trace.overhead_pct"] = (100.0 * overhead, "%")
    return out, unrepeated


def write_spans(path, tracers) -> None:
    with open(path, "w") as fh:
        for i, tracer in enumerate(tracers):
            for s in tracer.spans:
                fh.write(json.dumps({"pass": i, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent, "job": s.job,
                                     "work": s.work}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
