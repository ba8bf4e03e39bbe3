import csv
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace

import pytest

from quantfield import quantization
from quantfield.cli import CSV_HEADER, _build_parser, main


def run(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_curvature_json_records(capsys):
    rc, out, _ = run(["curvature", "--model", "group:su2", "--corrected",
                      "--k", "0,1,2", "--im-s", "1"], capsys)
    assert rc == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 3
    for rec in records:
        assert abs(rec["kappa"]) < 1e-6
        assert rec["model"] == "group:su2"
        assert rec["corrected"] is True
        assert set(rec) >= {"model", "corrected", "k", "s", "log_p", "kappa",
                            "method", "tolerances"}


def test_p_value(capsys):
    rc, out, _ = run(["p-value", "--model", "torus:1", "--k", "2",
                      "--im-s", "1"], capsys)
    assert rc == 0
    rec = json.loads(out)
    # log p = (1/2) log y + b + k^2 y with b = -log y: at y=1 just k^2 y
    assert rec["log_p"] == pytest.approx(4.0 + 0.5 * math.log(math.pi),
                                         abs=1e-9)
    assert rec["kappa"] is None


def test_flatness_witness(capsys):
    rc, out, _ = run(["flatness", "--model", "group:su2", "--k", "0,1",
                      "--im-s", "1,2"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["verdict"] == "NotProjectivelyFlat"
    assert payload["witness"]["gap"] == pytest.approx(1 / 9, abs=1e-6)


def test_sweep_csv_header_and_order(capsys):
    rc, out, _ = run(["sweep", "--model", "torus:1", "--k", "2,0,10",
                      "--im-s", "1,0.5", "--format", "csv"], capsys)
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == CSV_HEADER
    ks = [int(r[2]) for r in rows[1:]]
    ys = [float(r[4]) for r in rows[1:]]
    assert ks == [0, 0, 2, 2, 10, 10]       # numeric, not lexicographic
    assert ys == [0.5, 1.0, 0.5, 1.0, 0.5, 1.0]


def test_byte_stable(capsys):
    argv = ["sweep", "--model", "circle:1.0", "--k", "3", "--im-s", "1",
            "--format", "csv"]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert out1 == out2


def test_cached_parser_gives_fresh_output(capsys):
    # the parser is built once per process: options of one call must not
    # leak into the next (p-value --show-config would print corrected=true)
    argvs = (["curvature", "--model", "circle:1", "--corrected", "--k", "3",
              "--im-s", "0.5", "--format", "csv"],
             ["flatness", "--model", "group:su2", "--k", "0,1",
              "--im-s", "1,2"],
             ["p-value", "--model", "torus:2", "--show-config"])
    in_sequence = [run(argv, capsys) for argv in argvs]
    for argv, seen in zip(argvs, in_sequence):
        _build_parser.cache_clear()
        assert run(argv, capsys) == seen
        assert seen[0] == 0 and seen[1]
    assert '"corrected": false' in in_sequence[2][1]


@pytest.mark.parametrize("corrected", [False, True])
@pytest.mark.parametrize("k, y", [(3, 1e-9), (1000, 1e-6), (1000, 1e-4),
                                  (100000, 1e-6)])
def test_circle_interior_reads_torus_1(k, y, corrected, capsys):
    # the peak k y lies far inside (-1, 1): kappa = (c - 1/2)/(4y^2), c = 1
    # bare and 1/2 corrected, judged against the bare value 1/(8y^2)
    argv = ["curvature", "--model", "circle:1", "--k", str(k),
            "--im-s", repr(y)] + (["--corrected"] if corrected else [])
    rc, out, _ = run(argv, capsys)
    assert rc == 0
    c = 0.5 if corrected else 1.0
    got = json.loads(out)["kappa"]
    assert abs(got - (c - 0.5) / (4 * y * y)) <= 1e-15 / (8 * y * y)


@pytest.mark.parametrize("corrected, want", [
    (False, "1.249999999999989833276467968814316288867e+11"),
    (True, "-0.001027985325246647004467609849166751506254")])
def test_circle_peak_inside_reads_40_digits(corrected, want, capsys):
    # the peak k y lies 7 widths inside (-1, 1); the panel rows before the
    # closed form printed 3.0e-5 of 1/(8y^2) off.  want is the erfc form at
    # 60 digits (mpmath, mp.diff)
    argv = ["curvature", "--model", "circle:1", "--k", "993000",
            "--im-s", "1e-6"] + (["--corrected"] if corrected else [])
    rc, out, _ = run(argv, capsys)
    assert rc == 0
    assert abs(json.loads(out)["kappa"] - float(want)) <= 1e-12 / 8e-12


# (model, k, Im s, bare kappa, corrected kappa); None where kappa is not a
# float.  From the erfc form at 700 digits (mpmath) for 10^12 and 1e-300,
# else exact limits: torus:1's (c - 1/2)/(4y^2) where [-r, r] holds the
# whole Gaussian, about c/(4y^2) < 1e-600 at Im s = 1e300 (0 as a float),
# and -r^2/(2y^3) for circle:1e300 there
_CIRCLE_EDGES = [
    ("circle:1", 10 ** 12, "1", "-0.2499999999994999999999995",
     "-0.3749999999994999999999995"),
    ("circle:1e-300", 3, "1", "0.25", "0.125"),
    ("circle:1e300", 3, "1", "0.125", "0.0"),
    ("circle:1", 3, "1e-300", None, "0.0"),
    ("circle:1", 3, "1e300", "0.0", "0.0"),
    ("circle:1", 0, "1e300", "0.0", "0.0"),
    ("circle:1e300", 3, "1e300", "-5e-301", "-5e-301"),
]


@pytest.mark.parametrize("corrected", [False, True])
@pytest.mark.parametrize("model, k, y, bare, corr", _CIRCLE_EDGES)
def test_circle_edge_inputs(model, k, y, bare, corr, corrected, capsys):
    # each exits 0 within the accuracy grid's bound of its oracle, or exits
    # 1 or 2 with a one-line message; k and -k print the same record
    want = corr if corrected else bare
    records = []
    for kk in (k, -k):
        argv = ["curvature", "--model", model, "--k", str(kk), "--im-s", y]
        rc, out, err = run(argv + (["--corrected"] if corrected else []),
                           capsys)
        assert rc in (0, 1, 2) and "Traceback" not in err
        if want is None:
            assert rc == 1 and not out
        if rc:
            records.append(rc)
            continue
        rec = json.loads(out)
        got, v = rec.pop("kappa"), float(y)
        assert rec.pop("k") == kk and math.isfinite(got)
        assert (abs(got - float(want))
                <= 1e-11 * max(abs(float(want)), 0.125 / v / v))
        records.append((got, rec))
    assert records[0] == records[1]


def test_asymptote(capsys):
    rc, out, _ = run(["asymptote", "--model", "sphere:2", "--k", "10",
                      "--im-s", "1"], capsys)
    assert rc == 0
    rec = json.loads(out)
    assert rec["asymptote"] == pytest.approx(-1 / (8 * 21 ** 2))
    assert abs(rec["ratio"] - 1.0) < 0.25


def test_transport(capsys):
    rc, out, _ = run(["transport", "--example", "abelian-area",
                      "--loop", "unit-square"], capsys)
    assert rc == 0
    rec = json.loads(out)
    assert rec["magnitude"] == pytest.approx(1.0, abs=1e-9)
    assert abs(rec["argument"]) == pytest.approx(1.0, abs=1e-9)
    assert rec["off_scalar"] < 1e-10


def test_invalid_model_exit_code(capsys):
    rc, _, err = run(["curvature", "--model", "nonagon:7"], capsys)
    assert rc == 2
    assert "nonagon" in err


def test_bad_flag_exit_code(capsys):
    assert main(["curvature", "--frobnicate"]) == 2


def test_missing_subcommand(capsys):
    assert main([]) == 2


def test_show_config(capsys):
    rc, out, _ = run(["curvature", "--model", "torus:2", "--show-config"],
                     capsys)
    assert rc == 0
    cfg = json.loads(out)
    assert cfg["model"] == "torus:2"
    assert cfg["fmt"] == "json"


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = torus:1\nk_values = 5\nim_s = 2\nfmt = csv\n")
    rc, out, _ = run(["curvature", "--config", str(cfg)], capsys)
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][0] == "torus:1" and rows[1][2] == "5"
    # flags override the file
    rc, out, _ = run(["curvature", "--config", str(cfg), "--k", "1"], capsys)
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][2] == "1"


def test_config_json_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": "circle:0.5", "k_values": [1],
                               "im_s": [1.0]}))
    rc, out, _ = run(["p-value", "--config", str(cfg)], capsys)
    assert rc == 0
    assert json.loads(out)["model"] == "circle:0.5"


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("banana = 3\n")
    assert main(["curvature", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("line", ["im_s = abc", "k_values = ,", "tol = nan"])
def test_invalid_config_value_exit_code(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"model = torus:1\n{line}\n")
    rc, out, err = run(["curvature", "--config", str(cfg)], capsys)
    assert rc == 2 and out == ""
    assert err.startswith("error:")


def test_output_file(tmp_path, capsys):
    dest = tmp_path / "out.jsonl"
    rc, out, _ = run(["curvature", "--model", "torus:1", "--k", "0",
                      "--im-s", "1", "--output", str(dest)], capsys)
    assert rc == 0 and out == ""
    assert json.loads(dest.read_text())["model"] == "torus:1"


def test_verify_subset(capsys):
    rc, out, _ = run(["verify", "--checks",
                      "character-weight-sum,half-form-density-duality"],
                     capsys)
    assert rc == 0
    assert "2/2 checks passed" in out
    assert "PASS" in out


def test_curvature_small_im_s_relative_cross_check(capsys):
    # kappa = 2/(8 y^2) = 2.5e7: the closed-form cross-check is relative
    rc, out, err = run(["curvature", "--model", "torus:2", "--k", "1",
                        "--im-s", "1e-4"], capsys)
    assert rc == 0, err
    rec = json.loads(out)
    assert rec["kappa"] == pytest.approx(2.5e7, rel=1e-9)
    assert rec["method"] == "quadrature+moments"
    assert rec["tolerances"] == {"tol": 1e-5}


def test_sphere_panels_run_at_large_m(capsys):
    # m = 400 below the switch, on the panel route; 40-digit mpmath value
    # from the moments of t^2 with phi_k by mpmath's gegenbauer
    rc, out, err = run(["curvature", "--model", "sphere:400", "--corrected",
                        "--k", "5", "--im-s", "1e-4"], capsys)
    assert rc == 0, err
    # the moment identity cancels terms of size m / (8 y^2) = 5e9 down to it
    assert abs(json.loads(out)["kappa"] - 529461.25257563587) \
        <= 1e-12 * 400 / (8 * 1e-4 ** 2)


def test_su3_dynkin_labels(capsys):
    rc, out, _ = run(["flatness", "--model", "group:su3", "--corrected",
                      "--k", "0/0,1/0", "--im-s", "1,2"], capsys)
    assert rc == 0
    assert json.loads(out)["verdict"] == "Flat"
    rc, out, _ = run(["sweep", "--model", "group:su3", "--corrected",
                      "--k", "1/1", "--im-s", "1", "--format", "csv"], capsys)
    assert rc == 0
    assert list(csv.reader(io.StringIO(out)))[1][2] == "1/1"


def test_su3_bare_names_rank_limit(capsys):
    rc, _, err = run(["curvature", "--model", "group:su3", "--k", "1/0",
                      "--im-s", "1"], capsys)
    assert rc == 2
    assert "rank 1" in err


def test_removed_fd_flags_are_rejected(capsys):
    assert main(["curvature", "--model", "torus:1", "--h-rel", "1e-3"]) == 2


@pytest.mark.parametrize("argv", [
    ["flatness", "--model", "torus:1", "--k", "", "--im-s", "1,2"],
    ["curvature", "--model", "torus:1", "--k", "0", "--im-s", ","],
    ["curvature", "--model", "torus:1", "--k", "0", "--im-s", "inf"],
    ["curvature", "--model", "group:su2", "--k", "0", "--im-s", "inf"],
    ["curvature", "--model", "sphere:2", "--k", "3", "--im-s", "nan"],
    ["p-value", "--model", "circle:1", "--k", "3", "--im-s", "inf"],
    ["flatness", "--model", "torus:1", "--k", "0,1", "--im-s", "1,inf"],
    ["sweep", "--model", "torus:1", "--k", "0", "--im-s", "1",
     "--re-s", "nan"],
    ["asymptote", "--model", "sphere:2", "--k", "10", "--im-s", "1",
     "--re-s", "-inf"],
    ["flatness", "--model", "group:su2", "--corrected", "--k", "0,1",
     "--im-s", "1,2", "--tol", "nan"],
    ["curvature", "--model", "torus:1", "--k", "0", "--tol", "-1"],
    ["transport", "--scale", "nan"],
    ["curvature", "--model", "torus:1", "--k", "0", "--seed", "3"],
    ["curvature", "--model", "torus:0", "--k", "0"],
    ["curvature", "--model", "torus:-1", "--k", "0"],
], ids=["empty-k", "empty-im-s", "inf-torus", "inf-su2", "nan-sphere",
        "inf-circle-p-value", "inf-flatness", "nan-re-s", "inf-re-asymptote",
        "nan-tol", "negative-tol", "nan-transport-scale", "removed-seed",
        "torus-rank-0", "torus-rank-negative"])
def test_invalid_input_exit_code(argv, capsys):
    rc, out, _ = run(argv, capsys)
    assert rc == 2
    assert out == ""


@pytest.mark.parametrize("r", ["nan", "inf", "-inf", "0", "-1"])
def test_circle_radius_must_be_finite_and_positive(r, capsys):
    # circle:nan once exited 2 blaming p, and circle:inf printed torus:1's
    # kappa with exit 0: every row took the interior branch
    rc, out, err = run(["curvature", "--model", f"circle:{r}", "--k", "1"],
                       capsys)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "finite r > 0" in err


@pytest.mark.parametrize("bad", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command, model", [("sweep", "torus:1"),
                                            ("sweep", "sphere:3"),
                                            ("p-value", "circle:1"),
                                            ("asymptote", "sphere:2")])
def test_one_invalid_im_s_in_a_grid_exits_2(command, model, bad, capsys):
    # the grid is checked whole before any record is printed
    rc, out, err = run([command, "--model", model, "--corrected", "--k", "1,5",
                        "--im-s", f"0.5,2,{bad},1"], capsys)
    assert rc == 2 and out == ""
    assert err.startswith("error:")


def test_grid_disagreement_exits_1_naming_first_failing_s(capsys,
                                                         monkeypatch):
    # a closed form moved off the quadrature at Im s 50 and 100, not at 1
    # or 5, fails the cross-check there; the message names the first in
    # --im-s order
    closed = quantization.p_su2_closed

    def off_at_50_and_100(s, k):
        return [replace(c, kappa=c.kappa + 1.0) if v.imag in (50, 100) else c
                for v, c in zip(s, closed(s, k))]

    monkeypatch.setattr(quantization, "p_su2_closed", off_at_50_and_100)
    rc, out, err = run(["sweep", "--model", "group:su2", "--k", "1,50",
                        "--im-s", "1,100,5,50"], capsys)
    assert rc == 1 and out == ""
    assert "s=100j" in err and "s=50j" not in err


@pytest.mark.parametrize("m", [5, 8])
def test_torus_above_rank_4_runs(m, capsys):
    rc, out, err = run(["sweep", "--model", f"torus:{m}", "--k", "0,1",
                        "--im-s", "0.5,1,20"], capsys)
    assert rc == 0, err
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 6
    for rec in records:
        y = rec["s"]["im"]
        assert rec["kappa"] == pytest.approx(m / (8 * y * y), rel=1e-13)


@pytest.mark.parametrize("m", [65, 3000])
def test_torus_rank_above_bound_exits_2_at_once(m, capsys):
    # refused before a rank-m root system or weight is built
    start = time.perf_counter()
    rc, out, err = run(["curvature", "--model", f"torus:{m}", "--k", "1",
                        "--im-s", "1"], capsys)
    assert time.perf_counter() - start < 0.1
    assert rc == 2 and out == ""
    assert "64" in err


def _src_env():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=src)


def test_python_dash_m_runs_the_cli():
    out = subprocess.run([sys.executable, "-m", "quantfield", "verify",
                          "--checks", "character-weight-sum"],
                         capture_output=True, text=True, env=_src_env(),
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert "1/1 checks passed" in out.stdout


def test_cli_runtime_loads_no_scipy():
    # numpy is the only runtime dependency: start-up, a sweep of every model
    # family, transport and verify load no scipy module
    code = """
import contextlib, io, json, sys
import quantfield.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))

loaded = {"import": scipy_modules()}
sweeps = [["--model", "group:su2", "--k", "0,1,2"],
          ["--model", "group:su2", "--corrected", "--k", "0,1,2"],
          ["--model", "group:su3", "--corrected", "--k", "0/0,1/0,1/1"],
          ["--model", "circle:1", "--k", "0,1,2"]]
sweeps += [["--model", f"torus:{m}", "--k", "0,1,2"] for m in (1, 2, 3)]
sweeps += [["--model", f"sphere:{m}", "--corrected", "--k", "0,5,200"]
           for m in (2, 3, 4)]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["sweep", *argv, "--im-s", "0.5,1,2"])
             for argv in sweeps]
    loaded["sweeps"] = scipy_modules()
    codes.append(cli.main(["transport", "--example", "abelian-area",
                           "--loop", "unit-square"]))
    loaded["transport"] = scipy_modules()
    codes.append(cli.main(["verify"]))
    loaded["verify"] = scipy_modules()
loaded["codes"] = codes
print(json.dumps(loaded))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=_src_env(), timeout=120)
    assert out.returncode == 0, out.stderr
    loaded = json.loads(out.stdout)
    for stage in ("import", "sweeps", "transport", "verify"):
        assert loaded[stage] == [], stage
    assert loaded["codes"] == [0] * 12


def test_closed_stdout_exits_141_quietly():
    proc = subprocess.Popen([sys.executable, "-m", "quantfield", "sweep",
                             "--model", "torus:1", "--k", "0,1,2",
                             "--im-s", "0.5,1,2", "--format", "csv"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_src_env())
    proc.stdout.close()          # the reader is gone before the first write
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_past_the_label_cap_names_the_k_and_prints_nothing(capsys):
    # every k is checked before the engine runs: k = 1 would be fine, but
    # no record is printed and the message names the bad k
    rc, out, err = run(["sweep", "--model", "group:su2", "--k", "1,2000000",
                        "--im-s", "1"], capsys)
    assert rc == 2 and out == ""
    assert "2000000" in err and "Traceback" not in err


def test_k_and_im_s_in_one_call_print_the_one_point_records(capsys):
    # bare su2 cuts k = 10^6 at each row's own Im s, and the records equal
    # those of one call per (k, Im s).  The row at Im s 1e-12 keeps all
    # 500,001 weights: the group route (1,000,002 nodes) and the closed
    # form (1,000,001 terms) take it in chunks, where evaluated whole it
    # peaked at 137 MB
    argv = ["sweep", "--model", "group:su2", "--k", "1,1000000",
            "--im-s", "1e-12,1"]
    tracemalloc.start()
    try:
        rc, out, err = run(argv, capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0, err
    assert peak < 32 * 2 ** 20
    alone = []
    for k in ("1", "1000000"):
        for y in ("1e-12", "1"):
            rc, one, err = run(["curvature", "--model", "group:su2", "--k", k,
                                "--im-s", y], capsys)
            assert rc == 0, err
            alone.append(one)
    assert out == "".join(alone)


# one-point records, byte for byte; a sweep prints the same lines
_ONE_POINT = {
    ("group:su2", "3", "1"): '{"corrected": false, "k": 3, "kappa": '
    '0.15153717213865414, "log_p": 13.903151249591641, "method": '
    '"quadrature+moments", "model": "group:su2", "s": {"im": 1.0, "re": 0.0}, '
    '"tolerances": {"tol": 1e-05}}',
    ("torus:2", "2", "2"): '{"corrected": false, "k": 2, "kappa": 0.0625, '
    '"log_p": 16.451582705289454, "method": "quadrature+moments", "model": '
    '"torus:2", "s": {"im": 2.0, "re": 0.0}, "tolerances": {"tol": 1e-05}}',
    ("sphere:2", "5", "0.5"): '{"corrected": true, "k": 5, "kappa": '
    '-0.008831309870767967, "log_p": 15.941575320956563, "method": '
    '"quadrature+moments", "model": "sphere:2", "s": {"im": 0.5, "re": 0.0}, '
    '"tolerances": {"tol": 1e-05}}',
    ("circle:1", "20", "1"): '{"corrected": false, "k": 20, "kappa": '
    '-0.2238271027285071, "log_p": 35.36103356212385, "method": '
    '"quadrature+moments", "model": "circle:1", "s": {"im": 1.0, "re": 0.0}, '
    '"tolerances": {"tol": 1e-05}}',
}


@pytest.mark.parametrize("model, k, y", sorted(_ONE_POINT))
def test_one_point_record_is_unchanged(model, k, y, capsys):
    extra = ["--corrected"] if model.startswith("sphere") else []
    rc, out, err = run(["curvature", "--model", model, *extra, "--k", k,
                        "--im-s", y], capsys)
    assert rc == 0, err
    assert out == _ONE_POINT[(model, k, y)] + "\n"


def test_point_commands_make_one_curvature_call(capsys, monkeypatch):
    # sweep, curvature and asymptote call quantization.curvature once, over
    # every (k, Im s) pair; p-value calls the engine once
    from quantfield import cli
    calls = []
    for name in ("curvature", "model_log_p"):
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _f=fn, _n=name, **kw: (
            calls.append(_n), _f(*a, **kw))[1])
    for command in ("sweep", "curvature", "asymptote", "p-value"):
        rc, out, err = run([command, "--model", "sphere:3", "--corrected",
                            "--k", "5,10,20", "--im-s", "0.5,1,2"], capsys)
        assert rc == 0, err
        assert len(out.splitlines()) == 9
    assert calls == ["curvature"] * 3 + ["model_log_p"]


def test_disagreement_names_the_first_k_and_s_in_k_order(capsys,
                                                         monkeypatch):
    # rows go k-major in --k order, then in --im-s order: the off rows at
    # (k 50, Im s 5) and (k 1, Im s 1) fail at k 50 first
    closed = quantization.p_su2_closed

    def off(s, k):
        return [replace(c, kappa=c.kappa + 1.0)
                if (kk, v.imag) in ((50, 5), (1, 1)) else c
                for v, kk, c in zip(s, k, closed(s, k))]

    monkeypatch.setattr(quantization, "p_su2_closed", off)
    rc, out, err = run(["sweep", "--model", "group:su2", "--k", "50,1",
                        "--im-s", "1,5"], capsys)
    assert rc == 1 and out == ""
    assert "k=50, s=5j" in err
