"""Batch command line front-end.

Subcommands: p-value | curvature | flatness | sweep | asymptote | transport
| verify.  Records go to stdout (or --output) as JSON lines or CSV with the
fixed header ``model,corrected,k,re_s,im_s,log_p,kappa,method``; kappa and
log_p of a record come from one quadrature pass.  ``--k`` takes integers
(su2, tori, spheres, circles) or Dynkin labels ``a/b`` (su3).  Exit codes:
0 success, 1 numerical non-convergence, 2 invalid input, 141 stdout closed
by its reader (as for a process killed by SIGPIPE).  Point records are
ordered by k, then Im s.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import liecore
from .hilbertfield import BasePath, abelian_area_example, parallel_transport
from .quantization import (ModelSpec, curvature, flatness_classify,
                           model_log_p, sphere_asymptote)
from .verify import run_all

__all__ = ["RunConfig", "main", "entry"]

CSV_HEADER = ["model", "corrected", "k", "re_s", "im_s", "log_p", "kappa",
              "method"]
MAX_TORUS_RANK = 64        # largest m of torus:<m>


@dataclass(frozen=True)
class RunConfig:
    model: str = "group:su2"
    corrected: bool = False
    k_values: tuple = (0,)
    im_s: tuple = (1.0,)
    re_s: float = 0.0
    tol: float = 1e-5
    fmt: str = "json"
    output: Optional[str] = None

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")

    def model_spec(self, k) -> ModelSpec:
        kind, _, arg = self.model.partition(":")
        if kind == "group":
            presets = {"su2": liecore.su2, "su3": liecore.su3}
            if arg not in presets:
                raise ValueError(f"unknown group preset {arg!r}; "
                                 f"have {sorted(presets)}")
            return ModelSpec.group(presets[arg](), k, self.corrected)
        if kind == "torus":
            m = int(arg)
            if not 1 <= m <= MAX_TORUS_RANK:   # before any rank-m array
                raise ValueError(f"torus:<m> takes 1 <= m <= {MAX_TORUS_RANK}")
            kvec = [k] * m if np.isscalar(k) else k
            return ModelSpec.torus(m, kvec, self.corrected)
        if kind in ("sphere", "circle") and not np.isscalar(k):
            raise ValueError(f"{kind} models take an integer k, got {k}")
        if kind == "sphere":
            return ModelSpec.sphere(int(arg), int(k))
        if kind == "circle":
            return ModelSpec.truncated_circle(float(arg), int(k),
                                              self.corrected)
        raise ValueError(f"unknown model {self.model!r}; expected "
                         "group:<name>, torus:<m>, sphere:<m> or circle:<r>")

    def s_grid(self) -> list:
        return [complex(self.re_s, y) for y in self.im_s]


def _k_value(text: str):
    """An integer character index, or Dynkin labels a/b as a tuple."""
    if "/" in text:
        return tuple(int(part) for part in text.split("/"))
    return int(text)


def _parse_list(text: str, cast) -> tuple:
    try:
        values = tuple(cast(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list, "
                                         "got none")
    return values


def _load_config_file(path: str) -> dict:
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return json.loads(text)
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


_CONFIG_CASTS = {
    "model": str, "corrected": lambda v: str(v).lower() in ("1", "true", "yes"),
    "k_values": lambda v: _parse_list(v, _k_value) if isinstance(v, str)
        else tuple(tuple(k) if isinstance(k, list) else k for k in v),
    "im_s": lambda v: _parse_list(str(v), float) if isinstance(v, str)
        else tuple(v),
    "re_s": float, "tol": float,
    "fmt": str, "output": str,
}


def _config_from(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        raw = _load_config_file(args.config)
        updates = {}
        for key, value in raw.items():
            if key not in _CONFIG_CASTS:
                raise ValueError(f"unknown config key {key!r}")
            updates[key] = _CONFIG_CASTS[key](value)
        cfg = replace(cfg, **updates)
    overrides = {}
    for name, attr in (("model", "model"), ("corrected", "corrected"),
                       ("k_values", "k"), ("im_s", "im_s"), ("re_s", "re_s"),
                       ("tol", "tol"), ("fmt", "format"),
                       ("output", "output")):
        value = getattr(args, attr, None)
        if value is not None:
            overrides[name] = value
    return replace(cfg, **overrides)


def _fmt_float(x: Optional[float]) -> str:
    if x is None:
        return ""
    return format(float(x), ".12g")


def _fmt_k(k) -> str:
    return "/".join(str(x) for x in k) if isinstance(k, list) else str(k)


def _emit(records: list, cfg: RunConfig, stream) -> None:
    if cfg.fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow([r["model"], str(r["corrected"]).lower(),
                             _fmt_k(r["k"]),
                             _fmt_float(r["s"]["re"]), _fmt_float(r["s"]["im"]),
                             _fmt_float(r.get("log_p")),
                             _fmt_float(r.get("kappa")), r["method"]])
    else:
        for r in records:
            stream.write(json.dumps(r, sort_keys=True) + "\n")


def _with_output(cfg: RunConfig, write) -> None:
    if cfg.output:
        with open(cfg.output, "w") as fh:
            write(fh)
    else:
        write(sys.stdout)


def _record(cfg: RunConfig, model: ModelSpec, k, s: complex,
            log_p: Optional[float], kappa: Optional[float],
            method: str) -> dict:
    return {
        "model": model.label(),
        "corrected": model.corrected,
        "k": k if np.isscalar(k) else list(k),
        "s": {"re": s.real, "im": s.imag},
        "log_p": log_p,
        "kappa": kappa,
        "method": method,
        "tolerances": {"tol": cfg.tol},
    }


def _point_records(cfg: RunConfig, want_kappa: bool) -> list:
    """One record per (k, s), from one engine call over every (k, Im s)
    pair, k-major: ``curvature`` for kappa, the model's log-p engine for
    log p alone.  Every k is checked, in order, before the engine runs."""
    grid = cfg.s_grid()
    models = [cfg.model_spec(k) for k in cfg.k_values]
    ks = [model.weight_index for model in models]
    if want_kappa:
        by_k = [[(cd.log_p, cd.kappa, cd.method) for cd in row]
                for row in curvature(models[0], grid, ks=ks)]
    else:
        by_k = [[(lp.log_magnitude, None, "quadrature") for lp in row]
                for row in model_log_p(models[0], ks)(grid)]
    records = [_record(cfg, models[0], k, s, *row)
               for k, rows in zip(cfg.k_values, by_k)
               for s, row in zip(grid, rows)]
    records.sort(key=lambda r: (tuple(r["k"]) if isinstance(r["k"], list)
                                else (r["k"],), r["s"]["im"], r["s"]["re"]))
    return records


def _cmd_points(cfg: RunConfig, want_kappa: bool) -> int:
    records = _point_records(cfg, want_kappa)
    _with_output(cfg, lambda fh: _emit(records, cfg, fh))
    return 0


def _cmd_flatness(cfg: RunConfig) -> int:
    base = cfg.model_spec(cfg.k_values[0])
    res = flatness_classify(base, list(cfg.k_values), cfg.s_grid(),
                            tol=cfg.tol)
    payload = {
        "model": base.label(),
        "corrected": base.corrected,
        "verdict": res.verdict,
        "max_abs_kappa": res.max_abs_kappa,
        "max_gap": res.max_gap,
        "witness": None if res.witness is None else {
            "k": res.witness[0], "k_other": res.witness[1],
            "s": {"re": res.witness[2].real, "im": res.witness[2].imag},
            "gap": res.witness[3]},
        "tolerances": {"tol": cfg.tol},
    }
    _with_output(cfg, lambda fh: fh.write(json.dumps(payload, sort_keys=True)
                                          + "\n"))
    return 0


def _cmd_asymptote(cfg: RunConfig) -> int:
    kind, _, arg = cfg.model.partition(":")
    if kind != "sphere":
        raise ValueError("asymptote applies to sphere models only")
    records = _point_records(cfg, want_kappa=True)
    for rec in records:
        asym = sphere_asymptote(rec["k"], int(arg),
                                complex(rec["s"]["re"], rec["s"]["im"]))
        rec.update(log_p=None, asymptote=asym,
                   ratio=rec["kappa"] / asym if asym != 0 else None)
    _with_output(cfg, lambda fh: _emit(records, replace(cfg, fmt="json"), fh))
    return 0


def _cmd_transport(cfg: RunConfig, example: str, loop: str,
                   scale: float) -> int:
    if example != "abelian-area":
        raise ValueError(f"unknown transport example {example!r}")
    if loop != "unit-square":
        raise ValueError(f"unknown loop {loop!r}")
    fieldc = abelian_area_example(scale=scale)
    T = parallel_transport(fieldc, BasePath.unit_square_loop())
    phase = complex(T[0, 0])
    payload = {
        "example": example,
        "loop": loop,
        "scale": scale,
        "phase": {"re": phase.real, "im": phase.imag},
        "magnitude": abs(phase),
        "argument": math.atan2(phase.imag, phase.real),
        "off_scalar": float(np.max(np.abs(T - phase * np.eye(T.shape[0])))),
    }
    _with_output(cfg, lambda fh: fh.write(json.dumps(payload, sort_keys=True)
                                          + "\n"))
    return 0


def _cmd_verify(cfg: RunConfig, names: Optional[list]) -> int:
    results = run_all(names)
    width = max(len(r.name) for r in results)

    def write(fh):
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            fh.write(f"{r.name:<{width}s}  residual={r.residual:.3e}  "
                     f"tol={r.tolerance:.0e}  {status}"
                     + (f"  {r.detail}" if r.detail else "") + "\n")
        n_fail = sum(not r.passed for r in results)
        fh.write(f"{len(results) - n_fail}/{len(results)} checks passed\n")

    _with_output(cfg, write)
    return 0 if all(r.passed for r in results) else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and building it costs more than a single-point query."""
    parser = argparse.ArgumentParser(
        prog="quantfield",
        description="curvature of quantum Hilbert fields: batch computations")
    parser.add_argument("--show-config", action="store_true",
                        help="print the effective configuration and exit")
    sub = parser.add_subparsers(dest="command")

    def add_common(p):
        p.add_argument("--model", help="group:<su2|su3> | torus:<m> | "
                       "sphere:<m> | circle:<r>")
        p.add_argument("--corrected", action="store_true", default=None,
                       help="use the half-form corrected weight")
        p.add_argument("--k", type=lambda t: _parse_list(t, _k_value),
                       help="comma-separated character indices; su3 takes "
                       "Dynkin labels a/b")
        p.add_argument("--im-s", dest="im_s",
                       type=lambda t: _parse_list(t, float),
                       help="comma-separated Im s values")
        p.add_argument("--re-s", dest="re_s", type=float)
        p.add_argument("--tol", type=float)
        p.add_argument("--format", choices=("json", "csv"))
        p.add_argument("--output", help="write records here instead of stdout")
        p.add_argument("--config", help="key=value or JSON config file")
        p.add_argument("--show-config", action="store_true")

    for name in ("p-value", "curvature", "flatness", "sweep", "asymptote"):
        add_common(sub.add_parser(name))
    # transport and verify take only the options they read
    tp = sub.add_parser("transport")
    tp.add_argument("--example", default="abelian-area")
    tp.add_argument("--loop", default="unit-square")
    tp.add_argument("--scale", type=float, default=1.0)
    vp = sub.add_parser("verify")
    vp.add_argument("--checks", type=lambda t: _parse_list(t, str),
                    help="comma-separated subset of check names")
    for p in (tp, vp):
        p.add_argument("--output", help="write here instead of stdout")
    return parser


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    if getattr(args, "show_config", False):
        print(json.dumps(asdict(cfg), sort_keys=True, indent=2))
        return 0
    if args.command is None:
        parser.print_usage()
        return 2
    if args.command in ("p-value", "curvature", "sweep"):
        return _cmd_points(cfg, want_kappa=args.command != "p-value")
    if args.command == "flatness":
        return _cmd_flatness(cfg)
    if args.command == "asymptote":
        return _cmd_asymptote(cfg)
    if args.command == "transport":
        return _cmd_transport(cfg, args.example, args.loop, args.scale)
    if args.command == "verify":
        return _cmd_verify(cfg, list(args.checks) if args.checks else None)
    return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = _dispatch(parser, args)
        # flush here, so that a closed stdout shows up below and not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (e.g. `| head`): send what is still buffered
        # to devnull so the flush at exit cannot fail again, and say nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except (ValueError, argparse.ArgumentTypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
