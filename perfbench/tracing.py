"""Spans around quantfield's public functions, recorded from outside.

``Tracer.installed()`` rebinds each traced function, in every quantfield
module that holds it, to a wrapper that records a span: name, start, end,
parent span and the job that was running.  Spans stay in memory; the caller
writes them out when the run ends.  Leaving the ``with`` block puts every
original function back, so untraced passes run the unmodified program.
"""
from __future__ import annotations

import contextlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from workloads import VERIFY_CHECKS

# module -> public functions that get a span
TRACED = {
    "cli": ("main",),
    "quantization": ("curvature", "flatness_classify", "p_group_quadrature",
                     "p_group_closed", "p_torus_closed", "p_su2_closed",
                     "p_sphere", "p_truncated_circle", "weyl_reduction_check"),
    "quadrature": ("kappa_from_log", "integrate_log_panels", "mc_integrate",
                   "gaussian_weighted", "integrate_1d", "fd_laplacian"),
    "toeplitz": ("q_scalar", "moment", "curvature_via_ratio"),
    "hilbertfield": ("parallel_transport", "classify", "trivialize"),
    "logdomain": ("signed_logsumexp", "logsumexp_positive"),
}

ENGINES = ("quantization.p_group_quadrature", "quantization.p_group_closed",
           "quantization.p_torus_closed", "quantization.p_su2_closed",
           "quantization.p_sphere", "quantization.p_truncated_circle")
CLOSED_FORMS = ("quantization.p_group_closed", "quantization.p_torus_closed",
                "quantization.p_su2_closed")


def _nodes_log_panels(args: inspect.BoundArguments) -> int:
    return (len(args.arguments["breakpoints"]) - 1) \
        * args.arguments["nodes_per_panel"]


def _nodes_hermite(args: inspect.BoundArguments) -> int:
    return args.arguments["spec"].hermite_order


def _samples(args: inspect.BoundArguments) -> int:
    return int(args.arguments["samples"])


# work counted at the span, from the call's arguments
WORK = {
    "quadrature.integrate_log_panels": _nodes_log_panels,
    "quadrature.gaussian_weighted": _nodes_hermite,
    "quadrature.mc_integrate": _samples,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into the span list, -1 at the top
    job: Optional[str]
    work: int = 0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    job: Optional[str] = None
    _stack: list = field(default_factory=list)

    def wrap(self, name: str, fn: Callable) -> Callable:
        count = WORK.get(name)
        sig = inspect.signature(fn) if count else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1,
                        self.job)
            if count:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.work = count(bound)
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function for the duration of the block."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "quantfield" or name.startswith("quantfield.")}
        targets = []
        for short, names in TRACED.items():
            mod = mods[f"quantfield.{short}"]
            targets += [(f"{short}.{n}", getattr(mod, n)) for n in names]
        liecore = mods["quantfield.liecore"]
        targets += [(f"liecore.{n}", fn) for n, fn in vars(liecore).items()
                    if inspect.isfunction(fn) and not n.startswith("_")
                    and fn.__module__ == liecore.__name__]
        wrapped = {id(fn): self.wrap(name, fn) for name, fn in targets}
        saved = []
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)])
        verify = mods["quantfield.verify"]
        checks = verify.ALL_CHECKS
        saved.append((verify, "ALL_CHECKS", checks))
        verify.ALL_CHECKS = tuple((n, self.wrap(f"verify.{n}", fn))
                                  for n, fn in checks)
        try:
            yield self
        finally:
            for mod, attr, value in reversed(saved):
                setattr(mod, attr, value)


def self_time(span: Span, children: list) -> float:
    """The span's duration minus the part of it its children cover."""
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(c.start, span.start), min(c.end, span.end))
                         for c in children):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (span.end - span.start) - covered


@dataclass
class LayerTotals:
    """Per-name sums over one pass's spans."""

    calls: dict
    seconds: dict        # spans not nested in a span of the same group
    self_seconds: dict
    work: dict

    def group_calls(self, names) -> int:
        return sum(self.calls.get(n, 0) for n in names)


def totals(spans: list, groups: dict | None = None) -> LayerTotals:
    """Sum calls, time, self time and work per span name.

    A name's time counts only spans with no ancestor of the same name, so
    recursion is not counted twice.  ``groups`` maps extra names to
    predicates on span names; a group's time likewise counts only spans
    with no ancestor in the group.
    """
    groups = groups or {}
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    calls, secs, selfs, work = {}, {}, {}, {}
    for i, s in enumerate(spans):
        dur = s.end - s.start
        calls[s.name] = calls.get(s.name, 0) + 1
        work[s.name] = work.get(s.name, 0) + s.work
        selfs[s.name] = selfs.get(s.name, 0.0) + self_time(s, children[i])
        ancestors = set()
        p = s.parent
        while p >= 0:
            ancestors.add(spans[p].name)
            p = spans[p].parent
        if s.name not in ancestors:
            secs[s.name] = secs.get(s.name, 0.0) + dur
        for gname, pred in groups.items():
            if pred(s.name) and not any(pred(a) for a in ancestors):
                secs[gname] = secs.get(gname, 0.0) + dur
    return LayerTotals(calls, secs, selfs, work)


GROUPS = {
    "quantization.closed_form": lambda n: n in CLOSED_FORMS,
    "liecore": lambda n: n.startswith("liecore."),
}


def layer_metrics(spans: list, useful_records: int) -> dict:
    """The per-layer metrics of one traced pass, name -> (value, unit)."""
    t = totals(spans, GROUPS)
    out = {}

    def calls(name, key=None):
        out[f"{name}.calls"] = (t.calls.get(key or name, 0), "count")

    def secs(name):
        out[f"{name}.s"] = (t.seconds.get(name, 0.0), "s")

    def self_s(name):
        out[f"{name}.self_s"] = (t.self_seconds.get(name, 0.0), "s")

    def work(name, what, unit="count"):
        out[f"{name}.{what}"] = (t.work.get(name, 0), unit)

    self_s("cli.main")
    for name in ("quantization.curvature", "quadrature.kappa_from_log"):
        calls(name)
        self_s(name)
    evals = t.group_calls(ENGINES)
    out["quantization.logp_evals"] = (evals, "count")
    out["quantization.kappa_per_logp_eval"] = (
        useful_records / evals if evals else 0.0, "ratio")
    for name in ("quantization.p_group_quadrature", "quantization.p_sphere",
                 "quantization.p_truncated_circle",
                 "quadrature.integrate_log_panels", "quadrature.mc_integrate",
                 "quadrature.gaussian_weighted", "quadrature.integrate_1d",
                 "toeplitz.q_scalar", "toeplitz.moment",
                 "hilbertfield.parallel_transport",
                 "logdomain.signed_logsumexp", "logdomain.logsumexp_positive"):
        calls(name)
        secs(name)
    out["quantization.closed_form.calls"] = (t.group_calls(CLOSED_FORMS),
                                             "count")
    secs("quantization.closed_form")
    out["liecore.calls"] = (sum(c for n, c in t.calls.items()
                                if n.startswith("liecore.")), "count")
    secs("liecore")
    work("quadrature.integrate_log_panels", "nodes")
    work("quadrature.gaussian_weighted", "nodes")
    work("quadrature.mc_integrate", "samples")
    for name in ("quantization.flatness_classify", "quadrature.fd_laplacian",
                 "quantization.weyl_reduction_check",
                 "toeplitz.curvature_via_ratio", "hilbertfield.classify",
                 "hilbertfield.trivialize"):
        secs(name)
    for check in VERIFY_CHECKS:
        secs(f"verify.{check}")
    return out
