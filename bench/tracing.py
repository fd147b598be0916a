"""Per-layer tracing of convspec from outside the package.

The tracer replaces each layer's public functions by wrappers that record
one span per call: name, parent span, start, end and a work count.  A
function is rebound in every ``convspec`` module that holds it, since
``from .convolution import mask`` copies the binding (``mask`` is also bound
in ``zeros``; ``choose_k`` in ``spectrum``; ``fourier_tail`` in ``equipos``,
``zeros`` and ``verify``; ``fourier_finite`` in ``verify``).  Spans stay in
memory and are written once, when the run ends.

Self time is a span's duration minus the durations of its direct children;
the wrapper's own bookkeeping lands in the parent's self time and shows up
as the tracing overhead.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time
from pathlib import Path

# span name -> (defining module, attribute, layer group)
TARGETS = {
    "mask": ("convspec.convolution", "mask", "mask"),
    "fourier_finite": ("convspec.convolution", "fourier_finite", "products"),
    "fourier_tail": ("convspec.convolution", "fourier_tail", "products"),
    "tail_truncation_bound": ("convspec.convolution", "tail_truncation_bound", "products"),
    "finite_level": ("convspec.convolution", "finite_level", "exact"),
    "convolve": ("convspec.convolution", "convolve", "exact"),
    "scale_product": ("convspec.convolution", "ConvolutionSpec.scale_product", "spectrum"),
    "next_level": ("convspec.spectrum", "next_level", "spectrum"),
    "block_frequencies": ("convspec.spectrum", "block_frequencies", "spectrum"),
    "choose_k": ("convspec.equipos", "choose_k", "spectrum"),
    "spectral_report": ("convspec.verify", "spectral_report", "verify"),
    "level_completeness": ("convspec.verify", "level_completeness", "verify"),
    "orthonormality_gram": ("convspec.verify", "orthonormality_gram", "verify"),
    "probe_family": ("convspec.equipos", "probe_family", "equipos"),
    "zero_propagation": ("convspec.zeros", "zero_propagation", "zeros"),
    "mask_zeros": ("convspec.zeros", "mask_zeros", "zeros"),
    "enumerate_zero_products": ("convspec.zeros", "enumerate_zero_products", "zeros"),
    "integral_periodic_zero_probe": ("convspec.zeros", "integral_periodic_zero_probe", "zeros"),
    "cli.main": ("convspec.cli", "main", "cli"),
}

GROUPS = ("mask", "products", "exact", "spectrum", "verify", "equipos", "zeros", "cli")

# Modules that import these names by value.  Each must be patched, or the
# layer silently loses the calls made through that module.
REQUIRED_SITES = {
    "mask": {"convspec.convolution", "convspec.zeros"},
    "choose_k": {"convspec.equipos", "convspec.spectrum"},
    "fourier_tail": {"convspec.convolution", "convspec.equipos", "convspec.zeros",
                     "convspec.verify"},
    "fourier_finite": {"convspec.convolution", "convspec.verify"},
}


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _points(value) -> int:
    return 1 if isinstance(value, complex) else value.size


def _report_bytes(args, kwargs, rc):
    argv = list(_arg(args, kwargs, 0, "argv") or ())
    if "--out" not in argv:
        return 0
    path = Path(argv[argv.index("--out") + 1])
    return path.stat().st_size if path.exists() else 0


# span name -> work(args, kwargs, result); the result is the returned value
WORK = {
    # (digits, points, scalar call)
    "mask": lambda a, k, r: (len(_arg(a, k, 0, "B")), _points(r), isinstance(r, complex)),
    "fourier_finite": lambda a, k, r: _arg(a, k, 1, "n") * _points(r),
    "fourier_tail": lambda a, k, r: _arg(a, k, 2, "depth", 40) * _points(r.value),
    "finite_level": lambda a, k, r: len(r),
    "convolve": lambda a, k, r: len(_arg(a, k, 0, "a")) * len(_arg(a, k, 1, "b")),
    "orthonormality_gram": lambda a, k, r: r,
    "probe_family": lambda a, k, r: len(r.rows),
    "zero_propagation": lambda a, k, r: r.counts[-1],
    "cli.main": _report_bytes,
}

# metric name -> (unit, better); the per_layer list of BENCHMARK.json
METRICS: dict[str, tuple[str, str]] = {}
for _name in TARGETS:
    METRICS[f"{_name}.calls"] = ("count", "lower")
    METRICS[f"{_name}.self_s"] = ("s", "lower")
METRICS.update({
    "mask.scalar_calls": ("count", "lower"),
    "mask.exp_evals": ("count", "lower"),
    "mask.bytes_computed": ("B", "lower"),
    "mask.ns_per_exp": ("ns", "lower"),
    "fourier_finite.point_factors": ("count", "lower"),
    "fourier_tail.point_factors": ("count", "lower"),
    "finite_level.atoms": ("count", "higher"),
    "convolve.pairs": ("count", "lower"),
    "verify.product_passes": ("count", "lower"),
    "orthonormality_gram.max_dev": ("1", "lower"),
    "probe_family.cells": ("count", "higher"),
    "zero_propagation.survivors": ("count", "higher"),
    "cli.report_bytes": ("B", "lower"),
})
for _group in GROUPS + ("outside",):
    METRICS[f"share.{_group}"] = ("1", "lower")
METRICS.update({
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
})


class Tracer:
    """Installs span-recording wrappers and turns the spans into layer metrics."""

    def __init__(self):
        self.spans: list = []  # (name, parent id, t0, t1, work)
        self.passes: list[tuple[int, int, float]] = []  # (first span, end span, wall)
        self.sites: dict[str, list[str]] = {}
        self._stack = [-1]
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack, clock, work = self.spans, self._stack, time.perf_counter, WORK.get(name)

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, parent, t0, t1, None)
            if work is not None:
                spans[sid] = (name, parent, t0, t1, work(args, kwargs, result))
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items()
                   if n == "convspec" or n.startswith("convspec.")}
        for name, (modname, attr, _) in TARGETS.items():
            if "." in attr:  # a method: patch the class that defines it
                cls_name, meth = attr.split(".")
                cls = getattr(modules[modname], cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                self.sites[name] = [f"{modname}.{cls_name}"]
                continue
            original = getattr(modules[modname], attr)
            wrapper = self._wrap(name, original)
            self.sites[name] = []
            for modname_j, module in sorted(modules.items()):
                if module.__dict__.get(attr) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    self.sites[name].append(modname_j)
        for name, required in REQUIRED_SITES.items():
            missing = required - set(self.sites[name])
            if missing:
                self.uninstall()
                raise RuntimeError(f"{name} is not bound in {sorted(missing)}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def mark_pass(self, first_span: int, wall: float) -> None:
        self.passes.append((first_span, len(self.spans), wall))

    def _pass_metrics(self, lo: int, hi: int, wall: float) -> dict[str, float]:
        spans = self.spans
        child = [0.0] * (hi - lo)
        for sid in range(lo, hi):
            _, parent, t0, t1, _ = spans[sid]
            if parent >= lo:
                child[parent - lo] += t1 - t0
        m = {key: 0.0 for key in METRICS}
        group_s = dict.fromkeys(GROUPS, 0.0)
        in_report = [False] * (hi - lo)
        report_products = 0
        for sid in range(lo, hi):
            name, parent, t0, t1, work = spans[sid]
            own = t1 - t0 - child[sid - lo]
            m[f"{name}.calls"] += 1
            m[f"{name}.self_s"] += own
            group_s[TARGETS[name][2]] += own
            in_report[sid - lo] = name == "spectral_report" or (
                parent >= lo and in_report[parent - lo])
            if name in ("fourier_finite", "fourier_tail") and in_report[sid - lo]:
                report_products += 1
            if work is None:
                continue
            if name == "mask":
                digits, points, scalar = work
                m["mask.scalar_calls"] += scalar
                m["mask.exp_evals"] += digits * points
                # complex128 exp matrix + float64 argument + complex128 mean
                m["mask.bytes_computed"] += 16 * digits * points + 24 * points
            elif name in ("fourier_finite", "fourier_tail"):
                m[f"{name}.point_factors"] += work
            elif name == "finite_level":
                m["finite_level.atoms"] += work
            elif name == "convolve":
                m["convolve.pairs"] += work
            elif name == "orthonormality_gram":
                m["orthonormality_gram.max_dev"] = max(m["orthonormality_gram.max_dev"], work)
            elif name == "probe_family":
                m["probe_family.cells"] += work
            elif name == "zero_propagation":
                m["zero_propagation.survivors"] += work
            elif name == "cli.main":
                m["cli.report_bytes"] += work
        if m["mask.exp_evals"]:
            m["mask.ns_per_exp"] = 1e9 * m["mask.self_s"] / m["mask.exp_evals"]
        if m["spectral_report.calls"]:
            m["verify.product_passes"] = report_products / m["spectral_report.calls"]
        for group, seconds in group_s.items():
            m[f"share.{group}"] = seconds / wall
        m["share.outside"] = 1.0 - sum(group_s.values()) / wall
        m["trace.spans"] = hi - lo
        return m

    def layer_metrics(self) -> dict[str, float]:
        """Median over traced passes of every per-pass layer metric."""
        per_pass = [self._pass_metrics(lo, hi, wall) for lo, hi, wall in self.passes]
        return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: id, parent, name, start and end, work."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(json.dumps({"passes": self.passes, "sites": self.sites}) + "\n")
            for sid, (name, parent, t0, t1, work) in enumerate(self.spans):
                f.write(json.dumps([sid, parent, name, t0 - origin, t1 - origin, work]) + "\n")
