"""Workload process: runs one workload's passes and prints a JSON result.

``run.py`` starts this script in a fresh interpreter with BLAS pinned to one
thread.  It imports ``convspec`` from the checkout's ``src``, generates the
seeded inputs into a temporary directory inside ``bench``, and then repeats
passes until the next one would overrun ``--seconds`` (at least
``MIN_PASSES``).  Only the program calls inside a pass are timed; the
known-answer checks run after each pass.  With ``--trace 1`` the first half
of the time runs untraced and the second half traced, so the difference of
the two medians is the tracing overhead.  With ``--setup-only`` it stops
once the inputs exist: ``run.py`` times that as the set-up cost.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import convspec  # noqa: E402
import numpy as np  # noqa: E402

if not Path(convspec.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"convspec was imported from {convspec.__file__}, not from {ROOT / 'src'}")

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
MIN_TRACE_PASSES = 2
REFERENCE_REPEATS = 4


class Reference:
    """A fixed mix of the program's kinds of work, timed between passes.

    A shared host can change speed by ~1.5x over seconds to minutes.  The
    workload and this kernel share that drift, so the ratio
    of the median pass time to the mean kernel time (``wall_ref``) stays
    put where the pass time alone does not.  The kernel does not call
    convspec, so a change to the program cannot move it.
    """

    def __init__(self):
        self._digits = np.array([0.0, 1.0, 2.0])
        self._x = np.linspace(0.0, 1.0, 50_000)

    def _once(self) -> None:
        for _ in range(3):  # vector exponentials, as in the mask kernel
            np.exp(-2j * np.pi * np.multiply.outer(self._digits, self._x)).mean(axis=0)
        for i in range(1, 7000):  # exact rational arithmetic
            Fraction(i % 97, i) + Fraction(1, i + 1)
        for _ in range(5):  # hashing and allocation of Python ints
            table = {}
            for i in range(30_000):
                table[i * 7919 % 100_003] = i

    def measure(self) -> float:
        t0 = time.perf_counter()
        for _ in range(REFERENCE_REPEATS):
            self._once()
        return time.perf_counter() - t0


def blas_info() -> dict:
    """OpenBLAS version and the thread count it actually runs with."""
    info = {"numpy": np.__version__}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    info["blas_threads"] = None
    # numpy wheels bundle scipy-openblas, whose symbols carry a prefix and suffix
    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        get = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            info["blas_threads"] = get()
    return info


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        **blas_info(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "convspec": convspec.__version__,
    }


def run_passes(wl, ctx, seconds: float, min_passes: int, reference: Reference,
               tracer=None) -> dict:
    """Repeat passes while the next one is expected to fit in ``seconds``.

    The reference kernel runs before the first pass and after every pass.
    """
    times, work, failed_checks, extras = [], [], [], {}
    attempted = failed = 0
    start = time.perf_counter()
    refs = [reference.measure()]
    while True:
        first_span = len(tracer.spans) if tracer else 0
        try:
            t0 = time.perf_counter()
            out = wl.run(ctx)
            dt = time.perf_counter() - t0
        except Exception:  # the program raised: one failed operation, and no pass
            traceback.print_exc(file=sys.stderr)
            attempted += 1
            failed += 1
            break
        try:
            checks, units, extras = wl.check(ctx, out)
        except Exception:  # unreadable or missing output: one failed check
            traceback.print_exc(file=sys.stderr)
            checks, units = [("outputs readable", False)], 0
        del out
        if tracer:
            tracer.mark_pass(first_span, dt)
        times.append(dt)
        work.append(units)
        attempted += len(checks)
        bad = [name for name, ok in checks if not ok]
        failed += len(bad)
        failed_checks.extend(n for n in bad if n not in failed_checks)
        refs.append(reference.measure())
        elapsed = time.perf_counter() - start
        if len(times) >= min_passes and elapsed + statistics.median(times) > seconds:
            break
    return {"times": times, "work": work, "refs": refs, "attempted": attempted,
            "failed": failed, "failed_checks": failed_checks, "extras": extras}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    wl = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
        ctx = workloads.make_context(args.seed, sizes, Path(tmp))
        if args.setup_only:
            return 0
        reference = Reference()
        if not args.trace:
            res = run_passes(wl, ctx, args.seconds, MIN_PASSES, reference)
            res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            plain = run_passes(wl, ctx, args.seconds / 2, MIN_TRACE_PASSES, reference)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                res = run_passes(wl, ctx, args.seconds / 2, MIN_TRACE_PASSES, reference,
                                 tracer)
            finally:
                tracer.uninstall()
            for key in ("attempted", "failed"):
                res[key] += plain[key]
            res["failed_checks"] = plain["failed_checks"] + res["failed_checks"]
            layers = tracer.layer_metrics() if tracer.passes else {}
            if layers and plain["times"]:
                layers["trace.wall_s"] = statistics.median(res["times"])
                layers["trace.untraced_wall_s"] = statistics.median(plain["times"])
                layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
            res["layers"] = layers
            res["untraced_times"] = plain["times"]
            spans_file = BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            tracer.write(spans_file)
            res["spans_file"] = str(spans_file.relative_to(ROOT))
            res["sites"] = tracer.sites
    res.update(workload=wl.name, work_unit=wl.work_unit, provenance=provenance())
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
