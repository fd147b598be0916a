"""convspec benchmark: seeded workloads over the spectrum -> verify pipeline.

Usage (from the root of a checkout):

    python3 bench/run.py --workload verify --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1
    python3 bench/run.py --workload all --seed 1 --seconds 1 --trace 0 --smoke

Each workload runs in its own single-threaded process (``worker.py``).  With
``--trace 0`` the last line of standard output is one JSON object with the
end-to-end metrics (wall_s, work_per_s, peak_rss_mb, setup_s, pass_ratio);
with ``--trace 1`` it carries the per-layer metrics of a traced run.  The
lines before it give the pass counts, every pass time and the provenance.
The process exits non-zero without a result line when the checkout has no
``src/convspec`` or a workload process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import METRICS as TRACE_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("verify", "construct", "probe", "exact")

SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170.0
# One thread everywhere: the workload is measured as a single-threaded process.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED_ENV)
    return env


def worker_argv(args, workload: str, extra=()) -> list[str]:
    argv = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    return argv + (["--smoke"] if args.smoke else [])


def run_worker(argv: list[str]) -> str:
    """Run one worker to completion and return its standard output."""
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"workload process exceeded {WORKER_TIMEOUT_S} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return proc.stdout


def measure_setup(args, workload: str) -> list[float]:
    """Fresh interpreter -> import convspec -> seeded inputs, timed from outside.

    One untimed start first fills the bytecode cache, which a user's
    installed package already has.
    """
    argv = worker_argv(args, workload, ["--setup-only"])
    run_worker(argv)
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        run_worker(argv)
        samples.append(time.perf_counter() - t0)
    return samples


def source_digest() -> str:
    """sha256 over the paths and bytes of src/; identifies checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree; git may not look above it."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args, workload: str) -> dict:
    setup = [] if args.trace else measure_setup(args, workload)
    res = json.loads(run_worker(worker_argv(args, workload)).strip().splitlines()[-1])
    attempted, failed, times = res["attempted"], res["failed"], res["times"]
    if not times or (args.trace and not res["layers"]):
        raise BenchError(f"{workload}: no pass completed")
    wall = statistics.median(times)
    ref = statistics.mean(res["refs"])
    if args.trace:
        metrics = {name: metric(res["layers"][name], unit)
                   for name, (unit, _) in TRACE_METRICS.items()}
    else:
        metrics = {
            "wall_ref": metric(wall / ref, "1"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
            "setup_s": metric(statistics.median(setup), "s"),
            "pass_ratio": metric((attempted - failed) / attempted, "1"),
        }
    info = {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(times),
        "wall_s": wall,
        "work_per_s": statistics.median(res["work"]) / wall,
        "reference_s": ref,
        "pass_times_s": times,
        "reference_times_s": res["refs"],
        "work_unit": res["work_unit"],
        "work_per_pass": res["work"][-1],
        "setup_samples_s": setup,
        "fail_ratio": failed / attempted,
        "failed_checks": res["failed_checks"],
        "extras": res["extras"],
        "provenance": {**res["provenance"], "git_sha": git_sha(),
                       "src_sha256": source_digest(), "seed": args.seed,
                       "passes": len(times)},
    }
    for key in ("untraced_times", "spans_file", "sites"):
        if key in res:
            info[key] = res[key]
    print(json.dumps(info))
    print(summary_line(info, metrics))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def summary_line(info: dict, metrics: dict) -> str:
    head = (f"# {info['workload']}: {info['passes']} passes, "
            f"{info['work_per_pass']} {info['work_unit']} per pass, "
            f"wall_s={info['wall_s']:.4g} s (median), "
            f"work_per_s={info['work_per_s']:.4g} 1/s, "
            f"reference kernel {info['reference_s']:.4g} s, "
            f"fail_ratio {info['fail_ratio']:.3g}")
    if info["trace"]:
        keys = ("trace.overhead_s", "share.mask", "share.products", "share.exact",
                "share.spectrum", "share.verify", "share.equipos", "share.zeros",
                "share.cli", "share.outside")
    else:
        keys = tuple(metrics)
    body = ", ".join(f"{k}={metrics[k]['value']:.4g} {metrics[k]['unit']}" for k in keys)
    return f"{head}\n#   {body}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes for the smoke test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "convspec" / "__init__.py").is_file():
        print(f"error: no convspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(args, name) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
