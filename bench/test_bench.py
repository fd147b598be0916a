"""Smoke test of the benchmark at tiny sizes: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", "3",
         "--seconds", "0.5", "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def expected(kind: str) -> dict[str, str]:
    return {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC[kind]}


def test_untraced_run_reports_every_end_to_end_metric():
    metrics = result_line(run_bench("--trace", "0"))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


def test_traced_run_reports_every_per_layer_metric():
    metrics = result_line(run_bench("--trace", "1"))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected("per_layer")
    assert metrics["verify.verify.product_passes"]["value"] == 5
    assert metrics["probe.mask.scalar_calls"]["value"] > 0
    assert metrics["exact.finite_level.atoms"]["value"] == 256 + 72 + 16
    assert metrics["construct.cli.report_bytes"]["value"] > 0


def test_per_layer_list_matches_the_tracer():
    listed = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert listed == tracing.METRICS


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", ".work-*", "__pycache__"))
    proc = run_bench("--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_direct_children():
    t = tracing.Tracer()
    t.spans[:] = [
        ("cli.main", -1, 0.0, 10.0, 0),
        ("spectral_report", 0, 1.0, 9.0, None),
        ("fourier_finite", 1, 2.0, 5.0, 6),
        ("mask", 2, 2.5, 4.5, (2, 3, False)),
    ]
    t.mark_pass(0, 10.0)
    m = t.layer_metrics()
    assert m["cli.main.self_s"] == 2.0
    assert m["spectral_report.self_s"] == 5.0
    assert m["fourier_finite.self_s"] == 1.0
    assert m["mask.self_s"] == 2.0
    assert m["mask.exp_evals"] == 6
    assert m["verify.product_passes"] == 1
    assert abs(m["share.outside"]) < 1e-12
