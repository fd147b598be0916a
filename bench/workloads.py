"""Seeded inputs and the four benchmark workloads.

A workload is one pass over the program plus the known-answer checks its
outputs must pass.  Passes drive ``convspec.cli.main`` in-process wherever a
subcommand exists and the public API elsewhere, always through module
attributes (``convspec.cli.main``, ``convspec.finite_level``) so that the
tracer in ``tracing.py`` sees every call.

The seed only draws translates that leave the known answers intact:

* digit sets move by any small integer: ``M_{B+b}(xi) = exp(-2 pi i b xi)
  M_B(xi)``, so every modulus, level, shift and verdict is unchanged;
* frequency sets move by multiples of ``|N|``: the construction reduces
  frequencies mod ``|N|`` and keeps their order, so the normalized triple is
  unchanged.  Other translates can pick a different (equally valid) residue
  as the zero frequency, which changes the levels built for ``jp``;
* the ``--probe-xi`` points and the ``zero_propagation`` start point.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import convspec
import convspec.cli

JP = [{"N": 4, "B": [0, 2], "L": [0, 1]}]
EXAMPLE14 = [{"N": 2, "B": [0, 1], "L": [0, 1]}, {"N": 2, "B": [0, 3], "L": [0, 1]}]
MIXED = [{"N": 2, "B": [0, 1], "L": [0, 1]}, {"N": 3, "B": [0, 1, 2], "L": [0, 1, 2]}]

WORDS = {
    "jp": {"prefix": [], "period": [1]},
    "example14": {"prefix": [1], "period": [2]},
    "mixed": {"prefix": [], "period": [1, 2]},
}

JP_LEVEL3 = [0, 1, 4, 5, 16, 17, 20, 21]
MASK_02_ZEROS = [0.25, 0.75, 1.25, 1.75]
COMPLETENESS_TOL = 1e-9
GRAM_TOL = 1e-9
PROPAGATION_TOL = 1e-6  # zero_propagation's default survivor threshold


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one benchmark mode, with the known answers they imply."""

    verify_mixed_levels: int
    verify_mixed_count: int
    verify_mixed_indices: tuple[int, ...]
    verify_jp_levels: int
    verify_jp_count: int
    verify_grid: int
    verify_depth: int
    construct_levels: int
    construct_count: int
    probe_jp_grid: int
    probe_e14_grid: int
    probe_xi_points: int
    propagation_steps: int
    exact_e14_n: int
    exact_e14_atoms: int
    exact_gram_levels: int
    exact_gram_atoms: int
    exact_jp3_levels: int
    exact_jp3_atoms: int


FULL = Sizes(
    verify_mixed_levels=5, verify_mixed_count=2592, verify_mixed_indices=(1, 3, 5, 7, 9),
    verify_jp_levels=9, verify_jp_count=512, verify_grid=64, verify_depth=30,
    construct_levels=8, construct_count=559872,
    probe_jp_grid=8192, probe_e14_grid=192, probe_xi_points=8, propagation_steps=12,
    exact_e14_n=14, exact_e14_atoms=16384, exact_gram_levels=5, exact_gram_atoms=2592,
    exact_jp3_levels=8, exact_jp3_atoms=256,
)

SMOKE = Sizes(
    verify_mixed_levels=3, verify_mixed_count=72, verify_mixed_indices=(1, 3, 5),
    verify_jp_levels=4, verify_jp_count=16, verify_grid=16, verify_depth=30,
    construct_levels=5, construct_count=2592,
    probe_jp_grid=256, probe_e14_grid=192, probe_xi_points=2, propagation_steps=6,
    exact_e14_n=8, exact_e14_atoms=256, exact_gram_levels=3, exact_gram_atoms=72,
    exact_jp3_levels=4, exact_jp3_atoms=16,
)


@dataclass
class Context:
    """Generated inputs of one seed plus the state checks keep across passes."""

    seed: int
    sizes: Sizes
    workdir: Path
    configs: dict[str, Path] = field(default_factory=dict)
    families: dict[str, list[dict]] = field(default_factory=dict)
    mask_digits: tuple[int, ...] = ()
    probe_xi: tuple[float, ...] = ()
    xi0: float = 0.0
    first_digests: dict[str, str] | None = None
    reference_counts: tuple[int, ...] | None = None

    def path(self, name: str) -> Path:
        return self.workdir / name

    def spec(self, name: str, exp_period: tuple[int, ...] = (1,)) -> convspec.ConvolutionSpec:
        word = convspec.SelectionWord(
            WORDS[name]["prefix"], WORDS[name]["period"], (), exp_period
        )
        triples = tuple(convspec.HadamardTriple.from_json(t) for t in self.families[name])
        return convspec.ConvolutionSpec(triples, word)


def make_context(seed: int, sizes: Sizes, workdir: Path) -> Context:
    """Draw every seeded input and write the config files the CLI reads."""
    rng = random.Random(seed)
    ctx = Context(seed=seed, sizes=sizes, workdir=workdir)

    def translate(t: dict) -> dict:
        moved = convspec.translate_triple(
            convspec.HadamardTriple.from_json(t),
            rng.randint(-3, 3),
            abs(t["N"]) * rng.randint(-2, 2),
        )
        return moved.to_json()

    for name, family in (("jp", JP), ("example14", EXAMPLE14), ("mixed", MIXED)):
        ctx.families[name] = [translate(t) for t in family]
        word = {**WORDS[name], "exp_prefix": [], "exp_period": [1]}
        ctx.configs[name] = ctx.path(f"{name}.json")
        ctx.configs[name].write_text(
            json.dumps({"triples": ctx.families[name], "word": word}, indent=2)
        )
    shift = rng.randint(-3, 3)
    ctx.mask_digits = (shift, shift + 2)
    ctx.probe_xi = tuple(rng.uniform(0.05, 3.95) for _ in range(sizes.probe_xi_points))
    ctx.xi0 = rng.uniform(0.05, 0.95)
    return ctx


def _cli(*argv) -> int:
    return convspec.cli.main([str(a) for a in argv])


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def _digests(ctx: Context, names: list[str]) -> dict[str, str]:
    return {n: hashlib.sha256(ctx.path(n).read_bytes()).hexdigest() for n in names}


def _same_as_first_pass(ctx: Context, names: list[str]) -> bool:
    """Identical inputs must give byte-identical reports on every pass."""
    digests = _digests(ctx, names)
    if ctx.first_digests is None:
        ctx.first_digests = digests
    return digests == ctx.first_digests


# --- verify: spectrum -> verify, the user-facing pipeline -------------------


def verify_run(ctx: Context) -> dict:
    s = ctx.sizes
    rcs = []
    for name, word, levels in (
        ("mixed", [":12"], s.verify_mixed_levels),
        ("jp", [], s.verify_jp_levels),
    ):
        cfg = ["--config", ctx.configs[name], *(["--word", *word] if word else [])]
        rcs.append(_cli("spectrum", *cfg, "--levels", levels,
                        "--out", ctx.path(f"{name}_levels.json")))
        rcs.append(_cli("verify", *cfg, "--levels-file", ctx.path(f"{name}_levels.json"),
                        "--grid", s.verify_grid, "--depth", s.verify_depth,
                        "--out", ctx.path(f"{name}_verify.json")))
    return {"rcs": rcs}


def verify_check(ctx: Context, out: dict) -> tuple[list[tuple[str, bool]], int, dict]:
    s = ctx.sizes
    mixed = _load(ctx.path("mixed_levels.json"))
    jp = _load(ctx.path("jp_levels.json"))
    reports = [_load(ctx.path("mixed_verify.json")), _load(ctx.path("jp_verify.json"))]
    checks = [
        ("exit codes 0", out["rcs"] == [0, 0, 0, 0]),
        ("mixed deepest level size", len(mixed["levels"][-1]) == s.verify_mixed_count),
        ("mixed indices", tuple(mixed["indices"]) == s.verify_mixed_indices),
        ("jp level 3", jp["levels"][3] == JP_LEVEL3),
        ("jp deepest level size", len(jp["levels"][-1]) == s.verify_jp_count),
    ]
    for name, rep in zip(("mixed", "jp"), reports):
        checks.append((f"{name} verify passed", rep["passed"] is True))
        checks.append((f"{name} completeness defect",
                       rep["completeness_defect"] <= COMPLETENESS_TOL))
    checks.append(("reports identical across passes", _same_as_first_pass(
        ctx, ["mixed_levels.json", "mixed_verify.json", "jp_levels.json", "jp_verify.json"])))
    q_evals = (len(mixed["levels"][-1]) * len(reports[0]["xi_grid"])
               + len(jp["levels"][-1]) * len(reports[1]["xi_grid"]))
    return checks, q_evals, {}


# --- construct: deep spectrum construction and its JSON report --------------


def construct_run(ctx: Context) -> dict:
    rcs = [
        _cli("spectrum", "--config", ctx.configs["mixed"], "--word", ":12",
             "--levels", ctx.sizes.construct_levels, "--out", ctx.path("deep_levels.json")),
        _cli("spectrum", "--config", ctx.configs["example14"], "--word", ":2",
             "--out", ctx.path("e14_levels.json")),
    ]
    return {"rcs": rcs}


def construct_check(ctx: Context, out: dict) -> tuple[list[tuple[str, bool]], int, dict]:
    s = ctx.sizes
    deep = _load(ctx.path("deep_levels.json"))
    e14 = _load(ctx.path("e14_levels.json"))
    count = len(deep["levels"][-1])
    checks = [
        ("mixed exit 0", out["rcs"][0] == 0),
        ("mixed deepest level size", count == s.construct_count),
        ("mixed level 5 indices", tuple(deep["indices"][:5]) == FULL.verify_mixed_indices),
        ("mixed level 5 size", len(deep["levels"][5]) == FULL.verify_mixed_count),
        ("example14 :2 exits 2", out["rcs"][1] == 2),
        ("example14 :2 violation",
         e14.get("error", {}).get("type") == "equi-positivity-violation"),
        ("reports identical across passes",
         _same_as_first_pass(ctx, ["deep_levels.json", "e14_levels.json"])),
    ]
    return checks, count, {}


# --- probe: equi-positivity grid probes and zero-set diagnostics ------------


def probe_run(ctx: Context) -> dict:
    s = ctx.sizes
    rcs = [
        _cli("equipos", "--config", ctx.configs["jp"], "--grid", s.probe_jp_grid,
             "--out", ctx.path("jp_equipos.json")),
        _cli("equipos", "--config", ctx.configs["example14"], "--word", ":2",
             "--skips", "0,1,2", "--grid", s.probe_e14_grid,
             "--out", ctx.path("e14_equipos.json")),
        _cli("zeros", "--mask=" + ",".join(map(str, ctx.mask_digits)), "--range", "0,2",
             "--out", ctx.path("mask_zeros.json")),
        _cli("zeros", "--config", ctx.configs["jp"], "--products-h", "2",
             "--out", ctx.path("products.json")),
    ]
    for j, xi in enumerate(ctx.probe_xi):
        rcs.append(_cli("zeros", "--config", ctx.configs["jp"], "--probe-xi", repr(xi),
                        "--out", ctx.path(f"probe_xi_{j}.json")))
    trace = convspec.zero_propagation(ctx.spec("mixed"), ctx.xi0, ctx.sizes.propagation_steps)
    return {"rcs": rcs, "counts": trace.counts}


def reference_orbit_counts(family: list[dict], period: list[int], xi0: float,
                           steps: int, tol: float = PROPAGATION_TOL) -> tuple[int, ...]:
    """Survivor counts of the zero-propagation orbit, evaluated with cmath.

    An independent scalar evaluation of the same orbit rule: a branch
    (x + l)/N survives while |M_B| exceeds ``tol``; values closer than 1e-12
    merge.  Almost every start point keeps all branches, but one that lands
    near a mask zero removes a whole subtree, so the count is recomputed
    rather than fixed.
    """
    ys = [float(xi0)]
    counts = [1]
    for n in range(steps):
        t = family[period[n % len(period)] - 1]
        N, B = t["N"], t["B"]
        nxt = []
        for x in ys:
            for l in t["L"]:
                tau = (x + l % abs(N)) / N
                m = sum(cmath.exp(-2j * math.pi * b * tau) for b in B) / len(B)
                if abs(m) > tol:
                    nxt.append(tau)
        nxt.sort()
        ys = []
        for v in nxt:
            if not ys or abs(v - ys[-1]) >= 1e-12:
                ys.append(v)
        counts.append(len(ys))
    return tuple(counts)


def probe_check(ctx: Context, out: dict) -> tuple[list[tuple[str, bool]], int, dict]:
    s = ctx.sizes
    jp = _load(ctx.path("jp_equipos.json"))
    e14 = _load(ctx.path("e14_equipos.json"))
    roots = [float(z["root"]) for z in _load(ctx.path("mask_zeros.json"))["zeros"]]
    products = _load(ctx.path("products.json"))["zeros"]
    verdicts = [_load(ctx.path(f"probe_xi_{j}.json"))["verdict"]
                for j in range(len(ctx.probe_xi))]
    if ctx.reference_counts is None:
        ctx.reference_counts = reference_orbit_counts(
            ctx.families["mixed"], WORDS["mixed"]["period"], ctx.xi0, s.propagation_steps)
    rcs = out["rcs"]
    checks = [
        ("jp equipos exit 0", rcs[0] == 0),
        ("jp equipos ok", jp["ok"] is True),
        ("jp epsilon_hat ~ 0.69", abs(jp["epsilon_hat"] - 0.69) < 0.01),
        ("example14 :2 equipos exits 2", rcs[1] == 2),
        ("example14 :2 worst x ~ 1/3",
         abs(e14["worst"]["x"] - 1 / 3) <= 1 / s.probe_e14_grid),
        ("mask zeros exit 0", rcs[2] == 0),
        ("mask zeros 0.25/0.75/1.25/1.75", len(roots) == len(MASK_02_ZEROS) and all(
            abs(r - z) <= 1e-9 for r, z in zip(roots, MASK_02_ZEROS))),
        ("products-h 2 exit 0", rcs[3] == 0),
        ("products-h 2 gives 10 points", len(products) == 10),
        ("probe-xi exits 0", all(rc == 0 for rc in rcs[4:])),
        ("probe-xi witnesses", all(v == "witness" for v in verdicts)),
        ("zero_propagation counts", tuple(out["counts"]) == ctx.reference_counts),
        ("reports identical across passes", _same_as_first_pass(
            ctx, ["jp_equipos.json", "e14_equipos.json", "mask_zeros.json", "products.json"]
            + [f"probe_xi_{j}.json" for j in range(len(ctx.probe_xi))])),
    ]
    k_window = 2 * 8 + 1  # equipos --kmax default 8
    evals = k_window * (s.probe_jp_grid * 5 + s.probe_e14_grid * 3)
    return checks, evals, {}


# --- exact: exact finite levels and the Gram check ---------------------------


def exact_run(ctx: Context) -> dict:
    s = ctx.sizes
    mixed = ctx.spec("mixed")
    jp3 = ctx.spec("jp", exp_period=(3,))
    e14_level = convspec.finite_level(ctx.spec("example14"), s.exact_e14_n)
    with warnings.catch_warnings():  # jp's digit gcd is 2: expected warning
        warnings.simplefilter("ignore", convspec.GcdNotCertifiedWarning)
        mixed_levels = convspec.build_spectrum(mixed, s.exact_gram_levels)
        jp3_levels = convspec.build_spectrum(jp3, s.exact_jp3_levels)
    mixed_level = convspec.finite_level(mixed, mixed_levels.m(s.exact_gram_levels))
    mixed_dev = convspec.orthonormality_gram(mixed_level, mixed_levels.level(s.exact_gram_levels))
    jp3_level = convspec.finite_level(jp3, jp3_levels.m(s.exact_jp3_levels))
    jp3_dev = convspec.orthonormality_gram(jp3_level, jp3_levels.level(s.exact_jp3_levels))
    return {
        "measures": (e14_level, mixed_level, jp3_level),
        "mixed_indices": mixed_levels.indices,
        "mixed_dev": mixed_dev,
        "jp3_dev": jp3_dev,
    }


def exact_check(ctx: Context, out: dict) -> tuple[list[tuple[str, bool]], int, dict]:
    s = ctx.sizes
    measures = out["measures"]
    sizes = [len(m) for m in measures]
    checks = [
        ("atom counts",
         sizes == [s.exact_e14_atoms, s.exact_gram_atoms, s.exact_jp3_atoms]),
        ("weights sum to exactly 1",
         all(sum((w for _, w in m.atoms), Fraction(0)) == 1 for m in measures)),
        ("mixed gram indices",
         tuple(out["mixed_indices"]) == FULL.verify_mixed_indices[: s.exact_gram_levels]),
        ("mixed gram deviation", out["mixed_dev"] <= GRAM_TOL),
    ]
    # The jp exponent-3 deviation is the open float-phase defect: recorded, not gated.
    return checks, sum(sizes), {"jp3_gram_max_dev": out["jp3_dev"],
                                "mixed_gram_max_dev": out["mixed_dev"]}


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    run: Callable[[Context], dict]
    check: Callable[[Context, dict], tuple[list[tuple[str, bool]], int, dict]]


# Why each workload is here: README.md and the "why" fields of BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify", "Q point evaluations", verify_run, verify_check),
        Workload("construct", "frequencies in the deepest level", construct_run,
                 construct_check),
        Workload("probe", "tail-transform evaluations", probe_run, probe_check),
        Workload("exact", "atoms built", exact_run, exact_check),
    )
}
