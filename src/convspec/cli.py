"""Command-line front end: check, spectrum, verify, zeros, equipos.

Exit codes: 0 ok, 1 usage error, 2 verification failure, 3 config/IO error.
Identical configuration and parameters produce byte-identical output;
reports carry no timestamps and floats print through repr.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from .convolution import ConvolutionSpec, SelectionWord
from .equipos import DEFAULT_FAILURE_THRESHOLD, probe_family
from .spectrum import (
    BuildParams,
    EquiPositivityViolation,
    GcdNotCertifiedWarning,
    HorizonExhaustedError,
    SpectrumLevels,
    build_spectrum,
    certify_gcd_condition,
)
from .triples import HadamardTriple, verify_triple
from .verify import spectral_report
from .zeros import enumerate_zero_products, integral_periodic_zero_probe, mask_zeros

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_CONFIG = 3

PRESETS = {
    "jp": {
        "triples": [{"N": 4, "B": [0, 2], "L": [0, 1]}],
        "word": {"prefix": [], "period": [1], "exp_prefix": [], "exp_period": [1]},
    },
    "example14": {
        "triples": [
            {"N": 2, "B": [0, 1], "L": [0, 1]},
            {"N": 2, "B": [0, 3], "L": [0, 1]},
        ],
        "word": {"prefix": [1], "period": [2], "exp_prefix": [], "exp_period": [1]},
    },
}


class UsageError(Exception):
    pass


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits with 2; the contract wants 1
        raise UsageError(message)


def _parse_symbols(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        return tuple(int(p) for p in text.split(",") if p != "")
    return tuple(int(c) for c in text)


def parse_word_arg(word: str | None, exponents: str | None) -> SelectionWord | None:
    """Parse 'prefix:period' strings; no colon means purely periodic."""
    if word is None and exponents is None:
        return None

    def split(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if ":" in text:
            pre, per = text.split(":", 1)
        else:
            pre, per = "", text
        return _parse_symbols(pre), _parse_symbols(per)

    wp, wq = split(word) if word is not None else ((), (1,))
    ep, eq = split(exponents) if exponents is not None else ((), (1,))
    if not wq:
        raise ConfigError("word period must be nonempty")
    if not eq:
        eq = (1,)
    try:
        return SelectionWord(wp, wq, ep, eq)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_spec(args) -> ConvolutionSpec:
    """Resolve the convolution spec from --preset/--config plus overrides."""
    preset = getattr(args, "preset", None)
    config = getattr(args, "config", None)
    if preset is None and config is None:
        raise UsageError("one of --preset or --config is required")
    if preset is not None and config is not None:
        raise UsageError("--preset and --config are mutually exclusive")
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
        obj = PRESETS[preset]
    else:
        try:
            obj = json.loads(Path(config).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config {config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {config}: {exc}") from exc
    try:
        triples = tuple(HadamardTriple.from_json(t) for t in obj["triples"])
        word = SelectionWord.from_json(obj.get("word", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    override = parse_word_arg(getattr(args, "word", None), getattr(args, "exponents", None))
    if override is not None:
        word = override
    try:
        return ConvolutionSpec(triples, word)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _emit(args, payload: dict, csv_text: str | None) -> None:
    if getattr(args, "output", "json") == "csv":
        if csv_text is None:
            raise UsageError("this command has no CSV rendering")
        text = csv_text
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_check(args) -> int:
    spec = load_spec(args)
    reports = []
    all_ok = True
    for t in spec.family:
        r = verify_triple(t.N, t.B, t.L, tol=args.tol)
        all_ok = all_ok and r.ok
        reports.append({**t.to_json(), **r.to_json()})
    gcd = certify_gcd_condition(spec.family)
    payload = {
        "command": "check",
        "tol": args.tol,
        "triples": reports,
        "gcd": gcd.to_json(),
        "ok": all_ok,
    }
    lines = ["index,N,ok,deviation"]
    for j, r in enumerate(reports, start=1):
        lines.append(f"{j},{r['N']},{r['ok']},{r['deviation']!r}")
    _emit(args, payload, "\n".join(lines) + "\n")
    return EXIT_OK if all_ok else EXIT_VERIFICATION


def cmd_spectrum(args) -> int:
    spec = load_spec(args)
    if args.levels < 1:
        raise ConfigError(f"--levels must be >= 1, got {args.levels}")
    params = BuildParams(
        delta=args.delta, epsilon=args.epsilon, K=args.kmax, depth=args.depth
    )
    gcd_warnings: list[str] = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", GcdNotCertifiedWarning)
            levels = build_spectrum(spec, args.levels, params=params)
            gcd_warnings = [
                str(w.message) for w in caught
                if issubclass(w.category, GcdNotCertifiedWarning)
            ]
    except EquiPositivityViolation as exc:
        payload = {
            "command": "spectrum",
            "error": {
                "type": "equi-positivity-violation",
                "lambda": exc.lam,
                "m": exc.m,
                "x": exc.x,
                "achieved": exc.achieved,
                "epsilon": exc.epsilon,
            },
        }
        _emit(args, payload, f"error,equi-positivity-violation,{exc.lam},{exc.m}\n")
        return EXIT_VERIFICATION
    except HorizonExhaustedError as exc:
        raise ConfigError(str(exc)) from exc
    payload = {"command": "spectrum", "warnings": gcd_warnings, **levels.to_json()}
    lines = ["level,lambda"]
    for i, lv in enumerate(levels.levels):
        for lam in lv:
            lines.append(f"{i},{lam}")
    _emit(args, payload, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = load_spec(args)
    try:
        obj = json.loads(Path(args.levels_file).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read levels file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed levels file: {exc}") from exc
    if "error" in obj:
        _emit(args, {"command": "verify", "status": "not-applicable",
                     "reason": "construction failed upstream",
                     "upstream_error": obj["error"]},
              "status\nnot-applicable\n")
        return EXIT_CONFIG
    try:
        levels = SpectrumLevels.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid levels file: {exc}") from exc
    if levels.level_count < 1:
        raise ConfigError("levels file contains no constructed levels")
    report = spectral_report(spec, levels, grid_n=args.grid, depth=args.depth)
    payload = {"command": "verify", **report.to_json()}
    _emit(args, payload, report.to_csv())
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def cmd_zeros(args) -> int:
    modes = [args.mask is not None, args.products_h is not None, args.probe_xi is not None]
    if sum(modes) != 1:
        raise UsageError("choose exactly one of --mask, --products-h, --probe-xi")
    if args.mask is not None:
        digits = _parse_symbols_signed(args.mask)
        lo, hi = _parse_range(args.range)
        try:
            report = mask_zeros(digits, lo, hi, residual_tol=args.tol)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        _emit(args, {"command": "zeros", **report.to_json()}, report.to_csv())
        return EXIT_OK
    spec = load_spec(args)
    if args.products_h is not None:
        report = enumerate_zero_products(spec.family, args.products_h)
        _emit(args, {"command": "zeros", **report.to_json()}, report.to_csv())
        return EXIT_OK
    verdict = integral_periodic_zero_probe(
        spec, args.probe_xi, K=args.kmax, depth=args.depth, tol=args.tol
    )
    csv_text = (
        "xi,verdict,witness_k,witness_value,max_value,max_k\n"
        f"{verdict.xi!r},{'witness' if verdict.is_witness else 'candidate-zero'},"
        f"{verdict.witness_k},{verdict.witness_value!r},"
        f"{verdict.max_value!r},{verdict.max_k}\n"
    )
    _emit(args, {"command": "zeros", **verdict.to_json()}, csv_text)
    return EXIT_OK


def cmd_equipos(args) -> int:
    spec = load_spec(args)
    cert = probe_family(
        spec,
        _parse_symbols_signed(args.skips),
        grid_n=args.grid,
        K=args.kmax,
        depth=args.depth,
        failure_threshold=args.threshold,
    )
    _emit(args, {"command": "equipos", **cert.to_json()}, cert.to_csv())
    return EXIT_OK if cert.ok else EXIT_VERIFICATION


def _parse_symbols_signed(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in str(text).split(",") if p.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"cannot parse integer list {text!r}") from exc


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(p) for p in str(text).split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse range {text!r}; expected 'lo,hi'") from exc
    return lo, hi


def _add_spec_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=sorted(PRESETS), help="embedded demo family")
    p.add_argument("--config", help="JSON config file with triples and word")
    p.add_argument("--word", help="selection word, 'prefix:period' (digits)")
    p.add_argument("--exponents", help="factor exponents, 'prefix:period'")


def _add_output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", choices=["json", "csv"], default="json")
    p.add_argument("--out", help="write the report to this path instead of stdout")


def build_parser() -> _Parser:
    parser = _Parser(prog="convspec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate triples and the gcd condition")
    _add_spec_options(p)
    _add_output_options(p)
    p.add_argument("--tol", type=float, default=1e-12, help="unitarity tolerance")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("spectrum", help="run the inductive spectrum construction")
    _add_spec_options(p)
    _add_output_options(p)
    p.add_argument("--levels", type=int, default=3, help="construction depth")
    defaults = BuildParams()
    p.add_argument("--delta", type=float, default=defaults.delta)
    p.add_argument("--epsilon", type=float, default=defaults.epsilon,
                   help="demanded tail-transform floor")
    p.add_argument("--kmax", type=int, default=defaults.K, help="shift search window")
    p.add_argument("--depth", type=int, default=defaults.depth,
                   help="tail truncation factors")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="Gram/completeness verification of levels")
    _add_spec_options(p)
    _add_output_options(p)
    p.add_argument("--levels-file", required=True, help="SpectrumLevels JSON")
    p.add_argument("--grid", type=int, default=64, help="xi grid size on [-2,2]")
    p.add_argument("--depth", type=int, default=30, help="transform truncation")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("zeros", help="mask zero sets and periodic-zero probes")
    _add_spec_options(p)
    _add_output_options(p)
    p.add_argument("--mask", help="digit set, e.g. '0,2'")
    p.add_argument("--range", default="0,1", help="interval 'lo,hi' for --mask")
    p.add_argument("--products-h", type=float, default=None,
                   help="enumerate scaled zero products on [-h,h]")
    p.add_argument("--probe-xi", type=float, default=None,
                   help="probe xi for membership in the integral periodic zero set")
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--depth", type=int, default=40)
    p.add_argument("--tol", type=float, default=None,
                   help="root residual (mask mode) or probe threshold")
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("equipos", help="equi-positivity probe of the tail family")
    _add_spec_options(p)
    _add_output_options(p)
    p.add_argument("--skips", default="0,1,2,3,4", help="tail indices to probe")
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--depth", type=int, default=40)
    p.add_argument("--threshold", type=float, default=DEFAULT_FAILURE_THRESHOLD)
    p.set_defaults(func=cmd_equipos)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "zeros" and args.tol is None:
            args.tol = 1e-10 if args.mask is not None else 1e-6
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
