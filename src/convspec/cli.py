"""Command-line front end: check, spectrum, verify, zeros, equipos.

Exit codes: 0 ok, 1 usage error, 2 verification failure, 3 config/IO error.
Identical configuration and parameters produce byte-identical output;
reports carry no timestamps and floats print through repr.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import math
import sys
import warnings
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from .convolution import DEFAULT_TAIL_DEPTH, ConvolutionSpec, SelectionWord
from .equipos import DEFAULT_FAILURE_THRESHOLD, EquiPositivityCertificate, probe_family
from .spectrum import (
    BuildParams,
    EquiPositivityViolation,
    GcdNotCertifiedWarning,
    HorizonExhaustedError,
    SpectrumLevels,
    build_spectrum,
    certify_gcd_condition,
)
from .triples import DEFAULT_UNITARITY_TOL, verify_triple
from .verify import spectral_report
from .zeros import (
    DEFAULT_PROBE_TOL,
    DEFAULT_RESIDUAL_TOL,
    DEFAULT_SHIFT_WINDOW,
    enumerate_zero_products,
    integral_periodic_zero_probe,
    mask_zeros,
)

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


class Renderers(NamedTuple):
    """A report's CSV rendering, and JSON writers for some top-level payload keys.

    A writer takes the newline its value starts after and returns the text
    the encoder would write for the value there.
    """

    csv: Callable[[], str]
    json: dict[str, Callable[[str], str]]


# payload (without "command"), its CSV rendering (or Renderers) on demand, exit code
Report = tuple[dict, "Callable[[], str] | Renderers", int]


class UsageError(Exception):
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
        raise ValueError("word period must be nonempty")
    return SelectionWord(wp, wq, ep, eq or (1,))


def load_spec(args) -> ConvolutionSpec:
    """Resolve the convolution spec from --preset/--config plus overrides."""
    if args.preset is None and args.config is None:
        raise UsageError("one of --preset or --config is required")
    if args.preset is not None and args.config is not None:
        raise UsageError("--preset and --config are mutually exclusive")
    if args.preset is not None:
        obj = PRESETS[args.preset]
    else:
        try:
            obj = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ValueError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON in {args.config}: {exc}") from exc
    try:
        spec = ConvolutionSpec.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid config: {exc}") from exc
    override = parse_word_arg(args.word, args.exponents)
    return spec if override is None else ConvolutionSpec(spec.family, override)


def cmd_check(args) -> Report:
    spec = load_spec(args)
    reports = [
        {**t.to_json(), **verify_triple(t.N, t.B, t.L, tol=args.tol).to_json()}
        for t in spec.family
    ]
    all_ok = all(r["ok"] for r in reports)
    payload = {
        "tol": args.tol,
        "triples": reports,
        "gcd": certify_gcd_condition(spec.family).to_json(),
        "ok": all_ok,
    }

    def csv() -> str:
        rows = (f"{j},{r['N']},{r['ok']},{r['deviation']!r}" for j, r in enumerate(reports, 1))
        return "\n".join(["index,N,ok,deviation", *rows]) + "\n"

    return payload, csv, EXIT_OK if all_ok else EXIT_VERIFICATION


def cmd_spectrum(args) -> Report:
    spec = load_spec(args)
    if args.levels < 1:
        raise ValueError(f"--levels must be >= 1, got {args.levels}")
    params = BuildParams(
        delta=args.delta, epsilon=args.epsilon, K=args.kmax, depth=args.depth
    )
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", GcdNotCertifiedWarning)
            levels = build_spectrum(spec, args.levels, params=params)
    except EquiPositivityViolation as exc:
        error = {
            "type": "equi-positivity-violation",
            "lambda": exc.lam,
            "m": exc.m,
            "x": exc.x,
            "achieved": exc.achieved,
            "epsilon": exc.epsilon,
        }
        csv_row = f"error,{error['type']},{exc.lam},{exc.m}\n"
        return {"error": error}, lambda: csv_row, EXIT_VERIFICATION
    gcd_warnings = [
        str(w.message) for w in caught if issubclass(w.category, GcdNotCertifiedWarning)
    ]

    def csv() -> str:
        rows = (f"{i},{lam}" for i, lv in enumerate(levels.levels) for lam in lv)
        return "\n".join(["level,lambda", *rows]) + "\n"

    return {"warnings": gcd_warnings, **levels.to_json()}, csv, EXIT_OK


def cmd_verify(args) -> Report:
    spec = load_spec(args)
    try:
        obj = json.loads(Path(args.levels_file).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read levels file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed levels file: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"invalid levels file: a {type(obj).__name__}, not a JSON object")
    if "error" in obj:
        payload = {"status": "not-applicable", "reason": "construction failed upstream",
                   "upstream_error": obj["error"]}
        return payload, lambda: "status\nnot-applicable\n", EXIT_CONFIG
    try:
        levels = SpectrumLevels.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid levels file: {exc}") from exc
    if levels.level_count < 1:
        raise ValueError("levels file contains no constructed levels")
    report = spectral_report(spec, levels, grid_n=args.grid, depth=args.depth)
    return report.to_json(), report.to_csv, EXIT_OK if report.passed else EXIT_VERIFICATION


def cmd_zeros(args) -> Report:
    modes = [args.mask is not None, args.products_h is not None, args.probe_xi is not None]
    if sum(modes) != 1:
        raise UsageError("choose exactly one of --mask, --products-h, --probe-xi")
    if args.mask is not None:
        tol = DEFAULT_RESIDUAL_TOL if args.tol is None else args.tol
        digits = _parse_symbols_signed(args.mask)
        report = mask_zeros(digits, *_parse_range(args.range), residual_tol=tol)
        return report.to_json(), report.to_csv, EXIT_OK
    spec = load_spec(args)
    if args.products_h is not None:
        report = enumerate_zero_products(spec.family, args.products_h)
        return report.to_json(), report.to_csv, EXIT_OK
    tol = DEFAULT_PROBE_TOL if args.tol is None else args.tol
    verdict = integral_periodic_zero_probe(
        spec, args.probe_xi, K=args.kmax, depth=args.depth, tol=tol
    )
    payload = verdict.to_json()

    def csv() -> str:
        return (
            "xi,verdict,witness_k,witness_value,max_value,max_k\n"
            f"{verdict.xi!r},{payload['verdict']},{verdict.witness_k},"
            f"{verdict.witness_value!r},{verdict.max_value!r},{verdict.max_k}\n"
        )

    return payload, csv, EXIT_OK


def cmd_equipos(args) -> Report:
    spec = load_spec(args)
    cert = probe_family(
        spec,
        _parse_symbols_signed(args.skips),
        grid_n=args.grid,
        K=args.kmax,
        depth=args.depth,
        failure_threshold=args.threshold,
    )
    renderers = Renderers(cert.to_csv, {"table": lambda newline: _table_json(cert, newline)})
    return cert.to_json(_Table(cert)), renderers, EXIT_OK if cert.ok else EXIT_VERIFICATION


class _Table(list):
    """A certificate's table rows, formed each time the value is iterated.

    The stdlib's indented encoder and _dumps iterate a list, so they write
    every row, while the list's own storage stays empty: main never reads
    the value, as its writer formats the table from the certificate's columns.
    """

    def __init__(self, cert: EquiPositivityCertificate):
        super().__init__()
        self.cert = cert

    def __len__(self) -> int:
        return len(self.cert.grid) * len(self.cert.skips)

    def __iter__(self) -> Iterator[list]:
        return self.cert.table()


def _table_json(cert: EquiPositivityCertificate, newline: str) -> str:
    """``_dumps(cert.to_json()["table"], newline)`` from the certificate's columns."""
    inner = newline + "  "
    deep = inner + "  "
    rows = cert.lines("," + deep, "[" + deep, inner + "]", _json_float)
    return "[" + inner + ("," + inner).join(rows) + newline + "]"


def _parse_symbols_signed(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in str(text).split(",") if p.strip() != "")
    except ValueError as exc:
        raise ValueError(f"cannot parse integer list {text!r}") from exc


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(p) for p in str(text).split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse range {text!r}; expected 'lo,hi'") from exc
    return lo, hi


_encode_str = json.encoder.encode_basestring_ascii


def _json_float(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _dumps(obj, newline: str = "\n", written: dict[str, Callable[[str], str]] | None = None) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` for str-keyed payloads.

    With an indent, CPython's json falls back to its pure-Python encoder,
    one generator frame per item.  This writes a list of exact ints and
    finite floats, or a list of nonempty lists of them, with one repr and
    recurses only into the other containers.  The values of the keys of
    obj in written come from those writers instead.
    """
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _json_float(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        types = {*map(type, obj)}
        table = types == {list} and all(obj)  # rows, none of them empty
        if table:
            types = {*map(type, itertools.chain.from_iterable(obj))}
        # repr writes exact ints and finite floats as json does; "n" marks nan, inf
        if types <= {int, float} and "n" not in (text := repr(list(obj))):
            if not table:
                return "[" + inner + text[1:-1].replace(", ", "," + inner) + newline + "]"
            deep = inner + "  "
            rows = text[2:-2].replace(", ", "," + deep)
            rows = rows.replace("]," + deep + "[", inner + "]," + inner + "[" + deep)
            return "[" + inner + "[" + deep + rows + inner + "]" + newline + "]"
        body = [_dumps(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(body) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        written = written or {}
        body = [
            _encode_str(k) + ": " + (written[k](inner) if k in written else _dumps(v, inner))
            for k, v in sorted(obj.items())
        ]
        return "{" + inner + ("," + inner).join(body) + newline + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _default(func, name: str):
    """The library's default for one parameter of ``func``."""
    return inspect.signature(func).parameters[name].default


def build_parser() -> _Parser:
    parser = _Parser(prog="convspec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--preset", choices=sorted(PRESETS), help="embedded demo family")
        p.add_argument("--config", help="JSON config file with triples and word")
        p.add_argument("--word", help="selection word, 'prefix:period' (digits)")
        p.add_argument("--exponents", help="factor exponents, 'prefix:period'")
        p.add_argument("--output", choices=["json", "csv"], default="json")
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.set_defaults(func=func)
        return p

    p = command("check", cmd_check, "validate triples and the gcd condition")
    p.add_argument("--tol", type=float, default=DEFAULT_UNITARITY_TOL,
                   help="unitarity tolerance")

    p = command("spectrum", cmd_spectrum, "run the inductive spectrum construction")
    p.add_argument("--levels", type=int, default=3, help="construction depth")
    defaults = BuildParams()
    p.add_argument("--delta", type=float, default=defaults.delta)
    p.add_argument("--epsilon", type=float, default=defaults.epsilon,
                   help="demanded tail-transform floor")
    p.add_argument("--kmax", type=int, default=defaults.K, help="shift search window")
    p.add_argument("--depth", type=int, default=defaults.depth,
                   help="tail truncation factors")

    p = command("verify", cmd_verify, "Gram/completeness verification of levels")
    p.add_argument("--levels-file", required=True, help="SpectrumLevels JSON")
    p.add_argument("--grid", type=int, default=_default(spectral_report, "grid_n"),
                   help="xi grid size on [-2,2]")
    p.add_argument("--depth", type=int, default=_default(spectral_report, "depth"),
                   help="transform truncation")

    p = command("zeros", cmd_zeros, "mask zero sets and periodic-zero probes")
    p.add_argument("--mask", help="digit set, e.g. '0,2'")
    p.add_argument("--range", default="0,1", help="interval 'lo,hi' for --mask")
    p.add_argument("--products-h", type=float, default=None,
                   help="enumerate scaled zero products on [-h,h]")
    p.add_argument("--probe-xi", type=float, default=None,
                   help="probe xi for membership in the integral periodic zero set")
    p.add_argument("--kmax", type=int, default=DEFAULT_SHIFT_WINDOW)
    p.add_argument("--depth", type=int, default=DEFAULT_TAIL_DEPTH)
    p.add_argument("--tol", type=float, default=None,
                   help="root residual (mask mode) or probe threshold")

    p = command("equipos", cmd_equipos, "equi-positivity probe of the tail family")
    p.add_argument("--skips", default="0,1,2,3,4", help="tail indices to probe")
    p.add_argument("--grid", type=int, default=_default(probe_family, "grid_n"))
    p.add_argument("--kmax", type=int, default=DEFAULT_SHIFT_WINDOW)
    p.add_argument("--depth", type=int, default=DEFAULT_TAIL_DEPTH)
    p.add_argument("--threshold", type=float, default=DEFAULT_FAILURE_THRESHOLD)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload, csv, code = args.func(args)
        csv, written = csv if isinstance(csv, Renderers) else (csv, None)
        if args.output == "csv":
            text = csv()
        else:
            payload["command"] = args.command
            text = _dumps(payload, written=written) + "\n"
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, HorizonExhaustedError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
