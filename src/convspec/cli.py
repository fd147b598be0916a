"""Command-line front end: check, spectrum, verify, zeros, equipos.

Exit codes: 0 ok, 1 usage error, 2 verification failure, 3 config/IO error.
Identical configuration and parameters produce byte-identical output;
reports carry no timestamps and floats print through repr.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import sys
import warnings
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

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


# payload (without "command"), its CSV rendering on demand, exit code
Report = tuple[dict, Callable[[], str], int]


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
        parts = ["level,lambda\n"]
        for i, lv in enumerate(levels.levels):  # every level is nonempty
            parts += [f"{i},", *_int_text(lv, f"\n{i},"), "\n"]
        return "".join(parts)

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
    return cert.to_json(_Table(cert)), cert.to_csv, EXIT_OK if cert.ok else EXIT_VERIFICATION


class _Table(list):
    """A certificate's table rows, formed each time the value is iterated.

    The stdlib's indented encoder iterates a list, so it writes every row,
    while the list's own storage stays empty.  _dumps calls its json
    method instead, which joins the certificate's formatted columns.
    """

    def __init__(self, cert: EquiPositivityCertificate):
        super().__init__()
        self.cert = cert

    def __len__(self) -> int:
        return len(self.cert.grid) * len(self.cert.skips)

    def __iter__(self) -> Iterator[list]:
        return self.cert.table()

    def json(self, newline: str) -> str:
        """``json.dumps(list(self), indent=2)`` for a table that starts after newline."""
        inner = newline + "  "
        deep = inner + "  "
        # the lines are freed once joined, before the last copy is formed
        rows = ("," + inner).join(self.cert.lines("," + deep, "[" + deep, inner + "]"))
        return "".join(["[", inner, rows, newline, "]"])


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


@functools.cache
def _digit_tables() -> np.ndarray:
    """4-digit groups 0..9999 as little-endian uint32 words of ASCII digits.

    Three tables of 10,000 words, one after the other: a leading group,
    NUL-padded before its first digit (0 is all NUL); a group after the
    leading one, with its zeros; and a leading group that is the last,
    where 0 writes "0".  Built on first use, so an import pays nothing.
    """
    v = np.arange(10_000, dtype=np.uint32)
    lead, full = np.zeros_like(v), np.zeros_like(v)
    for k, p in enumerate((1000, 100, 10, 1)):
        byte = (v // p % 10 + ord("0")) << (8 * k)
        full |= byte
        lead |= byte * (v >= p)
    last = lead.copy()
    last[0] = ord("0") << 24
    return np.concatenate([lead, full, last]).astype("<u4")


_GROUP = np.uint64(10_000)
_INT_BLOCK = 1 << 15  # numbers per block of _int_text, about 1 MB of rows


def _int_text(ints: Sequence[int], sep: str) -> list[str]:
    """The decimal text of ints joined by sep, as blocks for the caller to join.

    A block of _INT_BLOCK numbers is a uint32 matrix with one row per
    number: a sign column, the 4-digit groups from _digit_tables, and
    sep's bytes (none after the last number).  It is filled a column at a
    time, so NUL pads the words before the leading digits and after sep,
    and one translate drops it.  Past int64 the numbers go through
    int.__repr__.
    """
    try:
        a = np.fromiter(ints, np.int64, len(ints))
    except OverflowError:
        return [sep.join(map(int.__repr__, ints))]
    sep_words = np.frombuffer(sep.encode("ascii").ljust(-(-len(sep) // 4) * 4, b"\0"), "<u4")
    digits, blocks = _digit_tables(), []
    for start in range(0, a.size, _INT_BLOCK):
        v = a[start : start + _INT_BLOCK]
        neg = v < 0
        u = v.view(np.uint64).copy()
        np.negative(u, out=u, where=neg)  # |v|, 2^63 included
        groups = -(-len(str(u.max())) // 4)
        cols = np.empty((1 + groups + sep_words.size, v.size), "<u4")
        np.multiply(neg, np.uint32(ord("-")), out=cols[0])
        cols[1 + groups :] = sep_words[:, None]
        if start + v.size == a.size:
            cols[1 + groups :, -1] = 0
        for col in range(groups, 0, -1):  # least significant first
            u, g = np.divmod(u, _GROUP)  # u: the digits above the group
            # intp: numpy 1.x makes uint64 with a Python int float64, and takes no uint64 index
            g = g.astype(np.intp)
            g += np.where(u != 0, 10_000, 20_000 if col == groups else 0)
            np.take(digits, g, out=cols[col])
        blocks.append(cols.T.tobytes().translate(None, b"\0").decode("ascii"))
    return blocks


def _dumps(obj, newline: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` for str-keyed payloads.

    With an indent, CPython's json falls back to its pure-Python encoder,
    one generator frame per item.  This writes a list of ints through
    _int_text, a list of exact ints and finite floats with one repr, and
    recurses only into the other containers, which add their pieces to one
    list that is joined once.  A _Table writes itself.
    """
    out: list[str] = []
    _write(obj, newline, out)
    return "".join(out)


def _write(obj, newline: str, out: list[str]) -> None:
    """Append the pieces of ``_dumps(obj, newline)`` to out."""
    if isinstance(obj, str):
        out.append(_encode_str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True or obj is False:
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        if math.isfinite(obj):
            out.append(float.__repr__(obj))
        else:
            out.append("NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity")
    elif isinstance(obj, _Table):
        out.append(obj.json(newline))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        out += "{", inner
        for k, v in sorted(obj.items()):
            out += _encode_str(k), ": "
            _write(v, inner, out)
            out.append("," + inner)
        out[-1] = newline + "}"
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        types = {*map(type, obj)}
        if types == {int}:  # bools are not, and write true and false
            out += "[", inner, *_int_text(obj, "," + inner), newline, "]"
        # repr writes exact ints and finite floats as json does; "n" marks nan, inf
        elif types <= {int, float} and "n" not in (text := repr(list(obj))):
            out += "[", inner, text[1:-1].replace(", ", "," + inner), newline, "]"
        else:
            out += "[", inner
            for v in obj:
                _write(v, inner, out)
                out.append("," + inner)
            out[-1] = newline + "]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _default(func, name: str):
    """The library's default for one parameter of ``func``."""
    return inspect.signature(func).parameters[name].default


@functools.cache
def build_parser() -> _Parser:
    """The parser of every command, built once per process and shared:
    parse with it, but do not change it."""
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
        if args.output == "csv":
            text = csv()
        else:
            payload["command"] = args.command
            text = _dumps(payload) + "\n"
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
