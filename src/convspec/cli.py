"""Command-line front end: check, spectrum, verify, zeros, equipos.

Exit codes: 0 ok, 1 usage error, 2 verification failure, 3 config/IO error.
Identical configuration and parameters produce byte-identical output;
reports carry no timestamps and floats print through repr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import json
import math
import sys
import warnings
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .convolution import DEFAULT_TAIL_DEPTH, ConvolutionSpec, SelectionWord
from .equipos import DEFAULT_FAILURE_THRESHOLD, EquiPositivityCertificate, probe_family
from .spectrum import (
    BuildParams,
    EquiPositivityViolation,
    GcdNotCertifiedWarning,
    HorizonExhaustedError,
    SpectrumLevels,
    _check_steps,
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
    "mixed": {
        "triples": [
            {"N": 2, "B": [0, 1], "L": [0, 1]},
            {"N": 3, "B": [0, 1, 2], "L": [0, 1, 2]},
        ],
        "word": {"prefix": [], "period": [1, 2], "exp_prefix": [], "exp_period": [1]},
    },
}


# payload (without "command"), its CSV on demand (the text, or its pieces as bytes), exit code
Report = tuple[dict, Callable[[], str | Iterator[bytes]], int]


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


def _read_json(path: str, what: str):
    """The JSON value in the file at path; an unreadable or malformed file
    raises ValueError naming what it is (exit 3)."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed {what}: {exc}") from exc


def load_spec(args) -> ConvolutionSpec:
    """Resolve the convolution spec from --preset/--config plus overrides."""
    if args.preset is None and args.config is None:
        raise UsageError("one of --preset or --config is required")
    if args.preset is not None and args.config is not None:
        raise UsageError("--preset and --config are mutually exclusive")
    if args.preset is not None:
        obj = PRESETS[args.preset]
    else:
        obj = _read_json(args.config, f"config {args.config}")
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

    def csv() -> Iterator[bytes]:
        yield b"level,lambda\n"
        for i, lv in enumerate(levels.levels):  # every level is nonempty
            yield f"{i},".encode()
            yield from _int_text(lv, f"\n{i},")
            yield b"\n"

    return {"warnings": gcd_warnings, **levels.to_json(np.asarray)}, csv, EXIT_OK


def cmd_verify(args) -> Report:
    spec = load_spec(args)
    obj = _read_json(args.levels_file, "levels file")
    if not isinstance(obj, dict):
        raise ValueError(f"invalid levels file: a {type(obj).__name__}, not a JSON object")
    if "error" in obj:
        payload = {"status": "not-applicable", "reason": "construction failed upstream",
                   "upstream_error": obj["error"]}
        return payload, lambda: "status\nnot-applicable\n", EXIT_CONFIG
    try:
        levels = SpectrumLevels.from_json(obj)
        _check_steps(spec, levels)  # before any Q pass
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
    return cert.to_json(cert), cert._csv, EXIT_OK if cert.ok else EXIT_VERIFICATION


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
def _digit_tables() -> tuple[dict, np.ndarray]:
    """lead[l]: (offset, table) pieces that store g < 10^l as l ASCII digits
    in little-endian words of 1, 2, 1 + 2 or 4 bytes (lead[4] writes any
    4-digit group); and the cuts 1 - 10^k, 0, 10^k between _RUNS."""
    rows = (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    two = rows[:1000, 2:].copy().view("<u2").ravel()
    lead = {1: [(0, rows[:10, 3].copy())], 2: [(0, two)], 3: [(0, rows[:1000, 1].copy()), (1, two)],
            4: [(0, rows.view("<u4").ravel())]}
    cuts = [1 - 10**k for k in range(18, 0, -1)] + [0] + [10**k for k in range(1, 19)]
    return lead, np.array(cuts, np.int64)


_RUNS = [(1, d) for d in range(19, 0, -1)] + [(0, d) for d in range(1, 20)]  # (sign, digits)
_INT_BLOCK = 1 << 15  # numbers per block of _int_text, about 0.5 MB of text
_JOIN_BELOW = 256  # shorter arrays are faster through int.__repr__ than a block's fixed cost


def _int_text(a: np.ndarray, sep: str) -> Iterator[bytes | memoryview]:
    """The decimal text of the integers of a joined by sep, as ASCII pieces,
    each valid until the next is taken: a sorted int64 array's (as every
    level is) are views of one uint8 buffer, rewritten for each block of
    _INT_BLOCK numbers.  The cuts split a block into _RUNS, whose numbers
    are records of one width, sign + digits + sep, so each part of a run's
    records (the "-", the leading digits, each further 4-digit group, sep
    as 8, 4, 2 and 1-byte words) is one strided store into the buffer.
    Object arrays (of Python ints), unsorted and short ones are one piece by repr.
    """
    if a.dtype == object or a.size < _JOIN_BELOW or (a[1:] < a[:-1]).any():
        yield sep.join(map(int.__repr__, a.tolist())).encode()
        return
    lead, cuts = _digit_tables()
    four, ten4 = lead[4][0][1], np.uint64(10_000)  # numpy 1.x makes uint64 // int float64
    raw, words, at = sep.encode("ascii"), [], 0
    for k in [8] * (len(raw) // 8) + [k for k in (4, 2, 1) if len(raw) & k]:
        # stored from an array: a scalar stored into unaligned words is several times slower
        words.append((at, np.frombuffer(raw[at : at + k] * min(a.size, _INT_BLOCK), f"<u{k}")))
        at += k
    # view(shape, dtype, buf, offset, strides); buf holds a block of the widest records
    view, buf = np.ndarray, np.empty(min(a.size, _INT_BLOCK) * (20 + len(raw)), np.uint8)
    for start in range(0, a.size, _INT_BLOCK):
        v = a[start : start + _INT_BLOCK]
        bounds = [0, *np.searchsorted(v, cuts).tolist(), v.size]
        runs = [(lo, hi, s, d) for (s, d), lo, hi in zip(_RUNS, bounds, bounds[1:]) if hi > lo]
        top = (max(runs[0][3], runs[-1][3]) + 3) // 4  # 4-digit groups of the longest
        g = np.empty((top, v.size), np.uint64)  # the groups, most significant first
        g[-1] = v.view(np.uint64)
        np.negative(g[-1, : bounds[19]], out=g[-1, : bounds[19]])  # |v| below 0, 2^63 too
        for j in range(top - 1, 0, -1):
            np.floor_divide(g[j], ten4, out=g[j - 1])
            g[j] -= g[j - 1] * ten4
        g = g.view(np.intp)  # numpy 1.x takes no uint64 index
        o = 0
        for lo, hi, s, d in runs:
            n, w, full = hi - lo, s + d + len(raw), (d - 1) // 4
            if s:
                view(n, np.uint8, buf, o, (w,))[...] = 45  # "-"
            first = g[top - 1 - full, lo:hi]  # the leading group
            for at, table in lead[d - 4 * full]:
                view(n, table.dtype, buf, o + s + at, (w,))[...] = table.take(first)
            if full:
                view((full, n), "<u4", buf, o + s + d - 4 * full, (4, w))[...] = four.take(
                    g[top - full :, lo:hi])
            for at, word in words:
                view(n, word.dtype, buf, o + s + d + at, (w,))[...] = word[:n]
            o += n * w
        yield buf.data[: o - len(raw) * (start + v.size == a.size)]


def _dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` for str-keyed payloads: _write's pieces."""
    out = bytearray()
    _write(obj, "\n", out.extend)
    return out.decode()


def _write(obj, newline: str, put: Callable[[bytes], object]) -> None:
    """Hand the JSON of obj, starting after newline, to put as bytes, in order.

    With an indent, CPython's json falls back to its pure-Python encoder, one
    generator frame per item.  This writes a list of exact ints and finite
    floats with one repr, recurses only into the other containers, each
    separator before its item, and hands on an integer array's _int_text
    blocks and a certificate's _pieces of rows as they come: put must use
    each piece before it returns, as a block's buffer is rewritten for the next."""
    if isinstance(obj, str):
        put(_encode_str(obj).encode())
    elif obj is None:
        put(b"null")
    elif obj is True or obj is False:
        put(b"true" if obj else b"false")
    elif isinstance(obj, (dict, list, tuple)) and not obj:
        put(b"{}" if isinstance(obj, dict) else b"[]")
    elif isinstance(obj, int):
        put(int.__repr__(obj).encode())
    elif isinstance(obj, float):
        if math.isfinite(obj):
            put(float.__repr__(obj).encode())
        else:
            put(b"NaN" if obj != obj else b"Infinity" if obj > 0 else b"-Infinity")
    elif isinstance(obj, dict):
        inner, sep = newline + "  ", "{"
        for k, v in sorted(obj.items()):
            put(f"{sep}{inner}{_encode_str(k)}: ".encode())
            _write(v, inner, put)
            sep = ","
        put(f"{newline}}}".encode())
    elif isinstance(obj, (list, tuple)):
        inner = newline + "  "
        # repr writes exact ints and finite floats as json does; "n" marks nan,
        # inf, and bools are not ints here, as they write true and false
        if {*map(type, obj)} <= {int, float} and "n" not in (text := repr(list(obj))):
            put(f"[{inner}{text[1:-1].replace(', ', ',' + inner)}{newline}]".encode())
        else:
            sep = "["
            for v in obj:
                put(f"{sep}{inner}".encode())
                _write(v, inner, put)
                sep = ","
            put(f"{newline}]".encode())
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and (obj.dtype == np.int64 or (
            obj.dtype == object and {*map(type, obj)} <= {int})):
        inner = newline + "  "
        put(f"[{inner}".encode() if obj.size else b"[]")
        if obj.size:
            for block in _int_text(obj, "," + inner):
                put(block)
            put(f"{newline}]".encode())
    elif isinstance(obj, EquiPositivityCertificate):
        inner, deep = newline + "  ", newline + "    "
        put(f"[{inner}".encode())
        for piece in obj._pieces("," + deep, "[" + deep, inner + "]", "," + inner):
            put(piece)
        put(f"{newline}]".encode())
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
                   help="g: Q and its bound at the 4g+1 points -2 + j/g")
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
    """Run one command and stream its report's bytes, as they render, into --out
    (opened once the command returns: an error it raises leaves the file as it
    was) or stdout's buffer (decoded for a stdout with none); the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload, csv, code = args.func(args)
        if not args.out:
            sys.stdout.flush()  # what was written to stdout goes before the report
        stdout = getattr(sys.stdout, "buffer", None)
        with open(args.out, "wb") if args.out else contextlib.nullcontext(stdout) as f:
            put = f.write if f else lambda piece: sys.stdout.write(str(piece, "utf-8"))
            if args.output == "csv":
                text = csv()
                for piece in [text.encode()] if isinstance(text, str) else text:
                    put(piece)
            else:
                payload["command"] = args.command
                _write(payload, "\n", put)
                put(b"\n")
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
