"""Hadamard triples on the real line: validation, translation, reduction, composition.

A triple (N, B, L) consists of an integer scale with |N| >= 2 and two
equal-size integer tuples, the digits B and the frequencies L.  It is a
Hadamard triple when the #B x #B matrix

    [ exp(-2*pi*i * b*l / N) / sqrt(#B) ]_{b in B, l in L}

is unitary, equivalently when L is a spectrum of the uniform atomic measure
on B/N.  Scales may be negative; only |N| >= 2 is required.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import math
import operator
from dataclasses import dataclass, fields
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "DEFAULT_UNITARITY_TOL",
    "HadamardTriple",
    "TripleReport",
    "verify_triple",
    "translate_triple",
    "reduce_frequencies",
    "normalize_frequencies",
    "compose_triples",
    "difference_gcd",
]

DEFAULT_UNITARITY_TOL = 1e-12


def _integers(values: Sequence[int], name: str = "digits") -> tuple[int, ...]:
    """values as ints by operator.index, which rejects 2.5 (and 2.0) where int() truncates."""
    try:
        return tuple(operator.index(v) for v in values)
    except TypeError:
        with contextlib.suppress(TypeError):  # values that cannot be listed are named by repr
            values = list(values)
        raise ValueError(f"{name} must be integers, got {values!r}") from None


class _DigitTable(NamedTuple):
    """What every mask reads of a digit set B, in O(#B): lo = min B, the
    offsets b - min B in B's order, and gcd(B - B), 0 for a singleton."""

    lo: int
    offsets: tuple[int, ...]
    gcd: int


class _PairWeights(NamedTuple):
    """What the squared-mask kernel reads of B, in O(#B^2): the distinct
    differences b - b' > 0 ascending with the weights 2 c_delta / #B^2
    (c_delta pairs at delta) rounded to multiples of 2^-52, and
    const = 1 - sum(weights) exactly."""

    deltas: tuple[int, ...]
    weights: tuple[float, ...]
    const: float


def _digits(B: Sequence[int]) -> _DigitTable:
    """B's digit table, formed once per B; B is checked by _integers before
    the cache is read, as (0.0, 2.0) hashes and compares like (0, 2)."""
    return _digit_table(_integers(B))


@functools.lru_cache(maxsize=1024)
def _digit_table(B: tuple[int, ...]) -> _DigitTable:
    if not B:
        raise ValueError("digit set must be nonempty")
    lo = min(B)
    offsets = tuple(b - lo for b in B)
    return _DigitTable(lo, offsets, math.gcd(*offsets))


@functools.lru_cache(maxsize=1024)
def _pairs(t: _DigitTable) -> _PairWeights:
    """The pair weights of the digit set whose table (from _digits) is t."""
    pairs = collections.Counter(b - c for b in t.offsets for c in t.offsets if b > c)
    deltas = tuple(sorted(pairs))
    k = [round(2 * pairs[d] * 2.0**52 / len(t.offsets) ** 2) for d in deltas]
    return _PairWeights(deltas, tuple(i * 2.0**-52 for i in k),
                        ((1 << 52) - sum(k)) * 2.0**-52)


def _fields_json(obj, **extra) -> dict:
    """A dataclass report's JSON: its fields by name, tuples as lists, then extra."""
    return {
        f.name: list(v) if isinstance(v := getattr(obj, f.name), tuple) else v
        for f in fields(obj)
    } | extra


def _tolerance(value: float, name: str = "tol") -> float:
    """value itself when it is finite and >= 0; NaN fails too."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return value


def _unitarity_deviation(N: int, B: tuple[int, ...], L: tuple[int, ...]) -> float:
    """Max entrywise deviation from the identity of the row Gram matrix of the
    normalized exponential matrix [exp(-2*pi*i*b*l/N) / sqrt(#B)], rows b in B."""
    m = np.exp(
        -2j * np.pi * np.outer(np.asarray(B, float), np.asarray(L, float)) / N
    ) / math.sqrt(len(B))
    g = m @ m.conj().T
    return float(np.max(np.abs(g - np.eye(len(B)))))


@dataclass(frozen=True)
class HadamardTriple:
    """Scale N with digit tuple B and frequency tuple L, #B == #L >= 2.

    Tuples keep their given order and must be free of exact duplicates;
    duplicated entries are a validation error, never merged silently.
    Numerical unitarity is checked by :func:`verify_triple`, not here.
    """

    N: int
    B: tuple[int, ...]
    L: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "N", _integers([self.N], "scales")[0])
        object.__setattr__(self, "B", _integers(self.B))
        object.__setattr__(self, "L", _integers(self.L, "frequencies"))
        if abs(self.N) < 2:
            raise ValueError(f"invalid scale N={self.N}: need |N| >= 2")
        if len(self.B) != len(self.L):
            raise ValueError(
                f"size mismatch: #B={len(self.B)} != #L={len(self.L)}"
            )
        if len(self.B) < 2:
            raise ValueError("digit set needs at least two elements")
        if len(set(self.B)) != len(self.B):
            raise ValueError(f"duplicate digits in B={self.B}")
        if len(set(self.L)) != len(self.L):
            raise ValueError(f"duplicate frequencies in L={self.L}")

    def unitarity_deviation(self) -> float:
        """Max entrywise deviation of the row Gram matrix from the identity."""
        return _unitarity_deviation(self.N, self.B, self.L)

    def to_json(self) -> dict:
        return _fields_json(self)

    @classmethod
    def from_json(cls, obj: dict) -> "HadamardTriple":
        return cls(obj["N"], tuple(obj["B"]), tuple(obj["L"]))


@dataclass(frozen=True)
class TripleReport:
    """Outcome of a unitarity check: pass flag plus the worst deviation."""

    ok: bool
    deviation: float | None
    reason: str | None = None

    def to_json(self) -> dict:
        return _fields_json(self)


def verify_triple(
    N: int,
    B: Sequence[int],
    L: Sequence[int],
    tol: float = DEFAULT_UNITARITY_TOL,
) -> TripleReport:
    """Check the Hadamard property of raw (N, B, L) data.

    Fails (without raising) when #B != #L or when the row Gram matrix of the
    normalized exponential matrix deviates from the identity by more than
    ``tol``.  A scale with |N| < 2, or any non-integer entry, raises ValueError.
    """
    N = _integers([N], "scales")[0]
    _tolerance(tol)
    if abs(N) < 2:
        raise ValueError(f"invalid scale N={N}: need |N| >= 2")
    B, L = _integers(B), _integers(L, "frequencies")
    if not B or not L:
        raise ValueError("digit and frequency sets must be nonempty")
    if len(B) != len(L):
        return TripleReport(ok=False, deviation=None, reason="size-mismatch")
    dev = _unitarity_deviation(N, B, L)
    return TripleReport(ok=dev <= tol, deviation=dev)


def translate_triple(t: HadamardTriple, b0: int, l0: int) -> HadamardTriple:
    """Translate digits by b0 and frequencies by l0; preserves the property."""
    return HadamardTriple(
        t.N, tuple(b + b0 for b in t.B), tuple(l + l0 for l in t.L)
    )


def reduce_frequencies(t: HadamardTriple) -> HadamardTriple:
    """Reduce every frequency into {0, ..., |N|-1}, keeping the order."""
    return HadamardTriple(t.N, t.B, tuple(l % abs(t.N) for l in t.L))


def normalize_frequencies(t: HadamardTriple) -> HadamardTriple:
    """Reduce frequencies mod |N| and translate so that 0 is among them.

    The inductive spectrum construction needs 0 in every frequency set and
    frequencies inside {0, ..., |N|-1}; both are reachable by a translation
    followed by reduction, which keeps the Hadamard property.
    """
    r = reduce_frequencies(t)
    if 0 in r.L:
        return r
    return reduce_frequencies(translate_triple(r, 0, -min(r.L)))


def compose_triples(ts: Sequence[HadamardTriple]) -> HadamardTriple:
    """Compose triples (N_1,B_1,L_1), ..., (N_n,B_n,L_n) into one.

    The composite is (N_n...N_1,
                      (N_n...N_2) B_1 + ... + N_n B_{n-1} + B_n,
                      L_1 + N_1 L_2 + ... + (N_1...N_{n-1}) L_n),
    enumerated digit-major (first factor outermost).
    """
    ts = list(ts)
    if not ts:
        raise ValueError("invalid input: cannot compose an empty list of triples")
    n = len(ts)
    scales = [t.N for t in ts]
    big_n = math.prod(scales)
    # coefficient of B_i is the product of the scales after it
    b_coef = [math.prod(scales[i + 1 :]) for i in range(n)]
    # coefficient of L_i is the product of the scales before it
    l_coef = [math.prod(scales[:i]) for i in range(n)]
    big_b = tuple(
        sum(c * b for c, b in zip(b_coef, combo))
        for combo in product(*(t.B for t in ts))
    )
    big_l = tuple(
        sum(c * l for c, l in zip(l_coef, combo))
        for combo in product(*(t.L for t in ts))
    )
    return HadamardTriple(big_n, big_b, big_l)


def difference_gcd(B: Sequence[int]) -> int:
    """gcd of all pairwise differences of B; 0 for a singleton."""
    return _digits(B).gcd
