"""Inductive construction of candidate spectra for infinite convolutions.

Starting from Lambda_0 = {0}, each step picks the least admissible factor
index m_i (all current elements shrink below delta/2 under the accumulated
scale), forms the composite block triple over positions (m_{i-1}, m_i], and
extends

    Lambda_i = Lambda_{i-1} + N_{0,m_{i-1}} * { l + k_l * N_block : l in L_block }

with integer shifts k_l picked so the tail transform beyond m_i stays large
at the shifted block frequencies (k = 0 forced at l = 0).  Every level is an
exact spectrum of the corresponding finite-level measure; the shift search
is the numeric surrogate for the equi-positivity constant, so the
construction aborts when no shift achieves the demanded floor.

The family's frequency sets are normalized (reduced mod |N| and translated
to contain 0) before any block is formed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .convolution import (
    _INT64_LIMIT,
    DEFAULT_TAIL_DEPTH,
    ConvolutionSpec,
    TailSpec,
    _check_budget,
    _int_array,
    _int_bytes,
)
from .equipos import choose_k
from .triples import (
    HadamardTriple,
    _fields_json,
    _integers,
    compose_triples,
    difference_gcd,
    normalize_frequencies,
)
from .zeros import DEFAULT_SHIFT_WINDOW

__all__ = [
    "BuildParams",
    "SpectrumLevels",
    "GcdReport",
    "GcdNotCertifiedWarning",
    "EquiPositivityViolation",
    "HorizonExhaustedError",
    "block_frequencies",
    "next_level",
    "build_spectrum",
    "certify_gcd_condition",
]

# Bytes a construction step is charged before its block is composed, as
# traced: a block frequency takes ~390 in next_level, and a frequency of each
# level 32 plus twice its array entry and digits through the report (36 B on
# mixed :12 L8, 49 B on jp L14, 105 B on the boxed ints of jp :3 L12).
_BLOCK_BYTES = 512
_LEVEL_BYTES = 32


class GcdNotCertifiedWarning(UserWarning):
    """The family misses the gcd condition; spectrality is not guaranteed."""


class HorizonExhaustedError(RuntimeError):
    """No admissible next index remained up to max_m."""


class EquiPositivityViolation(RuntimeError):
    """The shift search fell below the demanded floor; names the witness."""

    def __init__(self, lam: int, m: int, x: float, achieved: float, epsilon: float):
        self.lam = lam
        self.m = m
        self.x = x
        self.achieved = achieved
        self.epsilon = epsilon
        super().__init__(
            f"equi-positivity violation at block frequency lambda={lam}, "
            f"m={m}: best |tail transform| {achieved:.6g} < epsilon {epsilon:.6g} "
            f"(x={x:.6g})"
        )


@dataclass(frozen=True)
class BuildParams:
    """Knobs of the construction; delta and epsilon mirror the (eps, delta)
    pair of equi-positivity, which is not computable exactly."""

    delta: float = 0.2
    epsilon: float = 0.15
    K: int = DEFAULT_SHIFT_WINDOW
    depth: int = DEFAULT_TAIL_DEPTH
    max_m: int = 512

    def __post_init__(self):
        if not 0 < self.delta < math.inf:  # NaN fails too
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        _integers((self.K, self.depth, self.max_m), "K, depth and max_m")
        if self.K < 1 or self.depth < 1 or self.max_m < 1:
            raise ValueError("K, depth and max_m must be >= 1")

    def to_json(self) -> dict:
        return _fields_json(self)


@dataclass(frozen=True, eq=False)
class SpectrumLevels:
    """Nested integer sets Lambda_0 <= Lambda_1 <= ... with their shift data
    and the parameters that built them.

    Each level is a read-only int64 array, or an object array of Python ints
    once a value passes int64: any integer sequence is turned into that form
    by convolution._int_array, the rule the Gram check and measures share.
    Equality compares every level by value, and the class is unhashable.
    """

    levels: tuple[np.ndarray, ...]
    indices: tuple[int, ...]
    shifts: tuple[tuple[tuple[int, int], ...], ...]
    params: BuildParams

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(_int_array(lv, "levels") for lv in self.levels))
        n = len(self.indices)
        if not len(self.levels) == n + 1 == len(self.shifts) + 1:
            raise ValueError(f"{len(self.levels)} levels, {n} indices, {len(self.shifts)} shifts")
        if not all(lv.size for lv in self.levels):
            raise ValueError("every level must be nonempty")

    def __eq__(self, other):
        if not isinstance(other, SpectrumLevels):
            return NotImplemented
        # equal indices mean equal level counts
        return (self.indices, self.shifts, self.params) == (
            other.indices, other.shifts, other.params
        ) and all(map(np.array_equal, self.levels, other.levels))

    @property
    def level_count(self) -> int:
        return len(self.indices)

    def level(self, i: int) -> np.ndarray:
        """Lambda_i (i = 0 is the {0} bootstrap)."""
        return self.levels[i]

    def m(self, i: int) -> int:
        """Factor count m_i of level i >= 1."""
        return self.indices[i - 1]

    def to_json(self, level: Callable[[np.ndarray], list] = np.ndarray.tolist) -> dict:
        """The levels as plain data; level writes each one (a plain list by default)."""
        return {
            "levels": [level(lv) for lv in self.levels],
            "indices": list(self.indices),
            "shifts": [[[l, k] for l, k in sh] for sh in self.shifts],
            "parameters": self.params.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SpectrumLevels":
        """Inverse of to_json; a missing field, parameters included, raises
        KeyError, and a non-integer entry, invalid parameter or level count
        ValueError."""
        p = obj["parameters"]
        return cls(
            levels=tuple(obj["levels"]),
            indices=_integers(obj["indices"], "indices"),
            shifts=tuple(
                tuple((l, k) for l, k in (_integers(lk, "shifts") for lk in sh))
                for sh in obj["shifts"]
            ),
            params=BuildParams(
                float(p["delta"]), float(p["epsilon"]), p["K"], p["depth"], p["max_m"]
            ),
        )

    @classmethod
    def initial(cls, params: BuildParams) -> "SpectrumLevels":
        return cls(levels=((0,),), indices=(), shifts=(), params=params)


def block_frequencies(spec: ConvolutionSpec, p: int, q: int) -> HadamardTriple:
    """Composite triple over factor positions p+1..q (frequencies normalized)."""
    if not 0 <= p < q:
        raise ValueError(f"invalid range: need 0 <= p < q, got p={p}, q={q}")
    normalized = {t: normalize_frequencies(t).L for t in spec.family}
    # position k as a plain triple: (N^e, B, N^(e-1) L)
    return compose_triples([
        HadamardTriple(s, t.B, tuple(s // t.N * l for l in normalized[t]))
        for t, s, _ in spec.factors(q)[p:]
    ])


def next_level(spec: ConvolutionSpec, state: SpectrumLevels) -> SpectrumLevels:
    """Extend the construction by one level, with the parameters of ``state``.

    m_i is the least index past the current one, up to max_m, whose
    accumulated scale shrinks every current element below delta/2; the shift
    of each block frequency comes from the tail-transform search, with the
    achieved value required to reach epsilon.  A spec runs the search of each
    distinct step once and keeps it for the steps that repeat it.
    """
    params = state.params
    prev = state.levels[-1]
    m_prev = state.indices[-1] if state.indices else 0

    # every |lambda| / |P_m| < delta/2 iff the largest one is
    reach = max(-int(prev.min()), int(prev.max()))
    half_delta = Fraction(params.delta) / 2
    for m_i in range(m_prev + 1, params.max_m + 1):  # forms factors up to m_i only
        if Fraction(reach, abs(spec.scale_product(m_i))) < half_delta:
            break
    else:
        raise HorizonExhaustedError(
            f"no admissible index after m={m_prev} up to max_m={params.max_m}"
        )

    block_size = math.prod(len(f.triple.L) for f in spec.factors(m_i)[m_prev:])
    # every new |lambda| is below reach + |P_{m_i}| (K + 2)
    bits = (reach + abs(spec.scale_product(m_i)) * (params.K + 2)).bit_length()
    _check_budget(
        f"level {len(state.levels)} of {len(prev)} x {block_size} frequencies",
        _BLOCK_BYTES * block_size + (sum(map(len, state.levels)) + len(prev) * block_size)
        * (_LEVEL_BYTES + 2 * (_int_bytes(bits) + bits * 3 // 10)),
    )
    blocks = block_frequencies(spec, m_prev, m_i)
    n0_prev = spec.scale_product(m_prev)

    # one shift search over every block frequency, each at x = frac(lambda/N);
    # equal tail words spell equal tails, so the spec keeps each search, outside
    # its dataclass fields as its factor table is, for the steps that repeat it
    ratios = [Fraction(lam, blocks.N) for lam in blocks.L]
    xs = [float(r - math.floor(r)) for r in ratios]
    tail = TailSpec(spec, m_i)
    key = (tail.word, params.K, params.depth, tuple(xs))
    searches = spec.__dict__.setdefault("_searches", {})
    if key not in searches:
        ks, achieved = choose_k(tail, xs, K=params.K, depth=params.depth)
        searches[key] = ks.tolist(), achieved.tolist()
    ks, achieved = searches[key]
    for lam, x, value in zip(blocks.L, xs, achieved):
        if lam != 0 and value < params.epsilon:  # k = 0 is forced at lambda = 0
            raise EquiPositivityViolation(
                lam=lam, m=m_i, x=x, achieved=value, epsilon=params.epsilon
            )
    shift_map = {lam: k - math.floor(r) for lam, k, r in zip(blocks.L, ks, ratios)}

    block_points = [n0_prev * (lam + shift_map[lam] * blocks.N) for lam in blocks.L]
    bound = reach + max(abs(b) for b in block_points)
    dtype = np.int64 if bound < _INT64_LIMIT else object
    # block-major: one sorted run per block point, merged by a stable sort in place
    points = np.array(block_points, dtype=dtype)
    new_level = np.add.outer(points, prev.astype(dtype, copy=False)).ravel()
    new_level.sort(kind="stable")
    new_level.flags.writeable = False
    if np.any(new_level[1:] == new_level[:-1]):
        raise RuntimeError(
            "level cardinality collapsed; the input spec is not a valid "
            "Hadamard system"
        )
    return SpectrumLevels(
        levels=state.levels + (new_level,),
        indices=state.indices + (m_i,),
        shifts=state.shifts + (tuple(sorted(shift_map.items())),),
        params=params,
    )


def build_spectrum(
    spec: ConvolutionSpec,
    depth_i: int,
    params: BuildParams | None = None,
) -> SpectrumLevels:
    """Run ``depth_i`` construction steps from Lambda_0 = {0}.

    Families missing the gcd condition draw a warning; the construction is
    still attempted and fails honestly if the shift search collapses.
    """
    if depth_i < 1:
        raise ValueError(f"depth_i must be >= 1, got {depth_i}")
    params = params or BuildParams()
    gcd_report = certify_gcd_condition(spec.family)
    if not gcd_report.certified:
        warnings.warn(
            "difference gcds "
            f"{list(gcd_report.gcds)} are not all 1 (offending indices "
            f"{list(gcd_report.offending)}); spectrality of every word is "
            "not guaranteed",
            GcdNotCertifiedWarning,
            stacklevel=2,
        )
    state = SpectrumLevels.initial(params)
    for _ in range(depth_i):
        state = next_level(spec, state)
    return state


@dataclass(frozen=True)
class GcdReport:
    """Whether every digit set has pairwise-difference gcd 1."""

    certified: bool
    gcds: tuple[int, ...]
    offending: tuple[int, ...]  # 1-based family indices
    note: str | None = None

    def to_json(self) -> dict:
        return _fields_json(self)


def certify_gcd_condition(family: Sequence[HadamardTriple]) -> GcdReport:
    """Certified iff difference_gcd(B_j) == 1 for every family member.

    This is the sufficient condition making every word and exponent choice
    spectral; failing it only voids the blanket guarantee.
    """
    family = tuple(family)
    if not family:
        raise ValueError("family must be nonempty")
    gcds = tuple(difference_gcd(t.B) for t in family)
    offending = tuple(j + 1 for j, g in enumerate(gcds) if g != 1)
    note = None
    if offending and len(family) == 1:
        note = (
            "single-triple systems can still be spectral despite gcd != 1; "
            "the certificate only covers the every-word guarantee"
        )
    return GcdReport(
        certified=not offending, gcds=gcds, offending=offending, note=note
    )
