"""Zero sets of mask polynomials and integral periodic zero probing.

A mask M_B is z^min(B) times a polynomial in z = exp(-2*pi*i*xi), so its
real zeros are the unit-circle roots of that polynomial, at most diam(B)
per unit period.  They are eigenvalues (numpy.roots) of the polynomial's
exact square-free part, where every root is simple, each polished by one
Newton step.  The finite enumeration of scaled zero products and the
numeric probes for integral periodic zeros build on this; probe verdicts
are numerical evidence, not proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .convolution import (
    _BUDGET_BYTES,
    DEFAULT_TAIL_DEPTH,
    ConvolutionSpec,
    _delta_count,
    _mask_power,
    # unused here, but bench/tracing.py requires the name bound in this module
    fourier_tail,
    mask,
)
from .triples import _integers, _tolerance

__all__ = [
    "ZeroEnclosure",
    "ZeroSetReport",
    "ZeroProbeVerdict",
    "PropagationTrace",
    "mask_zeros",
    "enumerate_zero_products",
    "integral_periodic_zero_probe",
    "zero_propagation",
    "search_order",
]

DEFAULT_RESIDUAL_TOL = 1e-10
DEFAULT_PROBE_TOL = 1e-6
DEFAULT_INTEGER_TOL = 1e-8
DEFAULT_SHIFT_WINDOW = 8  # K of every shift search: the shifts -K..K of search_order
_PRIME = 2**61 - 1  # modulus of the square-freeness test
_CIRCLE_TOL = 1e-8  # largest ||z| - 1| of a polynomial root taken as a mask zero
_SHIFT_BYTES = 64  # per shift of a window: a tuple slot, its Python int and int64 copies
_SIDE_BYTES = 4 << 20  # bytes of the mask kernel's point side, or its shift side, in one part


@dataclass(frozen=True)
class ZeroEnclosure:
    root: float
    radius: float


@dataclass(frozen=True)
class ZeroSetReport:
    """Sorted zero enclosures of a mask (or scaled family of masks)."""

    entries: tuple[ZeroEnclosure, ...]
    interval: tuple[float, float]
    source: str

    @property
    def roots(self) -> tuple[float, ...]:
        return tuple(e.root for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def to_json(self) -> dict:
        return {
            "interval": [f"{self.interval[0]:.15g}", f"{self.interval[1]:.15g}"],
            "source": self.source,
            "zeros": [
                {"root": f"{e.root:.15g}", "radius": f"{e.radius:.15g}"}
                for e in self.entries
            ],
        }

    def to_csv(self) -> str:
        lines = ["root,radius"]
        for e in self.entries:
            lines.append(f"{e.root:.15g},{e.radius:.15g}")
        return "\n".join(lines) + "\n"


def search_order(K: int) -> tuple[int, ...]:
    """Integer shifts 0, 1, -1, 2, -2, ..., K, -K (smaller |k| first, + before -).

    Every shift search takes its window from here, so K >= 1 is checked
    once, and so is the window's size: _SHIFT_BYTES per shift past
    _BUDGET_BYTES raises ValueError before the first shift is formed.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if _SHIFT_BYTES * (2 * K + 1) > _BUDGET_BYTES:
        raise ValueError(
            f"a shift window of K = {K} needs more than its budget of {_BUDGET_BYTES} bytes"
        )
    out = [0]
    for j in range(1, K + 1):
        out.extend((j, -j))
    return tuple(out)


class _Window(NamedTuple):
    """A shift search over search_order(K) on the squared tail moduli.

    The moduli are prod |M_B|^2 over the first depth factors (B, P_k),
    from the real kernel _mask_power at the centred split
    (x - 1/2, k + 1/2), so at x = 1/2 the shifts k and -1 - k are exact
    negatives and tie exactly.  A factor of rank 1 + 2 #delta sums that
    many terms, each of modulus at most 1 and each carrying about four
    roundings of 2^-53 (its argument, its cosine or sine, its weight and
    its product), and the factors after it multiply its error by at most
    1.  So a squared modulus below floor = max (1 + 2 #delta) * 2^-51
    over the factors is rounding of a zero: it reads 0, and such values
    tie on every BLAS path.  width counts the kernel's floats per point
    and per shift as verify._pass_bytes does, 5 #delta + 1 per factor.
    """

    ks: np.ndarray
    factors: list[tuple[tuple[int, ...], int]]
    floor: float
    width: int

    @classmethod
    def of(cls, tail: ConvolutionSpec, K: int, depth: int) -> "_Window":
        ks = np.array(search_order(K))
        if depth < 1:  # over the empty product every shift ties at 1
            raise ValueError(f"depth must be >= 1, got {depth}")
        factors = [(f.triple.B, f.product) for f in tail.factors(depth)]
        deltas = {B: _delta_count(B) for B, _ in factors}
        width = sum(5 * deltas[B] + 1 for B, _ in factors)
        return cls(ks, factors, max(1 + 2 * d for d in deltas.values()) * 2.0**-51, width)

    @property
    def chunks(self) -> int:
        """Consecutive chunks the window is cut into: of equal size and at least
        two shifts (a one-column product takes another BLAS path), each within
        _SIDE_BYTES of the kernel's shift side."""
        n = self.ks.size
        return max(1, min(-(-8 * self.width * n // _SIDE_BYTES), n // 2))

    def parts(self, n: int, pairs: int) -> int:
        """Parts to cut n points into: of equal size and at least two points (a
        one-row product takes another BLAS path), each within pairs
        (point, shift) pairs of a chunk and _SIDE_BYTES of the kernel's point side."""
        size = -(-self.ks.size // self.chunks)
        need = max(-(-n * size // pairs), -(-8 * self.width * n // _SIDE_BYTES))
        return max(1, min(need, n // 2))

    def power(self, x: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """(first index, floored squared moduli over (x, chunk)) for each chunk in order.

        x is 1-d; a lone point is taken as two equal rows, since a one-row
        product takes another BLAS path, so it gets the same floats as
        inside an array.
        """
        rows = np.repeat(x, 2) if x.size == 1 else x
        start = 0
        for ks in np.array_split(self.ks, self.chunks):
            sq = _mask_power(self.factors, rows - 0.5, ks + 0.5)
            sq[sq < self.floor] = 0.0
            yield start, sq[: x.size]
            start += ks.size


def _first_max(chunks: Iterable[tuple[int, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Window index and value of each row's first maximum over _Window.power's chunks.

    Each chunk's first maximum replaces the one carried only when it is
    strictly greater, so the search order breaks ties.
    """
    best, peak = 0, -1.0
    for start, sq in chunks:
        v = sq.max(axis=1)
        better = v > peak
        best = np.where(better, start + np.argmax(sq, axis=1), best)
        peak = np.where(better, v, peak)
    return best, peak


def _mod_prime(a: list[int]) -> list[int]:
    return [x % _PRIME for x in a]


def _primitive(a: list[int]) -> list[int]:
    g = math.gcd(*a) or 1
    return [x // g for x in a]


def _gcd(a: list[int], b: list[int], reduce) -> list[int]:
    """gcd(a, b) up to a constant factor: Euclid on pseudo-remainders.

    Polynomials are integer coefficient lists, highest power first.  Each
    step replaces a by lc(b) * a - a[0] * z^k * b, which needs no division;
    ``reduce`` (mod the prime, or the primitive part) keeps coefficients small.
    """
    while b:
        while len(a) >= len(b):
            f, c = a[0], b[0]
            a = reduce([c * x - f * y for x, y in zip(a, b)][1:] + [c * x for x in a[len(b):]])
            while a and a[0] == 0:
                del a[0]
        a, b = b, a
    return a


def _quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials where b divides a exactly."""
    q: list[int] = []
    while len(a) >= len(b):
        f = a[0] // b[0]
        q.append(f)
        a = [x - f * y for x, y in zip(a, b)][1:] + a[len(b):]
    return q


def _square_free_part(p: list[int]) -> list[int]:
    """p / gcd(p, p'), exactly; every root of the result is simple.

    A constant gcd modulo the prime proves p square-free: a common factor
    over the integers would survive the reduction, since p's leading
    coefficient (a digit count) is below the prime.  Only when the test
    finds a factor does Euclid run over the integers.
    """
    dp = [(len(p) - 1 - i) * c for i, c in enumerate(p[:-1])]
    if len(_gcd(_mod_prime(p), _mod_prime(dp), _mod_prime)) == 1:
        return p
    return _quotient(p, _primitive(_gcd(p, _primitive(dp), _primitive)))


def _zeros_in_unit_period(B, residual_tol: float) -> list[ZeroEnclosure]:
    """Zeros of M_B in [0, 1) with enclosure radii.

    With z = exp(-2*pi*i*xi), M_B(xi) = z^min(B) * p(z) / #B for the digit
    count polynomial p(z) = sum_b z^(b - min B), so the zeros are
    xi = -arg(z)/(2*pi) mod 1 over the roots z of p on the unit circle.
    They are taken from the square-free part s of p, where every root is
    simple, polished by one Newton step in xi and kept only if
    |M_B(xi)| <= residual_tol; the radius is twice the next step, |s/s'|/pi.
    """
    hi = max(B)
    p = [0] * (hi - min(B) + 1)
    for b in B:
        p[hi - b] += 1
    s = np.array([float(c) for c in _square_free_part(p)])
    ds = np.polyder(s)

    def newton_step(x):  # -f/f' for f(x) = s(exp(-2*pi*i*x))
        w = np.exp(-2j * np.pi * x)
        return np.polyval(s, w) / (2j * np.pi * w * np.polyval(ds, w))

    z = np.roots(s)
    z = z[np.abs(np.abs(z) - 1.0) <= _CIRCLE_TOL]
    xs = -np.angle(z) / (2 * np.pi) % 1.0
    xs = np.sort(xs + newton_step(xs).real)
    radii = 2.0 * np.abs(newton_step(xs))
    residuals = np.abs(mask(B, xs))
    return [
        ZeroEnclosure(float(x), max(float(r), 1e-15))
        for x, r, m in zip(xs, radii, residuals)
        if m <= residual_tol
    ]


def _translates(base: list[ZeroEnclosure], lo: float, hi: float) -> list[ZeroEnclosure]:
    """Every integer translate of the unit-period zeros in base inside [lo, hi]."""
    out = []
    for e in base:
        k = math.floor(lo - e.root) - 1
        while e.root + k <= hi + 1e-12:
            x = e.root + k
            if x >= lo - 1e-12:
                out.append(ZeroEnclosure(x, e.radius))
            k += 1
    return out


def _zero_free_radius(base: list[ZeroEnclosure]) -> float:
    positive = [e.root for e in base if e.root > 1e-12]
    return min(positive) / 2.0 if positive else math.inf


def mask_zeros(
    B,
    lo: float,
    hi: float,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> ZeroSetReport:
    """All zeros of M_B in [lo, hi], located per unit period and translated."""
    B = _integers(B)
    if not B:
        raise ValueError("digit set must be nonempty")
    if len(set(B)) == 1:
        raise ValueError("no zeros by definition: mask of a singleton never vanishes")
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"need finite lo < hi, got [{lo}, {hi}]")
    _tolerance(residual_tol, "residual_tol")
    out = _translates(_zeros_in_unit_period(B, residual_tol), lo, hi)
    out.sort(key=lambda z: z.root)
    return ZeroSetReport(
        entries=tuple(out),
        interval=(float(lo), float(hi)),
        source=f"mask B={list(B)}",
    )


def _sum_bounded_tuples(m: int, bound: int):
    """All m-tuples of nonnegative ints with coordinate sum <= bound."""
    if m == 0:
        yield ()
        return
    for first in range(bound + 1):
        for rest in _sum_bounded_tuples(m - 1, bound - first):
            yield (first,) + rest


def enumerate_zero_products(family, h: float) -> ZeroSetReport:
    """The finite set [-h,h] cut out of all scale-product translates of mask zeros.

    For each triple j the tuple exponents (k_1..k_m) range over sums at most
    log2(h/delta_j): beyond that the scaled zero-free ball already covers
    [-h, h], since every scale has modulus at least 2.
    """
    family = tuple(family)
    if not 0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    m = len(family)
    scales = [t.N for t in family]
    pts: list[ZeroEnclosure] = []
    for t in family:
        base = _zeros_in_unit_period(t.B, DEFAULT_RESIDUAL_TOL)
        delta = _zero_free_radius(base)
        if not h > delta:
            continue  # no scaled zero reaches [-h, h]
        kmax = math.floor(math.log2(h / delta))
        for tup in _sum_bounded_tuples(m, kmax):
            s = 1
            for nj, kj in zip(scales, tup):
                s *= nj**kj
            half = h / abs(s)
            for e in _translates(base, -half, half):
                pts.append(ZeroEnclosure(s * e.root, abs(s) * e.radius))
    pts.sort(key=lambda z: z.root)
    merged: list[ZeroEnclosure] = []
    for e in pts:
        if merged and abs(e.root - merged[-1].root) < 1e-9:
            # one point reached through several scale products: widest radius
            if e.radius > merged[-1].radius:
                merged[-1] = ZeroEnclosure(merged[-1].root, e.radius)
            continue
        merged.append(e)
    return ZeroSetReport(
        entries=tuple(merged),
        interval=(-float(h), float(h)),
        source="scale-product translates of family mask zeros",
    )


@dataclass(frozen=True)
class ZeroProbeVerdict:
    """Numeric verdict on whether xi can belong to the integral periodic zero set."""

    xi: float
    witness_k: int | None
    witness_value: float
    max_value: float
    max_k: int
    tol: float
    K: int
    depth: int
    evidence: str = "numeric"

    @property
    def is_witness(self) -> bool:
        return self.witness_k is not None

    def to_json(self) -> dict:
        return {
            "xi": self.xi,
            "verdict": "witness" if self.is_witness else "candidate-zero",
            "witness_k": self.witness_k,
            "witness_value": self.witness_value,
            "max_value": self.max_value,
            "max_k": self.max_k,
            "tol": self.tol,
            "K": self.K,
            "depth": self.depth,
            "evidence": self.evidence,
        }


def integral_periodic_zero_probe(
    spec: ConvolutionSpec,
    xi: float,
    K: int = DEFAULT_SHIFT_WINDOW,
    depth: int = DEFAULT_TAIL_DEPTH,
    tol: float = DEFAULT_PROBE_TOL,
) -> ZeroProbeVerdict:
    """Search k in [-K, K] for |mu^(xi+k)| > tol.

    The first witness (in the order 0, 1, -1, ...) proves xi is not in the
    integral periodic zero set; otherwise xi stays a candidate member up to
    truncation, reported with the best value seen.  The window's chunks
    are searched in order, the moduli of each taken against tol, and the
    search stops at the chunk holding the first witness; without one, the
    chunks seen give the window's first maximum, as in choose_k.
    """
    if not math.isfinite(xi):
        raise ValueError(f"xi must be finite, got {xi}")
    _tolerance(tol)
    window = _Window.of(spec, K, depth)  # depth >= 1: the empty product witnesses every xi
    seen = []
    for start, sq in window.power(np.array([float(xi)])):
        above = np.flatnonzero(np.sqrt(sq[0]) > tol)
        if above.size:
            k, v = int(window.ks[start + above[0]]), math.sqrt(sq[0, above[0]])
            return ZeroProbeVerdict(
                xi=float(xi), witness_k=k, witness_value=v,
                max_value=v, max_k=k, tol=tol, K=K, depth=depth,
            )
        seen.append((start, sq))
    (j,), (peak,) = _first_max(seen)
    return ZeroProbeVerdict(
        xi=float(xi), witness_k=None, witness_value=0.0,
        max_value=math.sqrt(peak), max_k=int(window.ks[j]), tol=tol, K=K, depth=depth,
    )


@dataclass(frozen=True)
class PropagationTrace:
    """Forward orbit of a putative periodic zero under the inverse branches."""

    xi0: float
    sets: tuple[tuple[float, ...], ...]
    counts: tuple[int, ...]
    integer_flags: tuple[bool, ...]
    envelope: float


def _merge_close(xs: np.ndarray) -> np.ndarray:
    """Sorted xs without each element within 1e-12 of the last one kept.

    The merge is greedy along a chain of close values, so only the indices
    where np.diff falls below 1e-12 are visited, in order.
    """
    keep = np.ones(xs.size, dtype=bool)
    last = 0
    for i in (np.flatnonzero(np.diff(xs) < 1e-12) + 1).tolist():
        if keep[i - 1]:
            last = i - 1
        if xs[i] - xs[last] < 1e-12:
            keep[i] = False
    return xs[keep]


def zero_propagation(spec: ConvolutionSpec, xi0: float, steps: int) -> PropagationTrace:
    """Iterate Y_n = {(xi + l)/N : xi in Y_{n-1}, surviving mask values}.

    Each factor position uses its effective scale N^e and frequencies
    N^(e-1) * (L reduced mod |N|); survivors keep |M_B| > DEFAULT_PROBE_TOL.
    With frequencies reduced, every element stays within |xi0| + 2.  An
    element within DEFAULT_INTEGER_TOL of an integer raises the step's
    integer flag (a nonempty periodic zero set cannot contain integers).
    """
    if not math.isfinite(xi0):
        raise ValueError(f"xi0 must be finite, got {xi0}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    y = np.array([float(xi0)])
    ys = [(float(xi0),)]
    flags = [abs(xi0 - round(xi0)) <= DEFAULT_INTEGER_TOL]
    for t, scale, _ in spec.factors(steps):
        l_eff = [float(scale // t.N * (l % abs(t.N))) for l in t.L]
        tau = np.add.outer(y, l_eff).ravel() / float(scale)
        y = _merge_close(np.sort(tau[np.abs(mask(t.B, tau)) > DEFAULT_PROBE_TOL], kind="stable"))
        ys.append(tuple(y.tolist()))
        flags.append(bool(np.any(np.abs(y - np.round(y)) <= DEFAULT_INTEGER_TOL)))
    return PropagationTrace(
        xi0=float(xi0),
        sets=tuple(ys),
        counts=tuple(len(s) for s in ys),
        integer_flags=tuple(flags),
        envelope=abs(xi0) + 2.0,
    )
