"""Zero sets of mask polynomials and integral periodic zero probing.

A mask M_B extends to an entire function, so its real zeros are isolated
and there are at most diam(B) of them per unit period.  Zeros are located
by sampling |M_B|^2 on a grid tied to the largest digit, bracketing sign
changes of its derivative, bisecting, and Newton-polishing.  The finite
enumeration of scaled zero products and the numeric probes for integral
periodic zeros build on this; probe verdicts are numerical evidence, not
proofs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .convolution import ConvolutionSpec, fourier_tail, mask

__all__ = [
    "ZeroEnclosure",
    "ZeroSetReport",
    "ZeroProbeVerdict",
    "PropagationTrace",
    "mask_zeros",
    "zero_free_radius",
    "enumerate_zero_products",
    "integral_periodic_zero_probe",
    "zero_propagation",
    "search_order",
]

DEFAULT_RESIDUAL_TOL = 1e-10
DEFAULT_PROBE_TOL = 1e-6
DEFAULT_INTEGER_TOL = 1e-8


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
    """Integer shifts 0, 1, -1, 2, -2, ..., K, -K (smaller |k| first, + before -)."""
    if K < 0:
        raise ValueError("K must be >= 0")
    out = [0]
    for j in range(1, K + 1):
        out.extend((j, -j))
    return tuple(out)


def _mask_derivs(B, x: float) -> tuple[complex, complex, complex]:
    s0 = s1 = s2 = 0j
    for b in B:
        w = -2j * math.pi * b
        e = cmath.exp(w * x)
        s0 += e
        s1 += w * e
        s2 += w * w * e
    n = len(B)
    return s0 / n, s1 / n, s2 / n


def _g(B, x: float) -> float:
    m = mask(B, x)
    return m.real * m.real + m.imag * m.imag


def _gp(B, x: float) -> float:
    m, m1, _ = _mask_derivs(B, x)
    return 2.0 * (m.conjugate() * m1).real


def _zeros_in_unit_period(B, residual_tol: float) -> list[ZeroEnclosure]:
    """Zeros of M_B in [0, 1) with enclosure radii."""
    n = 8 * max(abs(b) for b in B) + 8
    xs = [j / n for j in range(n + 1)]
    gs = [_g(B, x) for x in xs]
    gps = [_gp(B, x) for x in xs]

    candidates: list[tuple[float, float]] = []  # (x, radius seed)
    for j in range(n + 1):
        if gs[j] <= residual_tol * residual_tol:
            candidates.append((xs[j], 1e-12))
    for j in range(n):
        if gps[j] < 0.0 <= gps[j + 1]:
            a, b = xs[j], xs[j + 1]
            while b - a > 1e-15:
                mid = 0.5 * (a + b)
                if _gp(B, mid) < 0.0:
                    a = mid
                else:
                    b = mid
            candidates.append((0.5 * (a + b), 0.5 * (b - a)))

    found: list[ZeroEnclosure] = []
    for x0, rad in candidates:
        x = x0
        for _ in range(6):  # Newton on d|M|^2/dxi
            m, m1, m2 = _mask_derivs(B, x)
            gp = 2.0 * (m.conjugate() * m1).real
            gpp = 2.0 * (abs(m1) ** 2 + (m.conjugate() * m2).real)
            if gpp <= 0.0:
                break
            step = gp / gpp
            if abs(step) > 1.0 / n:
                break
            x -= step
        m, m1, _ = _mask_derivs(B, x)
        if abs(m) <= residual_tol:
            r = max(rad, 2.0 * abs(m) / max(abs(m1), 1e-3), 1e-15)
            found.append(ZeroEnclosure(x % 1.0, min(r, 1e-10)))

    found.sort(key=lambda e: (e.root, e.radius))
    merged: list[ZeroEnclosure] = []
    for e in found:
        if merged and min(
            abs(e.root - merged[-1].root), 1.0 - abs(e.root - merged[-1].root)
        ) < 1e-9:
            if e.radius < merged[-1].radius:
                merged[-1] = ZeroEnclosure(merged[-1].root, e.radius)
            continue
        merged.append(e)
    # circular duplicate: a root at ~1.0 folded to ~0.0
    if len(merged) > 1 and 1.0 - (merged[-1].root - merged[0].root) < 1e-9:
        merged.pop()
    return merged


def mask_zeros(
    B,
    lo: float,
    hi: float,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> ZeroSetReport:
    """All zeros of M_B in [lo, hi], located per unit period and translated."""
    B = tuple(int(b) for b in B)
    if not B:
        raise ValueError("digit set must be nonempty")
    if len(set(B)) == 1:
        raise ValueError("no zeros by definition: mask of a singleton never vanishes")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    base = _zeros_in_unit_period(B, residual_tol)
    out = []
    for e in base:
        k = math.floor(lo - e.root) - 1
        while e.root + k <= hi + 1e-12:
            x = e.root + k
            if x >= lo - 1e-12:
                out.append(ZeroEnclosure(x, e.radius))
            k += 1
    out.sort(key=lambda z: z.root)
    return ZeroSetReport(
        entries=tuple(out),
        interval=(float(lo), float(hi)),
        source=f"mask B={list(B)}",
    )


def zero_free_radius(B) -> float:
    """Radius delta with [-delta, delta] free of mask zeros.

    Returned as half the smallest positive zero; inf when the mask has no
    real zeros at all (then every radius qualifies).
    """
    B = tuple(int(b) for b in B)
    if not B:
        raise ValueError("digit set must be nonempty")
    if len(set(B)) == 1:
        return math.inf
    base = _zeros_in_unit_period(B, DEFAULT_RESIDUAL_TOL)
    positive = [e.root for e in base if e.root > 1e-12]
    if not positive:
        return math.inf
    return min(positive) / 2.0


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
    if h <= 0:
        raise ValueError("h must be positive")
    m = len(family)
    scales = [t.N for t in family]
    pts: list[ZeroEnclosure] = []
    for t in family:
        delta = zero_free_radius(t.B)
        if not h > delta:
            continue  # no scaled zero reaches [-h, h]
        base = _zeros_in_unit_period(t.B, DEFAULT_RESIDUAL_TOL)
        kmax = math.floor(math.log2(h / delta))
        for tup in _sum_bounded_tuples(m, kmax):
            s = 1
            for nj, kj in zip(scales, tup):
                s *= nj**kj
            half = h / abs(s)
            for e in base:
                k = math.floor(-half - e.root) - 1
                while e.root + k <= half + 1e-12:
                    z = e.root + k
                    if z >= -half - 1e-12:
                        pts.append(ZeroEnclosure(s * z, abs(s) * e.radius))
                    k += 1
    pts.sort(key=lambda z: z.root)
    merged: list[ZeroEnclosure] = []
    for e in pts:
        if merged and abs(e.root - merged[-1].root) < 1e-9:
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
    K: int = 8,
    depth: int = 40,
    tol: float = DEFAULT_PROBE_TOL,
) -> ZeroProbeVerdict:
    """Search k in [-K, K] for |mu^(xi+k)| > tol.

    The first witness (in the order 0, 1, -1, ...) proves xi is not in the
    integral periodic zero set; otherwise xi stays a candidate member up to
    truncation, reported with the best value seen.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    best_v = -1.0
    best_k = 0
    for k in search_order(K):
        v = abs(fourier_tail(spec, xi + k, depth).value)
        if v > best_v:
            best_v, best_k = v, k
        if v > tol:
            return ZeroProbeVerdict(
                xi=float(xi), witness_k=k, witness_value=v,
                max_value=v, max_k=k, tol=tol, K=K, depth=depth,
            )
    return ZeroProbeVerdict(
        xi=float(xi), witness_k=None, witness_value=0.0,
        max_value=best_v, max_k=best_k, tol=tol, K=K, depth=depth,
    )


@dataclass(frozen=True)
class PropagationTrace:
    """Forward orbit of a putative periodic zero under the inverse branches."""

    xi0: float
    tol: float
    integer_tol: float
    sets: tuple[tuple[float, ...], ...]
    counts: tuple[int, ...]
    integer_flags: tuple[bool, ...]
    stabilized: bool
    envelope: float

    def to_json(self) -> dict:
        return {
            "xi0": self.xi0,
            "tol": self.tol,
            "integer_tol": self.integer_tol,
            "counts": list(self.counts),
            "integer_flags": list(self.integer_flags),
            "stabilized": self.stabilized,
            "envelope": self.envelope,
            "sets": [[f"{x:.15g}" for x in s] for s in self.sets],
        }


def zero_propagation(
    spec: ConvolutionSpec,
    xi0: float,
    steps: int,
    tol: float = DEFAULT_PROBE_TOL,
    integer_tol: float = DEFAULT_INTEGER_TOL,
) -> PropagationTrace:
    """Iterate Y_n = {(xi + l)/N : xi in Y_{n-1}, surviving mask values}.

    Each factor position uses its effective scale N^e and frequencies
    N^(e-1) * (L reduced mod |N|); survivors keep |M_B| > tol.  With
    frequencies reduced, every element stays within |xi0| + 2.  An element
    within integer_tol of an integer raises the step's integer flag (a
    nonempty periodic zero set cannot contain integers).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    ys = [(float(xi0),)]
    flags = [abs(xi0 - round(xi0)) <= integer_tol]
    for t, scale, _ in spec.factors(steps):
        l_eff = [scale // t.N * (l % abs(t.N)) for l in t.L]
        nxt: list[float] = []
        for x in ys[-1]:
            for l in l_eff:
                tau = (x + l) / scale
                if abs(mask(t.B, tau)) > tol:
                    nxt.append(tau)
        nxt.sort()
        dedup: list[float] = []
        for v in nxt:
            if dedup and abs(v - dedup[-1]) < 1e-12:
                continue
            dedup.append(v)
        ys.append(tuple(dedup))
        flags.append(any(abs(v - round(v)) <= integer_tol for v in dedup))
    counts = tuple(len(s) for s in ys)
    return PropagationTrace(
        xi0=float(xi0),
        tol=tol,
        integer_tol=integer_tol,
        sets=tuple(ys),
        counts=counts,
        integer_flags=tuple(flags),
        stabilized=len(counts) >= 2 and counts[-1] == counts[-2],
        envelope=abs(xi0) + 2.0,
    )
