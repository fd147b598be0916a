"""Finite-level convolution measures, mask transforms, and rescaled tails.

An infinite convolution is driven by a finite family of Hadamard triples
together with an eventually periodic selection word w and matching factor
exponents e: the k-th factor is the uniform atomic measure on

    B_{w_k} / (N_{w_1}^{e_1} * ... * N_{w_k}^{e_k}).

Finite truncations are kept in exact rational arithmetic; Fourier-side
evaluation multiplies mask polynomials M_B(xi) = mean_b exp(-2*pi*i*b*xi)
and converts to floating point only at the last step.  Dropping the first
n factors and rescaling by the accumulated contraction gives the tail
measure of index n, whose transform is again a mask product.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

import numpy as np

from .triples import HadamardTriple, _integers

__all__ = [
    "DEFAULT_TAIL_DEPTH",
    "SelectionWord",
    "ConvolutionSpec",
    "DiscreteMeasure",
    "TailSpec",
    "TailValue",
    "DepthTooLargeError",
    "finite_level",
    "convolve",
    "mask",
    "fourier_finite",
    "fourier_tail",
    "tail_truncation_bound",
    "cdf",
]

ArrayLike = Union[float, Sequence[float], np.ndarray]

MAX_DENOMINATOR_BITS = 1 << 16  # bits of |P_k| a finite level may reach
MAX_LEVEL_ATOMS = 1 << 22  # atoms a finite level may form before merging
_INT64_LIMIT = 1 << 63
_BUDGET_BYTES = 1 << 30  # bytes a factor table, a Gram check, a Q grid pass or a shift window may take


class DepthTooLargeError(ValueError):
    """Raised when a finite level is past MAX_DENOMINATOR_BITS or MAX_LEVEL_ATOMS."""


def _eventually_periodic(pre: tuple[int, ...], per: tuple[int, ...], k: int) -> int:
    """Entry k >= 1 of the sequence pre + per + per + ..."""
    if k < 1:
        raise ValueError(f"position must be >= 1, got {k}")
    if k <= len(pre):
        return pre[k - 1]
    return per[(k - len(pre) - 1) % len(per)]


@dataclass(frozen=True)
class SelectionWord:
    """Eventually periodic word over {1..m} with per-factor exponents.

    ``prefix + period^inf`` encodes the symbol sequence, and the exponent
    sequence uses the same encoding independently.  Indexing is 1-based to
    match the factor count of the convolution.
    """

    prefix: tuple[int, ...] = ()
    period: tuple[int, ...] = (1,)
    exp_prefix: tuple[int, ...] = ()
    exp_period: tuple[int, ...] = (1,)

    def __post_init__(self):
        for name in ("prefix", "period"):
            object.__setattr__(self, name, _integers(getattr(self, name), "word symbols"))
        for name in ("exp_prefix", "exp_period"):
            object.__setattr__(self, name, _integers(getattr(self, name), "exponents"))
        if not self.period:
            raise ValueError("word period must be nonempty")
        if not self.exp_period:
            raise ValueError("exponent period must be nonempty")
        if any(s < 1 for s in self.prefix + self.period):
            raise ValueError("word symbols must be >= 1")
        if any(e < 1 for e in self.exp_prefix + self.exp_period):
            raise ValueError("exponents must be >= 1")

    def symbol(self, k: int) -> int:
        """Symbol at position k >= 1."""
        return _eventually_periodic(self.prefix, self.period, k)

    def exponent(self, k: int) -> int:
        """Exponent at position k >= 1."""
        return _eventually_periodic(self.exp_prefix, self.exp_period, k)

    @property
    def max_symbol(self) -> int:
        return max(self.prefix + self.period)

    def shifted(self, n: int) -> "SelectionWord":
        """The word with its first n positions dropped."""
        if n < 0:
            raise ValueError("shift must be >= 0")

        def shift(pre: tuple[int, ...], per: tuple[int, ...]):
            if n <= len(pre):
                return pre[n:], per
            d = (n - len(pre)) % len(per)
            return (), per[d:] + per[:d]

        p, q = shift(self.prefix, self.period)
        ep, eq = shift(self.exp_prefix, self.exp_period)
        return SelectionWord(p, q, ep, eq)

    def describe(self) -> str:
        sym = "".join(map(str, self.prefix)) + ":" + "".join(map(str, self.period))
        exp = "".join(map(str, self.exp_prefix)) + ":" + "".join(map(str, self.exp_period))
        return f"word={sym} exp={exp}"

    def to_json(self) -> dict:
        return {
            "prefix": list(self.prefix),
            "period": list(self.period),
            "exp_prefix": list(self.exp_prefix),
            "exp_period": list(self.exp_period),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SelectionWord":
        return cls(
            tuple(obj.get("prefix", ())),
            tuple(obj.get("period", (1,))),
            tuple(obj.get("exp_prefix", ())),
            tuple(obj.get("exp_period", (1,))),
        )


class Factor(NamedTuple):
    """One factor position k: its triple, scale N^e and running product P_k."""

    triple: HadamardTriple
    scale: int
    product: int


@dataclass(frozen=True)
class ConvolutionSpec:
    """A triple family (1-indexed) and the word selecting factors from it."""

    family: tuple[HadamardTriple, ...]
    word: SelectionWord

    def __post_init__(self):
        object.__setattr__(self, "family", tuple(self.family))
        if not self.family:
            raise ValueError("family must contain at least one triple")
        if self.word.max_symbol > len(self.family):
            raise ValueError(
                f"word symbol {self.word.max_symbol} exceeds family size {len(self.family)}"
            )

    def triple_at(self, k: int) -> HadamardTriple:
        """Triple acting at factor position k >= 1."""
        return self.family[self.word.symbol(k) - 1]

    def exponent_at(self, k: int) -> int:
        return self.word.exponent(k)

    def _walk(self) -> Iterator[Factor]:
        """Positions 1, 2, ... as (triple, scale N^e, signed running product P_k).

        Each position is formed once per spec: the walk reads and extends a
        table kept in the instance __dict__, outside the dataclass fields,
        so == and hash do not see it.
        """
        table = self.__dict__.setdefault("_factor_table", [])
        for k in itertools.count(1):
            if k > len(table):
                t = self.triple_at(k)
                scale = t.N ** self.exponent_at(k)
                table.append(Factor(t, scale, scale * (table[-1].product if table else 1)))
            yield table[k - 1]

    def factors(self, n: int) -> list[Factor]:
        """Positions 1..n as (triple, scale N^e, signed running product P_k), a new list.

        A table whose _table_walk estimate passes _BUDGET_BYTES raises
        ValueError before its first new factor is formed.  The walk runs
        only when the estimate's ceiling, every P_k at k times the largest
        bits of a scale, passes the budget: next_level's 512 factors never do.
        """
        table = self.__dict__.get("_factor_table", [])
        if not 0 <= n <= len(table):
            most = max(self.word.exp_prefix + self.word.exp_period) * max(
                abs(t.N).bit_length() for t in self.family
            )
            if 512 * n + most * n * (n + 1) // 16 > _BUDGET_BYTES and any(
                need > _BUDGET_BYTES for _, need in _table_walk(self, n)
            ):
                raise ValueError(
                    f"a table of {n} factors needs more than its budget of {_BUDGET_BYTES} bytes"
                )
            table = list(itertools.islice(self._walk(), n))
        return table[:n]

    def scale_product(self, n: int) -> int:
        """Signed exact product P_n of the first n factor scales N^e (1 for n = 0)."""
        return self.factors(n)[-1].product if n > 0 else 1

    def describe(self) -> str:
        fam = ",".join(
            f"({t.N},B={list(t.B)},L={list(t.L)})" for t in self.family
        )
        return f"family=[{fam}] {self.word.describe()}"

    def to_json(self) -> dict:
        return {
            "triples": [t.to_json() for t in self.family],
            "word": self.word.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ConvolutionSpec":
        """Inverse of to_json; the word is optional and must be a JSON object."""
        family = tuple(HadamardTriple.from_json(t) for t in obj["triples"])
        word = obj.get("word", {})
        if not isinstance(word, dict):
            raise ValueError(f"word must be a JSON object, got {word!r}")
        return cls(family, SelectionWord.from_json(word))


def _table_walk(spec: ConvolutionSpec, n: int) -> Iterator[tuple[HadamardTriple, int]]:
    """Positions 1..n as (triple, estimated bytes of the factor table up to it).

    A Factor with its list slot takes ~512 bytes, plus the bits of P_k, so
    the table grows with n^2.  The walk forms no P_k.
    """
    bits = need = 0
    for k in range(1, n + 1):
        t = spec.triple_at(k)
        bits += spec.exponent_at(k) * abs(t.N).bit_length()
        need += 512 + bits // 8
        yield t, need


def TailSpec(spec: ConvolutionSpec, skip: int = 0) -> ConvolutionSpec:
    """The convolution with its first ``skip`` factors dropped and rescaled."""
    return ConvolutionSpec(spec.family, spec.word.shifted(skip))


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite atomic probability measure on the lattice Z / denominator.

    Atom j sits at numerators[j] / denominator with weight
    counts[j] / sum(counts); numerators strictly increase and counts are
    positive.  The form is kept reduced, gcd(denominator, numerators) = 1
    and gcd(counts) = 1, so two measures are equal exactly when their
    fields are.  Every construction checks and reduces the fields, which
    may come as integer arrays (:func:`finite_level` passes them).
    """

    numerators: tuple[int, ...]
    denominator: int
    counts: tuple[int, ...]

    def __post_init__(self):
        u, c = (v if isinstance(v, np.ndarray) else np.array(v, dtype=object)
                for v in (self.numerators, self.counts))
        if u.ndim != 1 or not u.size or u.shape != c.shape:
            raise ValueError(f"need equal nonzero lengths, got {u.shape} and {c.shape}")
        if self.denominator < 1:
            raise ValueError(f"denominator must be >= 1, got {self.denominator}")
        if np.any(u[1:] <= u[:-1]):
            raise ValueError("numerators must strictly increase")
        if np.any(c < 1):
            raise ValueError("counts must be positive")
        g = math.gcd(self.denominator, int(np.gcd.reduce(u)))
        h = int(np.gcd.reduce(c))
        object.__setattr__(self, "numerators", tuple((u // g if g > 1 else u).tolist()))
        object.__setattr__(self, "denominator", self.denominator // g)
        object.__setattr__(self, "counts", tuple((c // h if h > 1 else c).tolist()))

    @property
    def atoms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The (position, weight) pairs as Fractions, sorted by position."""
        den, total = self.denominator, sum(self.counts)
        return tuple(
            (Fraction(u, den), Fraction(c, total))
            for u, c in zip(self.numerators, self.counts)
        )

    def __len__(self) -> int:
        return len(self.numerators)

    def weights(self) -> np.ndarray:
        """counts / sum(counts), each quotient correctly rounded.

        Below 2^53 the counts and their total are exact doubles, so one
        numpy division rounds each quotient as Python's int division does.
        """
        total = sum(self.counts)
        if total < 1 << 53:
            return np.asarray(self.counts, dtype=float) / total
        return np.array([c / total for c in self.counts])


class TailValue(NamedTuple):
    """Truncated tail transform together with a rigorous truncation bound."""

    value: complex | np.ndarray
    bound: float | np.ndarray


def _inv_float(p: int) -> float:
    """1/p in double precision; 0.0 when p is beyond the double range."""
    try:
        return 1.0 / float(p)
    except OverflowError:
        return 0.0 if p > 0 else -0.0


def convolve(a: DiscreteMeasure, b: DiscreteMeasure) -> DiscreteMeasure:
    """Convolution: atoms at all pairwise sums, colliding atoms merged.

    Both lattices embed in Z / lcm of the denominators, where every pair
    sum is an integer numerator and its count is the product of the two
    counts, all exact Python ints.
    """
    den = math.lcm(a.denominator, b.denominator)
    sa, sb = den // a.denominator, den // b.denominator
    acc: dict[int, int] = {}
    for ua, ca in zip(a.numerators, a.counts):
        for ub, cb in zip(b.numerators, b.counts):
            u = ua * sa + ub * sb
            acc[u] = acc.get(u, 0) + ca * cb
    nums = sorted(acc)
    return DiscreteMeasure(tuple(nums), den, tuple(acc[u] for u in nums))


def finite_level(spec: ConvolutionSpec, n: int) -> DiscreteMeasure:
    """Exact n-factor truncation of the infinite convolution.

    The atoms live on the lattice Z / |P_k|: after factor k an atom is
    num / |P_k| with weight count / prod_{j<=k} #B_j, and factor k + 1 sends
    num to num * |N^e| + sign(P_{k+1}) * b for each digit b.  Numerators are
    int64 while their bound fits and Python ints past it; equal numerators
    merge with their counts added, and the lattice measure is built once at
    the end, with no Fraction formed.  The budgets MAX_DENOMINATOR_BITS on
    the bits of P_k and MAX_LEVEL_ATOMS on the prod_{j<=k} #B_j atoms formed
    before merging are checked level by level as the factors are walked, so
    a level past either budget raises before any level is built and before
    any later factor is formed.
    """
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    table = []
    total = 1
    for k, f in enumerate(itertools.islice(spec._walk(), n), start=1):
        if f.product.bit_length() > MAX_DENOMINATOR_BITS:
            raise DepthTooLargeError(
                f"denominator exceeds {MAX_DENOMINATOR_BITS} bits at level {k}"
            )
        total *= len(f.triple.B)
        if total > MAX_LEVEL_ATOMS:
            raise DepthTooLargeError(f"atoms exceed {MAX_LEVEL_ATOMS} at level {k}")
        table.append(f)
    num = np.zeros(1, dtype=np.int64)
    count = np.ones(1)  # integers up to MAX_LEVEL_ATOMS, exact in doubles
    reach = 1  # bound on max|num|, which also bounds each |N^e|
    for t, scale, p in table:
        reach = reach * abs(scale) + max(abs(b) for b in t.B)
        if reach >= _INT64_LIMIT and num.dtype != object:
            num = num.astype(object)
        digits = np.array([b if p > 0 else -b for b in t.B], dtype=num.dtype)
        num, inverse = np.unique(
            (num[:, None] * abs(scale) + digits).ravel(), return_inverse=True
        )
        count = np.bincount(inverse, weights=np.repeat(count, len(t.B)))
    return DiscreteMeasure(num, abs(table[-1].product), count.astype(np.int64))


def mask(B: Sequence[int], xi: ArrayLike) -> complex | np.ndarray:
    """Mask polynomial M_B(xi) = mean_b exp(-2*pi*i*b*xi); period 1, |M| <= 1.

    The one-factor mask product: #B exponentials per point at any digit
    span, and M_B(-xi) == conj(M_B(xi)) holds exactly.
    """
    B = _integers(B)
    if not B:
        raise ValueError("digit set must be nonempty")
    return _mask_product([(B, 1)], np.asarray(xi, dtype=float), np.zeros(()))


def _mask_product(
    factors: Iterable[tuple[Sequence[int], int]], x: np.ndarray, offsets: np.ndarray
) -> complex | np.ndarray:
    """prod_k M_{B_k}((x + o) / P_k) over the factors (B_k, P_k), for every x and o.

    The result has shape x.shape + offsets.shape, and is a complex for
    shape ().  With d = B_k - min B_k, factor k is
    exp(-2*pi*i*min B_k*(x + o)/P_k) times the rank-#B matrix product
    sum_d exp(-2*pi*i*d*x/P_k) * exp(-2*pi*i*d*o/P_k) / #B.  The min B_k
    phases add up to exp(-2*pi*i*(x + o)*s), s = sum_k min B_k / P_k, and
    are applied once.
    """
    xs = x.reshape(-1)
    o = offsets.reshape(-1)
    out = np.ones((xs.size, o.size), dtype=complex)
    term = np.empty_like(out)
    s = 0.0
    for B, p in factors:
        lo = min(B)
        inv = _inv_float(p)
        s += lo * inv
        d = np.array([b - lo for b in B], dtype=float) * (-2j * np.pi * inv)
        u = np.exp(np.multiply.outer(xs, d))
        u /= len(B)
        np.matmul(u, np.exp(np.multiply.outer(d, o)), out=term)
        out *= term
    if s:
        phase = -2j * np.pi * s
        np.multiply.outer(np.exp(xs * phase), np.exp(o * phase), out=term)
        out *= term
    out = out.reshape(x.shape + offsets.shape)
    return complex(out) if out.ndim == 0 else out


def _delta_count(B: Sequence[int]) -> int:
    """#delta, the distinct differences b - b' > 0 of B.

    A factor of _mask_power has rank 1 + 2 #delta.
    """
    return len({b - c for b in B for c in B if b > c})


def _mask_power(
    factors: Iterable[tuple[Sequence[int], int]], x: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """prod_k |M_{B_k}((x + o) / P_k)|^2 over the factors (B_k, P_k), for every x and o.

    The real counterpart of :func:`_mask_product`, of shape
    x.shape + offsets.shape.  With c_delta the number of digit pairs
    b - b' = delta > 0, a factor is
    |M_B(y)|^2 = 1/#B + (2/#B^2) sum_delta c_delta cos(2*pi*delta*y), and
    cos(a + b) = cos a cos b - sin a sin b makes it one real matrix product
    over (x, o) of rank 1 + 2 * #delta: columns cos a, sin a and 1 of x
    against rows w cos b, -w sin b and the constant of o.  The weights are
    rounded to multiples of 2^-52 (by at most 2^-53 each) and the constant
    is 1 minus their sum, so at y = 0 the terms add up to exactly 1 in any
    order the matrix product takes.  The cosines and sines of every factor
    are taken in one call per side.  The product is clipped to [0, 1] once,
    at the end, as rounding may leave it.
    """
    xs = x.reshape(-1)
    o = offsets.reshape(-1)
    digit_pairs: dict[Sequence[int], tuple[list[int], list[float], float]] = {}
    freq, weight, const = [], [], []
    cos_at, sin_at, one_at = [], [], []  # each factor's columns of u and rows of v
    for B, p in factors:
        if B not in digit_pairs:
            pairs = collections.Counter(b - c for b in B for c in B if b > c)
            k = [round(2 * pairs[d] * 2.0**52 / len(B) ** 2) for d in sorted(pairs)]
            w = [i * 2.0**-52 for i in k]
            digit_pairs[B] = (sorted(pairs), w, ((1 << 52) - sum(k)) * 2.0**-52)
        deltas, w, c = digit_pairs[B]
        start, r = 2 * len(freq) + len(const), len(deltas)
        cos_at += range(start, start + r)
        sin_at += range(start + r, start + 2 * r)
        one_at.append(start + 2 * r)
        scale = 2.0 * np.pi * _inv_float(p)
        freq += [d * scale for d in deltas]
        weight += w
        const.append(c)
    if not const:
        return np.ones(x.shape + offsets.shape)
    f = np.array(freq)
    w = np.array(weight)[:, None]
    u = np.empty((xs.size, 2 * f.size + len(const)))
    a = np.multiply.outer(xs, f)
    u[:, cos_at] = np.cos(a)
    u[:, sin_at] = np.sin(a)
    u[:, one_at] = 1.0
    v = np.empty((u.shape[1], o.size))
    b = np.multiply.outer(f, o)
    v[cos_at] = np.cos(b) * w
    v[sin_at] = np.sin(b) * -w
    v[one_at] = np.array(const)[:, None]
    stops = [i + 1 for i in one_at]
    out = u[:, : stops[0]] @ v[: stops[0]]
    term = np.empty_like(out)
    for start, stop in zip(stops, stops[1:]):
        np.matmul(u[:, start:stop], v[start:stop], out=term)
        out *= term
    np.clip(out, 0.0, 1.0, out=out)
    return out.reshape(x.shape + offsets.shape)


def _offsets(offsets: ArrayLike | None) -> np.ndarray:
    """Offsets as a float array; omitted, the single offset 0 of shape ()."""
    return np.zeros(()) if offsets is None else np.asarray(offsets, dtype=float)


def _first_factors(
    spec: ConvolutionSpec, n: int, x: np.ndarray, o: np.ndarray
) -> complex | np.ndarray:
    """Product of the first n >= 0 masks of spec at x + o."""
    return _mask_product([(f.triple.B, f.product) for f in spec.factors(n)], x, o)


def fourier_finite(
    spec: ConvolutionSpec, n: int, xi: ArrayLike, offsets: ArrayLike | None = None
) -> complex | np.ndarray:
    """Transform of the n-factor truncation as a product of n masks.

    Without offsets the transform is taken at each xi.  With offsets it is
    taken at xi + o for every pair, with shape xi.shape + offsets.shape.
    The sum xi + o is never formed: each mask factor splits into a phase
    of xi and a phase of o for every digit relative to min B, which
    costs (|xi| + |offsets|) * #B exponentials per factor, and the phases
    of the min B digits are applied once, as a unit-modulus product of an
    xi and an o term.  Values agree with the pointwise call on xi + o to
    rounding; moduli do not see a translation of the digits.
    """
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    return _first_factors(spec, n, np.asarray(xi, dtype=float), _offsets(offsets))


def _tail_series_coefficient(tail: ConvolutionSpec, depth: int) -> float:
    """Exact value of sum_{j>depth} 2*pi*max|B_j| / |P_j| for the tail factors.

    P_j is the running product of the tail scales N^e.  The word is
    eventually periodic, so past the preperiodic part the terms form a
    geometric pattern and the series sums in closed form.
    """
    w = tail.word
    pre = max(len(w.prefix), len(w.exp_prefix))
    per = math.lcm(len(w.period), len(w.exp_period))
    # first index > max(depth, pre) aligned with the period start
    t0 = max(0, -(-(depth - pre) // per))  # ceil
    start = pre + 1 + t0 * per
    table = tail.factors(start + per - 1)

    def term(f: Factor) -> float:
        return 2.0 * math.pi * max(abs(b) for b in f.triple.B) * abs(_inv_float(f.product))

    total = 0.0
    for f in table[depth : start - 1]:
        total += term(f)
    s_per = 0.0
    for f in table[start - 1 :]:
        s_per += term(f)
    q = math.prod(abs(f.scale) for f in table[start - 1 :])
    total += s_per / (1.0 - _inv_float(q))
    return total


DEFAULT_TAIL_DEPTH = 40


def tail_truncation_bound(
    tail: ConvolutionSpec, xi: ArrayLike, depth: int = DEFAULT_TAIL_DEPTH
) -> float | np.ndarray:
    """Rigorous bound on |exact tail transform - depth-factor truncation|.

    Each dropped factor z_j satisfies |z_j - 1| <= 2*pi*max|B_j|*|xi|/|P_j|
    and |z_j| <= 1, so the dropped product differs from 1 by at most the
    series sum; the bound is monotone decreasing in depth.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    coef = _tail_series_coefficient(tail, depth)
    x = np.asarray(xi, dtype=float)
    out = coef * np.abs(x)
    return float(out) if x.ndim == 0 else out


def fourier_tail(
    tail: ConvolutionSpec,
    xi: ArrayLike,
    depth: int = DEFAULT_TAIL_DEPTH,
    offsets: ArrayLike | None = None,
) -> TailValue:
    """Truncated tail transform (depth factors) with its truncation bound.

    Offsets work as in :func:`fourier_finite`: with them, value and bound
    are taken at xi + o for every pair and have shape xi.shape + offsets.shape.
    A shift search over x + k passes the centred split (x - 1/2, k + 1/2),
    so at x = 1/2 the shifts k and -1 - k are exact negatives and their
    moduli tie exactly.  Depth 0 is the empty product: value 1, and the
    bound is the whole tail series.
    """
    x = np.asarray(xi, dtype=float)
    o = _offsets(offsets)
    bound = tail_truncation_bound(tail, np.add.outer(x, o), depth)
    return TailValue(_first_factors(tail, depth, x, o), bound)


def cdf(measure: DiscreteMeasure, x: Fraction | int | float) -> Fraction:
    """Exact weight of (-inf, x]: the atoms u / D with u <= floor(x * D).

    x = +inf gives 1 and x = -inf gives 0; NaN raises ValueError.
    """
    if x in (math.inf, -math.inf):
        return Fraction(int(x > 0))
    i = bisect.bisect_right(
        measure.numerators, math.floor(Fraction(x) * measure.denominator)
    )
    return Fraction(sum(measure.counts[:i]), sum(measure.counts))
