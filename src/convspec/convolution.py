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
import operator
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

import numpy as np

from .triples import HadamardTriple, _digit_table, _digits, _fields_json, _integers, _pairs

__all__ = [
    "DEFAULT_TAIL_DEPTH",
    "SelectionWord",
    "ConvolutionSpec",
    "DiscreteMeasure",
    "TailSpec",
    "TailValue",
    "finite_level",
    "convolve",
    "mask",
    "fourier_finite",
    "fourier_tail",
    "tail_truncation_bound",
    "cdf",
]

ArrayLike = Union[float, Sequence[float], np.ndarray]

_INT64_LIMIT = 1 << 63
_BUDGET_BYTES = 1 << 30  # bytes any one estimate may reach: see _check_budget
_ATOM_BYTES = 80  # per atom of a finite level besides its numerators: counts, inverse, indices
_HORIZON = 2.0**-27  # a kernel phase below it leaves its factor exactly 1.0: see _mask_power


def _check_budget(what: str, need: int, walk: Callable[[], Iterable[int]] | None = None) -> int:
    """need, checked against _BUDGET_BYTES before what it estimates is formed:
    past it, ValueError "<what> needs more than its budget of ... bytes" (exit 3).
    A need that is only a ceiling comes with walk, whose tighter nondecreasing
    estimates are read, up to the first past the budget, only once it passes."""
    if need > _BUDGET_BYTES and any(w > _BUDGET_BYTES for w in (walk() if walk else [need])):
        raise ValueError(f"{what} needs more than its budget of {_BUDGET_BYTES} bytes")
    return need


def _part_count(n: int, need: int, limit: int) -> int:
    """Equal parts of n rows needing need bytes, each within limit bytes and of at
    least two rows (a one-row matrix product takes another BLAS path)."""
    return max(1, min(-(-need // limit), n // 2))


def _int_bytes(bits: int) -> int:
    """Bytes of an array entry of up to bits bits: int64, or a pointer to a Python int."""
    return 8 if bits < 64 else 32 + 4 * -(-bits // 30)


def _int_array(values: Sequence[int] | np.ndarray, name: str) -> np.ndarray:
    """values as a read-only int64 array, or an object array of Python ints
    once one passes int64; a read-only int64 array comes back as it is.

    numpy infers int64 only when every value is an integer that fits, so
    that result is kept.  Anything else (floats, ragged lists, narrower
    arrays, ints past int64, which numpy reads as uint64 or float64) is
    checked value by value by _integers, and the bounds choose the dtype.
    """
    read_only = isinstance(values, np.ndarray) and not values.flags.writeable
    try:
        a = values if read_only else np.array(values)
    except ValueError:  # a ragged list
        a = None
    if a is None or a.dtype != np.int64 or a.ndim != 1:
        ints = _integers(values, name)
        fits = -_INT64_LIMIT <= min(ints, default=0) and max(ints, default=0) < _INT64_LIMIT
        a = np.array(ints, dtype=np.int64 if fits else object)
    a.flags.writeable = False
    return a


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
        return _fields_json(self)

    @classmethod
    def from_json(cls, obj: dict) -> "SelectionWord":
        """Inverse of to_json; a missing field takes its default."""
        return cls(**{f.name: tuple(obj[f.name]) for f in fields(cls) if f.name in obj})


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

        A table whose _table_walk estimate passes the budget raises
        ValueError before its first new factor is formed.  The walk runs
        only when the estimate's ceiling, every P_k at k times the largest
        bits of a scale, passes the budget: a table of a few hundred
        factors never does.
        """
        table = self.__dict__.get("_factor_table", [])
        if not 0 <= n <= len(table):
            most = max(self.word.exp_prefix + self.word.exp_period) * max(
                abs(t.N).bit_length() for t in self.family
            )
            _check_budget(f"a table of {n} factors", 512 * n + most * n * (n + 1) // 14,
                          lambda: (need for _, _, need in _table_walk(self, n)))
            table = list(itertools.islice(self._walk(), n))
        return table[:n]

    def scale_product(self, n: int) -> int:
        """Signed exact product P_n of the first n factor scales N^e (1 for n = 0),
        read in place from a table already n long."""
        table = self.__dict__.get("_factor_table", [])
        return 1 if n < 1 else (table if n <= len(table) else self.factors(n))[n - 1].product

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


def _table_walk(spec: ConvolutionSpec, n: int) -> Iterator[tuple[HadamardTriple, int, int]]:
    """Positions 1..n as (triple, a bound on the bits of P_k, estimated bytes
    of the factor table up to it).

    A Factor, its slots in the table and in factors' list and its ints'
    headers take 144 bytes, plus 4 bytes per 30 bits of P_k, so the table
    grows with n^2.  The walk forms no P_k.
    """
    bits = need = 0
    for k in range(1, n + 1):
        t = spec.triple_at(k)
        bits += spec.exponent_at(k) * abs(t.N).bit_length()
        need += 144 + bits // 7
        yield t, bits, need


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
    must be integers: an integer array as it is, an object array value by
    value in place, and any other sequence by _int_array's rule.
    """

    numerators: tuple[int, ...]
    denominator: int
    counts: tuple[int, ...]

    def __post_init__(self):
        u, c = (v if isinstance(v, np.ndarray) and v.dtype.kind in "iO" else _int_array(v, name)
                for v, name in ((self.numerators, "numerators"), (self.counts, "counts")))
        for v, name in ((u, "numerators"), (c, "counts")):
            if v.dtype == object:  # checked in place: finite_level's estimate counts no copy
                try:
                    collections.deque(map(operator.index, v.flat), maxlen=0)
                except TypeError:
                    raise ValueError(f"{name} must be integers, got {v!r}") from None
        if u.ndim != 1 or not u.size or u.shape != c.shape:
            raise ValueError(f"need equal nonzero lengths, got {u.shape} and {c.shape}")
        (den,) = _integers((self.denominator,), "denominator")
        if den < 1:
            raise ValueError(f"denominator must be >= 1, got {den}")
        if np.any(u[1:] <= u[:-1]):
            raise ValueError("numerators must strictly increase")
        if np.any(c < 1):
            raise ValueError("counts must be positive")
        g = math.gcd(den, int(np.gcd.reduce(u)))
        h = int(np.gcd.reduce(c))
        object.__setattr__(self, "numerators", tuple((u // g if g > 1 else u).tolist()))
        object.__setattr__(self, "denominator", den // g)
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
    the end, with no Fraction formed.  Level k is estimated from _table_walk
    before any factor is formed: its factor table and, per atom formed before
    merging, two numerators (as formed, then in the measure's tuple) of the
    bits of P_k and the largest digit, plus _ATOM_BYTES; the first level past
    the budget raises.
    """
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    atoms, top = 1, 0
    for k, (t, bits, table) in enumerate(_table_walk(spec, n), start=1):
        atoms *= len(t.B)
        top = max(top, *map(abs, t.B))
        bits += top.bit_length() + 1
        _check_budget(f"finite level {k} of {atoms} atoms of up to {bits} bits",
                      table + atoms * (2 * _int_bytes(bits) + _ATOM_BYTES))
    num = np.zeros(1, dtype=np.int64)
    count = np.ones(1)  # integers below the 2^24 atoms the budget allows: exact in doubles
    reach = 1  # bound on max|num|, which also bounds each |N^e|
    for t, scale, p in spec.factors(n):
        reach = reach * abs(scale) + max(abs(b) for b in t.B)
        if reach >= _INT64_LIMIT and num.dtype != object:
            num = num.astype(object)
        digits = np.array([b if p > 0 else -b for b in t.B], dtype=num.dtype)
        num, inverse = np.unique(
            (num[:, None] * abs(scale) + digits).ravel(), return_inverse=True
        )
        count = np.bincount(inverse, weights=np.repeat(count, len(t.B)))
    return DiscreteMeasure(num, abs(p), count.astype(np.int64))


def mask(B: Sequence[int], xi: ArrayLike) -> complex | np.ndarray:
    """Mask polynomial M_B(xi) = mean_b exp(-2*pi*i*b*xi); period 1, |M| <= 1.

    #B exponentials per point of B's offsets b - min B (see triples._digits),
    averaged in B's order by one matrix-vector product, times the phase
    exp(-2*pi*i*min B*xi) when min B != 0.  M_B(-xi) == conj(M_B(xi)) holds
    exactly.  mask(offsets, xi) has no phase, so its modulus is the same for
    every translate of B.
    """
    t = _digits(B)
    x = np.asarray(xi, dtype=float)
    xs = x.reshape(-1)
    d = np.array(t.offsets, dtype=float) * (-2j * np.pi)
    out = np.exp(np.multiply.outer(xs, d)) @ np.full(len(d), 1.0 / len(d))
    if t.lo:
        out *= np.exp(xs * (-2j * np.pi * t.lo))
    return complex(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _past_horizon(deltas: tuple[int, ...], scale: float, reach: float) -> bool:
    """Whether _mask_power leaves out a factor (deltas, 2*pi/P_k) within reach."""
    return bool(deltas) and deltas[-1] * abs(scale) * reach < _HORIZON


def _mask_power(
    factors: Iterable[tuple[tuple[int, ...], int]], x: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """prod_k |M_{B_k}((x + o) / P_k)|^2 over the factors (B_k, P_k), for every x and o.

    The result has shape x.shape + offsets.shape.  Each B_k is a checked
    tuple, as a HadamardTriple's, read from the cache.  With c_delta the number
    of digit pairs b - b' = delta > 0 (from triples._pairs), a factor is
    |M_B(y)|^2 = 1/#B + (2/#B^2) sum_delta c_delta cos(2*pi*delta*y), and
    cos(a + b) = cos a cos b - sin a sin b makes it one real matrix product
    over (x, o) of rank 1 + 2 * #delta: columns cos a, sin a and 1 of x
    against rows w cos b, -w sin b and the constant of o.  The weights are
    rounded to multiples of 2^-52 (by at most 2^-53 each) and the constant
    is 1 minus their sum, so at y = 0 the terms add up to exactly 1 in any
    order the matrix product takes.  The cosines and sines of every factor
    are taken in one call per side.  The product is clipped to [0, 1] once,
    at the end, as rounding may leave it.  A factor past the double-precision
    horizon, #delta >= 1 and 2*pi*max(delta)*R/|P| < _HORIZON = 2^-27 with
    R = max(max|x|, max|o|), is left out: as |M_B(y)|^2 = 1 - sum_delta w_delta
    (1 - cos 2*pi*delta*y), sum w_delta < 1, its phases a, b < 2^-27 put cos a,
    cos b within 2^-55 of 1 and the sine term below 2^-54, and the weights and
    constant sum to exactly 1, so its sum rounds to exactly 1.0.  Where a libm
    rounds cos near 0 to 1 - 2^-53, leaving it out gives the correctly rounded product.
    Integer x (int64 or Python ints) is first reduced, for each factor with
    |P_k| <= 2 max|x|, to its centred residue r mod |P_k| in integers: the
    phases are the same mod 1, none grows with |x|, rows past 2^53 stay
    distinct, and |r| <= min(|x|, |P_k|/2) keeps the horizon rule.
    """
    xs = x.reshape(-1)
    o = offsets.reshape(-1)
    xf = xs.astype(float, copy=False)
    reach = max(np.abs(xf).max(initial=0.0), np.abs(o).max(initial=0.0))
    top = max(-int(xs.min()), int(xs.max())) if xs.dtype.kind in "iO" and xs.size else 0
    freq, weight, const = [], [], []
    cos_at, sin_at, one_at = [], [], []  # each factor's columns of u and rows of v
    moduli, owner, at = [], [], []  # the |P_k| that reduce x; their frequencies' modulus and column
    for B, p in factors:
        pw = _pairs(_digit_table(B))
        scale = 2.0 * np.pi * _inv_float(p)
        if _past_horizon(pw.deltas, scale, reach):
            continue
        start, r = 2 * len(freq) + len(const), len(pw.deltas)
        cos_at += range(start, start + r)
        sin_at += range(start + r, start + 2 * r)
        one_at.append(start + 2 * r)
        if abs(p) <= 2 * top:
            owner += [len(moduli)] * r
            at += range(len(freq), len(freq) + r)
            moduli.append(abs(p))
        freq += [d * scale for d in pw.deltas]
        weight += pw.weights
        const.append(pw.const)
    if not const:
        return np.ones(x.shape + offsets.shape)
    f = np.array(freq)
    w = np.array(weight)[:, None]
    u = np.empty((xs.size, 2 * f.size + len(const)))
    a = np.multiply.outer(xf, f)
    if moduli:  # in int64, or in Python ints once a modulus passes it
        xi = xs.astype(object) if xs.dtype != object and max(moduli) >= _INT64_LIMIT else xs
        m = np.array(moduli, dtype=xi.dtype)
        r = np.remainder.outer(xi, m)
        r = np.where(r > m // 2, r - m, r).astype(float)
        a[:, at] = r[:, owner] * f[at]
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


def fourier_finite(spec: ConvolutionSpec, n: int, xi: ArrayLike) -> complex | np.ndarray:
    """Transform of the n-factor truncation: prod_k M_{B_k}(xi / P_k), k = 1..n."""
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    x = np.asarray(xi, dtype=float)
    return math.prod(mask(f.triple.B, x * _inv_float(f.product)) for f in spec.factors(n))


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
    tail: ConvolutionSpec, xi: ArrayLike, depth: int = DEFAULT_TAIL_DEPTH
) -> TailValue:
    """Truncated tail transform (depth factors) with its truncation bound.

    The value is the product of the first depth masks, as in
    :func:`fourier_finite`.  Depth 0 is the empty product: value 1, and the
    bound is the whole tail series.
    """
    x = np.asarray(xi, dtype=float)
    bound = tail_truncation_bound(tail, x, depth)  # checks depth >= 0 first
    value = math.prod(
        (mask(f.triple.B, x * _inv_float(f.product)) for f in tail.factors(depth)),
        start=np.ones(x.shape, dtype=complex),
    )
    return TailValue(complex(value) if x.ndim == 0 else value, bound)


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
