"""Orthonormality and completeness checks for constructed spectra.

For a candidate spectrum Lambda of the measure mu, the diagnostic is

    Q(xi) = sum over lambda in Lambda of |mu^(lambda + xi)|^2:

Q <= 1 everywhere iff the exponentials are orthonormal, Q = 1 everywhere
iff they are a basis.  Desk evaluation truncates twice: mu^ is a finite
mask product (depth factors) and Lambda is a finite level, so every Q value
ships with an explicit bound covering both truncations.  The level bound
comes from the exact level completeness identity: since the level sums
|mu^_m(lambda+xi)|^2 to 1, the Q defect is at most the worst factor
1 - |tail transform((lambda+xi)/scale)|^2 over the level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .convolution import (
    ConvolutionSpec,
    DiscreteMeasure,
    TailSpec,
    _INT64_LIMIT,
    _check_budget,
    _int_array,
    _int_bytes,
    _inv_float,
    _mask_power,
    _part_count,
    _table_walk,
    _tail_series_coefficient,
    # unused here, but bench/tracing.py requires both names bound in this module
    fourier_finite,
    fourier_tail,
)
from .spectrum import SpectrumLevels
from .triples import _digits, _fields_json, _integers, _pairs

__all__ = [
    "QReport",
    "orthonormality_gram",
    "level_completeness",
    "spectral_report",
]

DEFAULT_COMPLETENESS_TOL = 1e-9
DEFAULT_Q_SLACK = 1e-3
_EXTRA_WORST = 10  # worst points of the coarse scan added to the report grid
_RESIDUE_CHUNK_BYTES = 8 << 20  # bytes of a Gram chunk's residues and phases
_EXACT_DOUBLE_LIMIT = 1 << 53  # integers up to here are exact doubles
_GRAM_WORD_BYTES = 64  # per lambda and atom on the Gram check's matrix path: residues, weights
_TILE_BYTES = 1 << 20  # bytes of a Q tile's pairs, 16 each for the mask kernel's result and term
_FFT_BYTES = 64  # peak bytes per residue bin or lambda on the Gram check's FFT path


def _residues(a: np.ndarray, d: int) -> np.ndarray:
    """An _int_array's values mod d, as int64 when d fits in int64 and as
    Python ints past it."""
    if d >= _INT64_LIMIT:
        return a.astype(object) % d
    return (a % d).astype(np.int64, copy=False)


def _products_mod(lam: np.ndarray, u: np.ndarray, d: int) -> np.ndarray:
    """lam[:, None] * u[None, :] mod d, for residues in [0, d): int64 up to
    d = 2^53, Python ints past it.

    Up to 2^53 every residue and d are exact doubles, so q = floor(lam * (u / d))
    is near the true quotient t = lam * u / d: two roundings of relative error
    2^-53 move t < d <= 2^53 by just over 2 at most, so |t - q| < 4 and
    |lam * u - q * d| < 4d <= 2^55 < 2^63.  That difference is formed in
    uint64, whose products wrap modulo 2^64, and read as int64 it is the
    integer itself; one floor mod by d then gives the residue.
    """
    if d > _EXACT_DOUBLE_LIMIT:
        r = np.outer(lam.astype(object), u.astype(object))
        r %= d
        return r
    q = np.multiply.outer(lam.astype(float), u / d).astype(np.uint64)  # floor, as both are >= 0
    q *= np.uint64(d)
    r = np.multiply.outer(lam.view(np.uint64), u.view(np.uint64))
    r -= q
    r = r.view(np.int64)
    r %= d
    return r


def orthonormality_gram(measure: DiscreteMeasure, Lambda: Sequence[int]) -> float:
    """Max entrywise deviation of the exponential Gram matrix from identity.

    Entry (a, b) is the measure transform at lambda_a - lambda_b.  Every atom
    is u / D on the measure's lattice, so the entry is
    c[r] = sum_u w_u exp(-2*pi*i*r*u/D) at r = (lambda_a - lambda_b) mod D,
    and every phase is reduced exactly in integers before it becomes a
    float.  When D <= |Lambda| * #atoms, one FFT of the weights folded into D
    bins gives every c[r]: the diagonal c[0] is the total mass, exactly 1,
    and the deviation is max |c[r]| over the residues of distinct pairs,
    which include r = 0 (deviation 1) only when two lambdas agree mod D.
    Those residues are the support of the pair counts, the autocorrelation
    of the lambdas' histogram mod D, by a second FFT.  Otherwise the
    deviation comes from the matrix product of the exponentials at
    (lambda * u mod D) / D, a chunk of rows at a time (_products_mod): in
    int64 up to D = 2^53, where the residue and D are exact doubles and one
    IEEE division rounds their quotient as Python's int / int does, so the
    floats are those of the Python-int reduction, which runs past 2^53.
    The estimate counts the exponentials e, G and the largest of a chunk,
    e * w and |G| beside them.  A check whose estimate passes the budget
    raises ValueError before it starts.
    """
    d = measure.denominator
    lam = _residues(_int_array(Lambda, "Lambda"), d)
    if not lam.size:
        raise ValueError("Lambda must be nonempty")
    n, k = lam.size, len(measure)
    fft = d <= n * k
    if fft:
        need = _FFT_BYTES * (d + n)
    else:
        # a chunk's bytes per pair: two int64 or float arrays up to 2^53; past
        # it a boxed product of twice the bits of D, then a boxed residue, a
        # Python float with its pointer and the float64 phase
        pair = 16 if d <= _EXACT_DOUBLE_LIMIT else _int_bytes(2 * d.bit_length()) + 40
        parts = _part_count(n, pair * n * k, _RESIDUE_CHUNK_BYTES)
        chunk = pair * -(-n // parts) * k
        need = 16 * n * (k + n) + max(chunk, 16 * n * k, 8 * n * n) + _GRAM_WORD_BYTES * (n + k)
    _check_budget(f"a Gram check of {n} lambdas on {k} atoms over D = {d}", need)
    u = _residues(_int_array(measure.numerators, "numerators"), d)
    w = measure.weights()
    if fft:
        c = np.abs(np.fft.fft(np.bincount(u, weights=w, minlength=d)))
        c[0] = 0.0  # r = 0 is the diagonal unless two lambdas agree mod D
        h = np.bincount(lam, minlength=d)
        pairs = np.abs(np.fft.rfft(h))
        pairs *= pairs
        pairs = np.fft.irfft(pairs, n=d)
        counts = np.rint(pairs)
        pairs -= counts
        if np.abs(pairs, out=pairs).max() >= 0.25:
            raise RuntimeError(f"pair counts of {n} lambdas mod {d} are not integers")
        off = 1.0 if h.max() > 1 else 0.0
        return max(off, float(c[counts > 0].max(initial=0.0)))
    e = np.empty((n, k), dtype=complex)
    start = 0
    for rows in np.array_split(lam, parts):
        part = e[start : start + rows.size]
        np.multiply(np.asarray(_products_mod(rows, u, d) / d, dtype=float), -2j * np.pi, out=part)
        np.exp(part, out=part)
        start += rows.size
    g = (e * w) @ np.conj(e, out=e).T  # e * w is formed before e is conjugated
    g.flat[:: n + 1] -= 1.0  # minus the identity
    return float(np.max(np.abs(g)))


def _check_level(levels: SpectrumLevels, i: int) -> None:
    if not 1 <= i <= levels.level_count:
        raise ValueError(f"level index {i} out of range 1..{levels.level_count}")


def _lattice_rows(level: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted level (Python ints near int64's ends, so lambda + n cannot
    wrap) and the rows each lambda adds to U: its last min(4, gap) values."""
    lam = np.sort(level)
    if lam.dtype != object and max(-int(lam[0]), int(lam[-1])) >= _INT64_LIMIT - 2:
        lam = lam.astype(object)
    return lam, np.minimum(np.diff(lam, prepend=lam[0] - 4), 4).astype(np.int8)


def _pass_bytes(
    spec: ConvolutionSpec, levels: SpectrumLevels, i: int, depth: int, n_xi: int,
    lattice: bool = False,
) -> int:
    """Estimated peak bytes of a grid pass over level i and n_xi points.

    Per factor, the kernel's cosine and sine sides hold 5 * #delta + 1
    floats per xi and per tile row (the larger of its two factor lists),
    and the factor table takes what _table_walk estimates; a tile takes ~8
    floats per pair, and the level a word per lambda.  A lattice scan
    (_lattice_q) has the |U| rows of _lattice_rows, one list of all depth
    factors, 2 floats per pair, 3 words per lambda and 2 per row of U.
    Tiles keep two rows, so a large grid or depth cannot fit: past the
    budget, or at a depth below m_i, ValueError (the walk forms no P_k).
    """
    n, m_i = len(levels.level(i)), levels.m(i)
    if depth < m_i:
        raise ValueError(f"depth {depth} must be >= m_i = {m_i}")
    rows, pair, words = n, 8, n
    if lattice:
        rows = int(_lattice_rows(levels.level(i))[1].sum())
        m_i, pair, words = depth, 2, 3 * n + 2 * rows
    tile = -(-rows // _part_count(rows, 16 * rows * n_xi, _TILE_BYTES))
    kind = "lattice scan" if lattice else "grid pass"
    what = f"a Q {kind} of {n} frequencies over {n_xi} points at depth {depth}"
    base = 8 * (8 * (n_xi + tile) + pair * tile * n_xi + words)
    width = [0, 0]  # the first m_i factors, the rest
    for k, (t, _, table) in enumerate(_table_walk(spec, depth), start=1):
        width[k > m_i] += 5 * len(_pairs(_digits(t.B)).deltas) + 1
        need = _check_budget(what, base + 8 * (n_xi + tile) * max(width) + table)
    return need


def _carry_sum(rows: np.ndarray, acc: np.ndarray | float) -> np.ndarray:
    """acc plus the column sums of rows, in the one-array summation order.

    numpy sums axis 0 of a C-order array row by row when it has two or
    more columns, so adding acc into the first row first gives the same
    floats as a single sum over every tile's rows (one column is summed
    pairwise, so there a split may move the last bits).  Overwrites rows[0].
    """
    rows[0] += acc
    return rows.sum(axis=0)


class _GridPass(NamedTuple):
    q: np.ndarray
    bound: np.ndarray
    completeness_defect: float


def _grid_pass(
    spec: ConvolutionSpec,
    levels: SpectrumLevels,
    i: int,
    depth: int,
    xi: np.ndarray,
) -> _GridPass:
    """Q over the grid, its per-point truncation bounds and the level completeness.

    Two squared mask products over (lambda, xi), both real: |F|^2 with
    F = mu^_{m_i}(lambda + xi) over the first m_i factors and |T|^2 with
    T = the tail transform at (lambda + xi) / P_{m_i}, factors m_i + 1 to
    depth (1 when depth = m_i), so Q = sum |F|^2 |T|^2 is the depth-factor
    truncation, and |T| = sqrt(|T|^2).  Each factor is
    |M_B(y)|^2 = 1/#B + (2/#B^2) sum_{delta > 0} c_delta cos(2*pi*delta*y),
    c_delta the digit pairs at difference delta: one real matrix product of
    rank 1 + 2 * #delta (see convolution._mask_power, which clips its
    product to [0, 1]).
    Both parts of the bound come from T's bound t = c(depth) * |lambda + xi|:
    level part = worst 1 - (|T| - t)^2, depth part = 2 * sum |F|^2 t, over
    the level, since |T|, |T_depth| <= 1 give
    |sum |F|^2 (|T|^2 - |T_depth|^2)| <= 2 * sum |F|^2 t.  The completeness
    defect is max |sum |F|^2 - 1| over the grid.
    Each row tile of the level is reduced into the per-xi sums and the
    worst level part before the next is formed.
    """
    m_i = levels.m(i)
    _pass_bytes(spec, levels, i, depth, xi.size)
    factors = [(f.triple.B, f.product) for f in spec.factors(depth)]
    inv = _inv_float(spec.scale_product(m_i))
    coef = _tail_series_coefficient(TailSpec(spec, m_i), depth - m_i)
    level = np.asarray(levels.level(i), dtype=float)
    q = mass = t_sum = level_part = 0.0
    for lam in np.array_split(level, _part_count(level.size, 16 * level.size * xi.size, _TILE_BYTES)):
        f2 = _mask_power(factors[:m_i], lam, xi)
        t2 = _mask_power(factors[m_i:], lam, xi)
        t = coef * np.abs(np.add.outer(lam * inv, xi * inv))
        low = np.clip(np.sqrt(t2) - t, 0.0, 1.0)
        level_part = np.maximum(level_part, np.max(1.0 - low**2, axis=0))
        t *= f2  # |F|^2 t, summed for the depth part
        t_sum = _carry_sum(t, t_sum)
        t2 *= f2
        q = _carry_sum(t2, q)
        mass = _carry_sum(f2, mass)
    return _GridPass(q, level_part + 2.0 * t_sum, float(np.max(np.abs(mass - 1.0))))


def _lattice_q(
    spec: ConvolutionSpec, levels: SpectrumLevels, i: int, depth: int, grid_n: int
) -> np.ndarray:
    """Q at -2 + j/g, j = 0..4g (g = grid_n), with each point lambda + xi once.

    The points are n + r/g, n in -2..1 and r in 0..g, so Q(n + r/g) is the
    sum over lambda of G[lambda + n, r], the product of the depth factors
    |M_{B_k}((u + r/g) / P_k)|^2 on the rows u in U = {lambda + n}, formed in
    integers.  A row tile is one _mask_power call; each n's rows are summed in
    ascending lambda through _carry_sum, so the floats do not depend on the
    tiling.  The values only rank points: no bound is formed.
    """
    _pass_bytes(spec, levels, i, depth, grid_n + 1, lattice=True)
    factors = [(f.triple.B, f.product) for f in spec.factors(depth)]
    lam, count = _lattice_rows(levels.level(i))
    end = np.cumsum(count, dtype=np.int64) - 1  # lambda_j + n is row end_j - 1 + n
    u = np.repeat(lam, count)
    u -= np.repeat(end, count)
    u += np.arange(1, u.size + 1)
    u = u.astype(float)
    cols = np.arange(grid_n + 1) / grid_n
    q, start = [0.0] * 4, 0
    for rows in np.array_split(u, _part_count(u.size, 16 * u.size * cols.size, _TILE_BYTES)):
        g2 = _mask_power(factors, rows, cols)
        for k in range(4):  # n = k - 2
            lo, hi = np.searchsorted(end, (start + 3 - k, start + rows.size + 3 - k))
            if hi > lo:
                q[k] = _carry_sum(g2[end[lo:hi] - (start + 3 - k)], q[k])
        start += rows.size
    return np.concatenate([q[0][:-1], q[1][:-1], q[2][:-1], q[3]])


def level_completeness(
    spec: ConvolutionSpec,
    levels: SpectrumLevels,
    i: int,
    xi_grid: Sequence[float],
) -> float:
    """Max over the grid of |sum_Lambda_i |mu^_{m_i}(lambda+xi)|^2 - 1|.

    The completeness defect of the grid pass at depth m_i, where the tail
    is the empty product.
    """
    _check_level(levels, i)
    xi = np.asarray(xi_grid, dtype=float)
    return _grid_pass(spec, levels, i, levels.m(i), xi).completeness_defect


@dataclass(frozen=True)
class QReport:
    """Grid evaluation of level completeness and Q with explicit bounds."""

    xi_grid: tuple[float, ...]
    q_values: tuple[float, ...]
    q_bounds: tuple[float, ...]
    level: int
    truncation_depth: int
    max_defect: float
    tail_bound: float
    completeness_defect: float
    min_q: float
    passed: bool

    def to_json(self) -> dict:
        return _fields_json(self)

    def to_csv(self) -> str:
        lines = ["xi,q,bound"]
        for x, q, b in zip(self.xi_grid, self.q_values, self.q_bounds):
            lines.append(f"{x!r},{q!r},{b!r}")
        return "\n".join(lines) + "\n"


def spectral_report(
    spec: ConvolutionSpec,
    levels: SpectrumLevels,
    grid_n: int = 64,
    depth: int = 30,
) -> QReport:
    """Evaluate the deepest level on [-2, 2]: completeness plus Q with bounds.

    The grid is grid_n uniform points plus the _EXTRA_WORST worst of the
    4 * grid_n + 1 points of a coarse scan, _lattice_q: Q alone, with each
    distinct lambda + xi evaluated once.  Pass requires the completeness defect
    within DEFAULT_COMPLETENESS_TOL and min Q >= 1 - (tail_bound + DEFAULT_Q_SLACK).
    """
    (grid_n,) = _integers((grid_n,), "grid_n")
    (depth,) = _integers((depth,), "depth")
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    if levels.level_count < 1:
        raise ValueError("no levels to verify")
    i = levels.level_count
    q_coarse = _lattice_q(spec, levels, i, depth, grid_n)
    coarse = np.linspace(-2.0, 2.0, 4 * grid_n + 1)
    worst = coarse[np.argsort(q_coarse, kind="stable")[:_EXTRA_WORST]]
    grid = np.unique(np.concatenate([np.linspace(-2.0, 2.0, grid_n), worst]))
    q, bounds, comp = _grid_pass(spec, levels, i, depth, grid)
    tail_bound = float(np.max(bounds))
    min_q = float(np.min(q))
    passed = comp <= DEFAULT_COMPLETENESS_TOL and min_q >= 1.0 - (tail_bound + DEFAULT_Q_SLACK)
    return QReport(
        xi_grid=tuple(float(x) for x in grid),
        q_values=tuple(float(v) for v in q),
        q_bounds=tuple(float(b) for b in bounds),
        level=i,
        truncation_depth=depth,
        max_defect=float(np.max(np.abs(q - 1.0))),
        tail_bound=tail_bound,
        completeness_defect=comp,
        min_q=min_q,
        passed=passed,
    )
