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
    _INT64_LIMIT,
    _check_budget,
    _int_array,
    _int_bytes,
    _inv_float,
    _mask_power,
    _past_horizon,
    _part_count,
    _table_walk,
    _tail_series_coefficient,
    # unused here, but bench/tracing.py requires both names bound in this module
    fourier_finite,
    fourier_tail,
)
from .spectrum import SpectrumLevels
from .triples import _digit_table, _fields_json, _integers, _pairs

__all__ = [
    "QReport",
    "orthonormality_gram",
    "level_completeness",
    "spectral_report",
]

DEFAULT_COMPLETENESS_TOL = 1e-9
DEFAULT_Q_SLACK = 1e-3
_RESIDUE_CHUNK_BYTES = 8 << 20  # bytes of a Gram chunk's residues and phases
_EXACT_DOUBLE_LIMIT = 1 << 53  # integers up to here are exact doubles
_GRAM_WORD_BYTES = 64  # per lambda and atom on the Gram check's matrix path: residues, weights
_TILE_BYTES = 1 << 20  # bytes of a Q tile's pairs, 16 each for the mask kernel's result and term
_FFT_BYTES = 64  # peak bytes per residue bin or lambda on the Gram check's FFT path
_PASS_OBJECT_BYTES = 16 << 10  # a Q pass's frames, lists and small arrays (traced ~4 KB)


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


def _lattice_rows(level: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted level (Python ints near int64's ends, so lambda + n cannot
    wrap) and the rows each lambda adds to U: its last min(span, gap) values."""
    lam = np.sort(level)
    if lam.dtype != object and max(-int(lam[0]), int(lam[-1])) >= _INT64_LIMIT - 2:
        lam = lam.astype(object)
    return lam, np.minimum(np.diff(lam, prepend=lam[0] - span), span).astype(np.int8)


def _pass_bytes(spec: ConvolutionSpec, m_i: int, depth: int, lam: np.ndarray, count: np.ndarray,
                n_xi: int, reach: float) -> int:
    """Estimated peak bytes of a _pass over the rows U of _lattice_rows and n_xi
    columns, whose kernel calls stay within reach.

    The pass holds the factor table (as _table_walk estimates; the series
    coefficient reads it on to two periods past depth or the word's prefix
    at most), 4 entries per lambda and row, 6 floats per column and shift,
    _PASS_OBJECT_BYTES and a tile: six arrays of pairs while the bound is
    formed, or |F|^2 and a kernel call.  A call keeps the factors its
    horizon rule keeps (here at reach (1 + 2^-20): this running 1/|P_k| may
    round apart from the kernel's by k ulps).  With #delta = r per factor it
    holds 5r + 4 floats per tile row while it reduces the rows and takes
    their cosines, then 3r + 1 per row and 6r + 1 per column while it takes
    the columns', then 3r + 1 per row and column and two arrays of pairs.
    Tiles keep two rows, so a large grid or depth cannot fit: past the
    budget, or at a depth below m_i, ValueError (the walk forms no P_k).
    """
    if depth < m_i:
        raise ValueError(f"depth {depth} must be >= m_i = {m_i}")
    n, rows, shifts = lam.size, int(count.sum()), int(count.max())
    word = 8 if lam.dtype != object else _int_bytes(max(-lam[0], lam[-1]).bit_length() + 2)
    tile = -(-rows // _part_count(rows, 16 * rows * n_xi, _TILE_BYTES))
    kind = "lattice scan" if shifts > 1 else "grid pass"
    what = f"a Q {kind} of {n} frequencies over {n_xi} points at depth {depth}"
    pairs, base = tile * n_xi, _PASS_OBJECT_BYTES + 48 * shifts * n_xi + 4 * word * (n + rows)
    kept, inv, call = [[0, 0], [0, 0]], 1.0, 0  # sum r and count: first m_i factors, the rest
    for k, (t, _, table) in enumerate(_table_walk(spec, depth), start=1):
        inv *= abs(t.N) ** -float(spec.exponent_at(k))  # 1/|P_k|
        deltas = _pairs(_digit_table(t.B)).deltas
        if not _past_horizon(deltas, 2 * np.pi * inv, reach * (1 + 2**-20)):
            kept[k > m_i][0] += len(deltas)
            kept[k > m_i][1] += 1
            call = max(max(tile * (5 * r + 4 * c), tile * (3 * r + c) + n_xi * (6 * r + c),
                           (tile + n_xi) * (3 * r + c) + 2 * pairs) for r, c in kept)
        need = _check_budget(what, base + table + 8 * max(6 * pairs, pairs + call))
    return need


def _carry_sum(rows: np.ndarray, acc: np.ndarray | float) -> np.ndarray:
    """acc plus the column sums of rows, in the one-array summation order.

    numpy sums axis 0 of a C-order array row by row when it has two or
    more columns, so adding acc into the first row first gives the same
    floats as a single sum over every tile's rows (one column is summed
    pairwise, so there a split may move the last bits).  rows[0] is put
    back, so rows may be a view.
    """
    first = rows[0].copy()
    rows[0] += acc
    out = rows.sum(axis=0)
    rows[0] = first
    return out


class _Pass(NamedTuple):
    q: np.ndarray
    bound: np.ndarray
    completeness_defect: float


def _pass(spec: ConvolutionSpec, levels: SpectrumLevels, i: int, depth: int, shifts: range,
          cols: Sequence[float], den: int = 1) -> _Pass:
    """Q over level i, its truncation bound and completeness defect at the points
    n + c/den, n in shifts and c in cols; the last column of a shift but the
    last is left out (with cols r in 0..g over g, it is n + 1, the next's first).

    The rows are the distinct integers U = {lambda + n} of _lattice_rows, so
    Q(n + c) = sum over lambda of G[lambda + n, c], and lambda + n is found by
    position.  The pass is estimated before U or a column is formed.  A row
    tile takes two squared mask products over (u, c), both real (see
    convolution._mask_power, which reduces integer rows mod |P_k| first):
    |F|^2 over the first m_i factors, F = mu^_{m_i}(u + c), and |T|^2 over
    factors m_i + 1 to depth, T the tail transform at (u + c) / P_{m_i} (1
    when depth = m_i), so Q = sum |F|^2 |T|^2, and |T| = sqrt(|T|^2).  Both
    parts of the bound come from T's bound t = c(depth) * |u + c|: level
    part = 1 - (min clip(|T| - t))^2, the worst 1 - (|T| - t)^2, and depth
    part = 2 * sum |F|^2 t over the level, since |T|, |T_depth| <= 1 give
    |sum |F|^2 (|T|^2 - |T_depth|^2)| <= 2 * sum |F|^2 t.  The completeness
    defect is max |sum |F|^2 - 1|.  Each shift's rows of a tile are reduced
    into its running sums and least |T| - t before the next tile is formed,
    in ascending lambda through _carry_sum, so no float depends on the tiling.
    """
    m_i = levels.m(i)
    lam, count = _lattice_rows(levels.level(i), len(shifts))
    # the kernel's reach: a range is widest at its ends, and is formed only past the estimate
    edge = max(-cols[0], cols[-1]) if isinstance(cols, range) else np.abs(cols).max()
    reach = max(abs(float(lam[0] + shifts[0])), abs(float(lam[-1] + shifts[-1])), edge / den)
    _pass_bytes(spec, m_i, depth, lam, count, len(cols), reach)
    cols = np.asarray(cols) / den
    factors = [(f.triple.B, f.product) for f in spec.factors(depth)]
    inv = _inv_float(spec.scale_product(m_i))
    coef = _tail_series_coefficient(spec, depth - m_i, m_i)
    top = shifts[-1]
    end = np.cumsum(count, dtype=np.int64)  # lambda_j + n is row end_j - 1 - (top - n)
    u = np.repeat(lam, count)
    u -= np.repeat(end, count)
    u += np.arange(top + 1, top + 1 + u.size)
    sums = np.zeros((len(shifts), 3, cols.size))  # per shift: Q, sum |F|^2 t, sum |F|^2
    low = np.ones((len(shifts), cols.size))
    start = 0
    for rows in np.array_split(u, _part_count(u.size, 16 * u.size * cols.size, _TILE_BYTES)):
        f2 = _mask_power(factors[:m_i], rows, cols)
        t2 = _mask_power(factors[m_i:], rows, cols)
        t = coef * np.abs(np.add.outer(rows.astype(float) * inv, cols * inv))
        gap = np.clip(np.sqrt(t2) - t, 0.0, 1.0)
        t *= f2  # |F|^2 t, summed for the depth part
        t2 *= f2
        for k, n in enumerate(shifts):
            first = start + 1 + top - n
            lo, hi = np.searchsorted(end, (first, first + rows.size))
            if hi > lo:
                at = end[lo:hi] - first
                if np.all(count[lo + 1 : hi] == 1):  # a run of rows: read in place
                    at = slice(at[0], at[-1] + 1)
                sums[k] = [_carry_sum(part[at], s) for s, part in zip(sums[k], (t2, t, f2))]
                np.minimum(low[k], gap[at].min(axis=0), out=low[k])
        start += rows.size
        del f2, t2, t, gap  # before the next tile's kernel calls
    parts = (*sums.transpose(1, 0, 2), 1.0 - low**2)  # the level part is 1 - (least |T| - t)^2
    q, t_sum, mass, level_part = (np.concatenate([*x[:-1, :-1], x[-1]]) for x in parts)
    return _Pass(q, level_part + 2.0 * t_sum, float(np.max(np.abs(mass - 1.0))))


def _grid_pass(spec: ConvolutionSpec, levels: SpectrumLevels, i: int, depth: int,
               xi: np.ndarray) -> _Pass:
    """_pass over level i and the points xi: the one shift n = 0, whose rows are the lambdas."""
    return _pass(spec, levels, i, depth, range(1), xi)


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
    inconclusive_at: tuple[float, float] | None  # (xi, bound) of the first bound >= 1

    def to_json(self) -> dict:
        return _fields_json(self)

    def to_csv(self) -> str:
        rows = zip(self.xi_grid, self.q_values, self.q_bounds)
        return "xi,q,bound\n" + "".join(f"{x!r},{q!r},{b!r}\n" for x, q, b in rows)


def spectral_report(
    spec: ConvolutionSpec,
    levels: SpectrumLevels,
    grid_n: int = 64,
    depth: int = 30,
) -> QReport:
    """Evaluate the deepest level on [-2, 2]: completeness plus Q with bounds.

    The 4 * grid_n + 1 points -2 + j/grid_n are n + r/grid_n, n in -2..1 and
    r in 0..grid_n: one _pass over the rows lambda + n and the columns
    r/grid_n gives Q and its bound at each and the completeness defect over
    them, every lambda + xi evaluated once.  Pass requires the completeness
    defect within DEFAULT_COMPLETENESS_TOL and, point by point, bound < 1 and
    Q >= 1 - (bound + DEFAULT_Q_SLACK): a bound of 1 admits Q = 0, so the
    first such point, named as inconclusive_at = (xi, bound), fails the report.
    """
    (grid_n,) = _integers((grid_n,), "grid_n")
    (depth,) = _integers((depth,), "depth")
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    if levels.level_count < 1:
        raise ValueError("no levels to verify")
    i = levels.level_count
    res = _pass(spec, levels, i, depth, range(-2, 2), range(grid_n + 1), grid_n)
    xi = np.arange(-2 * grid_n, 2 * grid_n + 1) / grid_n
    over = np.flatnonzero(res.bound >= 1.0)
    comp = res.completeness_defect
    passed = (comp <= DEFAULT_COMPLETENESS_TOL and not over.size
              and bool(np.all(res.q >= 1.0 - (res.bound + DEFAULT_Q_SLACK))))
    return QReport(
        xi_grid=tuple(xi.tolist()),
        q_values=tuple(res.q.tolist()),
        q_bounds=tuple(res.bound.tolist()),
        level=i,
        truncation_depth=depth,
        max_defect=float(np.max(np.abs(res.q - 1.0))),
        tail_bound=float(np.max(res.bound)),
        completeness_defect=comp,
        min_q=float(np.min(res.q)),
        passed=passed,
        inconclusive_at=(float(xi[over[0]]), float(res.bound[over[0]])) if over.size else None,
    )
