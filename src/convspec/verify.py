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
    _BUDGET_BYTES,
    _INT64_LIMIT,
    _delta_count,
    _inv_float,
    _mask_power,
    _table_walk,
    # unused here, but bench/tracing.py requires both names bound in this module
    fourier_finite,
    fourier_tail,
    tail_truncation_bound,
)
from .spectrum import SpectrumLevels
from .triples import _integers

__all__ = [
    "QReport",
    "QValue",
    "orthonormality_gram",
    "level_completeness",
    "q_function",
    "spectral_report",
]

DEFAULT_COMPLETENESS_TOL = 1e-9
DEFAULT_Q_SLACK = 1e-3
_EXTRA_WORST = 10  # worst points of the coarse scan added to the report grid
_RESIDUE_CHUNK_BYTES = 8 << 20  # bytes of residues per Gram chunk
_TILE_BYTES = 1 << 20  # bytes of the mask kernel's two float arrays over a Q tile's pairs
_BOXED_INT_BYTES = 64  # an object-array pointer and the Python int it points to
_FFT_BYTES = 64  # peak bytes per residue bin or lambda on the Gram check's FFT path


def _residues(values: Sequence[int] | np.ndarray, d: int, name: str) -> np.ndarray:
    """values mod d, as int64 when d fits in int64 and as Python ints past it.

    A 1-d integer array reduces in numpy; anything else goes through
    _integers, which rejects non-integers, and reduces in Python ints.
    """
    a = np.asarray(values)
    if a.ndim != 1 or a.dtype.kind != "i":
        a = np.array(_integers(values, name), dtype=object)
    elif a.dtype != np.int64:  # a narrower array cannot hold d
        a = a.astype(np.int64)
    if d >= _INT64_LIMIT:
        return a.astype(object) % d
    return (a % d).astype(np.int64, copy=False)


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
    (lambda * u mod D) / D, reduced in Python ints a chunk of rows at a
    time.  A check that would allocate more than _BUDGET_BYTES
    raises ValueError before it starts.
    """
    d = measure.denominator
    lam = _residues(Lambda if isinstance(Lambda, np.ndarray) else tuple(Lambda), d, "Lambda")
    if not lam.size:
        raise ValueError("Lambda must be nonempty")
    n, k = lam.size, len(measure)
    fft = d <= n * k
    need = _FFT_BYTES * (d + n) if fft else 2 * _RESIDUE_CHUNK_BYTES + 16 * n * (2 * k + n)
    if need > _BUDGET_BYTES:
        raise ValueError(
            f"Gram check of {n} lambdas on {k} atoms over D = {d} needs about "
            f"{need} bytes, over its budget of {_BUDGET_BYTES}"
        )
    u = _residues(measure.numerators, d, "numerators")
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
    uo = u.astype(object)
    e = np.empty((n, k), dtype=complex)
    rows = max(1, _RESIDUE_CHUNK_BYTES // (_BOXED_INT_BYTES * k))
    for i in range(0, n, rows):
        r = np.outer(lam[i : i + rows].astype(object), uo)
        r %= d
        np.exp(np.asarray(r / d, dtype=float) * (-2j * np.pi), out=e[i : i + rows])
    g = (e * w) @ np.conj(e, out=e).T  # e * w is formed before e is conjugated
    g.flat[:: n + 1] -= 1.0  # minus the identity
    return float(np.max(np.abs(g)))


def _check_level(levels: SpectrumLevels, i: int) -> None:
    if not 1 <= i <= levels.level_count:
        raise ValueError(f"level index {i} out of range 1..{levels.level_count}")


def _tile_count(n: int, n_xi: int) -> int:
    """Row tiles of n frequencies by n_xi points: equal parts of at least two
    rows (a one-row matrix product takes another BLAS path) and at most
    _TILE_BYTES of pairs, 16 bytes each for the kernel's result and term."""
    return max(1, min(-(-n * n_xi * 16 // _TILE_BYTES), n // 2))


def _pass_bytes(
    spec: ConvolutionSpec, levels: SpectrumLevels, i: int, depth: int, n_xi: int
) -> int:
    """Estimated peak bytes of a grid pass over level i and n_xi points.

    Per factor, the kernel's cosine and sine sides hold 5 * #delta + 1
    floats per xi and per tile row (the larger of its two factor lists),
    and the factor table takes what _table_walk estimates; a tile takes ~8
    floats per pair.  Tiles keep two rows, so a large grid or depth cannot
    fit: past _BUDGET_BYTES, ValueError, found by a walk that forms no P_k.
    """
    n, m_i = len(levels.level(i)), levels.m(i)
    rows = -(-n // _tile_count(n, n_xi))
    need = base = 8 * (8 * (n_xi + rows) + 8 * rows * n_xi + n)
    width = [0, 0]  # the first m_i factors, the rest
    for k, (t, table) in enumerate(_table_walk(spec, depth), start=1):
        width[k > m_i] += 5 * _delta_count(t.B) + 1
        need = base + 8 * (n_xi + rows) * max(width) + table
        if need > _BUDGET_BYTES:
            raise ValueError(
                f"Q grid pass of {n} frequencies over {n_xi} points at depth {depth} "
                f"needs more than its budget of {_BUDGET_BYTES} bytes"
            )
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
    if depth < m_i:
        raise ValueError(f"depth {depth} must be >= m_i = {m_i}")
    _pass_bytes(spec, levels, i, depth, xi.size)
    factors = [(f.triple.B, f.product) for f in spec.factors(depth)]
    inv = _inv_float(spec.scale_product(m_i))
    tail = TailSpec(spec, m_i)
    level = np.asarray(levels.level(i), dtype=float)
    q = mass = t_sum = level_part = 0.0
    for lam in np.array_split(level, _tile_count(level.size, xi.size)):
        f2 = _mask_power(factors[:m_i], lam, xi)
        t2 = _mask_power(factors[m_i:], lam, xi)
        t = tail_truncation_bound(tail, np.add.outer(lam * inv, xi * inv), depth - m_i)
        low = np.clip(np.sqrt(t2) - t, 0.0, 1.0)
        level_part = np.maximum(level_part, np.max(1.0 - low**2, axis=0))
        t *= f2  # |F|^2 t, summed for the depth part
        t_sum = _carry_sum(t, t_sum)
        t2 *= f2
        q = _carry_sum(t2, q)
        mass = _carry_sum(f2, mass)
    return _GridPass(q, level_part + 2.0 * t_sum, float(np.max(np.abs(mass - 1.0))))


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


class QValue(NamedTuple):
    q: float
    tail_bound: float


def q_function(
    spec: ConvolutionSpec,
    levels: SpectrumLevels,
    i: int,
    depth: int,
    xi: float,
) -> QValue:
    """Q over level i at a single point, with its accumulated truncation bound."""
    _check_level(levels, i)
    res = _grid_pass(spec, levels, i, depth, np.asarray([float(xi)]))
    return QValue(float(res.q[0]), float(res.bound[0]))


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
        return {
            "level": self.level,
            "truncation_depth": self.truncation_depth,
            "max_defect": self.max_defect,
            "tail_bound": self.tail_bound,
            "completeness_defect": self.completeness_defect,
            "min_q": self.min_q,
            "passed": self.passed,
            "xi_grid": list(self.xi_grid),
            "q_values": list(self.q_values),
            "q_bounds": list(self.q_bounds),
        }

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

    The grid is grid_n uniform points augmented with the _EXTRA_WORST worst
    points of a 4x finer coarse scan.  Pass requires the completeness defect within
    DEFAULT_COMPLETENESS_TOL and min Q >= 1 - (tail_bound + DEFAULT_Q_SLACK).
    """
    (grid_n,) = _integers((grid_n,), "grid_n")
    (depth,) = _integers((depth,), "depth")
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    if levels.level_count < 1:
        raise ValueError("no levels to verify")
    i = levels.level_count
    _pass_bytes(spec, levels, i, depth, 4 * grid_n + 1)  # before the coarse grid is formed
    coarse = np.linspace(-2.0, 2.0, 4 * grid_n + 1)
    q_coarse = _grid_pass(spec, levels, i, depth, coarse).q
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
