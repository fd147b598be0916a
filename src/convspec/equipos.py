"""Numeric equi-positivity certificates for families of tail measures.

A family of probability measures is equi-positive when uniform eps, delta
exist such that every x in [0,1) admits an integer shift k keeping the
transform at least eps on a delta-ball around x + k, with k = 0 forced at
x = 0.  The probe samples grid points x = j/grid_n, maximizes the truncated
tail transform over shifts |k| <= K, and reports the worst value achieved.
The grid certificate approximates the open-ball definition: delta-hat is
reported as half the grid spacing and labeled as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

from .convolution import (
    DEFAULT_TAIL_DEPTH,
    ArrayLike,
    ConvolutionSpec,
    TailSpec,
    # unused here, but bench/tracing.py requires the name bound in this module
    fourier_tail,
)
from .triples import _integers, _tolerance
from .zeros import DEFAULT_SHIFT_WINDOW, _first_max, _Window

__all__ = [
    "ProbeRow",
    "EquiPositivityCertificate",
    "choose_k",
    "probe_family",
    "DEFAULT_FAILURE_THRESHOLD",
]

DEFAULT_FAILURE_THRESHOLD = 1e-4
_SHIFT_PAIRS = 17 << 13  # (point, shift) pairs per part and chunk: 8,192 points at K = 8


def _reprs(column: tuple) -> list[str]:  # each int or finite float's repr, from one repr
    return repr(list(column))[1:-1].split(", ")


class ProbeRow(NamedTuple):
    """Best shift found for one grid point and one tail index."""

    x: float
    skip: int
    k: int
    value: float


@dataclass(frozen=True)
class EquiPositivityCertificate:
    """Probe outcome: eps-hat over the grid, or a failure naming the worst pair.

    The table has a row per grid point and skip, in (x, skip) order, kept
    by columns: the grid, the skips in row order and, for each skip, the
    (k, value) columns of its search, one object for skips that share a
    search.  For every row, the true tail transform at x + k is at least
    value - truncation bound; eps-hat is the minimum value over all rows
    and worst_index the first row that attains it.
    """

    ok: bool
    epsilon_hat: float
    delta_hat: float
    grid_n: int
    K: int
    depth: int
    failure_threshold: float
    family_id: str
    grid: tuple[float, ...]
    skips: tuple[int, ...]
    columns: tuple[tuple[tuple[int, ...], tuple[float, ...]], ...]
    worst_index: int

    @cached_property
    def worst(self) -> ProbeRow:
        i, j = divmod(self.worst_index, len(self.skips))
        k, value = self.columns[j]
        return ProbeRow(self.grid[i], self.skips[j], k[i], value[i])

    @cached_property
    def rows(self) -> tuple[ProbeRow, ...]:
        rows = list(map(ProbeRow._make, self.table()))
        rows[self.worst_index] = self.worst
        return tuple(rows)

    def text(self, sep: str = ",", start: str = "", end: str = "", join: str = "\n") -> str:
        """The table as text, rows start, x, skip, k, value, end joined by join.

        The fields are joined by sep and the floats, all finite (x = j / grid_n,
        values are moduli), written by repr as JSON writes them, one repr per
        column.  Each search's row tails are formed once (by identity, never by
        float equality: 0.0 == -0.0), and one join takes every row's pieces.
        """
        heads = [join + start + x + sep for x in _reprs(self.grid)]
        tails: dict[int, list[str]] = {}
        step = 3 * len(self.skips)
        pieces = [""] * (step * len(heads))  # head, skip and tail of each row, in row order
        for j, (s, found) in enumerate(zip(self.skips, self.columns)):
            if id(found) not in tails:
                tails[id(found)] = [sep + a + sep + b + end for a, b in zip(*map(_reprs, found))]
            pieces[3 * j :: step], pieces[3 * j + 1 :: step], pieces[3 * j + 2 :: step] = (
                heads, [str(s)] * len(heads), tails[id(found)])
        pieces[0] = pieces[0][len(join) :]  # no join before the first row
        return "".join(pieces)

    def table(self) -> Iterator[list]:
        """The rows as [x, skip, k, value] lists, in row order, each formed when reached."""
        for i, x in enumerate(self.grid):
            for s, (k, value) in zip(self.skips, self.columns):
                yield [x, s, k[i], value[i]]

    def to_json(self, table: list | None = None) -> dict:
        """The certificate as plain data; table, when given, stands in for its rows."""
        return {
            "ok": self.ok,
            "epsilon_hat": self.epsilon_hat,
            "delta_hat": self.delta_hat,
            "grid_n": self.grid_n,
            "K": self.K,
            "depth": self.depth,
            "failure_threshold": self.failure_threshold,
            "family_id": self.family_id,
            "worst": self.worst._asdict(),
            "table": list(self.table()) if table is None else table,
        }

    def to_csv(self) -> str:
        return "x,skip,k,value\n" + self.text() + "\n"


def choose_k(
    tail: ConvolutionSpec,
    x: ArrayLike,
    K: int = DEFAULT_SHIFT_WINDOW,
    depth: int = DEFAULT_TAIL_DEPTH,
) -> tuple[int, float] | tuple[np.ndarray, np.ndarray]:
    """Shift k in [-K, K] maximizing |tail transform(x + k)| (truncated).

    x is a point or an array of points in [0, 1), and (k, value) match its
    shape.  The search runs on squared moduli, those below the window's
    floor reading 0 (see zeros._Window), and takes one square root per
    point.  Ties break toward smaller |k|, then the positive one; x = 0
    always gives (0, 1).
    """
    xs = np.asarray(x, dtype=float)
    if not np.all((0.0 <= xs) & (xs < 1.0)):
        raise ValueError(f"x must lie in [0, 1), got {x}")
    window = _Window.of(tail, K, depth)
    flat = xs.reshape(-1)
    best = np.empty(flat.shape, dtype=window.ks.dtype)
    peak = np.empty(flat.shape)
    start = 0
    for part in np.array_split(flat, window.parts(flat.size, _SHIFT_PAIRS)):
        stop = start + part.size
        j, peak[start:stop] = _first_max(window.power(part))
        best[start:stop] = window.ks[j]
        start = stop
    np.sqrt(peak, out=peak)
    at_origin = xs == 0.0
    k = np.where(at_origin, 0, best.reshape(xs.shape))
    value = np.where(at_origin, 1.0, peak.reshape(xs.shape))
    if xs.ndim == 0:
        return int(k), float(value)
    return k, value


def probe_family(
    spec: ConvolutionSpec,
    skips,
    grid_n: int = 128,
    K: int = DEFAULT_SHIFT_WINDOW,
    depth: int = DEFAULT_TAIL_DEPTH,
    failure_threshold: float = DEFAULT_FAILURE_THRESHOLD,
) -> EquiPositivityCertificate:
    """Probe the tails of ``spec`` with the given skip indices on a uniform grid.

    Runs :func:`choose_k` over the grid once per distinct tail, that is per
    distinct (B, P_k) sequence up to depth; eps-hat is the minimum achieved
    value.  The result fails when eps-hat does not exceed the failure
    threshold, naming the worst (x, skip) pair.
    """
    skips = _integers(skips, "skips")
    if not skips or min(skips) < 0:
        raise ValueError(f"skips must be a nonempty list of integers >= 0, got {list(skips)}")
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    _tolerance(failure_threshold, "failure_threshold")
    xs = np.arange(grid_n) / grid_n
    # rows in (x, skip) order, equal skips in the order given: the grid
    # ascends, so a stable sort of the skips orders each x's rows
    order = np.argsort(skips, kind="stable")
    # the search reads only the (B, P_k) sequence up to depth, so tails that
    # share it share (k, value) bit for bit: an eventually periodic word has
    # at most preperiod + period of them, however many skips are asked for
    searches: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
    keys = []
    for n in skips:
        tail = TailSpec(spec, n)
        key = tuple((f.triple.B, f.product) for f in tail.factors(depth))
        if key not in searches:
            searches[key] = choose_k(tail, xs, K, depth)
        keys.append(key)
    keys = [keys[j] for j in order]
    # one pair of tuples per search, which its skips share
    columns = {key: (tuple(k.tolist()), tuple(v.tolist())) for key, (k, v) in searches.items()}
    value = np.array([searches[key][1] for key in keys]).T  # (x, skip)
    worst_index = int(np.argmin(value))  # the first minimum in row order
    eps_hat = float(value.flat[worst_index])
    return EquiPositivityCertificate(
        ok=eps_hat > failure_threshold,
        epsilon_hat=eps_hat,
        delta_hat=1.0 / (2.0 * grid_n),
        grid_n=grid_n,
        K=K,
        depth=depth,
        failure_threshold=failure_threshold,
        family_id=f"{spec.describe()} skips={list(skips)}",
        grid=tuple(xs.tolist()),
        skips=tuple(skips[j] for j in order),
        columns=tuple(columns[key] for key in keys),
        worst_index=worst_index,
    )
