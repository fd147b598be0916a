"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
per criterion alongside the pytest verdicts.
"""

import cmath
import contextlib
import json
import math
import random
import time
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from convspec import (
    BuildParams,
    ConvolutionSpec,
    GcdNotCertifiedWarning,
    HadamardTriple,
    SelectionWord,
    build_spectrum,
    cdf,
    enumerate_zero_products,
    finite_level,
    fourier_finite,
    level_completeness,
    mask,
    mask_zeros,
    probe_family,
    verify_triple,
    zero_propagation,
)
from convspec.verify import _grid_pass
from conftest import random_spec, random_triple

F = Fraction

JP = ConvolutionSpec((HadamardTriple(4, (0, 2), (0, 1)),), SelectionWord())
E14 = ConvolutionSpec(
    (HadamardTriple(2, (0, 1), (0, 1)), HadamardTriple(2, (0, 3), (0, 1))),
    SelectionWord(prefix=(1,), period=(2,)),
)
E14_UNIFORM = ConvolutionSpec(E14.family, SelectionWord(period=(2,)))
MIXED = ConvolutionSpec(
    (HadamardTriple(2, (0, 1), (0, 1)), HadamardTriple(3, (0, 1, 2), (0, 1, 2))),
    SelectionWord(period=(1, 2)),
)


@contextlib.contextmanager
def criterion(num, desc):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:2d}: {desc}")
        raise
    dt = time.perf_counter() - t0
    print(f"[PASS] criterion {num:2d}: {desc} ({dt:.2f}s)")


def build_quiet(spec, depth_i, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GcdNotCertifiedWarning)
        return build_spectrum(spec, depth_i, **kw)


def test_criterion_01_triple_validation():
    with criterion(1, "triple validation at tol 1e-12, runtime < 1 s"):
        t0 = time.perf_counter()
        assert verify_triple(4, [0, 2], [0, 1], 1e-12).ok
        assert verify_triple(2, [0, 1], [0, 1], 1e-12).ok
        assert verify_triple(2, [0, 3], [0, 1], 1e-12).ok
        assert not verify_triple(3, [0, 1], [0, 1], 1e-12).ok
        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_composition_closure():
    from convspec import compose_triples

    with criterion(2, "200 random compositions pass at 1e-10, runtime < 10 s"):
        t0 = time.perf_counter()
        rng = random.Random(424242)
        for _ in range(200):
            k = rng.randint(1, 4)
            ts = [random_triple(rng, max_abs_scale=8) for _ in range(k)]
            c = compose_triples(ts)
            r = verify_triple(c.N, c.B, c.L, 1e-10)
            assert r.ok, (ts, r.deviation)
        assert time.perf_counter() - t0 < 10.0


def test_criterion_03_single_step_completeness():
    with criterion(3, "sum over L of |M_B((xi+l)/N)|^2 = 1 within 1e-10, 256 grid"):
        grid = np.linspace(-2.0, 2.0, 256)
        for n, b, l in ((4, (0, 2), (0, 1)), (2, (0, 1), (0, 1)), (2, (0, 3), (0, 1))):
            total = np.zeros_like(grid)
            for freq in l:
                total += np.abs(mask(b, (grid + freq) / n)) ** 2
            assert np.max(np.abs(total - 1.0)) <= 1e-10


def test_criterion_04_level_completeness():
    with criterion(4, "level completeness <= 1e-9 for JP and mixed, i <= 4, < 30 s"):
        t0 = time.perf_counter()
        grid = np.linspace(-2.0, 2.0, 64)
        for spec in (JP, MIXED):
            levels = build_quiet(spec, 4)
            for i in (1, 2, 3, 4):
                dev = level_completeness(spec, levels, i, grid)
                assert dev <= 1e-9, (spec.describe(), i, dev)
        assert time.perf_counter() - t0 < 30.0


def test_criterion_05_canonical_spectrum():
    with criterion(5, "JP build (delta 0.2, 3 levels) gives the canonical level set"):
        levels = build_quiet(JP, 3, params=BuildParams(delta=0.2))
        assert list(levels.level(3)) == [0, 1, 4, 5, 16, 17, 20, 21]
        assert all(k == 0 for sh in levels.shifts for _, k in sh)


def test_criterion_06_bessel_and_monotonicity():
    with criterion(6, "Q <= 1+1e-9, monotone in level, Q_3 >= 0.99 - bound, < 60 s"):
        t0 = time.perf_counter()
        levels = build_quiet(JP, 3)
        grid = np.linspace(-2.0, 2.0, 64)
        q_prev = np.zeros_like(grid)
        q_by_level = {}
        for i in (1, 2, 3):
            res = _grid_pass(JP, levels, i, 30, grid)
            assert np.all(res.q <= 1 + 1e-9)
            q_by_level[i] = res.q
            if i == 3:
                worst_bound = float(res.bound.max())
        assert np.all(q_by_level[1] <= q_by_level[2] + 1e-9)
        assert np.all(q_by_level[2] <= q_by_level[3] + 1e-9)
        assert np.min(q_by_level[3]) >= 0.99 - worst_bound
        assert time.perf_counter() - t0 < 60.0


def test_criterion_07_counterexample_detection(capsys):
    from convspec.cli import main

    with criterion(7, "probe fails near 1/3 on the uniform-word family; gcd 3 reported"):
        cert = probe_family(E14_UNIFORM, (0, 1, 2), grid_n=192, K=8, depth=40)
        assert not cert.ok
        assert abs(cert.worst.x - 1.0 / 3.0) < 1.0 / 128.0
        assert cert.worst.value <= 1e-4
        code = main(["check", "--preset", "example14"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["gcd"]["gcds"][1] == 3
        assert code == 0


def test_criterion_08_density_values():
    with criterion(8, "level-12 CDF matches the piecewise-linear law within 0.01"):
        mu = finite_level(E14, 12)

        def exact_cdf(x):
            x = F(x)
            if x < 0:
                return F(0)
            if x <= F(1, 2):
                return x / 3
            if x <= F(3, 2):
                return F(1, 6) + F(2, 3) * (x - F(1, 2))
            if x <= 2:
                return F(5, 6) + (x - F(3, 2)) / 3
            return F(1)

        assert abs(cdf(mu, F(1, 2)) - F(1, 6)) < F(1, 100)
        assert abs(cdf(mu, F(3, 2)) - F(5, 6)) < F(1, 100)
        assert cdf(mu, F(2)) == 1
        for j in range(101):
            x = F(j, 50)
            assert abs(cdf(mu, x) - exact_cdf(x)) < F(1, 100)


def test_criterion_09_mask_zeros():
    with criterion(9, "mask zeros of {0,2} and {0,3} at their closed forms, 1e-10"):
        r = mask_zeros([0, 2], 0.0, 2.0)
        assert len(r) == 4
        for got, want in zip(r.roots, [0.25, 0.75, 1.25, 1.75]):
            assert abs(got - want) <= 1e-10
        r = mask_zeros([0, 3], 0.0, 1.0)
        assert len(r) == 3
        for got, want in zip(r.roots, [1 / 6, 1 / 2, 5 / 6]):
            assert abs(got - want) <= 1e-10


def test_criterion_10_zero_product_enumeration():
    with criterion(10, "scaled zero products of the JP family on [-2,2]: 10 points"):
        r = enumerate_zero_products(JP.family, 2.0)
        want = sorted([0.25, 0.75, 1.25, 1.75, 1.0, -0.25, -0.75, -1.25, -1.75, -1.0])
        assert len(r) == 10
        for got, expect in zip(r.roots, want):
            assert abs(got - expect) <= 1e-9


def test_criterion_11_oracle_equivalence():
    with criterion(11, "mask-product transform matches atom sums at 1e-10"):
        rng = random.Random(77007)
        for _ in range(20):
            spec = random_spec(rng)
            n = rng.randint(1, 6)
            mu = finite_level(spec, n)
            pos = [float(p) for p, _ in mu.atoms]
            wts = [float(w) for _, w in mu.atoms]
            for _ in range(50):
                xi = rng.uniform(-10.0, 10.0)
                brute = sum(
                    w * cmath.exp(-2j * math.pi * p * xi) for p, w in zip(pos, wts)
                )
                assert abs(fourier_finite(spec, n, xi) - brute) <= 1e-10


def test_criterion_12_propagation_invariants():
    with criterion(12, "propagation counts nondecreasing, orbit inside |xi0|+2"):
        rng = random.Random(90210)
        for _ in range(20):
            spec = random_spec(rng)
            xi0 = rng.uniform(-2.0, 2.0)
            tr = zero_propagation(spec, xi0, steps=rng.randint(2, 6))
            assert tr.counts == tuple(sorted(tr.counts))
            limit = abs(xi0) + 2.0 + 1e-9
            assert all(abs(v) <= limit for s in tr.sets for v in s)
