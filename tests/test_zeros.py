"""Mask zero isolation, zero products, periodic-zero probing, propagation."""

import math
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from convspec import (
    ConvolutionSpec,
    HadamardTriple,
    SelectionWord,
    enumerate_zero_products,
    integral_periodic_zero_probe,
    mask,
    mask_zeros,
    translate_triple,
    zero_propagation,
)
import convspec.zeros
from convspec.zeros import (
    DEFAULT_RESIDUAL_TOL,
    _Window,
    _merge_close,
    _zero_free_radius,
    _zeros_in_unit_period,
    search_order,
)
from convspec.triples import _digits, _pairs
from conftest import random_spec


def closed_form_zeros(step_num, step_den, lo, hi):
    """Zeros of the form step_num + k/step_den inside [lo, hi]."""
    out = []
    k = math.floor((lo - step_num) * step_den) - 1
    while step_num + k / step_den <= hi + 1e-12:
        x = step_num + k / step_den
        if x >= lo - 1e-12:
            out.append(x)
        k += 1
    return out


def test_mask_zeros_two_digit_families():
    # M_{0,2} = 0 on 1/4 + Z/2
    r = mask_zeros([0, 2], 0.0, 2.0)
    assert r.roots == pytest.approx(closed_form_zeros(0.25, 2, 0.0, 2.0), abs=1e-10)
    assert r.roots == pytest.approx([0.25, 0.75, 1.25, 1.75], abs=1e-10)
    # M_{0,1} = 0 on 1/2 + Z
    r = mask_zeros([0, 1], 0.0, 1.0)
    assert r.roots == pytest.approx([0.5], abs=1e-10)
    # M_{0,3} = 0 on 1/6 + Z/3
    r = mask_zeros([0, 3], 0.0, 1.0)
    assert r.roots == pytest.approx([1 / 6, 1 / 2, 5 / 6], abs=1e-10)


def test_mask_zeros_three_digit_mask():
    # Dirichlet mask of {0,1,2} vanishes at 1/3 and 2/3
    r = mask_zeros([0, 1, 2], 0.0, 1.0)
    assert r.roots == pytest.approx([1 / 3, 2 / 3], abs=1e-10)


def test_mask_zeros_no_real_zeros():
    # 1 + z + z^3 has no roots on the unit circle
    r = mask_zeros([0, 1, 3], 0.0, 1.0)
    assert r.roots == ()


def test_mask_zeros_residuals_and_disjoint_enclosures():
    for digits in ([0, 2], [0, 3], [0, 1, 2], [1, 4], [-2, 3]):
        r = mask_zeros(digits, -1.0, 2.0)
        for e in r.entries:
            assert abs(mask(digits, e.root)) <= 1e-10
        for a, b in zip(r.entries, r.entries[1:]):
            assert a.root + a.radius < b.root - b.radius


def test_mask_zeros_refinement_keeps_residual():
    r = mask_zeros([0, 3], 0.0, 1.0)
    for e in r.entries:
        assert abs(mask([0, 3], e.root)) <= 1e-10  # still holds with radius halved


def test_mask_zeros_period_translation():
    a = mask_zeros([0, 2], 0.0, 1.0)
    for k in (1, -3, 7):
        b = mask_zeros([0, 2], float(k), float(k + 1))
        assert len(a) == len(b)
        for ea, eb in zip(a.entries, b.entries):
            assert eb.root == pytest.approx(ea.root + k, abs=1e-12)


def test_mask_zeros_rejects_bad_input():
    with pytest.raises(ValueError, match="no zeros by definition"):
        mask_zeros([5], 0.0, 1.0)
    with pytest.raises(ValueError, match="lo < hi"):
        mask_zeros([0, 1], 1.0, 0.0)


def test_mask_zeros_against_companion_matrix_oracle():
    """Cross-validate the sampler against polynomial roots on the unit circle.

    With z = exp(-2*pi*i*xi), the mask is z^min(B) * p(z) / #B for the
    polynomial p with exponents B - min(B); its unit-circle roots give the
    mask zeros through xi = -arg(z)/(2*pi) mod 1.
    """
    import numpy as np

    rng = random.Random(2718281)
    for _ in range(40):
        digits = sorted(rng.sample(range(-12, 13), rng.randint(2, 5)))
        coeffs = np.zeros(digits[-1] - digits[0] + 1)
        for b in digits:
            coeffs[b - digits[0]] = 1.0
        roots = np.roots(coeffs[::-1])
        circle = roots[np.abs(np.abs(roots) - 1.0) <= 1e-8]
        oracle = sorted({round((-np.angle(z) / (2 * np.pi)) % 1.0, 9) for z in circle})
        got = mask_zeros(digits, 0.0, 1.0 - 1e-9)
        assert len(got) == len(oracle), (digits, got.roots, oracle)
        for a, b in zip(got.roots, oracle):
            assert abs(a - b) < 1e-6, (digits, got.roots, oracle)


def mpmath_mask_zeros(digits):
    """Distinct mask zeros in [0, 1): the unit-circle roots of
    sum_b z^(b - min B) from mpmath.polyroots at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    coeffs = [0] * (max(digits) - min(digits) + 1)
    for b in digits:
        coeffs[max(digits) - b] += 1
    with mpmath.workdps(30):
        # the extra bits let Durand-Kerner converge on double roots as well;
        # the numpy start only saves iterations
        start = [mpmath.mpc(complex(z)) for z in np.roots(coeffs)]
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=110, roots_init=start)
        zeros = []
        for z in roots:
            x = -mpmath.arg(z) / (2 * mpmath.pi) % 1
            if abs(abs(z) - 1) < 1e-20 and all(abs(x - y) > 1e-20 for y in zeros):
                zeros.append(x)
    return sorted(Fraction(int(man)) * Fraction(2) ** exp for man, exp in (x.man_exp for x in zeros))


def assert_zeros_enclosed(digits, want):
    got = mask_zeros(digits, 0.0, 1.0 - 1e-9)
    assert len(got) == len(want), (digits, got.roots, [float(x) for x in want])
    for e, x in zip(got.entries, want):
        assert abs(Fraction(e.root) - x) <= e.radius, (digits, e, float(x))


_rng = random.Random(1618)
MPMATH_SETS = [(-5, 0, 8, 13), (-12, -1, 0, 11)] + [
    tuple(sorted(_rng.sample(range(-12, 13), _rng.randint(2, 5)))) for _ in range(16)
]


@pytest.mark.parametrize("digits", MPMATH_SETS)
def test_mask_zeros_against_mpmath_oracle(digits):
    """Every zero is found and every radius contains the 30-digit root."""
    assert_zeros_enclosed(digits, mpmath_mask_zeros(digits))


@pytest.mark.parametrize("steps", [(1, 3), (1, 3, 9), (2, 6), (1, 2), (3, 9, 27), (1, 1)])
def test_mask_zeros_product_sets_exact(steps):
    """B = {0,k_1} + ... + {0,k_r} gives M_B = prod M_{0,k}, which vanishes exactly
    at the (2j+1)/(2k); a k shared by two factors is a repeated root."""
    digits = [sum(c) for c in product(*((0, k) for k in steps))]
    want = sorted({Fraction(2 * j + 1, 2 * k) for k in steps for j in range(k)})
    assert_zeros_enclosed(digits, want)


def test_mask_zeros_translation_invariant():
    # shifting B multiplies the mask by a unimodular factor, leaving the zeros
    digits = (0, 5, 13, 18)
    base = mask_zeros(digits, 0.0, 1.0)
    assert len(base) == 17
    for s in range(-3, 4):
        got = mask_zeros([b + s for b in digits], 0.0, 1.0)
        assert got.roots == pytest.approx(base.roots, abs=1e-15), s


@pytest.mark.parametrize("B", [(0, 2), (0, 3, 6), (-7, -4, -1)])
def test_roots_are_taken_on_the_reduced_polynomial(B, monkeypatch):
    # p(z) = q(z^g) for g = gcd(B - B): numpy.roots gets q, of degree span/g,
    # and the zeros match the full-degree path's, taken with g read as 1
    degrees, roots = [], np.roots
    monkeypatch.setattr(np, "roots", lambda s: degrees.append(len(s) - 1) or roots(s))
    reduced = _zeros_in_unit_period(B, DEFAULT_RESIDUAL_TOL)
    with monkeypatch.context() as m:
        m.setattr(convspec.zeros, "_digits", lambda b: _digits(b)._replace(gcd=1))
        full = _zeros_in_unit_period(B, DEFAULT_RESIDUAL_TOL)
    span, g = max(B) - min(B), _digits(B).gcd
    assert g > 1 and degrees == [span // g, span]
    assert len(reduced) == len(full) == span
    for got, want in zip(reduced, full):
        assert got.root == pytest.approx(want.root, abs=4e-16)
        assert got.radius == pytest.approx(want.radius, rel=1e-6)


def test_root_finding_budget_counts_the_reduced_degree(monkeypatch):
    # span 10^5 at gcd 1 is past the budget; at gcd 10^5 it is a linear q
    monkeypatch.setattr(np, "roots", lambda *a: pytest.fail("np.roots was called"))
    with pytest.raises(ValueError, match="span 100000 and degree 100000 needs more"):
        mask_zeros([0, 1, 100000], 0.0, 1.0)
    # the up to span zeros count too: a linear q at span 10^10 is past it,
    # and 20,000 digits are turned away before any pair of them is counted
    monkeypatch.setattr(np, "arange", lambda *a: pytest.fail("np.arange was called"))
    with pytest.raises(ValueError, match="span 10000000000 and degree 1 needs more"):
        mask_zeros([0, 10**10], 0.0, 1.0)
    misses = _pairs.cache_info().misses
    with pytest.raises(ValueError, match="span 19999 and degree 19999 needs more"):
        mask_zeros(range(20000), 0.0, 1.0)
    assert _pairs.cache_info().misses == misses
    monkeypatch.undo()
    want = [(2 * j + 1) / 200000 for j in range(10)]
    assert mask_zeros([0, 100000], 0.0, 1e-4).roots == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("B", [(11, 13), (1000, 1002), (-7, -4, -1)])
def test_moduli_do_not_see_a_translation(B, monkeypatch):
    # the residual check and the survivor test read |mask| of B's offsets,
    # which has no min B phase to round: bit-equal for B and B + s, where
    # |mask| of B itself moves in the last bits
    lows, mask_ = [], convspec.zeros.mask
    monkeypatch.setattr(convspec.zeros, "mask", lambda b, x: lows.append(min(b)) or mask_(b, x))
    y = np.random.default_rng(95).uniform(-1, 1, 100_000)
    base = np.abs(mask_(_digits(B).offsets, y))
    roots = _zeros_in_unit_period(B, DEFAULT_RESIDUAL_TOL)
    for s in (-min(B), 1, -40, 10**6):
        moved = tuple(b + s for b in B)
        assert np.array_equal(np.abs(mask_(_digits(moved).offsets, y)), base), s
        assert _zeros_in_unit_period(moved, DEFAULT_RESIDUAL_TOL) == roots, s
    family = (HadamardTriple(len(B), tuple(range(len(B))), tuple(range(len(B)))),
              HadamardTriple(2 * len(B), B, tuple(range(0, 2 * len(B), 2))))
    spec = ConvolutionSpec(family, SelectionWord(period=(1, 2)))
    trace = zero_propagation(spec, 0.3, 6)
    for s in (-min(B), 1, 10**6):
        moved = ConvolutionSpec((family[0], translate_triple(family[1], s, 0)), spec.word)
        assert zero_propagation(moved, 0.3, 6) == trace, s
    assert lows and set(lows) == {0}


def test_propagation_counts_match_the_benchmark_reference(tmp_path):
    # the benchmark's known answer: counts from a cmath loop over the digits
    # b themselves, at every seed's translated mixed family and start point
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    steps = workloads.FULL.propagation_steps
    for seed in range(1, 21):
        ctx = workloads.make_context(seed, workloads.FULL, tmp_path)
        want = workloads.reference_orbit_counts(
            ctx.families["mixed"], workloads.WORDS["mixed"]["period"], ctx.xi0, steps)
        assert zero_propagation(ctx.spec("mixed"), ctx.xi0, steps).counts == want, seed


def test_mask_zeros_rejects_non_integer_digits():
    with pytest.raises(ValueError, match="must be integers"):
        mask_zeros([0, 2.5], 0.0, 1.0)


def test_zero_free_radius_examples():
    def zero_free_radius(B):
        return _zero_free_radius(_zeros_in_unit_period(B, DEFAULT_RESIDUAL_TOL))

    assert zero_free_radius([0, 2]) == pytest.approx(1 / 8, abs=1e-10)
    assert zero_free_radius([0, 1]) == pytest.approx(1 / 4, abs=1e-10)
    assert zero_free_radius([0, 3]) == pytest.approx(1 / 12, abs=1e-10)
    assert zero_free_radius([0, 1, 3]) == math.inf


def test_enumerate_zero_products_jp():
    fam = (HadamardTriple(4, (0, 2), (0, 1)),)
    r = enumerate_zero_products(fam, 2.0)
    want = sorted([0.25, 0.75, 1.25, 1.75, -0.25, -0.75, -1.25, -1.75, 1.0, -1.0])
    assert len(r) == 10
    assert r.roots == pytest.approx(want, abs=1e-9)


def test_enumerate_zero_products_below_radius_empty():
    fam = (HadamardTriple(4, (0, 2), (0, 1)), HadamardTriple(2, (0, 1), (0, 1)))
    # both zero-free radii are >= 1/8; below them nothing reaches [-h, h]
    r = enumerate_zero_products(fam, 0.05)
    assert len(r) == 0


def test_enumerate_zero_products_negation_symmetry():
    fam = (HadamardTriple(2, (0, 1), (0, 1)),)
    r = enumerate_zero_products(fam, 3.0)
    roots = set(round(x, 9) for x in r.roots)
    assert roots == set(round(-x, 9) for x in r.roots)
    assert roots == {0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 1.0, -1.0, 3.0, -3.0, 2.0, -2.0}


def test_enumerate_zero_products_family_order_invariant():
    a = (HadamardTriple(2, (0, 1), (0, 1)), HadamardTriple(3, (0, 1, 2), (0, 1, 2)))
    b = tuple(reversed(a))
    ra = enumerate_zero_products(a, 2.5)
    rb = enumerate_zero_products(b, 2.5)
    assert len(ra) == len(rb)
    assert ra.roots == pytest.approx(rb.roots, abs=1e-9)


def test_enumerate_zero_products_keeps_largest_merged_radius():
    # 1.0 = 2 * 0.5 = 3 * (1/3): points reached through several scale products
    fam = (HadamardTriple(2, (0, 1), (0, 1)), HadamardTriple(3, (0, 1, 2), (0, 1, 2)))
    h = 4.0
    raw = []
    for t in fam:
        for a, b in product(range(7), repeat=2):
            s = 2**a * 3**b
            raw += [(s * e.root, s * e.radius) for e in mask_zeros(t.B, -h / s, h / s).entries]
    r = enumerate_zero_products(fam, h)
    grouped = 0
    for e in r.entries:
        group = [rad for x, rad in raw if abs(x - e.root) < 1e-9]
        assert e.radius == max(group)
        grouped += len(group)
    assert grouped == len(raw)
    assert len(raw) > len(r)  # some points were merged


def test_non_finite_inputs_are_rejected(jp_spec):
    # an infinite range used to loop forever; NaN gave empty or false verdicts
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            mask_zeros((0, 2), lo, hi)
    for h in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            enumerate_zero_products(jp_spec.family, h)
    for xi in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            integral_periodic_zero_probe(jp_spec, xi)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_tolerances_must_be_finite_and_nonnegative(jp_spec, tol):
    # NaN and negative tolerances gave false verdicts: a NaN probe tolerance
    # made |mu^(1/2)| = 0.69 a candidate zero, a negative one a witness of 0
    with pytest.raises(ValueError, match="residual_tol must be finite and >= 0"):
        mask_zeros((0, 2), 0.0, 1.0, residual_tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        integral_periodic_zero_probe(jp_spec, 0.5, tol=tol)


def test_zero_tolerances_are_accepted(jp_spec):
    assert len(mask_zeros((0, 2), 0.0, 1.0, residual_tol=0.0)) <= 2
    assert integral_periodic_zero_probe(jp_spec, 0.5, tol=0.0).is_witness


def test_probe_jp_witness_at_one(jp_spec):
    v = integral_periodic_zero_probe(jp_spec, 1.0, K=3, depth=40, tol=1e-6)
    assert v.is_witness
    assert v.witness_k == 1  # k=0 hits the mask zero, k=1 is the first escape
    assert v.witness_value > 1e-6


def test_probe_zero_is_trivial_witness(mixed_spec):
    v = integral_periodic_zero_probe(mixed_spec, 0.0, K=2, depth=20)
    assert v.is_witness and v.witness_k == 0
    assert v.witness_value == pytest.approx(1.0)


def test_probe_candidate_zero_on_uniform_word(e14_tail_spec):
    v = integral_periodic_zero_probe(e14_tail_spec, 1 / 3, K=8, depth=40, tol=1e-6)
    assert not v.is_witness
    assert v.max_value <= 1e-6
    assert v.evidence == "numeric"


def test_search_order_checks_its_window_against_the_budget(monkeypatch):
    monkeypatch.setattr(convspec.convolution, "_BUDGET_BYTES", 64 * 17)
    assert len(search_order(8)) == 17
    with pytest.raises(ValueError, match="K = 9 needs more than its budget of 1088 bytes"):
        search_order(9)


def test_probe_in_chunks_matches_one_chunk(monkeypatch, jp_spec, mixed_spec, e14_tail_spec):
    # the chunks are searched in order, so the first witness, or else the
    # first maximum, is the one of the whole window
    cases = [(jp_spec, 0.3, 1e-6), (jp_spec, 1.0, 1e-6), (jp_spec, 2.75, 0.9),
             (mixed_spec, 0.4, 0.99), (e14_tail_spec, 1 / 3, 1e-6), (e14_tail_spec, 0.2, 1.0)]
    whole = [integral_periodic_zero_probe(s, xi, K=10, tol=tol) for s, xi, tol in cases]
    for shifts in (2, 3, 5):
        for (spec, xi, tol), want in zip(cases, whole):
            width = _Window.of(spec, 10, 40).width
            monkeypatch.setattr(convspec.zeros, "_SIDE_BYTES", 8 * width * shifts)
            assert integral_periodic_zero_probe(spec, xi, K=10, tol=tol) == want
    assert [v.is_witness for v in whole] == [True, True, True, False, False, False]


def test_propagation_fixed_point_at_zero(mixed_spec):
    tr = zero_propagation(mixed_spec, 0.0, steps=5)
    assert all(0.0 in s for s in tr.sets)
    assert all(tr.integer_flags)


def test_propagation_invariants_random():
    rng = random.Random(71)
    for _ in range(20):
        spec = random_spec(rng)
        xi0 = rng.uniform(-2.0, 2.0)
        steps = rng.randint(2, 6)
        tr = zero_propagation(spec, xi0, steps=steps)
        assert tr.counts == tuple(sorted(tr.counts)), "cardinality must not decrease"
        limit = abs(xi0) + 2.0 + 1e-9
        assert all(abs(v) <= limit for s in tr.sets for v in s)
        caps = [
            math.prod(len(spec.triple_at(k).L) for k in range(1, n + 1))
            for n in range(steps + 1)
        ]
        assert all(c <= cap for c, cap in zip(tr.counts, caps))


def propagation_sets_by_scalar_loop(spec, xi0, steps, tol=1e-6):
    """Y_n one candidate at a time, each with its own scalar mask call."""
    ys = [(float(xi0),)]
    for t, scale, _ in spec.factors(steps):
        nxt = []
        for x in ys[-1]:
            for l in t.L:
                tau = (x + scale // t.N * (l % abs(t.N))) / scale
                if abs(mask(t.B, tau)) > tol:
                    nxt.append(tau)
        kept = []
        for v in sorted(nxt):
            if not kept or abs(v - kept[-1]) >= 1e-12:
                kept.append(v)
        ys.append(tuple(kept))
    return tuple(ys)


def test_propagation_matches_scalar_loop_random():
    rng = random.Random(4242)
    for _ in range(40):
        spec = random_spec(rng)
        xi0 = rng.uniform(-2.0, 2.0)
        steps = rng.randint(2, 5)
        tr = zero_propagation(spec, xi0, steps=steps)
        assert tr.sets == propagation_sets_by_scalar_loop(spec, xi0, steps)


def propagation_by_complex_mask(spec, xi0, steps):
    """The complex-mask zero_propagation: |M_B| over every (point, frequency) pair."""
    y = np.array([float(xi0)])
    ys = [(float(xi0),)]
    flags = [abs(xi0 - round(xi0)) <= convspec.zeros.DEFAULT_INTEGER_TOL]
    for t, scale, _ in spec.factors(steps):
        l_eff = [float(scale // t.N * (l % abs(t.N))) for l in t.L]
        tau = np.add.outer(y, l_eff).ravel() / float(scale)
        alive = np.abs(mask(_digits(t.B).offsets, tau)) > convspec.zeros.DEFAULT_PROBE_TOL
        y = _merge_close(np.sort(tau[alive], kind="stable"))
        ys.append(tuple(y.tolist()))
        flags.append(bool(np.any(np.abs(y - np.round(y)) <= convspec.zeros.DEFAULT_INTEGER_TOL)))
    return tuple(ys), tuple(len(s) for s in ys), tuple(flags)


def test_propagation_matches_the_complex_mask(jp_spec, e14_spec, mixed_spec):
    # the squared kernel decides |M_B| > 1e-6 as the complex mask does, and
    # the frequency-major candidates sort to the same floats: repr tells
    # 0.0 from -0.0, which == does not
    rng = random.Random(38)
    cases = [(spec, rng.uniform(-4.0, 4.0), 12) for spec in (jp_spec, e14_spec, mixed_spec)
             for _ in range(12)]
    cases += [(random_spec(rng), rng.uniform(-2.0, 2.0), rng.randint(2, 7)) for _ in range(60)]
    for spec, xi0, steps in cases:
        tr = zero_propagation(spec, xi0, steps)
        want = propagation_by_complex_mask(spec, xi0, steps)
        assert repr((tr.sets, tr.counts, tr.integer_flags)) == repr(want), (spec, xi0)


@pytest.mark.parametrize("ratio, survivors", [(1.01, 2), (0.99, 1)])
def test_propagation_threshold_outside_its_rounding_band(jp_spec, ratio, survivors):
    # jp's first step maps xi0 = 1 - 4d to 1/4 - d, where |M_B| = |sin(2 pi d)|,
    # and to 1/2 - d, where |M_B| is near 1: 1 % off the threshold lies well
    # outside the squared kernel's band of about 0.07 %
    d = math.asin(ratio * convspec.zeros.DEFAULT_PROBE_TOL) / (2 * math.pi)
    tr = zero_propagation(jp_spec, 1.0 - 4.0 * d, 1)
    assert tr.counts == (1, survivors)
    assert tr.counts == propagation_by_complex_mask(jp_spec, 1.0 - 4.0 * d, 1)[1]


def merge_by_loop(xs):
    """Greedy merge of sorted values: drop each within 1e-12 of the last kept."""
    kept = []
    for v in xs.tolist():
        if not kept or abs(v - kept[-1]) >= 1e-12:
            kept.append(v)
    return kept


def test_merge_close_matches_the_greedy_loop_on_chains():
    # on a chain spaced 0.6e-12 the greedy merge keeps every second value,
    # and spaced 0.4e-12 every third; np.diff alone would keep only the first
    rng = random.Random(12)
    for _ in range(20):
        parts = [np.array([rng.uniform(-3.0, 3.0) for _ in range(rng.randint(0, 30))])]
        for step in (0.6e-12, 0.4e-12):
            for _ in range(rng.randint(1, 4)):
                parts.append(rng.uniform(-3.0, 3.0) + step * np.arange(rng.randint(2, 12)))
        xs = np.sort(np.concatenate(parts))
        assert _merge_close(xs).tolist() == merge_by_loop(xs)
    chain = 0.5 + 0.6e-12 * np.arange(7)
    assert _merge_close(chain).tolist() == chain[::2].tolist()
    assert np.sum(np.diff(chain) >= 1e-12) == 0  # np.diff alone keeps 1, not 4
    assert _merge_close(np.array([])).size == 0


def test_propagation_needs_a_finite_start(jp_spec):
    # NaN raised from round and inf overflowed; a vectorized integer flag
    # would turn NaN into an empty orbit
    for xi0 in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="xi0 must be finite"):
            zero_propagation(jp_spec, xi0, steps=3)


def test_propagation_trace_shape(e14_tail_spec):
    tr = zero_propagation(e14_tail_spec, 1 / 3, steps=6)
    assert len(tr.sets) == 7
    assert len(tr.counts) == 7
    assert len(tr.integer_flags) == 7
    assert tr.envelope == pytest.approx(1 / 3 + 2.0)
