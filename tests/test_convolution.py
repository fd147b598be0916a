"""Exact finite levels, mask products, tails, and truncation bounds."""

import cmath
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from convspec import (
    ConvolutionSpec,
    DepthTooLargeError,
    DiscreteMeasure,
    HadamardTriple,
    SelectionWord,
    TailSpec,
    block_frequencies,
    cdf,
    compose_triples,
    convolve,
    finite_level,
    fourier_finite,
    fourier_tail,
    mask,
    normalize_frequencies,
    tail_truncation_bound,
    zero_propagation,
)
import convspec.convolution
from convspec.convolution import _inv_float
from conftest import random_spec

F = Fraction


# --- independent oracles -------------------------------------------------

def enumerate_level_oracle(spec, n):
    """Atoms of the n-factor truncation by direct enumeration over digit choices."""
    scales = []
    p = 1
    digit_sets = []
    for k in range(1, n + 1):
        t = spec.triple_at(k)
        p *= t.N ** spec.exponent_at(k)
        scales.append(p)
        digit_sets.append(t.B)
    acc = {}
    w = F(1, math.prod(len(b) for b in digit_sets))
    for combo in product(*digit_sets):
        pos = sum(F(b, s) for b, s in zip(combo, scales))
        acc[pos] = acc.get(pos, F(0)) + w
    return acc


def brute_force_transform(measure, xi):
    return sum(
        float(w) * cmath.exp(-2j * math.pi * float(p) * xi) for p, w in measure.atoms
    )


def uniform_0_3_transform(xi):
    """Closed form for the uniform probability measure on [0, 3]."""
    if xi == 0:
        return 1.0 + 0j
    return (1 - cmath.exp(-6j * math.pi * xi)) / (6j * math.pi * xi)


# --- selection words ------------------------------------------------------

def test_word_indexing_and_shift():
    w = SelectionWord(prefix=(1,), period=(2, 3), exp_prefix=(2,), exp_period=(1,))
    assert [w.symbol(k) for k in range(1, 8)] == [1, 2, 3, 2, 3, 2, 3]
    assert [w.exponent(k) for k in range(1, 5)] == [2, 1, 1, 1]
    s = w.shifted(2)
    assert [s.symbol(k) for k in range(1, 6)] == [3, 2, 3, 2, 3]
    assert [s.exponent(k) for k in range(1, 4)] == [1, 1, 1]
    s0 = w.shifted(0)
    assert [s0.symbol(k) for k in range(1, 6)] == [w.symbol(k) for k in range(1, 6)]


def test_word_validation():
    with pytest.raises(ValueError):
        SelectionWord(period=())
    with pytest.raises(ValueError):
        SelectionWord(period=(0,))
    with pytest.raises(ValueError):
        SelectionWord(period=(1,), exp_period=(0,))


def test_word_rejects_non_integer_entries():
    # int() would truncate these to word 12 with exponent 2
    with pytest.raises(ValueError, match="word symbols must be integers"):
        SelectionWord(period=(1.7, 2.2))
    with pytest.raises(ValueError, match="exponents must be integers"):
        SelectionWord(period=(1,), exp_period=(2.9,))


def test_word_shift_matches_offset_random():
    rng = random.Random(11)
    for _ in range(50):
        spec = random_spec(rng)
        w = spec.word
        n = rng.randint(0, 7)
        s = w.shifted(n)
        for k in range(1, 12):
            assert s.symbol(k) == w.symbol(n + k)
            assert s.exponent(k) == w.exponent(n + k)


# --- finite levels --------------------------------------------------------

def test_finite_level_jp_examples(jp_spec):
    m1 = finite_level(jp_spec, 1)
    assert dict(m1.atoms) == {F(0): F(1, 2), F(1, 2): F(1, 2)}
    m2 = finite_level(jp_spec, 2)
    assert dict(m2.atoms) == {F(0): F(1, 4), F(1, 8): F(1, 4), F(1, 2): F(1, 4), F(5, 8): F(1, 4)}


def test_finite_level_matches_enumeration_oracle(jp_spec, e14_spec, mixed_spec):
    for spec in (jp_spec, e14_spec, mixed_spec):
        for n in (1, 2, 4):
            assert dict(finite_level(spec, n).atoms) == enumerate_level_oracle(spec, n)


def test_finite_level_recursion_exact(mixed_spec):
    for n in (1, 2, 3):
        t = mixed_spec.triple_at(n + 1)
        p = mixed_spec.scale_product(n + 1)
        step = DiscreteMeasure(tuple(sorted(t.B)), p, (1,) * len(t.B))  # uniform on B / p
        assert convolve(finite_level(mixed_spec, n), step) == finite_level(mixed_spec, n + 1)


def test_finite_level_rejects_bad_depth(jp_spec, monkeypatch):
    with pytest.raises(ValueError):
        finite_level(jp_spec, 0)
    monkeypatch.setattr(convspec.convolution, "MAX_DENOMINATOR_BITS", 16)
    with pytest.raises(DepthTooLargeError):
        finite_level(jp_spec, 40)


def test_finite_level_budget_names_first_level_past_it(jp_spec, monkeypatch):
    # P_k = 4^k has 2k + 1 bits, so a 16-bit budget runs out at level 8
    monkeypatch.setattr(convspec.convolution, "MAX_DENOMINATOR_BITS", 16)
    for n in (8, 40, 10**9):
        with pytest.raises(DepthTooLargeError, match="16 bits at level 8$"):
            finite_level(jp_spec, n)
    assert len(finite_level(jp_spec, 7)) == 2**7
    for bits in (0, 1, 2):
        monkeypatch.setattr(convspec.convolution, "MAX_DENOMINATOR_BITS", bits)
        with pytest.raises(DepthTooLargeError, match="at level 1$"):
            finite_level(jp_spec, 3)


def test_finite_level_atom_budget_fails_before_building(mixed_spec, monkeypatch):
    # 2^9 3^9 atoms at level 18 pass 2^22, while P_20 has only 26 bits
    def no_merge(*args, **kwargs):
        raise AssertionError("finite_level merged atoms before its budget check")

    monkeypatch.setattr(np, "unique", no_merge)
    for n in (18, 20):
        with pytest.raises(DepthTooLargeError, match="atoms exceed 4194304 at level 18$"):
            finite_level(mixed_spec, n)


def test_finite_level_budget_walks_no_factor_past_it(jp_spec, mixed_spec, monkeypatch):
    # both budgets run out by level 23, so no long factor table may be formed
    factors = ConvolutionSpec.factors

    def short_factors(self, n):
        if n > 64:
            raise AssertionError(f"finite_level asked for {n} factor positions")
        return factors(self, n)

    monkeypatch.setattr(ConvolutionSpec, "factors", short_factors)
    with pytest.raises(DepthTooLargeError, match="atoms exceed 4194304 at level 18$"):
        finite_level(mixed_spec, 10**6)
    with pytest.raises(DepthTooLargeError, match="atoms exceed 4194304 at level 23$"):
        finite_level(jp_spec, 10**6)


def test_weight_sums_exactly_one_random():
    rng = random.Random(23)
    for _ in range(20):
        spec = random_spec(rng)
        mu = finite_level(spec, rng.randint(1, 5))
        assert sum(w for _, w in mu.atoms) == 1


def test_finite_level_is_the_reduced_lattice_of_the_oracle(jp_spec, e14_spec, mixed_spec):
    # dataclass equality is measure equality only in reduced form: jp's raw
    # numerators over 4^n are all even, so its lattice divides down to
    # 2 * 4^(n-1); a non-Hadamard digit set {0, 1, 2} merges atoms into counts
    rng = random.Random(29)
    collide = ConvolutionSpec((HadamardTriple(2, (0, 1, 2), (0, 1, 2)),), SelectionWord())
    specs = [jp_spec, e14_spec, mixed_spec, collide] + [random_spec(rng) for _ in range(10)]
    for spec in specs:
        for n in (1, 2, 4):
            mu = finite_level(spec, n)
            assert dict(mu.atoms) == enumerate_level_oracle(spec, n)
            assert math.gcd(mu.denominator, *mu.numerators) == 1
            assert math.gcd(*mu.counts) == 1
            assert list(mu.numerators) == sorted(set(mu.numerators))
    assert finite_level(jp_spec, 4).denominator == 2 * 4**3
    assert finite_level(collide, 2).counts == (1, 1, 2, 1, 2, 1, 1)


def test_lattice_fields_reduce_on_construction():
    # raw numerators and raw counts that share a factor
    raw = DiscreteMeasure((0, 2, 4), 8, (2, 4, 2))
    assert (raw.numerators, raw.denominator, raw.counts) == ((0, 1, 2), 4, (1, 2, 1))
    assert raw.atoms == ((F(0), F(1, 4)), (F(1, 4), F(1, 2)), (F(1, 2), F(1, 4)))
    assert DiscreteMeasure((-6,), 4, (3,)) == DiscreteMeasure((-3,), 2, (1,))


def test_weights_are_correctly_rounded_past_2_72(jp_spec):
    jp3 = ConvolutionSpec(jp_spec.family, SelectionWord(exp_period=(3,)))
    mu = finite_level(jp3, 12)
    assert mu.denominator.bit_length() == 72
    assert mu.weights().tolist() == [float(w) for _, w in mu.atoms]


def test_weights_divide_in_numpy_bit_for_bit(jp_spec, mixed_spec):
    # mixed L5 and jp exponent 3 L8 (m = 9 and 8), and counts just under
    # 2^53 in all: one numpy division against a Python division per count
    jp3 = ConvolutionSpec(jp_spec.family, SelectionWord(exp_period=(3,)))
    rng = random.Random(53)
    counts = [rng.randrange(1, 2**50) for _ in range(7)]
    counts.append(2**53 - 1 - sum(counts))
    wide = DiscreteMeasure(tuple(range(8)), 8, tuple(counts))
    for mu in (finite_level(mixed_spec, 9), finite_level(jp3, 8), wide):
        total = sum(mu.counts)
        assert 1 < total < 2**53
        want = np.array([c / total for c in mu.counts])
        assert np.array_equal(mu.weights().view(np.int64), want.view(np.int64))


def test_weights_sum_exactly_one_past_the_double_range():
    # the counts are past the double range; each weight is their rounded quotient
    mu = DiscreteMeasure((0, 1), 1, (2**1100 - 1, 1))
    assert sum(w for _, w in mu.atoms) == 1
    assert mu.weights().tolist() == [1.0, 0.0]


@pytest.mark.parametrize(
    "fields, message",
    [
        (((0, 1), 2, (1,)), "equal nonzero lengths"),
        (((), 1, ()), "equal nonzero lengths"),
        (((0,), 0, (1,)), "denominator must be >= 1"),
        (((0,), -2, (1,)), "denominator must be >= 1"),
        (((1, 0), 1, (1, 1)), "strictly increase"),
        (((0, 0), 2, (1, 1)), "strictly increase"),
        (((2**70, 0), 1, (1, 1)), "strictly increase"),
        (((0, 1), 2, (1, 0)), "counts must be positive"),
        (((0, 1), 2, (1, -1)), "counts must be positive"),
    ],
)
def test_lattice_fields_are_checked_on_construction(fields, message):
    # (1, 0) over 1 once passed, and its cdf at 0 read 1 instead of 1/2
    with pytest.raises(ValueError, match=message):
        DiscreteMeasure(*fields)


def test_lattice_fields_from_integer_arrays_match_tuples():
    mu = DiscreteMeasure(np.array([-3, 1, 5]), 8, np.array([2, 4, 2]))
    assert mu == DiscreteMeasure((-3, 1, 5), 8, (1, 2, 1))
    assert all(type(v) is int for v in mu.numerators + mu.counts)
    big = DiscreteMeasure(np.array([0, 2**70], dtype=object), 2**71 + 1, np.array([1, 1]))
    assert big.numerators == (0, 2**70)


# --- convolution ----------------------------------------------------------

def test_convolve_identity(jp_spec):
    mu = finite_level(jp_spec, 3)
    assert convolve(DiscreteMeasure((0,), 1, (1,)), mu) == mu


def test_convolve_example():
    a = DiscreteMeasure((0, 1), 2, (1, 1))
    b = DiscreteMeasure((0, 1), 8, (1, 1))
    c = convolve(a, b)
    assert dict(c.atoms) == {F(0): F(1, 4), F(1, 8): F(1, 4), F(1, 2): F(1, 4), F(5, 8): F(1, 4)}


def convolve_reference(a, b):
    """Atoms of a * b by a Fraction sum over the pairs of atoms."""
    acc = {}
    for pa, wa in a.atoms:
        for pb, wb in b.atoms:
            acc[pa + pb] = acc.get(pa + pb, F(0)) + wa * wb
    return acc


def test_convolve_merges_exact_counts_on_the_common_lattice():
    # the count products pass 2^53, so a float merge would round them; the
    # lattices Z/4 and Z/6 meet on Z/12, where 0 + 6 and 6 + 0 collide
    big = 2**40 + 1
    a = DiscreteMeasure((-1, 0, 1, 2), 4, (big, 3, 2**41 + 7, 1))
    b = DiscreteMeasure((0, 1, 3), 6, (big, 5, big + 2))
    c = convolve(a, b)
    assert c.denominator == 12
    assert len(c) < len(a) * len(b)
    assert max(c.counts) > 2**80
    assert dict(c.atoms) == convolve_reference(a, b)
    assert convolve(b, a) == c


def test_convolve_transform_is_product_of_transforms():
    rng = random.Random(31)
    a = DiscreteMeasure((-8, 0, 3), 12, (1, 1, 1))  # -2/3, 0, 1/4
    b = DiscreteMeasure((7, 10), 14, (1, 1))  # 1/2, 5/7
    c = convolve(a, b)
    for _ in range(20):
        xi = rng.uniform(-10, 10)
        lhs = brute_force_transform(c, xi)
        rhs = brute_force_transform(a, xi) * brute_force_transform(b, xi)
        assert abs(lhs - rhs) < 1e-12


def test_colliding_atoms_merge():
    a = DiscreteMeasure((0, 1), 1, (1, 1))
    c = convolve(a, a)
    assert dict(c.atoms) == {F(0): F(1, 4), F(1): F(1, 2), F(2): F(1, 4)}


# --- masks and transforms ---------------------------------------------------

def test_mask_values():
    assert mask([0, 2], 0.0) == pytest.approx(1.0)
    assert abs(mask([0, 2], 0.25)) < 1e-15
    assert abs(mask([0, 1], 0.5)) < 1e-15


def test_mask_period_and_bound():
    rng = random.Random(3)
    for _ in range(50):
        b = rng.sample(range(-8, 9), rng.randint(1, 5))
        xi = rng.uniform(-5, 5)
        assert abs(mask(b, xi)) <= 1.0 + 1e-12
        assert mask(b, xi) == pytest.approx(mask(b, xi + 1.0), abs=1e-9)


def exp_sum_mask(B, xi):
    """Reference: one exp per digit, averaged."""
    return np.exp(-2j * np.pi * np.outer(np.asarray(B, float), np.atleast_1d(xi))).mean(0)


def random_digit_sets(rng, count):
    fixed = [[0], [0, 3], [0, 2, 7], [-6, -2], [-5, -4, -1], [-6, 9], [4, 5, 9]]
    drawn = [rng.sample(range(-6, 10), rng.randint(1, 5)) for _ in range(count)]
    return fixed + drawn


def test_mask_matches_exp_sum_reference():
    # Both formulas round the phase argument, so the error grows with |b*xi|.
    rng = random.Random(11)
    nrng = np.random.default_rng(11)
    for B in random_digit_sets(rng, 60):
        for radius in (1.0, 100.0):
            xi = nrng.uniform(-radius, radius, 64)
            tol = 1e-14 * (1 + max(abs(b) for b in B) * np.abs(xi))
            got = mask(B, xi)
            assert isinstance(got, np.ndarray) and got.shape == xi.shape
            assert np.all(np.abs(got - exp_sum_mask(B, xi)) <= tol)
            scalar = mask(B, float(xi[0]))
            assert isinstance(scalar, complex)
            assert abs(scalar - exp_sum_mask(B, xi[0])[0]) <= tol[0]
    grid = np.array([[0.1, -0.4], [2.5, 7.0]])
    assert mask((0, 1, 2), grid).shape == (2, 2)


def test_mask_conjugate_symmetry_is_exact():
    # choose_k breaks the tie at x = 1/2 (N = 2) toward k = 0 only if
    # |tail(1/2)| and |tail(-1/2)| agree to the last bit.
    rng = random.Random(12)
    nrng = np.random.default_rng(12)
    for B in random_digit_sets(rng, 40):
        xi = np.concatenate([nrng.uniform(-50, 50, 64), [0.5, 0.25, 1 / 3, 0.0]])
        assert np.array_equal(mask(B, -xi), np.conj(mask(B, xi)))
        for x in xi[-4:]:
            assert mask(B, -float(x)) == mask(B, float(x)).conjugate()


def test_mask_memory_does_not_depend_on_digit_shift():
    # Translating B moves min B across 0; the negative side must not cost an
    # extra array, or a run's peak memory depends on the drawn translates.
    xi = np.linspace(-2.0, 2.0, 100_000)
    peaks = []
    for shift in range(-3, 4):
        B = (shift, shift + 2)
        mask(B, xi)  # fills the digit-polynomial cache outside the measurement
        tracemalloc.start()
        mask(B, xi)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert max(peaks) - min(peaks) < 8 * xi.size  # half of one complex array


def test_mask_rejects_bad_digits():
    with pytest.raises(ValueError, match="integers"):
        mask([0, 1.5], 0.1)
    mask([0, 2], 0.1)  # (0.0, 2.0) is equal to this call's cached (0, 2)
    with pytest.raises(ValueError, match="integers"):
        mask([0.0, 2.0], np.array([0.1, 0.2]))
    with pytest.raises(ValueError, match="nonempty"):
        mask([], 0.1)


def test_fourier_finite_jp_values(jp_spec):
    assert fourier_finite(jp_spec, 1, 0.0) == pytest.approx(1.0)
    assert abs(fourier_finite(jp_spec, 1, 1.0)) < 1e-15
    assert abs(fourier_finite(jp_spec, 2, 4.0)) < 1e-15


def test_fourier_finite_matches_brute_force_random():
    rng = random.Random(41)
    for _ in range(20):
        spec = random_spec(rng)
        n = rng.randint(1, 6)
        mu = finite_level(spec, n)
        for _ in range(50):
            xi = rng.uniform(-10, 10)
            assert abs(fourier_finite(spec, n, xi) - brute_force_transform(mu, xi)) < 1e-10


def test_fourier_finite_normalization_and_bound():
    rng = random.Random(43)
    for _ in range(10):
        spec = random_spec(rng)
        n = rng.randint(1, 6)
        assert fourier_finite(spec, n, 0.0) == pytest.approx(1.0, abs=0)
        xs = np.array([rng.uniform(-20, 20) for _ in range(25)])
        assert np.all(np.abs(fourier_finite(spec, n, xs)) <= 1.0 + 1e-12)


def test_offsets_form_matches_pointwise_random():
    rng = random.Random(47)
    signed = ConvolutionSpec(
        (HadamardTriple(4, (-5, -3), (0, 1)), HadamardTriple(-3, (-2, 2, 3), (0, 1, 2))),
        SelectionWord(period=(1, 2)),
    )
    specs = [signed] + [random_spec(rng) for _ in range(20)]
    assert sum(min(t.B) != 0 for s in specs for t in s.family) > 10
    off = np.array([-2.5, -1.0, 0.0, 0.5, 3.25])
    for spec in specs:
        n = rng.randint(1, 6)
        a = np.array([rng.uniform(-3, 3) for _ in range(6)])
        pts = a[:, None] + off
        got = fourier_finite(spec, n, a, off)
        assert got.shape == (6, 5)
        assert np.max(np.abs(got - fourier_finite(spec, n, pts))) < 1e-13
        tv = fourier_tail(spec, a, 20, offsets=off)
        tp = fourier_tail(spec, pts, 20)
        assert tv.value.shape == tv.bound.shape == (6, 5)
        assert np.max(np.abs(tv.value - tp.value)) < 1e-13
        assert np.array_equal(tv.bound, tp.bound)
        # a 0-d point takes the offsets' shape; 0-d with 0-d stays a scalar
        row = fourier_finite(spec, n, a[0], off)
        assert row.shape == (5,) and np.max(np.abs(row - got[0])) < 1e-13
        one = fourier_tail(spec, a[0], 20, offsets=off[0])
        assert isinstance(one.value, complex) and isinstance(one.bound, float)
        assert abs(one.value - tp.value[0, 0]) < 1e-13
        assert fourier_tail(spec, a, 20, offsets=off.reshape(5, 1)).value.shape == (6, 5, 1)


def test_squared_moduli_match_the_complex_kernel_random():
    # both kernels round each phase 2*pi*delta*(x + o)/P_k relative to its
    # size, so at large |x + o| they part by about eps * |x + o| * delta / |P_k|
    # per factor (5.5e-10 at |x| = 3e5 with digit spans of 40)
    rng = random.Random(53)
    eps = np.finfo(float).eps
    for _ in range(60):
        spec = random_spec(rng)
        factors = [(f.triple.B, f.product) for f in spec.factors(rng.randint(1, 12))]
        x = np.array([0.0] + [rng.uniform(-1, 1) * 10 ** rng.uniform(-2, 5.5) for _ in range(30)])
        o = np.array([0.0] + [rng.uniform(-3, 3) for _ in range(17)])
        got = convspec.convolution._mask_power(factors, x, o)
        want = np.abs(convspec.convolution._mask_product(factors, x, o)) ** 2
        span = max(max(B) - min(B) for B, _ in factors)
        reach = np.abs(np.add.outer(x, o)).max() * sum(abs(_inv_float(p)) for _, p in factors)
        np.testing.assert_allclose(got, want, rtol=0, atol=8 * np.pi * eps * span * reach + 1e-14)
        assert got.shape == (31, 18) and got.min() >= 0.0 and got.max() <= 1.0
        assert got[0, 0] == 1.0  # x + o = 0: every factor is exactly 1
        assert convspec.convolution._mask_power([], x, o).tolist() == np.ones((31, 18)).tolist()
    # whatever the digit count, the constant makes the weights sum to exactly 1
    for size in range(1, 13):
        B = tuple(rng.sample(range(-20, 40), size))
        zero = np.zeros(1)
        assert convspec.convolution._mask_power([(B, 5)], zero, zero).tolist() == [[1.0]], B


# --- tails ------------------------------------------------------------------

def test_tail_at_zero_is_one(jp_spec, mixed_spec):
    for spec in (jp_spec, mixed_spec):
        for skip in (0, 1, 3):
            v = fourier_tail(TailSpec(spec, skip), 0.0, 25)
            assert v.value == 1.0 + 0j
            assert v.bound == 0.0


def test_tail_at_depth_zero_is_the_empty_product(jp_spec, mixed_spec):
    # value 1 and, for its bound, the whole tail series
    x, off = np.linspace(-2.0, 2.0, 7), np.array([-0.5, 0.25, 1.5])
    for spec in (jp_spec, mixed_spec):
        tail = TailSpec(spec, 3)
        point = fourier_tail(tail, 0.3, 0)
        assert point.value == 1.0 and isinstance(point.value, complex)
        assert point.bound == tail_truncation_bound(tail, 0.3, 0)
        grid = fourier_tail(tail, x, 0, offsets=off)
        assert grid.value.shape == (7, 3) and np.all(grid.value == 1.0)
        assert np.array_equal(grid.bound, tail_truncation_bound(tail, np.add.outer(x, off), 0))
    with pytest.raises(ValueError, match="depth must be >= 0"):
        fourier_tail(TailSpec(jp_spec, 1), 0.3, -1)


def test_jp_tail_quarter_matches_cos_product_oracle(jp_spec):
    oracle = 1.0
    for k in range(1, 41):
        oracle *= math.cos(2 * math.pi / 4 ** (k + 1))
    got = fourier_tail(TailSpec(jp_spec, 2), 0.25, 40)
    assert abs(got.value) == pytest.approx(oracle, abs=1e-12)
    assert abs(got.value) == pytest.approx(0.9188, abs=5e-4)


def test_e14_tail_is_uniform_transform(e14_tail_spec):
    tail = TailSpec(e14_tail_spec, 1)
    for xi in (1.0 / 3.0, 0.2, 1.7, -0.6, 4.0 / 3.0):
        got = fourier_tail(tail, xi, 40)
        want = uniform_0_3_transform(xi)
        assert abs(got.value - want) <= got.bound + 1e-12
    at_third = fourier_tail(tail, 1.0 / 3.0, 40)
    assert abs(at_third.value) <= at_third.bound + 1e-12


def test_tail_bound_examples(jp_spec):
    tail = TailSpec(jp_spec, 3)
    assert tail_truncation_bound(tail, 0.0, 10) == 0.0
    series = 2 * math.pi * 2 * sum(4.0**-k for k in range(11, 400))
    got = tail_truncation_bound(tail, 1.0, 10)
    assert got <= series * (1 + 1e-12)
    assert got == pytest.approx(series, rel=1e-12)


def test_tail_bound_monotone_in_depth():
    rng = random.Random(53)
    for _ in range(25):
        spec = random_spec(rng)
        tail = TailSpec(spec, rng.randint(0, 3))
        xi = rng.uniform(-8, 8)
        d = rng.randint(1, 30)
        b1 = tail_truncation_bound(tail, xi, d)
        b2 = tail_truncation_bound(tail, xi, d + 1)
        assert b2 <= b1 * (1 + 1e-12)


def test_tail_stabilizes_within_bound():
    rng = random.Random(59)
    for _ in range(15):
        spec = random_spec(rng)
        tail = TailSpec(spec, rng.randint(0, 2))
        xi = rng.uniform(-5, 5)
        t = rng.randint(3, 12)
        v1 = fourier_tail(tail, xi, t)
        v2 = fourier_tail(tail, xi, 2 * t)
        assert abs(v2.value - v1.value) <= v1.bound + 1e-12


# --- the factor table and what reads it -------------------------------------

def test_factor_table_matches_word_random():
    rng = random.Random(61)
    for _ in range(25):
        spec = random_spec(rng)
        n = rng.randint(0, 12)
        table = spec.factors(n)
        assert len(table) == n
        p = 1
        for k, f in enumerate(table, start=1):
            t = spec.triple_at(k)
            p *= t.N ** spec.exponent_at(k)
            assert f == (t, t.N ** spec.exponent_at(k), p)
        assert spec.scale_product(n) == p
        skip = rng.randint(0, 5)
        assert TailSpec(spec, skip) == ConvolutionSpec(spec.family, spec.word.shifted(skip))


def fresh_factors(spec, n):
    """Positions 1..n walked from position 1, with no table."""
    out, p = [], 1
    for k in range(1, n + 1):
        t = spec.triple_at(k)
        p *= t.N ** spec.exponent_at(k)
        out.append((t, t.N ** spec.exponent_at(k), p))
    return out


def test_factor_table_is_memoised_per_spec(jp_spec, mixed_spec):
    prefix = ConvolutionSpec(mixed_spec.family, SelectionWord((2, 2, 1), (1, 2), (1, 3), (2,)))
    for spec in (jp_spec, mixed_spec, prefix):
        for order in (range(0, 40, 3), range(40, -1, -7)):
            fresh = ConvolutionSpec(spec.family, spec.word)
            for n in order:
                assert fresh.factors(n) == fresh_factors(spec, n)
        # each call returns its own list
        table = spec.factors(9)
        table.clear()
        spec.factors(5).append(None)
        assert spec.factors(9) == fresh_factors(spec, 9)
        # the table is not a field: equality and hashing do not see it
        other = ConvolutionSpec(spec.family, spec.word)
        assert spec == other and hash(spec) == hash(other)
    with pytest.raises(ValueError):
        jp_spec.factors(-1)


def test_tail_bound_matches_fraction_series_random():
    rng = random.Random(67)
    for _ in range(25):
        spec = random_spec(rng)
        n = rng.randint(0, 4)
        d = rng.randint(0, 30)
        # sum_{j=d+1}^{d+400} max|B_j| / |P_j| over the tail, P_j its running product
        series = F(0)
        p = 1
        for j in range(1, d + 401):
            t = spec.triple_at(n + j)
            p *= t.N ** spec.exponent_at(n + j)
            if j > d:
                series += F(max(abs(b) for b in t.B), abs(p))
        got = tail_truncation_bound(TailSpec(spec, n), 1.0, d)
        assert got == pytest.approx(2 * math.pi * float(series), rel=1e-12)


def test_block_frequencies_match_hand_built_composite_random():
    rng = random.Random(71)
    for _ in range(25):
        spec = random_spec(rng)
        p = rng.randint(0, 3)
        q = p + rng.randint(1, 3)
        family = [normalize_frequencies(t) for t in spec.family]
        factors = []
        for k in range(p + 1, q + 1):
            t = family[spec.word.symbol(k) - 1]
            e = spec.word.exponent(k)
            factors.append(
                HadamardTriple(t.N**e, t.B, tuple(t.N ** (e - 1) * l for l in t.L))
            )
        want = compose_triples(factors)
        got = block_frequencies(spec, p, q)
        assert (got.N, got.B, got.L) == (want.N, want.B, want.L)


def test_zero_propagation_first_step_random():
    rng = random.Random(73)
    for _ in range(25):
        spec = random_spec(rng)
        xi0 = rng.uniform(-3, 3)
        t = spec.triple_at(1)
        e = spec.exponent_at(1)
        taus = [(xi0 + t.N ** (e - 1) * (l % abs(t.N))) / t.N**e for l in t.L]
        want = sorted(tau for tau in taus if abs(mask(t.B, tau)) > 1e-6)
        trace = zero_propagation(spec, xi0, 1)  # survivors keep |M_B| > 1e-6
        assert trace.sets[0] == (xi0,)
        assert list(trace.sets[1]) == pytest.approx(want, abs=1e-12)


# --- level support and cdf --------------------------------------------------

def test_e14_level_positions_in_support(e14_spec):
    mu = finite_level(e14_spec, 6)
    positions = [float(p) for p, _ in mu.atoms]
    assert all(0.0 <= p <= 3.0 for p in positions)


def test_cdf_basics(jp_spec):
    mu = finite_level(jp_spec, 2)
    assert cdf(mu, F(-1)) == 0
    assert cdf(mu, F(1, 8)) == F(1, 2)
    assert cdf(mu, F(5, 8)) == 1
    values = [cdf(mu, F(j, 16)) for j in range(-2, 12)]
    assert values == sorted(values)


def test_cdf_at_infinity(e14_spec):
    # the weight of (-inf, x] is 1 at +inf and 0 at -inf; NaN has none
    mu = finite_level(e14_spec, 4)
    assert cdf(mu, math.inf) == 1
    assert cdf(mu, -math.inf) == 0
    with pytest.raises(ValueError):
        cdf(mu, math.nan)


def cdf_reference(measure, x):
    """Weight of (-inf, x] by a loop over the Fraction atoms."""
    x = F(x)
    return sum((w for p, w in measure.atoms if p <= x), F(0))


def test_cdf_matches_fraction_loop(e14_spec, mixed_spec):
    rng = random.Random(37)
    specs = [e14_spec, mixed_spec] + [random_spec(rng) for _ in range(8)]
    for spec in specs:
        mu = finite_level(spec, 3)
        pos = [p for p, _ in mu.atoms]
        between = [(a + b) / 2 for a, b in zip(pos, pos[1:])]
        outside = [pos[0] - 1, pos[-1] + F(1, 3)]
        floats = [float(p) for p in pos] + [rng.uniform(float(pos[0]) - 1, float(pos[-1]) + 1)
                                            for _ in range(20)]
        for x in pos + between + outside + floats:
            assert cdf(mu, x) == cdf_reference(mu, x)
    assert cdf(finite_level(mixed_spec, 3), -0.5) == 0
    assert cdf(finite_level(mixed_spec, 3), 2) == 1


def e14_cdf_oracle(x):
    """Exact piecewise-linear limit CDF: density 1/3, 2/3, 1/3 on the pieces."""
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


def test_e14_level12_cdf_matches_density(e14_spec):
    mu = finite_level(e14_spec, 12)
    assert cdf(mu, F(1, 2)) == pytest.approx(1 / 6, abs=0.01)
    assert cdf(mu, F(3, 2)) == pytest.approx(5 / 6, abs=0.01)
    assert cdf(mu, F(2)) == 1
    for j in range(101):
        x = F(j, 50)
        assert abs(cdf(mu, x) - e14_cdf_oracle(x)) < F(1, 100)


# --- serialization -----------------------------------------------------------

def test_inv_float_past_double_range():
    # float(p) overflows here, and so would math.copysign(0.0, p)
    assert _inv_float(4) == 0.25
    assert _inv_float(2**1100) == 0.0 and math.copysign(1.0, _inv_float(2**1100)) == 1.0
    assert _inv_float(-(2**1100)) == 0.0 and math.copysign(1.0, _inv_float(-(2**1100))) == -1.0


def test_spec_json_round_trip(mixed_spec):
    again = ConvolutionSpec.from_json(mixed_spec.to_json())
    assert again == mixed_spec


def test_spec_rejects_out_of_range_symbols():
    with pytest.raises(ValueError, match="exceeds family size"):
        ConvolutionSpec(
            (HadamardTriple(4, (0, 2), (0, 1)),), SelectionWord(period=(2,))
        )
