"""Gram orthonormality, level completeness, Q function, spectral reports."""

import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

import convspec.convolution
import convspec.triples
import convspec.verify as verify
from convspec import (
    BuildParams,
    ConvolutionSpec,
    EquiPositivityViolation,
    GcdNotCertifiedWarning,
    HorizonExhaustedError,
    SelectionWord,
    SpectrumLevels,
    TailSpec,
    build_spectrum,
    finite_level,
    fourier_finite,
    level_completeness,
    mask,
    orthonormality_gram,
    spectral_report,
)
from conftest import E14_TRIPLES, JP_TRIPLE, MIXED_TRIPLES, random_spec


def build_quiet(spec, depth_i, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GcdNotCertifiedWarning)
        return build_spectrum(spec, depth_i, **kw)


def test_gram_single_vector(jp_spec):
    mu = finite_level(jp_spec, 2)
    assert orthonormality_gram(mu, [0]) == 0.0


def test_gram_orthogonal_and_not(jp_spec):
    mu = finite_level(jp_spec, 1)
    assert orthonormality_gram(mu, [0, 1]) <= 1e-12
    # {0,2} is not orthogonal: the transform at 2 has modulus 1
    dev = orthonormality_gram(mu, [0, 2])
    assert dev == pytest.approx(1.0, abs=1e-12)


def test_gram_is_hermitian_with_unit_diagonal(mixed_spec):
    # deviation of the identity-sized set reflects only off-diagonal mass
    mu = finite_level(mixed_spec, 2)
    lam = np.array([0, 1, 2, 5])
    pos = np.array([float(p) for p, _ in mu.atoms])
    w = mu.weights()
    e = np.exp(-2j * np.pi * np.outer(lam, pos))
    g = (e * w) @ e.conj().T
    assert np.allclose(g, g.conj().T, atol=1e-14)
    assert np.allclose(np.diag(g), 1.0, atol=1e-14)


def exact_phase_gram_deviation(mu, lam):
    """max |G - I| with every entry sum_j w_j exp(-2 pi i frac(delta x_j)), frac exact."""
    pos = [p for p, _ in mu.atoms]
    w = mu.weights()
    entry = {}
    for delta in {a - b for a in lam for b in lam}:
        phase = np.array([float(delta * p % 1) for p in pos])
        entry[delta] = w @ np.exp(-2j * np.pi * phase)
    g = np.array([[entry[a - b] for b in lam] for a in lam])
    return float(np.max(np.abs(g - np.eye(len(lam)))))


def test_gram_deviation_is_the_identity_subtraction(jp_spec, mixed_spec, monkeypatch):
    # both sides of the FFT / matrix choice, D <= |Lambda| * #atoms, with
    # D^2 below and past 2^63 on the matrix side, in one chunk of rows and
    # in chunks of two or three rows (_part_count's least)
    jp3 = ConvolutionSpec(jp_spec.family, SelectionWord(exp_period=(3,)))
    jp5 = ConvolutionSpec(jp_spec.family, SelectionWord(exp_period=(5,)))
    sides = set()
    for spec, depth_i, extra in ((mixed_spec, 3, 7), (jp_spec, 4, 2), (jp3, 3, 5), (jp5, 4, 3)):
        levels = build_quiet(spec, depth_i)
        mu = finite_level(spec, levels.m(depth_i))
        d = math.lcm(*(p.denominator for p, _ in mu.atoms))
        for lam in (levels.level(depth_i), (*levels.level(depth_i).tolist(), extra)):
            sides.add((d <= len(lam) * len(mu), d * d < 2**63))
            want = exact_phase_gram_deviation(mu, lam)
            for chunk_bytes in (verify._RESIDUE_CHUNK_BYTES, 1):
                with monkeypatch.context() as m:
                    m.setattr(verify, "_RESIDUE_CHUNK_BYTES", chunk_bytes)
                    dev = orthonormality_gram(mu, lam)
                assert dev == pytest.approx(want, rel=0, abs=1e-14)
    assert sides == {(True, True), (False, True), (False, False)}


# the deviations of the Python-int reduction at jp exponent 3 and 5, levels 1..8
JP_EXPONENT_DEVIATIONS = {
    3: (6.123233995736766e-17, 1.0408340855860843e-16, 1.1102230246251565e-16, 1.3548623466035522e-16,
        4.440892098500626e-16, 4.440892098500626e-16, 1.1102230246251565e-15, 1.1102230246251565e-15),
    5: (6.123233995736766e-17, 1.1102230246251565e-16, 1.1102230246251565e-16, 2.220446049250313e-16,
        3.3306690738754696e-16, 4.440892098500626e-16, 1.3322676295501878e-15, 1.3322676295501878e-15),
}


def test_gram_jp_higher_exponents_up_to_level_8(jp_spec):
    # float phases lambda * x read 5e-4 at jp exponent 3 level 8, 1.0 at exponent 5;
    # the matrix path runs throughout, D = 2^5 .. 2^47 (exponent 3) and 2^9 .. 2^79
    # (exponent 5), and its floats are those of the Python-int reduction
    for e in (3, 5):
        spec = ConvolutionSpec(jp_spec.family, SelectionWord(exp_period=(e,)))
        levels = build_quiet(spec, 8)
        for i in range(1, 9):
            mu = finite_level(spec, levels.m(i))
            dev = orthonormality_gram(mu, levels.level(i))
            assert dev <= 1e-10
            assert dev == JP_EXPONENT_DEVIATIONS[e][i - 1], (e, i)


@pytest.mark.parametrize("d", [2, 3, 2**31 - 1, 6**20, 2**53 - 1, 2**53, 2**53 + 1])
def test_products_mod_matches_python_ints(d):
    # up to D = 2^53 the residues come from int64 arithmetic, past it from Python ints
    rng = random.Random(d)
    lam = [0, 1, d - 1] + [rng.randrange(d) for _ in range(29)]
    u = [d - 1, 0, 1] + [rng.randrange(d) for _ in range(13)]
    r = verify._products_mod(np.array(lam, dtype=np.int64), np.array(u, dtype=np.int64), d)
    assert r.dtype == (np.int64 if d <= 2**53 else object)
    assert r.tolist() == [[a * b % d for b in u] for a in lam]


def spy_products_mod(monkeypatch):
    """The dtypes of every chunk of residues the Gram check forms."""
    dtypes, products_mod = [], verify._products_mod

    def spy(lam, u, d):
        r = products_mod(lam, u, d)
        dtypes.append(r.dtype)
        return r

    monkeypatch.setattr(verify, "_products_mod", spy)
    return dtypes


@pytest.fixture(scope="module")
def jp3_levels():
    return build_quiet(ConvolutionSpec((JP_TRIPLE,), SelectionWord(exp_period=(3,))), 12)


def test_gram_reduces_in_int64_up_to_2_53(jp3_levels, monkeypatch):
    # jp exponent 3: D = 2^47 at L8 and 2^53 at L9, the last int64 level; the
    # deviations are the floats of the Python-int reduction
    spec = ConvolutionSpec((JP_TRIPLE,), SelectionWord(exp_period=(3,)))
    monkeypatch.setattr(np, "outer", lambda *a, **k: pytest.fail("object outer product formed"))
    dtypes = spy_products_mod(monkeypatch)
    for i, d in ((8, 2**47), (9, 2**53)):
        mu = finite_level(spec, jp3_levels.m(i))
        assert mu.denominator == d
        assert orthonormality_gram(mu, jp3_levels.level(i)) == 1.1102230246251565e-15
    assert set(dtypes) == {np.dtype(np.int64)}


def test_gram_reduces_in_python_ints_past_2_53(jp3_levels, monkeypatch):
    # jp exponent 3 L10: D = 2^59, where the residues are Python ints
    spec = ConvolutionSpec((JP_TRIPLE,), SelectionWord(exp_period=(3,)))
    mu = finite_level(spec, jp3_levels.m(10))
    assert mu.denominator == 2**59
    lam = jp3_levels.level(10)
    dtypes = spy_products_mod(monkeypatch)
    assert orthonormality_gram(mu, lam) == 1.1102230246251565e-15
    assert dtypes and set(dtypes) == {np.dtype(object)}
    # the oracle takes every pair's phases as Fractions, so it checks 16 of the lambdas
    few = lam[:: len(lam) // 16].tolist()
    assert orthonormality_gram(mu, few) == pytest.approx(exact_phase_gram_deviation(mu, few), rel=0, abs=1e-14)


def test_finite_level_and_gram_form_no_fraction(mixed_spec, monkeypatch):
    # the level stays on its integer lattice from finite_level through the check
    levels = build_quiet(mixed_spec, 3)

    def no_fraction(*args, **kwargs):
        raise AssertionError("Fraction formed")

    monkeypatch.setattr(convspec.convolution, "Fraction", no_fraction)
    mu = finite_level(mixed_spec, levels.m(3))
    assert orthonormality_gram(mu, levels.level(3)) <= 1e-10


def test_gram_lambda_colliding_mod_d_gives_exactly_one(jp_spec, mixed_spec, gram_levels):
    # lambda + k D has the same exponential as lambda under a measure on Z / D,
    # however large k D is
    for spec, depth_i in ((mixed_spec, 3), (jp_spec, 4)):
        levels = build_quiet(spec, depth_i)
        mu = finite_level(spec, levels.m(depth_i))
        d = abs(spec.scale_product(levels.m(depth_i)))
        lam = levels.level(depth_i)
        assert orthonormality_gram(mu, (*lam.tolist(), int(lam[1]) + 2**40 * d)) == 1.0
    for name, mu, lam in gram_levels:
        assert orthonormality_gram(mu, (*lam.tolist(), int(lam[0]) + 2**40 * mu.denominator)) == 1.0, name


def pairwise_gram_deviation(mu, lam):
    """max |c[(lambda_a - lambda_b) mod D]| over pairs a != b, c the weights' FFT."""
    d = mu.denominator
    u = [x % d for x in mu.numerators]
    c = np.abs(np.fft.fft(np.bincount(u, weights=mu.weights(), minlength=d)))
    c[0] = 0.0
    res = np.array([x % d for x in lam], dtype=np.int64)
    r = np.subtract.outer(res, res) % d
    # r = 0 off the diagonal: the entry is the total mass, exactly 1 on a lattice
    off = 1.0 if np.count_nonzero(r == 0) > len(lam) else 0.0
    return max(off, float(c[r].max()))


@pytest.fixture(scope="module")
def gram_levels():
    """(name, measure, level) of mixed L3 and L5, jp L4 and L9, and the 1:1 example14 word L4."""
    jp = ConvolutionSpec((JP_TRIPLE,), SelectionWord())
    mixed = ConvolutionSpec(MIXED_TRIPLES, SelectionWord(period=(1, 2)))
    e14 = ConvolutionSpec(E14_TRIPLES, SelectionWord(prefix=(1,), period=(1,)))
    out = []
    for name, spec, depth_i in (
        ("mixed", mixed, 3), ("mixed", mixed, 5), ("jp", jp, 4), ("jp", jp, 9), ("e14 1:1", e14, 4),
    ):
        levels = build_quiet(spec, depth_i)
        mu = finite_level(spec, levels.m(depth_i))
        out.append((f"{name} L{depth_i}", mu, levels.level(depth_i)))
    return out


def test_gram_deviation_is_the_pairwise_maximum(gram_levels):
    # the pair counts find the same residues as every pair written out, so
    # the floats are the same, with D = |Lambda| (mixed, example14) and
    # D = |Lambda|^2 / 2 (jp)
    for name, mu, lam in gram_levels:
        assert mu.denominator <= len(lam) * len(mu), name  # the FFT side of the matrix choice
        j = len(lam) // 2
        ints = tuple(lam.tolist())
        moved = [ints[:j] + (ints[j] + s,) + ints[j + 1:] for s in range(1, 6)]
        for case in [lam, *moved]:
            assert orthonormality_gram(mu, case) == pairwise_gram_deviation(mu, case), name
        assert orthonormality_gram(mu, lam) <= 1e-10, name
    assert orthonormality_gram(gram_levels[0][1], [0]) == 0.0


def test_gram_pair_counts_must_round_to_integers(mixed_spec, monkeypatch):
    levels = build_quiet(mixed_spec, 3)
    mu = finite_level(mixed_spec, levels.m(3))
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.3)
    with pytest.raises(RuntimeError, match="pair counts of 72 lambdas mod 72"):
        orthonormality_gram(mu, levels.level(3))


def test_gram_lambda_as_integer_arrays(gram_levels, jp_spec, monkeypatch):
    # int64, int32, int8, uint64 and Python-int object arrays give the tuple's floats
    _, mu, lam = gram_levels[1]
    d = mu.denominator
    want = orthonormality_gram(mu, lam)
    for case in (
        np.array(lam),
        np.array(lam, dtype=np.int32),
        np.array([x % d for x in lam], dtype=np.uint64),
        np.array([int(x) + 2**70 * d for x in lam], dtype=object),
    ):
        assert orthonormality_gram(mu, case) == want, case.dtype
    assert orthonormality_gram(mu, list(lam)) == want
    # narrow arrays against a D they cannot hold: jp exponent 3 L8 (D = 2^47,
    # the matrix path) and, under a budget of 1 byte, jp L16 (D = 2^31)
    jp3 = ConvolutionSpec(jp_spec.family, SelectionWord(exp_period=(3,)))
    levels = build_quiet(jp3, 8)
    mu = finite_level(jp3, levels.m(8))
    assert mu.denominator == 2**47
    for lam, dtype in (([x for x in levels.level(8) if abs(x) < 2**31], np.int32), ([0, 1, -7], np.int8)):
        assert orthonormality_gram(mu, np.array(lam, dtype=dtype)) == orthonormality_gram(mu, lam)
    mu = finite_level(jp_spec, 16)
    assert mu.denominator == 2**31
    monkeypatch.setattr(convspec.convolution, "_BUDGET_BYTES", 1)
    for dtype in (np.int8, np.int32):
        with pytest.raises(ValueError, match="needs more than its budget of 1 bytes$"):
            orthonormality_gram(mu, np.arange(100, dtype=dtype))


@pytest.mark.parametrize("lam", [[0, 1.5], [0, 2.0], np.array([0.0, 1.0]), [[0, 1]], ["0"]])
def test_gram_rejects_non_integer_lambda(jp_spec, lam):
    with pytest.raises(ValueError, match="Lambda must be integers"):
        orthonormality_gram(finite_level(jp_spec, 2), lam)


def gram_bytes(mu, lam, monkeypatch):
    """The bytes the Gram check asks for, read from its budget check under a 1-byte budget."""
    needs, check = [], verify._check_budget
    with monkeypatch.context() as m:
        m.setattr(convspec.convolution, "_BUDGET_BYTES", 1)
        m.setattr(verify, "_check_budget", lambda what, need: check(what, needs.append(need) or need))
        for name in ("bincount", "empty"):  # no array of the check's size is formed
            m.setattr(np, name, lambda *a, **k: pytest.fail("allocated before the budget check"))
        with pytest.raises(ValueError, match="needs more than its budget of 1 bytes$"):
            orthonormality_gram(mu, lam)
    (need,) = needs
    return need


def test_gram_memory_stays_within_its_estimate(gram_levels, jp_spec, monkeypatch):
    # pair counts (mixed L5, jp L9) and the matrix path (jp exponent 3 L8)
    jp3 = ConvolutionSpec(jp_spec.family, SelectionWord(exp_period=(3,)))
    levels = build_quiet(jp3, 8)
    cases = [gram_levels[1][1:], gram_levels[3][1:], (finite_level(jp3, levels.m(8)), levels.level(8))]
    for mu, lam in cases:
        need = gram_bytes(mu, lam, monkeypatch)
        tracemalloc.start()
        try:
            orthonormality_gram(mu, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= need, (mu.denominator, peak, need)


def test_gram_matrix_estimate_is_tight(jp3_levels, monkeypatch):
    # the matrix path's estimate counts what it forms: within 1.2x of the
    # traced peak in int64 (jp exponent 3 L8 and L9, D = 2^47 and 2^53)
    spec = ConvolutionSpec((JP_TRIPLE,), SelectionWord(exp_period=(3,)))
    for i in (8, 9):
        mu, lam = finite_level(spec, jp3_levels.m(i)), jp3_levels.level(i)
        need = gram_bytes(mu, lam, monkeypatch)
        tracemalloc.start()
        try:
            orthonormality_gram(mu, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= need <= 1.2 * peak, (i, peak, need)


def test_gram_memory_budget(jp_spec, mixed_spec, monkeypatch):
    jp3 = ConvolutionSpec(jp_spec.family, SelectionWord(exp_period=(3,)))
    # the matrix path of jp exponent 3 at L12, 2^24 entries, fits the budget
    mu = finite_level(jp3, 12)
    assert gram_bytes(mu, range(4096), monkeypatch) <= convspec.convolution._BUDGET_BYTES
    # the FFT paths at jp L16 (D = 2^31) and mixed L7 (D = 93,312)
    mu = finite_level(jp_spec, 16)
    assert mu.denominator == 2**31
    assert gram_bytes(mu, range(len(mu)), monkeypatch) > convspec.convolution._BUDGET_BYTES
    levels = build_quiet(mixed_spec, 7)
    mu = finite_level(mixed_spec, levels.m(7))
    need = gram_bytes(mu, levels.level(7), monkeypatch)
    assert need <= convspec.convolution._BUDGET_BYTES
    # the error names the sizes, and a budget of exactly the need runs
    with monkeypatch.context() as m:
        m.setattr(convspec.convolution, "_BUDGET_BYTES", need - 1)
        with pytest.raises(ValueError, match="of 93312 lambdas on 93312 atoms over D = 93312"):
            orthonormality_gram(mu, levels.level(7))
        m.setattr(convspec.convolution, "_BUDGET_BYTES", need)
        assert orthonormality_gram(mu, levels.level(7)) == 0.0


def test_level_completeness_jp_level1_trig_identity(jp_spec):
    levels = build_quiet(jp_spec, 1)
    # cos^2 + sin^2 = 1 pointwise
    dev = level_completeness(jp_spec, levels, 1, [0.0, 0.3, 0.7, 1.9])
    assert dev <= 1e-12


def test_level_completeness_small_on_grids(jp_spec, mixed_spec):
    grid = np.linspace(-2, 2, 64)
    for spec in (jp_spec, mixed_spec):
        levels = build_quiet(spec, 3)
        for i in (1, 2, 3):
            assert level_completeness(spec, levels, i, grid) <= 1e-9


def test_q_at_zero_is_one(jp_spec):
    levels = build_quiet(jp_spec, 2)
    (q,) = verify._grid_pass(jp_spec, levels, 2, 30, np.array([0.0])).q
    assert q >= 1 - 1e-3
    assert q <= 1 + 1e-9


def test_q_depth_equal_m_reproduces_completeness(jp_spec, mixed_spec):
    for spec in (jp_spec, mixed_spec):
        levels = build_quiet(spec, 2)
        m2 = levels.m(2)
        grid = np.array([0.0, 0.37, -1.4])
        lam = np.asarray(levels.level(2), float)
        for xi, q in zip(grid, verify._grid_pass(spec, levels, 2, m2, grid).q):
            direct = float(
                (np.abs(fourier_finite(spec, m2, lam + xi)) ** 2).sum()
            )
            assert q == pytest.approx(direct, abs=1e-12)
            assert abs(q - 1.0) <= 1e-9  # same formula as completeness


coefficient = convspec.convolution._tail_series_coefficient


def series_formula_bounds(spec, levels, i, depth, xi):
    """Q bounds with the series coefficient c written out: tail bounds
    c_tail(depth - m) * |(lambda + xi) / P_m| in the level part, and
    2 * c(depth) * sum |mu^_m(lambda + xi)|^2 |lambda + xi| over the level
    as the depth part."""
    m = levels.m(i)
    lam = np.asarray(levels.level(i), dtype=float)
    pts = np.add.outer(lam, xi)
    tail = TailSpec(spec, m)
    inv = convspec.convolution._inv_float(spec.scale_product(m))
    t = coefficient(tail, depth - m) * np.abs(pts * inv)
    # |T| from the kernel the pass uses: the bound formula is under test, not
    # the rounding of |T|
    factors = [(f.triple.B, f.product) for f in spec.factors(depth)[m:]]
    t_abs = np.sqrt(convspec.convolution._mask_power(factors, lam, xi))
    low = np.clip(t_abs - t, 0.0, 1.0)
    return np.max(1.0 - low**2, axis=0) + depth_part(spec, levels, i, depth, xi)


def depth_part(spec, levels, i, depth, xi):
    """2 * c(depth) * sum |mu^_m(lambda + xi)|^2 |lambda + xi| over level i."""
    lam = np.asarray(levels.level(i), dtype=float)
    pts = np.add.outer(lam, xi)
    f2 = np.abs(fourier_finite(spec, levels.m(i), pts)) ** 2
    return 2.0 * coefficient(spec, depth) * (f2 * np.abs(pts)).sum(axis=0)


def test_q_bounds_match_the_series_formula(jp_spec, mixed_spec):
    # the level part and the depth part both come from the tail's bound:
    # c_tail(depth - m) / |P_m| = c(depth), which is exact in the reals
    xi = np.linspace(-2.0, 2.0, 64)
    for spec in (jp_spec, mixed_spec):
        levels = build_quiet(spec, 3)
        m = levels.m(3)
        for depth in (m, m + 2, 30):
            got = verify._grid_pass(spec, levels, 3, depth, xi).bound
            want = series_formula_bounds(spec, levels, 3, depth, xi)
            np.testing.assert_allclose(got, want, rtol=2e-15, atol=0)


def test_depth_part_bounds_the_change_in_q_with_depth(jp_spec, mixed_spec):
    # |Q - Q_d| <= sum |F|^2 ||T|^2 - |T_d|^2| <= 2 * sum |F|^2 t_d, so Q_60
    # and Q_d differ by at most the depth parts at d and at 60
    xi = np.linspace(-2.0, 2.0, 41)
    for spec in (jp_spec, mixed_spec):
        levels = build_quiet(spec, 4)
        m = levels.m(4)
        q60 = verify._grid_pass(spec, levels, 4, 60, xi).q
        far = depth_part(spec, levels, 4, 60, xi)
        for depth in (m, m + 1, m + 2, 30):
            q = verify._grid_pass(spec, levels, 4, depth, xi).q
            part = depth_part(spec, levels, 4, depth, xi)
            assert np.all(np.abs(q60 - q) <= part + far + 1e-14), (spec.describe(), depth)
            # the weights sum to 1 up to the completeness defect, so the depth
            # part is at most twice the worst t over the level, not |Lambda| times
            pts = np.abs(np.add.outer(np.asarray(levels.level(4), dtype=float), xi))
            assert np.all(part <= 2.0 * coefficient(spec, depth) * pts.max(axis=0) * (1 + 1e-9))


def test_q_bessel_and_monotone_in_level(jp_spec):
    levels = build_quiet(jp_spec, 3)
    grid = np.linspace(-2, 2, 33)
    prev = np.zeros_like(grid)
    for i in (1, 2, 3):
        q = verify._grid_pass(jp_spec, levels, i, 30, grid).q
        assert np.all(q <= 1 + 1e-9)
        assert np.all(q >= prev - 1e-9)
        prev = q


def test_q_bound_covers_true_deficit(jp_spec):
    # recorded baseline: Q_3 at xi = 2 is about 0.9442 and the bound covers it
    levels = build_quiet(jp_spec, 3)
    res = verify._grid_pass(jp_spec, levels, 3, 30, np.array([2.0]))
    assert res.q[0] == pytest.approx(0.944172, abs=5e-6)
    assert res.q[0] >= 1.0 - res.bound[0] - 1e-9


def test_orthogonality_persists_at_double_depth(jp_spec, mixed_spec):
    for spec in (jp_spec, mixed_spec):
        levels = build_quiet(spec, 2)
        lam = levels.level(2)
        m2 = levels.m(2)
        for a in lam:
            for b in lam:
                if a == b:
                    continue
                assert abs(fourier_finite(spec, 2 * m2, float(a - b))) <= 1e-12


def test_spectral_report_jp_passes(jp_spec):
    levels = build_quiet(jp_spec, 3)
    rep = spectral_report(jp_spec, levels, grid_n=64, depth=30)
    assert rep.passed
    assert rep.completeness_defect <= 1e-9
    assert rep.min_q >= 1 - (rep.tail_bound + 1e-3)
    assert max(rep.q_values) <= 1 + 1e-9
    assert rep.level == 3


def test_spectral_report_mixed_passes(mixed_spec):
    levels = build_quiet(mixed_spec, 3)
    rep = spectral_report(mixed_spec, levels, grid_n=64, depth=30)
    assert rep.passed


def test_spectral_report_detects_tampering(jp_spec):
    levels = build_quiet(jp_spec, 3)
    top = list(levels.level(3))
    top.remove(1)
    tampered = SpectrumLevels(
        levels=levels.levels[:-1] + (tuple(top),),
        indices=levels.indices,
        shifts=levels.shifts,
        params=levels.params,
    )
    rep = spectral_report(jp_spec, tampered, grid_n=64, depth=30)
    assert not rep.passed
    assert rep.min_q < 1 - 0.01


def test_spectral_report_empty_levels_rejected(jp_spec):
    empty = SpectrumLevels(
        levels=((0,),), indices=(), shifts=(), params=BuildParams(),
    )
    with pytest.raises(ValueError, match="no levels"):
        spectral_report(jp_spec, empty)


def test_report_csv_and_json(jp_spec):
    levels = build_quiet(jp_spec, 2)
    rep = spectral_report(jp_spec, levels, grid_n=16, depth=20)
    js = rep.to_json()
    assert len(js["xi_grid"]) == len(js["q_values"]) == len(js["q_bounds"])
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == "xi,q,bound"
    assert len(lines) == 1 + len(rep.xi_grid)


def test_report_completeness_is_level_completeness(jp_spec, mixed_spec):
    # sum |F|^2 does not see the depth, so the report's defect is the lattice
    # pass's at depth m_i bit for bit; level_completeness takes the same
    # points as (lambda, xi), so it reads the defect within rounding
    for spec, depth_i in ((jp_spec, 5), (mixed_spec, 3)):
        levels = build_quiet(spec, depth_i)
        rep = spectral_report(spec, levels, grid_n=32, depth=30)
        at_m = spectral_report(spec, levels, grid_n=32, depth=levels.m(depth_i))
        assert rep.completeness_defect == at_m.completeness_defect
        again = level_completeness(spec, levels, depth_i, rep.xi_grid)
        assert again == pytest.approx(rep.completeness_defect, rel=0, abs=1e-15)


def test_report_q_matches_full_depth_product(jp_spec, mixed_spec):
    # Reference: Q as one depth-factor product per point, not split at m_i.
    for spec, depth_i in ((jp_spec, 5), (mixed_spec, 3)):
        levels = build_quiet(spec, depth_i)
        rep = spectral_report(spec, levels, grid_n=32, depth=30)
        lam = np.asarray(levels.level(depth_i), float)
        pts = lam[:, None] + np.asarray(rep.xi_grid)[None, :]
        direct = (np.abs(fourier_finite(spec, 30, pts)) ** 2).sum(axis=0)
        assert np.max(np.abs(np.asarray(rep.q_values) - direct)) <= 1e-12
        q = verify._grid_pass(spec, levels, depth_i, 30, np.array(rep.xi_grid[::7])).q
        np.testing.assert_allclose(q, rep.q_values[::7], rtol=0, atol=1e-15)


@pytest.fixture(scope="module")
def deep_levels():
    """jp L9 (512 frequencies) and mixed :12 L5 (2592), built once."""
    jp = ConvolutionSpec((JP_TRIPLE,), SelectionWord())
    mixed = ConvolutionSpec(MIXED_TRIPLES, SelectionWord(period=(1, 2)))
    return {"jp": (jp, build_quiet(jp, 9)), "mixed": (mixed, build_quiet(mixed, 5))}


@pytest.mark.parametrize("name", ["jp", "mixed"])
def test_squared_moduli_match_the_complex_kernel(deep_levels, name):
    # the pass's F^2, T^2 and their product against |product of masks|^2
    # over the level's rows and the report's 257 points
    spec, levels = deep_levels[name]
    i = levels.level_count
    m = levels.m(i)
    lam = np.asarray(levels.level(i), dtype=float)
    xi = np.linspace(-2.0, 2.0, 257)
    factors = [(f.triple.B, f.product) for f in spec.factors(30)]
    pts, inv = np.add.outer(lam, xi), convspec.convolution._inv_float
    for part in (factors[:m], factors[m:], factors):
        got = convspec.convolution._mask_power(part, levels.level(i), xi)  # integer rows, as the pass
        want = np.abs(math.prod(mask(B, pts * inv(p)) for B, p in part)) ** 2
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        assert 0.0 <= got.min() and got.max() <= 1.0
    assert got[lam == 0.0, xi == 0.0].tolist() == [1.0]


@pytest.mark.parametrize("name", ["jp", "mixed"])
def test_report_in_row_tiles_is_bit_identical(deep_levels, name, monkeypatch):
    # the first-row carry keeps numpy's row-by-row summation order, so tiles
    # of any size >= 2 rows give the floats of one tile over the whole level
    spec, levels = deep_levels[name]
    m = levels.m(levels.level_count)
    grid_n = 8
    cols = grid_n + 1  # the report's columns r / grid_n
    # a budget below two rows still gives tiles of two rows
    budgets = {2: 1, 3: 16 * 3 * cols, 7: 16 * 7 * cols}
    for depth in (m, m + 1, 30):
        whole = spectral_report(spec, levels, grid_n=grid_n, depth=depth).to_json()
        for rows, budget in budgets.items():
            seen = []

            def spy(factors, lam, xi, seen=seen):
                seen.append(len(lam))
                return convspec.convolution._mask_power(factors, lam, xi)

            with monkeypatch.context() as mp:
                mp.setattr(verify, "_TILE_BYTES", budget)
                mp.setattr(verify, "_mask_power", spy)
                tiled = spectral_report(spec, levels, grid_n=grid_n, depth=depth).to_json()
            assert rows in seen and min(seen) >= 2
            assert tiled == whole, (depth, rows)


def coarse_q(spec, levels, depth, grid_n):
    """The grid pass's Q at the report's points -2 + j/grid_n."""
    xi = np.arange(-2 * grid_n, 2 * grid_n + 1) / grid_n
    return verify._grid_pass(spec, levels, levels.level_count, depth, xi).q


def report_q(spec, levels, depth, grid_n):
    return np.array(spectral_report(spec, levels, grid_n=grid_n, depth=depth).q_values)


@pytest.mark.parametrize("name", ["jp", "mixed"])
def test_lattice_scan_matches_the_grid_pass(deep_levels, name):
    spec, levels = deep_levels[name]
    i = levels.level_count
    for depth, grid_n in ((30, 64), (levels.m(i), 8), (levels.m(i) + 1, 5)):
        rep = spectral_report(spec, levels, grid_n=grid_n, depth=depth)
        xi = np.arange(-2 * grid_n, 2 * grid_n + 1) / grid_n
        assert rep.xi_grid == tuple(xi.tolist())
        grid = verify._grid_pass(spec, levels, i, depth, xi)
        np.testing.assert_allclose(rep.q_values, grid.q, rtol=0, atol=1e-14)
        np.testing.assert_allclose(rep.q_bounds, grid.bound, rtol=0, atol=1e-14)
        # a level read from a file need not be sorted: the same floats
        shuffled = np.random.default_rng(i).permutation(levels.level(i))
        moved = SpectrumLevels(levels.levels[:i] + (shuffled,), levels.indices, levels.shifts,
                               levels.params)
        assert spectral_report(spec, moved, grid_n=grid_n, depth=depth) == rep


def test_lattice_scan_matches_the_grid_pass_random():
    # both passes reduce their integer rows mod |P_k| before any float, so
    # they part only by the rounding of the (lambda + n, r/g) and (lambda, xi)
    # splits, whatever the size of lambda
    rng = random.Random(7)
    built = 0
    for _ in range(40):
        spec = random_spec(rng)
        try:
            levels = build_quiet(spec, 3)
        except (EquiPositivityViolation, HorizonExhaustedError):
            continue
        built += 1
        i, grid_n = 3, rng.randint(2, 9)
        depth = rng.randint(levels.m(i), 30)
        got = report_q(spec, levels, depth, grid_n)
        np.testing.assert_allclose(got, coarse_q(spec, levels, depth, grid_n), rtol=0, atol=1e-14)
    assert built >= 30


def test_report_counts_a_repeated_lambda_twice(jp_spec):
    # a level read from a file may repeat a lambda: it adds no row of U, and
    # each shift reads its rows again, so no run of rows is read in place
    levels = SpectrumLevels(((0,), (0, 0, 2, 3)), (1,), ((),), BuildParams())
    got = report_q(jp_spec, levels, 30, 4)
    np.testing.assert_allclose(got, coarse_q(jp_spec, levels, 30, 4), rtol=0, atol=1e-14)


def kernel_rows(monkeypatch, spec, levels, depth, grid_n):
    """The rows and columns of every tile of a report's pass: a tile makes two
    _mask_power calls on the same rows, |F|^2's and |T|^2's."""
    calls = []

    def spy(factors, lam, xi):
        calls.append((lam, xi.size))
        return convspec.convolution._mask_power(factors, lam, xi)

    with monkeypatch.context() as mp:
        mp.setattr(verify, "_mask_power", spy)
        q = report_q(spec, levels, depth, grid_n)
    assert q.shape == (4 * grid_n + 1,)
    assert all(f[0] is t[0] for f, t in zip(calls[::2], calls[1::2]))
    return calls[::2]


def test_lattice_scan_evaluates_each_point_once(deep_levels, jp_spec, monkeypatch):
    # a sparse level has up to 4 |Lambda| rows of grid_n + 1 columns; mixed
    # levels are runs of consecutive integers, so there the pairs fall 4x
    sparse = ConvolutionSpec(jp_spec.family, SelectionWord(exp_period=(3,)))
    for spec, levels, most in ((sparse, build_quiet(sparse, 5), 4.0),
                               (*deep_levels["mixed"], 1.01)):
        n = len(levels.level(levels.level_count))
        calls = kernel_rows(monkeypatch, spec, levels, 30, 64)
        pairs = sum(lam.size * cols for lam, cols in calls)
        assert pairs <= most * n * 65 <= n * (4 * 64 + 4)
        rows = np.concatenate([lam for lam, _ in calls])
        assert np.all(rows[1:] > rows[:-1])  # each lambda + n once


def test_lattice_scan_rows_past_int64(jp_spec, jp3_levels, monkeypatch):
    # lambda + 1 past 2**63 is formed in Python ints, not wrapped to -2**63
    top = 2**63 - 1
    levels = SpectrumLevels(((0,), (0, top)), (1,), ((),), BuildParams())
    calls = kernel_rows(monkeypatch, jp_spec, levels, 30, 4)
    rows = np.concatenate([lam for lam, _ in calls])
    assert rows.dtype == object and rows.min() == -2 and rows.max() == top + 1
    # and so do the object arrays of levels past 2**63 (jp exponent 3, L12)
    sparse = ConvolutionSpec(jp_spec.family, SelectionWord(exp_period=(3,)))
    assert jp3_levels.level(12).dtype == object
    got = report_q(sparse, jp3_levels, 30, 8)
    np.testing.assert_allclose(got, coarse_q(sparse, jp3_levels, 30, 8), rtol=0, atol=1e-14)


def exact_squared_moduli(factors, v, g):
    """prod_k |M_{B_k}(v / (g P_k))|^2 at an integer v, every phase reduced in Python ints.

    |M_B(y)|^2 = (#B + 2 sum_{b > b'} cos(2 pi (b - b') y)) / #B^2, and
    (b - b') v mod g |P_k|, over g |P_k|, is the phase's fraction, a
    correctly rounded float, then math.cos.
    """
    prod = 1.0
    for B, p in factors:
        gp = g * abs(p)
        pairs = math.fsum(math.cos(2 * math.pi * ((b - c) * v % gp / gp)) for b in B for c in B if b > c)
        prod *= (len(B) + 2 * pairs) / len(B) ** 2
    return prod


def exact_phase_q(spec, levels, depth, grid_n):
    """Q at -2 + j/g (g = grid_n) over the last level from exact_squared_moduli."""
    lam = levels.level(levels.level_count).tolist()
    factors = [(f.triple.B, f.product) for f in spec.factors(depth)]
    return np.array([
        math.fsum(exact_squared_moduli(factors, x * grid_n + j - 2 * grid_n, grid_n) for x in lam)
        for j in range(4 * grid_n + 1)
    ])


def test_lattice_rows_past_2_53_are_exact(jp_spec, jp3_levels, monkeypatch):
    # jp exponent 3 L12: 3,584 of 4,096 frequencies pass 2^53, so as doubles
    # its 16,384 rows lambda + n would be 2,816 values; they reach the kernel
    # as distinct integers, whose squared moduli (factor by factor, as the
    # products near a lambda are below 1e-30) and Q match the exact-phase
    # reference
    sparse = ConvolutionSpec(jp_spec.family, SelectionWord(exp_period=(3,)))
    calls = kernel_rows(monkeypatch, sparse, jp3_levels, 30, 2)
    rows = np.concatenate([lam for lam, _ in calls])
    assert rows.dtype == object and rows.size == 4 * len(jp3_levels.level(12)) == 16384
    assert len(set(rows.tolist())) == 16384
    assert len(set(rows.astype(float).tolist())) == 2816
    factors = [(f.triple.B, f.product) for f in sparse.factors(30)]
    few = rows[-256:]  # past 2^53, four rows lambda + n of each of 64 lambdas
    assert few.min() > 2**53
    for factor in factors:
        got = convspec.convolution._mask_power([factor], few, np.arange(3) / 2)
        want = [[exact_squared_moduli([factor], 2 * u + r, 2) for r in range(3)] for u in few]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    want = exact_phase_q(sparse, jp3_levels, 30, 2)
    np.testing.assert_allclose(report_q(sparse, jp3_levels, 30, 2), want, rtol=0, atol=1e-15 * 30)


def test_report_q_matches_the_exact_phase_reference_random():
    # Q within 1e-15 * depth of the Python-int reduction on random L3 levels,
    # where float phases part from it by up to 1.4e-11
    rng = random.Random(3431)
    built = 0
    while built < 12:
        spec = random_spec(rng)
        try:
            levels = build_quiet(spec, 3)
        except (EquiPositivityViolation, HorizonExhaustedError):
            continue
        built += 1
        grid_n = rng.randint(2, 4)
        depth = rng.randint(levels.m(3), 30)
        want = exact_phase_q(spec, levels, depth, grid_n)
        np.testing.assert_allclose(report_q(spec, levels, depth, grid_n), want, rtol=0,
                                   atol=1e-15 * depth)


def test_lattice_scan_checks_its_depth(deep_levels):
    spec, levels = deep_levels["mixed"]
    i = levels.level_count
    m = levels.m(i)
    with pytest.raises(ValueError, match=f"depth {m - 1} must be >= m_i = {m}"):
        verify._grid_pass(spec, levels, i, m - 1, np.zeros(8))
    with pytest.raises(ValueError, match=f"depth {m - 1} must be >= m_i = {m}"):
        spectral_report(spec, levels, depth=m - 1)


def test_report_memory_does_not_grow_with_the_level(deep_levels):
    # one (lambda, xi) array of 257 points over mixed L5 is 10.6 MB, and a
    # single-array pass holds about six; tiles hold one budget's worth each
    spec, levels = deep_levels["mixed"]
    tracemalloc.start()
    try:
        rep = spectral_report(spec, levels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 12 << 20


@pytest.mark.parametrize("kw", [
    {"grid_n": 0}, {"grid_n": 1}, {"grid_n": -3}, {"grid_n": 16.0}, {"depth": 30.0},
])
def test_report_grid_and_depth_are_checked(jp_spec, kw):
    levels = build_quiet(jp_spec, 2)
    with pytest.raises(ValueError, match=next(iter(kw))):
        spectral_report(jp_spec, levels, **kw)


def pass_bytes(spec, levels, depth, n_xi, span):
    """_pass_bytes of the last level's rows lambda + n, n over span shifts: the
    report's (n in -2..1, columns r/g in [0, 1]) or a grid pass's (n = 0, xi
    in [-2, 2])."""
    i = levels.level_count
    lam, count = verify._lattice_rows(levels.level(i), span)
    reach = max(-lam[0] + 2, lam[-1] + 1, 1) if span > 1 else max(-lam[0], lam[-1], 2)
    return verify._pass_bytes(spec, levels.m(i), depth, lam, count, n_xi, float(reach))


def test_grid_pass_memory_stays_within_its_estimate(deep_levels, jp_spec):
    # 257 points over jp L9 and mixed L5, a single point over mixed L5,
    # jp L3 at depth 300, and jp L3 over 8,001 points (two-row tiles)
    jp3 = build_quiet(jp_spec, 3)
    cases = [(*deep_levels["jp"], 30, 257), (*deep_levels["mixed"], 30, 257),
             (*deep_levels["mixed"], 30, 1), (jp_spec, jp3, 300, 257), (jp_spec, jp3, 30, 8001)]
    for spec, levels, depth, n_xi in cases:
        i = levels.level_count
        need = pass_bytes(spec, levels, depth, n_xi, 1)
        xi = np.linspace(-2, 2, n_xi)
        fresh = ConvolutionSpec(spec.family, spec.word)  # its factor table is formed in the pass
        tracemalloc.start()
        try:
            verify._grid_pass(fresh, levels, i, depth, xi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= need, (i, depth, n_xi, peak, need)
    # the reports of jp L9 and mixed L5 over 65 columns, whose rows U are
    # counted from the level's gaps: traced at 1.23x and 1.24x
    for spec, levels in deep_levels.values():
        need = pass_bytes(spec, levels, 30, 65, 4)
        fresh = ConvolutionSpec(spec.family, spec.word)
        tracemalloc.start()
        try:
            spectral_report(fresh, levels, grid_n=64, depth=30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= need <= 1.3 * peak, (peak, need)


def test_report_estimate_counts_only_the_factors_the_kernel_keeps(deep_levels, jp_spec):
    # at depth 300 the kernel leaves out every factor past its horizon, and so
    # does the estimate: jp L9, mixed :12 L5 and jp L3 read 1.23x, 1.24x and
    # 1.21x of their traced peaks (6.0x, 6.5x and 10.4x counting every factor)
    cases = [deep_levels["jp"], deep_levels["mixed"], (jp_spec, build_quiet(jp_spec, 3))]
    for spec, levels in cases:
        need = pass_bytes(spec, levels, 300, 65, 4)
        fresh = ConvolutionSpec(spec.family, spec.word)
        tracemalloc.start()
        try:
            spectral_report(fresh, levels, grid_n=64, depth=300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= need <= 1.5 * peak, (levels.level_count, peak, need)


def test_report_checks_no_digit_set_per_row_tile(deep_levels, monkeypatch):
    # every B comes from a checked HadamardTriple, so the kernel reads its
    # table from the cache: the _integers calls of a report do not grow with
    # its row tiles
    spec, levels = deep_levels["mixed"]

    def run(budget):
        checks, kernels = [], []
        check, kernel = convspec.triples._integers, verify._mask_power
        with monkeypatch.context() as m:
            m.setattr(verify, "_TILE_BYTES", budget)
            m.setattr(verify, "_mask_power", lambda *a: kernels.append(1) or kernel(*a))
            for module in (convspec.triples, convspec.convolution, verify):
                m.setattr(module, "_integers", lambda *a: checks.append(1) or check(*a))
            report = spectral_report(spec, levels, grid_n=8, depth=30).to_json()
        return len(checks), len(kernels), report

    few, whole_calls, whole = run(verify._TILE_BYTES)
    many, tiled_calls, tiled = run(1)  # two-row tiles
    assert tiled_calls > 100 * whole_calls and tiled == whole
    assert many == few, (few, many)


def test_grid_pass_memory_budget(jp_spec, monkeypatch):
    levels = build_quiet(jp_spec, 3)
    budget = convspec.convolution._BUDGET_BYTES
    over = f"needs more than its budget of {budget} bytes"
    # a grid pass over 128,001 points fits the budget, 4,000,001 do not:
    # a tile keeps two rows, so the kernel's sides grow with the grid
    assert pass_bytes(jp_spec, levels, 30, 4 * 32000 + 1, 1) <= budget
    with pytest.raises(ValueError, match=over):
        pass_bytes(jp_spec, levels, 30, 4 * 10**6 + 1, 1)
    # so do the report's 32,001 columns (--grid 32000), and 10,000,001 do not
    assert pass_bytes(jp_spec, levels, 30, 32001, 4) <= budget
    with pytest.raises(ValueError, match=over):
        pass_bytes(jp_spec, levels, 30, 10**7 + 1, 4)
    # neither a huge grid nor a huge depth forms the points, U or a P_k first
    deep = ConvolutionSpec(jp_spec.family, jp_spec.word)
    with monkeypatch.context() as m:
        for name in ("linspace", "arange", "repeat"):
            m.setattr(np, name, lambda *a, **k: pytest.fail("allocated before the budget check"))
        for kw in ({"grid_n": 10**7}, {"depth": 10**9}):
            with pytest.raises(ValueError, match=over):
                spectral_report(deep, levels, **kw)
    assert "_factor_table" not in deep.__dict__
    # the error names the sizes, and a budget of exactly the estimate runs
    need = pass_bytes(jp_spec, levels, 30, 1000, 1)
    xi = np.linspace(-2, 2, 1000)
    with monkeypatch.context() as m:
        m.setattr(convspec.convolution, "_BUDGET_BYTES", need - 1)
        with pytest.raises(ValueError, match="of 8 frequencies over 1000 points at depth 30"):
            verify._grid_pass(jp_spec, levels, 3, 30, xi)
        m.setattr(convspec.convolution, "_BUDGET_BYTES", need)
        assert verify._grid_pass(jp_spec, levels, 3, 30, xi).q.shape == (1000,)
