"""Gram orthonormality, level completeness, Q function, spectral reports."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import convspec.convolution
import convspec.verify as verify
from convspec import (
    BuildParams,
    ConvolutionSpec,
    GcdNotCertifiedWarning,
    SelectionWord,
    SpectrumLevels,
    TailSpec,
    build_spectrum,
    finite_level,
    fourier_finite,
    level_completeness,
    orthonormality_gram,
    q_function,
    spectral_report,
)
from conftest import E14_TRIPLES, JP_TRIPLE, MIXED_TRIPLES


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
    # in one row per chunk
    jp3 = ConvolutionSpec(jp_spec.family, SelectionWord(exp_period=(3,)))
    jp5 = ConvolutionSpec(jp_spec.family, SelectionWord(exp_period=(5,)))
    sides = set()
    for spec, depth_i, extra in ((mixed_spec, 3, 7), (jp_spec, 4, 2), (jp3, 3, 5), (jp5, 4, 3)):
        levels = build_quiet(spec, depth_i)
        mu = finite_level(spec, levels.m(depth_i))
        d = math.lcm(*(p.denominator for p, _ in mu.atoms))
        for lam in (levels.level(depth_i), levels.level(depth_i) + (extra,)):
            sides.add((d <= len(lam) * len(mu), d * d < 2**63))
            want = exact_phase_gram_deviation(mu, lam)
            for chunk_bytes in (verify._RESIDUE_CHUNK_BYTES, 1):
                with monkeypatch.context() as m:
                    m.setattr(verify, "_RESIDUE_CHUNK_BYTES", chunk_bytes)
                    dev = orthonormality_gram(mu, lam)
                assert dev == pytest.approx(want, rel=0, abs=1e-14)
    assert sides == {(True, True), (False, True), (False, False)}


def test_gram_jp_higher_exponents_up_to_level_8(jp_spec):
    # float phases lambda * x read 5e-4 at jp exponent 3 level 8, 1.0 at exponent 5
    for e in (3, 5):
        spec = ConvolutionSpec(jp_spec.family, SelectionWord(exp_period=(e,)))
        levels = build_quiet(spec, 8)
        for i in range(1, 9):
            mu = finite_level(spec, levels.m(i))
            assert orthonormality_gram(mu, levels.level(i)) <= 1e-10


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
        assert orthonormality_gram(mu, lam + (lam[1] + 2**40 * d,)) == 1.0
    for name, mu, lam in gram_levels:
        assert orthonormality_gram(mu, lam + (lam[0] + 2**40 * mu.denominator,)) == 1.0, name


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
        moved = [lam[:j] + (lam[j] + s,) + lam[j + 1:] for s in range(1, 6)]
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
        np.array([x + 2**70 * d for x in lam], dtype=object),
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
    monkeypatch.setattr(verify, "_GRAM_BYTES", 1)
    for dtype in (np.int8, np.int32):
        with pytest.raises(ValueError, match="over its budget of 1$"):
            orthonormality_gram(mu, np.arange(100, dtype=dtype))


@pytest.mark.parametrize("lam", [[0, 1.5], [0, 2.0], np.array([0.0, 1.0]), [[0, 1]], ["0"]])
def test_gram_rejects_non_integer_lambda(jp_spec, lam):
    with pytest.raises(ValueError, match="Lambda must be integers"):
        orthonormality_gram(finite_level(jp_spec, 2), lam)


def gram_bytes(mu, lam, monkeypatch):
    """The bytes the Gram check asks for, read from its error under a 1-byte budget."""
    with monkeypatch.context() as m:
        m.setattr(verify, "_GRAM_BYTES", 1)
        for name in ("bincount", "empty"):  # no array of the check's size is formed
            m.setattr(np, name, lambda *a, **k: pytest.fail("allocated before the budget check"))
        with pytest.raises(ValueError, match="over its budget of 1$") as err:
            orthonormality_gram(mu, lam)
    return int(err.value.args[0].split("needs about ")[1].split()[0])


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


def test_gram_memory_budget(jp_spec, mixed_spec, monkeypatch):
    jp3 = ConvolutionSpec(jp_spec.family, SelectionWord(exp_period=(3,)))
    # the matrix path of jp exponent 3 at L12, 2^24 entries, fits the budget
    mu = finite_level(jp3, 12)
    assert gram_bytes(mu, range(4096), monkeypatch) <= verify._GRAM_BYTES
    # the FFT paths at jp L16 (D = 2^31) and mixed L7 (D = 93,312)
    mu = finite_level(jp_spec, 16)
    assert mu.denominator == 2**31
    assert gram_bytes(mu, range(len(mu)), monkeypatch) > verify._GRAM_BYTES
    levels = build_quiet(mixed_spec, 7)
    mu = finite_level(mixed_spec, levels.m(7))
    need = gram_bytes(mu, levels.level(7), monkeypatch)
    assert need <= verify._GRAM_BYTES
    # the error names the sizes, and a budget of exactly the need runs
    with monkeypatch.context() as m:
        m.setattr(verify, "_GRAM_BYTES", need - 1)
        with pytest.raises(ValueError, match="of 93312 lambdas on 93312 atoms over D = 93312"):
            orthonormality_gram(mu, levels.level(7))
        m.setattr(verify, "_GRAM_BYTES", need)
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
    qv = q_function(jp_spec, levels, 2, 30, 0.0)
    assert qv.q >= 1 - 1e-3
    assert qv.q <= 1 + 1e-9


def test_q_depth_equal_m_reproduces_completeness(jp_spec, mixed_spec):
    for spec in (jp_spec, mixed_spec):
        levels = build_quiet(spec, 2)
        m2 = levels.m(2)
        for xi in (0.0, 0.37, -1.4):
            qv = q_function(spec, levels, 2, m2, xi)
            lam = np.asarray(levels.level(2), float)
            direct = float(
                (np.abs(fourier_finite(spec, m2, lam + xi)) ** 2).sum()
            )
            assert qv.q == pytest.approx(direct, abs=1e-12)
            assert abs(qv.q - 1.0) <= 1e-9  # same formula as completeness


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
    f2 = np.abs(fourier_finite(spec, levels.m(i), lam, xi)) ** 2
    return 2.0 * coefficient(spec, depth) * (f2 * np.abs(np.add.outer(lam, xi))).sum(axis=0)


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
    for xi in grid:
        prev = 0.0
        for i in (1, 2, 3):
            qv = q_function(jp_spec, levels, i, 30, float(xi))
            assert qv.q <= 1 + 1e-9
            assert qv.q >= prev - 1e-9
            prev = qv.q


def test_q_bound_covers_true_deficit(jp_spec):
    # recorded baseline: Q_3 at xi = 2 is about 0.9442 and the bound covers it
    levels = build_quiet(jp_spec, 3)
    qv = q_function(jp_spec, levels, 3, 30, 2.0)
    assert qv.q == pytest.approx(0.944172, abs=5e-6)
    assert qv.q >= 1.0 - qv.tail_bound - 1e-9


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
    for spec, depth_i in ((jp_spec, 5), (mixed_spec, 3)):
        levels = build_quiet(spec, depth_i)
        rep = spectral_report(spec, levels, grid_n=32, depth=30)
        again = level_completeness(spec, levels, depth_i, rep.xi_grid)
        assert rep.completeness_defect == again


def test_report_q_matches_full_depth_product(jp_spec, mixed_spec):
    # Reference: Q as one depth-factor product per point, not split at m_i.
    for spec, depth_i in ((jp_spec, 5), (mixed_spec, 3)):
        levels = build_quiet(spec, depth_i)
        rep = spectral_report(spec, levels, grid_n=32, depth=30)
        lam = np.asarray(levels.level(depth_i), float)
        pts = lam[:, None] + np.asarray(rep.xi_grid)[None, :]
        direct = (np.abs(fourier_finite(spec, 30, pts)) ** 2).sum(axis=0)
        assert np.max(np.abs(np.asarray(rep.q_values) - direct)) <= 1e-12
        for xi in rep.xi_grid[::7]:
            qv = q_function(spec, levels, depth_i, 30, xi)
            assert qv.q == pytest.approx(rep.q_values[rep.xi_grid.index(xi)], abs=1e-15)


@pytest.fixture(scope="module")
def deep_levels():
    """jp L9 (512 frequencies) and mixed :12 L5 (2592), built once."""
    jp = ConvolutionSpec((JP_TRIPLE,), SelectionWord())
    mixed = ConvolutionSpec(MIXED_TRIPLES, SelectionWord(period=(1, 2)))
    return {"jp": (jp, build_quiet(jp, 9)), "mixed": (mixed, build_quiet(mixed, 5))}


@pytest.mark.parametrize("name", ["jp", "mixed"])
def test_squared_moduli_match_the_complex_kernel(deep_levels, name):
    # the grid pass's F^2, T^2 and their product against |complex mask product|^2
    # over the level's rows and the coarse scan's 257 points
    spec, levels = deep_levels[name]
    i = levels.level_count
    m = levels.m(i)
    lam = np.asarray(levels.level(i), dtype=float)
    xi = np.linspace(-2.0, 2.0, 257)
    factors = [(f.triple.B, f.product) for f in spec.factors(30)]
    for part in (factors[:m], factors[m:], factors):
        got = convspec.convolution._mask_power(part, lam, xi)
        want = np.abs(convspec.convolution._mask_product(part, lam, xi)) ** 2
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
    cols = 4 * grid_n + 1  # the coarse scan's columns
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


def test_report_memory_does_not_grow_with_the_level(deep_levels):
    # one (lambda, xi) array of the mixed L5 coarse scan is 10.6 MB, and a
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
