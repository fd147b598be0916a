"""Equi-positivity probing of tail families."""

import dataclasses
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

import convspec.equipos
import convspec.zeros
from conftest import random_spec
from convspec import (
    ConvolutionSpec,
    SelectionWord,
    TailSpec,
    choose_k,
    fourier_tail,
    integral_periodic_zero_probe,
    probe_family,
    translate_triple,
)
from convspec.convolution import DEFAULT_TAIL_DEPTH, _mask_power
from convspec.zeros import search_order


def cos_product_oracle(depth=40):
    v = 1.0
    for k in range(1, depth + 1):
        v *= math.cos(2 * math.pi / 4 ** (k + 1))
    return v


def test_choose_k_forces_zero_at_origin(jp_spec):
    for skip in (0, 2, 5):
        assert choose_k(TailSpec(jp_spec, skip), 0.0) == (0, 1.0)


def test_choose_k_jp_quarter(jp_spec):
    k, v = choose_k(TailSpec(jp_spec, 1), 0.25, K=8, depth=40)
    assert k == 0
    assert v == pytest.approx(cos_product_oracle(), abs=1e-12)


def test_choose_k_no_good_shift_on_uniform_tail(e14_tail_spec):
    # the uniform-[0,3] tail transform vanishes on 1/3 + Z
    tail = TailSpec(e14_tail_spec, 1)
    k, v = choose_k(tail, 1 / 3, K=8, depth=40)
    assert v <= 1e-6


def test_choose_k_rejects_out_of_range(jp_spec):
    with pytest.raises(ValueError):
        choose_k(TailSpec(jp_spec, 0), 1.0)
    with pytest.raises(ValueError):
        choose_k(TailSpec(jp_spec, 0), -0.25)


def test_choose_k_array_matches_scalar_calls(jp_spec, mixed_spec, e14_tail_spec):
    xs = np.array([[0.0, 0.125, 1 / 3], [0.5, 0.75, 0.999]])
    for spec in (jp_spec, mixed_spec, e14_tail_spec):
        tail = TailSpec(spec, 1)
        k, v = choose_k(tail, xs, K=4, depth=30)
        assert k.shape == v.shape == xs.shape
        for idx in np.ndindex(xs.shape):
            k1, v1 = choose_k(tail, float(xs[idx]), K=4, depth=30)
            assert int(k[idx]) == k1
            assert abs(v[idx] - v1) <= 1e-15


def test_choose_k_in_parts_is_bit_identical(monkeypatch, jp_spec, mixed_spec, e14_tail_spec):
    xs = np.concatenate([np.arange(97) / 97, [0.5, 1 / 3, 2 / 3]])
    for spec in (jp_spec, mixed_spec, e14_tail_spec):
        tail = TailSpec(spec, 2)
        k, v = choose_k(tail, xs, K=6, depth=30)
        for chunk in (2, 3, 7, 64):  # points per part, 13 shifts each
            monkeypatch.setattr(convspec.equipos, "_SHIFT_PAIRS", 13 * chunk)
            kc, vc = choose_k(tail, xs, K=6, depth=30)
            assert np.array_equal(kc, k) and np.array_equal(vc, v)
        monkeypatch.undo()


def test_choose_k_memory_does_not_grow_with_the_points(mixed_spec):
    # 2^18 points: the (point, shift) arrays of one evaluation would take
    # ~300 MB; in parts the peak is the outputs plus one part's arrays
    xs = (np.arange(1 << 18) + 0.5) / (1 << 18)
    tail = TailSpec(mixed_spec, 1)
    tracemalloc.start()
    try:
        k, v = choose_k(tail, xs, K=8, depth=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_point = 32  # k and value, and the two arrays they are selected from
    assert peak - per_point * xs.size < 24 << 20  # 166 MB over this in one part
    assert k.shape == v.shape == xs.shape


def test_choose_k_memory_does_not_grow_with_the_window(mixed_spec):
    # K = 256: 513 shifts; in parts of 8,192 points the (point, shift)
    # arrays of 2,048 points would take ~40 MB, in parts of 17 * 8,192 pairs ~6 MB
    xs = (np.arange(2048) + 0.5) / 2048
    tail = TailSpec(mixed_spec, 1)
    tracemalloc.start()
    try:
        k, v = choose_k(tail, xs, K=256, depth=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 32 * xs.size < 12 << 20
    assert k.shape == v.shape == xs.shape


def test_choose_k_memory_does_not_grow_with_the_depth(jp_spec):
    # at depth 200 the kernel holds 1,200 floats per point: 8,192 points in
    # one part would take ~80 MB a side, in parts of 4 MB ~8 MB in all
    xs = (np.arange(8192) + 0.5) / 8192
    tail = TailSpec(jp_spec, 1)
    tracemalloc.start()
    try:
        k, v = choose_k(tail, xs, K=8, depth=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 32 * xs.size < 12 << 20
    assert k.shape == v.shape == xs.shape


def test_choose_k_ties_at_one_half_are_exact(jp_spec, mixed_spec, e14_spec):
    # at x = 1/2, choose_k takes the point x - 1/2 = 0 and the offsets k + 1/2,
    # so the shifts k and -1 - k are exact negatives; the moduli come from
    # the squared kernel the search uses, a lone point taken as two rows
    k = np.arange(9)
    for spec in (jp_spec, mixed_spec, e14_spec):
        for skip in (0, 1, 2):
            tail = TailSpec(spec, skip)
            factors = [(f.triple.B, f.product) for f in tail.factors(DEFAULT_TAIL_DEPTH)]
            up = np.sqrt(_mask_power(factors, np.zeros(2), k + 0.5)[0])
            down = np.sqrt(_mask_power(factors, np.zeros(2), -1 - k + 0.5)[0])
            assert np.array_equal(up, down)
            # of each tied pair, the search order meets k >= 0 first
            best, value = choose_k(tail, 0.5)
            assert 0 <= best <= 8 and value == up[best] == up.max()
            # and the kernel agrees with the complex transform
            exact = np.abs(fourier_tail(tail, 0.0, offsets=k + 0.5).value)
            assert np.max(np.abs(up - exact)) <= 2e-15


def test_choose_k_reads_moduli_under_the_floor_as_zero(e14_tail_spec):
    # example14 :2 is uniform on [0, 3], so its transform vanishes on 1/3 + Z:
    # every squared modulus there is rounding of 0, below the floor, so the
    # shifts tie at 0 and the first in search order wins on every path
    tail = TailSpec(e14_tail_spec, 1)
    k, v = choose_k(tail, np.array([1 / 3, 0.5, 2 / 3]))
    assert (k[0], v[0]) == (k[2], v[2]) == (0, 0.0)
    assert choose_k(tail, 1 / 3) == (0, 0.0)
    verdict = integral_periodic_zero_probe(e14_tail_spec, 1 / 3)
    assert verdict.to_json()["verdict"] == "candidate-zero"
    assert (verdict.max_k, verdict.max_value) == (0, 0.0)


def test_choose_k_lone_point_is_bit_identical_to_the_array(jp_spec, mixed_spec):
    # a lone point runs as two equal rows, the array's BLAS path
    xs = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    for spec in (jp_spec, mixed_spec):
        tail = TailSpec(spec, 1)
        k, v = choose_k(tail, xs)
        assert [choose_k(tail, x) for x in xs.tolist()] == list(zip(k.tolist(), v.tolist()))
        for x, value in zip(xs.tolist(), v.tolist()):
            assert integral_periodic_zero_probe(tail, x, tol=1.0).max_value == value


def test_choose_k_matches_the_complex_transform(jp_spec, mixed_spec, e14_spec, e14_tail_spec):
    # values above 1e-4 agree with |fourier_tail| at the chosen k within 1e-14
    # relative; where the complex argmax picks another k, the two values tie
    xs = np.arange(1, 64) / 64
    ks = search_order(4)
    rng = random.Random(11)
    specs = [jp_spec, mixed_spec, e14_spec, e14_tail_spec] + [random_spec(rng) for _ in range(16)]
    for spec in specs:
        for skip in (0, 1):
            tail = TailSpec(spec, skip)
            k, v = choose_k(tail, xs, K=4, depth=30)
            moduli = np.abs(fourier_tail(tail, xs - 0.5, 30, offsets=np.array(ks) + 0.5).value)
            at_k = moduli[np.arange(xs.size), [ks.index(j) for j in k.tolist()]]
            big = v > 1e-4
            assert np.all(np.abs(v - at_k)[big] <= 1e-14 * v[big]), spec.describe()
            top = moduli.max(axis=1)
            assert np.all(np.abs(v - top)[big] <= 1e-14 * v[big]), spec.describe()


def test_choose_k_agrees_with_mpmath(jp_spec, mixed_spec):
    mpmath = pytest.importorskip("mpmath")

    def modulus(tail, x, k, depth=40):
        with mpmath.workdps(40):
            y = mpmath.mpf(x) + k
            v = mpmath.mpc(1)
            for f in tail.factors(depth):
                v *= mpmath.fsum(mpmath.expjpi(-2 * b * y / f.product) for b in f.triple.B)
                v /= len(f.triple.B)
            return float(abs(v))

    for spec, skip, xs in ((jp_spec, 1, (0.25, 0.6)), (mixed_spec, 0, (0.1, 0.7))):
        tail = TailSpec(spec, skip)
        k, v = choose_k(tail, np.array(xs))
        for x, j, value in zip(xs, k.tolist(), v.tolist()):
            exact = modulus(tail, x, j)
            assert abs(value - exact) <= 1e-15 * exact, (spec.describe(), x, j)


def test_choose_k_window_in_chunks_is_bit_identical(monkeypatch, jp_spec, mixed_spec, e14_tail_spec):
    # the window cut into chunks carries the first maximum, so the ties at
    # x = 1/2 and at the zeros of e14 still go to the first shift in order
    xs = np.concatenate([np.arange(37) / 37, [0.5, 1 / 3, 2 / 3]])
    for spec in (jp_spec, mixed_spec, e14_tail_spec):
        tail = TailSpec(spec, 1)
        k, v = choose_k(tail, xs, K=12, depth=20)
        width = convspec.zeros._Window.of(tail, 12, 20).width
        for shifts in (2, 3, 7, 12):  # shifts per chunk, of 25
            monkeypatch.setattr(convspec.zeros, "_SIDE_BYTES", 8 * width * shifts)
            assert convspec.zeros._Window.of(tail, 12, 20).chunks > 1
            kc, vc = choose_k(tail, xs, K=12, depth=20)
            assert np.array_equal(kc, k) and np.array_equal(vc, v)
        monkeypatch.undo()


def test_choose_k_memory_at_a_wide_window(jp_spec):
    # K = 100000 on 2 points: one kernel call over the 200,001 shifts would
    # hold ~380 MB; in chunks the peak is the window and one chunk's arrays
    tail = TailSpec(jp_spec, 0)
    tracemalloc.start()
    try:
        k, v = choose_k(tail, np.array([0.25, 0.5]), K=100000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    assert (k[0], v[0]) == choose_k(tail, 0.25, K=8)


def test_tail_moduli_ignore_digit_translation(e14_tail_spec):
    # example14 :2, whose limit is uniform on [0, 3] and vanishes on 1/3 + Z
    x = np.array([1 / 3, 2 / 3])
    ks = np.array(search_order(8), dtype=float)
    base = np.abs(fourier_tail(e14_tail_spec, x, offsets=ks).value)
    one, two = e14_tail_spec.family
    for b in range(-3, 4):
        spec = ConvolutionSpec((one, translate_triple(two, b, 0)), e14_tail_spec.word)
        moved = np.abs(fourier_tail(spec, x, offsets=ks).value)
        assert np.all(np.abs(moved - base) <= 1e-14 * base)
        worst = probe_family(spec, [0, 1, 2], grid_n=192).worst
        assert abs(worst.x - 1 / 3) <= 1 / 192


def test_choose_k_window_must_be_positive(jp_spec):
    with pytest.raises(ValueError, match="K must be >= 1"):
        choose_k(TailSpec(jp_spec, 0), 0.25, K=0)
    with pytest.raises(ValueError, match="K must be >= 1"):
        probe_family(jp_spec, (0,), grid_n=4, K=0)


def test_searches_need_at_least_one_factor(jp_spec):
    # the tail transform takes depth 0, but a search over the empty product proves nothing
    with pytest.raises(ValueError, match="depth must be >= 1, got 0"):
        choose_k(TailSpec(jp_spec, 0), 0.25, depth=0)
    with pytest.raises(ValueError, match="depth must be >= 1, got 0"):
        probe_family(jp_spec, (0,), grid_n=4, depth=0)
    with pytest.raises(ValueError, match="depth must be >= 1, got 0"):
        integral_periodic_zero_probe(jp_spec, 0.5, depth=0)


def test_probe_rejects_non_integer_and_negative_skips(jp_spec):
    # int() used to turn skip 1.5 into skip 1 without a word
    for skips in ((1.5,), (0, 1.0), (0, -1)):
        with pytest.raises(ValueError, match="skips"):
            probe_family(jp_spec, skips, grid_n=4)


def test_probe_xi_agrees_with_equipos_grid(jp_spec):
    # both answer |mu^(1/2 + k)| through the same shift search arithmetic
    verdict = integral_periodic_zero_probe(jp_spec, 0.5)
    row = probe_family(jp_spec, (0,), grid_n=2).rows[1]
    assert (row.x, row.k) == (0.5, verdict.witness_k)
    assert verdict.witness_value == row.value


def test_probe_jp_certificate(jp_spec):
    cert = probe_family(jp_spec, range(5), grid_n=128, K=8, depth=40)
    assert cert.ok
    assert cert.epsilon_hat > 0.05
    # recorded baseline: worst grid point is x = 1/2
    assert cert.epsilon_hat == pytest.approx(0.6926289126994456, abs=1e-9)
    assert cert.worst.x == pytest.approx(0.5)
    assert cert.delta_hat == pytest.approx(1.0 / 256.0)
    assert len(cert.rows) == 5 * 128


def test_probe_mixed_family_certificate(mixed_spec):
    cert = probe_family(mixed_spec, range(5), grid_n=128, K=8, depth=40)
    assert cert.ok
    assert cert.epsilon_hat > 0
    # every tail of the alternating word is uniform on [0,1] (the paired
    # factors fill the base-6 digits), so the worst grid value is the sinc
    # modulus at x = 1/2: exactly 2/pi
    assert cert.epsilon_hat == pytest.approx(2.0 / math.pi, abs=1e-10)
    assert cert.worst.x == pytest.approx(0.5)


def test_probe_e14_failure_at_one_third(e14_tail_spec):
    cert = probe_family(e14_tail_spec, (0, 1, 2), grid_n=192, K=8, depth=40)
    assert not cert.ok
    assert cert.epsilon_hat <= 1e-4
    assert abs(cert.worst.x - 1 / 3) < 1 / 128


def test_probe_rows_and_worst_follow_the_sorted_table(mixed_spec, e14_tail_spec):
    # reference: every (x, skip) row sorted by (x, skip), equal skips in the
    # order given, and the first minimum of that table
    for spec, skips in ((mixed_spec, (3, 0, 1, 0, 2)), (e14_tail_spec, (2, 1, 0, 1))):
        cert = probe_family(spec, skips, grid_n=48, K=8, depth=40)
        xs = np.arange(48) / 48
        rows = []
        for n in skips:
            k, v = choose_k(TailSpec(spec, n), xs, 8, 40)
            rows.extend(zip(xs.tolist(), [n] * 48, k.tolist(), v.tolist()))
        rows.sort(key=lambda r: (r[0], r[1]))
        assert [tuple(r) for r in cert.rows] == rows
        assert tuple(cert.worst) == min(rows, key=lambda r: r[3])
        assert cert.worst is cert.rows[rows.index(min(rows, key=lambda r: r[3]))]


def distinct_tail_cases(jp_spec, e14_spec, mixed_spec):
    """(spec, skips, number of distinct (B, P_k) sequences among the tails)."""
    return [
        (jp_spec, (0, 1, 2, 3, 4), 1),  # every tail of jp is jp itself
        (e14_spec, (0, 1, 2), 2),  # word 1:2, then 2:2 from skip 1 on
        (mixed_spec, (0, 1, 2, 3, 4), 2),  # word :12 alternates two tails
        # exponents :13, so skips 0 and 1 share triples but not P_k
        (ConvolutionSpec(jp_spec.family, SelectionWord(exp_period=(1, 3))), (0, 1), 2),
        # word 2:2 shifts to :2, a different word spelling the same sequence
        (ConvolutionSpec(e14_spec.family, SelectionWord((2,), (2,))), (0, 1), 1),
    ]


def test_probe_searches_each_distinct_tail_once(monkeypatch, jp_spec, e14_spec, mixed_spec):
    searched = []

    def counting_choose_k(tail, *args):
        searched.append(tail)
        return choose_k(tail, *args)

    monkeypatch.setattr(convspec.equipos, "choose_k", counting_choose_k)
    for spec, skips, distinct in distinct_tail_cases(jp_spec, e14_spec, mixed_spec):
        searched.clear()
        probe_family(spec, skips, grid_n=16, K=4, depth=30)
        assert len(searched) == distinct, (spec.describe(), skips)


def test_probe_shared_searches_match_separate_ones(jp_spec, e14_spec, mixed_spec):
    # every row and the worst one, bit for bit, against one search per skip
    xs = np.arange(40) / 40
    for spec, given, _ in distinct_tail_cases(jp_spec, e14_spec, mixed_spec):
        for skips in (given, (2, 0, 2)):
            cert = probe_family(spec, skips, grid_n=40, K=6, depth=30)
            rows = []
            for n in skips:
                k, v = choose_k(TailSpec(spec, n), xs, 6, 30)
                rows.extend(zip(xs.tolist(), [n] * 40, k.tolist(), v.tolist()))
            rows.sort(key=lambda r: (r[0], r[1]))
            assert [tuple(r) for r in cert.rows] == rows
            assert tuple(cert.worst) == min(rows, key=lambda r: r[3])


def test_probe_grid_refinement_never_raises_epsilon(jp_spec):
    coarse = probe_family(jp_spec, (0, 1), grid_n=64)
    fine = probe_family(jp_spec, (0, 1), grid_n=128)
    finer = probe_family(jp_spec, (0, 1), grid_n=256)
    assert fine.epsilon_hat <= coarse.epsilon_hat + 1e-15
    assert finer.epsilon_hat <= fine.epsilon_hat + 1e-15


def test_probe_larger_window_never_lowers_epsilon(mixed_spec):
    small = probe_family(mixed_spec, (0, 1), grid_n=64, K=2)
    large = probe_family(mixed_spec, (0, 1), grid_n=64, K=8)
    assert large.epsilon_hat >= small.epsilon_hat - 1e-15


def test_probe_deterministic_bit_for_bit(mixed_spec):
    a = probe_family(mixed_spec, (0, 1, 2), grid_n=64)
    b = probe_family(mixed_spec, (0, 1, 2), grid_n=64)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


def test_certificate_rows_account_truncation(jp_spec):
    from convspec import fourier_tail, tail_truncation_bound

    cert = probe_family(jp_spec, (0,), grid_n=16, K=4, depth=30)
    for row in cert.rows:
        tail = TailSpec(jp_spec, row.skip)
        point = row.x + row.k
        bound = tail_truncation_bound(tail, point, 30)
        # true transform stays above the certified floor minus the bound
        deep = abs(fourier_tail(tail, point, 200).value)
        assert deep >= cert.epsilon_hat - bound - 1e-12


def test_probe_validates_inputs(jp_spec):
    with pytest.raises(ValueError):
        probe_family(jp_spec, ())
    with pytest.raises(ValueError):
        probe_family(jp_spec, (0,), grid_n=1)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -1.0])
def test_probe_needs_a_finite_nonnegative_threshold(e14_tail_spec, threshold):
    # a negative threshold certified the uniform word, whose eps-hat is ~0
    with pytest.raises(ValueError, match="failure_threshold must be finite and >= 0"):
        probe_family(e14_tail_spec, (0,), grid_n=6, failure_threshold=threshold)


def test_certificate_csv_shape(jp_spec):
    cert = probe_family(jp_spec, (0,), grid_n=8, K=2, depth=10)
    lines = cert.to_csv().strip().splitlines()
    assert lines[0] == "x,skip,k,value"
    assert len(lines) == 1 + 8


def test_table_text_formats_each_search_by_identity(jp_spec):
    # skips 0 and 1 of jp share one search, so one pair of column tuples
    cert = probe_family(jp_spec, (1, 0), grid_n=4, K=2, depth=10)
    assert cert.columns[0] is cert.columns[1]
    want = [f"{r.x!r},{r.skip},{r.k},{r.value!r}" for r in cert.rows]
    assert cert.lines() == want
    assert cert.to_csv() == "\n".join(["x,skip,k,value", *want]) + "\n"
    # the same columns as separate objects: an equal certificate, the same text
    apart = dataclasses.replace(
        cert, columns=tuple((tuple(list(k)), tuple(list(v))) for k, v in cert.columns)
    )
    assert apart.columns[0] is not apart.columns[1]
    assert apart == cert and apart.lines() == want and apart.to_json() == cert.to_json()
    # 0.0 == -0.0, so columns that differ only in that sign are equal, yet
    # each keeps its own text
    k = cert.columns[0][0]
    signed = dataclasses.replace(cert, columns=((k, (0.0,) * 4), (k, (-0.0,) * 4)))
    assert signed.columns[0] == signed.columns[1]
    assert [line.rsplit(",", 1)[1] for line in signed.lines()] == ["0.0", "-0.0"] * 4
    assert signed.lines(";", "<", ">")[1] == f"<0.0;1;{k[0]};-0.0>"
