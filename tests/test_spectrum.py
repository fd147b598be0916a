"""Inductive spectrum construction: blocks, levels, shifts, gcd certificate."""

import math
import random
import warnings
from itertools import product

import numpy as np
import pytest

from convspec import (
    BuildParams,
    ConvolutionSpec,
    EquiPositivityViolation,
    GcdNotCertifiedWarning,
    HadamardTriple,
    HorizonExhaustedError,
    SelectionWord,
    SpectrumLevels,
    block_frequencies,
    build_spectrum,
    certify_gcd_condition,
    finite_level,
    next_level,
    orthonormality_gram,
    verify_triple,
)
import convspec.spectrum
from conftest import random_spec


def eq11_truncation(n):
    """Canonical spectrum of the quarter-scale measure, truncated at n digits."""
    return sorted(
        sum(l * 4**j for j, l in enumerate(combo))
        for combo in product((0, 1), repeat=n)
    )


def build_quiet(spec, depth_i, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GcdNotCertifiedWarning)
        return build_spectrum(spec, depth_i, **kw)


def test_block_frequencies_jp(jp_spec):
    b = block_frequencies(jp_spec, 0, 2)
    assert b.N == 16
    assert sorted(b.L) == [0, 1, 4, 5]
    assert sorted(b.B) == [0, 2, 8, 10]
    assert verify_triple(b.N, b.B, b.L).ok
    single = block_frequencies(jp_spec, 0, 1)
    assert single.N == 4 and sorted(single.L) == [0, 1]


def test_block_frequencies_mixed_word():
    spec = ConvolutionSpec(
        (HadamardTriple(2, (0, 1), (0, 1)), HadamardTriple(3, (0, 1, 2), (0, 1, 2))),
        SelectionWord(period=(1, 2)),
    )
    b = block_frequencies(spec, 0, 2)
    assert b.N == 6
    assert sorted(b.L) == [0, 1, 2, 3, 4, 5]
    assert verify_triple(b.N, b.B, b.L).ok


def test_block_frequencies_with_exponents(jp_spec):
    spec = ConvolutionSpec(jp_spec.family, SelectionWord(period=(1,), exp_period=(2,)))
    b = block_frequencies(spec, 0, 1)
    # effective triple (16, {0,2}, 4*{0,1})
    assert b.N == 16
    assert sorted(b.L) == [0, 4]
    assert verify_triple(b.N, b.B, b.L).ok


def test_block_frequencies_invalid_range(jp_spec):
    with pytest.raises(ValueError, match="invalid range"):
        block_frequencies(jp_spec, 2, 2)
    with pytest.raises(ValueError, match="invalid range"):
        block_frequencies(jp_spec, -1, 1)


def test_jp_levels_match_canonical_truncations(jp_spec):
    levels = build_quiet(jp_spec, 3, params=BuildParams(delta=0.2))
    assert levels.indices == (1, 2, 3)
    assert list(levels.level(1)) == eq11_truncation(1)
    assert list(levels.level(2)) == eq11_truncation(2)
    assert list(levels.level(3)) == eq11_truncation(3)
    assert all(k == 0 for sh in levels.shifts for _, k in sh)


def test_levels_past_int64_match_set_and_sort(jp_spec):
    # with exponent 3 every lambda grows by 64 per level: L11 passes 2^63,
    # so the composition switches to Python ints
    spec = ConvolutionSpec(jp_spec.family, SelectionWord(exp_period=(3,)))
    levels = build_quiet(spec, 12)
    assert levels.level(10)[-1] < 2**63 <= levels.level(11)[-1]
    for i in range(1, 13):
        m_prev = levels.m(i - 1) if i > 1 else 0
        n = block_frequencies(spec, m_prev, levels.m(i)).N
        n0 = spec.scale_product(m_prev)
        points = [lam + k * n for lam, k in levels.shifts[i - 1]]
        want = sorted({a + n0 * b for a in levels.level(i - 1).tolist() for b in points})
        assert levels.level(i).tolist() == want
        if want[-1] < 2**63:
            assert levels.level(i).dtype == np.int64
        else:
            assert levels.level(i).dtype == object
            assert all(type(lam) is int for lam in levels.level(i))


def test_levels_are_read_only_arrays(jp_spec):
    # int64 while the values fit, Python ints from the first level past 2^63
    spec = ConvolutionSpec(jp_spec.family, SelectionWord(exp_period=(3,)))
    levels = build_quiet(spec, 12)
    dtypes = [levels.level(i).dtype for i in range(13)]
    assert dtypes == [np.dtype(np.int64)] * 11 + [np.dtype(object)] * 2
    for i in (3, 12):
        with pytest.raises(ValueError, match="read-only"):
            levels.level(i)[0] = 5
    with pytest.raises(TypeError, match="unhashable"):
        hash(levels)


def test_levels_copy_a_writeable_array(mixed_spec):
    # a writeable int64 level is copied, so changing it later changes no level
    levels = build_quiet(mixed_spec, 1)
    top = np.array(levels.level(1))
    again = SpectrumLevels(levels.levels[:1] + (top,), levels.indices, levels.shifts, levels.params)
    top[0] = 99
    assert again == levels
    assert again.level(1)[0] == levels.level(1)[0] != 99
    # == compares the levels by value
    moved = SpectrumLevels(levels.levels[:1] + (top,), levels.indices, levels.shifts, levels.params)
    assert moved != levels


def test_levels_json_keeps_integers_past_int64(mixed_spec):
    # numpy would infer float64 for [0, 2**63 + 1] and round it to 2**63
    js = build_quiet(mixed_spec, 1).to_json()
    js["levels"][1] = [0, 2**63 + 1]
    levels = SpectrumLevels.from_json(js)
    assert levels.level(1).dtype == object
    assert levels.level(1).tolist() == [0, 2**63 + 1]
    js["levels"][1] = [-(2**63), 2**63 - 1]
    assert SpectrumLevels.from_json(js).level(1).dtype == np.int64
    assert SpectrumLevels.from_json(levels.to_json()) == levels


def test_first_level_is_block_frequencies(mixed_spec):
    levels = build_quiet(mixed_spec, 1)
    m1 = levels.indices[0]
    b = block_frequencies(mixed_spec, 0, m1)
    assert sorted(levels.level(1)) == sorted(b.L)  # all shifts zero or folded in


def test_nesting_membership_cardinality(mixed_spec, jp_spec):
    for spec, depth in ((mixed_spec, 4), (jp_spec, 4)):
        levels = build_quiet(spec, depth)
        for i in range(1, depth + 1):
            cur = set(levels.level(i))
            assert 0 in cur
            assert set(levels.level(i - 1)) <= cur
            m_i = levels.m(i)
            want = math.prod(len(spec.triple_at(k).L) for k in range(1, m_i + 1))
            assert len(cur) == want


def test_levels_are_exact_spectra_of_finite_levels(mixed_spec, jp_spec):
    for spec, depth in ((mixed_spec, 3), (jp_spec, 3)):
        levels = build_quiet(spec, depth)
        for i in range(1, depth + 1):
            mu = finite_level(spec, levels.m(i))
            assert orthonormality_gram(mu, levels.level(i)) <= 1e-10


def test_delta_guard_holds_post_hoc(mixed_spec):
    params = BuildParams(delta=0.2)
    levels = build_quiet(mixed_spec, 4, params=params)
    for i in range(2, levels.level_count + 1):
        prev = levels.level(i - 1)
        scale = abs(mixed_spec.scale_product(levels.m(i)))
        assert max(abs(l) for l in prev) / scale < params.delta / 2


def test_smaller_delta_pushes_indices_up(jp_spec):
    wide = build_quiet(jp_spec, 2, params=BuildParams(delta=0.2))
    tight = build_quiet(jp_spec, 2, params=BuildParams(delta=0.002))
    assert tight.indices[1] > wide.indices[1]
    # still an exact spectrum of its finite level
    mu = finite_level(jp_spec, tight.m(2))
    assert orthonormality_gram(mu, tight.level(2)) <= 1e-10


def test_index_search_stops_at_max_m(jp_spec):
    # jp's indices are 1, 2, 3, 4: a horizon of 3 builds three levels, not four
    params = BuildParams(max_m=3)
    levels = build_quiet(jp_spec, 3, params=params)
    assert levels.indices == (1, 2, 3)
    with pytest.raises(HorizonExhaustedError, match="after m=3 up to max_m=3$"):
        next_level(jp_spec, levels)
    with pytest.raises(HorizonExhaustedError):
        build_quiet(jp_spec, 4, params=params)


@pytest.mark.parametrize("name", ["jp", "mixed"])
def test_index_search_forms_factors_only_up_to_m_i(jp_spec, mixed_spec, name):
    # the spec's own factor table stops at the last index found, not at max_m
    spec = {"jp": jp_spec, "mixed": mixed_spec}[name]
    fresh = ConvolutionSpec(spec.family, spec.word)
    levels = build_quiet(fresh, 3)
    assert len(fresh.__dict__["_factor_table"]) == levels.m(3) < levels.params.max_m


def test_gcd_certificates():
    ok = certify_gcd_condition(
        (HadamardTriple(2, (0, 1), (0, 1)), HadamardTriple(3, (0, 1, 2), (0, 1, 2)))
    )
    assert ok.certified and ok.offending == ()
    bad = certify_gcd_condition(
        (HadamardTriple(2, (0, 1), (0, 1)), HadamardTriple(2, (0, 3), (0, 1)))
    )
    assert not bad.certified
    assert bad.offending == (2,)
    assert bad.gcds == (1, 3)
    single = certify_gcd_condition((HadamardTriple(4, (0, 2), (0, 1)),))
    assert not single.certified
    assert single.offending == (1,)
    assert single.gcds == (2,)
    assert single.note is not None and "single-triple" in single.note


def test_gcd_warning_emitted_and_construction_proceeds(jp_spec):
    with pytest.warns(GcdNotCertifiedWarning):
        levels = build_spectrum(jp_spec, 2)
    assert levels.level_count == 2


def test_mixed_family_no_warning(mixed_spec):
    with warnings.catch_warnings():
        warnings.simplefilter("error", GcdNotCertifiedWarning)
        build_spectrum(mixed_spec, 2)


def test_e14_uniform_word_violates_equipositivity(e14_tail_spec):
    with pytest.raises(EquiPositivityViolation) as err:
        build_quiet(e14_tail_spec, 3)
    exc = err.value
    assert exc.achieved < BuildParams().epsilon
    assert exc.m >= 2
    assert exc.lam != 0


def test_next_level_keeps_the_parameters_of_its_state(mixed_spec):
    params = BuildParams(delta=0.25, epsilon=0.1, K=5, depth=33, max_m=64)
    state = next_level(mixed_spec, build_quiet(mixed_spec, 2, params=params))
    assert state.params == params
    assert state == build_quiet(mixed_spec, 3, params=params)


def every_search(spec, depth_i, params):
    """depth_i levels, each step on a new spec, so that no step reads back a search."""
    state = SpectrumLevels.initial(params)
    for _ in range(depth_i):
        state = next_level(ConvolutionSpec(spec.family, spec.word), state)
    return state


def or_refusal(build):
    """build(), or the message of the equi-positivity violation it raises."""
    try:
        return build()
    except EquiPositivityViolation as err:
        return str(err)


def test_next_level_searches_each_distinct_step_once(jp_spec, mixed_spec, monkeypatch):
    calls = []
    search = convspec.spectrum.choose_k
    monkeypatch.setattr(convspec.spectrum, "choose_k",
                        lambda *a, **kw: calls.append(1) or search(*a, **kw))
    jp3 = ConvolutionSpec(jp_spec.family, SelectionWord(exp_period=(3,)))
    jp123 = ConvolutionSpec(jp_spec.family, SelectionWord(exp_prefix=(1, 2, 3), exp_period=(4,)))
    rng = random.Random(83)
    cases = [(jp_spec, 9, 1), (jp3, 8, 1), (mixed_spec, 8, 2), (mixed_spec, 5, 2), (jp123, 3, 3)]
    cases += [(random_spec(rng), 4, None) for _ in range(8)]
    for spec, depth_i, searches in cases:
        shared = ConvolutionSpec(spec.family, spec.word)
        for params in (BuildParams(), BuildParams(delta=0.25, K=5, depth=33)):
            calls.clear()
            fresh = ConvolutionSpec(spec.family, spec.word)
            levels = or_refusal(lambda: build_quiet(fresh, depth_i, params=params))
            alone = len(calls)
            assert levels == or_refusal(lambda: every_search(spec, depth_i, params))
            # a spec that has searched under other parameters searches again
            calls.clear()
            assert or_refusal(lambda: build_quiet(shared, depth_i, params=params)) == levels
            assert len(calls) == alone
            if searches is not None and params == BuildParams():
                assert alone == searches
    # epsilon is not in the key: a spec that has searched every jp step
    # still refuses a level below a demanded floor, as a fresh spec does
    first = build_quiet(jp_spec, 9)
    strict = SpectrumLevels(first.levels[:2], first.indices[:1], first.shifts[:1],
                            BuildParams(epsilon=0.99))
    for spec in (jp_spec, ConvolutionSpec(jp_spec.family, jp_spec.word)):
        with pytest.raises(EquiPositivityViolation) as err:
            next_level(spec, strict)
        assert (err.value.lam, err.value.m) == (1, 2)


def sorted_outer_sum(spec, levels, i, prev=None):
    """Level i as np.sort of the outer sum of prev (level i - 1 by default)
    and the block points, row-major in the dtype of the level."""
    prev = levels.level(i - 1) if prev is None else prev
    m_prev = levels.m(i - 1) if i > 1 else 0
    n = block_frequencies(spec, m_prev, levels.m(i)).N
    n0 = spec.scale_product(m_prev)
    dtype = levels.level(i).dtype
    points = np.array([n0 * (lam + k * n) for lam, k in levels.shifts[i - 1]], dtype=dtype)
    return np.sort(np.add.outer(prev.astype(dtype), points), axis=None)


def test_next_level_equals_the_sorted_outer_sum(jp_spec, mixed_spec):
    # the level is merged from its block-major sorted runs; it must be the
    # array a full sort of the row-major sum gives, past int64 too
    jp3 = ConvolutionSpec(jp_spec.family, SelectionWord(exp_period=(3,)))
    rng = random.Random(3101)
    cases = [(jp3, 12), (mixed_spec, 6)] + [(random_spec(rng), 4) for _ in range(10)]
    built = 0
    for spec, depth_i in cases:
        levels = or_refusal(lambda: build_quiet(spec, depth_i))
        if isinstance(levels, str):
            continue
        built += 1
        for i in range(1, depth_i + 1):
            want = sorted_outer_sum(spec, levels, i)
            assert want.dtype == levels.level(i).dtype
            assert np.array_equal(levels.level(i), want)
    assert built >= 8
    assert build_quiet(jp3, 12).level(12).dtype == object
    # an unsorted previous level gives the same level, as the full sort does
    levels = build_quiet(mixed_spec, 6)
    for i in (2, 6):
        shuffled = levels.level(i - 1).copy()
        np.random.default_rng(i).shuffle(shuffled)
        state = SpectrumLevels(levels.levels[: i - 1] + (shuffled,), levels.indices[: i - 1],
                               levels.shifts[: i - 1], levels.params)
        got = next_level(mixed_spec, state).level(i)
        assert np.array_equal(got, levels.level(i))
        assert np.array_equal(got, sorted_outer_sum(mixed_spec, levels, i, shuffled))


def test_non_hadamard_block_collapses_the_level(jp_spec, monkeypatch):
    # normalization refuses frequencies equal mod N, so the block is patched:
    # (4, {0, 2}, {0, 4}) is no Hadamard triple, and its two frequencies
    # meet at one block point
    bad = HadamardTriple(4, (0, 2), (0, 4))
    assert not verify_triple(bad.N, bad.B, bad.L).ok
    monkeypatch.setattr(convspec.spectrum, "block_frequencies", lambda spec, p, q: bad)
    with pytest.raises(RuntimeError, match="level cardinality collapsed"):
        build_quiet(jp_spec, 1)


@pytest.mark.parametrize(
    "field, value",
    [("levels", [[0], [0, 1.5]]), ("indices", [1.0]), ("shifts", [[[1, 0.5]]]),
     ("levels", [[0], [[0, 1]]]), ("levels", [[0], [[0], [1, 2]]]), ("levels", [[0], ["0", "1"]]),
     ("levels", [5])],  # a level that is not a sequence
)
def test_levels_json_rejects_non_integers(mixed_spec, field, value):
    js = build_quiet(mixed_spec, 1).to_json()
    js[field] = value
    with pytest.raises(ValueError, match=f"{field} must be integers"):
        SpectrumLevels.from_json(js)


@pytest.mark.parametrize(
    "key, value",
    [("delta", -1.0), ("delta", float("nan")), ("epsilon", 0.0), ("K", 0), ("depth", 2.5)],
)
def test_levels_json_validates_parameters(mixed_spec, key, value):
    js = build_quiet(mixed_spec, 1).to_json()
    js["parameters"][key] = value
    with pytest.raises(ValueError):
        SpectrumLevels.from_json(js)


def test_next_level_from_initial_state(jp_spec):
    state = SpectrumLevels.initial(BuildParams())
    state = next_level(jp_spec, state)
    assert [lv.tolist() for lv in state.levels] == [[0], [0, 1]]
    assert state.indices == (1,)


def test_levels_json_round_trip(mixed_spec):
    levels = build_quiet(mixed_spec, 3)
    again = SpectrumLevels.from_json(levels.to_json())
    assert again == levels


def test_parameters_round_trip_including_max_m(mixed_spec):
    params = BuildParams(delta=0.25, epsilon=0.1, K=5, depth=33, max_m=64)
    levels = build_quiet(mixed_spec, 3, params=params)
    assert levels.params.max_m == 64
    js = levels.to_json()
    assert js["parameters"] == params.to_json()
    assert SpectrumLevels.from_json(js) == levels


@pytest.mark.parametrize("missing", ["delta", "epsilon", "K", "depth", "max_m"])
def test_levels_json_missing_parameter_raises(mixed_spec, missing):
    js = build_quiet(mixed_spec, 2).to_json()
    del js["parameters"][missing]
    with pytest.raises(KeyError, match=missing):
        SpectrumLevels.from_json(js)
    del js["parameters"]
    with pytest.raises(KeyError, match="parameters"):
        SpectrumLevels.from_json(js)


def test_build_rejects_zero_depth(jp_spec):
    with pytest.raises(ValueError):
        build_quiet(jp_spec, 0)


@pytest.mark.parametrize("delta", [math.inf, -math.inf, math.nan, 0.0])
def test_build_params_need_a_finite_positive_delta(delta):
    # an infinite delta used to reach Fraction(inf) inside next_level
    with pytest.raises(ValueError, match="delta"):
        BuildParams(delta=delta)


@pytest.mark.parametrize("epsilon", [math.inf, math.nan, 0.0, -1.0])
def test_build_params_need_a_finite_positive_epsilon(epsilon):
    # an infinite epsilon used to print "epsilon": Infinity, which is not JSON
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        BuildParams(epsilon=epsilon)

