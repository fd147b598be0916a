"""Triple validation, translation, reduction, composition, difference gcds."""

import cmath
import math
import random

import numpy as np
import pytest

from convspec import (
    HadamardTriple,
    compose_triples,
    difference_gcd,
    mask,
    normalize_frequencies,
    reduce_frequencies,
    translate_triple,
    verify_triple,
)
from convspec.triples import _digits, _pairs
from conftest import random_triple


def gram_deviation_oracle(N, B, L):
    """Direct row-inner-product evaluation, independent of the library path."""
    size = len(B)
    worst = 0.0
    for i, b in enumerate(B):
        for j, bp in enumerate(B):
            s = sum(
                cmath.exp(-2j * math.pi * (b - bp) * l / N) for l in L
            ) / size
            worst = max(worst, abs(s - (1.0 if i == j else 0.0)))
    return worst


def test_verify_examples_pass():
    assert verify_triple(4, [0, 2], [0, 1], 1e-12).ok
    assert verify_triple(2, [0, 3], [0, 1], 1e-12).ok


def test_verify_example_fails_with_oracle_deviation():
    r = verify_triple(3, [0, 1], [0, 1], 1e-12)
    assert not r.ok
    expected = gram_deviation_oracle(3, [0, 1], [0, 1])
    assert expected > 0
    assert r.deviation == pytest.approx(expected, abs=1e-14)
    # |(1 + e^{2 pi i/3})/2| = 1/2
    assert r.deviation == pytest.approx(0.5, abs=1e-14)


def test_verify_size_mismatch_reported_not_thrown():
    r = verify_triple(4, [0, 2], [0, 1, 2], 1e-12)
    assert not r.ok
    assert r.reason == "size-mismatch"
    assert r.deviation is None


def test_verify_invalid_scale_raises():
    with pytest.raises(ValueError, match="invalid scale"):
        verify_triple(1, [0, 1], [0, 1])
    with pytest.raises(ValueError, match="invalid scale"):
        verify_triple(0, [0, 1], [0, 1])


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, -math.inf])
def test_verify_triple_needs_a_finite_nonnegative_tol(tol):
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        verify_triple(4, [0, 2], [0, 1], tol=tol)


def test_verify_triple_accepts_zero_tol():
    r = verify_triple(4, [0, 2], [0, 1], tol=0.0)
    assert r.ok is (r.deviation == 0.0)


def test_triple_constructor_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate digits"):
        HadamardTriple(4, (0, 0), (0, 1))
    with pytest.raises(ValueError, match="duplicate frequencies"):
        HadamardTriple(4, (0, 2), (1, 1))
    with pytest.raises(ValueError, match="size mismatch"):
        HadamardTriple(4, (0, 2, 3), (0, 1))


def test_triple_constructor_rejects_non_integer_entries():
    # int() would truncate each of these to a valid triple
    for N, B, L in ((4, (0, 2.5), (0, 1)), (4.5, (0, 2), (0, 1)), (4, (0, 2), (0, 1.5))):
        with pytest.raises(ValueError, match="must be integers"):
            HadamardTriple(N, B, L)
    with pytest.raises(ValueError, match="must be integers"):
        HadamardTriple.from_json({"N": 4, "B": [0, 2.0], "L": [0, 1]})


def test_verify_triple_rejects_non_integer_entries():
    for N, B, L in ((4, [0, 2.5], [0, 1]), (4.5, [0, 2], [0, 1]), (4, [0, 2], [0, 1.5])):
        with pytest.raises(ValueError, match="must be integers"):
            verify_triple(N, B, L)


def test_translate_identity_and_examples():
    t = HadamardTriple(4, (0, 2), (0, 1))
    assert translate_triple(t, 0, 0) == t
    t2 = translate_triple(t, 1, 0)
    assert t2.B == (1, 3) and t2.L == (0, 1)
    assert t2.unitarity_deviation() <= 1e-12
    t3 = translate_triple(HadamardTriple(2, (0, 3), (0, 1)), -3, 2)
    assert t3.B == (-3, 0) and t3.L == (2, 3)
    assert t3.unitarity_deviation() <= 1e-12


def test_translate_preserves_validity_200_random_cases():
    rng = random.Random(20240917)
    for _ in range(200):
        t = random_triple(rng)
        moved = translate_triple(t, rng.randint(-9, 9), rng.randint(-9, 9))
        assert moved.unitarity_deviation() <= 1e-10, (t, moved)


def test_reduce_frequencies_examples():
    assert reduce_frequencies(HadamardTriple(4, (0, 2), (0, 1))).L == (0, 1)
    t = reduce_frequencies(HadamardTriple(4, (0, 2), (4, -3)))
    assert t.L == (0, 1)
    assert t.unitarity_deviation() <= 1e-12
    t = reduce_frequencies(HadamardTriple(2, (0, 3), (2, 3)))
    assert t.L == (0, 1)
    assert t.unitarity_deviation() <= 1e-12


def test_reduce_is_idempotent_and_preserves_validity():
    rng = random.Random(7)
    for _ in range(50):
        t = random_triple(rng)
        r1 = reduce_frequencies(t)
        assert reduce_frequencies(r1) == r1
        assert (r1.unitarity_deviation() <= 1e-10) == (t.unitarity_deviation() <= 1e-10)


def test_normalize_frequencies_contains_zero():
    rng = random.Random(13)
    for _ in range(50):
        t = random_triple(rng)
        n = normalize_frequencies(t)
        assert 0 in n.L
        assert all(0 <= l < abs(n.N) for l in n.L)
        assert n.unitarity_deviation() <= 1e-10


def test_compose_singleton_is_identity():
    t = HadamardTriple(4, (0, 2), (0, 1))
    assert compose_triples([t]) == t


def test_compose_jp_square():
    t = HadamardTriple(4, (0, 2), (0, 1))
    c = compose_triples([t, t])
    assert c.N == 16
    assert sorted(c.B) == [0, 2, 8, 10]
    assert sorted(c.L) == [0, 1, 4, 5]
    assert c.unitarity_deviation() <= 1e-12


def test_compose_mixed_pair_digit_major_order():
    a = HadamardTriple(2, (0, 1), (0, 1))
    b = HadamardTriple(2, (0, 3), (0, 1))
    c = compose_triples([a, b])
    assert c.N == 4
    assert c.B == (0, 3, 2, 5)
    assert c.L == (0, 2, 1, 3)
    assert c.unitarity_deviation() <= 1e-12


def test_compose_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        compose_triples([])


def test_compose_random_up_to_four_factors():
    rng = random.Random(99)
    for _ in range(60):
        k = rng.randint(1, 4)
        ts = [random_triple(rng, max_abs_scale=4) for _ in range(k)]
        c = compose_triples(ts)
        assert c.unitarity_deviation() <= 1e-10
        assert len(c.B) == math.prod(len(t.B) for t in ts)


def test_difference_gcd_examples():
    assert difference_gcd([0, 3]) == 3
    assert difference_gcd([5]) == 0
    assert difference_gcd([0, 1, 2]) == 1
    assert difference_gcd([0, 2]) == 2


def test_difference_gcd_rejects_non_integer_digits():
    with pytest.raises(ValueError, match="must be integers"):
        difference_gcd([0, 2.5])


def test_difference_gcd_invariances():
    rng = random.Random(5)
    for _ in range(100):
        b = rng.sample(range(-30, 30), rng.randint(1, 6))
        g = difference_gcd(b)
        shift = rng.randint(-40, 40)
        assert difference_gcd([x + shift for x in b]) == g
        assert difference_gcd([-x for x in b]) == g


def test_digit_table_never_admits_floats():
    # (0.0, 2.0) hashes and compares like (0, 2): it must be refused before
    # the cache is read, also once (0, 2) is in it
    assert _digits((0, 2)).gcd == difference_gcd([0, 2]) == 2
    mask([0, 2], 0.25)
    for bad in ([0.0, 2.0], (0.0, 2.0), [0, 2.0]):
        with pytest.raises(ValueError, match="must be integers"):
            mask(bad, 0.25)
        with pytest.raises(ValueError, match="must be integers"):
            difference_gcd(bad)
        with pytest.raises(ValueError, match="must be integers"):
            _digits(bad)
    with pytest.raises(ValueError, match="nonempty"):
        _digits([])


def test_digit_table_fields():
    for B in ((5,), (7, 7)):
        t = _digits(B)
        assert (t.lo, t.offsets, t.gcd) == (B[0], (0,) * len(B), 0)
        assert _pairs(t) == ((), (), 1.0)
    t = _digits(np.array([3, -1, 5]))  # numpy ints are read as Python ints
    pw = _pairs(t)
    assert t.lo == -1 and t.offsets == (4, 0, 6) and pw.deltas == (2, 4, 6)
    assert all(type(v) is int for v in (t.lo, t.gcd, *t.offsets, *pw.deltas))
    assert t.gcd == 2 and pw.const + sum(pw.weights) == 1.0
    assert pw.weights == (round(2 * 2.0**52 / 9) * 2.0**-52,) * 3
    # a translate has the same table but for min B, and the same pair weights
    assert _digits((1003, 999, 1005))._replace(lo=-1) == t
    assert _pairs(_digits((1003, 999, 1005))) == pw


def test_digit_table_forms_no_pairs():
    # lo, offsets and gcd are O(#B): mask and difference_gcd of 20,000 digits
    # count none of their 2 * 10^8 pairs; the squared kernel counts them once
    B = tuple(range(0, 60000, 3))
    before = _pairs.cache_info().misses
    assert difference_gcd(B) == 3 and abs(mask(B, 0.5)) < 1e-12
    assert _pairs.cache_info().misses == before
    assert _pairs(_digits((0, 1, 3, 977))).deltas == (1, 2, 3, 974, 976, 977)
    assert _pairs.cache_info().misses == before + 1
    _pairs(_digits([0, 1, 3, 977]))
    assert _pairs.cache_info().misses == before + 1


def test_triple_json_round_trip():
    t = HadamardTriple(-6, (0, 1, 5), (0, 2, 4))
    assert HadamardTriple.from_json(t.to_json()) == t
