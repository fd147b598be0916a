"""Cross-module flows beyond the preset families: negative scales, exponents."""

import importlib
import pkgutil
import warnings

import numpy as np

import convspec
from convspec import (
    ConvolutionSpec,
    GcdNotCertifiedWarning,
    HadamardTriple,
    SelectionWord,
    build_spectrum,
    finite_level,
    level_completeness,
    orthonormality_gram,
    spectral_report,
    verify_triple,
)


def build_quiet(spec, depth_i, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GcdNotCertifiedWarning)
        return build_spectrum(spec, depth_i, **kw)


def test_negative_scale_family_full_pipeline():
    spec = ConvolutionSpec((HadamardTriple(-4, (0, 2), (0, 1)),), SelectionWord())
    assert verify_triple(-4, [0, 2], [0, 1]).ok
    levels = build_quiet(spec, 3)
    grid = np.linspace(-2, 2, 64)
    assert level_completeness(spec, levels, 3, grid) <= 1e-9
    mu = finite_level(spec, levels.m(3))
    assert orthonormality_gram(mu, levels.level(3)) <= 1e-10
    rep = spectral_report(spec, levels, grid_n=32, depth=30)
    assert rep.passed


def test_exponent_word_full_pipeline():
    # every factor squared: scales 16^k, effective frequencies 4*{0,1}
    spec = ConvolutionSpec(
        (HadamardTriple(4, (0, 2), (0, 1)),),
        SelectionWord(period=(1,), exp_period=(2,)),
    )
    levels = build_quiet(spec, 2)
    assert list(levels.level(2)) == [0, 4, 64, 68]
    grid = np.linspace(-2, 2, 64)
    assert level_completeness(spec, levels, 2, grid) <= 1e-9
    mu = finite_level(spec, levels.m(2))
    assert orthonormality_gram(mu, levels.level(2)) <= 1e-10


def test_mixed_exponent_prefix_pipeline():
    spec = ConvolutionSpec(
        (HadamardTriple(2, (0, 1), (0, 1)), HadamardTriple(3, (0, 1, 2), (0, 1, 2))),
        SelectionWord(prefix=(2,), period=(1, 2), exp_prefix=(2,), exp_period=(1,)),
    )
    levels = build_quiet(spec, 3)
    grid = np.linspace(-2, 2, 33)
    for i in (1, 2, 3):
        assert level_completeness(spec, levels, i, grid) <= 1e-9
        mu = finite_level(spec, levels.m(i))
        assert orthonormality_gram(mu, levels.level(i)) <= 1e-10
    rep = spectral_report(spec, levels, grid_n=32, depth=24)
    assert rep.passed


def test_translated_frequencies_are_normalized_in_construction():
    # frequencies {7, 12} reduce mod 4 to {3, 0}: 0 is present after reduction
    spec = ConvolutionSpec(
        (HadamardTriple(4, (0, 2), (7, 12)),), SelectionWord()
    )
    levels = build_quiet(spec, 2)
    mu = finite_level(spec, levels.m(2))
    assert orthonormality_gram(mu, levels.level(2)) <= 1e-10
    assert 0 in levels.level(2)


def test_every_exported_name_resolves():
    # a stale __all__ entry makes `from convspec.<module> import *` raise
    modules = [importlib.import_module(f"convspec.{m.name}")
               for m in pkgutil.iter_modules(convspec.__path__)]
    exported = set()
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names {name}"
            exported.add(name)
    for name in convspec.__all__:
        assert hasattr(convspec, name), name
        assert name in exported, f"convspec.__all__ names {name}, which no module exports"
