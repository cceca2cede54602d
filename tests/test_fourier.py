"""Tests for Fourier coefficient arithmetic and the wedge gluing checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toeplitz_triple.fourier import (
    FourierSeries,
    coefficient_distance,
    wedge_check,
    wedge_from_profiles,
)


def sampled(fn, count):
    theta = 2 * np.pi * np.arange(count) / count
    return fn(theta)


def approx_coeffs(series, expected, tol=1e-12):
    ref = FourierSeries(expected)
    return coefficient_distance(series, ref) < tol


# ----------------------------------------------------------------------
# from_samples
# ----------------------------------------------------------------------

def test_from_samples_constant():
    f = FourierSeries.from_samples(np.ones(16))
    assert approx_coeffs(f, {0: 1.0})


def test_from_samples_cos4():
    f = FourierSeries.from_samples(sampled(lambda t: np.cos(4 * t), 64))
    assert approx_coeffs(f, {4: 0.5, -4: 0.5})
    assert f.bandwidth == 4


def test_from_samples_single_mode():
    f = FourierSeries.from_samples(sampled(lambda t: np.exp(1j * t), 16))
    assert approx_coeffs(f, {1: 1.0})


@pytest.mark.parametrize("count", [0, 4, 7, 12, 100])
def test_from_samples_rejects_bad_counts(count):
    with pytest.raises(ValueError):
        FourierSeries.from_samples(np.ones(count))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 complex(1.0, math.nan)])
def test_non_finite_coefficients_are_rejected(bad):
    # a non-finite coefficient used to set the drop cutoff to nan or inf and
    # so turn the whole series, finite coefficients included, into zero
    with pytest.raises(ValueError, match="finite"):
        FourierSeries({0: bad, 1: 1.0})


def test_coefficient_with_overflowing_modulus_is_rejected():
    # both parts are finite but the modulus is not; abs() used to raise
    # OverflowError here instead of a ValueError
    with pytest.raises(ValueError, match="moduli must be finite"):
        FourierSeries({0: complex(1.5e308, 1.5e308), 1: 1.0})


def test_from_samples_rejects_an_infinite_sample():
    values = np.ones(16)
    values[3] = np.inf
    with pytest.raises(ValueError, match="finite"):
        FourierSeries.from_samples(values)


def test_from_samples_reproduces_samples():
    rng = np.random.default_rng(3)
    values = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    f = FourierSeries.from_samples(values)
    theta = 2 * np.pi * np.arange(32) / 32
    assert np.abs(f.evaluate(theta) - values).max() < 1e-12 * np.abs(values).max()


# ----------------------------------------------------------------------
# coefficient operations
# ----------------------------------------------------------------------

def test_derivative_of_constant_is_zero():
    assert FourierSeries.constant(1.0).derivative().coeffs == {}


def test_derivative_cos4():
    d = FourierSeries.cosine(4).derivative()
    assert approx_coeffs(d, {4: 2j, -4: -2j})


def test_second_derivative_matches_finite_differences():
    f = FourierSeries.cosine(4)
    d2 = f.derivative().derivative()
    theta = np.linspace(0, 2 * np.pi, 17)
    h = 1e-4
    fd = (f.evaluate(theta + h) - 2 * f.evaluate(theta) + f.evaluate(theta - h)) / h**2
    assert np.abs(d2.evaluate(theta) - fd).max() < 1e-5
    assert approx_coeffs(d2, {4: -8.0, -4: -8.0})  # -16 cos(4t)


def test_shift_multiply_examples():
    assert approx_coeffs(FourierSeries({1: 1.0}).shifted(-1), {0: 1.0})
    d = FourierSeries.cosine(4).derivative().shifted(-1)
    assert approx_coeffs(d, {3: 2j, -5: -2j})
    assert FourierSeries().shifted(5).coeffs == {}


def test_conjugate_examples():
    assert approx_coeffs(FourierSeries({1: 1.0}).conjugate(), {-1: 1.0})
    cos4 = FourierSeries.cosine(4)
    assert coefficient_distance(cos4.conjugate(), cos4) == 0.0
    assert approx_coeffs(FourierSeries({2: 1j}).conjugate(), {-2: -1j})


def test_drop_tolerance_prunes_tiny_coefficients():
    f = FourierSeries({0: 1.0, 7: 1e-20})
    assert set(f.coeffs) == {0}
    assert f.bandwidth == 0


def test_product_is_coefficient_convolution():
    prod = FourierSeries.cosine(4) * FourierSeries.cosine(8)
    assert approx_coeffs(prod, {12: 0.25, -12: 0.25, 4: 0.25, -4: 0.25})


def test_right_scaling_difference_and_negation_are_the_explicit_arithmetic():
    f = FourierSeries({0: 1.0, 4: 0.5 - 0.25j, -3: 2.0j})
    g = FourierSeries.cosine(4)
    assert (f * 2.0).coeffs == {k: 2.0 * v for k, v in f.coeffs.items()}
    assert (f - g).coeffs == {0: 1.0, 4: 0.5 - 0.25j - 0.5, -3: 2.0j,
                              -4: -0.5}
    assert (-f).coeffs == {k: -v for k, v in f.coeffs.items()}
    assert (f - f).coeffs == {}


small_series = st.dictionaries(
    st.integers(-8, 8),
    st.complex_numbers(max_magnitude=8.0, allow_nan=False, allow_infinity=False),
    max_size=5,
).map(FourierSeries)


@settings(max_examples=50, deadline=None)
@given(small_series)
def test_derivative_coefficient_rule(f):
    d = f.derivative()
    for k in set(f.coeffs) | set(d.coeffs):
        assert abs(d.coefficient(k) - 1j * k * f.coefficient(k)) < 1e-12 * (
            1 + abs(f.coefficient(k)))


@settings(max_examples=50, deadline=None)
@given(small_series)
def test_conjugate_is_involution(f):
    assert coefficient_distance(f.conjugate().conjugate(), f) < 1e-12


@settings(max_examples=50, deadline=None)
@given(small_series)
def test_conjugate_commutes_with_derivative(f):
    # pointwise conjugation commutes with d/dtheta: conj(f)' = conj(f')
    lhs = f.derivative().conjugate()
    rhs = f.conjugate().derivative()
    assert coefficient_distance(lhs, rhs) < 1e-9


@settings(max_examples=40, deadline=None)
@given(small_series)
def test_sample_roundtrip_band_limited(f):
    theta = 2 * np.pi * np.arange(32) / 32
    back = FourierSeries.from_samples(f.evaluate(theta))
    top = max((abs(v) for v in f.coeffs.values()), default=0.0)
    assert coefficient_distance(back, f) < 1e-9 * (1 + top)


# ----------------------------------------------------------------------
# wedge checks
# ----------------------------------------------------------------------

def test_wedge_constant_passes_exactly():
    report = wedge_check(FourierSeries.constant(2.0 + 1.0j), 1e-12)
    assert report.passed
    assert report.max_violation_first == 0.0
    assert report.max_violation_second == 0.0


@pytest.mark.parametrize("k", range(1, 17))
def test_wedge_cos4k_family_passes(k):
    report = wedge_check(FourierSeries.cosine(4 * k), 1e-10)
    assert report.passed


def test_wedge_sin4_fails_with_large_violation():
    sin4 = FourierSeries({4: -0.5j, -4: 0.5j})
    report = wedge_check(sin4, 1e-9)
    assert not report.passed
    # |sin(4t) - (-sin(4t))| peaks at 2
    assert 1.99 < report.max_violation_first <= 2.0 + 1e-12


def test_wedge_monomial_power_four_fails():
    report = wedge_check(FourierSeries({4: 1.0}), 1e-9)
    assert not report.passed
    assert max(report.max_violation_first, report.max_violation_second) > 0.5


def test_wedge_preconditions():
    f = FourierSeries.constant(1.0)
    with pytest.raises(ValueError):
        wedge_check(f, 0.0)


def test_wedge_rejects_sampling_alias():
    # 4092 = 4 * 1023 aliases to a passing frequency on a 1024-point grid of
    # [0, pi/2]; on the coefficients both relations fail with l1 norm 2
    alias = FourierSeries({4092: 1.0})
    report = wedge_check(alias, 1e-9)
    assert not report.passed
    assert report.max_violation_first == 2.0
    assert report.max_violation_second == 2.0


def test_wedge_overflowing_difference_fails_instead_of_raising():
    # the difference 1.7e308 + 1.7e308j is finite, but abs() of it overflows
    report = wedge_check(FourierSeries({2: 1e308+1e308j, -2: 0.7e308+0.7e308j}))
    assert not report.passed
    assert report.max_violation_first == math.inf
    assert report.max_violation_second == math.inf


def test_coefficient_distance_of_overflowing_difference_is_inf():
    big = FourierSeries({0: 1e308+1e308j})
    assert coefficient_distance(big, -0.7 * big) == math.inf


# ----------------------------------------------------------------------
# profile assembly
# ----------------------------------------------------------------------

def _grid(count=129):
    return np.linspace(0.0, np.pi / 2, count)


def test_profiles_constant():
    h = np.full(129, 3.0 - 1.0j)
    f = wedge_from_profiles(h, h, 3.0 - 1.0j)
    assert approx_coeffs(f, {0: 3.0 - 1.0j}, tol=1e-10)


def test_profiles_matching_cosines_reassemble():
    t = _grid()
    h = np.cos(4 * t)
    f = wedge_from_profiles(h, h, 1.0)
    assert approx_coeffs(f, {4: 0.5, -4: 0.5}, tol=1e-10)
    # oracle: the assembled function agrees with cos(4 theta) everywhere
    theta = np.linspace(0, 2 * np.pi, 257)
    assert np.abs(f.evaluate(theta) - np.cos(4 * theta)).max() < 1e-9


def test_profiles_mixed_cosines_pass_wedge():
    t = _grid()
    f = wedge_from_profiles(np.cos(4 * t), np.cos(8 * t), 1.0)
    assert wedge_check(f, 1e-8).passed
    # genuinely differs from either single mode
    assert coefficient_distance(f, FourierSeries.cosine(4)) > 0.1
    assert coefficient_distance(f, FourierSeries.cosine(8)) > 0.1


def test_profiles_corner_mismatch_raises():
    t = _grid()
    with pytest.raises(ValueError, match="corner"):
        wedge_from_profiles(np.cos(4 * t), np.cos(2 * t), 1.0)


def test_profiles_reject_bad_lengths():
    with pytest.raises(ValueError):
        wedge_from_profiles(np.ones(100), np.ones(100), 1.0)
    with pytest.raises(ValueError):
        wedge_from_profiles(np.ones(129), np.ones(65), 1.0)


def test_profile_output_always_passes_wedge():
    # smooth wedge-compatible profiles drawn from the cos(4kt) family
    t = _grid()
    h1 = 0.3 * np.cos(4 * t) + 0.7 * np.cos(8 * t)
    h2 = np.cos(12 * t)
    f = wedge_from_profiles(h1, h2, 1.0)
    assert wedge_check(f, 1e-8).passed


def test_evaluate_scalar_and_vector():
    f = FourierSeries.cosine(4)
    assert abs(f.evaluate(0.0) - 1.0) < 1e-15
    out = f.evaluate(np.array([0.0, math.pi / 4]))
    assert out.shape == (2,)
    assert abs(out[1] - math.cos(math.pi)) < 1e-14


@st.composite
def grid_cases(draw):
    """A grid size and a series whose frequencies reach beyond +-size/2, so
    the folding mod size is exercised; the empty series is included."""
    size = draw(st.sampled_from((1, 2, 8, 16, 64, 128)))
    coeffs = draw(st.dictionaries(
        st.integers(-2 * size - 1, 2 * size + 1),
        st.complex_numbers(max_magnitude=8.0, allow_nan=False,
                           allow_infinity=False),
        max_size=12))
    return size, FourierSeries(coeffs)


@settings(max_examples=100, deadline=None)
@given(grid_cases())
# 1e-12 * l1 underflows to 0 for a subnormal coefficient, while the two
# evaluations may still differ in the last place
@example(case=(64, FourierSeries({1: 2.22507e-313 + 0j})))
def test_evaluate_grid_matches_evaluate(case):
    size, f = case
    values = f.evaluate_grid(size)
    assert values.shape == (size,)
    expected = f.evaluate(2 * np.pi * np.arange(size) / size)
    l1 = sum(abs(v) for v in f.coeffs.values())
    floor = 8 * np.finfo(float).smallest_subnormal
    assert np.abs(values - expected).max() <= max(1e-12 * l1, floor)


def test_evaluate_grid_folds_frequencies_exactly():
    # on 8 points u^8 = 1 and u^-3 = u^5, so these two series agree there
    f = FourierSeries({8: 2.0, -3: 1j, 0: 0.5})
    g = FourierSeries({0: 2.5, 5: 1j})
    assert np.abs(f.evaluate_grid(8) - g.evaluate_grid(8)).max() <= 1e-15
    assert np.array_equal(FourierSeries().evaluate_grid(4), np.zeros(4))
    with pytest.raises(ValueError, match="grid size"):
        f.evaluate_grid(0)


def test_evaluate_grid_forms_no_table():
    size, count = 4096, 4000
    rng = np.random.default_rng(3)
    f = FourierSeries(dict(zip(range(-count // 2, count // 2),
                               rng.standard_normal(count))))
    assert len(f) == count
    tracemalloc.start()
    try:
        values = f.evaluate_grid(size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (size,)
    # a size x count table of complex exponentials would take 250 MiB
    assert peak <= 16 * size * 16
