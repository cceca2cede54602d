"""Tests for algebra words, identity verification and boundedness sweeps."""

import logging
import operator

import numpy as np
import pytest

from toeplitz_triple import operators as op
from toeplitz_triple.cli import RunConfig, run
from toeplitz_triple.fourier import FourierSeries, coefficient_distance
from toeplitz_triple.triple import (
    AlgebraElement,
    boundedness_sweep,
    delta_absdirac_spot_check,
    evenness_check,
    membership_check,
    random_words,
    rough_symbol,
    verify_commutator_dz,
    verify_delta_k,
    verify_dzstar_via_adjoint,
)


def cos4_word():
    return AlgebraElement.toeplitz(FourierSeries.cosine(4), label="T[cos4t]")


def sin4_series():
    return FourierSeries({4: -0.5j, -4: 0.5j})


# ----------------------------------------------------------------------
# algebra elements
# ----------------------------------------------------------------------

def test_constructor_guards_wedge_membership():
    # FourierSeries({4092: 1.0}) passed a sampled check through aliasing
    for f in (sin4_series(), FourierSeries({4092: 1.0})):
        with pytest.raises(ValueError, match="wedge"):
            AlgebraElement.toeplitz(f)
    # the explicit unchecked constructor is the only negative-control path
    AlgebraElement.unchecked_toeplitz(sin4_series())


def test_realization_is_star_homomorphic():
    a = cos4_word()
    b = AlgebraElement.toeplitz(FourierSeries.cosine(8))
    n = 32
    prod = (a * b).realize(n)
    assert np.array_equal(prod.dense(), (a.realize(n) @ b.realize(n)).dense())
    added = (a + b).realize(n)
    assert np.array_equal(added.dense(), (a.realize(n) + b.realize(n)).dense())
    assert np.array_equal(a.adjoint().realize(n).dense(),
                          a.realize(n).adjoint().dense())
    scaled = (2.5j * a).realize(n)
    assert np.array_equal(scaled.dense(), (2.5j * a.realize(n)).dense())


def test_right_scaling_difference_and_negation_are_the_explicit_arithmetic():
    a = cos4_word()
    b = AlgebraElement.toeplitz(FourierSeries.cosine(8), label="T[cos8t]")
    n = 32
    cases = [
        (a * 2.0, 2.0 * a, 2.0 * a.realize(n), 2.0 * a.symbol()),
        (a - b, a + (-1.0) * b, a.realize(n) + (-1.0) * b.realize(n),
         a.symbol() + (-1.0) * b.symbol()),
        (-a, (-1.0) * a, (-1.0) * a.realize(n), (-1.0) * a.symbol()),
    ]
    for word, explicit, realized, symbol in cases:
        assert np.array_equal(word.realize(n).dense(), realized.dense())
        assert word.symbol().coeffs == symbol.coeffs
        assert word.describe() == explicit.describe()
    assert (a - b).describe() == "(T[cos4t] + (-1+0j)*T[cos8t])"


def test_finite_rank_block_must_be_square():
    with pytest.raises(ValueError, match="square"):
        AlgebraElement.finite_rank(np.ones((2, 3)))


@pytest.mark.parametrize("value", [
    op.identity(4), FourierSeries.cosine(4), AlgebraElement.toeplitz(
        FourierSeries.cosine(4)),
], ids=["TruncatedOperator", "FourierSeries", "AlgebraElement"])
@pytest.mark.parametrize("operation", [operator.add, operator.sub,
                                       operator.matmul], ids=["+", "-", "@"])
def test_arithmetic_with_a_non_operator_is_refused(value, operation):
    with pytest.raises(TypeError):
        operation(value, 1.0)


def test_realization_builds_afresh():
    # no per-size memo: an element keeps no realization alive
    a = cos4_word()
    first, second = a.realize(16), a.realize(16)
    assert first is not second
    assert np.array_equal(first.dense(), second.dense())


def test_symbol_is_multiplicative_and_kills_compacts():
    a = cos4_word()
    b = AlgebraElement.toeplitz(FourierSeries.cosine(8))
    k = AlgebraElement.finite_rank(np.eye(2))
    word = a * b + k
    assert coefficient_distance(
        word.symbol(),
        FourierSeries({12: 0.25, -12: 0.25, 4: 0.25, -4: 0.25})) < 1e-15
    assert k.symbol().coeffs == {}
    assert coefficient_distance(a.adjoint().symbol(),
                                FourierSeries.cosine(4)) == 0.0


def test_structure_measurements():
    a = cos4_word()
    b = AlgebraElement.toeplitz(FourierSeries.cosine(8))
    k = AlgebraElement.finite_rank(np.eye(2))
    word = a * b + k
    assert word.band_spread() == 12
    assert k.compact_support() == 2


# ----------------------------------------------------------------------
# commutator identities
# ----------------------------------------------------------------------

def test_commutator_number_cos4():
    report = verify_delta_k(FourierSeries.cosine(4), 1, 128, 5)
    assert report.passed
    assert report.max_deviation < 1e-13


def test_commutator_number_constant_vanishes():
    report = verify_delta_k(FourierSeries.constant(3.0), 1, 64, 1)
    assert report.passed
    lhs = op.commutator(op.number(64), op.toeplitz(FourierSeries.constant(3.0), 64))
    assert np.abs(lhs.dense()).max() == 0.0


def test_commutator_number_of_u_gives_shift():
    # [N, S] = S: the derivative of u is i*u and -i * i = 1
    u = FourierSeries({1: 1.0})
    report = verify_delta_k(u, 1, 32, 1)
    assert report.passed
    lhs = op.commutator(op.number(32), op.shift(32))
    assert np.array_equal(lhs.dense(), op.shift(32).dense())


def test_commutator_dz_cos4_hand_expansion():
    # conj(u) f' = 2i(u^3 - u^{-5}), so -i T_{conj(u) f'} = 2 T_{u^3} - 2 T_{u^-5}
    f = FourierSeries.cosine(4)
    n = 128
    report = verify_commutator_dz(f, n)
    assert report.passed
    assert report.max_deviation < 1e-13
    hand = 2.0 * op.toeplitz(FourierSeries({3: 1.0}), n) \
        - 2.0 * op.toeplitz(FourierSeries({-5: 1.0}), n)
    lhs = op.commutator(op.dz(n), op.toeplitz(f, n))
    margin = 5
    assert np.abs(op.interior_block(lhs, margin).dense()
                  - op.interior_block(hand, margin).dense()).max() < 1e-13


def test_commutator_dz_of_u_gives_identity_band():
    # [dz, S] e_m = (m+1) e_m - m e_m = e_m
    n = 32
    lhs = op.commutator(op.dz(n), op.shift(n))
    assert np.abs(op.interior_block(lhs, 1).dense() - np.eye(n - 2)).max() == 0.0
    report = verify_commutator_dz(FourierSeries({1: 1.0}), n)
    assert report.passed


def test_delta_two_gives_sixteen_times_cos4():
    f = FourierSeries.cosine(4)
    n = 128
    report = verify_delta_k(f, 2, n)
    assert report.passed
    num = op.number(n)
    x = op.commutator(num, op.commutator(num, op.toeplitz(f, n)))
    target = 16.0 * op.toeplitz(f, n)
    assert np.abs(op.interior_block(x, 8).dense()
                  - op.interior_block(target, 8).dense()).max() < 1e-12


def test_delta_one_reduces_to_commutator_number():
    # delta_1 is [N, T_f] taken by offsets: the same deviation as the
    # commutator through the product loop
    f = FourierSeries.cosine(8)
    n = 128
    report = verify_delta_k(f, 1, n)
    assert report.passed and report.margin == 8
    lhs = op.commutator(op.number(n), op.toeplitz(f, n))
    rhs = (-1j) * op.toeplitz(f.derivative(), n)
    assert report.max_deviation == op.interior_deviation(lhs, rhs, 8)


def test_delta_k_constant_vanishes():
    report = verify_delta_k(FourierSeries.constant(1.0), 3, 64)
    assert report.passed
    assert report.max_deviation == 0.0


def sample_file_symbol():
    """64 samples of cos 16t + 0.5 cos 8t, as a sample file gives them."""
    theta = 2 * np.pi * np.arange(64) / 64
    return FourierSeries.from_samples(np.cos(16 * theta) + 0.5 * np.cos(8 * theta))


def random_symbol():
    """Seeded complex coefficients at the frequencies -7..7."""
    rng = np.random.default_rng(0)
    return FourierSeries({k: complex(*rng.standard_normal(2))
                          for k in range(-7, 8)})


@pytest.mark.parametrize("n", [256, 1024])
def test_delta_k_rounding_is_relative_to_the_largest_expected_entry(n):
    # the expected entries of delta_3 reach 16**3 * 0.5 = 2048, so the
    # deviation is rounding only while it stays a tiny fraction of that
    f = sample_file_symbol()
    largest = max(abs(k) ** 3 * abs(c) for k, c in f.coeffs.items())
    assert largest == pytest.approx(2048)
    report = verify_delta_k(f, 3, n)
    assert report.max_deviation / largest < 1e-13
    assert report.passed


@pytest.mark.parametrize("make", [sample_file_symbol, random_symbol],
                         ids=["sample_file", "random"])
def test_delta_k_deviation_does_not_grow_with_n(make):
    # one rounding per entry: no cancellation against N, whose entries grow
    # with n, so every size deviates by the same amount and passes at the
    # default tolerance (the product route gave delta_1 of the random symbol
    # 1.4e-12 at n = 4096, and its delta_3 1.5e-10 at n = 16384)
    f = make()
    for k in (1, 2, 3):
        reports = [verify_delta_k(f, k, n) for n in (256, 4096, 16384)]
        assert all(r.passed for r in reports)
        assert len({r.max_deviation for r in reports}) == 1


def test_margin_preconditions():
    f = FourierSeries.cosine(4)
    with pytest.raises(ValueError, match="margin"):
        verify_delta_k(f, 1, 128, 2)
    with pytest.raises(ValueError, match="margin"):
        verify_commutator_dz(f, 128, 4)
    with pytest.raises(ValueError, match="4\\*margin"):
        verify_delta_k(f, 1, 16, 4)
    with pytest.raises(ValueError, match="margin"):
        verify_delta_k(f, 2, 128, 4)
    with pytest.raises(ValueError, match="k must be >= 1"):
        verify_delta_k(f, 0, 128)


def test_dzstar_via_adjoint():
    word = cos4_word()
    report = verify_dzstar_via_adjoint(word, 64)
    assert report.passed
    assert report.max_deviation < 1e-12

    projector = AlgebraElement.finite_rank([[1.0]])
    assert verify_dzstar_via_adjoint(projector, 32).max_deviation == 0.0

    one = AlgebraElement.toeplitz(FourierSeries.constant(1.0))
    rep = verify_dzstar_via_adjoint(one, 32)
    assert rep.max_deviation == 0.0


def test_delta_absdirac_spot_check():
    report = delta_absdirac_spot_check(FourierSeries.cosine(4), 64)
    assert report.passed
    assert report.max_deviation < 1e-10


# ----------------------------------------------------------------------
# evenness
# ----------------------------------------------------------------------

def test_evenness_residuals_exactly_zero():
    words = [
        cos4_word(),
        AlgebraElement.toeplitz(FourierSeries.cosine(8)),
        AlgebraElement.finite_rank(np.array([[0.0, 1.0], [0.0, 0.0]])),
        cos4_word() * AlgebraElement.toeplitz(FourierSeries.cosine(8)),
        cos4_word().adjoint() + AlgebraElement.finite_rank(np.eye(2)),
    ]
    for word in words:
        report = evenness_check(word, 64)
        assert report.passed
        assert report.max_deviation == 0.0


# ----------------------------------------------------------------------
# membership
# ----------------------------------------------------------------------

def test_membership_product_plus_compact():
    a = cos4_word()
    b = AlgebraElement.toeplitz(FourierSeries.cosine(8))
    block = AlgebraElement.finite_rank(np.array([[1.0, 2.0], [0.5j, 0.0]]))
    word = a * b + block
    report = membership_check(word, 256)
    assert report.passed
    assert report.details["compact_part_symbol"] < 1e-8
    assert report.details["symbol_estimate_deviation"] < 1e-8


def test_membership_compact_only():
    word = AlgebraElement.finite_rank(np.full((3, 3), 2.0))
    report = membership_check(word, 64)
    assert report.passed


def test_membership_negative_control_fails():
    word = AlgebraElement.unchecked_toeplitz(sin4_series())
    report = membership_check(word, 128)
    assert not report.passed
    assert not report.details["wedge_passed"]


def test_membership_needs_room():
    word = cos4_word() * cos4_word()
    with pytest.raises(ValueError):
        membership_check(word, 16)
    # the collar of 5 fits in n = 11, but leaves a block of one row, too small
    # to read frequencies up to 4 off
    with pytest.raises(ValueError, match="too small to estimate frequencies"):
        membership_check(cos4_word(), 11)


# ----------------------------------------------------------------------
# boundedness sweeps
# ----------------------------------------------------------------------

def test_sweep_toeplitz_word_stabilizes():
    report = boundedness_sweep(cos4_word(), [64, 128, 256], "dirac")
    assert report.stabilized
    assert report.trend == "bounded"
    # the limiting commutator norm: sup |2(u^3 - u^-5)| = 4
    assert report.values[-1] == pytest.approx(4.0, abs=1e-9)
    # raw finite sections creep upward at O(1/n^2)
    assert report.raw_values == sorted(report.raw_values)
    assert report.raw_values[-1] < 4.0


def test_sweep_finite_rank_word_constant():
    word = AlgebraElement.finite_rank(np.array([[0.0, 1.0], [1.0, 0.0]]))
    report = boundedness_sweep(word, [32, 64, 128], "dirac")
    assert report.stabilized
    # constant once n exceeds the block support, up to the norm solver's
    # tolerance (SVD below dim 64, power iteration above)
    assert report.values[0] == pytest.approx(report.values[-1], rel=1e-8)


def test_sweep_delta_targets():
    word = cos4_word()
    r1 = boundedness_sweep(word, [64, 128, 256], "delta", order=1)
    r2 = boundedness_sweep(word, [64, 128, 256], "delta", order=2)
    rdz = boundedness_sweep(word, [64, 128, 256], "delta_dz", order=1)
    assert r1.stabilized and r2.stabilized and rdz.stabilized
    assert r1.values[-1] == pytest.approx(4.0, abs=1e-9)    # sup|4 sin 4t|
    assert r2.values[-1] == pytest.approx(16.0, abs=1e-9)   # sup|16 cos 4t|


def test_sweep_delta_of_dz_commutator_for_random_words():
    # iterated [N, .] applied to [dz, a] stays bounded for algebra words
    words = random_words(np.random.default_rng(4), 3)
    for word in words:
        for order in (1, 2):
            report = boundedness_sweep(word, [128, 256, 512], "delta_dz",
                                       order=order)
            assert report.stabilized
            assert report.trend == "bounded"


def test_sweep_negative_control_grows():
    factory = lambda n: AlgebraElement.unchecked_toeplitz(rough_symbol(n))  # noqa: E731
    report = boundedness_sweep(factory, [64, 128, 256, 512], "delta", order=1)
    assert report.trend == "growing"
    assert not report.stabilized
    assert report.values == sorted(report.values)


def test_sweep_logs_svd_fallback(monkeypatch, caplog):
    # one power step never meets the stop rule, so every section norm above
    # dim 64 runs the real fallback of operator_norm
    monkeypatch.setattr(op, "POWER_ITERATION_CAP", 1)
    with caplog.at_level(logging.WARNING, logger="toeplitz_triple.operators"):
        report = boundedness_sweep(cos4_word(), [96, 128], "delta", order=1)
    # one block per size
    assert [r.getMessage() for r in caplog.records] == [
        f"power iteration did not converge within 1 iterations at dim {size}; "
        "falling back to a dense SVD" for size in (96, 128)]
    # the fallback is the full decomposition of the section, which for
    # [N, T_f] is the commutator of the truncations
    f = FourierSeries.cosine(4)
    assert report.raw_values == [
        float(np.linalg.svd(op.commutator(op.number(n), op.toeplitz(f, n)).dense(),
                            compute_uv=False)[0])
        for n in (96, 128)]


def test_sweep_rejects_bad_sizes():
    with pytest.raises(ValueError):
        boundedness_sweep(cos4_word(), [64], "dirac")
    with pytest.raises(ValueError):
        boundedness_sweep(cos4_word(), [64, 64], "dirac")
    with pytest.raises(ValueError):
        boundedness_sweep(cos4_word(), [64, 128], "nonsense")


def test_sweep_marginal_compact_gap_is_slow():
    # Known limitation: when a compact part lifts the commutator norm only
    # marginally above the symbol supremum, the maximizing vector localizes
    # slowly and section norms keep creeping at these sizes.  The value is
    # still bounded and settles at the 1e-2 scale, just not at 1e-6.
    rng = np.random.default_rng(20260809)
    word = random_words(rng, 1)[0]
    report = boundedness_sweep(word, [64, 128, 256, 512], "dirac")
    last, prev = report.values[-1], report.values[-2]
    assert abs(last - prev) <= 1e-2 * abs(last)
    assert report.trend == "bounded"


def test_sweep_report_serialization(tmp_path):
    cfg = RunConfig("sweep", sizes=[32, 64], output_dir=str(tmp_path))
    assert run(cfg) == 0
    lines = (tmp_path / "data.csv").read_text().splitlines()
    assert lines[0] == "target,size,value,raw_section_norm"
    assert len(lines) == 1 + 3 * 2  # three targets at two sizes


# ----------------------------------------------------------------------
# word sampling
# ----------------------------------------------------------------------

def test_random_words_deterministic():
    words_a = random_words(np.random.default_rng(7), 5)
    words_b = random_words(np.random.default_rng(7), 5)
    assert [w.describe() for w in words_a] == [w.describe() for w in words_b]


def word_depth(word):
    """Generator count along the deepest multiplicative chain."""
    if word.kind in ("toeplitz", "finite"):
        return 1
    if word.kind == "add":
        return max(word_depth(c) for c in word.children)
    if word.kind == "mul":
        return sum(word_depth(c) for c in word.children)
    return word_depth(word.children[0])


def test_random_words_depth_bound():
    words = random_words(np.random.default_rng(1), 20)
    assert max(word_depth(w) for w in words) > 1
    for word in words:
        assert word_depth(word) <= 3


def test_rough_symbol_profile():
    f = rough_symbol(64)
    assert f.bandwidth == 16
    assert f.coefficient(2) == pytest.approx(2.0 ** -1.5)


@pytest.mark.parametrize("operation", [
    lambda: np.ones(2) * FourierSeries.cosine(4),
    lambda: np.ones(2) * AlgebraElement.toeplitz(FourierSeries.cosine(4)),
    lambda: FourierSeries.cosine(4) * np.array([1.0, 2.0]),
], ids=["array_times_series", "array_times_word", "series_times_array"])
def test_an_array_operand_is_refused_by_series_and_words(operation):
    # the first two used to give object arrays of shape (2,), and the third
    # failed only inside FourierSeries.__init__, on array coefficients
    with pytest.raises(TypeError):
        operation()


def test_numbers_and_numpy_scalars_scale_series_and_words():
    f = FourierSeries.cosine(4)
    word = AlgebraElement.toeplitz(f)
    for factor in (2.0, np.float64(2), 1 + 2j, np.complex128(1 + 2j)):
        for scaled in (factor * f, f * factor):
            assert scaled.coeffs == {4: 0.5 * factor, -4: 0.5 * factor}
        for scaled in (factor * word, word * factor):
            assert scaled.scalar == complex(factor)
