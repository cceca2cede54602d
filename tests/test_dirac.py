"""Tests for the block Dirac operator: spectrum, polar form, index, sums."""

import math
import sys

import numpy as np
import pytest

from toeplitz_triple import operators as op
from toeplitz_triple.cli import RunConfig, run
from toeplitz_triple.dirac import (
    PINV_CUTOFF,
    SUM_CHUNK,
    FredholmIndexError,
    _eigensystem,
    analytic_eigenvector,
    block_interior_deviation,
    dirac,
    fredholm_index,
    grading,
    polar_check,
    polar_parts,
    represent,
    spectrum,
    summability_partial_sums,
    summability_report,
)
from toeplitz_triple.fourier import FourierSeries


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------

def test_dirac_n2_hand_assembly():
    d = dirac(2)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = 1.0
    expected[3, 0] = 1.0
    assert np.array_equal(d.dense(), expected)


def test_dirac_diagonal_blocks_zero():
    h = dirac(9).dense()
    assert np.abs(h[0::2, 0::2]).max() == 0.0
    assert np.abs(h[1::2, 1::2]).max() == 0.0


def test_dirac_exactly_hermitian():
    h = dirac(17).dense()
    assert np.abs(h - h.conj().T).max() == 0.0


def test_dirac_requires_n_at_least_two():
    with pytest.raises(ValueError):
        dirac(1)


def test_grading_requires_n_at_least_one():
    with pytest.raises(ValueError, match="n must be >= 1"):
        grading(0)


# ----------------------------------------------------------------------
# grading and representation
# ----------------------------------------------------------------------

def test_grading_relations_exact():
    n = 16
    g = grading(n).dense()
    d = dirac(n).dense()
    assert np.abs(g @ g - np.eye(2 * n)).max() == 0.0
    assert np.abs(g - g.conj().T).max() == 0.0
    assert np.abs(g @ d + d @ g).max() == 0.0


def test_grading_commutes_with_representation():
    n = 12
    g = grading(n).dense()
    p = represent(op.toeplitz(FourierSeries.cosine(4), n)).dense()
    assert np.abs(g @ p - p @ g).max() == 0.0


def test_representation_properties():
    n = 10
    a = op.toeplitz(FourierSeries.cosine(4), n)
    b = op.dz(n)
    assert np.array_equal(represent(op.identity(n)).dense(), np.eye(2 * n))
    assert np.array_equal(represent(a).adjoint().dense(),
                          represent(a.adjoint()).dense())
    assert np.array_equal(represent(a @ b).dense(),
                          (represent(a) @ represent(b)).dense())


@pytest.mark.parametrize("n", [2, 3, 17])
def test_doubled_space_is_in_kronecker_order(n):
    # perm maps block order (first summand 0..n-1, then the second) to
    # Kronecker order (first-summand e_m at 2m, second-summand e_m at 2m + 1)
    perm = np.zeros((2 * n, 2 * n))
    perm[np.r_[0:2 * n:2, 1:2 * n:2], np.arange(2 * n)] = 1.0
    zero = np.zeros((n, n))
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    blocks = [
        (dirac(n), np.block([[zero, op.dz(n).dense()],
                             [op.dz_star(n).dense(), zero]])),
        (grading(n), np.diag(np.r_[np.ones(n), -np.ones(n)])),
        (represent(op.finite_rank(a, n)), np.block([[a, zero], [zero, a]])),
    ]
    for banded, block_form in blocks:
        assert np.array_equal(banded.dense(), perm @ block_form @ perm.T)
    # both polar factors against a dense eigensolve of D
    w, v = np.linalg.eigh(dirac(n).dense())
    s = np.abs(w)
    sign = np.where(s > PINV_CUTOFF * s.max(), np.sign(w), 0.0)
    f, absd = polar_parts(n)
    assert np.abs(f.dense() - (v * sign) @ v.conj().T).max() < 1e-12
    assert np.abs(absd.dense() - (v * s) @ v.conj().T).max() < 1e-12


def test_block_interior_deviation_is_over_the_four_block_interiors():
    n = 11
    rng = np.random.default_rng(5)
    # entries grow toward the edges, so every margin has its own maximum
    edge = np.abs(np.arange(2 * n) - (2 * n - 1) / 2)
    x = rng.uniform(0, 1, (2 * n, 2 * n)) + 10 * np.maximum.outer(edge, edge)
    y = rng.uniform(0, 1, (2 * n, 2 * n))
    a, b = op.finite_rank(x, 2 * n), op.finite_rank(y, 2 * n)
    for margin in range(n // 2 + 1):
        sl = slice(margin, n - margin)
        # block (i, j) of a doubled matrix is its rows i::2, columns j::2
        expected = max(float(np.abs((x - y)[i::2, j::2][sl, sl]).max())
                       for i in (0, 1) for j in (0, 1))
        assert block_interior_deviation(a, b, margin) == expected


# ----------------------------------------------------------------------
# analytic eigenvectors
# ----------------------------------------------------------------------

def test_eigenvector_k0():
    v = analytic_eigenvector(0, 4)
    expected = np.zeros(8, dtype=complex)
    expected[1] = 1.0  # second-summand e_0
    assert np.array_equal(v, expected)


def test_eigenvector_k_plus_minus_one():
    n = 4
    s = 1 / math.sqrt(2)
    # first-summand e_0 is index 0, second-summand e_1 is index 3
    v = analytic_eigenvector(1, n)
    assert v[0] == pytest.approx(s)
    assert v[3] == pytest.approx(s)
    w = analytic_eigenvector(-1, n)
    assert w[0] == pytest.approx(-s)
    assert w[3] == pytest.approx(s)


def test_eigenvectors_are_exact_eigenvectors():
    n = 16
    h = dirac(n).dense()
    for k in range(-(n - 1), n):
        v = analytic_eigenvector(k, n)
        assert np.linalg.norm(h @ v - k * v) == 0.0


def test_eigenvector_out_of_range():
    with pytest.raises(ValueError):
        analytic_eigenvector(4, 4)


def test_eigenbasis_with_spurious_mode_is_orthonormal():
    n = 16
    columns = [analytic_eigenvector(k, n) for k in range(-(n - 1), n)]
    spurious = np.zeros(2 * n, dtype=complex)
    spurious[2 * n - 2] = 1.0  # first-summand e_{n-1}, the truncation artifact
    basis = np.column_stack(columns + [spurious])
    gram = basis.conj().T @ basis
    assert np.abs(gram - np.eye(2 * n)).max() < 1e-12


# ----------------------------------------------------------------------
# spectrum
# ----------------------------------------------------------------------

def test_eigensystem_reads_components_off_the_matrix():
    # Components {0, 3, 5}, {1, 6} and the singletons {2}, {4}; the coupling
    # 6-1 joins the last index to another one, unlike anything in D.
    n = 7
    h = np.zeros((n, n), dtype=complex)
    h[2, 2] = 0.5
    h[4, 4] = -2.0
    h[0, 3], h[3, 5], h[0, 5] = 1.0 + 2.0j, -0.5j, 0.25
    h[0, 0], h[3, 3], h[5, 5] = 1.0, -1.5, 3.0
    h[1, 6], h[1, 1] = 2.0 - 1.0j, 0.75
    h = h + np.triu(h, 1).conj().T
    parts = _eigensystem(op.finite_rank(h, n))
    assert [idx.tolist() for idx, _, _, _ in parts] == [[[2], [4]], [[1, 6]],
                                                        [[0, 3, 5]]]
    evals = np.zeros(n)
    vecs = np.zeros((n, n), dtype=complex)
    for idx, block, w, v in parts:
        assert np.array_equal(block, h[idx[:, :, None], idx[:, None, :]])
        evals[idx] = w
        vecs[idx[:, :, None], idx[:, None, :]] = v
    assert np.abs(np.sort(evals) - np.linalg.eigvalsh(h)).max() < 1e-12
    assert np.abs(vecs.conj().T @ vecs - np.eye(n)).max() < 1e-12
    assert np.abs(h @ vecs - vecs * evals).max() < 1e-12
    # each eigenvector lives on its own component
    assert evals[2] == 0.5 and evals[4] == -2.0
    assert not vecs[[0, 2, 3, 4, 5]][:, [1, 6]].any()
    # a tridiagonal path is one component whose far pairs lie off the band
    path = op.TruncatedOperator(np.ones((3, 4)), -1)
    [(idx, block, _, _)] = _eigensystem(path)
    assert idx.tolist() == [[0, 1, 2, 3]]
    assert np.array_equal(block[0], path.dense())


@pytest.mark.parametrize("n", [2, 8, 64])
def test_spectrum_ladder(n):
    report = spectrum(dirac(n))
    assert [round(v) for v in report.eigenvalues] == sorted(
        list(range(-(n - 1), n)) + [0])
    assert max(report.residuals) < 1e-10
    assert report.spurious == [n - 1]
    assert report.eigenvalues[n - 1] == 0.0
    # the two zero modes are the singleton components: second-summand e_0
    # (index 1, the true mode) and first-summand e_{n-1} (index 2n-2, the
    # flagged one), each its own basis vector
    idx, block, w, v = _eigensystem(dirac(n))[0]
    assert idx.tolist() == [[1], [2 * n - 2]]
    assert not block.any() and not w.any()
    assert np.array_equal(np.abs(v), np.ones((2, 1, 1)))


def test_spectrum_flags_only_zero_modes_off_the_second_summand():
    # diagonal operators with one zero mode: on second-summand e_0 (index 1)
    # it is the true kernel; on first-summand e_1 (index 2) it is flagged
    kept = spectrum(op.TruncatedOperator([[3.0, 0.0, -2.0, 1.0]], 0))
    assert kept.eigenvalues == [-2.0, 0.0, 1.0, 3.0] and kept.spurious == []
    flagged = spectrum(op.TruncatedOperator([[3.0, 1.0, 0.0, -2.0]], 0))
    assert flagged.eigenvalues == [-2.0, 0.0, 1.0, 3.0]
    assert flagged.spurious == [1]


def test_spectrum_n2():
    report = spectrum(dirac(2))
    assert [round(v) for v in report.eigenvalues] == [-1, 0, 0, 1]


def test_spectrum_nonzero_multiplicities_one():
    report = spectrum(dirac(32))
    for value, mult in zip(report.distinct_values, report.multiplicities):
        if abs(value) > 0.5:
            assert mult == 1
        else:
            assert mult == 2
    assert sum(report.multiplicities) == 64


def test_spectrum_serialization(tmp_path):
    assert run(RunConfig("spectrum", n=4, output_dir=str(tmp_path))) == 0
    lines = (tmp_path / "data.csv").read_text().splitlines()
    assert lines[0] == "index,eigenvalue,residual,spurious"
    assert len(lines) == 9


def test_spectrum_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        spectrum(dirac(4), tol=0.0)


# ----------------------------------------------------------------------
# polar decomposition
# ----------------------------------------------------------------------

def test_abs_dirac_matches_number_blocks_interior():
    n = 32
    a = polar_parts(n)[1].dense()
    expected_tl = np.diag(np.arange(1, n + 1, dtype=float))
    expected_br = np.diag(np.arange(n, dtype=float))
    sl = slice(2, n - 2)
    assert np.abs(a[0::2, 0::2][sl, sl] - expected_tl[sl, sl]).max() < 1e-10
    assert np.abs(a[1::2, 1::2][sl, sl] - expected_br[sl, sl]).max() < 1e-10


def test_polar_check_passes_at_64():
    report = polar_check(64, 2)
    assert report.passed
    assert report.max_deviation < 1e-10
    assert report.details["absdirac_interior_deviation"] < 1e-10
    assert report.details["factor_interior_deviation"] < 1e-10
    assert report.details["recomposition_interior_deviation"] < 1e-10
    # the boundary collar carries an O(n) artifact the margin removes
    assert report.details["absdirac_full_deviation_with_collar"] > 1.0


def test_polar_check_preconditions():
    with pytest.raises(ValueError):
        polar_check(64, 0)
    with pytest.raises(ValueError):
        polar_check(8, 4)


# ----------------------------------------------------------------------
# Fredholm index
# ----------------------------------------------------------------------

def test_fredholm_index_is_one():
    assert fredholm_index(16, 32) == 1


def test_fredholm_index_stable_across_pairs():
    assert {fredholm_index(a, b) for a, b in [(16, 32), (32, 64), (64, 128)]} \
        == {1}


def test_forward_shift_index_minus_one():
    k, c = op.rectangular_kernel_dims(op.shift_pattern(), 64)
    assert (k, c) == (0, 1)


def test_fredholm_index_bad_sizes():
    with pytest.raises(ValueError):
        fredholm_index(32, 16)


@pytest.mark.parametrize("dims, message", [
    # the rectangular counts differ between the two truncations
    (lambda p, n: (1, 0) if n == 16 else (2, 0), "unstable across truncations"),
    # they agree with each other, but not with the semi-infinite pattern
    (lambda p, n: (0, 0), "disagrees with exact pattern index"),
])
def test_fredholm_index_refuses_counts_that_disagree(monkeypatch, dims, message):
    monkeypatch.setattr(op, "rectangular_kernel_dims", dims)
    with pytest.raises(FredholmIndexError, match=message):
        fredholm_index(16, 32)


def test_fredholm_index_refuses_a_polar_factor_off_the_shift_pattern(
        monkeypatch):
    def with_corner(n):
        f, absd = polar_parts(n)
        return f + op.finite_rank(0.5 * np.eye(2), 2 * n), absd

    # the package exports a function named dirac, so the module is looked up
    monkeypatch.setattr(sys.modules[fredholm_index.__module__], "polar_parts",
                        with_corner)
    with pytest.raises(FredholmIndexError,
                       match=r"polar factor deviates .* by 5\.000e-01"):
        fredholm_index(16, 32)


# ----------------------------------------------------------------------
# summability
# ----------------------------------------------------------------------

def test_partial_sum_k1():
    assert summability_partial_sums(0.0, [1]) == [pytest.approx(2.0, abs=1e-15)]


def test_partial_sum_matches_harmonic_numbers():
    big_k = 1000
    harmonic = sum(1.0 / j for j in range(1, big_k + 2))
    assert summability_partial_sums(0.0, [big_k]) == [pytest.approx(
        2.0 * harmonic - 1.0, rel=1e-12)]


def test_doubling_difference_approaches_2log2():
    big_k = 10**5
    s, s2 = summability_partial_sums(0.0, [big_k, 2 * big_k])
    diff = s2 - s
    assert abs(diff - 2 * math.log(2)) / (2 * math.log(2)) < 0.02


def test_epsilon_one_limit_bracket():
    limit = math.pi**2 / 3 - 1.0
    report = summability_report(1.0, 10**5)
    assert report["partial_sum"] <= limit <= report["partial_sum"] + report["tail_bound"]
    assert report["tail_bound"] < 1e-3
    assert abs(report["extrapolated_limit"] - limit) < 1e-6


def test_partial_sum_monotone_in_k_and_epsilon():
    values_k = summability_partial_sums(0.5, [10, 100, 1000])
    assert values_k[0] < values_k[1] < values_k[2]
    values_eps = [summability_partial_sums(e, [1000])[0]
                  for e in (0.0, 0.5, 1.0, 2.0)]
    assert all(b < a for a, b in zip(values_eps, values_eps[1:]))


@pytest.mark.parametrize("epsilon", [0.0, 1.0])
def test_partial_sums_match_an_independent_sum_at_each_cutoff(epsilon):
    # repeated and unsorted cutoffs, and cutoffs on both sides of the boundary
    # between the first two chunks of terms
    cutoffs = [1, 7, 7, 1000, SUM_CHUNK - 1, SUM_CHUNK, SUM_CHUNK + 1,
               2 * SUM_CHUNK + 3, 5]
    sums = summability_partial_sums(epsilon, cutoffs)
    assert len(sums) == len(cutoffs)
    for big_k, got in zip(cutoffs, sums):
        k = np.arange(1, big_k + 1, dtype=float)
        expected = 1.0 + 2.0 * np.sum((1.0 + k) ** -(1.0 + epsilon))
        assert got == pytest.approx(expected, rel=1e-13, abs=0.0)
    assert sums[1] == sums[2]


def test_summability_report_curve_ends_at_k():
    report = summability_report(0.0, 1000)
    points = [k for k, _ in report["curve"]]
    assert points[0] == 1 and points[-1] == 1000
    assert points == sorted(set(points)) and len(points) <= 24
    # the curve holds the partial sums at its prefixes, the last one at K
    assert [v for _, v in report["curve"]] == \
        summability_partial_sums(0.0, points)
    assert report["curve"][-1][1] == report["partial_sum"]


def test_summability_report_divergent_branch():
    report = summability_report(0.0, 1000)
    assert report["converges"] is False
    assert report["tail_bound"] is None
    assert "not trace class" in report["note"]


def test_summability_preconditions():
    with pytest.raises(ValueError, match="K must be >= 1"):
        summability_partial_sums(0.0, [10, 0])
    with pytest.raises(ValueError, match="epsilon must be >= 0"):
        summability_partial_sums(-0.5, [10])
    # the report refuses K < 1 itself, before choosing its curve's prefixes
    with pytest.raises(ValueError, match="K must be >= 1"):
        summability_report(1.0, 0)
