"""Tests for the block Dirac operator: spectrum, polar form, index, sums."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toeplitz_triple import operators as op
from toeplitz_triple.cli import RunConfig, run
from toeplitz_triple.dirac import (
    SUM_CHUNK,
    DiracStructureError,
    FredholmIndexError,
    _double,
    _pair_table,
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
from toeplitz_triple.triple import delta_absdirac_spot_check


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
    sign = np.where(s > 1e-8 * s.max(), np.sign(w), 0.0)
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

@pytest.mark.parametrize("n", [2, 8, 64, 16384])
def test_spectrum_ladder(n):
    report = spectrum(dirac(n))
    assert np.array_equal(report.eigenvalues, sorted(
        list(range(-(n - 1), n)) + [0]))
    assert (report.residuals == 0.0).all()
    assert report.spurious.tolist() == [n - 1]
    assert report.eigenvalues[n - 1] == 0.0
    # the two zero modes are the singletons, the indices in no pair:
    # second-summand e_0 (index 1, the true mode) and first-summand e_{n-1}
    # (index 2n-2, the flagged one), each its own basis vector
    diag, first, second, k = _pair_table(dirac(n))
    assert np.setdiff1d(np.arange(2 * n), np.r_[first, second]).tolist() \
        == [1, 2 * n - 2]
    assert not diag.any()
    assert sorted(np.abs(k).tolist()) == list(range(1, n))


def test_spectrum_flags_only_zero_modes_off_the_second_summand():
    # diagonal operators with one zero mode: on second-summand e_0 (index 1)
    # it is the true kernel; on first-summand e_1 (index 2) it is flagged
    kept = spectrum(op.TruncatedOperator([[3.0, 0.0, -2.0, 1.0]], 0))
    assert kept.eigenvalues.tolist() == [-2.0, 0.0, 1.0, 3.0]
    assert kept.spurious.tolist() == []
    flagged = spectrum(op.TruncatedOperator([[3.0, 1.0, 0.0, -2.0]], 0))
    assert flagged.eigenvalues.tolist() == [-2.0, 0.0, 1.0, 3.0]
    assert flagged.spurious.tolist() == [1]


def test_spectrum_clusters_are_runs_of_equal_eigenvalues():
    # one ulp apart is two clusters, and 5e-324 on first-summand e_0 is no
    # zero mode, so nothing is flagged
    above = np.nextafter(1.0, 2.0)
    report = spectrum(op.TruncatedOperator([[5e-324, 1.0, above, 1.0]], 0))
    assert report.distinct_values.tolist() == [5e-324, 1.0, above]
    assert report.multiplicities.tolist() == [1, 2, 1]
    assert report.spurious.tolist() == []


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


def test_spectrum_report_holds_arrays():
    report = spectrum(dirac(16))
    for name in ("eigenvalues", "residuals", "distinct_values"):
        assert getattr(report, name).dtype == np.float64
    for name in ("spurious", "multiplicities"):
        assert getattr(report, name).dtype.kind == "i"
    assert report.eigenvalues.shape == report.residuals.shape == (32,)
    assert report.multiplicities.sum() == 32


def test_spectrum_serialization(tmp_path):
    assert run(RunConfig("spectrum", n=4, output_dir=str(tmp_path))) == 0
    lines = (tmp_path / "data.csv").read_text().splitlines()
    assert lines[0] == "index,eigenvalue,residual,spurious"
    assert len(lines) == 9


# ----------------------------------------------------------------------
# closed-form solves
# ----------------------------------------------------------------------

# either sign, with a modulus from 1e-150 to 1e150
nonzero = st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
                    st.sampled_from([-1.0, 1.0]), st.floats(-150.0, 150.0))


def components(h):
    """Connected components of the nonzero pattern of the matrix h, each a
    sorted list of indices, ordered by their first index."""
    linked = h != 0
    seen = np.zeros(len(h), dtype=bool)
    out = []
    for start in range(len(h)):
        if seen[start]:
            continue
        seen[start] = True
        found, todo = [start], [start]
        while todo:
            new = np.flatnonzero(linked[todo.pop()] & ~seen)
            seen[new] = True
            found += new.tolist()
            todo += new.tolist()
        out.append(sorted(found))
    return out


@st.composite
def paired_operators(draw):
    """A real symmetric operator of dimension up to 40 shaped like D: pairs
    ``[[0, q], [q, 0]]`` on a random matching of indices, at offsets on a
    lattice of step 1 to 3, and a diagonal entry, 0 or not, on each index
    left over."""
    n = draw(st.integers(1, 40))
    step = draw(st.integers(1, 3))
    order = draw(st.permutations(range(n)))
    h = np.zeros((n, n))
    single = set(range(n))
    for i, j in zip(order[0::2], order[1::2]):
        if (i - j) % step == 0 and draw(st.booleans()):
            h[i, j] = h[j, i] = draw(nonzero)
            single -= {i, j}
    for i in single:
        h[i, i] = draw(st.one_of(st.just(0.0), nonzero))
    return op.finite_rank(h, n)


@settings(max_examples=300, deadline=None)
@given(paired_operators())
def test_closed_form_solves_match_eigh(h):
    diag, first, second, k = _pair_table(h)
    single = np.setdiff1d(np.arange(h.dim), np.r_[first, second])
    report = spectrum(h)
    # exactly -|q| and |q| for each pair, the diagonal entry for each
    # singleton, and residuals computed to 0.0
    high = np.abs(k)
    assert np.array_equal(report.eigenvalues,
                          np.sort(np.r_[diag[single], -high, high]))
    assert (report.residuals == 0.0).all()
    # the zero modes are singletons, flagged on the even indices
    even = single[single % 2 == 0]
    assert len(report.spurious) == np.count_nonzero(diag[even] == 0)
    # the pairs against LAPACK: the worst of 600 000 random blocks
    # [[p, q], [q, r]] was 2.9 eps |B|
    dense = h.dense().real
    idx = np.stack((first, second), axis=1)
    w = np.linalg.eigvalsh(dense[idx[:, :, None], idx[:, None, :]])
    scale = 6 * np.finfo(float).eps * np.abs(w).max(axis=1, initial=0.0)
    assert (np.abs(np.stack((-high, high), axis=1) - w)
            <= scale[:, None]).all()


@settings(max_examples=200, deadline=None)
@given(paired_operators())
def test_eigensystem_reads_components_off_the_matrix(h):
    dense = h.dense().real
    diag, first, second, k = _pair_table(h)
    assert sorted(zip(first.tolist(), second.tolist())) == \
        [tuple(c) for c in components(dense) if len(c) == 2]
    assert np.array_equal(k, dense[second, first])
    assert np.array_equal(diag, np.diag(dense))


@pytest.mark.parametrize("h, message", [
    # a tridiagonal path: one component of four indices
    (op.TruncatedOperator(np.ones((3, 4)), -1), "in two pairs"),
    (op.finite_rank(np.array([[0.0, 1j], [-1j, 0.0]]), 2), "complex"),
    # an entry below the diagonal with nothing above it
    (op.TruncatedOperator([[1.0, 0.0, 0.0]], 1), "does not mirror"),
    # one entry on each side, but not each other's mirror
    (op.finite_rank(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0],
                              [0.0, 0.0, 0.0]]), 3), "does not mirror"),
    # mirrored patterns with unequal values: reading the entry below the
    # diagonal alone gave eigenvalues +-2 with residuals 0.0, where the
    # matrix has +-sqrt(2)
    (op.finite_rank(np.array([[0.0, 1.0], [2.0, 0.0]]), 2), "does not mirror"),
    (op.finite_rank(np.array([[0.0, 1.0], [1.0, 5.0]]), 2),
     "pair carries a diagonal entry"),
], ids=["path", "complex", "one_sided", "unmirrored", "unequal_mirror",
        "pair_with_diagonal"])
def test_eigensystem_refuses_components_unlike_d(h, message):
    # a ValueError, as library callers of spectrum catch it, of its own
    # class, as the command line reports it
    with pytest.raises(DiracStructureError, match=message):
        _pair_table(h)
    with pytest.raises(ValueError, match=message):
        spectrum(h)


def test_dirac_runs_no_eigh(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    report = spectrum(dirac(64))
    assert report.eigenvalues.tolist() == sorted(list(range(-63, 64)) + [0])
    assert not any(report.residuals)
    f, absd = polar_parts(64)
    assert (f.band, absd.band) == ((-3, 3), (0, 0))
    assert fredholm_index(16, 32) == 1
    assert delta_absdirac_spot_check(FourierSeries.cosine(16), 133).passed
    # a component of three indices is refused, not solved some other way
    with pytest.raises(ValueError, match="in two pairs"):
        _pair_table(op.finite_rank(np.ones((3, 3)), 3))


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
    assert report.max_deviation == report.tolerance == 0.0
    assert report.details["absdirac_interior_deviation"] == 0.0
    assert report.details["factor_interior_deviation"] == 0.0
    assert report.details["recomposition_interior_deviation"] == 0.0
    # the boundary collar carries an O(n) artifact the margin removes
    assert report.details["absdirac_full_deviation_with_collar"] > 1.0


def test_polar_check_fails_one_ulp_off(monkeypatch):
    def nudged(n):
        f, absd = polar_parts(n)
        # one ulp onto first-summand e_{n/2}, well inside the margin, where
        # |D| holds n/2 + 1
        bump = np.zeros((1, 2 * n))
        bump[0, n] = np.spacing(n / 2 + 1)
        return f, absd + op.TruncatedOperator(bump, 0)

    # the package exports a function named dirac, so the module is looked up
    monkeypatch.setattr(sys.modules[polar_check.__module__], "polar_parts",
                        nudged)
    report = polar_check(64, 2)
    assert not report.passed
    assert report.max_deviation == np.spacing(33.0) > 0.0


@pytest.mark.parametrize("n", [64, 768, 16384])
def test_polar_parts_are_exact(n):
    # D's blocks [[0, k], [k, 0]] give |k| twice on the diagonal of |D| and
    # sign k off the diagonal of F, so |D| is diag(N + 1, N) and F is
    # [[0, S*], [S, 0]] bit for bit: no margin, no tolerance.  The one
    # exception is the spurious zero mode, first-summand e_{n-1}, where |D|
    # is 0.  c^2 k + s^2 k, with c = s = 1/sqrt(2) rounded, left |D|
    # 7.3e-12 off at n = 16384
    f, absd = polar_parts(n)
    top = np.arange(1.0, n + 1)
    top[-1] = 0.0
    expected = (
        _double({(0, 1): op.shift_adjoint(n), (1, 0): op.shift(n)}, n),
        _double({(0, 0): op.TruncatedOperator(top[None, :], 0),
                 (1, 1): op.number(n)}, n))
    for got, want in zip((f, absd), expected):
        assert (got.lo, got.step) == (want.lo, want.step)
        assert np.array_equal(got.rows, want.rows)


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
    # F is exact, so a corner of 1e-7 is refused as a corner of 0.5 is
    for corner, shown in ((0.5, r"5\.000e-01"), (1e-7, r"1\.000e-07")):
        def with_corner(n):
            f, absd = polar_parts(n)
            return f + op.finite_rank(corner * np.eye(2), 2 * n), absd

        # the package exports a function named dirac, so the module is
        # looked up
        monkeypatch.setattr(sys.modules[fredholm_index.__module__],
                            "polar_parts", with_corner)
        with pytest.raises(FredholmIndexError,
                           match=rf"polar factor deviates .* by {shown}"):
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
