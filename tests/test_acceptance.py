"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail lines.
"""

import math

import numpy as np
import pytest

from toeplitz_triple import operators as op
from toeplitz_triple.dirac import (
    analytic_eigenvector,
    dirac,
    fredholm_index,
    polar_check,
    spectrum,
    summability_partial_sums,
)
from toeplitz_triple.fourier import FourierSeries, coefficient_distance, wedge_check
from toeplitz_triple.triple import (
    AlgebraElement,
    boundedness_sweep,
    evenness_check,
    membership_check,
    random_words,
    rough_symbol,
    verify_commutator_dz,
    verify_delta_k,
)

WORD_SEED = 0  # fixed so the randomized-word criterion is reproducible


def report(number, description, passed):
    print(f"ACCEPTANCE {number:02d} [{'PASS' if passed else 'FAIL'}] {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_01_spectrum():
    n = 256
    rep = spectrum(dirac(n), tol=1e-10)
    expected = sorted(list(range(-(n - 1), n)) + [0])
    ladder = [round(v) for v in rep.eigenvalues] == expected
    close = max(abs(v - round(v)) for v in rep.eigenvalues) < 1e-10
    residuals = max(rep.residuals) < 1e-10
    one_spurious = len(rep.spurious) == 1 and \
        abs(rep.eigenvalues[rep.spurious[0]]) < 1e-10
    mults = all(m == 1 for v, m in zip(rep.distinct_values, rep.multiplicities)
                if abs(v) > 0.5)
    report(1, "spectrum(dirac(256)) is the integer ladder with one flagged "
              "spurious zero", ladder and close and residuals and one_spurious
              and mults)


def test_criterion_02_eigenbasis():
    n = 256
    h = dirac(n).dense()
    basis = np.column_stack([analytic_eigenvector(k, n)
                             for k in range(-(n - 2), n - 1)])
    ks = np.arange(-(n - 2), n - 1, dtype=float)
    residuals = np.linalg.norm(h @ basis - basis * ks[None, :], axis=0)
    report(2, "analytic eigenvectors satisfy D b_k = k b_k for |k| <= 254",
           float(residuals.max()) < 1e-12)


def test_criterion_03_fredholm_index():
    indices = [fredholm_index(a, b) for a, b in [(16, 32), (32, 64), (64, 128)]]
    ker, coker = op.pattern_kernel_dims(op.shift_adjoint_pattern())
    report(3, "Fredholm index is exactly 1, stable across truncation pairs, "
              "matching the exact pattern",
           indices == [1, 1, 1] and ker - coker == 1)


def test_criterion_04_polar_decomposition():
    rep = polar_check(64, 2)
    report(4, "polar factors match diag(N+1, N) and the shift pair at n=64",
           rep.passed and
           rep.details["absdirac_interior_deviation"] < 1e-10 and
           rep.details["factor_interior_deviation"] < 1e-10)


def test_criterion_05_commutator_identities():
    n = 512
    ok = True
    for k in (1, 2, 3):
        f = FourierSeries.cosine(4 * k)
        ok &= verify_commutator_dz(f, n).max_deviation < 1e-12
        for order in (1, 2, 3):
            ok &= verify_delta_k(f, order, n).max_deviation < 1e-12
    report(5, "commutator and iterated-delta identities hold at n=512 for "
              "cos(4t), cos(8t), cos(12t)", ok)


def test_criterion_06_boundedness_sweeps():
    sizes = [64, 128, 256, 512]
    rng = np.random.default_rng(WORD_SEED)
    words = random_words(rng, 10)
    ok = True
    for word in words:
        for which, order in [("dirac", 1), ("delta", 1), ("delta", 2)]:
            sweep = boundedness_sweep(word, sizes, which, order=order)
            ok &= sweep.stabilized and sweep.trend == "bounded"
    control = boundedness_sweep(
        lambda n: AlgebraElement.unchecked_toeplitz(rough_symbol(n)),
        sizes, "delta", order=1)
    ok &= control.trend == "growing"
    report(6, "commutator norms stabilize to 1e-6 for ten random words; the "
              "rough negative control grows", ok)


def test_criterion_07_summability():
    big_k = 10**5
    s, s2 = summability_partial_sums(0.0, [big_k, 2 * big_k])
    diff = s2 - s
    target = 2 * math.log(2.0)
    divergent = abs(diff - target) / target < 0.02

    limit = math.pi**2 / 3 - 1.0
    [partial] = summability_partial_sums(1.0, [big_k])
    tail_bound = 2.0 / big_k
    bracketed = partial <= limit <= partial + tail_bound
    tight = (limit - partial) < 1e-3 and tail_bound < 1e-3
    report(7, "partial sums diverge like 2 ln 2 per doubling at eps=0 and "
              "bracket pi^2/3 - 1 at eps=1", divergent and bracketed and tight)


def test_criterion_08_evenness():
    words = [
        AlgebraElement.toeplitz(FourierSeries.cosine(4)),
        AlgebraElement.toeplitz(FourierSeries.cosine(8)).adjoint(),
        AlgebraElement.finite_rank(np.array([[1.0, 0.5], [0.0, 2.0]])),
        AlgebraElement.toeplitz(FourierSeries.cosine(4))
        * AlgebraElement.toeplitz(FourierSeries.cosine(8)),
        AlgebraElement.toeplitz(FourierSeries.constant(1.0))
        + AlgebraElement.finite_rank(np.eye(2)),
    ]
    ok = all(evenness_check(w, 128).max_deviation == 0.0 for w in words)
    report(8, "all four grading relations hold with exactly zero residual "
              "at n=128 for five sample elements", ok)


def test_criterion_09_weight_gap():
    sup, at = op.cauchy_riemann_weight_gap(10**6)
    prefixes = [op.cauchy_riemann_weight_gap(n)[0]
                for n in (10, 100, 1000, 10**4, 10**5, 10**6)]
    monotone = all(b > a for a, b in zip(prefixes, prefixes[1:]))
    report(9, "sup of sqrt(m(m+1)) - m over m < 1e6 is within 1e-6 of 1/2, "
              "monotone over prefixes",
           abs(sup - 0.5) < 1e-6 and at == 10**6 - 1 and monotone)


def test_criterion_10_wedge_and_membership():
    cos_ok = all(wedge_check(FourierSeries.cosine(4 * k), 1e-10).passed
                 for k in range(1, 17))
    sin4 = FourierSeries({4: -0.5j, -4: 0.5j})
    sin_rep = wedge_check(sin4, 1e-9)
    zeta4_rep = wedge_check(FourierSeries({4: 1.0}), 1e-9)
    negatives = (not sin_rep.passed and not zeta4_rep.passed and
                 max(sin_rep.max_violation_first, sin_rep.max_violation_second) > 0.5 and
                 max(zeta4_rep.max_violation_first, zeta4_rep.max_violation_second) > 0.5)

    t4 = AlgebraElement.toeplitz(FourierSeries.cosine(4))
    t8 = AlgebraElement.toeplitz(FourierSeries.cosine(8))
    block = AlgebraElement.finite_rank(np.array([[1.0, 1.0j], [0.0, 0.5]]))
    words = [t4, t8, t4 * t8, t4 * t8 + block, t4.adjoint() + block,
             2.0 * t4 + t8 * block]
    membership = all(membership_check(w, 256).passed for w in words)
    splits = all(membership_check(w, 256).details["compact_part_symbol"] < 1e-8
                 for w in words)
    report(10, "cos(4kt) passes the wedge check through k=16; sin(4t) and "
               "u^4 fail; membership and compact splits hold",
           cos_ok and negatives and membership and splits)


def test_criterion_11_symbol_extraction():
    rng = np.random.default_rng(2)
    f = FourierSeries({4: 0.5, -4: 0.5, 2: 0.25j, -7: 0.125})
    base = op.toeplitz(f, 128)
    exact = coefficient_distance(op.symbol_estimate(base, 8), f) < 1e-12
    block = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    perturbed = base + op.finite_rank(block, 128)
    still_exact = coefficient_distance(op.symbol_estimate(perturbed, 8), f) < 1e-12
    report(11, "symbol recovery is exact from a Toeplitz matrix at n=128, "
               "with and without a 32x32 corner block",
           exact and still_exact)
