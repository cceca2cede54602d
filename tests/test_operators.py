"""Tests for truncated operators, norms, symbols and exact band patterns."""

import contextlib
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toeplitz_triple.fourier import FourierSeries, coefficient_distance
from toeplitz_triple import _bisection
from toeplitz_triple import operators as op


def cos4():
    return FourierSeries.cosine(4)


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------

def test_toeplitz_of_u_is_shift():
    t = op.toeplitz(FourierSeries({1: 1.0}), 4)
    assert np.array_equal(t.dense(), op.shift(4).dense())


def test_toeplitz_cos4_band():
    t = op.toeplitz(cos4(), 8)
    expected = np.zeros((8, 8), dtype=complex)
    for r in range(8):
        for c in range(8):
            if abs(r - c) == 4:
                expected[r, c] = 0.5
    assert np.array_equal(t.dense(), expected)
    assert t.band == (-4, 4)


def test_toeplitz_constant_is_identity():
    t = op.toeplitz(FourierSeries.constant(1.0), 5)
    assert np.array_equal(t.dense(), np.eye(5))


def test_elementary_matrices():
    d = op.dz(3)
    assert np.array_equal(d.dense(), np.array([[0, 1, 0], [0, 0, 2], [0, 0, 0]],
                                              dtype=complex))
    ds = op.dz_star(3)
    assert np.array_equal(ds.dense(), np.array([[0, 0, 0], [1, 0, 0], [0, 2, 0]],
                                               dtype=complex))
    assert np.array_equal(op.number(3).dense(), np.diag([0.0, 1.0, 2.0]))
    s = op.shift(3)
    assert np.array_equal(s.dense(), np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]],
                                              dtype=complex))
    assert np.array_equal(op.shift_adjoint(3).dense(), s.dense().T)


def test_dz_is_shift_adjoint_times_number():
    n = 16
    product = op.shift_adjoint(n) @ op.number(n)
    assert np.array_equal(product.dense(), op.dz(n).dense())


def test_dz_star_is_adjoint_of_dz_in_truncation():
    # both cut the same raising image, so the truncations are exact adjoints
    n = 12
    assert np.array_equal(op.dz(n).adjoint().dense(), op.dz_star(n).dense())


def test_finite_rank_embedding():
    t = op.finite_rank([[1.0]], 4)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.array_equal(t.dense(), expected)

    block = [[0.0, 1.0], [0.0, 0.0]]
    t2 = op.finite_rank(block, 4)
    assert t2.dense()[0, 1] == 1.0
    assert np.count_nonzero(t2.dense()) == 1

    t3 = op.finite_rank(np.eye(3), 3)
    assert np.array_equal(t3.dense(), np.eye(3))

    with pytest.raises(ValueError):
        op.finite_rank(np.eye(5), 4)


# ----------------------------------------------------------------------
# algebra
# ----------------------------------------------------------------------

def test_commutator_number_shift_is_shift():
    n = 8
    c = op.commutator(op.number(n), op.shift(n))
    assert np.array_equal(c.dense(), op.shift(n).dense())


def test_commutator_with_itself_vanishes():
    a = op.toeplitz(cos4(), 16)
    assert np.abs(op.commutator(a, a).dense()).max() == 0.0


def test_adjoint_of_toeplitz_is_toeplitz_of_conjugate():
    f = FourierSeries({2: 1.0 + 0.5j, -1: 0.25j})
    n = 10
    assert np.array_equal(op.toeplitz(f, n).adjoint().dense(),
                          op.toeplitz(f.conjugate(), n).dense())


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        op.shift(4) @ op.shift(5)
    with pytest.raises(ValueError):
        op.shift(4) + op.shift(5)


def test_band_metadata_combination():
    s = op.shift(8)
    ss = s @ s
    assert ss.band == (2, 2)
    mixed = s + op.shift_adjoint(8)
    assert mixed.band == (-1, 1)
    assert s.adjoint().band == (-1, -1)


# ----------------------------------------------------------------------
# norms
# ----------------------------------------------------------------------

def test_norm_of_shift_is_one():
    assert op.operator_norm(op.shift(16)) == pytest.approx(1.0, abs=1e-12)
    assert op.operator_norm(op.shift(128), 1e-10) == pytest.approx(1.0, rel=1e-8)


def test_norm_of_number_operator():
    assert op.operator_norm(op.number(16)) == pytest.approx(15.0, abs=1e-10)
    assert op.operator_norm(op.number(128), 1e-10) == pytest.approx(127.0, rel=1e-8)


def test_norm_toeplitz_cos4_against_full_decomposition():
    a = op.toeplitz(cos4(), 64)
    oracle = float(np.linalg.svd(a.dense(), compute_uv=False)[0])
    value = op.operator_norm(a, 1e-10)
    assert value == pytest.approx(oracle, rel=1e-10)
    # bounded by the sup of the symbol from below
    assert 0.0 < value <= 1.0


def test_toeplitz_norm_bounded_by_symbol_sup():
    rng = np.random.default_rng(9)
    for _ in range(4):
        ks = rng.integers(-6, 7, size=4)
        f = FourierSeries({int(k): complex(v, w) for k, v, w in
                           zip(ks, rng.standard_normal(4), rng.standard_normal(4))})
        theta = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        sup = float(np.abs(f.evaluate(theta)).max())
        for n in (16, 48):
            assert op.operator_norm(op.toeplitz(f, n)) <= sup + 1e-8


def test_power_iteration_matches_svd_on_random_matrix():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
    a = op.finite_rank(m, len(m))
    oracle = float(np.linalg.svd(m, compute_uv=False)[0])
    assert op.operator_norm(a, 1e-9) == pytest.approx(oracle, rel=1e-6)


def test_norm_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        op.operator_norm(op.shift(4), 0.0)
    # a nan tolerance used to run all 10 000 steps and then fall back to a
    # dense SVD
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError, match="tol"):
            op.operator_norm(op.shift(128), tol)


class Stalled(Exception):
    """Raised by ``_bisection.gram_norm`` under ``power_cap``: above dim 64
    only the fallback of ``operator_norm`` calls it, so it marks an
    iteration whose steps did not meet the stop rule."""


@contextlib.contextmanager
def power_cap(cap):
    """``operator_norm`` with at most ``cap`` power steps, raising Stalled
    where it would fall back to the certified bisection."""
    def stalled(a):
        raise Stalled

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(op, "POWER_ITERATION_CAP", cap)
        patch.setattr(_bisection, "gram_norm", stalled)
        yield


def dense_gram_norm(a, tol, cap=op.POWER_ITERATION_CAP):
    """The power iteration as it ran on the dense Gram matrix ``A* A``: its
    value and the number of steps it took, or ``(None, cap)`` when ``cap``
    steps do not meet the stop rule.  A zero product gives the value 0."""
    m = a.dense()
    gram = m.conj().T @ m
    v = np.full(a.dim, 1.0 / math.sqrt(a.dim), dtype=complex)
    previous = -1.0
    for step in range(1, cap + 1):
        w = gram @ v
        lam = float(np.real(np.vdot(v, w)))
        if not w.any():
            return 0.0, step
        v = w / float(np.linalg.norm(w))
        sigma = math.sqrt(max(lam, 0.0))
        if previous >= 0.0 and abs(sigma - previous) <= tol * sigma:
            return sigma, step
        previous = sigma
    return None, cap


def toeplitz_of(f):
    return lambda n: op.toeplitz(f, n)


def cos4_with_complex_corner(n):
    rng = np.random.default_rng(5)
    block = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return op.toeplitz(cos4(), n) + op.finite_rank(block, n)


@pytest.mark.parametrize("n", [128, 300])
@pytest.mark.parametrize("make, operand, real", [
    pytest.param(op.dz, toeplitz_of(FourierSeries.cosine(4)), True, id="dz-4"),
    pytest.param(op.number, toeplitz_of(FourierSeries.cosine(8)), True,
                 id="number-8"),
    pytest.param(op.dz, toeplitz_of(FourierSeries({4: 0.5j, -4: -0.25 + 0.5j})),
                 False, id="dz-complex_symbol"),
    pytest.param(op.number, cos4_with_complex_corner, False,
                 id="number-complex_corner"),
    # the sweep blocks of cos4k:4: offsets -17 and 15, or -16 and 16, on
    # 2 lattice rows where the contiguous band holds 33
    pytest.param(op.dz, toeplitz_of(FourierSeries.cosine(16)), True,
                 id="dz-16"),
    pytest.param(op.number, toeplitz_of(FourierSeries.cosine(16)), True,
                 id="number-16"),
])
def test_banded_norm_follows_the_dense_gram_iteration(n, make, operand, real):
    # the sweep values of the benchmark references were taken with the dense
    # iteration, and the gate holds them to 1e-9 relative
    a = op.commutator(make(n), operand(n))
    # real data gives a float64 band, and the matrix-vector plan runs in the
    # band's dtype
    assert (a.diagonals.dtype == np.float64) == real
    assert op._MatvecPlan.of(a).rows.dtype == a.diagonals.dtype
    expected, steps = dense_gram_norm(a, 1e-9)
    assert expected is not None
    assert op.operator_norm(a, 1e-9) == pytest.approx(expected, rel=1e-12)
    # every band here has at most 2 * NORM_BLOCK lattice rows, so G = A* A
    # is formed and one plan applies it, from G's conjugated rows scaled by
    # 2**-exponent
    m = a.dense()
    gram = m.conj().T @ m
    [plan], exponent = op._norm_plans(a)
    built = op.TruncatedOperator(
        op._Fresh(plan.rows.conj() * 2.0 ** exponent, plan.step), plan.lo)
    assert np.abs(built.dense() - gram).max() <= 1e-14 * np.abs(gram).max()
    # the banded iteration stops at the same step: a cap of exactly that many
    # steps (rarely a multiple of the block) suffices, and one fewer does not
    for cap in (steps, steps + 1, steps + op.NORM_BLOCK + 3):
        with power_cap(cap):
            assert op.operator_norm(a, 1e-9) == pytest.approx(expected,
                                                              rel=1e-12)
    for cap in (steps - 1, steps // 2 + 1, 1):
        with power_cap(cap), pytest.raises(Stalled):
            op.operator_norm(a, 1e-9)


def test_norm_forms_no_dense_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("dense() called")

    a = op.commutator(op.number(128), op.toeplitz(cos4(), 128))
    monkeypatch.setattr(op.TruncatedOperator, "dense", refuse)
    # the value README quotes for the power iteration at tol 1e-9
    assert op.operator_norm(a, 1e-9) == pytest.approx(3.9818876203955815,
                                                      rel=1e-12)


def test_norm_of_zero_matrix():
    z = op.finite_rank(np.zeros((80, 80)), 80)
    assert op.operator_norm(z) == 0.0
    assert op.operator_norm(op.finite_rank(np.zeros((3, 3)), 20)) == 0.0
    # the first product is zero, so one step decides
    with power_cap(1):
        assert op.operator_norm(z, 1e-10) == 0.0


def rough_delta():
    """[N, T_f] for the rough control's symbol at n = 256: 129 real lattice
    rows."""
    from toeplitz_triple.triple import rough_symbol
    return op.delta(op.toeplitz(rough_symbol(256), 256), 1)


def complex_band():
    """A seeded complex Toeplitz band of 81 diagonals at n = 300."""
    rng = np.random.default_rng(81)
    f = FourierSeries({k: complex(*rng.standard_normal(2))
                       for k in range(-40, 41)})
    return op.toeplitz(f, 300)


@pytest.mark.parametrize("make, values", [
    (rough_delta, (15.744588636248102, 15.744588629279377)),
    (complex_band, (34.43806484279293, 34.438064592983004)),
], ids=["rough_delta", "complex_band"])
def test_wide_norm_values_are_pinned(make, values):
    # the values at tol 1e-10 and 1e-9 when each plan of A and A* carried
    # its own power-of-two scale on its own scaled copy of the rows; the
    # scale now rides on the one copy, and scaling by a power of two is
    # exact, so every iterate is the same, bit for bit
    a = make()
    assert a.rows.shape[0] > 2 * op.NORM_BLOCK
    assert len(op._norm_plans(a)[0]) == 2
    assert (op.operator_norm(a), op.operator_norm(a, 1e-9)) == values


@pytest.mark.parametrize("k", [2, 20])
def test_start_vector_in_the_kernel_gives_zero(k):
    # every row of the block sums to exactly 0, so the first product is zero
    # and the iteration stops there with 0, as the unblocked loop did; k = 2
    # runs the Gram plan, k = 20 (39 diagonals) the plans of A and A*
    block = np.tile([1.0, -1.0], (k, k // 2))
    a = op.finite_rank(block, 80)
    with power_cap(1):
        assert op.operator_norm(a, 1e-10) == 0.0
    assert op.operator_norm(3.0 * a) == 0.0


@st.composite
def banded_with_corner(draw):
    """A band of up to 40 stored diagonals plus a corner block, real or
    complex, with n from 65 to 200: both the Gram plan and the plans of A
    and A* run."""
    n = draw(st.integers(65, 200))
    count = draw(st.integers(1, 40))
    lo = draw(st.integers(-count - 4, 4))
    k = draw(st.integers(0, 8))
    real = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def entries(*shape):
        x = rng.uniform(-1, 1, shape)
        return x if real else x + 1j * rng.uniform(-1, 1, shape)

    data = entries(count, n)
    data[rng.random(count) < 0.3] = 0.0
    return op.TruncatedOperator(data, lo) + op.finite_rank(entries(k, k), n)


@settings(max_examples=40, deadline=None)
@given(banded_with_corner(), st.sampled_from([300, -300]))
def test_blocked_norm_follows_the_dense_gram_iteration(a, power):
    cap = 2000
    expected, steps = dense_gram_norm(a, 1e-9, cap)
    scaled = a * 2.0 ** power
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if expected is None:
            for x in (a, scaled):
                with power_cap(cap), pytest.raises(Stalled):
                    op.operator_norm(x, 1e-9)
            return
        with power_cap(steps):
            value = op.operator_norm(a, 1e-9)
            # entries near 2**300 or 2**-300 neither overflow nor underflow:
            # the plans are scaled by powers of two, so the iteration is the
            # same
            assert op.operator_norm(scaled, 1e-9) == math.ldexp(value, power)
        if steps > 1:
            with power_cap(steps - 1), pytest.raises(Stalled):
                op.operator_norm(scaled, 1e-9)
    assert value == pytest.approx(expected, rel=1e-12)


def dense_norm(a):
    return float(np.linalg.svd(a.dense(), compute_uv=False)[0])


@st.composite
def lattice_with_corner(draw):
    """A band on a lattice of step 1 to 5 plus a corner block whose entries
    lie on the same lattice, real or complex, with n up to 40 or n = 64: the
    Gram operator keeps the step, so it splits into that many classes."""
    n = draw(st.one_of(st.integers(1, 40), st.just(op.EXACT_NORM_DIM)))
    step = draw(st.integers(1, 5))
    count = draw(st.integers(1, 8))
    lo = draw(st.integers(-count * step, 4))
    k = draw(st.integers(0, min(n, 8)))
    real = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def entries(*shape):
        x = rng.uniform(-1, 1, shape)
        return x if real else x + 1j * rng.uniform(-1, 1, shape)

    band = op.TruncatedOperator(op._Fresh(entries(count, n), step), lo)
    corner = entries(k, k)
    offsets = np.subtract.outer(np.arange(k), np.arange(k))
    corner[(offsets - lo) % step != 0] = 0.0
    return band + op.finite_rank(corner, n)


@settings(max_examples=40, deadline=None)
@given(lattice_with_corner())
def test_certified_norm_matches_the_dense_svd(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = op.operator_norm(a)
    assert value == pytest.approx(dense_norm(a), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("power", [300, -300])
@pytest.mark.parametrize("n", [40, 64])
def test_certified_norm_scales_exactly(n, power):
    # G scales by 2**(2 * power) and its exponent by 2 * power, so the
    # bisection runs on the same scaled band, bit for bit
    a = cos4_with_complex_corner(n) + op.commutator(op.dz(n),
                                                    op.toeplitz(cos4(), n))
    assert op.operator_norm(a * 2.0 ** power) == \
        math.ldexp(op.operator_norm(a), power)


def test_certified_norm_calls_no_lapack_and_forms_no_matrix(monkeypatch):
    small = op.commutator(op.dz(64), op.toeplitz(FourierSeries.cosine(8), 64))
    stalled = op.commutator(op.number(128), op.toeplitz(cos4(), 128))
    expected = [dense_norm(small), dense_norm(stalled)]

    def refuse(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(op.TruncatedOperator, "dense", refuse)
    # a cap of one step stalls the block at dim 128, which then takes the
    # same route as the one at dim 64
    monkeypatch.setattr(op, "POWER_ITERATION_CAP", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [op.operator_norm(small), op.operator_norm(stalled)]
    assert values == pytest.approx(expected, rel=1e-14, abs=0.0)


# ----------------------------------------------------------------------
# interior blocks and symbol recovery
# ----------------------------------------------------------------------

def test_interior_block_margin_zero_is_identity():
    a = op.toeplitz(cos4(), 16)
    assert op.interior_block(a, 0) is a


def test_interior_of_identity_is_identity():
    inner = op.interior_block(op.identity(10), 3)
    assert np.array_equal(inner.dense(), np.eye(4))


def test_interior_commutator_identity_entrywise():
    # [N, T_f] equals -i T_{f'} on interior blocks clearing the bandwidth
    f = cos4()
    n = 64
    lhs = op.commutator(op.number(n), op.toeplitz(f, n))
    rhs = (-1j) * op.toeplitz(f.derivative(), n)
    dev = np.abs(op.interior_block(lhs, 4).dense()
                 - op.interior_block(rhs, 4).dense()).max()
    assert dev < 1e-13


def test_interior_block_margin_too_large():
    with pytest.raises(ValueError):
        op.interior_block(op.identity(8), 4)


def test_symbol_estimate_exact_on_toeplitz():
    f = FourierSeries({4: 0.5, -4: 0.5, 1: 0.25j})
    est = op.symbol_estimate(op.toeplitz(f, 128), 8)
    assert coefficient_distance(est, f) < 1e-14


def test_symbol_estimate_ignores_corner_block():
    rng = np.random.default_rng(5)
    f = cos4()
    block = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    a = op.toeplitz(f, 128) + op.finite_rank(block, 128)
    est = op.symbol_estimate(a, 8)
    assert coefficient_distance(est, f) < 1e-14


def test_symbol_estimate_of_compact_part_vanishes():
    block = np.full((8, 8), 2.0)
    a = op.finite_rank(block, 128)
    est = op.symbol_estimate(a, 8)
    assert all(abs(v) == 0.0 for v in est.coeffs.values()) or est.coeffs == {}


def test_symbol_estimate_precondition():
    with pytest.raises(ValueError):
        op.symbol_estimate(op.identity(16), 4)


# ----------------------------------------------------------------------
# weight gap
# ----------------------------------------------------------------------

def test_weight_gap_small_cases():
    assert op.cauchy_riemann_weight_gap(1) == (0.0, 0)
    sup, at = op.cauchy_riemann_weight_gap(2)
    assert sup == pytest.approx(math.sqrt(2) - 1.0, abs=1e-15)
    assert at == 1


def test_weight_gap_approaches_one_half():
    sup, at = op.cauchy_riemann_weight_gap(10**6)
    assert abs(sup - 0.5) < 1e-6
    assert at == 10**6 - 1
    assert sup < 0.5


def test_weight_gap_monotone_prefixes():
    values = [op.cauchy_riemann_weight_gap(n)[0] for n in (10, 100, 1000, 10000)]
    assert all(b > a for a, b in zip(values, values[1:]))


# ----------------------------------------------------------------------
# exact band patterns
# ----------------------------------------------------------------------

def test_pattern_kernel_dims():
    assert op.pattern_kernel_dims(op.shift_adjoint_pattern()) == (1, 0)
    assert op.pattern_kernel_dims(op.shift_pattern()) == (0, 1)
    assert op.pattern_kernel_dims(op.dz_pattern()) == (1, 0)
    assert op.pattern_kernel_dims(op.dz_star_pattern()) == (0, 1)
    # w(m) = m with a zero m**2 term: the weight of dz_pattern
    padded = op.BandPattern.weighted_shift(-1, [0, 1, 0])
    assert padded.nonnegative_zeros() == [0]
    assert op.pattern_kernel_dims(padded) == (1, 0)


def test_pattern_rejects_an_empty_weight():
    # w would have no coefficient to evaluate or find the zeros of
    with pytest.raises(ValueError, match="at least one coefficient"):
        op.BandPattern.weighted_shift(1, [])
    with pytest.raises(ValueError, match="at least one coefficient"):
        op.BandPattern(offset=-1, coeffs=())
    # w = 0 vanishes at every m
    with pytest.raises(ValueError, match="identically zero weight"):
        op.BandPattern.weighted_shift(-1, [0, 0]).nonnegative_zeros()


def closed_form(name, n):
    """The offset and stored row of a generator's n x n truncation, written
    out: the weights, 0 where the image falls outside the matrix."""
    m = np.arange(n, dtype=float)
    offset, row = {"shift": (1, np.ones(n)), "shift_adjoint": (-1, np.ones(n)),
                   "number": (0, m), "dz": (-1, m),
                   "dz_star": (1, m + 1)}[name]
    row[:max(0, -offset)] = 0
    row[n - max(0, offset):] = 0
    return (offset, row[None, :]) if row.any() else (0, np.zeros((1, n)))


def test_pattern_realization_matches_matrices():
    # each generator is the realisation of its pattern, and equals its
    # closed form bit for bit, lattice and dtype included
    for name in ("shift", "shift_adjoint", "number", "dz", "dz_star"):
        for n in (1, 2, 3, 7, 64, 262144):
            g = getattr(op, name)(n)
            offset, row = closed_form(name, n)
            assert (g.lo, g.step, g.rows.dtype) == (offset, 1, np.float64)
            assert np.array_equal(g.rows, row)
            assert g.rows.tobytes() == row.tobytes()


@pytest.mark.parametrize("coeffs", [
    [Fraction(-3, 7), Fraction(1, 7)],
    [Fraction(1, 3), Fraction(-5, 6), Fraction(7, 10)]])
def test_pattern_realization_rounds_each_exact_weight(coeffs):
    # Horner's rule on the integer numerators, then one division, rounds
    # as float() of the exact weight does
    n = 1000
    p = op.BandPattern.weighted_shift(-1, coeffs)
    row = p.realize(n).rows[0]
    # the image of e_0 is cut
    assert row[0] == 0.0
    assert all(row[m] == float(p.weight(m)) for m in range(1, n))


def test_pattern_realization_refuses_weights_it_cannot_round_exactly():
    # sum |numerator_i| (n - 1)**i bounds every step of Horner's rule; from
    # 2**53 on a step may round, and the weights would not be exact
    p = op.BandPattern.weighted_shift(0, [Fraction(1, 3), 2 ** 40])
    n = 2 ** 13 // 3 + 1  # the numerators are 1 and 3 * 2**40
    row = p.realize(n).rows[0]
    assert all(row[m] == float(p.weight(m)) for m in range(n))
    with pytest.raises(ValueError, match="not exact"):
        p.realize(n + 1)
    with pytest.raises(ValueError, match="not exact"):
        op.BandPattern.weighted_shift(1, [2 ** 53]).realize(1)


def test_rectangular_dims_match_exact_and_are_stable():
    for pattern, expected in [
        (op.shift_adjoint_pattern(), (1, 0)),
        (op.shift_pattern(), (0, 1)),
        (op.dz_pattern(), (1, 0)),
        (op.dz_star_pattern(), (0, 1)),
    ]:
        exact = op.pattern_kernel_dims(pattern)
        assert exact == expected
        # the weights are counted vectorised, so a large n takes milliseconds
        for n in (16, 32, 64, 262144):
            k, c = op.rectangular_kernel_dims(pattern, n)
            assert (k - c) == (exact[0] - exact[1])


def test_pattern_zero_finding_uses_exact_arithmetic():
    # weight (m - 3)(m - 17) has zeros exactly at 3 and 17
    p = op.BandPattern.weighted_shift(-1, [51, -20, 1])
    assert p.nonnegative_zeros() == [3, 17]
    ker, coker = op.pattern_kernel_dims(p)
    assert ker == 3   # zeros {3, 17} plus the m + d < 0 column {0}
    assert coker == 2  # rows 2 and 16 are never hit


NAMED_PATTERNS = [op.shift_pattern(), op.shift_adjoint_pattern(),
                  op.dz_pattern(), op.dz_star_pattern()]


def dense_rectangular_dims(p, n):
    """Reference for ``rectangular_kernel_dims``: ``n - rank`` and
    ``(top + 1) - rank`` of the dense ``(top + 1) x n`` truncation, where
    ``top`` is the last row a nonzero entry reaches and the rank is numpy's."""
    weights = [float(p.weight(m)) for m in range(n)]
    reached = [m + p.offset for m in range(n)
               if m + p.offset >= 0 and weights[m] != 0]
    if not reached:
        return n, 0
    top = max(reached)
    a = np.zeros((top + 1, n))
    for m in range(n):
        if 0 <= m + p.offset <= top:
            a[m + p.offset, m] = weights[m]
    rank = int(np.linalg.matrix_rank(a))
    return n - rank, (top + 1) - rank


def weight_from_roots(scale, roots):
    """Ascending integer coefficients of ``scale * prod (m - r)``."""
    coeffs = [scale]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs


@st.composite
def patterns(draw):
    """The named patterns, and weighted shifts at offsets -3..3 whose
    integer weights have degree at most 2: drawn coefficients, or drawn
    roots, so that many weights vanish at some m >= 0."""
    kind = draw(st.sampled_from(["named", "coefficients", "roots"]))
    if kind == "named":
        return draw(st.sampled_from(NAMED_PATTERNS))
    offset = draw(st.integers(-3, 3))
    if kind == "coefficients":
        coeffs = draw(st.lists(st.integers(-60, 60), min_size=1, max_size=3))
    else:
        scale = draw(st.integers(-3, 3).filter(bool))
        coeffs = weight_from_roots(
            scale, draw(st.lists(st.integers(-5, 40), max_size=2)))
    return op.BandPattern.weighted_shift(offset, coeffs)


@settings(max_examples=300, deadline=None)
@given(patterns(), st.integers(1, 64))
@example(op.BandPattern.weighted_shift(-1, [51, -20, 1]), 64)
def test_rectangular_dims_match_the_dense_rank(p, n):
    assert op.rectangular_kernel_dims(p, n) == dense_rectangular_dims(p, n)


def test_rectangular_dims_form_no_matrix():
    tracemalloc.start()
    try:
        dims = op.rectangular_kernel_dims(op.dz_pattern(), 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dims == (1, 0)
    # a dense (top + 1) x n float matrix would take 128 MiB
    assert peak < 2 ** 20


def test_matrix_validation():
    with pytest.raises(ValueError):
        op.finite_rank(np.ones((2, 3)), 3)
    with pytest.raises(ValueError):
        op.finite_rank(np.array([[np.inf]]), 1)
    with pytest.raises(ValueError):
        op.TruncatedOperator(np.ones(3), 0)
    with pytest.raises(ValueError):
        op.TruncatedOperator(np.array([[np.nan, 1.0]]), 0)


@pytest.mark.parametrize("call, message", [
    (lambda: op.toeplitz(cos4(), 0), "n must be >= 1"),
    (lambda: op.interior_block(op.identity(8), -1), "margin must be >= 0"),
    (lambda: op.symbol_estimate(op.identity(16), -1), "max_freq must be >= 0"),
    (lambda: op.cauchy_riemann_weight_gap(0), "n must be >= 1"),
    (lambda: op.rectangular_kernel_dims(op.shift_pattern(), 0),
     "n must be >= 1"),
], ids=["toeplitz", "interior_block", "symbol_estimate", "weight_gap",
        "rectangular_kernel_dims"])
def test_arguments_outside_the_domain_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("operation", [
    lambda t: t * np.array([1.0, 2.0, 3.0, 4.0]),
    lambda t: np.ones(4) * t,
    lambda t: t @ np.eye(4),
    lambda t: np.eye(4) @ t,
], ids=["operator_times_array", "array_times_operator",
        "operator_matmul_array", "array_matmul_operator"])
def test_an_array_operand_is_refused(operation):
    # T * v used to give T diag(v), and np.ones(4) * T an array of operators
    with pytest.raises(TypeError):
        operation(op.toeplitz(FourierSeries.cosine(1), 4))


def test_numbers_and_numpy_scalars_scale_an_operator():
    t = op.toeplitz(FourierSeries.cosine(1), 4)
    for scaled, factor in [(2.0 * t, 2.0), (np.float64(2) * t, 2.0),
                           (t * (1 + 2j), 1 + 2j), (-t, -1.0)]:
        assert isinstance(scaled, op.TruncatedOperator)
        assert np.array_equal(scaled.dense(), factor * t.dense())


# each operation whose result adopts the band it has just computed
@pytest.mark.parametrize("operation", [
    lambda a, b: a + b, lambda a, b: a - b, lambda a, b: (2.0 - 1j) * a,
    lambda a, b: a @ b, lambda a, b: a.adjoint(),
], ids=["sum", "difference", "scalar", "product", "adjoint"])
def test_arithmetic_results_are_values(operation):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((5, 12)) + 1j * rng.standard_normal((5, 12))
    y = rng.standard_normal((3, 12)) + 1j * rng.standard_normal((3, 12))
    a, b = op.TruncatedOperator(x, -2), op.TruncatedOperator(y, 1)
    result = operation(a, b)
    assert not result.rows.flags.writeable
    assert not result.diagonals.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        result.diagonals[0, 0] = 1.0
    # the public constructor copied x and y: writing to them afterwards
    # changes neither the operands nor the result
    dense = [a.dense(), b.dense(), result.dense()]
    x[...] = 7.0
    y[...] = 7.0
    assert all(np.array_equal(m, t.dense())
               for m, t in zip(dense, (a, b, result)))


def test_arithmetic_results_are_checked_finite():
    big = op.TruncatedOperator(np.full((3, 8), 1e200), -1)
    huge = op.TruncatedOperator(np.full((3, 8), 1e308), -1)
    # sum, difference, scalar multiple, product
    for operation in (lambda: huge + huge, lambda: huge - -huge,
                      lambda: 1e200 * big, lambda: big @ big):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="finite"):
            operation()
