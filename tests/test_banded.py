"""Banded operator storage: arithmetic and matrix-vector products against
dense numpy, and O(n * b) size."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toeplitz_triple import operators as op
from toeplitz_triple.dirac import dirac, polar_check, polar_parts, represent, \
    spectrum
from toeplitz_triple.fourier import FourierSeries, coefficient_distance
from toeplitz_triple.triple import rough_symbol, verify_commutator_dz, \
    verify_delta_k

# one nonzero diagonal of real entries: every entry of a product with one of
# these is a single product, so banded and dense results agree bit for bit
ELEMENTARY = (op.number, op.dz, op.dz_star, op.shift, op.shift_adjoint)


def reference_dense(diagonals, lo):
    """Dense matrix of a band array, entry by entry from the definition."""
    count, n = diagonals.shape
    m = np.zeros((n, n), dtype=complex)
    for j in range(count):
        for c in range(n):
            if 0 <= c + lo + j < n:
                m[c + lo + j, c] = diagonals[j, c]
    return m


def stored_outside(a):
    """Stored entries whose row falls outside the matrix; all must be 0."""
    count, n = a.diagonals.shape
    rows = np.arange(n) + np.arange(a.lo, a.lo + count)[:, None]
    return a.diagonals[(rows < 0) | (rows >= n)]


def reference_symbol_estimate(m, max_freq):
    """Dense form of ``symbol_estimate``: diagonal means over the second half."""
    n = m.shape[0]
    coeffs = {}
    for k in range(-max_freq, max_freq + 1):
        ms = max(0, -k)
        me = n - 1 - max(0, k)
        cols = np.arange(ms + (me - ms + 1) // 2, me + 1)
        coeffs[k] = complex(m[cols + k, cols].mean())
    return FourierSeries(coeffs)


@st.composite
def banded(draw, n):
    """A band array (possibly wider than n, with all-zero diagonals) plus a
    corner block, as an operator and as the dense matrix it stands for."""
    lo = draw(st.integers(-n - 2, n + 2))
    count = draw(st.integers(1, 2 * n + 4))
    k = draw(st.integers(0, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.uniform(-1, 1, (count, n)) + 1j * rng.uniform(-1, 1, (count, n))
    data[rng.random(count) < 0.3] = 0.0
    block = rng.uniform(-1, 1, (k, k)) + 1j * rng.uniform(-1, 1, (k, k))
    dense = reference_dense(data, lo)
    dense[:k, :k] += block
    return op.TruncatedOperator(data, lo) + op.finite_rank(block, n), dense


@st.composite
def one_sided(draw, n):
    """A band lying wholly below (lo > 0) or wholly above (hi < 0) the
    diagonal, as an operator and as its dense matrix."""
    side = draw(st.sampled_from((1, -1)))
    near = draw(st.integers(1, n + 1))
    count = draw(st.integers(1, n + 2))
    lo = near if side == 1 else -near - count + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.uniform(-1, 1, (count, n)) + 1j * rng.uniform(-1, 1, (count, n))
    return op.TruncatedOperator(data, lo), reference_dense(data, lo)


sizes = st.integers(1, 40)
single = sizes.flatmap(banded)
pairs = sizes.flatmap(lambda n: st.tuples(banded(n), banded(n)))
vector_cases = sizes.flatmap(
    lambda n: st.tuples(st.one_of(banded(n), one_sided(n)),
                        st.integers(0, 2**32 - 1)))
scalars = st.complex_numbers(max_magnitude=4, allow_nan=False,
                             allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(pairs, scalars)
def test_linear_operations_match_dense(pair, scalar):
    (a, x), (b, y) = pair
    assert np.array_equal(a.dense(), x)
    assert np.array_equal((a + b).dense(), x + y)
    assert np.array_equal((a - b).dense(), x - y)
    assert np.array_equal((scalar * a).dense(), scalar * x)
    assert np.array_equal(a.adjoint().dense(), x.conj().T)
    assert np.array_equal(represent(a).dense(), np.kron(x, np.eye(2)))
    for result in (a + b, a - b, scalar * a, a.adjoint()):
        assert not stored_outside(result).any()


@settings(max_examples=60, deadline=None)
@given(pairs)
def test_products_match_dense(pair):
    (a, x), (b, y) = pair
    assert np.abs((a @ b).dense() - x @ y).max() <= 1e-13
    assert np.abs(op.commutator(a, b).dense() - (x @ y - y @ x)).max() <= 1e-13
    assert not stored_outside(a @ b).any()


@settings(max_examples=60, deadline=None)
@given(single, st.sampled_from(ELEMENTARY))
def test_products_with_elementary_factors_are_exact(ax, make):
    a, x = ax
    e = make(a.dim)
    d = e.dense()
    assert np.array_equal((e @ a).dense(), d @ x)
    assert np.array_equal((a @ e).dense(), x @ d)
    assert np.array_equal(op.commutator(e, a).dense(), d @ x - x @ d)


@settings(max_examples=60, deadline=None)
@given(single, st.data())
def test_interior_block_and_symbol_estimate_match_dense(ax, data):
    a, x = ax
    n = a.dim
    margin = data.draw(st.integers(0, (n - 1) // 2))
    inner = op.interior_block(a, margin)
    inner_dense = x[margin:n - margin, margin:n - margin]
    assert np.array_equal(inner.dense(), inner_dense)
    max_freq = data.draw(st.integers(0, (inner.dim - 1) // 4))
    estimate = op.symbol_estimate(inner, max_freq)
    reference = reference_symbol_estimate(inner_dense, max_freq)
    assert coefficient_distance(estimate, reference) == 0.0


def bound_plan(plan, dtype, pad=3):
    """A plan bound to a fresh row with ``pad`` zeros more than it needs on
    each side: the call, the row and the slice of it that holds v."""
    n = plan.rows.shape[1]
    lead = plan.lead + pad
    source = np.zeros(lead + n + plan.trail + pad, dtype=dtype)
    target = np.empty(n, dtype=dtype)
    return plan.bind(source, lead, target), source, slice(lead, lead + n), \
        target


def applied(plan, v):
    """``X* v`` through the plan of X: its scaled product times
    ``2**exponent``."""
    call, source, body, target = bound_plan(plan, v.dtype)
    source[body] = v
    call()
    return target * 2.0 ** plan.exponent


@settings(max_examples=100, deadline=None)
@given(vector_cases, st.booleans())
def test_apply_matches_dense_matvec(case, real):
    (a, x), seed = case
    if real:
        # a real band runs the plan in float64
        a, x = op.TruncatedOperator(a.diagonals.real, a.lo), x.real
    rng = np.random.default_rng(seed)
    # a plan built from X applies X*: from a.adjoint() it applies A
    plan, star = op._MatvecPlan(a.adjoint()), op._MatvecPlan(a)
    assert plan.rows.dtype == star.rows.dtype
    assert plan.rows.dtype.kind == "f" or not real
    # a float64 plan takes real vectors, as in operator_norm
    complex_plan = plan.rows.dtype.kind == "c"

    def vector():
        v = rng.standard_normal(a.dim)
        return v + 1j * rng.standard_normal(a.dim) if complex_plan else v

    v, u = vector(), vector()
    for w in (v, u):
        assert np.abs(applied(plan, w) - x @ w).max() <= 1e-13
        assert np.abs(applied(star, w) - x.conj().T @ w).max() <= 1e-13
    # one bound call run on two vectors gives what two fresh plans give, so a
    # call reads its row anew, leaves no state behind and writes only its
    # target, which the next call overwrites
    call, source, body, target = bound_plan(plan, v.dtype)
    source[body] = v
    call()
    first = target * 2.0 ** plan.exponent
    source[body] = u
    call()
    second = target * 2.0 ** plan.exponent
    assert np.array_equal(first, applied(op._MatvecPlan(a.adjoint()), v))
    assert np.array_equal(second, applied(op._MatvecPlan(a.adjoint()), u))
    assert not np.delete(source, np.r_[body]).any()
    # the scaled rows have absolute row sums at most 1, by an even power of 2
    assert np.abs(plan.rows).sum(axis=0).max() <= 1.0
    assert plan.exponent % 2 == 0
    # a row too short for the padding is refused, not read past its end
    with pytest.raises(ValueError, match="padding"):
        plan.bind(source[:-plan.trail - 4], body.start, target)


def held_bytes(a):
    """Bytes of the arrays an operator holds in its slots."""
    values = (getattr(a, name) for name in type(a).__slots__)
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


def test_storage_and_checks_scale_with_the_band():
    n = 16384
    f = FourierSeries.cosine(16)
    # 33 diagonals of n complex entries; a dense matrix would take 4 GiB
    assert held_bytes(op.toeplitz(f, n)) <= 33 * n * 16
    assert verify_commutator_dz(f, n).passed
    assert verify_delta_k(f, 3, n).passed


def test_doubled_space_scales_with_the_band():
    n = 16384
    assert spectrum(dirac(n)).spurious == [n - 1]
    assert polar_check(n, 2).passed
    # offsets -3..3 of 2n complex entries; a dense factor would take 16 GiB
    for factor in polar_parts(n):
        assert held_bytes(factor) <= 7 * 2 * n * 16


def test_norm_scales_with_the_band():
    n = 16384
    s = op.shift(n)
    tracemalloc.start()
    try:
        value = op.operator_norm(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 1.0
    # a few vectors of n complex entries; the dense Gram matrix took 4 GiB
    assert peak <= 16 * n * 16


@pytest.fixture(scope="module")
def rough_band():
    """The rough control's band at the largest size of the benchmark's
    sweep: 385 diagonals of 965 complex entries, 5.7 MiB."""
    a = op.toeplitz(rough_symbol(768), 965)
    assert a.diagonals.shape == (385, 965)
    return a


@pytest.mark.parametrize("make, bound", [
    # two products and their difference are alive together
    (lambda a: op.commutator(op.number(a.dim), a), 3.5),
    (lambda a: a - a, 1.5),
    (lambda a: op.TruncatedOperator(a.diagonals, a.lo), 1.5),
    (lambda a: a.adjoint(), 2.0),
], ids=["commutator", "difference", "constructor", "adjoint"])
def test_band_operations_hold_about_one_extra_band(rough_band, make, bound):
    # the result band, masks of a sixteenth of a band and, in a product, one
    # band of partial products; no shifted or gathered copies, no int64
    # index arrays and no second copy of the result
    tracemalloc.start()
    try:
        make(rough_band)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * rough_band.diagonals.nbytes
