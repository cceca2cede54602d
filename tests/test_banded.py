"""Banded operator storage: arithmetic and matrix-vector products against
dense numpy, O(n * b) size, and bands that keep the data's dtype."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toeplitz_triple import operators as op
from toeplitz_triple.dirac import dirac, grading, polar_check, polar_parts, \
    represent, spectrum
from toeplitz_triple.fourier import FourierSeries, coefficient_distance
from toeplitz_triple.triple import AlgebraElement, boundedness_sweep, \
    rough_symbol, verify_commutator_dz, verify_delta_k

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
def banded(draw, n, real=False):
    """A band array (possibly wider than n, with all-zero diagonals) plus a
    corner block, as an operator and as the dense matrix it stands for; real
    entries when ``real``, complex ones otherwise."""
    lo = draw(st.integers(-n - 2, n + 2))
    count = draw(st.integers(1, 2 * n + 4))
    k = draw(st.integers(0, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def entries(*shape):
        x = rng.uniform(-1, 1, shape)
        return x if real else x + 1j * rng.uniform(-1, 1, shape)

    data = entries(count, n)
    data[rng.random(count) < 0.3] = 0.0
    block = entries(k, k)
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
    assert np.array_equal(op.commutator(a, e).dense(), x @ d - d @ x)


def iterated_commutator(x, k):
    """``[N, [N, ... [N, x]]]`` through the product loop, k times."""
    num = op.number(x.dim)
    for _ in range(k):
        x = op.commutator(num, x)
    return x


@settings(max_examples=60, deadline=None)
@given(single, st.integers(1, 3))
def test_delta_is_the_iterated_commutator_with_number(ax, k):
    a, _ = ax
    # small complex integers: every entry of either route is exact
    whole = op.TruncatedOperator(np.round(4 * a.diagonals), a.lo)
    assert np.array_equal(op.delta(whole, k).dense(),
                          iterated_commutator(whole, k).dense())
    # on general entries the routes differ by rounding only
    result = op.delta(a, k)
    reference = iterated_commutator(a, k).dense()
    scale = np.abs(reference).max()
    assert np.abs(result.dense() - reference).max() <= 1e-13 * scale
    assert not stored_outside(result).any()
    assert not result.diagonals.flags.writeable


def test_commutator_rejects_non_operators_and_mismatched_dimensions():
    a = op.number(4)
    with pytest.raises(TypeError):
        op.commutator(a, a.dense())
    with pytest.raises(TypeError):
        op.commutator(2.0, a)
    with pytest.raises(ValueError):
        op.commutator(a, op.number(5))


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
    # 33 diagonals of n float64 entries; a dense matrix would take 4 GiB
    assert held_bytes(op.toeplitz(f, n)) <= 33 * n * 8
    assert verify_commutator_dz(f, n).passed
    assert verify_delta_k(f, 3, n).passed


def test_doubled_space_scales_with_the_band():
    n = 16384
    assert spectrum(dirac(n)).spurious == [n - 1]
    assert polar_check(n, 2).passed
    # offsets -3..3 of 2n float64 entries; a dense factor would take 16 GiB
    for factor in polar_parts(n):
        assert held_bytes(factor) <= 7 * 2 * n * 8


@pytest.mark.parametrize("make, bound", [
    # 65 diagonals of 2n entries; the input band was realised beforehand
    (lambda n, a: represent(a), 1.5),
    # 7 diagonals of 2n entries, plus dz and dz*, a seventh of that
    (lambda n, a: dirac(n), 1.75),
    # F and |D| of 7 diagonals each beside D and its 2 x 2 eigensystem
    (lambda n, a: polar_parts(n)[0], 4.5),
], ids=["represent", "dirac", "polar_parts"])
def test_doubled_space_holds_one_band(make, bound):
    # a doubled band is scattered into one array that the operator adopts,
    # so the peak is that band and two boolean masks of an eighth of it; a
    # copy of the band in the constructor would take it a band higher
    n = 16384
    a = op.toeplitz(FourierSeries.cosine(16), n)
    tracemalloc.start()
    try:
        doubled = make(n, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * doubled.diagonals.nbytes


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
    # a few vectors of n entries; the dense Gram matrix took 4 GiB
    assert peak <= 16 * n * 16


@pytest.fixture(scope="module")
def rough_band():
    """The rough control's band at the largest size of the benchmark's
    sweep: 385 diagonals of 965 float64 entries, 2.8 MiB."""
    a = op.toeplitz(rough_symbol(768), 965)
    assert a.diagonals.shape == (385, 965)
    return a


@pytest.mark.parametrize("make, bound", [
    # both products accumulate into one result band; the step of a @ N
    # holds one band of partial products beside it
    (lambda a: op.commutator(op.number(a.dim), a), 2.5),
    # one step per diagonal of a, each holding one diagonal of products
    (lambda a: op.number(a.dim) @ a, 1.5),
    # one step, holding one band of partial products
    (lambda a: a @ op.number(a.dim), 2.5),
    # each diagonal scaled by its offset squared, straight into the result
    (lambda a: op.delta(a, 2), 1.5),
    (lambda a: a - a, 1.5),
    (lambda a: op.TruncatedOperator(a.diagonals, a.lo), 1.5),
    (lambda a: a.adjoint(), 2.0),
], ids=["commutator", "number_times_band", "band_times_number", "delta_2",
        "difference", "constructor", "adjoint"])
def test_band_operations_hold_about_one_extra_band(rough_band, make, bound):
    # the result band, masks of a sixteenth of a band and, in a product, the
    # partial products of one step, at most one band of the left factor's
    # size; no shifted or gathered copies, no int64 index arrays, no second
    # product and no second copy of the result
    tracemalloc.start()
    try:
        make(rough_band)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * rough_band.diagonals.nbytes


def test_rough_sweep_holds_about_three_bands():
    # at n = 768 the sweep realises the rough band at the inflated size,
    # takes delta of it and keeps its leading block; the inflated blocks are
    # dropped before the norm, which then holds the leading block and its
    # Gram band.  One band of float64 entries at the largest size is
    # 385 x 768 x 8 bytes
    word = lambda n: AlgebraElement.unchecked_toeplitz(  # noqa: E731
        rough_symbol(n))
    tracemalloc.start()
    try:
        boundedness_sweep(word, [512, 768], which="delta")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 385 * 768 * 8


# ----------------------------------------------------------------------
# band dtypes
# ----------------------------------------------------------------------

def test_real_data_gives_float64_bands():
    n = 16
    t4 = AlgebraElement.toeplitz(FourierSeries.cosine(4))
    t8 = AlgebraElement.toeplitz(FourierSeries.cosine(8))
    word = (t4 * t8 + t8).adjoint() * t4
    real = [word.realize(n), op.number(n), op.dz(n), op.dz_star(n),
            dirac(n), grading(n), *polar_parts(n),
            op.finite_rank(np.ones((2, 2)), n), op.identity(n) * 2]
    for a in real:
        assert a.diagonals.dtype == np.float64
        # dense() is complex whatever the band holds
        assert a.dense().dtype == np.complex128


def test_complex_data_gives_complex_bands():
    n = 16
    t = op.toeplitz(FourierSeries.cosine(4), n)
    corner = op.finite_rank(np.array([[1.0, 2j], [0.5, 1.0]]), n)
    complex_ = [op.toeplitz(FourierSeries({4: 0.5j, -4: 0.5}), n),
                (-1j) * t, t + corner, corner + t, t @ ((1 + 1j) * t),
                op.commutator(t, corner), op.delta(corner, 2),
                AlgebraElement.finite_rank(np.eye(2)).realize(n)]
    for a in complex_:
        assert a.diagonals.dtype == np.complex128


def test_real_scalars_keep_words_float64():
    w = AlgebraElement.toeplitz(FourierSeries.cosine(4))
    n = 16
    for word in (w - w, -w):
        assert word.realize(n).diagonals.dtype == np.float64
    assert not (w - w).realize(n).diagonals.any()
    assert np.array_equal((-w).realize(n).diagonals, -w.realize(n).diagonals)
    # the word keeps the scalar as given
    assert (-w).describe() == "(-1+0j)*T[bw4]"
    assert (1j * w).realize(n).diagonals.dtype == np.complex128


def as_complex(a):
    return op.TruncatedOperator(a.diagonals.astype(complex), a.lo)


real_pairs = sizes.flatmap(
    lambda n: st.tuples(banded(n, real=True), banded(n, real=True)))


@settings(max_examples=60, deadline=None)
@given(real_pairs, st.floats(-4, 4), st.integers(1, 3))
def test_real_bands_round_as_the_complex_path(pair, scalar, k):
    # a complex product or sum whose imaginary parts are zero rounds its real
    # part as the real one does, so float64 bands change no value
    (a, _), (b, _) = pair
    x, y = as_complex(a), as_complex(b)
    cases = [(a + b, x + y), (a - b, x - y), (a @ b, x @ y),
             (op.commutator(a, b), op.commutator(x, y)),
             (a.adjoint(), x.adjoint()), (op.delta(a, k), op.delta(x, k)),
             (scalar * a, scalar * x), (a * scalar, x * scalar)]
    for real, reference in cases:
        assert real.diagonals.dtype == np.float64
        assert reference.diagonals.dtype == np.complex128
        assert real.band == reference.band
        assert np.array_equal(real.diagonals, reference.diagonals.real)
        assert not reference.diagonals.imag.any()
