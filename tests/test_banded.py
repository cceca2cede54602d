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
    delta_absdirac_spot_check, rough_symbol, verify_commutator_dz, \
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
    assert not result.rows.flags.writeable
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
    """The plan's product with v (``X* v`` through the plan of X), written
    over a target of NaN, so that an entry the call leaves unwritten shows."""
    call, source, body, target = bound_plan(plan, v.dtype)
    source[body] = v
    target[...] = np.nan
    call()
    return target.copy()


@settings(max_examples=100, deadline=None)
@given(vector_cases, st.booleans())
def test_apply_matches_dense_matvec(case, real):
    (a, x), seed = case
    if real:
        # a real band runs the plan in float64
        a, x = op.TruncatedOperator(a.diagonals.real, a.lo), x.real
    rng = np.random.default_rng(seed)
    # a plan built from X applies X*: from a.adjoint() it applies A
    plan, star = op._MatvecPlan.of(a.adjoint()), op._MatvecPlan.of(a)
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
    first = target.copy()
    source[body] = u
    call()
    second = target.copy()
    assert np.array_equal(first, applied(op._MatvecPlan.of(a.adjoint()), v))
    assert np.array_equal(second, applied(op._MatvecPlan.of(a.adjoint()), u))
    assert not np.delete(source, np.r_[body]).any()
    # a row too short for the padding is refused, not read past its end
    with pytest.raises(ValueError, match="padding"):
        plan.bind(source[:-plan.trail - 4], body.start, target)
    # the plans of operator_norm apply 2**-exponent A* A, by an even power
    # of 2; the plan of X* reads X's rows without a copy, complex ones too
    plans, exponent = op._norm_plans(a)
    assert exponent % 2 == 0
    assert star.rows is a.rows
    w = v
    for p in plans:
        w = applied(p, w)
    gram = x.conj().T @ x
    assert np.abs(w * 2.0 ** exponent - gram @ v).max() <= \
        1e-13 * max(1.0, np.abs(gram).sum(axis=1).max()) * np.abs(v).max()
    if len(plans) == 1:
        # the Gram plan's scaled rows have absolute row sums at most 1
        assert np.abs(plans[0].rows).sum(axis=0).max() <= 1.0
    else:
        # the plan of A scales its result for both: the largest absolute row
        # sum of A times that of A* is at most 2**exponent
        assert all(p.rows is a.rows for p in plans)
        assert np.abs(x).sum(axis=1).max() * np.abs(x).sum(axis=0).max() \
            <= 2.0 ** exponent


@st.composite
def lattice_cases(draw):
    """An operator of 17 to 47 stored diagonals on a lattice of step 1 to 3
    wholly below the diagonal (lo > 0), wholly above it (hi < 0) or across
    it, at n <= 40, real or complex, with two vectors of its dtype."""
    step = draw(st.integers(1, 3))
    # a one-sided lattice of 17 rows needs offsets 1..16*step + 1 inside n
    sides = ("across", "below", "above") if 16 * step + 2 <= 40 else \
        ("across",)
    side = draw(st.sampled_from(sides))
    one_sided = side != "across"
    n = draw(st.integers(16 * step + 2 if one_sided else 8 * step + 9, 40))
    most = (n - 2 if one_sided else 2 * n - 2) // step + 1
    count = draw(st.integers(17, min(47, most)))
    span = (count - 1) * step
    lo = draw({"below": st.integers(1, n - 1 - span),
               "above": st.integers(1 - n, -1 - span),
               "across": st.integers(max(1 - n, -span),
                                     min(0, n - 1 - span))}[side])
    real = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def entries(*shape):
        x = rng.uniform(-1, 1, shape)
        return x if real else x + 1j * rng.uniform(-1, 1, shape)

    a = op.TruncatedOperator(op._Fresh(entries(count, n), step), lo)
    assert a.rows.shape[0] == count
    return a, entries(n), entries(n)


@settings(max_examples=100, deadline=None)
@given(lattice_cases())
def test_direct_plan_applies_a_from_its_own_rows(case):
    a, v, u = case
    plan = op._MatvecPlan(a.rows, a.lo, a.step, direct=True)
    w = applied(plan, v)
    bound = 1e-13 * a.rows.shape[0] * np.abs(v).max()
    assert np.abs(w - a.dense() @ v).max() <= bound
    # the skewed view adds each entry's terms from the highest offset down,
    # as the plan of A's transpose adds them, bit for bit
    transposed = op._MatvecPlan(op._mirrored(a), -a.band[1], a.step)
    assert np.array_equal(w, applied(transposed, v))
    # one bound call run on two vectors writes the whole target each time,
    # the rows that no term reaches as well (a one-sided lattice has them),
    # and reads nothing that the call before it left
    call, source, body, target = bound_plan(plan, v.dtype)
    for x in (u, v):
        source[body] = x
        target[...] = np.nan
        call()
        assert np.array_equal(target, applied(transposed, x))
    # the power-of-two scale on the result is exact
    scaled = op._MatvecPlan(a.rows, a.lo, a.step, direct=True, exponent=6)
    assert np.array_equal(applied(scaled, v), w / 64)
    # the exponents of the norm's scale: even powers of two above the
    # largest absolute row sum of A, and with step 0 above the largest
    # absolute column sum of its rows, at most 4 times that sum
    m = np.abs(a.dense())
    for sums, exponent in ((m.sum(axis=1), op._exponent(a.rows, a.lo, a.step)),
                           (m.sum(axis=0), op._exponent(a.rows, 0, 0))):
        assert exponent % 2 == 0
        assert sums.max() * (1 - 1e-12) < 2.0 ** exponent <= \
            4 * sums.max() * (1 + 1e-12)


def test_plan_refuses_rows_it_cannot_view():
    # a plan reads its rows through views that are not bounds-checked, so
    # it takes only C-contiguous rows at offsets inside the matrix
    a = op.toeplitz(FourierSeries({-3: 1.0, 0: 2.0, 5: 0.5}), 12)
    strided = np.zeros((a.rows.shape[0], 2 * a.dim))[:, ::2]
    for rows in (np.asfortranarray(a.rows), strided):
        for direct in (False, True):
            with pytest.raises(ValueError, match="C-contiguous"):
                op._MatvecPlan(rows, a.lo, a.step, direct=direct)
    for lo in (-a.dim, a.dim - 2 * a.step):
        with pytest.raises(ValueError, match="inside the matrix"):
            op._MatvecPlan(a.rows, lo, a.step, direct=True)
    # the constructor keeps adopted rows C-contiguous, so every operator's
    # norm can view them
    strided[...] = a.rows
    b = op.TruncatedOperator(op._Fresh(strided, a.step), a.lo)
    assert b.rows.flags.c_contiguous
    assert np.array_equal(b.rows, a.rows)


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
    assert spectrum(dirac(n)).spurious.tolist() == [n - 1]
    assert polar_check(n, 2).passed
    # offsets -3..3 of 2n float64 entries; a dense factor would take 16 GiB
    for factor in polar_parts(n):
        assert held_bytes(factor) <= 7 * 2 * n * 8


@pytest.mark.parametrize("make, bound", [
    # 2 rows of 2n entries; the input band was realised beforehand
    (lambda n, a: represent(a), lambda n, out: 1.25 * held_bytes(out)),
    # 2 rows of 2n entries, plus dz and dz*, half of that
    (lambda n, a: dirac(n), lambda n, out: 1.75 * held_bytes(out)),
    # F is sign taken on D's rows and |D| one row, written beside D and its
    # pair table: 4.57 times D's stored rows in all (9.04 with a Jacobi
    # rotation per pair, scattered into 3-row arrays).  The bound is taken
    # from D, whose rows do not shrink with the factors
    (lambda n, a: polar_parts(n)[0],
     lambda n, out: 6.0 * held_bytes(dirac(n))),
], ids=["represent", "dirac", "polar_parts"])
def test_doubled_space_holds_one_band(make, bound):
    # a doubled band is scattered into one array that the operator adopts,
    # and the constructor's checks add O(n) bytes, so the peak is those
    # stored rows: 1.02 of them for represent, 1.52 for dirac.  The boolean
    # masks of the checks, an eighth of the rows each, took them to 1.76
    # and 2.26, and a copy of the rows in the constructor would take them a
    # band higher
    n = 16384
    a = op.toeplitz(FourierSeries.cosine(16), n)
    tracemalloc.start()
    try:
        doubled = make(n, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound(n, doubled)


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


# ----------------------------------------------------------------------
# offset lattices
# ----------------------------------------------------------------------

def stored_rows(a):
    """How many diagonals of n entries an operator holds in its slots."""
    return held_bytes(a) // (a.dim * a.diagonals.itemsize)


def test_operators_store_only_their_lattice():
    n = 1024
    t4, t8, t16 = (op.toeplitz(FourierSeries.cosine(k), n) for k in (4, 8, 16))
    # offsets -16 and 16; the contiguous band from -16 to 16 held 33 rows
    assert (stored_rows(t16), t16.step, t16.band) == (2, 32, (-16, 16))
    assert t16.diagonals.shape == (33, n)
    assert np.array_equal(t16.diagonals[::32], t16.rows)
    assert not np.delete(t16.diagonals, [0, 32], axis=0).any()
    # offsets -5 and 3, and -4 and 4 (both held 9 rows)
    for a in (op.commutator(op.dz(n), t4), op.delta(t4, 2)):
        assert (stored_rows(a), a.step) == (2, 8)
    # offsets -8, -4, 0 (zero) 4 and 8 (held 17 rows)
    both = t4 + t8
    assert (stored_rows(both), both.step, both.band) == (5, 4, (-8, 8))
    # a 2 x 2 corner block has offsets -1, 0 and 1
    word = AlgebraElement.toeplitz(FourierSeries.cosine(4)) + \
        AlgebraElement.finite_rank(np.ones((2, 2)))
    corner = word.realize(n)
    assert (stored_rows(corner), corner.step, corner.band) == (9, 1, (-4, 4))
    # offsets -3 and 3 in Kronecker order (held 7 rows), and -32 and 32
    # (held 65)
    d = dirac(n)
    assert (stored_rows(d), d.step, d.band) == (2, 6, (-3, 3))
    doubled = represent(t16)
    assert (stored_rows(doubled), doubled.step) == (2, 64)


@pytest.mark.parametrize("n", [2, 3, 64, 1024, 16384])
def test_polar_factors_store_only_their_nonzero_offsets(n):
    # D's 2 x 2 blocks are solved in closed form, so |D| has an off-diagonal
    # of exactly 0 and F a diagonal of exactly 0: F keeps offsets -3 and 3,
    # |D| offset 0 (each stored 3 rows before, and a contiguous band 7)
    f, absd = polar_parts(n)
    assert (f.lo, f.step, f.rows.shape) == (-3, 6, (2, 2 * n))
    assert (absd.lo, absd.step, absd.rows.shape) == (0, 1, (1, 2 * n))


@pytest.mark.parametrize("n", [128, 133])
def test_absdirac_commutator_stores_few_rows(monkeypatch, n):
    # with a diagonal |D|, [|D|, a (+) a] keeps the lattice of a (+) a; with
    # rounding noise on |D|'s offsets -3 and 3 the product's lattice had step
    # 1 and stored 23, 39, 19 and 71 rows for cos4k:1..4
    formed = []
    commutator = op._generator_commutator

    def spy(*args, **kwargs):
        formed.append(commutator(*args, **kwargs))
        return formed[-1]

    monkeypatch.setattr(op, "_generator_commutator", spy)
    for k in (1, 2, 3, 4):
        assert delta_absdirac_spot_check(FourierSeries.cosine(4 * k), n).passed
        assert formed[-1].rows.shape[0] <= 3


def test_checks_hold_a_few_lattices():
    # cos 16t has 2 nonzero diagonals, so every operator of these checks
    # stores 2 rows; the contiguous bands held 33 to 35
    n = 16384
    f = FourierSeries.cosine(16)
    for check in (lambda: verify_delta_k(f, 3, n),
                  lambda: verify_commutator_dz(f, n)):
        tracemalloc.start()
        try:
            report = check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak <= 8 * 2 * n * 16


def smallest_lattice(m):
    """(lo, hi, step) of the smallest offset lattice holding the nonzero
    diagonals of a dense matrix; (0, 0, 1) when it is zero."""
    n = m.shape[0]
    used = [d for d in range(1 - n, n) if np.diagonal(m, -d).any()]
    if not used:
        return 0, 0, 1
    step = int(np.gcd.reduce(np.array(used) - used[0])) or 1
    return used[0], used[-1], step


@st.composite
def on_lattice(draw, n, real):
    """An operator whose diagonals lie on a random lattice of step 1 to 6,
    some of them zero, plus at times a corner block, with the dense matrix
    it stands for."""
    step = draw(st.integers(1, 6))
    lo = draw(st.integers(-n - 2, n + 2))
    count = draw(st.integers(1, (2 * n + 4) // step + 1))
    k = draw(st.sampled_from((0, 0, 1, 2, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def entries(*shape):
        x = rng.uniform(-1, 1, shape)
        return x if real else x + 1j * rng.uniform(-1, 1, shape)

    band = np.zeros(((count - 1) * step + 1, n), dtype=float if real else complex)
    band[::step] = entries(count, n)
    band[::step][rng.random(count) < 0.3] = 0.0
    block = entries(min(k, n), min(k, n))
    dense = reference_dense(band, lo)
    dense[:block.shape[0], :block.shape[0]] += block
    return op.TruncatedOperator(band, lo) + op.finite_rank(block, n), dense


lattice_pairs = st.tuples(sizes, st.booleans()).flatmap(
    lambda nr: st.tuples(on_lattice(*nr), on_lattice(*nr)))


@settings(max_examples=100, deadline=None)
@given(lattice_pairs, st.sampled_from((2.5, -1.0, 1 - 2j, 0.0)),
       st.integers(1, 3))
def test_lattice_operations_match_dense(pair, scalar, k):
    (a, x), (b, y) = pair
    n = a.dim
    offsets = np.subtract.outer(np.arange(n), np.arange(n)).astype(float)
    exact = [(a, x), (a + b, x + y), (a - b, x - y), (a.adjoint(), x.conj().T),
             (scalar * a, scalar * x), (op.delta(a, k), offsets ** k * x)]
    rounded = [(a @ b, x @ y), (op.commutator(a, b), x @ y - y @ x)]
    for result, reference in exact:
        assert np.array_equal(result.dense(), reference)
    for result, reference in rounded:
        assert np.abs(result.dense() - reference).max() <= 1e-13
    for result, _ in exact + rounded:
        assert not result.rows.flags.writeable
        m = result.dense()
        lo, hi, step = smallest_lattice(m)
        assert (result.lo, result.band[1], result.step) == (lo, hi, step)
        assert result.rows.shape == ((hi - lo) // step + 1, n)
        assert np.array_equal(reference_dense(result.diagonals, lo), m)
        assert not stored_outside(result).any()


lattice_bands = st.tuples(sizes, st.booleans()).flatmap(
    lambda nr: on_lattice(*nr))


@settings(max_examples=100, deadline=None)
@given(lattice_bands, st.integers(1, 3))
def test_delta_scales_each_row_by_its_offset_power(ax, k):
    # delta takes [N, .] through the differences m[c + d] - m[c] of N's
    # weights, which are d exactly: the rows are those of the formula
    # rows * offset**k, bit for bit
    a, _ = ax
    offsets = np.array(range(a.lo, a.band[1] + 1, a.step), dtype=float)
    expected = op.TruncatedOperator(
        op._Fresh(a.rows * offsets[:, None] ** k, a.step), a.lo)
    result = op.delta(a, k)
    assert (result.lo, result.step) == (expected.lo, expected.step)
    assert result.rows.dtype == expected.rows.dtype
    for row, reference in zip(result.rows, expected.rows, strict=True):
        assert row.tobytes() == reference.tobytes()


@settings(max_examples=200, deadline=None)
@given(lattice_bands,
       st.sampled_from(["dz", "dz_star", "shift", "shift_adjoint", "number",
                        -1, 0, 1]),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_diagonal_commutator_matches_dense(ax, generator, k, seed):
    # a generator, or random integer weights at offset s = -1, 0 or 1;
    # integer weights and entries keep every product and difference exact
    a, _ = ax
    n = a.dim
    whole = op.TruncatedOperator(np.round(4 * a.diagonals), a.lo)
    if isinstance(generator, str):
        g = getattr(op, generator)(n)
    else:
        w = np.random.default_rng(seed).integers(-20, 21, n).astype(float)
        g = op.TruncatedOperator(w[None, :], generator)
    # the k-fold commutator is a diagonal operator's only
    k = k if g.lo == 0 else 1
    x = before = whole.dense()
    for _ in range(k):
        x = g.dense() @ x - x @ g.dense()
    result = op._generator_commutator(g, whole, k)
    assert np.array_equal(result.dense(), x)
    assert result.rows.dtype == whole.rows.dtype
    assert not stored_outside(result).any()
    # the caller's operator is left as it was, unless it gives its rows up
    assert np.array_equal(whole.dense(), before)
    if g.lo == 0:
        owned = op._generator_commutator(g, whole, k, owned=True)
        assert np.array_equal(owned.dense(), x)


@pytest.mark.parametrize("g, k, owned", [
    (op.toeplitz(FourierSeries.cosine(1), 16), 1, False),
    (op.TruncatedOperator(np.ones((1, 16)), 2), 1, False),
    (op.dz(16), 2, False), (op.dz_star(16), 1, True), (op.shift(16), 3, True)],
    ids=["two_rows", "offset_2", "dz_twice", "dz_star_owned", "shift_owned"])
def test_generator_commutator_refuses_other_operators(g, k, owned):
    # a generator stores one row at offset -1, 0 or 1, and a commutator
    # with one off the diagonal is taken once, into new rows
    a = op.toeplitz(FourierSeries.cosine(4), 16)
    with pytest.raises(ValueError, match="one row at offset -1, 0 or 1"):
        op._generator_commutator(g, a, k, owned=owned)
    # the operator keeps its rows
    assert a.rows.shape == (2, 16)


# ----------------------------------------------------------------------
# construction and interior comparison
# ----------------------------------------------------------------------

@pytest.mark.parametrize("lo, step", [
    (5, 1), (8, 1), (-7, 1), (-30, 1), (5, 4), (-40, 6)],
    ids=["just_below", "far_below", "just_above", "far_above",
         "below_on_a_lattice", "above_on_a_lattice"])
def test_diagonals_beyond_the_matrix_give_zero(lo, step):
    # every offset of the 3 rows lies beyond +-(n-1) = +-4, so no row is
    # kept; NaN there is dropped with the rest
    n = 5
    for rows in (np.ones((3, n)), np.full((3, n), np.nan),
                 np.full((3, n), 1j)):
        a = op.TruncatedOperator(op._Fresh(rows, step), lo)
        assert (a.lo, a.step, a.band) == (0, 1, (0, 0))
        assert a.rows.shape == (1, n) and not a.rows.any()
        assert a.rows.dtype == rows.dtype


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 3), (1, 0), (2, 3)])
def test_non_finite_entries_inside_are_refused(bad, where):
    # rows at offsets -1, 0 and 1: each entry named is inside the matrix
    rows = np.ones((3, 5))
    rows[where] = bad
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        op.TruncatedOperator(rows, -1)
    # a complex band whose only bad value is an imaginary part
    rows = np.ones((3, 5), dtype=complex)
    rows[where] = complex(1.0, bad)
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        op.TruncatedOperator(rows, -1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan),
                                 complex(np.inf, 1.0)])
def test_non_finite_entries_outside_are_zeroed(bad):
    # rows at offsets -2 to 1: entry [m - 2, m] is outside for m < 2, and
    # entry [m + 1, m] for m = n - 1
    n = 5
    rows = np.ones((4, n), dtype=type(bad))
    rows[0, :2] = bad
    rows[3, n - 1] = bad
    a = op.TruncatedOperator(op._Fresh(rows, 1), -2)
    expected = np.ones((4, n), dtype=rows.dtype)
    expected[0, :2] = expected[1, 0] = expected[3, n - 1] = 0
    assert a.lo == -2
    assert np.array_equal(a.diagonals, expected)


def reference_deviation(a, b, margin):
    """The deviation from copies of both interior blocks and their
    difference band."""
    diff = op.interior_block(a, margin) - op.interior_block(b, margin)
    return float(np.abs(diff.rows).max())


def refusal(call, *args):
    """The message of the ValueError that a call raises."""
    with pytest.raises(ValueError) as raised:
        call(*args)
    return str(raised.value)


@settings(max_examples=100, deadline=None)
@given(st.tuples(sizes, st.booleans(), st.booleans()).flatmap(
    lambda nrr: st.tuples(on_lattice(nrr[0], nrr[1]),
                          on_lattice(nrr[0], nrr[2]))), st.data())
def test_interior_deviation_matches_the_interior_blocks(pair, data):
    (a, _), (b, _) = pair
    n = a.dim
    margin = data.draw(st.integers(0, (n - 1) // 2))
    # bit for bit
    assert op.interior_deviation(a, b, margin).hex() == \
        reference_deviation(a, b, margin).hex()
    other, _ = data.draw(on_lattice(n + data.draw(st.integers(1, 3)), True))
    for x, y, m in ((a, other, margin), (other, a, margin), (a, b, -1),
                    (a, b, (n + 1) // 2), (a, other, (n + 1) // 2)):
        assert refusal(op.interior_deviation, x, y, m) == \
            refusal(reference_deviation, x, y, m)


def test_interior_deviation_refuses_a_difference_that_is_not_finite():
    n = 8
    huge = op.TruncatedOperator(np.full((1, n), 1.5e308), 0)
    with np.errstate(over="ignore"):
        for margin in (0, 2):
            assert refusal(op.interior_deviation, huge, -1.0 * huge,
                           margin) == refusal(reference_deviation, huge,
                                              -1.0 * huge, margin)
        # a finite complex difference whose modulus overflows reads inf, as
        # the absolute values of the difference band read
        wide = (1 + 1j) * huge
        zero = op.TruncatedOperator(np.zeros((1, n)), 0)
        assert op.interior_deviation(wide, zero, 1) == np.inf
        assert reference_deviation(wide, zero, 1) == np.inf


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
    (lambda a: op.number(a.dim) @ a, 1.1),
    # one step, holding one band of partial products
    (lambda a: a @ op.number(a.dim), 2.5),
    # each diagonal scaled by its offset squared, straight into the result
    (lambda a: op.delta(a, 2), 1.1),
    (lambda a: a - a, 1.1),
    (lambda a: op.TruncatedOperator(a.diagonals, a.lo), 1.1),
    (lambda a: a.adjoint(), 1.1),
], ids=["commutator", "number_times_band", "band_times_number", "delta_2",
        "difference", "constructor", "adjoint"])
def test_band_operations_hold_about_one_extra_band(rough_band, make, bound):
    # the result band, O(n) bytes of the constructor's checks and, in a
    # product, the partial products of one step, at most one band of the
    # left factor's size; no shifted or gathered copies, no int64 index
    # arrays, no second product and no second copy of the result.  The
    # operations without partial products peak at 1.01 bands (1.02 for
    # delta); the two boolean masks of the checks, an eighth of a band
    # each, took them to 1.30
    tracemalloc.start()
    try:
        make(rough_band)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * rough_band.diagonals.nbytes


@pytest.mark.parametrize("scale", [1.0, 1j], ids=["real", "complex"])
def test_constructor_adds_no_array_of_the_rows_shape(rough_band, scale):
    # the entries outside the matrix are zeroed by slices and the rows are
    # checked finite by reductions, so fresh rows are adopted with O(n)
    # bytes beside them; the boolean masks of those checks, an eighth of a
    # float64 band each, took it to 914 n bytes for the real band
    rows = scale * rough_band.rows
    n = rough_band.dim
    tracemalloc.start()
    try:
        a = op.TruncatedOperator(op._Fresh(rows, rough_band.step),
                                 rough_band.lo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.rows is rows
    assert peak <= 64 * n


@pytest.mark.parametrize("scale", [1.0, 1j], ids=["real", "complex"])
def test_interior_deviation_adds_no_band(rough_band, scale):
    # one difference of two diagonals and its absolute values at a time; the
    # copies of both interior blocks, their difference band and its
    # absolute values took it to 10092 n bytes for the real bands
    b = scale * op.delta(rough_band, 1)
    n = rough_band.dim
    tracemalloc.start()
    try:
        value = op.interior_deviation(rough_band, b, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value > 0
    assert peak <= 64 * n


@pytest.mark.parametrize("make", [
    lambda a: op.delta(a, 1),
    lambda a: op.delta(a, 1) + 1j * a,
], ids=["real", "complex"])
def test_wide_norm_holds_no_copy_of_the_band(rough_band, make):
    # besides A, the norm of a band of more than 2 * NORM_BLOCK lattice rows
    # holds the iterates and A's absolute row and column sums: both plans
    # read A's own rows through strided views, A's skewed, and a complex A*
    # plan conjugates vectors, not the band (0.014 bands real, 0.012
    # complex).  The buffers of 16 rows through which A was once applied
    # took it to 0.149 and 0.121, and the transposed rows of the A plan
    # before them to 1.05 bands (2.01 for complex data, with a conjugated
    # copy)
    a = make(rough_band)
    tracemalloc.start()
    try:
        op.operator_norm(a, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.05 * a.rows.nbytes


def rough_sweep_peak(sizes):
    """The traced peak of the rough control's delta sweep, in bands of
    float64 entries at the largest size n: (n/2 + 1) x n x 8 bytes, 385 x
    768 x 8 at n = 768."""
    word = lambda n: AlgebraElement.unchecked_toeplitz(  # noqa: E731
        rough_symbol(n))
    tracemalloc.start()
    try:
        boundedness_sweep(word, sizes, which="delta")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = sizes[-1]
    return peak / ((n // 2 + 1) * n * 8)


def test_rough_sweep_holds_about_one_band():
    # a word without products is exact at collar 0, so the sweep realises
    # the rough band at n and scales it by delta in place, and the
    # constructor zeroes and checks the band with O(n) bytes beside it; the
    # norm then reads the band itself through strided views, with no buffer
    # of its rows.  It held 1.25 bands while the norm applied A through
    # buffers of 16 rows, 1.39 with the boolean masks of the constructor's
    # checks, an eighth of a band each, and 2.38 when delta also wrote a
    # scaled copy beside the band and the norm kept a transposed copy for
    # its plan of A
    assert rough_sweep_peak([512, 768]) <= 1.2


def test_rough_sweep_at_scale_holds_about_one_band():
    # 1.02 bands, 1.06 with the norm's buffers of 16 rows, 1.27 with the
    # constructor's masks as well and 2.28 with delta's copy and the
    # transposed band too
    assert rough_sweep_peak([1024, 2048]) <= 1.2


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
