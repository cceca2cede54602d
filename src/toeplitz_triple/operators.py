"""Finite truncations of the operator algebra on one-sided sequence space.

All operators act on ``l2(N)`` with basis ``e_0, e_1, ...`` and are stored as
their compressions to ``span{e_0, ..., e_{n-1}}``, with the convention
``A[r, c]`` = coefficient of ``e_r`` in the image of ``e_c``.  A Toeplitz
matrix built from a symbol ``f`` therefore has entries ``A[r, c] = fhat(r - c)``.

Every operator of the triple is banded, or banded plus a small top-left
block, so a compression is stored by its diagonals: a lowest offset ``lo`` and
a ``(num_diagonals, n)`` array, float64 or complex128 as the data, whose row
``j`` holds the diagonal of offset ``lo + j``, indexed by column.  Real data
stays float64 through sums, products and adjoints; a complex operand or
scalar makes the result complex128.  Construction, sums, products,
adjoints, interior blocks and symbol recovery cost O(n * bandwidth), and so
does each power-iteration step of ``operator_norm``, which applies the
banded Gram operator ``A* A`` (or A and then A*, for wide bands) by diagonals
through matrix-vector plans built once per norm, skipping all-zero diagonals
and in the band's own dtype, and checks its stop rule once per block
of steps; only ``TruncatedOperator.dense`` forms an ``n x n`` array.

Transient memory is bounded by the band too: an operation allocates its
result band once and the new operator adopts it without a copy, column
shifts are slices of the band, and no integer index array of the band's
shape is ever formed.  A product loops over the nonzero diagonals of its
right factor, each step vectorised across the whole left band, and a
commutator adds its two products into one result band through that loop.
So besides its operands an operation holds its result, the partial
products of one step (at most one band of the left factor's size) and
boolean masks of a sixteenth of a band.  ``delta``, the iterated
commutator with N, takes no product: it scales each diagonal.

Besides the concrete matrices, ``BandPattern`` describes a weighted shift
``e_m -> w(m) e_{m+offset}`` of the semi-infinite model exactly (a polynomial
weight with rational coefficients), which makes kernel/cokernel dimensions
and the index computable without any truncation.  Its rectangular truncations
have one entry per column, so their kernel and cokernel are counted exactly
in O(n) and no matrix is formed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .fourier import FourierSeries

__all__ = [
    "TruncatedOperator",
    "BandPattern",
    "toeplitz",
    "identity",
    "shift",
    "shift_adjoint",
    "number",
    "dz",
    "dz_star",
    "finite_rank",
    "commutator",
    "delta",
    "operator_norm",
    "interior_block",
    "interior_deviation",
    "symbol_estimate",
    "cauchy_riemann_weight_gap",
    "shift_pattern",
    "shift_adjoint_pattern",
    "dz_pattern",
    "dz_star_pattern",
    "pattern_kernel_dims",
    "rectangular_kernel_dims",
]

# Below this dimension operator_norm uses a full singular value decomposition.
FULL_SVD_DIM = 64
POWER_ITERATION_CAP = 10_000
# operator_norm runs its power steps in blocks of at most NORM_BLOCK steps
# and about NORM_BLOCK_WORK multiply-adds
NORM_BLOCK = 16
NORM_BLOCK_WORK = 2 ** 18


def _outside(lo: int, count: int, n: int) -> np.ndarray:
    """Mask of the band entries ``[j, m]`` whose row ``m + lo + j`` is
    outside ``0..n-1``, broadcast from a column of offsets and a row of
    column indices."""
    offsets = np.arange(lo, lo + count)[:, None]
    columns = np.arange(n)
    mask = columns < -offsets
    mask |= columns >= n - offsets
    return mask


class _Fresh:
    """A band array, float64 or complex128 as the data, that its caller
    has just allocated and holds no other reference to:
    ``TruncatedOperator`` adopts it without a copy."""

    __slots__ = ("band",)

    def __init__(self, band: np.ndarray):
        self.band = band


class TruncatedOperator:
    """``n x n`` compression of an operator on ``l2(N)``, stored by diagonals.

    ``diagonals[j, m]`` is the entry ``A[m + lo + j, m]``.  Entries whose row
    ``m + lo + j`` falls outside ``0..n-1`` are stored as 0 whatever the input
    holds there, and diagonals beyond offset ``+-(n-1)`` are dropped, so the
    columns ``s..e-1`` of a band array make the compression to
    ``span{e_s, ..., e_{e-1}}``.

    ``TruncatedOperator(diagonals, lo)`` takes a band array and copies it; a
    dense block enters through ``finite_rank``.  The band is stored as
    float64 or complex128, as the data: complex input of any precision is
    complex128, and all other input float64.  ``dense()`` is complex128
    either way.  Operators are immutable values: arithmetic returns new
    instances.  A sum, difference, scalar multiple, product or adjoint hands
    the band it has just computed to the new instance, which adopts it
    without a second copy and still zeroes it outside the matrix, checks it
    finite and makes it read-only.  So an
    operation holds, besides its operands, its result band, in a product or
    commutator the partial products of one step (at most one band of the
    left factor's size), and the boolean masks of those checks.
    """

    __slots__ = ("lo", "diagonals")
    # numpy defers to the operator's own methods, so an array operand is
    # refused with a TypeError instead of being broadcast over
    __array_ufunc__ = None

    def __init__(self, diagonals, lo: int):
        fresh = isinstance(diagonals, _Fresh)
        band = np.asarray(diagonals.band if fresh else diagonals)
        if band.ndim != 2 or band.shape[1] < 1:
            raise ValueError(
                f"expected a (diagonals, n) band array, got shape {band.shape}")
        count, n = band.shape
        lo = int(lo)
        first, last = max(lo, 1 - n), min(lo + count - 1, n - 1)
        dtype = np.complex128 if band.dtype.kind == "c" else np.float64
        if first > last:
            lo, band = 0, np.zeros((1, n))
        else:
            trimmed = last - first < count - 1
            if not fresh or trimmed or band.dtype != dtype:
                band = np.array(band[first - lo:last - lo + 1], dtype=dtype)
            lo = first
            band[_outside(lo, band.shape[0], n)] = 0
        if not np.isfinite(band).all():
            raise ValueError("matrix entries must be finite")
        band.setflags(write=False)
        self.lo = lo
        self.diagonals = band

    @property
    def dim(self) -> int:
        return self.diagonals.shape[1]

    @property
    def band(self) -> tuple[int, int]:
        """Lowest and highest stored offset ``r - c``."""
        return self.lo, self.lo + self.diagonals.shape[0] - 1

    def __repr__(self):
        return f"TruncatedOperator(dim={self.dim}, band={self.band})"

    def dense(self) -> np.ndarray:
        """The ``n x n`` matrix, for callers that need one."""
        n = self.dim
        out = np.zeros((n, n), dtype=complex)
        flat = out.reshape(-1)
        for j, diagonal in enumerate(self.diagonals):
            # entry [m + d, m] is flat entry (m + d) * n + m, for the columns
            # m in first..stop-1 whose row is inside the matrix
            d = self.lo + j
            first, stop = max(0, -d), n - max(0, d)
            start = (first + d) * n + first
            flat[start:start + (stop - first - 1) * (n + 1) + 1:n + 1] = \
                diagonal[first:stop]
        return out

    def adjoint(self) -> "TruncatedOperator":
        """``A*[c - d, c] = conj(A[c, c - d])``, one conjugating slice per
        diagonal.

        The diagonal of offset d holds ``A[m + d, m]`` at column m, so it
        becomes the diagonal of offset -d read ``d`` columns later: column c
        of the result takes the conjugate of column ``c - d``, for the
        columns c where both lie inside ``0..n-1``.  The conjugates go
        straight into the result band.
        """
        lo, hi = self.band
        count, n = self.diagonals.shape
        out = np.zeros((count, n), dtype=self.diagonals.dtype)
        for j, diagonal in enumerate(self.diagonals):
            d = lo + j
            first, stop = max(d, 0), n + min(d, 0)
            np.conjugate(diagonal[first - d:stop - d],
                         out=out[count - 1 - j, first:stop])
        return TruncatedOperator(_Fresh(out), -hi)

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def _combine(self, other, ufunc):
        """``ufunc(self, other)`` entrywise: self's band is copied into the
        result's rows, and other's band is combined into them in place."""
        if not isinstance(other, TruncatedOperator):
            return NotImplemented
        self._check_dim(other)
        lo = min(self.lo, other.lo)
        hi = max(self.band[1], other.band[1])
        a, b = self.diagonals, other.diagonals
        out = np.zeros((hi - lo + 1, self.dim), dtype=np.result_type(a, b))
        out[self.lo - lo:self.lo - lo + a.shape[0]] = a
        rows = out[other.lo - lo:other.lo - lo + b.shape[0]]
        ufunc(rows, b, out=rows)
        return TruncatedOperator(_Fresh(out), lo)

    def __mul__(self, scalar):
        """A number (numpy scalars included) times the operator."""
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return TruncatedOperator(_Fresh(scalar * self.diagonals), self.lo)

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def __matmul__(self, other):
        """Product by diagonals: one loop step per nonzero diagonal of
        ``other``, each vectorised across all diagonals of self (see
        ``_products``)."""
        if not isinstance(other, TruncatedOperator):
            return NotImplemented
        return _products(self, other, commute=False)

    def _check_dim(self, other):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------

def toeplitz(f: FourierSeries, n: int) -> TruncatedOperator:
    """Truncated Toeplitz matrix of symbol f: entries ``fhat(r - c)``, in
    float64 when every kept coefficient is real."""
    if n < 1:
        raise ValueError("n must be >= 1")
    coeffs = {k: v for k, v in f.coeffs.items() if abs(k) < n}
    if not coeffs:
        return TruncatedOperator(np.zeros((1, n)), 0)
    lo = min(coeffs)
    real = all(v.imag == 0 for v in coeffs.values())
    band = np.zeros((max(coeffs) - lo + 1, n),
                    dtype=float if real else complex)
    for k, v in coeffs.items():
        band[k - lo] = v.real if real else v
    return TruncatedOperator(_Fresh(band), lo)


def identity(n: int) -> TruncatedOperator:
    return TruncatedOperator(np.ones((1, n)), 0)


def shift(n: int) -> TruncatedOperator:
    """S e_m = e_{m+1}; the image of e_{n-1} is cut by the truncation."""
    return TruncatedOperator(np.ones((1, n)), 1)


def shift_adjoint(n: int) -> TruncatedOperator:
    """S* e_m = e_{m-1} for m >= 1 and S* e_0 = 0."""
    return TruncatedOperator(np.ones((1, n)), -1)


def number(n: int) -> TruncatedOperator:
    """N e_m = m e_m."""
    return TruncatedOperator(np.arange(n, dtype=float)[None, :], 0)


def dz(n: int) -> TruncatedOperator:
    """Lowering derivative: e_m -> m e_{m-1} (equals shift_adjoint @ number)."""
    return TruncatedOperator(np.arange(n, dtype=float)[None, :], -1)


def dz_star(n: int) -> TruncatedOperator:
    """Raising adjoint: e_m -> (m+1) e_{m+1}; the image ``n*e_n`` of ``e_{n-1}``
    is cut by the truncation, so the last column is zero."""
    return TruncatedOperator(np.arange(1, n + 1, dtype=float)[None, :], 1)


def finite_rank(block, n: int) -> TruncatedOperator:
    """Embed a k x k block into the top-left corner of an n x n matrix; a
    real block gives a float64 band."""
    b = np.asarray(block)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError(f"block must be square, got shape {b.shape}")
    k = b.shape[0]
    if k > n:
        raise ValueError(f"block size {k} exceeds truncation size {n}")
    if k == 0:
        return TruncatedOperator(np.zeros((1, n)), 0)
    band = np.zeros((2 * k - 1, n), dtype=b.dtype)
    for d in range(1 - k, k):
        # np.diagonal(b, -d) holds b[m + d, m] from column max(0, -d) on
        first = max(0, -d)
        band[d + k - 1, first:first + k - abs(d)] = np.diagonal(b, -d)
    return TruncatedOperator(_Fresh(band), 1 - k)


# ----------------------------------------------------------------------
# algebra and numerics
# ----------------------------------------------------------------------

def _products(a: TruncatedOperator, b: TruncatedOperator,
              commute: bool) -> TruncatedOperator:
    """``a @ b``, or ``a @ b - b @ a`` when ``commute``, in one result band.

    Offset p of the left factor times offset q of the right one adds
    ``l_p[c + q] * r_q[c]`` to offset p + q at column c.  Both products
    cover the offsets ``a.lo + b.lo`` up to the sum of the highest ones, so
    the band is allocated once and each product is added (or subtracted)
    into it in place.  The Python loop runs over the nonzero diagonals of
    the right factor; each step is vectorised across all diagonals of the
    left one, and holds their partial products, one band of the left
    factor's size, beside the result.  Skipping an all-zero diagonal drops
    only additions of zero, which leave every entry as it is.
    """
    a._check_dim(b)
    n = a.dim
    out = np.zeros((a.diagonals.shape[0] + b.diagonals.shape[0] - 1, n),
                   dtype=np.result_type(a.diagonals, b.diagonals))
    terms = [(a, b, np.add)]
    if commute:
        terms.append((b, a, np.subtract))
    for left, right, ufunc in terms:
        band = left.diagonals
        for j, r_q in enumerate(right.diagonals):
            if not r_q.any():
                continue
            q = right.lo + j
            first, stop = max(0, -q), n - max(0, q)
            rows = out[j:j + band.shape[0], first:stop]
            ufunc(rows, band[:, first + q:stop + q] * r_q[first:stop],
                  out=rows)
    return TruncatedOperator(_Fresh(out), a.lo + b.lo)


def commutator(a: TruncatedOperator, b: TruncatedOperator) -> TruncatedOperator:
    """[a, b] = ab - ba, with both products accumulated into one band."""
    if not isinstance(a, TruncatedOperator) or \
            not isinstance(b, TruncatedOperator):
        raise TypeError("commutator takes two TruncatedOperator values, got "
                        f"{type(a).__name__} and {type(b).__name__}")
    return _products(a, b, commute=True)


def delta(x: TruncatedOperator, k: int) -> TruncatedOperator:
    """The k-fold commutator ``[N, [N, ... [N, x]]]`` with ``number(n)``.

    N is diagonal, so it commutes with the truncation and diagonal d of
    ``[N, x]`` is ``d * x_d``: each diagonal is scaled by its offset to the
    k-th power, one rounding per entry, with no cancellation against N's
    entries, which grow with n.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scale = np.arange(x.lo, x.band[1] + 1, dtype=float)[:, None] ** k
    return TruncatedOperator(_Fresh(x.diagonals * scale), x.lo)


class _MatvecPlan:
    """``v -> 2**-exponent * X* v`` from the diagonals of X, in
    O(n * bandwidth); a plan for ``A v`` is built from ``A.adjoint()``.

    Row r of ``X*`` is the conjugate of column r of X, which the band stores
    as it is: the rows of the plan are the conjugated diagonals, with no
    shift.  The plan keeps the diagonals from the lowest to the highest
    nonzero one in steps of g, the gcd of their offset gaps; the rest are
    zero, and leaving them out drops only additions of zero.  So
    ``rows[i, r]`` is the entry ``[r, r - d_i]`` of ``X*`` at offset
    ``d_i = hi - i*g``, 0 where that column is outside ``0..n-1``, and
    ``(X* v)[r]`` is ``sum_i rows[i, r] * v[r - d_i]``.  The terms
    ``v[r - d_i]`` for all i form one strided view of a zero-padded row
    holding v: ``bind`` makes the view once, and each call is one
    ``einsum``.  The scaled copy of the rows is the only band a plan keeps.
    The rows are scaled by ``2**-exponent``, the least even power of two
    above their largest absolute row sum.  The scaling is exact, and it
    keeps a step of ``operator_norm`` from lengthening the vector: a
    Hermitian G has 2-norm at most its largest row sum, and
    ``||A||^2 <= ||A||_1 ||A||_inf``, the row sums of A* being the column
    sums of A.  The rows keep the band's dtype: a float64 band, which real
    data gives, makes a float64 plan, which takes real vectors only.
    """

    __slots__ = ("rows", "hi", "step", "lead", "trail", "exponent")

    def __init__(self, x: TruncatedOperator):
        band = x.diagonals
        used = np.flatnonzero(band.any(axis=1))
        if used.size == 0:
            used = np.zeros(1, dtype=int)
        step = int(np.gcd.reduce(used - used[0])) or 1
        kept = band[used[0]:used[-1] + 1:step]
        hi = -(x.lo + int(used[0]))
        rows = kept.conj()
        exponent = math.frexp(float(np.abs(rows).sum(axis=0).max()))[1]
        exponent += exponent % 2
        self.rows = rows * 2.0 ** -exponent
        self.hi, self.step = hi, step
        self.lead = max(hi, 0)
        self.trail = max((kept.shape[0] - 1) * step - hi, 0)
        self.exponent = exponent

    def bind(self, source: np.ndarray, lead: int, target: np.ndarray):
        """A call that writes ``2**-exponent * X* v`` into ``target``, for the
        v held at ``source[lead:lead + n]``.  ``source`` is one contiguous
        row, with at least ``self.lead`` zeros before v and ``self.trail``
        after it."""
        count, n = self.rows.shape
        size = source.itemsize
        # the view below reads memory unchecked, so the row must cover it
        if source.ndim != 1 or source.strides[0] != size or \
                lead < self.lead or source.size < lead + n + self.trail:
            raise ValueError("source must be a contiguous row holding the "
                             "vector and the plan's zero padding")
        window = np.lib.stride_tricks.as_strided(
            source[lead - self.hi:], shape=(count, n),
            strides=(self.step * size, size), writeable=False)
        return partial(np.einsum, "ij,ij->j", self.rows, window, out=target)


def operator_norm(a: TruncatedOperator, tol: float = 1e-10) -> float:
    """Largest singular value.

    Uses a full decomposition for ``dim <= 64``, otherwise power iteration on
    ``A* A`` started from the normalized all-ones vector (deterministic, so
    reports are reproducible).  Each step applies matrix-vector plans by
    diagonals, so it costs O(n * bandwidth) and no ``n x n`` array is formed.
    The Gram operator ``G = A* A`` is formed once, as a banded product, when
    that costs no more than one block of steps through A and then A*: the
    product loops over the k nonzero diagonals of A, each pass over all b
    stored ones, so it costs b * k length-n products against
    ``2 * NORM_BLOCK * k`` for the block, and G is formed when
    ``b <= 2 * NORM_BLOCK``.  Otherwise each step applies A and then A*.
    The iteration runs in the band's dtype: on a float64 band, which real
    data gives, the iterates are real, and in exact arithmetic it is the
    same iteration as in complex.

    Steps run in blocks of up to NORM_BLOCK, written into one array without
    normalisation; each plan is scaled by a power of two, so the iterates
    cannot grow.  A block holds about NORM_BLOCK_WORK multiply-adds, so a
    step whose arithmetic outweighs the call overhead runs in a block of its
    own, and the steps a block runs past the stop cost little.  After a
    block, the Rayleigh quotients ``(u_j, u_j+1) / (u_j, u_j)`` and the stop
    rule are evaluated for all its steps at once, the value is that of the
    first step meeting the rule, and the last iterate is normalised to start
    the next block.

    The stop rule watches the value, not the vector: it stops once the value
    moves by at most ``tol`` (relative) between steps,
    and the result can then fall short of the norm by far more than ``tol``;
    for ``[N, T_f]`` with ``f = cos(4 theta)`` at n = 128 and ``tol`` 1e-9
    it is 1.8e-8 relative below the dense SVD value.
    Nearly degenerate top singular values slow the iteration down;
    when POWER_ITERATION_CAP steps do not meet the rule, a warning is logged
    and the value is that of a full decomposition.  A step whose product is
    exactly zero ends the iteration with the value 0.
    """
    if not math.isfinite(tol) or tol <= 0:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    n = a.dim
    if n <= FULL_SVD_DIM:
        return float(np.linalg.svd(a.dense(), compute_uv=False)[0])
    if a.diagonals.shape[0] <= 2 * NORM_BLOCK:
        # G is self-adjoint, so its plan applies G
        plans = [_MatvecPlan(a.adjoint() @ a)]
    else:
        plans = [_MatvecPlan(a.adjoint()), _MatvecPlan(a)]
    size = max(1, min(NORM_BLOCK,
                      NORM_BLOCK_WORK // sum(p.rows.size for p in plans)))
    lead = max(p.lead for p in plans)
    width = lead + n + max(p.trail for p in plans)
    dtype = np.result_type(*(p.rows.dtype for p in plans))
    # u_j lives in iterates[j, lead:lead + n]; the padding stays zero
    iterates = np.zeros((size + 1, width), dtype=dtype)
    middle = np.zeros(width, dtype=dtype)
    body = slice(lead, lead + n)
    steps = []
    for j in range(size):
        # with two plans, A writes into ``middle`` and A* reads from it
        targets = [middle] * (len(plans) - 1) + [iterates[j + 1]]
        source = iterates[j]
        for plan, target in zip(plans, targets):
            steps.append(plan.bind(source, lead, target[body]))
            source = target
    # complex entries read as (real, imaginary) pairs, so the dot product of
    # two rows is the real part of their inner product
    flat = iterates.view(np.float64)
    unscale = 2.0 ** (sum(p.exponent for p in plans) // 2)
    iterates[0, body] = 1.0 / math.sqrt(n)
    previous = -1.0
    done = 0
    while done < POWER_ITERATION_CAP:
        count = min(size, POWER_ITERATION_CAP - done)
        for step in steps[:count * len(plans)]:
            step()
        squares = np.einsum("ij,ij->i", flat[:count + 1], flat[:count + 1])
        # a zero product ends the iteration after the steps before it
        zero = np.flatnonzero(squares[1:] == 0.0)
        if zero.size:
            count = int(zero[0])
        dots = np.einsum("ij,ij->i", flat[:count], flat[1:count + 1])
        sigma = np.sqrt(np.maximum(dots / squares[:count], 0.0)) * unscale
        before = np.concatenate(([previous], sigma))[:-1]
        met = np.flatnonzero((before >= 0.0) & (
            np.abs(sigma - before) <= tol * np.maximum(sigma, 1e-300)))
        if met.size:
            return float(sigma[met[0]])
        if zero.size:
            return 0.0
        done += count
        previous = float(sigma[-1])
        np.divide(iterates[count], math.sqrt(squares[count]), out=iterates[0])
    # logging is imported on this path only, which keeps it out of the
    # CLI's start-up
    import logging
    logging.getLogger(__name__).warning(
        "power iteration did not converge within %d iterations at dim %d; "
        "falling back to a dense SVD", POWER_ITERATION_CAP, n)
    return float(np.linalg.svd(a.dense(), compute_uv=False)[0])


def interior_block(a: TruncatedOperator, margin: int) -> TruncatedOperator:
    """Square sub-block away from both truncation corners.

    Identities of the semi-infinite model hold on the truncation only outside
    a boundary collar whose width is set by the band widths involved; this is
    the tool that removes the collar.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    if 2 * margin >= a.dim:
        raise ValueError(f"margin {margin} too large for dim {a.dim}")
    if margin == 0:
        return a
    return TruncatedOperator(a.diagonals[:, margin:a.dim - margin], a.lo)


def interior_deviation(a: TruncatedOperator, b: TruncatedOperator,
                       margin: int) -> float:
    """Largest entry of ``|a - b|`` on the interior blocks at ``margin``."""
    diff = interior_block(a, margin) - interior_block(b, margin)
    return float(np.abs(diff.diagonals).max())


def symbol_estimate(a: TruncatedOperator, max_freq: int) -> FourierSeries:
    """Recover a symbol from the diagonals, away from the top-left corner.

    For each ``|k| <= max_freq`` the estimate is the average of the entries
    ``A[m+k, m]`` over m in the second half of the valid diagonal range.  On
    an exact Toeplitz matrix this is ``fhat(k)``; adding a finite-rank corner
    block does not move the averaging window, so the estimate converges to the
    symbol as the dimension grows.
    """
    n = a.dim
    if max_freq < 0:
        raise ValueError("max_freq must be >= 0")
    if max_freq >= n / 4:
        raise ValueError(f"max_freq must be < dim/4 = {n / 4}")
    lo, hi = a.band
    coeffs = {}
    for k in range(max(-max_freq, lo), min(max_freq, hi) + 1):
        ms = max(0, -k)
        me = n - 1 - max(0, k)
        start = ms + (me - ms + 1) // 2
        coeffs[k] = complex(a.diagonals[k - lo, start:me + 1].mean())
    return FourierSeries(coeffs)


def cauchy_riemann_weight_gap(n: int) -> tuple[float, int]:
    """Supremum and argmax of ``sqrt(m(m+1)) - m`` over ``0 <= m < n``.

    This is the coefficient gap between the raising/lowering weights of the
    holomorphic derivative on the disc and their integer replacements; it is
    increasing in m with limit 1/2, so it is uniformly bounded.  Evaluated as
    ``m / (sqrt(m(m+1)) + m)`` to avoid cancellation at large m.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    g = np.zeros(n)
    if n > 1:
        m = np.arange(1, n, dtype=float)
        g[1:] = m / (np.sqrt(m * (m + 1.0)) + m)
    at = int(np.argmax(g))
    return float(g[at]), at


# ----------------------------------------------------------------------
# exact band patterns
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BandPattern:
    """Weighted shift ``e_m -> w(m) e_{m+offset}`` of the semi-infinite model,
    with ``coeffs`` the exact (``Fraction``) coefficients of the polynomial
    ``w`` in ascending order; there must be at least one.
    """

    offset: int
    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a weight needs at least one coefficient")

    @classmethod
    def weighted_shift(cls, offset: int, poly_coeffs) -> "BandPattern":
        return cls(int(offset), tuple(Fraction(c) for c in poly_coeffs))

    def weight(self, m: int) -> Fraction:
        """``w(m)``, by Horner's rule in exact arithmetic."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * m + c
        return acc

    def realize(self, n: int) -> TruncatedOperator:
        """Float truncation, for cross-checks against the exact computations."""
        weights = [float(self.weight(m)) for m in range(n)]
        return TruncatedOperator(np.array([weights]), self.offset)

    def nonnegative_zeros(self) -> list[int]:
        """All integers m >= 0 with ``w(m) == 0``, found exactly."""
        coeffs = self.coeffs
        # strip leading (high-order) zeros
        top = len(coeffs) - 1
        while top > 0 and coeffs[top] == 0:
            top -= 1
        coeffs = coeffs[:top + 1]
        if len(coeffs) == 1:
            if coeffs[0] == 0:
                raise ValueError("identically zero weight has an infinite zero set")
            return []
        lead = coeffs[-1]
        bound = 1 + max(abs(c / lead) for c in coeffs[:-1])
        return [m for m in range(0, math.ceil(bound) + 1) if self.weight(m) == 0]


def shift_pattern() -> BandPattern:
    return BandPattern.weighted_shift(1, [1])


def shift_adjoint_pattern() -> BandPattern:
    return BandPattern.weighted_shift(-1, [1])


def dz_pattern() -> BandPattern:
    return BandPattern.weighted_shift(-1, [0, 1])


def dz_star_pattern() -> BandPattern:
    return BandPattern.weighted_shift(1, [1, 1])


def pattern_kernel_dims(p: BandPattern) -> tuple[int, int]:
    """Exact (kernel, cokernel) dimensions of a weighted shift.

    Computed on the semi-infinite model, never from a truncation: for offset d
    and weight w, the kernel collects the columns m with ``w(m) == 0`` or
    ``m + d < 0``, and the cokernel the rows ``r >= 0`` that are not of the
    form ``m + d`` with ``w(m) != 0``.
    """
    d = p.offset
    zeros = p.nonnegative_zeros()
    ker = len(set(zeros) | set(range(0, max(0, -d))))
    coker = max(d, 0) + sum(1 for m in zeros if m >= max(-d, 0))
    return ker, coker


def rectangular_kernel_dims(p: BandPattern, n: int) -> tuple[int, int]:
    """Exact (kernel, cokernel) dimensions of a rectangular truncation.

    The domain is the first n columns; the codomain is every row from 0 up to
    the largest row reachable from the domain.  Square truncations always have
    index zero and cannot see the Fredholm index, which is why the codomain
    must follow the band.  Each column ``m >= max(0, -offset)`` with
    ``w(m) != 0`` holds one entry, in a row of its own, so the rank is the
    count of those columns: O(n) exact weights, no matrix, and independent
    of the zeros ``pattern_kernel_dims`` finds.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rank, top = 0, -1
    for m in range(max(0, -p.offset), n):
        if p.weight(m) != 0:
            rank += 1
            top = m + p.offset
    return n - rank, (top + 1) - rank
