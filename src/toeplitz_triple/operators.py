"""Finite truncations of the operator algebra on one-sided sequence space.

All operators act on ``l2(N)`` with basis ``e_0, e_1, ...`` and are stored as
their compressions to ``span{e_0, ..., e_{n-1}}``, with the convention
``A[r, c]`` = coefficient of ``e_r`` in the image of ``e_c``.  A Toeplitz
matrix built from a symbol ``f`` therefore has entries ``A[r, c] = fhat(r - c)``.

Every operator of the triple is banded, or banded plus a small top-left
block, and its nonzero diagonals lie on a lattice: ``T_f`` for
``f = cos 4k theta`` at +-4k, its commutators with N, dz and dz* at two
offsets, D at +-3.  So a compression is stored by the diagonals of one
offset lattice: a lowest offset ``lo``, a step, and a ``(rows, n)`` array,
float64 or complex128 as the data, whose row ``j`` holds the diagonal of
offset ``lo + j*step``, indexed by column; the diagonals off the lattice
are zero and are not stored.  Real data stays float64 through sums,
products and adjoints; a complex operand or scalar makes the result
complex128.  Construction, sums, products, adjoints, interior blocks and
symbol recovery cost O(n * lattice rows), and so does each power-iteration
step of ``operator_norm``, which applies the banded Gram operator ``A* A``
(or A and then A*, for wide bands) by stored diagonals through
matrix-vector plans built once per norm, in the band's own dtype, and
checks its stop rule once per block of steps; only
``TruncatedOperator.dense`` forms an ``n x n`` array.  A plan is one
``einsum`` over a strided view of the rows it is given and one of a
zero-padded vector: the plans of a wide band, A's and A*'s, both read A's
own rows, A through a skewed view and A* conjugating vectors when they are
complex, so its norm holds no copy of the band and no buffer besides its
vectors and A's row and column sums.  The norm's other route, at dimension
64 or less and after a stalled iteration, bisects on banded LDL* tests of
``A* A`` (the private ``_bisection`` module), which also forms no
``n x n`` array.

Transient memory is bounded by the lattice rows too: an operation allocates
its result's lattice once and the new operator adopts it without a copy,
column shifts are slices of the rows, and no integer index array of their
shape is ever formed.  A product loops over the nonzero stored diagonals of
its right factor, each step vectorised across all rows of the left one, and
a commutator adds its two products into one result through that loop.  So
besides its operands an operation holds its result and the partial products
of one step (at most the left factor's rows).  The constructor zeroes the
entries outside the matrix by slices of each row and checks the rows finite
by reductions, so it adds O(n) bytes to the rows it adopts, and
``interior_deviation`` compares two operators diagonal by diagonal, with no
copy of either and no difference band.  A commutator with a generator,
N in ``delta``, |D|, dz or dz*, takes no product: one pass scales each
stored diagonal by exact differences of the generator's weights and adds
a weight times the diagonal's own differences, which vanish where it is
constant, one diagonal at a time.

``BandPattern`` describes a weighted shift ``e_m -> w(m) e_{m+offset}`` of
the semi-infinite model exactly (a polynomial weight with rational
coefficients), which makes kernel/cokernel dimensions and the index
computable without any truncation.  It is the one definition of each
generator: ``shift``, ``shift_adjoint``, ``number``, ``dz`` and ``dz_star``
are realisations of their patterns.  Its rectangular truncations have one
entry per column, so their kernel and cokernel are counted exactly in O(n)
and no matrix is formed.
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

# Up to this dimension operator_norm takes the certified bisection of
# ``_bisection.gram_norm``, with no power steps.
EXACT_NORM_DIM = 64
POWER_ITERATION_CAP = 10_000
# operator_norm runs its power steps in blocks of at most NORM_BLOCK steps
# and about NORM_BLOCK_WORK multiply-adds
NORM_BLOCK = 16
NORM_BLOCK_WORK = 2 ** 18


def _finite(rows: np.ndarray) -> bool:
    """Whether every entry of rows contiguous along their last axis is
    finite, from the least and greatest real and imaginary parts:
    reductions that allocate nothing of the rows' shape, and that a NaN
    turns into NaN."""
    if rows.size == 0:
        return True
    parts = rows.view(np.float64)
    return math.isfinite(parts.min()) and math.isfinite(parts.max())


def _lattice(offsets) -> range:
    """The smallest offset lattice that holds the given offsets (a sequence
    or an integer array, not empty): from the lowest to the highest, in
    steps of the gcd of their gaps, 1 when there are none."""
    offsets = np.asarray(offsets)
    lo = int(offsets.min())
    step = int(np.gcd.reduce(offsets - lo, axis=None)) or 1
    return range(lo, int(offsets.max()) + 1, step)


def _slots(offsets: range, lattice: range) -> slice:
    """The rows of ``lattice`` that hold the offsets of a lattice inside it."""
    start = lattice.index(offsets.start)
    stride = max(offsets.step // lattice.step, 1)
    return slice(start, start + (len(offsets) - 1) * stride + 1, stride)


class _Fresh:
    """Rows of a band on the offsets ``lo, lo + step, ...``, float64 or
    complex128 as the data, that its caller has just allocated and holds no
    other reference to: ``TruncatedOperator`` adopts them without a copy."""

    __slots__ = ("rows", "step")

    def __init__(self, rows: np.ndarray, step: int = 1):
        self.rows = rows
        self.step = step


class TruncatedOperator:
    """``n x n`` compression of an operator on ``l2(N)``, stored by the
    diagonals of one offset lattice.

    ``rows[j, m]`` is the entry ``A[m + lo + j*step, m]``: ``lo`` and
    ``band[1]`` are the lowest and highest nonzero offsets, and ``step`` is
    the gcd of the gaps between the nonzero diagonals (1 when there is only
    one), so every diagonal off the lattice is zero and is not stored.  The
    zero operator stores one zero row at offset 0.  Entries whose row
    ``m + lo + j*step`` falls outside ``0..n-1`` are stored as 0 whatever
    the input holds there, and diagonals beyond offset ``+-(n-1)`` are
    dropped, so the columns ``s..e-1`` of the rows make the compression to
    ``span{e_s, ..., e_{e-1}}``.

    ``TruncatedOperator(diagonals, lo)`` takes a contiguous band, row j the
    diagonal of offset ``lo + j``, copies it and keeps the smallest lattice
    that holds its nonzero diagonals; ``diagonals`` gives the contiguous
    band back.  A dense block enters through ``finite_rank``.  The rows are
    stored as float64 or complex128, as the data: complex input of any
    precision is complex128, and all other input float64.  ``dense()`` is
    complex128 either way.  Operators are immutable values: arithmetic
    returns new instances.  A sum, difference, scalar multiple, product or
    adjoint allocates the rows of its result's lattice (the product of
    lattices of steps s and t has step gcd(s, t), a sum's step also divides
    the gap between the lowest offsets) and hands them to the new instance,
    which adopts them without a second copy and still zeroes them outside
    the matrix, checks them finite, drops the lattice rows that came out
    zero at either end or on a coarser lattice, and makes them read-only.
    The zeroing writes two slices of each row and the check reads the least
    and greatest entries, so neither allocates anything of the rows' shape.
    So an operation holds, besides its operands, its result and, in a
    product or commutator, the partial products of one step (at most the
    left factor's rows).
    """

    __slots__ = ("lo", "step", "rows")
    # numpy defers to the operator's own methods, so an array operand is
    # refused with a TypeError instead of being broadcast over
    __array_ufunc__ = None

    def __init__(self, diagonals, lo: int):
        fresh = isinstance(diagonals, _Fresh)
        band = np.asarray(diagonals.rows if fresh else diagonals)
        step = diagonals.step if fresh else 1
        if band.ndim != 2 or band.shape[1] < 1:
            raise ValueError(
                f"expected a (diagonals, n) band array, got shape {band.shape}")
        count, n = band.shape
        lo = int(lo)
        dtype = np.complex128 if band.dtype.kind == "c" else np.float64
        # the lattice rows first..stop-1, whose offsets lie in 1-n..n-1,
        # perhaps none
        first = max(0, -((lo + n - 1) // step))
        stop = max(first, min(count, (n - 1 - lo) // step + 1))
        # the rows are kept C-contiguous, as the views of _MatvecPlan read
        if not fresh or first > 0 or stop < count or band.dtype != dtype \
                or not band.flags.c_contiguous:
            band = np.array(band[first:stop], dtype=dtype)
        lo += first * step
        # the entries whose row m + d is outside 0..n-1, zeroed before the
        # check, so that input there is dropped whatever it holds
        for d, row in zip(range(lo, lo + band.shape[0] * step, step), band):
            row[:max(0, -d)] = 0
            row[n - max(0, d):] = 0
        if not _finite(band):
            raise ValueError("matrix entries must be finite")
        used = np.flatnonzero(band.any(axis=1))
        if used.size == 0:
            lo, step, band = 0, 1, np.zeros((1, n), dtype=dtype)
        else:
            kept = _lattice(used)
            if kept != range(band.shape[0]):
                band = np.array(band[kept.start:kept.stop:kept.step])
            lo += kept.start * step
            step = step * kept.step if used.size > 1 else 1
        band.setflags(write=False)
        self.lo = lo
        self.step = step
        self.rows = band

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    @property
    def band(self) -> tuple[int, int]:
        """Lowest and highest nonzero offset ``r - c`` ((0, 0) when zero)."""
        return self.lo, self.lo + (self.rows.shape[0] - 1) * self.step

    @property
    def diagonals(self) -> np.ndarray:
        """The contiguous band, read-only: row j the diagonal of offset
        ``lo + j``, up to ``band[1]``.  It is the stored rows themselves when
        ``step`` is 1; otherwise the diagonals off the lattice are filled in
        with zeros, in a new array."""
        if self.step == 1:
            return self.rows
        count, n = self.rows.shape
        band = np.zeros(((count - 1) * self.step + 1, n), dtype=self.rows.dtype)
        band[::self.step] = self.rows
        band.setflags(write=False)
        return band

    def _offsets(self):
        """The offset of each stored row, in order."""
        return range(self.lo, self.band[1] + 1, self.step)

    def _row(self, d: int):
        """The stored diagonal of offset d, or None when d is off the
        lattice."""
        j, rest = divmod(d - self.lo, self.step)
        return self.rows[j] if rest == 0 and 0 <= j < self.rows.shape[0] \
            else None

    def __repr__(self):
        return f"TruncatedOperator(dim={self.dim}, band={self.band})"

    def dense(self) -> np.ndarray:
        """The ``n x n`` matrix, for callers that need one."""
        n = self.dim
        out = np.zeros((n, n), dtype=complex)
        flat = out.reshape(-1)
        for d, diagonal in zip(self._offsets(), self.rows):
            # entry [m + d, m] is flat entry (m + d) * n + m, for the columns
            # m in first..stop-1 whose row is inside the matrix
            first, stop = max(0, -d), n - max(0, d)
            start = (first + d) * n + first
            flat[start:start + (stop - first - 1) * (n + 1) + 1:n + 1] = \
                diagonal[first:stop]
        return out

    def adjoint(self) -> "TruncatedOperator":
        """``A*[c - d, c] = conj(A[c, c - d])``: the mirrored rows (see
        ``_mirrored``), conjugated in place when they are complex."""
        rows = _mirrored(self)
        if rows.dtype.kind == "c":
            np.conjugate(rows, out=rows)
        return TruncatedOperator(_Fresh(rows, self.step), -self.band[1])

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def _combine(self, other, ufunc):
        """``ufunc(self, other)`` entrywise on the lattice that holds both:
        self's rows are copied into the result's rows, and other's rows are
        combined into them in place."""
        if not isinstance(other, TruncatedOperator):
            return NotImplemented
        self._check_dim(other)
        lattice = _lattice([*self._offsets(), *other._offsets()])
        a, b = self.rows, other.rows
        out = np.zeros((len(lattice), self.dim), dtype=np.result_type(a, b))
        out[_slots(self._offsets(), lattice)] = a
        rows = out[_slots(other._offsets(), lattice)]
        ufunc(rows, b, out=rows)
        return TruncatedOperator(_Fresh(out, lattice.step), lattice.start)

    def __mul__(self, scalar):
        """A number (numpy scalars included) times the operator."""
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return TruncatedOperator(_Fresh(scalar * self.rows, self.step),
                                 self.lo)

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def __matmul__(self, other):
        """Product by diagonals: one loop step per nonzero stored diagonal
        of ``other``, each vectorised across the stored diagonals of self
        (see ``_products``)."""
        if not isinstance(other, TruncatedOperator):
            return NotImplemented
        return _products(self, other, commute=False)

    def _check_dim(self, other):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")


def _mirrored(a: TruncatedOperator) -> np.ndarray:
    """The conjugates of the rows of ``A*``, in a new writable array: the
    transpose of A stored by diagonals.

    The diagonal of offset d holds ``A[m + d, m]`` at column m, so it
    becomes the diagonal of offset -d read ``d`` columns later: column c of
    the result takes column ``c - d``, for the columns c where both lie
    inside ``0..n-1``.  The lattice is mirrored, and the entries go straight
    into the new rows.
    """
    count, n = a.rows.shape
    out = np.zeros((count, n), dtype=a.rows.dtype)
    for j, (d, diagonal) in enumerate(zip(a._offsets(), a.rows)):
        first, stop = max(d, 0), n + min(d, 0)
        out[count - 1 - j, first:stop] = diagonal[first - d:stop - d]
    return out


def _columns(a: TruncatedOperator, start: int, stop: int) -> TruncatedOperator:
    """The compression of a to ``span{e_start, ..., e_{stop-1}}``, from a
    copy of those columns of its rows."""
    return TruncatedOperator(_Fresh(np.array(a.rows[:, start:stop]), a.step),
                             a.lo)


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------

def toeplitz(f: FourierSeries, n: int) -> TruncatedOperator:
    """Truncated Toeplitz matrix of symbol f: entries ``fhat(r - c)``, in
    float64 when every kept coefficient is real, on the lattice of the
    kept frequencies."""
    if n < 1:
        raise ValueError("n must be >= 1")
    coeffs = {k: v for k, v in f.coeffs.items() if abs(k) < n}
    if not coeffs:
        return TruncatedOperator(np.zeros((1, n)), 0)
    lattice = _lattice(list(coeffs))
    real = all(v.imag == 0 for v in coeffs.values())
    rows = np.zeros((len(lattice), n), dtype=float if real else complex)
    for k, v in coeffs.items():
        rows[lattice.index(k)] = v.real if real else v
    return TruncatedOperator(_Fresh(rows, lattice.step), lattice.start)


def identity(n: int) -> TruncatedOperator:
    return TruncatedOperator(np.ones((1, n)), 0)


def shift(n: int) -> TruncatedOperator:
    """S e_m = e_{m+1}; the image of e_{n-1} is cut by the truncation."""
    return shift_pattern().realize(n)


def shift_adjoint(n: int) -> TruncatedOperator:
    """S* e_m = e_{m-1} for m >= 1 and S* e_0 = 0."""
    return shift_adjoint_pattern().realize(n)


def number(n: int) -> TruncatedOperator:
    """N e_m = m e_m."""
    return BandPattern.weighted_shift(0, [0, 1]).realize(n)


def dz(n: int) -> TruncatedOperator:
    """Lowering derivative: e_m -> m e_{m-1} (equals shift_adjoint @ number)."""
    return dz_pattern().realize(n)


def dz_star(n: int) -> TruncatedOperator:
    """Raising adjoint: e_m -> (m+1) e_{m+1}; the image ``n*e_n`` of ``e_{n-1}``
    is cut by the truncation, so the last column is zero."""
    return dz_star_pattern().realize(n)


def finite_rank(block, n: int) -> TruncatedOperator:
    """Embed a k x k block into the top-left corner of an n x n matrix; a
    real block gives a float64 band.  The block's 2k - 1 diagonals are
    scattered into a contiguous band, which the operator compacts to the
    lattice of the nonzero ones."""
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
    cover the lattice from ``a.lo + b.lo`` to the sum of the highest
    offsets in steps of the gcd of the factors' steps, so its rows are
    allocated once and each product is added (or subtracted) into them in
    place.  The Python loop runs over the nonzero stored diagonals of the
    right factor; each step is vectorised across the stored diagonals of
    the left one, and holds their partial products, the size of the left
    factor's rows, beside the result.  The diagonals off either lattice
    are zero, and skipping them, or an all-zero stored one, drops only
    additions of zero, which leave every entry as it is.
    """
    a._check_dim(b)
    n = a.dim
    # the gaps of a factor that stores one diagonal do not count
    lattice = range(a.lo + b.lo, a.band[1] + b.band[1] + 1, math.gcd(
        *(x.step for x in (a, b) if x.rows.shape[0] > 1)) or 1)
    out = np.zeros((len(lattice), n), dtype=np.result_type(a.rows, b.rows))
    terms = [(a, b, np.add)]
    if commute:
        terms.append((b, a, np.subtract))
    for left, right, ufunc in terms:
        band = left.rows
        for q, r_q in zip(right._offsets(), right.rows):
            if not r_q.any():
                continue
            first, stop = max(0, -q), n - max(0, q)
            # the left factor's lattice moved by q
            at = _slots(range(left.lo + q, left.band[1] + q + 1, left.step),
                        lattice)
            rows = out[at, first:stop]
            ufunc(rows, band[:, first + q:stop + q] * r_q[first:stop],
                  out=rows)
    return TruncatedOperator(_Fresh(out, lattice.step), lattice.start)


def commutator(a: TruncatedOperator, b: TruncatedOperator) -> TruncatedOperator:
    """[a, b] = ab - ba, with both products accumulated into one band."""
    if not isinstance(a, TruncatedOperator) or \
            not isinstance(b, TruncatedOperator):
        raise TypeError("commutator takes two TruncatedOperator values, got "
                        f"{type(a).__name__} and {type(b).__name__}")
    return _products(a, b, commute=True)


def delta(x: TruncatedOperator, k: int) -> TruncatedOperator:
    """The k-fold commutator ``[N, [N, ... [N, x]]]`` with ``number(n)``.

    N is diagonal, so diagonal d of ``[N, x]`` is
    ``(m[c + d] - m[c]) * x_d[c] = d * x_d[c]`` (see
    ``_generator_commutator``): each stored diagonal is scaled by its offset
    to the k-th power, one rounding per entry, with no cancellation against
    N's entries, which grow with n.  The result keeps x's lattice, or a
    smaller one when the diagonal of offset 0, which it zeroes, was at an
    end of it.
    """
    return _generator_commutator(number(x.dim), x, k)


def _generator_commutator(g: TruncatedOperator, x: TruncatedOperator,
                          k: int = 1, owned: bool = False) -> TruncatedOperator:
    """``[G, x]`` for a weighted shift G, one that stores one row, at
    offset s = -1, 0 or 1, holding its weights w: ``G e_c = w[c] e_{c+s}``.
    For a diagonal G (s = 0) the k-fold ``[G, [G, ... [G, x]]]``.

    Entry c of the result's diagonal e + s is
    ``w[c + e] * x_e[c] - w[c] * x_e[c + s]``, where a weight or an entry
    outside the matrix is 0.  It is computed, one row of x at a time, as
    an exact weight difference times an entry of x, to which a weight
    times ``x_e[c] - x_e[c + s]`` is added when s is not 0:

    - s = 0: ``(w[c + e] - w[c])**k * x_e[c]``;
    - s = 1: ``(w[c + e] - w[c]) * x_e[c] + w[c] * (x_e[c] - x_e[c + 1])``;
    - s = -1, on the mirrored terms:
      ``(w[c + e] - w[c]) * x_e[c - 1] + w[c + e] * (x_e[c] - x_e[c - 1])``.

    Where the weights are integers, as those of N, |D|, dz and dz* are,
    their differences are exact, and the second term is exactly 0 on a
    constant diagonal, so the interior entries of a Toeplitz band round
    once, with no cancellation against weights that grow with n.  The
    mirrored terms make ``[dz*, a]`` and ``-[dz, a*]*`` round alike.  The
    result has x's dtype and lattice, moved by s, less rows that come out
    zero.  It is written into new rows, or, when ``owned`` (s = 0 only),
    into x's own rows, for a caller that holds no other reference to x: x
    gives its rows up and cannot be used again.  Rows that share memory
    with another array are copied instead.
    """
    s = g.lo
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.rows.shape[0] != 1 or abs(s) > 1 or s and (k > 1 or owned):
        raise ValueError("a generator stores one row at offset -1, 0 or 1, "
                         "and a shift's commutator is taken once, unowned")
    n, offsets, rows = x.dim, x._offsets(), x.rows
    if owned:
        del x.rows
        rows = rows if rows.flags.owndata else np.array(rows)
        rows.setflags(write=True)
    out = rows if owned else np.zeros_like(rows)
    # the weights, and below each row of x, between two zeros: the columns
    # c + e and c + s reach -1 and n
    w = np.pad(g.rows[0], 1)
    for e, row, new in zip(offsets, rows, out):
        first, stop = max(0, -e - s), n - max(0, e + s)
        at, shifted = w[first + 1:stop + 1], w[first + e + 1:stop + e + 1]
        u, new = row[first:stop], new[first:stop]
        v = np.pad(row, 1)[first + s + 1:stop + s + 1] if s else u
        np.multiply((shifted - at) ** k, v if s < 0 else u, out=new)
        if s:
            new += (u - v) * (at if s > 0 else shifted)
    return TruncatedOperator(_Fresh(out, offsets.step), offsets.start + s)


class _MatvecPlan:
    """A matrix-vector product by ``rows``, the C-contiguous stored diagonals
    of an operator X on the lattice ``lo, lo + step, ...``, in O(n * lattice
    rows), as one ``einsum`` over two strided views with no buffers; ``d_i =
    lo + i*step`` is the offset of row i.

    By default the plan applies X's transpose.  Row r of ``Xᵀ`` is column r
    of X, which X's rows store as it is, with no shift: ``(Xᵀ v)[r]`` is
    ``sum_i rows[i, r] * v[r + d_i]``, where ``rows[i, r]`` is 0 when row
    ``r + d_i`` is outside ``0..n-1``.  The terms ``v[r + d_i]`` for all i
    form one strided view of a zero-padded row holding v: ``bind`` makes
    the view once, and each call is one ``einsum``.  A ``conjugate`` plan
    applies ``X* v = conj(Xᵀ conj v)`` from X's rows as they are, and
    conjugates only vectors; a real one applies ``X* = Xᵀ``.  So the plan
    of the conjugated rows of X applies X*, and that of X's own rows, from
    ``of``, does too, with no copy.

    A ``direct`` plan applies X itself: ``(X v)[r]`` is
    ``sum_i rows[i, r - d_i] * v[r - d_i]``.  Row j of its view of the
    rows reads row ``i = count - 1 - j`` moved right by ``d_i``: a skewed
    view of the rows with row pitch ``step - n``, starting at the highest
    offset, beside the view of v with pitch ``step``.  So each entry adds
    its terms from the highest offset down, in the order of the plan of
    X's transpose, whose rows ``_mirrored`` makes, and no transposed copy
    of X is formed.  For the output rows r in ``max(lo, 0)`` to
    ``n + min(hi, 0) - 1``, where hi is the highest offset, every entry the
    skewed view reads lies inside the rows, and a term whose column
    ``r - d_i`` is outside the matrix multiplies a stored entry of another
    column, finite as the constructor makes every one, by a zero of the
    padding.  No term reaches the other rows, which each call writes as 0.
    The result is multiplied by ``2**-exponent``, which is exact.

    The plan keeps ``rows`` as it is given, with no copy.  A float64 plan,
    which real data gives, takes real vectors only.
    """

    __slots__ = ("rows", "lo", "step", "direct", "conjugate", "exponent",
                 "lead", "trail")

    def __init__(self, rows: np.ndarray, lo: int, step: int,
                 direct: bool = False, conjugate: bool = False,
                 exponent: int = 0):
        count, n = rows.shape
        hi = lo + (count - 1) * step
        # the views of ``bind`` read the rows unchecked, as one block whose
        # rows lie inside the matrix
        if not rows.flags.c_contiguous or lo <= -n or hi >= n:
            raise ValueError("a plan needs C-contiguous rows at offsets "
                             "inside the matrix")
        self.rows = rows
        self.lo, self.step = lo, step
        self.direct, self.conjugate = direct, conjugate
        self.exponent = exponent
        # the zeros that the view of v needs before and after it
        self.lead, self.trail = (max(hi, 0), max(-lo, 0)) if direct else \
            (max(-lo, 0), max(hi, 0))

    @classmethod
    def of(cls, x: TruncatedOperator) -> "_MatvecPlan":
        """The plan applying X* from X's own rows, conjugating vectors when
        the rows are complex."""
        return cls(x.rows, x.lo, x.step, conjugate=x.rows.dtype.kind == "c")

    def bind(self, source: np.ndarray, lead: int, target: np.ndarray):
        """A call that writes the plan's product with v into ``target``, for
        the v held at ``source[lead:lead + n]``.  ``source`` is one
        contiguous row, with at least ``self.lead`` zeros before v and
        ``self.trail`` after it; a conjugating plan conjugates it in
        place."""
        count, n = self.rows.shape
        size = source.itemsize
        # the view of v reads memory unchecked, so the row must cover it
        if source.ndim != 1 or source.strides[0] != size or \
                lead < self.lead or source.size < lead + n + self.trail:
            raise ValueError("source must be a contiguous row holding the "
                             "vector and the plan's zero padding")
        if self.direct:
            hi = self.lo + (count - 1) * self.step
            first, stop = max(self.lo, 0), n + min(hi, 0)
            start, pitch, shift = (count - 1) * n - hi + first, \
                self.step - n, first - hi
        else:
            first, stop, start, pitch, shift = 0, n, 0, n, self.lo
        shape, item = (count, stop - first), self.rows.itemsize
        rows = np.lib.stride_tricks.as_strided(
            self.rows.reshape(-1)[start:], shape=shape,
            strides=(pitch * item, item), writeable=False)
        window = np.lib.stride_tricks.as_strided(
            source[lead + shift:], shape=shape,
            strides=(self.step * size, size), writeable=False)
        product = partial(np.einsum, "ij,ij->j", rows, window,
                          out=target[first:stop])
        if self.direct:
            product = partial(_direct, product, target, first, stop,
                              self.exponent)
        if self.conjugate:
            product = partial(_conjugated, product, source, target)
        return product


def _direct(product, target: np.ndarray, first: int, stop: int,
            exponent: int):
    """Zero ``target`` outside ``first..stop-1``, run ``product``, which
    writes inside, and multiply the whole by ``2**-exponent``."""
    target[:first] = 0
    target[stop:] = 0
    product()
    if exponent:
        flat = target.view(np.float64)
        np.ldexp(flat, -exponent, out=flat)


def _conjugated(product, source: np.ndarray, target: np.ndarray):
    """``conj(product(conj source))``, with source conjugated in place."""
    np.conjugate(source, out=source)
    product()
    np.conjugate(target, out=target)


def _exponent(rows: np.ndarray, lo: int, step: int) -> int:
    """The least even e with ``2**e`` above the largest absolute row sum of
    the operator whose stored diagonals ``rows`` lie at the offsets ``lo,
    lo + step, ...``; with step 0, which puts every row at offset 0, above
    the largest absolute column sum of ``rows``.  The sums are added one
    stored row at a time, with no band-sized temporary.  The exponent
    bounds the iterates of ``operator_norm``, which any even power of two
    above the sums scales exactly, so the order of the additions changes
    no value."""
    n = rows.shape[1]
    sums = np.zeros(n)
    for i, row in enumerate(rows):
        # entry [r, r - d] of the diagonal of offset d is in row r's sum
        d = lo + i * step
        first, stop = max(d, 0), n + min(d, 0)
        sums[first:stop] += np.abs(row[first - d:stop - d])
    exponent = math.frexp(float(sums.max()))[1]
    return exponent + exponent % 2


def _scale(rows: np.ndarray, exponent: int) -> None:
    """Multiply writable rows by ``2**exponent`` in place: exact in binary
    floating point barring overflow and underflow, on the real and
    imaginary parts alike."""
    flat = rows.view(np.float64)
    np.ldexp(flat, exponent, out=flat)


def _norm_plans(a: TruncatedOperator) -> tuple[list, int]:
    """The plans whose composition applies ``2**-exponent * A* A``, and that
    even exponent.

    When A's lattice has at most ``2 * NORM_BLOCK`` rows, one plan applies
    the Gram operator ``G = A* A``, which is self-adjoint; its rows are a
    copy of G's, conjugated and scaled by ``2**-e`` for the least even
    power of two above their largest absolute row sum, which bounds the
    2-norm of a Hermitian G.  Otherwise a direct plan applies A and a plan
    of A's transpose A*, both from A's own rows, complex ones too, so the
    norm holds no copy of the band.  The plan of A scales its result by
    ``2**-(e1 + e2)`` for the even powers above the largest absolute row
    and column sums of A: ``||A||^2 <= ||A||_1 ||A||_inf``, so a step
    cannot lengthen the vector.  Scaling by a power of two is exact, so
    each intermediate vector is ``2**-e2`` times that of plans scaled one
    by one, and each iterate the same.
    """
    if a.rows.shape[0] <= 2 * NORM_BLOCK:
        g = a.adjoint() @ a
        exponent = _exponent(g.rows, 0, 0)
        # the ufunc returns a new array, for real rows too
        rows = np.conjugate(g.rows)
        _scale(rows, -exponent)
        return [_MatvecPlan(rows, g.lo, g.step)], exponent
    exponent = _exponent(a.rows, a.lo, a.step) + _exponent(a.rows, 0, 0)
    return [_MatvecPlan(a.rows, a.lo, a.step, direct=True,
                        exponent=exponent), _MatvecPlan.of(a)], exponent


def operator_norm(a: TruncatedOperator, tol: float = 1e-10) -> float:
    """Largest singular value.

    For ``dim <= 64`` the value is certified: ``_bisection.gram_norm``
    brackets the largest eigenvalue of the banded Gram operator ``A* A`` by
    bisection on banded LDL* tests to within 4 ulps, with no dense matrix
    and no LAPACK call.  Otherwise it runs power iteration on ``A* A``
    started from the normalized all-ones vector (deterministic, so reports
    are reproducible).  Each step applies matrix-vector plans by
    stored diagonals, so it costs O(n * lattice rows) and no ``n x n`` array
    is formed.  The Gram operator ``G = A* A`` is formed once, as a banded
    product, when that costs no more than one block of steps through A and
    then A*: the product loops over the k nonzero rows of A's lattice, each
    pass over all b lattice rows, so it costs b * k length-n products
    against ``2 * NORM_BLOCK * k`` for the block, and G is formed when
    ``b <= 2 * NORM_BLOCK``.  Otherwise each step applies A and then A*,
    both from A's own rows, and the norm holds, besides A, its vectors and
    A's row and column sums, no copy of the band and no buffer of its rows
    (see ``_norm_plans``).
    The iteration runs in the band's dtype: on a float64 band, which real
    data gives, the iterates are real, and in exact arithmetic it is the
    same iteration as in complex.

    Steps run in blocks of up to NORM_BLOCK, written into one array without
    normalisation; the plans carry a power-of-two scale, so the iterates
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
    it is 1.8e-8 relative below the certified value.
    Nearly degenerate top singular values slow the iteration down;
    when POWER_ITERATION_CAP steps do not meet the rule, a warning is logged
    and the value is the certified one of ``_bisection.gram_norm``.  A step
    whose product is exactly zero ends the iteration with the value 0.
    """
    if not math.isfinite(tol) or tol <= 0:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    n = a.dim
    if n <= EXACT_NORM_DIM:
        # the bisection, like logging below, is imported on its two paths
        # only, which keeps it out of the CLI's start-up
        from . import _bisection
        return _bisection.gram_norm(a)
    plans, exponent = _norm_plans(a)
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
    unscale = 2.0 ** (exponent // 2)
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
    import logging
    from . import _bisection
    logging.getLogger(__name__).warning(
        "power iteration did not converge within %d iterations at dim %d; "
        "falling back to a certified bisection", POWER_ITERATION_CAP, n)
    return _bisection.gram_norm(a)


def interior_block(a: TruncatedOperator, margin: int) -> TruncatedOperator:
    """Square sub-block away from both truncation corners.

    Identities of the semi-infinite model hold on the truncation only outside
    a boundary collar whose width is set by the band widths involved; this is
    the tool that removes the collar.
    """
    _check_margin(a, margin)
    if margin == 0:
        return a
    return _columns(a, margin, a.dim - margin)


def _check_margin(a: TruncatedOperator, margin: int) -> None:
    if margin < 0:
        raise ValueError("margin must be >= 0")
    if 2 * margin >= a.dim:
        raise ValueError(f"margin {margin} too large for dim {a.dim}")


def interior_deviation(a: TruncatedOperator, b: TruncatedOperator,
                       margin: int) -> float:
    """Largest entry of ``|a - b|`` on the interior blocks at ``margin``.

    Read from both operands' stored rows: for each offset on either
    lattice, the entries at the interior columns whose row is interior too,
    a diagonal off a lattice being zero.  Each entry of ``a - b`` rounds
    once, and abs and max are exact, so the value is that of the difference
    of the two ``interior_block`` copies, bit for bit, with only one
    diagonal's difference held at a time.  A difference that is not finite
    raises the constructor's ValueError.
    """
    _check_margin(a, margin)
    _check_margin(b, margin)
    n = a.dim
    if n != b.dim:
        raise ValueError(f"dimension mismatch: {n - 2 * margin} vs "
                         f"{b.dim - 2 * margin}")
    worst = 0.0
    # the offsets on a's lattice, then those on b's alone
    for second, (x, y) in enumerate(((a, b), (b, a))):
        for d, row in zip(x._offsets(), x.rows):
            other = y._row(d)
            first, stop = margin + max(0, -d), n - margin - max(0, d)
            if first >= stop or second and other is not None:
                continue
            diff = row[first:stop] if other is None else \
                row[first:stop] - other[first:stop]
            top = float(np.abs(diff).max())
            if not math.isfinite(top) and not _finite(diff):
                raise ValueError("matrix entries must be finite")
            worst = max(worst, top)
    return worst


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
    coeffs = {}
    # the diagonals off the lattice are zero, which the series drops
    for k, diagonal in zip(a._offsets(), a.rows):
        if abs(k) > max_freq:
            continue
        ms = max(0, -k)
        me = n - 1 - max(0, k)
        start = ms + (me - ms + 1) // 2
        coeffs[k] = complex(diagonal[start:me + 1].mean())
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
        """The float64 truncation: ``w(m)`` at column m of one stored row,
        0 where ``m + offset`` falls outside the matrix.

        The weights come from Horner's rule, in place, on the integer
        numerators of the coefficients over their common denominator q,
        then one division by q.  ``sum |numerator_i| * (n - 1)**i`` bounds
        every step, so while it stays below 2**53 every step is exact and
        each weight is ``float(self.weight(m))`` bit for bit; a larger n
        raises ValueError."""
        q = math.lcm(*(c.denominator for c in self.coeffs))
        numerators = [int(c * q) for c in self.coeffs]
        if sum(abs(a) * max(n - 1, 0) ** i
               for i, a in enumerate(numerators)) >= 2 ** 53:
            raise ValueError(f"the weights at n = {n} are not exact in float64")
        m, weights = np.arange(n, dtype=float), np.zeros((1, n))
        for a in reversed(numerators):
            weights *= m
            weights += a
        weights /= q
        return TruncatedOperator(_Fresh(weights), self.offset)

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
    count of those columns.  They are the nonzero weights among the first n
    columns of the exact realisation at ``n + max(offset, 0)``, which
    keeps column n - 1 and zeroes the columns with ``m + offset < 0``:
    O(n) weights, no matrix, and independent of the zeros
    ``pattern_kernel_dims`` finds.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    [used] = np.nonzero(p.realize(n + max(p.offset, 0)).rows[0, :n])
    top = used[-1] + p.offset if used.size else -1
    return n - used.size, int(top) + 1 - used.size
