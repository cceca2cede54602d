"""Finite truncations of the operator algebra on one-sided sequence space.

All operators act on ``l2(N)`` with basis ``e_0, e_1, ...`` and are stored as
their compressions to ``span{e_0, ..., e_{n-1}}``, with the convention
``A[r, c]`` = coefficient of ``e_r`` in the image of ``e_c``.  A Toeplitz
matrix built from a symbol ``f`` therefore has entries ``A[r, c] = fhat(r - c)``.

Every operator of the triple is banded, or banded plus a small top-left
block, so a compression is stored by its diagonals: a lowest offset ``lo`` and
a complex ``(num_diagonals, n)`` array whose row ``j`` holds the diagonal of
offset ``lo + j``, indexed by column.  Construction, sums, products,
adjoints, interior blocks and symbol recovery cost O(n * bandwidth), and so
does each power-iteration step of ``operator_norm``, which applies the
banded Gram operator ``A* A`` (or A and then A*, for wide bands) by diagonals
through matrix-vector plans built once per norm, skipping all-zero diagonals
and in float64 when a band is real, and checks its stop rule once per block
of steps; only ``TruncatedOperator.dense`` forms an ``n x n`` array.

Transient memory is bounded by the band too: an operation allocates its
result band once and the new operator adopts it without a copy, column
shifts are strided views (of the band itself, or of a zero-padded copy of it
or of one diagonal), and no integer index array of the band's shape is ever
formed.  So besides its operands an operation holds its result, at most one
band of partial products and boolean masks of a sixteenth of a band.

Besides the concrete matrices, ``BandPattern`` describes single weighted
shifts of the semi-infinite model exactly (integer/rational weights), which is
what makes kernel/cokernel dimensions and the index computable without any
truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .fourier import FourierSeries

__all__ = [
    "TruncatedOperator",
    "BandPattern",
    "PowerIterationError",
    "toeplitz",
    "identity",
    "shift",
    "shift_adjoint",
    "number",
    "dz",
    "dz_star",
    "finite_rank",
    "commutator",
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


class PowerIterationError(RuntimeError):
    """Norm estimation failed to converge within the iteration cap."""


def _outside(lo: int, count: int, n: int) -> np.ndarray:
    """Mask of the band entries ``[j, m]`` whose row ``m + lo + j`` is
    outside ``0..n-1``, broadcast from a column of offsets and a row of
    column indices."""
    offsets = np.arange(lo, lo + count)[:, None]
    columns = np.arange(n)
    mask = columns < -offsets
    mask |= columns >= n - offsets
    return mask


def _shift_columns(row: np.ndarray, shifts: range) -> np.ndarray:
    """Read-only view ``out[j, m] = row[m + shifts[j]]``, 0 where that
    column is outside ``0..n-1``.

    The shifts rise in equal steps, so the view is one strided window over
    a copy of the row padded with zeros once: row j of the window starts
    ``shifts[j]`` columns into the padded row.
    """
    n = row.shape[0]
    before, after = max(0, -shifts[0]), max(0, shifts[-1])
    padded = np.zeros(before + n + after, dtype=row.dtype)
    padded[before:before + n] = row
    size = padded.itemsize
    return np.lib.stride_tricks.as_strided(
        padded[before + shifts[0]:], shape=(len(shifts), n),
        strides=(shifts.step * size, size), writeable=False)


class _Fresh:
    """A complex band array that its caller has just allocated and holds
    no other reference to: ``TruncatedOperator`` adopts it without a copy."""

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
    dense block enters through ``finite_rank``.  Operators are immutable
    values: arithmetic returns new instances.  A sum, difference, scalar
    multiple, product or adjoint hands the band it has just computed to the
    new instance, which adopts it without a second copy and still zeroes it
    outside the matrix, checks it finite and makes it read-only.  So an
    operation holds, besides its operands, its result band, at most one band
    of partial products, and the boolean masks of those checks.
    """

    __slots__ = ("lo", "diagonals")

    def __init__(self, diagonals, lo: int):
        fresh = isinstance(diagonals, _Fresh)
        band = np.asarray(diagonals.band if fresh else diagonals)
        if band.ndim != 2 or band.shape[1] < 1:
            raise ValueError(
                f"expected a (diagonals, n) band array, got shape {band.shape}")
        count, n = band.shape
        lo = int(lo)
        first, last = max(lo, 1 - n), min(lo + count - 1, n - 1)
        if first > last:
            lo, band = 0, np.zeros((1, n), dtype=complex)
        else:
            trimmed = last - first < count - 1
            if not fresh or trimmed or band.dtype != complex:
                band = np.array(band[first - lo:last - lo + 1], dtype=complex)
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
        """``A*[c + d, c] = conj(A[c, c + d])``, read by one strided view.

        Row j of the result (offset ``j - hi``) takes row ``count-1-j`` of A
        at column ``m + j - hi``: entry ``(count-1)*n - hi + m - j*(n-1)`` of
        the flat band, so one view of stride ``-(n-1)`` reads every row and
        the conjugates go straight into the result.  Where ``m + j - hi``
        leaves ``0..n-1`` the view reads a neighbouring diagonal instead;
        those entries are outside the matrix and the constructor zeroes them.
        The columns before ``max(lo, 0)`` and from ``n + min(hi, 0)`` on are
        outside the matrix in every row, so the view leaves them out and
        never reads past the band.
        """
        lo, hi = self.band
        count, n = self.diagonals.shape
        flat = self.diagonals.ravel()
        first, stop = max(lo, 0), n + min(hi, 0)
        view = np.lib.stride_tricks.as_strided(
            flat[(count - 1) * n - hi + first:], shape=(count, stop - first),
            strides=(-(n - 1) * flat.itemsize, flat.itemsize),
            writeable=False)
        out = np.zeros((count, n), dtype=complex)
        np.conjugate(view, out=out[:, first:stop])
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
        out = np.zeros((hi - lo + 1, self.dim), dtype=complex)
        a, b = self.diagonals, other.diagonals
        out[self.lo - lo:self.lo - lo + a.shape[0]] = a
        rows = out[other.lo - lo:other.lo - lo + b.shape[0]]
        ufunc(rows, b, out=rows)
        return TruncatedOperator(_Fresh(out), lo)

    def __mul__(self, scalar):
        if isinstance(scalar, TruncatedOperator):
            return NotImplemented
        return TruncatedOperator(_Fresh(scalar * self.diagonals), self.lo)

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def __matmul__(self, other):
        """Product by diagonals: offset p of self times offset q of other adds
        ``a_p[c + q] * b_q[c]`` to offset p + q at column c.

        The Python loop runs over the nonzero diagonals of the narrower
        factor; each step is vectorised across all diagonals of the other.
        Skipping an all-zero diagonal drops only additions of zero, which
        leave every entry as it is.  Each step holds one band of partial
        products beside the result; when the loop runs over self, diagonal
        ``a_p`` read at every shift q of other is a strided view of one
        zero-padded copy of that row.  The result adopts the accumulated band
        as it is.
        """
        if not isinstance(other, TruncatedOperator):
            return NotImplemented
        self._check_dim(other)
        a, b = self.diagonals, other.diagonals
        n = self.dim
        out = np.zeros((a.shape[0] + b.shape[0] - 1, n), dtype=complex)
        if b.shape[0] <= a.shape[0]:
            for j, b_q in enumerate(b):
                if not b_q.any():
                    continue
                q = other.lo + j
                rows = out[j:j + a.shape[0]]
                if q >= 0:
                    rows[:, :n - q] += a[:, q:] * b_q[:n - q]
                else:
                    rows[:, -q:] += a[:, :n + q] * b_q[-q:]
        else:
            q = range(other.lo, other.lo + b.shape[0])
            for i, a_p in enumerate(a):
                if not a_p.any():
                    continue
                out[i:i + b.shape[0]] += _shift_columns(a_p, q) * b
        return TruncatedOperator(_Fresh(out), self.lo + other.lo)

    def _check_dim(self, other):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------

def toeplitz(f: FourierSeries, n: int) -> TruncatedOperator:
    """Truncated Toeplitz matrix of symbol f: entries ``fhat(r - c)``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    coeffs = {k: v for k, v in f.coeffs.items() if abs(k) < n}
    if not coeffs:
        return TruncatedOperator(np.zeros((1, n)), 0)
    lo = min(coeffs)
    band = np.zeros((max(coeffs) - lo + 1, n), dtype=complex)
    for k, v in coeffs.items():
        band[k - lo] = v
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
    """Embed a k x k block into the top-left corner of an n x n matrix."""
    b = np.asarray(block, dtype=complex)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError(f"block must be square, got shape {b.shape}")
    k = b.shape[0]
    if k > n:
        raise ValueError(f"block size {k} exceeds truncation size {n}")
    if k == 0:
        return TruncatedOperator(np.zeros((1, n)), 0)
    band = np.zeros((2 * k - 1, n), dtype=complex)
    for d in range(1 - k, k):
        # np.diagonal(b, -d) holds b[m + d, m] from column max(0, -d) on
        first = max(0, -d)
        band[d + k - 1, first:first + k - abs(d)] = np.diagonal(b, -d)
    return TruncatedOperator(_Fresh(band), 1 - k)


# ----------------------------------------------------------------------
# algebra and numerics
# ----------------------------------------------------------------------

def commutator(a: TruncatedOperator, b: TruncatedOperator) -> TruncatedOperator:
    """[a, b] = ab - ba."""
    return a @ b - b @ a


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
    sums of A.  A band whose imaginary part is exactly zero is kept in
    float64, so a real vector stays real; such a plan takes real vectors
    only.
    """

    __slots__ = ("rows", "hi", "step", "lead", "trail", "exponent")

    def __init__(self, x: TruncatedOperator):
        band = x.diagonals
        if not band.imag.any():
            band = band.real
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


def operator_norm(a: TruncatedOperator, tol: float = 1e-10,
                  max_iterations: int = POWER_ITERATION_CAP) -> float:
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
    When the bands are real the iteration runs in float64: the iterates are
    then real, so in exact arithmetic it is the same iteration as in complex.

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
    when ``max_iterations`` steps do not meet the rule, a PowerIterationError
    signals the caller to fall back to a full decomposition.  A step whose
    product is exactly zero ends the iteration with the value 0.
    """
    if not math.isfinite(tol) or tol <= 0:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
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
    while done < max_iterations:
        count = min(size, max_iterations - done)
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
    raise PowerIterationError(
        f"operator norm did not converge within {max_iterations} iterations "
        f"(dim {n}); consider a full decomposition")


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
    """Exact structural description of banded shift-type operators.

    ``offsets[i]`` places an entry at row ``m + offsets[i]``, column ``m``,
    with weight ``weights[i](m)`` given by exact rational polynomial
    coefficients in ascending order.  The semi-infinite kernel and cokernel
    are computable exactly when the pattern is a single weighted shift.
    """

    offsets: tuple
    weights: tuple  # one tuple of Fraction coefficients per offset

    @classmethod
    def weighted_shift(cls, offset: int, poly_coeffs) -> "BandPattern":
        coeffs = tuple(Fraction(c) for c in poly_coeffs)
        return cls((int(offset),), (coeffs,))

    def weight(self, i: int, m: int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.weights[i]):
            acc = acc * m + c
        return acc

    def realize(self, n: int) -> TruncatedOperator:
        """Float truncation, for cross-checks against the exact computations."""
        lo = min(self.offsets)
        band = np.zeros((max(self.offsets) - lo + 1, n), dtype=complex)
        for i, d in enumerate(self.offsets):
            band[d - lo] = [float(self.weight(i, col)) for col in range(n)]
        return TruncatedOperator(_Fresh(band), lo)

    def nonnegative_zeros(self, i: int) -> list[int]:
        """All integers m >= 0 with ``weights[i](m) == 0``, found exactly."""
        coeffs = self.weights[i]
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
        return [m for m in range(0, math.ceil(bound) + 1) if self.weight(i, m) == 0]


def shift_pattern() -> BandPattern:
    return BandPattern.weighted_shift(1, [1])


def shift_adjoint_pattern() -> BandPattern:
    return BandPattern.weighted_shift(-1, [1])


def dz_pattern() -> BandPattern:
    return BandPattern.weighted_shift(-1, [0, 1])


def dz_star_pattern() -> BandPattern:
    return BandPattern.weighted_shift(1, [1, 1])


def pattern_kernel_dims(p: BandPattern) -> tuple[int, int]:
    """Exact (kernel, cokernel) dimensions of a single weighted shift.

    Computed on the semi-infinite model, never from a truncation: for offset d
    and weight w, the kernel collects the columns m with ``w(m) == 0`` or
    ``m + d < 0``, and the cokernel the rows ``r >= 0`` that are not of the
    form ``m + d`` with ``w(m) != 0``.
    """
    if len(p.offsets) != 1:
        raise ValueError(
            "kernel/cokernel dimensions are exact only for single weighted "
            "shifts; use a rectangular truncation for multi-offset patterns")
    d = p.offsets[0]
    zeros = p.nonnegative_zeros(0)
    ker = len(set(zeros) | set(range(0, max(0, -d))))
    coker = max(d, 0) + sum(1 for m in zeros if m >= max(-d, 0))
    return ker, coker


def rectangular_kernel_dims(p: BandPattern, n: int) -> tuple[int, int]:
    """Numeric (kernel, cokernel) dimensions from a rectangular truncation.

    The domain is the first n columns; the codomain is every row from 0 up to
    the largest row reachable from the domain.  Square truncations always have
    index zero and cannot see the Fredholm index, which is why the codomain
    must follow the band.  The rank is numpy's, at its default tolerance.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    reachable = [m + d
                 for i, d in enumerate(p.offsets)
                 for m in range(n)
                 if m + d >= 0 and p.weight(i, m) != 0]
    if not reachable:
        return n, 0
    top = max(reachable)
    m = np.zeros((top + 1, n), dtype=float)
    for i, d in enumerate(p.offsets):
        for col in range(n):
            row = col + d
            if 0 <= row <= top:
                m[row, col] = float(p.weight(i, col))
    rank = int(np.linalg.matrix_rank(m))
    return n - rank, (top + 1) - rank
