"""The largest singular value of a banded operator, certified by bisection.

``gram_norm(a)`` brackets the largest eigenvalue of the Gram operator
``G = A* A``: ``lambda_max(G) < t`` holds exactly when every pivot of the
unpivoted LDL* factorisation of ``tI - G`` is positive, and on a positive
definite matrix that factorisation is backward stable (Golub & Van Loan,
*Matrix Computations*, 4th ed., section 4.3), so each test decides for a
matrix within a few rounding errors of ``tI - G``.  Each pass tests a batch
of shifts spread evenly over the bracket and keeps the two neighbours at
which the test turns, until the bracket is at most 4 ulps wide.

G is formed once as a banded product and scaled by ``2**-e``, the least
even power of two above its largest absolute row sum, which bounds its
eigenvalues; scaling by a power of two is exact, so the bracket starts at
``[largest diagonal entry, 1]``.  G's nonzero diagonals lie on a lattice of
step s, so the indices of each residue class mod s couple only to each
other: G splits into s independent classes, each banded with half-bandwidth
``w = h / s`` for G's highest offset h, and the shorter classes are padded
with uncoupled rows.  The factorisation runs on all classes and all shifts
of a pass at once, one Python step per class row, and holds a window of
``w + 1`` rows of the trailing matrix for each: its working set, besides G's
band, is classes x shifts x ``(w + 1)**2`` entries.  No dense matrix is
formed and neither LAPACK nor BLAS is called.
"""

from __future__ import annotations

import math

import numpy as np

from .operators import TruncatedOperator, _exponent, _scale

# a pass tests as many shifts as keep a step's windows near BATCH_WORK real
# numbers, and at most MAX_SHIFTS: fewer shifts spend a step's fixed cost
# on fewer tests, more spend more arithmetic per bit (each pass of k shifts
# gains log2(k + 1) bits)
BATCH_WORK = 2 ** 12
MAX_SHIFTS = 31


def gram_norm(a: TruncatedOperator) -> float:
    """``sqrt(lambda_max(A* A))``: the midpoint of a bracket of the largest
    eigenvalue of the Gram operator at most 4 ulps wide, its square root
    scaled back by ``2**(e/2)``.  The zero operator gives 0.0."""
    g = a.adjoint() @ a
    if not g.rows.any():
        return 0.0
    exponent = _exponent(g.rows, 0, 0)
    band = _classes(g, exponent)
    rows, classes, width = band.shape
    # G is positive semidefinite: its largest diagonal entry bounds the
    # eigenvalue from below, and 2**e, scaled to 1, from above
    lo, hi = -float(band[:, :, -1].real.min()), 1.0
    reals = classes * width ** 2 * (band.itemsize // 8)
    shifts = max(1, min(MAX_SHIFTS, BATCH_WORK // reals))
    while hi - lo > 4 * math.ulp(hi):
        t = np.linspace(lo, hi, shifts + 2)[1:-1]
        failed = _failures(band, t)
        lo = float(t[failed - 1]) if failed else lo
        hi = float(t[failed]) if failed < shifts else hi
    return math.ldexp(math.sqrt(0.5 * (lo + hi)), exponent // 2)


def _classes(g: TruncatedOperator, exponent: int) -> np.ndarray:
    """The lower band of ``-2**-exponent * G`` by residue classes:
    ``band[r, c, w - k]`` is its entry in row r of class c and the column k
    rows of that class to the left, for ``k = 0..w``, and 0 outside the
    matrix.  G is read from its diagonals of offset 0 and above.  A
    diagonal G puts each index in a class of its own."""
    n = g.dim
    lower = g.rows[-g.lo // g.step:]
    width = lower.shape[0]
    step = g.step if width > 1 else n
    rows = -(-n // step)
    padded = np.zeros((width, rows * step), dtype=g.rows.dtype)
    np.negative(lower, out=padded[:, :n])
    _scale(padded, -exponent)
    band = np.zeros((rows, step, width), dtype=padded.dtype)
    for k, diagonal in enumerate(padded):
        # column m = c + (r - k) * step of offset k * step is row r of class c
        band[k:, :, width - 1 - k] = diagonal.reshape(rows, step)[:rows - k]
    return band


def _failures(band: np.ndarray, t: np.ndarray) -> int:
    """How many of the ascending shifts t fail the test: ``tI - G`` has a
    pivot that is not positive in some class.  A shift below one that fails
    fails too, so each pass drops the failed shifts from the front of the
    batch and divides by no pivot of theirs.

    The window of a class and a shift holds the trailing matrix of the
    factorisation on the next ``w + 1`` class rows, or on all that are left:
    a step takes its first row as the pivot, subtracts the rank-one update
    from the rest, and appends the next row of ``tI - G``.  The matrix is
    Hermitian, so only the lower triangle is kept; the rank-one update
    writes finite values above it that are never read."""
    rows, classes, width = band.shape
    shifts = t.size
    # each buffer is read as (shift, class, row, column) to append a row of
    # every class, and as (shift and class, row, column) for the update
    buffers = [np.zeros((shifts, classes, width, width), dtype=band.dtype)
               for _ in range(2)]
    column = np.repeat(t, classes)
    for i in range(width):
        buffers[0][:, :, i, :i + 1] = band[i, :, width - 1 - i:]
    at = np.arange(width)
    buffers[0].reshape(-1, width, width)[:, at, at] += column[:, None]
    complex_ = band.dtype.kind == "c"
    failed, size, steps = 0, width, None
    for r in range(rows):
        if steps is None or rows - r < size:
            size = min(width, rows - r)
            steps = _steps(buffers, failed, size, column)
        pivots = steps[r % 2][0]
        if not np.minimum.reduce(pivots, axis=None) > 0:
            failed += 1 + int(np.flatnonzero(~(pivots > 0))[-1]) // classes
            if failed == shifts:
                break
            steps = _steps(buffers, failed, size, column)
        if size == 1:
            continue
        pivots, below, across, scaled, part, trailing, row, diagonal, \
            shift = steps[r % 2]
        np.divide(below, pivots, out=scaled)
        np.multiply(scaled, np.conj(across) if complex_ else across, out=part)
        np.subtract(trailing, part, out=part)
        if r + width < rows:
            row[...] = band[r + width]
            diagonal += shift
    return failed


def _steps(buffers: list, failed: int, size: int, column: np.ndarray) -> list:
    """For each buffer as the window, the views a step of ``_failures``
    reads and writes while the failed shifts and the window's size stay
    as they are: the pivots, the column below them, its scaled copy, the
    update in the other buffer, the trailing matrix it is subtracted from,
    the row appended there and its diagonal entry, with the shifts to add
    to it."""
    shifts, classes, width = buffers[0].shape[:3]
    first = failed * classes
    # the scaled column, broadcast across the update's columns
    scaled = np.empty((shifts * classes - first, size - 1, 1),
                      dtype=buffers[0].dtype)
    views = []
    for window, spare in (buffers, buffers[::-1]):
        flat = window.reshape(-1, width, width)[first:]
        other = spare.reshape(-1, width, width)[first:]
        # the pivots and the column below them, shaped to broadcast, and
        # that column laid across the update's columns
        below = flat[:, 1:size, :1]
        views.append((flat[:, :1, :1].real, below, below.transpose(0, 2, 1),
                      scaled,
                      other[:, :size - 1, :size - 1], flat[:, 1:size, 1:size],
                      spare[failed:, :, width - 1],
                      other[:, width - 1, width - 1], column[first:]))
    return views
