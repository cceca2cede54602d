"""The even Dirac operator on the doubled space, its spectrum and invariants.

The operator acts on two copies of ``l2(N)`` as

    D = [[0, dz], [dz*, 0]],

with the lowering derivative in the top-right corner and its adjoint in the
bottom-left; the grading is ``id (+) -id`` and the algebra acts as ``a (+) a``.
On the semi-infinite model the spectrum of D is exactly the integers with
multiplicity one; the truncation to 2n dimensions keeps the eigenvalues
``-(n-1), ..., n-1`` intact and adds a single spurious zero mode supported on
the last basis vector of the first summand (whose raising image is cut).

The doubled space is stored in Kronecker order, ``H (+) H = H (x) C^2``:
first-summand ``e_m`` is index ``2m``, second-summand ``e_m`` is ``2m + 1``.
Then D (offsets +-3), F and |D| (offsets -3..3), ``a (+) a`` and the grading
are banded ``TruncatedOperator``s of dimension 2n.  D, F, |D| and the grading
have real entries, so their bands are float64, and D's 2 x 2 blocks are
solved by a real eigensolve.  Only this module knows the order; others
compare through ``block_interior_deviation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators as op
from .reports import VerificationReport

__all__ = [
    "SpectrumReport",
    "FredholmIndexError",
    "dirac",
    "grading",
    "represent",
    "block_interior_deviation",
    "analytic_eigenvector",
    "spectrum",
    "polar_check",
    "polar_parts",
    "fredholm_index",
    "summability_partial_sums",
    "summability_report",
]

# The semi-infinite spectrum is integral, so anything inside (-1/2, 1/2)
# belongs to the zero cluster of a truncation.
ZERO_WINDOW = 0.5

# Kernel cutoff for forming the polar factor: eigenvalues of D below this
# fraction of the operator norm are treated as kernel directions.
PINV_CUTOFF = 1e-8

# Summability partial sums hold at most this many terms at once.
SUM_CHUNK = 1_000_000


class FredholmIndexError(RuntimeError):
    """Index computations disagree across truncations or methods."""


def _double(blocks: dict, n: int) -> op.TruncatedOperator:
    """Operator on the doubled space from its n x n blocks ``{(i, j): block}``.

    Entry ``(r, c)`` of block ``(i, j)`` goes to ``(2r + i, 2c + j)``, so the
    block's offset ``d`` becomes offset ``2d + i - j`` on the columns of
    parity ``j``; absent blocks are zero.  The band takes the blocks' common
    dtype, so real blocks give a float64 operator.
    """
    lo = min(2 * b.lo + i - j for (i, j), b in blocks.items())
    hi = max(2 * b.band[1] + i - j for (i, j), b in blocks.items())
    out = np.zeros((hi - lo + 1, 2 * n), dtype=np.result_type(
        *(b.diagonals for b in blocks.values())))
    for (i, j), b in blocks.items():
        out[2 * np.arange(b.lo, b.band[1] + 1) + i - j - lo, j::2] = b.diagonals
    return op.TruncatedOperator(op._Fresh(out), lo)


def dirac(n: int) -> op.TruncatedOperator:
    """D = [[0, dz], [dz*, 0]] on the doubled truncated space.

    The truncated bottom-left block is exactly the conjugate transpose of the
    truncated top-right block (the raising image of ``e_{n-1}`` is cut on both
    sides), so D is exactly Hermitian.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return _double({(0, 1): op.dz(n), (1, 0): op.dz_star(n)}, n)


def grading(n: int) -> op.TruncatedOperator:
    """Grading on the doubled space: +1 on the first summand, -1 on the second."""
    if n < 1:
        raise ValueError("n must be >= 1")
    one = op.identity(n)
    return _double({(0, 0): one, (1, 1): -one}, n)


def represent(a: op.TruncatedOperator) -> op.TruncatedOperator:
    """Diagonal doubling a -> a (+) a of the representation on the doubled space."""
    return _double({(0, 0): a, (1, 1): a}, a.dim)


def block_interior_deviation(a: op.TruncatedOperator, b: op.TruncatedOperator,
                             margin: int) -> float:
    """Largest ``|a - b|`` over the interiors, at ``margin``, of the four
    n x n blocks; in Kronecker order they make the interior at ``2 * margin``."""
    return op.interior_deviation(a, b, 2 * margin)


def analytic_eigenvector(k: int, n: int) -> np.ndarray:
    """Closed-form eigenvector of D for eigenvalue k on the doubled space.

    For k > 0 it is (e_{k-1} (+) e_k)/sqrt(2), for k < 0 the same with the
    first summand negated, and for k = 0 it is 0 (+) e_0.  These are exact
    eigenvectors of the truncation whenever ``|k| <= n - 1``.
    """
    if abs(k) > n - 1:
        raise ValueError(f"|k| must be <= n - 1 = {n - 1}, got k = {k}")
    v = np.zeros(2 * n, dtype=complex)
    if k == 0:
        v[1] = 1.0
        return v
    j = abs(k)
    s = 1.0 / math.sqrt(2.0)
    v[2 * (j - 1)] = s if k > 0 else -s
    v[2 * j + 1] = s
    return v


@dataclass
class SpectrumReport:
    """Eigenvalues, multiplicities and truncation-artifact flags."""

    eigenvalues: list      # all 2n, sorted ascending
    residuals: list        # per eigenpair, same order
    spurious: list         # indices into the sorted list
    distinct_values: list  # one entry per eigenvalue cluster
    multiplicities: list   # cluster sizes; sums to 2n


def _eigensystem(h: op.TruncatedOperator) -> list:
    """Eigensystem of Hermitian ``h``, one component at a time.

    The components of the nonzero pattern are read off the stored diagonals
    by label propagation, each index ending labelled with the smallest index
    of its component; those of one size share a batched eigensolve.  Returns
    one ``(idx, block, w, v)`` per component size: ``idx[c]`` lists the
    indices of component c in increasing order, ``block[c]`` is ``h`` on
    them, and eigenpair ``w[c, t]``, ``v[c, :, t]`` is filed under index
    ``idx[c, t]``.  Exact for any Hermitian ``h``; for D every component has
    at most two indices.
    """
    diag, cols = np.nonzero(h.diagonals)
    rows = cols + h.lo + diag
    labels = np.arange(h.dim)
    while True:
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    order = np.argsort(labels, kind="stable")
    # a component starts where the sorted labels change (np.unique would do,
    # but in numpy >= 2 it imports numpy.ma, which costs start-up time)
    ordered = labels[order]
    starts = np.flatnonzero(
        np.concatenate(([True], ordered[1:] != ordered[:-1])))
    sizes = np.diff(np.append(starts, h.dim))
    lo, hi = h.band
    parts = []
    for size in np.flatnonzero(np.bincount(sizes)):
        idx = order[starts[sizes == size][:, None] + np.arange(size)]
        j = idx[:, :, None] - idx[:, None, :] - lo
        picked = h.diagonals[j.clip(0, hi - lo), idx[:, None, :]]
        block = np.where((j >= 0) & (j <= hi - lo), picked, 0)
        parts.append((idx, block, *np.linalg.eigh(block)))
    return parts


def spectrum(d: op.TruncatedOperator, tol: float = 1e-10) -> SpectrumReport:
    """Full Hermitian eigendecomposition with the boundary zero mode flagged.

    The truncation has the exact eigenvalues ``+-1, ..., +-(n-1)`` once each,
    plus a double zero: the true mode 0 (+) e_0 and one spurious mode created
    by cutting the raising image of first-summand ``e_{n-1}``.  The two zero
    modes are separate components of D's nonzero pattern, so the eigensolve
    returns each as its own basis vector.  A zero mode is flagged spurious
    when its eigenvector vanishes on the second summand, where the
    semi-infinite kernel 0 (+) e_0 lives; it sorts before the true zero mode.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    evals = np.zeros(d.dim)
    residuals = np.zeros(d.dim)
    on_second = np.zeros(d.dim, dtype=bool)
    for idx, block, w, v in _eigensystem(d):
        evals[idx] = w
        residuals[idx] = np.linalg.norm(block @ v - v * w[:, None, :], axis=1)
        # second-summand indices are the odd ones
        on_second[idx] = ((idx % 2 == 1)[:, :, None] & (v != 0)).any(axis=1)
    flags = (np.abs(evals) < ZERO_WINDOW) & ~on_second
    # the true zero mode (index 1) precedes the spurious one (index 2n - 2),
    # so ties go to the flagged mode to keep it first of the double zero
    order = np.lexsort((~flags, evals))
    evals, residuals, flags = evals[order], residuals[order], flags[order]

    distinct, mults = [], []
    group_tol = max(tol, 1e-9)
    for ev in evals:
        if distinct and abs(ev - distinct[-1]) <= group_tol:
            mults[-1] += 1
        else:
            distinct.append(float(ev))
            mults.append(1)
    return SpectrumReport(
        eigenvalues=[float(v) for v in evals],
        residuals=[float(r) for r in residuals],
        spurious=[int(i) for i in np.where(flags)[0]],
        distinct_values=distinct,
        multiplicities=mults,
    )


# ----------------------------------------------------------------------
# polar decomposition
# ----------------------------------------------------------------------

def polar_parts(n: int) -> tuple[op.TruncatedOperator, op.TruncatedOperator]:
    """(F, |D|) of the polar decomposition D = F |D|.

    Both come from the eigensystem of D, one component at a time:
    ``|D| = V |lambda| V*`` and ``F = V sign(lambda) V*``, where eigenvalues
    below ``PINV_CUTOFF`` times the operator norm count as kernel and get
    sign 0, so F vanishes on the kernel of |D|.  Each component's product is
    scattered into a band array, so both are banded.
    """
    parts = _eigensystem(dirac(n))
    top = max(np.abs(w).max() for _, _, w, _ in parts)
    # the indices of a component increase, so its first and last are the
    # furthest apart
    reach = max(int((idx[:, -1] - idx[:, 0]).max()) for idx, _, _, _ in parts)
    f = np.zeros((2 * reach + 1, 2 * n),
                 dtype=np.result_type(*(v for _, _, _, v in parts)))
    absd = np.zeros_like(f)
    for idx, _, w, v in parts:
        s = np.abs(w)
        sign = np.where(s > PINV_CUTOFF * top, np.sign(w), 0.0)
        vh = v.conj().swapaxes(1, 2)
        at = (idx[:, :, None] - idx[:, None, :] + reach, idx[:, None, :])
        f[at] = (v * sign[:, None, :]) @ vh
        absd[at] = (v * s[:, None, :]) @ vh
    return (op.TruncatedOperator(op._Fresh(f), -reach),
            op.TruncatedOperator(op._Fresh(absd), -reach))


def polar_check(n: int, margin: int, tol: float = 1e-10) -> VerificationReport:
    """Verify D = F |D| with |D| = diag(N+1, N) and F = [[0, S*], [S, 0]].

    All comparisons run on interior blocks of each n x n sub-block: the
    boundary column ``e_{n-1}`` of the first summand is corrupted by the
    truncation (its raising image is cut), which turns the last diagonal
    entry of the N+1 block into a kernel direction.
    """
    if margin < 1:
        raise ValueError("margin must be >= 1")
    if 2 * margin >= n:
        raise ValueError(f"margin {margin} too large for n = {n}")
    f, absd = polar_parts(n)
    num = op.number(n)
    expected_absd = _double({(0, 0): num + op.identity(n), (1, 1): num}, n)
    expected_f = _double({(0, 1): op.shift_adjoint(n), (1, 0): op.shift(n)}, n)
    dev_absd = block_interior_deviation(absd, expected_absd, margin)
    dev_f = block_interior_deviation(f, expected_f, margin)
    dev_rec = block_interior_deviation(f @ absd, dirac(n), margin)
    # full-matrix deviation, collar included: shows the boundary artifact size
    full_absd_dev = block_interior_deviation(absd, expected_absd, 0)

    worst = max(dev_absd, dev_f, dev_rec)
    return VerificationReport(
        name="polar_decomposition",
        passed=worst < tol,
        max_deviation=worst,
        tolerance=tol,
        n=n,
        margin=margin,
        details={
            "absdirac_interior_deviation": dev_absd,
            "factor_interior_deviation": dev_f,
            "recomposition_interior_deviation": dev_rec,
            "absdirac_full_deviation_with_collar": full_absd_dev,
        },
    )


# ----------------------------------------------------------------------
# Fredholm index
# ----------------------------------------------------------------------

def fredholm_index(n_small: int, n_large: int) -> int:
    """Index of the off-diagonal polar factor block, computed two ways.

    The polar factor F that ``polar_parts`` builds from the eigensystem of D
    is matched, all four blocks, against ``[[0, S*], [S, 0]]``, whose
    top-right block maps the negative graded summand to the positive one
    with the adjoint-shift band pattern.  The index of that pattern is then
    computed (a) on the semi-infinite pattern and (b) from rectangular
    truncations at both sizes, both exactly; all three must agree.
    """
    if not (2 <= n_small < n_large):
        raise ValueError("need 2 <= n_small < n_large")
    f, _ = polar_parts(n_small)
    expected = _double({(0, 1): op.shift_adjoint(n_small),
                        (1, 0): op.shift(n_small)}, n_small)
    pattern_dev = block_interior_deviation(f, expected, 0)
    if pattern_dev > 1e-6:
        raise FredholmIndexError(
            f"polar factor deviates from [[0, S*], [S, 0]] by {pattern_dev:.3e}")

    pattern = op.shift_adjoint_pattern()
    ker, coker = op.pattern_kernel_dims(pattern)
    exact = ker - coker

    numeric = []
    for size in (n_small, n_large):
        k, c = op.rectangular_kernel_dims(pattern, size)
        numeric.append(k - c)
    if numeric[0] != numeric[1]:
        raise FredholmIndexError(
            f"rectangular index unstable across truncations: "
            f"{numeric[0]} at n={n_small} vs {numeric[1]} at n={n_large}")
    if numeric[0] != exact:
        raise FredholmIndexError(
            f"numeric index {numeric[0]} disagrees with exact pattern index {exact}")
    return exact


# ----------------------------------------------------------------------
# summability
# ----------------------------------------------------------------------

def summability_partial_sums(epsilon: float, cutoffs) -> list:
    """Partial sums ``sum_{|k| <= K} (1 + |k|)^{-(1+epsilon)}``, one per cutoff K.

    One pass over ``k = 1..max K``, at most ``SUM_CHUNK`` terms at a time:
    each term is summed once, and the running total is read at each cutoff.
    """
    stops = sorted(set(cutoffs))
    if stops and stops[0] < 1:
        raise ValueError("K must be >= 1")
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    sums = {}
    total = 1.0
    start = 1
    for stop in stops:
        while start <= stop:
            end = min(stop, start + SUM_CHUNK - 1)
            terms = np.arange(start + 1.0, end + 2.0)  # 1 + k, exactly
            terms **= -(1.0 + epsilon)
            total += 2.0 * float(np.sum(terms))
            start = end + 1
        sums[stop] = total
    return [sums[k] for k in cutoffs]


def summability_report(epsilon: float, big_k: int) -> dict:
    """Partial sums plus a convergence diagnosis.

    ``curve`` holds ``(K', partial sum)`` at 24 log-spaced prefixes ``K'``,
    the last of them K.  For epsilon = 0 the sums at K and 2K differ by
    about 2 ln 2 (logarithmic divergence, so the resolvent-weight sequence
    is not summable).  For epsilon > 0 the tail beyond K is bounded by
    ``2 K^{-eps}/eps`` by the integral test, giving a bracket around the
    limit and an extrapolated value; ValueError when that bound overflows,
    as it brackets nothing.
    """
    if big_k < 1:
        raise ValueError("K must be >= 1")
    points = sorted(set(int(v) for v in np.geomspace(1, big_k, 24)))
    *curve, s2 = summability_partial_sums(epsilon, [*points, 2 * big_k])
    s = curve[-1]
    diff = s2 - s
    out = {
        "epsilon": float(epsilon),
        "K": int(big_k),
        "partial_sum": s,
        "partial_sum_2K": s2,
        "doubling_difference": diff,
        "converges": epsilon > 0,
        "curve": list(zip(points, curve)),
    }
    if epsilon > 0:
        tail_upper = 2.0 * big_k ** (-epsilon) / epsilon
        if not math.isfinite(tail_upper):
            raise ValueError(f"epsilon {epsilon!r} is too small: the tail "
                             "bound 2 K^-eps/eps overflows")
        tail_lower = 2.0 * (big_k + 2.0) ** (-epsilon) / epsilon
        out["tail_bound"] = tail_upper
        out["extrapolated_limit"] = s + (tail_lower + tail_upper) / 2.0
        out["note"] = "summable: tail bound from the integral test"
    else:
        out["tail_bound"] = None
        out["extrapolated_limit"] = None
        out["expected_doubling"] = 2.0 * math.log(2.0)
        out["note"] = ("not trace class at epsilon=0: partial sums grow like "
                       "2 ln K, each doubling of K adds about 2 ln 2")
    return out
