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
Then D and F (offsets +-3), |D| (diagonal), ``a (+) a`` and the grading are
banded ``TruncatedOperator``s of dimension 2n.  D, F, |D| and the grading
have real entries, so their bands are float64.  Only this module knows
the order; others compare through ``block_interior_deviation``.

Every component of D is a singleton or a pair ``[[0, k], [k, 0]]``, read
off its stored rows into one table (``_pair_table``).  A pair's
eigenvalues are ``-|k|`` and ``|k|``, its part of |D| is ``|k|`` on the
diagonal and its part of F is ``sign k`` off it, so D's spectrum, |D| and
F are written from k with no LAPACK or BLAS call, and come out exact: the
eigenvalues are the integers, every residual is 0.0 and |D| and F match
their closed forms bit for bit.  So ``spectrum``, ``polar_check`` and
``fredholm_index`` decide exactly, with no tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators as op
from .reports import VerificationReport

__all__ = [
    "SpectrumReport",
    "DiracStructureError",
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

# Summability partial sums hold at most this many terms at once.
SUM_CHUNK = 1_000_000


class FredholmIndexError(RuntimeError):
    """Index computations disagree across truncations or methods."""


class DiracStructureError(ValueError):
    """An operator read as D does not split into D's pairs and singletons."""


def _double(blocks: dict, n: int) -> op.TruncatedOperator:
    """Operator on the doubled space from its n x n blocks ``{(i, j): block}``.

    Entry ``(r, c)`` of block ``(i, j)`` goes to ``(2r + i, 2c + j)``, so the
    block's offset ``d`` becomes offset ``2d + i - j`` on the columns of
    parity ``j``, and its lattice of step s one of step 2s; absent blocks
    are zero.  The result's lattice is the smallest that holds every
    block's offsets, so D's offsets -3 and 3 take 2 rows.  The band takes the
    blocks' common dtype, so real blocks give a float64 operator.
    """
    offsets = {(i, j): range(2 * b.lo + i - j, 2 * b.band[1] + i - j + 1,
                             2 * b.step) for (i, j), b in blocks.items()}
    lattice = op._lattice([d for each in offsets.values() for d in each])
    out = np.zeros((len(lattice), 2 * n), dtype=np.result_type(
        *(b.rows for b in blocks.values())))
    for (i, j), b in blocks.items():
        out[op._slots(offsets[i, j], lattice), j::2] = b.rows
    return op.TruncatedOperator(op._Fresh(out, lattice.step), lattice.start)


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
    """Eigenvalues, multiplicities and truncation-artifact flags, each a
    one-dimensional numpy array: float64 values, int64 indices and counts.
    Eight bytes an entry, where Python lists of floats took about 32.  A
    cluster is a run of equal eigenvalues."""

    eigenvalues: np.ndarray      # all 2n, sorted ascending
    residuals: np.ndarray        # per eigenpair, same order
    spurious: np.ndarray         # indices into the sorted eigenvalues
    distinct_values: np.ndarray  # one entry per eigenvalue cluster
    multiplicities: np.ndarray   # cluster sizes; sums to 2n


def _pair_table(h: op.TruncatedOperator) -> tuple:
    """The components of real symmetric ``h``, which must be pairs
    ``[[0, k], [k, 0]]`` and singletons, as D's are: ``(diag, first,
    second, k)``, ``h``'s diagonal and, for each pair, its indices
    ``first < second`` and its entry k.  Every index in no pair is a
    singleton, with ``e_i`` as eigenvector and its diagonal entry as
    eigenvalue.

    Each nonzero entry of a stored row below the diagonal, at offset
    ``d > 0`` and column c, pairs index c with index ``c + d``, in the
    order of the stored rows.  An operator that is complex, that is not
    exactly its own transpose, that pairs an index twice or whose pair
    carries a diagonal entry raises ``DiracStructureError``.
    """
    if h.rows.dtype.kind != "f":
        raise DiracStructureError("the eigensystem is read off real "
                                  "operators only, and this one is complex")
    # h is its own transpose: its lattice and its stored rows mirror
    if h.lo != -h.band[1] or not np.array_equal(op._mirrored(h), h.rows):
        raise DiracStructureError("the part above the diagonal does not "
                                  "mirror the part below")
    stored, cols = np.nonzero(h.rows)
    offsets = h.lo + stored * h.step
    below = offsets > 0
    first = cols[below]
    second = first + offsets[below]
    ends = np.bincount(first, minlength=h.dim)
    ends += np.bincount(second, minlength=h.dim)
    if (ends > 1).any():
        raise DiracStructureError(f"index {np.argmax(ends > 1)} is in two "
                                  "pairs, in a component of over two indices")
    diag = h._row(0)
    if diag is None:
        diag = np.zeros(h.dim)
    if diag[first].any() or diag[second].any():
        raise DiracStructureError("a pair carries a diagonal entry, which "
                                  "no component of D does")
    return diag, first, second, h.rows[stored[below], first]


def spectrum(d: op.TruncatedOperator) -> SpectrumReport:
    """Full eigendecomposition with the boundary zero mode flagged.

    The truncation has the exact eigenvalues ``+-1, ..., +-(n-1)`` once each,
    plus a double zero: the true mode 0 (+) e_0 and one spurious mode created
    by cutting the raising image of first-summand ``e_{n-1}``.  D's
    components are read off its stored rows (``_pair_table``): a pair
    ``[[0, k], [k, 0]]`` has eigenvalues exactly ``-|k|`` and ``|k|``, on
    ``(1, -sign k)/sqrt(2)`` and ``(sign k, 1)/sqrt(2)``, and each residual
    ``|(h - lambda) v|`` is computed from the entries read off ``d``.
    Every pair eigenvalue is nonzero, so the two zero modes are singletons,
    each its own basis vector.  A zero mode is flagged spurious when it
    lies off the second summand, where the semi-infinite kernel 0 (+) e_0
    lives; it sorts before the true zero mode.

    Clusters and zero modes are compared exactly: a cluster is a run of
    equal eigenvalues and a zero mode an eigenvalue equal to 0, which D's
    closed-form solve satisfies.  ``d`` must split into pairs and
    singletons as D does; any other operator raises
    ``DiracStructureError``, a ``ValueError``.
    """
    diag, first, second, k = _pair_table(d)
    high = np.abs(k)
    evals = np.array(diag)
    evals[first] = -high
    evals[second] = high
    c = math.sqrt(0.5)
    s = np.copysign(c, k)
    a, b = diag[first], diag[second]
    residuals = np.zeros(d.dim)
    residuals[first] = np.hypot((a + high) * c - k * s, k * c - (b + high) * s)
    residuals[second] = np.hypot((a - high) * s + k * c, k * s + (b - high) * c)
    flags = evals == 0
    flags[1::2] = False  # second-summand indices are the odd ones
    # the true zero mode (index 1) precedes the spurious one (index 2n - 2),
    # so ties go to the flagged mode to keep it first of the double zero
    order = np.lexsort((~flags, evals))
    evals, residuals, flags = evals[order], residuals[order], flags[order]

    starts = np.flatnonzero(np.concatenate(([True], evals[1:] != evals[:-1])))
    return SpectrumReport(
        eigenvalues=evals,
        residuals=residuals,
        spurious=np.flatnonzero(flags),
        distinct_values=evals[starts],
        multiplicities=np.diff(np.append(starts, len(evals))),
    )


# ----------------------------------------------------------------------
# polar decomposition
# ----------------------------------------------------------------------

def polar_parts(n: int) -> tuple[op.TruncatedOperator, op.TruncatedOperator]:
    """(F, |D|) of the polar decomposition D = F |D|.

    Both come from D's pair table, one component at a time:
    ``|D| = V |lambda| V*`` and ``F = V sign(lambda) V*``.  A pair
    ``[[0, k], [k, 0]]`` gives ``|k|`` twice on the diagonal of |D| and
    ``[[0, sign k], [sign k, 0]]`` in F; a singleton w gives ``|w|`` and
    ``sign w``.  So F is ``sign`` taken entry by entry on D's stored rows,
    and every entry of both is exact: |D| is ``diag(N + 1, N)`` and F is
    ``[[0, S*], [S, 0]]`` bit for bit, but for the spurious zero mode,
    where both vanish.  |D| is diagonal, stored as 1 row, and F has
    offsets -3 and 3, as 2 rows.
    """
    d = dirac(n)
    diag, first, second, k = _pair_table(d)
    absd = np.abs(diag)
    absd[first] = absd[second] = np.abs(k)
    return (op.TruncatedOperator(op._Fresh(np.sign(d.rows), d.step), d.lo),
            op.TruncatedOperator(op._Fresh(absd[None, :]), 0))


def _shift_factor(n: int) -> op.TruncatedOperator:
    """The closed form ``[[0, S*], [S, 0]]`` of the polar factor F."""
    return _double({(0, 1): op.shift_adjoint(n), (1, 0): op.shift(n)}, n)


def polar_check(n: int, margin: int) -> VerificationReport:
    """Verify D = F |D| with |D| = diag(N+1, N) and F = [[0, S*], [S, 0]].

    All comparisons run on interior blocks of each n x n sub-block: the
    boundary column ``e_{n-1}`` of the first summand is corrupted by the
    truncation (its raising image is cut), which turns the last diagonal
    entry of the N+1 block into a kernel direction.  ``polar_parts`` is
    exact, so the check passes only at deviation 0.0 and reports
    tolerance 0.0.
    """
    if margin < 1:
        raise ValueError("margin must be >= 1")
    if 2 * margin >= n:
        raise ValueError(f"margin {margin} too large for n = {n}")
    f, absd = polar_parts(n)
    num = op.number(n)
    expected_absd = _double({(0, 0): num + op.identity(n), (1, 1): num}, n)
    dev_absd = block_interior_deviation(absd, expected_absd, margin)
    dev_f = block_interior_deviation(f, _shift_factor(n), margin)
    dev_rec = block_interior_deviation(f @ absd, dirac(n), margin)
    # full-matrix deviation, collar included: shows the boundary artifact size
    full_absd_dev = block_interior_deviation(absd, expected_absd, 0)

    worst = max(dev_absd, dev_f, dev_rec)
    return VerificationReport(
        name="polar_decomposition",
        passed=worst == 0.0,
        max_deviation=worst,
        tolerance=0.0,
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
    with the adjoint-shift band pattern; ``polar_parts`` is exact, so any
    deviation raises.  The index of that pattern is then computed (a) on
    the semi-infinite pattern and (b) from rectangular truncations at both
    sizes, both exactly; all three must agree.
    """
    if not (2 <= n_small < n_large):
        raise ValueError("need 2 <= n_small < n_large")
    f, _ = polar_parts(n_small)
    pattern_dev = block_interior_deviation(f, _shift_factor(n_small), 0)
    if pattern_dev != 0.0:
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
