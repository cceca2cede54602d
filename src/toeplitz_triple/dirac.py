"""The block Dirac operator on the doubled space, its spectrum and invariants.

The operator acts on two copies of ``l2(N)`` as

    D = [[0, dz], [dz*, 0]],

with the lowering derivative in the top-right corner and its adjoint in the
bottom-left.  On the semi-infinite model its spectrum is exactly the integers
with multiplicity one; the truncation to 2n dimensions keeps the eigenvalues
``-(n-1), ..., n-1`` intact and adds a single spurious zero mode supported on
the last basis vector of the first summand (whose raising image is cut).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import operators as op
from .reports import VerificationReport

__all__ = [
    "DiracBlock",
    "SpectrumReport",
    "FredholmIndexError",
    "dirac",
    "grading",
    "represent",
    "analytic_eigenvector",
    "spectrum",
    "polar_check",
    "polar_parts",
    "fredholm_index",
    "summability_partial_sum",
    "summability_report",
]

# The semi-infinite spectrum is integral, so anything inside (-1/2, 1/2)
# belongs to the zero cluster of a truncation.
ZERO_WINDOW = 0.5

# Kernel cutoff for forming the polar factor: eigenvalues of D below this
# fraction of the operator norm are treated as kernel directions.
PINV_CUTOFF = 1e-8


class FredholmIndexError(RuntimeError):
    """Index computations disagree across truncations or methods."""


@dataclass
class DiracBlock:
    """Truncated Dirac operator: blocks plus the assembled 2n x 2n matrix."""

    n: int
    top_right: op.TruncatedOperator
    bottom_left: op.TruncatedOperator
    assembled: np.ndarray

    def __repr__(self):
        return f"DiracBlock(n={self.n})"


def dirac(n: int) -> DiracBlock:
    """Assemble D = [[0, dz], [dz*, 0]] on the doubled truncated space.

    The truncated bottom-left block is exactly the conjugate transpose of the
    truncated top-right block (the raising image of ``e_{n-1}`` is cut on both
    sides), so the assembled matrix is exactly Hermitian.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    tr = op.dz(n)
    bl = op.dz_star(n)
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    h[:n, n:] = tr.dense()
    h[n:, :n] = bl.dense()
    h.setflags(write=False)
    return DiracBlock(n=n, top_right=tr, bottom_left=bl, assembled=h)


def grading(n: int) -> op.TruncatedOperator:
    """Grading on the doubled space: +1 on the first summand, -1 on the second."""
    if n < 1:
        raise ValueError("n must be >= 1")
    g = np.ones((1, 2 * n))
    g[0, n:] = -1.0
    return op.TruncatedOperator(g, 0)


def represent(a: op.TruncatedOperator) -> op.TruncatedOperator:
    """Diagonal doubling a -> a (+) a of the representation on the doubled space."""
    # both copies sit on the diagonal, so the offsets are unchanged; an entry
    # of one copy whose row leaves its block is already stored as 0
    return op.TruncatedOperator(np.hstack([a.diagonals, a.diagonals]), a.lo)


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
        v[n] = 1.0
        return v
    j = abs(k)
    s = 1.0 / math.sqrt(2.0)
    v[j - 1] = s if k > 0 else -s
    v[n + j] = s
    return v


@dataclass
class SpectrumReport:
    """Eigenvalues, multiplicities and truncation-artifact flags."""

    eigenvalues: list      # all 2n, sorted ascending
    residuals: list        # per eigenpair, same order
    spurious: list         # indices into the sorted list
    distinct_values: list  # one entry per eigenvalue cluster
    multiplicities: list   # cluster sizes; sums to 2n
    dim: int = field(default=0)

    def to_json_obj(self) -> dict:
        return {
            "dim": self.dim,
            "eigenvalues": self.eigenvalues,
            "residuals": self.residuals,
            "spurious": self.spurious,
            "distinct_values": self.distinct_values,
            "multiplicities": self.multiplicities,
        }

    def to_csv(self, stream) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["index", "eigenvalue", "residual", "spurious"])
        flags = set(self.spurious)
        for i, (ev, res) in enumerate(zip(self.eigenvalues, self.residuals)):
            writer.writerow([i, repr(ev), repr(res), int(i in flags)])


def _eigensystem(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of Hermitian ``h``, one component at a time.

    The result is the pair a dense ``eigh`` of ``h`` returns, except that the
    eigenvalues come in component order rather than sorted.  The components
    of the nonzero pattern are read off ``h`` by label propagation, each
    index ending labelled with the smallest index of its component.
    Components are taken in order of that smallest index, and those of one
    size share a batched eigensolve whose eigenvectors fill the rows and
    columns named by each component's own indices.  Exact for any Hermitian
    ``h``; for D every component has at most two indices.
    """
    rows, cols = np.nonzero(h)
    labels = np.arange(h.shape[0])
    while True:
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    order = np.argsort(labels, kind="stable")
    _, starts, sizes = np.unique(labels[order], return_index=True,
                                 return_counts=True)
    evals = np.zeros(h.shape[0])
    vecs = np.zeros(h.shape, dtype=complex)
    for size in np.unique(sizes):
        idx = order[starts[sizes == size][:, None] + np.arange(size)]
        block = (idx[:, :, None], idx[:, None, :])
        evals[idx], vecs[block] = np.linalg.eigh(h[block])
    return evals, vecs


def spectrum(d: DiracBlock, tol: float = 1e-10) -> SpectrumReport:
    """Full Hermitian eigendecomposition with the boundary zero mode flagged.

    The truncation has the exact eigenvalues ``+-1, ..., +-(n-1)`` once each,
    plus a double zero: the true mode 0 (+) e_0 and one spurious mode created
    by cutting the raising image of first-summand ``e_{n-1}``.  The two zero
    modes are separate components of D's nonzero pattern, so the eigensolve
    returns each as its own basis vector.  A zero mode is flagged spurious
    when its eigenvector vanishes on the second summand, where the
    semi-infinite kernel 0 (+) e_0 lives.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    h = d.assembled
    n = d.n
    evals, vecs = _eigensystem(h)
    order = np.argsort(evals, kind="stable")
    evals = evals[order]
    vecs = vecs[:, order]
    flags = (np.abs(evals) < ZERO_WINDOW) & ~vecs[n:].any(axis=0)
    residuals = np.linalg.norm(h @ vecs - vecs * evals[None, :], axis=0)

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
        dim=2 * n,
    )


# ----------------------------------------------------------------------
# polar decomposition
# ----------------------------------------------------------------------

def polar_parts(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(F, |D|) of the polar decomposition D = F |D|.

    Both come from the eigensystem of D: ``|D| = V |lambda| V*`` and
    ``F = V sign(lambda) V*``, where eigenvalues below ``PINV_CUTOFF`` times
    the operator norm count as kernel and get sign 0, so F vanishes on the
    kernel of |D|.
    """
    w, v = _eigensystem(dirac(n).assembled)
    s = np.abs(w)
    sign = np.where(s > PINV_CUTOFF * s.max(), np.sign(w), 0.0)
    return (v * sign) @ v.conj().T, (v * s) @ v.conj().T


def _block(m: np.ndarray, n: int, i: int, j: int) -> np.ndarray:
    return m[i * n:(i + 1) * n, j * n:(j + 1) * n]


def _interior_dev(x: np.ndarray, y: np.ndarray, margin: int) -> float:
    n = x.shape[0]
    sl = slice(margin, n - margin)
    return float(np.abs(x[sl, sl] - y[sl, sl]).max())


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
    d = dirac(n)
    f, absd = polar_parts(n)
    num = op.number(n).dense()
    eye = np.eye(n)
    zero = np.zeros((n, n))

    dev_absd = max(
        _interior_dev(_block(absd, n, 0, 0), num + eye, margin),
        _interior_dev(_block(absd, n, 1, 1), num, margin),
        _interior_dev(_block(absd, n, 0, 1), zero, margin),
        _interior_dev(_block(absd, n, 1, 0), zero, margin),
    )
    dev_f = max(
        _interior_dev(_block(f, n, 0, 1), op.shift_adjoint(n).dense(), margin),
        _interior_dev(_block(f, n, 1, 0), op.shift(n).dense(), margin),
        _interior_dev(_block(f, n, 0, 0), zero, margin),
        _interior_dev(_block(f, n, 1, 1), zero, margin),
    )
    recomposed = f @ absd
    dev_rec = max(
        _interior_dev(_block(recomposed, n, i, j), _block(d.assembled, n, i, j), margin)
        for i in (0, 1) for j in (0, 1)
    )
    # full-matrix deviation, collar included: shows the boundary artifact size
    full_absd_dev = float(np.abs(absd - np.block(
        [[num + eye, zero], [zero, num]])).max())

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

    The block of F mapping the negative graded summand to the positive one is
    extracted from the polar factor that ``polar_parts`` builds from the
    eigensystem of D, and matched against the adjoint-shift band pattern.  The index is then computed (a) exactly on
    the semi-infinite pattern and (b) numerically from rectangular truncations
    at both sizes; all three must agree.
    """
    if not (2 <= n_small < n_large):
        raise ValueError("need 2 <= n_small < n_large")
    f, _ = polar_parts(n_small)
    top_right = _block(f, n_small, 0, 1)
    pattern_dev = float(np.abs(top_right - op.shift_adjoint(n_small).dense()).max())
    if pattern_dev > 1e-6:
        raise FredholmIndexError(
            f"polar factor block deviates from the adjoint shift by {pattern_dev:.3e}")

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

def summability_partial_sum(epsilon: float, big_k: int) -> float:
    """Partial sum ``sum_{|k| <= K} (1 + |k|)^{-(1+epsilon)}``."""
    if big_k < 1:
        raise ValueError("K must be >= 1")
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    total = 1.0
    chunk = 1_000_000
    start = 1
    while start <= big_k:
        stop = min(big_k, start + chunk - 1)
        j = np.arange(start, stop + 1, dtype=float)
        total += 2.0 * float(np.sum((1.0 + j) ** (-(1.0 + epsilon))))
        start = stop + 1
    return total


def summability_report(epsilon: float, big_k: int) -> dict:
    """Partial sum plus a convergence diagnosis.

    For epsilon = 0 the sums at K and 2K differ by about 2 ln 2 (logarithmic
    divergence, so the resolvent-weight sequence is not summable).  For
    epsilon > 0 the tail beyond K is bounded by ``2 K^{-eps}/eps`` by the
    integral test, giving a bracket around the limit and an extrapolated
    value.
    """
    s = summability_partial_sum(epsilon, big_k)
    s2 = summability_partial_sum(epsilon, 2 * big_k)
    diff = s2 - s
    out = {
        "epsilon": float(epsilon),
        "K": int(big_k),
        "partial_sum": s,
        "partial_sum_2K": s2,
        "doubling_difference": diff,
        "converges": epsilon > 0,
    }
    if epsilon > 0:
        tail_upper = 2.0 * big_k ** (-epsilon) / epsilon
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
