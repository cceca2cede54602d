"""Verification suite for the spectral-triple axioms on truncations.

The algebra under test is generated by Toeplitz operators with wedge-passing
symbols and by finite-rank corner blocks, combined with sums, products,
scalars and adjoints.  Every identity of the semi-infinite model is checked on
interior blocks of truncations: the truncation corrupts a boundary collar
whose width is controlled by the band widths involved, and the collar is cut
before comparing.

Boundedness sweeps measure the commutator norms across truncation sizes.  Raw
finite-section norms converge to the limiting operator norm only at rate
O(1/n^2), so each sweep value is the larger of the artifact-free section norm
and the supremum of the symbol read off the (exactly constant) interior
diagonals; both are lower bounds of the limiting norm, and their maximum
either freezes once the truncation exceeds the band interactions or keeps
growing when the commutator is genuinely unbounded.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import operators as op
from .dirac import block_interior_deviation, dirac, grading, polar_parts, \
    represent
from .fourier import FourierSeries, coefficient_distance, wedge_check
from .reports import VerificationReport

__all__ = [
    "AlgebraElement",
    "SweepReport",
    "verify_commutator_dz",
    "verify_delta_k",
    "verify_dzstar_via_adjoint",
    "delta_absdirac_spot_check",
    "evenness_check",
    "membership_check",
    "boundedness_sweep",
    "random_words",
    "rough_symbol",
]

# Size of the angle grid ``2*pi*j/SUP_GRID`` on which sweeps take symbol
# suprema; identical across truncation sizes so that frozen diagonal data
# yields identical values.  The maximum is exact on that grid: the values come
# from one inverse FFT of the coefficients folded mod SUP_GRID.
SUP_GRID = 4096

STABILIZATION_TOL = 1e-6  # relative change of the last two sweep values
GROWTH_TOL = 1e-2
NORM_TOL = 1e-9  # relative stop rule of the section norms
# of the generator guard, of verify's wedge_gluing and, by default, of wedge
WEDGE_TOLERANCE = 1e-9
# membership_check's tolerance of the estimated symbol's wedge check, of its
# distance to the exact symbol and of the compact part's symbol
MEMBERSHIP_TOLERANCE = 1e-8


class AlgebraElement:
    """A word over the algebra generators, realized lazily per truncation size.

    Generators are Toeplitz operators whose symbols pass the wedge gluing
    check (membership in the boundary function algebra) and finite-rank
    corner blocks.  Realization is a *-homomorphic evaluation: the realization
    of a product is the product of the realizations.
    """

    __slots__ = ("kind", "children", "series", "block", "scalar", "label")
    # numpy defers to the word's own methods, so an array operand is refused
    # with a TypeError instead of being broadcast over
    __array_ufunc__ = None

    def __init__(self, kind, children=(), series=None, block=None,
                 scalar=None, label=None):
        self.kind = kind
        self.children = tuple(children)
        self.series = series
        self.block = block
        self.scalar = scalar
        self.label = label

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def toeplitz(cls, f: FourierSeries, label=None) -> "AlgebraElement":
        """Toeplitz generator; the symbol must pass the wedge gluing check."""
        report = wedge_check(f, WEDGE_TOLERANCE)
        if not report.passed:
            raise ValueError(
                "symbol fails the wedge gluing check (violations "
                f"{report.max_violation_first:.3e}, "
                f"{report.max_violation_second:.3e}); use unchecked_toeplitz "
                "for negative controls")
        return cls("toeplitz", series=f, label=label)

    @classmethod
    def unchecked_toeplitz(cls, f: FourierSeries, label=None) -> "AlgebraElement":
        """Toeplitz generator without the wedge guard, for negative controls."""
        return cls("toeplitz", series=f, label=label)

    @classmethod
    def finite_rank(cls, block, label=None) -> "AlgebraElement":
        b = np.asarray(block, dtype=complex)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("finite-rank block must be square")
        return cls("finite", block=b, label=label)

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return AlgebraElement("add", (self, other))

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return AlgebraElement("add", (self, (-1.0) * other))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return AlgebraElement("mul", (self, other))
        return self.__rmul__(other)

    def __rmul__(self, scalar):
        """A number (numpy scalars included) times the word."""
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return AlgebraElement("scale", (self,), scalar=complex(scalar))

    def __neg__(self):
        return (-1.0) * self

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement("adjoint", (self,))

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    def describe(self) -> str:
        if self.kind == "toeplitz":
            return self.label or f"T[bw{self.series.bandwidth}]"
        if self.kind == "finite":
            return self.label or f"K[{self.block.shape[0]}]"
        a = self.children[0].describe()
        if self.kind == "adjoint":
            return f"{a}*"
        if self.kind == "scale":
            return f"({self.scalar:g})*{a}"
        b = self.children[1].describe()
        return f"({a} {'+' if self.kind == 'add' else '.'} {b})"

    def band_spread(self) -> int:
        """Largest offset reach of the realization; products add reaches."""
        if self.kind == "toeplitz":
            return self.series.bandwidth
        if self.kind == "finite":
            return 0
        if self.kind == "add":
            return max(c.band_spread() for c in self.children)
        if self.kind == "mul":
            return sum(c.band_spread() for c in self.children)
        return self.children[0].band_spread()

    def compact_support(self) -> int:
        """Size bound of the corner block where the word deviates from pure Toeplitz."""
        if self.kind == "toeplitz":
            return 0
        if self.kind == "finite":
            return self.block.shape[0]
        if self.kind == "add":
            return max(c.compact_support() for c in self.children)
        if self.kind == "mul":
            left, right = self.children
            return (left.compact_support() + right.compact_support()
                    + left.band_spread() + right.band_spread())
        return self.children[0].compact_support()

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def realize(self, n: int) -> op.TruncatedOperator:
        if self.kind == "toeplitz":
            return op.toeplitz(self.series, n)
        if self.kind == "finite":
            return op.finite_rank(self.block, n)
        if self.kind == "add":
            return self.children[0].realize(n) + self.children[1].realize(n)
        if self.kind == "mul":
            return self.children[0].realize(n) @ self.children[1].realize(n)
        if self.kind == "scale":
            # a real scalar keeps a real band float64
            s = self.scalar.real if self.scalar.imag == 0 else self.scalar
            return s * self.children[0].realize(n)
        return self.children[0].realize(n).adjoint()

    def symbol(self) -> FourierSeries:
        """Image under the quotient map onto boundary functions.

        Multiplicative on products, kills finite-rank parts, conjugates under
        the adjoint.
        """
        if self.kind == "toeplitz":
            return self.series
        if self.kind == "finite":
            return FourierSeries()
        if self.kind == "add":
            return self.children[0].symbol() + self.children[1].symbol()
        if self.kind == "mul":
            return self.children[0].symbol() * self.children[1].symbol()
        if self.kind == "scale":
            return self.scalar * self.children[0].symbol()
        return self.children[0].symbol().conjugate()


# ----------------------------------------------------------------------
# identity checks
# ----------------------------------------------------------------------

def _margin(margin: int | None, least: int, n: int, what: str) -> int:
    """``least`` by default, never below it (the boundary rows genuinely
    differ under truncation), and below n/4."""
    if margin is None:
        margin = least
    if margin < least:
        raise ValueError(f"margin must be >= {what} = {least}")
    if n <= 4 * margin:
        raise ValueError(f"n must exceed 4*margin = {4 * margin}")
    return margin


def _report(name: str, lhs: op.TruncatedOperator, rhs: op.TruncatedOperator,
            n: int, margin: int, **details) -> VerificationReport:
    """Compare ``lhs`` and ``rhs`` on the interior blocks at ``margin``.

    Both sides round each compared entry once, to the same correctly
    rounded product, so the check passes only at deviation 0.0 and reports
    tolerance 0.0."""
    dev = op.interior_deviation(lhs, rhs, margin)
    return VerificationReport(name, dev == 0.0, dev, 0.0, n, margin,
                              details=details)


def verify_commutator_dz(f: FourierSeries, n: int,
                         margin: int | None = None) -> VerificationReport:
    """[dz, T_f] equals -i T_{conj(u) f'} on interior blocks.

    The commutator is taken by ``op._generator_commutator``: inside the
    band each entry is an exact weight difference times a coefficient of
    f, one rounding, as is each coefficient ``i*k*fhat(k)`` of f', so the
    check decides at 0 whatever n is.
    """
    margin = _margin(margin, f.bandwidth + 1, n, "bandwidth + 1")
    lhs = op._generator_commutator(op.dz(n), op.toeplitz(f, n))
    rhs = (-1j) * op.toeplitz(f.derivative().shifted(-1), n)
    return _report("commutator_dz", lhs, rhs, n, margin)


def verify_delta_k(f: FourierSeries, k: int, n: int,
                   margin: int | None = None) -> VerificationReport:
    """Iterated [N, .] applied k times to T_f equals (-i)^k T_{f^(k)}.

    ``op.delta`` scales diagonal j of T_f by ``j**k``, one rounding per
    entry.  Coefficient j of f^(k) is ``(i*j)**k * fhat(j)``: the integer
    power is exact, and one factor of the complex product has a zero part,
    so it rounds once too, to the same value up to the exact factor
    ``(-i)**k``, and the check decides at 0 whatever n and the amplitude
    are.  The identity holds on the whole truncation, yet the least margin
    stays ``k * bandwidth``, so the ``margin`` that reports record does not
    move.
    """
    margin = _margin(margin, k * f.bandwidth, n, "k*bandwidth")
    g = FourierSeries._kept({j: (1j * j) ** k * v
                             for j, v in f.coeffs.items() if j})
    return _report(f"delta_{k}", op.delta(op.toeplitz(f, n), k),
                   (-1j) ** k * op.toeplitz(g, n), n, margin)


def verify_dzstar_via_adjoint(a: AlgebraElement, n: int) -> VerificationReport:
    """[dz*, a] equals -[dz, a*]* (exact for finite matrices, so it is
    compared on the whole truncation, at margin 0).  Both commutators are
    taken by ``op._generator_commutator``, whose terms for dz* and dz
    mirror each other, so the two sides round alike and the check decides
    at 0."""
    margin = _margin(0, 0, n, "0")
    lhs = op._generator_commutator(op.dz_star(n), a.realize(n))
    rhs = -op._generator_commutator(op.dz(n), a.adjoint().realize(n)).adjoint()
    return _report("dzstar_via_adjoint", lhs, rhs, n, margin,
                   word=a.describe())


def delta_absdirac_spot_check(f: FourierSeries, n: int) -> VerificationReport:
    """Commutators with |D| reduce to commutators with N on the doubled space.

    |D| = diag(N+1, N) and the +1 drops out of commutators, so
    [|D|, a (+) a] should be block diagonal with both blocks equal to
    [N, a] = -i T_{f'}.  |D| is formed from the eigensystem of D, exactly,
    and it is diagonal, so the commutator scales each entry of a (+) a by
    a difference of |D|'s integer entries, one rounding per entry.  So the
    check passes only at deviation 0.0 and reports tolerance 0.0.
    """
    margin = _margin(None, f.bandwidth + 1, n, "bandwidth + 1")
    comm = op._generator_commutator(polar_parts(n)[1],
                                    represent(op.toeplitz(f, n)))
    expected = represent((-1j) * op.toeplitz(f.derivative(), n))
    dev = block_interior_deviation(comm, expected, margin)
    return VerificationReport("delta_absdirac_spot_check", dev == 0.0, dev,
                              0.0, n, margin)


def evenness_check(a: AlgebraElement, n: int) -> VerificationReport:
    """The four grading relations, with exact-zero residuals required.

    The grading is diagonal with entries +-1 and both D and the doubled
    representation have integer-patterned block structure, so all four
    residuals vanish exactly in floating point, not just approximately.
    """
    g = grading(n)
    d = dirac(n)
    p = represent(a.realize(n))
    r_inv = block_interior_deviation(g @ g, op.identity(2 * n), 0)
    r_sa = block_interior_deviation(g, g.adjoint(), 0)
    r_anti = block_interior_deviation(g @ d, -(d @ g), 0)
    r_comm = block_interior_deviation(g @ p, p @ g, 0)
    worst = max(r_inv, r_sa, r_anti, r_comm)
    return VerificationReport(
        name="evenness",
        passed=worst == 0.0,
        max_deviation=worst,
        tolerance=0.0,
        n=n,
        details={
            "grading_squared_minus_identity": r_inv,
            "grading_self_adjointness": r_sa,
            "grading_dirac_anticommutator": r_anti,
            "grading_representation_commutator": r_comm,
            "word": a.describe(),
        },
    )


def membership_check(a: AlgebraElement, n: int) -> VerificationReport:
    """Estimate the symbol of a realization and test wedge membership.

    Two checks: the symbol recovered from the interior diagonals passes the
    wedge gluing relations, and subtracting the Toeplitz matrix of the exact
    symbol leaves a matrix with vanishing symbol estimate (the compact-part
    split).  Interior trimming removes both the genuine corner block and the
    truncation collar of realized products before reading diagonals.
    """
    sym = a.symbol()
    collar = a.band_spread() + a.compact_support() + 1
    if 2 * collar >= n:
        raise ValueError(f"n = {n} too small for collar {collar}")
    realized = a.realize(n)
    trimmed = op.interior_block(realized, collar)
    max_freq = max(sym.bandwidth, a.band_spread())
    if max_freq >= trimmed.dim / 4:
        raise ValueError(
            f"n = {n} too small to estimate frequencies up to {max_freq}")
    estimate = op.symbol_estimate(trimmed, max_freq)
    wedge = wedge_check(estimate, MEMBERSHIP_TOLERANCE)
    symbol_dev = coefficient_distance(estimate, sym)
    delta = realized - op.toeplitz(sym, n)
    compact_estimate = op.symbol_estimate(op.interior_block(delta, collar), max_freq)
    compact_dev = max((abs(v) for v in compact_estimate.coeffs.values()), default=0.0)
    passed = wedge.passed and compact_dev <= MEMBERSHIP_TOLERANCE \
        and symbol_dev <= MEMBERSHIP_TOLERANCE
    return VerificationReport(
        name="membership",
        passed=passed,
        max_deviation=max(compact_dev, symbol_dev),
        tolerance=MEMBERSHIP_TOLERANCE,
        n=n,
        margin=collar,
        details={
            "wedge_violation_first": wedge.max_violation_first,
            "wedge_violation_second": wedge.max_violation_second,
            "wedge_passed": wedge.passed,
            "symbol_estimate_deviation": symbol_dev,
            "compact_part_symbol": compact_dev,
            "word": a.describe(),
        },
    )


# ----------------------------------------------------------------------
# boundedness sweeps
# ----------------------------------------------------------------------

@dataclass
class SweepReport:
    """Norm measurements across truncation sizes.

    ``values`` estimate the limiting commutator norm at each size (maximum of
    the artifact-free section norm and the symbol supremum read from the
    interior diagonals); ``raw_values`` are the plain section norms, which
    converge only at O(1/n^2).
    """

    sizes: list
    values: list
    raw_values: list
    stabilized: bool
    trend: str
    which: str


def _collar(word: AlgebraElement) -> int:
    """A collar c such that the leading n x n block of
    ``word.realize(n + c)`` is that of the semi-infinite operator, for
    every n.

    A generator's leading block is exact at any size, and sums, scalars and
    adjoints keep it exact.  In a product ``a . b`` the entry ``[r, c]``
    sums ``a[r, k] b[k, c]`` over every k that column c of b reaches,
    ``k <= c + b.band_spread() + b.compact_support()``: so for the leading
    n x n block both factors must be exact on their leading blocks of
    ``n`` plus b's reach, which the realisation at the factors' larger
    collar plus that reach makes them.  The collar is 0 for a word without
    products.
    """
    if word.kind == "mul":
        left, right = word.children
        return max(_collar(left), _collar(right)) + \
            right.band_spread() + right.compact_support()
    return max((_collar(c) for c in word.children), default=0)


def _sweep_blocks(word: AlgebraElement, which: str, order: int,
                  n: int) -> list[op.TruncatedOperator]:
    """The leading n x n blocks of a sweep target, each exactly that of the
    semi-infinite model.

    They are computed at the size n plus a collar, or at the word's
    ``compact_support()`` when that is larger, since a corner block must fit
    in the realisation, and cut to their leading blocks.  The collar keeps
    them exact: ``_collar(word)``, one more under "dirac" and "delta_dz",
    whose commutators with dz and dz* read one row and column of the word
    past the block.  Each commutator, with dz, dz* or N, is one pass of
    ``op._generator_commutator`` over the generator's realisation.  The
    one with N, ``delta``, scales each entry by its offset, so it is taken
    of the leading block, in the rows of that block: the sweep made it, as
    the realisation itself when there is no collar and as a copy of its
    leading columns otherwise, and holds the only reference to it.  So
    a "delta" target of a word without products, such as the rough
    control, holds one band; with a collar, the inflated band and its
    leading columns are held together only while they are cut.
    """
    if which not in ("dirac", "delta", "delta_dz"):
        raise ValueError(f"unknown sweep target {which!r}")
    m = max(n + _collar(word) + (which != "delta"), word.compact_support())

    def cut(x):
        return x if m == n else op._columns(x, 0, n)

    a = word.realize(m)
    if which == "dirac":
        # each commutator is dropped once its leading block is cut
        return [cut(op._generator_commutator(g(m), a))
                for g in (op.dz, op.dz_star)]
    # rebinding a to the leading block drops the inflated band
    a = cut(a if which == "delta" else op._generator_commutator(op.dz(m), a))
    return [op._generator_commutator(op.number(n), a, order, owned=True)]


def _sweep_value(word: AlgebraElement, n: int, which: str,
                 order: int) -> tuple[float, float]:
    """The sweep value and raw section norm of a target at size n, from the
    leading blocks of ``_sweep_blocks``: every entry measured equals the
    semi-infinite model's, and the norms run after the inflated blocks are
    dropped."""
    value = 0.0
    raw = 0.0
    spread = word.band_spread() + (0 if which == "delta" else 1)
    max_freq = min(spread, n // 4 - 1)
    for lead in _sweep_blocks(word, which, order, n):
        section = op.operator_norm(lead, NORM_TOL)
        raw = max(raw, section)
        sup = 0.0
        if max_freq >= 0:
            est = op.symbol_estimate(lead, max_freq)
            if est.coeffs:
                sup = float(np.abs(est.evaluate_grid(SUP_GRID)).max())
        value = max(value, section, sup)
    return value, raw


def boundedness_sweep(word, sizes, which: str = "dirac",
                      order: int = 1) -> SweepReport:
    """Norm sweep of a commutator target over increasing truncation sizes.

    ``which`` selects the target: "dirac" for the off-diagonal blocks of
    [D, a (+) a] (their maximum is the commutator norm), "delta" for the
    order-fold iterated [N, .] of the word, "delta_dz" for the same applied
    to [dz, word].  ``word`` may be a callable size -> AlgebraElement for
    controls whose symbol changes with the truncation.
    """
    sizes = [int(s) for s in sizes]
    if len(sizes) < 2 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing, with >= 2 entries")
    values, raws = [], []
    for n in sizes:
        element = word(n) if callable(word) else word
        v, r = _sweep_value(element, n, which, order)
        values.append(v)
        raws.append(r)
    last, prev = values[-1], values[-2]
    scale = max(abs(last), 1e-300)
    stabilized = abs(last - prev) <= STABILIZATION_TOL * scale
    trend = "growing" if last > prev * (1.0 + GROWTH_TOL) else "bounded"
    name = which if which == "dirac" else f"{which}:{order}"
    return SweepReport(sizes=sizes, values=values, raw_values=raws,
                       stabilized=stabilized, trend=trend, which=name)


# ----------------------------------------------------------------------
# word sampling and controls
# ----------------------------------------------------------------------

def random_words(rng, count: int) -> list[AlgebraElement]:
    """Deterministic (given rng) random words over T[cos4t], T[cos8t] and
    random 2 x 2 corner blocks.

    Depth counts generator factors along multiplicative chains, and the words
    have depth 3, so they are at most triple products; sums and adjoints do
    not add depth.
    """
    symbols = [(FourierSeries.cosine(4), "T[cos4t]"),
               (FourierSeries.cosine(8), "T[cos8t]")]

    def leaf():
        if rng.random() < 0.3:
            block = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            return AlgebraElement.finite_rank(block, label="K[2]")
        f, label = symbols[int(rng.integers(len(symbols)))]
        return AlgebraElement.toeplitz(f, label=label)

    def word(budget):
        if budget <= 1 or rng.random() < 0.35:
            w = leaf()
        else:
            split = int(rng.integers(1, budget))
            left, right = word(split), word(budget - split)
            w = left * right if rng.random() < 0.5 else left + right
        if rng.random() < 0.15:
            w = w.adjoint()
        if rng.random() < 0.15:
            w = complex(rng.standard_normal()) * w
        return w

    return [word(3) for _ in range(count)]


def rough_symbol(n: int) -> FourierSeries:
    """Slowly decaying symbol ``fhat(k) = |k|^{-3/2}`` cut at ``|k| <= n/4``.

    The derivative coefficients decay like ``|k|^{-1/2}``, so the commutator
    norms grow with the truncation: the negative control for boundedness
    sweeps.
    """
    top = max(1, n // 4)
    coeffs = {}
    for k in range(1, top + 1):
        coeffs[k] = coeffs[-k] = float(k) ** -1.5
    return FourierSeries(coeffs)
