"""Fourier series on the unit circle and the wedge gluing conditions.

A function on the circle is stored by its finitely many nonzero Fourier
coefficients ``k -> fhat(k)``, so that evaluation at angle ``theta`` is
``sum_k fhat(k) * exp(i*k*theta)``.  Differentiation, frequency shifts,
conjugation and products act directly on the coefficients.

The wedge checks test the two gluing relations

    f(e^{it}) = f(-i e^{-it}),    f(e^{-it}) = f(i e^{it}),    t in [0, pi/2],

which identify opposite boundary quadrants of the circle and cut it down to a
wedge of two circles (all four corner points +-1, +-i are identified).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Coefficients below DROP_TOL relative to the largest one are pruned so that
# bandwidth (and hence the stored band of Toeplitz matrices) stays honest.
DROP_TOL = 1e-14

# how far wedge_from_profiles lets a corner sample lie from the corner value
CORNER_TOL = 1e-9

# i**k for k mod 4, exact
_I_POWERS = (1, 1j, -1, -1j)

__all__ = [
    "FourierSeries",
    "WedgeReport",
    "coefficient_distance",
    "wedge_check",
    "wedge_from_profiles",
]


class FourierSeries:
    """Finitely supported Fourier coefficients of a function on the circle.

    Instances are immutable values: every operation returns a new series.
    Coefficients with magnitude below ``DROP_TOL`` times the largest magnitude
    are dropped on construction; a coefficient that is not finite, or whose
    modulus is not, raises ``ValueError``, since it would make that cutoff
    drop every coefficient.
    """

    __slots__ = ("_coeffs",)
    # numpy defers to the series' own methods, so an array operand is
    # refused with a TypeError instead of being broadcast over
    __array_ufunc__ = None

    def __init__(self, coeffs=None):
        cleaned = {}
        if coeffs:
            items = [(int(k), complex(v)) for k, v in dict(coeffs).items()]
            if not all(math.isfinite(v.real) and math.isfinite(v.imag)
                       for _, v in items):
                raise ValueError("Fourier coefficients must be finite")
            moduli = [_modulus(v) for _, v in items]
            if not all(math.isfinite(r) for r in moduli):
                raise ValueError("Fourier coefficient moduli must be finite")
            cutoff = DROP_TOL * max(moduli)
            cleaned = {k: v for (k, v), r in zip(items, moduli) if r > cutoff}
        self._coeffs = cleaned

    @property
    def coeffs(self) -> dict:
        """Coefficient map ``k -> fhat(k)`` (treat as read-only)."""
        return self._coeffs

    @property
    def bandwidth(self) -> int:
        """Largest ``|k|`` carrying a nonzero coefficient (0 for the zero series)."""
        if not self._coeffs:
            return 0
        return max(abs(k) for k in self._coeffs)

    def coefficient(self, k: int) -> complex:
        return self._coeffs.get(int(k), 0j)

    def __len__(self):
        return len(self._coeffs)

    def __repr__(self):
        items = ", ".join(f"{k}: {v:.6g}" for k, v in sorted(self._coeffs.items()))
        return f"FourierSeries({{{items}}})"

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def constant(cls, c) -> "FourierSeries":
        return cls({0: c})

    @classmethod
    def cosine(cls, freq: int) -> "FourierSeries":
        """cos(freq * theta) as the pair of coefficients {+-freq: 1/2}."""
        freq = int(freq)
        if freq == 0:
            return cls({0: 1.0})
        return cls({freq: 0.5, -freq: 0.5})

    @classmethod
    def from_samples(cls, values) -> "FourierSeries":
        """Series whose values at the angles ``2*pi*j/n`` are ``values[j]``.

        The sample count must be a power of two, at least 8, and every sample
        finite.  Frequencies are centered: ``k`` runs over ``[-n/2, n/2)``.
        Band-limited inputs are reproduced exactly up to rounding.
        """
        values = np.asarray(values, dtype=complex).ravel()
        n = values.size
        if n < 8 or n & (n - 1) != 0:
            raise ValueError(f"sample count must be a power of two >= 8, got {n}")
        if not np.all(np.isfinite(values)):
            raise ValueError("samples must be finite")
        spectrum = np.fft.fft(values) / n
        coeffs = {}
        for i in range(n):
            k = i if i < n // 2 else i - n
            coeffs[k] = spectrum[i]
        return cls(coeffs)

    # ------------------------------------------------------------------
    # coefficient operations
    # ------------------------------------------------------------------

    def derivative(self) -> "FourierSeries":
        """Coefficient k of the derivative is ``i*k*fhat(k)``."""
        return FourierSeries({k: 1j * k * v for k, v in self._coeffs.items()})

    def shifted(self, m: int) -> "FourierSeries":
        """Multiplication by ``u^m``: coefficient at k becomes ``fhat(k - m)``."""
        m = int(m)
        return FourierSeries({k + m: v for k, v in self._coeffs.items()})

    def conjugate(self) -> "FourierSeries":
        """Pointwise complex conjugate; coefficient at k is ``conj(fhat(-k))``."""
        return FourierSeries({-k: v.conjugate() for k, v in self._coeffs.items()})

    def __add__(self, other):
        if not isinstance(other, FourierSeries):
            return NotImplemented
        out = dict(self._coeffs)
        for k, v in other._coeffs.items():
            out[k] = out.get(k, 0j) + v
        return FourierSeries(out)

    def __sub__(self, other):
        if not isinstance(other, FourierSeries):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, FourierSeries):
            # pointwise product of functions = convolution of coefficients
            out = {}
            for k1, v1 in self._coeffs.items():
                for k2, v2 in other._coeffs.items():
                    out[k1 + k2] = out.get(k1 + k2, 0j) + v1 * v2
            return FourierSeries(out)
        return self.__rmul__(other)

    def __rmul__(self, scalar):
        """A number (numpy scalars included) times the series."""
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return FourierSeries({k: scalar * v for k, v in self._coeffs.items()})

    def __neg__(self):
        return (-1.0) * self

    # ------------------------------------------------------------------
    # evaluation and serialization
    # ------------------------------------------------------------------

    def evaluate(self, theta):
        """Evaluate ``sum_k fhat(k) exp(i*k*theta)``; vectorized over theta."""
        theta_arr = np.asarray(theta, dtype=float)
        if not self._coeffs:
            out = np.zeros(theta_arr.shape, dtype=complex)
            return out if theta_arr.shape else 0j
        ks = np.array(sorted(self._coeffs), dtype=float)
        cs = np.array([self._coeffs[int(k)] for k in ks])
        out = np.exp(1j * np.multiply.outer(theta_arr, ks)) @ cs
        return out if theta_arr.shape else complex(out)

    def evaluate_grid(self, size: int) -> np.ndarray:
        """Values at the ``size`` angles ``theta_j = 2*pi*j/size``.

        One inverse FFT of the coefficients folded mod ``size``, so the cost
        is O(K + size log size) for K coefficients and no size x K table is
        formed.  The folding is exact for any frequency, because
        ``exp(2*pi*i*k*j/size)`` has period ``size`` in k.
        """
        size = int(size)
        if size < 1:
            raise ValueError(f"grid size must be >= 1, got {size}")
        folded = np.zeros(size, dtype=complex)
        if self._coeffs:
            ks = np.fromiter(self._coeffs, dtype=np.int64, count=len(self))
            cs = np.fromiter(self._coeffs.values(), dtype=complex,
                             count=len(self))
            np.add.at(folded, ks % size, cs)
        return np.fft.ifft(folded, norm="forward")


def _modulus(z: complex) -> float:
    """``abs(z)`` without its OverflowError: a modulus past the float range
    comes back as inf."""
    return math.hypot(z.real, z.imag)


def coefficient_distance(a: FourierSeries, b: FourierSeries) -> float:
    """Max absolute coefficient difference over the union of supports."""
    keys = set(a.coeffs) | set(b.coeffs)
    if not keys:
        return 0.0
    return max(_modulus(a.coefficient(k) - b.coefficient(k)) for k in keys)


# ----------------------------------------------------------------------
# wedge gluing
# ----------------------------------------------------------------------

@dataclass
class WedgeReport:
    """Result of testing the two gluing relations.

    Each violation is the l1 norm of the Fourier coefficients of the
    difference of the two sides of one relation, an upper bound of that
    difference's supremum over the circle.
    """

    max_violation_first: float
    max_violation_second: float
    tolerance: float
    passed: bool


def wedge_check(f: FourierSeries, tolerance: float = 1e-9) -> WedgeReport:
    """Test both gluing relations exactly, on the Fourier coefficients.

    The relations, written in angles, are f(t) = f(-t - pi/2) and
    f(-t) = f(t + pi/2) for t in [0, pi/2].  Both sides are trigonometric
    polynomials, so they agree on the interval exactly when they agree on the
    whole circle, where the differences have the coefficients

        g1(k) = fhat(k) - i^k fhat(-k),    g2(k) = fhat(-k) - i^k fhat(k).

    Each violation is ``sum_k |g(k)|``: no sampling, so no frequency can
    alias to a pass, and it bounds the difference on the whole circle.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    c = f.coefficient
    ks = sorted(set(f.coeffs) | {-k for k in f.coeffs})
    v1 = float(sum(_modulus(c(k) - _I_POWERS[k % 4] * c(-k)) for k in ks))
    v2 = float(sum(_modulus(c(-k) - _I_POWERS[k % 4] * c(k)) for k in ks))
    return WedgeReport(v1, v2, tolerance, passed=(v1 <= tolerance and v2 <= tolerance))


def wedge_from_profiles(h1, h2, corner_value) -> FourierSeries:
    """Assemble a circle function from two quadrant profiles and return its series.

    ``h1`` and ``h2`` are uniform samples of profiles on ``[0, pi/2]``
    (endpoints included).  ``h1`` fills the quadrant-I arc, ``h2`` the
    quadrant-II arc, and quadrants III/IV are filled by the two gluing
    relations.  The four corner samples must agree with ``corner_value`` to
    within CORNER_TOL: the corner points +-1, +-i are identified on the
    wedge, so mismatched profiles would produce a discontinuous function.

    Both profiles must have ``2**j + 1`` samples (same j >= 2) so that the
    assembled circle grid is a power-of-two FFT grid; no interpolation is
    performed.
    """
    h1 = np.asarray(h1, dtype=complex).ravel()
    h2 = np.asarray(h2, dtype=complex).ravel()
    if h1.size != h2.size:
        raise ValueError("profiles must have equal lengths")
    q = h1.size - 1
    if q < 4 or q & (q - 1) != 0:
        raise ValueError(
            f"profiles must have 2**j + 1 samples with j >= 2, got {h1.size}")
    corner = complex(corner_value)
    for name, val in (("h1(0)", h1[0]), ("h1(pi/2)", h1[-1]),
                      ("h2(0)", h2[0]), ("h2(pi/2)", h2[-1])):
        if abs(val - corner) > CORNER_TOL:
            raise ValueError(
                f"corner mismatch: {name} = {val} differs from corner value "
                f"{corner} by {abs(val - corner):.3e}")

    n = 4 * q
    samples = np.empty(n, dtype=complex)
    samples[0:q] = h1[0:q]                 # theta in [0, pi/2)
    samples[q:2 * q] = h2[0:q]             # theta in [pi/2, pi)
    samples[2 * q:3 * q] = h1[q:0:-1]      # theta in [pi, 3pi/2): f = h1(3pi/2 - theta)
    samples[3 * q:4 * q] = h2[q:0:-1]      # theta in [3pi/2, 2pi): f = h2(2pi - theta)
    return FourierSeries.from_samples(samples)
