"""Truncated-operator realization of a Toeplitz spectral triple.

The package represents circle functions by finite Fourier series, compresses
the associated Toeplitz/shift/number operators to finite matrices, and checks
the structural identities of the block Dirac operator built from the lowering
derivative: commutator formulas, grading relations, polar decomposition,
integer spectrum, Fredholm index and summability of the resolvent weights.

The package runs OpenBLAS on one thread unless ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set.  Its BLAS calls are
small, the largest the ``exp(...) @ cs`` of ``FourierSeries.evaluate`` (1024
angles), and the package makes no LAPACK call: ``operator_norm``
certifies its small norms by a banded bisection, and ``dirac`` solves D's
2 x 2 blocks in closed form.  No call gains from a second thread, while the
worker thread that numpy's OpenBLAS starts at import, on a host with two or
more CPUs, costs about 0.12 s of CPU time in every run of the command line
(2 vCPU).  To get threads back, set one of the three variables, or import
numpy before the package; the variable set here is inherited by child
processes.
"""

import os

# OpenBLAS reads its thread count once, when numpy loads it, and its worker
# starts then: so the default is set here, before the first import of numpy,
# and a later openblas_set_num_threads call would come too late.  A thread
# count the caller set is left as it is.
if not any(os.environ.get(name) for name in (
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .fourier import FourierSeries, WedgeReport, coefficient_distance, \
    wedge_check, wedge_from_profiles
from .operators import BandPattern, TruncatedOperator, \
    cauchy_riemann_weight_gap, commutator, delta, dz, dz_pattern, dz_star, \
    dz_star_pattern, finite_rank, identity, interior_block, \
    interior_deviation, number, operator_norm, pattern_kernel_dims, \
    rectangular_kernel_dims, shift, shift_adjoint, shift_adjoint_pattern, \
    shift_pattern, symbol_estimate, toeplitz
from .dirac import DiracStructureError, FredholmIndexError, SpectrumReport, \
    analytic_eigenvector, block_interior_deviation, dirac, fredholm_index, \
    grading, polar_check, polar_parts, represent, spectrum, \
    summability_partial_sums, summability_report
from .reports import VerificationReport
from .triple import AlgebraElement, SweepReport, boundedness_sweep, \
    delta_absdirac_spot_check, evenness_check, membership_check, random_words, \
    rough_symbol, verify_commutator_dz, verify_delta_k, \
    verify_dzstar_via_adjoint

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "BandPattern",
    "DiracStructureError",
    "FourierSeries",
    "FredholmIndexError",
    "SpectrumReport",
    "SweepReport",
    "TruncatedOperator",
    "VerificationReport",
    "WedgeReport",
    "analytic_eigenvector",
    "block_interior_deviation",
    "boundedness_sweep",
    "cauchy_riemann_weight_gap",
    "coefficient_distance",
    "commutator",
    "delta",
    "delta_absdirac_spot_check",
    "dirac",
    "dz",
    "dz_pattern",
    "dz_star",
    "dz_star_pattern",
    "evenness_check",
    "finite_rank",
    "fredholm_index",
    "grading",
    "identity",
    "interior_block",
    "interior_deviation",
    "membership_check",
    "number",
    "operator_norm",
    "pattern_kernel_dims",
    "polar_check",
    "polar_parts",
    "random_words",
    "rectangular_kernel_dims",
    "represent",
    "rough_symbol",
    "shift",
    "shift_adjoint",
    "shift_adjoint_pattern",
    "shift_pattern",
    "spectrum",
    "summability_partial_sums",
    "summability_report",
    "symbol_estimate",
    "toeplitz",
    "verify_commutator_dz",
    "verify_delta_k",
    "verify_dzstar_via_adjoint",
    "wedge_check",
    "wedge_from_profiles",
]
