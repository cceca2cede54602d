"""The public signatures of the package, pinned.

A keyword parameter that no caller sets is a knob nobody turns; the library
keeps such values as module constants.  This table lists every callable the
package exports, and every public method of the classes it exports, with its
parameters and defaults (annotations left out), so a new parameter or a
changed default fails here and is added on purpose.
"""

import inspect

import toeplitz_triple

EMPTY = inspect.Parameter.empty

SIGNATURES = {
    "AlgebraElement":
        "(kind, children=(), series=None, block=None, scalar=None, label=None)",
    "AlgebraElement.toeplitz": "(f, label=None)",
    "AlgebraElement.unchecked_toeplitz": "(f, label=None)",
    "AlgebraElement.finite_rank": "(block, label=None)",
    "AlgebraElement.adjoint": "(self)",
    "AlgebraElement.describe": "(self)",
    "AlgebraElement.band_spread": "(self)",
    "AlgebraElement.compact_support": "(self)",
    "AlgebraElement.realize": "(self, n)",
    "AlgebraElement.symbol": "(self)",
    "BandPattern": "(offset, coeffs)",
    "BandPattern.weighted_shift": "(offset, poly_coeffs)",
    "BandPattern.weight": "(self, m)",
    "BandPattern.realize": "(self, n)",
    "BandPattern.nonnegative_zeros": "(self)",
    "FourierSeries": "(coeffs=None)",
    "FourierSeries.coefficient": "(self, k)",
    "FourierSeries.constant": "(c)",
    "FourierSeries.cosine": "(freq)",
    "FourierSeries.from_samples": "(values)",
    "FourierSeries.derivative": "(self)",
    "FourierSeries.shifted": "(self, m)",
    "FourierSeries.conjugate": "(self)",
    "FourierSeries.evaluate": "(self, theta)",
    "FourierSeries.evaluate_grid": "(self, size)",
    "SpectrumReport":
        "(eigenvalues, residuals, spurious, distinct_values, multiplicities)",
    "SweepReport": "(sizes, values, raw_values, stabilized, trend, which)",
    "TruncatedOperator": "(diagonals, lo)",
    "TruncatedOperator.dense": "(self)",
    "TruncatedOperator.adjoint": "(self)",
    "VerificationReport":
        "(name, passed, max_deviation, tolerance, n, margin=None, details=<factory>)",
    "WedgeReport": "(max_violation_first, max_violation_second, tolerance, passed)",
    "analytic_eigenvector": "(k, n)",
    "block_interior_deviation": "(a, b, margin)",
    "boundedness_sweep":
        "(word, sizes, which='dirac', order=1)",
    "cauchy_riemann_weight_gap": "(n)",
    "coefficient_distance": "(a, b)",
    "commutator": "(a, b)",
    "delta": "(x, k)",
    "delta_absdirac_spot_check": "(f, n)",
    "dirac": "(n)",
    "dz": "(n)",
    "dz_pattern": "()",
    "dz_star": "(n)",
    "dz_star_pattern": "()",
    "evenness_check": "(a, n)",
    "finite_rank": "(block, n)",
    "fredholm_index": "(n_small, n_large)",
    "grading": "(n)",
    "identity": "(n)",
    "interior_block": "(a, margin)",
    "interior_deviation": "(a, b, margin)",
    "membership_check": "(a, n)",
    "number": "(n)",
    "operator_norm": "(a, tol=1e-10)",
    "pattern_kernel_dims": "(p)",
    "polar_check": "(n, margin)",
    "polar_parts": "(n)",
    "random_words": "(rng, count)",
    "rectangular_kernel_dims": "(p, n)",
    "represent": "(a)",
    "rough_symbol": "(n)",
    "shift": "(n)",
    "shift_adjoint": "(n)",
    "shift_adjoint_pattern": "()",
    "shift_pattern": "()",
    "spectrum": "(d)",
    "summability_partial_sums": "(epsilon, cutoffs)",
    "summability_report": "(epsilon, big_k)",
    "symbol_estimate": "(a, max_freq)",
    "toeplitz": "(f, n)",
    "verify_commutator_dz": "(f, n, margin=None)",
    "verify_delta_k": "(f, k, n, margin=None)",
    "verify_dzstar_via_adjoint": "(a, n)",
    "wedge_check": "(f, tolerance=1e-09)",
    "wedge_from_profiles": "(h1, h2, corner_value)",
}


def shape(obj) -> str:
    sig = inspect.signature(obj)
    return str(sig.replace(
        parameters=[p.replace(annotation=EMPTY) for p in sig.parameters.values()],
        return_annotation=EMPTY))


def public_callables():
    """Name and object of each exported callable and public method; the
    exception classes take a message and have no signature of their own."""
    for name in toeplitz_triple.__all__:
        obj = getattr(toeplitz_triple, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            continue
        yield name, obj
        if isinstance(obj, type):
            for attr, raw in vars(obj).items():
                if attr.startswith("_") or isinstance(raw, property):
                    continue
                if callable(raw) or isinstance(raw, (classmethod, staticmethod)):
                    yield f"{name}.{attr}", getattr(obj, attr)


def test_public_signatures_are_pinned():
    assert {name: shape(obj) for name, obj in public_callables()} == SIGNATURES
