"""Command-line front end: run verification suites and emit reports.

Every run writes ``report.json`` (stable schema: command, config echo,
timestamp, checks, artifacts, error), plus ``data.csv`` for tabular output and
``plot.svg`` when SVG emission is on.  Exit codes: 0 all checks passed,
1 a check failed, 2 usage/configuration error (an output that cannot be
written is one), 3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import svg
from .dirac import FredholmIndexError, dirac, fredholm_index, polar_check, \
    spectrum, summability_report
from .fourier import FourierSeries, wedge_check
from .operators import pattern_kernel_dims, rectangular_kernel_dims, \
    shift_adjoint_pattern, shift_pattern
from .triple import ABSDIRAC_TOLERANCE, MEMBERSHIP_TOLERANCE, \
    STABILIZATION_TOL, WEDGE_TOLERANCE, AlgebraElement, boundedness_sweep, \
    delta_absdirac_spot_check, evenness_check, membership_check, \
    rough_symbol, verify_commutator_dz, verify_delta_k, \
    verify_dzstar_via_adjoint

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

OUTPUT_DIR_ENV = "TOEPLITZ_TRIPLE_OUTPUT_DIR"

DEFAULT_N = 256
DEFAULT_SWEEP_SIZES = [64, 128, 256, 512]
DEFAULT_INDEX_SIZES = [16, 32, 64, 128]
# the tolerance of each command that reads --tolerance, when it is absent
DEFAULT_TOLERANCE = {"spectrum": 1e-10, "verify": 1e-12, "wedge": 1e-9,
                     "polar": 1e-10}
DEFAULT_POLAR_MARGIN = 2


@dataclass
class RunConfig:
    """Echoed verbatim into report.json."""

    command: str
    n: int = DEFAULT_N
    sizes: list = field(default_factory=lambda: list(DEFAULT_SWEEP_SIZES))
    epsilon: float = 1.0
    partial_sum_terms: int = 100_000
    symbol_spec: str = "cos4k:1"
    margin: int | None = None
    output_dir: str = "."
    emit_svg: bool = False
    tolerance: float | None = None
    rough_control: bool = False


def load_symbol(spec: str) -> FourierSeries:
    """Builtins ``cos4k:k`` and ``const:c``, or a path to a sample file.

    Sample files carry one complex value per line (Python literal syntax,
    e.g. ``0.5+0.25j``); blank lines and ``#`` comments are skipped.  The
    sample count must be a power of two.
    """
    if spec.startswith("cos4k:"):
        k = int(spec.split(":", 1)[1])
        if k < 0:
            raise ValueError("cos4k index must be >= 0")
        return FourierSeries.cosine(4 * k)
    if spec.startswith("const:"):
        return FourierSeries.constant(complex(spec.split(":", 1)[1]))
    path = Path(spec)
    if not path.is_file():
        raise ValueError(f"unknown symbol spec {spec!r}: not a builtin "
                         "(cos4k:K, const:C) and not a readable file")
    values = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values.append(complex(line))
        except ValueError as exc:
            raise ValueError(f"malformed sample line {line!r} in {spec}") from exc
    return FourierSeries.from_samples(values)


# ----------------------------------------------------------------------
# commands: each returns (checks, csv header, csv rows, chart), where chart
# is the keyword arguments of svg.chart or None; only ``run`` writes files
# ----------------------------------------------------------------------

def _check(name, passed, **extra) -> dict:
    out = {"name": name, "passed": bool(passed)}
    out.update(extra)
    return out


def _from_wedge(report) -> dict:
    return _check("wedge_gluing", report.passed,
                  max_violation_first=report.max_violation_first,
                  max_violation_second=report.max_violation_second,
                  tolerance=report.tolerance)


def _tolerance(cfg: RunConfig) -> float:
    if cfg.tolerance is not None:
        return cfg.tolerance
    return DEFAULT_TOLERANCE[cfg.command]


def cmd_spectrum(cfg: RunConfig):
    tol = _tolerance(cfg)
    report = spectrum(dirac(cfg.n), tol)
    n = cfg.n
    expected = sorted(list(range(-(n - 1), n)) + [0])
    rounded = [round(v) for v in report.eigenvalues]
    ladder_ok = rounded == expected and \
        max(abs(v - r) for v, r in zip(report.eigenvalues, rounded)) < tol
    nonzero_mults = [m for v, m in zip(report.distinct_values, report.multiplicities)
                     if abs(v) > 0.5]
    checks = [
        _check("eigenvalue_ladder", ladder_ok,
               expected="integers -(n-1)..(n-1) with a double zero"),
        _check("eigenpair_residuals", max(report.residuals) < tol,
               max_residual=max(report.residuals), tolerance=tol),
        _check("single_spurious_zero_mode", len(report.spurious) == 1,
               spurious_indices=report.spurious),
        _check("nonzero_multiplicities_one",
               all(m == 1 for m in nonzero_mults)),
    ]
    flags = set(report.spurious)
    rows = [(i, repr(ev), repr(res), int(i in flags)) for i, (ev, res) in
            enumerate(zip(report.eigenvalues, report.residuals))]
    chart = dict(
        series=[("eigenvalues", range(len(report.eigenvalues)),
                 report.eigenvalues)],
        title=f"Eigenvalue ladder of the truncated Dirac block (n={n})",
        xlabel="index", ylabel="eigenvalue", scatter=True)
    return checks, ["index", "eigenvalue", "residual", "spurious"], rows, chart


def cmd_verify(cfg: RunConfig):
    f = load_symbol(cfg.symbol_spec)
    n = cfg.n
    tol = _tolerance(cfg)
    word = AlgebraElement.unchecked_toeplitz(f, label=cfg.symbol_spec)

    checks = [_from_wedge(wedge_check(f, WEDGE_TOLERANCE))]
    # commutator_number is delta_1 under its own name, so [N, T_f] is built once
    delta_1 = verify_delta_k(f, 1, n, cfg.margin, tol)
    reports = [
        replace(delta_1, name="commutator_number"),
        verify_commutator_dz(f, n, cfg.margin, tol),
        delta_1,
        verify_delta_k(f, 2, n, cfg.margin, tol),
        verify_delta_k(f, 3, n, cfg.margin, tol),
        verify_dzstar_via_adjoint(word, n, tolerance=tol),
        # capped at 128, but large enough for the margin rule n > 4(b + 1)
        delta_absdirac_spot_check(f, min(n, max(128, 4 * f.bandwidth + 5))),
        evenness_check(word, min(n, 128)),
        membership_check(word, n),
    ]
    checks.extend(asdict(r) for r in reports)
    rows = [(c["name"], int(c["passed"]), repr(c.get("max_deviation", "")))
            for c in checks]
    return checks, ["check", "passed", "max_deviation"], rows, None


def cmd_index(cfg: RunConfig):
    sizes = cfg.sizes
    checks = []
    for small, large in zip(sizes, sizes[1:]):
        idx = fredholm_index(small, large)
        checks.append(_check(f"index_pair_{small}_{large}", idx == 1, index=idx))
    ker, coker = pattern_kernel_dims(shift_adjoint_pattern())
    checks.append(_check("exact_pattern_index", ker - coker == 1,
                         kernel=ker, cokernel=coker))
    sk, sc = rectangular_kernel_dims(shift_pattern(), sizes[-1])
    checks.append(_check("forward_shift_index", sk - sc == -1,
                         kernel=sk, cokernel=sc))
    rows = []
    for size in sizes:
        k, c = rectangular_kernel_dims(shift_adjoint_pattern(), size)
        rows.append((size, k, c, k - c))
    return checks, ["n", "kernel", "cokernel", "index"], rows, None


def cmd_summability(cfg: RunConfig):
    eps = cfg.epsilon
    big_k = cfg.partial_sum_terms
    report = summability_report(eps, big_k)
    points, curve = zip(*report["curve"])

    checks = [_check("partial_sums_monotone_in_K",
                     all(b >= a for a, b in zip(curve, curve[1:])))]
    if eps > 0:
        checks.append(_check(
            "doubling_increment_within_tail_bound",
            report["doubling_difference"] <= report["tail_bound"] * (1 + 1e-12),
            doubling_difference=report["doubling_difference"],
            tail_bound=report["tail_bound"]))
        if eps == 1.0:
            limit = math.pi ** 2 / 3 - 1.0
            bracketed = report["partial_sum"] <= limit <= \
                report["partial_sum"] + report["tail_bound"]
            checks.append(_check("bracket_contains_shifted_basel_limit",
                                 bracketed, known_limit=limit,
                                 partial_sum=report["partial_sum"],
                                 tail_bound=report["tail_bound"]))
    else:
        expected = report["expected_doubling"]
        if big_k >= 100:
            checks.append(_check(
                "logarithmic_divergence_rate",
                abs(report["doubling_difference"] - expected) <= 0.1 * expected,
                doubling_difference=report["doubling_difference"],
                expected_doubling=expected))
    checks.append(_check("classification",
                         True, converges=report["converges"],
                         note=report["note"]))

    rows = [(k, repr(v)) for k, v in report["curve"]]
    chart = dict(series=[(f"epsilon={eps:g}", points, curve)],
                 title="Partial sums of (1+|k|)^-(1+eps)",
                 xlabel="K", ylabel="partial sum", logx=True)
    return checks, ["K", "partial_sum"], rows, chart


def cmd_sweep(cfg: RunConfig):
    if cfg.rough_control:
        word = lambda n: AlgebraElement.unchecked_toeplitz(  # noqa: E731
            rough_symbol(n), label="rough")
        targets = [("delta", 1)]
    else:
        word = AlgebraElement.unchecked_toeplitz(
            load_symbol(cfg.symbol_spec), label=cfg.symbol_spec)
        targets = [("dirac", 1), ("delta", 1), ("delta", 2)]
    checks, rows, plot_series = [], [], []
    for which, order in targets:
        report = boundedness_sweep(word, cfg.sizes, which, order=order)
        if cfg.rough_control:
            checks.append(_check("negative_control_grows",
                                 report.trend == "growing",
                                 trend=report.trend, values=report.values))
        else:
            checks.append(_check(
                f"stabilized_{report.which}",
                report.stabilized and report.trend == "bounded",
                values=report.values, raw_values=report.raw_values,
                trend=report.trend,
                stabilization_tol=STABILIZATION_TOL))
        rows.extend((report.which, s, repr(v), repr(r)) for s, v, r in
                    zip(report.sizes, report.values, report.raw_values))
        plot_series.append((report.which, report.sizes, report.values))
    chart = dict(series=plot_series, title="Commutator norm sweep",
                 xlabel="truncation size", ylabel="norm estimate",
                 logx=True, logy=True)
    return checks, ["target", "size", "value", "raw_section_norm"], rows, chart


def cmd_wedge(cfg: RunConfig):
    f = load_symbol(cfg.symbol_spec)
    tol = _tolerance(cfg)
    checks = [_from_wedge(wedge_check(f, tol))]
    # max_violation_* are l1 sums of the violations' Fourier coefficients,
    # which bound the curve below on the whole circle, so they may exceed its
    # sampled maximum; the curve is plot data, the verdict is exact
    t = np.linspace(0.0, np.pi / 2, 1024)
    v1 = np.abs(f.evaluate(t) - f.evaluate(-t - np.pi / 2))
    v2 = np.abs(f.evaluate(-t) - f.evaluate(t + np.pi / 2))
    rows = [(repr(float(a)), repr(float(b)), repr(float(c)))
            for a, b, c in zip(t, v1, v2)]
    chart = dict(series=[("first relation", t, v1), ("second relation", t, v2)],
                 title=f"Wedge gluing violations: {cfg.symbol_spec}",
                 xlabel="t", ylabel="violation", logy=True)
    return checks, ["t", "violation_first", "violation_second"], rows, chart


def cmd_polar(cfg: RunConfig):
    margin = cfg.margin if cfg.margin is not None else DEFAULT_POLAR_MARGIN
    tol = _tolerance(cfg)
    report = polar_check(cfg.n, margin, tol)
    rows = [(k, repr(v)) for k, v in sorted(report.details.items())]
    return [asdict(report)], ["quantity", "value"], rows, None


COMMANDS = {
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
    "index": cmd_index,
    "summability": cmd_summability,
    "sweep": cmd_sweep,
    "wedge": cmd_wedge,
    "polar": cmd_polar,
}


# ----------------------------------------------------------------------
# orchestration
# ----------------------------------------------------------------------

def _write_csv(outdir: Path, rows, header) -> str:
    path = outdir / "data.csv"
    with open(path, "w", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return "data.csv"


def _write_report(outdir: Path, cfg: RunConfig, checks, artifacts, error=None):
    report = {
        "command": cfg.command,
        "config": asdict(cfg),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "checks": checks,
        "artifacts": artifacts,
        "error": error,
    }
    with open(outdir / "report.json", "w") as stream:
        json.dump(report, stream, indent=2)
        stream.write("\n")


def run(cfg: RunConfig) -> int:
    """Run a configuration's command, write its artifacts and report.json,
    and return the exit code."""
    outdir = Path(os.environ.get(OUTPUT_DIR_ENV, cfg.output_dir))
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {outdir}: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    error = None
    try:
        checks, header, rows, chart = COMMANDS[cfg.command](cfg)
    except ValueError as exc:
        error, code = {"type": "config", "message": str(exc)}, EXIT_USAGE
        print(f"error: {exc}", file=sys.stderr)
    except (FredholmIndexError, np.linalg.LinAlgError) as exc:
        error, code = {"type": "numerical", "message": str(exc)}, EXIT_NUMERICAL
        print(f"numerical failure: {exc}", file=sys.stderr)
    try:
        if error is not None:
            _write_report(outdir, cfg, [], [], error)
            return code
        artifacts = [_write_csv(outdir, rows, header)]
        if cfg.emit_svg and chart is not None:
            (outdir / "plot.svg").write_text(svg.chart(**chart))
            artifacts.append("plot.svg")
        _write_report(outdir, cfg, checks, artifacts)
    except OSError as exc:
        print(f"error: cannot write to output directory {outdir}: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    for check in checks:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"[{status}] {cfg.command}: {check['name']}")
    return EXIT_OK if all(c["passed"] for c in checks) else EXIT_CHECK_FAILED


def _parse_sizes(text: str) -> list:
    try:
        sizes = [int(v) for v in text.replace(",", " ").split()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}") from exc
    if not sizes:
        raise argparse.ArgumentTypeError("size list is empty")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toeplitz-triple",
        description="Verify the truncated Toeplitz spectral triple: spectrum, "
                    "identities, index, summability.")
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--n": dict(type=int, default=DEFAULT_N),
        "--svg": dict(action="store_true", dest="emit_svg"),
        "--tolerance": dict(type=float, default=None),
        "--margin": dict(type=int, default=None),
        "--symbol": dict(default="cos4k:1", dest="symbol_spec"),
    }
    size_help = "truncation size (default %(default)s)"
    svg_help = "emit plot.svg"
    symbol_help = ("builtin cos4k:K / const:C or a sample file path "
                   "(default %(default)s)")

    def command(name, summary, helps, sizes_default=None):
        """A subcommand with ``--output-dir`` and, for each option in
        ``helps``, that option with this command's help text."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--output-dir", default=".",
                       help=f"report directory (env {OUTPUT_DIR_ENV} overrides)")
        for flag, text in helps.items():
            p.add_argument(flag, help=text, **options[flag])
        if sizes_default is not None:
            p.add_argument("--sizes", type=_parse_sizes,
                           default=list(sizes_default),
                           help="truncation sizes (default %(default)s)")
        return p

    def tolerance_help(name, what):
        return f"tolerance of {what} (default {DEFAULT_TOLERANCE[name]:g})"

    command("spectrum", "eigenvalue ladder and residuals", {
        "--n": size_help, "--svg": svg_help,
        "--tolerance": tolerance_help(
            "spectrum", "the eigenvalue ladder and the eigenpair residuals")})
    command("verify", "commutator/grading/membership suite", {
        "--n": size_help,
        "--tolerance": tolerance_help(
            "verify", "commutator_number, commutator_dz, delta_1, delta_2, "
                      "delta_3 and dzstar_via_adjoint; wedge_gluing "
                      f"({WEDGE_TOLERANCE:g}), delta_absdirac_spot_check "
                      f"({ABSDIRAC_TOLERANCE:g}), evenness (0) and membership "
                      f"({MEMBERSHIP_TOLERANCE:g}) keep fixed tolerances"),
        "--margin": "interior margin of the commutator and delta checks "
                    "(default: automatic, from the symbol's band)",
        "--symbol": symbol_help})
    command("index", "Fredholm index, exact and numeric", {},
            sizes_default=DEFAULT_INDEX_SIZES)
    p_sum = command("summability", "resolvent-weight partial sums",
                    {"--svg": svg_help})
    p_sum.add_argument("--epsilon", type=float, default=1.0,
                       help="summability exponent offset (default %(default)s)")
    p_sum.add_argument("--K", type=int, default=100_000, dest="partial_sum_terms",
                       help="partial sum cutoff (default %(default)s)")
    p_sweep = command("sweep", "commutator norm sweeps", {"--svg": svg_help},
                      sizes_default=DEFAULT_SWEEP_SIZES)
    # the rough control builds its own symbol, so it takes no --symbol
    control = p_sweep.add_mutually_exclusive_group()
    control.add_argument("--symbol", help=symbol_help, **options["--symbol"])
    control.add_argument("--rough", action="store_true", dest="rough_control",
                         help="run the slowly-decaying negative control "
                              "instead of a symbol's sweeps")
    command("wedge", "wedge gluing check of a symbol", {
        "--svg": svg_help,
        "--tolerance": tolerance_help("wedge", "the wedge gluing check"),
        "--symbol": symbol_help})
    command("polar", "polar decomposition check", {
        "--n": size_help,
        "--tolerance": tolerance_help(
            "polar", "the interior deviations of F, |D| and F |D| from "
                     "their closed forms"),
        "--margin": f"interior margin (default {DEFAULT_POLAR_MARGIN})"})
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(**vars(args))
    if cfg.n < 2:
        raise ValueError("n must be >= 2")
    if cfg.tolerance is not None and \
            not (math.isfinite(cfg.tolerance) and cfg.tolerance > 0):
        raise ValueError("tolerance must be finite and > 0")
    if not (math.isfinite(cfg.epsilon) and cfg.epsilon >= 0):
        raise ValueError("epsilon must be finite and >= 0")
    if len(cfg.sizes) < 2 or min(cfg.sizes) < 2:
        raise ValueError("sizes must have >= 2 entries, each >= 2")
    if any(b <= a for a, b in zip(cfg.sizes, cfg.sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    return cfg


def main(argv=None) -> None:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))  # exits with status 2
    sys.exit(run(cfg))


if __name__ == "__main__":
    main()
