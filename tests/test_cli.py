"""Tests for the command-line front end: reports, artifacts, exit codes."""

import argparse
import csv
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest

import toeplitz_triple
from toeplitz_triple import cli, svg
from toeplitz_triple.cli import (
    COMMANDS,
    EXIT_CHECK_FAILED,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    OUTPUT_DIR_ENV,
    RunConfig,
    build_parser,
    config_from_args,
    load_symbol,
    main,
    run,
)
from toeplitz_triple.dirac import FredholmIndexError
from toeplitz_triple.fourier import FourierSeries, coefficient_distance


def make_config(command, tmp_path, **kw):
    cfg = RunConfig(command=command, output_dir=str(tmp_path))
    for key, value in kw.items():
        setattr(cfg, key, value)
    return cfg


def read_report(tmp_path):
    return json.loads((tmp_path / "report.json").read_text())


# ----------------------------------------------------------------------
# symbol loading
# ----------------------------------------------------------------------

def test_load_symbol_builtins():
    assert coefficient_distance(load_symbol("cos4k:2"),
                                FourierSeries({8: 0.5, -8: 0.5})) == 0.0
    assert coefficient_distance(load_symbol("const:1"),
                                FourierSeries({0: 1.0})) == 0.0
    assert coefficient_distance(load_symbol("const:2+1j"),
                                FourierSeries({0: 2.0 + 1.0j})) == 0.0


def test_load_symbol_from_file(tmp_path):
    theta = 2 * np.pi * np.arange(64) / 64
    lines = ["# samples of cos(4 theta)"]
    lines += [repr(complex(v)) for v in np.cos(4 * theta)]
    path = tmp_path / "samples.txt"
    path.write_text("\n".join(lines) + "\n")
    f = load_symbol(str(path))
    assert coefficient_distance(f, FourierSeries.cosine(4)) < 1e-12


def test_load_symbol_errors(tmp_path):
    with pytest.raises(ValueError, match="unknown symbol"):
        load_symbol("nonsense:3")
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\nnot-a-number\n")
    with pytest.raises(ValueError, match="malformed"):
        load_symbol(str(bad))
    short = tmp_path / "short.txt"
    short.write_text("\n".join(["1.0"] * 12) + "\n")
    with pytest.raises(ValueError, match="power of two"):
        load_symbol(str(short))


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def test_spectrum_command(tmp_path):
    cfg = make_config("spectrum", tmp_path, n=64, emit_svg=True)
    assert run(cfg) == EXIT_OK
    report = read_report(tmp_path)
    assert report["command"] == "spectrum"
    assert report["error"] is None
    assert {c["name"] for c in report["checks"]} == {
        "eigenvalue_ladder", "eigenpair_residuals",
        "single_spurious_zero_mode", "nonzero_multiplicities_one"}
    assert all(c["passed"] for c in report["checks"])
    assert "data.csv" in report["artifacts"]
    assert "plot.svg" in report["artifacts"]
    ET.fromstring((tmp_path / "plot.svg").read_text())  # valid XML


def test_report_schema_stable_and_reproducible(tmp_path):
    cfg = make_config("spectrum", tmp_path, n=32)
    assert run(cfg) == EXIT_OK
    first = (tmp_path / "report.json").read_text()
    assert run(cfg) == EXIT_OK
    second = (tmp_path / "report.json").read_text()
    strip = lambda text: [ln for ln in text.splitlines()  # noqa: E731
                          if '"timestamp"' not in ln]
    assert strip(first) == strip(second)
    obj = json.loads(first)
    assert list(obj) == ["command", "config", "timestamp", "checks",
                         "artifacts", "error"]


def test_verify_command(tmp_path):
    cfg = make_config("verify", tmp_path, n=128, symbol_spec="cos4k:1")
    assert run(cfg) == EXIT_OK
    report = read_report(tmp_path)
    names = [c["name"] for c in report["checks"]]
    assert "commutator_number" in names
    assert "membership" in names
    assert all(c["passed"] for c in report["checks"])


def test_verify_command_fails_for_bad_symbol(tmp_path):
    theta = 2 * np.pi * np.arange(64) / 64
    path = tmp_path / "sin.txt"
    path.write_text("\n".join(repr(complex(v)) for v in np.sin(4 * theta)))
    cfg = make_config("verify", tmp_path, n=128, symbol_spec=str(path))
    assert run(cfg) == EXIT_CHECK_FAILED
    report = read_report(tmp_path)
    wedge = next(c for c in report["checks"] if c["name"] == "wedge_gluing")
    assert not wedge["passed"]


def test_verify_runs_wide_symbols_at_large_n(tmp_path):
    # verify --n 1024 --symbol cos4k:8 used to exit 2: the |D| spot check
    # ran at n = 128, below its margin rule n > 4 * (bandwidth + 1) = 132
    argv = ["verify", "--n", "1024", "--symbol", "cos4k:8"]
    assert exit_code(argv, tmp_path) == EXIT_OK
    [check] = [c for c in read_report(tmp_path)["checks"]
               if c["name"] == "delta_absdirac_spot_check"]
    assert check["n"] == 133


def test_verify_passes_a_sample_file_symbol_at_large_n(tmp_path):
    # delta_3 of 64 samples of cos 16t + 0.5 cos 8t used to deviate by
    # 1.4e-11 at n = 1024, from cancellation against N's entries
    theta = 2 * np.pi * np.arange(64) / 64
    path = tmp_path / "cos16.txt"
    path.write_text("\n".join(repr(complex(v)) for v in
                              np.cos(16 * theta) + 0.5 * np.cos(8 * theta)))
    argv = ["verify", "--n", "1024", "--symbol", str(path)]
    assert exit_code(argv, tmp_path) == EXIT_OK


def test_index_command(tmp_path):
    cfg = make_config("index", tmp_path, sizes=[16, 32, 64])
    assert run(cfg) == EXIT_OK
    report = read_report(tmp_path)
    assert all(c["passed"] for c in report["checks"])
    rows = (tmp_path / "data.csv").read_text().splitlines()
    assert rows[0] == "n,kernel,cokernel,index"
    assert rows[1] == "16,1,0,1"


def test_summability_command(tmp_path):
    cfg = make_config("summability", tmp_path, epsilon=1.0,
                      partial_sum_terms=1000, emit_svg=True)
    assert run(cfg) == EXIT_OK
    report = read_report(tmp_path)
    assert any(c["name"] == "bracket_contains_shifted_basel_limit"
               for c in report["checks"])

    cfg0 = make_config("summability", tmp_path, epsilon=0.0,
                       partial_sum_terms=1000)
    assert run(cfg0) == EXIT_OK
    report0 = read_report(tmp_path)
    classification = next(c for c in report0["checks"]
                          if c["name"] == "classification")
    assert "not trace class" in classification["note"]


def test_summability_rejects_an_overflowing_tail_bound(tmp_path):
    # 2 K^-eps / eps is infinite here: report.json used to hold Infinity,
    # which is not JSON, and the tail-bound check passed vacuously
    argv = ["summability", "--epsilon", "1e-320", "--K", "100"]
    assert exit_code(argv, tmp_path) == EXIT_USAGE
    text = (tmp_path / "report.json").read_text()
    report = json.loads(text, parse_constant=lambda name: pytest.fail(name))
    assert report["error"]["type"] == "config"
    assert "tail bound" in report["error"]["message"]
    assert report["checks"] == []


def test_summability_plot_of_one_prefix(tmp_path):
    # K = 1 gives a curve of one point: both axis ranges are degenerate, and
    # the point is a circle in the middle of the frame
    argv = ["summability", "--K", "1", "--svg"]
    assert exit_code(argv, tmp_path) == EXIT_OK
    assert read_report(tmp_path)["artifacts"] == ["data.csv", "plot.svg"]
    assert (tmp_path / "data.csv").read_text() == "K,partial_sum\n1,1.5\n"
    root = ET.parse(tmp_path / "plot.svg").getroot()
    assert not [el for el in root.iter() if tag(el) == "polyline"]
    [circle] = [el for el in root.iter() if tag(el) == "circle"]
    assert circle.get("cx") == \
        f"{(svg.MARGIN_LEFT + svg.WIDTH - svg.MARGIN_RIGHT) / 2:.2f}"
    assert circle.get("cy") == \
        f"{(svg.MARGIN_TOP + svg.HEIGHT - svg.MARGIN_BOTTOM) / 2:.2f}"


def test_sweep_command(tmp_path):
    cfg = make_config("sweep", tmp_path, sizes=[32, 64, 128],
                      symbol_spec="cos4k:1", emit_svg=True)
    assert run(cfg) == EXIT_OK
    report = read_report(tmp_path)
    assert {c["name"] for c in report["checks"]} == {
        "stabilized_dirac", "stabilized_delta:1", "stabilized_delta:2"}


def test_sweep_rough_control(tmp_path):
    cfg = make_config("sweep", tmp_path, sizes=[32, 64, 128],
                      rough_control=True)
    assert run(cfg) == EXIT_OK
    report = read_report(tmp_path)
    control = next(c for c in report["checks"]
                   if c["name"] == "negative_control_grows")
    assert control["passed"]
    assert control["trend"] == "growing"


@pytest.mark.parametrize("symbol", ["const:2", "cos4k:0"])
def test_sweep_plot_of_all_zero_values(tmp_path, symbol):
    # a constant symbol commutes with N and dz, so every sweep value is 0 and
    # the log axes can draw no point: the plot is an empty frame whose
    # legend still names each target and says its points were not drawn
    reports = {}
    for name, extra in (("plain", []), ("plotted", ["--svg"])):
        out = tmp_path / name
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--sizes", "32,64", "--symbol", symbol,
                  "--output-dir", str(out), *extra])
        assert exc.value.code == EXIT_OK
        reports[name] = read_report(out)
    plain, plotted = reports["plain"], reports["plotted"]
    assert plotted["error"] is None
    assert plotted["checks"] == plain["checks"]
    assert all(c["passed"] and c["values"] == [0.0, 0.0]
               for c in plotted["checks"])
    assert plotted["artifacts"] == ["data.csv", "plot.svg"]
    assert (tmp_path / "plotted" / "data.csv").read_bytes() == \
        (tmp_path / "plain" / "data.csv").read_bytes()
    root = ET.fromstring((tmp_path / "plotted" / "plot.svg").read_text())
    assert root.tag.endswith("svg")
    texts = [t.text for t in root.iter() if t.tag.endswith("text")]
    for name in ("dirac", "delta:1", "delta:2"):
        assert name in texts
    assert texts.count("2 of 2 points not drawn: a log axis needs values "
                       "> 0") == 3
    assert "empty" not in texts


def tag(element):
    return element.tag.rsplit("}", 1)[-1]


def drawn_runs(root, color):
    """Point counts of the polylines and circles drawn in ``color``, in
    document order."""
    runs = []
    for el in root.iter():
        if tag(el) == "polyline" and el.get("stroke") == color:
            runs.append(len(el.get("points").split()))
        elif tag(el) == "circle" and el.get("fill") == color:
            runs.append(1)
    return runs


def positive_runs(values):
    """Lengths of the maximal runs of values > 0: what a log axis can draw."""
    return [len(list(run)) for drawn, run in groupby(values, key=lambda v: v > 0)
            if drawn]


def test_log_axis_curve_breaks_at_each_undrawn_point():
    text = svg.chart([("s", range(1, 8), [1.0, 0.0, 2.0, 3.0, -1.0, 4.0, 5.0])],
                     logy=True)
    root = ET.fromstring(text)
    # the lone point before the first gap is a circle, each longer run a line
    assert drawn_runs(root, svg.COLORS[0]) == [1, 2, 2]
    assert "2 of 7 points not drawn" in text


def test_wedge_plot_breaks_its_curves_at_undrawn_samples(tmp_path):
    # 83 of the 1024 samples of each cos4k:2 violation are exact zeros; the
    # curves used to bridge them with one polyline per relation
    argv = ["wedge", "--symbol", "cos4k:2", "--svg"]
    assert exit_code(argv, tmp_path) == EXIT_OK
    assert read_report(tmp_path)["artifacts"] == ["data.csv", "plot.svg"]
    with open(tmp_path / "data.csv", newline="") as stream:
        rows = list(csv.reader(stream))[1:]
    root = ET.parse(tmp_path / "plot.svg").getroot()
    for column, color in ((1, svg.COLORS[0]), (2, svg.COLORS[1])):
        values = [float(row[column]) for row in rows]
        assert values.count(0.0) == 83
        assert drawn_runs(root, color) == positive_runs(values)
        assert len(drawn_runs(root, color)) > 1


def test_wedge_command_pass_and_fail(tmp_path):
    assert run(make_config("wedge", tmp_path, symbol_spec="cos4k:2")) == EXIT_OK

    theta = 2 * np.pi * np.arange(64) / 64
    path = tmp_path / "sin.txt"
    path.write_text("\n".join(repr(complex(v)) for v in np.sin(4 * theta)))
    assert run(make_config("wedge", tmp_path, symbol_spec=str(path))) \
        == EXIT_CHECK_FAILED


def test_polar_command(tmp_path):
    cfg = make_config("polar", tmp_path, n=32, margin=2)
    assert run(cfg) == EXIT_OK
    rows = (tmp_path / "data.csv").read_text()
    assert "absdirac_interior_deviation" in rows


def test_csv_is_comma_separated_lf(tmp_path):
    cfg = make_config("spectrum", tmp_path, n=16)
    assert run(cfg) == EXIT_OK
    raw = (tmp_path / "data.csv").read_bytes()
    assert b"\r" not in raw
    assert b"," in raw


def test_usage_error_writes_error_record(tmp_path):
    cfg = make_config("wedge", tmp_path, symbol_spec="nonsense:1")
    assert run(cfg) == EXIT_USAGE
    report = read_report(tmp_path)
    assert report["error"]["type"] == "config"
    assert report["checks"] == []


def test_non_finite_sample_file_is_a_config_error(tmp_path):
    # such a file used to become the zero series, and verify passed on it
    path = tmp_path / "samples.txt"
    path.write_text("nan\n" + "1.0\n" * 7)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "64", "--symbol", str(path),
              "--output-dir", str(tmp_path)])
    assert exc.value.code == EXIT_USAGE
    report = read_report(tmp_path)
    assert report["error"]["type"] == "config"
    assert "finite" in report["error"]["message"]
    assert report["checks"] == []


def test_overflowing_coefficient_is_a_config_error(tmp_path):
    # abs() of this constant used to raise OverflowError: exit 1, the code of
    # a failed check, and no report.json
    with pytest.raises(SystemExit) as exc:
        main(["wedge", "--symbol", "const:1.5e308+1.5e308j",
              "--output-dir", str(tmp_path)])
    assert exc.value.code == EXIT_USAGE
    report = read_report(tmp_path)
    assert report["error"]["type"] == "config"
    assert "finite" in report["error"]["message"]
    assert report["checks"] == []


def test_index_failure_is_a_numerical_error(tmp_path, monkeypatch):
    def fail(n_small, n_large):
        raise FredholmIndexError("forced disagreement")

    monkeypatch.setattr(cli, "fredholm_index", fail)
    assert exit_code(["index"], tmp_path) == EXIT_NUMERICAL
    report = read_report(tmp_path)
    assert report["error"] == {"type": "numerical",
                               "message": "forced disagreement"}
    assert report["checks"] == [] and report["artifacts"] == []
    assert not (tmp_path / "data.csv").exists()


def test_output_dir_naming_a_file_is_a_usage_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    assert exit_code(["index", "--sizes", "8,16"], taken) == EXIT_USAGE
    assert "cannot create output directory" in capsys.readouterr().err
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize("artifact", ["data.csv", "plot.svg", "report.json"])
def test_an_unwritable_artifact_is_a_usage_error(artifact, tmp_path, capsys):
    # a failed write used to escape run: exit 1, the code of a failed check,
    # with a traceback
    (tmp_path / artifact).mkdir()
    assert exit_code(["spectrum", "--n", "8", "--svg"], tmp_path) == EXIT_USAGE
    err = capsys.readouterr().err
    [line] = err.splitlines()
    assert line.startswith(f"error: cannot write to output directory {tmp_path}")
    assert artifact in line and "Traceback" not in err


def test_an_unwritable_error_record_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "report.json").mkdir()
    assert exit_code(["wedge", "--symbol", "nonsense:1"], tmp_path) == EXIT_USAGE
    first, second = capsys.readouterr().err.splitlines()
    assert first.startswith("error: unknown symbol spec 'nonsense:1'")
    assert second.startswith("error: cannot write to output directory")
    assert "report.json" in second


def test_output_dir_env_override(tmp_path, monkeypatch):
    override = tmp_path / "elsewhere"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(override))
    cfg = make_config("spectrum", tmp_path / "ignored", n=16)
    assert run(cfg) == EXIT_OK
    assert (override / "report.json").exists()
    assert not (tmp_path / "ignored" / "report.json").exists()


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def test_parser_round_trip(tmp_path):
    parser = build_parser()
    args = parser.parse_args(["spectrum", "--n", "64",
                              "--output-dir", str(tmp_path), "--svg"])
    cfg = config_from_args(args)
    assert cfg.command == "spectrum"
    assert cfg.n == 64
    assert cfg.emit_svg


def test_parser_sizes_and_k():
    parser = build_parser()
    args = parser.parse_args(["sweep", "--sizes", "32,64,128"])
    assert args.sizes == [32, 64, 128]
    args = parser.parse_args(["summability", "--epsilon", "0", "--K", "500"])
    cfg = config_from_args(args)
    assert cfg.partial_sum_terms == 500
    assert cfg.epsilon == 0.0


def test_main_exit_codes(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--n", "16", "--output-dir", str(tmp_path)])
    assert exc.value.code == EXIT_OK
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--n", "1", "--output-dir", str(tmp_path)])
    assert exc.value.code == EXIT_USAGE


def exit_code(argv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--output-dir", str(tmp_path)])
    return exc.value.code


@pytest.mark.parametrize("argv", [
    # an infinite tolerance used to pass any deviation, and a nan one or a
    # nan epsilon to fail every comparison with exit 1
    ["polar", "--n", "64", "--tolerance", "inf"],
    ["verify", "--n", "64", "--tolerance", "nan"],
    ["summability", "--epsilon", "nan", "--K", "100"],
    ["spectrum", "--n", "16", "--tolerance", "0"],
    ["wedge", "--tolerance=-1e-9"],
    ["wedge", "--tolerance=-inf"],
    ["summability", "--epsilon", "inf", "--K", "100"],
    ["summability", "--epsilon=-inf", "--K", "100"],
])
def test_bad_tolerance_or_epsilon_is_a_usage_error(argv, tmp_path):
    assert exit_code(argv, tmp_path) == EXIT_USAGE
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["index", "sweep"])
def test_single_size_is_a_usage_error(command, tmp_path):
    # index --sizes 4 used to pass with no index_pair_* check run at all
    assert exit_code([command, "--sizes", "4"], tmp_path) == EXIT_USAGE
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["index", "sweep"])
def test_size_below_two_is_a_usage_error(command, tmp_path):
    # sweep --sizes 0,8 used to fail inside the operator core
    assert exit_code([command, "--sizes", "0,8"], tmp_path) == EXIT_USAGE
    assert exit_code([command, "--sizes", "1,8"], tmp_path) == EXIT_USAGE
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv", [
    ["index", "--sizes", "4,x"],
    ["index", "--sizes", ""],
    ["index", "--sizes", "64,32"],
], ids=" ".join)
def test_bad_size_list_is_a_usage_error(argv, tmp_path):
    assert exit_code(argv, tmp_path) == EXIT_USAGE
    assert not (tmp_path / "report.json").exists()


def test_negative_cos4k_index_is_a_config_error(tmp_path):
    argv = ["wedge", "--symbol", "cos4k:-1"]
    assert exit_code(argv, tmp_path) == EXIT_USAGE
    report = read_report(tmp_path)
    assert report["error"] == {"type": "config",
                               "message": "cos4k index must be >= 0"}
    assert report["checks"] == [] and report["artifacts"] == []


def test_smallest_sizes_run(tmp_path):
    assert exit_code(["index", "--sizes", "2,3"], tmp_path) == EXIT_OK
    assert exit_code(["sweep", "--sizes", "2,3"], tmp_path) == EXIT_OK


# the options each command reads, and no others
SUBCOMMAND_OPTIONS = {
    "spectrum": {"--n", "--output-dir", "--svg", "--tolerance"},
    "verify": {"--n", "--output-dir", "--tolerance", "--margin", "--symbol"},
    "index": {"--output-dir", "--sizes"},
    "summability": {"--output-dir", "--svg", "--epsilon", "--K"},
    "sweep": {"--output-dir", "--svg", "--symbol", "--sizes", "--rough"},
    "wedge": {"--output-dir", "--svg", "--tolerance", "--symbol"},
    "polar": {"--n", "--output-dir", "--tolerance", "--margin"},
}


def test_each_subcommand_takes_only_the_options_it_reads():
    parser = build_parser()
    [sub] = [a for a in parser._actions
             if isinstance(a, argparse._SubParsersAction)]
    found = {name: {s for a in p._actions for s in a.option_strings}
             - {"-h", "--help"} for name, p in sub.choices.items()}
    assert found == SUBCOMMAND_OPTIONS


# small arguments for each command, which pass at these sizes
SMALL_ARGS = {
    "spectrum": ["--n", "16"],
    "verify": ["--n", "64"],
    "index": ["--sizes", "8,16"],
    "summability": ["--K", "100"],
    "sweep": ["--sizes", "32,64"],
    "wedge": [],
    "polar": ["--n", "16"],
}


@pytest.mark.parametrize("argv", [
    [command, *args, *extra] for command, args in SMALL_ARGS.items()
    for extra in ([], ["--svg"])
    if not extra or "--svg" in SUBCOMMAND_OPTIONS[command]], ids=" ".join)
def test_artifacts_are_the_files_written_and_reports_reproduce(argv, tmp_path):
    expected = ["data.csv", "plot.svg"] if "--svg" in argv else ["data.csv"]
    out = tmp_path / "out"
    texts = []
    for _ in range(2):
        shutil.rmtree(out, ignore_errors=True)
        assert exit_code(argv, out) == EXIT_OK
        text = (out / "report.json").read_text()
        assert json.loads(text)["artifacts"] == expected
        assert sorted(p.name for p in out.iterdir()) == \
            sorted([*expected, "report.json"])
        texts.append(re.sub(r'"timestamp": "[^"]*"', "", text))
    assert texts[0] == texts[1]


@pytest.mark.parametrize("command", ["verify", "index", "polar"])
def test_emit_svg_on_a_command_without_a_chart_writes_no_plot(command, tmp_path):
    # the parser offers these commands no --svg; a RunConfig may still ask
    cfg = make_config(command, tmp_path, n=64, sizes=[8, 16], emit_svg=True)
    assert run(cfg) == EXIT_OK
    assert read_report(tmp_path)["artifacts"] == ["data.csv"]
    assert not (tmp_path / "plot.svg").exists()


def test_commands_compute_and_only_run_writes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert set(COMMANDS) == set(SMALL_ARGS)
    for name, command in COMMANDS.items():
        assert list(inspect.signature(command).parameters) == ["cfg"]
        cfg = RunConfig(command=name, n=64, sizes=[32, 64],
                        partial_sum_terms=100, output_dir=str(tmp_path))
        checks, header, rows, chart = command(cfg)
        assert checks and all(c["passed"] for c in checks)
        assert all(len(row) == len(header) for row in rows)
        assert (chart is None) == (name in {"verify", "index", "polar"})
    assert list(tmp_path.iterdir()) == []


def test_option_a_command_ignores_is_a_usage_error(tmp_path):
    # index --n 4096 used to be accepted and do nothing
    assert exit_code(["index", "--n", "64"], tmp_path) == EXIT_USAGE


@pytest.mark.parametrize("symbol", ["nonsense:1", "cos4k:1"])
def test_rough_sweep_takes_no_symbol(symbol, tmp_path):
    # the rough control builds its own symbol; --symbol nonsense:1 used to
    # pass silently
    argv = ["sweep", "--rough", "--sizes", "8,16", "--symbol", symbol]
    assert exit_code(argv, tmp_path) == EXIT_USAGE
    assert not (tmp_path / "report.json").exists()
    assert exit_code(argv[:-2], tmp_path) == EXIT_OK


def option_help(command, option):
    """The help text ``build_parser`` gives ``option`` of ``command``."""
    [sub] = [a for a in build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    [action] = [a for a in sub.choices[command]._actions
                if option in a.option_strings]
    return action.help


def test_margin_help_names_the_default_each_command_uses(tmp_path):
    # polar --help used to call its margin "automatic", the text of verify
    assert option_help("polar", "--margin") == "interior margin (default 2)"
    assert run(make_config("polar", tmp_path, n=16)) == EXIT_OK
    [check] = read_report(tmp_path)["checks"]
    assert check["margin"] == 2
    assert "automatic" in option_help("verify", "--margin")


@pytest.mark.parametrize("command, name", [
    ("spectrum", "eigenpair_residuals"),
    ("polar", "polar_decomposition"),
    ("wedge", "wedge_gluing"),
])
def test_tolerance_help_names_the_default_each_command_uses(command, name,
                                                            tmp_path):
    assert run(make_config(command, tmp_path, n=16)) == EXIT_OK
    [check] = [c for c in read_report(tmp_path)["checks"] if c["name"] == name]
    assert option_help(command, "--tolerance").endswith(
        f"(default {check['tolerance']:g})")


def test_verify_tolerance_reaches_the_six_checks_its_help_names(tmp_path):
    cfg = make_config("verify", tmp_path, n=64, tolerance=1e-3)
    assert run(cfg) == EXIT_OK
    tolerances = {c["name"]: c["tolerance"]
                  for c in read_report(tmp_path)["checks"]}
    reached = {name for name, tol in tolerances.items() if tol == 1e-3}
    assert reached == {"commutator_number", "commutator_dz", "delta_1",
                       "delta_2", "delta_3", "dzstar_via_adjoint"}
    # the other four keep their fixed tolerances whatever --tolerance says
    assert {k: v for k, v in tolerances.items() if k not in reached} == {
        "wedge_gluing": 1e-9, "delta_absdirac_spot_check": 1e-10,
        "evenness": 0.0, "membership": 1e-8}
    text = option_help("verify", "--tolerance")
    head, fixed = text.split(";")
    assert all(name in head for name in reached)
    assert {name: float(tol) for name, tol in
            re.findall(r"(\w+) \(([-+.\w]+)\)", fixed)} == {
        k: v for k, v in tolerances.items() if k not in reached}


# loaded only on the paths that need them, so start-up stays light
LAZY_MODULES = ("logging", "numpy.fft", "scipy", "cmath")


def json_from_child(code, env=os.environ):
    """What a new interpreter prints as JSON on its last line after running
    ``code`` in the environment ``env``, with the package on its path."""
    src = str(Path(toeplitz_triple.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=dict(env, PYTHONPATH=path))
    return json.loads(done.stdout.splitlines()[-1])


def loaded_in_child(modules, code):
    """Which of ``modules`` a new interpreter holds after running ``code``."""
    return json_from_child(
        code + f"\nimport json, sys\nprint(json.dumps([m for m in {modules!r} "
        "if m in sys.modules]))")


def test_start_up_leaves_lazy_modules_unloaded():
    assert loaded_in_child(LAZY_MODULES, "import toeplitz_triple.cli") == []


def test_spectrum_leaves_numpy_ma_unloaded(tmp_path):
    # numpy >= 2 imports numpy.ma from np.unique; the Dirac eigensolve finds
    # its components without it.  numpy 1.x loads numpy.ma with numpy.
    if loaded_in_child(("numpy.ma",), "import numpy"):
        pytest.skip("this numpy loads numpy.ma when it is imported")
    argv = ["spectrum", "--n", "8", "--output-dir", str(tmp_path)]
    code = ("from toeplitz_triple.cli import main\n"
            "try:\n"
            f"    main({argv!r})\n"
            "except SystemExit as exit:\n"
            "    assert exit.code == 0")
    assert loaded_in_child(("numpy.ma",), code) == []
    assert (tmp_path / "report.json").is_file()


# what OpenBLAS reads, in this order, for its thread count
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                         "OMP_NUM_THREADS")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="no /proc/self/task to count the threads in")
def test_import_leaves_one_thread():
    # on a host with two or more CPUs, numpy's OpenBLAS starts a worker
    # thread at import unless one of the variables says otherwise
    code = ("import json, os\nimport toeplitz_triple\n"
            "print(json.dumps([len(os.listdir('/proc/self/task')), "
            f"{{k: os.environ.get(k) for k in {BLAS_THREAD_VARIABLES!r}}}]))")
    bare = {k: v for k, v in os.environ.items()
            if k not in BLAS_THREAD_VARIABLES}
    threads, given = json_from_child(code, bare)
    assert threads == 1
    assert given == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                     "OMP_NUM_THREADS": None}
    # a thread count the caller set is left as given
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        _, given = json_from_child(code, dict(bare, **{name: "2"}))
        assert given == {k: "2" if k == name else None
                         for k in BLAS_THREAD_VARIABLES}
