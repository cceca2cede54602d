"""Tests of the benchmark's own accounting.

Run from the repository root:

    python3 -m pytest -q perfbench/test_accounting.py
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import pytest

import gate
import tracer
from run import ROOT, Bench, run_child


@pytest.fixture
def work():
    path = ROOT / ".perfbench-test"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir()
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def bench(work):
    return Bench(ROOT, work, time.monotonic() + 120.0)


def test_invalid_invocation_counts_as_failed(bench, monkeypatch):
    reference = gate.load_reference(["verify", "--n", "512", "--symbol", "cos4k:1"])
    assert reference["exit_code"] == 0
    # the reference of a valid verify run, against which n=1 must fail
    monkeypatch.setattr(gate, "load_reference", lambda args: reference)
    outcome = bench.invoke(["verify", "--n", "1", "--symbol", "cos4k:1"])
    assert outcome.child.exit_code == 2
    assert outcome.failed
    assert "exit code 2 != 0" in outcome.mismatches


def test_valid_invocation_passes_the_gate(bench):
    outcome = bench.invoke(["index"])
    assert outcome.child.exit_code == 0
    assert outcome.mismatches == []


def test_gate_tolerances():
    def spectrum(eigenvalue="-767.0", dev=0.0, n=4):
        return {"args": ["spectrum"], "exit_code": 0, "svg": None,
                "report": {"checks": [{"name": "a", "passed": True, "n": n,
                                       "max_deviation": dev}]},
                "csv": [["index", "eigenvalue"], ["0", eigenvalue]]}

    def sweep(value="3.5", values=4.0):
        return {"args": ["sweep"], "exit_code": 0, "svg": None,
                "report": {"checks": [{"name": "a", "values": [values]}]},
                "csv": [["target", "value"], ["delta", value]]}

    assert gate.compare(spectrum(), spectrum()) == []
    assert gate.compare(spectrum(repr(-767.0 + 5e-11), dev=3e-16), spectrum()) == []
    assert gate.compare(spectrum(repr(-767.0 + 5e-10)), spectrum())
    assert gate.compare(spectrum(n=5), spectrum())
    assert gate.compare(sweep(values=4.0 * (1 + 5e-10)), sweep()) == []
    assert gate.compare(sweep(values=4.0 * (1 + 5e-9)), sweep())
    assert gate.compare(sweep(value=repr(3.5 * (1 + 5e-10))), sweep()) == []
    assert gate.compare(sweep(value=repr(3.5 * (1 + 5e-9))), sweep())
    assert gate.compare(sweep(), None)


def test_polar_residuals_are_not_held_to_the_sweep_rule():
    want = gate.load_reference(["polar", "--n", "768"])
    got = json.loads(json.dumps(want))
    rows = {row[0]: row for row in got["csv"][1:]}
    assert rows["factor_interior_deviation"][1] == "1.1102230246251565e-16"
    rows["factor_interior_deviation"][1] = "3e-16"
    rows["absdirac_interior_deviation"][1] = "2e-16"
    assert gate.compare(got, want) == []
    rows["absdirac_full_deviation_with_collar"][1] = "768.001"
    assert gate.compare(got, want)


def test_child_rss_is_its_own(work):
    size_mib = 200
    fill = (f"b = bytearray({size_mib} << 20); "
            "b[::4096] = bytes([1]) * len(range(0, len(b), 4096))")
    big = run_child([sys.executable, "-c", fill], work, None, 60.0,
                    work / "big.log")
    small = run_child([sys.executable, "-c", "pass"], work, None, 60.0,
                      work / "small.log")
    assert big.exit_code == 0 and small.exit_code == 0
    assert big.maxrss_mib >= size_mib
    # RUSAGE_CHILDREN would report the big child's high-water mark here
    assert small.maxrss_mib < big.maxrss_mib - 0.75 * size_mib


def test_timeout_stops_the_child(work):
    child = run_child([sys.executable, "-c", "import time; time.sleep(30)"],
                      work, None, 0.5, work / "sleep.log")
    assert child.timed_out
    assert child.wall_s < 10


def test_self_time_on_synthetic_tree():
    spans = [
        ["cli.run", 0.0, 10.0, -1],
        ["triple.check.verify_delta_k", 1.0, 4.0, 0],
        ["operators.matmul", 2.0, 3.0, 1],
        ["numpy.linalg.eigh", 5.0, 6.0, 0],
        ["dirac.spectrum", 6.5, 9.0, 0],
        ["operators.matmul", 7.0, 8.5, 4],
    ]
    assert tracer.self_times(spans) == pytest.approx([3.5, 2.0, 1.0, 1.0, 1.0, 1.5])
    metrics = tracer.layer_metrics([{"spans": spans, "counters": {}, "absent": []}])
    assert metrics["cli.self_s"] == pytest.approx(3.5)
    assert metrics["triple.self_s"] == pytest.approx(2.0)
    assert metrics["dirac.self_s"] == pytest.approx(1.0)
    assert metrics["operators.self_s"] == pytest.approx(2.5)
    assert metrics["numpy.linalg.eigh_s"] == pytest.approx(1.0)
    assert metrics["operators.matmul_calls"] == 2
    assert metrics["triple.check_s.verify_delta_k"] == pytest.approx(3.0)


def test_realize_hits_and_nested_time():
    spans = [
        ["triple.realize", 0.0, 4.0, -1],
        ["triple.realize", 1.0, 3.0, 0],
        ["operators.construct", 1.5, 2.5, 1],
        ["triple.realize", 5.0, 5.5, -1],
    ]
    metrics = tracer.layer_metrics([{"spans": spans, "counters": {}, "absent": []}])
    assert metrics["triple.realize_calls"] == 3
    assert metrics["triple.realize_cache_hit_ratio"] == pytest.approx(1 / 3)
    assert metrics["operators.construct_s"] == pytest.approx(1.0)


def test_wrappers_replace_every_binding_and_tolerate_absent_names(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from toeplitz_triple import cli, dirac, fourier, triple

    original = fourier.wedge_check
    targets = [("fourier.wedge_check", "toeplitz_triple.fourier", "wedge_check"),
               ("dirac.gone", "toeplitz_triple.dirac", "no_such_function"),
               ("cli.command", "toeplitz_triple.cli", "cmd_wedge")]
    t = tracer.Tracer()
    with t.installed(targets):
        assert cli.wedge_check is fourier.wedge_check is triple.wedge_check
        assert cli.wedge_check is not original
        assert cli.COMMANDS["wedge"] is cli.cmd_wedge
        triple.wedge_check(fourier.FourierSeries.cosine(4))
    assert t.absent == ["toeplitz_triple.dirac.no_such_function"]
    assert fourier.wedge_check is original and cli.wedge_check is original
    assert not hasattr(dirac, "no_such_function")
    assert [s[0] for s in t.spans] == ["fourier.wedge_check"]
