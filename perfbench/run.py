#!/usr/bin/env python3
"""Benchmark of the toeplitz-triple command line.

Run from the repository root:

    python3 perfbench/run.py --workload identities --seed 7 --seconds 30 --trace 0

Each workload is a fixed series of ``python -m toeplitz_triple.cli ...``
invocations, each in a fresh child process.  Within ``--seconds`` the series
is repeated (one repetition is a *pass*) and the end-to-end metrics are
medians over passes.  Every invocation's outputs go through the output gate
(``gate.py``).  With ``--trace 1`` the run instead makes one untraced pass and
then traced passes (``tracer.py``) and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give sample
counts and the environment record.

Per-child CPU time and peak RSS come from the rusage that ``os.wait4``
returns for that child alone.  On Linux a child's peak RSS also includes the
high-water RSS of the process that started it (``exec`` carries it over),
so this process uses only the standard library and stays near 10 MiB, well
below any child that imports numpy.  ``environment.parent_maxrss_mib`` in
the output shows that floor.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import tracer  # noqa: E402

# The eight command lines of README's "Command line" section.
README_COMMANDS = [
    "spectrum --n 256 --svg --output-dir out/",
    "verify --n 512 --symbol cos4k:1",
    "index",
    "summability --epsilon 0 --K 100000",
    "sweep --sizes 64,128,256,512 --symbol cos4k:2 --svg",
    "sweep --rough",
    "wedge --symbol cos4k:4",
    "polar --n 64 --margin 2",
]
IDENTITY_SYMBOLS = (2, 3, 4)
DEFAULT_IDENTITY_SYMBOL = 4
NORM_SIZES = "128,256,512,768"

WORKLOADS = ("readme", "identities", "spectral", "norms")

OUTPUT_DIR_ENV = "TOEPLITZ_TRIPLE_OUTPUT_DIR"
SETUP_PER_ROUND = 3
# Every child is stopped when the run reaches this age, so a run ends within
# the 180 s a run may take even if a later change makes a command hang.
RUN_DEADLINE_S = 165.0


def workload_commands(name: str, seed: int | None) -> list[list[str]]:
    """Command lines of a workload.  The seed picks the second identities
    symbol and the order of the invocations; no seed gives the listed order
    with cos4k:4."""
    rng = random.Random(seed)
    if name == "readme":
        lines = list(README_COMMANDS)
    elif name == "identities":
        k = DEFAULT_IDENTITY_SYMBOL if seed is None else rng.choice(IDENTITY_SYMBOLS)
        lines = ["verify --n 1024 --symbol cos4k:1",
                 f"verify --n 1024 --symbol cos4k:{k}"]
    elif name == "spectral":
        lines = ["spectrum --n 768", "polar --n 768"]
    elif name == "norms":
        lines = [f"sweep --sizes {NORM_SIZES}", f"sweep --rough --sizes {NORM_SIZES}"]
    else:
        raise ValueError(f"unknown workload {name!r}")
    if seed is not None:
        rng.shuffle(lines)
    return [line.split() for line in lines]


def all_commands() -> list[list[str]]:
    """Every command line any seed of any workload can run."""
    lines = list(README_COMMANDS)
    lines += [f"verify --n 1024 --symbol cos4k:{k}" for k in (1, *IDENTITY_SYMBOLS)]
    lines += ["spectrum --n 768", "polar --n 768",
              f"sweep --sizes {NORM_SIZES}", f"sweep --rough --sizes {NORM_SIZES}"]
    return [line.split() for line in lines]


@dataclass
class Child:
    """Resources of one finished child process."""

    wall_s: float
    cpu_s: float
    maxrss_mib: float
    exit_code: int
    timed_out: bool


def run_child(argv, cwd, env, timeout: float, log_path: Path) -> Child:
    """Run one child to completion and read its own rusage from wait4."""
    timed_out = threading.Event()
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)

        def stop():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 0.0), stop)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                 maxrss_mib=usage.ru_maxrss / 1024.0,
                 exit_code=proc.returncode, timed_out=timed_out.is_set())


@dataclass
class Outcome:
    """One gated invocation."""

    args: list
    child: Child | None
    mismatches: list
    spans: dict | None = None

    @property
    def failed(self) -> bool:
        return bool(self.mismatches)


@dataclass
class Bench:
    """Runs children against one source tree, inside one work directory."""

    root: Path
    work: Path
    deadline: float
    env: dict = field(init=False)

    def __post_init__(self):
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        env[OUTPUT_DIR_ENV] = str(self.work / "out")
        self.env = env

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def child(self, argv) -> Child:
        return run_child(argv, self.work, self.env, self.remaining(),
                         self.work / "child.log")

    def cli(self, args) -> list[str]:
        return [sys.executable, "-m", "toeplitz_triple.cli", *args]

    def outputs(self, argv) -> tuple[Child, dict]:
        """Run one child in an empty output directory; return its resources
        and its normalised outputs."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        child = self.child(argv)
        return child, gate.normalise(out, child.exit_code)

    def invoke(self, args, trace_id: int | None = None) -> Outcome:
        """Run one command line (traced when ``trace_id`` is given) and gate
        its outputs against the reference."""
        if self.remaining() <= 0:
            return Outcome(args, None, ["run deadline passed before it started"])
        spans_path = self.work / "spans.json"
        if trace_id is None:
            argv = self.cli(args)
        else:
            spans_path.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "tracer.py"), "--spans",
                    str(spans_path), "--invocation", str(trace_id), "--", *args]
        child, outputs = self.outputs(argv)
        if child.timed_out:
            return Outcome(args, child, [f"timed out after {child.wall_s:.1f} s"])
        mismatches = gate.compare(outputs, gate.load_reference(args))
        spans = None
        if trace_id is not None:
            if spans_path.is_file():
                spans = json.loads(spans_path.read_text())
            else:
                mismatches.append("traced child wrote no spans")
        return Outcome(args, child, mismatches, spans)

    def setup_sample(self) -> Outcome:
        """One fresh-interpreter ``--help`` run."""
        child = self.child(self.cli(["--help"]))
        bad = [] if child.exit_code == 0 and not child.timed_out else \
            [f"--help exited with {child.exit_code}"]
        return Outcome(["--help"], child, bad)

    def rounds(self, commands, seconds: float, traced: bool):
        """Repeat rounds while another fits into ``seconds``, at least one.

        A round is ``SETUP_PER_ROUND`` set-up samples, one untraced pass over
        the commands and, when ``traced``, one traced pass.  Spreading the
        set-up samples over the run, and alternating untraced with traced
        passes, lets each comparison be made under the same machine load.
        Returns the set-up samples, the untraced and the traced passes.
        """
        setup: list[Outcome] = []
        untraced: list[list[Outcome]] = []
        with_trace: list[list[Outcome]] = []
        ids = itertools.count()
        start = time.monotonic()
        longest = 0.0
        while not untraced or time.monotonic() - start + longest <= seconds:
            began = time.monotonic()
            setup.extend(self.setup_sample() for _ in range(SETUP_PER_ROUND))
            untraced.append([self.invoke(args) for args in commands])
            if traced:
                with_trace.append([self.invoke(args, next(ids)) for args in commands])
            longest = max(longest, time.monotonic() - began)
            if self.remaining() <= longest:
                break
        return setup, untraced, with_trace

    def environment(self, seed) -> dict:
        try:
            done = subprocess.run([sys.executable, str(HERE / "environment.py")],
                                  cwd=self.work, env=self.env, capture_output=True,
                                  timeout=max(1.0, min(30.0, self.remaining())))
            numeric = json.loads(done.stdout)
        except (subprocess.TimeoutExpired, ValueError):
            numeric = {"error": "environment probe failed"}
        return {
            "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "platform": platform.platform(),
            **numeric,
            "git_commit": _git_commit(self.root),
            "source_sha256": _source_digest(self.root / "src"),
            "seed": seed,
        }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _self_maxrss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pass_wall(outcomes: list[Outcome]) -> float:
    return sum(o.child.wall_s for o in outcomes if o.child is not None)


def _medians(passes: list[list[Outcome]], attr: str) -> list[float]:
    """Per command line, the median of ``attr`` over the passes."""
    return [statistics.median(values) if values else 0.0
            for values in ([getattr(o.child, attr) for o in column
                            if o.child is not None]
                           for column in zip(*passes))]


def end_to_end(passes: list[list[Outcome]], setup: list[float]) -> dict:
    """The workload's wall and CPU time, as sums over its command lines of
    each line's median over passes, its peak RSS, and the set-up time.

    Taking the median per command line, not per pass, discards a slow
    outlier of one invocation without discarding the rest of its pass.
    """
    wall = _medians(passes, "wall_s")
    values = {
        "wall_s": (sum(wall), "s"),
        "cpu_s": (sum(_medians(passes, "cpu_s")), "s"),
        "peak_rss_mib": (max(_medians(passes, "maxrss_mib")), "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    print("pass walls (s): "
          + " ".join(f"{_pass_wall(p):.4g}" for p in passes))
    print("median wall per command line (s): " + " ".join(f"{w:.4g}" for w in wall))
    print("setup walls (s): "
          + " ".join(f"{v:.4g}" for v in setup))
    metrics = {}
    for name, (value, unit) in values.items():
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit}")
    return metrics


def per_layer(untraced: list[list[Outcome]], traced: list[list[Outcome]]) -> dict:
    """Medians over traced passes of the per-layer metrics, plus the tracing
    overhead against the untraced passes of the same run."""
    docs = [[o.spans for o in p if o.spans is not None] for p in traced]
    per_pass = [tracer.layer_metrics(d) for d in docs]
    metrics = {name: {"value": statistics.median(m[name] for m in per_pass),
                      "unit": unit}
               for name, (unit, _) in tracer.PER_LAYER.items()}
    untraced_wall = statistics.median(_pass_wall(p) for p in untraced)
    traced_wall = statistics.median(_pass_wall(p) for p in traced)
    in_spans = statistics.median(
        sum(end - start for d in pass_docs for _, start, end, parent in d["spans"]
            if parent < 0) for pass_docs in docs)
    extra = {
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.outside_spans_s": traced_wall - in_spans,
        "trace.spans": statistics.median(
            sum(len(d["spans"]) for d in pass_docs) for pass_docs in docs),
    }
    for name, value in extra.items():
        metrics[name] = {"value": value,
                         "unit": "count" if name == "trace.spans" else "s"}
    absent = sorted({name for pass_docs in docs for d in pass_docs
                     for name in d["absent"]})
    print(f"absent trace targets: {absent or 'none'}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    return metrics


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the listed inputs)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time; at least one pass always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    ns = parse_args(argv)
    if not (ROOT / "src" / "toeplitz_triple" / "cli.py").is_file():
        print(f"error: no toeplitz_triple sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    commands = workload_commands(ns.workload, ns.seed)
    work = ROOT / ".perfbench-work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        bench = Bench(ROOT, work, time.monotonic() + RUN_DEADLINE_S)
        record = bench.environment(ns.seed)
        # unmeasured: leaves the bytecode cache written
        warm_up = bench.setup_sample()
        setup, untraced, traced = bench.rounds(commands, ns.seconds, bool(ns.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    invocations = [o for p in untraced + traced for o in p]
    outcomes = [warm_up, *setup, *invocations]
    failed = [o for o in outcomes if o.failed]
    print(f"workload {ns.workload}, seed {ns.seed}: "
          f"{' | '.join(' '.join(c) for c in commands)}")
    print(f"untraced passes: {len(untraced)}; traced passes: {len(traced)}; "
          f"setup samples: {len(setup)}")
    for o in failed[:10]:
        print(f"FAILED {' '.join(o.args)}: {'; '.join(o.mismatches[:5])}")
    if ns.trace:
        metrics = per_layer(untraced, traced)
    else:
        metrics = end_to_end(untraced, [o.child.wall_s for o in setup
                                        if o.child is not None])
        # the workload's own invocations only; a failed set-up sample still
        # shows in `failed` and `correct`
        ok = 1.0 - sum(o.failed for o in invocations) / len(invocations)
        metrics["ops_ok_frac"] = {"value": ok, "unit": "ratio"}
        print(f"ops_ok_frac = {ok:.6g} ({len(invocations)} workload invocations)")
    record["parent_maxrss_mib"] = _self_maxrss_mib()
    print("environment: " + json.dumps(record))
    print(json.dumps({"correct": not failed, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
