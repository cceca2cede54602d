"""Traced run of one CLI invocation, and the per-layer metrics of its spans.

Run as a child process from the repository root, with ``src`` on
``PYTHONPATH``:

    python3 perfbench/tracer.py --spans spans.json -- verify --n 512

It imports ``toeplitz_triple``, wraps the functions listed in ``TARGETS``
from outside (no library file changes), runs ``toeplitz_triple.cli.main`` on
the arguments after ``--`` and writes the spans it kept in memory to
``--spans`` when the command ends.  Its exit code is the command's.

Each wrapped function is rebound everywhere the package holds it: in its own
module or class, in every package module that imported it by name
(``from .dirac import abs_dirac``) and in module-level dicts such as
``cli.COMMANDS``.  A name that no longer exists is recorded as absent and
skipped, so later refactors that delete functions do not break the benchmark.

The module level uses only the standard library: the benchmark's parent
process imports it to compute metrics and must not load numpy.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "toeplitz_triple"
LAYERS = ("fourier", "operators", "dirac", "triple", "cli", "numpy.linalg")

_CHECKS = ("verify_commutator_number", "verify_commutator_dz", "verify_delta_k",
           "verify_dzstar_via_adjoint", "delta_absdirac_spot_check",
           "evenness_check", "membership_check")
_COMMANDS = ("cmd_spectrum", "cmd_verify", "cmd_index", "cmd_summability",
             "cmd_sweep", "cmd_wedge", "cmd_polar")
_CONSTRUCTORS = ("toeplitz", "identity", "shift", "shift_adjoint", "number",
                 "dz", "dz_star", "finite_rank")

_OPS = f"{PACKAGE}.operators"
_OPERATOR = f"{_OPS}:TruncatedOperator"

# (span name, owner, attribute).  The owner is a module, or "module:Class"
# for a method.  A span belongs to the entry of LAYERS its name starts with.
TARGETS = [
    ("cli.run", f"{PACKAGE}.cli", "run"),
    *[("cli.command", f"{PACKAGE}.cli", name) for name in _COMMANDS],
    ("cli.load_symbol", f"{PACKAGE}.cli", "load_symbol"),
    *[("cli.write", f"{PACKAGE}.cli", name)
      for name in ("_write_report", "_write_csv", "_write_svg")],
    ("cli.write", f"{PACKAGE}.svg", "chart"),
    ("cli.write", f"{PACKAGE}.dirac:SpectrumReport", "to_csv"),
    ("fourier.wedge_check", f"{PACKAGE}.fourier", "wedge_check"),
    ("fourier.evaluate", f"{PACKAGE}.fourier:FourierSeries", "evaluate"),
    ("fourier.coefficient_distance", f"{PACKAGE}.fourier", "coefficient_distance"),
    *[("operators.construct", _OPS, name) for name in _CONSTRUCTORS],
    ("operators.construct", f"{_OPS}:BandPattern", "realize"),
    ("operators.matmul", _OPERATOR, "__matmul__"),
    ("operators.add", _OPERATOR, "__add__"),
    ("operators.adjoint", _OPERATOR, "adjoint"),
    ("operators.commutator", _OPS, "commutator"),
    ("operators.norm", _OPS, "operator_norm"),
    ("operators.interior_block", _OPS, "interior_block"),
    ("operators.symbol_estimate", _OPS, "symbol_estimate"),
    ("operators.kernel_dims", _OPS, "pattern_kernel_dims"),
    ("operators.kernel_dims", _OPS, "rectangular_kernel_dims"),
    ("dirac.assemble", f"{PACKAGE}.dirac", "dirac"),
    ("dirac.grading", f"{PACKAGE}.dirac", "grading"),
    ("dirac.represent", f"{PACKAGE}.dirac", "represent"),
    ("dirac.spectrum", f"{PACKAGE}.dirac", "spectrum"),
    ("dirac.polar", f"{PACKAGE}.dirac", "polar_check"),
    ("dirac.abs_dirac", f"{PACKAGE}.dirac", "abs_dirac"),
    ("dirac.index", f"{PACKAGE}.dirac", "fredholm_index"),
    ("dirac.summability", f"{PACKAGE}.dirac", "summability_report"),
    ("dirac.summability", f"{PACKAGE}.dirac", "summability_partial_sum"),
    *[(f"triple.check.{name}", f"{PACKAGE}.triple", name) for name in _CHECKS],
    ("triple.sweep", f"{PACKAGE}.triple", "boundedness_sweep"),
    ("triple.realize", f"{PACKAGE}.triple:AlgebraElement", "realize"),
    ("triple.rough_symbol", f"{PACKAGE}.triple", "rough_symbol"),
    ("numpy.linalg.eigh", "numpy.linalg", "eigh"),
    ("numpy.linalg.svd", "numpy.linalg", "svd"),
    ("numpy.linalg.matrix_rank", "numpy.linalg", "matrix_rank"),
    # counts bytes realised and opens no span
    ("operators.init", _OPERATOR, "__init__"),
]

# Per-layer metrics: name -> (unit, how it is computed from the spans).
# ("time", span) is the time inside outermost spans of that name, ("calls",
# span) their count, ("counter", key) a value the wrappers accumulated.
PER_LAYER = {
    "operators.matmul_s": ("s", ("time", "operators.matmul")),
    "operators.matmul_calls": ("count", ("calls", "operators.matmul")),
    "operators.matmul_gflop_computed": ("GFLOP", ("counter", "matmul_gflop")),
    "operators.construct_s": ("s", ("time", "operators.construct")),
    "operators.bytes_realised": ("B", ("counter", "bytes_realised")),
    "operators.norm_s": ("s", ("time", "operators.norm")),
    "operators.norm_calls": ("count", ("calls", "operators.norm")),
    "operators.norm_fallbacks": ("count", ("counter", "norm_fallbacks")),
    "operators.symbol_estimate_s": ("s", ("time", "operators.symbol_estimate")),
    "operators.interior_block_s": ("s", ("time", "operators.interior_block")),
    "operators.kernel_dims_s": ("s", ("time", "operators.kernel_dims")),
    "dirac.assemble_s": ("s", ("time", "dirac.assemble")),
    "dirac.spectrum_s": ("s", ("time", "dirac.spectrum")),
    "dirac.polar_s": ("s", ("time", "dirac.polar")),
    "dirac.abs_dirac_s": ("s", ("time", "dirac.abs_dirac")),
    "dirac.index_s": ("s", ("time", "dirac.index")),
    "numpy.linalg.eigh_s": ("s", ("time", "numpy.linalg.eigh")),
    "numpy.linalg.eigh_calls": ("count", ("calls", "numpy.linalg.eigh")),
    "numpy.linalg.eigh_max_dim": ("rows", ("counter", "eigh_max_dim")),
    "numpy.linalg.svd_s": ("s", ("time", "numpy.linalg.svd")),
    "numpy.linalg.svd_calls": ("count", ("calls", "numpy.linalg.svd")),
    "numpy.linalg.matrix_rank_calls": ("count", ("calls", "numpy.linalg.matrix_rank")),
    **{f"triple.check_s.{name}": ("s", ("time", f"triple.check.{name}"))
       for name in _CHECKS},
    "triple.sweep_s": ("s", ("time", "triple.sweep")),
    "triple.realize_calls": ("count", ("calls", "triple.realize")),
    "triple.realize_cache_hit_ratio": ("ratio", ("counter", "realize_hit_ratio")),
    "fourier.wedge_check_s": ("s", ("time", "fourier.wedge_check")),
    "fourier.evaluate_s": ("s", ("time", "fourier.evaluate")),
    "fourier.evaluate_calls": ("count", ("calls", "fourier.evaluate")),
    "cli.command_s": ("s", ("time", "cli.command")),
    "cli.write_s": ("s", ("time", "cli.write")),
    **{f"{layer}.self_s": ("s", ("self", layer)) for layer in LAYERS},
}


def layer_of(span_name: str) -> str:
    for layer in LAYERS:
        if span_name == layer or span_name.startswith(layer + "."):
            return layer
    raise ValueError(f"span {span_name!r} belongs to no layer")


def _array_bytes(value) -> int:
    """Bytes of the numpy arrays in a value, looking one container deep."""
    if hasattr(value, "nbytes") and hasattr(value, "dtype"):
        return int(value.nbytes)
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return sum(int(v.nbytes) for v in value
                   if hasattr(v, "nbytes") and hasattr(v, "dtype"))
    return 0


def _held_bytes(obj) -> int:
    names = set(getattr(obj, "__dict__", {}))
    for cls in type(obj).__mro__:
        slots = getattr(cls, "__slots__", ())
        names.update([slots] if isinstance(slots, str) else slots)
    return sum(_array_bytes(getattr(obj, name, None)) for name in names)


class Tracer:
    """Spans and counters of one invocation, kept in memory.

    A span is ``[name, start, end, parent]`` with ``parent`` the index of the
    enclosing span or -1; times come from ``time.perf_counter``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _span(self, name, fn, before=None, on_error=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                record[2] = clock()
                stack.pop()
        return traced

    def _count_init(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def init(obj, *args, **kwargs):
            fn(obj, *args, **kwargs)
            counters["bytes_realised"] += _held_bytes(obj)
        return init

    # hooks run before a call, on its positional arguments
    def _matmul_flops(self, args):
        n = getattr(args[0], "dim", None)
        if isinstance(n, int):
            self.counters["matmul_gflop"] += 8.0 * n ** 3 / 1e9

    def _eigh_dim(self, args):
        shape = getattr(args[0], "shape", ())
        if shape:
            self.counters["eigh_max_dim"] = max(self.counters["eigh_max_dim"],
                                                shape[-1])

    def _norm_error(self, exc):
        if type(exc).__name__ == "PowerIterationError":
            self.counters["norm_fallbacks"] += 1

    def _wrapper(self, name, original):
        if name == "operators.init":
            return self._count_init(original)
        before = {"operators.matmul": self._matmul_flops,
                  "numpy.linalg.eigh": self._eigh_dim}.get(name)
        on_error = self._norm_error if name == "operators.norm" else None
        return self._span(name, original, before, on_error)

    def _set(self, container, key, value):
        if isinstance(container, dict):
            self._undo.append((container, key, container[key]))
            container[key] = value
        else:
            self._undo.append((container, key, vars(container)[key]))
            setattr(container, key, value)

    def install(self, targets) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for name, owner_path, attr in targets:
            owner = _resolve(owner_path)
            original = None if owner is None else vars(owner).get(attr)
            if not callable(original):
                self.absent.append(f"{owner_path}.{attr}")
                continue
            wrapper = self._wrapper(name, original)
            self._set(owner, attr, wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._set(value, k, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            container, key, value = self._undo.pop()
            if isinstance(container, dict):
                container[key] = value
            else:
                setattr(container, key, value)

    @contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    def to_json_obj(self, invocation: int) -> dict:
        return {"invocation": invocation, "spans": self.spans,
                "counters": dict(self.counters), "absent": self.absent}


def _resolve(owner_path: str):
    module_name, _, class_name = owner_path.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, class_name, None) if class_name else module


# ----------------------------------------------------------------------
# metrics from spans (standard library only)
# ----------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus its children's durations.  One stack on one
    thread records the spans, so children never overlap or outlast their
    parent."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _totals(doc: dict) -> dict:
    """Additive raw totals of one invocation's spans and counters."""
    spans = doc["spans"]
    totals = defaultdict(float)
    has_child = {parent for *_, parent in spans if parent >= 0}
    for i, (name, start, end, parent) in enumerate(spans):
        totals[("calls", name)] += 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            totals[("time", name)] += end - start
        if name == "triple.realize" and i not in has_child:
            totals[("counter", "realize_hits")] += 1
    for (name, *_), own in zip(spans, self_times(spans)):
        totals[("self", layer_of(name))] += own
    for key, value in doc["counters"].items():
        totals[("counter", key)] += value
    return totals


def layer_metrics(docs: list[dict]) -> dict[str, float]:
    """Per-layer metrics of a workload pass: totals over its invocations."""
    totals = defaultdict(float)
    for doc in docs:
        for key, value in _totals(doc).items():
            totals[key] += value
    totals[("counter", "eigh_max_dim")] = max(
        [doc["counters"].get("eigh_max_dim", 0) for doc in docs], default=0)
    calls = totals[("calls", "triple.realize")]
    totals[("counter", "realize_hit_ratio")] = \
        totals[("counter", "realize_hits")] / calls if calls else 0.0
    return {metric: totals[source] for metric, (_, source) in PER_LAYER.items()}


# ----------------------------------------------------------------------
# child entry point
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True, help="span file to write")
    parser.add_argument("--invocation", type=int, default=0,
                        help="identifier shared by this invocation's spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="toeplitz-triple arguments, after --")
    ns = parser.parse_args(argv)
    cli_args = ns.cli_args[1:] if ns.cli_args[:1] == ["--"] else ns.cli_args

    from toeplitz_triple import cli

    tracer = Tracer()
    code = 3
    try:
        # cli.main calls the module-level `run`, which the tracer has rebound
        with tracer.installed(TARGETS):
            cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        with open(ns.spans, "w") as stream:
            json.dump(tracer.to_json_obj(ns.invocation), stream)
    return code


if __name__ == "__main__":
    sys.exit(main())
