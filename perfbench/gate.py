"""Output gate: compare one CLI invocation with its stored reference.

The reference of each command line is the normalised output of that command
at the commit where the reference was captured (see ``capture_reference.py``).
Exact report bytes are not the test, because a faster algorithm may round
differently.  Instead:

* exit code, check names, verdicts, strings, booleans and integers must match
  exactly;
* spectrum eigenvalues (the ``eigenvalue`` column of ``data.csv``) must agree
  to ``EIGENVALUE_ABS`` absolute;
* sweep values (``value`` and ``raw_section_norm`` columns, ``values`` and
  ``raw_values`` report fields) must agree to ``SWEEP_REL`` relative;
* every other float must agree to ``OTHER_TOL`` times ``max(1, |reference|)``,
  so rounding-level residuals such as 3e-16 against 0 pass.

A rule is keyed on the command and the column or field name together: the
``value`` column of ``polar`` holds rounding residuals and takes the last
rule, not the sweep's relative one.

This module uses only the standard library, so the benchmark's parent process
stays small (see ``run.py`` on why that matters for RSS).
"""

from __future__ import annotations

import csv
import json
import math
import re
import xml.etree.ElementTree as ElementTree
from pathlib import Path

EIGENVALUE_ABS = 1e-10
SWEEP_REL = 1e-9
OTHER_TOL = 1e-9

# (command, column or field name) -> tolerance
ABSOLUTE_KEYS = {("spectrum", "eigenvalue"): EIGENVALUE_ABS}
RELATIVE_KEYS = {("sweep", key): SWEEP_REL
                 for key in ("value", "raw_section_norm", "values", "raw_values")}

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(args: list[str]) -> Path:
    """File holding the reference of one command line."""
    slug = re.sub(r"[^A-Za-z0-9_.-]+", "_", "_".join(args)).strip("_")
    return REFERENCE_DIR / f"{slug}.json"


def load_reference(args: list[str]) -> dict | None:
    path = reference_path(args)
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def _cell(text: str):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def normalise(outdir: Path, exit_code: int) -> dict:
    """What the gate compares: exit code, report.json without its timestamp,
    the cells of data.csv, and whether plot.svg is well-formed XML."""
    out = {"exit_code": exit_code, "report": None, "csv": None, "svg": None}
    report = outdir / "report.json"
    if report.is_file():
        try:
            doc = json.loads(report.read_text())
        except ValueError:
            doc = "unparseable report.json"
        if isinstance(doc, dict):
            doc.pop("timestamp", None)
        out["report"] = doc
    data = outdir / "data.csv"
    if data.is_file():
        with open(data, newline="") as stream:
            out["csv"] = list(csv.reader(stream))
    plot = outdir / "plot.svg"
    if plot.is_file():
        try:
            out["svg"] = ElementTree.parse(plot).getroot().tag.endswith("svg")
        except ElementTree.ParseError:
            out["svg"] = False
    return out


def _floats_agree(got: float, want: float, key: tuple) -> bool:
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    if math.isinf(want) or math.isinf(got):
        return got == want
    if key in ABSOLUTE_KEYS:
        return abs(got - want) <= ABSOLUTE_KEYS[key]
    if key in RELATIVE_KEYS:
        return abs(got - want) <= RELATIVE_KEYS[key] * abs(want)
    return abs(got - want) <= OTHER_TOL * max(1.0, abs(want))


def _compare(got, want, path: str, key: tuple, out: list[str]) -> None:
    """Append the mismatches of ``got`` against ``want`` to ``out``; ``key``
    is ``(command, name of the enclosing column or field)``."""
    if len(out) >= 20:
        return
    if isinstance(want, bool) or isinstance(got, bool) or \
            want is None or got is None or isinstance(want, str):
        if got != want or type(got) is not type(want):
            out.append(f"{path}: {got!r} != {want!r}")
    elif isinstance(want, int):
        if not isinstance(got, int) or got != want:
            out.append(f"{path}: {got!r} != {want}")
    elif isinstance(want, float) and isinstance(got, (int, float)):
        if not _floats_agree(float(got), float(want), key):
            out.append(f"{path}: {got!r} != {want!r}")
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            out.append(f"{path}: length {len(got)} != {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{path}[{i}]", key, out)
    elif isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            out.append(f"{path}: keys {sorted(got)} != {sorted(want)}")
            return
        for k in want:
            _compare(got[k], want[k], f"{path}.{k}", (key[0], k), out)
    else:
        out.append(f"{path}: {type(got).__name__} != {type(want).__name__}")


def _compare_csv(got, want, command: str, out: list[str]) -> None:
    if got is None or want is None:
        if got != want:
            out.append(f"data.csv: present {got is not None} != {want is not None}")
        return
    if len(got) != len(want) or not want or got[0] != want[0]:
        out.append(f"data.csv: {len(got)} rows with header "
                   f"{got[0] if got else None} != {len(want)} rows with header "
                   f"{want[0] if want else None}")
        return
    header = want[0]
    for r, (grow, wrow) in enumerate(zip(got[1:], want[1:]), start=1):
        if len(grow) != len(wrow):
            out.append(f"data.csv row {r}: {len(grow)} cells != {len(wrow)}")
            continue
        for col, g, w in zip(header, grow, wrow):
            _compare(_cell(g), _cell(w), f"data.csv[{r}].{col}", (command, col),
                     out)


def compare(got: dict, want: dict | None) -> list[str]:
    """Mismatches between a normalised output and its reference; [] passes."""
    if want is None:
        return ["no reference for this command line"]
    command = want["args"][0]
    out: list[str] = []
    if got["exit_code"] != want["exit_code"]:
        out.append(f"exit code {got['exit_code']} != {want['exit_code']}")
    _compare(got["report"], want["report"], "report", (command, None), out)
    _compare_csv(got["csv"], want["csv"], command, out)
    if got["svg"] != want["svg"]:
        out.append(f"plot.svg well-formed {got['svg']} != {want['svg']}")
    return out
