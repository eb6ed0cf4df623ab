"""The correctness gate: every run's results against recorded references.

References live in ``perfbench/reference/<workload>.json`` and were
recorded from this program by ``record_reference.py``.  A cell passes
when every field of its result payload (daily ranges, violations and
rates, cooling, IT and water energy, regime hours) matches its
reference within ``REL_TOL`` and the printed table line(s) it feeds
match byte for byte.  ``REL_TOL`` is far below the printed precision
(two decimals), so any change that shows in a table fails the gate.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, Iterable, List

REL_TOL = 1e-9
ABS_TOL = 1e-12

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str) -> dict:
    with open(reference_path(workload)) as handle:
        return json.load(handle)


def mismatches(observed, expected, path: str = "") -> List[str]:
    """Every place two JSON values differ beyond the tolerance."""
    if isinstance(expected, bool) or expected is None or isinstance(expected, str):
        return [] if observed == expected else [f"{path}: {observed!r} != {expected!r}"]
    if isinstance(expected, (int, float)):
        if isinstance(observed, bool) or not isinstance(observed, (int, float)):
            return [f"{path}: {observed!r} != {expected!r}"]
        if math.isclose(observed, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{path}: {observed!r} != {expected!r}"]
    if isinstance(expected, list):
        if not isinstance(observed, list) or len(observed) != len(expected):
            return [f"{path}: length/type differs"]
        out: List[str] = []
        for i, (o, e) in enumerate(zip(observed, expected)):
            out += mismatches(o, e, f"{path}[{i}]")
        return out
    if isinstance(expected, dict):
        if not isinstance(observed, dict) or set(observed) != set(expected):
            return [f"{path}: keys differ"]
        out = []
        for key in expected:
            out += mismatches(observed[key], expected[key], f"{path}.{key}")
        return out
    return [f"{path}: unsupported reference value {expected!r}"]


def cell_key(payload: dict) -> str:
    return f"{payload['label']}|{payload['climate_name']}"


def read_cache_cells(cache_dir: str) -> Dict[str, dict]:
    """Result payloads the program wrote to its result cache, by cell."""
    cells = {}
    for name in os.listdir(cache_dir):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(cache_dir, name)) as handle:
            payload = json.load(handle)["result"]
        cells[cell_key(payload)] = payload
    return cells


class Verdict:
    """Which cells of a run failed, and why (first few reasons kept)."""

    def __init__(self, cells: Iterable[str]) -> None:
        self.cells = list(cells)
        self.failed: Dict[str, str] = {}

    def fail(self, cell: str, reason: str) -> None:
        self.failed.setdefault(cell, reason)

    def fail_all(self, reason: str) -> None:
        for cell in self.cells:
            self.fail(cell, reason)

    @property
    def attempted(self) -> int:
        return len(self.cells)

    def reasons(self, limit: int = 5) -> List[str]:
        return [f"{c}: {r}" for c, r in list(self.failed.items())[:limit]]


def check_cells(
    verdict: Verdict, observed: Dict[str, dict], expected: Dict[str, dict]
) -> None:
    """Each expected cell must be present and match its reference."""
    for cell in verdict.cells:
        if cell not in observed:
            verdict.fail(cell, "no result")
            continue
        if cell not in expected:
            verdict.fail(cell, "no reference")
            continue
        diff = mismatches(observed[cell], expected[cell])
        if diff:
            verdict.fail(cell, diff[0])


def table_rows(text: str) -> Dict[str, str]:
    """Matrix table rows by ``system|location`` (the CLI's first columns)."""
    rows = {}
    for line in text.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) >= 3 and parts[0] and not parts[0].startswith("-"):
            rows[f"{parts[0]}|{parts[1]}"] = line
    return rows


def check_matrix_table(
    verdict: Verdict, observed: str, expected: str, labels: Dict[str, str]
) -> None:
    """Each cell's printed row must match; any other difference fails all.

    ``labels`` maps a cell key (result label|climate) to its row key
    (system name as the CLI prints it|climate).
    """
    if observed == expected:
        return
    seen, want = table_rows(observed), table_rows(expected)
    row_diff = False
    for cell, row in labels.items():
        if seen.get(row) != want.get(row):
            verdict.fail(cell, f"printed row differs: {seen.get(row)!r}")
            row_diff = True
    if not row_diff:
        verdict.fail_all("printed output differs outside the cell rows")


def check_world_summary(verdict: Verdict, observed: str, expected: str,
                        points: int) -> None:
    """The printed summary must match and account for every climate."""
    if observed != expected:
        verdict.fail_all("printed world summary differs from the reference")
    if f"({points} locations)" not in observed:
        verdict.fail_all(f"world summary does not cover all {points} climates")


def check_identical(verdict: Verdict, cold, warm, what: str) -> None:
    if cold != warm:
        verdict.fail_all(f"warm {what} differs from the cold {what}")


def check_counters(verdict: Verdict, counters: Dict[str, int], submitted: int) -> None:
    total = counters.get("executed", 0) + counters.get("cached", 0) + counters.get("deduped", 0)
    if total != submitted:
        verdict.fail_all(
            f"service counters executed+cached+deduped={total} != {submitted} submitted"
        )

