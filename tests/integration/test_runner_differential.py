"""The campaign runner computes the same bits however it runs the cells.

One small mixed task list — baseline and All-ND cells at two sampling
strides, plus a faulted cell that stays on the scalar engine — runs at
two sampled days per cell through every combination of worker count,
lane width and day-unfold width, and through pooled runs in which one
worker crashes once.  Every run must return the reference results field
for field: the work split (lane chunks, day chunks, singles, in-process
or pooled, recovered or not) changes only where each cell runs.
"""

import dataclasses
import itertools
import multiprocessing
import os

import pytest

from repro.analysis import experiments, runner
from repro.analysis.runner import YearTask, run_year_tasks
from repro.core.versions import ALL_VERSIONS
from repro.faults import builtin_scenario
from repro.weather.locations import CHAD, ICELAND, NEWARK, SANTIAGO

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers must inherit the monkeypatched state",
)

# The default stride (REPRO_SAMPLE_DAYS) for the run: days 0 and 183.
# The second stride, 300, samples days 0 and 300.
DEFAULT_STRIDE = 183


def _tasks():
    fan_stuck = dataclasses.replace(
        ALL_VERSIONS["All-ND"](), faults=builtin_scenario("fan-stuck")
    )
    return [
        YearTask("baseline", NEWARK),
        YearTask("All-ND", CHAD),
        YearTask("baseline", SANTIAGO, sample_every_days=300),
        YearTask("All-ND", ICELAND, sample_every_days=300),
        YearTask(fan_stuck, NEWARK),
    ]


def _patch(monkeypatch, cache_dir):
    monkeypatch.setattr(experiments, "CACHE_DIR", cache_dir)
    monkeypatch.setattr(experiments, "DEFAULT_SAMPLE_DAYS", DEFAULT_STRIDE)
    monkeypatch.setattr(experiments, "DEFAULT_SIM_ENGINE", "lanes")


def _run(monkeypatch, **kwargs):
    """One cold run (fresh memory cache, no disk cache) as plain dicts."""
    monkeypatch.setattr(experiments, "_memory_cache", {})
    results = run_year_tasks(
        _tasks(), use_disk_cache=False, backoff_s=0.0, **kwargs
    )
    return [dataclasses.asdict(result) for result in results]


@pytest.fixture(scope="module")
def reference(cooling_model, tmp_path_factory):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _patch(monkeypatch, tmp_path_factory.mktemp("cache"))
        results = _run(monkeypatch, workers=1, lanes=1, day_lanes=1)
    assert [len(r["sampled_days"]) for r in results] == [2] * 5
    return results


@pytest.fixture()
def patched(tmp_path, monkeypatch):
    _patch(monkeypatch, tmp_path / "cache")
    return monkeypatch


@fork_only
def test_every_work_split_returns_the_reference(reference, patched):
    for workers, lanes, day_lanes in itertools.product(
        (1, 2), (1, 8), (1, 3)
    ):
        got = _run(patched, workers=workers, lanes=lanes, day_lanes=day_lanes)
        assert got == reference, (
            f"workers={workers} lanes={lanes} day_lanes={day_lanes}"
        )


@fork_only
@pytest.mark.parametrize(
    "target,day_lanes", [("_run_lane_chunk", 1), ("_run_day_chunk", 3)]
)
def test_worker_crash_returns_the_reference(
    reference, patched, tmp_path, target, day_lanes
):
    flag = tmp_path / "crashed-once"
    parent_pid = os.getpid()
    real = getattr(runner, target)

    def crash_once(*args, **kwargs):
        if os.getpid() != parent_pid and not flag.exists():
            flag.write_text("x")
            os._exit(1)  # hard crash: BrokenProcessPool in the parent
        return real(*args, **kwargs)

    patched.setattr(runner, target, crash_once)
    got = _run(patched, workers=2, lanes=8, day_lanes=day_lanes)
    assert flag.exists()
    assert got == reference
