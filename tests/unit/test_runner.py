"""Parallel campaign runner tests (repro.analysis.runner).

The pool tests monkeypatch the simulation entry points and rely on the
``fork`` start method to carry the patches into workers, so they skip on
platforms that spawn.
"""

import multiprocessing

import pytest

from repro.analysis import experiments, runner
from repro.errors import ReproError
from repro.sim.yearsim import YearResult
from repro.weather.locations import CHAD, ICELAND, NEWARK, SANTIAGO

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool tests need fork to inherit monkeypatched state",
)


@pytest.fixture()
def tmp_cache(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "CACHE_DIR", tmp_path)
    monkeypatch.setattr(experiments, "_memory_cache", {})
    # These tests patch the scalar entry point (experiments.run_year), so
    # pin the scalar engine; the lane-chunked path has its own tests.
    monkeypatch.setattr(experiments, "DEFAULT_SIM_ENGINE", "scalar")
    return tmp_path


def fake_result(label="Baseline", climate="Newark"):
    return YearResult(
        label=label,
        climate_name=climate,
        sampled_days=[0, 183],
        daily_worst_range_c=[5.0, 6.0],
        daily_outside_range_c=[10.0, 11.0],
        daily_avg_violation_c=[0.0, 0.1],
        daily_max_rate_c_per_hour=[4.0, 5.0],
        cooling_kwh=42.0,
        it_kwh=500.0,
    )


def baseline_tasks(*climates):
    return [runner.YearTask("baseline", c) for c in climates]


class TestResolveWorkers:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert runner.resolve_workers(3) == 3

    def test_env_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert runner.resolve_workers() == 5

    def test_defaults_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        import os

        assert runner.resolve_workers() == (os.cpu_count() or 1)

    def test_invalid_env_is_clean_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ReproError, match="REPRO_WORKERS"):
            runner.resolve_workers()

    @pytest.mark.parametrize("bad", [0, -2])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ReproError, match=">= 1"):
            runner.resolve_workers(bad)


class TestSerialPath:
    def test_workers_1_never_builds_a_pool(self, tmp_cache, monkeypatch):
        monkeypatch.setattr(
            experiments, "run_year",
            lambda system, climate, *a, **k: fake_result(climate=climate.name),
        )

        def boom(*args, **kwargs):  # pragma: no cover - should not run
            raise AssertionError("pool built on the serial path")

        monkeypatch.setattr(runner, "ProcessPoolExecutor", boom)
        results = runner.run_year_tasks(
            baseline_tasks(NEWARK, SANTIAGO, ICELAND), workers=1
        )
        assert [r.climate_name for r in results] == [
            "Newark", "Santiago", "Iceland",
        ]

    def test_single_pending_task_stays_in_process(self, tmp_cache, monkeypatch):
        monkeypatch.setattr(
            experiments, "run_year", lambda *a, **k: fake_result()
        )
        monkeypatch.setattr(
            runner, "ProcessPoolExecutor",
            lambda *a, **k: pytest.fail("pool built for one task"),
        )
        (result,) = runner.run_year_tasks(baseline_tasks(NEWARK), workers=8)
        assert result.cooling_kwh == 42.0

    def test_progress_ticks_every_task(self, tmp_cache, monkeypatch):
        monkeypatch.setattr(
            experiments, "run_year", lambda *a, **k: fake_result()
        )
        seen = []
        runner.run_year_tasks(
            baseline_tasks(NEWARK, SANTIAGO),
            workers=1,
            progress=lambda done, total, task: seen.append((done, total)),
        )
        assert seen == [(1, 2), (2, 2)]

    def test_cached_cells_skip_simulation(self, tmp_cache, monkeypatch):
        calls = []
        monkeypatch.setattr(
            experiments, "run_year",
            lambda *a, **k: calls.append(1) or fake_result(),
        )
        tasks = baseline_tasks(NEWARK, SANTIAGO)
        runner.run_year_tasks(tasks, workers=1)
        assert len(calls) == 2
        runner.run_year_tasks(tasks, workers=1)
        assert len(calls) == 2


@fork_only
class TestPoolPath:
    def test_results_come_back_in_task_order(self, tmp_cache, monkeypatch):
        monkeypatch.setattr(
            experiments, "run_year",
            lambda system, climate, *a, **k: fake_result(climate=climate.name),
        )
        tasks = baseline_tasks(NEWARK, SANTIAGO, ICELAND)
        results = runner.run_year_tasks(tasks, workers=2)
        assert [r.climate_name for r in results] == [
            "Newark", "Santiago", "Iceland",
        ]

    def test_workers_persist_to_the_shared_disk_cache(
        self, tmp_cache, monkeypatch
    ):
        monkeypatch.setattr(
            experiments, "run_year",
            lambda system, climate, *a, **k: fake_result(climate=climate.name),
        )
        tasks = baseline_tasks(NEWARK, SANTIAGO)
        runner.run_year_tasks(tasks, workers=2)
        assert len(list(tmp_cache.glob("*.json"))) == 2
        # A cold process (fresh memory cache) is served from disk.
        monkeypatch.setattr(experiments, "_memory_cache", {})
        monkeypatch.setattr(
            experiments, "run_year",
            lambda *a, **k: pytest.fail("disk cache missed"),
        )
        results = runner.run_year_tasks(tasks, workers=2)
        assert results[1].climate_name == "Santiago"

    def test_parallel_matches_serial(self, tmp_cache, monkeypatch):
        monkeypatch.setattr(
            experiments, "run_year",
            lambda system, climate, *a, **k: fake_result(climate=climate.name),
        )
        tasks = baseline_tasks(NEWARK, SANTIAGO, ICELAND)
        serial = runner.run_year_tasks(tasks, workers=1, use_disk_cache=False)
        monkeypatch.setattr(experiments, "_memory_cache", {})
        parallel = runner.run_year_tasks(tasks, workers=3, use_disk_cache=False)
        import dataclasses

        for a, b in zip(serial, parallel):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)


@pytest.fixture()
def lane_cache(tmp_path, monkeypatch):
    """Like ``tmp_cache`` but with the lane engine left on."""
    monkeypatch.setattr(experiments, "CACHE_DIR", tmp_path)
    monkeypatch.setattr(experiments, "_memory_cache", {})
    monkeypatch.setattr(experiments, "DEFAULT_SIM_ENGINE", "lanes")
    return tmp_path


class TestResolveLanes:
    def test_explicit_wins_over_default(self, monkeypatch):
        monkeypatch.setattr(experiments, "DEFAULT_LANES", 4)
        assert runner.resolve_lanes(2) == 2

    def test_defaults_to_repro_lanes(self, monkeypatch):
        monkeypatch.setattr(experiments, "DEFAULT_LANES", 6)
        assert runner.resolve_lanes() == 6

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ReproError, match=">= 1"):
            runner.resolve_lanes(bad)


class TestLaneChunking:
    """Uncached lane-compatible cells batch into lockstep chunks."""

    def _record_chunks(self, monkeypatch):
        chunks = []

        def fake_chunk(chunk, use_disk_cache):
            chunks.append(list(chunk))
            results = [
                fake_result(climate=task.climate.name) for task in chunk
            ]
            # Mirror the real chunk runner's cache writes.
            for task, result in zip(chunk, results):
                key = experiments.cache_key(
                    task.system,
                    task.climate,
                    task.workload,
                    task.deferrable,
                    task.sample_every_days,
                    task.forecast_bias_c,
                    "lanes",
                )
                experiments.store_result(key, result, use_disk_cache)
            return results

        monkeypatch.setattr(runner, "_run_lane_chunk", fake_chunk)
        monkeypatch.setattr(
            runner,
            "_run_task",
            lambda *a, **k: pytest.fail("cell bypassed the lane engine"),
        )
        return chunks

    def test_group_splits_into_lane_sized_chunks(
        self, lane_cache, monkeypatch
    ):
        chunks = self._record_chunks(monkeypatch)
        tasks = baseline_tasks(NEWARK, SANTIAGO, ICELAND)
        results = runner.run_year_tasks(tasks, workers=1, lanes=2)
        assert [len(c) for c in chunks] == [2, 1]
        assert [r.climate_name for r in results] == [
            "Newark", "Santiago", "Iceland",
        ]

    def test_chunks_grouped_by_sampling_stride(self, lane_cache, monkeypatch):
        chunks = self._record_chunks(monkeypatch)
        tasks = [
            runner.YearTask("baseline", NEWARK, sample_every_days=7),
            runner.YearTask("baseline", SANTIAGO, sample_every_days=30),
            runner.YearTask("baseline", ICELAND, sample_every_days=7),
        ]
        runner.run_year_tasks(tasks, workers=1, lanes=8)
        strides = sorted(
            tuple(t.sample_every_days for t in chunk) for chunk in chunks
        )
        assert strides == [(7, 7), (30,)]

    def test_lanes_1_restores_per_cell_runs(self, lane_cache, monkeypatch):
        monkeypatch.setattr(
            runner,
            "_run_lane_chunk",
            lambda *a, **k: pytest.fail("lane chunk built with lanes=1"),
        )
        monkeypatch.setattr(
            experiments,
            "run_year",
            lambda system, climate, *a, **k: fake_result(
                climate=climate.name
            ),
        )
        results = runner.run_year_tasks(
            baseline_tasks(NEWARK, SANTIAGO), workers=1, lanes=1
        )
        assert [r.climate_name for r in results] == ["Newark", "Santiago"]

    def test_scalar_engine_skips_lane_batching(self, lane_cache, monkeypatch):
        monkeypatch.setattr(experiments, "DEFAULT_SIM_ENGINE", "scalar")
        monkeypatch.setattr(
            runner,
            "_run_lane_chunk",
            lambda *a, **k: pytest.fail("lane chunk built on scalar engine"),
        )
        monkeypatch.setattr(
            experiments, "run_year", lambda *a, **k: fake_result()
        )
        results = runner.run_year_tasks(
            baseline_tasks(NEWARK, SANTIAGO), workers=1, lanes=4
        )
        assert len(results) == 2

    def test_cached_cells_never_reach_a_chunk(self, lane_cache, monkeypatch):
        chunks = self._record_chunks(monkeypatch)
        tasks = baseline_tasks(NEWARK, SANTIAGO)
        runner.run_year_tasks(tasks, workers=1, lanes=4)
        assert [len(c) for c in chunks] == [2]
        # Second run: everything is served from the cache.
        runner.run_year_tasks(tasks, workers=1, lanes=4)
        assert [len(c) for c in chunks] == [2]

    @fork_only
    def test_pool_chunks_spread_across_workers(self, lane_cache, monkeypatch):
        chunks = self._record_chunks(monkeypatch)
        tasks = baseline_tasks(NEWARK, SANTIAGO, ICELAND)
        # 3 lane-compatible cells, 2 workers, 8 lanes: ceil(3/2)=2 per
        # chunk, so both workers get work instead of one 3-lane batch.
        results = runner.run_year_tasks(tasks, workers=2, lanes=8)
        assert [r.climate_name for r in results] == [
            "Newark", "Santiago", "Iceland",
        ]
        # The fakes ran in forked workers; the parent's recorder stays
        # empty, which itself proves the pool path was taken.
        assert chunks == []


# One day's summary in the shape ``_run_day_chunk`` returns per item.
FAKE_DAY = {
    "worst_range_c": 5.0,
    "outside_range_c": 10.0,
    "avg_violation_c": 0.0,
    "max_rate_c_per_hour": 4.0,
    "degraded_fraction": 0.0,
    "cooling_kwh": 14.0,
    "it_kwh": 160.0,
    "water_l": 0.0,
    "tower_mech_hours": 0.0,
    "chiller_mech_hours": 0.0,
}


@fork_only
class TestChunkFailureIsolation:
    """A failed chunk never fails its chunk-mates, even with no retries.

    Each of a failed chunk's cells comes back as a single; only the cell
    that fails on its own is reported.
    """

    CLIMATES = (NEWARK, SANTIAGO, ICELAND, CHAD)

    def _fake_singles(self, monkeypatch):
        def run_task(task, use_disk_cache=True):
            if task.climate.name == "Santiago":
                raise RuntimeError("bad lane")
            return fake_result(climate=task.climate.name)

        monkeypatch.setattr(runner, "_run_task", run_task)

    def test_lane_chunk_failure_fails_only_the_bad_cell(
        self, lane_cache, monkeypatch
    ):
        def run_chunk(chunk, use_disk_cache):
            if any(task.climate.name == "Santiago" for task in chunk):
                raise RuntimeError("bad lane")
            return [fake_result(climate=task.climate.name) for task in chunk]

        monkeypatch.setattr(runner, "_run_lane_chunk", run_chunk)
        self._fake_singles(monkeypatch)
        failures = []
        # 4 cells over 2 workers: chunks [Newark, Santiago], [Iceland, Chad].
        results = runner.run_year_tasks(
            baseline_tasks(*self.CLIMATES), workers=2, lanes=8,
            task_retries=0, backoff_s=0.0, failures=failures,
        )
        assert [f.task.climate.name for f in failures] == ["Santiago"]
        assert [r.climate_name if r else None for r in results] == [
            "Newark", None, "Iceland", "Chad",
        ]

    def test_day_chunk_failure_fails_only_the_bad_cell(
        self, lane_cache, monkeypatch
    ):
        def run_day_chunk(items, use_disk_cache):
            if any(task.climate.name == "Santiago" for task, _ in items):
                raise RuntimeError("bad day")
            return [dict(FAKE_DAY) for _ in items]

        monkeypatch.setattr(runner, "_run_day_chunk", run_day_chunk)
        self._fake_singles(monkeypatch)
        failures = []
        # 3 days per cell in 2-day chunks: Newark's last day shares a
        # chunk with Santiago's first.
        tasks = [
            runner.YearTask("baseline", climate, sample_every_days=122)
            for climate in self.CLIMATES
        ]
        results = runner.run_year_tasks(
            tasks, workers=2, lanes=8, day_lanes=2,
            task_retries=0, backoff_s=0.0, failures=failures,
        )
        assert [f.task.climate.name for f in failures] == ["Santiago"]
        assert [r.climate_name if r else None for r in results] == [
            "Newark", None, "Iceland", "Chad",
        ]
        # Iceland and Chad were folded from their day chunks.
        assert results[2].cooling_kwh == 3 * FAKE_DAY["cooling_kwh"]


class TestFailureKnobResolvers:
    def test_retries_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_RETRIES", "5")
        assert runner.resolve_task_retries(0) == 0

    def test_retries_env_parsed_and_defaulted(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_RETRIES", "3")
        assert runner.resolve_task_retries() == 3
        monkeypatch.delenv("REPRO_TASK_RETRIES")
        assert runner.resolve_task_retries() == 1

    def test_retries_invalid_env_is_clean_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_RETRIES", "many")
        with pytest.raises(ReproError, match="REPRO_TASK_RETRIES"):
            runner.resolve_task_retries()

    def test_retries_rejects_negative(self):
        with pytest.raises(ReproError, match=">= 0"):
            runner.resolve_task_retries(-1)

    def test_timeout_env_and_disable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT_S", "2.5")
        assert runner.resolve_task_timeout() == 2.5
        assert runner.resolve_task_timeout(0) is None  # non-positive disables
        monkeypatch.delenv("REPRO_TASK_TIMEOUT_S")
        assert runner.resolve_task_timeout() is None


class TestSerialFailureHandling:
    def test_retry_then_success(self, tmp_cache, monkeypatch):
        calls = []

        def flaky(system, climate, *a, **k):
            calls.append(climate.name)
            if len(calls) == 1:
                raise RuntimeError("transient")
            return fake_result(climate=climate.name)

        monkeypatch.setattr(experiments, "run_year", flaky)
        retried = []
        results = runner.run_year_tasks(
            baseline_tasks(NEWARK), workers=1, task_retries=1,
            backoff_s=0.0, retried=retried,
        )
        assert results[0].climate_name == "Newark"
        assert len(calls) == 2
        assert retried == ["baseline @ Newark (facebook)"]

    def test_exhausted_retries_raise_with_task_identity(
        self, tmp_cache, monkeypatch
    ):
        def always_fails(*a, **k):
            raise RuntimeError("bad cell")

        monkeypatch.setattr(experiments, "run_year", always_fails)
        from repro.errors import TaskExecutionError

        with pytest.raises(TaskExecutionError, match="baseline @ Newark"):
            runner.run_year_tasks(
                baseline_tasks(NEWARK), workers=1, task_retries=1,
                backoff_s=0.0,
            )

    def test_failures_list_collects_instead_of_raising(
        self, tmp_cache, monkeypatch
    ):
        def santiago_fails(system, climate, *a, **k):
            if climate.name == "Santiago":
                raise RuntimeError("bad cell")
            return fake_result(climate=climate.name)

        monkeypatch.setattr(experiments, "run_year", santiago_fails)
        failures = []
        seen = []
        results = runner.run_year_tasks(
            baseline_tasks(NEWARK, SANTIAGO, ICELAND), workers=1,
            task_retries=0, backoff_s=0.0, failures=failures,
            progress=lambda done, total, task: seen.append((done, total)),
        )
        assert [r.climate_name if r else None for r in results] == [
            "Newark", None, "Iceland",
        ]
        (failure,) = failures
        assert "Santiago" in failure.label()
        assert "bad cell" in failure.error
        # Progress still reaches total: failed cells tick too.
        assert seen[-1] == (3, 3)


@fork_only
class TestPoolFailureHandling:
    def test_pool_failure_carries_identity_and_is_collected(
        self, tmp_cache, monkeypatch
    ):
        def santiago_fails(system, climate, *a, **k):
            if climate.name == "Santiago":
                raise RuntimeError("bad cell")
            return fake_result(climate=climate.name)

        monkeypatch.setattr(experiments, "run_year", santiago_fails)
        failures = []
        results = runner.run_year_tasks(
            baseline_tasks(NEWARK, SANTIAGO, ICELAND), workers=2,
            task_retries=0, backoff_s=0.0, failures=failures,
        )
        assert [r.climate_name if r else None for r in results] == [
            "Newark", None, "Iceland",
        ]
        (failure,) = failures
        assert "Santiago" in failure.label()

    def test_pool_retry_recovers_transient_failure(
        self, tmp_cache, tmp_path, monkeypatch
    ):
        flag = tmp_path / "failed-once"

        def flaky(system, climate, *a, **k):
            if climate.name == "Santiago" and not flag.exists():
                flag.write_text("x")
                raise RuntimeError("transient")
            return fake_result(climate=climate.name)

        monkeypatch.setattr(experiments, "run_year", flaky)
        results = runner.run_year_tasks(
            baseline_tasks(NEWARK, SANTIAGO, ICELAND), workers=2,
            task_retries=1, backoff_s=0.0,
        )
        assert [r.climate_name for r in results] == [
            "Newark", "Santiago", "Iceland",
        ]

    def test_worker_crash_recovers_unfinished_cells_serially(
        self, tmp_cache, tmp_path, monkeypatch
    ):
        import os

        flag = tmp_path / "crashed-once"

        def crashing(system, climate, *a, **k):
            if climate.name == "Santiago" and not flag.exists():
                flag.write_text("x")
                os._exit(1)  # hard crash: BrokenProcessPool in the parent
            return fake_result(climate=climate.name)

        monkeypatch.setattr(experiments, "run_year", crashing)
        results = runner.run_year_tasks(
            baseline_tasks(NEWARK, SANTIAGO, ICELAND), workers=2,
            task_retries=1, backoff_s=0.0,
        )
        assert [r.climate_name for r in results] == [
            "Newark", "Santiago", "Iceland",
        ]

    def test_stalled_pool_times_out_and_recovers_serially(
        self, tmp_cache, monkeypatch
    ):
        import os
        import time

        parent_pid = os.getpid()

        def hangs_in_workers(system, climate, *a, **k):
            if os.getpid() != parent_pid:
                time.sleep(3.0)  # longer than the timeout below
            return fake_result(climate=climate.name)

        monkeypatch.setattr(experiments, "run_year", hangs_in_workers)
        results = runner.run_year_tasks(
            baseline_tasks(NEWARK, SANTIAGO), workers=2,
            task_timeout_s=0.3, backoff_s=0.0,
        )
        assert [r.climate_name for r in results] == ["Newark", "Santiago"]

    def test_crash_recovery_prefers_cells_the_worker_persisted(
        self, tmp_cache, tmp_path, monkeypatch
    ):
        """A cell persisted by a dying worker is never recomputed."""
        import os

        flag = tmp_path / "crashed-once"
        parent_pid = os.getpid()
        parent_calls = []

        def persist_then_crash(system, climate, *a, **k):
            result = fake_result(climate=climate.name)
            if climate.name == "Santiago":
                if os.getpid() == parent_pid:
                    parent_calls.append(climate.name)
                elif not flag.exists():
                    flag.write_text("x")
                    # Simulate a worker that wrote its cache entry and
                    # then died before reporting the result back.
                    key = experiments.cache_key(
                        system, climate, "facebook", False, None, 0.0
                    )
                    experiments._write_disk_entry(key, result)
                    os._exit(1)
            return result

        monkeypatch.setattr(experiments, "run_year", persist_then_crash)
        results = runner.run_year_tasks(
            baseline_tasks(NEWARK, SANTIAGO, ICELAND), workers=2,
            task_retries=1, backoff_s=0.0,
        )
        assert [r.climate_name for r in results] == [
            "Newark", "Santiago", "Iceland",
        ]
        assert parent_calls == []  # served from the persisted cache entry


class TestResolveMpContext:
    def test_env_and_explicit(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_CONTEXT", "spawn")
        assert runner.resolve_mp_context() == "spawn"
        available = multiprocessing.get_all_start_methods()[0]
        assert runner.resolve_mp_context(available) == available
        monkeypatch.delenv("REPRO_MP_CONTEXT")
        assert runner.resolve_mp_context() is None

    def test_invalid_is_clean_error(self, monkeypatch):
        monkeypatch.delenv("REPRO_MP_CONTEXT", raising=False)
        with pytest.raises(ReproError, match="mp context"):
            runner.resolve_mp_context("threads")


class TestWarmSharedState:
    """The pre-pool warm pass trains every distinct model the tasks need."""

    def _record_models(self, monkeypatch):
        import repro.sim.campaign as campaign

        calls = []
        monkeypatch.setattr(
            campaign,
            "trained_cooling_model",
            lambda *a, **k: calls.append(tuple(k.get("log_gaps", ())))
            or object(),
        )
        monkeypatch.setattr(
            experiments, "facebook_trace", lambda deferrable=False: None
        )
        monkeypatch.setattr(
            experiments, "nutch_trace", lambda deferrable=False: None
        )
        return calls

    def _gapped_config(self):
        import dataclasses

        from repro.core.versions import ALL_VERSIONS
        from repro.faults import FaultSchedule, LogGapFault

        gap = LogGapFault(drop_mode="free_cooling")
        config = dataclasses.replace(
            ALL_VERSIONS["All-ND"](), faults=FaultSchedule(log_gaps=(gap,))
        )
        return config, gap

    def test_baseline_only_trains_nothing(self, monkeypatch):
        calls = self._record_models(monkeypatch)
        runner._warm_shared_state(baseline_tasks(NEWARK, SANTIAGO))
        assert calls == []

    def test_warms_every_distinct_model_key_once(self, monkeypatch):
        calls = self._record_models(monkeypatch)
        gapped, gap = self._gapped_config()
        runner._warm_shared_state([
            runner.YearTask("baseline", NEWARK),
            runner.YearTask("All-ND", NEWARK),
            runner.YearTask(gapped, SANTIAGO),
            runner.YearTask(gapped, NEWARK),  # same gap key: warmed once
            runner.YearTask("Energy", ICELAND),  # same default key
        ])
        assert sorted(calls, key=len) == [(), (gap,)]

    def test_gapped_only_tasks_skip_the_default_model(self, monkeypatch):
        """Before the fix, only the default model was ever warmed — and
        gapped cells retrained their degraded model in every worker."""
        calls = self._record_models(monkeypatch)
        gapped, gap = self._gapped_config()
        runner._warm_shared_state([runner.YearTask(gapped, NEWARK)])
        assert calls == [(gap,)]


class TestStreaming:
    def test_keep_results_false_streams_and_drops(self, tmp_cache, monkeypatch):
        monkeypatch.setattr(
            experiments, "run_year",
            lambda system, climate, *a, **k: fake_result(climate=climate.name),
        )
        seen = []
        results = runner.run_year_tasks(
            baseline_tasks(NEWARK, SANTIAGO, ICELAND),
            workers=1,
            keep_results=False,
            consume=lambda i, task, result: seen.append(
                (i, result.climate_name)
            ),
        )
        assert results == [None, None, None]
        assert sorted(seen) == [
            (0, "Newark"), (1, "Santiago"), (2, "Iceland"),
        ]

    def test_consume_includes_cache_hits(self, tmp_cache, monkeypatch):
        monkeypatch.setattr(
            experiments, "run_year",
            lambda system, climate, *a, **k: fake_result(climate=climate.name),
        )
        tasks = baseline_tasks(NEWARK, SANTIAGO)
        runner.run_year_tasks(tasks, workers=1)
        monkeypatch.setattr(
            experiments, "run_year",
            lambda *a, **k: pytest.fail("cache hit recomputed"),
        )
        seen = []
        runner.run_year_tasks(
            tasks,
            workers=1,
            keep_results=False,
            consume=lambda i, task, result: seen.append(result.climate_name),
        )
        assert sorted(seen) == ["Newark", "Santiago"]

    def test_keep_results_false_skips_memory_seeding(
        self, tmp_cache, monkeypatch
    ):
        monkeypatch.setattr(
            experiments, "run_year",
            lambda system, climate, *a, **k: fake_result(climate=climate.name),
        )
        tasks = baseline_tasks(NEWARK, SANTIAGO)
        runner.run_year_tasks(tasks, workers=1)
        # Disk entries exist; a fresh memory cache must stay empty when
        # the cells are served in streaming mode.
        monkeypatch.setattr(experiments, "_memory_cache", {})
        runner.run_year_tasks(
            tasks, workers=1, keep_results=False, consume=lambda *a: None
        )
        assert experiments._memory_cache == {}

    @pytest.mark.parametrize("lanes", [1, 8])
    def test_serial_streaming_run_pins_no_cell(self, lane_cache, lanes):
        """Cells executed in-process are not kept in the memory cache."""
        tasks = [
            runner.YearTask("baseline", climate, sample_every_days=366)
            for climate in (NEWARK, SANTIAGO, ICELAND)
        ]
        seen = []
        runner.run_year_tasks(
            tasks, workers=1, lanes=lanes, keep_results=False,
            consume=lambda i, task, result: seen.append(i),
        )
        assert sorted(seen) == [0, 1, 2]
        assert experiments._memory_cache == {}

    def test_failed_cells_never_reach_consume(self, tmp_cache, monkeypatch):
        def santiago_fails(system, climate, *a, **k):
            if climate.name == "Santiago":
                raise RuntimeError("bad cell")
            return fake_result(climate=climate.name)

        monkeypatch.setattr(experiments, "run_year", santiago_fails)
        failures = []
        seen = []
        runner.run_year_tasks(
            baseline_tasks(NEWARK, SANTIAGO, ICELAND),
            workers=1, task_retries=0, backoff_s=0.0, failures=failures,
            keep_results=False,
            consume=lambda i, task, result: seen.append(result.climate_name),
        )
        assert sorted(seen) == ["Iceland", "Newark"]
        assert len(failures) == 1

    @fork_only
    def test_pool_streaming_consumes_every_cell(self, tmp_cache, monkeypatch):
        monkeypatch.setattr(
            experiments, "run_year",
            lambda system, climate, *a, **k: fake_result(climate=climate.name),
        )
        seen = []
        results = runner.run_year_tasks(
            baseline_tasks(NEWARK, SANTIAGO, ICELAND),
            workers=2,
            keep_results=False,
            consume=lambda i, task, result: seen.append(
                (i, result.climate_name)
            ),
        )
        assert results == [None, None, None]
        assert sorted(seen) == [
            (0, "Newark"), (1, "Santiago"), (2, "Iceland"),
        ]
        # No memory seeding happened in streaming mode.
        assert experiments._memory_cache == {}

    @fork_only
    def test_crash_recovery_still_streams_each_cell_once(
        self, tmp_cache, tmp_path, monkeypatch
    ):
        import os

        flag = tmp_path / "crashed-once"

        def crashing(system, climate, *a, **k):
            if climate.name == "Santiago" and not flag.exists():
                flag.write_text("x")
                os._exit(1)
            return fake_result(climate=climate.name)

        monkeypatch.setattr(experiments, "run_year", crashing)
        seen = []
        runner.run_year_tasks(
            baseline_tasks(NEWARK, SANTIAGO, ICELAND), workers=2,
            task_retries=1, backoff_s=0.0, keep_results=False,
            consume=lambda i, task, result: seen.append(result.climate_name),
        )
        assert sorted(seen) == ["Iceland", "Newark", "Santiago"]


class TestYearTask:
    def test_label(self):
        task = runner.YearTask("baseline", NEWARK, workload="nutch")
        assert task.label() == "baseline @ Newark (nutch)"

    def test_is_picklable(self):
        import pickle

        from repro.core.versions import ALL_VERSIONS

        task = runner.YearTask(ALL_VERSIONS["All-ND"](), NEWARK)
        clone = pickle.loads(pickle.dumps(task))
        assert clone.system.name == "All-ND"
        assert clone.climate.name == "Newark"
