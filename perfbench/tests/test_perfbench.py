"""Tests of the benchmark's own arithmetic, inputs and correctness gate.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import copy
import json
import math
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gate  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- tail percentile -------------------------------------------------------------


@pytest.mark.parametrize(
    "n, pct, beyond",
    [(11, 9, 10), (20, 50, 10), (25, 60, 10), (33, 69, 10), (46, 78, 10), (100, 90, 10)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct, beyond):
    values = [float(i) for i in range(1, n + 1)]
    got_pct, value, got_beyond = stats.tail_percentile(values)
    assert (got_pct, got_beyond) == (pct, beyond)
    assert value == values[n - beyond - 1]
    # One percentile higher would leave fewer than ten beyond.
    assert n - math.ceil((pct + 1) * n / 100) < 10


@pytest.mark.parametrize("n", [1, 2, 10])
def test_tail_percentile_at_small_n_reports_the_maximum(n):
    values = [3.0 * i for i in range(n, 0, -1)]
    assert stats.tail_percentile(values) == (100, max(values), 0)


def test_tail_percentile_rejects_an_empty_sample():
    with pytest.raises(ValueError):
        stats.tail_percentile([])


# -- self time ---------------------------------------------------------------------


def nested_table():
    """outer(10 s) > [inner(3 s) > [leaf(1 s)], inner(2 s)], gaps around."""
    clock = FakeClock()
    table = tracer.SpanTable(clock)
    clock.advance(0.5)                       # other
    outer = table.enter("outer")
    clock.advance(1.0)
    inner = table.enter("inner")
    clock.advance(1.5)
    leaf = table.enter("leaf")
    clock.advance(1.0)
    table.exit(leaf)
    clock.advance(0.5)
    table.exit(inner)                        # inner span 3.0 s
    clock.advance(2.0)
    inner2 = table.enter("inner")
    clock.advance(2.0)
    table.exit(inner2)
    clock.advance(2.0)
    table.exit(outer)                        # outer span 10.0 s
    clock.advance(0.25)                      # other
    return table


def test_self_time_is_span_minus_child_spans():
    snap = nested_table().snapshot()
    assert snap["self_s"] == pytest.approx({"outer": 5.0, "inner": 4.0, "leaf": 1.0})
    assert snap["calls"] == {"outer": 1, "inner": 2, "leaf": 1}
    assert snap["other_s"] == pytest.approx(0.75)


def test_same_layer_nesting_counts_one_call():
    clock = FakeClock()
    table = tracer.SpanTable(clock)
    outer = table.enter("layer")
    clock.advance(1.0)
    inner = table.enter("layer")
    clock.advance(2.0)
    assert table.exit(inner) is False
    assert table.exit(outer) is True
    snap = table.snapshot()
    assert snap["self_s"]["layer"] == pytest.approx(3.0)
    assert snap["calls"]["layer"] == 1


def test_layer_sum_closes_on_the_lifetime():
    snap = nested_table().snapshot()
    assert snap["lifetime_s"] == pytest.approx(10.75)
    total = sum(snap["self_s"].values()) + snap["other_s"]
    assert total == pytest.approx(snap["lifetime_s"])
    worker = dict(snap, role="worker")
    merged = tracer.merge([snap, worker])
    assert merged["processes"] == 2
    assert merged["worker_tables"] == 1
    assert merged["main_s"] == pytest.approx(10.75)
    assert merged["coverage"] == pytest.approx(10.0 / 10.75)


def test_time_before_the_table_starts_counts_as_other():
    clock = FakeClock()
    clock.advance(2.0)
    table = tracer.SpanTable(clock, start=0.5)     # the process started at 0.5
    frame = table.enter("layer")
    clock.advance(1.0)
    table.exit(frame)
    snap = table.snapshot()
    assert snap["other_s"] == pytest.approx(1.5)
    assert snap["lifetime_s"] == pytest.approx(2.5)


def test_closure_is_held_against_the_outside_wall_time():
    merged = tracer.merge([nested_table().snapshot()])
    assert run.check_trace("t", merged, 10.75, 0) == []
    assert merged["closure"] == pytest.approx(1.0)
    assert "session wall = 1.000" in run.format_layer_table("t", merged)
    # Time the table never saw (say, a process that started before its
    # table) shows up against the benchmark's own clock.
    assert run.check_trace("t", merged, 12.0, 0)
    assert merged["closure"] == pytest.approx(10.75 / 12.0)


def test_closure_subtracts_helper_thread_spans():
    snap = dict(nested_table().snapshot(), thread_s=2.0)
    snap["self_s"] = dict(snap["self_s"], helper=2.0)
    merged = tracer.merge([snap])
    assert run.check_trace("t", merged, 10.75, 0) == []


def test_a_worker_without_a_table_fails_the_trace():
    main = nested_table().snapshot()
    worker = dict(main, role="worker")
    assert run.check_trace("t", tracer.merge([main, worker, worker]), 10.75, 2) == []
    problems = run.check_trace("t", tracer.merge([main, worker]), 10.75, 2)
    assert problems == ["t trace: 1 worker tables, 2 workers seen"]


def test_process_start_precedes_now():
    start = tracer.process_start()
    assert 0.0 < time.perf_counter() - start < 3600.0


def test_wrapped_functions_record_spans_and_hooks():
    clock = FakeClock()
    table = tracer.SpanTable(clock)
    seen = []

    def leaf(x):
        clock.advance(1.0)
        return x * 2

    wrapped_leaf = tracer._span_wrapper(
        table, "leaf", leaf,
        lambda t, frame, args, kwargs, result, outer: seen.append((args, result, frame.duration)),
    )

    def outer(x):
        clock.advance(0.5)
        return wrapped_leaf(x) + 1

    assert tracer._span_wrapper(table, "outer", outer, None)(3) == 7
    assert seen == [((3,), 6, 1.0)]
    assert table.snapshot()["self_s"] == pytest.approx({"outer": 0.5, "leaf": 1.0})


def test_layer_table_shares_exclude_waiting():
    merged = {
        "self_s": {"core.predictor": 2.0, "physics.thermal": 1.0,
                   "analysis.runner.wait": 4.0},
        "calls": {}, "counters": {}, "other_s": 1.0, "traced_s": 8.0,
        "coverage": 7.0 / 8.0, "closure": 1.0, "worker_tables": 2, "workers_seen": 2,
    }
    values = run.layer_table(merged, 1.2, {})
    assert values["trace.busy_s"] == pytest.approx(4.0)
    assert values["trace.control_share"] == pytest.approx(0.5)
    assert values["trace.plant_share"] == pytest.approx(0.25)
    assert values["analysis.runner.wait_s"] == pytest.approx(4.0)
    values.update(run.store_table(merged))
    assert values["store.physics.thermal.self_s"] == pytest.approx(1.0)
    assert {name for name, _ in run.per_layer_names()} == set(values)


# -- seeds -----------------------------------------------------------------------------


def test_same_seed_gives_the_same_inputs():
    for name in workloads.NAMES:
        assert workloads.params(name, 7) == workloads.params(name, 7)
    assert workloads.params("matrix_cold", 1) == workloads.params("matrix_cold", 2)
    prefills = {tuple(workloads.prefill_cells(s)) for s in range(20)}
    assert len(prefills) > 1
    assert all(len(p) == workloads.SERVICE_PREFILL for p in prefills)
    climates = len(workloads.NAMED_CLIMATES)
    for picks in prefills:
        assert all(
            sum(i // climates == k for i in picks) == workloads.SERVICE_PREFILL_EACH
            and sum(i % climates == k for i in picks) == workloads.SERVICE_PREFILL_EACH
            for k in range(climates)
        )
    assert {workloads.world_points(s) for s in range(20)} == set(workloads.WORLD_POINTS)


def test_same_seed_gives_the_same_cell_list():
    pytest.importorskip("numpy")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import probe

    def labels(workload, seed):
        return [
            (t.label(), t.sample_every_days, t.plant)
            for t in probe.workload_tasks(workload, seed)
        ]

    for name in workloads.NAMES:
        assert labels(name, 3) == labels(name, 3)
    points = workloads.world_points(3)
    assert len(labels("world_hybrid_cold", 3)) == 2 * points
    assert len(labels("service_mixed", 3)) == workloads.params("service_mixed", 3)["cells"]


# -- the correctness gate --------------------------------------------------------------


def test_gate_passes_the_reference_itself():
    reference = gate.load_reference("matrix_cold")
    verdict = gate.Verdict(reference["cells"])
    gate.check_cells(verdict, reference["cells"], reference["cells"])
    gate.check_matrix_table(verdict, reference["stdout"], reference["stdout"], reference["rows"])
    assert not verdict.failed


def test_gate_fails_a_perturbed_reference():
    reference = gate.load_reference("matrix_cold")
    perturbed = copy.deepcopy(reference["cells"])
    cell = sorted(perturbed)[0]
    perturbed[cell]["cooling_kwh"] *= 1 + 1e-6
    verdict = gate.Verdict(reference["cells"])
    gate.check_cells(verdict, reference["cells"], perturbed)
    assert list(verdict.failed) == [cell]
    assert "cooling_kwh" in verdict.failed[cell]


def test_gate_tolerance_ignores_last_bit_noise_only():
    assert not gate.mismatches(1.0 + 1e-13, 1.0)
    assert gate.mismatches(1.0 + 1e-8, 1.0)
    assert gate.mismatches([1.0, 2.0], [1.0])
    assert gate.mismatches({"a": 1.0}, {"a": 1.0, "b": 2.0})


def test_gate_attributes_a_changed_table_row_to_its_cell():
    reference = gate.load_reference("matrix_cold")
    text = reference["stdout"]
    row = next(line for line in text.splitlines() if line.startswith("All-ND") and "Chad" in line)
    changed = text.replace(row, row[:-1] + "9")
    verdict = gate.Verdict(reference["cells"])
    gate.check_matrix_table(verdict, changed, text, reference["rows"])
    assert list(verdict.failed) == ["All-ND|Chad"]


def test_gate_fails_every_cell_on_a_world_summary_change():
    reference = gate.load_reference("world_hybrid_cold")
    points = workloads.WORLD_POINTS[0]
    grid = reference["grids"][str(points)]
    verdict = gate.Verdict(grid["cells"])
    gate.check_world_summary(verdict, grid["stdout"], grid["stdout"], points)
    assert not verdict.failed
    gate.check_world_summary(verdict, grid["stdout"].replace("0", "1", 1), grid["stdout"], points)
    assert len(verdict.failed) == 2 * points


def test_gate_checks_service_counters_sum_to_submitted():
    verdict = gate.Verdict(["a", "b", "c"])
    gate.check_counters(verdict, {"executed": 2, "cached": 1, "deduped": 0}, 3)
    assert not verdict.failed
    gate.check_counters(verdict, {"executed": 1, "cached": 1, "deduped": 0}, 3)
    assert len(verdict.failed) == 3


# -- host-speed scaling -------------------------------------------------------------


def host_with(passes):
    host = speed.HostSpeed()
    host.passes = list(passes)
    return host


def test_kernel_time_is_the_median_of_the_nearest_passes():
    # Nine passes at 0.1 s around t=10, one outlier among them, far passes at 0.2 s.
    near = [(10.0 + i, 0.1) for i in range(-4, 4)] + [(10.5, 0.5)]
    far = [(100.0 + i, 0.2) for i in range(20)]
    host = host_with(far + near)
    assert host.kernel_near(9.0, 11.0) == pytest.approx(0.1)
    assert host.kernel_near(110.0, 110.0) == pytest.approx(0.2)


def test_scaling_cancels_a_uniform_host_slowdown():
    intervals = [(float(t), t + 1.0) for t in range(20)]
    fast = host_with((t + 0.5, speed.REFERENCE_S) for t in range(21))
    slow = host_with((t + 0.5, 1.6 * speed.REFERENCE_S) for t in range(21))
    times, rates, rss = [2.0] * 20, [10.0] * 20, [40.0] * 20
    assert run.scale_samples("first_cell_s", times, intervals, fast) == pytest.approx(times)
    slowed = [1.6 * v for v in times]
    assert run.scale_samples("first_cell_s", slowed, intervals, slow) == pytest.approx(times)
    slowed_rates = [v / 1.6 for v in rates]
    assert run.scale_samples("cell_days_per_s", slowed_rates, intervals, slow) == pytest.approx(rates)
    assert run.scale_samples("peak_rss_mb", rss, intervals, slow) == rss


def test_scaling_keeps_a_program_slowdown_on_a_slow_host():
    intervals = [(0.0, 1.0)] * 5
    fast = host_with((t, speed.REFERENCE_S) for t in range(10))
    slow = host_with((t, 1.6 * speed.REFERENCE_S) for t in range(10))
    before = run.scale_samples("store_build_s", [3.0] * 5, intervals, fast)
    after = run.scale_samples("store_build_s", [3.0 * 1.2 * 1.6] * 5, intervals, slow)
    assert [a / b for a, b in zip(after, before)] == pytest.approx([1.2] * 5)


def test_kernel_pass_is_timed():
    host = speed.HostSpeed()
    host.probe()
    (mid, seconds), = host.passes
    assert 0.0 < seconds < 10.0 and mid <= time.perf_counter()
    assert host.median_s() == seconds


# -- the benchmark definition --------------------------------------------------------


def test_benchmark_json_matches_what_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.DECLARED)
    assert set(workloads.DECLARED) <= set(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
