"""The lane engine's day loop, split by the rate each input changes.

``LaneRunner.run_day`` evaluates weather-only work once per day,
actuator- and backend-dependent work once per control period, and only
the plant state once per model step.  These tests pin what that split
must not change: keep_traces only adds records, lane width changes
nothing, a warmup that is not a whole number of control periods steps
like the scalar engine, and lanes and scalar runs only read a shared
source trace.
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.core.coolair import CoolAir
from repro.core.versions import ALL_VERSIONS
from repro.sim.engine import (
    BaselineAdapter,
    CoolAirAdapter,
    DayRunner,
    ProfileWorkload,
    make_realsim,
    make_smoothsim,
)
from repro.sim.lanes import LaneRunner, LaneScenario
from repro.sim.yearsim import run_year
from repro.weather.locations import NEWARK, SINGAPORE
from repro.workload import profile as profile_module

from tests.integration.test_lane_equivalence import assert_results_identical

PLANTS = ("parasol", "chiller", "cooling_tower", "hybrid")
METRIC_FLOATS = (
    "worst_range_c",
    "outside_range_c",
    "cooling_kwh",
    "it_kwh",
    "max_rate_c_per_hour",
    "water_l",
    "tower_mech_hours",
    "chiller_mech_hours",
)


def assert_metrics_identical(a, b):
    for field in METRIC_FLOATS:
        assert a[field] == b[field], field
    assert np.array_equal(a["temps"], b["temps"])
    assert np.array_equal(a["times"], b["times"])


def _mixed_scenarios(trace, climate=SINGAPORE):
    return [
        LaneScenario(system=system, climate=climate, trace=trace, plant=plant)
        for plant in PLANTS
        for system in ("baseline", ALL_VERSIONS["All-ND"]())
    ]


def test_keep_traces_changes_no_metric(cooling_model, facebook_trace):
    """Every plant under baseline and All-ND: same metrics either way."""
    scenarios = _mixed_scenarios(facebook_trace)
    plain, none = LaneRunner(scenarios, model=cooling_model).run_day(150)
    assert none == [None] * len(scenarios)
    traced, traces = LaneRunner(scenarios, model=cooling_model).run_day(
        150, keep_traces=True
    )
    for a, b, trace in zip(plain, traced, traces):
        assert_metrics_identical(a, b)
        assert len(trace.records) == a["temps"].shape[0]


@pytest.mark.parametrize("plant", ["hybrid", "cooling_tower"])
def test_width_one_equals_width_n_for_capacity_scaled_plants(
    cooling_model, facebook_trace, plant
):
    """Per-period duty blocks give every lane its own capacity rows."""
    scenarios = [
        LaneScenario(system=system, climate=climate, trace=facebook_trace,
                     plant=plant)
        for climate in (SINGAPORE, NEWARK)
        for system in ("baseline", ALL_VERSIONS["All-ND"]())
    ]
    day = 183
    wide_metrics, _ = LaneRunner(scenarios, model=cooling_model).run_day(day)
    if plant == "hybrid":
        # Some period ran the tower regime (its mask set), so the
        # capacity-scaled duty block was exercised.
        assert any(m["tower_mech_hours"] > 0 for m in wide_metrics)
    for scenario, metrics in zip(scenarios, wide_metrics):
        (solo,), _ = LaneRunner([scenario], model=cooling_model).run_day(day)
        assert_metrics_identical(solo, metrics)


def _scalar_runner(system, climate, trace, model, plant):
    """A scalar DayRunner built the way ``run_year`` builds one."""
    if system == "baseline":
        setup = make_realsim(climate, plant=plant)
        adapter = BaselineAdapter()
    else:
        setup = make_smoothsim(climate, plant=plant)
        adapter = CoolAirAdapter(
            CoolAir(
                config=system,
                model=model,
                layout=setup.layout,
                forecast_service=setup.forecast,
                smooth_hardware=setup.smooth_hardware,
            )
        )
    workload = ProfileWorkload(
        copy.deepcopy(trace), setup.layout, float(setup.control_period_s)
    )
    return DayRunner(setup, workload, adapter)


@pytest.mark.parametrize(
    "system,plant",
    [
        ("baseline", "hybrid"),
        ("All-ND", "parasol"),
        ("All-ND", "hybrid"),
    ],
)
def test_partial_warmup_period_matches_scalar(
    cooling_model, facebook_trace, system, plant
):
    """A 1.1 h warmup (33 steps) starts with 3 steps before any epoch.

    Both a fresh runner and one reused after another day must step
    those steps with reset units and no decision, like the scalar
    engine (a fresh hybrid runner used to raise, a reused one to keep
    the previous day's actuators).
    """
    config = system if system == "baseline" else ALL_VERSIONS[system]()
    scenario = LaneScenario(
        system=config, climate=NEWARK, trace=facebook_trace, plant=plant
    )
    scalar = _scalar_runner(config, NEWARK, facebook_trace, cooling_model,
                            plant)
    lanes = LaneRunner([scenario], model=cooling_model)
    for day in (183, 30):
        expected = scalar.run_day(day, warmup_hours=1.1)
        _, (trace,) = lanes.run_day(day, warmup_hours=1.1, keep_traces=True)
        assert len(trace.records) == len(expected.records)
        for got, want in zip(trace.records, expected.records):
            assert got == want, f"diverged at t={want.time_s} on day {day}"


def _job_fields(trace):
    return [dataclasses.astuple(job) for job in trace.jobs]


def test_shared_trace_is_left_untouched(cooling_model, facebook_trace):
    """NONE-policy lanes and scalar runs only read the source trace."""
    before = _job_fields(facebook_trace)
    scenarios = [
        LaneScenario(system=system, climate=NEWARK, trace=facebook_trace)
        for system in ("baseline", ALL_VERSIONS["All-ND"]())
    ]
    runner = LaneRunner(scenarios, model=cooling_model)
    for lane in runner.lanes:
        assert lane.workload.trace is facebook_trace
    runner.run_day(0)
    run_year(
        ALL_VERSIONS["All-ND"](),
        NEWARK,
        facebook_trace,
        model=cooling_model,
        sample_every_days=366,
    )
    assert _job_fields(facebook_trace) == before


def test_rescheduling_cell_after_shared_profile_matches_fresh_process(
    cooling_model, nutch_trace
):
    """All-DEF after All-ND on one trace: its own profile, same result.

    The All-ND cell memoizes the trace's initial demand profile; the
    All-DEF cell starts from it, reschedules jobs on its private copy,
    and must rebuild its own profile without touching the memo.
    """
    trace = copy.deepcopy(nutch_trace)
    for job in trace.jobs:
        job.deadline_s = job.arrival_s + 6 * 3600.0
    all_def = ALL_VERSIONS["All-DEF"]()

    profile_module._initial_profiles.clear()
    fresh = run_year(all_def, NEWARK, trace, model=cooling_model,
                     sample_every_days=120)

    profile_module._initial_profiles.clear()
    run_year(ALL_VERSIONS["All-ND"](), NEWARK, trace, model=cooling_model,
             sample_every_days=120)
    memo = profile_module.initial_demand_profile(trace, 64, 600.0)
    memo_busy = memo.busy_slot_seconds.copy()
    after = run_year(all_def, NEWARK, trace, model=cooling_model,
                     sample_every_days=120)
    assert_results_identical(after, fresh)

    runner = LaneRunner(
        [LaneScenario(system=all_def, climate=NEWARK, trace=trace)],
        model=cooling_model,
    )
    workload = runner.lanes[0].workload
    assert workload.trace is not trace
    assert workload.profile is memo
    runner.run_day(120)
    assert any(job.scheduled_start_s is not None for job in workload.jobs)
    assert workload.profile is not memo
    assert np.array_equal(memo.busy_slot_seconds, memo_busy)
    assert all(job.scheduled_start_s is None for job in trace.jobs)
