"""A temporal-policy day that moves no job replays the trace as generated.

``ProfileWorkload.begin_day`` clears the previous day's scheduled starts
and restores the initial demand profile; both engines start their days
through it.  The case: All-DEF on a deferrable Facebook trace at Newark,
weekly days — days 0 and 7 defer jobs, day 14 defers none, so day 14
must run on the trace's own profile, not on day 7's rescheduled one.
Both engines shared the old rule, so only this check, not an
engine-equivalence test, can see it.
"""

import numpy as np
import pytest

from repro.core.coolair import CoolAir
from repro.core.versions import ALL_VERSIONS
from repro.sim.engine import (
    CoolAirAdapter,
    DayRunner,
    ProfileWorkload,
    make_smoothsim,
)
from repro.sim.lanes import LaneRunner, LaneScenario, run_year_lanes
from repro.sim.yearsim import run_trace, run_year
from repro.weather.locations import NEWARK
from repro.workload.profile import build_demand_profile
from repro.workload.traces import FacebookTraceGenerator

from tests.integration.test_lane_equivalence import assert_results_identical


@pytest.fixture(scope="module")
def deferrable_trace():
    return FacebookTraceGenerator(num_jobs=400, seed=42).generate(
        deferrable=True
    )


def _lane_runner(config, trace, model):
    runner = LaneRunner(
        [LaneScenario(system=config, climate=NEWARK, trace=trace)],
        model=model,
    )
    return runner, runner.lanes[0].workload


def _scalar_runner(config, trace, model):
    setup = make_smoothsim(NEWARK)
    coolair = CoolAir(
        config=config,
        model=model,
        layout=setup.layout,
        forecast_service=setup.forecast,
        smooth_hardware=setup.smooth_hardware,
    )
    workload = ProfileWorkload(
        run_trace(config, trace), setup.layout, float(setup.control_period_s)
    )
    return DayRunner(setup, workload, CoolAirAdapter(coolair)), workload


@pytest.mark.parametrize("make_runner", [_lane_runner, _scalar_runner])
def test_day_without_deferrals_runs_on_its_own_profile(
    cooling_model, deferrable_trace, make_runner
):
    runner, workload = make_runner(
        ALL_VERSIONS["All-DEF"](), deferrable_trace, cooling_model
    )
    moved = []
    for day in (0, 7, 14):
        runner.run_day(day)
        moved.append(
            sum(job.scheduled_start_s is not None for job in workload.jobs)
        )
    assert moved[0] > 0 and moved[1] > 0 and moved[2] == 0
    own = build_demand_profile(
        workload.trace,
        num_servers=workload.layout.num_servers,
        interval_s=workload.interval_s,
    )
    assert np.array_equal(
        workload.profile.busy_slot_seconds, own.busy_slot_seconds
    )


def test_lane_year_still_equals_scalar_year(cooling_model, deferrable_trace):
    """Stride 14: day 0 defers, day 14 (the case above) does not."""
    config = ALL_VERSIONS["All-DEF"]()
    (lane,) = run_year_lanes(
        [LaneScenario(system=config, climate=NEWARK, trace=deferrable_trace)],
        model=cooling_model,
        sample_every_days=14,
    )
    scalar = run_year(
        config, NEWARK, deferrable_trace, model=cooling_model,
        sample_every_days=14,
    )
    assert_results_identical(lane, scalar)
