"""Which program functions belong to which layer, and what each counts.

This is the only file of the traced run that names the program's
functions.  Layer names are the program's module names.  A target that a
later commit renames is skipped (and listed in the run's metadata), so
the table loses a row instead of the benchmark breaking.
"""

from __future__ import annotations

import pickle
import time
from typing import List, Tuple

import numpy as np


# -- counting hooks ------------------------------------------------------------
# Each runs after the wrapped call: hook(table, frame, args, kwargs,
# result, outermost).  ``outermost`` is False when the call is nested in
# another call of the same layer, whose count already covers it.


def _count(name):
    def hook(table, frame, args, kwargs, result, outer):
        if outer:
            table.add(name)
    return hook


def _lane_setup(table, frame, args, kwargs, result, outer):
    table.add("sim.lanes.setup_s", frame.duration)


def _lane_day(table, frame, args, kwargs, result, outer):
    table.add("sim.lanes.lane_days", args[0].num_lanes)
    table.add("sim.lanes.run_days")


def _candidates(table, frame, args, kwargs, result, outer):
    if not outer:
        return
    commands = args[2] if len(args) > 2 else (
        kwargs.get("commands_per_lane") or kwargs.get("commands")
        or kwargs.get("command")
    )
    if isinstance(commands, (list, tuple)):
        if commands and isinstance(commands[0], (list, tuple)):
            count = sum(len(c) for c in commands)
        else:
            count = len(commands)
    else:
        count = 1
    table.add("core.predictor.candidates", count)


def _elements(table, frame, args, kwargs, result, outer):
    if outer and args:
        table.add("physics.psychrometrics.elements", int(np.size(args[0])))


def _cache_read(table, frame, args, kwargs, result, outer):
    table.add("analysis.experiments.cache_read_s", frame.duration)
    key = "cache_misses" if result is None else "cache_hits"
    table.add(f"analysis.experiments.{key}")


def _cache_write(table, frame, args, kwargs, result, outer):
    table.add("analysis.experiments.cache_write_s", frame.duration)


def _store_read(table, frame, args, kwargs, result, outer):
    table.add("artifacts.misses" if result is None else "artifacts.hits")


def _chunk(table, frame, args, kwargs, result, outer):
    from repro.analysis.runner import resolve_lanes

    table.add("analysis.runner.chunks")
    table.add("analysis.runner.chunk_cells", len(args[0]))
    table.add("analysis.runner.lane_slots", resolve_lanes())


def _single(table, frame, args, kwargs, result, outer):
    from repro.analysis.runner import resolve_lanes

    table.add("analysis.runner.chunks")
    table.add("analysis.runner.chunk_cells", 1)
    table.add("analysis.runner.lane_slots", resolve_lanes())


def _worker_entry(table, frame, args, kwargs, result, outer):
    """A pool entry point returned: count payload bytes, first-task lag."""
    if table.role != "worker":
        return
    table.add(
        "analysis.runner.payload_bytes",
        len(pickle.dumps(args, protocol=pickle.HIGHEST_PROTOCOL))
        + len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)),
    )
    if not table.counters.get("analysis.runner.worker_tasks"):
        table.add("analysis.runner.worker_setup_s", frame.start - table.start)
    table.add("analysis.runner.worker_tasks")


def _entry_single(table, frame, args, kwargs, result, outer):
    _single(table, frame, args, kwargs, result, outer)
    _worker_entry(table, frame, args, kwargs, result, outer)


def _engine_day(table, frame, args, kwargs, result, outer):
    # Learning-campaign days (store builds) are counted apart from the
    # scalar days of campaign cells (faulted cells).
    if table.inside("sim.campaign"):
        table.add("sim.campaign.days")
    else:
        table.add("sim.engine.days")


def _enqueue(table, frame, args, kwargs, result, outer):
    for key in args[0]._cells:
        table.marks.setdefault(key, frame.end)


# -- targets ---------------------------------------------------------------------


def _methods(module, cls, names, layer, hook=None):
    return [(module, f"{cls}.{name}", layer, hook) for name in names]


def _functions(module, names, layer, hook=None):
    return [(module, name, layer, hook) for name in names]


PSYCHRO = (
    "saturation_pressure_pa", "saturation_mixing_ratio",
    "relative_to_absolute_humidity", "absolute_to_relative_humidity",
    "saturation_pressure_pa_array", "relative_to_absolute_humidity_array",
    "absolute_to_relative_humidity_array",
    "mixing_ratio_from_relative_humidity", "wet_bulb_c", "wet_bulb_c_array",
    "dew_point_c",
)

BACKEND_FUNCTIONS = (
    "chiller_lift_k", "chiller_cop", "chiller_power_w",
    "tower_capacity_factor", "tower_power_w", "tower_water_l",
    "chiller_power_w_array", "tower_capacity_factor_array",
    "tower_water_l_array",
)

# Methods each lane-units class defines itself (inherited ones are
# wrapped once, on the base class).
LANE_UNIT_METHODS = {
    "LaneCoolingUnits": (
        "observe_boundary", "set_actuators", "effective_duty", "step_resources",
    ),
    "LaneChillerUnits": ("set_actuators", "step_resources"),
    "LaneCoolingTowerUnits": (
        "observe_boundary", "set_actuators", "effective_duty", "step_resources",
    ),
    "LaneHybridUnits": ("set_actuators", "effective_duty", "step_resources"),
}


def program_targets() -> List[Tuple]:
    """Every wrapped function of the simulator and the campaign runner."""
    m = "repro."
    targets: List[Tuple] = []
    targets += [
        (m + "sim.lanes", "LaneRunner.__init__", "sim.lanes", _lane_setup),
        (m + "sim.lanes", "LaneRunner.run_day", "sim.lanes", _lane_day),
    ]
    targets += _methods(m + "sim.lanes", "LaneRunner", ("run_year",), "sim.lanes")
    targets += _functions(
        m + "sim.lanes", ("run_year_lanes", "run_year_unfolded"), "sim.lanes"
    )
    targets += [(m + "sim.engine", "DayRunner.run_day", "sim.engine", _engine_day)]
    targets += _methods(
        m + "core.predictor", "CoolingPredictor",
        ("predict", "predict_batch", "predict_lanes", "predict_lanes_stacked"),
        "core.predictor", _candidates,
    )
    targets += _methods(
        m + "core.optimizer", "CoolingOptimizer",
        ("decide", "decide_from_predictions", "decide_from_stacked"),
        "core.optimizer",
    )
    targets += _methods(
        m + "core.utility", "UtilityFunction",
        ("score", "score_batch", "score_arrays"), "core.utility",
    )
    targets += _methods(m + "core.coolair", "CoolAir", ("plan_compute",), "core.compute")
    targets += _methods(m + "core.coolair", "CoolAir", ("start_day",), "core.coolair")
    targets += _methods(m + "physics.thermal", "ThermalPlant", ("step",), "physics.thermal")
    targets += _methods(
        m + "physics.thermal", "LaneThermalPlant",
        ("step", "set_inputs", "step_outside"), "physics.thermal",
    )
    targets += _methods(m + "physics.thermal", "LaneDiskModel", ("step",), "physics.thermal")
    targets += _methods(m + "physics.thermal", "DiskThermalModel", ("step",), "physics.thermal")
    targets += _functions(
        m + "physics.psychrometrics", PSYCHRO, "physics.psychrometrics", _elements
    )
    targets += _functions(m + "cooling.backends", BACKEND_FUNCTIONS, "cooling.backends")
    targets += _methods(m + "cooling.backends", "ChillerUnits", ("power_w",), "cooling.backends")
    for cls in ("CoolingTowerUnits", "HybridUnits"):
        targets += _methods(
            m + "cooling.backends", cls,
            ("plant_inputs", "power_w", "step_resources"), "cooling.backends",
        )
    for cls, names in LANE_UNIT_METHODS.items():
        targets += _methods(m + "cooling.backends", cls, names, "cooling.backends")
    for cls in ("BaselineController", "LaneBaselineController"):
        targets += _methods(m + "cooling.baseline", cls, ("decide",), "cooling.baseline")
    targets += _methods(m + "sim.engine", "ProfileWorkload", ("step",), "workload")
    targets += _methods(
        m + "datacenter.layout", "DatacenterLayout", ("pod_it_power_w",), "workload"
    )
    targets += _methods(m + "weather.tmy", "LaneWeather", ("day_grid",), "weather")
    targets += _functions(m + "artifacts", ("tmy_series",), "weather")
    targets += _functions(
        m + "sim.trace",
        ("worst_sensor_range_from", "outside_range_from", "avg_violation_from",
         "max_rate_from", "energy_kwh_from"),
        "sim.trace",
    )
    runner = m + "analysis.runner"
    targets += _functions(runner, ("run_year_tasks", "_warm_shared_state"), "analysis.runner")
    targets += [
        (runner, "_run_lane_chunk", "analysis.runner", _chunk),
        (runner, "_run_day_chunk", "analysis.runner", _chunk),
        (runner, "_execute_task_payload", "analysis.runner", _entry_single),
        (runner, "_execute_lane_chunk_payload", "analysis.runner", _worker_entry),
        (runner, "_execute_day_chunk_payload", "analysis.runner", _worker_entry),
        (runner, "_note_retry", "analysis.runner", _count("analysis.runner.retries")),
        (runner, "wait", "analysis.runner.wait", None),
    ]
    exp = m + "analysis.experiments"
    targets += _functions(
        exp, ("year_result", "store_result", "five_location_matrix", "world_sweep"),
        "analysis.experiments",
    )
    targets += [
        (exp, "load_cached", "analysis.experiments", _cache_read),
        (exp, "_write_disk_entry", "analysis.experiments", _cache_write),
        (m + "artifacts", "_load_array", "artifacts", _store_read),
        (m + "artifacts", "load_model", "artifacts", _store_read),
    ]
    targets += _functions(
        m + "artifacts", ("materialize_trace", "save_model"), "artifacts"
    )
    targets += _functions(
        m + "sim.campaign", ("run_learning_campaign", "trained_cooling_model"),
        "sim.campaign",
    )
    wm = m + "analysis.worldmap"
    targets += _functions(wm, ("summarize_world", "render_world_map"), "analysis.worldmap")
    targets += _methods(
        wm, "StreamingWorldAccumulator", ("consume", "summary"), "analysis.worldmap"
    )
    return targets


def service_targets() -> List[Tuple]:
    """The campaign service's own layer, plus its event-loop idle time."""
    m = "repro.service."
    return [
        (m + "server", "CampaignService._warm", "service", None),
        (m + "scheduler", "Scheduler.submit_job", "service", None),
        (m + "scheduler", "Scheduler._enqueue_cells", "service", _enqueue),
        (m + "scheduler", "Scheduler._deliver", "service", None),
        (m + "jobs", "Job.cell_done", "service", None),
        (m + "jobs", "Job.result_payload", "service", None),
        ("selectors", "EpollSelector.select", "service.idle", None),
    ]


def install_service_timers(table) -> List[str]:
    """Time each cell's queue wait and pool execution in the service.

    ``Scheduler._run_cell`` is a coroutine that interleaves with others
    on the event loop, so it is timed as an interval, not as a span.
    """
    try:
        from repro.service.scheduler import Scheduler
    except ImportError:
        return ["repro.service.scheduler:Scheduler"]
    original = Scheduler.__dict__.get("_run_cell")
    if original is None:
        return ["repro.service.scheduler:Scheduler._run_cell"]

    async def _run_cell(self, record):
        start = time.perf_counter()
        queued = table.marks.pop(record.key, start)
        table.add("service.queue_wait_s", start - queued)
        try:
            return await original(self, record)
        finally:
            table.add("service.execute_s", time.perf_counter() - start)

    Scheduler._run_cell = _run_cell
    return []
