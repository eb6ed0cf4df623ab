"""Lane-batched year simulation: many (system, climate) runs in lockstep.

A :class:`LaneRunner` advances N independent year scenarios — each the
exact (climate, management system, workload) combination a scalar
:class:`~repro.sim.engine.DayRunner` would simulate — as *lanes* of
structure-of-arrays state.  One vectorized call per model step advances
every lane's thermal plant and inlet sensors; per-lane branching (TKS
mode latches, regime changes, band differences) is handled with boolean
masks and per-lane decision objects.

Bit-identity contract: ``run_year_lanes(scenarios)[i]`` equals
``run_year(scenarios[i]...)`` field for field.  :meth:`LaneRunner.run_day`
does each piece of work at the rate its inputs change, which keeps that
guarantee cheap to audit:

* **Once per day (inputs: the weather grid).**  :class:`LaneWeather`
  gathers the ``(lanes, steps)`` weather grids; the outside temperature
  and RH sensor readings are quantized over the whole grid
  (``np.floor(x/res + 0.5)`` is the elementwise mirror of the scalar
  sensors' half-up quantization); the non-parasol backends' lane units
  observe the grids, and the tower evaluates its wet-bulb capacity over
  all of it.
* **Once per control period (144/day; inputs: actuators, pod powers,
  the demand interval).**  The epoch's sensor view (inlet readings from
  the step before, cold-aisle RH from the current plant state) and the
  management decisions: baseline lanes decide through the vectorized
  :class:`LaneBaselineController`; CoolAir lanes share one cross-lane
  :meth:`CoolingPredictor.predict_lanes_stacked` rollout and then select
  through :meth:`CoolingOptimizer.decide_from_stacked` — the same
  kernels the scalar engine runs at width 1.  Then everything the
  scalar engine computes from quantities the :class:`ProfileWorkload`
  holds constant within the period: pod IT powers, unit actuator state
  and power draw, disk utilization.  From those, ``(k steps × lanes)``
  blocks, each in one call: the effective compressor duty, the
  :class:`LaneThermalPlant` invariants (stepped with row ``j``), and
  backend power and water.  Records constant within the period are
  written as slices.
* **Once per model step (720/day plus warmup; inputs: the plant
  state).**  The plant's four substeps and the quantized inlet readings.
  The per-step cold-aisle RH record and :class:`LaneDiskModel` run only
  when ``keep_traces`` asks for them.

Every moved operation is elementwise IEEE arithmetic or an existing
element-by-element ``math`` wrapper, so a block evaluation performs the
same operations on the same operands as the per-step one.

The chiller, tower, and hybrid backends step as
:class:`~repro.cooling.backends.LaneCoolingUnits` arrays — actuator state
gathered per control period from the per-lane scalar units (whose
ramp/latch/regime dynamics stay authoritative).  See
:mod:`repro.sim.eligibility` for which cells ride lanes.

Restrictions (asserted): no process noise, the standard 120 s model step /
600 s control period, and the profile (not task-level Hadoop) workload.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro import constants
from repro.cooling.backends import (
    LANE_REGIME_CODES,
    LANE_REGIME_CHILLER,
    LANE_REGIME_TOWER,
    LaneCoolingUnits,
    get_backend,
)
from repro.cooling.baseline import LaneBaselineController
from repro.cooling.regimes import CoolingCommand
from repro.cooling.tks import (
    LANE_CMD_AC_FAN,
    LANE_CMD_AC_ON,
    LANE_CMD_CLOSED,
    LANE_CMD_FREE_COOLING,
)
from repro.cooling.units import SmoothCoolingUnits
from repro.core.coolair import CoolAir
from repro.core.config import CoolAirConfig
from repro.core.modeler import CoolingModel
from repro.core.predictor import CoolingPredictor, PredictorState
from repro.datacenter.layout import DatacenterLayout, parasol_layout
from repro.datacenter.server import PowerState
from repro.errors import ConfigError, SimulationError
from repro.physics.psychrometrics import absolute_to_relative_humidity_array
from repro.physics.thermal import LaneDiskModel, LaneThermalPlant
from repro.sim.campaign import trained_cooling_model
from repro.sim.engine import ProfileWorkload
from repro.workload.profile import initial_demand_profile
from repro.sim.trace import (
    DayTrace,
    StepRecord,
    avg_violation_from,
    energy_kwh_from,
    max_rate_from,
    outside_range_from,
    worst_sensor_range_from,
)
from repro.sim.yearsim import YearResult, fold_days, run_trace, sampled_days
from repro.weather.climate import Climate, SECONDS_PER_DAY
from repro.weather.forecast import ForecastService
from repro.artifacts import tmy_series
from repro.weather.tmy import LaneWeather, TMYSeries
from repro.workload.covering import covering_subset
from repro.workload.traces import Trace

# The scalar engine's grid (SimSetup defaults); the lane engine supports
# exactly this timing and asserts any CoolAir config agrees.
MODEL_STEP_S = 120
CONTROL_PERIOD_S = 600

_TEMP_RES = constants.SENSOR_ACCURACY_C
_RH_RES = 1.0


def _quantize_temp(true_c: np.ndarray) -> np.ndarray:
    """Elementwise mirror of ``TemperatureSensor.observe``.

    ``np.floor(x/res + 0.5) * res`` is the same half-up rule (and the
    same float64 operations) as the scalar sensor's
    :func:`~repro.datacenter.sensors.quantize_half_up`, so each element
    matches the scalar sensor bit for bit — including ties like 25.25C,
    which round up to 25.5C on both paths.
    """
    return np.floor(true_c / _TEMP_RES + 0.5) * _TEMP_RES


def _quantize_rh(true_pct: np.ndarray) -> np.ndarray:
    """Elementwise mirror of ``HumiditySensor.observe`` (half-up)."""
    clamped = np.maximum(0.0, np.minimum(100.0, true_pct))
    return np.floor(clamped / _RH_RES + 0.5) * _RH_RES


def _command_for_code(code: int, fc_speed: float) -> CoolingCommand:
    """A lane controller's integer decision as a scalar CoolingCommand."""
    if code == LANE_CMD_CLOSED:
        return CoolingCommand.closed()
    if code == LANE_CMD_FREE_COOLING:
        return CoolingCommand.free_cooling(fc_speed)
    if code == LANE_CMD_AC_FAN:
        return CoolingCommand.ac(compressor_duty=0.0)
    if code == LANE_CMD_AC_ON:
        return CoolingCommand.ac(compressor_duty=1.0)
    raise SimulationError(f"unknown lane command code {code}")


@dataclasses.dataclass
class LaneScenario:
    """One lane: a (system, climate, workload trace) year combination."""

    system: Union[str, CoolAirConfig]
    climate: Climate
    trace: Trace
    forecast_bias_c: float = 0.0
    # Cooling backend (repro.cooling.backends).  Parasol's power laws are
    # vectorized natively; the alternative plants step through their
    # backend's LaneCoolingUnits.
    plant: str = "parasol"


class _PlantGroup:
    """The lanes of one non-parasol backend inside a batch."""

    __slots__ = ("plant", "indices", "lunits")

    def __init__(
        self, plant: str, indices: np.ndarray, lunits: LaneCoolingUnits
    ) -> None:
        self.plant = plant
        self.indices = indices
        self.lunits = lunits


class _Lane:
    """Per-lane scalar objects: everything that is cheap per control period."""

    __slots__ = (
        "label",
        "layout",
        "units",
        "workload",
        "coolair",
        "climate_name",
    )

    def __init__(
        self,
        label: str,
        layout: DatacenterLayout,
        units,
        workload: ProfileWorkload,
        coolair: Optional[CoolAir],
        climate_name: str,
    ) -> None:
        self.label = label
        self.layout = layout
        self.units = units
        self.workload = workload
        self.coolair = coolair
        self.climate_name = climate_name


class LaneRunner:
    """Steps a batch of independent year scenarios in lockstep."""

    def __init__(
        self,
        scenarios: Sequence[LaneScenario],
        model: Optional[CoolingModel] = None,
        smooth_hardware: bool = True,
    ) -> None:
        if not scenarios:
            raise ConfigError("LaneRunner needs at least one scenario")
        self.num_lanes = len(scenarios)
        self.model_step_s = MODEL_STEP_S
        self.control_period_s = CONTROL_PERIOD_S
        self._steps_per_control = CONTROL_PERIOD_S // MODEL_STEP_S

        if model is None and any(
            not isinstance(s.system, str) for s in scenarios
        ):
            model = trained_cooling_model()
        self.model = model

        series_by_climate: Dict[Climate, TMYSeries] = {}
        series_list: List[TMYSeries] = []
        self.lanes: List[_Lane] = []
        baseline_indices: List[int] = []
        coolair_indices: List[int] = []

        for index, scenario in enumerate(scenarios):
            system = scenario.system
            is_baseline = isinstance(system, str)
            if is_baseline and system != "baseline":
                raise SimulationError(f"unknown system {system!r}")
            tmy = series_by_climate.get(scenario.climate)
            if tmy is None:
                # Store-backed (and cached per process): successive chunks
                # in one worker share the series and its presampled grids
                # instead of regenerating per chunk.
                tmy = tmy_series(scenario.climate)
                series_by_climate[scenario.climate] = tmy
            series_list.append(tmy)

            layout = parasol_layout()
            covering_subset(layout.all_servers())
            # Lanes stepping one source trace share its initial profile
            # (the fluid model is deterministic in the job values, which a
            # private copy preserves).  A per-lane ``rebuild()`` after
            # temporal scheduling replaces only that lane's profile.
            workload = ProfileWorkload(
                run_trace(system, scenario.trace),
                layout,
                float(CONTROL_PERIOD_S),
                profile=initial_demand_profile(
                    scenario.trace, layout.num_servers, float(CONTROL_PERIOD_S)
                ),
            )

            backend = get_backend(scenario.plant)
            if is_baseline:
                # make_realsim: the baseline runs on abrupt hardware (for
                # parasol; the alternative plants are smooth either way).
                units = backend.make_units(smooth=False)
                coolair = None
                label = "Baseline"
                baseline_indices.append(index)
            else:
                if (
                    system.model_step_s != MODEL_STEP_S
                    or system.control_period_s != CONTROL_PERIOD_S
                ):
                    raise ConfigError(
                        "lane engine requires the standard "
                        f"{MODEL_STEP_S}s/{CONTROL_PERIOD_S}s timing, got "
                        f"{system.model_step_s}s/{system.control_period_s}s"
                    )
                if getattr(system, "faults", None):
                    raise ConfigError(
                        "lane engine does not support fault injection; "
                        "faulted cells must run on the scalar path (see "
                        "effective_engine)"
                    )
                units = backend.make_units(smooth=smooth_hardware)
                forecast = ForecastService(
                    tmy, bias_c=scenario.forecast_bias_c
                )
                coolair = CoolAir(
                    config=system,
                    model=self.model,
                    layout=layout,
                    forecast_service=forecast,
                    smooth_hardware=isinstance(units, SmoothCoolingUnits),
                )
                label = system.name
                coolair_indices.append(index)
            self.lanes.append(
                _Lane(label, layout, units, workload, coolair,
                      scenario.climate.name)
            )

        num = self.num_lanes
        pods = self.lanes[0].layout.num_pods
        self.num_pods = pods
        self._weather = LaneWeather(series_list, float(MODEL_STEP_S))
        self._plant = LaneThermalPlant(num)
        self._disks = LaneDiskModel(num, pods)

        # Non-parasol lanes grouped by backend: each group steps one
        # LaneCoolingUnits over its lanes' slices.
        by_plant: Dict[str, List[int]] = {}
        for index, scenario in enumerate(scenarios):
            if scenario.plant != "parasol":
                by_plant.setdefault(scenario.plant, []).append(index)
        self._plant_groups: List[_PlantGroup] = [
            _PlantGroup(
                plant,
                np.asarray(indices, dtype=int),
                get_backend(plant).make_lane_units(len(indices)),
            )
            for plant, indices in by_plant.items()
        ]
        self._is_plant_lane = np.zeros(num, dtype=bool)
        for group in self._plant_groups:
            self._is_plant_lane[group.indices] = True
        self._scaling_plants = any(
            group.lunits.scales_duty for group in self._plant_groups
        )

        self._baseline_idx = np.asarray(baseline_indices, dtype=int)
        self._coolair_idx = coolair_indices
        if baseline_indices:
            self._baseline_ctrl = LaneBaselineController(len(baseline_indices))
            # The TKS control sensor: the warmest (highest-recirculation)
            # pod inlet, per lane (BaselineAdapter.control).
            self._baseline_pods = np.asarray(
                [
                    max(
                        self.lanes[i].layout.pods,
                        key=lambda pod: pod.recirculation,
                    ).pod_id
                    for i in baseline_indices
                ],
                dtype=int,
            )
        else:
            self._baseline_ctrl = None
            self._baseline_pods = None
        self._predictor = (
            CoolingPredictor(self.model, MODEL_STEP_S)
            if coolair_indices
            else None
        )

        # The sensors as the current control epoch sees them (the scalar
        # engine's sensors and _prev_* attributes as lanes-first arrays),
        # set by run_day before each decision.
        self._readings = np.zeros((num, pods))
        self._prev_readings = np.zeros((num, pods))
        self._outside_read = np.zeros(num)
        self._prev_outside = np.zeros(num)
        self._outside_rh_read = np.zeros(num)
        # Per-control-period caches (constant between control epochs).
        self._fc = np.zeros(num)
        self._ac_fan = np.zeros(num)
        self._duty = np.zeros(num)
        self._pod_powers = np.zeros((num, pods))
        self._it_power = np.zeros(num)
        self._cooling_power = np.zeros(num)
        self._fan = np.zeros(num)
        self._util = np.zeros(num)
        self._disk_util = np.zeros(num)
        self._modes: List = [None] * num
        # The hybrid regime, refreshed per control period from the scalar
        # units.
        self._regime_code = np.zeros(num, dtype=np.int8)
        self._regime_str: List[str] = [""] * num
        # Active-server count / utilization, recomputed only when the
        # active set can change: every coolair plan_compute, and day start
        # for baseline lanes (whose set then stays all-active).
        self._active_count = [0] * num
        self._util_cache = [0.0] * num
        self._per_active_cache: Dict = {}
        # Per-day demand caches: DemandProfile.demanded_servers is a
        # property that recomputes its whole array on every access, and
        # the profile only changes at day start (temporal rescheduling).
        self._demanded_arr: List = [None] * num
        self._server_util_cache: List[Dict[int, float]] = [
            {} for _ in range(num)
        ]

    # -- per-epoch pieces ----------------------------------------------------

    def _cold_aisle_rh(self) -> np.ndarray:
        """The cold-aisle humidity sensors' reading of the current state."""
        state = self._plant.state
        inlets = state.pod_inlet_temp_c
        means = np.add.reduce(inlets, axis=1) / inlets.shape[1]
        return _quantize_rh(
            absolute_to_relative_humidity_array(
                state.cold_aisle_mixing_ratio, means
            )
        )

    def _control(
        self,
        step: int,
        grid_col: int,
        temps_grid: np.ndarray,
        rh_grid: np.ndarray,
        mix_grid: np.ndarray,
    ) -> None:
        """One control epoch: per-lane decisions, masked actuation."""
        interval = max(0, step) // self._steps_per_control

        # The scalar engine refreshes each unit's weather boundary every
        # model step, so at control time a unit sees the *previous* step's
        # raw weather (the warmup-start seed on the first step).  Only the
        # weather-coupled backends read it when applying a command (the
        # hybrid's tower-vs-chiller pick), so the lane engine defers the
        # refresh to here.
        if self._plant_groups:
            col = max(grid_col - 1, 0)
            for group in self._plant_groups:
                for lane_index in group.indices:
                    self.lanes[lane_index].units.observe_boundary(
                        float(temps_grid[lane_index, col]),
                        float(rh_grid[lane_index, col]),
                    )

        if self._baseline_ctrl is not None:
            bi = self._baseline_idx
            codes, speeds = self._baseline_ctrl.decide(
                self._readings[bi, self._baseline_pods],
                self._outside_read[bi],
                # The current state is the one after the previous step.
                self._cold_aisle_rh()[bi],
                self._outside_rh_read[bi],
            )
            for slot, lane_index in enumerate(bi):
                self.lanes[lane_index].units.apply(
                    _command_for_code(int(codes[slot]), float(speeds[slot]))
                )

        if self._coolair_idx:
            inside_w = self._plant.state.cold_aisle_mixing_ratio
            states: List[PredictorState] = []
            cands: List[list] = []
            picked: List[tuple] = []
            for lane_index in self._coolair_idx:
                lane = self.lanes[lane_index]
                demanded_arr = self._demanded_arr[lane_index]
                demanded = int(
                    demanded_arr[interval % demanded_arr.shape[0]]
                )
                _active_ids, active_pods = lane.coolair.plan_compute(demanded)
                # layout.utilization() unrolled so the active count is
                # also available to _refresh_period_caches (same int sum,
                # same division — bit-identical).
                count = 0
                for pod in lane.layout.pods:
                    count += pod.num_active()
                self._active_count[lane_index] = count
                util = count / lane.layout.num_servers
                self._util_cache[lane_index] = util
                state = PredictorState(
                    mode=lane.units.mode,
                    fan_speed=lane.units.fc_fan_speed,
                    sensor_temps_c=self._readings[lane_index].tolist(),
                    prev_sensor_temps_c=self._prev_readings[lane_index].tolist(),
                    outside_temp_c=float(self._outside_read[lane_index]),
                    prev_outside_temp_c=float(self._prev_outside[lane_index]),
                    # Refreshed after the decision: still the fan of the
                    # step before this epoch.
                    prev_fan_speed=float(self._fan[lane_index]),
                    utilization=util,
                    inside_mixing_ratio=float(inside_w[lane_index]),
                    outside_mixing_ratio=float(mix_grid[lane_index, grid_col]),
                )
                band = lane.coolair.band
                if band is None:
                    raise ConfigError("call start_day before control")
                states.append(state)
                cands.append(lane.coolair.optimizer._candidates(state, band))
                picked.append((lane, band, active_pods))
            stacked = self._predictor.predict_lanes_stacked(
                states, cands, self._steps_per_control
            )
            for (lane, band, active_pods), state, candidates, (
                temps, rh, energies, ac_full
            ) in zip(picked, states, cands, stacked):
                command = lane.coolair.optimizer.decide_from_stacked(
                    state, band, candidates, temps, rh, energies, ac_full,
                    active_pods,
                )
                lane.units.apply(command)

    def _disk_utilization(
        self, lane_index: int, step: int, tod: float
    ) -> float:
        """A lane's representative disk utilization this period.

        The scalar engine averages the utilizations of the active servers;
        ProfileWorkload gives every active server the same value, so the
        mean is a pure function of (value, count) — cache it instead of
        walking 64 servers per lane per epoch.
        """
        lane = self.lanes[lane_index]
        count = self._active_count[lane_index]
        if count:
            workload = lane.workload
            idx = (
                int((tod if step >= 0 else 0.0) // workload.interval_s)
                % workload.profile.num_intervals
            )
            util_cache = self._server_util_cache[lane_index]
            util_value = util_cache.get(idx)
            if util_value is None:
                # DemandProfile.server_utilization recomputes the
                # demanded-servers array on every call; the day-start
                # snapshot holds exactly those values, so evaluate the
                # same formula against it.
                profile = workload.profile
                demanded = int(self._demanded_arr[lane_index][idx])
                if demanded == 0:
                    util_value = 0.0
                else:
                    busy_slots = (
                        profile.busy_slot_seconds[idx] / profile.interval_s
                    )
                    util_value = float(
                        min(
                            1.0,
                            busy_slots
                            / (demanded * profile.slots_per_server),
                        )
                    )
                util_cache[idx] = util_value
            cache_key = (util_value, count)
            per_active = self._per_active_cache.get(cache_key)
            if per_active is None:
                per_active = float(np.mean(np.full(count, util_value)))
                self._per_active_cache[cache_key] = per_active
        else:
            per_active = 0.0
        return min(1.0, 0.15 + 0.7 * per_active)

    def _refresh_period_caches(
        self, step: int, dt: float, disks: bool
    ) -> None:
        """Workload utilization + everything constant within the period.

        The scalar engine recomputes these every model step; with the
        profile workload they only change at control epochs (the demand
        interval equals the control period), so computing them here once
        per period is exactly equivalent.  The disk utilization feeds only
        the disk model, which steps only when ``disks`` (keep_traces).
        """
        tod = step * dt
        for lane_index, lane in enumerate(self.lanes):
            if step >= 0:
                lane.workload.step(dt, tod, None)
            else:
                lane.workload.warmup_step(dt, None)
            pod_powers = lane.layout.pod_it_power_w()
            self._pod_powers[lane_index, :] = pod_powers
            self._it_power[lane_index] = sum(pod_powers)
            # Raw actuator state (CoolingUnits.plant_inputs without the
            # object): duty-scaling backends apply their capacity factor
            # per step through their lane units, never here.
            units = lane.units
            self._fc[lane_index] = units.fc_fan_speed
            self._ac_fan[lane_index] = units.ac_fan_speed
            self._duty[lane_index] = units.ac_compressor_duty
            if self._is_plant_lane[lane_index]:
                # Weather-coupled power comes per model step from the lane
                # units' period block; record the hybrid's regime pick
                # (constant within the period) for occupancy metrics and
                # traces.
                regime = getattr(units, "active_regime", "")
                self._regime_str[lane_index] = regime
                self._regime_code[lane_index] = LANE_REGIME_CODES.get(
                    regime, 0
                )
            else:
                self._cooling_power[lane_index] = units.power_w()
            self._fan[lane_index] = units.fc_fan_speed
            self._util[lane_index] = self._util_cache[lane_index]
            self._modes[lane_index] = lane.units.mode
            if disks:
                self._disk_util[lane_index] = self._disk_utilization(
                    lane_index, step, tod
                )
        for group in self._plant_groups:
            idx = group.indices
            group.lunits.set_actuators(
                self._fc[idx],
                self._ac_fan[idx],
                self._duty[idx],
                self._regime_code[idx],
            )

    # -- day/year execution --------------------------------------------------

    def run_day(
        self,
        day_of_year,
        warmup_hours: float = 2.0,
        keep_traces: bool = False,
    ):
        """Simulate one day for every lane; returns per-lane day metrics.

        ``day_of_year`` is a single day every lane simulates, or a per-lane
        sequence of days (the day-unfolded mode: sibling lanes replicate
        one scenario across different sampled days of its year).

        Returns ``(metrics, traces)`` where ``metrics`` is a list of dicts
        (one per lane) with the five YearResult day quantities, and
        ``traces`` is a list of :class:`DayTrace` (or None without
        ``keep_traces``).
        """
        num = self.num_lanes
        dt = float(self.model_step_s)
        steps = int(SECONDS_PER_DAY // self.model_step_s)
        warmup_steps = int(warmup_hours * 3600 / dt)
        if np.ndim(day_of_year) == 0:
            lane_days = [int(day_of_year)] * num
            grid_days = int(day_of_year)
        else:
            lane_days = [int(d) for d in day_of_year]
            if len(lane_days) != num:
                raise ConfigError(
                    f"need one day per lane ({num}), got {len(lane_days)}"
                )
            grid_days = np.asarray(lane_days, dtype=np.int64)
        temps_grid, mix_grid, rh_grid = self._weather.day_grid(
            grid_days, -warmup_steps, warmup_steps + steps
        )
        # -- once per day: everything that depends on the weather only.
        # The sensors' view of the outside (row c of the grids is model
        # step c - warmup_steps).
        outside_q = _quantize_temp(temps_grid)
        outside_rh_q = _quantize_rh(rh_grid)
        for group in self._plant_groups:
            idx = group.indices
            group.lunits.observe_boundary(
                np.ascontiguousarray(temps_grid[idx].T),
                np.ascontiguousarray(rh_grid[idx].T),
            )

        # Day entry is a clean slate (mirrors DayRunner.run_day): actuators
        # off, controller latches cleared, disks at their initial
        # temperature.  This keeps every simulated day independent of
        # which day the runner stepped before it, which is what lets one
        # runner be reused across day batches (and days be reordered into
        # lanes) while staying bit-identical to the scalar reference.
        self._disks.reset()
        if self._baseline_ctrl is not None:
            self._baseline_ctrl.reset()
        for lane_index, lane in enumerate(self.lanes):
            lane.units.reset()
            if lane.coolair is not None:
                lane.coolair.reset_day_state()
            # The predictor's "previous fan speed" before the first step
            # (DayRunner._seed_sensors); each period's refresh replaces it.
            self._fan[lane_index] = lane.units.fc_fan_speed

        self._plant.reset(
            temps_grid[:, warmup_steps] + 6.0, mix_grid[:, warmup_steps]
        )

        # Adapter start-of-day work.
        for lane_index, lane in enumerate(self.lanes):
            if lane.coolair is None:
                for server in lane.layout.all_servers():
                    if server.state is not PowerState.ACTIVE:
                        server.activate()
            else:
                lane.workload.begin_day()
                lane.coolair.start_day(
                    lane_days[lane_index], lane.workload.jobs
                )
                if any(
                    job.scheduled_start_s is not None
                    for job in lane.workload.jobs
                ):
                    lane.workload.rebuild()
            # The active set as the day enters: the baseline keeps it
            # all-active until the next day start, and CoolAir's first
            # plan_compute replaces it (layout.utilization()'s int sum).
            count = 0
            for pod in lane.layout.pods:
                count += pod.num_active()
            self._active_count[lane_index] = count
            self._util_cache[lane_index] = count / lane.layout.num_servers
            # The demand profile is now fixed until the next day start;
            # snapshot the demanded-servers array and reset the per-interval
            # server-utilization cache.
            self._demanded_arr[lane_index] = (
                lane.workload.profile.demanded_servers
            )
            self._server_util_cache[lane_index].clear()

        # Quantized inlet readings: row 0 is the warmup-start seed
        # (DayRunner._seed_sensors), row c + 1 the reading after grid
        # column c's model step.
        cols = warmup_steps + steps
        readings = np.empty((cols + 1, num, self.num_pods))
        readings[0] = _quantize_temp(self._plant.state.pod_inlet_temp_c)
        rec_cooling = np.empty((steps, num))
        rec_it = np.empty((steps, num))
        if self._plant_groups:
            rec_water = np.zeros((steps, num))
            rec_regime = np.zeros((steps, num), dtype=np.int8)
        if keep_traces:
            rec_rh = np.empty((steps, num))
            rec_fan = np.empty((steps, num))
            rec_duty = np.empty((steps, num))
            rec_util = np.empty((steps, num))
            rec_disks = np.empty((steps, num, self.num_pods))
            rec_modes: List[list] = [[] for _ in range(num)]
            rec_regimes: List[List[str]] = [[] for _ in range(num)]

        # Control periods: each starts at a control epoch, except a
        # leading partial period when the warmup is not a whole number of
        # periods (the scalar engine steps it with reset units and no
        # decision).
        spc = self._steps_per_control
        first = -warmup_steps
        epochs = range(first + (-first) % spc, steps, spc)
        starts = ([first] if first % spc else []) + list(epochs)
        for p0, p1 in zip(starts, starts[1:] + [steps]):
            c0 = p0 + warmup_steps
            if p0 % spc == 0:
                # -- once per control period: the sensors as the epoch
                # sees them (after the previous step), then the decision.
                self._readings = readings[c0]
                self._prev_readings = readings[max(c0 - 1, 0)]
                self._outside_read = outside_q[:, max(c0 - 1, 0)]
                self._prev_outside = outside_q[:, max(c0 - 2, 0)]
                self._outside_rh_read = outside_rh_q[:, max(c0 - 1, 0)]
                self._control(p0, c0, temps_grid, rh_grid, mix_grid)
            self._refresh_period_caches(p0, dt, disks=keep_traces)
            rows = slice(c0, p1 + warmup_steps)
            duty = self._duty
            if self._scaling_plants:
                blocks = [
                    (group.indices, group.lunits.effective_duty(rows))
                    for group in self._plant_groups
                    if group.lunits.scales_duty
                ]
                if any(block.ndim == 2 for _, block in blocks):
                    duty = np.repeat(duty[None, :], p1 - p0, axis=0)
                    for idx, block in blocks:
                        duty[:, idx] = block
            # Actuators and pod powers only change here; precompute the
            # plant's invariants once (validates the actuator ranges too).
            self._plant.set_inputs(
                self._fc, self._ac_fan, duty, self._pod_powers
            )
            r0 = max(p0, 0)
            if p1 > r0:
                # Records constant within the period, written as slices.
                rec_cooling[r0:p1] = self._cooling_power
                rec_it[r0:p1] = self._it_power
                rec_rows = slice(r0 + warmup_steps, p1 + warmup_steps)
                for group in self._plant_groups:
                    idx = group.indices
                    power, water = group.lunits.step_resources(
                        self._it_power[idx], dt, rec_rows
                    )
                    rec_cooling[r0:p1, idx] = power
                    rec_water[r0:p1, idx] = water
                if self._plant_groups:
                    rec_regime[r0:p1] = self._regime_code
                if keep_traces:
                    rec_fan[r0:p1] = self._fan
                    rec_duty[r0:p1] = self._duty
                    rec_util[r0:p1] = self._util
                    for lane_index in range(num):
                        rec_modes[lane_index].extend(
                            [self._modes[lane_index]] * (p1 - r0)
                        )
                        rec_regimes[lane_index].extend(
                            [self._regime_str[lane_index]] * (p1 - r0)
                        )

            # -- once per model step: only what follows the plant state.
            for step in range(p0, p1):
                col = step + warmup_steps
                inlets = self._plant.step_outside(
                    temps_grid[:, col], mix_grid[:, col], dt, row=step - p0
                ).pod_inlet_temp_c
                readings[col + 1] = _quantize_temp(inlets)
                if keep_traces:
                    disk_temps = self._disks.step(inlets, self._disk_util, dt)
                    if step >= 0:
                        rec_rh[step] = self._cold_aisle_rh()
                        rec_disks[step] = disk_temps

        rec_temps = readings[warmup_steps + 1:]
        times = np.arange(steps, dtype=float) * dt
        metrics = []
        traces: List[Optional[DayTrace]] = []
        for lane_index, lane in enumerate(self.lanes):
            temps = np.ascontiguousarray(rec_temps[:, lane_index, :])
            outside = outside_q[lane_index, warmup_steps:]
            cooling = np.ascontiguousarray(rec_cooling[:, lane_index])
            it = np.ascontiguousarray(rec_it[:, lane_index])
            if self._is_plant_lane[lane_index]:
                # Same formulas as DayTrace.water_liters / the mech-regime
                # fractions, over the same 1-D per-step arrays.
                water = np.ascontiguousarray(rec_water[:, lane_index])
                water_l = float(np.sum(water))
                regimes = rec_regime[:, lane_index]
                tower_mech_hours = (
                    int(np.count_nonzero(regimes == LANE_REGIME_TOWER))
                    / steps
                ) * 24.0
                chiller_mech_hours = (
                    int(np.count_nonzero(regimes == LANE_REGIME_CHILLER))
                    / steps
                ) * 24.0
            else:
                water = None
                water_l = 0.0
                tower_mech_hours = 0.0
                chiller_mech_hours = 0.0
            metrics.append(
                {
                    "worst_range_c": worst_sensor_range_from(temps),
                    "outside_range_c": outside_range_from(outside),
                    "temps": temps,
                    "times": times,
                    "cooling_kwh": energy_kwh_from(cooling, times),
                    "it_kwh": energy_kwh_from(it, times),
                    "max_rate_c_per_hour": max_rate_from(temps, times),
                    "water_l": water_l,
                    "tower_mech_hours": tower_mech_hours,
                    "chiller_mech_hours": chiller_mech_hours,
                }
            )
            if keep_traces:
                trace = DayTrace(lane_days[lane_index], label=lane.label)
                for row in range(steps):
                    trace.append(
                        StepRecord(
                            time_s=float(times[row]),
                            outside_temp_c=float(outside[row]),
                            sensor_temps_c=tuple(temps[row].tolist()),
                            mode=rec_modes[lane_index][row],
                            fc_fan_speed=float(rec_fan[row, lane_index]),
                            ac_compressor_duty=float(
                                rec_duty[row, lane_index]
                            ),
                            cooling_power_w=float(cooling[row]),
                            it_power_w=float(it[row]),
                            inside_rh_pct=float(rec_rh[row, lane_index]),
                            outside_rh_pct=float(
                                outside_rh_q[lane_index, warmup_steps + row]
                            ),
                            utilization=float(rec_util[row, lane_index]),
                            disk_temps_c=tuple(
                                float(t)
                                for t in rec_disks[row, lane_index]
                            ),
                            water_l=(
                                float(water[row])
                                if water is not None
                                else 0.0
                            ),
                            regime=rec_regimes[lane_index][row],
                        )
                    )
                traces.append(trace)
            else:
                traces.append(None)
        return metrics, traces

    def run_year(
        self,
        sample_every_days: int = 7,
        violation_threshold_c: float = 30.0,
        keep_traces: bool = False,
    ) -> List[YearResult]:
        """Year runs for every lane; one YearResult per lane, in order."""
        days = sampled_days(sample_every_days)
        summaries: List[List[dict]] = [[] for _ in self.lanes]
        all_traces: List[List[DayTrace]] = [[] for _ in self.lanes]
        for day in days:
            metrics, traces = self.run_day(day, keep_traces=keep_traces)
            for lane_index, day_metrics in enumerate(metrics):
                summaries[lane_index].append(
                    day_summary(day_metrics, violation_threshold_c)
                )
                all_traces[lane_index].append(traces[lane_index])
        return [
            fold_days(
                lane.label,
                lane.climate_name,
                days,
                lane_summaries,
                lane_traces if keep_traces else None,
            )
            for lane, lane_summaries, lane_traces in zip(
                self.lanes, summaries, all_traces
            )
        ]


def day_summary(
    day_metrics: dict, violation_threshold_c: float = 30.0
) -> dict:
    """One lane's :meth:`LaneRunner.run_day` metrics as a day summary.

    The summary is what :func:`~repro.sim.yearsim.fold_days` folds: plain
    floats only, so the campaign runner's day chunks compute violations
    in the worker (at :func:`~repro.sim.yearsim.run_year`'s default
    threshold) and ship the summary across the process boundary instead
    of the day's temperature array.
    """
    return {
        "worst_range_c": day_metrics["worst_range_c"],
        "outside_range_c": day_metrics["outside_range_c"],
        "avg_violation_c": avg_violation_from(
            day_metrics["temps"], violation_threshold_c
        ),
        "max_rate_c_per_hour": day_metrics["max_rate_c_per_hour"],
        # Lanes never run faulted scenarios, so no step degrades; 0.0
        # matches the scalar path's mean-of-no-flags exactly.
        "degraded_fraction": 0.0,
        "cooling_kwh": day_metrics["cooling_kwh"],
        "it_kwh": day_metrics["it_kwh"],
        "water_l": day_metrics["water_l"],
        "tower_mech_hours": day_metrics["tower_mech_hours"],
        "chiller_mech_hours": day_metrics["chiller_mech_hours"],
    }


def run_year_lanes(
    scenarios: Sequence[LaneScenario],
    model: Optional[CoolingModel] = None,
    smooth_hardware: bool = True,
    sample_every_days: int = 7,
    violation_threshold_c: float = 30.0,
    keep_traces: bool = False,
) -> List[YearResult]:
    """Lane-batched equivalent of ``[run_year(s...) for s in scenarios]``.

    Results are bit-identical per scenario to the scalar
    :func:`~repro.sim.yearsim.run_year` path (the pinned reference); see
    ``tests/test_lane_equivalence.py`` and ``docs/PERFORMANCE.md``.
    """
    runner = LaneRunner(scenarios, model=model, smooth_hardware=smooth_hardware)
    return runner.run_year(
        sample_every_days=sample_every_days,
        violation_threshold_c=violation_threshold_c,
        keep_traces=keep_traces,
    )


def run_year_unfolded(
    scenario: LaneScenario,
    day_lanes: int,
    model: Optional[CoolingModel] = None,
    smooth_hardware: bool = True,
    sample_every_days: int = 7,
    violation_threshold_c: float = 30.0,
    keep_traces: bool = False,
) -> YearResult:
    """One scenario's year with its sampled days unfolded into lanes.

    Replicates the scenario across ``day_lanes`` sibling lanes (each with a
    per-lane controller sharing the scenario's trained model, so the
    lane-combo plan cache hits across sibling days) and steps consecutive
    batches of sampled days in SoA lockstep.  Per-day metrics are folded
    back in day order, so energy accumulation visits the same additions in
    the same order as the scalar :func:`~repro.sim.yearsim.run_year` — the
    result is bit-identical to it field for field (pinned by
    ``tests/integration/test_day_unfold.py``).

    Only valid for scenarios whose days are independent: no faults (the
    lane engine rejects them anyway) and no temporal scheduling (the
    scheduler mutates the trace across days).  Callers gate on
    :func:`repro.analysis.experiments.day_unfold_eligible`.
    """
    if day_lanes < 1:
        raise ConfigError(f"day_lanes must be >= 1, got {day_lanes}")
    days = sampled_days(sample_every_days)
    width = min(int(day_lanes), len(days))

    def make_runner(lanes: int) -> LaneRunner:
        return LaneRunner(
            [scenario] * lanes, model=model, smooth_hardware=smooth_hardware
        )

    runner = make_runner(width)
    # Reusing one trained model across batch runners keeps the remainder
    # batch's predictor caches coherent with the full batches'.
    model = runner.model

    summaries: List[dict] = []
    all_traces: List[DayTrace] = []
    for start in range(0, len(days), width):
        batch = days[start:start + width]
        if len(batch) != runner.num_lanes:
            # Remainder batch: a narrower runner, no padded lanes to
            # discard (per-lane results are independent of batch grouping,
            # so the narrower batch changes nothing — pinned by the lane
            # grouping-independence test).
            runner = make_runner(len(batch))
        metrics, traces = runner.run_day(batch, keep_traces=keep_traces)
        for day_metrics in metrics:
            summaries.append(day_summary(day_metrics, violation_threshold_c))
        all_traces.extend(traces)
    return fold_days(
        runner.lanes[0].label,
        scenario.climate.name,
        days,
        summaries,
        all_traces if keep_traces else None,
    )
