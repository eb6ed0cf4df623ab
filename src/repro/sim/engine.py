"""The day-level simulation engine.

A :class:`DayRunner` integrates the thermal plant at the 2-minute model
step for one day, invoking a management system every control period
(10 minutes) and a workload driver every step.  Two management adapters
are provided — the baseline (extended TKS) and CoolAir — and two workload
drivers: the task-level Hadoop cluster (day experiments) and the fast
demand-profile replay (year experiments).

``make_realsim`` and ``make_smoothsim`` build the two simulator
configurations of Section 5.1: identical except for the cooling hardware
(abrupt Parasol units vs fine-grained smooth units).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Set

import numpy as np

from repro.cooling.baseline import BaselineController
from repro.cooling.regimes import CoolingMode
from repro.cooling.units import CoolingUnits, SmoothCoolingUnits
from repro.core.coolair import CoolAir
from repro.core.modeler import MonitoringSample
from repro.core.predictor import PredictorState
from repro.datacenter.layout import DatacenterLayout, parasol_layout
from repro.datacenter.server import PowerState, Server
from repro.errors import ConfigError, SimulationError, WeatherError
from repro.faults import FaultInjector, FaultSchedule
from repro.physics.psychrometrics import absolute_to_relative_humidity
from repro.physics.thermal import PlantInputs, ThermalPlant
from repro.artifacts import tmy_series
from repro.sim.trace import DayTrace, StepRecord
from repro.weather.climate import Climate, SECONDS_PER_DAY
from repro.weather.forecast import ForecastService
from repro.weather.tmy import TMYSeries
from repro.workload.covering import covering_subset
from repro.workload.hadoop import HadoopCluster
from repro.workload.profile import (
    DemandProfile,
    build_demand_profile,
    initial_demand_profile,
)
from repro.workload.traces import Trace


@dataclasses.dataclass
class SimSetup:
    """Everything a day run needs besides the management system."""

    climate: Climate
    tmy: TMYSeries
    layout: DatacenterLayout
    plant: ThermalPlant
    units: CoolingUnits
    forecast: ForecastService
    model_step_s: int = 120
    control_period_s: int = 600
    # Optional fault injection (docs/ROBUSTNESS.md); None = fault-free.
    faults: Optional[FaultInjector] = None

    def __post_init__(self) -> None:
        if self.control_period_s % self.model_step_s != 0:
            raise ConfigError("control period must be a multiple of the model step")
        if self.layout.num_pods != self.plant.config.num_pods:
            raise ConfigError("layout and plant disagree on pod count")

    @property
    def smooth_hardware(self) -> bool:
        return isinstance(self.units, SmoothCoolingUnits)


def make_realsim(
    climate: Climate,
    forecast_bias_c: float = 0.0,
    process_noise_c: float = 0.0,
    faults: Optional[FaultSchedule] = None,
    plant: str = "parasol",
) -> SimSetup:
    """Real-Sim: abrupt cooling hardware for the selected plant backend.

    ``plant`` only changes hardware granularity for ``parasol`` (the
    alternative plants model variable-speed equipment on both the real
    and smooth settings).
    """
    from repro.cooling.backends import get_backend
    from repro.physics.thermal import ThermalPlantConfig

    # Served from the artifact store (docs/PERFORMANCE.md): generated once
    # per machine, then mmapped read-only — bit-identical to generate_tmy.
    tmy = tmy_series(climate)
    layout = parasol_layout()
    # The Hadoop deployment stores a full dataset copy on a covering subset
    # of servers, which must stay active at all times (Section 4.2).
    covering_subset(layout.all_servers())
    thermal = ThermalPlant(ThermalPlantConfig(process_noise_c=process_noise_c))
    return SimSetup(
        climate=climate,
        tmy=tmy,
        layout=layout,
        plant=thermal,
        units=get_backend(plant).make_units(smooth=False),
        forecast=ForecastService(tmy, bias_c=forecast_bias_c),
        faults=FaultInjector(faults) if faults else None,
    )


def make_smoothsim(
    climate: Climate,
    forecast_bias_c: float = 0.0,
    process_noise_c: float = 0.0,
    faults: Optional[FaultSchedule] = None,
    plant: str = "parasol",
) -> SimSetup:
    """Smooth-Sim: fine-grained fan ramp and variable-speed compressor."""
    from repro.cooling.backends import get_backend

    setup = make_realsim(climate, forecast_bias_c, process_noise_c, faults, plant)
    return dataclasses.replace(setup, units=get_backend(plant).make_units(smooth=True))


# --------------------------------------------------------------------------
# Workload drivers
# --------------------------------------------------------------------------


class ProfileWorkload:
    """Replays a precomputed demand profile (year-scale runs)."""

    def __init__(
        self,
        trace: Trace,
        layout: DatacenterLayout,
        interval_s: float,
        profile: Optional[DemandProfile] = None,
    ) -> None:
        self.trace = trace
        self.layout = layout
        self.interval_s = interval_s
        # ``profile`` lets callers that run over a private copy of a trace
        # share the source trace's initial fluid-model build; it must equal
        # ``build_demand_profile`` of the same arguments.  ``rebuild``
        # always recomputes from this instance's own trace.
        self.profile: DemandProfile = (
            profile
            if profile is not None
            else initial_demand_profile(trace, layout.num_servers, interval_s)
        )
        self._servers: Optional[List[Server]] = None

    @property
    def jobs(self) -> Sequence:
        return self.trace.jobs

    def begin_day(self) -> None:
        """Reset any temporal-scheduling decisions from a previous day."""
        for job in self.trace.jobs:
            job.scheduled_start_s = None

    def rebuild(self) -> None:
        """Recompute the profile after the temporal scheduler moved jobs."""
        self.profile = build_demand_profile(
            self.trace, num_servers=self.layout.num_servers, interval_s=self.interval_s
        )

    def demanded_servers(self, interval_index: int) -> int:
        idx = interval_index % self.profile.num_intervals
        return int(self.profile.demanded_servers[idx])

    def warmup_step(self, dt_s: float, placement_order) -> None:
        """Pre-midnight settling: replay the first interval's demand."""
        self.step(dt_s, 0.0, placement_order)

    def step(self, dt_s: float, time_of_day_s: float, placement_order) -> None:
        """Assign the interval's utilization to active servers."""
        idx = int(time_of_day_s // self.interval_s) % self.profile.num_intervals
        util = self.profile.server_utilization(idx)
        if not 0.0 <= util <= 1.0:
            raise ConfigError(f"utilization {util} out of [0, 1]")
        # Direct assignment: set_utilization's per-server validation and
        # sleep check collapse to this (sleeping/decommissioned servers
        # always land at 0.0), and the server list is fixed for a layout.
        servers = self._servers
        if servers is None:
            servers = self._servers = self.layout.all_servers()
        for server in servers:
            server.utilization = (
                util if server.state is PowerState.ACTIVE else 0.0
            )


class ClusterWorkload:
    """Task-level Hadoop execution (day-scale runs)."""

    def __init__(self, trace: Trace, layout: DatacenterLayout) -> None:
        self.trace = trace
        self.layout = layout
        self.cluster = HadoopCluster(layout.all_servers(), trace)

    @property
    def jobs(self) -> Sequence:
        return self.trace.jobs

    def begin_day(self) -> None:
        for job in self.trace.jobs:
            job.scheduled_start_s = None
        self.cluster = HadoopCluster(self.layout.all_servers(), self.trace)

    def rebuild(self) -> None:
        self.cluster = HadoopCluster(self.layout.all_servers(), self.trace)

    def demanded_servers(self, interval_index: int) -> int:
        return self.cluster.demanded_servers()

    def warmup_step(self, dt_s: float, placement_order) -> None:
        """Pre-midnight settling: do not advance the cluster clock."""

    def step(self, dt_s: float, time_of_day_s: float, placement_order) -> None:
        self.cluster.step(dt_s, placement_order)


# --------------------------------------------------------------------------
# Management adapters
# --------------------------------------------------------------------------


class BaselineAdapter:
    """The extended TKS baseline: cooling regime control only.

    All servers stay active (the baseline does no workload or energy
    management); the control sensor is the warmest (highest-recirculation)
    pod inlet, matching the TKS's "typically warmer area" sensor.
    """

    name = "baseline"

    def __init__(self, controller: Optional[BaselineController] = None) -> None:
        self.controller = controller or BaselineController()

    def reset_day_state(self) -> None:
        """Clear the controller's TKS latches at a day boundary."""
        self.controller.reset()

    def start_day(self, runner: "DayRunner", day_of_year: int) -> None:
        for server in runner.setup.layout.all_servers():
            if server.state is not PowerState.ACTIVE:
                server.activate()

    def control(self, runner: "DayRunner") -> None:
        layout = runner.setup.layout
        control_pod = max(layout.pods, key=lambda pod: pod.recirculation)
        command = self.controller.decide(
            control_temp_c=layout.inlet_sensors[control_pod.pod_id].read(),
            outside_temp_c=layout.outside_temp.read(),
            cold_aisle_rh_pct=layout.cold_aisle_humidity.read(),
            outside_rh_pct=layout.outside_humidity.read(),
        )
        runner.setup.units.apply(command)

    def placement_order(self, runner: "DayRunner"):
        return None  # natural server order


class CoolAirAdapter:
    """Drives a :class:`~repro.core.coolair.CoolAir` instance."""

    def __init__(self, coolair: CoolAir) -> None:
        self.coolair = coolair
        self.name = coolair.config.name
        self._active_pods: Optional[List[int]] = None

    def reset_day_state(self) -> None:
        """Clear CoolAir's day-boundary control state (safe-mode latches)."""
        self.coolair.reset_day_state()

    def start_day(self, runner: "DayRunner", day_of_year: int) -> None:
        workload = runner.workload
        workload.begin_day()
        self.coolair.start_day(day_of_year, workload.jobs)
        if any(job.scheduled_start_s is not None for job in workload.jobs):
            workload.rebuild()

    def control(self, runner: "DayRunner") -> None:
        interval = runner.interval_index
        demanded = runner.workload.demanded_servers(interval)
        active_ids, active_pods = self.coolair.plan_compute(demanded)
        self._active_pods = active_pods
        state = runner.predictor_state()
        command = self.coolair.decide_cooling(state, active_pods)
        runner.degraded_control = self.coolair.last_decision_degraded
        runner.setup.units.apply(command)

    def placement_order(self, runner: "DayRunner"):
        return self.coolair.placement_order()


# --------------------------------------------------------------------------
# The runner
# --------------------------------------------------------------------------


class DayRunner:
    """Simulates whole days of plant + workload + management."""

    def __init__(self, setup: SimSetup, workload, adapter) -> None:
        self.setup = setup
        self.workload = workload
        self.adapter = adapter
        self.interval_index = 0
        self._day = 0
        self._time_of_day_s = 0.0
        # Whether the most recent control decision ran degraded (safe
        # mode); stamped onto every StepRecord until the next decision.
        self.degraded_control = False
        self._injector = setup.faults
        if self._injector is not None:
            self._injector.attach(setup.layout, setup.units)
        # Weather presampled on the model-step grid: per-step queries become
        # indexed reads (bit-identical to interpolation; see SampledWeather).
        try:
            self._weather = setup.tmy.sampled(float(setup.model_step_s))
        except WeatherError:
            self._weather = setup.tmy
        # History needed by the Cooling Predictor.
        self._prev_readings: Optional[np.ndarray] = None
        self._prev_outside_c = 0.0
        self._prev_fan = 0.0
        self.monitoring_log: List[MonitoringSample] = []
        self.collect_monitoring = False

    # -- views for adapters ---------------------------------------------------

    def predictor_state(self) -> PredictorState:
        layout = self.setup.layout
        units = self.setup.units
        readings = layout.inlet_readings()
        prev = self._prev_readings if self._prev_readings is not None else readings
        inside_w = self.setup.plant.state.cold_aisle_mixing_ratio
        return PredictorState(
            mode=units.mode,
            fan_speed=units.fc_fan_speed,
            sensor_temps_c=readings.tolist(),
            prev_sensor_temps_c=prev.tolist(),
            outside_temp_c=layout.outside_temp.read(),
            prev_outside_temp_c=self._prev_outside_c,
            prev_fan_speed=self._prev_fan,
            utilization=layout.utilization(),
            inside_mixing_ratio=inside_w,
            outside_mixing_ratio=self._weather.mixing_ratio(self._abs_time_s),
        )

    # -- execution --------------------------------------------------------------

    def run_day(
        self,
        day_of_year: int,
        reset_plant: bool = True,
        warmup_hours: float = 2.0,
    ) -> DayTrace:
        """Simulate one full day; returns its trace.

        ``warmup_hours`` of pre-midnight operation are simulated (under the
        same controller) but not recorded, so the day's metrics reflect the
        controller's behavior rather than the arbitrary initial state.
        """
        setup = self.setup
        dt = float(setup.model_step_s)
        steps = int(SECONDS_PER_DAY // setup.model_step_s)
        steps_per_control = setup.control_period_s // setup.model_step_s
        self._day = day_of_year
        self.degraded_control = False
        if self._injector is not None:
            self._injector.begin_day(day_of_year)
        trace = DayTrace(day_of_year, label=self.adapter.name)

        start_t = day_of_year * SECONDS_PER_DAY
        outside0 = self._weather.temperature_c(start_t)
        if reset_plant:
            setup.plant.reset(
                temp_c=outside0 + 6.0,
                mixing_ratio=self._weather.mixing_ratio(start_t),
            )
            # Day entry is a clean slate: actuators off, controller latches
            # cleared, disks at their initial temperature.  This makes every
            # sampled day independent of which day ran before it — the
            # invariant the day-unfolded lane scheduler relies on (installed
            # actuator faults survive; the injector re-applies them above).
            setup.units.reset()
            setup.layout.disks.reset_thermal()
            self.adapter.reset_day_state()
        warmup_steps = int(warmup_hours * 3600 / dt) if reset_plant else 0
        self._time_of_day_s = -warmup_steps * dt
        self._seed_sensors(start_t + self._time_of_day_s)
        self.adapter.start_day(self, day_of_year)

        for step in range(-warmup_steps, steps):
            self._time_of_day_s = step * dt
            abs_t = start_t + self._time_of_day_s
            if step % steps_per_control == 0:
                self.interval_index = max(0, step) // steps_per_control
                self.adapter.control(self)
            order = self.adapter.placement_order(self)
            if step >= 0:
                self.workload.step(dt, self._time_of_day_s, order)
            else:
                self.workload.warmup_step(dt, order)
            record = self._advance_plant(abs_t, dt)
            if step >= 0:
                trace.append(record)
        return trace

    @property
    def _abs_time_s(self) -> float:
        return self._day * SECONDS_PER_DAY + self._time_of_day_s

    def _seed_sensors(self, abs_t: float) -> None:
        setup = self.setup
        if self._injector is not None:
            self._injector.set_time(abs_t)
        state = setup.plant.state
        outside_c = self._weather.temperature_c(abs_t)
        outside_rh = self._weather.relative_humidity_pct(abs_t)
        inside_rh = absolute_to_relative_humidity(
            state.cold_aisle_mixing_ratio, float(np.mean(state.pod_inlet_temp_c))
        )
        setup.layout.observe(
            pod_inlet_temp_c=state.pod_inlet_temp_c,
            cold_aisle_rh_pct=inside_rh,
            outside_temp_c=outside_c,
            outside_rh_pct=outside_rh,
        )
        setup.units.observe_boundary(outside_c, outside_rh)
        self._prev_readings = setup.layout.inlet_readings()
        self._prev_outside_c = setup.layout.outside_temp.read()
        self._prev_fan = setup.units.fc_fan_speed

    def _advance_plant(self, abs_t: float, dt: float) -> StepRecord:
        setup = self.setup
        layout = setup.layout
        units = setup.units
        if self._injector is not None:
            self._injector.set_time(abs_t)

        # Remember "last" values before the step for the Predictor.
        self._prev_readings = layout.inlet_readings()
        self._prev_outside_c = layout.outside_temp.read()
        self._prev_fan = units.fc_fan_speed

        outside_c = self._weather.temperature_c(abs_t)
        outside_w = self._weather.mixing_ratio(abs_t)
        outside_rh = self._weather.relative_humidity_pct(abs_t)

        # Boundary before plant_inputs: weather-coupled units (cooling
        # tower capacity, chiller lift) read it when shaping the inputs.
        units.observe_boundary(outside_c, outside_rh)

        pod_powers = layout.pod_it_power_w()
        inputs = units.plant_inputs()
        inputs.pod_it_power_w = pod_powers
        inputs.outside_temp_c = outside_c
        inputs.outside_mixing_ratio = outside_w
        state = setup.plant.step(inputs, dt)

        inlet = state.pod_inlet_temp_c
        inside_rh = absolute_to_relative_humidity(
            state.cold_aisle_mixing_ratio,
            float(np.add.reduce(inlet) / inlet.shape[0]),
        )
        layout.observe(
            pod_inlet_temp_c=state.pod_inlet_temp_c,
            cold_aisle_rh_pct=inside_rh,
            outside_temp_c=outside_c,
            outside_rh_pct=outside_rh,
        )
        # Representative disk utilization: the mean utilization of *active*
        # servers (a sleeping server's disk is spun down and not exposed;
        # the active disks run at their own duty, not the fleet average).
        active_utils = [
            s.utilization
            for pod in layout.pods
            for s in pod.servers
            if s.state is PowerState.ACTIVE
        ]
        per_active = float(np.mean(active_utils)) if active_utils else 0.0
        disk_util = min(1.0, 0.15 + 0.7 * per_active)
        disk_temps = layout.disks.step(state.pod_inlet_temp_c, disk_util, dt)

        it_power = sum(pod_powers)
        cooling_power, water_l = units.step_resources(it_power, dt)
        record = StepRecord(
            time_s=self._time_of_day_s,
            outside_temp_c=layout.outside_temp.read(),
            sensor_temps_c=tuple(layout.inlet_readings().tolist()),
            mode=units.mode,
            fc_fan_speed=units.fc_fan_speed,
            ac_compressor_duty=units.ac_compressor_duty,
            cooling_power_w=cooling_power,
            it_power_w=it_power,
            inside_rh_pct=layout.cold_aisle_humidity.read(),
            outside_rh_pct=layout.outside_humidity.read(),
            utilization=layout.utilization(),
            disk_temps_c=tuple(float(t) for t in disk_temps),
            degraded=self.degraded_control,
            water_l=water_l,
            regime=getattr(units, "active_regime", ""),
        )
        if self.collect_monitoring:
            self.monitoring_log.append(
                MonitoringSample(
                    time_s=abs_t,
                    mode=units.mode,
                    fan_speed=units.fc_fan_speed,
                    sensor_temps_c=record.sensor_temps_c,
                    outside_temp_c=record.outside_temp_c,
                    utilization=record.utilization,
                    inside_mixing_ratio=state.cold_aisle_mixing_ratio,
                    outside_mixing_ratio=outside_w,
                    cooling_power_w=cooling_power,
                )
            )
        return record
