"""The Cooling Optimizer (Section 3.2).

Every 10 minutes the Optimizer enumerates the cooling regimes the
infrastructure can reach, asks the Cooling Predictor what each would do
over the next period, scores the predictions with the utility function,
and selects the lowest-penalty regime.  Ties break toward the cheaper
regime, then toward staying put (regime changes are what cause variation).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cooling.regimes import CoolingCommand, CoolingMode
from repro.core.band import TemperatureBand
from repro.core.config import CoolAirConfig
from repro.core.predictor import CoolingPredictor, PredictorState
from repro.core.utility import RegimePrediction, UtilityFunction

# Fan speeds closer than this are operationally indistinguishable; offering
# both wastes a predictor rollout (they arise from floating-point drift when
# current_fc_speed carries rounding from earlier ramp arithmetic).
SPEED_DEDUPE_TOLERANCE = 0.005


def _dedupe_speeds(speeds: Sequence[float]) -> List[float]:
    """Sorted speeds with near-duplicates collapsed to the lowest of each run."""
    kept: List[float] = []
    for speed in sorted(speeds):
        if not kept or speed - kept[-1] >= SPEED_DEDUPE_TOLERANCE:
            kept.append(speed)
    return kept


@functools.lru_cache(maxsize=None)
def _abrupt_candidates_cached() -> Tuple[CoolingCommand, ...]:
    commands = [CoolingCommand.closed()]
    for speed in (0.15, 0.3, 0.5, 0.75, 1.0):
        commands.append(CoolingCommand.free_cooling(speed))
    commands.append(CoolingCommand.ac(compressor_duty=0.0))
    commands.append(CoolingCommand.ac(compressor_duty=1.0))
    return tuple(commands)


def abrupt_candidates() -> List[CoolingCommand]:
    """Regimes reachable with Parasol's real hardware."""
    return list(_abrupt_candidates_cached())


@functools.lru_cache(maxsize=1024)
def _smooth_candidates_cached(
    current_fc_speed: float, ramp_per_step: float
) -> Tuple[CoolingCommand, ...]:
    commands = [CoolingCommand.closed()]
    speeds = {0.01, 0.05, 0.10, 0.20, 0.35, 0.5, 0.75, 1.0}
    if current_fc_speed > 0.0:
        ceiling = min(1.0, current_fc_speed + ramp_per_step)
        speeds.update(
            min(ceiling, max(0.01, current_fc_speed + delta))
            for delta in (-0.10, -0.05, -0.02, 0.02, 0.05, 0.10)
        )
    for speed in _dedupe_speeds(speeds):
        commands.append(CoolingCommand.free_cooling(speed))
    commands.append(CoolingCommand.ac(compressor_duty=0.0))
    for duty in (0.25, 0.5, 0.75, 1.0):
        commands.append(CoolingCommand.ac(compressor_duty=duty))
    return tuple(commands)


def smooth_candidates(
    current_fc_speed: float = 0.0, ramp_per_step: float = 0.20
) -> List[CoolingCommand]:
    """Regimes reachable with the fine-grained (Smooth-Sim) hardware.

    Fan speeds near the current speed are included so the optimizer can
    make small moves; the ramp limit keeps the far choices honest (the
    units clamp anyway, but offering unreachable speeds wastes predictions).
    The list is cached per (speed, ramp) — a simulation revisits the same
    handful of fan speeds every 10 minutes — and callers get a fresh list.
    """
    return list(_smooth_candidates_cached(current_fc_speed, ramp_per_step))


class CoolingOptimizer:
    """Selects the best cooling regime for the next control period."""

    def __init__(
        self,
        config: CoolAirConfig,
        predictor: CoolingPredictor,
        utility: UtilityFunction,
        smooth_hardware: bool = False,
        use_batched: bool = True,
    ) -> None:
        self.config = config
        self.predictor = predictor
        self.utility = utility
        self.smooth_hardware = smooth_hardware
        # False selects the per-candidate reference path (predict + score),
        # which the default lane-kernel path matches bit for bit; the flag
        # exists so tests can assert that equivalence.
        self.use_batched = use_batched
        self.last_scores: List[Tuple[CoolingCommand, float]] = []

    def _candidates(
        self, state: PredictorState, band: TemperatureBand
    ) -> List[CoolingCommand]:
        if self.smooth_hardware:
            commands = smooth_candidates(
                current_fc_speed=state.fan_speed if state.mode is CoolingMode.FREE_COOLING else 0.0
            )
        else:
            commands = abrupt_candidates()
        # Backup cooling is for when outside air is too warm to free-cool
        # (Section 2).  Far below the band the AC can only act as a
        # recirculating heater, a condition its learned models never saw
        # in the campaign (the TKS engages the AC only in HOT mode), so
        # predictions there are pure extrapolation — exclude it.  Near the
        # band the AC stays available: the paper's CoolAir spends AC
        # energy at mild locations to limit variation (Figure 10,
        # Santiago), and the full-speed penalty prices that choice.
        if state.outside_temp_c < band.low_c - 10.0:
            commands = [
                c for c in commands
                if c.mode in (CoolingMode.CLOSED, CoolingMode.FREE_COOLING)
            ]
        return commands

    def decide(
        self,
        state: PredictorState,
        band: TemperatureBand,
        active_sensor_indices: Optional[Sequence[int]] = None,
    ) -> CoolingCommand:
        """Pick the regime with the lowest predicted penalty.

        ``active_sensor_indices`` restricts the utility sum to "the sensors
        of all active pods" (Section 3.2); None scores every sensor.  The
        rollout is a width-1 :meth:`CoolingPredictor.predict_lanes_stacked`
        call, so a scalar-engine decision runs the lane engine's kernels.
        """
        steps = self.config.steps_per_control_period
        candidates = self._candidates(state, band)
        if not self.use_batched:
            predictions = [
                self.predictor.predict(state, command, steps)
                for command in candidates
            ]
            return self.decide_from_predictions(
                state, band, candidates, predictions, active_sensor_indices
            )
        ((temps, rh, energies, ac_full),) = (
            self.predictor.predict_lanes_stacked([state], [candidates], steps)
        )
        return self.decide_from_stacked(
            state, band, candidates, temps, rh, energies, ac_full,
            active_sensor_indices,
        )

    def decide_from_predictions(
        self,
        state: PredictorState,
        band: TemperatureBand,
        candidates: Sequence[CoolingCommand],
        predictions: Sequence[RegimePrediction],
        active_sensor_indices: Optional[Sequence[int]] = None,
    ) -> CoolingCommand:
        """Reference selection: :meth:`UtilityFunction.score` per candidate."""
        horizon_s = float(self.config.control_period_s)
        if active_sensor_indices is not None:
            indices = list(active_sensor_indices)
            predictions = [
                dataclasses.replace(
                    prediction,
                    sensor_temps_c=prediction.sensor_temps_c[:, indices],
                )
                for prediction in predictions
            ]
            current = [state.sensor_temps_c[i] for i in indices]
        else:
            current = list(state.sensor_temps_c)
        scores = [
            self.utility.score(prediction, band, current, horizon_s)
            for prediction in predictions
        ]
        energies = [prediction.cooling_energy_kwh for prediction in predictions]
        return self._select(state, candidates, energies, scores)

    def decide_from_stacked(
        self,
        state: PredictorState,
        band: TemperatureBand,
        candidates: Sequence[CoolingCommand],
        temps: np.ndarray,
        rh: np.ndarray,
        energies: Sequence[float],
        ac_full: Sequence[bool],
        active_sensor_indices: Optional[Sequence[int]] = None,
    ) -> CoolingCommand:
        """:meth:`decide_from_predictions` on pre-stacked prediction arrays.

        ``temps`` is (candidates, steps, sensors) and ``rh`` (candidates,
        steps) — one lane of :meth:`CoolingPredictor.predict_lanes_stacked`
        output — scored through :meth:`UtilityFunction.score_arrays`.
        Scores equal the reference path's bit for bit.  That includes the
        active-sensor restriction: the gather is laid out in memory like
        the reference's per-candidate ``sensor_temps_c[:, indices]``
        stacked (sensor-major within each candidate), because numpy sums
        in memory order and a different layout rounds differently.
        """
        horizon_s = float(self.config.control_period_s)
        if active_sensor_indices is not None:
            indices = list(active_sensor_indices)
            temps = np.ascontiguousarray(
                temps.transpose(0, 2, 1)[:, indices, :]
            ).transpose(0, 2, 1)
            current = [state.sensor_temps_c[i] for i in indices]
        else:
            current = list(state.sensor_temps_c)
        scores = self.utility.score_arrays(
            temps,
            rh,
            np.asarray(energies),
            np.asarray(ac_full),
            band,
            current,
            horizon_s,
        )
        return self._select(state, candidates, energies, scores)

    def _select(
        self,
        state: PredictorState,
        candidates: Sequence[CoolingCommand],
        energies: Sequence[float],
        scores: Sequence[float],
    ) -> CoolingCommand:
        """Lowest penalty; ties go to the cheaper regime, then to staying put."""
        self.last_scores = list(zip(candidates, scores))
        best = min(
            range(len(candidates)),
            key=lambda i: (
                round(scores[i], 6),
                energies[i],
                0 if candidates[i].mode is state.mode else 1,
            ),
        )
        return candidates[best]
