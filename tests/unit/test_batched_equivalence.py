"""The lane kernels must equal the per-candidate reference, bit for bit.

Every CoolAir decision runs through
:meth:`CoolingPredictor.predict_lanes_stacked` (one lane for the scalar
engine, N for the lane engine) and :meth:`UtilityFunction.score_arrays`.
They are a pure performance path: every test here pins them to the
sequential ``predict`` / ``score`` reference with exact floating-point
equality, across a deterministic spread of control-period states covering
both hardware candidate sets, blended AC duties, and active-sensor
restriction.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.profiling import _decision_states
from repro.core.band import TemperatureBand
from repro.core.optimizer import (
    CoolingOptimizer,
    abrupt_candidates,
    smooth_candidates,
)
from repro.core.predictor import CoolingPredictor
from repro.core.utility import UtilityFunction
from repro.core.versions import all_nd

STEPS = 5
BAND = TemperatureBand(25.0, 30.0)


def assert_lane_equals_sequential(lane, sequential):
    temps, rh, energies, ac_full = lane
    assert temps.shape[0] == len(sequential)
    for i, want in enumerate(sequential):
        assert np.array_equal(temps[i], want.sensor_temps_c)
        assert np.array_equal(rh[i], want.rh_pct)
        assert energies[i] == want.cooling_energy_kwh
        assert ac_full[i] == want.ac_at_full_speed


class TestPredictLanesStacked:
    def test_matches_sequential_predict_at_width_one_and_n(
        self, cooling_model
    ):
        predictor = CoolingPredictor(cooling_model)
        states = _decision_states(cooling_model, 12)
        smooth = [smooth_candidates(s.fan_speed) for s in states]
        for commands_per_lane in ([abrupt_candidates()] * len(states), smooth):
            width_n = predictor.predict_lanes_stacked(
                states, commands_per_lane, STEPS
            )
            for state, commands, lane in zip(
                states, commands_per_lane, width_n
            ):
                sequential = [
                    predictor.predict(state, command, STEPS)
                    for command in commands
                ]
                (width_one,) = predictor.predict_lanes_stacked(
                    [state], [commands], STEPS
                )
                assert_lane_equals_sequential(width_one, sequential)
                assert_lane_equals_sequential(lane, sequential)


class TestScoreArrays:
    def test_matches_sequential_score(self, cooling_model):
        predictor = CoolingPredictor(cooling_model)
        config = all_nd()
        utility = UtilityFunction(config)
        horizon_s = float(config.control_period_s)
        for state in _decision_states(cooling_model, 8):
            commands = smooth_candidates(current_fc_speed=state.fan_speed)
            predictions = [
                predictor.predict(state, command, STEPS)
                for command in commands
            ]
            current = list(state.sensor_temps_c)
            batched = utility.score_arrays(
                np.stack([p.sensor_temps_c for p in predictions]),
                np.stack([p.rh_pct for p in predictions]),
                np.array([p.cooling_energy_kwh for p in predictions]),
                np.array([p.ac_at_full_speed for p in predictions]),
                BAND,
                current,
                horizon_s,
            )
            sequential = [
                utility.score(p, BAND, current, horizon_s) for p in predictions
            ]
            assert batched == sequential


class TestOptimizerEquivalence:
    def make(self, cooling_model, smooth, use_batched):
        config = all_nd()
        predictor = CoolingPredictor(cooling_model)
        return CoolingOptimizer(
            config,
            predictor,
            UtilityFunction(config),
            smooth_hardware=smooth,
            use_batched=use_batched,
        )

    def assert_same_decisions(self, cooling_model, smooth, active=None):
        batched = self.make(cooling_model, smooth, use_batched=True)
        reference = self.make(cooling_model, smooth, use_batched=False)
        for state in _decision_states(cooling_model, 10):
            got = batched.decide(state, BAND, active_sensor_indices=active)
            want = reference.decide(state, BAND, active_sensor_indices=active)
            assert got == want
            assert batched.last_scores == reference.last_scores

    def assert_lane_batch_scores_match(self, cooling_model, active):
        """All states as lanes of one rollout, as the lane engine runs."""
        lanes = self.make(cooling_model, smooth=True, use_batched=True)
        reference = self.make(cooling_model, smooth=True, use_batched=False)
        states = _decision_states(cooling_model, 10)
        cands = [lanes._candidates(state, BAND) for state in states]
        stacked = lanes.predictor.predict_lanes_stacked(
            states, cands, lanes.config.steps_per_control_period
        )
        for state, candidates, arrays in zip(states, cands, stacked):
            got = lanes.decide_from_stacked(
                state, BAND, candidates, *arrays, active
            )
            want = reference.decide(state, BAND, active_sensor_indices=active)
            assert got == want
            assert lanes.last_scores == reference.last_scores

    def test_smooth_hardware(self, cooling_model):
        self.assert_same_decisions(cooling_model, smooth=True)

    def test_abrupt_hardware(self, cooling_model):
        self.assert_same_decisions(cooling_model, smooth=False)

    def test_active_sensor_restriction(self, cooling_model):
        num_sensors = cooling_model.num_sensors
        subsets = (
            [0, 2],
            [0],
            list(range(0, num_sensors, 2)),
            list(range(num_sensors - 1)),
        )
        for active in subsets:
            self.assert_same_decisions(cooling_model, smooth=True, active=active)
            self.assert_lane_batch_scores_match(cooling_model, active)
