"""Per-period blocks of the lane plant and lane cooling units.

The lane runner evaluates everything that changes once per control
period over a ``(steps, lanes)`` block: the thermal plant's
duty-dependent invariants, and the cooling units' effective duty, power
and water over a period's rows of the day's weather.  Row ``j`` of a
block must equal the per-step call with that row's inputs, bit for bit.
"""

import numpy as np
import pytest

from repro.cooling.backends import (
    LANE_REGIME_CHILLER,
    LANE_REGIME_NONE,
    LANE_REGIME_TOWER,
    LaneChillerUnits,
    LaneCoolingTowerUnits,
    LaneHybridUnits,
)
from repro.errors import ConfigError
from repro.physics.thermal import LaneThermalPlant

LANES = 5
STEPS = 5
DT_S = 120.0


def _plant_inputs(rng):
    fc = np.array([0.0, 0.4, 0.0, 0.0, 1.0])
    ac_fan = np.array([1.0, 0.0, 1.0, 0.6, 0.0])
    pod_powers = rng.uniform(800.0, 2200.0, size=(LANES, 4))
    # Capacity-scaled duty: some rows drop to zero (tower cut off), so
    # the AC-lane masks differ from row to row.
    duty = rng.uniform(0.0, 1.0, size=(STEPS, LANES))
    duty[:, 1] = 0.0
    duty[:, 4] = 0.0
    duty[1, 0] = 0.0
    duty[3, 2] = 0.0
    return fc, ac_fan, duty, pod_powers


def _fresh_plant(rng_seed=3):
    plant = LaneThermalPlant(LANES)
    rng = np.random.default_rng(rng_seed)
    plant.reset(rng.uniform(15.0, 30.0, LANES), np.full(LANES, 0.011))
    return plant


def _row_values(row):
    return [np.asarray(value).tolist() for value in row]


class TestLaneThermalPlantBlock:
    def test_block_row_equals_per_row_set_inputs(self):
        rng = np.random.default_rng(7)
        fc, ac_fan, duty, pod_powers = _plant_inputs(rng)
        block = LaneThermalPlant(LANES)
        block.set_inputs(fc, ac_fan, duty, pod_powers)
        shared = block._period_inv[:3]
        rows = block._period_inv[3]
        assert len(rows) == STEPS
        for j in range(STEPS):
            single = LaneThermalPlant(LANES)
            single.set_inputs(fc, ac_fan, duty[j], pod_powers)
            for a, b in zip(shared, single._period_inv[:3]):
                assert np.asarray(a).tolist() == np.asarray(b).tolist()
            (expected,) = single._period_inv[3]
            assert _row_values(rows[j]) == _row_values(expected)

    def test_block_steps_like_per_step_set_inputs(self):
        rng = np.random.default_rng(11)
        fc, ac_fan, duty, pod_powers = _plant_inputs(rng)
        outside_t = rng.uniform(-5.0, 35.0, size=(STEPS, LANES))
        outside_w = rng.uniform(0.003, 0.02, size=(STEPS, LANES))
        block = _fresh_plant()
        single = _fresh_plant()
        block.set_inputs(fc, ac_fan, duty, pod_powers)
        for j in range(STEPS):
            a = block.step_outside(outside_t[j], outside_w[j], DT_S, row=j)
            single.set_inputs(fc, ac_fan, duty[j], pod_powers)
            b = single.step_outside(outside_t[j], outside_w[j], DT_S)
            assert a.pod_inlet_temp_c.tolist() == b.pod_inlet_temp_c.tolist()
            assert (
                a.cold_aisle_mixing_ratio.tolist()
                == b.cold_aisle_mixing_ratio.tolist()
            )
            assert a.hot_aisle_temp_c.tolist() == b.hot_aisle_temp_c.tolist()

    def test_block_is_validated(self):
        rng = np.random.default_rng(5)
        fc, ac_fan, duty, pod_powers = _plant_inputs(rng)
        duty[2, 3] = 1.5
        with pytest.raises(ConfigError, match="ac_compressor_duty"):
            LaneThermalPlant(LANES).set_inputs(fc, ac_fan, duty, pod_powers)


class TestLaneUnitsBlock:
    """A period's rows of a day grid == one observed row at a time."""

    def _grid(self):
        rng = np.random.default_rng(13)
        temps = rng.uniform(5.0, 38.0, size=(12, LANES))
        rhs = rng.uniform(20.0, 100.0, size=(12, LANES))
        return temps, rhs

    @pytest.mark.parametrize(
        "cls", [LaneChillerUnits, LaneCoolingTowerUnits, LaneHybridUnits]
    )
    def test_rows_match_single_row_calls(self, cls):
        temps, rhs = self._grid()
        fc = np.array([0.0, 0.0, 0.5, 0.0, 0.0])
        ac_fan = np.array([1.0, 1.0, 0.0, 0.7, 0.0])
        duty = np.array([0.9, 0.3, 0.0, 1.0, 0.0])
        regimes = np.array(
            [LANE_REGIME_TOWER, LANE_REGIME_CHILLER, LANE_REGIME_NONE,
             LANE_REGIME_TOWER, LANE_REGIME_NONE],
            dtype=np.int8,
        )
        day = cls(LANES)
        day.observe_boundary(temps, rhs)
        day.set_actuators(fc, ac_fan, duty, regimes)
        rows = slice(4, 9)
        eff = np.broadcast_to(day.effective_duty(rows), (5, LANES))
        power, water = day.step_resources(np.full(LANES, 1600.0), DT_S, rows)
        power = np.broadcast_to(power, (5, LANES))
        water = np.broadcast_to(water, (5, LANES))
        for j, col in enumerate(range(rows.start, rows.stop)):
            one = cls(LANES)
            one.observe_boundary(temps[col], rhs[col])
            one.set_actuators(fc, ac_fan, duty, regimes)
            assert eff[j].tolist() == one.effective_duty().tolist()
            p, w = one.step_resources(np.full(LANES, 1600.0), DT_S)
            assert power[j].tolist() == p.tolist()
            assert water[j].tolist() == w.tolist()
