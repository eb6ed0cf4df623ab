"""Declarative cooling-plant backends (ROADMAP item 1).

Every simulation selects a *plant*: the cooling technology the container
rejects heat with.  The default, ``parasol``, is the paper's hardware —
the Dantherm free-cooling unit plus the DX AC — and is bit-identical to
the pre-backend code paths (same units classes, same cache keys).  Three
alternatives model the technologies CoolAir's plant-agnostic learned
model could drive instead:

* ``chiller`` — water chiller with an ASHRAE-style COP-vs-lift
  performance curve and an air-cooled condenser: energy-hungry when the
  lift is high, but draws no water.
* ``cooling_tower`` — a wet cooling tower serving a chilled-water coil
  directly (water-side economizer).  Cheap fan + pump power, but its
  capacity collapses as the outside wet bulb approaches the loop supply
  temperature, and every kWh it rejects evaporates water (plus blowdown).
* ``hybrid`` — air-side free cooling exactly like ``parasol``, with the
  mechanical path routed to the tower when the wet bulb permits and to
  the chiller otherwise.  This exposes free-cooling/tower/chiller as
  selectable regimes to the same controller/predictor stack.

All backends present the :class:`~repro.cooling.units.CoolingUnits`
interface, so the engine, controllers, and the learned model are
unchanged; the controller's FREE_COOLING commands are mapped onto the
mechanical path for plants without an air economizer.

The chiller/tower units subclass :class:`SmoothCoolingUnits` — modern
plants have variable-speed drives — so ``SimSetup.smooth_hardware``
stays true and CoolAir's fine-grained control applies.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, Optional, Tuple, Type

import numpy as np

from repro import constants
from repro.cooling.regimes import CoolingCommand, CoolingMode
from repro.cooling.units import (
    AbruptCoolingUnits,
    CoolingUnits,
    SmoothCoolingUnits,
    free_cooling_power_w,
)
from repro.errors import ConfigError
from repro.physics.psychrometrics import (
    evaporation_l_per_kwh,
    wet_bulb_c,
    wet_bulb_c_array,
)
from repro.physics.thermal import PlantInputs

PLANTS = ("parasol", "chiller", "cooling_tower", "hybrid")

PLANT_ENV_VAR = "REPRO_PLANT"

DEFAULT_PLANT = "parasol"


def resolve_plant(requested: Optional[str] = None) -> str:
    """The plant to simulate: explicit argument > ``REPRO_PLANT`` > default."""
    if requested is None:
        requested = os.environ.get(PLANT_ENV_VAR) or DEFAULT_PLANT
    if requested not in PLANTS:
        raise ConfigError(
            f"unknown cooling plant {requested!r}; choices: {', '.join(PLANTS)}"
        )
    return requested


# --- performance curves (pure functions, unit-testable) -------------------


def chiller_lift_k(outside_temp_c: float) -> float:
    """Condenser-to-evaporator lift for an air-cooled condenser."""
    lift = (
        outside_temp_c
        + constants.CONDENSER_APPROACH_K
        - constants.CHILLED_WATER_SUPPLY_C
    )
    return max(constants.CHILLER_MIN_LIFT_K, lift)


def chiller_cop(lift_k: float) -> float:
    """COP-vs-lift curve, inverse in lift and clamped at both ends.

    Documented endpoints: COP equals ``CHILLER_COP_AT_REFERENCE`` (5.0)
    at the reference lift (25 K), halves to 2.5 at double the reference
    lift, and saturates at ``CHILLER_MAX_COP`` for very low lifts.
    """
    lift = max(constants.CHILLER_MIN_LIFT_K, lift_k)
    cop = constants.CHILLER_COP_AT_REFERENCE * constants.CHILLER_REFERENCE_LIFT_K / lift
    return min(constants.CHILLER_MAX_COP, cop)


def chiller_power_w(duty: float, outside_temp_c: float) -> float:
    """Compressor electrical draw to deliver ``duty`` of rated capacity."""
    if duty <= 0.0:
        return 0.0
    heat_w = duty * constants.MECH_COOLING_CAPACITY_W
    return heat_w / chiller_cop(chiller_lift_k(outside_temp_c))


def tower_capacity_factor(wet_bulb_temp_c: float) -> float:
    """Fraction of rated coil capacity the tower loop can deliver.

    Full capacity when the wet bulb sits below the control band, ramping
    linearly to zero at ``TOWER_CUTOFF_WB_C`` (supply approach + coil
    delta-T leave no useful lift above it).
    """
    margin = constants.TOWER_CUTOFF_WB_C - wet_bulb_temp_c
    return max(0.0, min(1.0, margin / constants.TOWER_CAPACITY_BAND_K))


def tower_power_w(duty: float) -> float:
    """Tower-loop electrical draw: pump linear in duty, fan cubic."""
    if duty <= 0.0:
        return 0.0
    return (
        constants.TOWER_PUMP_FULL_W * duty
        + constants.TOWER_FAN_FULL_W * duty**3
    )


def tower_water_l(heat_rejected_w: float, dt_s: float) -> float:
    """Evaporation plus blowdown for heat rejected over one step."""
    if heat_rejected_w <= 0.0:
        return 0.0
    heat_kwh = heat_rejected_w * dt_s / 3.6e6
    evaporated = heat_kwh * evaporation_l_per_kwh()
    blowdown = evaporated / (constants.TOWER_CYCLES_OF_CONCENTRATION - 1.0)
    return evaporated + blowdown


# --- lane-vectorized performance curves -----------------------------------
#
# Array counterparts of the scalar curves above, pinned *bit-identical*
# per element (tests/unit/test_lane_backends.py): the lane engine is only
# allowed to change speed, never trajectories.  Pure +-*/ chains and
# min/max vectorize exactly (same IEEE operations in the same order);
# the ``duty ** 3`` / ``fc ** 3`` power terms change only once per
# control period, so the lane units below evaluate those through the
# scalar functions element by element instead of risking a last-ulp
# difference from ``numpy.power``.


def chiller_power_w_array(
    duty: np.ndarray, outside_temp_c: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`chiller_power_w` (with its lift/COP chain)."""
    lift = np.maximum(
        constants.CHILLER_MIN_LIFT_K,
        outside_temp_c
        + constants.CONDENSER_APPROACH_K
        - constants.CHILLED_WATER_SUPPLY_C,
    )
    cop = np.minimum(
        constants.CHILLER_MAX_COP,
        constants.CHILLER_COP_AT_REFERENCE
        * constants.CHILLER_REFERENCE_LIFT_K
        / lift,
    )
    return np.where(
        duty > 0.0, duty * constants.MECH_COOLING_CAPACITY_W / cop, 0.0
    )


def tower_capacity_factor_array(wet_bulb_temp_c: np.ndarray) -> np.ndarray:
    """Vectorized :func:`tower_capacity_factor`."""
    margin = constants.TOWER_CUTOFF_WB_C - wet_bulb_temp_c
    return np.maximum(
        0.0, np.minimum(1.0, margin / constants.TOWER_CAPACITY_BAND_K)
    )


def tower_water_l_array(
    heat_rejected_w: np.ndarray, dt_s: float
) -> np.ndarray:
    """Vectorized :func:`tower_water_l` (evaporation plus blowdown)."""
    heat_kwh = heat_rejected_w * dt_s / 3.6e6
    evaporated = heat_kwh * evaporation_l_per_kwh()
    blowdown = evaporated / (constants.TOWER_CYCLES_OF_CONCENTRATION - 1.0)
    return np.where(heat_rejected_w > 0.0, evaporated + blowdown, 0.0)


def _tower_power_elementwise(duty: np.ndarray) -> np.ndarray:
    """Scalar :func:`tower_power_w` per lane (the cubic fan term).

    The ``float()`` casts keep the call exactly the scalar path —
    ``np.float64.__pow__`` is not pinned to ``float.__pow__``'s rounding.
    """
    return np.fromiter(
        (tower_power_w(float(d)) for d in duty), dtype=float, count=len(duty)
    )


def _free_cooling_power_elementwise(fc_fan_speed: np.ndarray) -> np.ndarray:
    """Scalar :func:`free_cooling_power_w` per lane (the cubic fan law)."""
    return np.fromiter(
        (free_cooling_power_w(float(f)) for f in fc_fan_speed),
        dtype=float,
        count=len(fc_fan_speed),
    )


def _mechanical_command(command: CoolingCommand) -> CoolingCommand:
    """Map a command onto a plant whose only path is mechanical cooling.

    FREE_COOLING requests become partial mechanical cooling at the
    requested intensity, so the unchanged controllers (TKS proportional
    band, CoolAir's regime search) still modulate the plant.
    """
    if command.mode is CoolingMode.FREE_COOLING:
        return CoolingCommand(
            mode=CoolingMode.AC_ON,
            ac_fan_speed=1.0,
            ac_compressor_duty=command.fc_fan_speed,
        )
    return command


class ChillerUnits(SmoothCoolingUnits):
    """Water chiller, air-cooled condenser: no economizer, no water."""

    def _apply_command(self, command: CoolingCommand) -> None:
        super()._apply_command(_mechanical_command(command))

    def power_w(self) -> float:
        power = self.AC_FAN_FULL_W * self.ac_fan_speed
        power += chiller_power_w(self.ac_compressor_duty, self.outside_temp_c)
        return power


class CoolingTowerUnits(SmoothCoolingUnits):
    """Wet tower + chilled-water coil: water-side economizer only."""

    def _apply_command(self, command: CoolingCommand) -> None:
        super()._apply_command(_mechanical_command(command))

    def capacity_factor(self) -> float:
        return tower_capacity_factor(
            wet_bulb_c(self.outside_temp_c, self.outside_rh_pct)
        )

    def plant_inputs(self) -> PlantInputs:
        # The thermal plant sees only the cooling the tower can deliver
        # at the current wet bulb; fan/pump still run at commanded duty.
        inputs = super().plant_inputs()
        inputs.ac_compressor_duty *= self.capacity_factor()
        return inputs

    def power_w(self) -> float:
        power = self.AC_FAN_FULL_W * self.ac_fan_speed
        power += tower_power_w(self.ac_compressor_duty)
        return power

    def step_resources(self, it_power_w: float, dt_s: float) -> Tuple[float, float]:
        delivered = self.ac_compressor_duty * self.capacity_factor()
        heat_rejected_w = delivered * constants.MECH_COOLING_CAPACITY_W
        return self.power_w(), tower_water_l(heat_rejected_w, dt_s)


class HybridUnits(SmoothCoolingUnits):
    """Air economizer + tower + chiller behind one set of actuators.

    FREE_COOLING commands drive the air economizer exactly like the
    smooth Parasol unit.  Mechanical commands pick a regime by outside
    wet bulb: the tower when it can deliver at least
    ``TOWER_MIN_USEFUL_CAPACITY`` of rated capacity, the chiller
    otherwise.  ``active_regime`` exposes the selection to traces/tests.
    """

    TOWER_MIN_USEFUL_CAPACITY = 0.5

    def __init__(self, ramp_per_step: float = 0.20) -> None:
        super().__init__(ramp_per_step)
        self._mech_regime: Optional[str] = None

    def _tower_viable(self) -> bool:
        return (
            tower_capacity_factor(
                wet_bulb_c(self.outside_temp_c, self.outside_rh_pct)
            )
            >= self.TOWER_MIN_USEFUL_CAPACITY
        )

    def _apply_command(self, command: CoolingCommand) -> None:
        super()._apply_command(command)
        if self.ac_compressor_duty > 0.0 or self.ac_fan_speed > 0.0:
            self._mech_regime = "tower" if self._tower_viable() else "chiller"
        else:
            self._mech_regime = None

    def reset(self) -> None:
        super().reset()
        self._mech_regime = None

    @property
    def active_regime(self) -> str:
        if self.fc_fan_speed > 0.0:
            return "free_cooling"
        if self._mech_regime is not None:
            return self._mech_regime
        return "off"

    def plant_inputs(self) -> PlantInputs:
        inputs = super().plant_inputs()
        if self._mech_regime == "tower":
            inputs.ac_compressor_duty *= tower_capacity_factor(
                wet_bulb_c(self.outside_temp_c, self.outside_rh_pct)
            )
        return inputs

    def power_w(self) -> float:
        power = 0.0
        if self.fc_fan_speed > 0.0:
            power += free_cooling_power_w(self.fc_fan_speed)
        power += self.AC_FAN_FULL_W * self.ac_fan_speed
        if self._mech_regime == "tower":
            power += tower_power_w(self.ac_compressor_duty)
        else:
            power += chiller_power_w(self.ac_compressor_duty, self.outside_temp_c)
        return power

    def step_resources(self, it_power_w: float, dt_s: float) -> Tuple[float, float]:
        water = 0.0
        if self._mech_regime == "tower":
            delivered = self.ac_compressor_duty * tower_capacity_factor(
                wet_bulb_c(self.outside_temp_c, self.outside_rh_pct)
            )
            water = tower_water_l(
                delivered * constants.MECH_COOLING_CAPACITY_W, dt_s
            )
        return self.power_w(), water


# --- lane-vectorized backend units ----------------------------------------

# Per-period mechanical-regime codes the lane engine trades in (the
# array mirror of ``HybridUnits.active_regime``).
LANE_REGIME_NONE = 0
LANE_REGIME_TOWER = 1
LANE_REGIME_CHILLER = 2

#: ``active_regime`` string -> lane regime code ("free_cooling"/"off" -> 0).
LANE_REGIME_CODES = {"tower": LANE_REGIME_TOWER, "chiller": LANE_REGIME_CHILLER}


class LaneCoolingUnits:
    """Array counterpart of the :class:`CoolingUnits` backend protocol.

    One instance covers every lane of one backend inside a
    :class:`~repro.sim.lanes.LaneRunner` batch, and each input arrives at
    the rate it changes.  The raw weather boundary arrives once per day
    via :meth:`observe_boundary`, as ``(steps, lanes)`` grids (one row per
    model step; a single ``(lanes,)`` row works too).  Actuator state
    arrives once per control period via :meth:`set_actuators`, gathered
    from the per-lane scalar units, whose ramp/latch dynamics stay
    authoritative.  :meth:`effective_duty` and :meth:`step_resources`
    then answer for a whole period's block of boundary rows at once.
    Every value is pinned bit-identical, element by element, to the
    scalar ``plant_inputs`` / :meth:`CoolingUnits.step_resources` chain
    at that row's weather (tests/unit/test_lane_backends.py).
    """

    #: the thermal plant sees a capacity-scaled duty that follows the weather
    scales_duty = False

    def __init__(self, num_lanes: int) -> None:
        self.num_lanes = num_lanes
        self.outside_temp_c = np.full(num_lanes, 20.0)
        self.outside_rh_pct = np.full(num_lanes, 50.0)
        self._fc = np.zeros(num_lanes)
        self._ac_fan = np.zeros(num_lanes)
        self._duty = np.zeros(num_lanes)
        self._static_power = np.zeros(num_lanes)

    def observe_boundary(
        self, outside_temp_c: np.ndarray, outside_rh_pct: np.ndarray
    ) -> None:
        """Record the raw weather: ``(steps, lanes)`` grids or one row."""
        self.outside_temp_c = np.asarray(outside_temp_c, dtype=float)
        self.outside_rh_pct = np.asarray(outside_rh_pct, dtype=float)

    def set_actuators(
        self,
        fc_fan_speed: np.ndarray,
        ac_fan_speed: np.ndarray,
        ac_compressor_duty: np.ndarray,
        regimes: Optional[np.ndarray] = None,
    ) -> None:
        """New per-lane actuator state for this control period."""
        self._fc = fc_fan_speed
        self._ac_fan = ac_fan_speed
        self._duty = ac_compressor_duty

    def effective_duty(self, steps: slice = slice(None)) -> np.ndarray:
        """The compressor duty the thermal plant sees at boundary rows
        ``steps`` (the array mirror of
        ``plant_inputs().ac_compressor_duty``); per lane when the duty
        does not follow the weather."""
        return self._duty

    def step_resources(
        self, it_power_w: np.ndarray, dt_s: float, steps: slice = slice(None)
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-step ``(power_w, water_l)`` over boundary rows ``steps``.

        Either array may come back per lane when it does not vary within
        the block; it broadcasts against the block's rows.
        """
        return self._static_power, np.zeros(self.num_lanes)


class LaneChillerUnits(LaneCoolingUnits):
    """Lane variant of :class:`ChillerUnits`: dry, lift-coupled power."""

    def set_actuators(self, fc_fan_speed, ac_fan_speed, ac_compressor_duty,
                      regimes=None):
        super().set_actuators(fc_fan_speed, ac_fan_speed, ac_compressor_duty)
        self._static_power = (
            SmoothCoolingUnits.AC_FAN_FULL_W * ac_fan_speed
        )

    def step_resources(self, it_power_w, dt_s, steps=slice(None)):
        power = self._static_power + chiller_power_w_array(
            self._duty, self.outside_temp_c[steps]
        )
        return power, np.zeros(self.num_lanes)


class LaneCoolingTowerUnits(LaneCoolingUnits):
    """Lane variant of :class:`CoolingTowerUnits`: capacity-scaled duty
    and evaporative water, both tracking the per-step wet bulb."""

    scales_duty = True

    def __init__(self, num_lanes: int) -> None:
        super().__init__(num_lanes)
        self._capacity = tower_capacity_factor_array(
            wet_bulb_c_array(self.outside_temp_c, self.outside_rh_pct)
        )

    def observe_boundary(self, outside_temp_c, outside_rh_pct):
        # One Stull evaluation over the whole boundary grid (a day of
        # model steps) instead of one per step.
        super().observe_boundary(outside_temp_c, outside_rh_pct)
        self._capacity = tower_capacity_factor_array(
            wet_bulb_c_array(self.outside_temp_c, self.outside_rh_pct)
        )

    def set_actuators(self, fc_fan_speed, ac_fan_speed, ac_compressor_duty,
                      regimes=None):
        super().set_actuators(fc_fan_speed, ac_fan_speed, ac_compressor_duty)
        self._static_power = (
            SmoothCoolingUnits.AC_FAN_FULL_W * ac_fan_speed
            + _tower_power_elementwise(ac_compressor_duty)
        )

    def effective_duty(self, steps=slice(None)):
        if not self._duty.any():
            # Zero duty stays zero at any capacity: one row serves all.
            return self._duty
        return self._duty * self._capacity[steps]

    def step_resources(self, it_power_w, dt_s, steps=slice(None)):
        delivered = self._duty * self._capacity[steps]
        heat_rejected_w = delivered * constants.MECH_COOLING_CAPACITY_W
        return self._static_power, tower_water_l_array(heat_rejected_w, dt_s)


class LaneHybridUnits(LaneCoolingTowerUnits):
    """Lane variant of :class:`HybridUnits`: the free->tower->chiller
    regime selection arrives as per-period codes (``LANE_REGIME_*``,
    read off each lane's scalar units after ``apply``) and branches via
    masks, mirroring :class:`LaneThermalPlant`'s AC-lane handling."""

    def __init__(self, num_lanes: int) -> None:
        super().__init__(num_lanes)
        self._tower_mask = np.zeros(num_lanes, dtype=bool)

    def set_actuators(self, fc_fan_speed, ac_fan_speed, ac_compressor_duty,
                      regimes=None):
        LaneCoolingUnits.set_actuators(
            self, fc_fan_speed, ac_fan_speed, ac_compressor_duty
        )
        self._tower_mask = regimes == LANE_REGIME_TOWER
        # Association order mirrors HybridUnits.power_w: free cooling,
        # then the AC fan, then the selected mechanical path.
        static = _free_cooling_power_elementwise(fc_fan_speed)
        static = static + SmoothCoolingUnits.AC_FAN_FULL_W * ac_fan_speed
        tower_lanes = np.flatnonzero(self._tower_mask)
        if tower_lanes.size:
            static[tower_lanes] += _tower_power_elementwise(
                ac_compressor_duty[tower_lanes]
            )
        self._static_power = static

    def effective_duty(self, steps=slice(None)):
        if not self._tower_mask.any():
            # Only the tower regime scales: one row serves the block.
            return self._duty
        return np.where(
            self._tower_mask, self._duty * self._capacity[steps], self._duty
        )

    def step_resources(self, it_power_w, dt_s, steps=slice(None)):
        power = np.where(
            self._tower_mask,
            self._static_power,
            self._static_power
            + chiller_power_w_array(self._duty, self.outside_temp_c[steps]),
        )
        delivered = self._duty * self._capacity[steps]
        heat_rejected_w = delivered * constants.MECH_COOLING_CAPACITY_W
        water = np.where(
            self._tower_mask, tower_water_l_array(heat_rejected_w, dt_s), 0.0
        )
        return power, water


# --- the registry ---------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CoolingBackend:
    """One cooling plant: metadata plus its units factory."""

    name: str
    description: str
    has_economizer: bool
    uses_water: bool
    abrupt_cls: Type[CoolingUnits]
    smooth_cls: Type[CoolingUnits]
    #: lane-vectorized counterpart; ``None`` for ``parasol``, whose power
    #: laws the lane engine vectorizes natively (repro.sim.lanes).
    lane_cls: Optional[Type[LaneCoolingUnits]] = None

    def make_units(self, smooth: bool = True) -> CoolingUnits:
        """Instantiate the plant's cooling units.

        Only ``parasol`` distinguishes abrupt (real Parasol hardware)
        from smooth (Smooth-Sim) units; the alternative plants model
        modern variable-speed equipment on both settings.
        """
        cls = self.smooth_cls if smooth else self.abrupt_cls
        return cls()

    def make_lane_units(self, num_lanes: int) -> LaneCoolingUnits:
        """The backend's array units for a ``num_lanes``-wide batch."""
        if self.lane_cls is None:
            raise ConfigError(
                f"plant {self.name!r} has no lane-vectorized units"
            )
        return self.lane_cls(num_lanes)


_REGISTRY: Dict[str, CoolingBackend] = {
    "parasol": CoolingBackend(
        name="parasol",
        description="Parasol free-cooling unit + DX AC (the paper's plant)",
        has_economizer=True,
        uses_water=False,
        abrupt_cls=AbruptCoolingUnits,
        smooth_cls=SmoothCoolingUnits,
    ),
    "chiller": CoolingBackend(
        name="chiller",
        description="air-cooled water chiller, COP-vs-lift curve, no water",
        has_economizer=False,
        uses_water=False,
        abrupt_cls=ChillerUnits,
        smooth_cls=ChillerUnits,
        lane_cls=LaneChillerUnits,
    ),
    "cooling_tower": CoolingBackend(
        name="cooling_tower",
        description="wet tower + CHW coil: cheap power, evaporates water",
        has_economizer=False,
        uses_water=True,
        abrupt_cls=CoolingTowerUnits,
        smooth_cls=CoolingTowerUnits,
        lane_cls=LaneCoolingTowerUnits,
    ),
    "hybrid": CoolingBackend(
        name="hybrid",
        description="air economizer with tower/chiller mechanical regimes",
        has_economizer=True,
        uses_water=True,
        abrupt_cls=HybridUnits,
        smooth_cls=HybridUnits,
        lane_cls=LaneHybridUnits,
    ),
}


def get_backend(name: str) -> CoolingBackend:
    """Look up a backend by plant name (:class:`ConfigError` if unknown)."""
    return _REGISTRY[resolve_plant(name)]
