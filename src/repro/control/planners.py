"""Planners: pluggable decision policies behind one interface.

Each tick the :class:`~repro.control.loop.ControlLoop` assembles an
:class:`Observation` from *observed* telemetry — the work-rate feed has
already passed through the fault injector's sensor path
(:meth:`repro.faults.injector.FaultInjector.observe`), so a planner sees
noisy or frozen readings during sensor faults, never ground truth — and
asks the active planner for a :class:`~repro.control.actions.
ControlAction`. Plant-side readings (room temperature, remaining plant
capacity) come off the room model exactly as the throttling policies
of :mod:`repro.dcsim.throttling` read them; an active cooling fault
derates the capacity the planner sees.

Shipped planners:

* :class:`GreedyThrottlePolicy` — the paper's Section 5.2 reactive
  mechanism: a room-temperature hysteresis latch, with the
  :class:`~repro.dcsim.throttling.FaultResponsePolicy` overrides
  (min-DVFS on sensor dropout, preemptive throttle on severe cooling
  loss). It runs the same decision functions as the
  ``FaultResponsePolicy(RoomTemperaturePolicy(room))`` stack.
* :class:`MPCPolicy` — receding-horizon search over candidate DVFS
  sequences, scored by batched forward rollouts on a
  :class:`~repro.dcsim.thermal_coupling.BatchedClusterThermalState`
  clone of the observed state (one cluster per candidate).
* :class:`ScheduledPolicy` — a time-of-day open-loop baseline: a fixed
  daily curtailment window, blind to the thermal state.
* :class:`NoOpPlanner` — always nominal; the transparency oracle.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.control.actions import ControlAction
from repro.dcsim.thermal_coupling import (
    BatchedClusterThermalState,
    ClusterThermalState,
)
from repro.dcsim.throttling import (
    downclock_or_shed,
    fault_override,
    room_throttle,
)
from repro.errors import ControlError
from repro.tco.energy import (
    AmbientAwarePlant,
    AmbientProfile,
    ElectricityTariff,
)
from repro.units import SECONDS_PER_HOUR


@dataclass
class Observation:
    """What a planner is allowed to see at one tick.

    ``work_rate`` is the per-server offered work in nominal capacity
    units *after* the fault injector's sensor path; ``fault_effects`` is
    the injector's currently active composite effects (or ``None``) —
    the same duck-typed view ``FaultResponsePolicy`` reads.
    ``state`` grants read access to the thermal state for release
    previews; planners must not mutate it.
    """

    time_s: float
    dt_s: float
    work_rate: np.ndarray
    state: ClusterThermalState
    room_temperature_c: float
    room_setpoint_c: float
    room_max_temperature_c: float
    cooling_capacity_w: float
    thermal_mass_j_per_k: float
    fault_effects: object | None = None

    @property
    def hour_of_day(self) -> float:
        """Local wall-clock hour of this tick."""
        return (self.time_s / SECONDS_PER_HOUR) % 24.0

    @property
    def nominal_frequency_ghz(self) -> float:
        return self.state.power_model.nominal_frequency_ghz

    @property
    def min_frequency_ghz(self) -> float:
        return self.state.power_model.min_frequency_ghz

    @property
    def mean_work_rate(self) -> float:
        """Cluster-mean observed work rate, clipped to [0, 1]."""
        return float(np.mean(np.clip(self.work_rate, 0.0, 1.0)))


class Planner(ABC):
    """One tick of decision making: observation in, action plan out."""

    #: Stable identifier used for obs counters and tournament scoring.
    name: str = "planner"

    def reset(self) -> None:
        """Clear internal state between simulation runs."""

    @abstractmethod
    def plan(self, obs: Observation) -> ControlAction:
        """Propose an action plan for this tick (pre-clamping)."""


class NoOpPlanner(Planner):
    """Always nominal, no caps, no plant requests.

    The transparency oracle: a :class:`~repro.control.loop.ControlLoop`
    wrapping this planner must be byte-identical to the uninstrumented
    simulator.
    """

    name = "noop"

    def plan(self, obs: Observation) -> ControlAction:
        return ControlAction(frequency_ghz=obs.nominal_frequency_ghz)


class GreedyThrottlePolicy(Planner):
    """Reactive hysteresis throttle with the fault overrides.

    An adapter from :class:`Observation` to the throttle functions of
    :mod:`repro.dcsim.throttling`, in the precedence order of the
    ``FaultResponsePolicy(RoomTemperaturePolicy(room))`` stack: sensor
    dropout -> severe cooling loss (:func:`~repro.dcsim.throttling.
    fault_override`) -> temperature latch (:func:`~repro.dcsim.
    throttling.room_throttle`). On override ticks the latch is not
    updated, as the wrapper never consults its base policy then.
    """

    name = "greedy"

    def __init__(
        self,
        deadband_c: float = 1.0,
        emergency_capacity_factor: float = 0.5,
    ) -> None:
        if deadband_c < 0:
            raise ControlError("deadband must be non-negative")
        if not 0.0 <= emergency_capacity_factor <= 1.0:
            raise ControlError(
                "emergency capacity factor must be in [0, 1], got "
                f"{emergency_capacity_factor}"
            )
        self.deadband_c = deadband_c
        self.emergency_capacity_factor = emergency_capacity_factor
        self._throttled = False

    def reset(self) -> None:
        self._throttled = False

    def plan(self, obs: Observation) -> ControlAction:
        decision = fault_override(
            obs.state,
            obs.work_rate,
            obs.fault_effects,
            self.emergency_capacity_factor,
            obs.cooling_capacity_w,
        )
        if decision is None:
            self._throttled, decision = room_throttle(
                obs.state,
                obs.work_rate,
                self._throttled,
                obs.room_temperature_c,
                obs.room_max_temperature_c,
                self.deadband_c,
                obs.cooling_capacity_w,
            )
        return ControlAction(
            frequency_ghz=decision.frequency_ghz,
            utilization_cap=decision.utilization_cap,
            limited=decision.limited,
        )


class ScheduledPolicy(Planner):
    """Open-loop time-of-day curtailment, blind to the thermal state.

    Models the clock-based maintenance windows real operations teams
    schedule: inside the daily window the cluster runs at the throttle
    frequency regardless of load or temperature; outside it, nominal.
    Wrap-around windows (e.g. 22 -> 6) are supported. The tournament's
    point of comparison: a wall-clock schedule cannot see the thermal
    peak, so it curtails the wrong hours.
    """

    name = "scheduled"

    def __init__(
        self,
        throttle_start_hour: float = 22.0,
        throttle_end_hour: float = 6.0,
        throttle_frequency_ghz: float | None = None,
    ) -> None:
        for label, hour in (
            ("start", throttle_start_hour),
            ("end", throttle_end_hour),
        ):
            if not 0.0 <= hour <= 24.0:
                raise ControlError(
                    f"throttle window {label} hour must be in [0, 24]"
                )
        self.throttle_start_hour = throttle_start_hour
        self.throttle_end_hour = throttle_end_hour
        self.throttle_frequency_ghz = throttle_frequency_ghz

    def _in_window(self, hour: float) -> bool:
        start, end = self.throttle_start_hour, self.throttle_end_hour
        if start <= end:
            return start <= hour < end
        return hour >= start or hour < end

    def plan(self, obs: Observation) -> ControlAction:
        if self._in_window(obs.hour_of_day):
            frequency = (
                self.throttle_frequency_ghz
                if self.throttle_frequency_ghz is not None
                else obs.min_frequency_ghz
            )
            return ControlAction(frequency_ghz=frequency, limited=True)
        return ControlAction(frequency_ghz=obs.nominal_frequency_ghz)


class MPCPolicy(Planner):
    """Receding-horizon control via batched forward rollouts.

    Each tick the policy clones the observed thermal state into a
    :class:`~repro.dcsim.thermal_coupling.BatchedClusterThermalState`
    with one cluster per candidate DVFS sequence, rolls every candidate
    ``horizon_ticks`` forward under a persistence-plus-trend work
    forecast (built from the *observed* work rate), prices each
    trajectory — cooling electricity at the time-of-use tariff and
    ambient-dependent COP, a penalty per server-hour of shed work, and a
    steep penalty per degree-hour of room over-limit — and applies the
    first action of the cheapest sequence. Replanning every tick is the
    feedback path; there is no hysteresis latch to wait out, which is
    exactly why recovery after a fault clears is faster than the greedy
    policy's deadband.

    Candidate sequences: hold nominal / mid / min for the horizon, two
    throttle-then-release ramps, and an emergency min-frequency shed
    candidate whose busy cap is sized against the (possibly derated)
    plant capacity. Deterministic: no RNG anywhere.
    """

    name = "mpc"

    def __init__(
        self,
        horizon_ticks: int = 8,
        tariff: ElectricityTariff | None = None,
        ambient: AmbientProfile | None = None,
        plant: AmbientAwarePlant | None = None,
        shed_penalty_usd_per_server_hour: float = 1.0,
        overheat_penalty_usd_per_c_hour: float = 50.0,
        sprint_headroom_c: float = 4.0,
    ) -> None:
        if horizon_ticks < 1:
            raise ControlError("MPC horizon must be at least one tick")
        if shed_penalty_usd_per_server_hour < 0:
            raise ControlError("shed penalty must be non-negative")
        if overheat_penalty_usd_per_c_hour < 0:
            raise ControlError("overheat penalty must be non-negative")
        self.horizon_ticks = horizon_ticks
        self.tariff = tariff or ElectricityTariff()
        self.ambient = ambient or AmbientProfile()
        self.plant = plant or AmbientAwarePlant()
        self.shed_penalty_usd_per_server_hour = shed_penalty_usd_per_server_hour
        self.overheat_penalty_usd_per_c_hour = overheat_penalty_usd_per_c_hour
        self.sprint_headroom_c = sprint_headroom_c
        self._last_work: float | None = None

    def reset(self) -> None:
        self._last_work = None

    def _candidate_sequences(
        self, obs: Observation
    ) -> tuple[np.ndarray, np.ndarray]:
        """(frequencies, caps): shapes (candidates, horizon), (candidates,).

        Ordered cheapest-intervention-first so cost ties resolve toward
        running at full clocks.
        """
        horizon = self.horizon_ticks
        nominal = obs.nominal_frequency_ghz
        minimum = obs.min_frequency_ghz
        mid = 0.5 * (nominal + minimum)
        half = (horizon + 1) // 2

        rows = [
            np.full(horizon, nominal),
            np.full(horizon, mid),
            np.full(horizon, minimum),
        ]
        if horizon > 1:
            ramp_mid = np.full(horizon, nominal)
            ramp_mid[:half] = mid
            ramp_min = np.full(horizon, nominal)
            ramp_min[:half] = minimum
            rows += [ramp_mid, ramp_min]
        caps = [1.0] * len(rows)

        # Emergency shed candidate, when even min frequency overheats:
        # min frequency with a busy cap (< 1.0) that fits the remaining
        # (possibly fault-derated) plant capacity.
        emergency = downclock_or_shed(
            obs.state, obs.work_rate, obs.cooling_capacity_w
        )
        if emergency.utilization_cap < 1.0:
            rows.append(np.full(horizon, minimum))
            caps.append(emergency.utilization_cap)
        return np.stack(rows), np.array(caps)

    def _forecast(self, obs: Observation) -> np.ndarray:
        """Persistence + one-step trend forecast of the mean work rate."""
        work = obs.mean_work_rate
        slope = 0.0 if self._last_work is None else work - self._last_work
        steps = np.arange(1, self.horizon_ticks + 1)
        return np.clip(work + slope * steps, 0.0, 1.0)

    def _rollout_cost(
        self,
        obs: Observation,
        frequencies: np.ndarray,
        caps: np.ndarray,
        forecast: np.ndarray,
    ) -> np.ndarray:
        """Price every candidate trajectory; returns cost in USD."""
        state = obs.state
        n_cand, horizon = frequencies.shape
        servers = state.server_count
        dt = obs.dt_s
        dt_hours = dt / SECONDS_PER_HOUR

        rollout = BatchedClusterThermalState(
            characterization=state.characterization,
            power_model=state.power_model,
            material=state.material,
            cluster_count=n_cand,
            server_count=servers,
            inlet_temperature_c=obs.room_temperature_c,
            wax_enabled=bool(state.wax_enabled),
        )
        rollout.seed(state.zone_temperature_c, state.specific_enthalpy_j_per_kg)

        room_t = np.full(n_cand, obs.room_temperature_c)
        capacity = obs.cooling_capacity_w
        setpoint = obs.room_setpoint_c
        mass = obs.thermal_mass_j_per_k
        room_max = obs.room_max_temperature_c
        cost = np.zeros(n_cand)

        # Per-candidate throughput factors for every step's frequency.
        unique = {float(f) for f in frequencies.ravel()}
        tf_of = {
            f: state.power_model.throughput_factor(f) for f in unique
        }
        for k in range(horizon):
            freqs_k = frequencies[:, k]
            tf_k = np.array([tf_of[float(f)] for f in freqs_k])
            busy = np.minimum(forecast[k] / tf_k, 1.0)
            busy = np.minimum(busy, caps)
            _, release, _ = rollout.step(dt, busy[:, None], freqs_k)
            release_total = np.sum(release, axis=1)

            removal = np.where(
                room_t > setpoint + 1e-9,
                capacity,
                np.minimum(release_total, capacity),
            )
            room_t = np.maximum(
                room_t + dt * (release_total - removal) / mass, setpoint
            )
            rollout.inlet_temperature_c[:] = room_t

            t_k = obs.time_s + (k + 1) * dt
            cop = float(self.plant.cop(self.ambient.temperature_c(t_k)))
            price = float(self.tariff.price_usd_per_kwh(t_k))
            cost += (release_total / cop) * dt / 3.6e6 * price
            served = busy * tf_k
            shed = np.maximum(forecast[k] - served, 0.0)
            cost += (
                shed
                * servers
                * dt_hours
                * self.shed_penalty_usd_per_server_hour
            )
            cost += (
                np.maximum(room_t - room_max, 0.0)
                * dt_hours
                * self.overheat_penalty_usd_per_c_hour
            )
        return cost

    def plan(self, obs: Observation) -> ControlAction:
        effects = obs.fault_effects
        if effects is not None and effects.sensor_dropout:
            # No trustworthy telemetry to roll forward: safe setpoint.
            self._last_work = None
            return ControlAction(
                frequency_ghz=obs.min_frequency_ghz, limited=True
            )

        frequencies, caps = self._candidate_sequences(obs)
        forecast = self._forecast(obs)
        self._last_work = obs.mean_work_rate
        cost = self._rollout_cost(obs, frequencies, caps, forecast)
        best = int(np.argmin(cost))

        frequency = float(frequencies[best, 0])
        cap = float(caps[best])
        nominal = obs.nominal_frequency_ghz
        limited = frequency < nominal - 1e-12 or cap < 1.0
        # With thermal slack in hand, ask for sprint authorization: on
        # platforms with over-nominal bins the executor may grant a
        # higher ceiling (stock models clamp it back to nominal).
        sprint = (
            not limited
            and obs.room_max_temperature_c - obs.room_temperature_c
            > self.sprint_headroom_c
        )
        return ControlAction(
            frequency_ghz=frequency,
            utilization_cap=cap,
            sprint=sprint,
            limited=limited,
        )
