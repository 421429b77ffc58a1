"""The closed control loop: monitor -> planner -> executor -> verifier.

:class:`ControlLoop` is *policy-shaped*: it implements the same
``decide(state, work_rate) -> ThrottleDecision`` / ``reset()`` protocol
as the throttling policies, so it plugs into both simulation
engines through the existing per-tick policy seam without touching the
thermal core. The engines additionally call the optional per-tick
``begin_tick(time_s, dt_s)`` hook (see ``simulator._run_fluid`` and
``event_engine.run_event_mode``) to hand the loop the simulation clock;
a policy without the hook is untouched, keeping the default path
byte-identical.

Per tick:

1. **monitor** — assemble an :class:`~repro.control.planners.
   Observation` from observed telemetry (work rate through the fault
   injector's sensor path; room readings off the — possibly fault-
   derated — room model);
2. **verify (previous tick)** — compare the room temperature realized
   now against what the verifier predicted last tick; a sustained
   divergence (model mismatch: an unannounced fault, sensor lies)
   escalates to the safe fallback planner until readings re-converge;
3. **plan** — ask the active planner (or the fallback) for an action;
4. **execute** — clamp the action through the
   :class:`~repro.control.actions.Executor` into a
   :class:`~repro.dcsim.throttling.ThrottleDecision`;
5. **predict** — record the verifier's expectation for the next tick.

With a no-op planner, no faults, and no fallback the loop is a
byte-transparent wrapper: it reads state, never writes it, and returns
exactly the uninstrumented nominal decision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.control.actions import ActuatorLimits, Executor
from repro.control.planners import Observation, Planner
from repro.dcsim.room import RoomModel
from repro.dcsim.thermal_coupling import ClusterThermalState
from repro.dcsim.throttling import ThrottleDecision
from repro.errors import ControlError
from repro.obs import get_registry


@dataclass(frozen=True)
class DecisionRecord:
    """One tick's decision, as recorded for traces and equivalence tests."""

    time_s: float
    planner: str
    frequency_ghz: float
    utilization_cap: float
    limited: bool
    sprint: bool
    fallback_active: bool


class Verifier:
    """Predicted-vs-realized state check with fallback escalation.

    Each tick the loop hands the verifier its one-step room-temperature
    prediction for the *next* tick; at the next tick the realized room
    temperature is compared against it. ``patience`` consecutive misses
    beyond ``tolerance_c`` escalate (``fallback_active`` latches on);
    ``recovery_ticks`` consecutive in-tolerance ticks de-escalate. The
    verifier never touches the plant — it only switches which planner
    the loop consults.
    """

    def __init__(
        self,
        tolerance_c: float = 0.75,
        patience: int = 3,
        recovery_ticks: int = 5,
    ) -> None:
        if tolerance_c <= 0:
            raise ControlError("verifier tolerance must be positive")
        if patience < 1 or recovery_ticks < 1:
            raise ControlError(
                "verifier patience and recovery must be at least one tick"
            )
        self.tolerance_c = tolerance_c
        self.patience = patience
        self.recovery_ticks = recovery_ticks
        self._predicted_c: float | None = None
        self._miss_streak = 0
        self._clean_streak = 0
        self.fallback_active = False
        self.divergences = 0
        self.escalations = 0

    def reset(self) -> None:
        self._predicted_c = None
        self._miss_streak = 0
        self._clean_streak = 0
        self.fallback_active = False
        self.divergences = 0
        self.escalations = 0

    def check(self, realized_room_c: float) -> bool:
        """Compare last tick's prediction; returns True on a divergence."""
        predicted = self._predicted_c
        self._predicted_c = None
        if predicted is None:
            return False
        if abs(realized_room_c - predicted) > self.tolerance_c:
            self.divergences += 1
            self._miss_streak += 1
            self._clean_streak = 0
            if not self.fallback_active and self._miss_streak >= self.patience:
                self.fallback_active = True
                self.escalations += 1
            return True
        self._miss_streak = 0
        self._clean_streak += 1
        if self.fallback_active and self._clean_streak >= self.recovery_ticks:
            self.fallback_active = False
            self._clean_streak = 0
        return False

    def predict(self, obs: Observation, decision: ThrottleDecision) -> None:
        """One-step room forecast at the decided operating point.

        Uses the same release preview the throttling policies use (wax
        absorption counted at the current state) plus the room's CRAC
        physics, against the capacity the loop *observes* — so a fault
        that arrives after the prediction, or a lying sensor, shows up
        as a divergence next tick.
        """
        state = obs.state
        tf = state.power_model.throughput_factor(decision.frequency_ghz)
        busy = np.clip(
            np.asarray(obs.work_rate) / tf, 0.0, decision.utilization_cap
        )
        power = state.power_w(busy, decision.frequency_ghz)
        wax = state.wax_exchange_w(busy, decision.frequency_ghz)
        release = float(np.sum(power - wax))
        if obs.room_temperature_c > obs.room_setpoint_c + 1e-9:
            removal = obs.cooling_capacity_w
        else:
            removal = min(release, obs.cooling_capacity_w)
        predicted = obs.room_temperature_c + obs.dt_s * (
            release - removal
        ) / obs.thermal_mass_j_per_k
        self._predicted_c = max(predicted, obs.room_setpoint_c)


class ControlLoop:
    """Policy-shaped closed loop over the simulator-as-plant.

    Deterministic and seed-free: every decision is a pure function of
    the observed telemetry stream and the planners' internal state, so
    two engines fed bit-identical observations produce bit-identical
    decision logs.

    ``fallback=None`` disables escalation entirely (the verifier still
    counts divergences); production wiring passes a
    :class:`~repro.control.planners.GreedyThrottlePolicy` as the safe
    fallback.
    """

    def __init__(
        self,
        planner: Planner,
        room: RoomModel,
        injector=None,
        executor: Executor | None = None,
        verifier: Verifier | None = None,
        fallback: Planner | None = None,
        tick_interval_s: float = 60.0,
        record_decisions: bool = True,
    ) -> None:
        if room is None:
            raise ControlError(
                "the control loop needs a RoomModel: it is the plant "
                "telemetry source and the throttle authority"
            )
        if tick_interval_s <= 0:
            raise ControlError("tick interval must be positive")
        self.planner = planner
        self.room = room
        self.injector = injector
        self.executor = executor
        self.verifier = verifier or Verifier()
        self.fallback = fallback
        self.tick_interval_s = tick_interval_s
        self.record_decisions = record_decisions
        self.decision_log: list[DecisionRecord] = []
        self._time_s: float | None = None
        self._dt_s: float | None = None
        self._tick_index = 0

    def reset(self) -> None:
        """Fresh loop state between simulation runs."""
        self.planner.reset()
        if self.fallback is not None:
            self.fallback.reset()
        self.verifier.reset()
        if self.executor is not None:
            self.executor.reset()
        self.decision_log.clear()
        self._time_s = None
        self._dt_s = None
        self._tick_index = 0

    # -- engine hook ---------------------------------------------------------

    def begin_tick(self, time_s: float, dt_s: float) -> None:
        """Per-tick clock callback, invoked by both simulation engines."""
        self._time_s = time_s
        self._dt_s = dt_s

    def constant_decision(self, state: ClusterThermalState) -> None:
        """No constant-decision certificate: the loop is stateful.

        Every tick mutates the monitor history, the verifier's
        predicted-vs-realized streaks, the executor's sprint budget, and
        the decision log — so no decision can be promised constant ahead
        of time. Returning ``None`` keeps the batched fluid engine on
        the verbatim scalar path for control-loop runs (the ``begin_tick``
        clock hook alone already forces that); this explicit seam is
        where a future open-loop schedule could certify its plateaus.
        """
        return None

    # -- policy protocol -----------------------------------------------------

    def _ensure_executor(self, state: ClusterThermalState) -> Executor:
        if self.executor is None:
            self.executor = Executor(
                ActuatorLimits.for_power_model(state.power_model),
                room=self.room,
            )
        return self.executor

    def _observe(
        self, state: ClusterThermalState, work_rate: np.ndarray
    ) -> Observation:
        self._tick_index += 1
        if self._time_s is not None and self._dt_s is not None:
            time_s, dt_s = self._time_s, self._dt_s
        else:
            # Engine without the begin_tick hook: reconstruct the clock
            # from the configured tick interval.
            dt_s = self.tick_interval_s
            time_s = self._tick_index * dt_s
        room = self.room
        return Observation(
            time_s=time_s,
            dt_s=dt_s,
            work_rate=work_rate,
            state=state,
            room_temperature_c=room.temperature_c,
            room_setpoint_c=room.setpoint_c,
            room_max_temperature_c=room.max_temperature_c,
            cooling_capacity_w=room.cooling_capacity_w,
            thermal_mass_j_per_k=room.thermal_mass_j_per_k,
            fault_effects=(
                self.injector.current if self.injector is not None else None
            ),
        )

    def decide(
        self, state: ClusterThermalState, work_rate: np.ndarray
    ) -> ThrottleDecision:
        """Monitor, verify, plan, execute; returns the clamped decision."""
        obs_registry = get_registry()
        observation = self._observe(state, work_rate)

        diverged = self.verifier.check(observation.room_temperature_c)
        use_fallback = self.verifier.fallback_active and self.fallback is not None
        active = self.fallback if use_fallback else self.planner

        with obs_registry.timer(f"control.plan.{active.name}"):
            action = active.plan(observation)

        executor = self._ensure_executor(state)
        clamps_before = executor.clamp_count
        sprints_before = executor.sprints_granted
        decision = executor.apply(action, observation.dt_s)
        self.verifier.predict(observation, decision)

        if self.record_decisions:
            self.decision_log.append(
                DecisionRecord(
                    time_s=observation.time_s,
                    planner=active.name,
                    frequency_ghz=decision.frequency_ghz,
                    utilization_cap=decision.utilization_cap,
                    limited=decision.limited,
                    sprint=executor.sprints_granted > sprints_before,
                    fallback_active=use_fallback,
                )
            )
        if obs_registry.enabled:
            obs_registry.count("control.ticks")
            obs_registry.count(f"control.planner.{active.name}.plans")
            if diverged:
                obs_registry.count("control.verifier.divergences")
            if use_fallback:
                obs_registry.count("control.fallback.ticks")
            if executor.clamp_count > clamps_before:
                obs_registry.count("control.executor.clamps")
            if executor.sprints_granted > sprints_before:
                obs_registry.count("control.sprint.authorized")
        return decision
