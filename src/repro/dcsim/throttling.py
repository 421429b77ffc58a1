"""Thermal-limit enforcement policies (paper Section 5.2).

In an oversubscribed datacenter "thermal management techniques such as
downclocking/DVFS or relocating work to other datacenters must be applied
to prevent the datacenter from overheating". The paper's baseline
downclocks 2.4 GHz parts to 1.6 GHz when the cluster would exceed its
thermal limit; with PCM, full clocks are held while the wax still has
latent capacity to absorb the excess.

A policy decides, at each thermal tick, the cluster-wide DVFS frequency
and (if even the lowest frequency cannot satisfy the limit) a busy-
fraction cap representing work relocation.

Policies receive the per-server *offered work rate* in nominal capacity
units; the busy fraction a server would run at follows from the candidate
frequency (downclocking raises the busy fraction needed to serve the same
work): ``busy(f) = min(work / throughput_factor(f), 1)``. Decisions
preview the tick using the current thermal state and do not mutate it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dcsim.room import RoomModel
from repro.dcsim.thermal_coupling import ClusterThermalState, broadcast_view
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ThrottleDecision:
    """The operating point a policy selects for one tick.

    ``utilization_cap`` limits per-server busy fraction (1.0 = no cap);
    the simulator applies it by relocating (shedding) the excess work.
    """

    frequency_ghz: float
    utilization_cap: float = 1.0
    limited: bool = False


def busy_fraction(
    state: ClusterThermalState, work_rate: np.ndarray, frequency_ghz: float
) -> np.ndarray:
    """Per-server busy fraction needed to serve a work rate at a frequency."""
    factor = state.power_model.throughput_factor(frequency_ghz)
    return np.clip(np.asarray(work_rate) / factor, 0.0, 1.0)


def _uniform_column(values: np.ndarray) -> np.ndarray:
    """``values[:1]`` when every element equals the first, else ``values``.

    Policies see per-server vectors that are almost always one value
    repeated (``np.full(servers, demand)``); a one-element column lets a
    collapsed thermal state preview it on one representative server.
    """
    values = np.asarray(values, dtype=float)
    if values.size and (values == values[0]).all():
        return values[:1]
    return values


def busy_release_w(
    state: ClusterThermalState, busy: np.ndarray, frequency_ghz: float
) -> np.ndarray:
    """Cluster heat release for each row of candidate busy fractions.

    ``busy`` has shape ``(candidates, 1)`` (every server alike) or
    ``(candidates, servers)``. Each row's total is the pairwise sum of
    its full ``(servers,)`` row of per-server releases, so it equals the
    total of previewing that row alone, bit for bit.
    """
    power = state.power_w(busy, frequency_ghz)
    wax = state.wax_exchange_w(busy, frequency_ghz)
    per_server = broadcast_view(power - wax, (len(busy), state.server_count))
    return np.sum(per_server, axis=1)


def projected_release_w(
    state: ClusterThermalState, work_rate: np.ndarray, frequency_ghz: float
) -> float:
    """Cluster heat release this tick at a candidate operating point.

    Wax absorption counts against the release while it is absorbing; a
    refreezing wax adds heat, which the preview must include.
    """
    busy = busy_fraction(state, _uniform_column(work_rate), frequency_ghz)
    return float(busy_release_w(state, busy[None, :], frequency_ghz)[0])


#: Bisection levels resolved per vectorized evaluation: each round
#: previews the ``2**levels - 1`` midpoints of one bisection subtree.
#: Per-call overhead favours deep subtrees, the per-midpoint broadcast
#: sum shallow ones; a 1008-server ``_shed_cap`` took 573/477/590 us at
#: 4/5/6 levels (x86, NumPy 2.4).
_SUBTREE_LEVELS = 5


def bisect_fitting(fits, low: float, high: float, steps: int) -> float:
    """The final ``low`` of a ``steps``-step bisection on ``fits``.

    The serial loop ``mid = 0.5 * (low + high)``, then ``low = mid`` if
    ``fits(mid)`` else ``high = mid``, needs one evaluation per step.
    Here each round builds every midpoint the next few steps could visit
    with that same recurrence, evaluates them in one vectorized call
    (``fits`` maps an array of midpoints to a boolean array), and walks
    the comparisons. The visited midpoints are exactly the serial loop's,
    so the result is bit-identical even where ``fits`` is not monotone.
    """
    while steps > 0:
        levels = min(_SUBTREE_LEVELS, steps)
        # The subtree in heap order: node i spans intervals[i], and its
        # children (low, mid) and (mid, high) are nodes 2i+1 and 2i+2.
        intervals = [(low, high)]
        mids = []
        for i in range(2**levels - 1):
            lo, hi = intervals[i]
            mid = 0.5 * (lo + hi)
            mids.append(mid)
            intervals += ((lo, mid), (mid, hi))
        outcome = fits(np.array(mids))
        node = 0
        for _ in range(levels):
            if outcome[node]:
                low = mids[node]
                node = 2 * node + 2
            else:
                high = mids[node]
                node = 2 * node + 1
        steps -= levels
    return low


def _shed_cap(
    state: ClusterThermalState,
    work_rate: np.ndarray,
    frequency_ghz: float,
    capacity_w: float,
) -> float:
    """Busy-fraction cap bringing the min-frequency release under a limit.

    Release is monotonic in a uniform scale on the busy fractions, so the
    cap is found by a 40-step bisection on the scale.
    """
    busy = busy_fraction(state, work_rate, frequency_ghz)
    column = _uniform_column(busy)

    def fits(scales: np.ndarray) -> np.ndarray:
        release = busy_release_w(
            state, column[None, :] * scales[:, None], frequency_ghz
        )
        return release <= capacity_w

    low = bisect_fitting(fits, 0.0, 1.0, 40)
    return low * float(np.max(busy)) if len(busy) else 0.0


def downclock_or_shed(
    state: ClusterThermalState,
    work_rate: np.ndarray,
    capacity_w: float | None,
) -> ThrottleDecision:
    """The minimum DVFS state, shedding work only if it still overheats.

    The tail every throttle here shares: once full clocks are ruled out,
    run at the minimum frequency, and cap the busy fraction (relocate
    work) only if even that releases more than ``capacity_w``. With no
    known capacity (``None``) nothing is shed.
    """
    minimum = state.power_model.min_frequency_ghz
    if (
        capacity_w is None
        or projected_release_w(state, work_rate, minimum) <= capacity_w
    ):
        return ThrottleDecision(frequency_ghz=minimum, limited=True)
    cap = _shed_cap(state, work_rate, minimum, capacity_w)
    return ThrottleDecision(
        frequency_ghz=minimum, utilization_cap=cap, limited=True
    )


def room_throttle(
    state: ClusterThermalState,
    work_rate: np.ndarray,
    throttled: bool,
    room_temperature_c: float,
    room_max_temperature_c: float,
    deadband_c: float,
    capacity_w: float,
) -> tuple[bool, ThrottleDecision]:
    """One tick of the Section 5.2 room-temperature throttle.

    Updates the hysteresis latch ``throttled`` and returns it with the
    decision. The latch sets when the room reaches its limit and
    releases only once the room has cooled by ``deadband_c`` AND full
    clocks would fit the plant again. Unlatched runs at full clocks;
    latched runs :func:`downclock_or_shed`.
    """
    nominal = state.power_model.nominal_frequency_ghz
    if not throttled:
        throttled = room_temperature_c >= room_max_temperature_c
    elif (
        room_temperature_c <= room_max_temperature_c - deadband_c
        and projected_release_w(state, work_rate, nominal) <= capacity_w
    ):
        throttled = False
    if not throttled:
        return False, ThrottleDecision(frequency_ghz=nominal)
    return True, downclock_or_shed(state, work_rate, capacity_w)


def fault_override(
    state: ClusterThermalState,
    work_rate: np.ndarray,
    effects,
    emergency_capacity_factor: float,
    capacity_w: float | None,
) -> ThrottleDecision | None:
    """The graceful-degradation override for active fault ``effects``.

    Sensor dropout forces the minimum DVFS state (projections from dead
    telemetry cannot be trusted); a cooling loss below
    ``emergency_capacity_factor`` throttles at once via
    :func:`downclock_or_shed` against the remaining ``capacity_w``.
    ``None`` means no override: the caller's own throttle decides.
    """
    if effects is None:
        return None
    if effects.sensor_dropout:
        return ThrottleDecision(
            frequency_ghz=state.power_model.min_frequency_ghz, limited=True
        )
    if effects.cooling_capacity_factor < emergency_capacity_factor:
        return downclock_or_shed(state, work_rate, capacity_w)
    return None


class NoThermalLimit:
    """Unconstrained datacenter: always nominal frequency, no cap."""

    def decide(
        self, state: ClusterThermalState, work_rate: np.ndarray
    ) -> ThrottleDecision:
        """Run at nominal frequency regardless of heat output."""
        return ThrottleDecision(
            frequency_ghz=state.power_model.nominal_frequency_ghz
        )

    def constant_decision(
        self, state: ClusterThermalState
    ) -> ThrottleDecision:
        """Constant-decision certificate for the fluid engine.

        A policy may implement this protocol to promise that, for the
        rest of the run, :meth:`decide` returns a decision with exactly
        these fields no matter what state or observation it is shown —
        licensing the batched fluid engine to advance whole stretches
        without consulting the policy per tick. Stateful or
        state-dependent policies must return ``None`` (or simply not
        implement the method). This policy is memoryless and ignores its
        inputs entirely, so the certificate is unconditional.
        """
        return ThrottleDecision(
            frequency_ghz=state.power_model.nominal_frequency_ghz
        )


class ThermalLimitPolicy:
    """Enforce an instantaneous cluster heat-release limit.

    A memoryless policy: intervene whenever this tick's projected release
    would exceed the plant capacity. Suits studies without a room model;
    the temperature-based :class:`RoomTemperaturePolicy` is the faithful
    Section 5.2 mechanism.
    """

    def __init__(self, capacity_w: float, tolerance: float = 0.002) -> None:
        if capacity_w <= 0:
            raise ConfigurationError(
                f"cooling capacity must be positive, got {capacity_w}"
            )
        if tolerance < 0:
            raise ConfigurationError("tolerance must be non-negative")
        self.capacity_w = capacity_w
        self.tolerance = tolerance

    def decide(
        self, state: ClusterThermalState, work_rate: np.ndarray
    ) -> ThrottleDecision:
        """Pick the least-intrusive operating point under the limit:
        full clocks, else the minimum DVFS state, else shed work."""
        limit = self.capacity_w * (1.0 + self.tolerance)
        nominal = state.power_model.nominal_frequency_ghz
        if projected_release_w(state, work_rate, nominal) <= limit:
            return ThrottleDecision(frequency_ghz=nominal)
        return downclock_or_shed(state, work_rate, limit)


class FaultResponsePolicy:
    """Graceful-degradation wrapper around any base throttling policy.

    Reads the live effects off a :class:`~repro.faults.injector.
    FaultInjector` (duck-typed via its ``current`` attribute, so this
    module never imports :mod:`repro.faults`) and overrides the base
    policy in two situations a real operations team would:

    * **sensor dropout** — the telemetry feed is dead, so projections
      from the observed work rate cannot be trusted. Fall back to the
      safe setpoint: minimum DVFS frequency until the sensors return.
    * **severe cooling loss** — the plant has lost more than
      ``1 - emergency_capacity_factor`` of its capacity. Do not wait for
      the room to drift over its limit: throttle to minimum frequency
      immediately, shedding work if even that exceeds what is left of
      the plant.

    Everything else (including mild cooling derates, which the base
    policy sees through the already-derated room capacity) delegates to
    the base policy unchanged, so a run with no active fault is
    decision-identical to running the base policy alone.

    The override is :func:`fault_override` and the room throttle is
    :func:`room_throttle`; :class:`repro.control.GreedyThrottlePolicy`
    runs the same two functions inside a :class:`repro.control.
    ControlLoop`, so this wrapper around :class:`RoomTemperaturePolicy`
    and that planner decide identically from one body.
    """

    def __init__(
        self,
        base,
        injector,
        emergency_capacity_factor: float = 0.5,
    ) -> None:
        if not 0.0 <= emergency_capacity_factor <= 1.0:
            raise ConfigurationError(
                f"emergency capacity factor must be in [0, 1], got "
                f"{emergency_capacity_factor}"
            )
        self.base = base
        self.injector = injector
        self.emergency_capacity_factor = emergency_capacity_factor

    def reset(self) -> None:
        """Clear the base policy's state between simulation runs."""
        reset = getattr(self.base, "reset", None)
        if callable(reset):
            reset()

    def _capacity_w(self) -> float | None:
        """The (already fault-derated) plant capacity, if the base has one."""
        room = getattr(self.base, "room", None)
        if room is not None:
            return room.cooling_capacity_w
        return getattr(self.base, "capacity_w", None)

    def decide(
        self, state: ClusterThermalState, work_rate: np.ndarray
    ) -> ThrottleDecision:
        """Override on dropout or severe cooling loss; else delegate."""
        override = fault_override(
            state,
            work_rate,
            self.injector.current,
            self.emergency_capacity_factor,
            self._capacity_w(),
        )
        if override is not None:
            return override
        return self.base.decide(state, work_rate)


class RoomTemperaturePolicy:
    """Throttle on the *room* temperature of an oversubscribed datacenter.

    The paper's constrained scenario intervenes when the datacenter would
    overheat, i.e. on temperature, not instantaneous power: the room's
    thermal mass rides through brief overloads, and the wax holds the room
    down for hours. The room also closes the loop that drives the wax at
    the surplus rate — as it warms, the server inlets (and therefore the
    wax zones) warm with it until wax absorption balances the excess.

    While over-limit, the cluster downclocks to its minimum DVFS state; if
    even that releases more heat than the plant can remove (so the room
    would keep heating), work is shed until the release fits the plant
    capacity. The throttle latches: it releases only once the room has
    cooled by ``deadband_c`` AND full clocks would fit the plant again,
    preventing flapping around the limit.
    """

    def __init__(self, room: RoomModel, deadband_c: float = 1.0) -> None:
        if deadband_c < 0:
            raise ConfigurationError("deadband must be non-negative")
        self.room = room
        self.deadband_c = deadband_c
        self._throttled = False

    def reset(self) -> None:
        """Clear the hysteresis latch between simulation runs."""
        self._throttled = False

    def decide(
        self, state: ClusterThermalState, work_rate: np.ndarray
    ) -> ThrottleDecision:
        """Nominal clocks until the room hits its limit; then downclock
        (and shed if the plant still cannot keep up)."""
        room = self.room
        self._throttled, decision = room_throttle(
            state,
            work_rate,
            self._throttled,
            room.temperature_c,
            room.max_temperature_c,
            self.deadband_c,
            room.cooling_capacity_w,
        )
        return decision
