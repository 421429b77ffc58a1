"""Equivalence and property tests for the fluid-mode stretch engine.

The batched fluid engine's contract is *bit-identity*, exactly as PR 5
held for event mode: for any workload, policy, room coupling, and fault
schedule, it must produce byte-identical result traces and final
enthalpies to the per-tick reference loop. These tests drive both
engines over hypothesis-generated scenarios (random traces × fault
schedules × planners), and pin the stretch machinery's edges: advancer
eligibility, the constant-decision certificate protocol, the injector's
dormancy/boundary queries, and the stretch/scalar observability
counters.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dcsim.fluid_engine as fe
from repro.control import ControlLoop
from repro.control.planners import (
    GreedyThrottlePolicy,
    NoOpPlanner,
    ScheduledPolicy,
)
from repro.dcsim.cluster import ClusterTopology
from repro.dcsim.room import RoomModel
from repro.dcsim.simulator import DatacenterSimulator, SimulationConfig
from repro.dcsim.throttling import NoThermalLimit
from repro.faults.injector import FaultInjector
from repro.faults.invariants import identical_results
from repro.faults.schedule import Fault, FaultSchedule
from repro.materials.library import commercial_paraffin_with_melting_point
from repro.obs import get_registry
from repro.server.characterization import characterize_platform
from repro.server.configs import one_u_commodity
from repro.workload.trace import LoadTrace

SPEC = one_u_commodity()
CHARACTERIZATION = characterize_platform(SPEC)
MATERIAL = commercial_paraffin_with_melting_point(43.0)

TICK_S = 60.0


def _trace(levels, duration_s):
    n = len(levels)
    times = np.linspace(0.0, duration_s, n)
    return LoadTrace(times, np.asarray(levels, dtype=float))


def _room(servers):
    return RoomModel.sized_for_cluster(
        cooling_capacity_w=260.0 * servers, server_count=servers
    )


def _policy(planner, room, injector):
    if planner == "plain":
        return None  # simulator default: NoThermalLimit (certified)
    planners = {
        "noop": NoOpPlanner,
        "greedy": GreedyThrottlePolicy,
        "scheduled": ScheduledPolicy,
    }
    return ControlLoop(
        planners[planner](),
        room,
        injector=injector,
        tick_interval_s=TICK_S,
    )


def _run(engine, *, levels, duration_s, servers, planner, schedule, with_room):
    injector = FaultInjector(schedule) if schedule is not None else None
    room = _room(servers) if with_room else None
    simulator = DatacenterSimulator(
        CHARACTERIZATION,
        SPEC.power_model,
        MATERIAL,
        _trace(levels, duration_s),
        topology=ClusterTopology(server_count=servers),
        config=SimulationConfig(
            mode="fluid",
            wax_enabled=True,
            tick_interval_s=TICK_S,
            engine=engine,
        ),
        room=room,
        policy=_policy(planner, room, injector),
        fault_injector=injector,
    )
    result = simulator.run()
    return result, np.array(
        simulator.final_state.specific_enthalpy_j_per_kg, copy=True
    )


def _assert_engines_agree(**kwargs):
    batched, enthalpy_b = _run("batched", **kwargs)
    reference, enthalpy_r = _run("reference", **kwargs)
    assert identical_results(batched, reference)
    assert np.array_equal(enthalpy_b, enthalpy_r)


_FAULT_KINDS = (
    "cooling_loss",
    "supply_excursion",
    "fan_derate",
    "sensor_dropout",
    "sensor_noise",
    "power_cap",
    "server_outage",
)


@st.composite
def _schedules(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    if n == 0:
        return None
    faults = []
    for index in range(n):
        kind = draw(st.sampled_from(_FAULT_KINDS))
        start = draw(
            st.floats(min_value=0.0, max_value=20000.0).map(
                lambda x: round(x, 1)
            )
        )
        width = draw(
            st.floats(min_value=60.0, max_value=12000.0).map(
                lambda x: round(x, 1)
            )
        )
        magnitude = draw(st.floats(min_value=0.05, max_value=0.8))
        faults.append(
            Fault(
                kind=kind,
                start_s=start,
                end_s=start + width,
                magnitude=magnitude,
                seed=index,
            )
        )
    return FaultSchedule(faults=tuple(faults), name="fluid-equiv")


class TestEngineEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        levels=st.lists(
            st.floats(min_value=0.0, max_value=1.2), min_size=2, max_size=6
        ),
        servers=st.integers(min_value=2, max_value=12),
        planner=st.sampled_from(["plain", "noop", "greedy", "scheduled"]),
        schedule=_schedules(),
        with_room=st.booleans(),
        hours=st.floats(min_value=1.0, max_value=10.0),
    )
    def test_bit_identical_traces(
        self, levels, servers, planner, schedule, with_room, hours
    ):
        # The control loop needs a plant to read; force the room on for
        # planner-wrapped runs.
        if planner != "plain":
            with_room = True
        _assert_engines_agree(
            levels=levels,
            duration_s=hours * 3600.0,
            servers=servers,
            planner=planner,
            schedule=schedule,
            with_room=with_room,
        )

    def test_quiet_run_is_one_stretch(self):
        registry = get_registry()
        was_enabled = registry.enabled
        registry.enable()
        registry.reset()
        try:
            _run(
                "batched",
                levels=[0.2, 0.9, 0.4],
                duration_s=6 * 3600.0,
                servers=4,
                planner="plain",
                schedule=None,
                with_room=False,
            )
            counters = registry.snapshot().counters
        finally:
            registry.reset()
            if not was_enabled:
                registry.disable()
        assert counters["dcsim.fluid.stretch_ticks"] == 360
        assert counters.get("dcsim.fluid.scalar_ticks", 0) == 0

    def test_stateful_policy_runs_fully_scalar(self):
        registry = get_registry()
        was_enabled = registry.enabled
        registry.enable()
        registry.reset()
        try:
            _run(
                "batched",
                levels=[0.2, 0.9, 0.4],
                duration_s=3600.0,
                servers=4,
                planner="greedy",
                schedule=None,
                with_room=True,
            )
            counters = registry.snapshot().counters
        finally:
            registry.reset()
            if not was_enabled:
                registry.disable()
        assert counters.get("dcsim.fluid.stretch_ticks", 0) == 0
        assert counters["dcsim.fluid.scalar_ticks"] == 60

    def test_fault_window_splits_the_run(self):
        # One mid-run fault: quiet prefix and suffix stretch, the fault
        # window (and its recovery tick) runs scalar.
        schedule = FaultSchedule(
            faults=(
                Fault(
                    kind="power_cap",
                    start_s=7200.0,
                    end_s=10800.0,
                    magnitude=0.4,
                ),
            ),
            name="split",
        )
        registry = get_registry()
        was_enabled = registry.enabled
        registry.enable()
        registry.reset()
        try:
            _run(
                "batched",
                levels=[0.3, 0.8],
                duration_s=6 * 3600.0,
                servers=4,
                planner="plain",
                schedule=schedule,
                with_room=False,
            )
            counters = registry.snapshot().counters
        finally:
            registry.reset()
            if not was_enabled:
                registry.disable()
        assert counters["dcsim.fluid.stretch_ticks"] > 0
        assert counters["dcsim.fluid.scalar_ticks"] > 0
        assert (
            counters["dcsim.fluid.stretch_ticks"]
            + counters["dcsim.fluid.scalar_ticks"]
            == 360
        )
        _assert_engines_agree(
            levels=[0.3, 0.8],
            duration_s=6 * 3600.0,
            servers=4,
            planner="plain",
            schedule=schedule,
            with_room=False,
        )


class TestStretchMachinery:
    def _state(self, servers=4, offsets=None):
        from repro.dcsim.thermal_coupling import ClusterThermalState

        return ClusterThermalState(
            CHARACTERIZATION,
            SPEC.power_model,
            MATERIAL,
            server_count=servers,
            inlet_temperature_c=25.0,
            initial_utilization=0.4,
            inlet_offset_c=offsets,
        )

    def test_uniform_advancer_matches_array_step(self):
        state_a = self._state()
        state_b = self._state()
        advancer = state_a.uniform_advancer(TICK_S)
        assert advancer is not None
        nominal = SPEC.power_model.nominal_frequency_ghz
        # At nominal frequency the DVFS factor is exactly 1.0, so the
        # effective utilization equals the raw utilization on both arms.
        u_eff = np.array([0.3, 0.55, 0.9, 0.2])
        zone_delta, ua = advancer.interp_series(u_eff)
        for k, u in enumerate(u_eff.tolist()):
            power, release, wax, melt = advancer.tick(
                25.0, u, float(zone_delta[k]), float(ua[k])
            )
            p_arr, r_arr, w_arr = state_b.step(TICK_S, np.full(4, u), nominal)
            assert np.all(p_arr == power)
            assert np.all(r_arr == release)
            assert np.all(w_arr == wax)
        advancer.commit()
        assert np.array_equal(
            state_a.zone_temperature_c, state_b.zone_temperature_c
        )
        assert np.array_equal(
            state_a.specific_enthalpy_j_per_kg,
            state_b.specific_enthalpy_j_per_kg,
        )

    def test_advancer_ineligible_with_offsets(self):
        state = self._state(offsets=np.array([0.0, 0.5, -0.5, 0.0]))
        assert state.uniform_advancer(TICK_S) is None

    def test_advancer_ineligible_with_fault_scales(self):
        state = self._state()
        state.set_fault_scales(ua_scale=0.8)
        assert state.uniform_advancer(TICK_S) is None
        state.set_fault_scales()  # restore
        assert state.uniform_advancer(TICK_S) is not None

    def test_advancer_ineligible_with_nonuniform_state(self):
        state = self._state()
        zone = np.array(state.zone_temperature_c)
        zone[1] += 0.25
        state.seed(zone, state.specific_enthalpy_j_per_kg)
        assert not state.is_uniform
        assert state.uniform_advancer(TICK_S) is None

    def test_constant_decision_certificate_matches_decide(self):
        state = self._state()
        policy = NoThermalLimit()
        certified = policy.constant_decision(state)
        decided = policy.decide(state, np.full(4, 0.6))
        assert certified == decided

    def test_control_loop_has_no_certificate(self):
        room = _room(4)
        loop = ControlLoop(NoOpPlanner(), room, tick_interval_s=TICK_S)
        assert loop.constant_decision(self._state()) is None

    def test_injector_boundary_and_dormancy(self):
        schedule = FaultSchedule(
            faults=(
                Fault(
                    kind="power_cap",
                    start_s=600.0,
                    end_s=1200.0,
                    magnitude=0.4,
                ),
                Fault(
                    kind="cooling_loss",
                    start_s=5000.0,
                    end_s=6000.0,
                    magnitude=0.3,
                ),
            ),
            name="bounds",
        )
        injector = FaultInjector(schedule)
        assert injector.next_boundary(0.0) == 600.0
        assert injector.next_boundary(600.0) == 5000.0
        assert injector.next_boundary(5000.0) == math.inf
        assert injector.is_dormant
        injector.advance_to(600.0)
        assert not injector.is_dormant  # power cap active
        injector.advance_to(1500.0)
        # The recovery tick tallies the cleared fault and settles back.
        assert injector.current is None
        assert injector.is_dormant

    def test_fault_starting_at_t0_bounds_the_first_stretch(self):
        # Minimal falsifying example: a supply excursion over [0, 61) s
        # is active at the first tick (t = 60 s). The first stretch must
        # stop before it rather than stretch over it.
        schedule = FaultSchedule(
            faults=(
                Fault(
                    kind="supply_excursion",
                    start_s=0.0,
                    end_s=61.0,
                    magnitude=2.0,
                ),
            ),
            name="t0",
        )
        _assert_engines_agree(
            levels=[0.0, 0.0],
            duration_s=2 * 3600.0,
            servers=2,
            planner="plain",
            schedule=schedule,
            with_room=False,
        )

    def test_fresh_injector_is_dormant_but_bounded_at_t0(self):
        # Before the first advance_to nothing has been applied, so the
        # injector is dormant; a fault starting at t=0 is still the next
        # boundary for a query from before the first tick.
        schedule = FaultSchedule(
            faults=(
                Fault(kind="power_cap", start_s=0.0, end_s=120.0,
                      magnitude=0.4),
            ),
            name="t0",
        )
        injector = FaultInjector(schedule)
        assert injector.is_dormant
        assert injector.next_boundary(-math.inf) == 0.0
        assert injector.next_boundary(0.0) == math.inf
        injector.advance_to(60.0)
        assert not injector.is_dormant

    def test_fast_forward_updates_held_observation(self):
        schedule = FaultSchedule(
            faults=(
                Fault(
                    kind="sensor_dropout",
                    start_s=6000.0,
                    end_s=9000.0,
                    magnitude=1.0,
                ),
            ),
            name="dropout",
        )
        injector = FaultInjector(schedule)
        injector.fast_forward(5940.0, observed=np.full(3, 0.7))
        injector.advance_to(6000.0)
        observed = injector.observe(np.full(3, 0.9))
        assert np.array_equal(observed, np.full(3, 0.7))

    def test_min_stretch_short_runs_go_scalar(self, monkeypatch):
        # With the threshold above the run length nothing stretches, and
        # results stay identical (the fallback *is* the reference body).
        monkeypatch.setattr(fe, "_MIN_STRETCH", 10_000)
        _assert_engines_agree(
            levels=[0.2, 0.9, 0.4],
            duration_s=3600.0,
            servers=4,
            planner="plain",
            schedule=None,
            with_room=True,
        )


class TestRowReduction:
    def test_row_reduce_matches_per_row_reductions(self):
        values = np.linspace(0.1, 987.3, 1000).tolist()
        summed = fe._row_reduce(np.sum, values, 7)
        meaned = fe._row_reduce(np.mean, values, 7)
        for k in (0, 1, 499, 999):
            row = np.full(7, values[k])
            assert summed[k] == float(np.sum(row))
            assert meaned[k] == float(np.mean(row))
