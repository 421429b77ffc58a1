"""Unit tests for the fault-injection subsystem.

Covers the declarative schedule layer (validation, effect resolution,
composition, serialization), the injector's per-tick hooks (plant
derate and restore, thermal-state scaling, sensor corruption, decision
clamping), and the injection points grown into existing modules (the
load balancer's offline handling, fan-bank degradation, the thermal
state's fault scales, and the graceful-degradation policy wrapper).

End-to-end behaviour — whole runs under fault schedules, invariants,
replay — lives in ``test_faults_properties.py`` and
``test_faults_chaos.py``.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.dcsim.loadbalancer import LeastLoaded, RoundRobin
from repro.dcsim.thermal_coupling import ClusterThermalState
from repro.dcsim.throttling import (
    FaultResponsePolicy,
    NoThermalLimit,
    RoomTemperaturePolicy,
    ThermalLimitPolicy,
    ThrottleDecision,
)
from repro.errors import ConfigurationError, FaultError, SimulationError
from repro.faults import (
    COOLING_LOSS,
    FAN_DERATE,
    FAULT_KINDS,
    PCM_DEGRADATION,
    POWER_CAP,
    SENSOR_DROPOUT,
    SENSOR_NOISE,
    SERVER_OUTAGE,
    SUPPLY_EXCURSION,
    Fault,
    FaultEffects,
    FaultInjector,
    FaultSchedule,
    pcm_degradation_after,
)
from repro.materials.library import (
    Stability,
    commercial_paraffin_with_melting_point,
)
from repro.obs import get_registry
from repro.thermal.airflow import degraded_flow_fraction
from repro.thermal.convection import flow_scaled_conductance
from repro.units import hours


def fault(kind=COOLING_LOSS, start=hours(1.0), end=hours(2.0), **kwargs):
    defaults = {
        COOLING_LOSS: 0.5,
        FAN_DERATE: 0.5,
        SUPPLY_EXCURSION: 5.0,
        SENSOR_DROPOUT: 0.0,
        SENSOR_NOISE: 0.1,
        POWER_CAP: 0.5,
        SERVER_OUTAGE: 0.25,
        PCM_DEGRADATION: 0.7,
    }
    kwargs.setdefault("magnitude", defaults[kind])
    return Fault(kind=kind, start_s=start, end_s=end, **kwargs)


class TestFaultValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError):
            Fault(kind="meteor_strike", start_s=0.0, end_s=1.0)

    @pytest.mark.parametrize(
        "start,end", [(-1.0, 1.0), (2.0, 1.0), (1.0, 1.0), (0.0, float("nan"))]
    )
    def test_bad_window_rejected(self, start, end):
        with pytest.raises(FaultError):
            Fault(kind=SENSOR_DROPOUT, start_s=start, end_s=end)

    @pytest.mark.parametrize(
        "kind,magnitude",
        [
            (FAN_DERATE, 0.0),  # below the stagnation floor
            (FAN_DERATE, 1.5),
            (SUPPLY_EXCURSION, 40.0),
            (SENSOR_NOISE, -0.1),
            (PCM_DEGRADATION, 1.2),
        ],
    )
    def test_magnitude_range_enforced(self, kind, magnitude):
        with pytest.raises(FaultError):
            fault(kind=kind, magnitude=magnitude)

    @pytest.mark.parametrize(
        "kind,magnitude",
        [
            (COOLING_LOSS, 0.0),
            (COOLING_LOSS, 1.0),
            (SUPPLY_EXCURSION, 0.0),
            (SENSOR_NOISE, 0.0),
            (POWER_CAP, 0.0),
            (POWER_CAP, 1.0),
            (SERVER_OUTAGE, 0.0),
            (SERVER_OUTAGE, 1.0),
            (PCM_DEGRADATION, 0.0),
        ],
    )
    def test_noop_magnitudes_rejected(self, kind, magnitude):
        """Degenerate magnitudes are schedule bugs, not faults."""
        with pytest.raises(FaultError):
            fault(kind=kind, magnitude=magnitude)

    def test_window_half_open(self):
        event = fault(start=100.0, end=200.0)
        assert not event.active_at(99.9)
        assert event.active_at(100.0)
        assert event.active_at(199.9)
        assert not event.active_at(200.0)


class TestFaultEffects:
    def test_default_effects_are_identity(self):
        assert FaultEffects().is_identity
        assert not FaultEffects(inlet_delta_c=1.0).is_identity

    def test_fan_derate_effects_track_flow_physics(self):
        flow = 0.6
        effects = fault(kind=FAN_DERATE, magnitude=flow).effects()
        assert effects.ua_scale == pytest.approx(
            flow_scaled_conductance(1.0, flow, 1.0)
        )
        assert effects.zone_delta_scale == pytest.approx(1.0 / flow)

    def test_cooling_loss_keeps_surviving_fraction(self):
        effects = fault(kind=COOLING_LOSS, magnitude=0.3).effects()
        assert effects.cooling_capacity_factor == pytest.approx(0.7)

    @pytest.mark.parametrize(
        "kind,field,value",
        [
            (SUPPLY_EXCURSION, "inlet_delta_c", 5.0),
            (SENSOR_NOISE, "sensor_noise_sigma", 0.1),
            (POWER_CAP, "utilization_cap", 0.5),
            (SERVER_OUTAGE, "offline_fraction", 0.25),
            (PCM_DEGRADATION, "wax_capacity_factor", 0.7),
        ],
    )
    def test_single_knob_kinds(self, kind, field, value):
        effects = fault(kind=kind).effects()
        assert getattr(effects, field) == pytest.approx(value)
        # Only the one knob moves; everything else is identity.
        identity = FaultEffects()
        for name in vars(identity):
            if name != field:
                assert getattr(effects, name) == getattr(identity, name)

    def test_dropout_sets_only_the_flag(self):
        effects = fault(kind=SENSOR_DROPOUT).effects()
        assert effects.sensor_dropout
        assert FaultEffects(sensor_dropout=True) == effects


class TestEffectComposition:
    def test_effects_at_none_when_nothing_active(self):
        schedule = FaultSchedule(faults=(fault(start=100.0, end=200.0),))
        assert schedule.effects_at(50.0) is None
        assert schedule.effects_at(200.0) is None
        assert schedule.effects_at(150.0) is not None

    def test_empty_schedule_always_none(self):
        schedule = FaultSchedule.empty()
        for t in (0.0, hours(1.0), hours(100.0)):
            assert schedule.effects_at(t) is None
        assert schedule.last_clearance_s == 0.0
        assert len(schedule) == 0

    def test_offsets_add_factors_multiply(self):
        schedule = FaultSchedule(
            faults=(
                fault(kind=SUPPLY_EXCURSION, magnitude=3.0),
                fault(kind=SUPPLY_EXCURSION, magnitude=-1.0),
                fault(kind=COOLING_LOSS, magnitude=0.5),
                fault(kind=COOLING_LOSS, magnitude=0.2),
            )
        )
        effects = schedule.effects_at(hours(1.5))
        assert effects.inlet_delta_c == pytest.approx(2.0)
        assert effects.cooling_capacity_factor == pytest.approx(0.5 * 0.8)

    def test_caps_take_minimum_offline_maximum(self):
        schedule = FaultSchedule(
            faults=(
                fault(kind=POWER_CAP, magnitude=0.7),
                fault(kind=POWER_CAP, magnitude=0.4),
                fault(kind=SERVER_OUTAGE, magnitude=0.1),
                fault(kind=SERVER_OUTAGE, magnitude=0.3),
            )
        )
        effects = schedule.effects_at(hours(1.5))
        assert effects.utilization_cap == pytest.approx(0.4)
        assert effects.offline_fraction == pytest.approx(0.3)

    def test_noise_variances_add(self):
        schedule = FaultSchedule(
            faults=(
                fault(kind=SENSOR_NOISE, magnitude=0.3),
                fault(kind=SENSOR_NOISE, magnitude=0.4),
            )
        )
        effects = schedule.effects_at(hours(1.5))
        assert effects.sensor_noise_sigma == pytest.approx(0.5)

    def test_schedule_metadata(self):
        schedule = FaultSchedule(
            faults=(
                fault(kind=FAN_DERATE, start=100.0, end=500.0),
                fault(kind=POWER_CAP, start=200.0, end=900.0),
            ),
            name="pair",
            seed=7,
        )
        assert schedule.kinds() == {FAN_DERATE, POWER_CAP}
        assert schedule.last_clearance_s == 900.0
        assert len(schedule.active_at(300.0)) == 2
        assert schedule.active_at(600.0) == (schedule.faults[1],)

    def test_non_fault_entries_rejected(self):
        with pytest.raises(FaultError):
            FaultSchedule(faults=("not a fault",))


class TestSerialization:
    def test_fault_round_trip(self):
        for kind in FAULT_KINDS:
            original = fault(kind=kind, seed=42)
            assert Fault.from_dict(original.to_dict()) == original

    def test_schedule_json_round_trip(self):
        schedule = FaultSchedule(
            faults=(
                fault(kind=SENSOR_NOISE, seed=99),
                fault(kind=SERVER_OUTAGE, start=hours(3.0), end=hours(4.0)),
            ),
            name="round-trip",
            seed=123,
        )
        assert FaultSchedule.from_json(schedule.to_json()) == schedule

    def test_json_is_stable(self):
        schedule = FaultSchedule(faults=(fault(),), name="stable", seed=1)
        assert schedule.to_json() == schedule.to_json()
        assert json.loads(schedule.to_json())["schema"] == (
            "repro.faults.schedule/1"
        )

    def test_wrong_schema_rejected(self):
        data = FaultSchedule.empty().to_dict()
        data["schema"] = "repro.faults.schedule/99"
        with pytest.raises(FaultError):
            FaultSchedule.from_dict(data)

    def test_invalid_json_rejected(self):
        with pytest.raises(FaultError):
            FaultSchedule.from_json("{not json")
        with pytest.raises(FaultError):
            FaultSchedule.from_json("[1, 2]")

    def test_malformed_fault_entry_rejected(self):
        data = FaultSchedule.empty().to_dict()
        data["faults"] = [{"kind": COOLING_LOSS}]  # missing window
        with pytest.raises(FaultError):
            FaultSchedule.from_dict(data)


class TestPCMDegradationHook:
    def test_remaining_capacity_in_unit_interval(self):
        event = pcm_degradation_after(Stability.GOOD, 5.0, 0.0, hours(24.0))
        assert event.kind == PCM_DEGRADATION
        assert 0.0 < event.magnitude <= 1.0

    def test_more_years_degrade_further(self):
        after_2 = pcm_degradation_after(Stability.GOOD, 2.0, 0.0, 1.0)
        after_10 = pcm_degradation_after(Stability.GOOD, 10.0, 0.0, 1.0)
        assert after_10.magnitude < after_2.magnitude

    def test_negative_service_rejected(self):
        with pytest.raises(FaultError):
            pcm_degradation_after(Stability.GOOD, -1.0, 0.0, 1.0)


@pytest.fixture
def thermal_state(one_u_spec, one_u_characterization):
    return ClusterThermalState(
        characterization=one_u_characterization,
        power_model=one_u_spec.power_model,
        material=commercial_paraffin_with_melting_point(43.0),
        server_count=4,
    )


class TestInjectorHooks:
    def test_requires_a_schedule(self):
        with pytest.raises(FaultError):
            FaultInjector("not a schedule")

    def test_current_tracks_windows(self):
        injector = FaultInjector(
            FaultSchedule(faults=(fault(start=100.0, end=200.0),))
        )
        injector.advance_to(50.0)
        assert injector.current is None
        injector.advance_to(150.0)
        assert injector.current is not None
        injector.advance_to(250.0)
        assert injector.current is None

    def test_room_capacity_derated_and_restored_exactly(self):
        base = 12345.6789
        room = SimpleNamespace(cooling_capacity_w=base)
        injector = FaultInjector(
            FaultSchedule(
                faults=(
                    fault(kind=COOLING_LOSS, magnitude=0.4, start=100.0, end=200.0),
                )
            )
        )
        injector.advance_to(150.0, room=room)
        assert room.cooling_capacity_w == pytest.approx(base * 0.6)
        injector.advance_to(250.0, room=room)
        assert room.cooling_capacity_w == base  # bitwise restore

    def test_inlet_excursion_applied_and_restored(self, thermal_state):
        injector = FaultInjector(
            FaultSchedule(
                faults=(
                    fault(
                        kind=SUPPLY_EXCURSION,
                        magnitude=6.0,
                        start=100.0,
                        end=200.0,
                    ),
                )
            )
        )
        injector.advance_to(150.0)
        injector.apply_state(thermal_state, base_inlet_c=25.0)
        assert thermal_state.inlet_temperature_c == pytest.approx(31.0)
        injector.advance_to(250.0)
        injector.apply_state(thermal_state, base_inlet_c=25.0)
        assert thermal_state.inlet_temperature_c == pytest.approx(25.0)

    def test_wax_capacity_scaled_and_restored(self, thermal_state):
        full_mass = thermal_state.effective_wax_mass_kg
        injector = FaultInjector(
            FaultSchedule(
                faults=(
                    fault(
                        kind=PCM_DEGRADATION,
                        magnitude=0.7,
                        start=100.0,
                        end=200.0,
                    ),
                )
            )
        )
        injector.advance_to(150.0)
        injector.apply_state(thermal_state, base_inlet_c=25.0)
        assert thermal_state.effective_wax_mass_kg == pytest.approx(
            0.7 * full_mass
        )
        injector.advance_to(250.0)
        injector.apply_state(thermal_state, base_inlet_c=25.0)
        assert thermal_state.effective_wax_mass_kg == full_mass

    def test_observe_passthrough_is_same_object(self):
        injector = FaultInjector(
            FaultSchedule(faults=(fault(start=100.0, end=200.0),))
        )
        work = np.array([0.5, 0.6])
        injector.advance_to(50.0)
        assert injector.observe(work) is work

    def test_noise_is_seeded_and_replayable(self):
        schedule = FaultSchedule(
            faults=(
                fault(kind=SENSOR_NOISE, magnitude=0.2, seed=7,
                      start=0.0, end=1000.0),
            )
        )
        work = np.full(8, 0.5)

        def one_run():
            injector = FaultInjector(schedule)
            out = []
            for t in (0.0, 60.0, 120.0):
                injector.advance_to(t)
                out.append(injector.observe(work).copy())
            return np.concatenate(out)

        first, second = one_run(), one_run()
        assert np.array_equal(first, second)
        assert not np.array_equal(first, np.tile(work, 3))  # noise applied
        assert np.all(first >= 0.0)  # clipped at zero

    def test_dropout_holds_last_good_reading(self):
        injector = FaultInjector(
            FaultSchedule(
                faults=(fault(kind=SENSOR_DROPOUT, start=100.0, end=200.0),)
            )
        )
        injector.advance_to(0.0)
        injector.observe(np.array([0.3, 0.4]))
        injector.advance_to(150.0)
        held = injector.observe(np.array([0.9, 0.9]))
        assert np.array_equal(held, [0.3, 0.4])
        injector.advance_to(250.0)
        fresh = np.array([0.7, 0.7])
        assert injector.observe(fresh) is fresh

    def test_dropout_from_first_tick_reads_zero(self):
        injector = FaultInjector(
            FaultSchedule(
                faults=(fault(kind=SENSOR_DROPOUT, start=0.0, end=100.0),)
            )
        )
        injector.advance_to(0.0)
        assert np.array_equal(
            injector.observe(np.array([0.5, 0.6])), [0.0, 0.0]
        )

    def test_constrain_clamps_only_under_a_cap(self):
        injector = FaultInjector(
            FaultSchedule(
                faults=(
                    fault(kind=POWER_CAP, magnitude=0.6, start=100.0, end=200.0),
                )
            )
        )
        decision = ThrottleDecision(frequency_ghz=2.4)
        injector.advance_to(50.0)
        assert injector.constrain(decision) is decision
        injector.advance_to(150.0)
        capped = injector.constrain(decision)
        assert capped.utilization_cap == pytest.approx(0.6)
        assert capped.limited
        assert capped.frequency_ghz == decision.frequency_ghz

    def test_offline_count_floors_and_spares_one(self):
        injector = FaultInjector(
            FaultSchedule(
                faults=(
                    fault(
                        kind=SERVER_OUTAGE,
                        magnitude=0.99,
                        start=100.0,
                        end=200.0,
                    ),
                )
            )
        )
        injector.advance_to(50.0)
        assert injector.offline_count(10) == 0
        injector.advance_to(150.0)
        assert injector.offline_count(10) == 9  # never the whole cluster
        assert injector.offline_count(2) == 1

    def test_reset_replays_identically(self):
        schedule = FaultSchedule(
            faults=(
                fault(kind=SENSOR_NOISE, magnitude=0.2, seed=3,
                      start=0.0, end=1000.0),
            )
        )
        injector = FaultInjector(schedule)
        work = np.full(4, 0.5)
        injector.advance_to(0.0)
        first = injector.observe(work).copy()
        injector.reset()
        injector.advance_to(0.0)
        assert np.array_equal(injector.observe(work), first)

    def test_activation_and_recovery_counted(self):
        obs = get_registry()
        was_enabled = obs.enabled
        obs.enable()
        try:
            with obs.collect() as collection:
                injector = FaultInjector(
                    FaultSchedule(
                        faults=(
                            fault(
                                kind=COOLING_LOSS,
                                magnitude=0.5,
                                start=100.0,
                                end=200.0,
                            ),
                        )
                    )
                )
                for t in (0.0, 100.0, 160.0, 220.0):
                    injector.advance_to(t)
            counters = collection.report.counters
            assert counters["faults.activated.cooling_loss"] == 1
            assert counters["faults.recovered.cooling_loss"] == 1
            assert counters["faults.ticks_active"] == 2
        finally:
            if not was_enabled:
                obs.disable()


class TestLoadBalancerOffline:
    def test_round_robin_skips_offline_servers(self):
        balancer = RoundRobin()
        balancer.set_offline(2)
        busy = np.zeros(4, dtype=int)
        chosen = {balancer.choose(busy, slots_per_server=8) for _ in range(8)}
        assert chosen == {2, 3}

    def test_round_robin_queues_when_survivors_full(self):
        balancer = RoundRobin()
        balancer.set_offline(3)
        busy = np.array([0, 0, 0, 8])
        assert balancer.choose(busy, slots_per_server=8) is None

    def test_least_loaded_ignores_offline_servers(self):
        balancer = LeastLoaded()
        balancer.set_offline(1)
        busy = np.array([0, 5, 2, 7])  # server 0 is empty but offline
        assert balancer.choose(busy, slots_per_server=8) == 2

    def test_least_loaded_all_offline_queues(self):
        balancer = LeastLoaded()
        balancer.set_offline(4)
        assert balancer.choose(np.zeros(4, dtype=int), 8) is None

    def test_negative_offline_rejected(self):
        with pytest.raises(SimulationError):
            RoundRobin().set_offline(-1)

    def test_reset_brings_everything_back(self):
        balancer = RoundRobin()
        balancer.set_offline(3)
        balancer.reset()
        assert balancer.offline_count == 0
        busy = np.zeros(4, dtype=int)
        assert balancer.choose(busy, slots_per_server=8) == 0


class TestFanDegradation:
    def test_healthy_bank_moves_full_flow(self, one_u_spec):
        chassis = one_u_spec.chassis
        assert degraded_flow_fraction(
            chassis.fans, chassis.base_impedance
        ) == pytest.approx(1.0)

    def test_failed_fans_reduce_flow_sublinearly(self, one_u_spec):
        chassis = one_u_spec.chassis
        fraction = degraded_flow_fraction(
            chassis.fans, chassis.base_impedance, failed_fans=1
        )
        survivors = (chassis.fans.count - 1) / chassis.fans.count
        # Survivors ride up their curves against the unchanged impedance,
        # so the bank keeps more than its headcount share of the flow.
        assert survivors < fraction < 1.0

    def test_with_failed_fans_validates(self, one_u_spec):
        fans = one_u_spec.chassis.fans
        assert fans.with_failed_fans(0) is fans
        assert fans.with_failed_fans(1).count == fans.count - 1
        with pytest.raises(ConfigurationError):
            fans.with_failed_fans(fans.count)
        with pytest.raises(ConfigurationError):
            fans.with_failed_fans(-1)

    def test_speed_derate_reduces_flow(self, one_u_spec):
        chassis = one_u_spec.chassis
        fraction = degraded_flow_fraction(
            chassis.fans, chassis.base_impedance, speed_fraction=0.5
        )
        assert 0.0 < fraction < 1.0


class TestFaultScalesValidation:
    def test_nonpositive_scales_rejected(self, thermal_state):
        with pytest.raises(ConfigurationError):
            thermal_state.set_fault_scales(0.0, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            thermal_state.set_fault_scales(1.0, -1.0, 1.0)

    def test_wax_gain_rejected(self, thermal_state):
        """Degradation can only remove latent capacity, never add it."""
        with pytest.raises(ConfigurationError):
            thermal_state.set_fault_scales(1.0, 1.0, 1.5)


class TestFaultResponsePolicy:
    @pytest.fixture
    def room_policy(self):
        from repro.dcsim.room import RoomModel

        room = RoomModel.sized_for_cluster(5000.0, 4)
        return RoomTemperaturePolicy(room)

    def test_no_fault_delegates(self, room_policy, thermal_state):
        injector = FaultInjector(FaultSchedule.empty())
        injector.advance_to(0.0)
        policy = FaultResponsePolicy(room_policy, injector)
        work = np.full(4, 0.5)
        assert policy.decide(thermal_state, work) == room_policy.decide(
            thermal_state, work
        )

    def test_dropout_forces_minimum_frequency(self, room_policy, thermal_state):
        injector = FaultInjector(
            FaultSchedule(
                faults=(fault(kind=SENSOR_DROPOUT, start=0.0, end=100.0),)
            )
        )
        injector.advance_to(50.0)
        policy = FaultResponsePolicy(room_policy, injector)
        decision = policy.decide(thermal_state, np.full(4, 0.5))
        assert decision.frequency_ghz == (
            thermal_state.power_model.min_frequency_ghz
        )
        assert decision.limited

    def test_severe_cooling_loss_preempts(self, room_policy, thermal_state):
        injector = FaultInjector(
            FaultSchedule(
                faults=(
                    fault(
                        kind=COOLING_LOSS,
                        magnitude=0.8,
                        start=0.0,
                        end=100.0,
                    ),
                )
            )
        )
        injector.advance_to(50.0, room=room_policy.room)
        policy = FaultResponsePolicy(room_policy, injector)
        decision = policy.decide(thermal_state, np.full(4, 0.5))
        assert decision.frequency_ghz == (
            thermal_state.power_model.min_frequency_ghz
        )
        assert decision.limited

    @pytest.mark.parametrize(
        ("base", "sheds"),
        [
            (ThermalLimitPolicy(capacity_w=1.0), True),
            (ThermalLimitPolicy(capacity_w=1e9), False),
            (NoThermalLimit(), False),
        ],
        ids=["capacity-short", "capacity-ample", "no-capacity"],
    )
    def test_severe_cooling_loss_on_roomless_bases(
        self, base, sheds, thermal_state
    ):
        """A ``capacity_w`` base sheds against it only when even minimum
        DVFS overheats; a base with no capacity gets minimum DVFS alone."""
        injector = FaultInjector(
            FaultSchedule(
                faults=(
                    fault(
                        kind=COOLING_LOSS,
                        magnitude=0.8,
                        start=0.0,
                        end=100.0,
                    ),
                )
            )
        )
        injector.advance_to(50.0)
        policy = FaultResponsePolicy(base, injector)
        decision = policy.decide(thermal_state, np.full(4, 0.5))
        assert decision.frequency_ghz == (
            thermal_state.power_model.min_frequency_ghz
        )
        assert decision.limited
        assert (decision.utilization_cap < 1.0) == sheds

    def test_mild_cooling_loss_delegates(self, room_policy, thermal_state):
        injector = FaultInjector(
            FaultSchedule(
                faults=(
                    fault(
                        kind=COOLING_LOSS,
                        magnitude=0.2,
                        start=0.0,
                        end=100.0,
                    ),
                )
            )
        )
        injector.advance_to(50.0, room=room_policy.room)
        policy = FaultResponsePolicy(room_policy, injector)
        work = np.full(4, 0.5)
        assert policy.decide(thermal_state, work) == room_policy.decide(
            thermal_state, work
        )

    def test_bad_emergency_factor_rejected(self, room_policy):
        injector = FaultInjector(FaultSchedule.empty())
        with pytest.raises(ConfigurationError):
            FaultResponsePolicy(
                room_policy, injector, emergency_capacity_factor=1.5
            )
