"""Tests for the datacenter simulator (fluid and event modes)."""

import numpy as np
import pytest

from repro.dcsim.cluster import ClusterTopology
from repro.dcsim.room import RoomModel
from repro.dcsim.simulator import (
    DatacenterSimulator,
    SimulationConfig,
    SimulationResult,
)
from repro.dcsim.throttling import RoomTemperaturePolicy, ThermalLimitPolicy
from repro.errors import ConfigurationError
from repro.materials.library import commercial_paraffin_with_melting_point


@pytest.fixture
def material():
    return commercial_paraffin_with_melting_point(43.0)


def make_sim(
    characterization,
    power_model,
    material,
    trace,
    servers=32,
    mode="fluid",
    wax=True,
    **kwargs,
):
    return DatacenterSimulator(
        characterization,
        power_model,
        material,
        trace,
        topology=ClusterTopology(server_count=servers),
        config=SimulationConfig(mode=mode, wax_enabled=wax),
        **kwargs,
    )


class TestConfig:
    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(mode="quantum")

    def test_bad_tick_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(tick_interval_s=0.0)


class TestFluidMode:
    def test_demand_tracks_trace(
        self, one_u_characterization, one_u_spec, material, short_diurnal_trace
    ):
        sim = make_sim(
            one_u_characterization,
            one_u_spec.power_model,
            material,
            short_diurnal_trace,
        )
        result = sim.run()
        probe = short_diurnal_trace.value_at(result.times_s - 30.0)
        assert np.allclose(result.demand, np.clip(probe, 0, 1), atol=1e-9)

    def test_unconstrained_serves_all_demand(
        self, one_u_characterization, one_u_spec, material, short_diurnal_trace
    ):
        result = make_sim(
            one_u_characterization,
            one_u_spec.power_model,
            material,
            short_diurnal_trace,
        ).run()
        assert np.allclose(result.throughput, result.demand)
        assert np.all(result.shed_work == 0.0)

    def test_power_follows_utilization(
        self, one_u_characterization, one_u_spec, material, short_diurnal_trace
    ):
        result = make_sim(
            one_u_characterization,
            one_u_spec.power_model,
            material,
            short_diurnal_trace,
            servers=10,
        ).run()
        expected = 10 * (90.0 + 95.0 * result.utilization)
        assert np.allclose(result.power_w, expected, rtol=1e-9)

    def test_wax_reduces_peak_cooling_load(
        self, one_u_characterization, one_u_spec, material, google_trace
    ):
        def run(wax):
            return make_sim(
                one_u_characterization,
                one_u_spec.power_model,
                material,
                google_trace.total,
                servers=64,
                wax=wax,
            ).run()

        baseline = run(False)
        with_wax = run(True)
        assert 0 < with_wax.peak_cooling_load_w < baseline.peak_cooling_load_w
        # Electrical power is identical: the wax moves heat, not load.
        assert np.allclose(with_wax.power_w, baseline.power_w)

    def test_energy_conservation_over_cycle(
        self, one_u_characterization, one_u_spec, material, google_trace
    ):
        result = make_sim(
            one_u_characterization,
            one_u_spec.power_model,
            material,
            google_trace.total,
            servers=16,
        ).run()
        dt = 60.0
        consumed = np.sum(result.power_w) * dt
        released = np.sum(result.cooling_load_w) * dt
        banked = np.sum(result.wax_heat_w) * dt
        assert consumed - released == pytest.approx(banked, abs=1e-9 * consumed)

    def test_throttling_caps_release(
        self, one_u_characterization, one_u_spec, material, short_diurnal_trace
    ):
        capacity = 32 * 150.0  # below the 185 W/server peak
        sim = make_sim(
            one_u_characterization,
            one_u_spec.power_model,
            material,
            short_diurnal_trace,
            wax=False,
            policy=ThermalLimitPolicy(capacity_w=capacity),
        )
        result = sim.run()
        assert np.all(result.cooling_load_w <= capacity * 1.01)
        assert np.any(result.throttled_mask())

    def test_room_temperature_recorded(
        self, one_u_characterization, one_u_spec, material, short_diurnal_trace
    ):
        room = RoomModel(cooling_capacity_w=32 * 150.0, thermal_mass_j_per_k=1e5)
        sim = make_sim(
            one_u_characterization,
            one_u_spec.power_model,
            material,
            short_diurnal_trace,
            wax=False,
            room=room,
            policy=RoomTemperaturePolicy(room),
        )
        result = sim.run()
        assert result.room_temperature_c is not None
        assert np.max(result.room_temperature_c) > 25.0
        # The policy holds the room near its limit.
        assert np.max(result.room_temperature_c) < room.max_temperature_c + 1.0

    def test_run_resets_room_and_policy(
        self, one_u_characterization, one_u_spec, material, short_diurnal_trace
    ):
        room = RoomModel(cooling_capacity_w=32 * 150.0, thermal_mass_j_per_k=1e5)
        sim = make_sim(
            one_u_characterization,
            one_u_spec.power_model,
            material,
            short_diurnal_trace,
            wax=False,
            room=room,
            policy=RoomTemperaturePolicy(room),
        )
        first = sim.run()
        second = sim.run()
        assert np.allclose(first.frequency_ghz, second.frequency_ghz)
        assert np.allclose(first.room_temperature_c, second.room_temperature_c)


class TestEventMode:
    def test_utilization_matches_offered_load(
        self, one_u_characterization, one_u_spec, material, short_diurnal_trace
    ):
        result = make_sim(
            one_u_characterization,
            one_u_spec.power_model,
            material,
            short_diurnal_trace,
            servers=24,
            mode="event",
        ).run()
        assert float(np.mean(result.utilization)) == pytest.approx(
            short_diurnal_trace.average, abs=0.03
        )

    def test_work_conservation(
        self, one_u_characterization, one_u_spec, material, short_diurnal_trace
    ):
        """All arrived work is either completed, queued, or in flight."""
        from repro.workload.jobs import generate_arrivals

        arrivals = generate_arrivals(
            short_diurnal_trace, server_count=24, slots_per_server=8, seed=5
        )
        result = make_sim(
            one_u_characterization,
            one_u_spec.power_model,
            material,
            short_diurnal_trace,
            servers=24,
            mode="event",
            arrivals=arrivals,
        ).run()
        completed = float(np.sum(result.completed_work_s))
        offered = sum(a.service_time_s for a in arrivals)
        # Most work completes within the horizon; none is created.
        assert completed <= offered + 1e-6
        assert completed > 0.9 * offered

    def test_completed_work_consistent_with_throughput(
        self, one_u_characterization, one_u_spec, material, short_diurnal_trace
    ):
        result = make_sim(
            one_u_characterization,
            one_u_spec.power_model,
            material,
            short_diurnal_trace,
            servers=24,
            mode="event",
        ).run()
        # Continuous crediting integrates to the discrete completions up
        # to in-flight work at the horizon.
        dt = 60.0
        integrated = float(np.sum(result.throughput)) * dt * 24 * 8
        completed = float(np.sum(result.completed_work_s))
        assert integrated == pytest.approx(completed, rel=0.05)

    def test_fluid_and_event_agree_on_thermals(
        self, one_u_characterization, one_u_spec, material, short_diurnal_trace
    ):
        fluid = make_sim(
            one_u_characterization,
            one_u_spec.power_model,
            material,
            short_diurnal_trace,
            servers=48,
            mode="fluid",
        ).run()
        event = make_sim(
            one_u_characterization,
            one_u_spec.power_model,
            material,
            short_diurnal_trace,
            servers=48,
            mode="event",
        ).run()
        assert event.peak_cooling_load_w == pytest.approx(
            fluid.peak_cooling_load_w, rel=0.05
        )
        assert float(np.mean(event.melt_fraction)) == pytest.approx(
            float(np.mean(fluid.melt_fraction)), abs=0.08
        )

    def test_event_mode_deterministic(
        self, one_u_characterization, one_u_spec, material, short_diurnal_trace
    ):
        runs = [
            make_sim(
                one_u_characterization,
                one_u_spec.power_model,
                material,
                short_diurnal_trace,
                servers=16,
                mode="event",
            ).run()
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].utilization, runs[1].utilization)
        assert np.array_equal(runs[0].cooling_load_w, runs[1].cooling_load_w)


class TestResultAPI:
    def test_energy_kwh(self):
        times = np.arange(1, 61) * 60.0
        result = SimulationResult(
            times_s=times,
            demand=np.zeros(60),
            utilization=np.zeros(60),
            frequency_ghz=np.full(60, 2.4),
            power_w=np.full(60, 3600.0),
            cooling_load_w=np.zeros(60),
            wax_heat_w=np.zeros(60),
            melt_fraction=np.zeros(60),
            throughput=np.zeros(60),
            queue_length=np.zeros(60),
            shed_work=np.zeros(60),
        )
        # 3.6 kW for the full hour: the integration prepends a t=0 sample
        # (first tick's power when no initial power is recorded), so the
        # first interval is no longer dropped. The old golden was 3.54 —
        # 59 minutes — from integrating the tick times alone.
        assert result.energy_kwh() == pytest.approx(3.60, abs=0.01)

    def test_times_hours(self):
        times = np.array([3600.0, 7200.0])
        zeros = np.zeros(2)
        result = SimulationResult(
            times_s=times, demand=zeros, utilization=zeros,
            frequency_ghz=np.full(2, 2.4), power_w=zeros,
            cooling_load_w=zeros, wax_heat_w=zeros, melt_fraction=zeros,
            throughput=zeros, queue_length=zeros, shed_work=zeros,
        )
        assert np.allclose(result.times_hours, [1.0, 2.0])


class TestThrottledMask:
    @staticmethod
    def _result(frequency_ghz, nominal=None):
        n = len(frequency_ghz)
        zeros = np.zeros(n)
        return SimulationResult(
            times_s=np.arange(1, n + 1) * 60.0, demand=zeros,
            utilization=zeros, frequency_ghz=np.asarray(frequency_ghz),
            power_w=zeros, cooling_load_w=zeros, wax_heat_w=zeros,
            melt_fraction=zeros, throughput=zeros, queue_length=zeros,
            shed_work=zeros, nominal_frequency_ghz=nominal,
        )

    def test_always_throttled_run_reports_every_tick(self):
        """Regression: a run pinned below nominal for its whole duration
        used to compare against its own maximum and report zero ticks."""
        result = self._result([2.0, 2.0, 2.0], nominal=2.4)
        assert result.throttled_mask().all()

    def test_partial_throttle_against_nominal(self):
        result = self._result([2.4, 2.0, 2.4, 1.8], nominal=2.4)
        assert list(result.throttled_mask()) == [False, True, False, True]

    def test_legacy_fallback_uses_run_maximum(self):
        # Recordings without a stored nominal keep the old heuristic
        # (and its blind spot, documented here deliberately).
        result = self._result([2.0, 2.0, 2.0], nominal=None)
        assert not result.throttled_mask().any()

    def test_fluid_run_stores_nominal(
        self, one_u_characterization, one_u_spec, material, short_diurnal_trace
    ):
        run_result = make_sim(
            one_u_characterization,
            one_u_spec.power_model,
            material,
            short_diurnal_trace,
            mode="fluid",
        ).run()
        assert run_result.nominal_frequency_ghz == pytest.approx(
            one_u_spec.power_model.nominal_frequency_ghz
        )

    def test_event_run_stores_nominal(
        self, one_u_characterization, one_u_spec, material, short_diurnal_trace
    ):
        run_result = make_sim(
            one_u_characterization,
            one_u_spec.power_model,
            material,
            short_diurnal_trace,
            servers=8,
            mode="event",
        ).run()
        assert run_result.nominal_frequency_ghz == pytest.approx(
            one_u_spec.power_model.nominal_frequency_ghz
        )


class TestEventModeWithRoom:
    def test_room_policy_in_event_mode(
        self, one_u_characterization, one_u_spec, material, short_diurnal_trace
    ):
        """The room model and temperature policy also drive event mode."""
        from repro.dcsim.throttling import RoomTemperaturePolicy

        room = RoomModel(
            cooling_capacity_w=24 * 150.0, thermal_mass_j_per_k=1e5
        )
        result = make_sim(
            one_u_characterization,
            one_u_spec.power_model,
            material,
            short_diurnal_trace,
            servers=24,
            mode="event",
            wax=False,
            room=room,
            policy=RoomTemperaturePolicy(room),
        ).run()
        assert np.any(result.throttled_mask())
        assert np.max(result.room_temperature_c) < 36.5

    def test_work_clock_dilation_under_forced_downclock(
        self, one_u_characterization, one_u_spec, material, short_diurnal_trace
    ):
        """A permanently downclocked cluster completes work at exactly the
        throughput factor of the minimum frequency."""
        from repro.dcsim.throttling import ThrottleDecision

        class AlwaysMinFrequency:
            def decide(self, state, work_rate):
                return ThrottleDecision(frequency_ghz=1.6, limited=True)

        normal = make_sim(
            one_u_characterization,
            one_u_spec.power_model,
            material,
            short_diurnal_trace,
            servers=24,
            mode="event",
            wax=False,
        ).run()
        throttled = make_sim(
            one_u_characterization,
            one_u_spec.power_model,
            material,
            short_diurnal_trace,
            servers=24,
            mode="event",
            wax=False,
            policy=AlwaysMinFrequency(),
        ).run()
        assert np.all(throttled.frequency_ghz == pytest.approx(1.6))
        # The same arrival stream at 2/3 service rate completes less work;
        # at ~50% average load the queue largely absorbs the slowdown, so
        # completed work stays within ~[tf, 1] of the nominal run.
        tf = 1.6 / 2.4
        ratio = float(
            np.sum(throttled.completed_work_s) / np.sum(normal.completed_work_s)
        )
        assert tf - 0.05 <= ratio <= 1.0 + 1e-9
        # And its utilization runs correspondingly higher.
        assert float(np.mean(throttled.utilization)) > float(
            np.mean(normal.utilization)
        )
