"""Collapsed (one representative server) vs expanded thermal state.

A :class:`~repro.dcsim.thermal_coupling.BatchedClusterThermalState`
without per-server inputs stores one ``(clusters, 1)`` column and
broadcasts it; the first per-server input widens it to
``(clusters, servers)``. These tests hold the two regimes byte-identical
step for step at the edges (a 1-server cluster, active fault scales, an
offline fault that expands mid-run, the MPC rollout's seeding path), pin
which inputs expand and which do not, and check the subtree bisections
of ``_shed_cap`` and the geo spare-capacity probe against the serial
loops they replace (kept here, and only here, as the oracle).
"""

import numpy as np
import pytest

import repro.dcsim.thermal_coupling as tc
from repro.control.planners import MPCPolicy, Observation
from repro.dcsim.cluster import ClusterTopology
from repro.dcsim.geo import GeoPair, GeoSite
from repro.dcsim.room import RoomModel
from repro.dcsim.simulator import DatacenterSimulator, SimulationConfig
from repro.dcsim.throttling import (
    ThrottleDecision,
    _shed_cap,
    bisect_fitting,
    busy_fraction,
)
from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.invariants import identical_results
from repro.faults.schedule import Fault, FaultSchedule
from repro.materials.library import commercial_paraffin_with_melting_point
from repro.obs import get_registry
from repro.server.characterization import characterize_platform
from repro.server.configs import one_u_commodity
from repro.workload.trace import LoadTrace

SPEC = one_u_commodity()
POWER = SPEC.power_model
CHARACTERIZATION = characterize_platform(SPEC)
MATERIALS = [
    commercial_paraffin_with_melting_point(melt) for melt in (38.0, 43.0, 52.0)
]
NOMINAL = POWER.nominal_frequency_ghz
MINIMUM = POWER.min_frequency_ghz


def _batched(clusters, servers, **kwargs):
    return tc.BatchedClusterThermalState(
        CHARACTERIZATION,
        POWER,
        MATERIALS[:clusters],
        cluster_count=clusters,
        server_count=servers,
        inlet_temperature_c=np.linspace(24.0, 27.0, clusters),
        initial_utilization=0.3,
        wax_enabled=np.arange(clusters) % 3 != 2,
        **kwargs,
    )


def _pair(clusters, servers):
    collapsed = _batched(clusters, servers)
    expanded = _batched(clusters, servers)
    expanded.expand("forced")
    assert collapsed.is_uniform and not expanded.is_uniform
    return collapsed, expanded


def _assert_states_identical(a, b):
    for name in (
        "zone_temperature_c",
        "specific_enthalpy_j_per_kg",
        "wax_temperature_c",
        "melt_fraction",
    ):
        va, vb = getattr(a, name), getattr(b, name)
        assert va.shape == vb.shape
        assert np.array(va).tobytes() == np.array(vb).tobytes(), name
    assert a.stored_latent_heat_j.tobytes() == b.stored_latent_heat_j.tobytes()


def _assert_returns_identical(ra, rb):
    for va, vb in zip(ra, rb):
        assert va.shape == vb.shape
        assert np.array(va).tobytes() == np.array(vb).tobytes()
        # Callers reduce along the server axis; views and dense arrays
        # must agree there too.
        assert np.sum(va, axis=1).tobytes() == np.sum(vb, axis=1).tobytes()


def _utilization_schedule(clusters, servers, ticks, seed=0):
    rng = np.random.default_rng(seed)
    for k in range(ticks):
        column = rng.uniform(0.0, 1.0, (clusters, 1))
        # Alternate the two collapsed-compatible forms.
        yield column if k % 2 else np.repeat(column, servers, axis=1)


class TestStepEquivalence:
    @pytest.mark.parametrize("servers", [1, 7, 128, 1008])
    def test_collapsed_matches_expanded_step_for_step(self, servers):
        collapsed, expanded = _pair(3, servers)
        frequency = np.array([NOMINAL, MINIMUM, 0.5 * (NOMINAL + MINIMUM)])
        for k, utilization in enumerate(
            _utilization_schedule(3, servers, 40, seed=servers)
        ):
            if k == 10:
                for state in (collapsed, expanded):
                    state.set_fault_scales(0.7, 1.3, 0.6)
            if k == 25:
                for state in (collapsed, expanded):
                    state.set_fault_scales()
            ra = collapsed.step(60.0, utilization, frequency)
            rb = expanded.step(60.0, utilization, frequency)
            _assert_returns_identical(ra, rb)
            _assert_states_identical(collapsed, expanded)
        # Fault scales are cluster-wide: they never expand the state.
        assert collapsed.is_uniform

    def test_one_server_cluster(self):
        collapsed = tc.ClusterThermalState(
            CHARACTERIZATION, POWER, MATERIALS[1], server_count=1
        )
        expanded = tc.ClusterThermalState(
            CHARACTERIZATION, POWER, MATERIALS[1], server_count=1
        )
        expanded.expand("forced")
        for u in (0.0, 0.4, 1.0, 0.9, 0.1):
            ra = collapsed.step(60.0, np.array([u]), NOMINAL)
            rb = expanded.step(60.0, np.array([u]), NOMINAL)
            for va, vb in zip(ra, rb):
                assert np.array(va).tobytes() == np.array(vb).tobytes()
        assert np.array_equal(
            collapsed.specific_enthalpy_j_per_kg,
            expanded.specific_enthalpy_j_per_kg,
        )
        assert collapsed.uniform_advancer(60.0) is not None
        assert expanded.uniform_advancer(60.0) is None

    def test_returns_and_views_are_read_only(self):
        state = _batched(2, 4)
        power, release, wax = state.step(60.0, np.full((2, 1), 0.5), NOMINAL)
        for view in (
            power,
            release,
            wax,
            state.zone_temperature_c,
            state.specific_enthalpy_j_per_kg,
            state.melt_fraction,
            state.wax_temperature_c,
            state.inlet_offset_c,
        ):
            assert view.shape == (2, 4)
            with pytest.raises(ValueError):
                view[0, 0] = 1.0


def _counted(run):
    """``run()``'s result and the registry counters it left."""
    registry = get_registry()
    was_enabled = registry.enabled
    registry.enable()
    registry.reset()
    try:
        return run(), dict(registry.snapshot().counters)
    finally:
        registry.reset()
        if not was_enabled:
            registry.disable()


class TestRegimeChoice:
    def test_row_constant_utilization_stays_collapsed(self):
        state = _batched(2, 6)

        def run():
            state.step(60.0, np.full((2, 6), 0.4), NOMINAL)
            state.step(60.0, np.full((2, 1), 0.6), NOMINAL)

        _, counters = _counted(run)
        assert state.is_uniform
        assert counters["dcsim.uniform.collapsed_steps"] == 2

    def test_per_server_utilization_expands_once(self):
        state = _batched(2, 6)
        utilization = np.full((2, 6), 0.4)
        utilization[1, 3] = 0.5

        def run():
            state.step(60.0, utilization, NOMINAL)
            state.step(60.0, np.full((2, 6), 0.4), NOMINAL)

        _, counters = _counted(run)
        assert not state.is_uniform
        assert counters["dcsim.uniform.expand.per_server_utilization"] == 1
        assert "dcsim.uniform.collapsed_steps" not in counters

    def test_inlet_offsets_expand_at_construction(self):
        offsets = np.array([0.0, 0.5, -0.5, 0.0])
        state, counters = _counted(lambda: _batched(1, 4, inlet_offset_c=offsets))
        assert not state.is_uniform
        assert counters["dcsim.uniform.expand.inlet_offset"] == 1
        assert np.array_equal(state.inlet_offset_c[0], offsets)

    def test_zero_offsets_stay_collapsed(self):
        state = _batched(1, 4, inlet_offset_c=np.zeros(4))
        assert state.is_uniform

    def test_bad_utilization_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            _batched(2, 6).step(60.0, np.full((2, 3), 0.4), NOMINAL)

    def test_seed_keeps_uniform_values_collapsed(self):
        source = _batched(1, 5)
        source.step(60.0, np.full((1, 1), 0.8), NOMINAL)
        rollout = _batched(3, 5)
        rollout.seed(
            source.zone_temperature_c[0], source.specific_enthalpy_j_per_kg[0]
        )
        assert rollout.is_uniform
        assert np.array_equal(
            rollout.zone_temperature_c,
            np.broadcast_to(source.zone_temperature_c, (3, 5)),
        )

    def test_seed_with_per_server_values_expands(self):
        state = _batched(1, 5)
        zone = np.array(state.zone_temperature_c)
        zone[0, 2] += 0.25
        _, counters = _counted(
            lambda: state.seed(zone, state.specific_enthalpy_j_per_kg)
        )
        assert not state.is_uniform
        assert counters["dcsim.uniform.expand.seed"] == 1
        assert np.array_equal(state.zone_temperature_c, zone)


def _fluid_sim(schedule, servers=6, expand=False, engine="batched"):
    trace = LoadTrace(
        np.array([0.0, 3 * 3600.0, 6 * 3600.0]), np.array([0.3, 0.9, 0.5])
    )
    simulator = DatacenterSimulator(
        CHARACTERIZATION,
        POWER,
        MATERIALS[1],
        trace,
        topology=ClusterTopology(server_count=servers),
        config=SimulationConfig(mode="fluid", engine=engine),
        fault_injector=FaultInjector(schedule) if schedule else None,
    )
    if expand:
        make_state = simulator._make_state

        def expanded_state():
            state = make_state()
            state.expand("forced")
            return state

        simulator._make_state = expanded_state
    return simulator


class TestFluidRuns:
    OUTAGE = FaultSchedule(
        faults=(
            Fault(kind="server_outage", start_s=7200.0, end_s=9000.0,
                  magnitude=0.5),
            Fault(kind="fan_derate", start_s=1200.0, end_s=2400.0,
                  magnitude=0.5),
        ),
        name="outage",
    )

    def test_offline_fault_expands_mid_run(self):
        simulator = _fluid_sim(self.OUTAGE)
        collapsed, counters = _counted(simulator.run)
        assert not simulator.final_state.is_uniform
        assert counters["dcsim.uniform.expand.offline"] == 1
        # Ticks before the outage (t = 7200 s is tick 120) ran collapsed,
        # stretched or scalar; none after it did.
        assert counters["dcsim.uniform.collapsed_steps"] + counters.get(
            "dcsim.fluid.stretch_ticks", 0
        ) == 119

        for engine in ("batched", "reference"):
            reference = _fluid_sim(self.OUTAGE, expand=True, engine=engine)
            assert identical_results(collapsed, reference.run())
            assert np.array_equal(
                simulator.final_state.specific_enthalpy_j_per_kg,
                reference.final_state.specific_enthalpy_j_per_kg,
            )

    def test_faultless_run_never_expands(self):
        simulator = _fluid_sim(None, engine="reference")
        result = simulator.run()
        assert simulator.final_state.is_uniform
        assert identical_results(
            result, _fluid_sim(None, expand=True, engine="reference").run()
        )


def _observation(state, work_rate, capacity):
    return Observation(
        time_s=3600.0,
        dt_s=60.0,
        work_rate=work_rate,
        state=state,
        room_temperature_c=27.0,
        room_setpoint_c=25.0,
        room_max_temperature_c=30.0,
        cooling_capacity_w=capacity,
        thermal_mass_j_per_k=5e6,
    )


class TestMPCRollout:
    def _states(self, servers):
        collapsed = tc.ClusterThermalState(
            CHARACTERIZATION, POWER, MATERIALS[1], server_count=servers,
            initial_utilization=0.5,
        )
        expanded = tc.ClusterThermalState(
            CHARACTERIZATION, POWER, MATERIALS[1], server_count=servers,
            initial_utilization=0.5,
        )
        expanded.expand("forced")
        for state in (collapsed, expanded):
            for u in (0.9, 1.0, 0.95):
                state.step(60.0, np.full(servers, u), NOMINAL)
        return collapsed, expanded

    @pytest.mark.parametrize("servers", [1, 8, 1008])
    def test_rollout_cost_matches_expanded_source(self, servers):
        collapsed, expanded = self._states(servers)
        work = np.full(servers, 0.97)
        # Tight enough that the emergency shed candidate is priced too.
        capacity = 0.5 * collapsed.power_w(work, NOMINAL).sum()
        costs = []
        for state in (collapsed, expanded):
            policy = MPCPolicy()
            obs = _observation(state, work, capacity)
            frequencies, caps = policy._candidate_sequences(obs)
            forecast = policy._forecast(obs)
            costs.append(
                (
                    caps.tobytes(),
                    policy._rollout_cost(
                        obs, frequencies, caps, forecast
                    ).tobytes(),
                )
            )
            assert len(caps) == 6  # the shed candidate is present
        assert costs[0] == costs[1]


# -- serial oracles (the loops the subtree bisections replace) ------------


def _serial_release(state, busy, frequency):
    power = state.power_w(busy, frequency)
    wax = state.wax_exchange_w(busy, frequency)
    return float(np.sum(power - wax))


def _serial_shed_cap(state, work_rate, frequency, capacity):
    busy = busy_fraction(state, work_rate, frequency)
    low, high = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (low + high)
        if _serial_release(state, busy * mid, frequency) <= capacity:
            low = mid
        else:
            high = mid
    return low * float(np.max(busy))


def _serial_bisect(fits, low, high, steps):
    for _ in range(steps):
        mid = 0.5 * (low + high)
        if fits(mid):
            low = mid
        else:
            high = mid
    return low


class TestSubtreeBisection:
    @pytest.mark.parametrize("steps", [1, 4, 5, 6, 20, 23, 40])
    def test_matches_serial_on_non_monotone_predicates(self, steps):
        rng = np.random.default_rng(steps)
        for _ in range(50):
            # A predicate that flips at many arbitrary points, so the
            # walk leaves the "monotone" path.
            edges = np.sort(rng.uniform(0.0, 1.0, 9))

            def fits_scalar(x):
                return bool(np.searchsorted(edges, x) % 2 == 0)

            def fits_vector(xs):
                return np.searchsorted(edges, xs) % 2 == 0

            low, high = sorted(rng.uniform(-0.5, 1.5, 2))
            assert bisect_fitting(fits_vector, low, high, steps) == (
                _serial_bisect(fits_scalar, low, high, steps)
            )

    @pytest.mark.parametrize("servers", [1, 8, 1008])
    def test_shed_cap_matches_serial(self, servers):
        collapsed, expanded = TestMPCRollout()._states(servers)
        rng = np.random.default_rng(servers)
        noisy = np.clip(0.9 + rng.normal(0.0, 0.05, servers), 0.0, None)
        for work in (np.full(servers, 0.97), noisy):
            full = _serial_release(
                expanded, busy_fraction(expanded, work, MINIMUM), MINIMUM
            )
            for fraction in (0.3, 0.71, 0.9, 0.999):
                capacity = fraction * full
                want = _serial_shed_cap(expanded, work, MINIMUM, capacity)
                for state in (collapsed, expanded):
                    assert _shed_cap(state, work, MINIMUM, capacity) == want


class _SerialGeoPair(GeoPair):
    """The spare-capacity probe as a serial 20-step loop (oracle)."""

    def _site_tick(self, site, demand):
        if not site.online:
            return super()._site_tick(site, demand)
        n = site.topology.server_count
        decision = site.policy.decide(site.state, np.full(n, demand))
        tf = site.power_model.throughput_factor(decision.frequency_ghz)
        busy = min(demand / tf, 1.0, decision.utilization_cap)
        served = busy * tf
        unserved = max(demand - served, 0.0)
        spare = 0.0
        if not decision.limited:
            headroom = max(min(1.0, decision.utilization_cap) - busy, 0.0)
            if headroom > 0:
                lo, hi = 0.0, headroom
                for _ in range(20):
                    mid = 0.5 * (lo + hi)
                    probe = busy_fraction(
                        site.state,
                        np.full(n, (busy + mid) * tf),
                        decision.frequency_ghz,
                    )
                    release = _serial_release(
                        site.state, probe, decision.frequency_ghz
                    )
                    if release <= site.room.cooling_capacity_w:
                        lo = mid
                    else:
                        hi = mid
                spare = lo * tf
        return served, unserved, spare, decision


class TestGeoProbe:
    def _pair(self, cls):
        servers = 16
        hours = np.arange(0.0, 13.0) * 3600.0
        levels = 0.55 + 0.4 * np.sin(np.arange(13) / 2.0)

        def site(name, shift):
            return GeoSite(
                name=name,
                characterization=CHARACTERIZATION,
                power_model=POWER,
                material=MATERIALS[1],
                trace=LoadTrace(hours, np.roll(levels, shift)),
                room=RoomModel.sized_for_cluster(120.0 * servers, servers),
                topology=ClusterTopology(server_count=servers),
            )

        return cls(site("west", 0), site("east", 5))

    def test_geo_run_matches_serial_probe(self):
        result = self._pair(GeoPair).run()
        oracle = self._pair(_SerialGeoPair).run()
        for a, b in (
            (result.site_a, oracle.site_a),
            (result.site_b, oracle.site_b),
        ):
            for name in ("served_local", "accepted_remote", "relocated_out",
                         "frequency_ghz", "room_temperature_c",
                         "cooling_load_w"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        # The probe actually ran: work moved between the sites.
        assert result.relocated_fraction > 0.0

    def test_offline_site_offers_nothing(self):
        pair = self._pair(GeoPair)
        pair.site_b.online = False
        served, unserved, spare, decision = pair._site_tick(pair.site_b, 0.5)
        assert (served, unserved, spare) == (0.0, 0.5, 0.0)
        assert isinstance(decision, ThrottleDecision)
