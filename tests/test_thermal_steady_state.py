"""Tests for the steady-state solver."""

import pytest

from repro.errors import SolverError
from repro.server.chassis import constant_utilization
from repro.thermal.network import ThermalNetwork
from repro.thermal.solver import simulate_transient
from repro.thermal.steady_state import solve_steady_state
from repro.units import hours


def rc_network():
    network = ThermalNetwork("rc")
    network.add_boundary_node("ambient", 25.0)
    network.add_capacitive_node("node", 200.0, 25.0, power_w=10.0)
    network.add_conductance("node", "ambient", 0.5)
    return network


class TestAnalytic:
    def test_single_node_equilibrium(self):
        result = solve_steady_state(rc_network())
        assert result.temperatures_c["node"] == pytest.approx(45.0, abs=1e-4)

    def test_two_node_chain(self):
        network = ThermalNetwork("chain")
        network.add_boundary_node("ambient", 20.0)
        network.add_capacitive_node("a", 10.0, 20.0, power_w=5.0)
        network.add_capacitive_node("b", 10.0, 20.0)
        network.add_conductance("a", "b", 1.0)
        network.add_conductance("b", "ambient", 1.0)
        result = solve_steady_state(network)
        # All 5 W flows a->b->ambient: T_b = 25, T_a = 30.
        assert result.temperatures_c["b"] == pytest.approx(25.0, abs=1e-4)
        assert result.temperatures_c["a"] == pytest.approx(30.0, abs=1e-4)

    def test_relaxation_validation(self):
        with pytest.raises(SolverError):
            solve_steady_state(rc_network(), relaxation=1.5)


class TestAgainstTransient:
    def test_matches_long_transient_on_chassis(self, one_u_spec):
        network = one_u_spec.chassis.build_network(
            constant_utilization(1.0), placebo=True
        )
        steady = solve_steady_state(network)
        assert steady.iterations > 0
        network2 = one_u_spec.chassis.build_network(
            constant_utilization(1.0), placebo=True
        )
        transient = simulate_transient(network2, hours(10.0), output_interval_s=600.0)
        assert transient.times_s[-1] == pytest.approx(hours(10.0))
        finals = transient.final_temperatures()
        for name, value in steady.temperatures_c.items():
            if name in finals:
                assert finals[name] == pytest.approx(value, abs=0.1)

    def test_outlet_temperature_accessor(self, one_u_spec):
        network = one_u_spec.chassis.build_network(constant_utilization(0.5))
        steady = solve_steady_state(network)
        assert steady.outlet_temperature_c() == pytest.approx(
            steady.air_temperatures_c["rear"]
        )

    def test_frozen_time_evaluation(self, one_u_spec):
        # A step schedule evaluated at t=0 (idle) vs late (loaded).
        from repro.server.chassis import step_utilization

        schedule = step_utilization(0.0, 1.0, 3600.0, 7200.0)
        network = one_u_spec.chassis.build_network(schedule)
        idle = solve_steady_state(network, time_s=0.0)
        loaded = solve_steady_state(network, time_s=5400.0)
        assert loaded.outlet_temperature_c() > idle.outlet_temperature_c() + 2.0
