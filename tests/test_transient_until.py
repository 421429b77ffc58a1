"""The transient solver's terminal condition (``until``).

A run given ``until=(node, limit)`` must return exactly the prefix of the
full-horizon run's traces, up to and including the first output sample
at which the node reaches the limit, bit for bit, on every entry point.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs import get_registry
from repro.sprinting import SprintChip, run_sprint, run_sprint_batch
from repro.sprinting.model import _sprint_outcome
from repro.thermal.network import ThermalNetwork
from repro.thermal.solver import simulate_transient, simulate_transient_batch

LIMIT = SprintChip().junction_limit_c


def sprint_network(power_w=16.0, pcm_grams=2.0):
    return SprintChip().build_network(power_w, pcm_grams)


def rc_network(power_w=10.0, name="rc"):
    """Rises from 25 toward 45 degC with a 400 s time constant."""
    network = ThermalNetwork(name)
    network.add_boundary_node("ambient", 25.0)
    network.add_capacitive_node("node", 200.0, 25.0, power_w=power_w)
    network.add_conductance("node", "ambient", 0.5)
    return network


def unstable_network():
    return rc_network(lambda t: np.inf if t >= 45.0 else 10.0, name="unstable")


def traces(result):
    """Every trace of a result, keyed by kind and name."""
    named = {"times_s": result.times_s, "flow": result.flow_m3_s,
             "power": result.power_w}
    for kind, group in (
        ("T", result.temperatures_c),
        ("air", result.air_temperatures_c),
        ("melt", result.melt_fractions),
        ("H", result.pcm_enthalpies_j),
    ):
        named.update({f"{kind}:{name}": trace for name, trace in group.items()})
    return named


def first_crossing(trace, limit):
    hits = np.flatnonzero(trace >= limit)
    return int(hits[0]) if hits.size else len(trace) - 1


def assert_prefix(short, full, n_samples):
    """``short`` is exactly the first ``n_samples`` samples of ``full``."""
    short_traces, full_traces = traces(short), traces(full)
    assert list(short_traces) == list(full_traces)
    for name, trace in short_traces.items():
        assert len(trace) == n_samples, name
        assert np.array_equal(trace, full_traces[name][:n_samples]), name


class TestSingle:
    def test_stops_at_first_crossing(self):
        full = simulate_transient(sprint_network(), 120.0, output_interval_s=0.5)
        stop = first_crossing(full.temperatures_c["die"], LIMIT)
        assert 0 < stop < len(full.times_s) - 1
        short = simulate_transient(
            sprint_network(), 120.0, output_interval_s=0.5, until=("die", LIMIT)
        )
        assert_prefix(short, full, stop + 1)
        assert short.temperatures_c["die"][-1] >= LIMIT
        assert short.temperatures_c["die"][-2] < LIMIT

    def test_crossing_at_sample_zero(self):
        full = simulate_transient(rc_network(), 600.0, output_interval_s=30.0)
        short = simulate_transient(
            rc_network(), 600.0, output_interval_s=30.0, until=("node", 25.0)
        )
        assert_prefix(short, full, 1)
        assert short.times_s.tolist() == [0.0]

    def test_crossing_in_final_partial_interval(self):
        full = simulate_transient(rc_network(), 95.0, output_interval_s=10.0)
        assert full.times_s[-2:].tolist() == [90.0, 95.0]
        limit = float(full.temperatures_c["node"][-1])
        assert full.temperatures_c["node"][-2] < limit
        short = simulate_transient(
            rc_network(), 95.0, output_interval_s=10.0, until=("node", limit)
        )
        assert_prefix(short, full, len(full.times_s))

    def test_limit_never_reached_matches_full_run(self):
        full = simulate_transient(sprint_network(), 60.0, output_interval_s=0.5)
        short = simulate_transient(
            sprint_network(), 60.0, output_interval_s=0.5, until=("die", 500.0)
        )
        assert_prefix(short, full, len(full.times_s))

    def test_pcm_node_read_through_enthalpy_map(self):
        full = simulate_transient(sprint_network(), 300.0, output_interval_s=0.5)
        wax = full.temperatures_c["pcm"]
        limit = float(wax[len(wax) // 2])
        stop = first_crossing(wax, limit)
        assert 0 < stop < len(wax) - 1
        short = simulate_transient(
            sprint_network(), 300.0, output_interval_s=0.5, until=("pcm", limit)
        )
        assert_prefix(short, full, stop + 1)

    def test_commit_final_state_commits_the_stop(self):
        network = sprint_network()
        short = simulate_transient(
            network, 300.0, output_interval_s=0.5,
            commit_final_state=True, until=("die", LIMIT),
        )
        committed = network.pcm_node("pcm").sample.enthalpy_j
        assert committed == short.pcm_enthalpies_j["pcm"][-1]
        assert short.times_s[-1] < 300.0

    def test_bdf_same_prefix_semantics(self):
        full = simulate_transient(
            rc_network(), 1200.0, output_interval_s=30.0, method="bdf"
        )
        stop = first_crossing(full.temperatures_c["node"], 35.0)
        assert 0 < stop < len(full.times_s) - 1
        network = rc_network()
        short = simulate_transient(
            network, 1200.0, output_interval_s=30.0, method="bdf",
            until=("node", 35.0),
        )
        assert_prefix(short, full, stop + 1)

    def test_unknown_node_rejected(self):
        with pytest.raises(ConfigurationError, match="until node"):
            simulate_transient(rc_network(), 60.0, until=("nope", 30.0))

    def test_boundary_node_rejected(self):
        with pytest.raises(ConfigurationError, match="until node"):
            simulate_transient(rc_network(), 60.0, until=("ambient", 30.0))


class TestBatch:
    def test_stops_once_every_member_crossed(self):
        def members():
            return [sprint_network(20.0), sprint_network(16.0)]

        full = simulate_transient_batch(members(), 200.0, output_interval_s=0.5)
        stops = [
            first_crossing(result.temperatures_c["die"], LIMIT)
            for result in full.results
        ]
        assert stops[0] < stops[1] < len(full[0].times_s) - 1
        short = simulate_transient_batch(
            members(), 200.0, output_interval_s=0.5, until=("die", LIMIT)
        )
        for short_member, full_member in zip(short.results, full.results):
            assert_prefix(short_member, full_member, stops[1] + 1)

    def test_member_that_never_crosses_runs_to_horizon(self):
        def members():
            return [sprint_network(20.0), sprint_network(0.5)]

        full = simulate_transient_batch(members(), 120.0, output_interval_s=0.5)
        assert np.all(full[1].temperatures_c["die"] < LIMIT)
        short = simulate_transient_batch(
            members(), 120.0, output_interval_s=0.5, until=("die", LIMIT)
        )
        for short_member, full_member in zip(short.results, full.results):
            assert_prefix(short_member, full_member, len(full_member.times_s))

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_diverged_member_does_not_block_the_stop(self):
        def members():
            return [rc_network(), unstable_network()]

        full = simulate_transient_batch(members(), 1200.0, output_interval_s=30.0)
        assert list(full.failures) == [1]
        stop = first_crossing(full[0].temperatures_c["node"], 35.0)
        assert 0 < stop < len(full[0].times_s) - 1
        short = simulate_transient_batch(
            members(), 1200.0, output_interval_s=30.0, until=("node", 35.0)
        )
        assert short.failures == full.failures
        assert short[1] is None
        assert_prefix(short[0], full[0], stop + 1)

    def test_commit_final_state_commits_the_stop(self):
        networks = [sprint_network(20.0), sprint_network(16.0)]
        short = simulate_transient_batch(
            networks, 300.0, output_interval_s=0.5,
            commit_final_state=True, until=("die", LIMIT),
        )
        for network, result in zip(networks, short.results):
            committed = network.pcm_node("pcm").sample.enthalpy_j
            assert committed == result.pcm_enthalpies_j["pcm"][-1]

    def test_progress_reports_up_to_the_stop(self):
        calls = []
        short = simulate_transient_batch(
            [rc_network()], 1200.0, output_interval_s=30.0,
            progress_cb=lambda i, n, t: calls.append((i, n, t)),
            until=("node", 35.0),
        )
        assert [i for i, _, _ in calls] == list(range(len(short[0].times_s)))
        assert calls[-1][2] == short[0].times_s[-1]

    def test_unknown_node_rejected(self):
        with pytest.raises(ConfigurationError, match="until node"):
            simulate_transient_batch([rc_network()], 60.0, until=("nope", 30.0))


@pytest.fixture
def global_obs():
    obs = get_registry()
    was_enabled = obs.enabled
    obs.enable()
    yield obs
    if not was_enabled:
        obs.disable()


def test_early_stop_counted(global_obs):
    with global_obs.collect() as collection:
        simulate_transient(
            rc_network(), 1200.0, output_interval_s=30.0, until=("node", 35.0)
        )
        simulate_transient(
            rc_network(), 1200.0, output_interval_s=30.0, until=("node", 99.0)
        )
    counters = collection.report.counters
    # 277 s to 35 degC: stops at the 300 s sample, 30 of 40 intervals skipped.
    assert counters["solver.until.stops"] == 1
    assert counters["solver.until.samples_skipped"] == 30


class TestSprintResults:
    """The sprint workloads' outcomes, pinned exactly."""

    def test_matches_full_horizon_outcome(self):
        chip = SprintChip()
        network = chip.build_network(16.0)
        full = simulate_transient(network, 120.0, output_interval_s=0.05)
        assert run_sprint(chip, 16.0, horizon_s=120.0) == _sprint_outcome(
            chip, full, 16.0, 0.0, 120.0
        )

    def test_tournament_budget(self):
        result = run_sprint(SprintChip(), 8.0, pcm_grams=20.0, horizon_s=3600.0)
        assert result.duration_s == 20188 * 0.05  # 1009.4 s
        assert result.hit_limit
        assert result.final_melt_fraction == 1.0

    def test_bare_sprint(self):
        result = run_sprint(SprintChip(), 16.0, horizon_s=1800.0)
        assert result.duration_s == 583 * 0.05  # 29.15 s
        assert result.hit_limit
        assert result.final_melt_fraction == 0.0

    def test_pcm_power_sweep(self):
        sweep = run_sprint_batch(
            SprintChip(), [12.0, 16.0, 20.0], pcm_grams=10.0, horizon_s=1800.0
        )
        # 340.05, 246.3 and 191.6 s.
        assert [r.duration_s for r in sweep] == [
            6801 * 0.05, 4926 * 0.05, 3832 * 0.05
        ]
        assert all(r.hit_limit for r in sweep)
        assert all(r.final_melt_fraction == 1.0 for r in sweep)
