"""Tests for the pluggable solver compute backends.

Three layers are pinned here: the selection logic (``backend=`` knob
validation, ``auto`` thresholds, unavailable-backend errors), numerical
equivalence of every available backend against the dense-NumPy oracle on
hypothesis-generated networks, and the sparse backend on a rack-scale
synthetic network. That large suite is marked ``slow`` so the fast CI
lane stays fast.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import ConfigurationError
from repro.thermal.backends import (
    BACKEND_NAMES,
    SPARSE_AUTO_MIN_STATE,
    NumpyBackend,
    SparseBackend,
    available_backends,
    resolve_backend,
    validate_backend_choice,
)
from repro.thermal.solver import (
    _CompiledNetwork,
    simulate_transient,
    simulate_transient_batch,
)
from repro.thermal.steady_state import (
    solve_steady_state_batch,
)
from repro.thermal.synthetic import rack_scale_network

from tests.test_solver_equivalence import RTOL, network_from, network_params


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    scale = np.maximum(1.0, np.abs(b))
    return bool(np.all(np.abs(a - b) <= RTOL * scale))


class TestBackendSelection:
    def test_knob_values_are_validated(self):
        with pytest.raises(ConfigurationError, match="backend must be one of"):
            validate_backend_choice("cublas")
        with pytest.raises(ConfigurationError, match="backend must be one of"):
            resolve_backend("cublas", n_state=8)
        for name in BACKEND_NAMES:
            assert validate_backend_choice(name) == name

    def test_auto_stays_dense_below_min_state(self):
        backend = resolve_backend(
            "auto", n_state=SPARSE_AUTO_MIN_STATE - 1, density=0.0
        )
        assert isinstance(backend, NumpyBackend)

    def test_auto_goes_sparse_on_large_sparse_operator(self):
        backend = resolve_backend(
            "auto", n_state=SPARSE_AUTO_MIN_STATE, density=0.01
        )
        assert isinstance(backend, SparseBackend)

    def test_auto_stays_dense_on_large_dense_operator(self):
        backend = resolve_backend(
            "auto", n_state=4 * SPARSE_AUTO_MIN_STATE, density=0.5
        )
        assert isinstance(backend, NumpyBackend)

    def test_density_probe_is_lazy_below_threshold(self):
        """Small networks never pay for the nonzero count."""

        def exploding_density() -> float:
            raise AssertionError("density probed below the size threshold")

        backend = resolve_backend(
            "auto", n_state=SPARSE_AUTO_MIN_STATE - 1, density=exploding_density
        )
        assert isinstance(backend, NumpyBackend)

    def test_density_probe_is_evaluated_above_threshold(self):
        calls = []

        def probe() -> float:
            calls.append(1)
            return 0.001

        backend = resolve_backend(
            "auto", n_state=SPARSE_AUTO_MIN_STATE, density=probe
        )
        assert isinstance(backend, SparseBackend)
        assert calls == [1]

    def test_explicit_override_wins_over_auto_policy(self):
        assert isinstance(
            resolve_backend("sparse", n_state=4, density=1.0), SparseBackend
        )
        assert isinstance(
            resolve_backend(
                "numpy", n_state=8 * SPARSE_AUTO_MIN_STATE, density=0.0
            ),
            NumpyBackend,
        )

    def test_available_backends_reports_importability(self):
        names = available_backends()
        assert "numpy" in names
        assert "sparse" in names  # scipy is a hard dependency

    def test_selection_is_counted(self):
        from repro.obs import get_registry

        obs = get_registry()
        was_enabled = obs.enabled
        obs.enable()
        obs.reset()
        try:
            params = {
                "capacities": [200.0, 300.0],
                "power": 20.0,
                "conductance": 1.0,
                "ambient_c": 25.0,
                "pcm_mass_kg": 0.0,
                "with_air": False,
            }
            simulate_transient(
                network_from(params), 60.0, output_interval_s=30.0
            )
            simulate_transient(
                network_from(params),
                60.0,
                output_interval_s=30.0,
                backend="sparse",
            )
            counters = obs.snapshot().counters
            assert counters["solver.backend.numpy"] == 1
            assert counters["solver.backend.sparse"] == 1
        finally:
            obs.reset()
            if not was_enabled:
                obs.disable()


class TestBackendEquivalence:
    """Every available backend against the dense-NumPy oracle."""

    @pytest.mark.parametrize("backend", available_backends())
    @given(params=network_params)
    @settings(max_examples=10, deadline=None)
    def test_transient_matches_numpy_oracle(self, backend, params):
        oracle = simulate_transient(
            network_from(params), 120.0, output_interval_s=30.0,
            backend="numpy",
        )
        other = simulate_transient(
            network_from(params), 120.0, output_interval_s=30.0,
            backend=backend,
        )
        assert np.array_equal(oracle.times_s, other.times_s)
        for node in oracle.temperatures_c:
            assert _close(
                other.temperatures_c[node], oracle.temperatures_c[node]
            ), (backend, node)

    @pytest.mark.parametrize("backend", available_backends())
    @given(params=network_params)
    @settings(max_examples=8, deadline=None)
    def test_batch_matches_single(self, backend, params):
        single = simulate_transient(
            network_from(params), 120.0, output_interval_s=30.0,
            backend=backend,
        )
        batch = simulate_transient_batch(
            [network_from(params)], 120.0, output_interval_s=30.0,
            backend=backend,
        )
        (member,) = batch.require_all()
        for node in single.temperatures_c:
            assert _close(
                member.temperatures_c[node], single.temperatures_c[node]
            ), (backend, node)

    @given(params=network_params)
    @settings(max_examples=10, deadline=None)
    def test_auto_is_bit_identical_to_numpy_on_small_networks(self, params):
        """Chassis-scale networks sit far below the sparse thresholds, so
        ``auto`` must reproduce the default path byte for byte — this is
        what keeps the nine golden figure fingerprints unchanged."""
        default = simulate_transient(
            network_from(params), 120.0, output_interval_s=30.0
        )
        auto = simulate_transient(
            network_from(params), 120.0, output_interval_s=30.0,
            backend="auto",
        )
        for node in default.temperatures_c:
            assert np.array_equal(
                auto.temperatures_c[node], default.temperatures_c[node]
            ), node

    @given(params=network_params)
    @settings(max_examples=10, deadline=None)
    def test_steady_batch_backends_agree(self, params):
        default = solve_steady_state_batch([network_from(params)])
        forced = solve_steady_state_batch(
            [network_from(params)], backend="sparse"
        )
        for node, temp in default[0].temperatures_c.items():
            assert abs(forced[0].temperatures_c[node] - temp) <= RTOL * max(
                1.0, abs(temp)
            ), node


@pytest.mark.slow
class TestSparseOnSyntheticNetwork:
    """The sparse backend on the rack-scale synthetic network."""

    SERVERS = 180  # 3 * 180 + 23 = 563 state nodes, past the auto threshold

    def test_auto_selects_sparse_past_threshold(self):
        network = rack_scale_network(servers=self.SERVERS, seed=3)
        compiled = _CompiledNetwork(network)
        assert compiled.n_state >= SPARSE_AUTO_MIN_STATE
        backend = resolve_backend(
            "auto", compiled.n_state, compiled.operator_density
        )
        assert isinstance(backend, SparseBackend)

    def test_sparse_transient_matches_dense_and_is_deterministic(self):
        def run(backend: str):
            return simulate_transient(
                rack_scale_network(servers=self.SERVERS, seed=3),
                300.0,
                output_interval_s=100.0,
                backend=backend,
            )

        dense = run("numpy")
        sparse_a = run("sparse")
        sparse_b = run("sparse")
        hot = [f"cpu{s}" for s in range(0, self.SERVERS, 37)] + ["wax0"]
        for node in hot:
            # CSR reassociates row sums relative to BLAS (a few ULPs),
            # but must agree to the oracle within RTOL and with itself
            # exactly, run to run.
            assert _close(
                sparse_a.temperatures_c[node], dense.temperatures_c[node]
            ), node
            assert np.array_equal(
                sparse_a.temperatures_c[node], sparse_b.temperatures_c[node]
            ), node

    def test_sparse_steady_matches_dict_sweep(self):
        # Small enough to converge quickly, explicit backend overrides
        # the size threshold.
        networks = [
            rack_scale_network(servers=40, seed=seed) for seed in (0, 1)
        ]
        rebuilt = [
            rack_scale_network(servers=40, seed=seed) for seed in (0, 1)
        ]
        reference = solve_steady_state_batch(networks)
        forced = solve_steady_state_batch(rebuilt, backend="sparse")
        for member_ref, member_sparse in zip(reference, forced):
            assert member_ref.iterations == member_sparse.iterations
            for node, temp in member_ref.temperatures_c.items():
                assert abs(
                    member_sparse.temperatures_c[node] - temp
                ) <= RTOL * max(1.0, abs(temp)), node


class TestSyntheticNetworkGenerator:
    def test_node_count_and_structure(self):
        network = rack_scale_network(servers=16, seed=0, pcm_every=8)
        compiled = _CompiledNetwork(network)
        # cpu + sink + board per server, one wax node per 8 servers.
        assert compiled.n_state == 3 * 16 + 2

    def test_same_seed_is_reproducible(self):
        a = simulate_transient(
            rack_scale_network(servers=12, seed=7), 120.0,
            output_interval_s=60.0,
        )
        b = simulate_transient(
            rack_scale_network(servers=12, seed=7), 120.0,
            output_interval_s=60.0,
        )
        for node in a.temperatures_c:
            assert np.array_equal(
                a.temperatures_c[node], b.temperatures_c[node]
            ), node

    def test_invalid_parameters_raise(self):
        with pytest.raises(ConfigurationError):
            rack_scale_network(servers=0)
        with pytest.raises(ConfigurationError):
            rack_scale_network(servers=4, pcm_every=0)
