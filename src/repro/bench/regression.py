"""The tier-2 performance-regression runner behind ``repro-bench``.

The suite mirrors ``benchmarks/test_bench_micro.py``: each scenario
exercises one kernel that dominates the library's wall-clock — the
chassis RK4 transient, the steady-state fixed point, the vectorized
cluster tick, a fluid-mode simulated day, and an event-mode simulated
day. Scenarios run with observability collection on, so every result
carries the run's deterministic work counters (RK4 steps, events
processed) alongside its wall-clock:

* **times** catch "the same work got slower" regressions and are gated
  with a relative tolerance (CI hardware is noisy, so the default is
  generous);
* **counters** catch "the code silently started doing more work"
  regressions machine-independently; they are reported always and gated
  only under ``--strict-counters`` (a legitimate algorithm change should
  refresh the baseline instead).

Artifacts are versioned JSON (``BENCH_<sha>.json``); the baseline the
gate compares against is the same schema, checked in at
``benchmarks/baseline.json`` and refreshed with ``--update-baseline``.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import platform
import pstats
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.obs import get_registry
from repro.runner.pool import sweep

#: Version tag of the benchmark artifact schema.
BENCH_SCHEMA = "repro.bench/1"

#: Default relative slowdown tolerated before the gate fails (55%:
#: shared CI runners jitter; the counters catch subtler drift).
DEFAULT_TOLERANCE = 0.55

#: Default baseline location relative to the repository root.
DEFAULT_BASELINE = "benchmarks/baseline.json"


@dataclass(frozen=True)
class Scenario:
    """One benchmark scenario: a named, repeatable callable.

    ``build(quick, jobs)`` returns the runnable; scenarios that measure
    a parallel-capable sweep honor ``jobs``, the single-kernel ones
    ignore it (their point is the serial hot path).
    """

    name: str
    description: str
    build: Callable[[bool, int], Callable[[], object]]
    repeats: int = 3


def _chassis_transient(quick: bool, jobs: int) -> Callable[[], object]:
    from repro.server.chassis import constant_utilization
    from repro.server.configs import one_u_commodity
    from repro.thermal.solver import simulate_transient
    from repro.units import hours

    network = one_u_commodity().chassis.build_network(
        constant_utilization(0.8), with_wax=True
    )
    horizon = hours(0.25) if quick else hours(1.0)
    return lambda: simulate_transient(network, horizon, output_interval_s=300.0)


def _chassis_steady_state(quick: bool, jobs: int) -> Callable[[], object]:
    from repro.server.chassis import constant_utilization
    from repro.server.configs import one_u_commodity
    from repro.thermal.steady_state import solve_steady_state

    network = one_u_commodity().chassis.build_network(
        constant_utilization(1.0), placebo=True
    )
    return lambda: solve_steady_state(network)


def _cluster_ticks(quick: bool, jobs: int) -> Callable[[], object]:
    import numpy as np

    from repro.dcsim.thermal_coupling import ClusterThermalState
    from repro.materials.library import commercial_paraffin_with_melting_point
    from repro.server.characterization import characterize_platform
    from repro.server.configs import one_u_commodity

    spec = one_u_commodity()
    state = ClusterThermalState(
        characterize_platform(spec),
        spec.power_model,
        commercial_paraffin_with_melting_point(43.0),
        server_count=1008,
    )
    utilization = np.full(1008, 0.7)
    n_ticks = 20 if quick else 100

    def run() -> object:
        result = None
        for _ in range(n_ticks):
            result = state.step(60.0, utilization, 2.4)
        return result

    return run


def _fluid_speedup(
    quick: bool, servers: int, gate: bool
) -> Callable[[], object]:
    """Interleaved reference-vs-batched fluid run on the Google day.

    Each repeat runs the scalar reference engine and then the batched
    stretch engine on the identical workload, so machine-load drift hits
    both arms and the ratio stays honest. ``gate`` scenarios (the
    1008-server day, full mode only) land the floored ratio in
    ``dcsim.bench.fluid_speedup`` plus the ``_ge_3x`` gate counter;
    non-gated runs record the ratio for eyeballing only.
    """
    from repro.dcsim.cluster import ClusterTopology
    from repro.dcsim.simulator import DatacenterSimulator, SimulationConfig
    from repro.materials.library import commercial_paraffin_with_melting_point
    from repro.server.characterization import characterize_platform
    from repro.server.configs import one_u_commodity
    from repro.workload.google import synthesize_google_trace

    spec = one_u_commodity()
    characterization = characterize_platform(spec)
    trace = synthesize_google_trace().total

    def run() -> dict[str, float]:
        def simulate(engine: str) -> float:
            simulator = DatacenterSimulator(
                characterization,
                spec.power_model,
                commercial_paraffin_with_melting_point(43.0),
                trace,
                topology=ClusterTopology(server_count=servers),
                config=SimulationConfig(
                    mode="fluid", wax_enabled=True, engine=engine
                ),
            )
            start = time.perf_counter()
            simulator.run()
            return time.perf_counter() - start

        reference_s = simulate("reference")
        batched_s = simulate("batched")
        speedup = reference_s / batched_s if batched_s > 0 else 0.0
        obs = get_registry()
        if obs.enabled:
            obs.record("dcsim.bench.fluid_speedup_ratio", speedup)
            # Floor, so the counter reads "at least Nx"; quick mode runs
            # a smaller cluster and skips the gate counters.
            if gate and not quick:
                obs.count("dcsim.bench.fluid_speedup", int(speedup))
                obs.count(
                    "dcsim.bench.fluid_speedup_ge_3x", int(speedup >= 3.0)
                )
        return {
            "reference_s": reference_s,
            "batched_s": batched_s,
            "speedup": speedup,
        }

    return run


def _fluid_day_96(quick: bool, jobs: int) -> Callable[[], object]:
    return _fluid_speedup(quick, servers=48 if quick else 96, gate=False)


def _fluid_day_1008(quick: bool, jobs: int) -> Callable[[], object]:
    return _fluid_speedup(quick, servers=252 if quick else 1008, gate=True)


def _event_day(quick: bool, jobs: int) -> Callable[[], object]:
    from repro.dcsim.cluster import ClusterTopology
    from repro.dcsim.simulator import DatacenterSimulator, SimulationConfig
    from repro.materials.library import commercial_paraffin_with_melting_point
    from repro.server.characterization import characterize_platform
    from repro.server.configs import one_u_commodity
    from repro.units import hours
    from repro.workload.synthetic import diurnal_trace

    spec = one_u_commodity()
    characterization = characterize_platform(spec)
    day = diurnal_trace(duration_s=hours(6.0) if quick else hours(24.0))
    servers = 32 if quick else 96
    return lambda: DatacenterSimulator(
        characterization,
        spec.power_model,
        commercial_paraffin_with_melting_point(43.0),
        day,
        topology=ClusterTopology(server_count=servers),
        config=SimulationConfig(mode="event", wax_enabled=True),
    ).run()


def _event_day_1008(quick: bool, jobs: int) -> Callable[[], object]:
    from repro.dcsim.cluster import ClusterTopology
    from repro.dcsim.simulator import DatacenterSimulator, SimulationConfig
    from repro.materials.library import commercial_paraffin_with_melting_point
    from repro.server.characterization import characterize_platform
    from repro.server.configs import one_u_commodity
    from repro.units import hours
    from repro.workload.synthetic import diurnal_trace

    spec = one_u_commodity()
    characterization = characterize_platform(spec)
    day = diurnal_trace(duration_s=hours(2.0) if quick else hours(6.0))
    servers = 252 if quick else 1008
    return lambda: DatacenterSimulator(
        characterization,
        spec.power_model,
        commercial_paraffin_with_melting_point(43.0),
        day,
        topology=ClusterTopology(server_count=servers),
        config=SimulationConfig(mode="event", wax_enabled=True),
    ).run()


#: The seed-era event loop on ``event_day_96`` (committed
#: ``benchmarks/baseline.json`` before the batched engine landed):
#: 263212 events in 4.317 s, about 61k events/s. The speedup scenario
#: measures against this fixed anchor rather than the current reference
#: engine, so the counter tracks cumulative engine progress and does not
#: move when the reference loop itself gets faster.
_SEED_DAY96_S = 4.3170459829998435
_SEED_DAY96_EVENTS = 263212


def _event_speedup(quick: bool, jobs: int) -> Callable[[], object]:
    from repro.dcsim.cluster import ClusterTopology
    from repro.dcsim.simulator import DatacenterSimulator, SimulationConfig
    from repro.materials.library import commercial_paraffin_with_melting_point
    from repro.server.characterization import characterize_platform
    from repro.server.configs import one_u_commodity
    from repro.units import hours
    from repro.workload.jobs import cached_arrival_stream
    from repro.workload.synthetic import diurnal_trace

    spec = one_u_commodity()
    characterization = characterize_platform(spec)
    day = diurnal_trace(duration_s=hours(6.0) if quick else hours(24.0))
    servers = 32 if quick else 96

    def run() -> dict[str, float]:
        simulator = DatacenterSimulator(
            characterization,
            spec.power_model,
            commercial_paraffin_with_melting_point(43.0),
            day,
            topology=ClusterTopology(server_count=servers),
            config=SimulationConfig(
                mode="event", wax_enabled=True, engine="batched"
            ),
        )
        # Pre-warm the arrival stream so the measured window is engine
        # throughput, not Ogata thinning (the seed anchor excluded
        # per-repeat generation the same way: min-of-repeats).
        cached_arrival_stream(
            simulator.trace,
            server_count=servers,
            slots_per_server=simulator.config.slots_per_server,
            seed=simulator.config.seed,
        )
        obs = get_registry()
        before = obs.snapshot().counters.get("dcsim.events", 0)
        start = time.perf_counter()
        simulator.run()
        elapsed = time.perf_counter() - start
        events = obs.snapshot().counters.get("dcsim.events", 0) - before
        rate = events / elapsed if elapsed > 0 else 0.0
        seed_rate = _SEED_DAY96_EVENTS / _SEED_DAY96_S
        speedup = rate / seed_rate if seed_rate > 0 else 0.0
        if obs.enabled:
            obs.record("dcsim.bench.events_per_sec", rate)
            # Floor, so the counter reads "at least Nx"; the quick lane
            # runs a different workload and records the ratio only for
            # eyeballing, not the gate.
            if not quick:
                obs.count("dcsim.bench.event_speedup", int(speedup))
                obs.count(
                    "dcsim.bench.event_speedup_ge_5x", int(speedup >= 5.0)
                )
        return {
            "events_per_sec": rate,
            "speedup_vs_seed": speedup,
        }

    return run


def _control_overhead(quick: bool, jobs: int) -> Callable[[], object]:
    """Per-tick cost of the control loop over the bare policy stack.

    Runs the chaos plant twice back to back — legacy throttling policy,
    then a :class:`~repro.control.ControlLoop` wrapping the ported
    greedy planner (decision-identical, so both arms do the same
    simulation work) — and attributes the wall-clock difference to the
    loop's per-tick machinery. The microseconds-per-tick figure lands in
    ``control.bench.overhead_us_per_tick`` and the gate counter
    ``control.bench.overhead_le_500us``.
    """
    from repro.control import ControlLoop, GreedyThrottlePolicy
    from repro.faults.chaos import ChaosConfig, build_simulator
    from repro.units import hours

    config = ChaosConfig(
        server_count=8 if quick else 24,
        duration_s=hours(10.0) if quick else hours(36.0),
        tick_interval_s=120.0 if quick else 60.0,
        fault_start_s=hours(1.0),
        fault_end_s=hours(5.0),
        max_fault_s=hours(2.0),
        quiet_from_s=hours(6.0),
        relax_s=hours(2.0),
    )

    def run() -> dict[str, float]:
        def control_factory(room, injector):
            return ControlLoop(
                GreedyThrottlePolicy(),
                room,
                injector=injector,
                tick_interval_s=config.tick_interval_s,
            )

        # Interleave the arms so drift in machine load hits both.
        plain_s = []
        control_s = []
        n_ticks = 0
        for _ in range(2):
            plain = build_simulator(config)
            start = time.perf_counter()
            plain.run()
            plain_s.append(time.perf_counter() - start)

            controlled = build_simulator(
                config, policy_factory=control_factory
            )
            start = time.perf_counter()
            controlled.run()
            control_s.append(time.perf_counter() - start)
            n_ticks = len(controlled.policy.decision_log)

        overhead_us = (
            (min(control_s) - min(plain_s)) / max(n_ticks, 1) * 1e6
        )
        obs = get_registry()
        if obs.enabled:
            obs.record("control.bench.overhead_us_per_tick", overhead_us)
            # The quick lane runs a different plant; gate on full only.
            if not quick:
                obs.count(
                    "control.bench.overhead_le_500us",
                    int(overhead_us <= 500.0),
                )
        return {"overhead_us_per_tick": overhead_us}

    return run


def _fig7_sweep(quick: bool, jobs: int) -> Callable[[], object]:
    from repro.experiments.fig7_blockage import run

    return lambda: run(quick=quick, jobs=jobs)


def _solver_rhs(quick: bool, jobs: int) -> Callable[[], object]:
    import numpy as np

    from repro.server.chassis import constant_utilization
    from repro.server.configs import one_u_commodity
    from repro.thermal.solver import _CompiledNetwork, stable_step_s

    network = one_u_commodity().chassis.build_network(
        constant_utilization(0.8), with_wax=True
    )
    compiled = _CompiledNetwork(network)
    base = network.initial_state()
    dt = stable_step_s(network)
    n_steps = 40 if quick else 200
    # The four substage (time offset, state) pairs of one RK4 step; the
    # perturbed states stand in for the integrator's intermediate stages
    # so both paths see the solver's real call pattern.
    rng = np.random.default_rng(7)
    stages = [
        (0.0, base),
        (0.5, base * (1.0 + 1e-4 * rng.standard_normal(base.shape))),
        (0.5, base * (1.0 + 1e-4 * rng.standard_normal(base.shape))),
        (1.0, base * (1.0 + 1e-4 * rng.standard_normal(base.shape))),
    ]

    n_chunks = 5
    chunk_steps = max(1, n_steps // n_chunks)

    def timed_chunk(evaluate, chunk: int) -> float:
        start = time.perf_counter()
        for step in range(chunk * chunk_steps, (chunk + 1) * chunk_steps):
            t0 = step * dt
            for offset, state in stages:
                evaluate(state, t0 + offset * dt)
        return time.perf_counter() - start

    def run() -> dict[str, float]:
        # Interleave the two paths chunk by chunk and score each on its
        # best chunk, so a scheduler hiccup hitting one path does not
        # masquerade as a kernel speedup (or regression).
        reference_chunks: list[float] = []
        vectorized_chunks: list[float] = []
        for chunk in range(n_chunks):
            reference_chunks.append(
                timed_chunk(network.state_derivative, chunk)
            )
            vectorized_chunks.append(timed_chunk(compiled.rhs, chunk))
        reference_s = min(reference_chunks)
        vectorized_s = min(vectorized_chunks)
        evals = 4 * chunk_steps
        speedup = (
            reference_s / vectorized_s if vectorized_s > 0 else float("inf")
        )
        obs = get_registry()
        if obs.enabled:
            obs.count("solver.bench.reference_evals", evals * n_chunks)
            obs.count("solver.bench.vectorized_evals", evals * n_chunks)
            obs.count("solver.bench.speedup_ge_3x", int(speedup >= 3.0))
        return {
            "reference_us_per_eval": reference_s / evals * 1e6,
            "vectorized_us_per_eval": vectorized_s / evals * 1e6,
            "speedup": speedup,
        }

    return run


def _fig7_batched(quick: bool, jobs: int) -> Callable[[], object]:
    import numpy as np

    from repro.experiments.fig7_blockage import blockage_sweep

    step = 0.15 if quick else 0.05
    fractions = np.arange(0.0, 0.90 + 1e-9, step)
    return lambda: blockage_sweep("1u", fractions)


def _solver_backend_sparse(quick: bool, jobs: int) -> Callable[[], object]:
    import numpy as np

    from repro.thermal.backends import SparseBackend
    from repro.thermal.solver import _CompiledNetwork, stable_step_s
    from repro.thermal.synthetic import RACK_SCALE_SERVERS, rack_scale_network

    servers = 170 if quick else RACK_SCALE_SERVERS
    network = rack_scale_network(servers=servers)
    dense = _CompiledNetwork(network)
    sparse = _CompiledNetwork(network)
    sparse.set_backend(SparseBackend())
    base = network.initial_state()
    dt = stable_step_s(network)
    n_steps = 10 if quick else 25
    rng = np.random.default_rng(11)
    stages = [
        (0.0, base),
        (0.5, base * (1.0 + 1e-4 * rng.standard_normal(base.shape))),
        (0.5, base * (1.0 + 1e-4 * rng.standard_normal(base.shape))),
        (1.0, base * (1.0 + 1e-4 * rng.standard_normal(base.shape))),
    ]

    n_chunks = 5
    chunk_steps = max(1, n_steps // n_chunks)

    def timed_chunk(evaluate, chunk: int) -> float:
        start = time.perf_counter()
        for step in range(chunk * chunk_steps, (chunk + 1) * chunk_steps):
            t0 = step * dt
            for offset, state in stages:
                evaluate(state, t0 + offset * dt)
        return time.perf_counter() - start

    def run() -> dict[str, float]:
        # Interleaved chunk timing, best-of-chunk per path — same
        # protocol as solver_rhs, so scheduler noise cannot fake a
        # backend speedup.
        dense_chunks: list[float] = []
        sparse_chunks: list[float] = []
        for chunk in range(n_chunks):
            dense_chunks.append(timed_chunk(dense.rhs, chunk))
            sparse_chunks.append(timed_chunk(sparse.rhs, chunk))
        dense_s = min(dense_chunks)
        sparse_s = min(sparse_chunks)
        evals = 4 * chunk_steps
        speedup = dense_s / sparse_s if sparse_s > 0 else float("inf")
        obs = get_registry()
        if obs.enabled:
            obs.count("solver.bench.backend_nodes", dense.n_state)
            # Floored ratio, so the counter reads "at least Nx"; gated in
            # the baseline only for the full-size network (the quick lane
            # runs a smaller one and records nothing).
            if not quick:
                obs.count("solver.bench.sparse_speedup", int(speedup))
                obs.count(
                    "solver.bench.sparse_speedup_ge_3x", int(speedup >= 3.0)
                )
        return {
            "dense_us_per_eval": dense_s / evals * 1e6,
            "sparse_us_per_eval": sparse_s / evals * 1e6,
            "speedup": speedup,
        }

    return run


def _solver_backend_transient(quick: bool, jobs: int) -> Callable[[], object]:
    from repro.thermal.solver import simulate_transient
    from repro.thermal.synthetic import RACK_SCALE_SERVERS, rack_scale_network

    servers = 170 if quick else RACK_SCALE_SERVERS
    horizon = 900.0 if quick else 1800.0
    network = rack_scale_network(servers=servers)
    # backend="auto" must pick sparse here (the counters prove it: the
    # scenario's solver.backend.sparse counter lands in the baseline).
    return lambda: simulate_transient(
        network, horizon, output_interval_s=450.0, backend="auto"
    )


def _service_latency(quick: bool, jobs: int) -> Callable[[], object]:
    """Round-trip overhead of the service control plane on cache hits.

    Boots a real :class:`~repro.service.server.SimulationService` on a
    loopback socket with a fresh cache, pays for one cold solve, then
    times repeated resubmissions of the same spec — pure control-plane
    work (HTTP parse, quota, cache read, JSON response). The p50 lands
    in ``service.bench.cache_hit_p50_ms`` and the gate counter
    ``service.bench.cache_hit_p50_le_50ms``.
    """
    import asyncio
    import http.client
    import json as _json
    import tempfile

    from repro.service.server import ServiceConfig, SimulationService

    rounds = 10 if quick else 40
    body = _json.dumps(
        {
            "tenant": "bench",
            "spec": {
                "kind": "cluster",
                "platform": "1u",
                "server_count": 8,
                "ticks": 20,
            },
        }
    )

    def round_trip(port: int) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        connection.request(
            "POST",
            "/v1/jobs",
            body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        payload = _json.loads(response.read())
        connection.close()
        if response.status != 200:
            raise RuntimeError(f"bench request failed: {payload}")

    def run() -> dict[str, float]:
        async def session() -> list[float]:
            with tempfile.TemporaryDirectory(prefix="repro-bench-svc-") as tmp:
                config = ServiceConfig(
                    port=0, workers=1, cache=tmp, window_s=0.0,
                    quota_rate_per_s=10_000.0, quota_burst=10_000.0,
                )
                async with SimulationService(config) as service:
                    port = service.port
                    loop = asyncio.get_running_loop()
                    # Cold solve: populates the cache; excluded from timing.
                    await loop.run_in_executor(None, round_trip, port)
                    samples: list[float] = []
                    for _ in range(rounds):
                        start = time.perf_counter()
                        await loop.run_in_executor(None, round_trip, port)
                        samples.append(time.perf_counter() - start)
                    return samples

        samples = asyncio.run(session())
        p50_ms = statistics.median(samples) * 1e3
        obs = get_registry()
        if obs.enabled:
            obs.record("service.bench.cache_hit_p50_ms", p50_ms)
            if not quick:
                obs.count(
                    "service.bench.cache_hit_p50_le_50ms",
                    int(p50_ms <= 50.0),
                )
        return {"cache_hit_p50_ms": p50_ms}

    return run


def _sprint_budget(quick: bool, jobs: int) -> Callable[[], object]:
    from repro.sprinting import SprintChip, run_sprint

    chip = SprintChip()
    return lambda: run_sprint(chip, 8.0, pcm_grams=20.0, horizon_s=3600.0)


#: The tier-2 suite, in execution order.
SCENARIOS: tuple[Scenario, ...] = (
    Scenario(
        "chassis_transient_hour",
        "one simulated hour of the detailed chassis network (RK4)",
        _chassis_transient,
    ),
    Scenario(
        "chassis_steady_state",
        "one steady-state solve of the detailed chassis network",
        _chassis_steady_state,
    ),
    Scenario(
        "cluster_ticks_1008",
        "100 vectorized thermal ticks of a 1008-server cluster",
        _cluster_ticks,
    ),
    Scenario(
        "fluid_day_96",
        "two simulated days of a 96-server cluster in fluid mode, "
        "reference then batched engine back to back; the ratio is "
        "recorded (not gated) in dcsim.bench.fluid_speedup_ratio",
        _fluid_day_96,
        repeats=2,
    ),
    Scenario(
        "fluid_day_1008",
        "two simulated days of a 1008-server cluster in fluid mode, "
        "reference then batched engine back to back; the floored ratio "
        "lands in the dcsim.bench.fluid_speedup counter and the gate "
        "counter dcsim.bench.fluid_speedup_ge_3x",
        _fluid_day_1008,
        repeats=2,
    ),
    Scenario(
        "event_day_96",
        "a simulated day of discrete-event traffic on 96 servers",
        _event_day,
        repeats=2,
    ),
    Scenario(
        "event_day_1008",
        "six simulated hours of discrete-event traffic on 1008 servers "
        "(the large-cluster lane of the batched event engine)",
        _event_day_1008,
        repeats=2,
    ),
    Scenario(
        "event_speedup",
        "batched-engine throughput on the event_day_96 workload against "
        "the seed-era loop's 61k events/s; the ratio lands in the "
        "dcsim.bench.event_speedup counter (floored) and "
        "dcsim.bench.event_speedup_ge_5x",
        _event_speedup,
        repeats=2,
    ),
    Scenario(
        "fig7_sweep",
        "the full Fig 7 blockage grid (three 19-point batched steady "
        "solves); honors --jobs, so it measures the parallel speedup of "
        "the sweep runner over the platform batches",
        _fig7_sweep,
        repeats=2,
    ),
    Scenario(
        "control_overhead",
        "the chaos plant with the bare greedy throttle, then with the "
        "decision-identical ControlLoop wrapper; the per-tick loop cost "
        "lands in control.bench.overhead_us_per_tick and the gate "
        "counter control.bench.overhead_le_500us",
        _control_overhead,
        repeats=2,
    ),
    Scenario(
        "solver_rhs",
        "800 RK4-pattern derivative evaluations of the chassis network, "
        "dict reference then vectorized kernel; the speedup lands in the "
        "solver.bench.speedup_ge_3x counter",
        _solver_rhs,
    ),
    Scenario(
        "fig7_batched",
        "one 19-point grille-blockage grid solved as a single batched "
        "steady-state call (the Fig 7 inner kernel)",
        _fig7_batched,
    ),
    Scenario(
        "solver_backend_sparse",
        "RK4-pattern derivative evaluations of the ~2.2k-node synthetic "
        "rack network, dense NumPy backend then SciPy CSR; the speedup "
        "lands in solver.bench.sparse_speedup (floored) and "
        "solver.bench.sparse_speedup_ge_3x",
        _solver_backend_sparse,
    ),
    Scenario(
        "service_latency",
        "cache-hit round trips against a live in-process simulation "
        "service; the p50 lands in service.bench.cache_hit_p50_ms and "
        "the gate counter service.bench.cache_hit_p50_le_50ms",
        _service_latency,
        repeats=2,
    ),
    Scenario(
        "solver_backend_transient",
        "an end-to-end transient of the synthetic rack network under "
        "backend='auto' (the solver.backend.sparse counter proves the "
        "auto threshold fired)",
        _solver_backend_transient,
    ),
    Scenario(
        "sprint_budget",
        "the control tournament's sprint budget: an 8 W, 20 g package "
        "sprinting to its junction limit (1009.4 s of a 3600 s horizon); "
        "solver.rk4_steps pins the run's stop at the limit",
        _sprint_budget,
    ),
)


def scenario_names() -> list[str]:
    """Names of every scenario in suite order."""
    return [scenario.name for scenario in SCENARIOS]


@dataclass
class ScenarioResult:
    """Measurements of one scenario."""

    name: str
    repeats: int
    times_s: list[float]
    counters: dict[str, int]

    @property
    def min_s(self) -> float:
        return min(self.times_s)

    @property
    def median_s(self) -> float:
        return statistics.median(self.times_s)

    def to_dict(self) -> dict[str, object]:
        return {
            "repeats": self.repeats,
            "times_s": self.times_s,
            "min_s": self.min_s,
            "median_s": self.median_s,
            "counters": dict(sorted(self.counters.items())),
        }


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return "nogit"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "nogit"


def run_scenarios(
    names: Sequence[str] | None = None,
    repeats: int | None = None,
    quick: bool = False,
    jobs: int = 1,
    echo: Callable[[str], None] | None = None,
    profiler: "cProfile.Profile | None" = None,
) -> dict[str, object]:
    """Run the suite and return the artifact dict (``BENCH_SCHEMA``).

    Collection is forced on for the duration so every scenario reports
    its deterministic work counters; the registry's prior enabled state
    and contents are restored afterwards.

    ``jobs`` reaches scenarios that measure a parallel sweep (e.g.
    ``fig7_sweep``). With ``jobs > 1`` those scenarios do their solver
    work in worker processes, so their counters move from the solver's
    to the runner's — compare artifacts measured at the same ``jobs``.
    The repeat loop itself always runs serially in-process through the
    runner: timing demands the measured work own the interpreter.

    ``profiler`` (a ``cProfile.Profile``) is enabled around every
    measured repeat, accumulating one profile across the selection.
    Tracing inflates wall times, so profiled reports are for hotspot
    hunting — don't gate them against an unprofiled baseline.
    """
    selected = SCENARIOS
    if names is not None:
        known = {scenario.name: scenario for scenario in SCENARIOS}
        missing = [name for name in names if name not in known]
        if missing:
            raise KeyError(
                f"unknown scenarios {missing}; choose from {scenario_names()}"
            )
        selected = tuple(known[name] for name in names)

    say = echo or (lambda _line: None)
    registry = get_registry()
    was_enabled = registry.enabled
    results: dict[str, ScenarioResult] = {}
    try:
        registry.enable()
        for scenario in selected:
            runner = scenario.build(quick, jobs)
            n_repeats = repeats or scenario.repeats

            def run_once(_repeat: int) -> float:
                registry.reset()
                if profiler is not None:
                    profiler.enable()
                try:
                    start = time.perf_counter()
                    runner()
                    return time.perf_counter() - start
                finally:
                    if profiler is not None:
                        profiler.disable()

            times: list[float] = list(
                sweep(
                    run_once,
                    range(n_repeats),
                    jobs=1,
                    label=f"bench.{scenario.name}",
                )
            )
            snapshot = registry.snapshot()
            results[scenario.name] = ScenarioResult(
                name=scenario.name,
                repeats=n_repeats,
                times_s=times,
                counters=dict(snapshot.counters),
            )
            say(
                f"  {scenario.name}: min {min(times) * 1e3:.1f} ms over "
                f"{n_repeats} runs"
            )
    finally:
        registry.reset()
        if not was_enabled:
            registry.disable()

    return {
        "schema": BENCH_SCHEMA,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "quick": quick,
        "jobs": jobs,
        "results": {name: result.to_dict() for name, result in results.items()},
    }


@dataclass
class Comparison:
    """Outcome of gating a current report against a baseline."""

    regressions: list[str] = field(default_factory=list)
    improvements: list[str] = field(default_factory=list)
    counter_drift: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines: list[str] = []
        for label, entries in (
            ("REGRESSION", self.regressions),
            ("improved", self.improvements),
            ("counter drift", self.counter_drift),
            ("note", self.notes),
        ):
            lines.extend(f"[{label}] {entry}" for entry in entries)
        if not lines:
            lines.append("all benchmarks within tolerance of baseline")
        return "\n".join(lines)


def compare_reports(
    current: dict[str, object],
    baseline: dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
    strict_counters: bool = False,
) -> Comparison:
    """Gate a current artifact against a baseline artifact.

    A scenario regresses when its best-of-repeats time exceeds the
    baseline's by more than ``tolerance`` (relative), or when it is
    missing from the current report. Counter differences are reported as
    drift, and fail the gate only under ``strict_counters``.
    """
    comparison = Comparison()
    for report, role in ((current, "current"), (baseline, "baseline")):
        if report.get("schema") != BENCH_SCHEMA:
            comparison.regressions.append(
                f"{role} report has schema {report.get('schema')!r}; "
                f"expected {BENCH_SCHEMA!r}"
            )
    if comparison.regressions:
        return comparison
    if bool(current.get("quick")) != bool(baseline.get("quick")):
        comparison.regressions.append(
            "quick-mode mismatch between current and baseline reports"
        )
        return comparison
    # Worker counts change both the times and where the counters land
    # (parent vs pool workers), so cross-jobs comparisons are apples to
    # oranges. Reports without the field (schema 1 artifacts predating
    # the runner) count as jobs=1.
    if int(current.get("jobs", 1)) != int(baseline.get("jobs", 1)):
        comparison.regressions.append(
            f"jobs mismatch between current ({current.get('jobs', 1)}) and "
            f"baseline ({baseline.get('jobs', 1)}) reports"
        )
        return comparison

    current_results = current.get("results", {})
    baseline_results = baseline.get("results", {})
    for name, base in baseline_results.items():
        cur = current_results.get(name)
        if cur is None:
            comparison.regressions.append(
                f"{name}: present in baseline but not measured"
            )
            continue
        base_s = float(base["min_s"])
        cur_s = float(cur["min_s"])
        ratio = cur_s / base_s if base_s > 0 else float("inf")
        detail = (
            f"{name}: {cur_s * 1e3:.1f} ms vs baseline "
            f"{base_s * 1e3:.1f} ms ({ratio:.2f}x)"
        )
        if ratio > 1.0 + tolerance:
            comparison.regressions.append(detail)
        elif ratio < 1.0 / (1.0 + tolerance):
            comparison.improvements.append(detail)

        base_counters = base.get("counters", {})
        cur_counters = cur.get("counters", {})
        for counter in sorted(set(base_counters) | set(cur_counters)):
            before = base_counters.get(counter)
            after = cur_counters.get(counter)
            if before != after:
                comparison.counter_drift.append(
                    f"{name}: {counter} {before} -> {after}"
                )
    for name in sorted(set(current_results) - set(baseline_results)):
        comparison.notes.append(f"{name}: new scenario, not in baseline")

    if strict_counters and comparison.counter_drift:
        comparison.regressions.extend(comparison.counter_drift)
    return comparison


def render_markdown_summary(
    current: dict[str, object],
    baseline: dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
) -> str:
    """A baseline-drift table in GitHub-flavored markdown.

    Written into ``$GITHUB_STEP_SUMMARY`` by the CI bench step so
    regressions are readable in the job page without downloading the
    ``BENCH_<sha>.json`` artifact. Status thresholds match
    :func:`compare_reports` at the same tolerance.
    """
    lines = [
        "## repro-bench vs baseline",
        "",
        f"Gate tolerance: +{tolerance:.0%} on best-of-repeats wall time "
        f"(commit `{current.get('git_sha', '?')}` vs baseline "
        f"`{baseline.get('git_sha', '?')}`).",
        "",
        "| scenario | baseline (ms) | current (ms) | ratio | status |",
        "| --- | ---: | ---: | ---: | --- |",
    ]
    current_results = current.get("results", {})
    baseline_results = baseline.get("results", {})
    for name in sorted(set(current_results) | set(baseline_results)):
        cur = current_results.get(name)
        base = baseline_results.get(name)
        if cur is None:
            lines.append(
                f"| {name} | {float(base['min_s']) * 1e3:.1f} | — | — | "
                f"**MISSING** |"
            )
            continue
        if base is None:
            lines.append(
                f"| {name} | — | {float(cur['min_s']) * 1e3:.1f} | — | new |"
            )
            continue
        base_s = float(base["min_s"])
        cur_s = float(cur["min_s"])
        ratio = cur_s / base_s if base_s > 0 else float("inf")
        if ratio > 1.0 + tolerance:
            status = "**REGRESSION**"
        elif ratio < 1.0 / (1.0 + tolerance):
            status = "improved"
        else:
            status = "ok"
        lines.append(
            f"| {name} | {base_s * 1e3:.1f} | {cur_s * 1e3:.1f} | "
            f"{ratio:.2f}x | {status} |"
        )
    drift_lines = []
    for name in sorted(set(current_results) & set(baseline_results)):
        base_counters = baseline_results[name].get("counters", {})
        cur_counters = current_results[name].get("counters", {})
        for counter in sorted(set(base_counters) | set(cur_counters)):
            before = base_counters.get(counter)
            after = cur_counters.get(counter)
            if before != after:
                drift_lines.append(
                    f"- `{name}`: `{counter}` {before} → {after}"
                )
    lines.append("")
    if drift_lines:
        lines.append("### Counter drift")
        lines.append("")
        lines.extend(drift_lines)
    else:
        lines.append("No counter drift.")
    return "\n".join(lines) + "\n"


def render_profile_markdown(
    profiler: cProfile.Profile, top: int = 25
) -> str:
    """The profiler's cumulative-time top-N as a markdown section.

    Appended to the ``--markdown-summary`` file (and echoed to stdout)
    by ``--profile`` runs, so the next hot loop is found by tooling
    instead of archaeology.
    """
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    return (
        f"### cProfile — top {top} by cumulative time\n\n"
        "```\n" + buffer.getvalue().rstrip() + "\n```\n"
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI: run the suite, write the artifact, optionally gate."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Run the tier-2 benchmark suite and gate on a baseline.",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=f"baseline artifact to gate against (e.g. {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="relative slowdown tolerated before failing (default %(default)s)",
    )
    parser.add_argument(
        "--output-dir",
        default=".",
        help="directory for the BENCH_<sha>.json artifact (default: cwd)",
    )
    parser.add_argument(
        "--update-baseline",
        default=None,
        metavar="PATH",
        help="also write the measured report as a new baseline",
    )
    parser.add_argument(
        "--scenarios",
        default=None,
        help="comma-separated scenario subset (default: all)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="override per-scenario repeat count",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller horizons for a fast smoke run (baseline must match)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for parallel-capable scenarios such as "
        "fig7_sweep (baseline must match; default 1)",
    )
    parser.add_argument(
        "--strict-counters",
        action="store_true",
        help="fail on any work-counter drift, not just slowdowns",
    )
    parser.add_argument(
        "--markdown-summary",
        default=None,
        metavar="PATH",
        help="append a markdown drift table to PATH (e.g. "
        "$GITHUB_STEP_SUMMARY); requires --baseline",
    )
    parser.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="wrap the measured repeats in cProfile and dump the raw "
        "pstats data to PATH; the cumulative-time top-N is printed and, "
        "with --markdown-summary, appended to the summary. Tracing "
        "inflates wall times, so pair with a scenario subset rather "
        "than the gate",
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=25,
        metavar="N",
        help="rows of the pstats table shown by --profile (default "
        "%(default)s)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        for scenario in SCENARIOS:
            print(f"{scenario.name}: {scenario.description}")
        return 0
    if args.tolerance < 0:
        print("tolerance must be non-negative", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    names = args.scenarios.split(",") if args.scenarios else None
    if names is not None:
        unknown = sorted(set(names) - set(scenario_names()))
        if unknown:
            print(
                f"unknown scenarios {unknown}; choose from {scenario_names()}",
                file=sys.stderr,
            )
            return 2
    if args.markdown_summary and args.baseline is None:
        print("--markdown-summary requires --baseline", file=sys.stderr)
        return 2

    # Load the gate baseline BEFORE any writes: with
    # --update-baseline PATH --baseline PATH the old behaviour wrote the
    # fresh report first and then gated the run against itself, which
    # can never fail. Reading up front also fails fast on a missing
    # baseline instead of after minutes of measurement.
    baseline: dict[str, object] | None = None
    if args.baseline is not None:
        baseline_path = Path(args.baseline)
        if not baseline_path.exists():
            print(f"baseline {baseline_path} does not exist", file=sys.stderr)
            return 2
        baseline = json.loads(baseline_path.read_text())

    if args.profile is not None and args.profile_top < 1:
        print("--profile-top must be >= 1", file=sys.stderr)
        return 2
    profiler = cProfile.Profile() if args.profile is not None else None

    print(f"running {len(names or SCENARIOS)} benchmark scenarios "
          f"({'quick' if args.quick else 'full'} mode)...")
    report = run_scenarios(
        names=names,
        repeats=args.repeats,
        quick=args.quick,
        jobs=args.jobs,
        echo=print,
        profiler=profiler,
    )

    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    artifact = output_dir / f"BENCH_{report['git_sha']}.json"
    artifact.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {artifact}")

    profile_section: str | None = None
    if profiler is not None:
        profile_path = Path(args.profile)
        profile_path.parent.mkdir(parents=True, exist_ok=True)
        profiler.dump_stats(profile_path)
        print(f"wrote profile {profile_path}")
        profile_section = render_profile_markdown(
            profiler, top=args.profile_top
        )
        print(profile_section)

    if args.update_baseline:
        update_path = Path(args.update_baseline)
        update_path.parent.mkdir(parents=True, exist_ok=True)
        update_path.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote baseline {update_path}")

    if baseline is None:
        return 0
    comparison = compare_reports(
        report,
        baseline,
        tolerance=args.tolerance,
        strict_counters=args.strict_counters,
    )
    print(comparison.render())
    if args.markdown_summary:
        summary_path = Path(args.markdown_summary)
        summary_path.parent.mkdir(parents=True, exist_ok=True)
        with summary_path.open("a") as handle:
            handle.write(
                render_markdown_summary(report, baseline, args.tolerance)
            )
            if profile_section is not None:
                handle.write("\n" + profile_section)
        print(f"appended summary to {summary_path}")
    return 0 if comparison.ok else 1


if __name__ == "__main__":
    sys.exit(main())
