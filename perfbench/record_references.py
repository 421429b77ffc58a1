"""Record the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record_references.py [studies] [service]

``studies`` writes ``reference/studies.json``: the golden-scheme
fingerprints of the quick-mode ``ablations`` and ``extensions`` results.
``service`` writes ``reference/service.json``: for every spec in the
``service_mix`` catalog, the fingerprint of its payload as solved by a
direct library call (no service, no batching, no cache). Run it only on
a commit whose outputs are known good; the paper artifacts are checked
against ``tests/golden/`` instead and are never recorded here.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import numpy as np

import checks
import mix

HERE = Path(__file__).resolve().parent


def record_studies() -> dict:
    from repro.experiments.registry import run_experiment

    return {
        experiment_id: checks.fingerprint(run_experiment(experiment_id, quick=True, cache=False))
        for experiment_id in ("ablations", "extensions")
    }


def _transient_payload(spec) -> dict:
    from repro.materials.library import commercial_paraffin_with_melting_point
    from repro.server.chassis import constant_utilization
    from repro.server.configs import platform_by_name
    from repro.thermal.solver import simulate_transient_batch

    if spec.melting_point_c is None:
        platform = platform_by_name(spec.platform)
    else:
        material = commercial_paraffin_with_melting_point(spec.melting_point_c)
        platform = platform_by_name(spec.platform, wax_material=material)
    network = platform.chassis.build_network(
        constant_utilization(spec.utilization), with_wax=spec.with_wax
    )
    member = simulate_transient_batch(
        [network], spec.duration_s, output_interval_s=spec.output_interval_s
    ).results[0]
    return {
        "times_s": member.times_s,
        "temperatures_c": member.temperatures_c,
        "air_temperatures_c": member.air_temperatures_c,
        "flow_m3_s": member.flow_m3_s,
        "melt_fractions": member.melt_fractions,
        "pcm_enthalpies_j": member.pcm_enthalpies_j,
        "power_w": member.power_w,
    }


@functools.cache
def _characterized(name: str):
    from repro.server.characterization import characterize_platform
    from repro.server.configs import platform_by_name

    platform = platform_by_name(name)
    return characterize_platform(platform), platform.power_model


def _cluster_payload(spec) -> dict:
    from repro.dcsim.thermal_coupling import BatchedClusterThermalState
    from repro.materials.library import commercial_paraffin_with_melting_point

    characterization, power_model = _characterized(spec.platform)
    servers = spec.server_count
    state = BatchedClusterThermalState(
        characterization,
        power_model,
        [commercial_paraffin_with_melting_point(spec.melting_point_c)],
        cluster_count=1,
        server_count=servers,
        inlet_temperature_c=np.array([spec.inlet_temperature_c]),
        initial_utilization=np.array([spec.utilization]),
        wax_enabled=np.array([spec.wax_enabled]),
    )
    utilization = np.full((1, servers), spec.utilization)
    frequency = np.array([spec.frequency_ghz])
    series = {name: np.zeros(spec.ticks) for name in (
        "power_w", "heat_release_w", "wax_heat_w", "zone_mean_c", "zone_max_c",
        "melt_fraction_mean", "stored_latent_heat_j",
    )}
    for tick in range(spec.ticks):
        power_w, heat_w, wax_w = state.step(spec.tick_s, utilization, frequency)
        series["power_w"][tick] = np.sum(power_w, axis=1)[0]
        series["heat_release_w"][tick] = np.sum(heat_w, axis=1)[0]
        series["wax_heat_w"][tick] = np.sum(wax_w, axis=1)[0]
        series["zone_mean_c"][tick] = np.mean(state.zone_temperature_c, axis=1)[0]
        series["zone_max_c"][tick] = np.max(state.zone_temperature_c, axis=1)[0]
        series["melt_fraction_mean"][tick] = np.mean(state.melt_fraction, axis=1)[0]
        series["stored_latent_heat_j"][tick] = state.stored_latent_heat_j[0]
    return {"times_s": np.arange(1, spec.ticks + 1) * spec.tick_s, **series}


def record_service() -> dict:
    from repro.experiments.registry import run_experiment
    from repro.runner.serialize import encode_experiment_result
    from repro.service.api import API_SCHEMA, ExperimentSpec, TransientSpec, fingerprint_payload, parse_spec

    table = {}
    for spec_dict in mix.catalog():
        spec = parse_spec(spec_dict)
        if isinstance(spec, ExperimentSpec):
            payload = encode_experiment_result(run_experiment(spec.experiment_id, quick=spec.quick))
        else:
            solve = _transient_payload if isinstance(spec, TransientSpec) else _cluster_payload
            payload = {"schema": API_SCHEMA, "spec": spec.payload(), **solve(spec)}
        table[mix.spec_key(spec_dict)] = fingerprint_payload(payload)
    return table


def main(argv: list[str]) -> int:
    targets = argv or ["studies", "service"]
    recorders = {"studies": record_studies, "service": record_service}
    for target in targets:
        path = HERE / "reference" / f"{target}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(recorders[target](), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
