"""The per-layer metrics of a traced run, and how they are computed.

``PER_LAYER`` is the list ``BENCHMARK.json`` declares, in order. Every
traced run reports every metric; a layer its workload does not exercise
reads 0.
"""

from __future__ import annotations

import mix

EXPERIMENT_IDS = (
    "table1", "table2", "fig1", "fig4", "fig7", "fig9", "fig10", "fig11",
    "fig11_faults", "fig12", "ablations", "extensions", "control_tournament",
)

#: Layers reported as ``<name>.calls`` and ``<name>.self_s``.
CALL_LAYERS = (
    "thermal.transient", "thermal.transient_batch", "server.characterize",
    "core.fluid_peaks", "dcsim.cluster_step", "dcsim.wax_exchange",
    "dcsim.decide", "dcsim.projected_release", "faults.injector",
    "control.decide", "runner.cache.get", "runner.cache.put",
)
#: Layers reported as ``<name>.self_s`` only.
SELF_LAYERS = (
    "thermal.steady", "dcsim.fluid", "dcsim.event", "workload.arrivals",
    "dcsim.geo", "dcsim.mixed", "control.mpc_plan", "sprinting.sprint",
    "service.transient_group", "service.cluster_group", "service.experiment",
)
#: Counters ``repro.obs`` keeps, reported as read.
COUNTERS = (
    "solver.rk4_steps", "solver.rhs_evals", "dcsim.server_ticks",
    "dcsim.fluid.stretch_ticks", "dcsim.fluid.scalar_ticks", "dcsim.events",
)
#: Artifact wall times of the untraced pass of a traced run.
ARTIFACT_TIMES = (
    "fig11", "fig12", "fig11_faults", "control_tournament", "ablations", "extensions",
)

PER_LAYER: list[tuple[str, str, str]] = (
    [(f"{n}.{part}", unit, "lower") for n in CALL_LAYERS for part, unit in (("calls", "count"), ("self_s", "s"))]
    + [(f"{n}.self_s", "s", "lower") for n in SELF_LAYERS]
    + [(n, "count", "lower") for n in COUNTERS]
    + [
        ("dcsim.fluid.stretch_share", "ratio", "higher"),
        ("runner.cache.hit_ratio", "ratio", "higher"),
        ("service.coalesced_share", "ratio", "higher"),
        ("service.wait_s", "s", "lower"),
        ("service.hit_latency_p50_ms", "ms", "lower"),
        ("service.miss_latency_p50_ms", "ms", "lower"),
        ("throughput_rps", "1/s", "higher"),
        ("latency_p50_ms", "ms", "lower"),
        ("latency_p95_ms", "ms", "lower"),
        ("mix.repeat_share", "ratio", "higher"),
        ("mix.sweep_share", "ratio", "higher"),
    ]
    + [(f"mix.{kind}_solve_share", "ratio", "lower") for kind in mix.KINDS]
    + [(f"{e}_s", "s", "lower") for e in ARTIFACT_TIMES]
    + [(f"experiments.{e}.self_s", "s", "lower") for e in EXPERIMENT_IDS]
    + [
        ("experiments.unattributed_share", "ratio", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(totals: dict, counters: dict, extra: dict) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from span totals, counters and extras.

    ``totals`` is :func:`tracing.layer_totals` output; ``counters`` the
    ``repro.obs`` counters; ``extra`` the metrics measured outside spans
    (client latencies, artifact times, tracing overhead, mix shares).
    """
    values: dict[str, float] = {}
    for name in CALL_LAYERS + SELF_LAYERS:
        entry = totals.get(name, {})
        if name in CALL_LAYERS:
            values[f"{name}.calls"] = entry.get("calls", 0)
        values[f"{name}.self_s"] = entry.get("self_s", 0.0)
    for name in COUNTERS:
        values[name] = counters.get(name, 0)
    values["dcsim.fluid.stretch_share"] = _share(
        counters.get("dcsim.fluid.stretch_ticks", 0),
        counters.get("dcsim.fluid.stretch_ticks", 0) + counters.get("dcsim.fluid.scalar_ticks", 0),
    )
    hits = counters.get("runner.cache.hit", 0)
    values["runner.cache.hit_ratio"] = _share(hits, hits + counters.get("runner.cache.miss", 0))
    values["service.coalesced_share"] = _share(
        counters.get("service.batch.coalesced", 0), counters.get("service.batch.jobs", 0)
    )
    experiment_self = experiment_total = 0.0
    for experiment_id in EXPERIMENT_IDS:
        entry = totals.get(f"experiments.{experiment_id}", {})
        values[f"experiments.{experiment_id}.self_s"] = entry.get("self_s", 0.0)
        experiment_self += entry.get("self_s", 0.0)
        experiment_total += entry.get("total_s", 0.0)
    values["experiments.unattributed_share"] = _share(experiment_self, experiment_total)
    values.update(extra)
    return {name: values.get(name, 0.0) for name, _, _ in PER_LAYER}
