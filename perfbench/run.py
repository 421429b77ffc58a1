"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Workloads: ``paper`` (one cold pass over the golden-pinned paper
artifacts), ``studies`` (one cold pass over the ablation and extension
studies) and ``service_mix`` (a seeded closed loop against a live
``python -m repro.service``). Each run is a fixed amount of work sized
to take about ``--seconds`` on a two-core machine; ``--seconds`` does
not cut the work short, because a partial pass measures something else.

With ``--trace 0`` the last line holds the end-to-end metrics, measured
with tracing off. With ``--trace 1`` the run repeats the workload with
the layer wrappers installed and ``REPRO_OBS=1``, and the last line holds
the per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper", "studies", "service_mix")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


def child_env(traced: bool) -> dict:
    """Environment of every process the benchmark starts."""
    env = {k: v for k, v in os.environ.items() if k not in ("REPRO_OBS", "REPRO_CACHE_DIR")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    if traced:
        env["REPRO_OBS"] = "1"
    return env


def _failed(report: dict) -> int:
    return len(report["errors"])


def _print_failures(label: str, report: dict) -> None:
    for key, errors in list(report["errors"].items())[:10]:
        print(f"  FAIL {label} {key}: {'; '.join(errors[:3])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "tests" / "golden").is_dir():
        print(
            f"perfbench: {ROOT} holds no program sources (src/repro) or golden "
            "files (tests/golden); run from a checkout of the repository",
            file=sys.stderr,
        )
        return 2

    import layers
    import passes
    import service_mix
    import tracing

    traced = bool(args.trace)
    work = ROOT / ".perfbench-work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    trace_dir = None
    if traced:
        trace_dir = ROOT / ".perfbench-trace"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir()
    try:
        if args.workload == "service_mix":
            result = service_mix.run(
                ROOT, work, args.seed, child_env(False), child_env(True), trace_dir
            )
        else:
            result = passes.run(
                ROOT, work, args.workload, child_env(False), child_env(True), trace_dir
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = result["untraced"]
    end_to_end = {
        "setup_s": result["setup_s"],
        "wall_s": untraced["wall_s"],
        "peak_rss_mb": untraced["peak_rss_mb"],
    }
    reports = [untraced] + ([result["traced"]] if traced else [])
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(_failed(r) for r in reports)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  setup samples (s): {', '.join(f'{s:.4f}' for s in result['setup_samples'])}")
    for name, unit in END_TO_END:
        print(f"  {name:<22} {end_to_end[name]:12.4f} {unit}")
    print(f"  {'error_rate':<22} {_failed(untraced) / untraced['attempted']:12.4f} ratio "
          f"({_failed(untraced)} of {untraced['attempted']} operations)")
    if "elapsed_s" in untraced:
        print(f"  {'two-lane elapsed':<22} {untraced['elapsed_s']:12.4f} s")
    for experiment_id, seconds in untraced.get("experiment_s", {}).items():
        print(f"  {experiment_id + '_s':<22} {seconds:12.4f} s")
    if args.workload == "service_mix":
        print(f"  mix: {json.dumps(result['mix'])}")
        if traced:
            shares = result["traced"]["solve_shares"]
            print(f"  mix server solve-time shares (traced): {json.dumps(shares)}")
        for name, unit in (("throughput_rps", "1/s"), ("latency_p50_ms", "ms"), ("latency_p95_ms", "ms"),
                           ("hit_latency_p50_ms", "ms"), ("miss_latency_p50_ms", "ms")):
            print(f"  {name:<22} {untraced[name]:12.4f} {unit}")
        print(f"  latency samples: {untraced['attempted']}")
    _print_failures("untraced", untraced)

    if not traced:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    else:
        run = result["traced"]
        _print_failures("traced", run)
        extra = {
            "trace.overhead_s": run["wall_s"] - untraced["wall_s"],
            "trace.overhead_share": run["wall_s"] / untraced["wall_s"] - 1.0,
        }
        extra.update({f"{e}_s": untraced.get("experiment_s", {}).get(e, 0.0) for e in layers.ARTIFACT_TIMES})
        if args.workload == "service_mix":
            extra.update({name: untraced[name] for name in ("throughput_rps", "latency_p50_ms", "latency_p95_ms")})
            extra["service.hit_latency_p50_ms"] = untraced["hit_latency_p50_ms"]
            extra["service.miss_latency_p50_ms"] = untraced["miss_latency_p50_ms"]
            extra["service.wait_s"] = run["wait_s"]
            extra["mix.repeat_share"] = result["mix"]["repeat_share"]
            extra["mix.sweep_share"] = result["mix"]["sweep_share"]
            extra.update(
                {f"mix.{kind}_solve_share": share for kind, share in run["solve_shares"].items()}
            )
        values = layers.per_layer(tracing.layer_totals(run["records"]), run["counters"], extra)
        metrics = {}
        for name, unit, _ in layers.PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:<36} {values[name]:14.6g} {unit}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
