"""One lane of an experiment pass, run in a fresh process.

``python3 perfbench/lane.py --ids fig9,fig12 --reference golden`` imports
the experiment registry and every other ``repro`` module, runs each id
in quick mode with ``jobs=1`` and the cache off, checks each result, and
prints one JSON line: when the imports were done, each experiment's
start and end (monotonic clock, comparable across processes), its check
failures and the peak RSS. ``--probe`` only does the imports and prints
when they were done (the set-up probe). ``--trace-out FILE`` installs
the layer wrappers first and writes the spans to FILE.

Traced lanes must import every module to wrap by-value imports, so every
lane does: the imports count in set-up time, and traced and untraced
passes time the same experiment work.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE.parent / "tests" / "golden"
STUDIES_REFERENCE = HERE / "reference" / "studies.json"


def _references(kind: str, ids: list[str]) -> dict[str, dict]:
    if kind == "golden":
        return {i: json.loads((GOLDEN_DIR / f"{i}.json").read_text()) for i in ids}
    return json.loads(STUDIES_REFERENCE.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--ids", default="")
    parser.add_argument("--reference", choices=("golden", "studies"), default="golden")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    from repro.experiments import registry

    import tracing

    tracing.import_all()
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    import checks

    tracer = None
    if args.trace_out:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    ids = args.ids.split(",")
    references = _references(args.reference, ids)
    rows = []
    for experiment_id in ids:
        start = time.monotonic()
        try:
            result = registry.run_experiment(experiment_id, quick=True, jobs=1, cache=False)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            result = None
            errors = [f"raised {type(exc).__name__}: {exc}"]
        end = time.monotonic()
        if result is not None:
            errors = checks.compare(checks.fingerprint(result), references[experiment_id])
            errors += checks.shape_errors(experiment_id, result.summary)
        rows.append({"id": experiment_id, "start": start, "end": end, "errors": errors})

    report = {
        "ready": ready,
        "experiments": rows,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from repro import obs

        tracer.dump(args.trace_out)
        report["counters"] = obs.snapshot().counters
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
