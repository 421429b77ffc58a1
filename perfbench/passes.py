"""The ``paper`` and ``studies`` workloads: one cold pass per run.

A pass runs its experiments in two lanes, each a fresh single-threaded
process (``lane.py``), side by side on the two cores the benchmark
assumes. Set-up time is measured apart, by probe processes that only
import the program's modules.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent

#: Each lane keeps registry order; the split balances the two lanes.
LANES = {
    "paper": (
        ("table1", "table2", "fig1", "fig4", "fig7", "fig10", "fig11", "control_tournament"),
        ("fig9", "fig11_faults", "fig12"),
    ),
    "studies": (("ablations",), ("extensions",)),
}
REFERENCE = {"paper": "golden", "studies": "studies"}
SETUP_PROBES = 5
LANE_TIMEOUT_S = 100.0


def _last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def setup_samples(root: Path, env: dict) -> list[float]:
    """Seconds from process spawn until every module is imported."""
    samples = []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(HERE / "lane.py"), "--probe"],
            cwd=root, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(_last_json_line(out.stdout)["ready"] - spawned)
    return samples


def _crash_text(err_path: Path, timed_out: bool) -> str:
    """Why a lane gave no report, with the tail of its standard error."""
    tail = err_path.read_text(errors="replace").strip().splitlines()[-5:]
    cause = f"lane timed out after {LANE_TIMEOUT_S:.0f} s" if timed_out else "lane crashed"
    return " | ".join([cause] + tail)


def _spans(trace_dir: Path, workload: str, index: int) -> Path:
    return trace_dir / f"{workload}-lane{index}.spans"


def run_pass(root: Path, work: Path, workload: str, env: dict, trace_dir: Path | None) -> dict:
    """One pass of ``workload``; traced passes also return span records."""
    processes = []
    for index, ids in enumerate(LANES[workload]):
        command = [
            sys.executable, str(HERE / "lane.py"),
            "--ids", ",".join(ids), "--reference", REFERENCE[workload],
        ]
        if trace_dir is not None:
            command += ["--trace-out", str(_spans(trace_dir, workload, index))]
        err_path = work / f"lane{index}.err"
        stderr = open(err_path, "w")
        processes.append(
            (ids, err_path, stderr, subprocess.Popen(
                command, cwd=root, env=env, stdout=subprocess.PIPE, stderr=stderr, text=True,
            ))
        )
    lanes = []
    for ids, err_path, stderr, process in processes:
        timed_out = False
        try:
            stdout, _ = process.communicate(timeout=LANE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            timed_out = True
            process.kill()
            stdout, _ = process.communicate()
        stderr.close()
        try:
            lanes.append(_last_json_line(stdout))
        except (ValueError, IndexError):
            crash = _crash_text(err_path, timed_out)
            lanes.append({"experiments": [{"id": i, "errors": [crash]} for i in ids]})

    rows = [row for lane in lanes for row in lane["experiments"]]
    timed = [row for row in rows if "start" in row]
    experiment_s = {r["id"]: r["end"] - r["start"] for r in timed}
    report = {
        # What a serial `repro-experiments <ids> --quick` waits for after
        # set-up: the sum of the experiments' wall times.
        "wall_s": sum(experiment_s.values()),
        "elapsed_s": max(r["end"] for r in timed) - min(r["start"] for r in timed) if timed else 0.0,
        "peak_rss_mb": max(lane.get("peak_rss_mb", 0.0) for lane in lanes),
        "experiment_s": experiment_s,
        "attempted": len(rows),
        "errors": {r["id"]: r["errors"] for r in rows if r["errors"]},
        "records": [],
        "counters": {},
    }
    if trace_dir is not None:
        for index, lane in enumerate(lanes):
            spans = _spans(trace_dir, workload, index)
            if spans.exists():
                report["records"] += tracing.load(str(spans))
            for name, value in lane.get("counters", {}).items():
                report["counters"][name] = report["counters"].get(name, 0) + value
    return report


def run(
    root: Path, work: Path, workload: str, env: dict, traced_env: dict, trace_dir: Path | None
) -> dict:
    """Set-up probes and an untraced pass; a traced pass when asked."""
    setups = setup_samples(root, env)
    result = {"setup_s": statistics.median(setups), "setup_samples": setups}
    result["untraced"] = run_pass(root, work, workload, env, None)
    if trace_dir is not None:
        result["traced"] = run_pass(root, work, workload, traced_env, trace_dir)
    return result
