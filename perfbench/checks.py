"""Output checks: a result that fails one counts as a failed operation.

Experiment results are compared by fingerprint, with the scheme and the
tolerances of ``tests/test_golden_figures.py``: summary and paper scalars
at rel 1e-9 / abs 1e-12, table rows verbatim, and per-series statistics.
The ``studies`` results must also keep the shape the
``benchmarks/test_bench_{ablations,extensions}.py`` suites assert.
Service responses are compared by payload fingerprint against a table of
direct library solves.
"""

from __future__ import annotations

import json
import math

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-12


def _plain(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


def _series_stats(values) -> dict[str, float]:
    flat = np.ravel(np.asarray(values, dtype=float))
    if flat.size == 0:
        return {"len": 0}
    return {
        "len": int(flat.size),
        "mean": float(np.mean(flat)),
        "min": float(np.min(flat)),
        "max": float(np.max(flat)),
        "first": float(flat[0]),
        "last": float(flat[-1]),
    }


def fingerprint(result) -> dict:
    """The golden-figure fingerprint of a quick-mode result, as JSON data."""
    data = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "quick": True,
        "summary": {k: float(v) for k, v in result.summary.items()},
        "paper": {k: float(v) for k, v in result.paper.items()},
        "tables": {
            caption: [list(headers), [list(row) for row in rows]]
            for caption, (headers, rows) in result.tables.items()
        },
        "series": {name: _series_stats(v) for name, v in result.series.items()},
    }
    return json.loads(json.dumps(data, default=_plain))


def _close(got: float, want: float) -> bool:
    if got == want:
        return True
    return math.isfinite(got) and math.isfinite(want) and abs(got - want) <= max(
        REL_TOL * abs(want), ABS_TOL
    )


def _compare_scalars(section: str, got: dict, want: dict) -> list[str]:
    if set(got) != set(want):
        return [f"{section}: key set changed"]
    return [
        f"{section}[{key}] {got[key]!r} != {value!r}"
        for key, value in want.items()
        if not _close(got[key], value)
    ]


def compare(got: dict, want: dict) -> list[str]:
    """Mismatches of fingerprint ``got`` against reference ``want``."""
    errors = []
    if got["title"] != want["title"]:
        errors.append("title changed")
    errors += _compare_scalars("summary", got["summary"], want["summary"])
    errors += _compare_scalars("paper", got["paper"], want["paper"])
    if set(got["tables"]) != set(want["tables"]):
        errors.append("table set changed")
    else:
        errors += [
            f"table {caption!r} changed"
            for caption, table in want["tables"].items()
            if got["tables"][caption] != table
        ]
    if set(got["series"]) != set(want["series"]):
        errors.append("series set changed")
        return errors
    for name, stats in want["series"].items():
        got_stats = got["series"][name]
        if got_stats["len"] != stats["len"]:
            errors.append(f"series {name!r} length changed")
            continue
        errors += [
            f"series {name!r}.{stat} {got_stats[stat]!r} != {value!r}"
            for stat, value in stats.items()
            if stat != "len" and not _close(got_stats[stat], value)
        ]
    return errors


def _shape_ablations(s: dict) -> list[tuple[str, bool]]:
    return [
        ("reduction_monotonic_up_to_deployed", s["reduction_monotonic_up_to_deployed"] == 1.0),
        ("deployed_volume_near_knee", s["deployed_volume_near_knee"] == 1.0),
        ("best_reduction > 0.05", s["best_reduction"] > 0.05),
        ("41 <= best_melting_point_c <= 46", 41.0 <= s["best_melting_point_c"] <= 46.0),
        ("0 <= premium_wax_extra_reduction <= 0.03", 0.0 <= s["premium_wax_extra_reduction"] <= 0.03),
        ("lb_policy_peak_difference < 0.02", s["lb_policy_peak_difference"] < 0.02),
    ]


def _shape_extensions(s: dict) -> list[tuple[str, bool]]:
    return [
        ("|energy_cost_savings_fraction| < 0.02", abs(s["energy_cost_savings_fraction"]) < 0.02),
        ("tank_peak_reduction > 0", s["tank_peak_reduction"] > 0.0),
        ("tank_capital_over_pcm > 1", s["tank_capital_over_pcm"] > 1.0),
        ("tank_standing_loss_kwh_per_two_days > 0", s["tank_standing_loss_kwh_per_two_days"] > 0.0),
        ("classes_surviving_4_years == 2", s["classes_surviving_4_years"] == 2.0),
        ("commercial_paraffin_capacity_after_4y > 0.9", s["commercial_paraffin_capacity_after_4y"] > 0.9),
        ("melting_point_spread_across_shapes_c <= 8", s["melting_point_spread_across_shapes_c"] <= 8.0),
        ("sprint_extension_ratio > 3", s["sprint_extension_ratio"] > 3.0),
        ("timescale_separation > 10", s["timescale_separation"] > 10.0),
        (
            "geo_served_fraction > solo_served_fraction + 0.02",
            s["geo_served_fraction"] > s["solo_served_fraction"] + 0.02,
        ),
        (
            "geo_pcm_served_fraction >= geo_served_fraction - 1e-6",
            s["geo_pcm_served_fraction"] >= s["geo_served_fraction"] - 1e-6,
        ),
    ]


_SHAPES = {"ablations": _shape_ablations, "extensions": _shape_extensions}


def shape_errors(experiment_id: str, summary: dict) -> list[str]:
    """Shape assertions of the studies benchmark suites that fail."""
    shape = _SHAPES.get(experiment_id)
    if shape is None:
        return []
    try:
        return [f"shape: {label}" for label, ok in shape(summary) if not ok]
    except KeyError as exc:
        return [f"shape: summary lacks {exc}"]


def response_errors(status: int, body: dict | None, members, table: dict) -> list[str]:
    """Why one service response fails its check (empty when it passes).

    ``members`` are the reference-table keys of the request's specs, in
    result order; ``table`` maps each key to its direct-solve fingerprint.
    """
    if status != 200 or body is None:
        return [f"status {status}"]
    results = body.get("results", [])
    if len(results) != len(members):
        return [f"{len(results)} results for {len(members)} specs"]
    errors = []
    for index, (result, key) in enumerate(zip(results, members)):
        want = table.get(key)
        if result.get("event") != "result":
            errors.append(f"member {index}: {result.get('event')}")
        elif want is None:
            errors.append(f"member {index}: spec missing from the reference table")
        elif result.get("fingerprint") != want:
            errors.append(f"member {index}: fingerprint differs from direct solve")
    return errors
