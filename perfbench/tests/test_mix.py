"""The service_mix generator: deterministic per seed, covered by the
reference table; and BENCHMARK.json agrees with the metrics reported."""

from __future__ import annotations

import json
from pathlib import Path

import layers
import mix

BENCH = Path(__file__).resolve().parents[1]


def test_same_seed_same_bytes():
    first = mix.generate(7)
    second = mix.generate(7)
    assert [r.body for r in first] == [r.body for r in second]
    assert first == second


def test_different_seeds_differ():
    bodies = {tuple(r.body for r in mix.generate(seed)) for seed in range(5)}
    assert len(bodies) == 5


def test_fixed_composition_across_seeds():
    for seed in range(3):
        stats = mix.describe(mix.generate(seed))
        assert stats["requests"] == 240
        assert stats["kinds"] == {"cluster": 108, "experiment": 12, "sweep": 24, "transient": 96}
        assert stats["repeat_share"] == 65 / 240
        assert stats["sweep_share"] == 24 / 240


def test_repeats_follow_their_original_and_fresh_specs_never_repeat():
    sequence = mix.generate(3)
    seen: set[bytes] = set()
    for request in sequence:
        assert (request.body in seen) == request.repeat
        seen.add(request.body)
    fresh_members = [key for r in sequence if not r.repeat for key in r.members]
    assert len(fresh_members) == len(set(fresh_members))


def test_every_generated_spec_has_a_reference():
    table = json.loads((BENCH / "reference" / "service.json").read_text())
    assert set(table) == {mix.spec_key(spec) for spec in mix.catalog()}
    for seed in range(3):
        for request in mix.generate(seed):
            assert all(key in table for key in request.members)


def test_benchmark_json_lists_the_reported_per_layer_metrics():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER
    ]
