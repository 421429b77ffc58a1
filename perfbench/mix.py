"""Seeded request generator for the ``service_mix`` workload.

Every spec the generator can emit comes from a fixed, finite catalog
(:func:`catalog`), so each one has an entry in the reference table of
direct library solves (``reference/service.json``). A seed picks which
catalog entries a run uses, their parameters and their order; the counts
per request class are fixed, so two seeds cost about the same to serve.

Per run: single transients, transient sweeps (one platform, six
variants, which the service coalesces into one batched solve), cluster
runs (96 or 1008 servers, 120 to 1440 ticks, all three platforms) and a
few cheap ``experiment`` specs. About a quarter of the requests repeat
an earlier request's body exactly, so cache hits sit beside misses.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

PLATFORMS = ("1u", "2u", "ocp")
TRANSIENT_UTILIZATIONS = tuple(round(0.30 + 0.05 * i, 2) for i in range(14))
TRANSIENT_MELTING_C = (None, 38.0, 41.0, 43.0, 45.0, 48.0, 52.0)
CLUSTER_SERVERS = (96, 1008)
CLUSTER_TICKS = (120, 360, 720, 1440)
CLUSTER_MELTING_C = (38.0, 43.0, 48.0)
CLUSTER_UTILIZATIONS = (0.5, 0.7, 0.9)
EXPERIMENT_IDS = ("table1", "table2", "fig1", "fig7", "fig10")

KINDS = ("transient", "sweep", "cluster", "experiment")
SWEEP_SIZE = 6
#: (fresh, repeated) requests per class and run. The repository records
#: no real traffic, so these counts are a design choice; README.md
#: ("service_mix traffic") gives the reasons and the measured cost shares.
SINGLES_PER_PLATFORM = (24, 8)
SWEEPS_PER_PLATFORM = (6, 2)
CLUSTERS_PER_CELL = 10  # per (server count, ticks) cell
CLUSTER_REPEATS = 28
EXPERIMENT_REPEATS = 7
TENANT = "perfbench"


def spec_key(spec: dict) -> str:
    """Reference-table key of one fully explicit spec dict."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def transient_spec(platform: str, utilization: float, melting_c) -> dict:
    return {
        "kind": "transient",
        "platform": platform,
        "utilization": utilization,
        "with_wax": True,
        "melting_point_c": melting_c,
        "grille_blockage": 0.0,
        "duration_s": 900.0,
        "output_interval_s": 60.0,
    }


def cluster_spec(
    platform: str, servers: int, ticks: int, melting_c: float, utilization: float
) -> dict:
    return {
        "kind": "cluster",
        "platform": platform,
        "server_count": servers,
        "melting_point_c": melting_c,
        "utilization": utilization,
        "inlet_temperature_c": 25.0,
        "wax_enabled": True,
        "frequency_ghz": 2.4,
        "ticks": ticks,
        "tick_s": 60.0,
    }


def experiment_spec(experiment_id: str) -> dict:
    return {"kind": "experiment", "experiment_id": experiment_id, "quick": True}


def catalog() -> list[dict]:
    """Every spec a request may carry, in a fixed order."""
    specs = [
        transient_spec(p, u, m)
        for p in PLATFORMS
        for u in TRANSIENT_UTILIZATIONS
        for m in TRANSIENT_MELTING_C
    ]
    specs += [
        cluster_spec(p, n, t, m, u)
        for n in CLUSTER_SERVERS
        for t in CLUSTER_TICKS
        for p in PLATFORMS
        for m in CLUSTER_MELTING_C
        for u in CLUSTER_UTILIZATIONS
    ]
    specs += [experiment_spec(e) for e in EXPERIMENT_IDS]
    return specs


@dataclass(frozen=True)
class Request:
    """One generated request: the exact bytes sent and what they ask for."""

    body: bytes
    kind: str  # "transient", "sweep", "cluster" or "experiment"
    members: tuple[str, ...]  # spec_key of each member, in result order
    repeat: bool


def _encode(body: dict) -> bytes:
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def _single(kind: str, spec: dict) -> Request:
    body = _encode({"tenant": TENANT, "spec": spec})
    return Request(body, kind, (spec_key(spec),), False)


def _sweep(members: list[dict]) -> Request:
    base = dict(members[0])
    variants = [
        {"utilization": m["utilization"], "melting_point_c": m["melting_point_c"]}
        for m in members
    ]
    body = _encode({"tenant": TENANT, "sweep": {"base": base, "variants": variants}})
    merged = [{**base, **variant} for variant in variants]
    return Request(body, "sweep", tuple(spec_key(m) for m in merged), False)


def generate(seed: int) -> list[Request]:
    """The request sequence for one seed (same seed, same bytes)."""
    rng = random.Random(seed)
    fresh: list[Request] = []
    repeats: list[tuple[str, int]] = []  # (kind, how many)

    for platform in PLATFORMS:
        pool = [
            transient_spec(platform, u, m)
            for u in TRANSIENT_UTILIZATIONS
            for m in TRANSIENT_MELTING_C
        ]
        rng.shuffle(pool)
        n_sweeps, _ = SWEEPS_PER_PLATFORM
        n_singles, _ = SINGLES_PER_PLATFORM
        for index in range(n_sweeps):
            fresh.append(_sweep(pool[index * SWEEP_SIZE:(index + 1) * SWEEP_SIZE]))
        taken = n_sweeps * SWEEP_SIZE
        fresh += [_single("transient", s) for s in pool[taken:taken + n_singles]]
    repeats.append(("transient", SINGLES_PER_PLATFORM[1] * len(PLATFORMS)))
    repeats.append(("sweep", SWEEPS_PER_PLATFORM[1] * len(PLATFORMS)))

    for servers in CLUSTER_SERVERS:
        for ticks in CLUSTER_TICKS:
            cell = [
                cluster_spec(p, servers, ticks, m, u)
                for p in PLATFORMS
                for m in CLUSTER_MELTING_C
                for u in CLUSTER_UTILIZATIONS
            ]
            fresh += [
                _single("cluster", s) for s in rng.sample(cell, CLUSTERS_PER_CELL)
            ]
    repeats.append(("cluster", CLUSTER_REPEATS))

    fresh += [_single("experiment", experiment_spec(e)) for e in EXPERIMENT_IDS]
    repeats.append(("experiment", EXPERIMENT_REPEATS))

    sequence = list(fresh)
    rng.shuffle(sequence)
    for kind, count in repeats:
        for _ in range(count):
            originals = [
                i for i, r in enumerate(sequence) if r.kind == kind and not r.repeat
            ]
            origin = rng.choice(originals)
            copy = Request(sequence[origin].body, kind, sequence[origin].members, True)
            sequence.insert(rng.randint(origin + 1, len(sequence)), copy)
    return sequence


def describe(sequence: list[Request]) -> dict[str, object]:
    """Repeat share, sweep share and per-kind counts of a sequence."""
    kinds: dict[str, int] = {}
    for request in sequence:
        kinds[request.kind] = kinds.get(request.kind, 0) + 1
    total = len(sequence)
    return {
        "requests": total,
        "members": sum(len(r.members) for r in sequence),
        "repeat_share": sum(r.repeat for r in sequence) / total,
        "sweep_share": kinds.get("sweep", 0) / total,
        "kinds": dict(sorted(kinds.items())),
    }
