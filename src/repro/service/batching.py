"""Request coalescing and the group solvers behind it.

The coalescer is the piece that makes the service cheaper than a loop
of CLI invocations: requests arriving within one collection window
whose specs share a *group key* (same structure — platform, horizon,
output grid; see ``Spec.group_key()``) are solved as **one** batched
call into the library (:func:`repro.thermal.solver
.simulate_transient_batch` for transients, one stacked
:class:`~repro.dcsim.thermal_coupling.BatchedClusterThermalState` for
cluster runs) instead of N scalar ones.

Coalescing is only safe because it is invisible: both batched paths
advance every member elementwise in the exact operation order of a lone
run, so a member's trajectory — and therefore its payload fingerprint —
is byte-identical whether it was solved alone or sharing a batch with
strangers. For transients that additionally requires all members to
share one RK4 step, so a flushed group is partitioned by each member's
resolved stability step before solving; members of different partitions
still amortize network compilation but integrate separately.

Identical requests (same cache address) never solve twice: the
coalescer keeps an in-flight map, so duplicates attach as *waiters* on
the first request's job, and finished payloads land in the shared
:class:`~repro.runner.cache.ResultCache`. A job whose waiters all
disconnect is cancelled: pending jobs are dropped at flush, and a
running group solve aborts (via the solver's ``progress_cb``) once
**all** members of the batch are cancelled — one impatient client
cannot kill a solve that others still want.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import Future
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

import numpy as np

from repro import obs
from repro.errors import ReproError
from repro.runner.cache import MISS, ResultCache, cache_key
from repro.service.api import (
    API_SCHEMA,
    ClusterSpec,
    ExperimentSpec,
    Spec,
    TransientSpec,
    cache_spec,
    fingerprint_payload,
)
from repro.service.workers import WorkerPool


class JobCancelled(ReproError):
    """Every waiter of a job went away before its solve finished."""


@dataclass(frozen=True)
class JobOutcome:
    """What a finished job resolves to.

    ``payload`` lives in the tagged-codec value space (it may contain
    numpy arrays); ``fingerprint`` is its content hash; ``cached`` marks
    a result answered from the shared cache without solving;
    ``batch_size`` is how many members shared the solve that produced
    it (0 for cache hits).
    """

    payload: Any
    fingerprint: str
    cached: bool
    batch_size: int


class Job:
    """One unit of in-flight work, shared by all identical requests.

    Waiter accounting drives cancellation: every attached client holds
    one reference; :meth:`release` drops one, and when the count hits
    zero the job's cancel event is set. Progress events fan out to
    per-subscriber asyncio queues via ``call_soon_threadsafe``, since
    solves run on worker threads while clients await on the event loop.
    """

    def __init__(self, spec: Spec, key: str) -> None:
        self.spec = spec
        self.key = key
        self.trace_id = obs.current_trace_id()
        self.future: Future = Future()
        self.cancel_event = threading.Event()
        self._waiters = 0
        self._lock = threading.Lock()
        self._subscribers: list[tuple[asyncio.AbstractEventLoop, asyncio.Queue]] = []

    # -- waiter accounting -------------------------------------------------

    def acquire(self) -> None:
        """Attach one waiter."""
        with self._lock:
            self._waiters += 1

    def try_join(self) -> bool:
        """Attach one waiter iff the job has not been cancelled.

        A running job whose waiters all left is doomed: its cancel
        event may already have been observed by the solver, which will
        fail it shortly. Joining such a job would hand a brand-new,
        actively-waiting client a spurious ``cancelled`` response, so
        the check and the waiter increment happen atomically under the
        job lock (:meth:`release` sets the event under the same lock).
        A finished job is always joinable — its outcome exists.
        """
        with self._lock:
            if self.cancel_event.is_set() and not self.future.done():
                return False
            self._waiters += 1
            return True

    def release(self) -> None:
        """Detach one waiter; the last one out cancels the job."""
        with self._lock:
            self._waiters -= 1
            if self._waiters <= 0 and not self.future.done():
                self.cancel_event.set()

    @property
    def cancelled(self) -> bool:
        return self.cancel_event.is_set()

    # -- progress fan-out --------------------------------------------------

    def subscribe(self) -> asyncio.Queue:
        """An asyncio queue receiving this job's progress events.

        Must be called from a running event loop; the queue also gets a
        ``None`` sentinel when the job reaches a terminal state. A job
        that is already finished (a cache hit resolved synchronously in
        :meth:`Coalescer.submit`, or an in-flight job that finished
        before this subscriber arrived) delivers the sentinel
        immediately — the terminal fan-out snapshotted the subscriber
        list before this queue joined it, and without the sentinel a
        streaming client would block on the queue forever.
        """
        queue: asyncio.Queue = asyncio.Queue()
        with self._lock:
            self._subscribers.append((asyncio.get_running_loop(), queue))
            if self.future.done():
                queue.put_nowait(None)
        return queue

    def _fan_out(self, event: dict | None) -> None:
        with self._lock:
            subscribers = list(self._subscribers)
        for loop, queue in subscribers:
            try:
                loop.call_soon_threadsafe(queue.put_nowait, event)
            except RuntimeError:
                pass  # loop already closed; nothing to notify

    def publish_progress(self, done: int, total: int, time_s: float) -> None:
        """Emit one progress event to every subscriber (thread-safe)."""
        self._fan_out(
            {
                "event": "progress",
                "done": done,
                "total": total,
                "time_s": time_s,
            }
        )

    # -- terminal states ---------------------------------------------------

    def finish(self, outcome: JobOutcome) -> None:
        if not self.future.done():
            self.future.set_result(outcome)
        self._fan_out(None)

    def fail(self, exc: BaseException) -> None:
        if not self.future.done():
            self.future.set_exception(exc)
        self._fan_out(None)


# ---------------------------------------------------------------------------
# Model construction helpers (cached: characterization is expensive)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _platform(name: str, melting_point_c: float | None):
    from repro.materials.library import commercial_paraffin_with_melting_point
    from repro.server.configs import platform_by_name

    if melting_point_c is None:
        return platform_by_name(name)
    return platform_by_name(
        name,
        wax_material=commercial_paraffin_with_melting_point(melting_point_c),
    )


@lru_cache(maxsize=8)
def _characterized(name: str):
    """One (characterization, power model) pair per platform.

    The characterization is geometry/airflow data only — independent of
    the wax blend — so one run of the detailed chassis model serves
    every melting-point variant the service ever sees.
    """
    from repro.server.characterization import characterize_platform

    spec = _platform(name, None)
    return characterize_platform(spec), spec.power_model


def _transient_network(spec: TransientSpec):
    from repro.server.chassis import constant_utilization

    chassis = _platform(spec.platform, spec.melting_point_c).chassis
    if spec.grille_blockage > 0.0:
        chassis = chassis.with_grille_blockage(spec.grille_blockage)
    return chassis.build_network(
        constant_utilization(spec.utilization), with_wax=spec.with_wax
    )


# ---------------------------------------------------------------------------
# Group solvers (run on worker threads)
# ---------------------------------------------------------------------------


def _finish_member(
    cache: ResultCache | None,
    job: Job,
    payload: dict[str, Any],
    batch_size: int,
) -> None:
    if cache is not None:
        cache.put(cache_spec(job.spec), payload)
    job.finish(
        JobOutcome(
            payload=payload,
            fingerprint=fingerprint_payload(payload),
            cached=False,
            batch_size=batch_size,
        )
    )


def _live_members(jobs: list[Job]) -> list[Job]:
    """Drop jobs already cancelled before the solve starts."""
    live = []
    for job in jobs:
        if job.cancelled:
            job.fail(JobCancelled(f"job {job.key[:12]} cancelled before solve"))
        else:
            live.append(job)
    return live


def solve_transient_group(jobs: list[Job], cache: ResultCache | None) -> None:
    """Solve a flushed group of transient jobs on one worker thread.

    Members are partitioned by their resolved RK4 step (the batch runs
    at the most conservative member's step, so mixing steps would change
    trajectories); each partition becomes one
    :func:`~repro.thermal.solver.simulate_transient_batch` call whose
    member results are byte-identical to solo runs.
    """
    from repro.thermal.solver import (
        DEFAULT_STEP_SAFETY,
        _resolve_step,
        simulate_transient_batch,
    )

    jobs = _live_members(jobs)
    if not jobs:
        return

    partitions: dict[float, list[tuple[Job, Any]]] = {}
    for job in jobs:
        spec = job.spec
        try:
            network = _transient_network(spec)
            step = _resolve_step(
                network, DEFAULT_STEP_SAFETY, None, spec.output_interval_s
            )
        except Exception as exc:  # noqa: BLE001 - routed to the job
            job.fail(exc)
            continue
        partitions.setdefault(step, []).append((job, network))

    for members in partitions.values():
        part_jobs = [job for job, _ in members]
        networks = [network for _, network in members]
        spec0: TransientSpec = part_jobs[0].spec

        def progress(done: int, total: int, time_s: float) -> None:
            all_cancelled = True
            for job in part_jobs:
                if not job.cancelled:
                    all_cancelled = False
                    job.publish_progress(done, total, time_s)
            if all_cancelled:
                raise JobCancelled("every waiter of the batch disconnected")

        try:
            batch = simulate_transient_batch(
                networks,
                spec0.duration_s,
                output_interval_s=spec0.output_interval_s,
                progress_cb=progress,
            )
        except JobCancelled as exc:
            obs.count("service.solve.aborted")
            for job in part_jobs:
                job.fail(exc)
            continue
        except Exception as exc:  # noqa: BLE001 - routed to the jobs
            for job in part_jobs:
                job.fail(exc)
            continue

        obs.get_registry().count_many(
            {"service.solves": 1, "service.solve.members": len(part_jobs)}
        )
        for index, job in enumerate(part_jobs):
            result = batch[index]
            if result is None:
                from repro.errors import SolverError

                job.fail(
                    SolverError(batch.failures.get(index, "member diverged"))
                )
                continue
            payload = {
                "schema": API_SCHEMA,
                "spec": job.spec.payload(),
                "times_s": result.times_s,
                "temperatures_c": result.temperatures_c,
                "air_temperatures_c": result.air_temperatures_c,
                "flow_m3_s": result.flow_m3_s,
                "melt_fractions": result.melt_fractions,
                "pcm_enthalpies_j": result.pcm_enthalpies_j,
                "power_w": result.power_w,
            }
            _finish_member(cache, job, payload, len(part_jobs))


#: Progress cadence of the cluster tick loop (events per run, roughly).
_PROGRESS_EVENTS = 200


def solve_cluster_group(jobs: list[Job], cache: ResultCache | None) -> None:
    """Solve a flushed group of cluster jobs as one stacked state.

    All members share a platform, server count, and tick length (the
    group key); materials, inlets, utilizations, DVFS frequencies, wax
    enablement, and horizons vary along the stacked cluster axis. The
    batched state advances every member elementwise in a lone cluster's
    operation order, so each member's series is bit-identical to running
    it alone; members with shorter horizons take the prefix of the
    shared tick loop.
    """
    from repro.dcsim.thermal_coupling import BatchedClusterThermalState
    from repro.materials.library import commercial_paraffin_with_melting_point

    jobs = _live_members(jobs)
    if not jobs:
        return

    specs: list[ClusterSpec] = [job.spec for job in jobs]
    spec0 = specs[0]
    count = len(jobs)
    servers = spec0.server_count
    try:
        characterization, power_model = _characterized(spec0.platform)
        state = BatchedClusterThermalState(
            characterization,
            power_model,
            [
                commercial_paraffin_with_melting_point(s.melting_point_c)
                for s in specs
            ],
            cluster_count=count,
            server_count=servers,
            inlet_temperature_c=np.array(
                [s.inlet_temperature_c for s in specs]
            ),
            initial_utilization=np.array([s.utilization for s in specs]),
            wax_enabled=np.array([s.wax_enabled for s in specs]),
        )
    except Exception as exc:  # noqa: BLE001 - routed to the jobs
        for job in jobs:
            job.fail(exc)
        return

    # One (members, 1) column: every server of a member runs alike, so
    # the state stays collapsed to a representative server per member.
    utilization = np.array([[s.utilization] for s in specs])
    frequency = np.array([s.frequency_ghz for s in specs])
    max_ticks = max(s.ticks for s in specs)
    stride = max(1, max_ticks // _PROGRESS_EVENTS)

    series = {
        name: np.zeros((count, max_ticks))
        for name in (
            "power_w",
            "heat_release_w",
            "wax_heat_w",
            "zone_mean_c",
            "zone_max_c",
            "melt_fraction_mean",
            "stored_latent_heat_j",
        )
    }
    try:
        for tick in range(max_ticks):
            power_w, heat_w, wax_w = state.step(
                spec0.tick_s, utilization, frequency
            )
            series["power_w"][:, tick] = np.sum(power_w, axis=1)
            series["heat_release_w"][:, tick] = np.sum(heat_w, axis=1)
            series["wax_heat_w"][:, tick] = np.sum(wax_w, axis=1)
            series["zone_mean_c"][:, tick] = np.mean(
                state.zone_temperature_c, axis=1
            )
            series["zone_max_c"][:, tick] = np.max(
                state.zone_temperature_c, axis=1
            )
            series["melt_fraction_mean"][:, tick] = np.mean(
                state.melt_fraction, axis=1
            )
            series["stored_latent_heat_j"][:, tick] = state.stored_latent_heat_j
            if tick % stride == 0 or tick == max_ticks - 1:
                all_cancelled = True
                for job in jobs:
                    if not job.cancelled:
                        all_cancelled = False
                        job.publish_progress(
                            tick + 1, max_ticks, (tick + 1) * spec0.tick_s
                        )
                if all_cancelled:
                    raise JobCancelled(
                        "every waiter of the batch disconnected"
                    )
    except JobCancelled as exc:
        obs.count("service.solve.aborted")
        for job in jobs:
            job.fail(exc)
        return
    except Exception as exc:  # noqa: BLE001 - routed to the jobs
        for job in jobs:
            job.fail(exc)
        return

    obs.get_registry().count_many(
        {"service.solves": 1, "service.solve.members": count}
    )
    for index, job in enumerate(jobs):
        spec: ClusterSpec = job.spec
        ticks = spec.ticks
        payload = {
            "schema": API_SCHEMA,
            "spec": spec.payload(),
            "times_s": np.arange(1, ticks + 1) * spec.tick_s,
        }
        for name, values in series.items():
            payload[name] = values[index, :ticks].copy()
        _finish_member(cache, job, payload, count)


def solve_experiment(job: Job, cache: ResultCache | None) -> None:
    """Run one registered experiment (never batched; cache-deduplicated).

    Dedup happens at the registry's own cache address, so a point
    computed by ``repro-experiments --cache`` answers service requests
    and vice versa; :meth:`~repro.runner.cache.ResultCache
    .get_or_compute` collapses concurrent identical runs in-process.
    """
    from repro.experiments.registry import run_experiment
    from repro.runner.serialize import encode_experiment_result

    spec: ExperimentSpec = job.spec
    if job.cancelled:
        job.fail(JobCancelled("job cancelled before experiment started"))
        return

    def compute() -> dict[str, Any]:
        result = run_experiment(spec.experiment_id, quick=spec.quick)
        return encode_experiment_result(result)

    try:
        address = cache_spec(spec)
        if cache is None:
            payload = compute()
        else:
            payload = cache.get_or_compute(address, compute)
    except Exception as exc:  # noqa: BLE001 - routed to the job
        job.fail(exc)
        return
    obs.get_registry().count_many(
        {"service.solves": 1, "service.solve.members": 1}
    )
    job.finish(
        JobOutcome(
            payload=payload,
            fingerprint=fingerprint_payload(payload),
            cached=False,
            batch_size=1,
        )
    )


_GROUP_SOLVERS: dict[str, Callable[[list[Job], ResultCache | None], None]] = {
    TransientSpec.kind: solve_transient_group,
    ClusterSpec.kind: solve_cluster_group,
}


# ---------------------------------------------------------------------------
# The coalescer
# ---------------------------------------------------------------------------


class Coalescer:
    """Collects submitted specs into groups and flushes them to workers.

    Runs on the event loop (all mutation of pending state happens there;
    no locking needed). ``window_s`` is the collection window opened by
    a group's first member; a group also flushes early when it reaches
    ``max_batch`` members. ``window_s=0`` disables coalescing — every
    job flushes immediately — which is the serial reference the
    byte-identity tests compare against.
    """

    def __init__(
        self,
        pool: WorkerPool,
        cache: ResultCache | None,
        window_s: float = 0.05,
        max_batch: int = 64,
    ) -> None:
        if window_s < 0:
            raise ValueError(f"window_s must be >= 0, got {window_s}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.pool = pool
        self.cache = cache
        self.window_s = window_s
        self.max_batch = max_batch
        self._pending: dict[str, list[Job]] = {}
        self._timers: dict[str, asyncio.TimerHandle] = {}
        self._inflight: dict[str, Job] = {}

    # -- submission --------------------------------------------------------

    def submit(self, spec: Spec) -> Job:
        """Submit one spec; returns the (possibly shared) job.

        The caller holds one waiter reference on the returned job and
        must :meth:`Job.release` it when done or disconnected. Cache
        hits resolve immediately; identical in-flight specs are joined,
        not re-queued.
        """
        address = cache_spec(spec)
        key = (
            cache_key(address)
            if self.cache is None
            else self.cache.key(address)
        )

        shared = self._inflight.get(key)
        if (
            shared is not None
            and not shared.future.done()
            and shared.try_join()
        ):
            obs.count("service.dedup.joined")
            return shared
        # A cancelled shared job (every previous waiter disconnected,
        # solver has not failed it yet) is not joinable: fall through
        # and start a fresh job. The fresh job takes over the inflight
        # key; the doomed job's done-callback cannot evict it because
        # _forget only removes the exact job it was registered for.

        if self.cache is not None:
            payload = self.cache.get(address)
            if payload is not MISS:
                obs.count("service.cache.hits")
                job = Job(spec, key)
                job.acquire()
                job.finish(
                    JobOutcome(
                        payload=payload,
                        fingerprint=fingerprint_payload(payload),
                        cached=True,
                        batch_size=0,
                    )
                )
                return job
            obs.count("service.cache.misses")

        job = Job(spec, key)
        job.acquire()
        self._inflight[key] = job
        job.future.add_done_callback(
            lambda _f, key=key, job=job: self._forget(key, job)
        )

        group = spec.group_key()
        if group is None:
            self._dispatch_experiment(job)
        else:
            self._enqueue(group, job)
        return job

    def _forget(self, key: str, job: Job) -> None:
        # Runs on whichever thread resolved the future; dict ops are
        # atomic under the GIL and the guard keeps a newer job with the
        # same key from being evicted by an older one's callback.
        if self._inflight.get(key) is job:
            self._inflight.pop(key, None)

    # -- grouping and flushing --------------------------------------------

    def _enqueue(self, group: str, job: Job) -> None:
        pending = self._pending.setdefault(group, [])
        pending.append(job)
        if len(pending) >= self.max_batch or self.window_s == 0:
            self._flush(group)
        elif group not in self._timers:
            loop = asyncio.get_running_loop()
            self._timers[group] = loop.call_later(
                self.window_s, self._flush, group
            )

    def _flush(self, group: str) -> None:
        timer = self._timers.pop(group, None)
        if timer is not None:
            timer.cancel()
        jobs = self._pending.pop(group, [])
        if not jobs:
            return
        obs.get_registry().count_many(
            {
                "service.batch.flushes": 1,
                "service.batch.jobs": len(jobs),
                "service.batch.coalesced": len(jobs) - 1,
            }
        )
        solver = _GROUP_SOLVERS[jobs[0].spec.kind]
        self.pool.submit(solver, jobs, self.cache)

    def _dispatch_experiment(self, job: Job) -> None:
        obs.count("service.batch.flushes")
        self.pool.submit(solve_experiment, job, self.cache)

    def flush_all(self) -> None:
        """Flush every pending group now (shutdown path)."""
        for group in list(self._pending):
            self._flush(group)

    @property
    def inflight(self) -> int:
        """Jobs currently in flight (pending or solving)."""
        return len(self._inflight)
