"""Spans around calls into the program's layers, for the traced runs.

:func:`install` wraps each layer's public function (see ``TARGETS``)
wherever a caller resolves it: the defining module, every module that
imported it by value, module-level dicts that hold it, and the class for
methods. Each call then records a span: name, start, end, parent span,
trace ids and self time (the span's duration minus the time its wrapped
children took). Spans stay in memory and are written out as JSON lines
by :meth:`Tracer.dump` when the run ends.

Leaf layers called 10^5 times or more (``AGGREGATED``) are not recorded
one span each: their calls, total and self time are summed per parent
span. A wrapped call made inside an aggregated one is aggregated too, so
a full span never has an aggregated ancestor.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pkgutil
import sys
import threading
import time
from typing import Callable

AGGREGATED = frozenset(
    {
        "dcsim.cluster_step",
        "dcsim.wax_exchange",
        "dcsim.decide",
        "dcsim.projected_release",
        "faults.injector",
    }
)

#: (layer name, module, attribute path) of every wrapped callable. The
#: layer ``experiments`` is named per call: ``experiments.<id>``.
TARGETS = (
    ("thermal.transient", "repro.thermal.solver", "simulate_transient"),
    ("thermal.transient_batch", "repro.thermal.solver", "simulate_transient_batch"),
    ("thermal.steady", "repro.thermal.steady_state", "solve_steady_state"),
    ("thermal.steady", "repro.thermal.steady_state", "solve_steady_state_batch"),
    ("server.characterize", "repro.server.characterization", "characterize_platform"),
    ("core.fluid_peaks", "repro.core.melting_point", "batched_fluid_peaks"),
    ("dcsim.cluster_step", "repro.dcsim.thermal_coupling", "BatchedClusterThermalState.step"),
    ("dcsim.wax_exchange", "repro.dcsim.thermal_coupling", "BatchedClusterThermalState.wax_exchange_w"),
    ("dcsim.decide", "repro.dcsim.throttling", "NoThermalLimit.decide"),
    ("dcsim.decide", "repro.dcsim.throttling", "ThermalLimitPolicy.decide"),
    ("dcsim.decide", "repro.dcsim.throttling", "FaultResponsePolicy.decide"),
    ("dcsim.decide", "repro.dcsim.throttling", "RoomTemperaturePolicy.decide"),
    ("dcsim.projected_release", "repro.dcsim.throttling", "projected_release_w"),
    ("dcsim.fluid", "repro.dcsim.fluid_engine", "run_fluid_mode"),
    ("dcsim.event", "repro.dcsim.event_engine", "run_event_mode"),
    ("workload.arrivals", "repro.workload.jobs", "cached_arrival_stream"),
    ("dcsim.geo", "repro.dcsim.geo", "GeoPair.run"),
    ("dcsim.mixed", "repro.dcsim.mixed", "MixedFleet.run"),
    ("faults.injector", "repro.faults.injector", "FaultInjector.advance_to"),
    ("faults.injector", "repro.faults.injector", "FaultInjector.apply_state"),
    ("faults.injector", "repro.faults.injector", "FaultInjector.observe"),
    ("faults.injector", "repro.faults.injector", "FaultInjector.constrain"),
    ("control.decide", "repro.control.loop", "ControlLoop.decide"),
    ("control.mpc_plan", "repro.control.planners", "MPCPolicy.plan"),
    ("sprinting.sprint", "repro.sprinting.model", "run_sprint"),
    ("sprinting.sprint", "repro.sprinting.model", "run_sprint_batch"),
    ("runner.cache.get", "repro.runner.cache", "ResultCache.get"),
    ("runner.cache.put", "repro.runner.cache", "ResultCache.put"),
    ("service.transient_group", "repro.service.batching", "solve_transient_group"),
    ("service.cluster_group", "repro.service.batching", "solve_cluster_group"),
    ("service.experiment", "repro.service.batching", "solve_experiment"),
    ("experiments", "repro.experiments.registry", "run_experiment"),
)


class _Frame:
    __slots__ = ("name", "span_id", "owner", "aggregated", "traces", "start", "covered")


class Tracer:
    """Records spans of wrapped calls, one stack per thread."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        current_trace: Callable[[], str | None] = lambda: None,
    ) -> None:
        self._clock = clock
        self._current_trace = current_trace
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.spans: list[dict] = []
        #: (owner span id or 0, name) -> [calls, total_s, self_s]
        self.aggregates: dict[tuple[int, str], list] = {}

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, traces=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = _Frame()
        frame.name = name
        frame.covered = 0.0
        frame.aggregated = name in AGGREGATED or (parent is not None and parent.aggregated)
        if parent is None:
            frame.owner = 0
        else:
            frame.owner = parent.owner if parent.aggregated else parent.span_id
        if frame.aggregated:
            frame.span_id = 0
        else:
            frame.span_id = next(self._ids)
            frame.traces = traces if traces is not None else [self._current_trace()]
        stack.append(frame)
        frame.start = self._clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self._clock()
            stack.pop()
            duration = end - frame.start
            if parent is not None:
                parent.covered += duration
            self._close(frame, end, duration)

    def _close(self, frame: _Frame, end: float, duration: float) -> None:
        self_s = duration - frame.covered
        if frame.aggregated:
            with self._lock:
                entry = self.aggregates.setdefault((frame.owner, frame.name), [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += duration
                entry[2] += self_s
            return
        self.spans.append(
            {
                "id": frame.span_id,
                "parent": frame.owner,
                "traces": frame.traces,
                "name": frame.name,
                "start": frame.start,
                "end": end,
                "self_s": self_s,
            }
        )

    def records(self) -> list[dict]:
        """Every span, then every aggregate, as plain dicts."""
        with self._lock:
            aggregates = [
                {"parent": owner, "name": name, "calls": c, "total_s": t, "self_s": s}
                for (owner, name), (c, t, s) in self.aggregates.items()
            ]
        return list(self.spans) + aggregates

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            for record in self.records():
                out.write(json.dumps(record) + "\n")


def load(path: str) -> list[dict]:
    with open(path) as source:
        return [json.loads(line) for line in source if line.strip()]


def layer_totals(records: list[dict]) -> dict[str, dict[str, float]]:
    """Per layer name: ``calls``, ``self_s`` and inclusive ``total_s``."""
    totals: dict[str, dict[str, float]] = {}
    for record in records:
        entry = totals.setdefault(record["name"], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += record.get("calls", 1)
        entry["self_s"] += record["self_s"]
        entry["total_s"] += record.get("total_s", record.get("end", 0.0) - record.get("start", 0.0))
    return totals


def _trace_args(name: str) -> Callable | None:
    """Trace ids a service solve works for: one per job it solves."""
    if name in ("service.transient_group", "service.cluster_group"):
        return lambda args: [job.trace_id for job in args[0]]
    if name == "service.experiment":
        return lambda args: [args[0].trace_id]
    return None


def _wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    trace_args = _trace_args(name)
    if name == "experiments":

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            experiment_id = args[0] if args else kwargs["experiment_id"]
            return tracer.call(f"experiments.{experiment_id}", fn, args, kwargs)

    elif trace_args is not None:

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, trace_args(args))

    else:

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

    return traced


def import_all(package: str = "repro") -> None:
    """Import every module of ``package`` so by-value imports exist."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _replace_references(original: Callable, replacement: Callable, prefix: str) -> None:
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith(prefix):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement
            elif isinstance(value, dict):
                for inner, item in list(value.items()):
                    if item is original:
                        value[inner] = replacement


def install(tracer: Tracer, targets=TARGETS, prefix: str = "repro") -> None:
    """Wrap every target for ``tracer``, wherever callers resolve it."""
    import_all(prefix)
    for name, module_name, attribute in targets:
        module = importlib.import_module(module_name)
        owner_name, _, method = attribute.rpartition(".")
        if owner_name:
            cls = getattr(module, owner_name)
            original = cls.__dict__[method]
            setattr(cls, method, _wrapper(tracer, name, original))
        else:
            original = getattr(module, attribute)
            _replace_references(original, _wrapper(tracer, name, original), prefix)
