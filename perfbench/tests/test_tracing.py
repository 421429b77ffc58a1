"""Span self-time arithmetic and wrapper installation."""

from __future__ import annotations

import importlib
import sys
import textwrap

import pytest

import mix
import service_mix
import tracing


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float):
        def run():
            self.now += seconds

        return run


def _by_name(records: list[dict]) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = {}
    for record in records:
        grouped.setdefault(record["name"], []).append(record)
    return grouped


def test_nested_spans_subtract_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def inner():
        clock.now += 3.0

    def outer():
        clock.now += 1.0
        tracer.call("inner", inner, (), {})
        clock.now += 2.0
        tracer.call("inner", inner, (), {})
        clock.now += 1.0

    tracer.call("outer", outer, (), {})
    spans = _by_name(tracer.records())
    (outer_span,) = spans["outer"]
    assert outer_span["end"] - outer_span["start"] == pytest.approx(10.0)
    assert outer_span["self_s"] == pytest.approx(4.0)
    assert [s["self_s"] for s in spans["inner"]] == pytest.approx([3.0, 3.0])
    assert {s["parent"] for s in spans["inner"]} == {outer_span["id"]}
    assert outer_span["parent"] == 0


def test_aggregated_leaves_sum_per_parent():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def outer():
        clock.now += 1.0
        for _ in range(3):
            tracer.call("dcsim.cluster_step", clock.work(2.0), (), {})

    tracer.call("outer", outer, (), {})
    records = _by_name(tracer.records())
    (outer_span,) = records["outer"]
    (step,) = records["dcsim.cluster_step"]
    assert step == {
        "parent": outer_span["id"], "name": "dcsim.cluster_step",
        "calls": 3, "total_s": pytest.approx(6.0), "self_s": pytest.approx(6.0),
    }
    assert outer_span["self_s"] == pytest.approx(1.0)
    totals = tracing.layer_totals(tracer.records())
    assert totals["dcsim.cluster_step"]["calls"] == 3
    assert totals["outer"] == {"calls": 1, "self_s": pytest.approx(1.0), "total_s": pytest.approx(7.0)}


def test_nested_aggregates_and_calls_inside_them():
    """decide -> projected_release -> wax_exchange, all aggregated; a
    full-span layer called inside an aggregated one is aggregated too."""
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def release():
        clock.now += 0.5
        tracer.call("dcsim.wax_exchange", clock.work(0.25), (), {})

    def decide():
        clock.now += 1.0
        tracer.call("dcsim.projected_release", release, (), {})
        tracer.call("dcsim.projected_release", release, (), {})
        tracer.call("thermal.steady", clock.work(0.5), (), {})

    def outer():
        for _ in range(2):
            tracer.call("dcsim.decide", decide, (), {})

    tracer.call("outer", outer, (), {})
    records = tracer.records()
    totals = tracing.layer_totals(records)
    assert totals["outer"]["self_s"] == pytest.approx(0.0)
    assert totals["dcsim.decide"] == {"calls": 2, "self_s": pytest.approx(2.0), "total_s": pytest.approx(6.0)}
    assert totals["dcsim.projected_release"]["calls"] == 4
    assert totals["dcsim.projected_release"]["self_s"] == pytest.approx(2.0)
    assert totals["dcsim.wax_exchange"]["self_s"] == pytest.approx(1.0)
    assert totals["thermal.steady"]["calls"] == 2
    (outer_span,) = [r for r in records if r["name"] == "outer"]
    assert {r["parent"] for r in records if r["name"] != "outer"} == {outer_span["id"]}
    # Self times of all layers add up to the root's duration.
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(6.0)


def test_exception_still_closes_span():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.call("outer", boom, (), {})
    (span,) = tracer.records()
    assert span["self_s"] == pytest.approx(1.0)
    assert tracer._stack() == []


def test_trace_ids_come_from_the_binding_or_the_caller():
    tracer = tracing.Tracer(current_trace=lambda: "abc")
    tracer.call("one", lambda: None, (), {})
    tracer.call("two", lambda: None, (), {}, traces=["x", "y"])
    assert [r["traces"] for r in tracer.records()] == [["abc"], ["x", "y"]]


def test_dump_and_load_round_trip(tmp_path):
    tracer = tracing.Tracer()
    tracer.call("outer", lambda: tracer.call("dcsim.cluster_step", lambda: None, (), {}), (), {})
    path = tmp_path / "spans.jsonl"
    tracer.dump(str(path))
    assert tracing.load(str(path)) == tracer.records()


def _served(kinds_and_traces):
    sequence = [mix.Request(b"", kind, ("k",), False) for kind, _ in kinds_and_traces]
    outcomes = [
        service_mix.Outcome(start=0.0, end=4.0, trace_id=trace) for _, trace in kinds_and_traces
    ]
    return sequence, outcomes


def test_group_solves_split_over_member_jobs():
    sequence, outcomes = _served([("transient", "t1"), ("sweep", "t2"), ("cluster", "t3")])
    records = [
        {"name": "service.transient_group", "start": 0.0, "end": 3.0,
         "traces": ["t1", "t2", "t2"], "self_s": 3.0},
        {"name": "service.cluster_group", "start": 3.0, "end": 4.0, "traces": ["t3"], "self_s": 1.0},
        {"name": "dcsim.cluster_step", "parent": 2, "calls": 5, "total_s": 0.5, "self_s": 0.5},
    ]
    shares = service_mix.solve_shares(sequence, outcomes, records)
    assert shares == pytest.approx({"transient": 0.25, "sweep": 0.5, "cluster": 0.25, "experiment": 0.0})
    # A request waits its latency minus each solve span working for it, once per span.
    assert service_mix.wait_s(outcomes, records) == pytest.approx((4 - 3) + (4 - 3) + (4 - 1))


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    package = tmp_path / "fakepkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "lib.py").write_text(textwrap.dedent("""
        def solve(x):
            return 2 * x

        class State:
            def step(self):
                return solve(1)
    """))
    (package / "user.py").write_text(textwrap.dedent("""
        from fakepkg.lib import solve, State

        SOLVERS = {"double": solve}

        def use():
            return solve(3) + State().step()
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    yield
    for name in [n for n in sys.modules if n.startswith("fakepkg")]:
        del sys.modules[name]


def test_install_wraps_by_value_imports_dicts_and_methods(fake_package):
    tracer = tracing.Tracer()
    tracing.install(
        tracer,
        targets=(("layer.solve", "fakepkg.lib", "solve"), ("dcsim.cluster_step", "fakepkg.lib", "State.step")),
        prefix="fakepkg",
    )
    user = importlib.import_module("fakepkg.user")
    assert user.use() == 8
    assert user.SOLVERS["double"](5) == 10
    records = tracer.records()
    totals = tracing.layer_totals(records)
    assert totals["layer.solve"]["calls"] == 3
    assert totals["dcsim.cluster_step"]["calls"] == 1
    # solve() called inside the aggregated step is aggregated with it.
    assert [r["calls"] for r in records if r["name"] == "layer.solve" and "calls" in r] == [1]
