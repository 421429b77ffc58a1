"""Chunked vectorized time-stepper for fluid-mode simulation.

Two interchangeable engines implement the fluid-mode semantics of
:class:`repro.dcsim.simulator.DatacenterSimulator`, selected by the
``SimulationConfig(engine=...)`` knob that already switches the event
engines:

``reference``
    The verbatim per-tick scalar loop — one trace lookup, one policy
    decision, one ``state.step`` per tick. Kept as the plain-to-audit
    oracle the batched engine must match bit for bit.

``batched`` (default)
    A stretch-advancing engine mirroring the ``_BatchedCore``
    regime-adaptivity pattern from :mod:`repro.dcsim.event_engine`: it
    precomputes the demand series for the full horizon, then detects
    maximal runs of ticks where nothing can change the plan and advances
    each run in one pass, falling back to the *same* scalar tick body at
    every boundary.

A stretch of ticks is eligible only when every per-tick hook is provably
inert for its whole span:

* the policy publishes a **constant-decision certificate**
  (``constant_decision``; see :class:`repro.dcsim.throttling.NoThermalLimit`)
  and has no ``begin_tick`` clock hook — so ``decide`` cannot depend on
  the observed work rate or mutate policy state;
* the fault injector is **dormant** (no active effects, no restoration
  pending) and its next fault boundary lies beyond the stretch
  (:meth:`repro.faults.injector.FaultInjector.next_boundary`) — so
  ``advance_to``/``apply_state``/``observe``/``constrain`` are no-ops
  apart from bookkeeping that :meth:`~repro.faults.injector.FaultInjector.fast_forward`
  replays at the stretch end;
* the thermal state is **collapsed** to one representative server
  (:attr:`repro.dcsim.thermal_coupling.BatchedClusterThermalState.is_uniform`)
  with unit fault scales
  (:meth:`~repro.dcsim.thermal_coupling.BatchedClusterThermalState.uniform_advancer`).
  An offline-server tick expands the state for good, so the engine
  stops stretching for the rest of the run once one occurs.

Within a stretch the per-server physics collapses to a scalar recursion
(every server carries identical values), executed in Python floats that
perform exactly the arithmetic the elementwise NumPy step would — while
demand, utilization, throughput, shed work, and the characterization
lookups are computed for the whole stretch as arrays. Recorded totals
(``power``/``release``/``wax`` sums and the ``melt`` mean) reduce
``(ticks, servers)`` broadcast views of the per-server scalars, which
is the same pairwise ``np.sum``/``np.mean`` the reference loop performs
on its (equally broadcast) per-server rows; room-coupled runs reduce
the release total inside the loop (the room temperature feeds back into
the next tick's inlet).

Bit-identity to the reference loop is the acceptance bar, exactly as
PR 5 held for event mode: both engines must produce byte-identical
``SimulationResult`` payloads for every workload, fault schedule, and
policy. Runs that never qualify (stateful policies, active faults,
per-server heterogeneity) simply execute the reference tick body tick by
tick through the same code object, so they cannot drift.

Observability (when the registry is enabled): ``dcsim.fluid.stretch_ticks``
counts ticks advanced inside stretches, ``dcsim.fluid.scalar_ticks`` the
ticks that took the scalar fallback.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.obs import get_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.dcsim.simulator import DatacenterSimulator, SimulationResult

__all__ = ["run_fluid_mode"]

#: Eligible runs shorter than this execute scalar anyway: below a few
#: ticks the stretch setup (advancer eligibility scan, array slicing,
#: injector fast-forward) costs more than it saves.
_MIN_STRETCH = 4


def run_fluid_mode(sim: "DatacenterSimulator") -> "SimulationResult":
    """Run ``sim`` in fluid mode with the engine its config selects."""
    loop = _FluidLoop(sim)
    if sim.config.engine == "reference":
        return loop.run_reference()
    return loop.run_batched()


def _row_reduce(reduce, per_tick: list[float], servers: int) -> np.ndarray:
    """Per-tick ``reduce`` over ``servers`` copies of each tick's value.

    Reducing a ``(ticks, servers)`` broadcast view along axis 1 is the
    same pairwise reduction the reference loop applies to each tick's
    per-server row (pinned by ``tests/test_numpy_contract.py``).
    """
    column = np.array(per_tick)[:, None]
    return reduce(np.broadcast_to(column, (len(per_tick), servers)), axis=1)


class _FluidLoop:
    """Shared fluid-mode run state for both engines.

    The scalar tick body lives in exactly one place —
    :meth:`scalar_tick` — and is executed by the reference engine for
    every tick and by the batched engine at every stretch boundary, so
    the fallback path cannot drift from the oracle.
    """

    def __init__(self, sim: "DatacenterSimulator") -> None:
        from repro.dcsim.simulator import _Recorder

        self.sim = sim
        self.state = sim._make_state()
        sim.initial_specific_enthalpy_j_per_kg = np.array(
            self.state.specific_enthalpy_j_per_kg, copy=True
        )
        self.n_servers = sim.topology.server_count
        self.dt = sim.config.tick_interval_s
        self.ticks = sim._tick_times()
        self.injector = sim.fault_injector
        self.policy = sim.policy
        # Per-tick control hook: policies that implement begin_tick (e.g.
        # repro.control.ControlLoop) receive the simulation clock before
        # each decision; plain policies are untouched.
        self.begin_tick = getattr(sim.policy, "begin_tick", None)
        self.throttle_ticks = 0
        self.records = _Recorder(len(self.ticks), self.n_servers)

    # -- engines -------------------------------------------------------------

    def run_reference(self) -> "SimulationResult":
        for i, t in enumerate(self.ticks):
            self.scalar_tick(i, t)
        return self.finish()

    def run_batched(self) -> "SimulationResult":
        n_ticks = len(self.ticks)
        stretch_ticks = 0
        scalar_ticks = 0
        decision = self._constant_decision()
        if decision is None:
            # No certificate: the whole run is boundary. Identical to the
            # reference engine by construction (same tick body).
            for i, t in enumerate(self.ticks):
                self.scalar_tick(i, t)
            scalar_ticks = n_ticks
        else:
            # Full-horizon demand series; elementwise np.interp + np.clip
            # match the reference loop's per-tick scalar lookups bit for
            # bit.
            demand_all = np.clip(
                self.sim.trace.value_at(self.ticks - 0.5 * self.dt), 0.0, 1.0
            )
            i = 0
            while i < n_ticks:
                end = self._stretch_end(i)
                advancer = None
                if end - i >= _MIN_STRETCH:
                    advancer = self.state.uniform_advancer(self.dt)
                if advancer is not None:
                    self._run_stretch(i, end, decision, demand_all, advancer)
                    stretch_ticks += end - i
                    i = end
                else:
                    self.scalar_tick(i, self.ticks[i])
                    scalar_ticks += 1
                    i += 1
        obs = get_registry()
        if obs.enabled:
            obs.count("dcsim.fluid.stretch_ticks", stretch_ticks)
            obs.count("dcsim.fluid.scalar_ticks", scalar_ticks)
        return self.finish()

    # -- scalar oracle -------------------------------------------------------

    def scalar_tick(self, i: int, t: float) -> None:
        """The verbatim per-tick body both engines share."""
        sim = self.sim
        state = self.state
        injector = self.injector
        n_servers = self.n_servers
        dt = self.dt
        demand = float(np.clip(sim.trace.value_at(t - 0.5 * dt), 0.0, 1.0))
        if injector is not None:
            injector.advance_to(t, room=sim.room)
        sim._pre_tick(state)
        if injector is not None:
            injector.apply_state(state, base_inlet_c=sim._base_inlet_c())
        # Policies see the offered work rate in nominal capacity units
        # (possibly corrupted by an active sensor fault).
        work_rate = np.full(n_servers, demand)
        if injector is not None:
            work_rate = injector.observe(work_rate)
        if self.begin_tick is not None:
            self.begin_tick(t, dt)
        decision = self.policy.decide(state, work_rate)
        if injector is not None:
            decision = injector.constrain(decision)
        if decision.limited:
            self.throttle_ticks += 1
        tf = sim.power_model.throughput_factor(decision.frequency_ghz)
        offline = (
            injector.offline_count(n_servers) if injector is not None else 0
        )
        if offline > 0:
            # Surviving servers absorb the whole offered load; the
            # failed (lowest-indexed) servers sit idle. Per-server state
            # diverges here, so stretch advancing is off from now on.
            state.expand("offline")
            alive = n_servers - offline
            concentrated = demand * n_servers / alive
            utilization = min(
                concentrated / tf, 1.0, decision.utilization_cap
            )
            utilization_vec = np.zeros(n_servers)
            utilization_vec[offline:] = utilization
            served = utilization * tf * alive / n_servers
            mean_utilization = utilization * alive / n_servers
        else:
            utilization = np.minimum(demand / tf, 1.0)
            utilization = np.minimum(utilization, decision.utilization_cap)
            utilization_vec = np.full(n_servers, utilization)
            served = utilization * tf
            mean_utilization = utilization
        shed = max(demand - served, 0.0)

        power, release, wax = state.step(dt, utilization_vec, decision.frequency_ghz)
        release_total = float(np.sum(release))
        room_temp = sim._post_tick(release_total, dt)
        self.records.store(
            i,
            time_s=t,
            demand=demand,
            utilization=mean_utilization,
            frequency=decision.frequency_ghz,
            power=float(np.sum(power)),
            release=release_total,
            wax=float(np.sum(wax)),
            melt=float(np.mean(state.melt_fraction)),
            throughput=served,
            queue=0.0,
            shed=shed * n_servers,
            room=room_temp,
        )

    # -- stretch machinery ---------------------------------------------------

    def _constant_decision(self):
        """The policy's constant-decision certificate, or ``None``.

        A policy with a ``begin_tick`` clock hook is never stretched:
        the hook itself is per-tick state the stretch would skip.
        """
        if self.begin_tick is not None:
            return None
        certificate = getattr(self.policy, "constant_decision", None)
        if certificate is None:
            return None
        return certificate(self.state)

    def _stretch_end(self, i: int) -> int:
        """End (exclusive tick index) of the eligible run starting at ``i``.

        Returns ``i`` itself when tick ``i`` must run scalar. Eligibility
        here covers the *schedule* and the collapsed state; fault scales
        are the advancer's job, and the policy certificate was checked
        once up front.
        """
        if not self.state.is_uniform:
            return i
        injector = self.injector
        if injector is None:
            return len(self.ticks)
        if not injector.is_dormant:
            return i
        # Faults activate at the first tick with start_s <= t, so every
        # tick strictly before the next boundary after the previously
        # processed tick is quiet. Before the first tick nothing has been
        # processed: a fault starting at t=0 (or earlier) bounds it too.
        after = float(self.ticks[i - 1]) if i > 0 else -math.inf
        boundary = injector.next_boundary(after)
        if math.isinf(boundary):
            return len(self.ticks)
        end = int(np.searchsorted(self.ticks, boundary, side="left"))
        return max(end, i)

    def _run_stretch(
        self,
        i0: int,
        i1: int,
        decision,
        demand_all: np.ndarray,
        advancer,
    ) -> None:
        """Advance ticks ``[i0, i1)`` in one pass (constant ``decision``)."""
        sim = self.sim
        n_servers = self.n_servers
        dt = self.dt
        span = i1 - i0

        demand = demand_all[i0:i1]
        tf = sim.power_model.throughput_factor(decision.frequency_ghz)
        # The uniform branch of the scalar tick, vectorised across the
        # stretch; each element matches the per-tick scalars bit for bit.
        utilization = np.minimum(demand / tf, 1.0)
        utilization = np.minimum(utilization, decision.utilization_cap)
        served = utilization * tf
        shed = np.maximum(demand - served, 0.0)
        u_eff = utilization * sim.power_model.frequency_factor(
            decision.frequency_ghz
        )
        zone_delta, ua = advancer.interp_series(u_eff)

        u_eff_l = u_eff.tolist()
        zone_delta_l = zone_delta.tolist()
        ua_l = ua.tolist()
        power_l = [0.0] * span
        release_l = [0.0] * span
        wax_l = [0.0] * span
        melt_l = [0.0] * span

        room = sim.room
        if room is None:
            # _pre_tick is a no-op without a room; the inlet the state
            # carries (the configured base — the injector is dormant, so
            # any past excursion has been restored) holds for the whole
            # stretch.
            inlet = self.state.inlet_temperature_c
            for k in range(span):
                p, r, w, m = advancer.tick(
                    inlet, u_eff_l[k], zone_delta_l[k], ua_l[k]
                )
                power_l[k] = p
                release_l[k] = r
                wax_l[k] = w
                melt_l[k] = m
            release_total = _row_reduce(np.sum, release_l, n_servers)
            room_series: np.ndarray | float = sim.config.inlet_temperature_c
        else:
            # Room-coupled: each tick's release total feeds the room
            # model, whose temperature is the next tick's inlet — so the
            # release reduction happens in the loop, as the same pairwise
            # sum over a broadcast row the reference's np.sum performs.
            room_arr = np.empty(span)
            release_total = np.empty(span)
            inlet = 0.0
            for k in range(span):
                inlet = room.temperature_c
                p, r, w, m = advancer.tick(
                    inlet, u_eff_l[k], zone_delta_l[k], ua_l[k]
                )
                total = float(np.sum(np.broadcast_to(r, (n_servers,))))
                room.step(dt, max(total, 0.0))
                room_arr[k] = room.temperature_c
                release_total[k] = total
                power_l[k] = p
                release_l[k] = r
                wax_l[k] = w
                melt_l[k] = m
            # The reference loop's last write to the state inlet was
            # _pre_tick of the final stretch tick.
            self.state.inlet_temperature_c = inlet
            room_series = room_arr

        advancer.commit()

        records = self.records
        sl = slice(i0, i1)
        records.times[sl] = self.ticks[sl]
        records.demand[sl] = demand
        records.utilization[sl] = utilization
        records.frequency[sl] = decision.frequency_ghz
        records.power[sl] = _row_reduce(np.sum, power_l, n_servers)
        records.release[sl] = release_total
        records.wax[sl] = _row_reduce(np.sum, wax_l, n_servers)
        records.melt[sl] = _row_reduce(np.mean, melt_l, n_servers)
        records.throughput[sl] = served
        records.queue[sl] = 0.0
        records.shed[sl] = shed * n_servers
        records.room[sl] = room_series
        if decision.limited:
            self.throttle_ticks += span

        if self.injector is not None:
            # Replay the dormant-tick bookkeeping the stretch skipped:
            # the clock, and the held sensor observation a future dropout
            # would freeze.
            self.injector.fast_forward(
                float(self.ticks[i1 - 1]),
                observed=np.full(n_servers, demand[-1]),
            )

    # -- epilogue ------------------------------------------------------------

    def finish(self) -> "SimulationResult":
        sim = self.sim
        get_registry().count("dcsim.throttle_ticks", self.throttle_ticks)
        sim.final_state = self.state
        initial_u = float(np.clip(sim.trace.value_at(0.0), 0.0, 1.0))
        return self.records.result(
            self.n_servers,
            sim.power_model.nominal_frequency_ghz,
            initial_power_w=self.n_servers
            * sim.power_model.wall_power_w(initial_u),
        )
