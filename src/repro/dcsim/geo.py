"""Geographic load balancing between thermally constrained sites.

The paper's Section 5.2 names two escape valves for an oversubscribed
datacenter: "downclocking/DVFS or relocating work to other datacenters
[18-20]". The main simulator implements the first; this module implements
the second, so the two can be composed with PCM and compared.

A :class:`GeoPair` couples two sites — typically the same platform in
time zones several hours apart, so their diurnal peaks do not coincide —
and runs them in lock-step fluid mode. Each tick:

1. each site's throttling policy picks its operating point for its local
   demand;
2. work a site cannot serve (shed by its policy, or beyond its busy
   ceiling) is *offered* to the other site;
3. the receiving site accepts up to its spare busy capacity, provided its
   own policy is not currently limiting it and the added heat still fits
   under its plant capacity (relocated work must not push the remote room
   over its limit — that would just move the problem);
4. both rooms integrate their heat balance.

Relocated work pays a WAN/latency tax: a configurable fraction of it is
lost (request hedging, egress overheads), so relocation is not free the
way locally-banked wax heat is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dcsim.cluster import ClusterTopology
from repro.dcsim.room import RoomModel
from repro.dcsim.thermal_coupling import ClusterThermalState
from repro.dcsim.throttling import (
    RoomTemperaturePolicy,
    ThrottleDecision,
    bisect_fitting,
    busy_fraction,
    busy_release_w,
)
from repro.errors import ConfigurationError
from repro.materials.pcm import PCMMaterial
from repro.server.characterization import PlatformCharacterization
from repro.server.power import ServerPowerModel
from repro.workload.trace import LoadTrace


def route_unserved(
    unserved,
    spare,
    online=None,
    loss_fraction: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Greedily route each site's unserved work onto others' spare capacity.

    Pure and deterministic: senders are visited in index order, and each
    offers its remaining unserved work to receivers in index order
    (skipping itself and offline sites) until its backlog or the pool of
    spare capacity runs out. An offline site still *offers* its demand —
    failover is the point of geo balancing — but receives nothing and
    contributes no spare.

    Returns ``(moved, delivered)``, both shaped ``(n, n)``:
    ``moved[i, j]`` is the work sender ``i`` hands to receiver ``j``,
    ``delivered[i, j]`` the part that survives the relocation loss.
    Invariants (the property suite asserts them): row sums of ``moved``
    never exceed ``unserved``, column sums never exceed ``spare``,
    offline columns and the diagonal are zero, and a single site routes
    nothing.
    """
    unserved = [float(u) for u in unserved]
    remaining_spare = [float(s) for s in spare]
    n = len(unserved)
    if len(remaining_spare) != n:
        raise ConfigurationError(
            "unserved and spare must have one entry per site"
        )
    if online is None:
        online = [True] * n
    online = [bool(o) for o in online]
    if len(online) != n:
        raise ConfigurationError("online must have one entry per site")
    if not 0.0 <= loss_fraction < 1.0:
        raise ConfigurationError(
            "relocation loss must be a fraction in [0, 1)"
        )
    if any(u < 0 for u in unserved) or any(s < 0 for s in remaining_spare):
        raise ConfigurationError("unserved and spare must be non-negative")

    moved = np.zeros((n, n))
    delivered = np.zeros((n, n))
    for i in range(n):
        left = unserved[i]
        if left <= 0.0:
            continue
        for j in range(n):
            if j == i or not online[j]:
                continue
            capacity = remaining_spare[j]
            if capacity <= 0.0:
                continue
            amount = min(left, capacity)
            moved[i, j] = amount
            delivered[i, j] = amount * (1.0 - loss_fraction)
            left -= amount
            remaining_spare[j] = capacity - amount
            if left <= 0.0:
                break
    return moved, delivered


@dataclass
class GeoSite:
    """One datacenter of a geographically balanced pair."""

    name: str
    characterization: PlatformCharacterization
    power_model: ServerPowerModel
    material: PCMMaterial
    trace: LoadTrace
    room: RoomModel
    topology: ClusterTopology
    wax_enabled: bool = True
    inlet_temperature_c: float = 25.0
    #: An offline site serves nothing, offers no spare capacity, and
    #: idles at its minimum DVFS state; its whole demand is offered to
    #: the other site (minus the relocation tax).
    online: bool = True

    def __post_init__(self) -> None:
        self.policy = RoomTemperaturePolicy(self.room)
        self.state = self._make_state()

    def _make_state(self) -> ClusterThermalState:
        initial = float(np.clip(self.trace.value_at(0.0), 0.0, 1.0))
        return ClusterThermalState(
            characterization=self.characterization,
            power_model=self.power_model,
            material=self.material,
            server_count=self.topology.server_count,
            inlet_temperature_c=self.inlet_temperature_c,
            initial_utilization=initial,
            wax_enabled=self.wax_enabled,
        )

    def reset(self) -> None:
        """Fresh thermal state, room, and policy latch."""
        self.room.reset()
        self.policy.reset()
        self.state = self._make_state()


@dataclass
class GeoSiteTraces:
    """Per-tick traces of one site in a geo-balanced run."""

    times_s: np.ndarray
    demand: np.ndarray
    served_local: np.ndarray
    accepted_remote: np.ndarray
    relocated_out: np.ndarray
    lost: np.ndarray
    frequency_ghz: np.ndarray
    room_temperature_c: np.ndarray
    cooling_load_w: np.ndarray

    @property
    def throughput(self) -> np.ndarray:
        """Work completed at this site (local + accepted remote)."""
        return self.served_local + self.accepted_remote


@dataclass
class GeoResult:
    """Outcome of a geo-balanced pair run."""

    site_a: GeoSiteTraces
    site_b: GeoSiteTraces

    @property
    def total_throughput(self) -> np.ndarray:
        """Pair-wide completed work per tick (normalized per-site units)."""
        return self.site_a.throughput + self.site_b.throughput

    @property
    def total_demand(self) -> np.ndarray:
        """Pair-wide offered work per tick."""
        return self.site_a.demand + self.site_b.demand

    @property
    def served_fraction(self) -> float:
        """Fraction of all offered work completed somewhere."""
        demand = float(np.sum(self.total_demand))
        if demand <= 0:
            return 1.0
        return float(np.sum(self.total_throughput)) / demand

    @property
    def relocated_fraction(self) -> float:
        """Fraction of all offered work served at the remote site."""
        demand = float(np.sum(self.total_demand))
        if demand <= 0:
            return 0.0
        accepted = float(
            np.sum(self.site_a.accepted_remote + self.site_b.accepted_remote)
        )
        return accepted / demand


class GeoPair:
    """Two thermally constrained sites balancing work between them."""

    def __init__(
        self,
        site_a: GeoSite,
        site_b: GeoSite,
        tick_interval_s: float = 60.0,
        relocation_loss_fraction: float = 0.05,
    ) -> None:
        if tick_interval_s <= 0:
            raise ConfigurationError("tick interval must be positive")
        if not 0.0 <= relocation_loss_fraction < 1.0:
            raise ConfigurationError(
                "relocation loss must be a fraction in [0, 1)"
            )
        if abs(site_a.trace.duration_s - site_b.trace.duration_s) > 1e-6:
            raise ConfigurationError("site traces must share a horizon")
        self.site_a = site_a
        self.site_b = site_b
        self.tick_interval_s = tick_interval_s
        self.relocation_loss_fraction = relocation_loss_fraction

    def _site_tick(
        self, site: GeoSite, demand: float
    ) -> tuple[float, float, float, object]:
        """One site's local decision: (served, unserved, spare, decision)."""
        if not site.online:
            decision = ThrottleDecision(
                frequency_ghz=site.power_model.min_frequency_ghz,
                utilization_cap=0.0,
                limited=True,
            )
            return 0.0, demand, 0.0, decision
        n = site.topology.server_count
        work = np.full(n, demand)
        decision = site.policy.decide(site.state, work)
        tf = site.power_model.throughput_factor(decision.frequency_ghz)
        busy = min(demand / tf, 1.0, decision.utilization_cap)
        served = busy * tf
        unserved = max(demand - served, 0.0)

        # Spare capacity this site could sell: extra busy fraction up to
        # 1.0 (or its cap) while keeping the projected release under its
        # own plant capacity — only meaningful when unthrottled.
        spare = 0.0
        if not decision.limited:
            busy_ceiling = min(1.0, decision.utilization_cap)
            headroom = max(busy_ceiling - busy, 0.0)
            if headroom > 0:
                # Bisect the largest extra busy fraction whose release fits.
                frequency = decision.frequency_ghz
                capacity = site.room.cooling_capacity_w

                def fits(extra: np.ndarray) -> np.ndarray:
                    work = ((busy + extra) * tf)[:, None]
                    probe = busy_fraction(site.state, work, frequency)
                    release = busy_release_w(site.state, probe, frequency)
                    return release <= capacity

                spare = bisect_fitting(fits, 0.0, headroom, 20) * tf
        return served, unserved, spare, decision

    def run(self) -> GeoResult:
        """Run both sites in lock step over the shared horizon."""
        self.site_a.reset()
        self.site_b.reset()
        dt = self.tick_interval_s
        horizon = self.site_a.trace.duration_s
        n_ticks = int(np.floor(horizon / dt))
        times = (np.arange(n_ticks) + 1) * dt

        def blank() -> GeoSiteTraces:
            zeros = np.zeros(n_ticks)
            return GeoSiteTraces(
                times_s=times,
                demand=zeros.copy(),
                served_local=zeros.copy(),
                accepted_remote=zeros.copy(),
                relocated_out=zeros.copy(),
                lost=zeros.copy(),
                frequency_ghz=zeros.copy(),
                room_temperature_c=zeros.copy(),
                cooling_load_w=zeros.copy(),
            )

        traces = {id(self.site_a): blank(), id(self.site_b): blank()}

        for i, t in enumerate(times):
            sites = (self.site_a, self.site_b)
            demands = {
                id(site): float(np.clip(site.trace.value_at(t - 0.5 * dt), 0, 1))
                for site in sites
            }
            locals_ = {}
            for site in sites:
                # Server inlets track the room (wax engagement depends on
                # this feedback, exactly as in the single-site simulator).
                site.state.inlet_temperature_c = site.room.temperature_c
                locals_[id(site)] = self._site_tick(site, demands[id(site)])

            # Offer each site's unserved work to the other through the
            # shared router (index order = (site_a, site_b), which for a
            # pair of online sites reduces to the symmetric swap).
            moved, delivered = route_unserved(
                [locals_[id(site)][1] for site in sites],
                [locals_[id(site)][2] for site in sites],
                [site.online for site in sites],
                self.relocation_loss_fraction,
            )
            relocated = {
                id(site): float(np.sum(moved[k]))
                for k, site in enumerate(sites)
            }
            accepted = {
                id(site): float(np.sum(delivered[:, k]))
                for k, site in enumerate(sites)
            }

            # Advance each site's thermal state with its final busy level.
            for site in sites:
                served, unserved, _, decision = locals_[id(site)]
                tf = site.power_model.throughput_factor(decision.frequency_ghz)
                extra_busy = (
                    accepted[id(site)]
                    / (1.0 - self.relocation_loss_fraction)
                    / tf
                    if accepted[id(site)] > 0
                    else 0.0
                )
                busy_total = min(served / tf + extra_busy, 1.0)
                busy_vec = np.full(site.topology.server_count, busy_total)
                power, release, _wax = site.state.step(
                    dt, busy_vec, decision.frequency_ghz
                )
                release_total = float(np.sum(release))
                site.room.step(dt, max(release_total, 0.0))

                trace = traces[id(site)]
                trace.demand[i] = demands[id(site)]
                trace.served_local[i] = served
                trace.accepted_remote[i] = accepted[id(site)]
                trace.relocated_out[i] = relocated[id(site)]
                trace.lost[i] = max(
                    demands[id(site)] - served - relocated[id(site)], 0.0
                ) + relocated[id(site)] * self.relocation_loss_fraction
                trace.frequency_ghz[i] = decision.frequency_ghz
                trace.room_temperature_c[i] = site.room.temperature_c
                trace.cooling_load_w[i] = release_total

        return GeoResult(
            site_a=traces[id(self.site_a)], site_b=traces[id(self.site_b)]
        )
