"""Vectorized per-server thermal + wax state for a whole cluster.

This is the cluster-scale form of
:class:`repro.server.characterization.LumpedServerModel`: the same
equations, evaluated with NumPy across every server at once, so a
1008-server cluster ticking every simulated minute over two days costs a
few thousand small array operations.

Per tick and per server:

1. wall power from the (utilization, frequency) operating point;
2. the wax-zone air temperature relaxes toward the characterized steady
   value at the effective utilization;
3. the wax exchanges ``UA * (T_zone - T_wax)`` with the zone air, its
   enthalpy integrating the flow (melting/refreezing by the enthalpy
   method);
4. heat release to the room = power - wax absorption rate.

Servers without wax use the same object with ``wax_enabled=False`` (the
exchange term is forced to zero), so with/without-PCM comparisons share
every other code path.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.materials.pcm import PCMMaterial
from repro.obs import get_registry
from repro.server.characterization import PlatformCharacterization
from repro.server.power import ServerPowerModel


def temperature_at_enthalpy_array(
    material: PCMMaterial, specific_enthalpy_j_per_kg: np.ndarray
) -> np.ndarray:
    """Vectorized enthalpy -> temperature map (see ``PCMMaterial``)."""
    h = np.asarray(specific_enthalpy_j_per_kg, dtype=float)
    fusion = material.heat_of_fusion_j_per_kg
    solid = material.solidus_c + h / material.specific_heat_solid_j_per_kg_k
    mushy = material.solidus_c + (h / fusion) * material.melting_range_c
    liquid = material.liquidus_c + (h - fusion) / (
        material.specific_heat_liquid_j_per_kg_k
    )
    return np.where(h <= 0, solid, np.where(h >= fusion, liquid, mushy))


def melt_fraction_array(
    material: PCMMaterial, specific_enthalpy_j_per_kg: np.ndarray
) -> np.ndarray:
    """Vectorized melt fraction in [0, 1]."""
    h = np.asarray(specific_enthalpy_j_per_kg, dtype=float)
    return np.clip(h / material.heat_of_fusion_j_per_kg, 0.0, 1.0)


def enthalpy_at_temperature_array(
    material: PCMMaterial, temperature_c: np.ndarray
) -> np.ndarray:
    """Vectorized temperature -> enthalpy map (see ``PCMMaterial``)."""
    t = np.asarray(temperature_c, dtype=float)
    fusion = material.heat_of_fusion_j_per_kg
    solid = (t - material.solidus_c) * material.specific_heat_solid_j_per_kg_k
    mushy = (t - material.solidus_c) / material.melting_range_c * fusion
    liquid = fusion + (t - material.liquidus_c) * (
        material.specific_heat_liquid_j_per_kg_k
    )
    return np.where(
        t <= material.solidus_c,
        solid,
        np.where(t >= material.liquidus_c, liquid, mushy),
    )


def broadcast_view(values: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """``np.broadcast_to(values, shape)``: a read-only view.

    A C-contiguous ``(rows, 1)`` column, the common case, gets its
    stride-0 view from the ndarray constructor directly: these views are
    made several times per tick, and ``broadcast_to``'s nditer set-up
    costs twice as much.
    """
    if values.shape == shape:
        view = values.view()
    elif values.shape == (shape[0], 1) and values.flags.c_contiguous:
        view = np.ndarray(shape, values.dtype, values, 0, (values.strides[0], 0))
    else:
        return np.broadcast_to(values, shape)
    view.flags.writeable = False
    return view


def _row_constant(values: np.ndarray) -> bool:
    """Whether every row of a 2-D array repeats its first element."""
    return bool((values == values[:, :1]).all())


def _count_expansion(reason: str) -> None:
    obs = get_registry()
    if obs.enabled:
        obs.count(f"dcsim.uniform.expand.{reason}")


class BatchedClusterThermalState:
    """Stacked ``(clusters, servers)`` thermal state for many clusters.

    All clusters share one characterization and power model — the stacked
    form of the fig10/11/12 sweeps, where the same platform runs under
    many scenarios at once. Per-cluster knobs (inlet temperature, wax
    material, wax enablement, initial utilization, DVFS frequency) vary
    along the leading axis; passing a list of materials batches a
    melting-point sweep. Every update is elementwise across that axis in
    the exact operation order of a lone cluster, so each member's
    trajectory is bit-identical to stepping it alone.

    A state built without inlet offsets is *collapsed*: zone temperature
    and enthalpy are ``(clusters, 1)`` columns, one representative
    server per cluster, and the per-server queries and :meth:`step`'s
    returns are read-only ``(clusters, servers)`` broadcast views (NumPy
    reduces them in the materialised arrays' pairwise order). The first
    per-server input (:meth:`expand`) widens it for good; the elementwise
    arithmetic is the same either way. See ``docs/EVENTSIM.md``.
    """

    def __init__(
        self,
        characterization: PlatformCharacterization,
        power_model: ServerPowerModel,
        material: PCMMaterial | list[PCMMaterial],
        cluster_count: int,
        server_count: int,
        inlet_temperature_c: float | np.ndarray = 25.0,
        initial_utilization: float | np.ndarray = 0.0,
        wax_enabled: bool | np.ndarray = True,
        inlet_offset_c: np.ndarray | None = None,
    ) -> None:
        if cluster_count <= 0:
            raise ConfigurationError(
                f"cluster count must be positive, got {cluster_count}"
            )
        if server_count <= 0:
            raise ConfigurationError(
                f"server count must be positive, got {server_count}"
            )
        self.characterization = characterization
        self.power_model = power_model
        if isinstance(material, PCMMaterial):
            materials = [material] * cluster_count
        else:
            materials = list(material)
            if len(materials) != cluster_count:
                raise ConfigurationError(
                    f"expected {cluster_count} materials, got {len(materials)}"
                )
        self.materials = materials
        self.material = materials[0]
        # Material parameters as (clusters, 1) columns so the enthalpy
        # maps broadcast per cluster across the server axis.
        self._solidus = np.array([[m.solidus_c] for m in materials])
        self._liquidus = np.array([[m.liquidus_c] for m in materials])
        self._fusion = np.array([[m.heat_of_fusion_j_per_kg] for m in materials])
        self._c_solid = np.array(
            [[m.specific_heat_solid_j_per_kg_k] for m in materials]
        )
        self._c_liquid = np.array(
            [[m.specific_heat_liquid_j_per_kg_k] for m in materials]
        )
        self._melt_range = np.array([[m.melting_range_c] for m in materials])
        self.cluster_count = cluster_count
        self.server_count = server_count
        self.wax_mass_kg = characterization.wax_mass_kg
        self.inlet_temperature_c = np.broadcast_to(
            np.asarray(inlet_temperature_c, dtype=float), (cluster_count,)
        ).copy()
        self.wax_enabled = np.broadcast_to(
            np.asarray(wax_enabled, dtype=bool), (cluster_count,)
        ).copy()

        # All-zero offsets are no offsets: adding 0.0 changes no value.
        self._inlet_offset = np.zeros((cluster_count, 1))
        self._collapsed = True
        if inlet_offset_c is not None:
            offsets = np.asarray(inlet_offset_c, dtype=float)
            if offsets.shape == (server_count,):
                offsets = np.broadcast_to(
                    offsets, (cluster_count, server_count)
                ).copy()
            if offsets.shape != (cluster_count, server_count):
                raise ConfigurationError(
                    f"expected inlet offsets shape "
                    f"({cluster_count}, {server_count}), got {offsets.shape}"
                )
            if offsets.any():
                self._inlet_offset = offsets
                self._collapsed = False
                _count_expansion("inlet_offset")

        initial_delta = characterization.zone_delta_at(
            np.broadcast_to(
                np.asarray(initial_utilization, dtype=float), (cluster_count,)
            )
        )
        self._zone = (
            self.inlet_temperature_c[:, None]
            + self._inlet_offset
            + initial_delta[:, None]
        )
        self._set_enthalpy(self._enthalpy_at_temperature(self._zone))
        # Fault-injection scales (see repro.faults). Exactly 1.0 means the
        # scaled quantity is not multiplied at all, keeping faultless runs
        # bit-identical to the un-instrumented dynamics.
        self._ua_scale = 1.0
        self._zone_delta_scale = 1.0
        self._wax_capacity_factor = 1.0

    def set_fault_scales(
        self,
        ua_scale: float = 1.0,
        zone_delta_scale: float = 1.0,
        wax_capacity_factor: float = 1.0,
    ) -> None:
        """Set the fault-injection modifiers for subsequent steps.

        ``ua_scale`` scales the air-to-wax conductance (a derated fan
        moves less air over the boxes), ``zone_delta_scale`` scales the
        steady zone temperature rise (less flow removes less heat per
        degree), and ``wax_capacity_factor`` scales the effective wax
        mass (cycling degradation shrinks the latent store). All three
        persist until changed; the injector resets them to 1.0 when the
        fault clears.
        """
        for label, value in (
            ("ua scale", ua_scale),
            ("zone delta scale", zone_delta_scale),
            ("wax capacity factor", wax_capacity_factor),
        ):
            if not value > 0.0:
                raise ConfigurationError(
                    f"{label} must be positive, got {value}"
                )
        if wax_capacity_factor > 1.0:
            raise ConfigurationError(
                f"wax capacity factor cannot exceed 1.0, got "
                f"{wax_capacity_factor}"
            )
        self._ua_scale = float(ua_scale)
        self._zone_delta_scale = float(zone_delta_scale)
        self._wax_capacity_factor = float(wax_capacity_factor)

    # -- per-cluster enthalpy maps (same branches as ``PCMMaterial``) -------

    def _temperature_at_enthalpy(self, h: np.ndarray) -> np.ndarray:
        solid = self._solidus + h / self._c_solid
        mushy = self._solidus + (h / self._fusion) * self._melt_range
        liquid = self._liquidus + (h - self._fusion) / self._c_liquid
        return np.where(h <= 0, solid, np.where(h >= self._fusion, liquid, mushy))

    def _enthalpy_at_temperature(self, t: np.ndarray) -> np.ndarray:
        solid = (t - self._solidus) * self._c_solid
        mushy = (t - self._solidus) / self._melt_range * self._fusion
        liquid = self._fusion + (t - self._liquidus) * self._c_liquid
        return np.where(
            t <= self._solidus,
            solid,
            np.where(t >= self._liquidus, liquid, mushy),
        )

    # -- uniform collapse ----------------------------------------------------

    @property
    def is_uniform(self) -> bool:
        """True while the state is collapsed to one server per cluster."""
        return self._collapsed

    def expand(self, reason: str) -> None:
        """Widen a collapsed state to one column per server, for good.

        ``reason`` names the per-server input that forced it (counted as
        ``dcsim.uniform.expand.<reason>``). A no-op once expanded.
        """
        if not self._collapsed:
            return
        shape = (self.cluster_count, self.server_count)
        self._zone = np.broadcast_to(self._zone, shape).copy()
        self._set_enthalpy(np.broadcast_to(self._enthalpy, shape).copy())
        self._inlet_offset = np.broadcast_to(self._inlet_offset, shape).copy()
        self._collapsed = False
        _count_expansion(reason)

    def seed(
        self,
        zone_temperature_c: np.ndarray,
        specific_enthalpy_j_per_kg: np.ndarray,
    ) -> None:
        """Overwrite the zone temperature and enthalpy of every server.

        Both arguments broadcast to ``(clusters, servers)`` (the MPC
        rollout clones one observed cluster into every candidate). Values
        that are constant along each row keep a collapsed state
        collapsed; per-server values expand it (reason ``seed``).
        """
        zone, enthalpy = (
            self._full(np.asarray(values, dtype=float))
            for values in (zone_temperature_c, specific_enthalpy_j_per_kg)
        )
        if self._collapsed:
            if _row_constant(zone) and _row_constant(enthalpy):
                zone, enthalpy = zone[:, :1], enthalpy[:, :1]
            else:
                self.expand("seed")
        self._zone = zone.copy()
        self._set_enthalpy(enthalpy.copy())

    def _set_enthalpy(self, enthalpy: np.ndarray) -> None:
        """Replace the enthalpy field and the wax temperature it implies.

        Every write goes through here, so the wax temperature that each
        step and every policy preview needs is mapped once per change.
        """
        self._enthalpy = enthalpy
        self._wax_t = self._temperature_at_enthalpy(enthalpy)

    def _full(self, values: np.ndarray) -> np.ndarray:
        """Read-only ``(clusters, servers)`` view of a state-shaped array."""
        return broadcast_view(values, (self.cluster_count, self.server_count))

    # -- queries -----------------------------------------------------------

    @property
    def zone_temperature_c(self) -> np.ndarray:
        """Per-server wax-zone air temperature (read-only view)."""
        return self._full(self._zone)

    @property
    def specific_enthalpy_j_per_kg(self) -> np.ndarray:
        """Per-server wax specific enthalpy (read-only view)."""
        return self._full(self._enthalpy)

    @property
    def inlet_offset_c(self) -> np.ndarray:
        """Per-server inlet offsets from the cluster inlet (read-only view)."""
        return self._full(self._inlet_offset)

    @property
    def wax_temperature_c(self) -> np.ndarray:
        """Per-server wax temperature, shape ``(clusters, servers)``."""
        return self._full(self._wax_t)

    @property
    def melt_fraction(self) -> np.ndarray:
        """Per-server wax melt fraction, shape ``(clusters, servers)``."""
        return self._full(np.clip(self._enthalpy / self._fusion, 0.0, 1.0))

    @property
    def effective_wax_mass_kg(self) -> float:
        """Wax mass after any active capacity-degradation fault."""
        if self._wax_capacity_factor != 1.0:
            return self.wax_mass_kg * self._wax_capacity_factor
        return self.wax_mass_kg

    @property
    def stored_latent_heat_j(self) -> np.ndarray:
        """Per-cluster total latent heat currently banked in the wax."""
        return (
            np.sum(self.melt_fraction, axis=1)
            * self.effective_wax_mass_kg
            * self._fusion[:, 0]
        )

    def _frequency_factors(self, frequency_ghz: float | np.ndarray) -> np.ndarray:
        """Per-cluster DVFS power factors via the scalar power model."""
        if np.ndim(frequency_ghz) == 0:
            factor = self.power_model.frequency_factor(float(frequency_ghz))
            return np.full(self.cluster_count, factor)
        frequencies = np.broadcast_to(
            np.asarray(frequency_ghz, dtype=float), (self.cluster_count,)
        )
        return np.array(
            [
                self.power_model.frequency_factor(float(frequency))
                for frequency in frequencies
            ]
        )

    def effective_utilization(
        self, utilization: np.ndarray, frequency_ghz: float | np.ndarray
    ) -> np.ndarray:
        """Power-equivalent utilization (folds in DVFS)."""
        factors = self._frequency_factors(frequency_ghz)
        return np.asarray(utilization) * factors[:, None]

    def power_w(
        self, utilization: np.ndarray, frequency_ghz: float | np.ndarray
    ) -> np.ndarray:
        """Per-server wall power at an operating point."""
        u_eff = self.effective_utilization(utilization, frequency_ghz)
        return self.power_model.idle_power_w + (
            self.power_model.dynamic_range_w * u_eff
        )

    def wax_exchange_w(
        self, utilization: np.ndarray, frequency_ghz: float | np.ndarray
    ) -> np.ndarray:
        """Instantaneous air-to-wax heat flow at the *current* state,
        without advancing it (used by throttling policies to preview what
        the wax could absorb this tick).

        ``utilization`` broadcasts against the state's ``(clusters, 1)``
        or ``(clusters, servers)`` arrays, so a ``(candidates, 1)``
        column previews many uniform operating points of a one-cluster
        state in one call.
        """
        u_eff = self.effective_utilization(utilization, frequency_ghz)
        ua = self.characterization.ua_at(u_eff)
        if self._ua_scale != 1.0:
            ua = ua * self._ua_scale
        exchange = ua * (self._zone - self._wax_t)
        return np.where(self.wax_enabled[:, None], exchange, 0.0)

    # -- dynamics ------------------------------------------------------------

    def step(
        self,
        dt_s: float,
        utilization: np.ndarray,
        frequency_ghz: float | np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance one tick; returns (power_w, heat_release_w, wax_heat_w).

        ``utilization`` is per-server busy fraction in [0, 1] with shape
        ``(clusters, servers)``, or ``(clusters, 1)`` for every server of
        a cluster alike; ``frequency_ghz`` is each cluster's DVFS state
        this tick (scalar broadcasts to every cluster). The three returns
        are read-only ``(clusters, servers)`` views.
        """
        if dt_s <= 0:
            raise ConfigurationError(f"tick must be positive, got {dt_s}")
        utilization = np.asarray(utilization, dtype=float)
        if utilization.shape not in (
            (self.cluster_count, self.server_count),
            (self.cluster_count, 1),
        ):
            raise ConfigurationError(
                f"expected utilization shape "
                f"({self.cluster_count}, {self.server_count}) or "
                f"({self.cluster_count}, 1), got {utilization.shape}"
            )
        if self._collapsed and utilization.shape[1] != 1:
            if _row_constant(utilization):
                utilization = utilization[:, :1]
            else:
                self.expand("per_server_utilization")
        if self._collapsed:
            obs = get_registry()
            if obs.enabled:
                obs.count("dcsim.uniform.collapsed_steps")
        if utilization.min() < -1e-9 or utilization.max() > 1.0 + 1e-9:
            raise ConfigurationError("utilization must lie in [0, 1]")

        u_eff = self.effective_utilization(utilization, frequency_ghz)
        power = self.power_model.idle_power_w + (
            self.power_model.dynamic_range_w * u_eff
        )

        zone_delta = self.characterization.zone_delta_at(u_eff)
        if self._zone_delta_scale != 1.0:
            zone_delta = zone_delta * self._zone_delta_scale
        target = (
            self.inlet_temperature_c[:, None] + self._inlet_offset + zone_delta
        )
        blend = 1.0 - np.exp(-dt_s / self.characterization.zone_time_constant_s)

        ua = self.characterization.ua_at(u_eff)
        if self._ua_scale != 1.0:
            ua = ua * self._ua_scale

        self._zone += blend * (target - self._zone)
        exchange = ua * (self._zone - self._wax_t)
        wax_heat = np.where(self.wax_enabled[:, None], exchange, 0.0)
        self._set_enthalpy(
            self._enthalpy
            + np.where(
                self.wax_enabled[:, None],
                wax_heat * dt_s / self.effective_wax_mass_kg,
                0.0,
            )
        )

        return (
            self._full(power),
            self._full(power - wax_heat),
            self._full(wax_heat),
        )

    # -- stretch advance -----------------------------------------------------

    def uniform_advancer(self, dt_s: float) -> "UniformStretchAdvancer | None":
        """A scalar stretch-advance view of this state, or ``None``.

        Eligibility: one cluster, collapsed (:attr:`is_uniform`, which
        also rules out inlet offsets), and no active fault scales
        (exactly 1.0 means the scaled quantity is never multiplied).
        The returned advancer then replays the step arithmetic on Python
        scalars, bit-identically per server — the fluid engine's stretch
        fast path (see :mod:`repro.dcsim.fluid_engine`).
        """
        if dt_s <= 0:
            raise ConfigurationError(f"tick must be positive, got {dt_s}")
        if self.cluster_count != 1 or not self._collapsed:
            return None
        if (
            self._ua_scale != 1.0
            or self._zone_delta_scale != 1.0
            or self._wax_capacity_factor != 1.0
        ):
            return None
        return UniformStretchAdvancer(self, dt_s)


class UniformStretchAdvancer:
    """Scalar recursion over a uniform single-cluster thermal state.

    Obtained from :meth:`BatchedClusterThermalState.uniform_advancer`
    once the state is provably uniform across servers. Each
    :meth:`tick` performs, on plain Python floats, exactly the
    per-element arithmetic (and branch structure) that
    :meth:`BatchedClusterThermalState.step` performs on every server —
    elementwise IEEE operations on identical inputs yield identical
    outputs, so the trajectory is bit-identical to stepping the arrays.
    :meth:`commit` broadcasts the final scalars back over the array
    state. The advancer is single-use: commit once, then discard.

    The zone/enthalpy recursion is inherently sequential in time, so the
    win is not vectorization across ticks but replacing ~15 small-array
    NumPy operations per tick with a handful of float operations.
    """

    def __init__(self, state: BatchedClusterThermalState, dt_s: float) -> None:
        self._state = state
        self._characterization = state.characterization
        self._dt_s = float(dt_s)
        power_model = state.power_model
        self._idle_w = float(power_model.idle_power_w)
        self._dynamic_range_w = float(power_model.dynamic_range_w)
        # Same expression step() evaluates each tick (dt and the time
        # constant never change mid-run, so neither does the result).
        self._blend = float(
            1.0 - np.exp(-dt_s / state.characterization.zone_time_constant_s)
        )
        self._solidus = float(state._solidus[0, 0])
        self._liquidus = float(state._liquidus[0, 0])
        self._fusion = float(state._fusion[0, 0])
        self._c_solid = float(state._c_solid[0, 0])
        self._c_liquid = float(state._c_liquid[0, 0])
        self._melt_range = float(state._melt_range[0, 0])
        self._wax_mass = float(state.effective_wax_mass_kg)
        self._enabled = bool(state.wax_enabled[0])
        self._zone = float(state._zone[0, 0])
        self._enthalpy = float(state._enthalpy[0, 0])

    def interp_series(
        self, effective_utilization: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-tick (zone delta, UA) series for a stretch.

        ``np.interp`` evaluates elementwise, so looking a whole stretch
        up at once is bit-identical to the per-tick scalar lookups
        inside :meth:`BatchedClusterThermalState.step` (which, absent
        fault scales — an eligibility condition — applies no further
        arithmetic to either).
        """
        characterization = self._characterization
        return (
            characterization.zone_delta_at(effective_utilization),
            characterization.ua_at(effective_utilization),
        )

    def tick(
        self, inlet_c: float, u_eff: float, zone_delta: float, ua: float
    ) -> tuple[float, float, float, float]:
        """Advance one tick; returns (power, release, wax heat, melt).

        All four returns are *per-server* scalars; every server of the
        uniform state carries the same value this tick.
        """
        power = self._idle_w + (self._dynamic_range_w * u_eff)
        # target = inlet[:, None] + inlet_offset + zone_delta, with the
        # offsets all exactly 0.0 by eligibility.
        target = inlet_c + 0.0 + zone_delta
        zone = self._zone
        zone = zone + self._blend * (target - zone)
        enthalpy = self._enthalpy
        # The chosen branch of the np.where enthalpy->temperature map.
        if enthalpy <= 0.0:
            wax_t = self._solidus + enthalpy / self._c_solid
        elif enthalpy >= self._fusion:
            wax_t = self._liquidus + (enthalpy - self._fusion) / self._c_liquid
        else:
            wax_t = self._solidus + (enthalpy / self._fusion) * self._melt_range
        if self._enabled:
            heat = ua * (zone - wax_t)
            enthalpy = enthalpy + heat * self._dt_s / self._wax_mass
        else:
            heat = 0.0
            enthalpy = enthalpy + 0.0
        self._zone = zone
        self._enthalpy = enthalpy
        melt = enthalpy / self._fusion
        if melt < 0.0:
            melt = 0.0
        elif melt > 1.0:
            melt = 1.0
        return power, power - heat, heat, melt

    def commit(self) -> None:
        """Write the final scalars back into the collapsed state."""
        self._state._zone[:] = self._zone
        self._state._set_enthalpy(np.full((1, 1), self._enthalpy))


class ClusterThermalState:
    """Mutable thermal state of every server in one cluster.

    A single-cluster view over :class:`BatchedClusterThermalState`: the
    arrays exposed here are row views of the batched state's read-only
    ``(1, servers)`` views, so the dynamics (and the uniform collapse)
    live in exactly one place.
    """

    def __init__(
        self,
        characterization: PlatformCharacterization,
        power_model: ServerPowerModel,
        material: PCMMaterial,
        server_count: int,
        inlet_temperature_c: float = 25.0,
        initial_utilization: float = 0.0,
        wax_enabled: bool = True,
        inlet_offset_c: np.ndarray | None = None,
    ) -> None:
        if inlet_offset_c is not None:
            offsets = np.asarray(inlet_offset_c, dtype=float)
            if offsets.shape != (server_count,):
                raise ConfigurationError(
                    f"expected inlet offsets shape ({server_count},), got "
                    f"{offsets.shape}"
                )
        self._batched = BatchedClusterThermalState(
            characterization=characterization,
            power_model=power_model,
            material=material,
            cluster_count=1,
            server_count=server_count,
            inlet_temperature_c=inlet_temperature_c,
            initial_utilization=initial_utilization,
            wax_enabled=wax_enabled,
            inlet_offset_c=inlet_offset_c,
        )
        self.characterization = characterization
        self.power_model = power_model
        self.material = material
        self.server_count = server_count
        self.wax_enabled = wax_enabled
        self.wax_mass_kg = characterization.wax_mass_kg

    # -- single-cluster views over the batched state -----------------------

    @property
    def inlet_temperature_c(self) -> float:
        """Cold-aisle inlet temperature shared by this cluster's servers."""
        return float(self._batched.inlet_temperature_c[0])

    @inlet_temperature_c.setter
    def inlet_temperature_c(self, value: float) -> None:
        self._batched.inlet_temperature_c[0] = value

    @property
    def zone_temperature_c(self) -> np.ndarray:
        """Per-server wax-zone air temperature (view, shape ``(servers,)``)."""
        return self._batched.zone_temperature_c[0]

    @property
    def specific_enthalpy_j_per_kg(self) -> np.ndarray:
        """Per-server wax specific enthalpy (view, shape ``(servers,)``)."""
        return self._batched.specific_enthalpy_j_per_kg[0]

    @property
    def inlet_offset_c(self) -> np.ndarray:
        """Per-server inlet offsets (view, shape ``(servers,)``)."""
        return self._batched.inlet_offset_c[0]

    @property
    def is_uniform(self) -> bool:
        """True while every server shares one state (see the batched form)."""
        return self._batched.is_uniform

    def expand(self, reason: str) -> None:
        """Widen to one state per server, for good (see the batched form)."""
        self._batched.expand(reason)

    def seed(
        self,
        zone_temperature_c: np.ndarray,
        specific_enthalpy_j_per_kg: np.ndarray,
    ) -> None:
        """Overwrite every server's zone temperature and enthalpy."""
        self._batched.seed(zone_temperature_c, specific_enthalpy_j_per_kg)

    # -- queries -----------------------------------------------------------

    @property
    def wax_temperature_c(self) -> np.ndarray:
        """Per-server wax temperature."""
        return self._batched.wax_temperature_c[0]

    @property
    def melt_fraction(self) -> np.ndarray:
        """Per-server wax melt fraction."""
        return self._batched.melt_fraction[0]

    @property
    def stored_latent_heat_j(self) -> float:
        """Cluster-total latent heat currently banked in the wax."""
        return float(self._batched.stored_latent_heat_j[0])

    def set_fault_scales(
        self,
        ua_scale: float = 1.0,
        zone_delta_scale: float = 1.0,
        wax_capacity_factor: float = 1.0,
    ) -> None:
        """Set fault-injection modifiers (see the batched form)."""
        self._batched.set_fault_scales(
            ua_scale=ua_scale,
            zone_delta_scale=zone_delta_scale,
            wax_capacity_factor=wax_capacity_factor,
        )

    @property
    def effective_wax_mass_kg(self) -> float:
        """Per-server wax mass after any fault-injected capacity fade."""
        return self._batched.effective_wax_mass_kg

    def uniform_advancer(self, dt_s: float) -> "UniformStretchAdvancer | None":
        """Scalar stretch-advance view (see the batched form), or ``None``."""
        return self._batched.uniform_advancer(dt_s)

    def effective_utilization(
        self, utilization: np.ndarray, frequency_ghz: float
    ) -> np.ndarray:
        """Power-equivalent utilization (folds in DVFS)."""
        factor = self.power_model.frequency_factor(frequency_ghz)
        return np.asarray(utilization) * factor

    def power_w(self, utilization: np.ndarray, frequency_ghz: float) -> np.ndarray:
        """Per-server wall power at an operating point."""
        u_eff = self.effective_utilization(utilization, frequency_ghz)
        return self.power_model.idle_power_w + (
            self.power_model.dynamic_range_w * u_eff
        )

    def wax_exchange_w(
        self, utilization: np.ndarray, frequency_ghz: float
    ) -> np.ndarray:
        """Instantaneous air-to-wax heat flow at the *current* state,
        without advancing it (used by throttling policies to preview what
        the wax could absorb this tick).

        A ``(servers,)`` utilization gives per-server flows; a 2-D
        ``(candidates, 1)`` or ``(candidates, servers)`` one previews
        each row as a separate operating point.
        """
        utilization = np.asarray(utilization, dtype=float)
        if not self.wax_enabled:
            return np.zeros(utilization.shape)
        exchange = self._batched.wax_exchange_w(utilization, frequency_ghz)
        return exchange[0] if utilization.ndim == 1 else exchange

    # -- dynamics ------------------------------------------------------------

    def step(
        self,
        dt_s: float,
        utilization: np.ndarray,
        frequency_ghz: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance one tick; returns (power_w, heat_release_w, wax_heat_w).

        ``utilization`` is per-server busy fraction in [0, 1];
        ``frequency_ghz`` is the cluster-wide DVFS state this tick.
        """
        utilization = np.asarray(utilization, dtype=float)
        if utilization.shape != (self.server_count,):
            raise ConfigurationError(
                f"expected utilization shape ({self.server_count},), got "
                f"{utilization.shape}"
            )
        power, release, wax_heat = self._batched.step(
            dt_s, utilization[None, :], frequency_ghz
        )
        return power[0], release[0], wax_heat[0]
