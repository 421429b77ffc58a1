"""Pluggable compute backends for the compiled thermal solver.

The compiled solver reduces every right-hand-side evaluation to one
affine operator application, ``derivative = K @ temperatures + c`` (see
``docs/SOLVER.md``). This module owns *how* that application is
computed, behind a small :class:`SolverBackend` interface, mirroring how
``engine="reference"`` anchors :mod:`repro.dcsim.event_engine` one layer
up:

* :class:`NumpyBackend` — the reference implementation: the dense
  ``ndarray`` matvec the solver has always used. Every other backend is
  tested for equivalence against it.
* :class:`SparseBackend` — SciPy CSR operators. A rack-scale conduction
  network has a few nonzeros per row, so past a size/density threshold
  the dense matvec wastes almost all of its work; ``backend="auto"``
  switches here automatically (see :data:`SPARSE_AUTO_MIN_STATE`).

Selection is validated up front: public entry points accept
``backend="auto"|"numpy"|"sparse"`` and raise
:class:`~repro.errors.ConfigurationError` on anything else, or on an
explicit request for a backend whose import is unavailable. Every
resolution is counted under ``solver.backend.<name>`` so bench reports
show which path actually ran.
"""

from __future__ import annotations

import importlib.util
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.obs import get_registry

#: The accepted values of every ``backend=`` knob.
BACKEND_NAMES = ("auto", "numpy", "sparse")

#: ``auto`` considers the sparse backend only at or above this many
#: state nodes. Below it the dense matvec fits in cache and CSR indexing
#: overhead dominates; the 1U/2U/OCP chassis networks (tens of nodes)
#: always stay dense, which keeps the golden fingerprints byte-identical
#: under ``auto``.
SPARSE_AUTO_MIN_STATE = 512

#: ``auto`` requires the structural operator density (nonzeros / n^2) to
#: sit at or below this fraction before switching to CSR. Air-mixing
#: chains fill operator rows with every upstream coupling, so an
#: air-heavy network can be large yet effectively dense.
SPARSE_AUTO_MAX_DENSITY = 0.05


def validate_backend_choice(backend: str) -> str:
    """Validate a ``backend=`` knob value, returning it unchanged."""
    if backend not in BACKEND_NAMES:
        raise ConfigurationError(
            f"backend must be one of {list(BACKEND_NAMES)}, got {backend!r}"
        )
    return backend


class SolverBackend:
    """How the solver applies its affine operator ``K @ temps + c``.

    A backend owns two representations: a single operator (one network,
    shape ``(n, n)``) and a stacked batch of member operators (shape
    ``(N, n, n)``). ``prepare*`` converts a freshly built dense operator
    into the backend's native form once per (flow) cache entry;
    ``apply*`` is the hot path, called four times per RK4 step.
    """

    #: Name used in ``backend=`` knobs and ``solver.backend.*`` counters.
    name = "abstract"

    @classmethod
    def is_available(cls) -> bool:
        """Whether this backend's dependencies import on this machine."""
        return True

    def prepare(self, matrix: np.ndarray) -> object:
        """Convert a dense operator into this backend's native handle."""
        return matrix

    def apply(
        self, operator: object, temps: np.ndarray, constants: np.ndarray
    ) -> np.ndarray:
        """``operator @ temps + constants`` for one network."""
        raise NotImplementedError

    def prepare_batch(self, operators: np.ndarray) -> object:
        """Convert stacked dense member operators ``(N, n, n)``."""
        return operators

    def apply_batch(
        self, operators: object, temps: np.ndarray, constants: np.ndarray
    ) -> np.ndarray:
        """Stacked application for all members; shapes ``(N, n)``."""
        raise NotImplementedError


class NumpyBackend(SolverBackend):
    """The dense reference backend (plain ``ndarray`` matvec)."""

    name = "numpy"

    def apply(
        self, operator: np.ndarray, temps: np.ndarray, constants: np.ndarray
    ) -> np.ndarray:
        derivative = operator @ temps
        derivative += constants
        return derivative

    def apply_batch(
        self, operators: np.ndarray, temps: np.ndarray, constants: np.ndarray
    ) -> np.ndarray:
        derivative = np.einsum("nij,nj->ni", operators, temps)
        derivative += constants
        return derivative


class SparseBackend(SolverBackend):
    """SciPy CSR operators for large, sparse conduction networks.

    Equivalent to the NumPy oracle to floating-point reassociation (a
    few ULPs — CSR sums each row in column order, BLAS blocks and
    pairs); deterministic run to run.
    """

    name = "sparse"

    @classmethod
    def is_available(cls) -> bool:
        return importlib.util.find_spec("scipy") is not None

    def prepare(self, matrix: np.ndarray) -> object:
        from scipy.sparse import csr_matrix

        return csr_matrix(matrix)

    def apply(
        self, operator: object, temps: np.ndarray, constants: np.ndarray
    ) -> np.ndarray:
        derivative = operator @ temps
        derivative += constants
        return derivative

    def prepare_batch(self, operators: np.ndarray) -> object:
        from scipy.sparse import csr_matrix

        return [csr_matrix(member) for member in operators]

    def apply_batch(
        self, operators: list, temps: np.ndarray, constants: np.ndarray
    ) -> np.ndarray:
        derivative = np.empty_like(temps)
        for member, operator in enumerate(operators):
            derivative[member] = operator @ temps[member]
        derivative += constants
        return derivative


#: Backend classes by knob name ("auto" resolves to one of these).
BACKEND_CLASSES: dict[str, type[SolverBackend]] = {
    NumpyBackend.name: NumpyBackend,
    SparseBackend.name: SparseBackend,
}


def available_backends() -> list[str]:
    """Concrete backend names importable on this machine, in knob order."""
    return [
        name
        for name in ("numpy", "sparse")
        if BACKEND_CLASSES[name].is_available()
    ]


def resolve_backend(
    backend: str,
    n_state: int,
    density: float | Callable[[], float] = 1.0,
) -> SolverBackend:
    """Resolve a validated knob value to a backend instance.

    ``density`` is the structural density of the compiled operator
    (nonzeros over ``n_state**2``); pass a callable to defer the count —
    ``auto`` only evaluates it once ``n_state`` clears
    :data:`SPARSE_AUTO_MIN_STATE`, so small networks never pay for it.

    Explicitly requesting an unavailable backend raises
    :class:`ConfigurationError`; ``auto`` never raises — it falls back
    to NumPy whenever the sparse criteria are not met.
    """
    validate_backend_choice(backend)
    if backend == "auto":
        if n_state >= SPARSE_AUTO_MIN_STATE and SparseBackend.is_available():
            measured = density() if callable(density) else density
            if measured <= SPARSE_AUTO_MAX_DENSITY:
                return SparseBackend()
        return NumpyBackend()
    cls = BACKEND_CLASSES[backend]
    if not cls.is_available():
        raise ConfigurationError(
            f"solver backend {backend!r} is not available on this machine; "
            f"use backend='auto' for the NumPy fallback"
        )
    return cls()


def count_backend_selection(backend: SolverBackend) -> None:
    """Record which backend a public solve actually ran on."""
    obs = get_registry()
    if obs.enabled:
        obs.count(f"solver.backend.{backend.name}")
