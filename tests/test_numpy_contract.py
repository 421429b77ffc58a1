"""The NumPy reduction contract the uniform-cluster collapse rests on.

A collapsed :class:`repro.dcsim.thermal_coupling.BatchedClusterThermalState`
hands callers read-only ``np.broadcast_to`` views instead of materialised
per-server arrays, and the fluid engine reduces broadcast rows instead of
filled buffers. Every recorded total therefore relies on ``np.sum``,
``np.mean`` and ``np.max`` of a stride-0 view equalling the same
reduction of the materialised array bit for bit (the same pairwise
summation order). ``pyproject.toml`` admits any ``numpy>=1.24``, so this
pins the contract: a NumPy that reduces broadcast views differently must
fail here, loudly, rather than let the goldens drift.
"""

import numpy as np
import pytest

SERVER_COUNTS = (1, 7, 8, 9, 127, 128, 129, 1008)
CLUSTER_COUNTS = (1, 2, 3, 20, 257)


def _columns(clusters: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    # Mixed magnitudes and signs, so rounding differs between orders.
    values = rng.normal(0.0, 1.0, (clusters, 1)) * 10.0 ** rng.integers(
        -3, 6, (clusters, 1)
    )
    values[0, 0] = 0.1  # an inexact decimal that rounds on every add
    return values


@pytest.mark.parametrize("servers", SERVER_COUNTS)
@pytest.mark.parametrize("clusters", CLUSTER_COUNTS)
def test_axis1_reductions_of_broadcast_columns(clusters, servers):
    column = _columns(clusters, seed=clusters * 10_000 + servers)
    view = np.broadcast_to(column, (clusters, servers))
    dense = np.array(view)  # C-contiguous copy
    assert view.strides[1] == 0 and dense.flags.c_contiguous
    for reduce in (np.sum, np.mean, np.max):
        got = reduce(view, axis=1)
        want = reduce(dense, axis=1)
        assert got.tobytes() == want.tobytes(), reduce.__name__
        # And each row of the view equals the lone 1-D reduction of that
        # row, as the per-tick reference loop computes it.
        for c in (0, clusters - 1):
            assert got[c] == reduce(np.array(dense[c]))


@pytest.mark.parametrize("servers", SERVER_COUNTS)
def test_full_reductions_of_broadcast_rows(servers):
    # The single-cluster wrapper's row views are 1-D stride-0 arrays;
    # the fluid engine sums and averages them per tick.
    for value in (0.1, -3.7e5, 2.0 / 3.0, 1e-300):
        row = np.broadcast_to(np.array([[value]]), (1, servers))[0]
        flat = np.broadcast_to(value, (servers,))
        dense = np.full(servers, value)
        for reduce in (np.sum, np.mean, np.max):
            want = reduce(dense)
            assert reduce(row) == want, (reduce.__name__, value)
            assert reduce(flat) == want, (reduce.__name__, value)


def test_broadcast_views_are_read_only():
    view = np.broadcast_to(np.zeros((2, 1)), (2, 5))
    with pytest.raises(ValueError):
        view[0, 0] = 1.0
