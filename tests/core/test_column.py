"""Unit tests of the column primitive's parts: outcome counters, the
destination set, ``validate`` and the hop table's dtype.

The primitive against the heap oracle — whole routes per family, per call
on random fabrics, the weight update — is the differential suite in
``tests/parallel/test_differential.py``; the per-column comparisons on
uniform and skewed weights are in ``tests/parallel/test_kernel.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import topologies
from repro.core import SSSPEngine
from repro.core.column import (
    OUTCOMES,
    ColumnRouter,
    ExactReduction,
    hop_dtype,
    hop_table,
)
from repro.core.sssp import dijkstra_to_dest
from repro.obs import get_registry


@pytest.fixture(scope="module")
def fabric():
    return topologies.random_topology(10, 20, 2, seed=3)


def test_column_counters_reach_the_registry():
    reg = get_registry()
    reg.reset()
    fabric = topologies.ring(5, 2)
    result = SSSPEngine().route(fabric)
    assert result.stats["columns"] == {"proven": 10, "validated": 0, "fallback": 0}
    for outcome in OUTCOMES:
        assert reg.value("sssp_columns_total", outcome=outcome) == (
            10 if outcome == "proven" else 0
        )


def test_router_rejects_foreign_destinations_and_non_positive_weights(fabric):
    dests = fabric.terminals[:2]
    router = ColumnRouter(fabric, dests=dests)
    with pytest.raises(ValueError, match="not a destination"):
        router.hops(int(fabric.terminals[3]))
    weights = np.zeros(fabric.num_channels, dtype=np.int64)
    dist, parent, outcome, _ = router.column(int(dests[0]), weights)
    assert outcome == "fallback"
    ref = dijkstra_to_dest(fabric, int(dests[0]), weights)
    np.testing.assert_array_equal(parent, ref[1])


def test_validate_rejects_a_tampered_column(fabric):
    red = ExactReduction(fabric)
    weights = np.full(fabric.num_channels, 5, dtype=np.int64)
    dest = int(fabric.terminals[0])
    dist, parent = dijkstra_to_dest(fabric, dest, weights)
    assert red.validate(dest, dist, parent, weights)
    bad = dist.copy()
    bad[int(fabric.switches[0])] += 1
    assert not red.validate(dest, bad, parent, weights)


def test_hop_table_dtype_holds_the_diameter():
    assert hop_dtype(126) == np.int8
    assert hop_dtype(127) == np.int16
    assert hop_dtype(40_000) == np.int32
    small = topologies.ring(6, 1)
    assert hop_table(small, small.switches).dtype == np.int8
    long_ring = topologies.ring(300, 1)  # diameter 150: int8 would wrap
    table = hop_table(long_ring, long_ring.switches[:2])
    assert table.dtype == np.int16
    assert int(table.max()) == 150
