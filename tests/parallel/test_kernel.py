"""Column-kernel tests: the vectorized column primitive against the heap
Dijkstra, on uniform and skewed weights, plus its hop columns, its
terminal rule and its budget polling. The unit tests of the primitive's
parts (hop table dtype, outcomes, counters) are in
``tests/core/test_column.py``."""

from __future__ import annotations

import numpy as np
import pytest

from repro import topologies
from repro.core import DFSSSPEngine, SSSPEngine
from repro.core.column import ColumnRouter
from repro.core.sssp import dijkstra_to_dest
from repro.exceptions import ComputeTimeoutError
from repro.service.budget import compute_budget

from tests.parallel.test_differential import FAMILIES

INF = np.iinfo(np.int64).max


@pytest.fixture(scope="module")
def fabric():
    return topologies.random_topology(10, 20, 2, seed=3)


def test_engine_rejects_bad_parallel_options():
    """The execution options are gone: one primitive serves every engine."""
    for engine in (SSSPEngine, DFSSSPEngine):
        with pytest.raises(TypeError, match="kernel"):
            engine(kernel="fortran")
        with pytest.raises(TypeError, match="workers"):
            engine(workers=-1)
        with pytest.raises(TypeError, match="batch"):
            engine(batch=0)
        with pytest.raises(TypeError, match="shm"):
            engine(shm=False)
    with pytest.raises(ValueError, match="cdg"):
        DFSSSPEngine(cdg="sharded")


def test_numpy_kernel_matches_heap_on_uniform_weights(fabric):
    """Uniform weights satisfy the bound: every column is proven."""
    router = ColumnRouter(fabric)
    weights = np.full(fabric.num_channels, 7, dtype=np.int64)
    for dest in map(int, fabric.terminals):
        dist, parent, outcome, levels = router.column(dest, weights)
        ref = dijkstra_to_dest(fabric, dest, weights)
        assert outcome == "proven" and levels is not None
        np.testing.assert_array_equal(dist, ref[0])
        np.testing.assert_array_equal(parent, ref[1])


def test_numpy_kernel_matches_heap_on_skewed_weights(fabric):
    """Weights far outside the bound: every column is still the heap
    Dijkstra's, and both non-proven arms are taken."""
    rng = np.random.default_rng(11)
    router = ColumnRouter(fabric)
    seen = set()
    for trial in range(6):
        weights = rng.integers(1, 10 ** (trial + 1), size=fabric.num_channels).astype(np.int64)
        for dest in map(int, fabric.terminals):
            dist, parent, outcome, levels = router.column(dest, weights)
            ref = dijkstra_to_dest(fabric, dest, weights)
            np.testing.assert_array_equal(dist, ref[0])
            np.testing.assert_array_equal(parent, ref[1])
            assert (levels is None) == (outcome == "fallback")
            seen.add(outcome)
    assert {"validated", "fallback"} <= seen
    assert sum(router.counts.values()) == 6 * fabric.num_terminals


def test_hops_equal_unit_weight_dijkstra(fabric):
    """Hop columns == Dijkstra distances under unit weights (INF -> -1),
    on the fixture fabric and on every differential family."""
    for fab in [fabric] + [make() for make in FAMILIES.values()]:
        router = ColumnRouter(fab)
        ones = np.ones(fab.num_channels, dtype=np.int64)
        for dest in map(int, fab.terminals):
            dist, _ = dijkstra_to_dest(fab, dest, ones)
            np.testing.assert_array_equal(router.hops(dest), np.where(dist == INF, -1, dist))


def test_terminals_never_forward(fabric):
    """Other terminals must be leaves of every routing tree."""
    router = ColumnRouter(fabric)
    weights = np.ones(fabric.num_channels, dtype=np.int64)
    dest = int(fabric.terminals[0])
    _, parent, _, _ = router.column(dest, weights)
    through = fabric.channels.dst[parent[parent >= 0]]  # node each parent channel enters
    assert ((fabric.kinds[through] == 0) | (through == dest)).all()


def test_kernels_poll_compute_budget(fabric):
    with pytest.raises(ComputeTimeoutError):
        with compute_budget(0.0, label="unit"):
            SSSPEngine().route(fabric)
    ring = topologies.ring(600, 1)  # > 1024 heap pops: the fallback polls too
    weights = np.ones(ring.num_channels, dtype=np.int64)
    with pytest.raises(ComputeTimeoutError):
        with compute_budget(0.0, label="unit"):
            dijkstra_to_dest(ring, int(ring.terminals[0]), weights)
