"""Differential suite: incremental CDG engine vs the rebuild reference,
including fabrics whose CDG splits into several independent cycle groups.

The incremental engine (:mod:`repro.deadlock.incremental`) is
*bit-identical* to the rebuild-based reference
(:func:`repro.core.layers.assign_layers_offline`) — identical
``path_layers``, ``layers_needed``, ``cycles_broken`` and
``paths_moved`` — for every heuristic, with and without balancing, and
on overflow. Both are pure functions of the path set: re-running either
on the same :class:`PathSet` (the ``reruns`` axis) must reproduce the
first answer exactly.

The module is named for the sharded strategy that drained those cycle
groups as independent batches; it was removed (bit-identical to
``incremental`` but slower) and ``cdg="sharded"`` is now refused. Most
small connected fabrics condense to a single cycle group per layer —
``grown_cluster(seed=2)`` has several at layer 0 and is kept for that.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import topologies
from repro.core import DFSSSPEngine, SSSPEngine
from repro.core.layers import assign_layers_offline
from repro.deadlock import LayerCDG, assign_layers_incremental, verify_deadlock_free
from repro.deadlock.cycles import tarjan_sccs
from repro.des.scenario import normalize_scenario
from repro.exceptions import InsufficientLayersError, SimulationError
from repro.routing import extract_paths
from repro.routing.base import LayeredRouting

FAMILIES = {
    "torus": lambda: topologies.torus((3, 3), terminals_per_switch=1),
    "hypercube": lambda: topologies.hypercube(4, terminals_per_switch=1),
    "xgft": lambda: topologies.xgft(2, (4, 4), (1, 4)),
    "dragonfly": lambda: topologies.dragonfly(4, 2, 2),
    "random": lambda: topologies.random_topology(16, 40, 2, seed=13),
    "chordal": lambda: topologies.chordal_ring(12, (3, 5), terminals_per_switch=1),
    # several independent cycle groups at layer 0
    "grown": lambda: topologies.grown_cluster(seed=2),
}

HEURISTICS = ("weakest", "strongest", "first")


def _paths_for(fabric):
    return extract_paths(SSSPEngine().route(fabric).tables)


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family_paths(request):
    fabric = FAMILIES[request.param]()
    return request.param, _paths_for(fabric)


def _assert_same(a, b, msg):
    np.testing.assert_array_equal(a.path_layers, b.path_layers, err_msg=msg)
    assert a.layers_needed == b.layers_needed, msg
    assert a.cycles_broken == b.cycles_broken, msg
    assert a.paths_moved == b.paths_moved, msg


@pytest.mark.parametrize("reruns", (0, 2))
@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_bit_identical_to_incremental_and_rebuild(family_paths, heuristic, reruns):
    name, paths = family_paths
    pids = paths.active_pids()
    ref = assign_layers_offline(paths, heuristic=heuristic, pids=pids)
    inc = assign_layers_incremental(paths, heuristic=heuristic, pids=pids)
    _assert_same(inc, ref, f"{name}/{heuristic}: incremental vs rebuild")
    for i in range(reruns):
        again = assign_layers_incremental(paths, heuristic=heuristic, pids=pids)
        _assert_same(again, inc, f"{name}/{heuristic}: incremental rerun {i + 1}")
        again = assign_layers_offline(paths, heuristic=heuristic, pids=pids)
        _assert_same(again, ref, f"{name}/{heuristic}: rebuild rerun {i + 1}")


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_bit_identical_without_balancing(family_paths, heuristic):
    name, paths = family_paths
    pids = paths.active_pids()
    ref = assign_layers_offline(paths, heuristic=heuristic, balance=False, pids=pids)
    inc = assign_layers_incremental(paths, heuristic=heuristic, balance=False, pids=pids)
    np.testing.assert_array_equal(
        inc.path_layers, ref.path_layers,
        err_msg=f"{name}/{heuristic} (balance=False): incremental diverged",
    )


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_sharded_result_is_deadlock_free(family):
    """The incremental assignment passes the independent verifier."""
    fabric = FAMILIES[family]()
    tables = SSSPEngine().route(fabric).tables
    paths = extract_paths(tables)
    assignment = assign_layers_incremental(paths, pids=paths.active_pids())
    layered = LayeredRouting(tables, assignment.path_layers, assignment.num_layers)
    report = verify_deadlock_free(layered, paths)
    assert report.deadlock_free, report.failure_summary()


def test_grown_cluster_has_multiple_shards():
    """Guard the fixture's reason for existing: if a topology change ever
    collapses grown_cluster(seed=2) to one cycle group, the multi-group
    cases below would silently lose coverage — fail here instead."""
    paths = _paths_for(topologies.grown_cluster(seed=2))
    pids = np.asarray(paths.active_pids(), dtype=np.int64)
    cdg = LayerCDG(paths, pids)
    core = cdg.certify_core()
    sccs = tarjan_sccs(core.tolist(), cdg.successors)
    cyclic = [c for c in sccs if len(c) > 1]
    assert len(cyclic) >= 2
    # SCCs partition the core
    seen: set[int] = set()
    for comp in sccs:
        comp_set = set(int(v) for v in comp)
        assert not (seen & comp_set)
        seen |= comp_set


@pytest.mark.parametrize("reruns", (0, 1, 4))
@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_multi_shard_fabric_bit_identical(heuristic, reruns):
    """The multi-group fabric, incremental vs rebuild, stable across reruns."""
    paths = _paths_for(topologies.grown_cluster(seed=2))
    pids = paths.active_pids()
    ref = assign_layers_offline(paths, heuristic=heuristic, pids=pids)
    for i in range(reruns + 1):
        inc = assign_layers_incremental(paths, heuristic=heuristic, pids=pids)
        _assert_same(inc, ref, f"grown/{heuristic}/run {i}")


@pytest.mark.parametrize("reruns", (0, 2))
def test_insufficient_layers_parity(reruns):
    """Overflow raises the same exception from both engines, with the same
    layer accounting, on every run."""
    paths = _paths_for(topologies.dragonfly(4, 2, 2))
    pids = paths.active_pids()
    with pytest.raises(InsufficientLayersError) as ref_err:
        assign_layers_offline(paths, max_layers=1, pids=pids)
    for _ in range(reruns + 1):
        with pytest.raises(InsufficientLayersError) as inc_err:
            assign_layers_incremental(paths, max_layers=1, pids=pids)
        assert inc_err.value.layers_available == ref_err.value.layers_available
        assert (
            inc_err.value.layers_needed_at_least == ref_err.value.layers_needed_at_least
        )


def test_engine_route_with_sharded_cdg():
    """``cdg="sharded"`` is refused; the two remaining strategies route
    identically through the engine."""
    with pytest.raises(ValueError, match="incremental"):
        DFSSSPEngine(cdg="sharded")
    fabric = topologies.dragonfly(4, 2, 2)
    base = DFSSSPEngine(cdg="incremental").route(fabric)
    ref = DFSSSPEngine(cdg="rebuild").route(fabric)
    np.testing.assert_array_equal(ref.layered.path_layers, base.layered.path_layers)
    np.testing.assert_array_equal(ref.tables.next_channel, base.tables.next_channel)
    assert ref.stats["cdg"] == "rebuild"
    assert ref.stats["cycles_broken"] == base.stats["cycles_broken"]


def test_engine_sharded_cdg_with_workers():
    """A saved DES scenario still asking for the sharded, multi-worker
    engine fails validation with a typed error naming the option."""
    spec = {"topology": {"family": "ring"}, "engines": ["dfsssp"],
            "engine_opts": {"cdg": "sharded", "workers": 2}}
    with pytest.raises(SimulationError, match="'workers'"):
        normalize_scenario(spec)
    spec["engine_opts"] = {"cdg": "sharded"}
    with pytest.raises(SimulationError, match="sharded"):
        normalize_scenario(spec)
    fabric = topologies.grown_cluster(seed=2)
    base = DFSSSPEngine().route(fabric)
    ref = DFSSSPEngine(cdg="rebuild").route(fabric)
    np.testing.assert_array_equal(ref.layered.path_layers, base.layered.path_layers)
    np.testing.assert_array_equal(ref.tables.next_channel, base.tables.next_channel)


def test_validation_errors():
    paths = _paths_for(topologies.ring(6, terminals_per_switch=1))
    for assign in (assign_layers_incremental, assign_layers_offline):
        with pytest.raises(ValueError, match="max_layers"):
            assign(paths, max_layers=0)
        with pytest.raises(ValueError, match="unknown heuristic"):
            assign(paths, heuristic="bogus")
    with pytest.raises(ValueError, match="cdg"):
        DFSSSPEngine(cdg="bogus")
