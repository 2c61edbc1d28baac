"""Differential suite: the column primitive is bit-identical to the heap oracle.

The production path for every routing column (SSSP, DFSSSP, repair, LMC
multipath) is :class:`repro.core.column.ColumnRouter` — hop table, min-hop
refine, run-time weight bound, validate, Dijkstra fallback — plus the
level-vectorized weight update. The oracle is the heap Dijkstra
:func:`dijkstra_to_dest` followed by the farthest-first
:func:`update_weights_for_dest`, run here in the engine's destination
order. Equality is exact (``np.array_equal``; weights and channel ids are
integers) on forwarding tables, balancing weights and layer assignments,
over every topology family, a multi-homed fabric, both source-counting
modes, random destination order and hypothesis-drawn random fabrics.

The suite once compared a matrix of execution options (``kernel``,
``workers``, ``shm``) against the serial engine. That matrix is gone —
one primitive serves every engine — and :data:`FORMER_CONFIGS` keeps each
of its option sets as a case: the engines must refuse it (``TypeError``),
a DES scenario must refuse it with a :class:`SimulationError` naming the
key, and the one route left must be the oracle's.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import topologies
from repro.core import DFSSSPEngine, MultipathDFSSSPEngine, SSSPEngine
from repro.core.column import ColumnRouter
from repro.core.sssp import (
    dijkstra_to_dest,
    update_weights_for_dest,
    update_weights_for_dest_fast,
)
from repro.deadlock.incremental import assign_layers_incremental
from repro.des.scenario import normalize_scenario
from repro.exceptions import SimulationError
from repro.routing.paths import extract_paths

FAMILIES = {
    "ring": lambda: topologies.ring(8, terminals_per_switch=2),
    "torus": lambda: topologies.torus((3, 3), terminals_per_switch=2),
    "xgft": lambda: topologies.xgft(2, (4, 4), (1, 2)),
    "xgft_multihomed": lambda: topologies.xgft(2, (4, 4), (2, 2)),
    "kautz": lambda: topologies.kautz(2, 3, 12),
    "hypercube": lambda: topologies.hypercube(4, terminals_per_switch=1),
    "random": lambda: topologies.random_topology(12, 24, 2, seed=7),
    "dragonfly": lambda: topologies.dragonfly(2, 2, 1),
}

FORMER_CONFIGS = [
    pytest.param(dict(kernel="numpy"), id="serial-numpy"),
    pytest.param(dict(kernel="native"), id="serial-native"),
    pytest.param(dict(workers=1, kernel="numpy"), id="workers1-numpy-shm"),
    pytest.param(dict(workers=1, shm=False), id="workers1-python-pickle"),
    pytest.param(dict(workers=2), id="workers2-python"),
    pytest.param(dict(workers=2, kernel="numpy"), id="workers2-numpy"),
    pytest.param(dict(workers=4, kernel="numpy"), id="workers4-numpy-shm"),
    pytest.param(dict(workers=4, kernel="numpy", shm=False), id="workers4-numpy-pickle"),
    pytest.param(dict(workers=4, kernel="native"), id="workers4-native"),
]


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family_fabric(request):
    return request.param, FAMILIES[request.param]()


def oracle_route(fabric, order=None, count_switch_sources=False, planes=1):
    """SSSP with the heap Dijkstra and the farthest-first update."""
    T = fabric.num_terminals
    weights = np.full(fabric.num_channels, (T * planes) ** 2 + 1, dtype=np.int64)
    tables = [np.full((fabric.num_nodes, T), -1, dtype=np.int32) for _ in range(planes)]
    is_term = fabric.kinds == 1
    for t_idx in range(T) if order is None else order:
        dest = int(fabric.terminals[t_idx])
        for plane in range(planes):
            dist, parent = dijkstra_to_dest(fabric, dest, weights)
            tables[plane][:, t_idx] = parent
            update_weights_for_dest(
                fabric, dest, dist, parent, weights, is_term,
                count_switch_sources=count_switch_sources,
            )
    return tables, weights


def assert_matches_oracle(result, tables, weights):
    assert np.array_equal(result.tables.next_channel, tables[0]), "forwarding tables differ"
    assert np.array_equal(result.channel_weights, weights), "balancing weights differ"


def assert_former_config_refused(engine_cls, engine_name, config):
    with pytest.raises(TypeError):
        engine_cls(**config)
    spec = {"topology": {"family": "ring"}, "engines": [engine_name], "engine_opts": config}
    with pytest.raises(SimulationError, match=repr(next(iter(config)))):
        normalize_scenario(spec)


@pytest.fixture(scope="module")
def oracle(family_fabric):
    _, fabric = family_fabric
    return oracle_route(fabric)


@pytest.fixture(scope="module")
def sssp_route(family_fabric):
    _, fabric = family_fabric
    return SSSPEngine().route(fabric)


@pytest.fixture(scope="module")
def dfsssp_route(family_fabric):
    _, fabric = family_fabric
    return DFSSSPEngine().route(fabric)


# ----------------------------------------------------------------------
# whole routes, per family
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config", FORMER_CONFIGS)
def test_sssp_bit_identical(family_fabric, oracle, sssp_route, config):
    name, fabric = family_fabric
    assert_former_config_refused(SSSPEngine, "sssp", config)
    tables, weights = oracle
    assert_matches_oracle(sssp_route, tables, weights)
    w0 = fabric.num_terminals ** 2 + 1
    assert sssp_route.stats["total_balancing_weight"] == int(
        weights.sum() - w0 * fabric.num_channels
    ), name
    assert sum(sssp_route.stats["columns"].values()) == fabric.num_terminals


@pytest.mark.parametrize("config", FORMER_CONFIGS)
def test_dfsssp_bit_identical(family_fabric, oracle, dfsssp_route, config):
    """Identical tables imply identical layers — asserted, not assumed."""
    _, fabric = family_fabric
    assert_former_config_refused(DFSSSPEngine, "dfsssp", config)
    assert_matches_oracle(dfsssp_route, *oracle)
    paths = extract_paths(dfsssp_route.tables)
    expected = assign_layers_incremental(paths, pids=paths.active_pids())
    assert np.array_equal(dfsssp_route.layered.path_layers, expected.path_layers)
    assert dfsssp_route.stats["layers_needed"] == expected.layers_needed


def test_random_dest_order_matches_serial(family_fabric):
    """The seeded random order is reproduced exactly by the oracle."""
    _, fabric = family_fabric
    engine = SSSPEngine(dest_order="random")
    result = engine.route(fabric)
    tables, weights = oracle_route(fabric, order=engine._dest_order(fabric))
    assert_matches_oracle(result, tables, weights)


def test_count_switch_sources_matches_oracle(family_fabric):
    """Switch sources load channels with up to N·T paths, far past the
    terminal-only W0 budget; the bound must still decide correctly."""
    _, fabric = family_fabric
    result = SSSPEngine(count_switch_sources=True).route(fabric)
    tables, weights = oracle_route(fabric, count_switch_sources=True)
    assert_matches_oracle(result, tables, weights)


def test_multipath_planes_match_oracle():
    fabric = topologies.random_topology(10, 20, 2, seed=5)
    routing = MultipathDFSSSPEngine(lmc=1).route(fabric)
    tables, _ = oracle_route(fabric, planes=2)
    for plane, expected in zip(routing.planes, tables):
        assert np.array_equal(plane.next_channel, expected)
    assert sum(routing.stats["columns"].values()) == 2 * fabric.num_terminals


# ----------------------------------------------------------------------
# hypothesis: random irregular fabrics
# ----------------------------------------------------------------------
_slow = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

random_topo_params = st.tuples(
    st.integers(min_value=4, max_value=10),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10_000),
)


def _fabric(params):
    s, extra, tps, seed = params
    links = min(s - 1 + extra, s * (s - 1) // 2)
    return topologies.random_topology(s, links, tps, seed=seed)


@_slow
@given(random_topo_params, st.booleans(), st.sampled_from(["index", "random"]))
def test_parallel_equals_serial_on_random_fabrics(params, count_switch_sources, dest_order):
    """The production engine equals the serial heap reference on random
    irregular fabrics, in both source-counting modes and both orders."""
    fabric = _fabric(params)
    engine = SSSPEngine(dest_order=dest_order, count_switch_sources=count_switch_sources)
    result = engine.route(fabric)
    tables, weights = oracle_route(
        fabric, order=engine._dest_order(fabric), count_switch_sources=count_switch_sources
    )
    assert_matches_oracle(result, tables, weights)


@_slow
@given(random_topo_params, st.integers(min_value=1, max_value=7))
def test_batch_size_never_changes_results(params, batch):
    """A router built for a batch of destinations (as repair builds one
    for the destinations a fault touched) gives every column exactly as
    the all-terminals router does: the hop table's extent is invisible."""
    fabric = _fabric(params)
    rng = np.random.default_rng(batch)
    weights = rng.integers(1, 50, size=fabric.num_channels).astype(np.int64)
    full = ColumnRouter(fabric)
    terminals = fabric.terminals
    for lo in range(0, len(terminals), batch):
        dests = terminals[lo:lo + batch]
        part = ColumnRouter(fabric, dests=dests)
        for dest in map(int, dests):
            np.testing.assert_array_equal(part.hops(dest), full.hops(dest))
            d_part, p_part, out_part, _ = part.column(dest, weights)
            d_full, p_full, out_full, _ = full.column(dest, weights)
            np.testing.assert_array_equal(d_part, d_full)
            np.testing.assert_array_equal(p_part, p_full)
            assert out_part == out_full


@_slow
@given(random_topo_params)
def test_numpy_kernel_is_exact_oracle(params):
    """The vectorized column primitive equals the heap kernel *per call*,
    on the evolving weights of a real SSSP run — stronger than whole-run
    equality because every intermediate ``(dist, parent)`` must match."""
    fabric = _fabric(params)
    T = fabric.num_terminals
    weights = np.full(fabric.num_channels, T * T + 1, dtype=np.int64)
    is_term = fabric.kinds == 1
    router = ColumnRouter(fabric)
    for t in range(T):
        dest = int(fabric.terminals[t])
        d_ref, p_ref = dijkstra_to_dest(fabric, dest, weights)
        dist, parent, _, _ = router.column(dest, weights)
        np.testing.assert_array_equal(dist, d_ref)
        np.testing.assert_array_equal(parent, p_ref)
        update_weights_for_dest(fabric, dest, d_ref, p_ref, weights, is_term)


@_slow
@given(random_topo_params, st.booleans())
def test_fast_weight_update_is_exact_oracle(params, count_switch_sources):
    """The level-vectorized update equals the farthest-first reference
    *per call* on the evolving weights of a real run, in both
    source-counting modes — with depths derived from the parent pointers
    and with the router's hop column as the levels."""
    fabric = _fabric(params)
    weights_ref = np.ones(fabric.num_channels, dtype=np.int64)
    is_term = fabric.kinds == 1
    router = ColumnRouter(fabric)
    for t in range(fabric.num_terminals):
        dest = int(fabric.terminals[t])
        before = weights_ref.copy()
        dist, parent = dijkstra_to_dest(fabric, dest, before)
        update_weights_for_dest(
            fabric, dest, dist, parent, weights_ref, is_term,
            count_switch_sources=count_switch_sources,
        )
        fast = before.copy()
        update_weights_for_dest_fast(
            fabric, dest, dist, parent, fast, is_term,
            count_switch_sources=count_switch_sources,
        )
        np.testing.assert_array_equal(fast, weights_ref)
        _, r_parent, _, levels = router.column(dest, before)
        if levels is not None:
            by_levels = before.copy()
            update_weights_for_dest_fast(
                fabric, dest, dist, r_parent, by_levels, is_term,
                count_switch_sources=count_switch_sources, levels=levels,
            )
            np.testing.assert_array_equal(by_levels, weights_ref)
