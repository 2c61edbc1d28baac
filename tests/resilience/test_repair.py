"""Incremental repair: correctness vs a full reroute, escalation, fallbacks."""

import numpy as np
import pytest

from repro import topologies
from repro.core import DFSSSPEngine, SSSPEngine
from repro.deadlock import verify_deadlock_free
from repro.exceptions import RepairError
from repro.network import fail_links, fail_switches, identity_degradation
from repro.network.faults import DegradedFabric
from repro.obs import MetricsRegistry, set_registry
from repro.resilience import relative_degradation, repair_routing, translate_tables
from repro.routing import extract_paths, path_minimality_violations


@pytest.fixture()
def fresh_registry():
    reg = MetricsRegistry()
    old = set_registry(reg)
    yield reg
    set_registry(old)


@pytest.fixture(scope="module")
def sssp_random16(random16):
    return SSSPEngine().route(random16)


@pytest.fixture(scope="module")
def one_link_down(random16):
    return fail_links(random16, 1, seed=3)


def test_translate_tables_flags_only_broken_columns(sssp_random16, one_link_down, random16):
    next_channel, affected = translate_tables(sssp_random16, one_link_down)
    T = random16.num_terminals
    assert 0 < len(affected) < T
    # Unaffected columns came over complete: every surviving node has an
    # entry except the destination's own column positions legitimately -1.
    old_nc = sssp_random16.tables.next_channel
    unaffected = np.setdiff1d(np.arange(T), affected)
    for t_idx in unaffected:
        old_col = old_nc[:, t_idx]
        new_col = next_channel[:, t_idx]
        assert (new_col >= 0).sum() == (old_col >= 0).sum()


def test_repair_matches_full_reroute_minimality(sssp_random16, one_link_down):
    engine = SSSPEngine()
    repaired = repair_routing(sssp_random16, one_link_down, engine_name="sssp")
    full = engine.route(one_link_down.fabric)
    paths_r = extract_paths(repaired.tables)
    paths_f = extract_paths(full.tables)
    # Both are hop-minimal, so per-pair path lengths agree exactly.
    assert (paths_r.lengths() == paths_f.lengths()).all()
    assert path_minimality_violations(repaired.tables, paths_r) == 0


def test_repair_stats_and_weights(sssp_random16, one_link_down, random16):
    repaired = repair_routing(sssp_random16, one_link_down, engine_name="sssp")
    rep = repaired.stats["repair"]
    assert 0 < rep["destinations_repaired"] < rep["destinations_total"]
    assert rep["destinations_total"] == random16.num_terminals
    assert 0.0 < rep["fraction"] < 1.0
    assert repaired.channel_weights is not None
    assert len(repaired.channel_weights) == one_link_down.fabric.num_channels


def test_repair_counters_strictly_fewer_than_full(
    fresh_registry, sssp_random16, one_link_down
):
    repair_routing(sssp_random16, one_link_down, engine_name="sssp")
    recomputed = fresh_registry.value("repair_destinations_recomputed")
    total = fresh_registry.value("repair_destinations_total")
    assert recomputed is not None and total is not None
    assert recomputed < total  # the whole point of incremental repair
    assert fresh_registry.value("repair_seconds") == 1  # one histogram observation


def test_dfsssp_repair_stays_deadlock_free(random16):
    engine = DFSSSPEngine()
    prior = engine.route(random16)
    degraded = fail_links(random16, 1, seed=3)
    repaired = repair_routing(prior, degraded, engine_name="dfsssp")
    assert repaired.deadlock_free
    paths = extract_paths(repaired.tables)
    assert verify_deadlock_free(repaired.layered, paths).deadlock_free
    assert repaired.layered.num_layers == prior.layered.num_layers
    assert path_minimality_violations(repaired.tables, paths) == 0


def test_dfsssp_repair_survives_switch_down(ktree42):
    engine = DFSSSPEngine()
    prior = engine.route(ktree42)
    degraded = fail_switches(ktree42, 1, seed=3)
    repaired = repair_routing(prior, degraded, engine_name="dfsssp")
    paths = extract_paths(repaired.tables)
    assert verify_deadlock_free(repaired.layered, paths).deadlock_free
    # Destination columns routing through the dead switch were recomputed.
    assert repaired.stats["repair"]["destinations_repaired"] > 0


def test_repair_escalates_paths_when_old_layer_cycles():
    # Scanned configuration where re-inserted paths cannot all keep their
    # old layers: unbalanced DFSSSP on a sparse random 10-switch fabric.
    fabric = topologies.random_topology(10, 22, 2, seed=1)
    engine = DFSSSPEngine(balance=False)
    prior = engine.route(fabric)
    degraded = fail_links(fabric, 2, seed=4)
    repaired = repair_routing(prior, degraded, engine_name="dfsssp")
    assert repaired.stats["repair"]["escalations"] > 0
    paths = extract_paths(repaired.tables)
    assert verify_deadlock_free(repaired.layered, paths).deadlock_free


def test_repair_rejects_missing_channel_map(sssp_random16, one_link_down):
    stripped = DegradedFabric(
        fabric=one_link_down.fabric,
        node_map=one_link_down.node_map,
        removed_cables=one_link_down.removed_cables,
        removed_switches=one_link_down.removed_switches,
        channel_map=None,
    )
    with pytest.raises(RepairError, match="no channel map"):
        repair_routing(sssp_random16, stripped, engine_name="sssp")


def test_repair_rejects_foreign_degradation(sssp_random16, ring5):
    with pytest.raises(RepairError, match="does not derive"):
        repair_routing(sssp_random16, identity_degradation(ring5), engine_name="sssp")


def test_repair_rejects_link_up(random16, one_link_down):
    # Route on the degraded fabric, then "repair" towards the healthy one:
    # the fabric gained channels, which incremental repair cannot splice.
    prior = SSSPEngine().route(one_link_down.fabric)
    back_up = relative_degradation(one_link_down, identity_degradation(random16))
    with pytest.raises(RepairError, match="gained channels"):
        repair_routing(prior, back_up, engine_name="sssp")


def test_engine_reroute_falls_back_on_repair_error(
    fresh_registry, sssp_random16, one_link_down
):
    stripped = DegradedFabric(
        fabric=one_link_down.fabric,
        node_map=one_link_down.node_map,
        removed_cables=one_link_down.removed_cables,
        removed_switches=one_link_down.removed_switches,
        channel_map=None,
    )
    result = SSSPEngine().reroute(sssp_random16, stripped)
    # Full reroute happened (no repair stats) and the fallback was counted.
    assert "repair" not in result.stats
    assert extract_paths(result.tables).num_paths > 0
    assert (
        fresh_registry.value("repair_full_fallbacks", engine="sssp", reason="RepairError") == 1
    )


def test_engine_reroute_uses_incremental_path(sssp_random16, one_link_down):
    result = SSSPEngine().reroute(sssp_random16, one_link_down)
    assert result.stats["repair"]["destinations_repaired"] > 0


def test_engine_reroute_without_prior_routes_fully(one_link_down):
    result = SSSPEngine().reroute(None, one_link_down)
    assert "repair" not in result.stats
    assert extract_paths(result.tables).num_paths > 0


def test_generic_engine_reroute_is_full_route(random16, one_link_down):
    from repro.routing import MinHopEngine

    engine = MinHopEngine()
    assert not engine.supports_incremental_reroute
    prior = engine.route(random16)
    result = engine.reroute(prior, one_link_down)
    assert "repair" not in result.stats
    assert result.tables.fabric is one_link_down.fabric


def test_chained_repairs_compose(random16):
    engine = DFSSSPEngine()
    result = engine.route(random16)
    from repro.resilience import FaultInjector

    injector = FaultInjector(random16, seed=6, p_switch_down=0.0, p_link_up=0.0)
    prev = injector.current
    for _ in range(3):
        stepped = injector.step()
        assert stepped is not None
        _, cur = stepped
        result = engine.reroute(result, relative_degradation(prev, cur))
        paths = extract_paths(result.tables)
        assert verify_deadlock_free(result.layered, paths).deadlock_free
        assert path_minimality_violations(result.tables, paths) == 0
        prev = cur
    assert result.stats.get("repair"), "last step should still be incremental"


def _oracle_repair(prior, degraded):
    """Incremental repair with the heap Dijkstra and farthest-first update."""
    from repro.core.sssp import dijkstra_to_dest, update_weights_for_dest
    from repro.resilience.repair import _translate_weights

    new = degraded.fabric
    next_channel, affected = translate_tables(prior, degraded)
    weights = _translate_weights(prior, degraded)
    is_term = new.kinds == 1
    for t_idx in affected:
        dest = int(new.terminals[t_idx])
        dist, parent = dijkstra_to_dest(new, dest, weights)
        next_channel[:, t_idx] = parent
        update_weights_for_dest(new, dest, dist, parent, weights, is_term)
    return next_channel, weights


def test_chained_repairs_past_w0_stay_bit_identical_to_the_oracle():
    """A chain of single-cable repairs carries balancing weight forward
    until every channel sits above W0 and the weight bound stops proving
    columns. The primitive must then validate (or fall back) and still
    match the heap oracle bit for bit, step after step."""
    from repro.exceptions import DisconnectedFabricError
    from repro.network.faults import fail_specific_cable

    fabric = topologies.dragonfly(4, 2, 2)
    w0 = fabric.num_terminals ** 2 + 1
    engine = SSSPEngine()
    result = engine.route(fabric)
    rng = np.random.default_rng(0)
    totals = {"proven": 0, "validated": 0, "fallback": 0}
    steps = 0
    while steps < 30:
        fab = result.tables.fabric
        cid = int(rng.choice(np.flatnonzero(fab.is_switch_channel)))
        a, b = int(fab.channels.src[cid]), int(fab.channels.dst[cid])
        degraded = fail_specific_cable(fab, a, b)
        try:
            repaired = engine.reroute(result, degraded)
        except DisconnectedFabricError:
            continue
        assert "repair" in repaired.stats  # incremental, not a full reroute
        tables, weights = _oracle_repair(result, degraded)
        np.testing.assert_array_equal(repaired.tables.next_channel, tables)
        np.testing.assert_array_equal(repaired.channel_weights, weights)
        for outcome, n in repaired.stats["columns"].items():
            totals[outcome] += n
        assert sum(repaired.stats["columns"].values()) == (
            repaired.stats["repair"]["destinations_repaired"]
        )
        result = repaired
        steps += 1
    assert int(result.channel_weights.min()) > w0  # W0 no longer bounds anything
    assert totals["validated"] + totals["fallback"] > 0  # the non-proven arms ran
    assert totals["proven"] > 0
