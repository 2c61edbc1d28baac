"""Engine-level tests of the column primitive: budgets, the fallback arm,
metrics and spans."""

from __future__ import annotations

import pytest

from repro import topologies
from repro.core import DFSSSPEngine, SSSPEngine
from repro.core.column import OUTCOMES, ExactReduction
from repro.exceptions import ComputeTimeoutError
from repro.obs import InMemorySink, get_registry, use_sink
from repro.service.budget import compute_budget

from tests.parallel.test_differential import assert_matches_oracle, oracle_route


@pytest.fixture(scope="module")
def fabric():
    return topologies.random_topology(10, 20, 2, seed=5)


@pytest.fixture(autouse=True)
def _fresh_registry():
    get_registry().reset()
    yield
    get_registry().reset()


def test_parallel_run_honours_expired_budget(fabric):
    """An exhausted deadline surfaces as ComputeTimeoutError from every
    engine on the primitive, so the supervisor's escalation ladder works
    unchanged."""
    for engine in (SSSPEngine(), DFSSSPEngine()):
        with pytest.raises(ComputeTimeoutError):
            with compute_budget(0.0, label="repair"):
                engine.route(fabric)


def test_validation_fallback_still_bit_identical(monkeypatch):
    """Force every column outside the weight bound to fail validation: the
    engine must re-run the full Dijkstra per such destination and still
    match the oracle. Switch sources on a ring push the weights past the
    bound, so the non-proven arm is really taken."""
    fabric = topologies.ring(8, terminals_per_switch=2)
    tables, weights = oracle_route(fabric, count_switch_sources=True)
    monkeypatch.setattr(ExactReduction, "validate", lambda self, *a, **k: False)
    result = SSSPEngine(count_switch_sources=True).route(fabric)
    assert_matches_oracle(result, tables, weights)
    columns = result.stats["columns"]
    assert columns["validated"] == 0
    assert columns["fallback"] > 0
    assert columns["proven"] + columns["fallback"] == fabric.num_terminals
    reg = get_registry()
    assert reg.value("sssp_columns_total", outcome="fallback") == columns["fallback"]


def test_parallel_metrics_and_spans(fabric):
    """One ``sssp.run`` span per route with one ``sssp.dijkstra`` child per
    destination carrying its outcome; the registry counts the same."""
    sink = InMemorySink()
    with use_sink(sink):
        result = SSSPEngine().route(fabric)
    T = fabric.num_terminals
    reg = get_registry()
    assert reg.value("sssp_sources_routed") == T
    assert reg.histogram("sssp_dijkstra_seconds", "").count == T
    assert sum(reg.value("sssp_columns_total", outcome=o) for o in OUTCOMES) == T

    (run,) = sink.find("sssp.run")
    assert run.attrs["destinations"] == T
    columns = sink.find("sssp.dijkstra")
    assert len(columns) == T
    assert all(sp.parent is run for sp in columns)
    assert sorted(sp.attrs["dest"] for sp in columns) == sorted(map(int, fabric.terminals))
    by_outcome = {o: 0 for o in OUTCOMES}
    for sp in columns:
        by_outcome[sp.attrs["outcome"]] += 1
    assert by_outcome == result.stats["columns"]
