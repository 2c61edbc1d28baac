"""Single-source-shortest-path routing — the paper's Algorithm 1.

SSSP routing balances routes *globally*: it computes one weighted
shortest-path column per destination and, after each, increases every
channel's weight by the number of terminal-to-destination paths crossing
it. Later destinations therefore avoid channels that earlier destinations
loaded — unlike MinHop, whose balancing is per-switch-local.

Two fidelity details from §II:

* **Minimal paths.** Edge weights start at ``W0 = num_terminals**2 + 1``
  so that balancing weight rarely outweighs an extra hop: one fresh
  route adds at most ``T·(T−1) < W0`` to any single channel. That is a
  per-channel bound, not a path bound, and repairs carry weights forward
  (chained repairs push channels well past ``W0``), so nothing here
  *assumes* hop-minimality: every column is checked against the
  run-time weight bound of :mod:`repro.core.column` and falls back to
  the heap Dijkstra whenever the bound cannot prove it.
* **Multigraph awareness.** Parallel cables are distinct channels with
  individual weights, so trunks (Deimos' 30-cable bundles) get balanced
  route-by-route.

Columns come from :class:`~repro.core.column.ColumnRouter` — bit-identical
to :func:`dijkstra_to_dest`, which stays as its fallback and as the test
oracle. The per-destination weight update uses subtree counting: every
channel gains the number of terminal sources routed across it, O(V) per
destination instead of the naive O(T · diameter);
:func:`update_weights_for_dest_fast` is the production version and
:func:`update_weights_for_dest` (farthest-first) its oracle.
"""

from __future__ import annotations

import numpy as np

from repro.core.column import (
    ColumnRouter,
    dijkstra_to_dest,
    record_column_counts,
    update_weights_for_dest,
    update_weights_for_dest_fast,
)
from repro.network.fabric import Fabric
from repro.obs import DURATION_BUCKETS, get_hooks, get_registry, span
from repro.routing.base import RoutingEngine, RoutingResult, RoutingTables
from repro.service.budget import check_budget
from repro.utils.prng import make_rng, stable_fabric_seed

__all__ = [
    "SSSPEngine",
    "dijkstra_to_dest",
    "update_weights_for_dest",
    "update_weights_for_dest_fast",
]


class SSSPEngine(RoutingEngine):
    """Algorithm 1. Not deadlock-free — see :class:`DFSSSPEngine`.

    Parameters
    ----------
    dest_order:
        ``"index"`` (deterministic, default) or ``"random"`` — the order
        in which destinations are routed influences balancing slightly
        (the paper notes the source order defines the routes).
    seed:
        RNG seed for ``dest_order="random"``. ``None`` derives a stable
        seed from the fabric (:func:`~repro.utils.prng.stable_fabric_seed`)
        so results stay reproducible across processes and restarts.
    count_switch_sources:
        Whether switches count as path sources in the weight update. The
        paper's OpenSM implementation balances CA-to-CA routes only
        (default False).
    """

    name = "sssp"
    supports_incremental_reroute = True

    def __init__(
        self,
        dest_order: str = "index",
        seed=None,
        count_switch_sources: bool = False,
    ):
        if dest_order not in ("index", "random"):
            raise ValueError(f"dest_order must be 'index' or 'random', got {dest_order!r}")
        self.dest_order = dest_order
        self.seed = seed
        self.count_switch_sources = count_switch_sources

    # ------------------------------------------------------------------
    def _route(self, fabric: Fabric) -> RoutingResult:
        tables, total_weight, weights, columns = self._run(fabric)
        return RoutingResult(
            tables=tables,
            layered=None,
            deadlock_free=False,
            stats={
                "engine": self.name,
                "total_balancing_weight": total_weight,
                "columns": columns,
            },
            channel_weights=weights,
        )

    def reroute(self, prior, degraded) -> RoutingResult:
        """Incrementally repair ``prior`` on the degraded fabric.

        Only the destinations whose forwarding entries traverse dead
        channels are re-routed (with the surviving balancing weights);
        everything else is spliced over. Falls back to a full reroute when
        the degradation does not derive from the routed fabric.
        """
        from repro.exceptions import RepairError
        from repro.resilience.repair import count_fallback, repair_routing

        if prior is None:
            return self.route(degraded.fabric)
        try:
            return repair_routing(
                prior,
                degraded,
                engine_name=self.name,
                count_switch_sources=self.count_switch_sources,
            )
        except RepairError as err:
            count_fallback(self.name, reason=type(err).__name__)
            return self.route(degraded.fabric)

    def resolved_seed(self, fabric: Fabric):
        """The RNG seed a route on ``fabric`` will actually use.

        An explicit ``seed`` wins; otherwise (``seed=None``) the seed is
        derived deterministically from the fabric so that ``dest_order=
        "random"`` stays bit-reproducible across processes — checkpoint
        replay and the differential tests rely on it.
        """
        return self.seed if self.seed is not None else stable_fabric_seed(fabric)

    def _dest_order(self, fabric: Fabric) -> np.ndarray:
        order = np.arange(fabric.num_terminals)
        if self.dest_order == "random":
            make_rng(self.resolved_seed(fabric)).shuffle(order)
        return order

    def _run(self, fabric: Fabric) -> tuple[RoutingTables, int, np.ndarray, dict]:
        T = fabric.num_terminals
        w0 = T * T + 1
        order = self._dest_order(fabric)
        weights = np.full(fabric.num_channels, w0, dtype=np.int64)
        next_channel = np.full((fabric.num_nodes, T), -1, dtype=np.int32)

        reg = get_registry()
        m_sources = reg.counter(
            "sssp_sources_routed", "destination terminals routed (one column each)"
        )
        m_updates = reg.counter(
            "sssp_edge_weight_updates", "per-channel weight increments applied after columns"
        )
        m_column = reg.histogram(
            "sssp_dijkstra_seconds", "wall time per destination column (refine + weight update)",
            buckets=DURATION_BUCKETS,
        )
        hooks = get_hooks()

        with span("sssp.run", engine=self.name, destinations=int(T)):
            router = ColumnRouter(fabric, count_switch_sources=self.count_switch_sources)
            for t_idx in order:
                check_budget()  # cooperative deadline (repro.service)
                dest = int(fabric.terminals[t_idx])
                with span("sssp.dijkstra", dest=dest) as sp:
                    parent, outcome = router.advance(dest, weights)
                    next_channel[:, t_idx] = parent
                    sp.set_attr("outcome", outcome)
                # One `weights[c] += ...` happened per node with a parent
                # channel; counted vectorised to keep the hot loop clean.
                updates = int(np.count_nonzero(parent >= 0))
                m_sources.inc()
                m_updates.inc(updates)
                m_column.observe(sp.duration)
                hooks.iteration(
                    engine=self.name,
                    iteration=int(t_idx),
                    dest=dest,
                    weight_updates=updates,
                    dijkstra_seconds=sp.duration,
                )
            columns = record_column_counts(router.counts)

        total = int(weights.sum() - w0 * fabric.num_channels)
        return RoutingTables(fabric, next_channel, engine=self.name), total, weights, columns
