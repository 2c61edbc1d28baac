"""Exact routing columns: min-hop refine under a checked weight bound.

A *routing column* is one destination's ``(dist, parent)`` pair — the
weighted shortest paths of every node toward that destination, with
``parent[v]`` the first channel of ``v``'s path. The reference is the
heap Dijkstra :func:`dijkstra_to_dest` below; this module
computes the same column bit for bit, far faster, and proves it.

Hop columns do not depend on the balancing weights, so they never go
stale. :class:`ColumnRouter` therefore runs one ``scipy.sparse.csgraph``
breadth-first sweep per route, from the switches the destinations hang
off, and derives each destination's hop column from that table: the
minimum over its attached switches, with terminals never forwarding.
Per destination, :meth:`ExactReduction.refine` then optimises the weights
over the *min-hop DAG* only — a few vectorized level sweeps instead of a
full Dijkstra.

The DAG optimum is the Dijkstra answer whenever no detour can win. With
``h`` the largest hop count in the column, a min-hop path costs at most
``h · max(w)`` and any longer path at least ``(h + 1) · min(w)``, so::

    h · (max(w) − min(w)) < min(w)

makes every detour strictly dearer than every min-hop path. Every
minimiser of ``dist[u] + w[c]`` then lies in the DAG and the refine's
lowest-channel-id tie-break *is* Dijkstra's. SSSP's start weight
``W0 = T² + 1`` keeps the bound true on a fresh route; the observed
``min(w)`` (not ``W0``) enters it because repairs carry weights forward
and chained repairs climb far above ``W0``. Columns are resolved in
this order, each outcome counted:

``proven``
    the bound holds; the refined column is exact by the argument above;
``validated``
    the bound fails but :meth:`ExactReduction.validate` confirms the
    refined column is the unique Bellman fixpoint with Dijkstra's
    tie-break (one O(E) pass);
``fallback``
    validation fails; the column comes from ``dijkstra_to_dest``.

After each column the balancing weights advance by subtree counting:
every channel gains the number of sources routed across it.
:func:`update_weights_for_dest_fast` is the production update (one numpy
step per tree level) and :func:`update_weights_for_dest` (farthest-first)
its oracle; :meth:`ColumnRouter.advance` does column plus update.
"""

from __future__ import annotations

import heapq

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from repro.network.fabric import Fabric
from repro.obs import get_registry
from repro.service.budget import check_budget

INT64_INF = np.iinfo(np.int64).max

#: how a column was resolved, in the order they are tried
OUTCOMES = ("proven", "validated", "fallback")

#: stands in for "unreachable" while hop counts are combined
_FAR = np.iinfo(np.int32).max // 2


def hop_dtype(diameter: int):
    """Smallest signed integer dtype holding hop counts up to ``diameter``
    (and the -1 "unreachable" marker)."""
    for dt in (np.int8, np.int16, np.int32):
        if diameter < np.iinfo(dt).max:
            return dt
    raise ValueError(f"hop diameter {diameter} does not fit int32")


def hop_table(fabric: Fabric, targets: np.ndarray) -> np.ndarray:
    """Switch-to-switch hop counts toward each switch in ``targets``.

    Row ``i`` holds, per switch index, the minimum number of
    switch-to-switch hops to ``targets[i]`` (-1 if unreachable). One
    breadth-first sweep over the reversed switch graph; the dtype is
    the smallest that holds the observed diameter (:func:`hop_dtype`).
    """
    S = fabric.num_switches
    sw = fabric.is_switch_channel
    src = fabric.switch_index[fabric.channels.src[sw]]
    dst = fabric.switch_index[fabric.channels.dst[sw]]
    # Reversed edges: a sweep from `a` walks channels backwards, i.e. it
    # measures the hops *to* `a`. Parallel cables collapse; unweighted.
    graph = csr_matrix((np.ones(len(src), dtype=np.int8), (dst, src)), shape=(S, S))
    rows = fabric.switch_index[np.asarray(targets, dtype=np.int64)]
    if not len(rows):
        return np.zeros((0, S), dtype=np.int8)
    far = shortest_path(graph, directed=True, unweighted=True, indices=rows)
    reach = np.isfinite(far)
    diameter = int(far[reach].max()) if reach.any() else 0
    return np.where(reach, far, -1).astype(hop_dtype(diameter))


class ExactReduction:
    """Per-fabric scratch state for the refine/validate steps.

    Groups the fabric's channels by their source node once (reusing the
    CSR out-channel layout) so each per-destination step is pure vector
    arithmetic.
    """

    def __init__(self, fabric: Fabric):
        self.fabric = fabric
        # Channels grouped by src node, lowest channel id first — exactly
        # the CSR out-channel ordering.
        self.chan = fabric.out_chan.astype(np.int64)
        self.chan_src = fabric.channels.src[self.chan]
        self.chan_dst = fabric.channels.dst[self.chan]
        self.dst_is_switch = fabric.kinds[self.chan_dst] == 0  # NodeKind.SWITCH
        self.terminals = fabric.terminals

    def refine(self, dest: int, hops: np.ndarray, weights: np.ndarray):
        """Weighted ``(dist, parent)`` column restricted to the min-hop DAG.

        ``hops`` is ``dest``'s hop column (-1 = unreachable). The result
        is exact only under the weight bound or after :meth:`validate`.
        """
        n = self.fabric.num_nodes
        dist = np.full(n, INT64_INF, dtype=np.int64)
        parent = np.full(n, -1, dtype=np.int32)
        dist[dest] = 0
        # Only switches and the destination receive: other terminals get
        # hop -1 on the receiving side, which keeps them out of the DAG.
        recv = hops.copy()
        recv[self.terminals] = -1
        recv[dest] = 0
        hv = hops[self.chan_src]
        hu = recv[self.chan_dst]
        dag = np.flatnonzero((hu >= 0) & (hv == hu + 1))
        level = hv[dag]
        by_level = np.argsort(level, kind="stable")
        dag = dag[by_level]
        bounds = np.searchsorted(level[by_level], np.arange(1, int(hops.max()) + 2))
        # CSR order survives the stable sort: within a level each node's
        # DAG channels are contiguous, lowest channel id first.
        c_all = self.chan[dag]
        v_all = self.chan_src[dag]
        u_all = self.chan_dst[dag]
        w_all = weights[c_all]
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            if lo == hi:
                continue
            cand = dist[u_all[lo:hi]] + w_all[lo:hi]
            c_ids = c_all[lo:hi]
            v_ids = v_all[lo:hi]
            order = np.lexsort((c_ids, cand, v_ids))
            v_sorted = v_ids[order]
            first = np.ones(len(v_sorted), dtype=bool)
            first[1:] = v_sorted[1:] != v_sorted[:-1]
            best = order[first]
            v_best = v_ids[best]
            dist[v_best] = cand[best]
            parent[v_best] = c_ids[best]
        return dist, parent

    def validate(
        self, dest: int, dist: np.ndarray, parent: np.ndarray, weights: np.ndarray
    ) -> bool:
        """True iff ``(dist, parent)`` is exactly the heap Dijkstra answer.

        With strictly positive weights that answer is the unique Bellman
        fixpoint with the lowest-channel-id tie-break: for every node
        ``v != dest``, ``dist[v] == min(dist[u] + w[c])`` over channels
        ``c = (v -> u)`` into forwarding nodes, ``parent[v]`` the lowest
        channel id attaining it, and unreachable nodes at INF / -1. One
        vectorized O(E) pass checks all of it.
        """
        receives = self.dst_is_switch | (self.chan_dst == dest)
        du = dist[self.chan_dst]
        usable = receives & (du < INT64_INF)
        # The inner where keeps INF + w from overflowing on masked lanes.
        cand = np.where(usable, du + np.where(usable, weights[self.chan], 0), INT64_INF)
        order = np.lexsort((self.chan, cand, self.chan_src))
        v_sorted = self.chan_src[order]
        first = np.ones(len(v_sorted), dtype=bool)
        first[1:] = v_sorted[1:] != v_sorted[:-1]
        v_best = v_sorted[first]
        d_best = cand[order][first]
        c_best = self.chan[order][first]
        n = self.fabric.num_nodes
        fix_d = np.full(n, INT64_INF, dtype=np.int64)
        fix_c = np.full(n, -1, dtype=np.int64)
        fix_d[v_best] = d_best
        reached = d_best < INT64_INF
        fix_c[v_best[reached]] = c_best[reached]
        fix_d[dest] = 0
        fix_c[dest] = -1
        if not np.array_equal(fix_d, dist):
            return False
        return bool(np.array_equal(fix_c, parent.astype(np.int64)))


class ColumnRouter:
    """The production column primitive for one fabric and destination set.

    ``dests`` are the terminal node ids that will be routed (default:
    all terminals); the hop table covers exactly the switches they are
    attached to. ``count_switch_sources`` is the weight-update mode (see
    :func:`update_weights_for_dest`). ``counts`` tallies each
    :data:`OUTCOMES` entry.
    """

    def __init__(self, fabric: Fabric, dests=None, count_switch_sources: bool = False):
        self.fabric = fabric
        self.count_switch_sources = count_switch_sources
        self._is_term = fabric.kinds == 1  # NodeKind.TERMINAL
        self.reduction = ExactReduction(fabric)
        dests = fabric.terminals if dests is None else np.asarray(dests, dtype=np.int64)
        chans = fabric.channels
        # Channels switch -> terminal: a terminal's attachments. A
        # multi-homed terminal has several; its hop column takes the min.
        into = (fabric.kinds[chans.dst] == 1) & (fabric.kinds[chans.src] == 0)
        att_term = chans.dst[into]
        att_sw = chans.src[into]
        wanted = np.isin(att_term, dests)
        targets = np.unique(att_sw[wanted])
        self._table = hop_table(fabric, targets)
        row_of = np.full(fabric.num_nodes, -1, dtype=np.int64)
        row_of[targets] = np.arange(len(targets))
        rows: dict[int, list[int]] = {int(t): [] for t in dests}
        for t, s in zip(att_term[wanted].tolist(), att_sw[wanted].tolist()):
            rows[t].append(int(row_of[s]))
        self._rows = {t: np.unique(np.asarray(r, dtype=np.int64)) for t, r in rows.items()}
        # Channels out of terminals: a non-destination terminal's hop is
        # one more than its best attached switch (or 1 when it is wired
        # straight to the destination); it never forwards for others.
        from_term = fabric.kinds[chans.src] == 1
        order = np.argsort(chans.src[from_term], kind="stable")
        self._tc_src = chans.src[from_term][order]
        self._tc_dst = chans.dst[from_term][order]
        self._tc_dst_is_switch = fabric.kinds[self._tc_dst] == 0
        self._switches = fabric.switches
        self.counts = dict.fromkeys(OUTCOMES, 0)

    def hops(self, dest: int) -> np.ndarray:
        """``dest``'s hop column over all nodes (int32, -1 = unreachable)."""
        rows = self._rows.get(dest)
        if rows is None:
            raise ValueError(f"node {dest} is not a destination this router was built for")
        h = np.full(self.fabric.num_nodes, _FAR, dtype=np.int32)
        if len(rows):
            block = self._table[rows].astype(np.int32)
            block[block < 0] = _FAR
            h[self._switches] = block.min(axis=0) + 1
        h[dest] = 0
        via = h[self._tc_dst] + 1
        via[~self._tc_dst_is_switch & (self._tc_dst != dest)] = _FAR
        np.minimum.at(h, self._tc_src, via)
        h[dest] = 0
        h[h >= _FAR] = -1
        return h

    def column(self, dest: int, weights: np.ndarray):
        """``(dist, parent, outcome, levels)`` for ``dest`` under
        ``weights``; ``(dist, parent)`` is bit-identical to
        ``dijkstra_to_dest(fabric, dest, weights)``. ``levels`` is the hop
        column when the parent tree is the refined, hop-layered one (every
        parent channel drops exactly one hop), else None. Both exactness
        arguments need strictly positive weights; any other weight goes
        straight to the fallback."""
        hops = self.hops(dest)
        red = self.reduction
        dist, parent = red.refine(dest, hops, weights)
        w_min = int(weights.min()) if len(weights) else 1
        w_max = int(weights.max()) if len(weights) else 1
        levels = hops
        if int(hops.max()) * (w_max - w_min) < w_min:
            outcome = "proven"
        elif w_min > 0 and red.validate(dest, dist, parent, weights):
            outcome = "validated"
        else:
            dist, parent = dijkstra_to_dest(self.fabric, dest, weights)
            outcome, levels = "fallback", None
        self.counts[outcome] += 1
        return dist, parent, outcome, levels

    def advance(self, dest: int, weights: np.ndarray):
        """Route ``dest`` and apply its balancing update to ``weights`` in
        place. Returns ``(parent, outcome)``."""
        dist, parent, outcome, levels = self.column(dest, weights)
        update_weights_for_dest_fast(
            self.fabric, dest, dist, parent, weights, self._is_term,
            count_switch_sources=self.count_switch_sources, levels=levels,
        )
        return parent, outcome


def record_column_counts(counts: dict) -> dict:
    """Add one run's column outcomes to ``sssp_columns_total{outcome}``
    and return them as the ``stats["columns"]`` entry."""
    reg = get_registry()
    for outcome in OUTCOMES:
        reg.counter(
            "sssp_columns_total",
            "routing columns by how their exactness was established",
            outcome=outcome,
        ).inc(counts[outcome])
    return {outcome: int(counts[outcome]) for outcome in OUTCOMES}


def dijkstra_to_dest(fabric: Fabric, dest: int, weights: np.ndarray):
    """Weighted shortest paths from every node *to* ``dest`` — the heap
    reference behind :class:`ColumnRouter`'s fallback and the test oracle.

    Returns ``(dist, parent)`` where ``parent[v]`` is the first channel of
    ``v``'s path toward ``dest`` (-1 for ``dest`` itself / unreachable).
    Ties break on (distance, node id, channel id) for determinism.
    """
    dist = np.full(fabric.num_nodes, INT64_INF, dtype=np.int64)
    parent = np.full(fabric.num_nodes, -1, dtype=np.int32)
    dist[dest] = 0
    heap: list[tuple[int, int]] = [(0, dest)]
    chan_dst = fabric.channels.dst
    reverse = fabric.channels.reverse
    settled = np.zeros(fabric.num_nodes, dtype=bool)
    polls = 0
    while heap:
        polls += 1
        if not polls & 0x3FF:  # poll the compute budget every 1024 pops
            check_budget()
        d, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        if u != dest and not fabric.is_switch(u):
            continue  # terminals never forward traffic for others
        # Relax predecessors v of u: forward channel c = (v -> u) is the
        # reverse of each outgoing channel (u -> v).
        for c_out in fabric.out_channels(u):
            c = int(reverse[c_out])
            v = int(chan_dst[c_out])
            if settled[v]:
                continue
            nd = d + int(weights[c])
            if nd < dist[v] or (nd == dist[v] and c < parent[v]):
                dist[v] = nd
                parent[v] = c
                heapq.heappush(heap, (nd, v))
    return dist, parent


def update_weights_for_dest(
    fabric: Fabric,
    dest: int,
    dist: np.ndarray,
    parent: np.ndarray,
    weights: np.ndarray,
    is_term: np.ndarray,
    count_switch_sources: bool = False,
) -> None:
    """Add, to each channel, the number of (terminal) sources whose path
    to ``dest`` crosses it (subtree counting). The farthest-first
    reference; switches count as sources too if ``count_switch_sources``."""
    if count_switch_sources:
        cnt = np.ones(fabric.num_nodes, dtype=np.int64)
    else:
        cnt = is_term.astype(np.int64).copy()
    cnt[dest] = 0
    finite = np.flatnonzero(dist < INT64_INF)
    order = finite[np.argsort(dist[finite])[::-1]]  # farthest first
    for v in order:
        c = parent[v]
        if c < 0:
            continue
        weights[c] += cnt[v]
        # The parent channel c = (v -> u); all of v's sources continue
        # through u's parent channel next.
        u = fabric.channels.dst[c]
        cnt[u] += cnt[v]


def update_weights_for_dest_fast(
    fabric: Fabric,
    dest: int,
    dist: np.ndarray,
    parent: np.ndarray,
    weights: np.ndarray,
    is_term: np.ndarray,
    count_switch_sources: bool = False,
    levels: np.ndarray | None = None,
) -> None:
    """Vectorized :func:`update_weights_for_dest` — exact, not approximate.

    The reference walks nodes farthest-first; exactness only needs a
    *topological* order of the shortest-path tree (the increments are
    integer adds, which commute, and each node's count must be final
    before its parent consumes it). This version groups the routing
    nodes by tree level and applies one whole level per numpy operation,
    deepest level first. Within a level the parent channels are distinct
    (one per source node), so the fancy-indexed ``+=`` on ``weights`` is
    exact; the node counts funnel through ``np.add.at``.

    ``levels`` may give every node's depth in the tree directly — the hop
    column of a refined column, where each parent channel drops exactly
    one hop; otherwise depths are derived from the parent pointers.
    Bit-identical to the reference on every input; the differential
    suite asserts it.
    """
    n = fabric.num_nodes
    chan_dst = fabric.channels.dst
    if count_switch_sources:
        cnt = np.ones(n, dtype=np.int64)
    else:
        cnt = is_term.astype(np.int64)
    cnt[dest] = 0
    have = np.flatnonzero(parent >= 0)  # nodes that route via a parent channel
    if not len(have):
        return
    pchan = parent[have].astype(np.int64)
    pnode = chan_dst[pchan]
    if levels is not None:
        depth = levels[have]
    else:
        # Depth in the parent-pointer tree. Parent chains end at `dest`,
        # whose depth is 0; one pass resolves one level.
        pos = np.full(n, -1, dtype=np.int64)
        pos[have] = np.arange(len(have))
        pidx = pos[pnode]  # index of the parent within `have`; -1 => parent is dest
        depth = np.where(pidx < 0, 1, -1).astype(np.int64)
        todo = np.flatnonzero(depth < 0)
        while len(todo):
            pd = depth[pidx[todo]]
            ready = pd > 0
            if not ready.any():  # pragma: no cover - impossible for tree parents
                raise ValueError("parent pointers contain a cycle")
            depth[todo[ready]] = pd[ready] + 1
            todo = todo[~ready]
    by_depth = np.argsort(depth, kind="stable")
    bounds = np.searchsorted(depth[by_depth], np.arange(1, int(depth.max()) + 2))
    src = have[by_depth]
    pchan = pchan[by_depth]
    pnode = pnode[by_depth]
    # Deepest level first: every child's count is final before the parent
    # level reads it, the same invariant the farthest-first loop keeps.
    for lo, hi in zip(bounds[-2::-1].tolist(), bounds[:0:-1].tolist()):
        contrib = cnt[src[lo:hi]]
        weights[pchan[lo:hi]] += contrib  # pchan unique per source node
        np.add.at(cnt, pnode[lo:hi], contrib)
