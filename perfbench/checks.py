"""Correctness checks, digests and routing-quality counts.

Every check re-derives what it needs from the routing's forwarding
tables, so a table corrupted after certification is caught too. A check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from repro.deadlock.certificate import check_against_routing
from repro.exceptions import ReproError
from repro.routing.paths import extract_paths


def digest(arr, dtype) -> str:
    """sha256 of an array's canonical bytes (pinned dtype, C order).

    Computed exactly as ``tests/data/golden_gen.py`` computes the pinned
    golden digests, so the two can be compared directly.
    """
    a = np.ascontiguousarray(np.asarray(arr, dtype=dtype))
    return hashlib.sha256(a.tobytes()).hexdigest()


def routing_digests(result) -> dict:
    """Digests of a routing's tables, balancing weights and path layers."""
    out = {"next_channel_sha256": digest(result.tables.next_channel, np.int32)}
    if result.channel_weights is not None:
        out["channel_weights_sha256"] = digest(result.channel_weights, np.int64)
    if result.layered is not None:
        out["path_layers_sha256"] = digest(result.layered.path_layers, np.int16)
    return out


def load_golden(path: Path) -> dict:
    """The DFSSSP entry of a small literal-array golden fixture, as digests."""
    entry = json.loads(path.read_text())["engines"]["dfsssp"]
    out = {
        "next_channel_sha256": digest(entry["next_channel"], np.int32),
        "channel_weights_sha256": digest(entry["channel_weights"], np.int64),
        "path_layers_sha256": digest(entry["path_layers"], np.int16),
        "layers_used": entry["layers_used"],
    }
    if "cycles_broken" in entry:
        out["cycles_broken"] = entry["cycles_broken"]
    return out


def golden_problems(result, golden: dict) -> list[str]:
    """Differences between a DFSSSP result and a golden digest record."""
    got = routing_digests(result)
    got["layers_used"] = int(result.layered.layers_used)
    got["cycles_broken"] = int(result.stats.get("cycles_broken", -1))
    return [
        f"golden mismatch on {key}: {got.get(key)} != {want}"
        for key, want in golden.items()
        if got.get(key) != want
    ]


def hop_distances(fabric) -> np.ndarray:
    """``dist[t_idx, v]``: hop count between terminal ``t_idx`` and node ``v``.

    Every cable is a channel pair, so distances are symmetric and one BFS
    per terminal gives the distance from every node *to* that terminal.
    """
    ch = fabric.channels
    graph = csr_matrix(
        (np.ones(fabric.num_channels), (ch.src, ch.dst)),
        shape=(fabric.num_nodes, fabric.num_nodes),
    )
    return shortest_path(graph, unweighted=True, indices=fabric.terminals)


def resolve_problems(tables) -> list[str]:
    """Every (terminal, terminal) pair must resolve through the tables.

    Each entry must name a channel leaving its own row's node, and every
    terminal needs an injection entry toward every other terminal. The
    switch rows are walked by ``extract_paths`` (missing entries, loops).
    """
    fab = tables.fabric
    nc = np.asarray(tables.next_channel)
    if (nc >= fab.num_channels).any():
        return ["table entry names a channel the fabric does not have"]
    rows = np.arange(fab.num_nodes)[:, None]
    wrong = (nc >= 0) & (fab.channels.src[np.maximum(nc, 0)] != rows)
    if wrong.any():
        node, t_idx = (int(v) for v in np.argwhere(wrong)[0])
        return [f"entry at node {node} for terminal index {t_idx} leaves another node"]
    T = fab.num_terminals
    missing = (nc[fab.terminals] < 0) & ~np.eye(T, dtype=bool)
    if missing.any():
        u, t_idx = (int(v) for v in np.argwhere(missing)[0])
        return [f"terminal {int(fab.terminals[u])} has no entry toward terminal index {t_idx}"]
    return []


def minimality_problems(paths, dist: np.ndarray) -> list[str]:
    """SSSP routes are hop-minimal: path lengths equal BFS distances."""
    fab = paths.fabric
    lengths = paths.lengths().reshape(fab.num_terminals, fab.num_switches)
    longer = int(np.count_nonzero(lengths != dist[:, fab.switches]))
    return [f"{longer} switch-to-terminal paths are not hop-minimal"] if longer else []


def routing_problems(result, cert, verdict) -> tuple[list[str], object]:
    """All checks on one certified layered routing.

    Returns ``(problems, paths)``; ``paths`` is re-extracted from the
    tables (``None`` when extraction itself failed).
    """
    problems = [] if verdict.ok else [f"standalone certificate check: {verdict.reason}"]
    if result.layered is None:
        return problems + ["routing has no virtual-layer assignment"], None
    try:
        paths = extract_paths(result.tables)
    except ReproError as err:
        return problems + [f"path extraction: {err}"], None
    binding = check_against_routing(cert, result.layered, paths)
    if not binding.ok:
        problems.append(f"certificate does not bind to the routing: {binding.reason}")
    problems += resolve_problems(result.tables)
    problems += minimality_problems(paths, hop_distances(result.tables.fabric))
    return problems, paths


def max_channel_paths(tables, paths) -> int:
    """Most terminal-to-terminal routes crossing one switch-to-switch channel.

    A source terminal's route is its injection channel followed by the
    switch path from its first-hop switch, so each switch path carries one
    route per source terminal whose table entry enters that switch.
    """
    fab = tables.fabric
    S, T = fab.num_switches, fab.num_terminals
    inject = np.asarray(tables.next_channel)[fab.terminals]  # (T src, T dst)
    src_t, dst_t = np.nonzero(inject >= 0)
    first_sw = fab.switch_index[fab.channels.dst[inject[src_t, dst_t]]]
    routes = np.zeros(T * S, dtype=np.int64)  # per pid = t_idx * S + s_idx
    np.add.at(routes, dst_t * S + first_sw, 1)
    load = np.bincount(
        paths.chans, weights=np.repeat(routes, paths.lengths()), minlength=fab.num_channels
    )
    switch_load = load[fab.is_switch_channel]
    return int(switch_load.max()) if len(switch_load) else 0


def alltoall_problems(outcome, ranks: int) -> list[str]:
    """A DES all-to-all must drain completely: every packet and flow delivered."""
    problems = []
    if outcome.status != "completed":
        problems.append(f"DES ended {outcome.status!r}, not 'completed'")
    if outcome.delivered != outcome.injected:
        problems.append(f"delivered {outcome.delivered} of {outcome.injected} packets")
    if outcome.dropped or outcome.lost:
        problems.append(f"{outcome.dropped} packets dropped, {outcome.lost} lost")
    if outcome.flows_completed != ranks * (ranks - 1):
        problems.append(f"{outcome.flows_completed} of {ranks * (ranks - 1)} flows completed")
    return problems
