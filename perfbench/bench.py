"""Workloads, timed loop and metrics of the repository benchmark.

See README.md in this directory for why each workload exists and which
metric each layer should move. The benchmark calls only public entry
points with their default options: engines are built as
``DFSSSPEngine()`` / ``SSSPEngine()`` and run in this one process.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from repro import topologies  # noqa: E402
from repro.core import DFSSSPEngine, SSSPEngine  # noqa: E402
from repro.deadlock.certificate import emit_certificate  # noqa: E402
from repro.deadlock.checker import check_certificate  # noqa: E402
from repro.deadlock.incremental import assign_layers_incremental  # noqa: E402
from repro.des import AllToAllWorkload, PacketDES  # noqa: E402
from repro.exceptions import FabricError  # noqa: E402
from repro.network.faults import fail_links  # noqa: E402
from repro.network.validate import check_routable  # noqa: E402
from repro.routing.base import LayeredRouting  # noqa: E402
from repro.routing.paths import extract_paths  # noqa: E402

import checks  # noqa: E402
from spans import Tracer  # noqa: E402

GOLDEN_DIR = ROOT / "tests" / "data" / "golden"

SETUP_MAX_REPEATS = 300


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload (the benchmark's are the defaults)."""

    random: tuple = (100, 300, 2)
    random_pool: int = 32
    dragonfly: tuple = (6, 3, 3)
    faults: int = 16
    des_participants: int = 64
    des_flow_bytes: int = 8192
    des_buffer_packets: int = 8
    #: setup is repeated at least ``setup_repeats`` times and until
    #: ``setup_min_s`` of setup time has accumulated, so a fast setup
    #: still has a steady median
    setup_repeats: int = 3
    setup_min_s: float = 3.0


#: sizes for the smoke test
TINY = Sizes(
    random=(8, 16, 2),
    random_pool=4,
    dragonfly=(2, 2, 1),
    faults=3,
    des_participants=6,
    setup_repeats=2,
    setup_min_s=0.0,
)


class CheckError(RuntimeError):
    """An output made outside the timed operations failed its checks."""


def derive_seed(seed: int, *tags) -> int:
    """A 32-bit seed derived from the benchmark seed, stable across runs."""
    h = hashlib.sha256(repr((seed, *tags)).encode()).digest()
    return int.from_bytes(h[:4], "little")


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


@dataclass
class Certified:
    """A routing together with its certificate and the standalone verdict."""

    result: object  # repro.routing.base.RoutingResult
    cert: object  # DeadlockFreedomCertificate
    verdict: object  # CheckResult


def certified_route(fabric) -> tuple[float, Certified]:
    """The timed route operation: fabric to a certified DFSSSP routing."""
    t0 = time.perf_counter()
    result = DFSSSPEngine().route(fabric)
    cert = emit_certificate(result.layered, extract_paths(result.tables))
    verdict = check_certificate(cert.to_dict())
    return time.perf_counter() - t0, Certified(result, cert, verdict)


def traced_route(fabric, tracer: Tracer) -> tuple[float, dict, list[str]]:
    """The same route composed from the layers' public calls, with spans.

    Returns its wall time, the digests of its tables and path layers, and
    the problems of its standalone certificate check.
    """
    t0 = time.perf_counter()
    with tracer.span("route"):
        with tracer.span("sssp.route"):
            sssp = SSSPEngine().route(fabric)
        with tracer.span("paths.extract"):
            paths = extract_paths(sssp.tables)
            active = paths.active_pids()
        with tracer.span("cdg.assign"):
            assignment = assign_layers_incremental(paths, pids=active)
        layered = LayeredRouting(sssp.tables, assignment.path_layers, assignment.num_layers)
        with tracer.span("cert.emit"):
            cert = emit_certificate(layered, paths)
        with tracer.span("cert.check"):
            verdict = check_certificate(cert.to_dict())
    dt = time.perf_counter() - t0
    tracer.count("sssp.columns", fabric.num_terminals)
    tracer.count("paths.count", paths.num_paths)
    tracer.count("paths.active", len(active))
    tracer.count("cdg.cycles_broken", assignment.cycles_broken)
    tracer.count("cdg.paths_moved", assignment.paths_moved)
    tracer.count("cdg.layers_needed", assignment.layers_needed)
    tracer.count("cert.edges", cert.num_edges)
    digests = {
        "next_channel_sha256": checks.digest(sssp.tables.next_channel, np.int32),
        "path_layers_sha256": checks.digest(layered.path_layers, np.int16),
    }
    problems = [] if verdict.ok else [f"composed route certificate: {verdict.reason}"]
    return dt, digests, problems


def _digest_problems(what: str, got: dict, want: dict) -> list[str]:
    return [
        f"{what} {key} differs from the untraced run"
        for key in got
        if got[key] != want.get(key)
    ]


# ----------------------------------------------------------------------
# Workloads. Each provides setup (timed as setup_s), op (the timed
# operation), check (outside the timed region), traced_op (the traced
# run's composed counterpart) and the routing-quality counts. Every run
# makes at least min_ops operations; quality averages over those.
# ----------------------------------------------------------------------
class _Workload:
    def __init__(self, sizes: Sizes, seed: int):
        self.sizes = sizes
        self.seed = seed

    def after_setup(self, state, tracer) -> dict:
        """Checks and quality counts of the setup output (not timed)."""
        return {}

    def max_ops(self, state):
        """How many distinct inputs setup prepared (None: one, reused)."""
        return None


class _RouteWorkload(_Workload):
    """Full certified DFSSSP routes of one or more fabrics."""

    def op(self, state, i):
        return certified_route(self.fabric(state, i))

    def check(self, state, i, out: Certified) -> tuple[list[str], dict]:
        problems, paths = checks.routing_problems(out.result, out.cert, out.verdict)
        quality = {"layers_needed": out.result.stats["layers_needed"]}
        if paths is not None:
            quality["max_channel_paths"] = checks.max_channel_paths(out.result.tables, paths)
        return problems, quality

    def digests(self, out: Certified) -> dict:
        return checks.routing_digests(out.result)

    def routing(self, state, out: Certified):
        return out.result

    def traced_op(self, state, i, tracer: Tracer, out: Certified):
        dt, got, problems = traced_route(self.fabric(state, i), tracer)
        return dt, problems + _digest_problems("composed route", got, self.digests(out))


class RouteRandom(_RouteWorkload):
    name = "route_random"
    min_ops = 8

    def setup(self, tracer):
        switches, links, per_switch = self.sizes.random
        fabrics = []
        for i in range(self.sizes.random_pool):
            with _span(tracer, "network.build"):
                fabrics.append(topologies.random_topology(
                    switches, links, per_switch, radix=None,
                    seed=derive_seed(self.seed, self.name, i),
                ))
        return {"fabrics": fabrics}

    def fabric(self, state, i):
        return state["fabrics"][i]

    def max_ops(self, state):
        return len(state["fabrics"])


def _check_setup_route(fabric, routed: Certified, tracer: Tracer | None) -> None:
    """Check the setup routing; a traced run also splits it by layer.

    Runs after setup, outside its timing. The composed route of a traced
    run must reproduce the setup routing's digests.
    """
    problems, _ = checks.routing_problems(routed.result, routed.cert, routed.verdict)
    if tracer is not None:
        _, got, traced_problems = traced_route(fabric, tracer)
        problems += traced_problems + _digest_problems(
            "composed setup route", got, checks.routing_digests(routed.result)
        )
    if problems:
        raise CheckError(f"setup routing is incorrect: {problems}")


class RepairDragonfly(_Workload):
    name = "repair_dragonfly"
    min_ops = 6

    def setup(self, tracer):
        with _span(tracer, "network.build"):
            fabric = topologies.dragonfly(*self.sizes.dragonfly)
        _, prior = certified_route(fabric)
        return {"fabric": fabric, "prior": prior, "faults": self._faults(fabric, tracer)}

    def _faults(self, fabric, tracer) -> list:
        """Seeded routable single-cable faults, all on intra-group cables.

        A global (inter-group) fault repairs far fewer destinations than a
        local one (~35-75 against ~90-110), so a stream of both makes the
        per-fault times bimodal, and the median of a run's few repairs
        jumps between the modes from noise alone. Draws that hit a global
        cable, or leave the fabric unroutable, are skipped.
        ``dragonfly(a, p, h)`` numbers switches group by group, ``a`` each.
        """
        group = fabric.switch_index // self.sizes.dragonfly[0]
        src, dst = fabric.channels.src, fabric.channels.dst
        faults = []
        for draw in range(100 * self.sizes.faults):
            if len(faults) == self.sizes.faults:
                return faults
            with _span(tracer, "network.degrade"):
                degraded = fail_links(fabric, 1, seed=derive_seed(self.seed, self.name, draw))
            dead = int(np.flatnonzero(degraded.channel_map < 0)[0])
            if group[src[dead]] != group[dst[dead]]:
                continue
            try:
                check_routable(degraded.fabric)
            except FabricError:
                continue  # unroutable draw: skipped, as a subnet manager would
            faults.append(degraded)
        raise CheckError("too few routable intra-group single-cable faults")

    def after_setup(self, state, tracer) -> dict:
        _check_setup_route(state["fabric"], state["prior"], tracer)
        return {"layers_needed": state["prior"].result.stats["layers_needed"]}

    def max_ops(self, state):
        return len(state["faults"])

    def op(self, state, i):
        t0 = time.perf_counter()
        repaired = DFSSSPEngine().reroute(state["prior"].result, state["faults"][i])
        cert = emit_certificate(repaired.layered, extract_paths(repaired.tables))
        verdict = check_certificate(cert.to_dict())
        return time.perf_counter() - t0, Certified(repaired, cert, verdict)

    def check(self, state, i, out: Certified):
        problems, paths = checks.routing_problems(out.result, out.cert, out.verdict)
        if out.result.tables.fabric is not state["faults"][i].fabric:
            problems.append("repaired routing is not on the degraded fabric")
        quality = {}
        if paths is not None:
            quality["max_channel_paths"] = checks.max_channel_paths(out.result.tables, paths)
        return problems, quality

    def digests(self, out: Certified) -> dict:
        return checks.routing_digests(out.result)

    def routing(self, state, out: Certified):
        return state["prior"].result

    def traced_op(self, state, i, tracer: Tracer, out: Certified):
        t0 = time.perf_counter()
        with tracer.span("repair"):
            with tracer.span("repair.reroute"):
                repaired = DFSSSPEngine().reroute(state["prior"].result, state["faults"][i])
            with tracer.span("paths.extract"):
                paths = extract_paths(repaired.tables)
            with tracer.span("cert.emit"):
                cert = emit_certificate(repaired.layered, paths)
            with tracer.span("cert.check"):
                verdict = check_certificate(cert.to_dict())
        dt = time.perf_counter() - t0
        info = repaired.stats.get("repair")
        tracer.count("repair.fallbacks", 0 if info else 1)
        if info:
            tracer.count("repair.dests_recomputed", info["destinations_repaired"])
            tracer.count("repair.fraction", info["fraction"])
            tracer.count("repair.escalations", info["escalations"])
        tracer.count("paths.count", paths.num_paths)
        tracer.count("paths.active", len(paths.active_pids()))
        tracer.count("cert.edges", cert.num_edges)
        problems = [] if verdict.ok else [f"traced repair certificate: {verdict.reason}"]
        got = checks.routing_digests(repaired)
        return dt, problems + _digest_problems("traced repair", got, self.digests(out))


class DesAlltoall(_Workload):
    name = "des_alltoall"
    min_ops = 1  # the quality counts come from the setup routing

    def __init__(self, sizes: Sizes, seed: int):
        super().__init__(sizes, seed)
        self.first_log_hash = None

    def setup(self, tracer):
        with _span(tracer, "network.build"):
            fabric = topologies.dragonfly(*self.sizes.dragonfly)
        _, routed = certified_route(fabric)
        rng = np.random.default_rng(derive_seed(self.seed, self.name))
        ranks = rng.permutation(fabric.terminals)[: self.sizes.des_participants]
        return {"fabric": fabric, "routed": routed, "ranks": [int(t) for t in ranks]}

    def after_setup(self, state, tracer) -> dict:
        _check_setup_route(state["fabric"], state["routed"], tracer)
        result = state["routed"].result
        paths = extract_paths(result.tables)
        return {
            "layers_needed": result.stats["layers_needed"],
            "max_channel_paths": checks.max_channel_paths(result.tables, paths),
        }

    def _simulate(self, state):
        workload = AllToAllWorkload(
            state["fabric"], size_bytes=self.sizes.des_flow_bytes, participants=state["ranks"]
        )
        des = PacketDES(state["routed"].result, buffer_packets=self.sizes.des_buffer_packets)
        t0 = time.perf_counter()
        outcome = des.run(workload)
        return time.perf_counter() - t0, outcome

    def op(self, state, i):
        return self._simulate(state)

    def check(self, state, i, out) -> tuple[list[str], dict]:
        problems = checks.alltoall_problems(out, len(state["ranks"]))
        if self.first_log_hash is None:
            self.first_log_hash = out.log_hash
        elif out.log_hash != self.first_log_hash:
            problems.append("event log differs from the first run of the same input")
        return problems, {}

    def digests(self, out) -> dict:
        return {"log_hash": out.log_hash}

    def routing(self, state, out):
        return state["routed"].result

    def traced_op(self, state, i, tracer: Tracer, out):
        with tracer.span("des.run"):
            dt, traced = self._simulate(state)
        tracer.count("des.events", traced.events_processed)
        tracer.count("des.events_per_s", traced.events_processed / dt)
        tracer.count("des.packets_delivered", traced.delivered)
        tracer.count("des.dropped", traced.dropped)
        tracer.count("des.max_queue_occupancy", traced.queue_summary()["max_occupancy"])
        fct = traced.fct_percentiles((50, 99))
        tracer.count("des.fct_p50_us", fct["p50"] * 1e6)
        tracer.count("des.fct_p99_us", fct["p99"] * 1e6)
        problems = [] if traced.log_hash == out.log_hash else ["traced DES log differs"]
        return dt, problems


WORKLOADS = {
    cls.name: cls for cls in (RouteRandom, RepairDragonfly, DesAlltoall)
}

#: ranks of the all-to-all a layer probe runs through the DES
PROBE_RANKS = 8


def probe_uncalled_layers(tracer: Tracer, result, seed: int) -> None:
    """Time, once and checked, each layer the workload's operations skip.

    Runs after the timed loop of a traced run, on the workload's own
    routing, so every per-layer time is a measurement on every workload:
    a single-cable fault repaired by ``reroute`` and a small all-to-all
    through the DES. Probes never count toward the end-to-end metrics.
    """
    fabric = result.tables.fabric
    if not tracer.self_times("repair.reroute"):
        for draw in range(100):
            with tracer.span("network.degrade"):
                degraded = fail_links(fabric, 1, seed=derive_seed(seed, "probe", draw))
            try:
                check_routable(degraded.fabric)
                break
            except FabricError:
                continue
        else:
            raise CheckError("no routable single-cable fault to probe repair with")
        with tracer.span("repair.reroute"):
            repaired = DFSSSPEngine().reroute(result, degraded)
        cert = emit_certificate(repaired.layered, extract_paths(repaired.tables))
        problems, _ = checks.routing_problems(repaired, cert, check_certificate(cert.to_dict()))
        if problems:
            raise CheckError(f"repair probe is incorrect: {problems}")
    if not tracer.self_times("des.run"):
        ranks = [int(t) for t in fabric.terminals[:PROBE_RANKS]]  # every fabric has >= 2
        workload = AllToAllWorkload(fabric, size_bytes=8192, participants=ranks)
        with tracer.span("des.run"):
            outcome = PacketDES(result, buffer_packets=8).run(workload)
        problems = checks.alltoall_problems(outcome, len(ranks))
        if problems:
            raise CheckError(f"DES probe is incorrect: {problems}")


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
#: per-layer time metric -> the span whose median self time it reports
LAYER_SPANS = {
    "network.build_s": "network.build",
    "network.degrade_s": "network.degrade",
    "sssp.route_s": "sssp.route",
    "paths.extract_s": "paths.extract",
    "cdg.assign_s": "cdg.assign",
    "cert.emit_s": "cert.emit",
    "cert.check_s": "cert.check",
    "repair.reroute_s": "repair.reroute",
    "des.run_s": "des.run",
}
#: per-layer count metric -> unit; it reports the median per-call sample
LAYER_COUNTS = {
    "sssp.columns": "count",
    "paths.count": "count",
    "paths.active": "count",
    "cdg.cycles_broken": "count",
    "cdg.paths_moved": "count",
    "cdg.layers_needed": "count",
    "cert.edges": "count",
    "repair.dests_recomputed": "count",
    "repair.fraction": "ratio",
    "repair.escalations": "count",
    "des.events": "count",
    "des.events_per_s": "1/s",
    "des.packets_delivered": "count",
    "des.dropped": "count",
    "des.max_queue_occupancy": "packets",
    "des.fct_p50_us": "sim_us",
    "des.fct_p99_us": "sim_us",
}


#: seconds one calibration sample takes on the reference box (2 cores,
#: 7 GB RAM) in its usual state; reported times are scaled to that speed
CALIBRATION_REF_S = 0.13
#: calibration after each setup repetition and operation covers this
#: share of its time, and this many seconds after warm-up and after setup
CALIBRATION_SHARE = 0.25
CALIBRATION_SETTLE_S = 0.3
#: sample groups on each side of an interval that scale it; one group
#: each side tracked drift as well but left more sampling noise
CALIBRATION_WINDOW = 2


def calibrate() -> float:
    """One machine-speed sample: seconds for a fixed pure-Python heap churn.

    Independent of the program under test, so a regression there cannot
    slow the yardstick, but made of the interpreter operations its hot
    loops use (a smaller run of the primitive
    ``benchmarks/test_perf_regression.py`` normalises by). The reference box's throughput drifts by about ±20%
    over seconds to minutes; samples taken between operations follow that
    drift, and dividing by their median removes most of it.
    """
    start = time.perf_counter()
    heap: list[tuple[int, int]] = []
    for i in range(60_000):
        heapq.heappush(heap, ((i * 2654435761) & 0xFFFFF, i))
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - start


def calibrate_for(seconds: float) -> list[float]:
    """Calibration samples until they add up to ``seconds`` (at least one)."""
    samples = [calibrate()]
    while sum(samples) < seconds:
        samples.append(calibrate())
    return samples


class Clock:
    """Calibrated times: each timed interval is scaled by the samples around it.

    After every timed interval the clock takes calibration samples; an
    interval is scaled by the median of the ``CALIBRATION_WINDOW`` sample
    groups taken before it and as many after it. These follow the box's
    drift far more closely than the median of a whole run does: within a
    run the box's speed moves by more than the operations' own spread.
    ``groups`` keeps every batch of samples in the order taken.
    """

    def __init__(self):
        self.groups: list[list[float]] = []
        self._timed: list[tuple[float, int]] = []  # (seconds, group taken right after)
        self.settle()

    def settle(self) -> None:
        """Samples not tied to an interval (after warm-up and after setup)."""
        self.groups.append(calibrate_for(CALIBRATION_SETTLE_S))

    def add(self, dt: float) -> int:
        """Record a timed interval, sample right after it; returns its index."""
        self.groups.append(calibrate_for(CALIBRATION_SHARE * dt))
        self._timed.append((dt, len(self.groups) - 1))
        return len(self._timed) - 1

    def scaled(self) -> list[float]:
        """Every recorded interval in seconds at the reference speed."""
        out = []
        for dt, after in self._timed:
            groups = self.groups[max(0, after - CALIBRATION_WINDOW):after + CALIBRATION_WINDOW]
            out.append(dt * CALIBRATION_REF_S / median(x for g in groups for x in g))
        return out

    def factor(self) -> float:
        """Reference over the run's median sample, for untimed-loop figures."""
        return CALIBRATION_REF_S / median(x for g in self.groups for x in g)


def scaled(metrics: dict, factor: float) -> dict:
    """Rescale the time-valued metrics (s, ms) and rates (1/s) by ``factor``."""
    out = {}
    for name, (value, unit) in metrics.items():
        if unit in ("s", "ms"):
            value = value * factor
        elif unit == "1/s":
            value = value / factor
        out[name] = (value, unit)
    return out


#: fabrics of the warm-up routes -> their pinned golden fixtures
WARM_UP_GOLDEN = {
    "ring.json": lambda: topologies.ring(5, 2),
    "xgft.json": lambda: topologies.xgft(2, (4, 4), (1, 2)),
}


def warm_up() -> None:
    """Tiny certified routes and one tiny DES run before any timing.

    The routes must match their golden DFSSSP fixtures, so every run also
    checks the engine's output against the pinned digests.
    """
    for golden, build in WARM_UP_GOLDEN.items():
        _, routed = certified_route(build())
        problems, _ = checks.routing_problems(routed.result, routed.cert, routed.verdict)
        problems += checks.golden_problems(
            routed.result, checks.load_golden(GOLDEN_DIR / golden)
        )
        if problems:
            raise CheckError(f"warm-up routing of {golden} is incorrect: {problems}")
    result = routed.result
    workload = AllToAllWorkload(result.tables.fabric, size_bytes=8192)
    PacketDES(result, buffer_packets=2).run(workload)
    calibrate()  # the first sample of a process runs slow


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "ram_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_imports": numba_imports,
        "git_commit": git_commit(),
    }


def run(name: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = Sizes(), tamper=None) -> dict:
    """Run one workload; returns ``{"result": ..., "record": ...}``.

    ``result`` is the one-line summary (``correct``, ``attempted``,
    ``failed``, ``metrics``); its setup and operation times are scaled by
    the calibration samples around each one (see :class:`Clock`), the
    traced run's layer times by the run's median sample.
    ``record`` adds the environment, sample counts, the raw and scaled
    times, the calibration samples in the order taken, digests, failures
    and (traced) the span summary.
    ``tamper`` is applied to every operation's output before it is
    checked; the smoke test uses it to corrupt a routing.
    """
    workload = WORKLOADS[name](sizes, seed)
    warm_up()
    tracer = Tracer() if trace else None
    clock = Clock()

    setup_times: list[float] = []
    setup_ids: list[int] = []
    while len(setup_times) < sizes.setup_repeats or (
        sum(setup_times) < sizes.setup_min_s and len(setup_times) < SETUP_MAX_REPEATS
    ):
        t0 = time.perf_counter()
        state = workload.setup(tracer)
        setup_times.append(time.perf_counter() - t0)
        setup_ids.append(clock.add(setup_times[-1]))
    base_quality = workload.after_setup(state, tracer)
    clock.settle()

    op_times: list[float] = []
    op_ids: list[int] = []
    traced_times: list[float] = []
    qualities: list[dict] = []
    digests: list[dict] = []
    failures: list[str] = []
    attempted = 0
    limit = workload.max_ops(state)
    min_ops = workload.min_ops if limit is None else min(workload.min_ops, limit)
    t_start = time.perf_counter()
    while attempted < min_ops or (
        time.perf_counter() - t_start < seconds and (limit is None or attempted < limit)
    ):
        i = attempted
        attempted += 1
        dt = 0.0
        try:
            dt, out = workload.op(state, i)
            if tamper is not None:
                tamper(out)
            problems, quality = workload.check(state, i, out)
            if tracer is not None and not problems:
                traced_dt, problems = workload.traced_op(state, i, tracer, out)
                traced_times.append(traced_dt)
        except Exception as err:  # an operation that raises is a failed operation
            problems = [f"{type(err).__name__}: {err}"]
        clock_id = clock.add(dt)
        if problems:
            failures.append(f"op {i}: " + "; ".join(problems))
            continue
        op_times.append(dt)
        op_ids.append(clock_id)
        if i < min_ops:
            qualities.append(quality)
        digests.append(workload.digests(out))
        routing = workload.routing(state, out)
    if tracer is not None and op_times:
        probe_uncalled_layers(tracer, routing, seed)

    failed = len(failures)
    scaled_times = clock.scaled()
    setup_scaled = [scaled_times[k] for k in setup_ids]
    op_scaled = [scaled_times[k] for k in op_ids]
    # Quality counts average over the first min_ops operations only, so
    # they do not change when a faster program fits more operations in.
    quality = dict(base_quality)
    for key in ("layers_needed", "max_channel_paths"):
        values = [q[key] for q in qualities if key in q]
        if values:
            quality[key] = sum(values) / len(values)
    if trace:
        metrics = scaled(layer_metrics(tracer, op_times, traced_times), clock.factor())
    else:
        metrics = {
            "setup_s": (median(setup_scaled), "s"),
            "op_p50_s": (median(op_scaled) if op_scaled else 0.0, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
            "layers_needed": (float(quality.get("layers_needed", 0)), "count"),
            "max_channel_paths": (float(quality.get("max_channel_paths", 0)), "count"),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "environment": environment(name, seed),
        "samples": {
            "setup": len(setup_times),
            "op": len(op_times),
            "traced_op": len(traced_times),
            "calibration": sum(len(g) for g in clock.groups),
        },
        "setup_times_s": setup_times,
        "setup_scaled_s": setup_scaled,
        "op_times_s": op_times,
        "op_scaled_s": op_scaled,
        "calibration_s": clock.groups,
        "time_scale": clock.factor(),
        "digests": digests,
        "failures": failures,
    }
    if tracer is not None:
        record["spans"] = tracer.summary()
    return {"result": result, "record": record}


def layer_metrics(tracer: Tracer, op_times: list[float], traced_times: list[float]) -> dict:
    """Per-layer metrics of a traced run; a count never recorded reads 0."""
    out = {name: (tracer.median_self(span), "s") for name, span in LAYER_SPANS.items()}
    out.update({name: (tracer.median_count(name), unit) for name, unit in LAYER_COUNTS.items()})
    columns = out["sssp.columns"][0]
    out["sssp.column_ms"] = (
        1000.0 * out["sssp.route_s"][0] / columns if columns else 0.0, "ms"
    )
    out["repair.fallbacks"] = (float(sum(tracer.counts.get("repair.fallbacks", []))), "count")
    overhead = median(traced_times) - median(op_times) if traced_times and op_times else 0.0
    out["trace.overhead_s"] = (overhead, "s")
    return out
