"""Scenario schema and per-engine sweep runner for the DES.

A *scenario* is a plain dict (usually loaded from JSON — the ``des``
CLI subcommand does exactly that) describing one experiment:

.. code-block:: json

    {
      "name": "allreduce-under-fault",
      "topology": {"family": "xgft", "ms": [4, 4], "ws": [1, 2]},
      "engines": ["dfsssp", "sssp"],
      "workload": {"kind": "ring_allreduce", "size_bytes": 1048576},
      "link": {"bandwidth_gbps": 100.0, "propagation_us": 0.5,
               "mtu_bytes": 4096},
      "buffer_packets": 16,
      "seed": 7,
      "horizon_s": null,
      "faults": [{"at_s": 0.0002}],
      "p_switch_down": 0.0,
      "record_events": false
    }

Every key except ``topology`` has a default (see ``_DEFAULTS``);
``buffer_packets: null`` means infinite buffers. Each engine in
``engines`` routes the same fabric and drives a *fresh* workload
instance through :class:`repro.des.PacketDES`, so the comparison is
apples-to-apples: identical flows, identical fault schedule (the fault
injector is re-seeded per engine), different forwarding tables.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

from repro.des.engine import FaultSpec, LinkParams, PacketDES
from repro.des.workloads import make_workload
from repro.exceptions import ReproError, SimulationError
from repro.network import topologies as topo
from repro.network.fabric import Fabric
from repro.network.io import load_fabric
from repro.obs import record_event, span
from repro.routing import ENGINES

_DEFAULTS = {
    "name": "scenario",
    "engines": ["dfsssp", "sssp"],
    "workload": {"kind": "ring_allreduce"},
    "link": {},
    "buffer_packets": 16,
    "seed": 0,
    "horizon_s": None,
    "faults": [],
    "p_switch_down": 0.0,
    "max_retransmits": 16,
    "record_events": False,
    "max_events": 5_000_000,
    # Constructor options for the SSSP/DFSSSP engines (e.g. {"dest_order":
    # "random", "cdg": "rebuild"}); other engines ignore them, and "cdg"
    # reaches DFSSSP only. The des CLI fills "cdg" from --cdg.
    "engine_opts": {},
}

#: engines whose constructors accept ``engine_opts``
_OPTION_ENGINES = ("sssp", "dfsssp")

_LINK_DEFAULTS = {"bandwidth_gbps": 100.0, "propagation_us": 0.5, "mtu_bytes": 4096}


def normalize_scenario(spec: dict) -> dict:
    """Validate ``spec`` and fill defaults; returns a new dict."""
    if not isinstance(spec, dict):
        raise SimulationError(f"scenario must be a dict, got {type(spec).__name__}")
    unknown = set(spec) - set(_DEFAULTS) - {"topology"}
    if unknown:
        raise SimulationError(f"unknown scenario keys {sorted(unknown)}")
    if "topology" not in spec:
        raise SimulationError("scenario needs a 'topology' section")
    out = {**_DEFAULTS, **spec}
    out["workload"] = dict(out["workload"])
    if "kind" not in out["workload"]:
        raise SimulationError("scenario workload needs a 'kind'")
    link = {**_LINK_DEFAULTS, **out["link"]}
    bad_link = set(link) - set(_LINK_DEFAULTS)
    if bad_link:
        raise SimulationError(f"unknown link keys {sorted(bad_link)}")
    out["link"] = link
    if not out["engines"]:
        raise SimulationError("scenario needs at least one engine")
    for name in out["engines"]:
        if name not in ENGINES:
            raise SimulationError(
                f"unknown engine {name!r}; known: {sorted(ENGINES)}"
            )
    out["faults"] = _normalize_faults(out["faults"])
    if not isinstance(out["engine_opts"], dict):
        raise SimulationError(
            f"engine_opts must be a dict, got {type(out['engine_opts']).__name__}"
        )
    out["engine_opts"] = dict(out["engine_opts"])
    for name in out["engines"]:
        _make_engine(name, out["engine_opts"])  # reject bad options up front
    return out


def _normalize_faults(faults) -> list[dict]:
    """``[{"at_s": float >= 0, "count": int >= 1}, ...]`` or a
    :class:`SimulationError` naming the offending fault index."""
    if not isinstance(faults, list):
        raise SimulationError(f"faults must be a list, got {type(faults).__name__}")
    out = []
    for i, f in enumerate(faults):
        if not isinstance(f, dict):
            raise SimulationError(f"faults[{i}] must be a dict, got {type(f).__name__}")
        bad = set(f) - {"at_s", "count"}
        if bad:
            raise SimulationError(f"faults[{i}]: unknown keys {sorted(bad)}")
        at_s, count = f.get("at_s"), f.get("count", 1)
        if isinstance(at_s, bool) or not isinstance(at_s, (int, float)) \
                or not math.isfinite(at_s) or at_s < 0:
            raise SimulationError(
                f"faults[{i}].at_s must be a finite number >= 0, got {at_s!r}"
            )
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise SimulationError(f"faults[{i}].count must be an integer >= 1, got {count!r}")
        out.append({"at_s": float(at_s), "count": count})
    return out


def _make_engine(name: str, engine_opts: dict):
    """Engine ``name`` built with the scenario's ``engine_opts``.

    Options are checked against the constructor's parameters first, so a
    misspelt or removed option is a :class:`SimulationError` naming the
    key rather than a raw ``TypeError``; rejected values (``ValueError``)
    are wrapped the same way.
    """
    cls = ENGINES[name]
    if name not in _OPTION_ENGINES:
        return cls()
    opts = dict(engine_opts)
    if name != "dfsssp":
        opts.pop("cdg", None)  # cycle breaking is DFSSSP-only
    params = inspect.signature(cls.__init__).parameters
    for key in opts:
        if key == "self" or key not in params:
            raise SimulationError(
                f"engine_opts: {key!r} is not an option of engine {name!r}; "
                f"known: {sorted(set(params) - {'self'})}"
            )
    try:
        return cls(**opts)
    except (TypeError, ValueError) as err:
        raise SimulationError(f"engine_opts for engine {name!r}: {err}") from err


def build_scenario_fabric(topology: dict) -> Fabric:
    """Materialise the ``topology`` section of a scenario.

    Either ``{"fabric": "<path.json>"}`` or ``{"family": ..., <params>}``
    covering the families the ``des`` sweep targets (ring, torus, xgft,
    dragonfly, hypercube, ktree).
    """
    if not isinstance(topology, dict):
        raise SimulationError("scenario topology must be a dict")
    spec = dict(topology)
    if "fabric" in spec:
        return load_fabric(spec["fabric"])
    family = spec.pop("family", None)
    fabric = None
    if family == "ring":
        fabric = topo.ring(spec.pop("switches", 5), spec.pop("terminals_per_switch", 2))
    elif family == "torus":
        dims = tuple(int(d) for d in spec.pop("dims", [3, 3]))
        fabric = topo.torus(dims, spec.pop("terminals_per_switch", 1))
    elif family == "xgft":
        ms = tuple(int(m) for m in spec.pop("ms", [4, 4]))
        ws = tuple(int(w) for w in spec.pop("ws", [1, 2]))
        fabric = topo.xgft(len(ms), ms, ws)
    elif family == "dragonfly":
        fabric = topo.dragonfly(spec.pop("a", 4), spec.pop("p", 2), spec.pop("h", 2))
    elif family == "hypercube":
        fabric = topo.hypercube(
            spec.pop("dimension", 3), spec.pop("terminals_per_switch", 1)
        )
    elif family == "ktree":
        fabric = topo.kary_ntree(spec.pop("k", 4), spec.pop("n", 2))
    else:
        raise SimulationError(
            f"unknown topology family {family!r}; known: ring, torus, xgft, "
            "dragonfly, hypercube, ktree (or a 'fabric' path)"
        )
    if spec:
        raise SimulationError(
            f"unknown topology options {sorted(spec)} for family {family!r}"
        )
    return fabric


@dataclass
class ScenarioReport:
    """Per-engine DES outcomes for one scenario, JSON-serialisable."""

    scenario: dict
    fabric_summary: dict
    results: dict[str, dict] = field(default_factory=dict)
    outcomes: dict = field(default_factory=dict)  # engine -> DesOutcome (not serialised)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "fabric": self.fabric_summary,
            "results": self.results,
            "ranking": self.ranking(),
        }

    def ranking(self) -> list[str]:
        """Engines ordered by FCT p99 (completed runs first, errors last)."""
        def sort_key(item):
            name, res = item
            if "error" in res:
                return (2, float("inf"), name)
            p99 = (res.get("fct") or {}).get("p99")
            if p99 is None:
                return (1, float("inf"), name)
            return (0, p99, name)

        return [name for name, _ in sorted(self.results.items(), key=sort_key)]


def run_scenario(spec: dict, fabric: Fabric | None = None) -> ScenarioReport:
    """Run one scenario: route + simulate once per engine."""
    spec = normalize_scenario(spec)
    if fabric is None:
        fabric = build_scenario_fabric(spec["topology"])
    link = LinkParams(
        bandwidth_bytes_per_s=spec["link"]["bandwidth_gbps"] * 1e9 / 8,
        propagation_s=spec["link"]["propagation_us"] * 1e-6,
        mtu_bytes=int(spec["link"]["mtu_bytes"]),
    )
    faults = tuple(FaultSpec(at_s=f["at_s"], count=f["count"]) for f in spec["faults"])
    report = ScenarioReport(
        scenario=spec,
        fabric_summary={
            "nodes": fabric.num_nodes,
            "switches": fabric.num_switches,
            "terminals": fabric.num_terminals,
            "channels": fabric.num_channels,
        },
    )
    wl_spec = dict(spec["workload"])
    wl_kind = wl_spec.pop("kind")
    if wl_kind == "mice":
        wl_spec.setdefault("seed", spec["seed"])
    with span("des.scenario", scenario=spec["name"], workload=wl_kind):
        for name in spec["engines"]:
            engine = _make_engine(name, spec["engine_opts"])
            try:
                result = engine.route(fabric)
                workload = make_workload(wl_kind, fabric, **wl_spec)
                sim = PacketDES(
                    result,
                    engine=engine,
                    link=link,
                    buffer_packets=spec["buffer_packets"],
                    seed=spec["seed"],
                    p_switch_down=spec["p_switch_down"],
                    max_retransmits=spec["max_retransmits"],
                    record_events=spec["record_events"],
                )
                outcome = sim.run(
                    workload,
                    horizon_s=spec["horizon_s"],
                    faults=faults,
                    max_events=spec["max_events"],
                )
            except ReproError as err:
                report.results[name] = {
                    "error": f"{type(err).__name__}: {err}",
                }
                record_event("des_engine_failed", engine=name, error=str(err))
                continue
            summary = outcome.summary()
            summary["workload"] = workload.describe()
            summary["layers"] = result.num_layers
            summary["deadlock_free"] = result.deadlock_free
            report.results[name] = summary
            report.outcomes[name] = outcome
    return report
