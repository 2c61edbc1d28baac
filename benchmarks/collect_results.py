#!/usr/bin/env python3
"""Collect benchmarks/results/*.txt into a single RESULTS.md report.

Run after a bench pass::

    pytest benchmarks/ --benchmark-only
    python benchmarks/collect_results.py        # writes RESULTS.md

The report groups the paper experiments (figures/tables in paper order)
before the extensions, so a reviewer can read one file top to bottom.
"""

from __future__ import annotations

import sys
from datetime import datetime, timezone
from pathlib import Path

RESULTS = Path(__file__).parent / "results"
OUTPUT = Path(__file__).parent.parent / "RESULTS.md"

#: presentation order; anything else lands under "Other".
ORDER = [
    ("Paper experiments", [
        "fig02_ring_deadlock",
        "sec4_heuristics",
        "sec4_offline_vs_online",
        "fig04_realworld_ebb",
        "fig05_xgft_ebb",
        "fig06_kautz_ebb",
        "fig07_runtime_trees",
        "fig08_runtime_realworld",
        "table1_parameters",
        "fig09_random_vls",
        "fig10_realworld_vls",
        "fig12_netgauge_ebb",
        "fig13_alltoall",
        "fig14_nas_bt",
        "fig15_nas_sp",
        "fig16_nas_ft",
        "table2_nas_1024",
        "thm1_reduction",
    ]),
    ("Performance", [
        "route_speedup",
        "cdg_speedup",
        "scale_sweep",
    ]),
    ("Extensions", [
        "ext_nas_ranger",
        "ext_dragonfly_vls",
        "ext_fault_sweep",
        "ext_grown_cluster",
        "ext_ablation_balance",
        "ext_saturation",
        "ext_lmc_multipath",
        "ext_reroute_time",
        "ext_adversarial",
        "ext_torus_lanes",
    ]),
]


def main() -> int:
    if not RESULTS.is_dir():
        print("no benchmarks/results/ directory; run the bench suite first", file=sys.stderr)
        return 1
    available = {p.stem: p for p in RESULTS.glob("*.txt")}
    lines = [
        "# RESULTS — regenerated benchmark tables",
        "",
        f"Collected {datetime.now(timezone.utc).strftime('%Y-%m-%d %H:%M UTC')} "
        f"from `benchmarks/results/`. See EXPERIMENTS.md for the",
        "paper-vs-measured discussion of every entry.",
        "",
    ]
    seen = set()
    for section, names in ORDER:
        block = [name for name in names if name in available]
        if not block:
            continue
        lines.append(f"## {section}")
        lines.append("")
        for name in block:
            seen.add(name)
            lines.append("```")
            lines.append(available[name].read_text().rstrip())
            lines.append("```")
            lines.append("")
    leftovers = sorted(set(available) - seen)
    if leftovers:
        lines.append("## Other")
        lines.append("")
        for name in leftovers:
            lines.append("```")
            lines.append(available[name].read_text().rstrip())
            lines.append("```")
            lines.append("")
    OUTPUT.write_text("\n".join(lines))
    print(f"wrote {OUTPUT} ({len(seen) + len(leftovers)} tables)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
