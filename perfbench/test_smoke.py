"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import checks

HERE = Path(__file__).resolve().parent
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = bench.run(workload, seed=3, seconds=0.2, trace=trace, sizes=bench.TINY)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = _units("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    env = out["record"]["environment"]
    assert env["workload"] == workload and env["seed"] == 3 and env["nproc"] >= 1
    assert out["record"]["samples"]["op"] == len(out["record"]["digests"]) >= 1
    json.dumps(out)  # the record must be printable as one JSON line


def test_same_seed_gives_same_digests():
    runs = [
        bench.run("route_random", seed=5, seconds=0.0, trace=False, sizes=bench.TINY)
        for _ in range(2)
    ]
    assert runs[0]["record"]["digests"] == runs[1]["record"]["digests"]


def corrupt_one_entry(out) -> None:
    """Point one switch's table entry at a neighbour no closer to the destination."""
    tables = out.result.tables
    fab = tables.fabric
    dist = checks.hop_distances(fab)
    for t_idx in range(fab.num_terminals):
        for s in fab.switches:
            current = tables.next_channel[s, t_idx]
            for c in fab.out_channels(int(s)):
                nxt = fab.channels.dst[c]
                if c != current and fab.is_switch(int(nxt)) and dist[t_idx, nxt] >= dist[t_idx, s]:
                    tables.next_channel[s, t_idx] = c
                    return
    raise AssertionError("no entry could be corrupted")


@pytest.mark.parametrize("workload", ["route_random", "repair_dragonfly"])
def test_corrupted_table_entry_counts_as_failed(workload):
    out = bench.run(workload, seed=3, seconds=0.0, trace=False, sizes=bench.TINY,
                    tamper=corrupt_one_entry)
    result = out["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_frac"]["value"] == 0.0
    assert out["record"]["failures"]


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "route_random",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


#: modules and engine options that later simplifications delete
FORBIDDEN_MODULES = ("repro.parallel", "repro.deadlock.sharded", "repro.deadlock.verify",
                     "repro.deadlock.cdg")
FORBIDDEN_KEYWORDS = {"workers", "kernel", "batch", "shm", "cdg"}


def test_uses_only_apis_that_stay():
    for path in HERE.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                assert not node.module.startswith(FORBIDDEN_MODULES), (path.name, node.module)
            if isinstance(node, ast.Import):
                for alias in node.names:
                    assert not alias.name.startswith(FORBIDDEN_MODULES), (path.name, alias.name)
            if isinstance(node, ast.Call):
                used = {kw.arg for kw in node.keywords} & FORBIDDEN_KEYWORDS
                assert not used, (path.name, node.lineno, used)
