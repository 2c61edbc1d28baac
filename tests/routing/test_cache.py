"""Fingerprint-keyed routing cache."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import topologies
from repro.network.faults import cable_keys, degrade
from repro.obs import get_registry
from repro.routing import RoutingCache, cache_key, fabric_fingerprint, make_engine


@pytest.fixture()
def fabric():
    return topologies.random_topology(10, 22, 2, seed=11)


@pytest.fixture()
def result(fabric):
    return make_engine("dfsssp").route(fabric)


def _counter_value(name, engine="dfsssp"):
    return get_registry().counter(name, engine=engine).value


def test_miss_then_store_then_hit(tmp_path, fabric, result):
    cache = RoutingCache(tmp_path)
    assert cache.load(fabric, "dfsssp", {}) is None

    key = cache.store(fabric, "dfsssp", {}, result)
    assert (tmp_path / f"{key}.npz").is_file()
    assert (tmp_path / f"{key}.meta.json").is_file()
    assert (tmp_path / f"{key}.cert.json").is_file()

    hit = cache.load(fabric, "dfsssp", {})
    assert hit is not None
    assert hit.stats["cache"] == "hit"
    assert hit.stats["certified"] is True
    assert hit.certificate is not None and hit.certificate.check().ok
    assert hit.deadlock_free == result.deadlock_free
    np.testing.assert_array_equal(hit.tables.next_channel, result.tables.next_channel)
    np.testing.assert_array_equal(hit.layered.path_layers, result.layered.path_layers)
    np.testing.assert_array_equal(hit.channel_weights, result.channel_weights)


def test_key_covers_engine_and_options(fabric):
    fp = fabric_fingerprint(fabric)
    base = cache_key(fp, "dfsssp", {})
    assert cache_key(fp, "dfsssp", {}) == base  # deterministic
    assert cache_key(fp, "sssp", {}) != base
    assert cache_key(fp, "dfsssp", {"cdg": "rebuild"}) != base
    # option dict ordering must not split the cache
    assert cache_key(fp, "dfsssp", {"a": 1, "b": 2}) == cache_key(
        fp, "dfsssp", {"b": 2, "a": 1}
    )


def test_options_partition_entries(tmp_path, fabric, result):
    cache = RoutingCache(tmp_path)
    cache.store(fabric, "dfsssp", {}, result)
    assert cache.load(fabric, "dfsssp", {"cdg": "rebuild"}) is None
    assert cache.load(fabric, "sssp", {}) is None


def test_different_fabric_misses(tmp_path, fabric, result):
    cache = RoutingCache(tmp_path)
    cache.store(fabric, "dfsssp", {}, result)
    other = topologies.random_topology(10, 22, 2, seed=12)
    assert cache.load(other, "dfsssp", {}) is None


def test_degraded_fabric_gets_its_own_entry(tmp_path, fabric, result):
    cache = RoutingCache(tmp_path)
    cache.store(fabric, "dfsssp", {}, result)
    switch_cables = [
        key
        for key in cable_keys(fabric)
        if fabric.is_switch(int(fabric.channels.src[key[0]]))
        and fabric.is_switch(int(fabric.channels.dst[key[0]]))
    ]
    degraded = degrade(fabric, dead_cables=[switch_cables[0]]).fabric
    assert cache.load(degraded, "dfsssp", {}) is None
    dres = make_engine("dfsssp").route(degraded)
    cache.store(degraded, "dfsssp", {}, dres)
    assert cache.load(degraded, "dfsssp", {}) is not None
    assert cache.load(fabric, "dfsssp", {}) is not None  # both coexist
    assert len(cache.entries()) == 2


def test_corrupt_entry_counts_as_miss(tmp_path, fabric, result):
    cache = RoutingCache(tmp_path)
    key = cache.store(fabric, "dfsssp", {}, result)
    (tmp_path / f"{key}.npz").write_bytes(b"not an npz archive")
    assert cache.load(fabric, "dfsssp", {}) is None
    # store overwrites the corrupt entry and the hit path recovers
    cache.store(fabric, "dfsssp", {}, result)
    assert cache.load(fabric, "dfsssp", {}) is not None


def test_metrics_count_hits_misses_stores(tmp_path, fabric, result):
    cache = RoutingCache(tmp_path)
    h0 = _counter_value("routing_cache_hit_total")
    m0 = _counter_value("routing_cache_miss_total")
    s0 = _counter_value("routing_cache_store_total")
    cache.load(fabric, "dfsssp", {})
    cache.store(fabric, "dfsssp", {}, result)
    cache.load(fabric, "dfsssp", {})
    assert _counter_value("routing_cache_miss_total") == m0 + 1
    assert _counter_value("routing_cache_store_total") == s0 + 1
    assert _counter_value("routing_cache_hit_total") == h0 + 1


def test_entries_and_clear(tmp_path, fabric, result):
    cache = RoutingCache(tmp_path)
    key = cache.store(fabric, "dfsssp", {}, result)
    entries = cache.entries()
    assert len(entries) == 1
    meta = entries[0]
    assert meta["key"] == key
    assert meta["engine"] == "dfsssp"
    assert meta["fingerprint"] == fabric_fingerprint(fabric)
    assert meta["bytes"] > 0
    assert meta["stats"].get("engine") == "dfsssp"
    # meta file is valid standalone JSON (human-inspectable)
    assert meta["certified"] is True
    raw = json.loads((tmp_path / f"{key}.meta.json").read_text())
    assert raw["key"] == key
    assert cache.clear() == 3  # npz + meta + certificate
    assert cache.entries() == []
    assert cache.load(fabric, "dfsssp", {}) is None


def test_missing_certificate_is_a_miss(tmp_path, fabric, result):
    cache = RoutingCache(tmp_path)
    key = cache.store(fabric, "dfsssp", {}, result)
    (tmp_path / f"{key}.cert.json").unlink()
    i0 = _counter_value("routing_cert_invalid_total")
    assert cache.load(fabric, "dfsssp", {}) is None
    assert _counter_value("routing_cert_invalid_total") == i0 + 1
    # re-store recovers: the entry is re-certified on the way in
    cache.store(fabric, "dfsssp", {}, make_engine("dfsssp").route(fabric))
    assert cache.load(fabric, "dfsssp", {}) is not None


def test_tampered_certificate_is_a_miss(tmp_path, fabric, result):
    cache = RoutingCache(tmp_path)
    key = cache.store(fabric, "dfsssp", {}, result)
    cert_path = tmp_path / f"{key}.cert.json"
    cert = json.loads(cert_path.read_text())
    edged = next(layer for layer in cert["layers"] if layer["edges"])
    edged["edges"][0] = list(reversed(edged["edges"][0]))
    cert_path.write_text(json.dumps(cert))
    i0 = _counter_value("routing_cert_invalid_total")
    assert cache.load(fabric, "dfsssp", {}) is None
    assert _counter_value("routing_cert_invalid_total") == i0 + 1


def _age(cache_dir, key, seconds):
    """Push an entry's recency ``seconds`` into the past."""
    import os

    npz = cache_dir / f"{key}.npz"
    past = npz.stat().st_mtime - seconds
    os.utime(npz, (past, past))


def test_invalid_bounds_rejected(tmp_path):
    with pytest.raises(ValueError):
        RoutingCache(tmp_path, max_entries=0)
    with pytest.raises(ValueError):
        RoutingCache(tmp_path, max_bytes=0)


def test_max_entries_evicts_least_recently_used(tmp_path, fabric, result):
    cache = RoutingCache(tmp_path, max_entries=2)
    e0 = _counter_value("routing_cache_evicted_total")
    k1 = cache.store(fabric, "dfsssp", {"tag": 1}, result)
    _age(tmp_path, k1, 60)
    k2 = cache.store(fabric, "dfsssp", {"tag": 2}, result)
    _age(tmp_path, k2, 30)
    k3 = cache.store(fabric, "dfsssp", {"tag": 3}, result)
    # oldest entry (tag=1) is evicted, all three sidecar files included
    assert cache.load(fabric, "dfsssp", {"tag": 1}) is None
    assert not (tmp_path / f"{k1}.npz").exists()
    assert not (tmp_path / f"{k1}.meta.json").exists()
    assert not (tmp_path / f"{k1}.cert.json").exists()
    assert cache.load(fabric, "dfsssp", {"tag": 2}) is not None
    assert cache.load(fabric, "dfsssp", {"tag": 3}) is not None
    assert len(cache.entries()) == 2
    assert _counter_value("routing_cache_evicted_total") == e0 + 1
    assert k3 != k1


def test_hit_refreshes_recency(tmp_path, fabric, result):
    cache = RoutingCache(tmp_path, max_entries=2)
    k1 = cache.store(fabric, "dfsssp", {"tag": 1}, result)
    _age(tmp_path, k1, 60)
    k2 = cache.store(fabric, "dfsssp", {"tag": 2}, result)
    _age(tmp_path, k2, 30)
    # a hit touches tag=1, making tag=2 the LRU entry
    assert cache.load(fabric, "dfsssp", {"tag": 1}) is not None
    cache.store(fabric, "dfsssp", {"tag": 3}, result)
    assert cache.load(fabric, "dfsssp", {"tag": 1}) is not None
    assert cache.load(fabric, "dfsssp", {"tag": 2}) is None
    assert len(cache.entries()) == 2


def test_max_bytes_never_evicts_just_stored_entry(tmp_path, fabric, result):
    # a 1-byte budget is always exceeded, but the entry being stored is
    # exempt from its own eviction round — the cache degrades to "keep
    # only the newest entry" rather than thrashing to empty
    cache = RoutingCache(tmp_path, max_bytes=1)
    k1 = cache.store(fabric, "dfsssp", {"tag": 1}, result)
    assert cache.load(fabric, "dfsssp", {"tag": 1}) is not None
    _age(tmp_path, k1, 60)
    cache.store(fabric, "dfsssp", {"tag": 2}, result)
    assert cache.load(fabric, "dfsssp", {"tag": 1}) is None
    assert cache.load(fabric, "dfsssp", {"tag": 2}) is not None
    assert len(cache.entries()) == 1


def test_unbounded_cache_never_evicts(tmp_path, fabric, result):
    cache = RoutingCache(tmp_path)
    for tag in range(5):
        cache.store(fabric, "dfsssp", {"tag": tag}, result)
    assert len(cache.entries()) == 5


def test_unlayered_results_need_no_certificate(tmp_path, fabric):
    cache = RoutingCache(tmp_path)
    result = make_engine("sssp").route(fabric)
    assert result.layered is None
    key = cache.store(fabric, "sssp", {}, result)
    assert not (tmp_path / f"{key}.cert.json").exists()
    hit = cache.load(fabric, "sssp", {})
    assert hit is not None and hit.certificate is None
    assert "certified" not in hit.stats
