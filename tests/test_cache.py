"""The shared cache package: sharded LRU tier + the append-only durable log."""

import json
import threading

import pytest

from repro.cache import ResultCache, ShardedLRUCache


# -- sharded in-memory tier ---------------------------------------------------------


def test_sharded_lru_roundtrip_and_negative_values():
    cache = ShardedLRUCache(shards=4, capacity_per_shard=8)
    cache.put("a", 1)
    cache.put("b", None)  # negative results are legal values, not misses
    assert cache.get("a") == 1
    assert cache.lookup("b") == (True, None)
    assert cache.lookup("missing") == (False, None)
    assert "a" in cache and "missing" not in cache
    assert len(cache) == 2
    cache.clear()
    assert len(cache) == 0


def test_sharded_lru_evicts_least_recently_used():
    cache = ShardedLRUCache(shards=1, capacity_per_shard=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refreshes "a"; "b" is now the LRU entry
    cache.put("c", 3)
    assert "b" not in cache
    assert cache.get("a") == 1 and cache.get("c") == 3
    assert cache.stats()["evictions"] == 1


def test_sharded_lru_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        ShardedLRUCache(shards=0)
    with pytest.raises(ValueError):
        ShardedLRUCache(capacity_per_shard=0)


def test_sharded_lru_stats_aggregate_per_shard():
    cache = ShardedLRUCache(shards=4, capacity_per_shard=8)
    for i in range(16):
        cache.put(i, i)
    hits = sum(1 for i in range(16) if cache.lookup(i)[0])
    cache.lookup("nope")
    stats = cache.stats()
    assert stats["shards"] == 4 and len(stats["per_shard"]) == 4
    assert stats["hits"] == sum(s["hits"] for s in stats["per_shard"]) == hits
    assert stats["misses"] == 1
    assert 0.0 < stats["hit_rate"] < 1.0


def test_sharded_lru_counters_consistent_under_threads():
    cache = ShardedLRUCache(shards=4, capacity_per_shard=64)
    threads, per_thread = 8, 500
    barrier = threading.Barrier(threads)

    def worker(seed: int):
        barrier.wait()
        for i in range(per_thread):
            key = (seed * i) % 96  # overlapping key space across threads
            if i % 3 == 0:
                cache.put(key, key)
            else:
                cache.lookup(key)

    pool = [threading.Thread(target=worker, args=(t + 1,)) for t in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    stats = cache.stats()
    lookups = threads * sum(1 for i in range(per_thread) if i % 3 != 0)
    assert stats["hits"] + stats["misses"] == lookups
    assert len(cache) <= 4 * 64


# -- persistent tier ----------------------------------------------------------------


def test_result_cache_save_appends_one_record(tmp_path):
    path = tmp_path / "store.json"
    cache = ResultCache(path)
    cache.put("k", {"time_seconds": 1.0})
    cache.save()
    # one framed record: a newline, the entries' JSON, a newline
    assert path.read_bytes() == b'\n{"k": {"time_seconds": 1.0}}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["store.json"]
    # unchanged store: save is a no-op that still reports the path
    assert cache.save() == path
    assert path.read_bytes() == b'\n{"k": {"time_seconds": 1.0}}\n'


def test_result_cache_torn_record_is_skipped_and_counted(tmp_path):
    """A writer died mid-append: its record's start has no closing newline."""
    path = tmp_path / "store.json"
    path.write_bytes(b'\n{"torn": {"time_seconds" ')
    cache = ResultCache(path)
    assert len(cache) == 0 and cache.corrupt_entries == 0  # an open line is not read yet
    other = ResultCache(path)
    other.put("k", {"time_seconds": 2.0})
    other.save()  # its leading newline closes the torn line
    reader = ResultCache(path)
    assert reader.get("k") == {"time_seconds": 2.0} and reader.get("torn") is None
    assert reader.corrupt_entries == 1
    cache.reload()
    assert cache.get("k") == {"time_seconds": 2.0} and cache.corrupt_entries == 1


def test_result_cache_non_object_record_counts_as_corrupt(tmp_path):
    path = tmp_path / "store.json"
    path.write_text("[1, 2, 3]\n")
    cache = ResultCache(path)
    assert cache.corrupt_entries == 1 and len(cache) == 0


def test_result_cache_missing_or_absent_path_is_not_corrupt(tmp_path):
    assert ResultCache(tmp_path / "never-written.json").corrupt_entries == 0
    assert ResultCache(None).corrupt_entries == 0


def test_result_cache_saves_never_rewrite_the_log(tmp_path):
    """Without a prune, the log before any save is a byte prefix of it after."""
    path = tmp_path / "store.json"
    first, second = ResultCache(path), ResultCache(path)
    before = b""
    for step in range(6):
        handle = (first, second)[step % 2]
        handle.put(f"key-{step}", {"step": step})
        handle.put("shared", {"step": step})  # a re-put appends, it never rewrites
        handle.reload()
        handle.save()
        after = path.read_bytes()
        assert after.startswith(before) and len(after) > len(before)
        before = after
    reader = ResultCache(path)
    assert len(reader) == 7 and reader.get("shared") == {"step": 5}  # the later record wins


def test_result_cache_key_includes_backend():
    base = ResultCache.key("app", {"a": 1}, {"offs": "N*row"}, backend="triton")
    assert ResultCache.key("app", {"a": 1}, {"offs": "N*row"}, backend="cuda") != base
    assert ResultCache.key("app", {"a": 1}, {"offs": "N*row"}) != base
    # same backend, same payload: stable
    assert ResultCache.key("app", {"a": 1}, {"offs": "N*row"}, backend="triton") == base


def test_result_cache_concurrent_writers_never_truncate(tmp_path):
    path = tmp_path / "store.json"
    cache = ResultCache(path)
    threads = 8
    barrier = threading.Barrier(threads)

    def worker(tid: int):
        barrier.wait()
        for i in range(25):
            cache.put(f"{tid}-{i}", {"time_seconds": float(i)})
            cache.save()

    pool = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    # whatever interleaving happened, every record on disk is complete
    reloaded = ResultCache(path)
    assert reloaded.corrupt_entries == 0
    assert len(reloaded) == threads * 25


# -- edge cases: LRU order under peek/get, pruning stranded salts --------------------


def test_sharded_lru_peek_refreshes_lru_order_without_counting():
    cache = ShardedLRUCache(shards=1, capacity_per_shard=2)
    cache.put("a", 1)
    cache.put("b", 2)
    before = cache.stats()
    assert cache.peek("a") == (True, 1)  # refreshes "a"; "b" becomes the LRU entry
    assert cache.peek("missing") == (False, None)
    after = cache.stats()
    # peek is the *uncounted* probe: hit/miss counters must not move
    assert (after["hits"], after["misses"]) == (before["hits"], before["misses"])
    cache.put("c", 3)
    assert "a" in cache and "c" in cache and "b" not in cache


def test_sharded_lru_eviction_order_under_interleaved_peek_and_get():
    cache = ShardedLRUCache(shards=1, capacity_per_shard=3)
    for key in ("a", "b", "c"):
        cache.put(key, key)
    assert cache.get("a") == "a"       # order now: b, c, a
    assert cache.peek("b") == (True, "b")  # order now: c, a, b — peek recencies too
    cache.put("d", "d")                # evicts "c", the true LRU entry
    assert "c" not in cache
    assert all(key in cache for key in ("a", "b", "d"))
    stats = cache.stats()
    assert stats["evictions"] == 1
    # one counted hit (“a”), zero counted misses: peeks stayed off the books
    assert stats["hits"] == 1 and stats["misses"] == 0


def test_result_cache_prune_on_store_of_only_stranded_salts(tmp_path):
    path = tmp_path / "store.json"
    stranded = {
        "k1": {"salt": "old-version/old-code", "kernel": None},
        "k2": {"salt": "old-version/old-code", "kernel": {"name": "dead"}},
    }
    path.write_text("\n" + json.dumps(stranded) + "\n")
    cache = ResultCache(path)
    assert len(cache) == 2
    removed = cache.prune(lambda key, entry: entry.get("salt") == "new-version/new-code")
    assert removed == 2 and len(cache) == 0
    # the prune compacted the log to one record of what it kept: nothing
    assert path.read_bytes() == b"\n{}\n"
    assert cache.save() == path
    reloaded = ResultCache(path)
    assert len(reloaded) == 0 and reloaded.corrupt_entries == 0
    # a second prune over the empty store removes nothing and rewrites nothing
    inode = path.stat().st_ino
    assert reloaded.prune(lambda key, entry: False) == 0
    assert path.stat().st_ino == inode


def test_result_cache_prune_keeps_unsalted_entries():
    cache = ResultCache(None)
    cache.put("foreign", {"time_seconds": 1.0})
    cache.put("stranded", {"salt": "old", "kernel": None})
    removed = cache.prune(lambda key, entry: "salt" not in entry or entry["salt"] == "new")
    assert removed == 1
    assert cache.get("foreign") is not None and cache.get("stranded") is None


def test_result_cache_version_salt_invalidates_and_prune_reclaims(monkeypatch):
    """Tuner evaluations depend on the cost model, which the expressions in
    the key cannot capture — so the key is salted by the source fingerprint
    (not by the hand-bumped version: an un-bumped model edit must still
    repartition the key space) and ``prune`` reclaims the old generation."""
    import repro
    from repro.cache import code_fingerprint, persistent

    config = {"block": 64, "cuda_block": 16}
    exprs = {"element_offset": "tx + 16*ty"}
    current_key = ResultCache.key("lud", config, exprs, backend="cuda")
    monkeypatch.setattr(repro, "__version__", "0.0.0")
    assert ResultCache.key("lud", config, exprs, backend="cuda") == current_key
    monkeypatch.setattr(persistent, "_CODE_FINGERPRINT", "edited-cost-model")
    old_key = ResultCache.key("lud", config, exprs, backend="cuda")
    monkeypatch.undo()
    assert old_key != current_key  # same version, different source: re-salted

    cache = ResultCache(None)
    cache.put(old_key, {"code": "edited-cost-model", "time_seconds": 1.0})
    cache.put(current_key, {"code": code_fingerprint(), "time_seconds": 2.0})
    removed = cache.prune(lambda key, entry: entry.get("code") == code_fingerprint())
    assert removed == 1
    assert cache.get(old_key) is None
    assert cache.get(current_key) == {"code": code_fingerprint(), "time_seconds": 2.0}


def test_result_cache_reload_merges_foreign_saves(tmp_path):
    """reload() picks up sibling writers without dropping local dirty puts."""
    path = tmp_path / "shared.json"
    ours = ResultCache(path)
    ours.put("local", {"time_seconds": 1.0})
    theirs = ResultCache(path)
    theirs.put("foreign", {"time_seconds": 2.0})
    theirs.save()
    ours.reload()
    assert ours.get("foreign") == {"time_seconds": 2.0}
    # the dirty local entry survived the merge and wins any key conflict
    assert ours.get("local") == {"time_seconds": 1.0}
    theirs.put("local", {"time_seconds": 99.0})
    theirs.save()
    ours.reload()
    assert ours.get("local") == {"time_seconds": 1.0}, "a reload dropped a dirty put"
    ours.save()  # appended after theirs: the later record wins
    assert ResultCache(path).get("local") == {"time_seconds": 1.0}


def test_result_cache_reload_rereads_a_shrunk_or_compacted_log(tmp_path):
    path = tmp_path / "store.json"
    cache = ResultCache(path)
    cache.put("k", {"time_seconds": 1.0})
    cache.save()
    cache.reload()  # the whole log is consumed
    cache.put("dirty", {"time_seconds": 3.0})
    path.write_text('\n{"j": {"v": 2}}\n')  # a foreign writer shrank it in place
    cache.reload()
    assert cache.get("k") is None, "the log no longer holds k"
    assert cache.get("j") == {"v": 2}
    assert cache.get("dirty") == {"time_seconds": 3.0}, "a reload dropped a dirty put"
    other = ResultCache(path)
    other.put("m", {"v": 4})
    other.save()
    inode = path.stat().st_ino
    assert other.prune(lambda key, entry: key != "j") == 1
    assert path.stat().st_ino != inode  # the compaction is a new file at the path
    cache.reload()
    assert cache.get("j") is None and cache.get("m") == {"v": 4}
    assert cache.get("dirty") == {"time_seconds": 3.0}
