"""The backend conformance suite: one contract, every engine.

Each test runs against every registered engine configuration via the
``backend`` fixture. Engines added later only need a new entry in
``ENGINE_FACTORIES`` to be held to the same contract.
"""

import random

import pytest

from repro.simnet.delay import ConstantDelay
from repro.storage import (
    BatchedRemoteBackend,
    InMemoryBackend,
    ShardedBackend,
    WriteBehindBackend,
)


def one_key_remote(**kwargs):
    """The ``remote`` kind: one round trip per operation, no per-key
    cost, nothing coalesced."""
    return BatchedRemoteBackend(batch_window=1, per_key_cost=0.0, **kwargs)


ENGINE_FACTORIES = {
    "inmemory": InMemoryBackend,
    "sharded-1": lambda: ShardedBackend(n_shards=1),
    "sharded-4": lambda: ShardedBackend(n_shards=4),
    "remote": lambda: one_key_remote(rng=random.Random(7)),
    "remote-over-sharded": lambda: one_key_remote(
        inner=ShardedBackend(n_shards=4), rng=random.Random(7)
    ),
    "batched": lambda: BatchedRemoteBackend(rng=random.Random(7)),
    "batched-overlap": lambda: BatchedRemoteBackend(
        overlap=True, rng=random.Random(7)
    ),
    "batched-over-sharded": lambda: BatchedRemoteBackend(
        inner=ShardedBackend(n_shards=4), rng=random.Random(7)
    ),
    "write-behind": lambda: WriteBehindBackend(rng=random.Random(7)),
    "write-behind-overlap": lambda: WriteBehindBackend(
        overlap=True, rng=random.Random(7)
    ),
    "write-behind-over-sharded": lambda: WriteBehindBackend(
        inner=BatchedRemoteBackend(
            inner=ShardedBackend(n_shards=4), rng=random.Random(7)
        )
    ),
}


@pytest.fixture(params=sorted(ENGINE_FACTORIES))
def backend(request):
    return ENGINE_FACTORIES[request.param]()


class TestRoundtrip:
    def test_put_get(self, backend):
        backend.put("k", "value", size=5)
        assert backend.get("k") == "value"

    def test_get_missing(self, backend):
        assert backend.get("ghost") is None

    def test_peek_matches_get(self, backend):
        backend.put("k", "value", size=5)
        assert backend.peek("k") == "value"
        assert backend.peek("ghost") is None

    def test_contains(self, backend):
        backend.put("k", "value")
        assert "k" in backend
        assert "ghost" not in backend

    def test_overwrite_replaces_value_and_size(self, backend):
        backend.put("k", "old", size=10)
        backend.put("k", "new", size=3)
        assert backend.get("k") == "new"
        assert len(backend) == 1
        assert backend.bytes_used == 3

    def test_values_are_opaque(self, backend):
        marker = object()
        backend.put("k", marker)
        assert backend.get("k") is marker


class TestRemove:
    def test_remove_returns_value(self, backend):
        backend.put("k", "value", size=5)
        assert backend.remove("k") == "value"
        assert backend.get("k") is None
        assert len(backend) == 0
        assert backend.bytes_used == 0

    def test_remove_missing_returns_none(self, backend):
        assert backend.remove("ghost") is None

    def test_remove_is_not_announced_as_eviction(self, backend):
        dropped = []
        backend.subscribe_evictions(lambda key, value: dropped.append(key))
        backend.put("k", "value")
        backend.remove("k")
        assert dropped == []


class TestScan:
    def test_scan_all(self, backend):
        for i in range(10):
            backend.put(f"key-{i}", i)
        assert sorted(backend.scan()) == [(f"key-{i}", i) for i in range(10)]

    def test_scan_prefix(self, backend):
        for i in range(10):
            backend.put(f"a/{i}", i)
            backend.put(f"b/{i}", i)
        found = dict(backend.scan("a/"))
        assert found == {f"a/{i}": i for i in range(10)}

    def test_scan_empty_backend(self, backend):
        assert list(backend.scan()) == []

    def test_keys(self, backend):
        backend.put("x", 1)
        backend.put("y", 2)
        assert sorted(backend.keys()) == ["x", "y"]


class TestAccounting:
    def test_len_and_bytes(self, backend):
        for i in range(5):
            backend.put(f"k{i}", i, size=10)
        assert len(backend) == 5
        assert backend.bytes_used == 50

    def test_clear(self, backend):
        dropped = []
        backend.subscribe_evictions(lambda key, value: dropped.append(key))
        for i in range(5):
            backend.put(f"k{i}", i, size=10)
        backend.clear()
        assert len(backend) == 0
        assert backend.bytes_used == 0
        assert list(backend.scan()) == []
        assert dropped == []  # clear is the caller's doing

    def test_default_size_is_zero(self, backend):
        backend.put("k", "value")
        assert backend.bytes_used == 0


class TestBatchedOps:
    """The multi-key protocol: default loops and batched overrides
    must be observably identical apart from latency accounting."""

    def test_get_many_returns_present_keys_only(self, backend):
        backend.put("a", 1)
        backend.put("b", 2)
        found = backend.get_many(["a", "ghost", "b"])
        assert found == {"a": 1, "b": 2}

    def test_get_many_empty(self, backend):
        assert backend.get_many([]) == {}

    def test_put_many_stores_all_with_sizes(self, backend):
        backend.put_many([("a", 1, 10), ("b", 2, 20), ("c", 3, 30)])
        assert backend.get("a") == 1
        assert backend.get("c") == 3
        assert len(backend) == 3
        assert backend.bytes_used == 60

    def test_put_many_overwrites(self, backend):
        backend.put("a", "old", size=10)
        backend.put_many([("a", "new", 3)])
        assert backend.get("a") == "new"
        assert backend.bytes_used == 3

    def test_remove_many_returns_removed_values(self, backend):
        backend.put("a", 1, size=5)
        backend.put("b", 2, size=5)
        removed = backend.remove_many(["a", "ghost", "b"])
        assert removed == {"a": 1, "b": 2}
        assert len(backend) == 0
        assert backend.bytes_used == 0

    def test_remove_many_is_not_announced_as_eviction(self, backend):
        dropped = []
        backend.subscribe_evictions(lambda key, value: dropped.append(key))
        backend.put_many([("a", 1, 0), ("b", 2, 0)])
        backend.remove_many(["a", "b"])
        assert dropped == []


class TestUnflushedVisibility:
    """Acknowledged mutations are immediately visible to the writer.

    On synchronous engines this is trivial; on the write-behind engine
    these reads exercise the read-your-writes overlay — the mutations
    are still queued, not yet applied to the wrapped store.
    """

    def test_get_many_sees_unflushed_put_many(self, backend):
        backend.put_many([("a", "old-a", 5), ("b", "old-b", 5)])
        backend.put_many([("a", "new-a", 3), ("c", "new-c", 3)])
        found = backend.get_many(["a", "b", "c"])
        assert found == {"a": "new-a", "b": "old-b", "c": "new-c"}

    def test_get_many_sees_unflushed_removes(self, backend):
        backend.put_many([("a", 1, 0), ("b", 2, 0)])
        backend.remove("a")
        assert backend.get_many(["a", "b"]) == {"b": 2}

    def test_scan_sees_unflushed_mutations(self, backend):
        backend.put("x/1", "one")
        backend.put("x/2", "two")
        backend.remove("x/1")
        backend.put("x/3", "three")
        assert dict(backend.scan("x/")) == {"x/2": "two", "x/3": "three"}


class TestLatencyContract:
    def test_drain_resets_pending(self, backend):
        backend.put("k", "value")
        backend.get("k")
        pending = backend.pending_latency()
        assert pending >= 0.0
        assert backend.drain_latency() == pending
        assert backend.pending_latency() == 0.0
        assert backend.drain_latency() == 0.0

    def test_drain_with_concurrent_never_negative(self, backend):
        """Regression: a concurrent-transit clip larger than the
        pending pool must floor residual latency at zero, never go
        negative (which would *speed up* the caller)."""
        for i in range(5):
            backend.put(f"k{i}", i, size=1)
            backend.get(f"k{i}")
        assert backend.drain_latency(concurrent=1e9) >= 0.0
        assert backend.drain_latency(concurrent=0.0) >= 0.0

    def test_peek_and_metadata_are_cost_free(self, backend):
        backend.put("k", "value", size=5)
        backend.drain_latency()
        backend.peek("k")
        len(backend)
        _ = backend.bytes_used
        assert backend.pending_latency() == 0.0


class TestEvictionHooks:
    def test_engine_initiated_drops_are_announced(self):
        """The sharded engine's capacity drops must reach listeners
        (the only stock engine that drops entries on its own)."""
        backend = ShardedBackend(n_shards=1, max_entries_per_shard=2)
        dropped = []
        backend.subscribe_evictions(
            lambda key, value: dropped.append((key, value))
        )
        backend.put("a", 1)
        backend.put("b", 2)
        backend.put("c", 3)
        assert dropped == [("a", 1)]
        assert len(backend) == 2

    def test_wrapped_engine_forwards_evictions(self):
        inner = ShardedBackend(n_shards=1, max_entries_per_shard=1)
        backend = one_key_remote(
            inner=inner,
            read_delay=ConstantDelay(0.001),
            write_delay=ConstantDelay(0.001),
        )
        dropped = []
        backend.subscribe_evictions(lambda key, value: dropped.append(key))
        backend.put("a", 1)
        backend.put("b", 2)
        assert dropped == ["a"]
