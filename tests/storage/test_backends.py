"""Engine-specific behaviour: sharding, remote latency, the spec."""

import random
import zlib

import pytest

from repro.simnet.delay import ConstantDelay, LogNormalDelay
from repro.storage import (
    BACKEND_KINDS,
    BackendSpec,
    BatchedRemoteBackend,
    InMemoryBackend,
    ShardedBackend,
)
from repro.storage.sharded import shard_index_of


class TestShardRouting:
    def test_routing_is_stable(self):
        # CRC-32 routing must not depend on PYTHONHASHSEED.
        assert shard_index_of("pages/home", 8) == shard_index_of(
            "pages/home", 8
        )
        backend = ShardedBackend(n_shards=8)
        assert backend.shard_index("pages/home") == shard_index_of(
            "pages/home", 8
        )

    def test_key_lives_in_its_routed_shard(self):
        backend = ShardedBackend(n_shards=4)
        backend.put("k", "value", size=1)
        index = backend.shard_index("k")
        assert backend.shards[index].get("k") == "value"
        for other, shard in enumerate(backend.shards):
            if other != index:
                assert shard.get("k") is None

    def test_keys_spread_across_shards(self):
        backend = ShardedBackend(n_shards=4)
        for i in range(200):
            backend.put(f"key-{i}", i)
        sizes = backend.shard_sizes()
        assert sum(sizes) == 200
        assert all(size > 0 for size in sizes)  # nothing degenerate

    def test_single_shard_behaves_like_inmemory(self):
        sharded = ShardedBackend(n_shards=1)
        plain = InMemoryBackend()
        for i in range(20):
            sharded.put(f"k{i}", i, size=i)
            plain.put(f"k{i}", i, size=i)
        assert sorted(sharded.scan()) == sorted(plain.scan())
        assert sharded.bytes_used == plain.bytes_used

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            ShardedBackend(n_shards=0)
        with pytest.raises(ValueError):
            ShardedBackend(max_entries_per_shard=0)
        with pytest.raises(ValueError):
            ShardedBackend(max_bytes_per_shard=-1)


class TestShardCapacity:
    def test_per_shard_entry_cap_drops_oldest(self):
        backend = ShardedBackend(n_shards=1, max_entries_per_shard=3)
        dropped = []
        backend.subscribe_evictions(lambda key, value: dropped.append(key))
        for name in ("a", "b", "c", "d"):
            backend.put(name, name)
        assert dropped == ["a"]
        assert sorted(backend.keys()) == ["b", "c", "d"]

    def test_per_shard_byte_cap(self):
        backend = ShardedBackend(n_shards=1, max_bytes_per_shard=100)
        backend.put("a", "a", size=60)
        backend.put("b", "b", size=60)
        assert backend.keys() == ["b"]
        assert backend.bytes_used == 60

    def test_oversized_entry_is_kept(self):
        # Same no-thrash rule as the policy layer: a lone entry larger
        # than the shard stays put.
        backend = ShardedBackend(n_shards=1, max_bytes_per_shard=10)
        backend.put("big", "x", size=50)
        assert backend.get("big") == "x"

    def test_caps_are_per_shard_not_global(self):
        backend = ShardedBackend(n_shards=4, max_entries_per_shard=2)
        for i in range(40):
            backend.put(f"key-{i}", i)
        assert all(size <= 2 for size in backend.shard_sizes())
        assert len(backend) <= 8


def one_key_remote(**kwargs):
    """The ``remote`` kind: one round trip per operation, no per-key
    cost, nothing coalesced."""
    return BatchedRemoteBackend(batch_window=1, per_key_cost=0.0, **kwargs)


class TestRemoteLatency:
    def _backend(self, read=0.001, write=0.002):
        return one_key_remote(
            read_delay=ConstantDelay(read),
            write_delay=ConstantDelay(write),
        )

    def test_operations_accrue_latency(self):
        backend = self._backend()
        backend.put("k", "v")  # write: 0.002
        backend.get("k")  # read: 0.001
        backend.remove("k")  # write: 0.002
        assert backend.pending_latency() == pytest.approx(0.005)
        assert backend.total_latency == pytest.approx(0.005)
        assert backend.op_counts == {"get": 1, "put": 1, "remove": 1}

    def test_scan_and_clear_are_charged(self):
        backend = self._backend()
        list(backend.scan())
        backend.clear()
        assert backend.pending_latency() == pytest.approx(0.003)

    def test_drain_returns_and_resets(self):
        backend = self._backend()
        backend.put("k", "v")
        assert backend.drain_latency() == pytest.approx(0.002)
        assert backend.drain_latency() == 0.0
        assert backend.total_latency == pytest.approx(0.002)

    def test_metadata_is_free(self):
        backend = self._backend()
        backend.put("k", "v", size=9)
        backend.drain_latency()
        backend.peek("k")
        assert "k" in backend
        assert len(backend) == 1
        assert backend.bytes_used == 9
        assert backend.keys() == ["k"]
        assert backend.pending_latency() == 0.0

    def test_latency_stream_is_deterministic(self):
        first = one_key_remote(rng=random.Random(42))
        second = one_key_remote(rng=random.Random(42))
        for backend in (first, second):
            for i in range(50):
                backend.put(f"k{i}", i)
                backend.get(f"k{i}")
        assert first.total_latency == pytest.approx(second.total_latency)

    def test_storage_delegates_to_inner(self):
        inner = InMemoryBackend()
        backend = one_key_remote(inner=inner)
        backend.put("k", "v", size=4)
        assert inner.get("k") == "v"
        assert inner.bytes_used == 4


class TestBackendSpec:
    def test_kind_registry(self):
        assert BACKEND_KINDS == (
            "inmemory",
            "sharded",
            "remote",
            "batched",
            "write-behind",
        )

    def test_build_each_kind(self):
        assert isinstance(
            BackendSpec(kind="inmemory").build(), InMemoryBackend
        )
        sharded = BackendSpec(kind="sharded", n_shards=3).build()
        assert isinstance(sharded, ShardedBackend)
        assert sharded.n_shards == 3
        remote = BackendSpec(kind="remote").build()
        assert isinstance(remote, BatchedRemoteBackend)
        assert remote.batch_window == 1
        assert remote.per_key_cost == 0.0
        assert not remote.overlap
        batched = BackendSpec(
            kind="batched", batch_window=8, overlap=True
        ).build()
        assert isinstance(batched, BatchedRemoteBackend)
        assert batched.batch_window == 8
        assert batched.overlap

    def test_build_returns_fresh_instances(self):
        spec = BackendSpec(kind="inmemory")
        assert spec.build() is not spec.build()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown backend kind"):
            BackendSpec(kind="memcached")

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            BackendSpec(n_shards=0)
        with pytest.raises(ValueError):
            BackendSpec(read_latency=0.0)

    def test_roundtrip_dict(self):
        spec = BackendSpec(kind="sharded", n_shards=4, seed=3)
        assert BackendSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown backend keys"):
            BackendSpec.from_dict({"kind": "inmemory", "flavour": "fast"})

    def test_parse_forms(self):
        assert BackendSpec.parse(None) == BackendSpec()
        assert BackendSpec.parse("remote").kind == "remote"
        assert BackendSpec.parse({"kind": "sharded"}).kind == "sharded"
        spec = BackendSpec(kind="remote", seed=9)
        assert BackendSpec.parse(spec) is spec
        with pytest.raises(TypeError):
            BackendSpec.parse(42)

    def test_salt_decorrelates_remote_streams(self):
        spec = BackendSpec(kind="remote", seed=1)
        a = spec.build(salt="edge:edge-1")
        b = spec.build(salt="edge:edge-2")
        same = spec.build(salt="edge:edge-1")
        for backend in (a, b, same):
            for i in range(20):
                backend.put(f"k{i}", i)
        assert a.total_latency == pytest.approx(same.total_latency)
        assert a.total_latency != pytest.approx(b.total_latency)

    def test_remote_kind_charges_one_round_trip_per_operation(self):
        spec = BackendSpec(kind="remote", seed=3)
        backend = spec.build(salt="edge:edge-1")
        # Replay the engine's latency stream: every get/put/remove must
        # cost exactly its own sampled round trip and nothing more.
        rng = random.Random(3 ^ zlib.crc32(b"edge:edge-1"))
        read = LogNormalDelay(
            median=spec.read_latency, sigma=spec.latency_sigma
        )
        write = LogNormalDelay(
            median=spec.write_latency, sigma=spec.latency_sigma
        )
        ops = (
            (backend.get, ("a",), read),
            (backend.get, ("b",), read),  # same direction: no coalescing
            (backend.put, ("a", 1), write),
            (backend.put, ("b", 2), write),
            (backend.remove, ("a",), write),
            (backend.get, ("b",), read),
        )
        expected = 0.0
        for op, args, delay in ops:
            before = backend.pending_latency()
            op(*args)
            round_trip = delay.sample(rng)
            assert backend.pending_latency() - before == pytest.approx(
                round_trip, rel=1e-12
            )
            expected += round_trip
        assert backend.batches_flushed == len(ops)
        assert backend.op_counts == {"get": 3, "put": 2, "remove": 1}
        # Concurrent transit hides nothing: the whole pool is paid.
        assert backend.drain_latency(concurrent=10.0) == expected
        assert backend.overlap_hidden == 0.0

    def test_remote_spec_latency_params_apply(self):
        spec = BackendSpec(
            kind="remote",
            read_latency=0.05,
            write_latency=0.1,
            latency_sigma=0.2,
        )
        backend = spec.build()
        assert backend.read_delay.median == pytest.approx(0.05)
        assert backend.write_delay.median == pytest.approx(0.1)
