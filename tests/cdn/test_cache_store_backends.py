"""CacheStore policy behaviour over every pluggable storage engine."""

import random

import pytest

from repro.cdn import CacheStore, EvictionPolicy
from repro.http import Headers, Response, Status, URL
from repro.simnet.delay import ConstantDelay
from repro.storage import (
    BackendSpec,
    BatchedRemoteBackend,
    InMemoryBackend,
    ShardedBackend,
)

ENGINE_FACTORIES = {
    "inmemory": InMemoryBackend,
    "sharded": lambda: ShardedBackend(n_shards=4),
    "remote": lambda: BackendSpec(kind="remote", seed=5).build(),
}


def response(ttl=60, size=100, version=1):
    return Response(
        status=Status.OK,
        headers=Headers(
            {
                "Cache-Control": f"public, max-age={ttl}",
                "Content-Length": str(size),
                "ETag": f'"v{version}"',
            }
        ),
        body="x",
        url=URL.parse("/r"),
        version=version,
        generated_at=0.0,
    )


@pytest.fixture(params=sorted(ENGINE_FACTORIES))
def store(request):
    return CacheStore(shared=True, backend=ENGINE_FACTORIES[request.param]())


class TestPolicyOverEngines:
    def test_roundtrip(self, store):
        store.put("k", response(), now=0.0)
        assert store.get_fresh("k", now=1.0).response.version == 1
        assert len(store) == 1
        assert store.total_bytes == 100

    def test_remove_prefix_spans_shards(self, store):
        # Satellite: hash routing scatters a shared prefix across all
        # partitions; the purge must still reach every one of them.
        for i in range(40):
            store.put(f"pages/p{i}", response(), now=0.0)
        for i in range(10):
            store.put(f"api/a{i}", response(), now=0.0)
        assert store.remove_prefix("pages/") == 40
        assert len(store) == 10
        assert all(key.startswith("api/") for key in store.keys())
        assert store.total_bytes == 10 * 100

    def test_stale_get_fresh_is_a_pure_miss(self, store):
        # Satellite: a stale lookup must not bump hits or recency.
        store.put("k", response(ttl=10), now=0.0)
        assert store.get_fresh("k", now=20.0) is None
        assert store.peek("k").hits == 0

    def test_expire_drops_only_stale(self, store):
        store.put("old", response(ttl=10), now=0.0)
        store.put("new", response(ttl=1000), now=0.0)
        assert store.expire(now=100.0) == 1
        assert store.keys() == ["new"]

    def test_utf8_payload_sizing(self, store):
        # Satellite: str bodies are sized by UTF-8 bytes, not chars.
        resp = response()
        del resp.headers["Content-Length"]
        resp.body = "ü" * 10  # 10 chars, 20 UTF-8 bytes
        store.put("k", resp, now=0.0)
        assert store.peek("k").size_bytes == 20
        assert store.total_bytes == 20


class TestCombinedCapacity:
    """Satellite: eviction under max_entries AND max_bytes together."""

    @pytest.fixture(params=sorted(ENGINE_FACTORIES))
    def bounded(self, request):
        return CacheStore(
            shared=True,
            max_entries=5,
            max_bytes=350,
            backend=ENGINE_FACTORIES[request.param](),
        )

    def test_entry_cap_binds_first(self, bounded):
        for i in range(8):
            bounded.put(f"k{i}", response(size=10), now=float(i))
        assert len(bounded) == 5
        assert bounded.total_bytes == 50
        assert bounded.evictions == 3

    def test_byte_cap_binds_first(self, bounded):
        for i in range(5):
            bounded.put(f"k{i}", response(size=100), now=float(i))
        # 5 entries fit the entry cap but 500 bytes bust the byte cap.
        assert bounded.total_bytes <= 350
        assert len(bounded) == 3
        assert bounded.evictions == 2

    def test_both_invariants_hold_under_churn(self, bounded):
        rng = random.Random(11)
        for i in range(200):
            size = rng.choice([10, 80, 150])
            bounded.put(f"k{rng.randrange(30)}", response(size=size), now=float(i))
            if rng.random() < 0.3:
                bounded.get_fresh(f"k{rng.randrange(30)}", now=float(i))
        assert len(bounded) <= 5
        assert bounded.total_bytes <= 350
        # Policy bookkeeping and engine contents agree exactly.
        assert sorted(bounded.keys()) == sorted(bounded.backend.keys())
        assert bounded.total_bytes == sum(
            entry.size_bytes for entry in bounded
        )

    def test_oversized_entry_kept(self, bounded):
        bounded.put("big", response(size=1000), now=0.0)
        assert bounded.peek("big") is not None
        assert len(bounded) == 1


class TestLfuOverEngines:
    @pytest.fixture(params=sorted(ENGINE_FACTORIES))
    def lfu(self, request):
        return CacheStore(
            shared=True,
            max_entries=3,
            policy=EvictionPolicy.LFU,
            backend=ENGINE_FACTORIES[request.param](),
        )

    def test_least_hit_entry_goes(self, lfu):
        lfu.put("cold", response(), now=0.0)
        lfu.put("warm", response(), now=1.0)
        lfu.put("hot", response(), now=2.0)
        lfu.get_fresh("warm", now=3.0)
        for _ in range(3):
            lfu.get_fresh("hot", now=3.0)
        lfu.put("new", response(), now=4.0)
        assert "cold" not in lfu
        assert sorted(lfu.keys()) == ["hot", "new", "warm"]

    def test_ties_break_oldest_first(self, lfu):
        lfu.put("first", response(), now=0.0)
        lfu.put("second", response(), now=1.0)
        lfu.put("third", response(), now=2.0)
        lfu.put("new", response(), now=3.0)  # all at zero hits
        assert "first" not in lfu
        assert "second" in lfu

    def test_heap_correct_after_key_churn(self, lfu):
        # Replacement and removal leave stale heap items behind; the
        # lazy heap must keep picking true minima through heavy churn.
        rng = random.Random(3)
        for i in range(300):
            key = f"k{rng.randrange(8)}"
            action = rng.random()
            if action < 0.5:
                lfu.put(key, response(), now=float(i))
            elif action < 0.8:
                lfu.get_fresh(key, now=float(i))
            else:
                lfu.remove(key)
        assert len(lfu) <= 3
        assert sorted(lfu.keys()) == sorted(lfu.backend.keys())
        # One more round: the victim must have minimal hit count.
        lfu.clear()
        lfu.put("a", response(), now=0.0)
        lfu.put("b", response(), now=1.0)
        lfu.put("c", response(), now=2.0)
        lfu.get_fresh("a", now=3.0)
        lfu.get_fresh("c", now=3.0)
        lfu.put("d", response(), now=4.0)
        assert "b" not in lfu


class TestRemoteCostSurface:
    def test_drain_latency_proxies_backend(self):
        backend = BatchedRemoteBackend(
            batch_window=1,
            per_key_cost=0.0,
            read_delay=ConstantDelay(0.001),
            write_delay=ConstantDelay(0.002),
        )
        store = CacheStore(shared=True, backend=backend)
        store.put("k", response(), now=0.0)
        store.get_fresh("k", now=1.0)
        assert store.drain_latency() == pytest.approx(0.003)
        assert store.drain_latency() == 0.0

    def test_local_store_is_free(self):
        store = CacheStore(shared=True)
        store.put("k", response(), now=0.0)
        assert store.drain_latency() == 0.0
