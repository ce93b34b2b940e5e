"""Prefix-scan cost over the hash-partitioned engine.

A scan must visit every shard (hash routing scatters a prefix across
the whole partition set), but each visit is one batched round trip —
get_many style. The simulated cost is therefore exactly one scan
charge per shard: O(n_shards), independent of how many entries match,
how much of the result the caller consumes, or when it is consumed.
"""

import random

import pytest

from repro.simnet.delay import ConstantDelay
from repro.storage.batched import BatchedRemoteBackend
from repro.storage.sharded import ShardedBackend


def _remote_sharded(n_shards):
    def factory():
        return BatchedRemoteBackend(
            batch_window=1,
            per_key_cost=0.0,
            read_delay=ConstantDelay(0.001),
            write_delay=ConstantDelay(0.001),
            rng=random.Random(0),
        )

    return ShardedBackend(n_shards=n_shards, shard_factory=factory)


def _scan_charges(backend):
    return sum(
        shard.op_counts.get("scan", 0) for shard in backend.shards
    )


def test_scan_charges_exactly_one_visit_per_shard():
    backend = _remote_sharded(8)
    for i in range(200):
        backend.put(f"doc/{i}", i)
    backend.drain_latency()  # clear the write cost
    results = list(backend.scan("doc/"))
    assert len(results) == 200
    assert _scan_charges(backend) == 8


def test_scan_cost_grows_linearly_in_shards_not_entries():
    # Same entry count, 4x the shards => exactly 4x the scan charges
    # and (with constant per-op delay) exactly 4x the pending latency.
    costs = {}
    for n_shards in (8, 32):
        backend = _remote_sharded(n_shards)
        for i in range(400):
            backend.put(f"doc/{i}", i)
        backend.drain_latency()
        list(backend.scan("doc/"))
        costs[n_shards] = (
            _scan_charges(backend),
            backend.pending_latency(),
        )
    assert costs[32][0] == 4 * costs[8][0]
    assert costs[32][1] == pytest.approx(4 * costs[8][1])

    # And the cost is flat in the number of entries.
    small, large = _remote_sharded(8), _remote_sharded(8)
    for i in range(50):
        small.put(f"doc/{i}", i)
    for i in range(2000):
        large.put(f"doc/{i}", i)
    small.drain_latency()
    large.drain_latency()
    list(small.scan("doc/"))
    list(large.scan("doc/"))
    assert _scan_charges(small) == _scan_charges(large) == 8
    assert small.pending_latency() == large.pending_latency()


def test_scan_charges_do_not_depend_on_consumption():
    # The charge lands at call time, whole-shard batched: consuming
    # one item — or nothing — costs the same as consuming everything,
    # so simulated latency cannot leak on early-terminating readers.
    backend = _remote_sharded(8)
    for i in range(100):
        backend.put(f"doc/{i}", i)
    backend.drain_latency()
    iterator = backend.scan("doc/")
    next(iterator)
    assert _scan_charges(backend) == 8
    full = backend.pending_latency()
    backend.drain_latency()
    list(backend.scan("doc/"))
    assert backend.pending_latency() == full


def test_scan_results_are_complete_and_prefix_filtered():
    backend = ShardedBackend(n_shards=8)
    for i in range(60):
        backend.put(f"products/{i}", i)
        backend.put(f"carts/{i}", i)
    scanned = dict(backend.scan("products/"))
    assert len(scanned) == 60
    assert all(key.startswith("products/") for key in scanned)
