"""Backend selection: the serializable spec threaded through configs.

A :class:`BackendSpec` is a plain, JSON-compatible record naming one
engine kind plus its parameters. It travels through
``SpeedKitConfig``, ``ScenarioSpec``, ``Cdn``, and the CLI
(``--backend``), and each cache tier calls :meth:`BackendSpec.build`
to materialize its own engine instance — every PoP / browser / worker
gets a fresh one (engines are stateful and never shared across tiers).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import asdict, dataclass
from typing import Optional, Union

from repro.simnet.delay import LogNormalDelay
from repro.storage.backend import CacheBackend, InMemoryBackend
from repro.storage.batched import (
    DEFAULT_BATCH_WINDOW,
    DEFAULT_PER_KEY_COST,
    DEFAULT_READ_MEDIAN,
    DEFAULT_SIGMA,
    DEFAULT_WRITE_MEDIAN,
    BatchedRemoteBackend,
)
from repro.storage.sharded import ShardedBackend
from repro.storage.writebehind import (
    DEFAULT_FLUSH_INTERVAL,
    WriteBehindBackend,
)

#: The engine registry, in CLI order.
BACKEND_KINDS = ("inmemory", "sharded", "remote", "batched", "write-behind")


@dataclass(frozen=True)
class BackendSpec:
    """Which storage engine a cache tier uses, and how it is tuned."""

    kind: str = "inmemory"
    #: Sharded engine: partition count and optional per-shard bounds.
    n_shards: int = 8
    max_entries_per_shard: Optional[int] = None
    max_bytes_per_shard: Optional[int] = None
    #: Remote/batched engines: per-operation latency medians (seconds)
    #: and the multiplicative spread of the log-normal draw.
    read_latency: float = DEFAULT_READ_MEDIAN
    write_latency: float = DEFAULT_WRITE_MEDIAN
    latency_sigma: float = DEFAULT_SIGMA
    #: Batched engine: marginal cost per pipelined key, maximum keys
    #: per flushed batch, and whether drained latency may overlap with
    #: concurrent network transit instead of adding to it.
    per_key_cost: float = DEFAULT_PER_KEY_COST
    batch_window: int = DEFAULT_BATCH_WINDOW
    overlap: bool = False
    #: Write-behind engine: background flusher cadence in simulated
    #: seconds (queued mutations reach the remote store at most one
    #: interval plus the write round trips after their ack).
    flush_interval: float = DEFAULT_FLUSH_INTERVAL
    #: Root seed for the remote/batched engine's latency stream.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise ValueError(
                f"unknown backend kind {self.kind!r}; "
                f"choose from {list(BACKEND_KINDS)}"
            )
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1: {self.n_shards}")
        if self.read_latency <= 0 or self.write_latency <= 0:
            raise ValueError("backend latencies must be positive")
        if self.per_key_cost < 0:
            raise ValueError(
                f"per_key_cost must be >= 0: {self.per_key_cost}"
            )
        if self.batch_window < 1:
            raise ValueError(
                f"batch_window must be >= 1: {self.batch_window}"
            )
        if self.flush_interval < 0:
            raise ValueError(
                f"flush_interval must be >= 0: {self.flush_interval}"
            )

    def build(self, salt: str = "") -> CacheBackend:
        """A fresh engine instance.

        ``salt`` decorrelates the latency streams of sibling tiers
        (every PoP / worker passes its own name), keeping runs
        deterministic without every remote engine drawing the exact
        same latency sequence.
        """
        if self.kind == "inmemory":
            return InMemoryBackend()
        if self.kind == "sharded":
            return ShardedBackend(
                n_shards=self.n_shards,
                max_entries_per_shard=self.max_entries_per_shard,
                max_bytes_per_shard=self.max_bytes_per_shard,
            )
        rng = random.Random(
            self.seed ^ zlib.crc32(salt.encode("utf-8"))
        )
        read_delay = LogNormalDelay(
            median=self.read_latency, sigma=self.latency_sigma
        )
        write_delay = LogNormalDelay(
            median=self.write_latency, sigma=self.latency_sigma
        )
        if self.kind == "batched":
            return BatchedRemoteBackend(
                read_delay=read_delay,
                write_delay=write_delay,
                per_key_cost=self.per_key_cost,
                batch_window=self.batch_window,
                overlap=self.overlap,
                rng=rng,
            )
        if self.kind == "write-behind":
            return WriteBehindBackend(
                read_delay=read_delay,
                write_delay=write_delay,
                flush_interval=self.flush_interval,
                per_key_cost=self.per_key_cost,
                batch_window=self.batch_window,
                overlap=self.overlap,
                rng=rng,
            )
        # "remote": the serialized client — one full round trip per
        # operation, nothing coalesced, nothing hidden under transit.
        return BatchedRemoteBackend(
            read_delay=read_delay,
            write_delay=write_delay,
            per_key_cost=0.0,
            batch_window=1,
            overlap=False,
            rng=rng,
        )

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "BackendSpec":
        known = {field for field in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown backend keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def parse(
        cls, value: Union[None, str, dict, "BackendSpec"]
    ) -> "BackendSpec":
        """Coerce the config-file forms: a kind string or a full dict."""
        if value is None:
            return cls()
        if isinstance(value, BackendSpec):
            return value
        if isinstance(value, str):
            return cls(kind=value)
        if isinstance(value, dict):
            return cls.from_dict(value)
        raise TypeError(f"cannot parse backend spec from {value!r}")
