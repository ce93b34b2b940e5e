"""Closed-loop PoP autoscaling driven by the metrics stream.

A simulation process samples each governed PoP every ``interval``
simulated seconds and scales its slot capacity up or down with
hysteresis:

* **up** after ``up_consecutive`` samples with utilization at or above
  ``high_utilization`` *or* queue depth at or above
  ``high_queue_depth`` — capacity multiplies by ``factor`` (capped at
  ``max_capacity``), immediately granting queued waiters;
* **down** after ``down_consecutive`` samples with utilization at or
  below ``low_utilization`` *and* an empty queue — capacity divides by
  ``factor`` (floored at the profile's original capacity), never
  preempting requests already in service;
* a per-PoP ``cooldown`` separates consecutive decisions in either
  direction, so a scale-up cannot immediately un-trip itself on the
  transient utilization drop it causes.

Every input is read from the :class:`~repro.sim.metrics.MetricRegistry`
stream the governors publish (``overload.<pop>.queue_depth`` /
``.capacity`` gauges, the ``.busy_seconds`` counter, the ``.wait``
sketch) — the loop never reaches into governor internals, so the same
decisions could be replayed against an exported metrics feed.

Determinism: sampling phase is jittered from the seeded ``autoscale``
RNG stream, PoPs are evaluated in sorted-name order, and the loop is
bounded by the trace horizon — so the full decision sequence is a
pure function of ``(seed, workload, profile)``, reproducible serially
and under ``--shards`` (each shard scales its own PoP set from its
spawn-keyed stream).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.tracer import NOOP_TRACER
from repro.overload.plane import ControlPlane
from repro.sim.environment import Environment

__all__ = ["AutoscaleConfig", "PopAutoscaler", "ScaleDecision"]


@dataclass(frozen=True)
class AutoscaleConfig:
    """Control-loop tuning; defaults fit the simulated regimes."""

    interval: float = 5.0
    high_utilization: float = 0.8
    low_utilization: float = 0.3
    high_queue_depth: int = 4
    up_consecutive: int = 2
    down_consecutive: int = 4
    factor: float = 2.0
    max_capacity: int = 256
    cooldown: float = 10.0
    #: Sampling-phase jitter as a fraction of ``interval`` (drawn from
    #: the seeded decision stream; 0 disables it).
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError(f"interval must be positive: {self.interval}")
        if not 0 <= self.low_utilization < self.high_utilization:
            raise ValueError(
                "need 0 <= low_utilization < high_utilization"
            )
        if self.factor <= 1.0:
            raise ValueError(f"factor must exceed 1: {self.factor}")
        if self.up_consecutive < 1 or self.down_consecutive < 1:
            raise ValueError("consecutive thresholds must be >= 1")
        if not 0 <= self.jitter < 1:
            raise ValueError(f"jitter must be in [0, 1): {self.jitter}")


@dataclass(frozen=True)
class ScaleDecision:
    """One recorded capacity change (the deterministic audit trail)."""

    at: float
    node: str
    direction: str  # "up" | "down"
    from_capacity: int
    to_capacity: int
    utilization: float
    queue_depth: int


@dataclass
class _PopState:
    floor: int
    consecutive_high: int = 0
    consecutive_low: int = 0
    last_scaled_at: float = field(default=-math.inf)
    last_busy_seconds: float = 0.0
    last_sample_at: float = 0.0


class PopAutoscaler:
    """The scaling loop; constructing it starts the process."""

    def __init__(
        self,
        env: Environment,
        plane: ControlPlane,
        metrics,
        rng: random.Random,
        horizon: float,
        config: Optional[AutoscaleConfig] = None,
        tracer=None,
    ) -> None:
        self.env = env
        self.plane = plane
        self.metrics = metrics
        self.rng = rng
        self.horizon = horizon
        self.config = config or AutoscaleConfig()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.decisions: List[ScaleDecision] = []
        self._states: Dict[str, _PopState] = {
            name: _PopState(
                floor=governor.capacity,
                last_sample_at=env.now,
            )
            for name, governor in sorted(plane.pop_governors.items())
        }
        if self._states:
            env.process(self._run())

    # -- the loop ----------------------------------------------------------

    def _run(self):
        config = self.config
        while True:
            delay = config.interval
            if config.jitter:
                delay *= 1.0 + config.jitter * (self.rng.random() - 0.5)
            if self.env.now + delay > self.horizon:
                return
            yield self.env.timeout(delay)
            self._evaluate()

    def _evaluate(self) -> None:
        # One scrape per tick: fold in-progress busy time into the
        # stream, then decide purely from what the stream says.
        self.plane.publish()
        for name in sorted(self._states):
            self._evaluate_pop(name)

    def _read(self, name: str) -> tuple:
        depth = self.metrics.gauge(f"overload.{name}.queue_depth").value
        capacity = self.metrics.gauge(f"overload.{name}.capacity").value
        busy = self.metrics.counter(f"overload.{name}.busy_seconds").value
        return int(depth), int(capacity), float(busy)

    def _evaluate_pop(self, name: str) -> None:
        config = self.config
        state = self._states[name]
        now = self.env.now
        depth, capacity, busy = self._read(name)
        window = now - state.last_sample_at
        utilization = 0.0
        if window > 0 and capacity > 0:
            utilization = (busy - state.last_busy_seconds) / (
                window * capacity
            )
        state.last_busy_seconds = busy
        state.last_sample_at = now
        if (
            utilization >= config.high_utilization
            or depth >= config.high_queue_depth
        ):
            state.consecutive_high += 1
            state.consecutive_low = 0
        elif utilization <= config.low_utilization and depth == 0:
            state.consecutive_low += 1
            state.consecutive_high = 0
        else:
            state.consecutive_high = 0
            state.consecutive_low = 0
        if now - state.last_scaled_at < config.cooldown:
            return
        if (
            state.consecutive_high >= config.up_consecutive
            and capacity < config.max_capacity
        ):
            target = min(
                config.max_capacity,
                max(capacity + 1, math.ceil(capacity * config.factor)),
            )
            self._scale(name, state, "up", capacity, target, utilization,
                        depth)
        elif (
            state.consecutive_low >= config.down_consecutive
            and capacity > state.floor
        ):
            target = max(state.floor, math.floor(capacity / config.factor))
            self._scale(name, state, "down", capacity, target,
                        utilization, depth)

    def _scale(
        self,
        name: str,
        state: _PopState,
        direction: str,
        from_capacity: int,
        to_capacity: int,
        utilization: float,
        depth: int,
    ) -> None:
        governor = self.plane.pop_governors[name]
        governor.set_capacity(to_capacity)
        now = self.env.now
        state.last_scaled_at = now
        state.consecutive_high = 0
        state.consecutive_low = 0
        decision = ScaleDecision(
            at=now,
            node=name,
            direction=direction,
            from_capacity=from_capacity,
            to_capacity=to_capacity,
            utilization=utilization,
            queue_depth=depth,
        )
        self.decisions.append(decision)
        self.metrics.counter(f"overload.scale_{direction}s").inc()
        span = self.tracer.start(
            "overload.scale",
            now,
            node=name,
            tier="overload",
            direction=direction,
            from_capacity=from_capacity,
            to_capacity=to_capacity,
            utilization=round(utilization, 6),
            queue_depth=depth,
        )
        self.tracer.finish(span, now)
