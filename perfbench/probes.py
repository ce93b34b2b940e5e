"""Outside-in probes: method wrappers, a page-outcome probe, GC
callbacks, and attribution of profiler and heap samples to layers.

A layer is a ``repro`` subpackage. Nothing here edits the program: the
wrappers replace class attributes for the life of a ``with`` block and
put the originals back on exit.
"""

from __future__ import annotations

import functools
import gc
import importlib
import os
import pstats
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

#: Subpackages of ``repro`` reported as layers.
LAYERS = (
    "sim",
    "simnet",
    "sketch",
    "speedkit",
    "browser",
    "http",
    "cdn",
    "origin",
    "invalidation",
    "coherence",
    "gdpr",
    "txn",
    "overload",
    "storage",
    "faults",
    "harness",
    "workload",
    "obs",
    "ttl",
    "baselines",
    "parallel",
)
#: ``repro`` files outside the listed subpackages.
OTHER = "other"
#: The standard library, builtins and third-party code.
RUNTIME = "runtime"
ALL_LAYERS = LAYERS + (OTHER, RUNTIME)
#: Layers whose end-of-run live heap is reported.
HEAP_LAYERS = (
    "sketch",
    "speedkit",
    "browser",
    "cdn",
    "coherence",
    "storage",
    "harness",
)

#: Synchronous methods whose calls and inclusive wall time are measured,
#: as (module, qualified name). Generator functions are left out on
#: purpose: wrapping one would time only the creation of the generator.
TIMED_METHODS = {
    "simnet.nearest_edge": ("repro.simnet.topology", "Topology.nearest_edge"),
    "sketch.snapshot": ("repro.sketch.cache_sketch", "ServerCacheSketch.snapshot"),
    "cdn.purge_many": ("repro.cdn.network", "Cdn.purge_many"),
    "origin.handle": ("repro.origin.server", "OriginServer.handle"),
    "origin.update": ("repro.origin.server", "OriginServer.update"),
    "invalidation.affected_resources": (
        "repro.invalidation.matcher",
        "QueryMatcher.affected_resources",
    ),
    "coherence.record_read": (
        "repro.coherence.checker",
        "DeltaAtomicityChecker.record_read",
    ),
    "gdpr.access": ("repro.gdpr.erasure", "ErasureCoordinator.access"),
    "gdpr.erase": ("repro.gdpr.erasure", "ErasureCoordinator.erase"),
}
#: Hot methods whose calls are only counted (timing would cost more
#: than the call).
COUNTED_METHODS = {
    "sim.counter_lookups": ("repro.sim.metrics", "MetricRegistry.counter"),
    "sketch.flatten.calls": (
        "repro.sketch.counting",
        "CountingBloomFilter.flatten",
    ),
    "gdpr.matches_entry.calls": (
        "repro.gdpr.matching",
        "UserDataMatcher.matches_entry",
    ),
}

_SRC_MARKER = f"{os.sep}src{os.sep}repro{os.sep}"
_BENCH_DIR = str(Path(__file__).resolve().parent) + os.sep


def layer_of(filename: str) -> str:
    """The layer a source file belongs to."""
    index = filename.rfind(_SRC_MARKER)
    if index < 0:
        return RUNTIME
    parts = filename[index + len(_SRC_MARKER):].split(os.sep)
    if len(parts) > 1 and parts[0] in LAYERS:
        return parts[0]
    return OTHER


def is_bench_file(filename: str) -> bool:
    return filename.startswith(_BENCH_DIR)


@contextmanager
def _patched(module: str, qualname: str, make) -> Iterator:
    """Replace ``module.qualname`` by ``make(original)`` while active."""
    owner = importlib.import_module(module)
    *path, name = qualname.split(".")
    for attribute in path:
        owner = getattr(owner, attribute)
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def _timed(original, stats: List[float]):
    perf_counter = time.perf_counter

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            stats[0] += 1
            stats[1] += perf_counter() - start

    return wrapper


def _counted(original, stats: List[int]):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        stats[0] += 1
        return original(*args, **kwargs)

    return wrapper


@contextmanager
def method_probes() -> Iterator[Dict[str, float]]:
    """Wrap the listed methods; yields a dict filled in on exit with
    ``<name>.calls`` and ``<name>.busy_s`` (timed) or ``<name>``
    (counted)."""
    timed = {name: [0, 0.0] for name in TIMED_METHODS}
    counted = {name: [0] for name in COUNTED_METHODS}
    results: Dict[str, float] = {}
    try:
        with ExitStack() as stack:
            for name, stats in timed.items():
                stack.enter_context(
                    _patched(
                        *TIMED_METHODS[name],
                        functools.partial(_timed, stats=stats),
                    )
                )
            for name, stats in counted.items():
                stack.enter_context(
                    _patched(
                        *COUNTED_METHODS[name],
                        functools.partial(_counted, stats=stats),
                    )
                )
            yield results
    finally:
        for name, (calls, busy) in timed.items():
            results[f"{name}.calls"] = calls
            results[f"{name}.busy_s"] = busy
        for name, (calls,) in counted.items():
            results[name] = calls


class PageOutcomes:
    """Judges every recorded page view: failed (a 5xx or shed response)
    and good (every response fresh and unmarked, PLT within the SLO).

    The runner counts goodput only when an overload profile is active;
    this probe applies the same rule on every workload.
    """

    def __init__(self, slo: float) -> None:
        from repro.overload.priority import LOAD_SHED_HEADER

        self.slo = slo
        self.shed_header = LOAD_SHED_HEADER
        self.pages = 0
        self.failed = 0
        self.good = 0

    def judge(self, load) -> None:
        self.pages += 1
        failed = marked = False
        for response in load.responses:
            headers = response.headers
            if response.status.is_server_error or self.shed_header in headers:
                failed = True
                break
            if "X-Stale-If-Error" in headers or "X-SpeedKit-Offline" in headers:
                marked = True
        if failed:
            self.failed += 1
        elif not marked and load.plt <= self.slo:
            self.good += 1

    @contextmanager
    def installed(self) -> Iterator["PageOutcomes"]:
        def make(original):
            @functools.wraps(original)
            def record_page_load(runner, user, event, load, *rest):
                self.judge(load)
                return original(runner, user, event, load, *rest)

            return record_page_load

        with _patched(
            "repro.harness.runner", "SimulationRunner._record_page_load", make
        ):
            yield self


@contextmanager
def gc_pauses() -> Iterator[Dict[str, float]]:
    """Count collections and sum their pause time while active."""
    perf_counter = time.perf_counter
    state = {"collections": 0, "pause_s": 0.0}
    started = [0.0]

    def callback(phase, info):
        if phase == "start":
            started[0] = perf_counter()
        else:
            state["collections"] += 1
            state["pause_s"] += perf_counter() - started[0]

    gc.callbacks.append(callback)
    try:
        yield state
    finally:
        gc.callbacks.remove(callback)


def self_time_by_layer(profile) -> Tuple[Dict[str, float], float]:
    """Profiler self time per layer, and the total.

    The benchmark's own wrappers are excluded, and so is the part of a
    builtin's self time spent on calls made from them (their clock
    reads), so the shares describe the program alone.
    """
    by_layer = dict.fromkeys(ALL_LAYERS, 0.0)
    stats = pstats.Stats(profile).stats
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in stats.items():
        if is_bench_file(filename):
            continue
        if filename == "~":
            tt -= sum(
                caller_stats[2]
                for caller, caller_stats in callers.items()
                if is_bench_file(caller[0])
            )
        by_layer[layer_of(filename)] += tt
    return by_layer, sum(by_layer.values())


def heap_by_layer(snapshot) -> Dict[str, int]:
    """Live traced bytes per layer, by the allocating source file."""
    by_layer = dict.fromkeys(ALL_LAYERS, 0)
    for stat in snapshot.statistics("filename"):
        filename = stat.traceback[0].filename
        if not is_bench_file(filename):
            by_layer[layer_of(filename)] += stat.size
    return by_layer


@contextmanager
def timed_function(module: str, name: str) -> Iterator[List[float]]:
    """Time calls of a module-level function looked up at call time;
    yields ``[calls, seconds]``."""
    stats = [0, 0.0]
    with _patched(module, name, functools.partial(_timed, stats=stats)):
        yield stats
