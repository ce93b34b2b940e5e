"""One measured replay of one workload, in a fresh process.

    python3 perfbench/replay.py --workload NAME --seed N --mode MODE \\
        --launch T [--scale F]

``run.py`` starts one process per replay, so peak RSS, GC counters and
set-up time describe that replay alone. ``--launch`` is the
``time.monotonic()`` reading (a system-wide clock on Linux) taken just
before the process was started, so set-up time includes interpreter
start and imports.

Modes:

* ``timed``: no profiler; host times, peak RSS and modeled results.
* ``profile``: ``cProfile`` around the replay, plus method wrappers and
  GC callbacks; per-layer self time, call counts and busy time.
* ``heap``: ``tracemalloc`` from world build to end of replay; live
  heap per layer.

Every mode prints one JSON object as its last stdout line, holding the
modeled results, a digest of them, and the accounting checks that
failed (an empty list when the program's outputs add up).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from contextlib import ExitStack
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODES = ("timed", "profile", "heap")
CDN_KINDS = ("static", "page", "query", "api", "fragment")


def _modeled(result, runner, outcomes) -> dict:
    from repro.workload import AccessUser, CartAdd, EraseUser, PageView, TxnRead

    kinds = (PageView, CartAdd, TxnRead, EraseUser, AccessUser)
    counts = dict.fromkeys(kinds, 0)
    for event in runner.trace.events:
        if type(event) in counts:
            counts[type(event)] += 1
    pages = result.page_views
    attempted = (
        pages + counts[CartAdd] + result.txns + result.erasures + result.accesses
    )
    invariants = {
        "delta_violations": result.delta_violations,
        "txn_fractured_reads": result.txn_fractured_reads,
        "txn_serialization_violations": result.txn_serialization_violations,
        "txn_silent_downgrades": result.txn_silent_downgrades,
        "erasure_residuals": result.erasure_residuals,
        "unmarked_sheds": max(0, result.shed_requests - result.shed_responses),
    }
    served = sum(result.served_by_layer.values())
    edge = result.served_by_kind.get("edge", {})
    origin = result.served_by_kind.get("origin", {})
    cdn_hit_ratio = {}
    for kind in CDN_KINDS:
        reached = edge.get(kind, 0) + origin.get(kind, 0)
        cdn_hit_ratio[kind] = edge.get(kind, 0) / reached if reached else 0.0
    # Raw counts, so that the parent can pool several replays.
    return {
        "events": {kind.__name__: n for kind, n in counts.items()},
        "users_seen": len(runner.trace.users_seen()),
        "pages": pages,
        "plt": sorted(result.plt.values),
        "served": served,
        "hits": result.cache_hit_ratio() * served,
        "origin_requests": result.origin_requests,
        "reads_checked": result.reads_checked,
        "stale_reads": result.stale_reads,
        "good_pages": outcomes.good,
        "attempted_ops": attempted,
        "failed_ops": outcomes.failed + result.txn_degraded,
        "invariants": invariants,
        "cdn_hit_ratio": cdn_hit_ratio,
        "kernel_events": result.kernel_events,
        "sketch_bytes": result.sketch_bytes,
        "txns": result.txns,
        "txn_aborts": result.txn_aborts,
        "txn_validation_retries": result.txn_validation_retries,
        "erasures": result.erasures,
        "accesses": result.accesses,
        "offered": result.offered_requests,
        "admitted": result.admitted_requests,
        "shed": result.shed_requests,
        "shed_ratio": result.shed_ratio(),
        "goodput_pages_runner": result.goodput_pages,
        "queue_depth_peak": result.queue_depth_peak,
        "scale_ups": result.scale_ups,
    }


def _digest(result, outcomes) -> str:
    record = {
        "result": result.to_dict(),
        "plt": result.plt.values,
        "good_pages": outcomes.good,
        "failed_pages": outcomes.failed,
    }
    blob = json.dumps(record, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _checks(modeled: dict, overloaded: bool) -> list:
    """Accounting identities the program's outputs must satisfy."""
    events = modeled["events"]
    failures = []

    def expect(label: str, got, want) -> None:
        if got != want:
            failures.append(f"{label}: {got} != {want}")

    expect("page views vs trace", modeled["pages"], events["PageView"])
    expect("PLT samples vs page views", len(modeled["plt"]), modeled["pages"])
    expect("txns vs trace", modeled["txns"], events["TxnRead"])
    expect("erasures vs trace", modeled["erasures"], events["EraseUser"])
    expect("accesses vs trace", modeled["accesses"], events["AccessUser"])
    if not 0 < modeled["hits"] <= modeled["served"]:
        failures.append(f"cache hits out of (0, served]: {modeled['hits']}")
    if modeled["origin_requests"] <= 0:
        failures.append("no origin requests")
    if overloaded:
        expect(
            "offered vs admitted + shed",
            modeled["offered"],
            modeled["admitted"] + modeled["shed"],
        )
        expect(
            "good pages vs runner goodput",
            modeled["good_pages"],
            modeled["goodput_pages_runner"],
        )
    return failures


def measure(
    workload_name: str, seed: int, mode: str, launch: float, scale: float
) -> dict:
    """Build, replay and measure one workload in this process."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import probes
    from perfbench.workloads import (
        GOODPUT_SLO_S,
        WORKLOADS,
        build_world,
        generate_trace,
        scenario_spec,
    )
    from repro.harness import SimulationRunner

    imported = time.monotonic()
    workload = WORKLOADS[workload_name].scaled(scale)
    outcomes = probes.PageOutcomes(GOODPUT_SLO_S)
    layers: dict = {}
    with ExitStack() as stack:
        stack.enter_context(outcomes.installed())
        amplify = stack.enter_context(
            probes.timed_function("repro.workload.ingest", "amplify_trace")
        )
        if mode == "profile":
            calls = stack.enter_context(probes.method_probes())
        elif mode == "heap":
            import tracemalloc

            tracemalloc.start()
            stack.callback(tracemalloc.stop)
        world_start = time.monotonic()
        catalog, users = build_world(workload, seed)
        generate_start = time.monotonic()
        trace = generate_trace(workload, catalog, users, seed)
        runner_start = time.monotonic()
        runner = SimulationRunner(
            scenario_spec(workload, seed), catalog, users, trace
        )
        replay_start = time.monotonic()
        if mode == "profile":
            import cProfile

            profiler = cProfile.Profile()
            with probes.gc_pauses() as gc_stats:
                profiler.enable()
                result = runner.run()
                profiler.disable()
        else:
            result = runner.run()
        replay_end = time.monotonic()
        if mode == "heap":
            snapshot = tracemalloc.take_snapshot()
            heap_total = tracemalloc.get_traced_memory()[0]
    modeled = _modeled(result, runner, outcomes)
    checks = _checks(modeled, workload.overload_profile is not None)
    if mode == "profile":
        self_time, total = probes.self_time_by_layer(profiler)
        layers.update(
            {f"{layer}.self_share": t / total for layer, t in self_time.items()}
        )
        layers.update(calls)
        layers["runtime.gc_collections"] = gc_stats["collections"]
        layers["runtime.gc_pause_s"] = gc_stats["pause_s"]
        # Wrapper counts against the program's own counters.
        for got, want in (
            ("origin.handle.calls", "origin_requests"),
            ("gdpr.access.calls", "accesses"),
            ("gdpr.erase.calls", "erasures"),
        ):
            if layers[got] != modeled[want]:
                checks.append(f"{got} vs {want}: {layers[got]} != {modeled[want]}")
    elif mode == "heap":
        heap = probes.heap_by_layer(snapshot)
        layers.update(
            {f"{layer}.heap_bytes": heap[layer] for layer in probes.HEAP_LAYERS}
        )
        layers["heap.bytes_per_user"] = heap_total / modeled["users_seen"]
    replay_s = replay_end - replay_start
    return {
        "workload": workload_name,
        "seed": seed,
        "mode": mode,
        "setup_s": replay_start - launch,
        "replay_s": replay_s,
        "pages_per_s": result.page_views / replay_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "phases": {
            "imports_s": imported - launch,
            "world_s": generate_start - world_start,
            "generate_s": runner_start - generate_start,
            "runner_s": replay_start - runner_start,
            "amplify_s": amplify[1],
        },
        "modeled": modeled,
        "digest": _digest(result, outcomes),
        "checks": checks,
        "layers": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {SRC}", file=sys.stderr)
        return 2
    record = measure(args.workload, args.seed, args.mode, args.launch, args.scale)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
