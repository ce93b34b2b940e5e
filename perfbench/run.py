"""The repository benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N \\
        [--seconds S] [--trace 0|1] [--scale F]

Runs from the repository root (or any checkout holding ``src/`` and
``perfbench/``). Each replay runs in a fresh process started by
``replay.py``; nothing is shared between replays.

``--trace 0`` (timed): replays the workload once at each of its
``replays`` replay seeds derived from ``--seed``, then replays them
again, in order, until ``--seconds`` have passed (at least one repeat,
at most one per seed).
Every repeat must reproduce the modeled results of the first replay at
its seed. Modeled metrics pool the distinct replays (PLT percentiles
over all their page views, ratios over summed counts); ``pages_per_s``
is their pages over their replay seconds (a seed's median when it was
replayed more than once); set-up time and peak RSS are medians over all
replays.

``--trace 1`` (traced): one untraced replay, one ``cProfile`` replay
and one ``tracemalloc`` replay at the first replay seed; all three must
produce the same modeled results. Reports the per-layer metrics.

A table goes to stdout first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``attempted`` counts replays, ``failed`` the replays that crashed or
whose outputs failed a check. The exit code is 0 only when every
replay was correct. ``--scale`` multiplies every workload's duration
(the benchmark's own tests use it).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import probes  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Wall-clock limit for one run of one workload.
RUN_TIMEOUT_S = 170.0

#: Gated end-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "pages_per_s": "pages/s",
    "peak_rss_mb": "MB",
    "plt_p50_ms": "ms",
    "plt_p99_ms": "ms",
    "hit_ratio": "ratio",
    "origin_requests_per_page": "ratio",
    "goodput_ratio": "ratio",
}
#: Host metrics taken as the median over every replay of a run.
MEDIAN_METRICS = ("setup_s", "peak_rss_mb")
#: Printed with the end-to-end metrics but not gated; the traced run
#: reports them as per-layer metrics. Failures and invariant violations
#: are zero on healthy workloads, so no relative bound applies. Stale
#: reads are rare events (a few dozen per replay): the ratio spreads
#: between seeds by more than any bound the benchmark may set.
REPORTED = {
    "stale_read_fraction": "ratio",
    "failed_ratio": "ratio",
    "invariant_violations": "count",
}
CDN_KINDS = ("static", "page", "query", "api", "fragment")


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {
        "sim.kernel_events": "count",
        "sim.kernel_events_per_s": "1/s",
        "sim.counter_lookups": "count",
    }
    for name in probes.TIMED_METHODS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
    units["sketch.flatten.calls"] = "count"
    units["gdpr.matches_entry.calls"] = "count"
    units["sketch.bytes_transferred"] = "bytes"
    for kind in CDN_KINDS:
        units[f"cdn.hit_ratio.{kind}"] = "ratio"
    units.update(
        {
            "txn.txns": "count",
            "txn.aborts": "count",
            "txn.validation_retries": "count",
            "overload.offered": "count",
            "overload.shed_ratio": "ratio",
            "overload.queue_depth_peak": "count",
            "overload.scale_ups": "count",
            "workload.generate_s": "s",
            "workload.amplify_s": "s",
        }
    )
    for layer in probes.ALL_LAYERS:
        units[f"{layer}.self_share"] = "ratio"
    for layer in probes.HEAP_LAYERS:
        units[f"{layer}.heap_bytes"] = "bytes"
    units.update(
        {
            "runtime.gc_collections": "count",
            "runtime.gc_pause_s": "s",
            "heap.bytes_per_user": "bytes",
            "trace.overhead_ratio": "ratio",
            "plt.samples": "count",
            "ops.attempted": "count",
            "stale_read_fraction": "ratio",
            "failed_ratio": "ratio",
            "invariant_violations": "count",
            "delta_violations": "count",
        }
    )
    return units


def replay_seeds(name: str, seed: int) -> list:
    """The distinct replay seeds of one run; the first is ``seed``."""
    return [seed + 1000 * k for k in range(WORKLOADS[name].replays)]


class ReplayFailed(Exception):
    pass


def replay(name: str, seed: int, mode: str, scale: float, deadline: float) -> dict:
    """Run one replay in a fresh process and return its record."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ReplayFailed(f"{name} {mode} seed {seed}: out of time")
    command = [
        sys.executable,
        str(HERE / "replay.py"),
        "--workload",
        name,
        "--seed",
        str(seed),
        "--mode",
        mode,
        "--scale",
        repr(scale),
        "--launch",
        repr(time.monotonic()),
    ]
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise ReplayFailed(f"{name} {mode} seed {seed}: out of time")
    if done.returncode != 0:
        raise ReplayFailed(
            f"{name} {mode} seed {seed}: exit {done.returncode}\n"
            + done.stderr[-2000:]
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def problems(records: list) -> list:
    """Failed checks, and modeled differences between replays of one
    seed."""
    found = [
        f"{record['mode']} seed {record['seed']}: {check}"
        for record in records
        for check in record["checks"]
    ]
    first = {}
    for record in records:
        reference = first.setdefault(record["seed"], record)
        if record["digest"] != reference["digest"]:
            found.append(
                f"seed {record['seed']}: {record['mode']} replay's modeled "
                f"results differ from the {reference['mode']} replay's"
            )
    return found


def pooled(modeled: list) -> dict:
    """Modeled metrics over several replays' page views and counts."""
    from repro.sim.metrics import Histogram

    plt = Histogram("plt")
    plt.extend(value for record in modeled for value in record["plt"])

    def total(key: str) -> int:
        return sum(record[key] for record in modeled)

    invariants = {
        name: sum(record["invariants"][name] for record in modeled)
        for name in modeled[0]["invariants"]
    }
    return {
        "plt_p50_ms": plt.percentile(50) * 1000.0,
        "plt_p99_ms": plt.percentile(99) * 1000.0,
        "plt_samples": plt.count,
        "pages": total("pages"),
        "hit_ratio": total("hits") / total("served"),
        "origin_requests_per_page": total("origin_requests") / total("pages"),
        "stale_read_fraction": total("stale_reads") / total("reads_checked"),
        "goodput_ratio": total("good_pages") / total("pages"),
        "attempted_ops": total("attempted_ops"),
        "failed_ops": total("failed_ops"),
        "failed_ratio": total("failed_ops") / total("attempted_ops"),
        "invariants": invariants,
        "invariant_violations": sum(invariants.values()),
    }


def timed_run(name, seed, seconds, scale, deadline):
    start = time.monotonic()
    seeds = replay_seeds(name, seed)
    records = [replay(name, s, "timed", scale, deadline) for s in seeds]
    repeats = 0
    while repeats < 1 or (
        time.monotonic() - start < seconds and repeats < len(seeds)
    ):
        again = seeds[repeats % len(seeds)]
        records.append(replay(name, again, "timed", scale, deadline))
        repeats += 1
    summary = pooled([record["modeled"] for record in records[: len(seeds)]])
    metrics = {
        metric: statistics.median(record[metric] for record in records)
        for metric in MEDIAN_METRICS
    }
    replay_s = {
        s: statistics.median(r["replay_s"] for r in records if r["seed"] == s)
        for s in seeds
    }
    metrics["pages_per_s"] = summary["pages"] / sum(replay_s.values())
    for metric in END_TO_END:
        if metric not in metrics:
            metrics[metric] = summary[metric]
    return records, summary, metrics


def traced_run(name, seed, scale, deadline):
    untraced, profiled, heap = (
        replay(name, seed, mode, scale, deadline)
        for mode in ("timed", "profile", "heap")
    )
    records = [untraced, profiled, heap]
    modeled = untraced["modeled"]
    summary = pooled([modeled])
    metrics = {
        "sim.kernel_events": modeled["kernel_events"],
        "sim.kernel_events_per_s": modeled["kernel_events"] / untraced["replay_s"],
        "sketch.bytes_transferred": modeled["sketch_bytes"],
        "txn.txns": modeled["txns"],
        "txn.aborts": modeled["txn_aborts"],
        "txn.validation_retries": modeled["txn_validation_retries"],
        "overload.offered": modeled["offered"],
        "overload.shed_ratio": modeled["shed_ratio"],
        "overload.queue_depth_peak": modeled["queue_depth_peak"],
        "overload.scale_ups": modeled["scale_ups"],
        "workload.generate_s": untraced["phases"]["generate_s"],
        "workload.amplify_s": untraced["phases"]["amplify_s"],
        "trace.overhead_ratio": profiled["replay_s"] / untraced["replay_s"],
        "plt.samples": summary["plt_samples"],
        "ops.attempted": summary["attempted_ops"],
        "stale_read_fraction": summary["stale_read_fraction"],
        "failed_ratio": summary["failed_ratio"],
        "invariant_violations": summary["invariant_violations"],
        "delta_violations": summary["invariants"]["delta_violations"],
    }
    for kind in CDN_KINDS:
        metrics[f"cdn.hit_ratio.{kind}"] = modeled["cdn_hit_ratio"][kind]
    layers = {**profiled["layers"], **heap["layers"]}
    for metric in per_layer_units():
        if metric not in metrics:
            metrics[metric] = layers[metric]
    return records, summary, metrics


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(name, trace, records, summary, metrics) -> None:
    """Print the workload's configuration and metrics as a table."""
    workload = WORKLOADS[name]
    config = ", ".join(f"{k}={v}" for k, v in workload.config().items())
    seeds = sorted({record["seed"] for record in records})
    print(f"== {name}: {config}")
    print(f"   why: {workload.why}")
    print(f"   replays: {len(records)} at seeds {seeds}")
    if trace:
        rows = [(m, metrics[m], u) for m, u in per_layer_units().items()]
    else:
        rows = [(m, metrics[m], u) for m, u in END_TO_END.items()]
        rows += [(m, summary[m], u) for m, u in REPORTED.items()]
        for phase in records[0]["phases"]:
            value = statistics.median(r["phases"][phase] for r in records)
            rows.append((f"(setup) {phase}", value, "s"))
    width = max(len(row[0]) for row in rows)
    for metric, value, unit in rows:
        print(f"   {metric:<{width}}  {_fmt(value):>14}  {unit}")
    print(
        f"   PLT samples: {summary['plt_samples']}; operations attempted: "
        f"{summary['attempted_ops']} (failed {summary['failed_ops']}); "
        "invariant violations: "
        + ", ".join(f"{k}={v}" for k, v in summary["invariants"].items())
    )


def run_workload(name, seed, seconds, trace, scale):
    """(attempted, failed, metrics) of one workload; prints its table."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        if trace:
            records, summary, metrics = traced_run(name, seed, scale, deadline)
        else:
            records, summary, metrics = timed_run(
                name, seed, seconds, scale, deadline
            )
    except ReplayFailed as err:
        print(f"== {name}: replay failed: {err}")
        return 1, 1, {}
    report(name, trace, records, summary, metrics)
    found = problems(records)
    for problem in found:
        print(f"   CHECK FAILED: {problem}")
    return len(records), len(records) if found else 0, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see BENCHMARK.json)."
    )
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = per_layer_units() if args.trace else END_TO_END
    attempted = failed = 0
    metrics = {}
    for name in names:
        tried, bad, values = run_workload(
            name, args.seed, args.seconds, args.trace, args.scale
        )
        attempted += tried
        failed += bad
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, value in values.items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
