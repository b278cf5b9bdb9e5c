"""Host-time benchmark of the HyperLoop simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload chain_offload --seed 3 \\
        --seconds 25 --trace 0

One process runs one workload at one seed, single-threaded.  It builds
the simulator from ``src/`` of the checkout it sits in, drives it only
through public entry points, checks the simulated outputs, prints what it
measured and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (host time, memory, op
outcomes); ``--trace 1`` reports the per-layer metrics, from a traced and
a profiled episode compared against untraced ones.  See README.md in this
directory for what each metric means and which layer should move it.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import math
import pstats
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"

#: The seed whose digest is stored; every run re-checks it on a canary.
DEFAULT_SEED = 1
#: Set-up-only builds, on top of one per measured episode: after each
#: episode, more while all of them together (with the garbage collection
#: before each) took under SETUP_SHARE of the time spent so far, so the
#: samples spread over the whole run.
SETUP_SHARE = 0.1
#: Episodes measured at least, however long they take.
MIN_EPISODES = 2

#: Metric name -> (value, unit).
Metrics = Dict[str, Tuple[float, str]]


def import_program():
    """Put the checkout's ``src/`` first on the path and import the
    benchmark modules; refuses a ``repro`` found anywhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro
    where = Path(repro.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"repro imported from {where}, not from {ROOT}")
    import episodes
    import tracing
    return episodes, tracing


# ---------------------------------------------------------------------------
# Episodes
# ---------------------------------------------------------------------------
class Outcome:
    """What one finished episode leaves behind (the episode is dropped)."""

    def __init__(self, episode, setup_s: float) -> None:
        tally = episode.tally
        self.setup_s = setup_s
        self.digest = tally.digest(episode.cluster.sim.now, episode.state())
        self.measured_ops = tally.measured_ops
        self.op_seconds = tally.op_seconds()
        self.counts = dict(tally.counts)
        self.issued = tally.issued
        self.completed = len(tally.records)
        self.problems = list(episode.problems)
        self.latencies = sorted(
            latency for _kind, latency, _outcome
            in tally.records[tally.spec.warm_ops:tally.measured_end])
        self.final_ns = episode.cluster.sim.now


def build(episodes, workload: str, seed: int, canary: bool = False):
    """Build one episode; returns it with its host set-up seconds."""
    gc.collect()
    start = perf_counter()
    episode = episodes.build(workload, seed, canary=canary)
    return episode, perf_counter() - start


def run_one(episodes, workload: str, seed: int,
            canary: bool = False) -> Outcome:
    episode, setup_s = build(episodes, workload, seed, canary)
    episode.run()
    return Outcome(episode, setup_s)


def run_for(episodes, workload: str, seed: int, seconds: float,
            setups: Optional[List[float]] = None,
            at_least: int = MIN_EPISODES) -> List[Outcome]:
    """Measured episodes for about ``seconds`` of host time: another
    episode starts only if it would end less than half an episode late.

    With ``setups``, set-up-only builds are interleaved (see SETUP_SHARE)
    and their times appended to it.
    """
    started = perf_counter()
    outcomes: List[Outcome] = []
    setup_only = 0.0
    last = 0.0
    while len(outcomes) < at_least \
            or perf_counter() - started + last / 2 < seconds:
        begun = perf_counter()
        outcomes.append(run_one(episodes, workload, seed))
        last = perf_counter() - begun
        while setups is not None \
                and setup_only < SETUP_SHARE * (perf_counter() - started):
            begun = perf_counter()
            _episode, setup_s = build(episodes, workload, seed)
            del _episode
            setups.append(setup_s)
            setup_only += perf_counter() - begun
    return outcomes


def check_canary(episodes, workload: str) -> List[str]:
    """Run the default-seed canary; compare its digest with the stored one."""
    outcome = run_one(episodes, workload, DEFAULT_SEED, canary=True)
    stored = json.loads(DIGESTS.read_text())
    print(f"canary seed={DEFAULT_SEED} digest={outcome.digest}")
    if stored.get(workload) != outcome.digest:
        return outcome.problems + [
            f"canary digest {outcome.digest} differs from the stored "
            f"{stored.get(workload)} for seed {DEFAULT_SEED}"]
    return outcome.problems


def percentile(values: List[int], q: float) -> Tuple[Optional[int], int]:
    """(value, samples strictly above it); value is None when fewer than
    ten samples lie beyond it."""
    index = max(0, math.ceil(q / 100 * len(values)) - 1)
    value = values[index]
    beyond = len(values) - next((i for i in range(index, len(values))
                                 if values[i] > value), len(values))
    return (value if beyond >= 10 else None), beyond


def report_model(outcome: Outcome) -> None:
    """Print the simulated results of one episode, labelled as model output."""
    parts = []
    for q in (50, 99):
        value, beyond = percentile(outcome.latencies, q)
        shown = f"{value / 1000:.3f}us" if value is not None else "n/a"
        parts.append(f"p{q}={shown} ({beyond} beyond)")
    counts = " ".join(f"{name}={count}" for name, count
                      in outcome.counts.items())
    print(f"model output (simulated time, n={len(outcome.latencies)}): "
          f"{' '.join(parts)}; {counts}; final clock "
          f"{outcome.final_ns} ns; digest {outcome.digest}")


def check(outcomes: List[Outcome]) -> List[str]:
    """Every episode of one seed must match the first and account for
    every op it issued."""
    problems: List[str] = []
    for index, outcome in enumerate(outcomes):
        problems += outcome.problems
        if outcome.digest != outcomes[0].digest:
            problems.append(f"episode {index} digest {outcome.digest} differs "
                            f"from episode 0's {outcomes[0].digest}")
        if sum(outcome.counts.values()) != outcome.issued:
            problems.append(f"episode {index}: outcomes "
                            f"{sum(outcome.counts.values())} != attempted "
                            f"{outcome.issued}")
    return problems


def best_rate(outcomes: List[Outcome]) -> float:
    """Measured simulated ops per host second, from the fastest repeat of
    each op.

    Every episode of a run repeats the same simulated work op for op, and
    host noise on a shared machine only ever slows an op down.  So each
    op's time is its minimum over the episodes (a best-of-N per op), and
    the rate divides the measured ops by the sum of those minima.  The
    repeats of one op are spread over the whole run, so on a host whose
    speed swings for seconds at a time one of them usually lands in a
    fast moment.
    """
    fastest = [min(times) for times in
               zip(*(outcome.op_seconds for outcome in outcomes))]
    return outcomes[0].measured_ops / sum(fastest)


# ---------------------------------------------------------------------------
# End-to-end run (--trace 0)
# ---------------------------------------------------------------------------
def end_to_end(episodes, workload: str, seed: int,
               seconds: float) -> Tuple[Metrics, List[Outcome]]:
    setups: List[float] = []
    outcomes = run_for(episodes, workload, seed, seconds, setups)
    setups += [outcome.setup_s for outcome in outcomes]
    first = outcomes[0]
    attempted = sum(first.counts.values())
    metrics = {
        "sim_ops_per_s": (best_rate(outcomes), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "op_ok_ratio": (first.counts["ok"] / attempted, "ratio"),
    }
    print(f"episodes={len(outcomes)} measured ops/episode="
          f"{first.measured_ops} setup samples={len(setups)}"
          f" op_fail_ratio={1 - first.counts['ok'] / attempted!r}")
    return metrics, outcomes


# ---------------------------------------------------------------------------
# Per-layer run (--trace 1)
# ---------------------------------------------------------------------------
def cluster_counters(episode) -> Dict[str, int]:
    """Counters the program already keeps, summed over every host."""
    hosts = list(episode.cluster.hosts.values())
    return {
        "messages": sum(host.nic.port.messages_sent for host in hosts),
        "bytes": sum(host.nic.port.bytes_sent for host in hosts),
        "dropped": episode.cluster.fabric.messages_dropped,
        "rnr": sum(host.nic.rnr_retries.value for host in hosts),
        "ctx": sum(host.cpu.context_switches.value for host in hosts),
        "flushes": sum(host.nic.cache.flushes for host in hosts),
        # The simulator's sequence number counts every entry ever scheduled.
        "events": episode.cluster.sim._seq,
    }


def resident_bytes(episode) -> int:
    """Bytes of simulated memory pages touched (visible + durable images)."""
    total = 0
    for host in episode.cluster.hosts.values():
        for attr in ("_data", "_durable_data"):
            pages = getattr(host.memory, attr, None)
            if pages is not None:
                total += pages.resident_bytes
    return total


def traced_episode(episodes, tracing, workload: str,
                   seed: int) -> Tuple[Outcome, Metrics]:
    """One episode under the tracer, and the per-layer counts it gives.

    "per op" is per completed op of the episode; "per wqe" is per
    ``WorkQueue.advance_head`` call (one per consumed WQE); set-up counts
    are taken when the build returns.
    """
    holder = {}
    tracer = tracing.Tracer(
        op_id=lambda: holder["episode"].tally.issued if holder else 0)
    with tracer:
        episode, setup_s = build(episodes, workload, seed)
        holder["episode"] = episode
        setup = tracer.snapshot()
        before = cluster_counters(episode)
        tracer.sampling = True
        episode.run()
        tracer.sampling = False
    after = cluster_counters(episode)
    run = {name: [now - then for now, then in zip(values, setup[name])]
           for name, values in tracer.stats.items()}
    write_spans(workload, seed, tracer, run)
    ops = len(episode.tally.records)
    count = {key: after[key] - before[key] for key in after}
    calls = {name: values[0] for name, values in run.items()}
    wqes = calls["rdma.driver.advance_head"]
    op_calls = [run[name] for name in tracing.OP_CALLS]
    metrics: Metrics = {
        "rdma.wqe.decode_per_wqe": (calls["rdma.wqe.decode_wqe"] / wqes,
                                    "calls/wqe"),
        "rdma.driver.peek_per_wqe": (calls["rdma.driver.peek_head"] / wqes,
                                     "calls/wqe"),
        "rdma.driver.wqes_per_op": (wqes / ops, "wqe/op"),
        "rdma.wqe.encode_per_op": (calls["rdma.wqe.encode_wqe"] / ops,
                                   "calls/op"),
        "rdma.nic.doorbells_per_op": (calls["rdma.nic.doorbell"] / ops,
                                      "calls/op"),
        "rdma.nic.kick_all_per_op": (calls["rdma.nic.kick_all"] / ops,
                                     "calls/op"),
        "rdma.nic.rnr_retries": (count["rnr"], "count"),
        "rdma.fabric.messages_per_op": (count["messages"] / ops, "msg/op"),
        "rdma.fabric.bytes_per_op": (count["bytes"] / ops, "B/op"),
        "rdma.fabric.dropped": (count["dropped"], "count"),
        "nvm.reads_per_op": (calls["nvm.read"] / ops, "calls/op"),
        "nvm.writes_per_op": (calls["nvm.write"] / ops, "calls/op"),
        "nvm.bytes_read_per_op": (run["nvm.read"][3] / ops, "B/op"),
        "nvm.bytes_written_per_op": (run["nvm.write"][3] / ops, "B/op"),
        "nvm.flushes_per_op": (count["flushes"] / ops, "flush/op"),
        "nvm.resident_mb": (resident_bytes(episode) / 2 ** 20, "MB"),
        "sim.events_per_op": (count["events"] / ops, "events/op"),
        "sim.cpu.ctx_switches_per_op": (count["ctx"] / ops, "count/op"),
        "sim.cpu.thread_runs_per_op": (calls["sim.cpu.thread_run"] / ops,
                                       "calls/op"),
        "setup.encode_calls": (setup["rdma.wqe.encode_wqe"][0], "count"),
        "setup.post_slot_calls": (setup["core.post_slot"][0], "count"),
        "setup.events": (before["events"], "count"),
        "cluster.ring_lookups_per_op": (calls["cluster.ring_lookup"] / ops,
                                        "calls/op"),
        "backend.call_host_us": (
            sum(entry[2] for entry in op_calls) / 1000
            / max(1, sum(entry[0] for entry in op_calls)), "us"),
    }
    queues = [handle.admission for _shard, handle in
              sorted(episode.deployment.handles.items())] \
        if hasattr(episode, "deployment") else []
    metrics["traffic.admitted"] = (sum(q.admitted for q in queues), "count")
    metrics["traffic.shed"] = (sum(q.shed for q in queues), "count")
    metrics["traffic.peak_depth"] = (
        max((q.peak_depth for q in queues), default=0), "count")
    metrics.update(fault_metrics(episode))
    return Outcome(episode, setup_s), metrics


def fault_metrics(episode) -> Metrics:
    """The fault layer's own records (zero where no supervisor runs)."""
    manager = getattr(episode, "manager", None)
    if manager is None:
        values = dict.fromkeys(("heartbeats", "watchdog_checks", "elections",
                                "reconfigs", "detection_ms", "outage_ms"), 0)
    else:
        injected, suspected, recovered = episode.fault_times()
        values = {
            "heartbeats": manager.monitor.beats_received,
            "watchdog_checks": manager.watchdog.checks,
            "elections": manager.election.elections_run,
            "reconfigs": len(manager.reconfigs),
            "detection_ms": (suspected - injected) / 1e6,
            "outage_ms": (recovered - injected) / 1e6,
        }
    return {f"faults.{name}": (value, "ms" if name.endswith("_ms")
                               else "count")
            for name, value in values.items()}


def write_spans(workload: str, seed: int, tracer, run) -> None:
    """Write the bounded span sample and the per-function totals."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "span_fields": ["id", "parent", "name", "start_ns", "duration_ns",
                        "self_ns", "last_issued_op"],
        "spans": tracer.sample,
        "functions": {name: dict(zip(("calls", "total_ns", "self_ns",
                                      "bytes"), values))
                      for name, values in sorted(run.items())},
    }))
    print(f"spans: {len(tracer.sample)} sampled, written to {path}")


def profiled_episode(episodes, tracing, workload: str, seed: int):
    episode, setup_s = build(episodes, workload, seed)
    profiler = cProfile.Profile()
    profiler.enable()
    episode.run()
    profiler.disable()
    return Outcome(episode, setup_s), tracing.layer_shares(
        pstats.Stats(profiler))


def per_layer(episodes, tracing, workload: str, seed: int,
              seconds: float) -> Tuple[Metrics, List[Outcome]]:
    untraced = run_for(episodes, workload, seed, seconds / 2, at_least=1)
    traced, metrics = traced_episode(episodes, tracing, workload, seed)
    profiled, shares = profiled_episode(episodes, tracing, workload, seed)
    rate = best_rate(untraced)
    traced_rate = best_rate([traced])
    metrics["sim.host_ns_per_event"] = (
        1e9 / (rate * metrics["sim.events_per_op"][0]), "ns")
    for name in tracing.LAYERS:
        metrics[f"{name}.self_pct"] = (shares[name], "%")
    metrics["trace.overhead_pct"] = (100.0 * (rate / traced_rate - 1.0), "%")
    print(f"untraced episodes={len(untraced)} untraced rate={rate!r}/s "
          f"traced rate={traced_rate!r}/s")
    return metrics, untraced + [traced, profiled]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(sys.argv[1:] if argv is None else argv)
    try:
        episodes, tracing = import_program()
    except ImportError as exc:
        print(f"cannot import the simulator from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in episodes.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(episodes.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    print(f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    problems = check_canary(episodes, args.workload)
    if args.trace:
        metrics, outcomes = per_layer(episodes, tracing, args.workload,
                                      args.seed, args.seconds)
    else:
        metrics, outcomes = end_to_end(episodes, args.workload, args.seed,
                                       args.seconds)
    problems += check(outcomes)
    report_model(outcomes[0])
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    attempted = sum(outcome.issued for outcome in outcomes)
    failed = sum(outcome.counts["error"] + outcome.issued - outcome.completed
                 for outcome in outcomes)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
