"""Microbenchmarks for the discrete-event simulation kernel.

Every figure in the reproduction is bottlenecked by
:mod:`repro.sim.engine` — each simulated WQE costs event objects,
schedule inserts and callback dispatch — so kernel throughput
(events/sec) is the single number that bounds how fast any experiment
can run.

Eight workloads exercise the kernel's distinct hot paths:

``timeout_chain``
    One process doing back-to-back ``yield sim.timeout(1)`` — the
    single-consumer Timeout round-trip.
``delay_chain``
    The same wait expressed as a bare ``yield 1`` — the allocation-free
    delay fast path the NIC/CPU models actually use on their hot paths
    (one schedule tuple per wait, no Event or Timeout object).
``event_pingpong``
    Two processes handing a fresh :class:`Event` back and forth via
    ``succeed()`` — the trigger/callback dispatch path (completion
    signalling, ACK delivery).
``process_spawn``
    Spawning many short-lived processes — bootstrap and join cost
    (per-op driver processes, tenant threads).
``fanin_allof``
    Repeated ``AllOf`` joins over a small fan-in — the combinator path
    (waiting for a chain of replica ACKs).
``short_delay_fanout``
    Hundreds of concurrent processes each looping on small bare delays
    — the multi-tenant short-delay regime (per-WQE NIC processing,
    link hops) where hundreds of timers are pending at once, so every
    schedule insert and pop pays the heap's O(log n).
``short_timeout_fanout``
    The same fan-out expressed through ``sim.timeout`` — short-delay
    concurrency plus the Timeout allocation path.
``sharded_deployment``
    Eight concurrent router/chain process pairs, each op one event
    handoff in, ``hops`` bare-delay chain hops, one ACK event back —
    the event mix of the sharded cluster layer (`repro.cluster`), where
    N independent shard pipelines interleave in one kernel.

Each workload reports **events/sec**, where an "event" is one scheduled
occurrence dispatched by the kernel (the workloads are written so the
count is known in closed form).  The definition is stable across kernel
versions, which is what makes the number comparable in
``BENCH_kernel.json`` — see ``scripts/perf_report.py`` for the recorded
perf trajectory and the CI regression gate.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_kernel.py

or under pytest-benchmark like the figure benches::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernel.py
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, Tuple

from repro.sim.engine import Simulator
from repro.sim.stats import LatencyRecorder

__all__ = ["WORKLOADS", "run_workload", "sweep_overhead",
           "sweep_overhead_compare", "traffic_overhead", "main"]

# Concurrent processes in the fan-out workloads.  Chosen to match the
# multi-tenant regime from the paper's figure 8/9 setups (hundreds of
# tenant threads with in-flight WQEs), so the heap holds hundreds of
# pending entries and every insert/pop pays its O(log n).
_FANOUT_PROCS = 384


def timeout_chain(n: int) -> Tuple[Simulator, int]:
    """One process, ``n`` sequential 1 ns timeouts.  ~n events."""
    sim = Simulator()

    def proc(sim):
        for _ in range(n):
            yield sim.timeout(1)

    sim.process(proc(sim))
    return sim, n


def delay_chain(n: int) -> Tuple[Simulator, int]:
    """One process, ``n`` sequential bare-delay waits.  ~n events."""
    sim = Simulator()

    def proc(sim):
        for _ in range(n):
            yield 1  # bare-delay fast path

    sim.process(proc(sim))
    return sim, n


def event_pingpong(n: int) -> Tuple[Simulator, int]:
    """Two processes exchanging ``n`` fresh events.  ~2n events."""
    sim = Simulator()
    box = {"ping": sim.event(), "pong": None}

    def left(sim):
        for _ in range(n):
            box["pong"] = sim.event()
            box["ping"].succeed()
            yield box["pong"]

    def right(sim):
        for _ in range(n):
            yield box["ping"]
            box["ping"] = sim.event()
            box["pong"].succeed()

    sim.process(left(sim))
    sim.process(right(sim))
    return sim, 2 * n


def process_spawn(n: int) -> Tuple[Simulator, int]:
    """``n`` short-lived child processes joined by a parent.  ~3n events."""
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1)

    def parent(sim):
        for _ in range(n):
            yield sim.process(child(sim))

    sim.process(parent(sim))
    return sim, 3 * n


def fanin_allof(n: int, width: int = 4) -> Tuple[Simulator, int]:
    """``n`` AllOf joins over ``width`` timeouts each.  ~n*(width+1) events."""
    sim = Simulator()

    def proc(sim):
        for _ in range(n):
            yield sim.all_of([sim.timeout(i + 1) for i in range(width)])

    sim.process(proc(sim))
    return sim, n * (width + 1)


def short_delay_fanout(n: int,
                       procs: int = _FANOUT_PROCS) -> Tuple[Simulator, int]:
    """``procs`` concurrent processes looping on 1–7 ns bare delays.

    ~n events total with ~``procs`` timers pending at every instant.
    """
    sim = Simulator()
    per = max(1, n // procs)

    def worker(sim, i):
        delay = (i % 7) + 1
        for _ in range(per):
            yield delay  # bare-delay fast path

    for i in range(procs):
        sim.process(worker(sim, i))
    return sim, per * procs


def short_timeout_fanout(n: int,
                         procs: int = _FANOUT_PROCS) -> Tuple[Simulator, int]:
    """``procs`` concurrent processes looping on 1–13 ns timeouts.

    ~n events total with ~``procs`` timers pending at every instant.
    """
    sim = Simulator()
    per = max(1, n // procs)

    def worker(sim, i):
        delay = (i % 13) + 1
        for _ in range(per):
            yield sim.timeout(delay)

    for i in range(procs):
        sim.process(worker(sim, i))
    return sim, per * procs


def sharded_deployment(n: int,
                       shards: int = 8,
                       hops: int = 3) -> Tuple[Simulator, int]:
    """``shards`` concurrent closed-loop router/chain pairs.

    Per op and shard: the router triggers a request event (one dispatch
    into the chain process), the chain walks ``hops`` bare-delay hops —
    staggered per shard so the chains interleave like real ones — and
    triggers the ACK event (one dispatch back).  Exactly
    ``(hops + 2)`` events per op, ``per * shards * (hops + 2)`` total.
    """
    sim = Simulator()
    per = max(1, n // (shards * (hops + 2)))

    def router(sim, box):
        for _ in range(per):
            box["ack"] = sim.event()
            box["req"].succeed()
            yield box["ack"]

    def chain(sim, box, delay):
        for _ in range(per):
            yield box["req"]
            box["req"] = sim.event()
            for _ in range(hops):
                yield delay  # bare-delay fast path, one per chain hop
            box["ack"].succeed()

    for shard in range(shards):
        box = {"req": sim.event(), "ack": None}
        sim.process(router(sim, box))
        sim.process(chain(sim, box, (shard % 7) + 1))
    return sim, per * shards * (hops + 2)


WORKLOADS: Dict[str, Callable[..., Tuple[Simulator, int]]] = {
    "timeout_chain": timeout_chain,
    "delay_chain": delay_chain,
    "event_pingpong": event_pingpong,
    "process_spawn": process_spawn,
    "fanin_allof": fanin_allof,
    "short_delay_fanout": short_delay_fanout,
    "short_timeout_fanout": short_timeout_fanout,
    "sharded_deployment": sharded_deployment,
}

def run_workload(name: str, n: int, repeats: int = 3) -> Dict[str, float]:
    """Best-of-``repeats`` run of one workload; returns events/sec stats."""
    build = WORKLOADS[name]
    best = float("inf")
    events = 0
    for _ in range(repeats):
        sim, events = build(n)
        started = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
    return {
        "n": n,
        "events": events,
        "elapsed_s": best,
        "events_per_sec": events / best if best > 0 else float("inf"),
    }


def main(n: int = 100_000, repeats: int = 3) -> Dict[str, Dict[str, float]]:
    results = {}
    for name in WORKLOADS:
        results[name] = run_workload(name, n, repeats=repeats)
        r = results[name]
        print(f"{name:<21} {r['events']:>9,} events  "
              f"{r['elapsed_s'] * 1e3:8.1f} ms  "
              f"{r['events_per_sec'] / 1e6:6.2f} M events/s")
    return results


# ----------------------------------------------------------------------
# Sweep-engine result-transport overhead.
#
# Not a kernel workload: it measures the experiment harness *around* the
# kernel (how fast a worker's latency distribution reaches the parent),
# so it reports wall seconds, not events/sec, and is deliberately not in
# ``WORKLOADS`` — the events/sec regression gate stays about the kernel.
# ``scripts/perf_report.py`` records it in a separate ``sweep`` section.
# ----------------------------------------------------------------------
#: Deterministic sample pattern, tiled to size with C-level array repeat
#: so building the payload costs a memcpy, not a Python loop — the run
#: cost then *is* the result transport.
_TRANSPORT_PATTERN = array(
    "q", (1_000 + ((i * 2654435761) & 0xFFF) for i in range(4096)))


def _transport_point(point) -> Dict[str, int]:
    """Synthetic sweep point: a large latency distribution, a tiny row."""
    from repro.experiments.parallel import publish_recorder

    index, count = point
    reps = -(-count // len(_TRANSPORT_PATTERN))
    recorder = LatencyRecorder(f"transport-{index}")
    recorder.samples = (_TRANSPORT_PATTERN * reps)[:count]
    publish_recorder(recorder)
    return {"index": index, "count": count}


def sweep_overhead(samples: int = 200_000, points: int = 8, jobs: int = 2,
                   shm: bool = True, repeats: int = 3) -> Dict[str, float]:
    """Best-of-``repeats`` parallel sweep moving ``points`` recorders of
    ``samples`` int64s each back to the parent; returns wall seconds and
    the payload rate for the selected transport."""
    from repro.experiments.parallel import SweepOptions, last_stats, sweep

    opts = SweepOptions(cache_dir=None, resume=False, shm=shm)
    grid = [(i, samples) for i in range(points)]
    payload_mb = points * samples * 8 / 1e6
    best = float("inf")
    transport = "serial"
    for _ in range(repeats):
        recorders: list = []
        started = time.perf_counter()
        rows = sweep(grid, _transport_point, jobs=jobs,
                     recorders=recorders, samples_hint=samples,
                     sweep_options=opts)
        best = min(best, time.perf_counter() - started)
        transport = last_stats().transport
        assert [row["index"] for row in rows] == list(range(points))
        assert all(len(r) == samples for r in recorders)
    return {
        "samples": samples,
        "points": points,
        "jobs": jobs,
        "transport": transport,
        "payload_mb": payload_mb,
        "elapsed_s": best,
        "mb_per_sec": payload_mb / best if best > 0 else float("inf"),
    }


def sweep_overhead_compare(samples: int = 200_000, points: int = 8,
                           jobs: int = 2,
                           repeats: int = 3) -> Dict[str, Dict[str, float]]:
    """Run the transport bench with shm off, then on; print the speedup."""
    results = {}
    for mode, shm in (("pickle", False), ("shm", True)):
        results[mode] = sweep_overhead(samples, points, jobs=jobs,
                                       shm=shm, repeats=repeats)
        r = results[mode]
        print(f"sweep_overhead/{r['transport']:<7} "
              f"{r['payload_mb']:6.1f} MB  {r['elapsed_s'] * 1e3:8.1f} ms  "
              f"{r['mb_per_sec']:7.1f} MB/s")
    ratio = results["pickle"]["elapsed_s"] / results["shm"]["elapsed_s"]
    print(f"sweep_overhead speedup shm vs pickle: {ratio:.2f}x")
    return results


# ----------------------------------------------------------------------
# Admission-path overhead at zero contention.
#
# Also not a kernel workload: it measures the traffic layer *around* the
# kernel — what an uncontended op pays for passing through a bounded
# AdmissionQueue (one extra event, one dispatcher handoff) relative to
# issuing the same replicated write directly.  The admission arm must
# stay within a few percent of direct issue, or the "admission is free
# until you need it" premise of the overload experiments breaks.
# ``scripts/perf_report.py`` records it in a separate ``traffic``
# section, outside the events/sec regression gate.
# ----------------------------------------------------------------------
def _traffic_closed_loop(ops: int, window: int,
                         use_admission: bool) -> float:
    """Wall seconds for ``ops`` closed-loop gWRITEs at ``window`` depth."""
    from repro.core.group import GroupConfig, HyperLoopGroup
    from repro.host import Cluster
    from repro.traffic import AdmissionConfig, AdmissionQueue

    cluster = Cluster(seed=7)
    client = cluster.add_host("to-client")
    replicas = cluster.add_hosts(3, prefix="to-replica")
    group = HyperLoopGroup(client, replicas,
                           GroupConfig(slots=max(64, 2 * window),
                                       region_size=1 << 16))
    sim = cluster.sim
    group.write_local(0, b"\xCD" * 64)
    admission = None
    if use_admission:
        # Depth covers every op and the window matches the client's, so
        # nothing ever queues or sheds: the cost measured is pure
        # pass-through machinery.
        admission = AdmissionQueue(
            sim, AdmissionConfig(depth=ops + window, window=window))

    def submit():
        if admission is None:
            return group.gwrite(0, 64)
        return admission.offer(lambda: group.gwrite(0, 64))

    state = {"issued": 0, "done": 0}
    finished = sim.event()

    def on_done(_event):
        state["done"] += 1
        if state["done"] == ops:
            finished.succeed()
        elif state["issued"] < ops:
            state["issued"] += 1
            submit().add_callback(on_done)

    def driver():
        for _ in range(min(window, ops)):
            state["issued"] += 1
            submit().add_callback(on_done)
        yield finished

    sim.process(driver())
    started = time.perf_counter()
    # Cluster hosts keep background processes scheduled forever, so run
    # to the completion event rather than draining the schedule.
    while not finished.triggered:
        sim.step()
    elapsed = time.perf_counter() - started
    assert state["done"] == ops
    if admission is not None:
        assert admission.shed == 0 and admission.completed == ops
    return elapsed


def traffic_overhead(ops: int = 4_000, window: int = 16,
                     repeats: int = 3) -> Dict[str, float]:
    """Best-of-``repeats`` direct vs admission-wrapped closed loop.

    Returns both arms' wall seconds plus ``overhead`` — the fractional
    wall-clock cost of the admission pass-through at zero contention.
    The arms are interleaved per repeat so background-load drift on a
    shared machine biases both equally instead of whichever ran second.
    """
    direct = float("inf")
    admitted = float("inf")
    for _ in range(repeats):
        direct = min(direct,
                     _traffic_closed_loop(ops, window, use_admission=False))
        admitted = min(admitted,
                       _traffic_closed_loop(ops, window, use_admission=True))
    return {
        "ops": ops,
        "window": window,
        "direct_s": direct,
        "admission_s": admitted,
        "direct_kops": ops / direct / 1e3,
        "admission_kops": ops / admitted / 1e3,
        "overhead": admitted / direct - 1.0,
    }


# ----------------------------------------------------------------------
# pytest-benchmark integration (same harness as the figure benches).
# ----------------------------------------------------------------------
def test_kernel_timeout_chain(benchmark):
    sim, _ = timeout_chain(50_000)
    benchmark.pedantic(sim.run, rounds=1, iterations=1)
    assert sim.now == 50_000


def test_kernel_event_pingpong(benchmark):
    sim, _ = event_pingpong(25_000)
    benchmark.pedantic(sim.run, rounds=1, iterations=1)
    assert sim.peek() is None


def test_kernel_short_delay_fanout(benchmark):
    sim, events = short_delay_fanout(100_000)
    benchmark.pedantic(sim.run, rounds=1, iterations=1)
    assert sim.peek() is None
    assert events == 99_840  # 384 procs x 260 waits


def test_kernel_sharded_deployment(benchmark):
    sim, events = sharded_deployment(100_000)
    benchmark.pedantic(sim.run, rounds=1, iterations=1)
    assert sim.peek() is None
    assert events == 100_000  # 8 shards x 2,500 ops x (3 hops + 2 events)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=100_000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--sweep-overhead", action="store_true",
                        help="measure the sweep engine's result transport "
                             "(shm vs pickle) instead of kernel workloads")
    parser.add_argument("--traffic-overhead", action="store_true",
                        help="measure the admission queue's pass-through "
                             "cost at zero contention")
    cli = parser.parse_args()
    if cli.sweep_overhead:
        sweep_overhead_compare()
    elif cli.traffic_overhead:
        r = traffic_overhead()
        print(f"traffic_overhead      direct {r['direct_kops']:6.1f} kops/s"
              f"  admission {r['admission_kops']:6.1f} kops/s"
              f"  overhead {r['overhead'] * 100:+.1f}%")
    else:
        main(cli.n, repeats=cli.repeats)
