"""The four benchmark workloads, each as a rebuildable *episode*.

An episode builds a fresh simulated system from a seed, drives a fixed,
seed-determined stream of simulated operations through the program's
public entry points, and checks the results.  Every episode of one
workload and seed is identical work, so a run repeats episodes and keeps
each op's fastest repeat.

Host time is read only at fixed points of the simulated op stream: the
end of the warm-up prefix and every measured completion after it.  So
each measured op's share of the work, and everything the model computes,
is the same however fast the host is.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
import struct
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro import backend as backend_registry
from repro.cluster import (
    ScenarioConfig,
    ShardedConfig,
    build_deployment,
    build_scenario,
)
from repro.cluster.deployment import encode_record
from repro.faults import (
    AckOracle,
    CrashProcess,
    FaultInjector,
    FaultPlan,
    HeartbeatConfig,
    ReplicaFault,
    ReplicaSetManager,
    pack_seq,
)
from repro.host import Cluster
from repro.sim.engine import Event
from repro.sim.units import ms, us
from repro.traffic.admission import ShedError

__all__ = ["WORKLOADS", "Spec", "Tally", "Episode", "build"]

#: Op kinds, as they enter the digest.
GWRITE, GMEMCPY, GCAS, READ = 1, 2, 3, 4

#: Op outcomes.  ``shed`` (admission) and ``aborted`` (reconfiguration)
#: are modelled failures the workload expects; ``error`` is a fault of
#: the program and fails the run.
OUTCOMES = ("ok", "shed", "aborted", "error")


@dataclass(frozen=True)
class Spec:
    """Op counts of one episode."""

    warm_ops: int                 # Completions before measurement starts.
    measure_ops: int              # Completions measured (0: until a horizon).
    tail_ops: int = 0             # Unmeasured completions draining the stream.


class Tally:
    """Counts completions, keeps the per-op record and the host-time marks."""

    def __init__(self, sim, spec: Spec) -> None:
        self.sim = sim
        self.spec = spec
        self.records: List[Tuple[int, int, str]] = []  # (kind, latency, outcome)
        self.counts: Dict[str, int] = dict.fromkeys(OUTCOMES, 0)
        self.issued = 0
        self.marks: List[float] = []
        self.done: Event = sim.event()
        #: Completions up to the end of measurement (None: the stream's end).
        self.measured_end: Optional[int] = None
        self._total = 0
        if spec.measure_ops:
            self.measured_end = spec.warm_ops + spec.measure_ops
            self._total = self.measured_end + spec.tail_ops

    def issue(self) -> None:
        self.issued += 1

    def complete(self, kind: int, issued_ns: int, outcome: str) -> None:
        self.records.append((kind, self.sim.now - issued_ns, outcome))
        self.counts[outcome] += 1
        n = len(self.records)
        if self.spec.warm_ops <= n and (self.measured_end is None
                                        or n <= self.measured_end):
            self.marks.append(perf_counter())
        if n == self._total:
            self.done.succeed()

    def close(self) -> None:
        """End an open-ended (horizon-bounded) stream."""
        if not self.done.triggered:
            self.done.succeed()

    @property
    def measured_ops(self) -> int:
        return len(self.records[self.spec.warm_ops:self.measured_end])

    def op_seconds(self) -> List[float]:
        """Host seconds from each measured completion's predecessor to it."""
        return [b - a for a, b in zip(self.marks, self.marks[1:])]

    def digest(self, final_ns: int, state: bytes) -> str:
        """sha256 over every op's kind, latency and outcome, the outcome
        counts, the final simulated clock and the workload's end state."""
        h = hashlib.sha256()
        codes = {name: i for i, name in enumerate(OUTCOMES)}
        pack = struct.Struct("<BBq").pack
        h.update(b"".join(pack(kind, codes[outcome], latency)
                          for kind, latency, outcome in self.records))
        h.update(repr(sorted(self.counts.items())).encode())
        h.update(struct.pack("<q", final_ns))
        h.update(state)
        return h.hexdigest()


class Episode:
    """One built system plus its driver; subclasses define the workload."""

    #: The simulated cluster (per-layer counters are read from its hosts).
    cluster: Cluster
    #: Simulated time after which a stream that has not finished counts as
    #: stalled (about ten times what a correct run needs).
    deadline_ns: int

    def __init__(self, seed: int, spec: Spec) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.build()
        self.tally = Tally(self.cluster.sim, spec)
        self.problems: List[str] = []

    def build(self) -> None:
        raise NotImplementedError

    def start(self) -> None:
        raise NotImplementedError

    def state(self) -> bytes:
        """Bytes summarizing the simulated end state (enters the digest)."""
        return b""

    def verify(self) -> None:
        """Append a message to ``self.problems`` for every wrong output."""

    def run(self) -> None:
        self.start()
        sim = self.cluster.sim
        sim.run_until(self.tally.done, deadline=sim.now + self.deadline_ns)
        tally = self.tally
        if not tally.done.triggered:
            self.problems.append(
                f"stream stalled: {len(tally.records)} of "
                f"{tally.issued} issued ops completed")
        if tally.issued != len(tally.records):
            self.problems.append(
                f"{tally.issued} ops issued but {len(tally.records)} completed")
        self.verify()


# ---------------------------------------------------------------------------
# chain_offload / chain_naive: one group, one client, one op in flight
# ---------------------------------------------------------------------------
SIZES = [128, 256, 512, 1024, 2048, 4096, 8192]
DATA_BYTES = 256 * 1024          # gWRITE / gMEMCPY working range.
CAS_BASE = DATA_BYTES            # 64 gCAS words after it.
CAS_WORDS = 64
CHAIN_REGION = 1 << 20


class ChainEpisode(Episode):
    """One 3-replica group under 10:1 bursty tenant load on every replica."""

    backend = "hyperloop"
    backend_kwargs: Dict[str, object] = {"slots": 1024}
    deadline_ns = ms(100)

    def build(self) -> None:
        scenario = build_scenario(ScenarioConfig(
            backend=self.backend, replicas=3, seed=self.seed, cores=16,
            replica_tenants=160, tenant_kind="bursty"))
        self.cluster = scenario.cluster
        self.group = scenario.build_group(region_size=CHAIN_REGION,
                                          **self.backend_kwargs)

    def _ops(self, count: int) -> List[Tuple[int, int, int, int]]:
        """The seeded op mix: (kind, a, b, size)."""
        rng = self.rng
        ops = []
        for _ in range(count):
            size = rng.choice(SIZES)
            pick = rng.random()
            if pick < 0.45:
                offset = rng.randrange(0, DATA_BYTES - size, 64)
                ops.append((GWRITE, offset, rng.randrange(0, 8192), size))
            elif pick < 0.8:
                half = DATA_BYTES // 2
                ops.append((GMEMCPY, rng.randrange(0, half - size, 64),
                            half + rng.randrange(0, half - size, 64), size))
            else:
                ops.append((GCAS, rng.randrange(CAS_WORDS), 0, 8))
        return ops

    def start(self) -> None:
        spec = self.tally.spec
        ops = self._ops(spec.warm_ops + spec.measure_ops)
        blob = self.rng.randbytes(16384)
        self.cas_expected = [0] * CAS_WORDS
        self.cluster.sim.process(self._driver(ops, blob), name="bench.chain")

    def _driver(self, ops, blob):
        group, tally, sim = self.group, self.tally, self.cluster.sim
        expected = self.cas_expected
        for kind, a, b, size in ops:
            tally.issue()
            issued = sim.now
            if kind == GWRITE:
                group.write_local(a, blob[b:b + size])
                result = yield group.gwrite(a, size, durable=True)
            elif kind == GMEMCPY:
                result = yield group.gmemcpy(a, b, size, durable=True)
            else:
                old = expected[a]
                result = yield group.gcas(CAS_BASE + 8 * a, old, old + 1,
                                          durable=True)
                if result.cas_results() != [old] * group.group_size:
                    self.problems.append(
                        f"gcas word {a}: replicas held "
                        f"{result.cas_results()}, expected {old}")
                expected[a] = old + 1
            tally.complete(kind, issued, "ok")

    def state(self) -> bytes:
        return hashlib.sha256(self.group.read_local(0, DATA_BYTES)).digest()

    def verify(self) -> None:
        group = self.group
        client = group.read_local(0, DATA_BYTES)
        words = b"".join(value.to_bytes(8, "little")
                         for value in self.cas_expected)
        for hop in range(group.group_size):
            if group.read_replica(hop, 0, DATA_BYTES) != client:
                self.problems.append(f"replica {hop} data differs from client")
            if group.read_replica(hop, CAS_BASE, 8 * CAS_WORDS) != words:
                self.problems.append(f"replica {hop} gcas words are wrong")


class NaiveChainEpisode(ChainEpisode):
    """The same hosts, tenants and op mix on the CPU-driven baseline."""

    backend = "naive"
    backend_kwargs = {"slots": 256, "mode": "event"}
    deadline_ns = ms(10_000)


# ---------------------------------------------------------------------------
# shards_mixed: 8 routed groups, ~2,000 closed-loop clients, reads + writes
# ---------------------------------------------------------------------------
SHARDS = 8
CLIENTS = 2000
KEYS = 20_000
ZIPF_THETA = 0.99
RECORD = 512
READ_SLOTS = 64                  # One-sided reads in flight per group.
SHED_BACKOFF_NS = us(200)


def zipf_cdf(n: int, theta: float) -> List[float]:
    return list(itertools.accumulate(1.0 / (rank + 1) ** theta
                                     for rank in range(n)))


class ShardsEpisode(Episode):
    """Zipf keys over 8 admission-guarded shards; half writes, half reads."""

    _cdf = zipf_cdf(KEYS, ZIPF_THETA)
    deadline_ns = ms(10)

    def build(self) -> None:
        # The ring layout is part of the system under test, not of its
        # input: every seed routes the same hot keys to the same shards.
        self.deployment = build_deployment(ShardedConfig(
            shards=SHARDS, replicas=3, seed=0, record_size=RECORD,
            records_per_shard=8192, admission_depth=384, admission_window=32,
            backend_kwargs={"slots": 256}))
        self.cluster = self.deployment.cluster

    def start(self) -> None:
        spec = self.tally.spec
        rng, cdf = self.rng, self._cdf
        top = cdf[-1]
        count = spec.warm_ops + spec.measure_ops + spec.tail_ops
        self.ops = [(bisect.bisect_left(cdf, rng.random() * top),
                     rng.random() < 0.5, rng.randrange(3))
                    for _ in range(count)]
        self.next_op = 0
        self.seq: Dict[int, int] = {}
        self.acked: Dict[int, int] = {}
        self.reads_in_flight = [0] * SHARDS
        self.read_queue: List[List[Callable[[], None]]] = \
            [[] for _ in range(SHARDS)]
        for _ in range(CLIENTS):
            self._next()

    def _next(self) -> None:
        """One client's next op (closed loop: called on completion)."""
        if self.next_op == len(self.ops):
            return
        key, want_read, hop = self.ops[self.next_op]
        self.next_op += 1
        self.tally.issue()
        if want_read and key in self.acked:
            self._read(key, hop)
        else:
            self._write(key)

    def _write(self, key: int) -> None:
        sim = self.cluster.sim
        seq = self.seq.get(key, 0) + 1
        self.seq[key] = seq
        issued = sim.now

        def completed(event: Event) -> None:
            if event.ok:
                if seq > self.acked.get(key, 0):
                    self.acked[key] = seq
                self._finish(GWRITE, issued, "ok")
            elif isinstance(event.value, ShedError):
                self.tally.complete(GWRITE, issued, "shed")
                sim.call_at(sim.now + SHED_BACKOFF_NS, self._next)
            else:
                self.problems.append(f"write of key {key}: {event.value!r}")
                self._finish(GWRITE, issued, "error")

        self.deployment.write_record(key, seq, durable=True) \
            .add_callback(completed)

    def _read(self, key: int, hop: int) -> None:
        sim = self.cluster.sim
        handle = self.deployment.handle_of(key)
        shard = handle.shard_id
        issued = sim.now
        floor = self.acked[key]

        def issue() -> None:
            self.reads_in_flight[shard] += 1
            handle.group.remote_read(hop, handle.offset_of(key), RECORD) \
                .add_callback(completed)

        def completed(event: Event) -> None:
            self.reads_in_flight[shard] -= 1
            if self.read_queue[shard]:
                self.read_queue[shard].pop(0)()
            outcome = "ok"
            if not event.ok:
                self.problems.append(f"read of key {key}: {event.value!r}")
                outcome = "error"
            else:
                got_key, got_seq = struct.unpack_from("<QQ", event.value)
                if got_key != key or got_seq < floor or \
                        event.value != encode_record(key, got_seq, RECORD):
                    self.problems.append(
                        f"read of key {key} after seq {floor} returned "
                        f"key {got_key} seq {got_seq}")
                    outcome = "error"
            self._finish(READ, issued, outcome)

        if self.reads_in_flight[shard] < READ_SLOTS:
            issue()
        else:
            self.read_queue[shard].append(issue)

    def _finish(self, kind: int, issued: int, outcome: str) -> None:
        self.tally.complete(kind, issued, outcome)
        self._next()

    def state(self) -> bytes:
        return repr(sorted(self.acked.items())).encode()

    def verify(self) -> None:
        lost = self.deployment.verify_records()
        if lost:
            self.problems.append(f"{len(lost)} ACKed records lost: {lost[:5]}")


# ---------------------------------------------------------------------------
# failover_crash: a supervised group loses its middle replica mid-run
# ---------------------------------------------------------------------------
FAILOVER_HORIZON_NS = ms(25)
FAILOVER_CRASH_NS = ms(10)
FAILOVER_GAP_NS = us(10)
FAILOVER_SLOTS = 512             # Region slots the writer cycles through.


class FailoverEpisode(Episode):
    """3 replicas + a spare under heartbeats; the middle replica crashes."""

    deadline_ns = 10 * FAILOVER_HORIZON_NS

    def build(self) -> None:
        cluster = Cluster(seed=self.seed)
        client = cluster.add_host("fo-client")
        replicas = [cluster.add_host(f"fo-replica{i}") for i in range(3)]
        spare = cluster.add_host("fo-spare")

        def make_group(client_host, members):
            return backend_registry.create("hyperloop", client_host, members,
                                           slots=64, region_size=1 << 16)

        self.cluster = cluster
        self.manager = ReplicaSetManager(
            client, replicas, make_group, spares=[spare],
            heartbeat=HeartbeatConfig(period_ns=ms(1), miss_threshold=3),
            name="fo")
        self.injector = FaultInjector(cluster, FaultPlan(
            [CrashProcess(FAILOVER_CRASH_NS, host="fo-replica1")],
            name="failover_crash"), name="fo.injector")

    def start(self) -> None:
        self.oracle = AckOracle()
        self.manager.start()
        self.injector.start()
        gaps = [FAILOVER_GAP_NS + self.rng.randrange(FAILOVER_GAP_NS)
                for _ in range(FAILOVER_HORIZON_NS // FAILOVER_GAP_NS)]
        self.cluster.sim.process(self._writer(gaps), name="bench.writer")

    def _writer(self, gaps):
        sim, manager, oracle, tally = (self.cluster.sim, self.manager,
                                       self.oracle, self.tally)
        seq = 0
        for gap in gaps:
            if sim.now >= FAILOVER_HORIZON_NS:
                break
            group = manager.group
            seq += 1
            offset = (seq % FAILOVER_SLOTS) * 16
            tally.issue()
            issued = sim.now
            try:
                group.write_local(offset, pack_seq(seq))
                yield oracle.track(group.gwrite(offset, 8, durable=True),
                                   offset, seq)
            except (ReplicaFault, RuntimeError):
                tally.complete(GWRITE, issued, "aborted")
                yield manager.wait_healthy()
                continue
            tally.complete(GWRITE, issued, "ok")
            yield sim.timeout(gap)
        tally.close()

    def state(self) -> bytes:
        records = [(r.failed_host, r.suspected_ns, r.completed_ns,
                    r.aborted_ops, r.replacement)
                   for r in self.manager.reconfigs]
        return repr((records, self.oracle.ok_count,
                     self.oracle.failed_count)).encode()

    def verify(self) -> None:
        oracle, manager = self.oracle, self.manager
        lost = oracle.verify(manager.group)
        if lost:
            self.problems.append(f"{len(lost)} ACKed writes lost: {lost[:3]}")
        if oracle.pending or oracle.duplicates:
            self.problems.append(f"oracle: {oracle.pending} pending, "
                                 f"{oracle.duplicates} duplicate ACKs")
        if len(manager.reconfigs) != 1:
            self.problems.append(
                f"expected one reconfiguration, saw {len(manager.reconfigs)}")
        if oracle.ok_count != self.tally.counts["ok"]:
            self.problems.append("oracle and harness disagree on ACKed writes")

    # -- fault timeline (simulated time, for the traced metrics) ----------
    def fault_times(self) -> Tuple[Optional[int], Optional[int],
                                   Optional[int]]:
        """(injected, suspected, recovered) simulated ns."""
        fired = self.injector.log[0].fired_ns if self.injector.log[0].fired \
            else None
        suspected = self.manager.detections[0][1] \
            if self.manager.detections else None
        recovered = self.manager.reconfigs[0].completed_ns \
            if self.manager.reconfigs else None
        return fired, suspected, recovered


#: name -> (episode class, measured spec, canary spec).  Every op of an
#: episode is timed on its own, so a run repeats short episodes many times
#: where the simulated work per op does not depend on the seed, and long
#: ones where it does: about 1% of ``chain_naive`` ops wait milliseconds
#: behind tenants, and 5,000 ops are needed to average those tails.
WORKLOADS: Dict[str, Tuple[type, Spec, Spec]] = {
    "chain_offload": (ChainEpisode, Spec(100, 600), Spec(20, 100)),
    "chain_naive": (NaiveChainEpisode, Spec(50, 5000), Spec(20, 80)),
    # Every client is busy when the stream stops issuing: the last
    # CLIENTS of the measured completions drain it.
    "shards_mixed": (ShardsEpisode, Spec(500, 2500),
                     Spec(1000, 1000, CLIENTS)),
    "failover_crash": (FailoverEpisode, Spec(100, 0), Spec(100, 0)),
}


def build(name: str, seed: int, canary: bool = False) -> Episode:
    """Build (set up) one episode of workload ``name``."""
    cls, spec, canary_spec = WORKLOADS[name]
    return cls(seed, canary_spec if canary else spec)
