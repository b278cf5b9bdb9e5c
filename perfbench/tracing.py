"""Host-time tracing of the program from outside it.

:class:`Tracer` wraps named public functions of the ``repro`` layers.  A
function is patched everywhere it is looked up: in its own module, in
every module that imported the name (``repro.rdma.driver.decode_wqe`` as
well as ``repro.rdma.wqe.decode_wqe``) and in the benchmark's own
modules.  Each wrapper keeps a span stack, so it accumulates call count,
total host time and self host time (total minus the time of wrapped
calls made inside it) per function.  Full spans are kept only for a
bounded sample.  The wrappers only observe, so a traced episode computes
exactly what an untraced one does; the benchmark checks this by digest.

:func:`layer_shares` turns a ``cProfile`` run into self-time shares per
``repro`` subpackage.
"""

from __future__ import annotations

import importlib
import pstats
import sys
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["TARGETS", "Tracer", "LAYERS", "layer_of", "layer_shares"]

BytesOf = Optional[Callable[[tuple], int]]

#: (span name, module, attribute path, bytes moved by one call).
TARGETS: List[Tuple[str, str, str, BytesOf]] = [
    ("rdma.wqe.encode_wqe", "repro.rdma.wqe", "encode_wqe", None),
    ("rdma.wqe.decode_wqe", "repro.rdma.wqe", "decode_wqe", None),
    ("rdma.driver.post", "repro.rdma.driver", "WorkQueue.post", None),
    ("rdma.driver.peek_head", "repro.rdma.driver", "WorkQueue.peek_head",
     None),
    ("rdma.driver.advance_head", "repro.rdma.driver",
     "WorkQueue.advance_head", None),
    ("rdma.verbs.post_send", "repro.rdma.verbs", "QueuePair.post_send", None),
    ("rdma.verbs.post_recv", "repro.rdma.verbs", "QueuePair.post_recv", None),
    ("rdma.nic.doorbell", "repro.rdma.nic", "RNIC.doorbell", None),
    ("rdma.nic.kick_all", "repro.rdma.nic", "RNIC.kick_all", None),
    ("rdma.fabric.transmit", "repro.rdma.fabric", "Port.transmit", None),
    ("nvm.read", "repro.nvm.memory", "MemoryDevice.read",
     lambda args: args[2]),
    ("nvm.write", "repro.nvm.memory", "MemoryDevice.write",
     lambda args: len(args[2])),
    ("nvm.persist", "repro.nvm.memory", "NVM.persist", lambda args: args[2]),
    ("nvm.cache_flush", "repro.nvm.cache", "NICWriteCache.flush", None),
    ("sim.run_until", "repro.sim.engine", "Simulator.run_until", None),
    ("sim.cpu.thread_run", "repro.sim.cpu", "Thread.run", None),
    ("core.post_slot", "repro.core.chain", "ReplicaEngine.post_slot", None),
    ("backend.create", "repro.backend.registry", "create", None),
    ("backend.gwrite", "repro.backend.base", "GroupBase.gwrite", None),
    ("backend.gmemcpy", "repro.backend.base", "GroupBase.gmemcpy", None),
    ("backend.gcas", "repro.backend.base", "GroupBase.gcas", None),
    ("backend.remote_read", "repro.backend.base", "GroupBase.remote_read",
     None),
    ("cluster.build_scenario", "repro.cluster.scenario", "build_scenario",
     None),
    ("cluster.build_deployment", "repro.cluster.deployment",
     "build_deployment", None),
    ("cluster.submit_write", "repro.cluster.deployment",
     "ShardedDeployment.submit_write", None),
    ("cluster.write_record", "repro.cluster.deployment",
     "ShardedDeployment.write_record", None),
    ("cluster.ring_lookup", "repro.cluster.router", "HashRing.lookup", None),
    ("traffic.offer", "repro.traffic.admission", "AdmissionQueue.offer",
     None),
    ("faults.track", "repro.faults.oracle", "AckOracle.track", None),
    ("faults.wait_healthy", "repro.faults.reconfig",
     "ReplicaSetManager.wait_healthy", None),
]

#: The public op calls whose self time is ``backend.call_host_us``.
OP_CALLS = ("backend.gwrite", "backend.gmemcpy", "backend.gcas",
            "backend.remote_read", "cluster.submit_write",
            "cluster.write_record")

#: The benchmark's own modules, which look program names up too.
HARNESS_MODULES = ("episodes",)

#: Spans kept in full per traced episode.
SAMPLE_SPANS = 4000

#: One span of the bounded sample:
#: (id, parent id, name, start ns, duration ns, self ns, op id).
Span = Tuple[int, int, str, int, int, int, int]


def _resolve(module: str, path: str) -> object:
    """The function at dotted ``path`` inside ``module``."""
    owner: object = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return vars(owner)[attr]


class Tracer:
    """Span-stack wrappers around :data:`TARGETS`; a context manager.

    ``stats[name]`` is ``[calls, total_ns, self_ns, bytes]``.
    """

    def __init__(self, op_id: Callable[[], int] = lambda: 0) -> None:
        #: Called at the end of each sampled span: the op it is tagged with.
        self.op_id = op_id
        self.stats: Dict[str, List[int]] = {}
        self.sample: List[Span] = []
        self.sampling = False
        self._stack: List[List[int]] = []   # [child_ns, span id] per frame
        self._next_span = 1
        self._patches: List[Tuple[object, str, object]] = []

    # -- install / remove -----------------------------------------------
    def _owners(self) -> List[object]:
        """Every module and class the program (and harness) looks names up in."""
        owners: List[object] = []
        for name, module in sorted(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")
                                      or name in HARNESS_MODULES):
                continue
            owners.append(module)
            owners.extend(value for value in vars(module).values()
                          if isinstance(value, type)
                          and value.__module__ == name)
        return owners

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        owners = self._owners()
        for name, module, path, bytes_of in TARGETS:
            original = _resolve(module, path)
            wrapper = self._wrap(name, original, bytes_of)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, attr, original))
                        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- the wrapper --------------------------------------------------------
    def _wrap(self, name: str, fn: Callable, bytes_of: BytesOf) -> Callable:
        stats = self.stats.setdefault(name, [0, 0, 0, 0])
        stack = self._stack
        clock = perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            span = 0
            if tracer.sampling:
                span = tracer._next_span
                tracer._next_span += 1
            stack.append([0, span])
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()[0]
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child
                if bytes_of is not None:
                    stats[3] += bytes_of(args)
                if stack:
                    stack[-1][0] += elapsed
                if span and tracer.sampling:
                    parent = stack[-1][1] if stack else 0
                    tracer._keep((span, parent, name, start, elapsed,
                                  elapsed - child, tracer.op_id()))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _keep(self, span: Span) -> None:
        self.sample.append(span)
        if len(self.sample) >= SAMPLE_SPANS:
            self.sampling = False

    # -- reading --------------------------------------------------------------
    def snapshot(self) -> Dict[str, List[int]]:
        return {name: list(values) for name, values in self.stats.items()}


# ---------------------------------------------------------------------------
# cProfile self time per layer
# ---------------------------------------------------------------------------
#: The layers ``<layer>.self_pct`` is reported for, in report order.
LAYERS = ["sim", "sim.cpu", "rdma.nic", "rdma.wqe", "rdma.driver",
          "rdma.verbs", "rdma.fabric", "nvm", "core", "baseline", "backend",
          "cluster", "traffic", "faults", "harness", "other"]

_RDMA_MODULES = {"nic", "wqe", "driver", "verbs", "fabric"}


def layer_of(filename: str) -> Optional[str]:
    """The layer of a source file, or None for code outside the repository
    (the standard library and builtins are charged to their callers)."""
    path = filename.replace("\\", "/")
    if "/perfbench/" in path:
        return "harness"
    marker = "/repro/"
    if marker not in path:
        return None
    parts = path.rsplit(marker, 1)[1].split("/")
    package = parts[0] if len(parts) > 1 else ""
    module = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    if package == "sim":
        return "sim.cpu" if module == "cpu" else "sim"
    if package == "rdma":
        return f"rdma.{module}" if module in _RDMA_MODULES else "rdma.verbs"
    if package in ("nvm", "core", "baseline", "backend", "cluster",
                   "traffic", "faults"):
        return package
    return "other"


def layer_shares(stats: pstats.Stats) -> Dict[str, float]:
    """Percent of profiled self time per layer.

    Self time of a function outside the repository (a builtin such as
    ``bytes.join``, or standard-library code) is split over its callers
    in proportion to the time each caller spent in it, recursively.
    """
    table = stats.stats  # type: ignore[attr-defined]
    totals = dict.fromkeys(LAYERS, 0.0)

    def charge(func, seconds: float, depth: int) -> None:
        layer = layer_of(func[0])
        if layer is not None:
            totals[layer] += seconds
            return
        callers = table[func][4] if func in table else {}
        weight = sum(entry[2] for entry in callers.values())
        if depth > 8 or not callers or weight <= 0:
            totals["harness"] += seconds
            return
        for caller, entry in callers.items():
            charge(caller, seconds * entry[2] / weight, depth + 1)

    for func, (_cc, _nc, tottime, _ct, _callers) in table.items():
        if tottime > 0:
            charge(func, tottime, 0)
    grand = sum(totals.values()) or 1.0
    return {layer: 100.0 * seconds / grand
            for layer, seconds in totals.items()}
