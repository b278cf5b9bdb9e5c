"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import episodes  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Episodes small enough for a test; the canary specs are left alone, so
#: the stored digests are still checked.
TINY = {
    "chain_offload": episodes.Spec(10, 40),
    "chain_naive": episodes.Spec(10, 30),
    "shards_mixed": episodes.Spec(100, 400),
    "failover_crash": episodes.Spec(100, 0),
}


def _result(capsys, argv):
    code = run.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in CONFIG["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_and_passes(workload, trace, capsys,
                                                monkeypatch):
    cls, _spec, canary = episodes.WORKLOADS[workload]
    monkeypatch.setitem(episodes.WORKLOADS, workload,
                        (cls, TINY[workload], canary))
    code, result = _result(capsys, ["--workload", workload, "--seed", "5",
                                    "--seconds", "0.01",
                                    "--trace", str(trace)])
    names = [m["name"] for m in
             CONFIG["per_layer" if trace else "end_to_end"]]
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(names)
    units = {m["name"]: m["unit"] for m in
             CONFIG["per_layer" if trace else "end_to_end"]}
    for name, entry in result["metrics"].items():
        assert entry["unit"] == units[name]
        assert isinstance(entry["value"], (int, float))


def _attributes(owners):
    return {(id(owner), attr): value for owner in owners
            for attr, value in vars(owner).items()}


def test_wrappers_patch_every_lookup_site_and_restore_the_originals():
    import repro.rdma.driver
    import repro.rdma.wqe

    original = repro.rdma.wqe.decode_wqe
    tracer = tracing.Tracer()
    owners = tracer._owners()
    before = _attributes(owners)
    with tracer:
        assert repro.rdma.wqe.decode_wqe is not original
        assert repro.rdma.driver.decode_wqe is repro.rdma.wqe.decode_wqe
        assert episodes.build_scenario.__wrapped__ is \
            repro.cluster.scenario.build_scenario.__wrapped__
    after = _attributes(owners)
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []
    assert repro.rdma.driver.decode_wqe is original


def test_traced_episode_counts_every_target_and_keeps_the_digest():
    plain = episodes.build("chain_offload", 3, canary=True)
    plain.run()
    tracer = tracing.Tracer()
    with tracer:
        traced = episodes.build("chain_offload", 3, canary=True)
        traced.run()
    digest = plain.tally.digest(plain.cluster.sim.now, plain.state())
    assert traced.tally.digest(traced.cluster.sim.now,
                               traced.state()) == digest
    for name in ("rdma.wqe.decode_wqe", "rdma.driver.advance_head",
                 "nvm.read", "backend.gwrite", "core.post_slot"):
        assert tracer.stats[name][0] > 0, name


def test_layer_of_maps_repository_files():
    assert tracing.layer_of("/x/src/repro/sim/cpu.py") == "sim.cpu"
    assert tracing.layer_of("/x/src/repro/sim/engine.py") == "sim"
    assert tracing.layer_of("/x/src/repro/rdma/wqe.py") == "rdma.wqe"
    assert tracing.layer_of("/x/src/repro/host.py") == "other"
    assert tracing.layer_of("/x/perfbench/episodes.py") == "harness"
    assert tracing.layer_of("~") is None


def test_percentile_needs_ten_samples_beyond():
    assert run.percentile(list(range(100)), 50) == (49, 50)
    assert run.percentile(list(range(100)), 99) == (None, 1)
    assert run.percentile([7] * 50, 50) == (None, 0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain_offload",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload, spec", [
    ("chain_offload", episodes.Spec(5, 20)),
    ("failover_crash", episodes.Spec(100, 0)),
])
def test_every_measured_op_is_timed(workload, spec):
    episode = episodes.WORKLOADS[workload][0](2, spec)
    episode.run()
    tally = episode.tally
    assert tally.measured_ops > 0
    assert len(tally.op_seconds()) == tally.measured_ops
