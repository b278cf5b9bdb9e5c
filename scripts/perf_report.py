#!/usr/bin/env python3
"""Measure kernel and experiment performance; track it in BENCH_kernel.json.

The reproduction's wall-clock budget is dominated by the pure-Python
discrete-event kernel, so this script records two things:

* **events/sec** on the kernel microbenchmarks in
  ``benchmarks/bench_kernel.py`` (the number that bounds every figure);
* **wall-clock** for a fixed fig8-shaped workload (group size 3, gWRITE
  latency sweep) — the end-to-end cost a contributor actually feels;
* **sweep result-transport throughput** (MB/s of latency samples moved
  from pool workers back to the parent) for the shared-memory and the
  pickled transport — ``--transport {pickle,shm,both}`` selects which;
* **admission pass-through overhead** (the traffic layer's bounded
  queue wrapped around an uncontended closed-loop gWRITE driver,
  relative to direct issue) — recorded in a ``traffic`` section,
  outside the events/sec gate.

Usage::

    PYTHONPATH=src python scripts/perf_report.py                 # measure, print
    PYTHONPATH=src python scripts/perf_report.py --quick         # CI-sized
    PYTHONPATH=src python scripts/perf_report.py --out BENCH_kernel.json \
        --label "PR N description" --append                      # record
    PYTHONPATH=src python scripts/perf_report.py --quick \
        --baseline BENCH_kernel.json                             # regression gate

With ``--baseline`` the run exits 1 if any kernel workload's events/sec
regresses more than ``--threshold`` (default 30%) against the *last*
entry recorded in the baseline file — this is the CI perf-smoke gate.
A baseline file that exists but doesn't match the schema (hand-edited,
truncated, pre-schema) exits 2 with a description of what's wrong
instead of tracebacking; a malformed ``--append`` target is reported
and replaced with a fresh entry list.  Events/sec is size-independent
enough that a ``--quick`` run can be compared against a full-sized
recorded baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

SCHEMA = 1
DEFAULT_THRESHOLD = 0.30
EXIT_MALFORMED = 2


class SchemaError(ValueError):
    """A perf-tracking JSON file that exists but doesn't match the schema."""


def load_entries(path: Path) -> list:
    """Parse a perf-tracking JSON file and return its entry list.

    Raises :class:`SchemaError` with a human-readable reason for every
    malformation shape seen in the wild (hand-edited files, truncated
    writes, pre-schema versions) instead of letting ``KeyError`` /
    ``AttributeError`` escape as a traceback.
    """
    try:
        text = path.read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: top level must be an object, "
                          f"got {type(data).__name__}")
    entries = data.get("entries")
    if entries is None:
        raise SchemaError(f"{path}: missing 'entries' list "
                          "(older schema or hand-edited?)")
    if not isinstance(entries, list):
        raise SchemaError(f"{path}: 'entries' must be a list, "
                          f"got {type(entries).__name__}")
    for i, item in enumerate(entries):
        if not isinstance(item, dict):
            raise SchemaError(f"{path}: entries[{i}] must be an object, "
                              f"got {type(item).__name__}")
    return entries


def validate_bench_entry(entry: dict, where: str) -> None:
    """Check one recorded entry has what the regression gate reads."""
    if not isinstance(entry.get("label"), str):
        raise SchemaError(f"{where}: missing or non-string 'label'")
    kernel = entry.get("kernel")
    if not isinstance(kernel, dict):
        raise SchemaError(f"{where}: missing or non-object 'kernel' section")
    for name, record in kernel.items():
        if not isinstance(record, dict):
            raise SchemaError(f"{where}: kernel[{name!r}] must be an object")
        rate = record.get("events_per_sec")
        if not isinstance(rate, (int, float)) or rate <= 0:
            raise SchemaError(f"{where}: kernel[{name!r}] needs a positive "
                              f"numeric 'events_per_sec', got {rate!r}")


def measure(quick: bool, transport: str = "both") -> dict:
    import bench_kernel
    from repro.experiments import fig8

    # Quick stays large enough that events/sec has converged to within
    # noise of the full-size rate (rates read low at n=20k).
    n = 50_000 if quick else 100_000
    kernel = {}
    for name in bench_kernel.WORKLOADS:
        kernel[name] = bench_kernel.run_workload(name, n, repeats=3)
        r = kernel[name]
        print(f"kernel/{name:<16} {r['events_per_sec'] / 1e6:6.2f} M events/s"
              f"  ({r['elapsed_s'] * 1e3:,.1f} ms)")

    # Fixed fig8-shaped workload: both arms, small sizes, fixed op count —
    # deliberately NOT scaled() so the wall-clock trend is comparable
    # across machines with different REPRO_* environments.
    sizes = [128] if quick else [128, 1024]
    count = 120 if quick else 400
    started = time.perf_counter()
    rows = fig8.run(op="gwrite", sizes=sizes, count=count, jobs=1)
    wall = time.perf_counter() - started
    figures = {
        "fig8_shaped": {
            "sizes": sizes,
            "count": count,
            "rows": len(rows),
            "wall_s": wall,
        },
    }
    print(f"figure/fig8_shaped      {wall:6.2f} s wall "
          f"({len(rows)} rows, {count} ops x {len(sizes)} sizes x 2 arms)")

    # Sweep result transport: how fast published latency distributions
    # travel from pool workers back to the parent.  Not part of the
    # kernel events/sec gate — recorded so the shm-vs-pickle trajectory
    # is visible in BENCH_kernel.json.
    samples = 50_000 if quick else 200_000
    sweep = {}
    modes = {"pickle": False, "shm": True}
    wanted = ("pickle", "shm") if transport == "both" else (transport,)
    for mode in wanted:
        sweep[mode] = bench_kernel.sweep_overhead(
            samples=samples, points=8, jobs=2, shm=modes[mode])
        r = sweep[mode]
        print(f"sweep/{r['transport']:<17} {r['payload_mb']:6.1f} MB  "
              f"{r['elapsed_s'] * 1e3:8.1f} ms  {r['mb_per_sec']:7.1f} MB/s")
    if len(sweep) == 2:
        ratio = sweep["pickle"]["elapsed_s"] / sweep["shm"]["elapsed_s"]
        print(f"sweep transport speedup shm vs pickle: {ratio:.2f}x")

    # Admission pass-through cost at zero contention: what the traffic
    # layer's bounded queue adds to an uncontended replicated write.
    # Recorded (not gated) — the premise the overload experiments rest
    # on is that this stays within a few percent.
    traffic = bench_kernel.traffic_overhead(
        ops=1_500 if quick else 4_000, repeats=3)
    print(f"traffic/admission       direct {traffic['direct_kops']:6.1f} "
          f"kops/s  admission {traffic['admission_kops']:6.1f} kops/s  "
          f"overhead {traffic['overhead'] * 100:+.1f}%")
    return {"kernel": kernel, "figures": figures, "sweep": sweep,
            "traffic": traffic}


def make_entry(label: str, quick: bool, results: dict) -> dict:
    return {
        "label": label,
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        **results,
    }


def check_regression(entry: dict, baseline_path: Path,
                     threshold: float) -> int:
    """Gate ``entry`` against the last recorded baseline entry.

    Returns 0 (ok), 1 (regression), or ``EXIT_MALFORMED`` (baseline file
    exists but can't be used — CI should fix the baseline, not trust a
    silently skipped gate).
    """
    try:
        entries = load_entries(baseline_path)
        if not entries:
            print(f"baseline {baseline_path} has no entries; skipping gate")
            return 0
        base = entries[-1]
        validate_bench_entry(base, f"{baseline_path}: entries[-1]")
    except SchemaError as exc:
        print(f"malformed baseline: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    print(f"\nregression gate vs {baseline_path} "
          f"(entry: {base['label']!r}, threshold {threshold:.0%}):")
    failed = False
    for name, base_r in base.get("kernel", {}).items():
        cur_r = entry["kernel"].get(name)
        if cur_r is None:
            continue
        ratio = cur_r["events_per_sec"] / base_r["events_per_sec"]
        status = "ok" if ratio >= 1.0 - threshold else "REGRESSION"
        if status != "ok":
            failed = True
        print(f"  {name:<16} {base_r['events_per_sec'] / 1e6:6.2f} -> "
              f"{cur_r['events_per_sec'] / 1e6:6.2f} M events/s "
              f"({ratio:5.2f}x)  {status}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (smaller n, one message size)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write results JSON here")
    parser.add_argument("--label", default="unlabelled run",
                        help="entry label recorded in the JSON")
    parser.add_argument("--append", action="store_true",
                        help="append to --out instead of overwriting")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="compare against this JSON; exit 1 on "
                             "regression, 2 on a malformed baseline")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="allowed fractional events/sec regression "
                             "(default 0.30)")
    parser.add_argument("--transport", choices=("pickle", "shm", "both"),
                        default="both",
                        help="which sweep result transport(s) to measure "
                             "(default both)")
    args = parser.parse_args(argv)

    quick = args.quick or os.environ.get("REPRO_QUICK", "") == "1"
    entry = make_entry(args.label, quick,
                       measure(quick, transport=args.transport))

    if args.out:
        if args.append and args.out.exists():
            try:
                data = {"schema": SCHEMA, "entries": load_entries(args.out)}
            except SchemaError as exc:
                print(f"[perf_report] {exc}; starting a fresh entry list",
                      file=sys.stderr)
                data = {"schema": SCHEMA, "entries": []}
        else:
            data = {"schema": SCHEMA, "entries": []}
        data["entries"].append(entry)
        args.out.write_text(json.dumps(data, indent=2) + "\n")
        print(f"\nwrote {args.out} ({len(data['entries'])} entries)")

    if args.baseline:
        return check_regression(entry, args.baseline, args.threshold)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
