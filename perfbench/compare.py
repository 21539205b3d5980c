#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE NEW      # exit 1 on a regression
    python3 perfbench/compare.py --overhead RECORDS
    python3 perfbench/compare.py --self-test RECORDS

BASE, NEW and RECORDS are record files written by run.py (under
.bench_build/records/) or directories holding them; copy the directory
away between the two sets of runs.  For every workload and end-to-end
metric the medians of the two sets are compared: a metric regresses when
NEW's median is worse than BASE's by more than the metric's bound (a
share of BASE's median).

--overhead prints, per workload, how much the traced runs' end-to-end
figures (the traced.* per-layer metrics) differ from the untraced runs'.

--self-test proves the comparison is live on real results: the untraced
records of each workload are split into two halves, which must compare
clean, and a copy of the first half scaled to a 30% slowdown (times
x1.3, rates /1.3) must be flagged on every workload.  30%, not 20%: the
host-time metrics have bounds of 0.25 (README.md, "Calibrated host
times"), so a 20% slowdown is within them by definition.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIME_UNITS = {"s", "ms", "us", "ns"}
RATE_UNITS = {"1/s"}
SLOWDOWN = 1.3


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_records(paths):
    records = []
    for path in map(Path, paths):
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for file in files:
            record = json.loads(file.read_text())
            if "workload" in record and "metrics" in record:
                records.append(record)
    return records


def by_workload(records, trace):
    groups = {}
    for record in records:
        if record["trace"] == trace:
            groups.setdefault(record["workload"], []).append(record)
    return groups


def medians(records, names):
    return {name: statistics.median(r["metrics"][name]["value"] for r in records)
            for name in names}


def worsening(metric, base, new):
    """Share of `base` by which `new` is worse (negative when better)."""
    if base == 0:
        return 0.0
    if metric["better"] == "lower":
        return (new - base) / base
    return (base - new) / base


def compare(spec, base, new, out=sys.stdout):
    """Prints one row per (workload, metric); returns the regressions."""
    regressions = []
    base_groups, new_groups = by_workload(base, 0), by_workload(new, 0)
    names = [m["name"] for m in spec["end_to_end"]]
    for workload in sorted(set(base_groups) & set(new_groups)):
        b = medians(base_groups[workload], names)
        n = medians(new_groups[workload], names)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            worse = worsening(metric, b[name], n[name])
            flagged = worse > metric["bound"]
            if flagged:
                regressions.append((workload, name, worse))
            print(f"{workload:14s} {name:18s} base {b[name]:<14.6g} new {n[name]:<14.6g} "
                  f"worse {worse:+7.1%} bound {metric['bound']:.0%}"
                  f"{'  REGRESSION' if flagged else ''}", file=out)
    missing = sorted(set(base_groups) ^ set(new_groups))
    if missing:
        print(f"workloads in only one set: {missing}", file=out)
    return regressions


def overhead(spec, records):
    untraced, traced = by_workload(records, 0), by_workload(records, 1)
    for workload in sorted(set(untraced) & set(traced)):
        for name in ("throughput_per_s", "p50_ms"):
            plain = statistics.median(r["metrics"][name]["value"] for r in untraced[workload])
            with_spans = statistics.median(
                r["metrics"]["traced." + name]["value"] for r in traced[workload])
            print(f"{workload:14s} {name:18s} untraced {plain:<12.6g} traced "
                  f"{with_spans:<12.6g} difference {(with_spans - plain) / plain:+.1%}")


def slowed(records, spec):
    """A copy of `records` as if every timed operation took 30% longer."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    copy = json.loads(json.dumps(records))
    for record in copy:
        for name, metric in record["metrics"].items():
            if units.get(name) in TIME_UNITS:
                metric["value"] *= SLOWDOWN
            elif units.get(name) in RATE_UNITS:
                metric["value"] /= SLOWDOWN
    return copy


def self_test(spec, records):
    groups = by_workload(records, 0)
    ok = bool(groups)
    for workload, runs in sorted(groups.items()):
        if len(runs) < 2:
            print(f"{workload}: need at least two untraced records, have {len(runs)}")
            ok = False
            continue
        runs = sorted(runs, key=lambda r: r["seed"])
        first, second = runs[: len(runs) // 2], runs[len(runs) // 2:]
        clean = compare(spec, first, second)
        flagged = compare(spec, first, slowed(first, spec))
        print(f"{workload}: unmodified halves {'pass' if not clean else 'FLAGGED'}; "
              f"simulated {SLOWDOWN - 1:.0%} slowdown {'flagged' if flagged else 'NOT FLAGGED'} "
              f"({', '.join(name for _, name, _ in flagged)})\n")
        ok = ok and not clean and bool(flagged)
    print("self-test", "passed" if ok else "FAILED")
    return ok


def main(argv):
    spec = load_spec()
    if len(argv) >= 2 and argv[0] == "--self-test":
        return 0 if self_test(spec, load_records(argv[1:])) else 1
    if len(argv) >= 2 and argv[0] == "--overhead":
        overhead(spec, load_records(argv[1:]))
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    regressions = compare(spec, load_records([argv[0]]), load_records([argv[1]]))
    for workload, name, worse in regressions:
        print(f"regression: {workload} {name} worse by {worse:.1%}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
