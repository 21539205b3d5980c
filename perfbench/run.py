#!/usr/bin/env python3
"""Build the perfbench program and run one workload.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source tree.  The first run configures and builds
perfbench/ (Release, only the library targets it links) under
.bench_build/; later runs reuse that build.  The program's readable lines
are passed through, and the last line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list, and a per-layer metric of a layer
the workload does not exercise reads 0.  Each run also leaves a record
(build and environment, arguments, metrics) under .bench_build/records/
for compare.py, and a traced run leaves its spans under
.bench_build/spans/.

Exit status: 0 when every output check passed; 1 when one failed (the
result is still printed, with "correct": false); 2 on a usage error or a
build the program refuses to measure; 3 when the build fails.  No result
is printed in the last two cases.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench" / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail(2, f"cannot read BENCHMARK.json: {err}")


def run_quiet(args, log, timeout):
    """Runs a build step, appending its output to `log`; kills its whole
    process group on timeout and always waits for it."""
    tmp = BUILD / "tmp"  # the compiler's scratch files stay in the tree too
    tmp.mkdir(exist_ok=True)
    with open(log, "ab") as out:
        proc = subprocess.Popen(args, stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True, env=dict(os.environ, TMPDIR=str(tmp)))
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return -1


def build():
    """Configures (once) and builds the program; exits 3 on failure."""
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    tree = BUILD / "perfbench"
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (tree / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(tree),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(tree), "--target", "perfbench", "-j", jobs])
    for step in steps:
        if run_quiet(step, log, BUILD_TIMEOUT_S) != 0:
            tail = log.read_text(errors="replace").splitlines()[-20:]
            print("\n".join(tail), file=sys.stderr)
            fail(3, f"build step failed: {' '.join(step)} (log: {log})")


def source_identity():
    """The commit when the tree is a git checkout; otherwise a digest of
    the sources the program is built from."""
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0:
                return "git " + head.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources sha256 " + digest.hexdigest()[:16]


def run_program(args, spans):
    command = [str(BINARY), f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if spans:
        command.append(f"--spans={spans}")
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(1, f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, out.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(2, f"unknown workload {args.workload!r}; choose one of {names}")
    if args.seconds <= 0:
        fail(2, "--seconds must be positive")

    build()
    spans = None
    if args.trace:
        (BUILD / "spans").mkdir(exist_ok=True)
        spans = BUILD / "spans" / f"{args.workload}-seed{args.seed}.json"
    code, lines = run_program(args, spans)
    if code == 2:
        fail(2, "perfbench refused to run (see above)")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(1, f"perfbench ended (exit code {code}) without a JSON result line")
    for line in lines[:-1]:
        print(line)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    produced = result["metrics"]
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name in produced:
            got = produced[name]
            if got["unit"] != unit or not isinstance(got["value"], (int, float)):
                fail(1, f"metric {name}: perfbench reported {got}, BENCHMARK.json says {unit}")
            metrics[name] = {"value": got["value"], "unit": unit}
        elif args.trace:
            metrics[name] = {"value": 0, "unit": unit}  # layer not exercised here
        else:
            fail(1, f"end-to-end metric {name} missing from the output of perfbench")
    unknown = sorted(set(produced) - {e["name"] for e in wanted})
    if unknown:
        fail(1, f"perfbench reported metrics BENCHMARK.json does not list: {unknown}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "source": source_identity(), "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "build": next((l for l in lines if l.startswith("build: ")), "")[len("build: "):],
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    }
    print(f"record: source {record['source']}, build {record['build']}")
    (BUILD / "records").mkdir(exist_ok=True)
    (BUILD / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
