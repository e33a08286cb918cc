#!/usr/bin/env python3
"""Builds the xd benchmark program and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload build-sbm --seed 1 --seconds 20 --trace 0

The program is built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) on first use.  The last line of standard output is
the result: {"correct", "attempted", "failed", "metrics"}, with exactly the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1).  The line before it carries the run's metadata.  See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """git sha when the checkout is a repository, else a hash of the tree."""
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if sha.returncode == 0:
            return "git:" + sha.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        paths = [ROOT / top] if (ROOT / top).is_file() else sorted(
            p for p in (ROOT / top).rglob("*") if p.is_file())
        for p in paths:
            digest.update(str(p.relative_to(ROOT)).encode())
            digest.update(p.read_bytes())
    return "tree:" + digest.hexdigest()[:16]


def build(build_dir):
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=log, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "xd_perfbench", "-j", "4"], stdout=log, check=True)
    return build_dir / "xd_perfbench"


def select(metrics, declared, trace):
    """Exactly the declared metrics, in declared order.  Ledger labels the
    run did not charge read 0; labels BENCHMARK.json does not list are
    summed into congest.rounds.other, so no round goes unreported."""
    out = {}
    if trace:
        names = {m["name"] for m in declared}
        other = sum(v["value"] for k, v in metrics.items()
                    if k.startswith("congest.rounds.") and k not in names)
        metrics = dict(metrics)
        metrics["congest.rounds.other"] = {"value": other, "unit": "rounds"}
        for name in names:
            if name.startswith("congest.rounds.") and name not in metrics:
                metrics[name] = {"value": 0, "unit": "rounds"}
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            fail(f"the program did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} reported in {got['unit']}, declared {m['unit']}")
        out[m["name"]] = got
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("run from the repository root: BENCHMARK.json not found")
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("the library sources (CMakeLists.txt, src/) are missing")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = target if target.is_absolute() else ROOT / target
    out_dir = target / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        binary = build(target / "perfbench")
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")

    try:
        run = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace), "--out-dir", str(out_dir), "--source-id",
             source_id()],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: the run exceeded its time limit", file=sys.stderr)
        sys.exit(1)
    if run.returncode != 0:
        print(f"run.py: the program exited with {run.returncode}",
              file=sys.stderr)
        sys.exit(1)
    lines = [line for line in run.stdout.splitlines() if line.strip()]
    meta, result = json.loads(lines[-2]), json.loads(lines[-1])
    declared = spec["per_layer" if args.trace else "end_to_end"]
    result["metrics"] = select(result["metrics"], declared, args.trace)
    print(json.dumps(meta))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
