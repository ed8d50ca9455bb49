"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {sm_quantum,sm_generic,routes} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The library is imported from the
checkout's `src/`; nothing needs installing.  Each workload runs in a child
process of its own (workload.py), so its peak RSS is its own.  Set-up is
measured SETUP_SAMPLES times, each in a fresh process that starts the
interpreter, imports the library and draws the inputs; `setup_s` is the
median.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics BENCHMARK.json declares for --trace 0 and its
per-layer metrics for --trace 1.  A record with the environment stamp, every call failure and, when
traced, every span is written to .bench_out/.  Without the library sources
the script exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("sm_quantum", "sm_generic", "routes")

SETUP_SAMPLES = 5
# one run must end within 180 s; leave room for start-up and reporting
DEADLINE_S = 170.0
# the engines are single-threaded numpy; keep BLAS and OpenMP pools from
# competing for the two cores the figures were taken on
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

class BenchError(Exception):
    pass


def child(args, setup_only: bool, deadline: float) -> tuple[float, dict]:
    """Run workload.py once; returns (set-up seconds, its JSON payload)."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    for key in THREAD_ENV:
        env.setdefault(key, "1")
    # CLOCK_MONOTONIC is shared by all processes on Linux, so the child's
    # ready time and this start time are on one clock
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{args.workload} did not finish before the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:])} exited with status {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("workload printed no result")
    payload = json.loads(lines[-1])
    return payload["ready"] - start, payload


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def stamp() -> dict:
    """Where the figures come from: commit (if any), source digest, machine."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_env_default": "1 unless set: " + ", ".join(THREAD_ENV),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tomolyap benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        setups = [child(args, True, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
        setup, payload = child(args, False, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    attempted, failed = payload["attempted"], payload["failed"]
    if args.trace:
        values = payload["per_layer"]
        units = declared["per_layer"]
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(payload["walls"]),
                  "peak_rss_mb": payload["peak_rss_mb"],
                  "pass_frac": (attempted - failed) / attempted}
        units = declared["end_to_end"]
    missing = [m["name"] for m in units if m["name"] not in values]
    if missing:
        print(f"benchmark failed: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in units}
    correct = not payload["unexpected_failures"]

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "stamp": {**stamp(), **payload.pop("environment")},
              "setup_samples_s": setups, **payload, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  inputs {json.dumps(payload['inputs'])}")
    print(f"repetitions {len(payload['walls'])}  (+{len(payload['traced_walls'])} with tracemalloc)"
          f"  record {path.relative_to(ROOT)}")
    for msg in payload["known_defect_failures"]:
        print(f"known defect: {msg}")
    for msg in payload["unexpected_failures"]:
        print(f"FAILED: {msg}")
    print(f"fail_frac = {failed / attempted:.6g} ({failed} of {attempted} calls)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
