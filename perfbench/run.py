#!/usr/bin/env python3
"""Build and run the host-time benchmark of the simulator.

    python3 perfbench/run.py --workload fig09-matrix --seed 1 \
        --seconds 20 --trace 0

Builds perfbench/hostbench.cc together with the simulator sources
under src/ (Release, into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench), runs one workload and prints one JSON object
as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
Earlier lines carry the host fingerprint and any failed check. The
exit code is 0 only when every output check passed, including the
determinism ledger: the exact counts of a (workload, size, seed,
sources) tuple must match every earlier run of it in this checkout.
The full record of each run (fingerprint, per-pass rates, spans)
lands in the build directory under runs/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("fig09-matrix", "ycsb-serve", "crash-explore")
# A run must end within 180 s; the binary gets this long.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def host_threads():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(out):
    """Configure once, then build incrementally; returns the binary."""
    if not (ROOT / "src").is_dir():
        raise RuntimeError(f"no simulator sources at {ROOT / 'src'}")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise RuntimeError("cmake not found")
    if not (out / "CMakeCache.txt").exists():
        cmd = [cmake, "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run([cmake, "--build", str(out), "-j", str(host_threads())],
                   check=True, stdout=sys.stderr)
    return out / "perfbench"


def source_digest():
    """sha256 over the simulator and benchmark sources: the code a
    result belongs to, also in a checkout that is not a git repo."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for p in sorted(top.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def check_ledger(out, key, exact, digest):
    """Compare this run's exact outputs with every earlier run of the
    same key; record them when this is the first. Returns a problem
    line or None."""
    ledger = out / "ledger"
    ledger.mkdir(parents=True, exist_ok=True)
    path = ledger / f"{key}.json"
    sha = hashlib.sha256(digest.encode()).hexdigest()
    if path.exists():
        old = json.loads(path.read_text())
        if old["digest_sha256"] == sha:
            return None
        diff = sorted(k for k in set(old["exact"]) | set(exact)
                      if old["exact"].get(k) != exact.get(k))
        return ("determinism: exact outputs differ from an earlier run "
                f"of {key} ({', '.join(diff[:8]) or 'digest only'})")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"digest_sha256": sha, "exact": exact}))
    tmp.replace(path)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the smoke test")
    ap.add_argument("--inject-failure", action="store_true",
                    help="plant a fault one output check must catch")
    args = ap.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2

    size = "smoke" if args.smoke else "full"
    runs = out / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{size}-seed{args.seed}-trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--spans", str(runs / f"{stem}-spans.json")]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_failure:
        cmd.append("--inject-failure")

    sources = source_digest()
    load_before = os.getloadavg()
    try:
        # The service harness warns on every fault it injects; the
        # benchmark reports outcomes through its checks instead.
        env = dict(os.environ, PMEMSPEC_LOG_LEVEL="silent")
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 3
    load_after = os.getloadavg()
    sys.stderr.write(proc.stderr)
    try:
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        log(f"no result (exit code {proc.returncode})")
        return 3

    problems = list(doc["problems"])
    if not args.inject_failure:
        key = f"{args.workload}-{size}-seed{args.seed}-{sources[:16]}"
        problem = check_ledger(out, key, doc["exact"], doc["digest"])
        if problem:
            problems.append(problem)
    correct = doc["correct"] and not problems and proc.returncode == 0

    fingerprint = {
        "nproc": doc["info"]["threads"],
        "cpu_model": cpu_model(),
        "compiler": doc["build"]["compiler"],
        "flags": doc["build"]["flags"],
        "build_type": doc["build"]["build_type"],
        "git_commit": git_commit(),
        "source_sha256": sources,
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "size": size,
        "seconds": args.seconds, "trace": args.trace,
        "fingerprint": fingerprint, "problems": problems,
        "metrics": doc["metrics"], "exact": doc["exact"],
        "info": doc["info"],
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({"fingerprint": fingerprint}))
    print(json.dumps({"info": doc["info"]}))
    for p in problems:
        print(f"FAILED CHECK: {p}")
    result = {
        "correct": correct,
        "attempted": doc["attempted"],
        "failed": doc["failed"] if problems == doc["problems"]
        else doc["attempted"],
        "metrics": doc["metrics"],
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
