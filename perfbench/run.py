#!/usr/bin/env python3
"""Run one workload of the wall-clock block-stream benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/main.exe with dune
from the checkout's own sources, runs it with as many engine domains as the
process may use, and relays its output: a host-fingerprint line, then, as the
last line, the result object {"correct", "attempted", "failed", "metrics"}.
Exits non-zero, printing no result, when the checkout cannot be built or the
run fails. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ("mm_coin", "hotspot_pay", "bigstate_poisson")
# A run must end within 180 s; the build before it is not counted.
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(f"{need} not found: run from the root of a source checkout")
    cmd = ["dune", "build", "--root", ROOT, "--cache=disabled", "-j", "2",
           "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
    except FileNotFoundError:
        die("dune is not installed")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        die("build failed")


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the program and benchmark sources, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--reference-seed", type=int, default=None,
                    help="build the sequential reference from another seed "
                    "(the correctness gate's self-test)")
    a = ap.parse_args()
    if a.seconds < 1:
        die("--seconds must be >= 1")
    build()
    nproc = len(os.sched_getaffinity(0))
    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--domains", str(nproc), "--nproc", str(nproc),
           "--git-rev", git_rev(), "--source-digest", source_digest()]
    if a.reference_seed is not None:
        cmd += ["--reference-seed", str(a.reference_seed)]
    t0 = time.monotonic()
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        die(f"run did not finish within {RUN_TIMEOUT_S} s (stalled?)", 1)
    if p.returncode != 0:
        sys.stdout.write(out)
        die(f"run exited with code {p.returncode}", 1)
    lines = out.strip().splitlines()
    if not lines:
        die("run printed no result", 1)
    result = json.loads(lines[-1])
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            die(f"result lacks {key!r}", 1)
    print(f"perfbench: {a.workload} seed {a.seed} ran in "
          f"{time.monotonic() - t0:.1f} s", file=sys.stderr)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
