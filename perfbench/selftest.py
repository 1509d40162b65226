#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

For every workload, runs one short pass against a sequential reference built
from another seed and checks that every transaction is reported failed, then
runs it against the matching reference and checks that none is. Run from the
root of a source checkout; exits non-zero on the first check that does not
hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mm_coin", "hotspot_pay", "bigstate_poisson")


def run(workload, seed, ref_seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace", "0",
           "--reference-seed", str(ref_seed)]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.exit(f"selftest: {workload} run exited with {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def main():
    for w in WORKLOADS:
        wrong = run(w, 1, 2)
        if wrong["correct"] or wrong["failed"] != wrong["attempted"]:
            sys.exit(f"selftest: {w}: a reference from another seed was not "
                     f"caught: {wrong}")
        right = run(w, 1, 1)
        if not right["correct"] or right["failed"] != 0:
            sys.exit(f"selftest: {w}: the matching reference reported "
                     f"failures: {right}")
        print(f"selftest: {w}: wrong reference -> {wrong['failed']}/"
              f"{wrong['attempted']} failed; matching reference -> 0 failed")
    print("selftest: ok")


if __name__ == "__main__":
    main()
