#!/usr/bin/env python3
"""The benchmark's own tests, run from the root of a checkout:

    python3 perfbench/selftest.py

1. Determinism and reference check (driver --selftest): the cold
   evaluation grid at 1 and at 4 engine workers gives equal
   SimResults, every job's final memory matches the functional
   reference, single_sim repeats exactly, and both match the
   committed reference records (perfbench/reference.json, seed 12345).
2. Every per-layer count (unit "count") of a traced run repeats
   exactly across two runs of each workload at the same seed; these
   counts are simulated and get no noise band.
3. Every run reports correct=true with failed=0.

Exits 0 when all hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["sweep_cold", "sweep_warm", "single_sim"]


def traced(workload):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "12345", "--seconds", "1", "--trace", "1"],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    sys.path.insert(0, HERE)
    import run  # noqa: E402 (build helpers)

    out = run.build_dir()
    binary = run.build(out)
    failures = []
    st = subprocess.run([binary, "--selftest",
                         "--workdir", os.path.join(out, "selftest-work"),
                         "--reference", os.path.join(HERE, "reference.json")])
    if st.returncode != 0:
        failures.append("driver --selftest failed")

    for w in WORKLOADS:
        print("selftest: two traced runs of %s" % w, flush=True)
        a, b = traced(w), traced(w)
        for r in (a, b):
            if not r["correct"] or r["failed"] != 0:
                failures.append("%s: a run failed its output checks" % w)
        for name, m in a["metrics"].items():
            if m["unit"] == "count" and not name.startswith(("op.", "trace.")):
                if b["metrics"][name]["value"] != m["value"]:
                    failures.append("%s: count %s differs: %s vs %s"
                                    % (w, name, m["value"],
                                       b["metrics"][name]["value"]))

    for f in failures:
        print("FAIL: " + f)
    print("selftest: %s" % ("PASS" if not failures else "FAIL"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
