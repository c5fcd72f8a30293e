#!/usr/bin/env python3
"""Records the output digests the benchmark checks against.

  python3 perfbench/record_digests.py [--seeds 0-31,4099] [--workload NAME]

Runs one iteration of each workload per campaign seed and writes the sha256
of its pinned outputs into perfbench/digests.json. Campaign output is not
supposed to change by a byte, so re-record only in a change that alters
output on purpose and says so.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def parse_seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-31,4099")
    ap.add_argument("--workload", default="all",
                    choices=workloads.NAMES + ["all"])
    args = ap.parse_args()
    run.ensure_built()
    db = checks.load_digests()
    names = workloads.NAMES if args.workload == "all" else [args.workload]
    recorded = db["workloads"]
    for name in list(recorded):
        if name not in workloads.NAMES:
            del recorded[name]
    for name in names:
        recorded[name] = {}
        base = os.path.join(run.WORK, name)
        run.fresh_dir(base)
        with open(os.path.join(run.WORK, name + ".log"), "w") as log:
            for seed in parse_seeds(args.seeds):
                w = workloads.make(name, seed, run.ROOT)
                store = os.path.join(base, "store")
                if w.trace_dir:
                    run.materialize(w, store, log)
                run_dir = os.path.join(base, "run")
                it = run.iteration(w, run_dir, store, log)
                failed, digests = checks.check_outputs(run_dir, w.outputs(),
                                                       w.rows)
                if failed or it["exit_failures"]:
                    sys.exit(f"{name} seed {seed}: run failed, "
                             "nothing recorded")
                recorded[name][str(seed)] = digests
                print(f"{name} seed {seed}: {digests['rows.csv'][:16]}")
    with open(checks.DIGESTS, "w") as f:
        json.dump(db, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
