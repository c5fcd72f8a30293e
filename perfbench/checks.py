"""Output check: every row present once, and the bytes pinned by digest.

Campaign output must not change by a byte (ROADMAP). digests.json records
the sha256 of each workload's merged CSV -- and on fig5-store of the figure
CSVs reap_report writes -- for a set of campaign seeds, measured at the
commit that defined the benchmark. Seed 0 is the default; seed 4099 is held
out: a later change is not tuned on it, and its gain claims must also hold
there. A seed with no recorded digest is still checked for completeness and
for identical bytes across every iteration of the run.
"""

import hashlib
import json
import os

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "digests.json")


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def load_digests():
    with open(DIGESTS) as f:
        return json.load(f)


def recorded(digests, workload, seed):
    """The recorded {output: sha256} for (workload, seed), or None."""
    return digests.get("workloads", {}).get(workload, {}).get(str(seed))


def bad_rows(csv_path, expected_rows):
    """Grid rows a merged CSV gets wrong, at most expected_rows: every index
    in 0..expected_rows-1 that is absent, plus every row whose index is not
    a number, is out of range, repeats or goes backwards (the merged CSV is
    in index order, each index once). A file that cannot be read fails
    every row."""
    try:
        with open(csv_path, newline="") as f:
            lines = f.read().split("\n")
    except OSError:
        return expected_rows
    if not lines or not lines[0].startswith("index,"):
        return expected_rows
    seen = set()
    last = -1
    bad = 0
    for line in lines[1:]:
        if not line:
            continue
        head = line.split(",", 1)[0]
        i = int(head) if head.isdigit() else expected_rows
        if i <= last or i >= expected_rows:
            bad += 1
            continue
        seen.add(i)
        last = i
    return min(expected_rows, expected_rows - len(seen) + bad)


def check_outputs(run_dir, names, expected_rows, want=None):
    """Checks one iteration's outputs.

    Returns (failed_rows, digests): the merged CSV's bad rows, or
    every row when any pinned output differs from `want` (the recorded
    digests, when present) -- a changed byte anywhere condemns the run's
    output, since no single row can be trusted then.
    """
    digests = {}
    for name in names:
        path = os.path.join(run_dir, name)
        digests[name] = sha256(path) if os.path.exists(path) else None
    failed = bad_rows(os.path.join(run_dir, names[0]), expected_rows)
    if want is not None and any(digests[n] != want.get(n) for n in names):
        failed = expected_rows
    return failed, digests
