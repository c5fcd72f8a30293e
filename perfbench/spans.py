"""Span arithmetic for the traced run: self time, per-layer sums, coverage.

A span is a dict with id, parent (0 = root), name, trace, start_ns, end_ns,
thread and work, as reap_layer_trace writes them. A span's self time is its
duration minus the part of its interval that its direct children on the
same thread cover (children clipped to the parent, overlaps counted once).
Children on other threads (the runner's points) are not subtracted: their
time is the other thread's, so summed self times are thread time.

A span's layer is the first dotted component of its name when that is a
src/ module (LAYERS). Spans the harness names itself ("grid.*", "probe*")
belong to no layer; neither do WAITS, which only wait on other threads or
processes whose own spans already count that time.
"""

import json
from collections import defaultdict

LAYERS = ("trace", "common", "sim", "core", "reliability", "nvsim",
          "campaign")
WAITS = ("campaign.runner", "campaign.dispatch.workers")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def covered_ns(intervals):
    """Length of the union of [start, end) intervals."""
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def children_of(spans):
    kids = defaultdict(list)
    for s in spans:
        kids[s["parent"]].append(s)
    return kids


def self_times(spans):
    """{span id: self time in ns}."""
    kids = children_of(spans)
    out = {}
    for s in spans:
        clipped = [(max(c["start_ns"], s["start_ns"]),
                    min(c["end_ns"], s["end_ns"])) for c in kids[s["id"]]
                   if c["thread"] == s["thread"]]
        out[s["id"]] = (s["end_ns"] - s["start_ns"]) - covered_ns(clipped)
    return out


def subtree(span, kids):
    stack, out = [span], []
    while stack:
        s = stack.pop()
        out.append(s)
        stack.extend(kids[s["id"]])
    return out


def layer_of(name):
    if name in WAITS:
        return None
    head = name.split(".", 1)[0]
    return head if head in LAYERS else None


def layer_self_s(spans, root_name):
    """{layer: summed self time in s} over the subtrees of every span named
    root_name. Layers with no span there are absent."""
    kids = children_of(spans)
    selfs = self_times(spans)
    out = defaultdict(float)
    for root in spans:
        if root["name"] != root_name:
            continue
        for s in subtree(root, kids):
            layer = layer_of(s["name"])
            if layer:
                out[layer] += selfs[s["id"]] * 1e-9
    return dict(out)


def unattributed(spans, name):
    """[(duration ns, unattributed ns)] for every span named `name`.

    Unattributed time is the span's duration minus the self times, on its
    own thread, of the layer and wait spans in its subtree: the time its
    thread spent outside every wrapped call (harness code, or the tracer
    itself). It is negative when spans under it overlap, so that some time
    is counted twice.
    """
    kids = children_of(spans)
    selfs = self_times(spans)
    out = []
    for span in spans:
        if span["name"] != name:
            continue
        covered = sum(selfs[s["id"]] for s in subtree(span, kids)
                      if s["thread"] == span["thread"] and
                      (layer_of(s["name"]) or s["name"] in WAITS))
        dur = span["end_ns"] - span["start_ns"]
        out.append((dur, dur - covered))
    return out


def root_of(span, by_id):
    while span["parent"] in by_id:
        span = by_id[span["parent"]]
    return span
