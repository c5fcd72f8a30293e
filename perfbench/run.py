#!/usr/bin/env python3
"""Campaign benchmark: the shipped CLIs on two workloads, end to end.

  python3 perfbench/run.py --workload policy-grid --seed 0 --trace 0
  python3 perfbench/run.py --workload all           # every workload in turn

Run from the repository root. The first run builds the repository's
libraries and CLIs plus the traced harness (perfbench/CMakeLists.txt) into
.bench_build/ in Release; later runs reuse that tree.

--trace 0 (end to end, untraced): materializes the trace store when the
workload replays one, then repeats the workload for --seconds. It reports
wall and CPU time per iteration and throughput over the whole run (totals
over iterations), and the median set-up time; each iteration's values are
kept in .bench_build/work/<workload>/iterations.json. Every iteration's
merged CSV (and on fig5-store reap_report's figure CSVs) must hold every
grid row once, match the other iterations byte for byte, and match the
recorded digest where digests.json has one for this seed.

--trace 1 (per layer): materializes the workload's grid once and runs the
workload untraced three times, then once through reap_layer_trace, which
records a span around each call into a src/ module, probes the sublayers
on a fixed sample of the workload's points and runs a small reap_dispatch
over that sample. Prints every per_layer metric of BENCHMARK.json, the
tracing overhead (traced minus untraced wall time), and as facts the
figures that are 0 by design on some workloads (trace cache counters,
dispatch restarts, rig page faults, the runner's tail on one thread).

The last line of stdout is one JSON object: correct, attempted (grid rows
run, plus one per materialization), failed (rows missing or with a wrong
digest, plus runs that exited non-zero) and metrics. Exits 1 when any
output check fails, 2 when the benchmark cannot run at all.
"""

import argparse
import atexit
import json
import math
import os
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import selftest  # noqa: E402
import spans as spanlib  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "reap", "src", "campaign")
HARNESS = os.path.join(BUILD, "reap_layer_trace")
WORK = os.path.join(BUILD, "work")
MIN_ITERATIONS = 3
UNTRACED_REPS_FOR_OVERHEAD = 3
# Largest share of traced time the layer spans may leave uncovered: summed
# over the grid's points, and on the grid run's own thread.
UNATTRIBUTED_TOLERANCE = 0.02


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def ensure_built():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die(f"no repository sources in {ROOT} (run from a full checkout)")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = [["cmake", "--build", BUILD, "-j4"]]
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                             "-DCMAKE_BUILD_TYPE=Release"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed")


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


_live = set()


@atexit.register
def _stop_live():
    """Kills and reaps whatever an interrupted run left running."""
    for proc in list(_live):
        proc.kill()
        os.waitpid(proc.pid, 0)


class Timed:
    """One process, timed from launch; wait4 gives its CPU and max-RSS."""

    def __init__(self, args, log):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(args, stdout=log, stderr=log, cwd=ROOT)
        _live.add(self.proc)
        self.status = None

    def poll_until(self, ready):
        """Polls `ready()` until true or the process exits; returns the
        seconds from launch to the first true, or None."""
        while True:
            if ready():
                return time.perf_counter() - self.t0
            pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self._reaped(status, ru)
                return time.perf_counter() - self.t0 if ready() else None
            time.sleep(0.0002)

    def wait(self):
        if self.status is None:
            _, status, ru = os.wait4(self.proc.pid, 0)
            self._reaped(status, ru)
        return self

    def _reaped(self, status, ru):
        self.end = time.perf_counter()
        _live.discard(self.proc)
        self.status = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.status
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0


def header_landed(path):
    """True once `path` holds a complete first line."""
    def ready():
        try:
            with open(path, "rb") as f:
                return b"\n" in f.read(1 << 16)
        except OSError:
            return False
    return ready


def campaign_cmds(w, run_dir, store):
    """The timed command line(s) of one iteration of workload `w`, and the
    journal whose header line ends set-up."""
    journal = os.path.join(run_dir, "run.journal")
    csv = os.path.join(run_dir, "rows.csv")
    cmd = [os.path.join(BIN, "reap_campaign")] + w.spec + w.runner + [
        f"--journal={journal}", "--quiet"]
    if w.trace_dir:
        cmd.append(f"--trace-dir={store}")
    cmds = [cmd]
    if w.report:
        cmds.append([os.path.join(BIN, "reap_report"), journal,
                     f"--figures={os.path.join(run_dir, 'figures')}",
                     f"--merged-csv={csv}"])
    else:
        cmd.append(f"--csv={csv}")
    return cmds, journal


def materialize(w, store, log):
    """reap_trace --materialize of the workload's grid into an empty dir."""
    fresh_dir(store)
    t = Timed([os.path.join(BIN, "reap_trace"), "--materialize"] + w.spec +
              [f"--out-dir={store}"], log).wait()
    return t.end - t.t0, t.status == 0


def iteration(w, run_dir, store, log):
    """One timed iteration; returns its measurements (outputs unchecked)."""
    fresh_dir(run_dir)
    cmds, journal = campaign_cmds(w, run_dir, store)
    first = Timed(cmds[0], log)
    setup = first.poll_until(header_landed(journal))
    procs = [first.wait()]
    for cmd in cmds[1:]:
        procs.append(Timed(cmd, log).wait())
    wall = procs[-1].end - first.t0
    return {
        "wall_s": wall,
        "setup_s": setup if setup is not None else wall,
        "cpu_s": sum(p.cpu_s for p in procs),
        "peak_rss_mb": max(p.rss_mb for p in procs),
        "exit_failures": sum(p.status != 0 for p in procs),
    }


def check_iteration(w, run_dir, want, seen):
    """Rows failed in this iteration's outputs; `seen` collects the digest
    sets, and an iteration whose bytes differ from the first one's fails
    every row even when no digest is recorded for the seed."""
    failed, digests = checks.check_outputs(run_dir, w.outputs(), w.rows, want)
    if seen and digests != seen[0]:
        failed = w.rows
    seen.append(digests)
    return failed


def run_untraced(w, seed, seconds, want, log, reps=None,
                 materialize_always=False):
    """Materializes the workload's store (when it replays one, or when
    asked), then repeats the workload for `seconds`, or `reps` times.
    Returns (metrics, attempted, failed, last run dir, digests, store)."""
    base = os.path.join(WORK, w.name)
    store = os.path.join(base, "store")
    attempted = failed = 0
    mat = []
    if w.trace_dir or materialize_always:
        t, ok = materialize(w, store, log)
        mat.append(t)
        attempted += 1
        failed += not ok
    iters, seen = [], []
    run_dir = os.path.join(base, "run")
    warm_up = True
    while True:
        t_iter = time.perf_counter()
        it = iteration(w, run_dir, store, log)
        it["failed_rows"] = check_iteration(w, run_dir, want, seen)
        it["elapsed"] = time.perf_counter() - t_iter
        attempted += w.rows
        failed += it["failed_rows"] + it["exit_failures"]
        if warm_up:
            # The first iteration fills the page cache with the binaries
            # and the store; its outputs are checked, its times dropped.
            warm_up = False
            t_start = time.perf_counter()
            continue
        iters.append(it)
        if reps is not None:
            if len(iters) >= reps:
                break
        elif len(iters) >= MIN_ITERATIONS and (
                time.perf_counter() - t_start +
                median([i["elapsed"] for i in iters]) > seconds):
            break
    # Totals over the run, not per-iteration medians: the host's speed
    # switches between two levels for seconds at a time, and a median
    # flips between them where a total averages them (README.md).
    n = len(iters)
    busy = sum(i["wall_s"] - i["setup_s"] for i in iters)
    metrics = {
        "wall_s": sum(i["wall_s"] for i in iters) / n,
        "setup_s": median([i["setup_s"] for i in iters]),
        "rows_per_s": n * w.rows / busy,
        "minstr_per_s": n * w.rows * w.instr_per_row / busy / 1e6,
        "cpu_s": sum(i["cpu_s"] for i in iters) / n,
        "peak_rss_mb": median([i["peak_rss_mb"] for i in iters]),
    }
    if mat:
        metrics["materialize_s"] = mat[0]
    with open(os.path.join(base, "iterations.json"), "w") as f:
        json.dump(iters, f)
    print(f"# {w.name} seed {seed}: {len(iters)} iterations", file=sys.stderr)
    return metrics, attempted, failed, run_dir, seen[0], store


def fidelity(figures_dir):
    """Fig. 5 MTTF gain of REAP vs conventional from reap_report's policy
    summary: (mean, geomean, worst case)."""
    path = os.path.join(figures_dir, "policy_summary.csv")
    with open(path) as f:
        rows = [line.rstrip("\n").split(",") for line in f]
    head = rows[0]
    for r in rows[1:]:
        if r[0] == "reap":
            get = dict(zip(head, r)).get
            return (float(get("mttf_gain_mean")), float(get("mttf_gain_geo")),
                    float(get("mttf_gain_min")))
    return None


def print_fidelity(figures_dir):
    fid = fidelity(figures_dir)
    if fid:
        print(f"fidelity (reported, not gated): Fig. 5 MTTF gain of REAP "
              f"mean {fid[0]:.1f}x (paper 171x), geomean {fid[1]:.1f}x, "
              f"worst case {fid[2]:.2f}x (paper 7.9x)")


def nearest_rank(sorted_xs, q):
    return sorted_xs[max(0, math.ceil(q / 100.0 * len(sorted_xs)) - 1)]


# The rig's parts: per_layer metric suffix -> the span around the call.
RIG_PARTS = {"ecc": "core.make_line_code", "nvsim": "nvsim.cache_model",
             "reliability": "reliability.uncorrectable_model",
             "sim": "sim.hierarchy", "values": "trace.datavalue"}
# Layers whose summed self time is a per_layer metric: those with a span in
# every workload's grid (layer.*) and in every probe sample (sample.layer.*).
GRID_LAYERS = ("core", "campaign")
SAMPLE_LAYERS = ("trace", "sim", "core", "reliability", "nvsim")
# The span whose subtree is the workload's grid run.
GRID_ROOT = "grid.campaign"


def layer_metrics(spans, facts, run_dir, policies):
    """Every per-layer metric from the traced run's spans and facts, plus
    the figures that are reported as facts and not as metrics (counts that
    are 0 by design on some workloads)."""
    by_id = {s["id"]: s for s in spans}
    root = {s["id"]: spanlib.root_of(s, by_id)["name"] for s in spans}
    selfs = spanlib.self_times(spans)
    camp = GRID_ROOT

    def pick(name, roots):
        return [s for s in spans
                if s["name"] == name and root[s["id"]] in roots]

    def dur(s):
        return (s["end_ns"] - s["start_ns"]) * 1e-9

    def total(name, roots):
        return sum(dur(s) for s in pick(name, roots))

    def per_sample(name):
        """{sample trace id: (median duration s, work)} of a probe span."""
        groups = {}
        for s in pick(name, ("probe",)):
            groups.setdefault(s["trace"], []).append(s)
        return {k: (median([dur(s) for s in v]), v[0]["work"])
                for k, v in groups.items()}

    def ns_per_instr(name):
        g = per_sample(name).values()
        return sum(d for d, _ in g) * 1e9 / sum(w for _, w in g)

    m, fact = {}, {}
    m["trace.generate.ns_per_instr"] = ns_per_instr("trace.generate")
    m["trace.replay.ns_per_instr"] = ns_per_instr("trace.replay")
    m["trace.store.write_s"] = sum(
        d for d, _ in per_sample("trace.store.write").values())
    grid_opens = pick("trace.store.open", (camp,))
    m["trace.store.open_s"] = (
        sum(dur(s) for s in grid_opens) if grid_opens else
        sum(d for d, _ in per_sample("trace.store.open").values()))
    crc = pick("common.crc32c", ("probe.crc32c",))
    m["common.crc32c.gb_per_s"] = median([s["work"] / dur(s) / 1e9
                                          for s in crc])

    walk = ns_per_instr("sim.walk")
    m["sim.walk.ns_per_instr"] = walk
    instr = facts["probe.sim.instructions"]
    m["sim.l2.accesses_per_kinstr"] = (facts["probe.sim.l2_accesses"] /
                                       instr * 1e3)
    m["sim.l2.miss_ratio"] = 1.0 - (facts["probe.sim.l2_hits"] /
                                    facts["probe.sim.l2_accesses"])
    rigs = pick("core.rig", ("probe",))
    walk_work = sum(w for _, w in per_sample("sim.walk").values())
    rig_ns = (sum(d for d, _ in per_sample("core.rig").values()) * 1e9 /
              walk_work)
    for p in policies:
        point = ns_per_instr(f"core.point.{p}")
        m[f"core.point.{p}.ns_per_instr"] = point
        m[f"core.policy_ledger.{p}.ns_per_instr"] = point - walk - rig_ns
    m["core.rig.ms"] = median([dur(s) * 1e3 for s in rigs])
    for part, span_name in RIG_PARTS.items():
        m[f"core.rig.{part}.ms"] = median(
            [dur(s) * 1e3 for s in pick(span_name, ("probe",))])
    fact["core.rig.page_faults"] = (facts["probe.rig.page_faults"] /
                                    facts["probe.rig.count"])
    for p in policies:
        m[f"reliability.{p}.checks_per_kinstr"] = (
            facts[f"probe.reliability.{p}.checks"] /
            facts[f"probe.reliability.{p}.instructions"] * 1e3)

    m["campaign.expand_s"] = total("campaign.expand", (camp,))
    hits = facts.get("campaign.cache.hits", 0.0)
    lookups = hits + facts.get("campaign.cache.misses", 0.0)
    if lookups:
        fact["campaign.cache.lookups"] = lookups
        fact["campaign.cache.hit_ratio"] = hits / lookups
        fact["campaign.cache.peak_mb"] = (facts["campaign.cache.peak_bytes"] /
                                          2**20)
        fact["campaign.cache.acquire_wait_s"] = sum(
            selfs[s["id"]]
            for s in pick("campaign.cache.acquire", (camp,))) * 1e-9
    points = pick("grid.point", (camp,))
    durs = sorted(dur(s) for s in points)
    # p99 from 1 000 points (ten samples beyond it), p90 below that.
    tail_pct = 99 if len(durs) >= 1000 else 90
    m["campaign.point.n"] = len(durs)
    m["campaign.point.p50_ms"] = nearest_rank(durs, 50) * 1e3
    m["campaign.point.tail_pct"] = tail_pct
    m["campaign.point.tail_ms"] = nearest_rank(durs, tail_pct) * 1e3
    runner = pick("campaign.runner", (camp,))[0]
    m["campaign.runner.busy_frac"] = sum(durs) / (
        facts["grid.threads"] * dur(runner))
    last_end = {}
    for s in points:
        last_end[s["thread"]] = max(last_end.get(s["thread"], 0), s["end_ns"])
    # 0 by design when the grid runs on one thread.
    fact["campaign.runner.tail_s"] = (max(last_end.values()) -
                                      min(last_end.values())) * 1e-9
    m["campaign.journal.add_us"] = median(
        [dur(s) * 1e6 for s in pick("campaign.journal.add", (camp,))])
    with open(os.path.join(run_dir, camp + ".journal"), "rb") as f:
        lines = f.read().split(b"\n")
    rows = [line for line in lines[1:] if line]
    m["campaign.journal.bytes_per_row"] = (sum(len(r) + 1 for r in rows) /
                                           len(rows))
    m["campaign.merge_s"] = total("campaign.merge", (camp,))
    for part in ("load", "aggregate", "figures"):
        m[f"campaign.report.{part}_s"] = sum(
            dur(s) for s in spans if s["name"] == f"campaign.report.{part}")
    m["campaign.dispatch.first_row_p50_s"] = facts[
        "campaign.dispatch.first_row_p50_s"]
    m["campaign.dispatch.first_row_max_s"] = facts[
        "campaign.dispatch.first_row_max_s"]
    fact["campaign.dispatch.restarts"] = facts["campaign.dispatch.restarts"]
    m["campaign.dispatch.merge_s"] = total("campaign.dispatch.merge",
                                           ("probe.dispatch",))

    grid_layers = spanlib.layer_self_s(spans, camp)
    for layer in GRID_LAYERS:
        m[f"layer.{layer}.self_s"] = grid_layers.get(layer, 0.0)
    for layer, secs in grid_layers.items():
        if layer not in GRID_LAYERS:
            fact[f"layer.{layer}.self_s"] = secs
    sample_layers = spanlib.layer_self_s(spans, "probe")
    for layer in SAMPLE_LAYERS:
        m[f"sample.layer.{layer}.self_s"] = sample_layers.get(layer, 0.0)

    point_err = spanlib.unattributed(spans, "grid.point")
    m["tracing.point_unattributed_frac"] = (
        sum(abs(e) for _, e in point_err) / sum(d for d, _ in point_err))
    fact["tracing.point_unattributed_max_us"] = max(
        abs(e) for _, e in point_err) * 1e-3
    (run_dur, run_err), = spanlib.unattributed(spans, camp)
    m["tracing.run_unattributed_frac"] = abs(run_err) / run_dur
    m["tracing.spans"] = len(spans)
    return m, fact


def run_traced(w, seed, want, log, policies):
    """Untraced reference iterations, then the traced harness run."""
    base, attempted, failed, _, ref_digests, store = run_untraced(
        w, seed, 0, want, log, reps=UNTRACED_REPS_FOR_OVERHEAD,
        materialize_always=True)
    out = os.path.join(WORK, w.name, "traced")
    cmd = [HARNESS, f"--out-dir={out}",
           f"--campaign-bin={os.path.join(BIN, 'reap_campaign')}"]
    cmd += w.spec + w.runner
    if w.trace_dir:
        cmd.append(f"--trace-dir={store}")
    if w.report:
        cmd.append("--report-in-run")
    t = Timed(cmd, log).wait()
    attempted += w.rows
    if t.status != 0:
        print(f"reap_layer_trace exited {t.status}", file=sys.stderr)
        return None, attempted, failed + w.rows + 1
    # The traced run's outputs must be the untraced run's bytes.
    traced_failed, digests = checks.check_outputs(
        out, w.outputs(), w.rows, want or ref_digests)
    if digests != ref_digests:
        traced_failed = w.rows
    failed += traced_failed
    spans = spanlib.load(os.path.join(out, "spans.jsonl"))
    with open(os.path.join(out, "facts.json")) as f:
        facts = json.load(f)
    m, fact = layer_metrics(spans, facts, out, policies)
    root = next(s for s in spans if s["name"] == GRID_ROOT)
    traced_wall = (root["end_ns"] - root["start_ns"]) * 1e-9
    m["trace.store.materialize_s"] = base["materialize_s"]
    m["process.peak_rss_mb"] = base["peak_rss_mb"]
    m["tracing.traced_wall_s"] = traced_wall
    m["tracing.untraced_wall_s"] = base["wall_s"]
    m["tracing.overhead_s"] = traced_wall - base["wall_s"]
    for name in ("tracing.point_unattributed_frac",
                 "tracing.run_unattributed_frac"):
        if m[name] > UNATTRIBUTED_TOLERANCE:
            print(f"{name} = {m[name]:.4f}: the layer self times miss the "
                  f"traced time by more than {UNATTRIBUTED_TOLERANCE:.0%}",
                  file=sys.stderr)
            failed += 1
    if w.report:
        print_fidelity(os.path.join(out, "figures"))
    print(f"tracing overhead on {w.name}: traced wall {traced_wall:.3f} s - "
          f"untraced wall {base['wall_s']:.3f} s = "
          f"{m['tracing.overhead_s']:+.3f} s")
    print(f"facts on {w.name} (reported, not metrics: 0 by design on some "
          f"workloads):")
    for k, v in sorted(fact.items()):
        print(f"  {k:44s} {v:>16.6g}")
    return m, attempted, failed


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(name, seed, seconds, trace, bench, digests):
    w = workloads.make(name, seed, ROOT)
    want = checks.recorded(digests, name, seed)
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    fresh_dir(os.path.join(WORK, name))
    with open(os.path.join(WORK, name + ".log"), "w") as log:
        if trace:
            policies = [m["name"].split(".")[2] for m in bench["per_layer"]
                        if m["name"].startswith("core.point.")]
            metrics, attempted, failed = run_traced(w, seed, want, log,
                                                    policies)
            metrics = metrics or {}
        else:
            metrics, attempted, failed, run_dir, _, _ = run_untraced(
                w, seed, seconds, want, log)
            if w.report:
                print_fidelity(os.path.join(run_dir, "figures"))
    out = {}
    for spec in wanted:
        if spec["name"] not in metrics:
            print(f"metric {spec['name']} was not measured", file=sys.stderr)
            failed += 1
            continue
        out[spec["name"]] = {"value": metrics[spec["name"]],
                             "unit": spec["unit"]}
    print(f"== {name} (seed {seed}, digest "
          f"{'recorded' if want else 'not recorded: self-consistency only'})")
    for k, v in out.items():
        print(f"  {k:44s} {v['value']:>16.6g} {v['unit']}")
    print(f"  {'failed_frac':44s} {failed / max(attempted, 1):>16.6g} ratio")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": out}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=workloads.NAMES + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not selftest.passes():
        die("self-test failed (python3 perfbench/selftest.py)")
    ensure_built()
    bench = load_benchmark()
    digests = checks.load_digests()
    names = workloads.NAMES if args.workload == "all" else [args.workload]
    results = {n: run_one(n, args.seed, args.seconds, args.trace, bench,
                          digests) for n in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    sys.exit(0 if final["correct"] else 1)


if __name__ == "__main__":
    main()
