"""The benchmark's two workloads, each a function of the campaign seed.

Every workload drives the shipped CLIs from one process on one simulation
thread: on a shared 4-core host, a grid on 4 threads measures the other
tenants as much as the program (two busy neighbours slowed one by half,
and left one on a single thread unchanged). Sizes are chosen so one
iteration takes under a second, so a run repeats it many times and its
totals average the host's fast and slow spells.
"""

import os


class Workload:
    """One workload: what to materialize, what to time, what to check.

    spec: spec-key flags shared by reap_trace, reap_campaign and
      reap_layer_trace (the grid).
    rows: grid points; instr_per_row: warm-up plus measured instructions.
    """

    def __init__(self, name, spec, rows, instr_per_row,
                 runner=(), report=False, trace_dir=False):
        self.name = name
        self.spec, self.rows, self.instr_per_row = spec, rows, instr_per_row
        self.runner = list(runner)
        self.report = report
        self.trace_dir = trace_dir

    def outputs(self):
        """Files whose bytes the output check pins, relative to the run dir."""
        names = ["rows.csv"]
        if self.report:
            names += ["figures/fig5_mttf.csv", "figures/fig6_energy.csv",
                      "figures/policy_summary.csv"]
        return names


def make(name, seed, root="."):
    """The workload `name` with campaign_seed `seed`."""
    cs = f"--campaign_seed={seed}"
    if name == "policy-grid":
        return Workload(
            name,
            ["--workloads=all", "--policies=all", "--seeds=0", cs,
             "--instructions=60000", "--warmup=6000"],
            28 * 5, 66000,
            runner=["--trace-cache-mb=1024", "--threads=1"])
    if name == "fig5-store":
        return Workload(
            name,
            ["--spec=" + os.path.join(root, "specs", "fig5.spec"), cs,
             "--instructions=150000", "--warmup=20000"],
            28 * 2, 170000,
            runner=["--threads=1"], report=True, trace_dir=True)
    raise KeyError(name)


NAMES = ["policy-grid", "fig5-store"]
