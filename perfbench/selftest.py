#!/usr/bin/env python3
"""Self-test of the benchmark's own arithmetic and output check.

  python3 perfbench/selftest.py

run.py runs it before every measurement and refuses to measure when it
fails: a benchmark whose gate cannot see a flipped byte measures nothing.
"""

import io
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans as spanlib  # noqa: E402


def span(id_, parent, start, end, name="core.point.reap", thread=0):
    return {"id": id_, "parent": parent, "name": name, "trace": "t",
            "start_ns": start, "end_ns": end, "thread": thread, "work": 0}


class SelfTime(unittest.TestCase):
    def test_union_of_intervals(self):
        self.assertEqual(spanlib.covered_ns([]), 0)
        self.assertEqual(spanlib.covered_ns([(0, 10), (10, 20)]), 20)
        self.assertEqual(spanlib.covered_ns([(0, 10), (5, 12), (20, 25)]), 17)
        self.assertEqual(spanlib.covered_ns([(0, 30), (5, 10)]), 30)

    def test_nested_children(self):
        # point [0,100) > child [10,60) > grandchild [20,50): the grandchild
        # is subtracted from the child only, never twice from the point.
        ss = [span(1, 0, 0, 100, "grid.point"), span(2, 1, 10, 60),
              span(3, 2, 20, 50, "sim.walk")]
        self.assertEqual(spanlib.self_times(ss), {1: 50, 2: 20, 3: 30})
        self.assertEqual(spanlib.unattributed(ss, "grid.point"), [(100, 50)])

    def test_back_to_back_children(self):
        ss = [span(1, 0, 0, 100, "grid.point"), span(2, 1, 0, 40),
              span(3, 1, 40, 100, "campaign.journal.add")]
        self.assertEqual(spanlib.self_times(ss)[1], 0)
        self.assertEqual(spanlib.unattributed(ss, "grid.point"), [(100, 0)])

    def test_harness_gap_is_unattributed(self):
        ss = [span(1, 0, 0, 100, "grid.point"), span(2, 1, 10, 40),
              span(3, 1, 40, 90, "trace.generate")]
        self.assertEqual(spanlib.unattributed(ss, "grid.point"), [(100, 20)])

    def test_child_escaping_parent_is_clipped(self):
        ss = [span(1, 0, 0, 100, "grid.point"), span(2, 1, 80, 130)]
        self.assertEqual(spanlib.self_times(ss)[1], 80)
        self.assertEqual(spanlib.unattributed(ss, "grid.point"), [(100, 50)])

    def test_overlapping_siblings_are_counted_twice(self):
        # The union is subtracted once from the parent, but each sibling
        # keeps its own self time: the overlap shows as negative.
        ss = [span(1, 0, 0, 100, "grid.point"), span(2, 1, 0, 60),
              span(3, 1, 40, 100)]
        self.assertEqual(spanlib.self_times(ss)[1], 0)
        self.assertEqual(spanlib.unattributed(ss, "grid.point"), [(100, -20)])

    def test_other_thread_children_stay_theirs(self):
        # The runner waits on the main thread while points run on workers:
        # the wait covers the root, the points count as the workers' time.
        ss = [span(1, 0, 0, 100, "grid.campaign"),
              span(2, 1, 5, 95, "campaign.runner"),
              span(3, 2, 10, 90, "grid.point", thread=1),
              span(4, 3, 10, 85, "core.point.reap", thread=1),
              span(5, 2, 10, 60, "grid.point", thread=2),
              span(6, 5, 10, 60, "core.point.reap", thread=2)]
        self.assertEqual(spanlib.self_times(ss)[2], 90)
        self.assertEqual(spanlib.unattributed(ss, "grid.campaign"),
                         [(100, 10)])
        self.assertEqual(spanlib.unattributed(ss, "grid.point"),
                         [(80, 5), (50, 0)])
        got = spanlib.layer_self_s(ss, "grid.campaign")
        self.assertEqual(set(got), {"core"})
        self.assertAlmostEqual(got["core"], 125e-9)

    def test_layer_sums_stay_under_the_root(self):
        ss = [span(1, 0, 0, 100, "grid.campaign"),
              span(2, 1, 10, 60, "core.point.reap"),
              span(3, 1, 60, 70, "campaign.merge"),
              span(4, 0, 0, 7, "probe"),
              span(5, 4, 0, 7, "sim.walk")]
        got = spanlib.layer_self_s(ss, "grid.campaign")
        self.assertEqual(set(got), {"core", "campaign"})
        self.assertAlmostEqual(got["core"], 50e-9)
        self.assertAlmostEqual(got["campaign"], 10e-9)
        got = spanlib.layer_self_s(ss, "probe")
        self.assertEqual(set(got), {"sim"})
        self.assertAlmostEqual(got["sim"], 7e-9)


CSV = ("index,workload,policy\n" +
       "".join(f"{i},mcf,reap\n" for i in range(5)))


class OutputCheck(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.path = os.path.join(self.dir.name, "rows.csv")
        self.write(CSV)
        self.want = {"rows.csv": checks.sha256(self.path)}

    def tearDown(self):
        self.dir.cleanup()

    def write(self, text):
        with io.open(self.path, "w", newline="") as f:
            f.write(text)

    def check(self, want):
        return checks.check_outputs(self.dir.name, ["rows.csv"], 5, want)[0]

    def test_intact_output_passes(self):
        self.assertEqual(self.check(self.want), 0)
        self.assertEqual(self.check(None), 0)

    def test_one_flipped_byte_fails_every_row(self):
        data = bytearray(CSV.encode())
        data[-3] ^= 0x01
        self.write(data.decode())
        self.assertEqual(self.check(self.want), 5)

    def test_one_missing_row_fails(self):
        lines = CSV.split("\n")
        del lines[3]
        self.write("\n".join(lines))
        self.assertEqual(self.check(None), 1)
        self.assertEqual(self.check(self.want), 5)

    def test_one_duplicated_row_fails(self):
        lines = CSV.split("\n")
        lines.insert(3, lines[2])
        self.write("\n".join(lines))
        self.assertEqual(self.check(None), 1)
        self.assertEqual(self.check(self.want), 5)

    def test_rows_out_of_order_fail(self):
        lines = CSV.split("\n")
        lines[2], lines[3] = lines[3], lines[2]
        self.write("\n".join(lines))
        self.assertEqual(self.check(None), 2)

    def test_missing_file_fails_every_row(self):
        os.remove(self.path)
        self.assertEqual(self.check(None), 5)


def passes():
    """Runs the suite quietly; True when every test passes."""
    suite = unittest.defaultTestLoader.loadTestsFromModule(
        sys.modules[__name__])
    result = unittest.TextTestRunner(stream=io.StringIO()).run(suite)
    if not result.wasSuccessful():
        for _, tb in result.failures + result.errors:
            sys.stderr.write(tb)
    return result.wasSuccessful()


if __name__ == "__main__":
    unittest.main()
