"""Self-tests of the campaign benchmark's statistics and output checks.

    python3 campaign_bench/run.py --self-test
"""

import json
import os
import statistics
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def span(sid, parent, start, end, name="x"):
    return {"id": sid, "parent": parent, "start": start, "end": end, "name": name,
            "corr": "", "args": {}}


class Percentiles(unittest.TestCase):
    def test_linear_interpolation(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(run.percentile(xs, 0.5), 3.0)
        self.assertEqual(run.percentile(xs, 0.0), 1.0)
        self.assertEqual(run.percentile(xs, 1.0), 5.0)
        self.assertAlmostEqual(run.percentile(xs, 0.9), 4.6)
        self.assertEqual(run.percentile([7.0], 0.9), 7.0)

    def test_tail_rule_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.tail_percentile(20), 50.0)
        self.assertEqual(run.tail_percentile(39), 50.0)
        self.assertEqual(run.tail_percentile(40), 75.0)
        self.assertEqual(run.tail_percentile(99), 75.0)
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(199), 90.0)
        self.assertEqual(run.tail_percentile(200), 95.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)

    def test_quartiles_match_statistics(self):
        xs = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, med, q3, spread = run.quartile_spread(xs)
        e1, _, e3 = statistics.quantiles(xs, n=4)
        self.assertEqual((q1, q3), (e1, e3))
        self.assertEqual(med, statistics.median(xs))
        self.assertAlmostEqual(spread, (e3 - e1) / statistics.median(xs))


class SelfTime(unittest.TestCase):
    def test_leaf_is_its_duration(self):
        self.assertAlmostEqual(run.self_times([span(1, 0, 0.0, 2.0)])[1], 2.0)

    def test_parent_minus_children(self):
        spans = [span(1, 0, 0.0, 10.0), span(2, 1, 1.0, 3.0), span(3, 1, 4.0, 8.0),
                 span(4, 3, 5.0, 6.0)]
        st = run.self_times(spans)
        self.assertAlmostEqual(st[1], 4.0)
        self.assertAlmostEqual(st[2], 2.0)
        self.assertAlmostEqual(st[3], 3.0)
        self.assertAlmostEqual(st[4], 1.0)
        self.assertAlmostEqual(sum(st.values()), 10.0)

    def test_overlapping_children_count_once(self):
        spans = [span(1, 0, 0.0, 10.0), span(2, 1, 1.0, 5.0), span(3, 1, 3.0, 7.0)]
        self.assertAlmostEqual(run.self_times(spans)[1], 4.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(1, 0, 2.0, 6.0), span(2, 1, 0.0, 3.0), span(3, 1, 5.0, 9.0)]
        self.assertAlmostEqual(run.self_times(spans)[1], 2.0)


class OutputChecks(unittest.TestCase):
    def setUp(self):
        os.makedirs(run.WORK, exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(dir=run.WORK)
        self.dir = self.tmp.name

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, sub, name, data):
        path = os.path.join(self.dir, sub)
        os.makedirs(path, exist_ok=True)
        with open(os.path.join(path, name), "wb") as f:
            f.write(data)
        return path

    def raw(self, dirs):
        return {"rounds": [{"failed": 0, "artifact_dir": d} for d in dirs],
                "host": {"native": "ok"}, "native": {"fallbacks": 0}}

    def simulate(self, engine, value):
        return ('{"kind":"simulate","engine":"%s","cycles":3,"probes":{"y":[[0,"%s"]]}}\n'
                % (engine, value)).encode()

    def artifacts(self, sub, value="0.5"):
        for e in ("compiled", "native"):
            path = self.write(sub, "simulate-hcor-%s-c3-0123abcd.json" % e, self.simulate(e, value))
        return path

    def test_clean_batch_run_passes(self):
        a, b = self.artifacts("r0"), self.artifacts("r1")
        expected = {"batch-long": run.tree_digest(a)}
        probs, _ = run.check_outputs("batch-long", run.DEFAULT_SEED, self.raw([a, b]), expected)
        self.assertEqual(probs, [])

    def test_one_byte_mutation_is_rejected(self):
        a = self.artifacts("r0")
        expected = {"batch-long": run.tree_digest(a)}
        path = os.path.join(a, "simulate-hcor-native-c3-0123abcd.json")
        with open(path, "rb") as f:
            data = bytearray(f.read())
        data[data.index(b"0.5") + 2] ^= 1
        with open(path, "wb") as f:
            f.write(bytes(data))
        probs, _ = run.check_outputs("batch-long", run.DEFAULT_SEED, self.raw([a]), expected)
        self.assertTrue(any("digest" in p for p in probs), probs)
        self.assertTrue(any("disagrees" in p for p in probs), probs)

    def test_rounds_must_write_identical_trees(self):
        a, b = self.artifacts("r0"), self.artifacts("r1", value="0.25")
        probs, _ = run.check_outputs("batch-long", 7, self.raw([a, b]), {})
        self.assertTrue(any("differ between rounds" in p for p in probs), probs)

    def test_failed_jobs_are_rejected(self):
        raw = self.raw([self.artifacts("r0")])
        raw["rounds"][0]["failed"] = 1
        probs, _ = run.check_outputs("batch-long", 7, raw, {})
        self.assertTrue(any("failed" in p for p in probs), probs)

    def test_native_fallback_is_rejected(self):
        raw = self.raw([self.artifacts("r0")])
        raw["native"]["fallbacks"] = 2
        probs, _ = run.check_outputs("batch-long", 7, raw, {})
        self.assertTrue(any("native" in p for p in probs), probs)

    def fuzz_report(self, divergent, replay_failures):
        rep = {"kind": "fuzz-report", "divergent": divergent,
               "replay_failures": replay_failures, "designs": []}
        return self.write("f%d%d" % (divergent, replay_failures), "fuzz-report.json",
                          json.dumps(rep).encode())

    def test_fuzz_report_with_one_divergence_is_rejected(self):
        probs, _ = run.check_outputs("fuzz-fresh", 7, self.raw([self.fuzz_report(1, 0)]), {})
        self.assertTrue(any("divergent" in p for p in probs), probs)

    def test_fuzz_replay_failure_is_rejected(self):
        probs, _ = run.check_outputs("fuzz-fresh", 7, self.raw([self.fuzz_report(0, 1)]), {})
        self.assertTrue(any("replay" in p for p in probs), probs)

    def test_fuzz_rounds_of_other_campaigns_may_differ(self):
        a, b = self.fuzz_report(0, 0), self.write("g", "fuzz-report.json", b'{"divergent":0,'
                                                  b'"replay_failures":0}')
        raw = self.raw([a, b])
        raw["rounds"][0]["campaign"], raw["rounds"][1]["campaign"] = 5, 6
        raw["warmup"] = {"failed": 0, "artifact_dir": a, "campaign": 5}
        probs, _ = run.check_outputs("fuzz-fresh", 7, raw, {})
        self.assertEqual(probs, [])
        raw["warmup"]["artifact_dir"] = b
        probs, _ = run.check_outputs("fuzz-fresh", 7, raw, {})
        self.assertTrue(any("differ between rounds" in p for p in probs), probs)

    def test_clean_fuzz_report_passes(self):
        probs, _ = run.check_outputs("fuzz-fresh", 7, self.raw([self.fuzz_report(0, 0)]), {})
        self.assertEqual(probs, [])


class Inputs(unittest.TestCase):
    def test_manifests_are_pure_in_the_seed(self):
        for gen in (run.serve_manifest, run.batch_manifest):
            self.assertEqual(gen(5), gen(5))
            self.assertNotEqual(gen(5), gen(6))

    def test_serve_short_has_a_fifth_duplicates(self):
        lines = run.serve_manifest(3)
        self.assertEqual(len(lines) - len(set(lines)), len(lines) // 5)

    def test_batch_long_submits_one_heavy_job_twice(self):
        lines = run.batch_manifest(3)
        self.assertEqual(len(lines) - len(set(lines)), 1)


if __name__ == "__main__":
    unittest.main()
