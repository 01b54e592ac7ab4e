"""Tests of the benchmark's own arithmetic and checks.

    python3 perfbench/test_analysis.py
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
import analysis  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def node(site, parent, samples, sampled_ns, stride=256):
    return {"site": site, "parent": parent, "samples": samples,
            "sampled_ns": sampled_ns, "est_ns": sampled_ns * stride}


# A hand-built profile.  Dispatch: 1000 calls, 4 samples of 1000 ns, 1200 ns
# of which sat in walk children.  Walk: 800 calls, sampled 4 times inside
# dispatch samples (1200 ns) and 4 times on its own stride (800 ns).  Export:
# one call, its only sample 500 us.
PROFILE = {
    "stride": 256,
    "calls": {"event_dispatch": 1000, "pipeline_walk": 800, "host_stack": 0,
              "mode_protocol": 0, "fault_inject": 0, "export": 1},
    "nodes": [
        node("event_dispatch", -1, 4, 4000),
        node("pipeline_walk", 0, 4, 1200),
        node("pipeline_walk", -1, 4, 800),
        node("export", -1, 1, 500000),
    ],
}


class EstimatorTest(unittest.TestCase):
    def test_ratio_estimator_and_self_time(self):
        s = analysis.site_estimates(PROFILE)
        d, w = s["event_dispatch"], s["pipeline_walk"]
        self.assertEqual(d["mean_ns"], 1000.0)
        self.assertEqual(d["incl_ns"], 1000 * 1000.0)
        # 30% of dispatch's sampled time was inside its walk children.
        self.assertAlmostEqual(d["self_ns"], 0.7 * 1e6)
        self.assertEqual(w["mean_ns"], (1200 + 800) / 8)
        self.assertEqual(w["incl_ns"], 800 * 250.0)
        self.assertEqual(w["self_ns"], w["incl_ns"])  # no children
        self.assertEqual(s["host_stack"]["incl_ns"], 0.0)  # never called

    def test_rare_site_ratio_vs_stride(self):
        e = analysis.site_estimates(PROFILE)["export"]
        self.assertEqual(e["incl_ns"], 500000.0)  # 1 call x its one sample
        self.assertEqual(e["stride_est_ns"], 500000.0 * 256)  # 256x too high

    def test_nested_site_stride_estimate_double_counts(self):
        # Walk is sampled both riding dispatch samples and on its own stride,
        # so sampled_ns x stride counts it about twice; the ratio does not.
        w = analysis.site_estimates(PROFILE)["pipeline_walk"]
        self.assertEqual(w["stride_est_ns"], 2000 * 256)
        self.assertEqual(w["incl_ns"], 200000.0)

    def test_ledger_sums_to_wall(self):
        sites = analysis.site_estimates(PROFILE)
        rep = {"wall_s": 0.01, "threads": 1, "build_s": -1, "harvest_s": 0.0005,
               "export_s": 0.0005}
        rows = analysis.ledger(rep, 0.001, sites)
        self.assertAlmostEqual(sum(v for _, v in rows), rep["wall_s"], places=12)
        self.assertEqual(dict(rows)["scenarios.build"], 0.001)
        self.assertAlmostEqual(dict(rows)["site.event_dispatch.self"], 0.7e-3)
        # With K workers the sites count as the mean worker's time.
        rep4 = dict(rep, threads=4)
        rows4 = analysis.ledger(rep4, 0.001, sites)
        self.assertAlmostEqual(dict(rows4)["site.event_dispatch.self"], 0.7e-3 / 4)
        self.assertAlmostEqual(sum(v for _, v in rows4), rep["wall_s"], places=12)


class MetricNamesTest(unittest.TestCase):
    def test_names_and_units(self):
        for cat in (analysis.END_TO_END, analysis.PER_LAYER):
            for name, (unit, better) in cat.items():
                self.assertRegex(name, analysis.NAME_RE)
                self.assertRegex(unit, analysis.UNIT_RE)
                self.assertIn(better, ("higher", "lower"))
        self.assertFalse(set(analysis.END_TO_END) & set(analysis.PER_LAYER))

    def test_grammar_rejects(self):
        for bad in ("", ".x", "a b", "a/b", "x" * 65, "wall_s!"):
            self.assertIsNone(analysis.NAME_RE.match(bad), bad)

    def test_benchmark_json_matches_catalogue(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        for key, cat in (("end_to_end", analysis.END_TO_END),
                         ("per_layer", analysis.PER_LAYER)):
            listed = {m["name"]: (m["unit"], m["better"]) for m in bench[key]}
            self.assertEqual(listed, cat)
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_result_line_has_every_metric_with_unit(self):
        metrics = {name: 1.0 for name in analysis.END_TO_END}
        line = analysis.result_line(metrics, analysis.END_TO_END, [("a", True), ("b", False)])
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual((line["correct"], line["attempted"], line["failed"]), (False, 2, 1))
        for name, m in line["metrics"].items():
            self.assertEqual(m["unit"], analysis.END_TO_END[name][0])


GOOD = {
    "fig3_lfa": {"first_alarm_s": 11.4, "modes_active_at_s": 11.5,
                 "mean_during_attack": 0.9988, "policy_drops": 4631, "rolls": 0},
    "multi_tenant": {"lfa_alarm_s": 9.4, "attacker_rolls": 0, "handshakes_validated": 135,
                     "over_budget": 0, "sheds": 2, "retired": True},
}
# Each case breaks one check and nothing else.
BROKEN = {
    "fig3_lfa": [{"first_alarm_s": 0.0, "modes_active_at_s": 0.1},
                 {"first_alarm_s": 15.0, "modes_active_at_s": 15.1},
                 {"modes_active_at_s": 12.0}, {"modes_active_at_s": 0.0},
                 {"mean_during_attack": 0.85}, {"policy_drops": 100}, {"rolls": 1}],
    "multi_tenant": [{"lfa_alarm_s": 0.0}, {"attacker_rolls": 1},
                     {"handshakes_validated": 0}, {"over_budget": 1}, {"sheds": 0},
                     {"retired": False}],
}
RING_GOOD = {"k1_k4_identical": True, "clients_acked": 32, "flows": 32}
RING_BROKEN = [("k1_k4_identical", False), ("clients_acked", 31), ("flows", 0)]


def doc(workload, result, check=None, events=(10, 10)):
    return {"workload": workload, "check": check or {},
            "reps": [{"result": result, "events": e} for e in events]}


class ChecksTest(unittest.TestCase):
    def assert_one_failure(self, raw):
        checks = analysis.run_checks(raw)
        self.assertEqual(sum(1 for _, ok in checks if not ok), 1, checks)
        self.assertGreater(analysis.fail_frac(checks), 0.0)

    def test_good_results_pass(self):
        for workload, result in GOOD.items():
            checks = analysis.run_checks(doc(workload, result))
            self.assertEqual(analysis.fail_frac(checks), 0.0, checks)
        checks = analysis.run_checks(doc("ring_sharded", {}, RING_GOOD))
        self.assertEqual(analysis.fail_frac(checks), 0.0, checks)

    def test_each_broken_field_raises_fail_frac(self):
        for workload, cases in BROKEN.items():
            for override in cases:
                with self.subTest(workload=workload, override=override):
                    self.assert_one_failure(doc(workload, dict(GOOD[workload], **override)))
        for key, value in RING_BROKEN:
            with self.subTest(workload="ring_sharded", key=key):
                self.assert_one_failure(doc("ring_sharded", {}, dict(RING_GOOD, **{key: value})))

    def test_diverging_repetitions_fail(self):
        self.assert_one_failure(doc("fig3_lfa", GOOD["fig3_lfa"],
                                    events=(10, 11)))


if __name__ == "__main__":
    unittest.main()
