"""Tests of the replay benchmark's statistics and checks.

    python3 perfbench/test_ledger.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ledger  # noqa: E402


class TailTest(unittest.TestCase):
    def test_tail_leaves_exactly_ten_samples_beyond(self):
        values = list(range(31))
        value, pct, n = ledger.tail(values)
        self.assertEqual(n, 31)
        self.assertEqual(value, 20)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(pct, 100.0 * 21 / 31)

    def test_tail_ignores_input_order(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 0.0, 10.0, 11.0]
        self.assertEqual(ledger.tail(values)[0], 1.0)

    def test_tail_needs_more_than_ten_samples(self):
        self.assertEqual(ledger.tail([1.0] * 10), (None, None, 10))
        value, pct, n = ledger.tail([float(v) for v in range(11)])
        self.assertEqual((value, n), (0.0, 11))
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_tail_percentile_rises_with_samples_up_to_p90(self):
        self.assertAlmostEqual(ledger.tail(list(range(50)))[1], 80.0)
        self.assertAlmostEqual(ledger.tail(list(range(100)))[1], 90.0)
        value, pct, n = ledger.tail(list(range(1000)))
        self.assertEqual((value, n), (899, 1000))
        self.assertAlmostEqual(pct, 90.0)

    def test_p90_of_an_uneven_count(self):
        value, pct, _ = ledger.tail(list(range(250)))
        self.assertEqual(value, 224)  # ceil(0.9 * 250) = 225th sample
        self.assertAlmostEqual(pct, 90.0)


class PerIntervalMedianTest(unittest.TestCase):
    def test_median_of_each_interval_over_replays(self):
        # Three replays of four intervals; the second replay is slow.
        values = [1, 10, 100, 5,
                  9, 90, 900, 45,
                  2, 11, 101, 6]
        self.assertEqual(ledger.per_interval_medians(values, 3),
                         [2, 11, 101, 6])

    def test_one_replay_is_its_own_median(self):
        self.assertEqual(ledger.per_interval_medians([3, 1, 2], 1), [3, 1, 2])

    def test_uneven_samples_raise(self):
        with self.assertRaises(ValueError):
            ledger.per_interval_medians([1, 2, 3], 2)
        with self.assertRaises(ValueError):
            ledger.per_interval_medians([1, 2], 0)


class ShareTest(unittest.TestCase):
    def test_failed_share_counts_shed_over_offered(self):
        self.assertAlmostEqual(ledger.failed_share(3_017_561, 1_045_021),
                               0.346313, places=6)
        self.assertAlmostEqual(ledger.admitted_share(3_017_561, 1_045_021),
                               1 - 0.346313, places=6)

    def test_nothing_shed_or_offered(self):
        self.assertEqual(ledger.failed_share(1000, 0), 0.0)
        self.assertEqual(ledger.failed_share(0, 0), 0.0)
        self.assertEqual(ledger.admitted_share(0, 0), 1.0)

    def test_impossible_counts_raise(self):
        with self.assertRaises(ValueError):
            ledger.failed_share(10, 11)
        with self.assertRaises(ValueError):
            ledger.failed_share(10, -1)


class LayerSumTest(unittest.TestCase):
    def layers(self, total):
        share = total / len(ledger.LAYERS)
        return {name: share for name in ledger.LAYERS}

    def test_exact_sum_closes(self):
        ratio = ledger.layer_sum_ratio(self.layers(2.0), 2.0)
        self.assertAlmostEqual(ratio, 1.0)
        self.assertTrue(ledger.ledger_closes(ratio))

    def test_gap_beyond_tolerance_does_not_close(self):
        self.assertTrue(ledger.ledger_closes(
            ledger.layer_sum_ratio(self.layers(0.96), 1.0)))
        self.assertFalse(ledger.ledger_closes(
            ledger.layer_sum_ratio(self.layers(0.94), 1.0)))
        self.assertFalse(ledger.ledger_closes(
            ledger.layer_sum_ratio(self.layers(1.06), 1.0)))

    def test_missing_layer_or_wall_raises(self):
        layers = self.layers(1.0)
        del layers["epoch"]
        with self.assertRaises(ValueError):
            ledger.layer_sum_ratio(layers, 1.0)
        with self.assertRaises(ValueError):
            ledger.layer_sum_ratio(self.layers(1.0), 0.0)


class OutputChecksTest(unittest.TestCase):
    META = {"packets_expected": 100, "first_ts_us": 7, "intervals": 3,
            "first_interval": 0}
    RUN = {"packets": 100, "first_ts_us": 7, "decode_skipped": 0,
           "intervals": 3, "first_interval": 0, "identical_replays": 1,
           "final_alerts": 4}
    SCORE = {"attack_events": 2, "event_recall": 0.5}

    def failures(self, run=None, score=None):
        return ledger.output_failures(self.META, {**self.RUN, **(run or {})},
                                      {**self.SCORE, **(score or {})})

    def test_correct_run_passes(self):
        self.assertEqual(self.failures(), [])

    def test_each_check_fails_alone(self):
        for run, score in (({"packets": 99}, None),
                           ({"first_ts_us": 0}, None),
                           ({"decode_skipped": 1}, None),
                           ({"intervals": 2}, None),
                           ({"first_interval": 1}, None),
                           ({"identical_replays": 0}, None),
                           ({"final_alerts": 0}, None),
                           (None, {"attack_events": 0}),
                           (None, {"event_recall": 0.0})):
            with self.subTest(run=run, score=score):
                self.assertEqual(len(self.failures(run, score)), 1)


if __name__ == "__main__":
    unittest.main()
