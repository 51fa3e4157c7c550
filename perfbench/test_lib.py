"""Tests for the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest

import lib


class PercentileRule(unittest.TestCase):
    def test_p90_needs_one_hundred_samples(self):
        self.assertEqual(lib.samples_beyond(100, 90), 10)
        self.assertEqual(lib.samples_beyond(99, 90), 9)
        self.assertEqual(lib.tail(list(range(1, 101)), 90), 90)
        with self.assertRaises(lib.TooFewSamples):
            lib.tail(list(range(99)), 90)

    def test_highest_tail_has_ten_beyond(self):
        self.assertEqual(lib.highest_tail(10000), 99.9)
        self.assertEqual(lib.highest_tail(1000), 99.0)
        self.assertEqual(lib.highest_tail(999), 90.0)
        self.assertEqual(lib.highest_tail(100), 90.0)
        self.assertEqual(lib.highest_tail(40), 75.0)
        self.assertIsNone(lib.highest_tail(39))
        for n in (40, 100, 999, 1000, 12345):
            p = lib.highest_tail(n)
            self.assertGreaterEqual(lib.samples_beyond(n, p), lib.MIN_BEYOND)

    def test_tail_is_order_free(self):
        values = [5.0, 1.0, 4.0] * 40
        self.assertEqual(lib.tail(values, 90), lib.tail(sorted(values), 90))

    def test_windowed_rate_ignores_one_slow_window(self):
        tokens = [1.0] * 100
        ms = [10.0] * 100
        self.assertAlmostEqual(lib.windowed_rate(tokens, ms), 100.0)
        ms[5] = 1000.0  # one stalled call
        self.assertAlmostEqual(lib.windowed_rate(tokens, ms), 100.0)
        with self.assertRaises(lib.TooFewSamples):
            lib.windowed_rate([1.0] * 9, [1.0] * 9)

    def test_median_refuses_empty(self):
        with self.assertRaises(lib.TooFewSamples):
            lib.median([])


class RequestMix(unittest.TestCase):
    def test_same_seed_same_mix(self):
        for w in lib.WORKLOADS:
            self.assertEqual(lib.make_mix(w, 7), lib.make_mix(w, 7))
            self.assertNotEqual(lib.make_mix(w, 7), lib.make_mix(w, 8))
        self.assertEqual(lib.pipeline_seed(7), lib.pipeline_seed(7))
        self.assertNotEqual(lib.pipeline_seed(7), lib.pipeline_seed(8))
        self.assertLess(lib.pipeline_seed(7), 2 ** 63)

    def test_warmup_lead_is_seed_independent(self):
        for w, lead in lib.WARMUP_LEAD.items():
            first = 1 if w == "decode_long" else 0
            for seed in (1, 2):
                mix = lib.make_mix(w, seed)
                self.assertEqual(mix[first:first + len(lead)], lead)

    def test_mix_ranges(self):
        mix = lib.make_mix("decode_long", 3)
        self.assertEqual(mix[0], (lib.STANDING_CONTEXT, 0))
        self.assertTrue(all(1 <= p <= 4 and o == 2 for p, o in mix[1:]))
        self.assertTrue(all(4096 <= p <= 8192 and o == 2
                            for p, o in lib.make_mix("prompt_sparse", 3)))
        self.assertTrue(all(512 <= p <= 2048 and 16 <= o <= 64
                            for p, o in lib.make_mix("serve_mixed", 3)))

    def test_stratified_blocks_share_one_ladder(self):
        a = lib.stratified(lib.random.Random(1), 512, 2048, 64)
        b = lib.stratified(lib.random.Random(2), 512, 2048, 64)
        self.assertNotEqual(a, b)
        for i in range(0, 64, 16):
            self.assertEqual(sorted(a[i:i + 16]), sorted(b[i:i + 16]))
        self.assertEqual((min(a), max(a)), (512, 2048))

    def test_unknown_workload(self):
        with self.assertRaises(ValueError):
            lib.make_mix("nope", 1)


def span(sid, parent, begin, end, name="x", tid=0):
    return {"id": sid, "parent": parent, "begin": begin, "end": end,
            "name": name, "tid": tid}


class SelfTime(unittest.TestCase):
    def test_span_minus_union_of_children(self):
        spans = [span(0, -1, 0, 100),
                 span(1, 0, 10, 30, tid=0),
                 span(2, 0, 20, 50, tid=1),  # overlaps 1 on another lane
                 span(3, 0, 60, 70),
                 span(4, 1, 12, 14)]         # a grandchild
        st = lib.self_times(spans)
        self.assertEqual(st[0], 100 - 40 - 10)
        self.assertEqual(st[1], 20 - 2)
        self.assertEqual(st[2], 30)
        self.assertEqual(st[4], 2)

    def test_children_clipped_to_parent(self):
        st = lib.self_times([span(0, -1, 10, 20), span(1, 0, 5, 15)])
        self.assertEqual(st[0], 5)

    def test_union_length(self):
        self.assertEqual(lib.union_length([]), 0)
        self.assertEqual(lib.union_length([(0, 5), (5, 7), (10, 12)]), 9)
        self.assertEqual(lib.union_length([(0, 10), (2, 3)]), 10)

    def test_busy_and_by_name(self):
        spans = [span(0, -1, 0, 100, "pipeline.decode_step"),
                 span(1, 0, 0, 40, "workload.append"),
                 span(2, -1, 100, 130, "serve.queue_wait")]
        self.assertEqual(lib.busy_under(spans, "pipeline."), 100)
        by = lib.self_time_by_name(spans)
        self.assertEqual(by["pipeline.decode_step"], (1, 100, 60))
        self.assertEqual(by["workload.append"], (1, 40, 40))

    def test_chrome_trace_is_json(self):
        doc = lib.chrome_trace([span(0, -1, 1000, 3000, "a")], {"seed": 1})
        ev = json.loads(json.dumps(doc))["traceEvents"][0]
        self.assertEqual((ev["ph"], ev["ts"], ev["dur"]), ("X", 1.0, 2.0))

    def test_chrome_trace_keeps_the_earliest_spans(self):
        spans = [span(i, -1, 1000 * (5 - i), 1000 * (6 - i)) for i in range(5)]
        doc = lib.chrome_trace(spans, {}, limit=2)
        self.assertEqual([e["args"]["id"] for e in doc["traceEvents"]],
                         [4, 3])
        self.assertEqual(doc["otherData"]["spans_total"], 5)


if __name__ == "__main__":
    unittest.main()
