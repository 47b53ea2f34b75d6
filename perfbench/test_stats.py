"""Self-tests of the steadiness statistics (run by `run.py --self-test`)."""
import unittest

import steady


class SpreadTest(unittest.TestCase):
    def test_quartile_spread_of_one_to_ten(self):
        # Exclusive quartiles of 1..10 are 2.75 and 8.25; the median is 5.5.
        self.assertAlmostEqual(steady.spread(list(range(1, 11))), 5.5 / 5.5)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(steady.spread([3.0] * 10), 0.0)

    def test_spread_ignores_order_and_scales(self):
        values = [10.0, 12.0, 11.0, 9.0, 10.5, 11.5, 9.5, 10.0, 10.2, 9.8]
        scaled = [2 * v for v in reversed(values)]
        self.assertAlmostEqual(steady.spread(values), steady.spread(scaled))

    def test_result_is_the_last_line(self):
        out = 'note\n{"correct": true, "attempted": 3, "failed": 0, "metrics": {}}\n\n'
        self.assertEqual(steady.parse_result(out)["attempted"], 3)

    def test_probe_note_gives_probe_and_unscaled_median(self):
        out = ('host probe: median 2.8430 ms over 23 runs, slowdown 1.1372 against '
               'the reference; unscaled: setup_s 0.3143, solve_ms.p50 18.7971, '
               'solves_per_s 68.3333\n{}')
        self.assertEqual(steady.probe_note(out), (2.843, 18.7971))
        self.assertIsNone(steady.probe_note('no probe here'))

    def test_result_with_extra_keys_is_refused(self):
        with self.assertRaises(ValueError):
            steady.parse_result('{"correct": true, "attempted": 1, "failed": 0, '
                                '"metrics": {}, "x": 1}')


if __name__ == "__main__":
    unittest.main()
