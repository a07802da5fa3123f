"""Seeded streams and the integer-time Poisson sampler."""

import numpy as np

from maxstorm import SeededStream, sample_integer_poisson


class TestSeededStream:
    def test_same_seed_reproduces_draws(self):
        a = SeededStream(7).generator().uniform(size=5)
        b = SeededStream(7).generator().uniform(size=5)
        np.testing.assert_array_equal(a, b)

    def test_children_are_distinct_and_stable(self):
        root = SeededStream(7)
        c0 = root.child(0).generator().uniform(size=4)
        c1 = root.child(1).generator().uniform(size=4)
        assert not np.array_equal(c0, c1)
        np.testing.assert_array_equal(c0, SeededStream(7).child(0).generator().uniform(size=4))

    def test_child_draws_do_not_depend_on_access_order(self):
        root = SeededStream(11)
        first = root.child(3).generator().uniform()
        root2 = SeededStream(11)
        root2.child(9).generator().uniform()
        assert root2.child(3).generator().uniform() == first

    def test_nested_paths_address_distinct_streams(self):
        root = SeededStream(5)
        a = root.child(1).child(2).generator().uniform()
        b = root.child(1, 2).generator().uniform()
        assert a == b
        assert a != root.child(2).child(1).generator().uniform()


class TestIntegerPoisson:
    def test_single_integer_pmf(self):
        draws = np.array([
            sample_integer_poisson(SeededStream(i), 0, 0).counts[0] for i in range(10000)
        ])
        for k, pmf in ((0, np.exp(-1.0)), (1, np.exp(-1.0)), (2, np.exp(-1.0) / 2)):
            assert abs(np.mean(draws == k) - pmf) < 0.02

    def test_range_total_is_poisson_sum(self):
        totals = [
            sum(sample_integer_poisson(SeededStream(70000 + i), 0, 9).counts.values())
            for i in range(10000)
        ]
        mean = np.mean(totals)
        se = np.std(totals, ddof=1) / np.sqrt(len(totals))
        assert abs(mean - 10.0) <= 3 * se

    def test_empty_interval_yields_empty_sample(self):
        assert sample_integer_poisson(SeededStream(1), 5, 4).counts == {}

    def test_deterministic_per_stream(self):
        a = sample_integer_poisson(SeededStream(42), -3, 3).counts
        b = sample_integer_poisson(SeededStream(42), -3, 3).counts
        assert a == b
