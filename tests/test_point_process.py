"""Seeded streams."""

import numpy as np
import pytest

from maxstorm import SeededStream, ValidationError


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

    @pytest.mark.parametrize(
        "args", [(-1,), (1, -2), (1, 0, (3, -1))], ids=["seed", "stream_id", "path"]
    )
    def test_negative_keys_are_rejected_at_construction(self, args):
        # numpy would raise its own ValueError only when the generator is made.
        with pytest.raises(ValidationError, match="non-negative"):
            SeededStream(*args)
