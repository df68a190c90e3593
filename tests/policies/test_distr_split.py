"""Distribution policy registry and split policy grammar."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PolicyError
from repro.policies import (
    BlockPolicy,
    CyclicPolicy,
    DistributionPolicy,
    GraphVertexCutPolicy,
    SplitPolicy,
    get_policy,
    register_policy,
)


class TestRegistry:
    def test_lookup_aliases(self):
        assert isinstance(get_policy("cyclic"), CyclicPolicy)
        assert isinstance(get_policy("roundRobin"), CyclicPolicy)  # Figure 8 name
        assert isinstance(get_policy("block"), BlockPolicy)
        assert isinstance(get_policy("graphVertexCut"), GraphVertexCutPolicy)

    def test_unknown(self):
        with pytest.raises(PolicyError, match="unknown"):
            get_policy("mystery")

    def test_register_custom(self):
        class Reverse(DistributionPolicy):
            name = "reverse"

            def permutation(self, n, p):
                return np.arange(n)[::-1].copy()

            def counts(self, n, p):
                base, extra = divmod(n, p)
                return np.array([base + (1 if i < extra else 0) for i in range(p)])

        register_policy("reverse-test", Reverse)
        assert isinstance(get_policy("reverse-test"), Reverse)
        with pytest.raises(PolicyError, match="already"):
            register_policy("reverse-test", Reverse)


def assign(policy, n, num_partitions):
    """The partition of each entry position, read off the permutation."""
    owners = np.empty(n, dtype=np.int64)
    owners[policy.permutation(n, num_partitions)] = np.repeat(
        np.arange(num_partitions), policy.counts(n, num_partitions))
    return owners


class TestAssign:
    def test_cyclic_assign(self):
        owners = assign(CyclicPolicy(), 7, 3)
        assert owners.tolist() == [0, 1, 2, 0, 1, 2, 0]

    def test_block_assign(self):
        owners = assign(BlockPolicy(), 7, 3)
        assert owners.tolist() == [0, 0, 0, 1, 1, 2, 2]

    @given(st.integers(0, 200), st.integers(1, 16))
    def test_property_cyclic_owner_is_mod(self, n, p):
        owners = assign(CyclicPolicy(), n, p)
        assert np.array_equal(owners, np.arange(n) % p)

    @given(st.integers(0, 200), st.integers(1, 16))
    def test_property_block_owners_nondecreasing(self, n, p):
        owners = assign(BlockPolicy(), n, p)
        assert np.all(np.diff(owners) >= 0)


class TestSplitPolicy:
    def test_parse_figure10(self):
        """The hybrid-cut policy after $threshold resolution."""
        policy = SplitPolicy.parse("{>=, 200},{<, 200}")
        assert policy.num_outputs == 2
        routes = policy.route(np.array([500, 3, 200, 199]))
        assert routes.tolist() == [0, 1, 0, 1]

    def test_all_comparisons(self):
        """Each operator routes matches to output 0, the catch-all to output 1."""
        values = np.array([4, 5, 6])
        for op, expected in [
            (">", [1, 1, 0]),
            (">=", [1, 0, 0]),
            ("<", [0, 1, 1]),
            ("<=", [0, 0, 1]),
            ("==", [1, 0, 1]),
            ("!=", [0, 1, 0]),
        ]:
            policy = SplitPolicy.parse(f"{{{op}, 5}},{{!=, -999999}}")
            assert policy.route(values).tolist() == expected, op

    def test_first_match_wins(self):
        policy = SplitPolicy.parse("{>=, 0},{>=, 10}")
        assert policy.route(np.array([50])).tolist() == [0]

    def test_unmatched_entry_raises(self):
        policy = SplitPolicy.parse("{>=, 10}")
        with pytest.raises(PolicyError, match="no split condition"):
            policy.route(np.array([5]))

    def test_parse_garbage(self):
        with pytest.raises(PolicyError, match="parse"):
            SplitPolicy.parse("high or low")

    def test_parse_unresolved_variable(self):
        with pytest.raises(PolicyError, match="numeric"):
            SplitPolicy.parse("{>=, $threshold}")

    def test_bad_comparison(self):
        from repro.policies import SplitCondition

        with pytest.raises(PolicyError):
            SplitCondition("~", 1.0)

    @given(
        st.lists(st.integers(-1000, 1000), min_size=1, max_size=100),
        st.integers(-500, 500),
    )
    def test_property_threshold_binary_split_partitions_data(self, keys, threshold):
        policy = SplitPolicy.parse(f"{{>=, {threshold}}},{{<, {threshold}}}")
        arr = np.array(keys)
        routes = policy.route(arr)
        assert np.all((arr[routes == 0] >= threshold))
        assert np.all((arr[routes == 1] < threshold))
        assert len(routes) == len(keys)
