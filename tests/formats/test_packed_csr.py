"""The CSR-backed packed layout against a per-group reference.

``PackedRecords`` holds one record array plus group offsets and every
operation on it is a fixed number of numpy calls.  The reference below is
the straightforward layout it replaced — a Python list of ``(key, rows)``
with one numpy call per group — kept here so that pack / take / column /
unpack and every built-in add-on are compared group by group.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import Dataset
from repro.formats import Field, RecordSchema, pack
from repro.ops.base import AddOnOperator, get_addon

SCHEMA = RecordSchema(
    id="kvw",
    fields=(
        Field("k", "long"),
        Field("v", "double"),
        Field("w", "integer"),
        Field("f", "float"),
    ),
    input_format="binary",
)

ADDONS = ("count", "max", "min", "mean", "sum")
VALUE_FIELDS = ("v", "w", "f")


def records_of(keys) -> np.ndarray:
    """Records with the given keys and values that make every row distinct."""
    keys = np.asarray(keys, dtype=np.int64)
    n = len(keys)
    rng = np.random.default_rng(n)
    out = np.empty(n, dtype=SCHEMA.dtype)
    out["k"] = keys
    out["v"] = rng.normal(size=n) * 1e3
    # near the int32 limit: a sum that accumulated in int32 would wrap
    out["w"] = 2**31 - 1 - np.arange(n)
    out["f"] = rng.normal(size=n)
    return out


# -- the per-group reference ----------------------------------------------------


def ref_pack(records: np.ndarray, key: str) -> list[tuple]:
    """Ascending keys; each group's rows in input order."""
    return [
        (k, records[records[key] == k]) for k in sorted(set(records[key].tolist()))
    ]


def ref_unpack(groups: list[tuple]) -> np.ndarray:
    if not groups:
        return np.empty(0, dtype=SCHEMA.dtype)
    return np.concatenate([rows for _, rows in groups])


REF_AGGREGATES = {
    "count": lambda rows, field: len(rows),
    "max": lambda rows, field: rows[field].max(),
    "min": lambda rows, field: rows[field].min(),
    "mean": lambda rows, field: rows[field].mean(),
    "sum": lambda rows, field: rows[field].sum(),
}


def assert_same_groups(packed, groups: list[tuple]) -> None:
    assert packed.num_groups == len(groups)
    assert packed.keys.tolist() == [k for k, _ in groups]
    assert packed.counts.tolist() == [len(rows) for _, rows in groups]
    for (key, rows), (ref_key, ref_rows) in zip(packed.groups, groups):
        assert key == ref_key
        assert rows.tobytes() == ref_rows.tobytes()


# -- shapes ---------------------------------------------------------------------

NAMED_KEYS = {
    "empty": [],
    "one-record": [7],
    "all-equal": [3] * 40,
    "descending": list(range(30, 0, -1)),
    "one-giant-group": [5] * 20_000 + [1, 9, 9, 2],
    "interleaved": [2, 1, 2, 1, 3, 1, 2],
}

random_keys = st.lists(st.integers(-5, 12), max_size=120)


def check_layout(keys) -> None:
    records = records_of(keys)
    groups = ref_pack(records, "k")
    packed = pack(records, SCHEMA, "k")
    assert_same_groups(packed, groups)
    assert packed.num_records == len(records)
    assert packed.nbytes == sum(rows.nbytes for _, rows in groups)
    assert packed.unpack().tobytes() == ref_unpack(groups).tobytes()

    data = Dataset.from_packed(packed)
    for name in SCHEMA.field_names:
        assert data.column(name).tolist() == [rows[name][0] for _, rows in groups]

    # take: reversed, with repeats, and nothing at all
    n = len(groups)
    for indices in (np.arange(n)[::-1], np.arange(n).repeat(2)[::3], np.empty(0, np.int64)):
        taken = data.take(indices).packed
        assert_same_groups(taken, [groups[int(i)] for i in indices])



def check_addon(keys, addon_name: str, field: str) -> None:
    records = records_of(keys)
    groups = ref_pack(records, "k")
    addon = get_addon(addon_name)
    out = addon.apply(pack(records, SCHEMA, "k"), "agg", field if addon.needs_field else None)
    assert out.records.dtype == SCHEMA.with_field("agg", addon.attr_type).dtype
    assert out.indptr.tolist() == pack(records, SCHEMA, "k").indptr.tolist()
    for name in SCHEMA.field_names:
        assert out.records[name].tobytes() == ref_unpack(groups)[name].tobytes()
    column = records[field]
    for (_, rows), (_, ref_rows) in zip(out.groups, groups):
        got = rows["agg"]
        assert np.all(got == got[0])  # one value, broadcast over the group
        want = np.float64(REF_AGGREGATES[addon_name](ref_rows, field))
        if addon_name in ("sum", "mean") and column.dtype.kind == "f":
            # the segmented sum adds left to right where ndarray.sum() adds
            # pairwise: both are within (n-1) eps sum|x| of the exact sum
            # (divided by n for the mean, which rounds once more)
            eps = np.finfo(column.dtype).eps
            bound = 2 * len(ref_rows) * eps * np.abs(ref_rows[field]).sum(dtype=np.float64)
            if addon_name == "mean":
                bound = bound / len(ref_rows) + eps * abs(want)
            assert abs(got[0] - want) <= bound
        else:
            assert got[0] == want


@pytest.mark.parametrize("shape", sorted(NAMED_KEYS))
def test_named_shapes_match_the_per_group_reference(shape):
    check_layout(NAMED_KEYS[shape])


@settings(deadline=None, max_examples=60)
@given(random_keys)
def test_random_shapes_match_the_per_group_reference(keys):
    check_layout(keys)


@pytest.mark.parametrize("field", VALUE_FIELDS)
@pytest.mark.parametrize("addon_name", ADDONS)
@pytest.mark.parametrize("shape", sorted(NAMED_KEYS))
def test_builtin_addons_on_named_shapes(shape, addon_name, field):
    check_addon(NAMED_KEYS[shape], addon_name, field)


@settings(deadline=None, max_examples=40)
@given(random_keys, st.sampled_from(ADDONS), st.sampled_from(VALUE_FIELDS))
def test_builtin_addons_on_random_shapes(keys, addon_name, field):
    check_addon(keys, addon_name, field)


def test_integer_sum_does_not_wrap():
    """``integer`` fields are int32; the sum accumulates as ndarray.sum() does."""
    records = records_of([1, 1, 1])
    out = get_addon("sum").apply(pack(records, SCHEMA, "k"), "agg", "w")
    assert out.records["agg"].tolist() == [float(3 * (2**31 - 1) - 3)] * 3


def test_user_addon_with_only_compute_group_still_works():
    """The documented extension point: one aggregate per group, in Python."""

    class Spread(AddOnOperator):
        name = "spread"
        attr_type = "double"

        def compute_group(self, rows, field):
            return rows[field].max() - rows[field].min()

    records = records_of(NAMED_KEYS["interleaved"])
    out = Spread().apply(pack(records, SCHEMA, "k"), "agg", "w")
    for (_, rows), (_, ref_rows) in zip(out.groups, ref_pack(records, "k")):
        assert rows["agg"].tolist() == [float(np.ptp(ref_rows["w"]))] * len(ref_rows)


def test_addon_that_implements_nothing_says_so():
    class Nothing(AddOnOperator):
        name = "nothing"
        needs_field = False

    with pytest.raises(NotImplementedError, match="compute_group"):
        Nothing().apply(pack(records_of([1, 2]), SCHEMA, "k"), "agg")
