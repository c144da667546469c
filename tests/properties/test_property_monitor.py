"""Property-based tests for the metric containers."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.simcore.monitor import DEFAULT_BUCKETS, SampleSeries
from tests.oracle import reference_histogram

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)

#: Observations around the bucket bounds: the bounds themselves, values a
#: hair either side, NaN, infinities and a spread of ordinary floats.
observations = st.one_of(
    st.sampled_from(DEFAULT_BUCKETS),
    st.sampled_from(DEFAULT_BUCKETS).map(lambda b: float(np.nextafter(b, np.inf))),
    st.sampled_from(DEFAULT_BUCKETS).map(lambda b: float(np.nextafter(b, -np.inf))),
    st.floats(min_value=-1.0, max_value=20.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


@given(st.lists(finite, min_size=1, max_size=200))
def test_sample_series_mean_between_min_and_max(values):
    series = SampleSeries("x")
    for v in values:
        series.add(v)
    assert min(values) - 1e-9 <= series.mean() <= max(values) + 1e-9


@given(st.lists(observations, max_size=200), st.integers(min_value=0, max_value=3))
def test_streaming_histogram_matches_reference(values, batches):
    """Buckets and count equal the raw-value re-bucketing, NaN skipped,
    whether the values arrive one by one or as array batches."""
    series = SampleSeries("x")
    if batches:
        for chunk in np.array_split(np.array(values, dtype=float), batches):
            series.add_many(chunk)
    else:
        for value in values:
            series.add(value)
    buckets, count = reference_histogram(values)
    assert series.cumulative_buckets() == buckets
    assert series.count == count


@given(st.lists(finite, max_size=200))
def test_add_many_matches_add(values):
    one_by_one = SampleSeries("x")
    for value in values:
        one_by_one.add(value)
    batched = SampleSeries("x")
    batched.add_many(np.array(values, dtype=float))
    assert batched.bucket_counts == one_by_one.bucket_counts
    assert batched.count == one_by_one.count
    assert np.isclose(batched.sum, one_by_one.sum, rtol=1e-9, atol=1e-3)
