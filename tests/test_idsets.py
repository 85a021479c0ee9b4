import numpy as np
from hypothesis import example, given, settings, strategies as st

from drslam.idsets import lookup, member

INT64 = np.iinfo(np.int64)
# small ids, so that draws repeat and interleave, and ids anywhere in int64
# up to its extremes, so that some fall outside the test set's range
IDS = st.lists(st.one_of(st.integers(-4, 4), st.integers(INT64.min, INT64.max),
                         st.sampled_from([INT64.min, INT64.max])), max_size=30)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(IDS, IDS)
@example([], [])
@example([3, 3, 3], [])
@example([], [1, 2])
@example([INT64.min, INT64.max, 0], [INT64.max])
@example([INT64.max, 5, INT64.min], [INT64.min, 7])
def test_member_is_np_isin(query, test):
    query = np.array(query, dtype=np.int64)
    sorted_ids = np.sort(np.array(test, dtype=np.int64))     # repeats kept
    held = member(query, sorted_ids)
    assert held.dtype == bool and held.shape == query.shape
    assert held.tolist() == np.isin(query, sorted_ids).tolist()
    rows, also = lookup(sorted_ids, query)
    assert also.tolist() == held.tolist()
    assert sorted_ids[rows[held]].tolist() == query[held].tolist()
