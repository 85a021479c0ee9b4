import numpy as np
from hypothesis import example, given, settings, strategies as st

from drslam.idsets import lookup, member, member_pairs

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


# pairs of map ids: keyframe ids and point ids, negative ones included
PAIRS = st.lists(st.tuples(st.integers(-3, 40), st.integers(-5, 10 ** 6)), max_size=30)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(PAIRS, PAIRS, st.data())
@example([], [], None)
@example([(0, 1)], [], None)
@example([], [(0, 1)], None)
def test_member_pairs_is_a_membership_test_of_pairs(query, test, data):
    # some query pairs taken from the test set, so that both answers occur
    if data is not None and test:
        query = query + data.draw(st.lists(st.sampled_from(test), max_size=5))
    a, b = (np.array([pair[i] for pair in query], dtype=np.int64).reshape(-1) for i in (0, 1))
    set_a, set_b = (np.array([pair[i] for pair in test], dtype=np.int64).reshape(-1)
                    for i in (0, 1))
    held = member_pairs(a, b, set_a, set_b)
    assert held.dtype == bool and held.shape == a.shape
    assert held.tolist() == [pair in set(test) for pair in query]
