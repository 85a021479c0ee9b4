"""Sorted id arrays as sets: the one membership test of the map and the BA
problems.

A test set is an id array sorted once, ascending (a repeated id does no
harm); a query is answered by np.searchsorted and one comparison of the ids
found. numpy's own set routines (np.isin, np.intersect1d, np.union1d, and
np.unique without an index or count output) import numpy.ma on first use,
about 1.25 MB of resident memory a run has no other use for;
np.isin(kind="table") instead allocates over the id range.
"""

from __future__ import annotations

import numpy as np


def lookup(sorted_ids: np.ndarray, ids) -> tuple:
    """The rows (N,) in sorted_ids, ascending, of ids (N,), any of which it
    may lack, and whether it holds each (N,); a row is meaningful only where
    it does."""
    rows = np.searchsorted(sorted_ids, ids)
    if not len(sorted_ids):
        return rows, np.zeros(len(rows), dtype=bool)
    return rows, sorted_ids.take(rows, mode="clip") == ids


def member(ids, sorted_ids: np.ndarray) -> np.ndarray:
    """Whether sorted_ids, ascending, holds each of ids (N,): np.isin(ids, sorted_ids)."""
    return lookup(sorted_ids, ids)[1]


def member_pairs(a, b, set_a, set_b) -> np.ndarray:
    """Whether the pairs (set_a[i], set_b[i]) hold each pair (a[j], b[j]),
    by member on one int64 key per pair: a times the span of the b ids, plus
    b less their least, which fits int64 for ids of the map's size."""
    b_ids = np.concatenate([b, set_b])
    if not len(b_ids):
        return np.zeros(len(a), dtype=bool)
    least = b_ids.min()
    span = b_ids.max() - least + 1
    return member(a * span + (b - least), np.sort(set_a * span + (set_b - least)))
