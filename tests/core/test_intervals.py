"""Unit + property tests for the dirty-interval algebra."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import IntervalSet


def test_add_disjoint_keeps_sorted():
    s = IntervalSet()
    s.add(10, 20)
    s.add(0, 5)
    s.add(30, 40)
    assert list(s) == [(0, 5), (10, 20), (30, 40)]


def test_add_merges_overlap():
    s = IntervalSet([(0, 10), (20, 30)])
    s.add(5, 25)
    assert list(s) == [(0, 30)]


def test_add_merges_adjacent():
    s = IntervalSet([(0, 10)])
    s.add(10, 20)
    assert list(s) == [(0, 20)]


def test_add_empty_interval_noop():
    s = IntervalSet()
    s.add(5, 5)
    assert not s


def test_add_reversed_rejected():
    with pytest.raises(ValueError):
        IntervalSet([(5, 3)])


def test_remove_splits():
    s = IntervalSet([(0, 10)])
    s.remove(3, 7)
    assert list(s) == [(0, 3), (7, 10)]


def test_remove_covers_entirely():
    s = IntervalSet([(2, 4), (6, 8)])
    s.remove(0, 10)
    assert not s


def test_contains_point():
    s = IntervalSet([(5, 10)])
    assert 5 in s
    assert 9 in s
    assert 10 not in s
    assert 4 not in s


def test_total_and_span():
    s = IntervalSet([(0, 5), (10, 12)])
    assert s.total == 7
    assert s.span == (0, 12)
    assert IntervalSet().span == (0, 0)


def test_overlaps():
    s = IntervalSet([(5, 10)])
    assert s.overlaps(0, 6)
    assert s.overlaps(9, 20)
    assert not s.overlaps(0, 5)
    assert not s.overlaps(10, 20)


def test_intersect_clips():
    s = IntervalSet([(0, 10), (20, 30)])
    assert list(s.intersect(5, 25)) == [(5, 10), (20, 25)]


def test_copy_is_independent():
    s = IntervalSet([(0, 10)])
    c = s.copy()
    c.add(20, 30)
    assert list(s) == [(0, 10)]


def test_equality():
    assert IntervalSet([(0, 5)]) == IntervalSet([(0, 3), (3, 5)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 100)),
                max_size=20))
def test_matches_set_model(ops):
    """IntervalSet must agree with a brute-force set-of-points model."""
    s = IntervalSet()
    model = set()
    for a, b in ops:
        lo, hi = min(a, b), max(a, b)
        s.add(lo, hi)
        model |= set(range(lo, hi))
    assert s.total == len(model)
    for p in range(101):
        assert (p in s) == (p in model)
    # Intervals must be disjoint, sorted, non-empty.
    ivs = list(s)
    for (s0, e0), (s1, e1) in zip(ivs, ivs[1:]):
        assert e0 < s1
    assert all(e > s0 for s0, e in ivs)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 60),
                          st.integers(0, 60)), max_size=25))
def test_add_remove_matches_set_model(ops):
    s = IntervalSet()
    model = set()
    for is_add, a, b in ops:
        lo, hi = min(a, b), max(a, b)
        if is_add:
            s.add(lo, hi)
            model |= set(range(lo, hi))
        else:
            s.remove(lo, hi)
            model -= set(range(lo, hi))
    assert s.total == len(model)
    for p in range(61):
        assert (p in s) == (p in model)
    # Canonical form after ANY add/remove sequence: sorted, non-empty,
    # with a strict gap between neighbours (adjacent runs merged).
    ivs = list(s)
    assert all(e > s0 for s0, e in ivs)
    for (_, e0), (s1, _) in zip(ivs, ivs[1:]):
        assert e0 < s1


# -- property suites: round-trips, adjacency, boundaries --------------------

_iv = st.tuples(st.integers(0, 60), st.integers(0, 60)).map(
    lambda ab: (min(ab), max(ab)))
_ivsets = st.lists(_iv, max_size=12).map(
    lambda ivs: IntervalSet([(a, b) for a, b in ivs if a < b]))


def _points(s: IntervalSet) -> set:
    return {p for a, b in s for p in range(a, b)}


@settings(max_examples=200, deadline=None)
@given(_ivsets, _iv)
def test_add_then_remove_equals_remove(s, iv):
    """add(x) ; remove(x) leaves exactly s - x (no stray fragments)."""
    lo, hi = iv
    via_add = s.copy()
    via_add.add(lo, hi)
    via_add.remove(lo, hi)
    direct = s.copy()
    direct.remove(lo, hi)
    assert via_add == direct
    assert _points(via_add) == _points(s) - set(range(lo, hi))


@settings(max_examples=200, deadline=None)
@given(_ivsets, _iv)
def test_remove_then_add_equals_add(s, iv):
    """remove(x) ; add(x) leaves exactly s | x."""
    lo, hi = iv
    via_remove = s.copy()
    via_remove.remove(lo, hi)
    via_remove.add(lo, hi)
    direct = s.copy()
    direct.add(lo, hi)
    assert via_remove == direct
    assert _points(via_remove) == _points(s) | set(range(lo, hi))


@settings(max_examples=200, deadline=None)
@given(_ivsets, _iv)
def test_intersect_matches_set_model(s, iv):
    lo, hi = iv
    clipped = s.intersect(lo, hi)
    assert _points(clipped) == _points(s) & set(range(lo, hi))
    # Clipping to the full span is the identity.
    a, b = s.span
    assert s.intersect(a, b) == s


@settings(max_examples=300, deadline=None)
@given(_ivsets, _iv)
def test_gaps_complement_the_set_inside_the_window(s, iv):
    """gaps ∪ (s ∩ [lo, hi)) == [lo, hi), and the two are disjoint —
    what a frame lacks plus what it has is exactly what was asked."""
    lo, hi = iv
    gaps = s.gaps(lo, hi)
    assert all(lo <= a < b <= hi for a, b in gaps)
    # Sorted, and strictly separated by the valid runs between them.
    for (_, b0), (a1, _) in zip(gaps, gaps[1:]):
        assert b0 < a1
    missing = {p for a, b in gaps for p in range(a, b)}
    held = _points(s) & set(range(lo, hi))
    assert missing.isdisjoint(held)
    assert missing | held == set(range(lo, hi))
    assert sum(b - a for a, b in gaps) + s.intersect(lo, hi).total \
        == hi - lo


def test_gaps_of_empty_and_covering_sets():
    assert IntervalSet().gaps(3, 9) == [(3, 9)]
    assert IntervalSet([(0, 10)]).gaps(3, 9) == []
    assert IntervalSet([(0, 10)]).gaps(5, 5) == []
    assert IntervalSet([(2, 4), (6, 8)]).gaps(0, 10) == \
        [(0, 2), (4, 6), (8, 10)]


@settings(max_examples=200, deadline=None)
@given(_ivsets, st.integers(0, 60), st.integers(0, 61))
def test_intersect_split_reassembles(s, mid, width):
    """Splitting a window at any midpoint and re-adding both halves
    reconstructs the clipped set — intersect never loses or invents
    bytes at the seam."""
    lo, hi = s.span
    mid = min(max(mid, lo), hi)
    left, right = s.intersect(lo, mid), s.intersect(mid, hi)
    rejoined = left.copy()
    for a, b in right:
        rejoined.add(a, b)
    assert rejoined == s.intersect(lo, hi) == s
    assert left.total + right.total == s.total


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 60), st.integers(0, 60), st.integers(0, 60))
def test_adjacent_adds_merge_to_one(a, b, c):
    """[a,b) + [b,c) is indistinguishable from [a,c)."""
    lo, mid, hi = sorted((a, b, c))
    split = IntervalSet()
    split.add(lo, mid)
    split.add(mid, hi)
    whole = IntervalSet()
    whole.add(lo, hi)
    assert split == whole
    assert len(split) <= 1


@settings(max_examples=200, deadline=None)
@given(_ivsets, _iv)
def test_overlaps_matches_point_model(s, iv):
    lo, hi = iv
    assert s.overlaps(lo, hi) == any(
        p in s for p in range(lo, hi))


@settings(max_examples=200, deadline=None)
@given(_ivsets, st.integers(0, 61))
def test_overlaps_halfopen_boundaries(s, x):
    """Half-open semantics: an empty probe never overlaps, and a probe
    ending exactly at an interval's start (or starting at its end)
    does not touch it."""
    assert not s.overlaps(x, x)
    for a, b in s:
        assert not s.overlaps(b, b + 1) or (b in s)
        if a > 0:
            assert not s.overlaps(a - 1, a) or (a - 1) in s
        assert s.overlaps(a, a + 1)
        assert s.overlaps(b - 1, b)
