"""Partition enumeration against independent oracles."""

from functools import lru_cache

import pytest

from chigenus.partitions import as_partition, iter_partitions, merge


@lru_cache(maxsize=None)
def pentagonal_count(n: int) -> int:
    """Partition counts via Euler's pentagonal-number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = 1 if k % 2 == 1 else -1
        total += sign * (pentagonal_count(n - g1) + pentagonal_count(n - g2))
        k += 1
    return total


def brute_force_partitions(n: int) -> set[tuple[int, ...]]:
    """Exhaustive enumeration by a different recursion (smallest part last)."""
    if n == 0:
        return {()}
    found = set()
    for first in range(1, n + 1):
        for rest in brute_force_partitions(n - first):
            candidate = tuple(sorted((first,) + rest, reverse=True))
            found.add(candidate)
    return found


def test_zero_has_single_empty_partition():
    assert list(iter_partitions(0)) == [()]


def test_two():
    assert list(iter_partitions(2)) == [(2,), (1, 1)]


def test_six_has_eleven_partitions():
    result = list(iter_partitions(6))
    assert len(result) == 11
    assert set(result) == brute_force_partitions(6)


def test_counts_match_pentagonal_recurrence():
    for n in range(21):
        assert len(list(iter_partitions(n))) == pentagonal_count(n)


def test_iter_partitions_is_lazy_and_in_list_order():
    walk = iter_partitions(10**6)
    assert [next(walk) for _ in range(3)] == [(10**6,), (10**6 - 1, 1), (10**6 - 2, 2)]
    with pytest.raises(ValueError, match="negative"):
        iter_partitions(-1)


def test_reverse_lexicographic_order():
    for n in range(1, 12):
        listing = list(iter_partitions(n))
        assert listing == sorted(listing, reverse=True)
        assert len(set(listing)) == len(listing)
        assert all(sum(p) == n for p in listing)
        assert all(all(p[i] >= p[i + 1] for i in range(len(p) - 1)) for p in listing)


def test_negative_rejected():
    with pytest.raises(ValueError):
        iter_partitions(-1)


def test_merge_sorts():
    assert merge((3, 1), (2, 2)) == (3, 2, 2, 1)
    assert merge((), (5,)) == (5,)


def test_as_partition():
    assert as_partition([1, 3, 2]) == (3, 2, 1)
    with pytest.raises(ValueError):
        as_partition([2, 0])


def test_as_partition_reads_an_iterator_once_and_quotes_it_as_given():
    assert as_partition(iter([1, 3, 2])) == (3, 2, 1)
    assert as_partition(p for p in (2, 2)) == (2, 2)
    with pytest.raises(ValueError, match=r"^partition parts must be positive: \[2, -1\]$"):
        as_partition(iter([2, -1]))
    with pytest.raises(ValueError, match=r"^partition parts must be positive: \[0, 3, 1\]$"):
        as_partition(p for p in (0, 3, 1))
