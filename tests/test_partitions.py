"""Partition enumeration against independent oracles."""

from functools import lru_cache

import pytest

from chigenus.engine import ManifoldData
from chigenus.partitions import as_partition, iter_partitions, merge
from oracles import descending_partitions


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


def test_the_walk_lists_what_the_recursive_walk_lists():
    # p(30) = 5604
    for n in range(31):
        assert list(iter_partitions(n)) == list(descending_partitions(n, n)), n
    assert len(list(iter_partitions(30))) == 5604


def test_a_huge_n_costs_its_first_partition_only():
    # a walk over an array of n entries would fail here, or allocate n words
    assert next(iter_partitions(10**20)) == (10**20,)
    with pytest.raises(ValueError, match=r"missing \[100000000000000000000\]$"):
        ManifoldData(10**20, {})


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


def test_a_refusal_quotes_a_long_partition_by_a_prefix_and_its_part_count():
    with pytest.raises(ValueError) as refusal:
        as_partition([0] * 100_000)
    message = "partition parts must be positive: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, ...] (100000 parts)"
    assert str(refusal.value) == message
    # twelve parts, as many as a partition of the command line's default cap, are quoted whole
    with pytest.raises(ValueError) as refusal:
        as_partition([1] * 11 + [0])
    assert str(refusal.value) == f"partition parts must be positive: {[1] * 11 + [0]}"
