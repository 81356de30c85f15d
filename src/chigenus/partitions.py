"""Integer partitions, the index set for Chern monomials."""

from __future__ import annotations

from typing import Iterable, Iterator

Partition = tuple[int, ...]


def partitions_of(n: int) -> list[Partition]:
    """All partitions of ``n`` in reverse-lexicographic order.

    The largest part comes first inside each partition and partitions are
    listed from ``(n,)`` down to ``(1,) * n``; ``partitions_of(0)`` is the
    single empty partition.
    """
    if n < 0:
        raise ValueError(f"cannot partition the negative integer {n}")
    return list(_descending(n, n))


def partition_count(n: int, stop_above: int) -> int:
    """p(n) by Euler's pentagonal recurrence, or the first p(m), m <= n, over ``stop_above``.

    p never decreases, so that p(m) shows p(n) > ``stop_above`` without computing p(n).
    """
    counts = [1]
    for m in range(1, n + 1):
        if counts[-1] > stop_above:
            break
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= m:
            sign = 1 if k % 2 else -1
            total += sign * counts[m - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= m:
                total += sign * counts[m - k * (3 * k + 1) // 2]
            k += 1
        counts.append(total)
    return counts[-1]


def _descending(n: int, largest: int) -> Iterator[Partition]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _descending(n - first, first):
            yield (first,) + rest


def as_partition(parts: Iterable[int]) -> Partition:
    """Canonicalize a sequence of positive parts, rejecting bad input."""
    result = tuple(sorted(parts, reverse=True))
    if any(p <= 0 for p in result):
        raise ValueError(f"partition parts must be positive: {list(parts)}")
    return result


def weight(partition: Partition) -> int:
    return sum(partition)


def merge(a: Partition, b: Partition) -> Partition:
    """Concatenation of two partitions, resorted; the product of monomials."""
    return tuple(sorted(a + b, reverse=True))
