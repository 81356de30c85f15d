"""Integer partitions, the index set for Chern monomials.

:func:`iter_partitions` is the one walk over them: a caller that needs a
list takes ``list`` of it, and a partition's weight is ``sum(partition)``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

Partition = tuple[int, ...]


def iter_partitions(n: int) -> Iterator[Partition]:
    """The partitions of ``n`` one at a time, in reverse-lexicographic order.

    The largest part comes first inside each partition and partitions come
    from ``(n,)`` down to ``(1,) * n``; 0 has the single empty partition.
    Each is made only when it is asked for, so a caller that stops early
    pays for what it read, whatever ``n`` is.
    """
    if n < 0:
        raise ValueError(f"cannot partition the negative integer {n}")
    return _descending(n, n)


def _descending(n: int, largest: int) -> Iterator[Partition]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _descending(n - first, first):
            yield (first,) + rest


def as_partition(parts: Iterable[int]) -> Partition:
    """Canonicalize positive parts, read once from any iterable; a refusal quotes them as given."""
    given = list(parts)
    result = tuple(sorted(given, reverse=True))
    if result and result[-1] <= 0:
        raise ValueError(f"partition parts must be positive: {given}")
    return result


def merge(a: Partition, b: Partition) -> Partition:
    """Concatenation of two partitions, resorted; the product of monomials."""
    return tuple(sorted(a + b, reverse=True))
