"""Integer partitions, the index set for Chern monomials.

:func:`iter_partitions` is the one walk over them: a caller that needs a
list takes ``list`` of it, and a partition's weight is ``sum(partition)``.
The walk is iterative and lazy, Zoghbi and Stojmenovic's ZS1 (Int. J.
Comput. Math. 70, 1998): it steps from one partition to the next in
reverse-lexicographic order without recursion, and makes each only when
it is asked for, so claiming a huge ``n`` costs nothing. A refusal quotes
a partition through :func:`quote_parts`, whose length is bounded.
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
    return _walk(n)


def _walk(n: int) -> Iterator[Partition]:
    """ZS1: the parts above 1 in a list and a count of the trailing 1s, stepped without recursion.

    Each step lowers the last part above 1 by one, to r, and deals the freed
    1 and the trailing 1s into parts of r and a remainder; a last part of 2
    just becomes two 1s (Zoghbi and Stojmenovic, Int. J. Comput. Math. 70,
    1998). The first partition allocates nothing of size n.
    """
    big, ones = ([n], 0) if n > 1 else ([], n)
    yield tuple(big) + (1,) * ones
    while big:
        r = big[-1] - 1
        if r == 1:
            big.pop()
            ones += 2
        else:
            big[-1] = r
            t = ones + 1
            while t >= r:
                big.append(r)
                t -= r
            if t > 1:
                big.append(t)
                ones = 0
            else:
                ones = t
        yield tuple(big) + (1,) * ones


# a refusal quotes a list of up to this many parts whole, as every partition of a dimension up
# to the command line's default cap (12), and a longer one by this many parts and its part count
_QUOTE_PARTS = 12


def quote_parts(parts: list[int]) -> str:
    """``str(parts)``, or past _QUOTE_PARTS parts the first _QUOTE_PARTS and the part count, for a refusal."""
    if len(parts) <= _QUOTE_PARTS:
        return str(parts)
    return f"{str(parts[:_QUOTE_PARTS])[:-1]}, ...] ({len(parts)} parts)"


def as_partition(parts: Iterable[int]) -> Partition:
    """Canonicalize positive parts, read once from any iterable; a refusal quotes them as given."""
    given = list(parts)
    result = tuple(sorted(given, reverse=True))
    if result and result[-1] <= 0:
        raise ValueError(f"partition parts must be positive: {quote_parts(given)}")
    return result


def merge(a: Partition, b: Partition) -> Partition:
    """Concatenation of two partitions, resorted; the product of monomials."""
    return tuple(sorted(a + b, reverse=True))
