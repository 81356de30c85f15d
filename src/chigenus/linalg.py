"""Exact rational linear algebra on one Gauss-Jordan pass.

Matrices are lists of rows of ``Fraction``; nothing is ever rounded, so a
zero test on a reduced entry is a proof, not a tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def _gauss_jordan(aug: list[list[Fraction]], cols: int) -> dict[int, int]:
    """Reduce ``aug`` in place over its first ``cols`` columns.

    Returns the row holding the unit pivot of each pivot column; the other
    entries of a pivot column are cleared in every row.
    """
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [v - factor * w for v, w in zip(aug[i], aug[r])]
        pivot_of_col[c] = r
        r += 1
    return pivot_of_col


def solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve an overdetermined rational system; None when inconsistent.

    Gaussian elimination on the augmented matrix; free variables are set to
    zero, so any consistent system yields one explicit solution.
    """
    if not rows:
        return []
    cols = len(rows[0])
    aug = [row + [b] for row, b in zip(rows, rhs)]
    pivot_of_col = _gauss_jordan(aug, cols)
    if any(all(v == 0 for v in row[:-1]) and row[-1] != 0 for row in aug):
        return None
    solution = [Fraction(0)] * cols
    for c, row_index in pivot_of_col.items():
        solution[c] = aug[row_index][-1]
    return solution


def rank(matrix: Sequence[Sequence[Fraction | int]]) -> int:
    """Number of pivots of a rational matrix."""
    work = [[Fraction(v) for v in row] for row in matrix]
    return len(_gauss_jordan(work, len(work[0]) if work else 0))
