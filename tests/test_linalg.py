"""Exact solving and rank on one Gauss-Jordan pass."""

from fractions import Fraction

from chigenus.linalg import rank, solve


def test_rank():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[0, 1], [1, 0]]) == 2
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[Fraction(1, 2), 1, 0], [1, 2, 1]]) == 2


def test_solve_consistent_and_inconsistent():
    rows = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)], [Fraction(1), Fraction(-1)]]
    assert solve(rows, [Fraction(3), Fraction(6), Fraction(1)]) == [2, 1]
    assert solve(rows, [Fraction(3), Fraction(7), Fraction(1)]) is None
