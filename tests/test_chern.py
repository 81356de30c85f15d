"""Chern monomial algebra and the power sums of the Chern roots."""

import random
from fractions import Fraction

import pytest

from chigenus.chern import (
    ChernPolynomial,
    graded_exponential,
    graded_part,
    graded_product,
    power_sum_in_chern,
)
from chigenus.partitions import partitions_of
from chigenus.ypoly import YPolynomial


def elementary_values(roots: list[int]) -> list[Fraction]:
    """e_0..e_n of the given roots by the standard one-row recurrence."""
    es = [Fraction(1)] + [Fraction(0)] * len(roots)
    for r in roots:
        for i in range(len(roots), 0, -1):
            es[i] += es[i - 1] * r
    return es


def substitute_roots(poly: ChernPolynomial, roots: list[int]) -> YPolynomial:
    es = elementary_values(roots)
    values = {}
    for part in partitions_of(poly.grade):
        value = Fraction(1)
        for lam in part:
            value *= es[lam] if lam < len(es) else 0
        values[part] = value
    return poly.evaluate(values)


def test_first_power_sums():
    assert power_sum_in_chern(1, 3) == ChernPolynomial.monomial((1,))
    p2 = power_sum_in_chern(2, 3)
    assert p2 == ChernPolynomial(2, {(1, 1): 1, (2,): -2})
    p3 = power_sum_in_chern(3, 3)
    assert p3 == ChernPolynomial(3, {(1, 1, 1): 1, (2, 1): -3, (3,): 3})


def test_power_sum_beyond_rank():
    # with c_j = 0 for j > 1, p_2 = c_1^2 - 2 c_2 collapses to c_1^2
    assert power_sum_in_chern(2, 1) == ChernPolynomial(2, {(1, 1): 1})


def test_power_sums_against_split_roots():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        roots = [rng.randint(-4, 4) for _ in range(n)]
        for k in range(1, n + 1):
            direct = sum(Fraction(r) ** k for r in roots)
            value = substitute_roots(power_sum_in_chern(k, n), roots)
            assert value == YPolynomial.constant(direct), (roots, k)


def test_homogeneity_enforced():
    with pytest.raises(ValueError):
        ChernPolynomial(2, {(1,): 1})
    with pytest.raises(ValueError):
        ChernPolynomial(3, {(1, 2): 1})  # not sorted


def test_monomial_product():
    a = ChernPolynomial.monomial((2, 1))
    b = ChernPolynomial.monomial((3,))
    assert a * b == ChernPolynomial.monomial((3, 2, 1))


def test_evaluate_missing_partition():
    poly = ChernPolynomial(2, {(2,): 1})
    with pytest.raises(ValueError, match="missing Chern number"):
        poly.evaluate({(1, 1): Fraction(1)})


def test_canonical_term_order():
    poly = ChernPolynomial(4, {(1, 1, 1, 1): 1, (4,): 1, (2, 2): 1})
    assert [p for p, _ in poly.items()] == [(4,), (2, 2), (1, 1, 1, 1)]


def test_graded_product_truncates():
    a = {(1,): YPolynomial.one()}
    b = {(2,): YPolynomial.one(), (2, 1): YPolynomial.one()}
    out = graded_product(a, b, 3)
    assert out == {(2, 1): YPolynomial.one()}


def test_graded_exponential_matches_series_exp():
    # exp(t*c_1) truncated: weight-m part must be c_1^m t^m / m!
    t = YPolynomial.variable()
    result = graded_exponential({(1,): t}, 4)
    from math import factorial

    for m in range(5):
        part = graded_part(result, m)
        expected = ChernPolynomial(
            m, {tuple([1] * m): YPolynomial({m: Fraction(1, factorial(m))})}
        )
        assert part == expected


def test_graded_exponential_rejects_constant_term():
    with pytest.raises(ValueError):
        graded_exponential({(): YPolynomial.one()}, 3)
