"""Chern monomial algebra and the power sums of the Chern roots."""

import random
from fractions import Fraction
from math import factorial, lcm

import pytest

from chigenus.chern import (
    ChernPolynomial,
    graded_exponential,
    power_sum_in_chern,
)
from chigenus.partitions import iter_partitions
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
    for part in iter_partitions(poly.grade):
        value = Fraction(1)
        for lam in part:
            value *= es[lam] if lam < len(es) else 0
        values[part] = value
    return poly.evaluate(values)


def test_first_power_sums():
    assert power_sum_in_chern(1, 3) == ChernPolynomial(1, {(1,): 1})
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


def test_evaluate_missing_partition():
    poly = ChernPolynomial(2, {(2,): 1})
    with pytest.raises(ValueError, match="missing Chern number"):
        poly.evaluate({(1, 1): Fraction(1)})


def random_chern_polynomial(rng: random.Random, grade: int) -> ChernPolynomial:
    """Coefficients of y-degree up to 4 over unlike denominators, on some of the partitions."""
    terms = {}
    for part in iter_partitions(grade):
        if rng.random() < 0.7:
            denominators = [rng.choice((1, 2, 3, 4, 5, 7, 9, 12)) for _ in range(rng.randint(1, 5))]
            terms[part] = YPolynomial(
                {d: Fraction(rng.randint(-30, 30), q) for d, q in enumerate(denominators)}
            )
    return ChernPolynomial(grade, terms)


def random_chern_numbers(rng: random.Random, grade: int) -> dict:
    """A mix of ints, fractional Fractions, zeros and negatives."""
    values = {}
    for part in iter_partitions(grade):
        kind = rng.randrange(4)
        if kind == 0:
            values[part] = rng.randint(-50, 50)
        elif kind == 1:
            values[part] = Fraction(rng.randint(-50, 50), rng.choice((2, 3, 6, 8, 11, 25)))
        elif kind == 2:
            values[part] = 0 if rng.random() < 0.5 else Fraction(0)
        else:
            values[part] = -rng.randint(1, 50)
    return values


def plain_sum(poly: ChernPolynomial, values: dict) -> YPolynomial:
    """sum_p coeff_p(y) * values[p] on Fractions, term by term."""
    acc: dict[int, Fraction] = {}
    for part, coeff in poly.items():
        for degree, c in coeff.items():
            acc[degree] = acc.get(degree, Fraction(0)) + c * values[part]
    return YPolynomial(acc)


def test_evaluate_matches_the_plain_fraction_sum():
    rng = random.Random(41)
    for _ in range(200):
        grade = rng.randint(0, 6)
        poly = random_chern_polynomial(rng, grade)
        for _ in range(3):  # repeat evaluations reuse the cleared form
            values = random_chern_numbers(rng, grade)
            result = poly.evaluate(values)
            assert result == plain_sum(poly, values), (poly, values)
            assert all(type(c) is Fraction for _, c in result.items())


def test_evaluate_edge_cases():
    assert ChernPolynomial(3).evaluate({}) == YPolynomial.zero()
    assert ChernPolynomial(2).evaluate({(2,): Fraction(5), (1, 1): 3}) == YPolynomial.zero()
    poly = ChernPolynomial(
        2, {(2,): YPolynomial({0: Fraction(1, 6), 2: Fraction(-3, 4)}), (1, 1): Fraction(5, 9)}
    )
    values = {(2,): Fraction(3, 2), (1, 1): -4}
    expected = YPolynomial({0: Fraction(1, 4) - Fraction(20, 9), 2: Fraction(-9, 8)})
    assert poly.evaluate(values) == expected
    # keys the polynomial does not use are ignored
    assert poly.evaluate({**values, (3,): Fraction(1, 7), (1,): 2}) == expected
    assert poly.evaluate(values) == expected
    # all-zero values give the zero polynomial
    assert poly.evaluate({(2,): 0, (1, 1): Fraction(0)}) == YPolynomial.zero()
    with pytest.raises(ValueError, match=r"^missing Chern number for partition \[1, 1\]$"):
        poly.evaluate({(2,): Fraction(1)})


def test_cleared_form_is_canonical():
    rng = random.Random(7)
    for _ in range(100):
        grade = rng.randint(0, 6)
        poly = random_chern_polynomial(rng, grade)
        denominators = [c.denominator for _, coeff in poly.items() for _, c in coeff.items()]
        assert poly.denominator == lcm(*denominators)
        assert len(poly) == len(poly.items())
        assert ChernPolynomial(grade, dict(poly.items())) == poly
        # every stored row is one YPolynomial.row: nonempty, with no trailing zero
        assert len(poly.rows) == len(poly.partitions) and all(row and row[-1] for row in poly.rows)
        # integer rows over a larger common multiple, each padded with its own run of zeros, clear to the same form
        k = rng.randint(2, 40)
        rows = {
            part: [k * int(coeff.coefficient(d) * poly.denominator) for d in range(len(coeff.row))]
            + [0] * rng.randint(0, 3)
            for part, coeff in poly.items()
        }
        rows.update({part: [0] * rng.randint(0, 3) for part in iter_partitions(grade) if part not in rows})
        assert ChernPolynomial._from_rows(grade, k * poly.denominator, rows) == poly
        # one partition's row is normalized as YPolynomial.from_row normalizes it
        for part, coeff in poly.items():
            row = [k * int(coeff.coefficient(d) * poly.denominator) for d in range(len(coeff.row))] + [0]
            single = ChernPolynomial._from_rows(grade, k * poly.denominator, {part: row})
            expected = YPolynomial.from_row(k * poly.denominator, row)
            assert (single.denominator, single.rows) == (expected.denominator, (expected.row,)) and expected == coeff
    zero = ChernPolynomial(4, {(4,): 0, (2, 2): YPolynomial.zero()})
    assert (zero.denominator, zero.partitions, zero.rows, len(zero)) == (1, (), (), 0)
    assert ChernPolynomial._from_rows(4, 360, {(4,): [0, 0], (2, 2): [], (1, 1, 1, 1): [0]}) == zero


def test_canonical_term_order():
    poly = ChernPolynomial(4, {(1, 1, 1, 1): 1, (4,): 1, (2, 2): 1})
    assert [p for p, _ in poly.items()] == [(4,), (2, 2), (1, 1, 1, 1)]


def test_graded_exponential_matches_series_exp():
    # exp(y*c_1) truncated: weight-m part must be c_1^m y^m / m!
    for m in range(5):
        part = graded_exponential({1: (YPolynomial.variable(), {(1,): 1})}, m)
        expected = ChernPolynomial(
            m, {tuple([1] * m): YPolynomial({m: Fraction(1, factorial(m))})}
        )
        assert part == expected


def test_graded_exponential_clears_unlike_denominators():
    # exp(a*c_1 + b*c_2): weight-m part is sum_{i+2j=m} a^i b^j / (i! j!) on (2^j, 1^i)
    a = YPolynomial({0: Fraction(1, 3), 2: Fraction(-5, 7)})
    b = YPolynomial({1: Fraction(2, 5), 3: Fraction(1, 4)})
    pieces = {1: (a, {(1,): 1}), 2: (b, {(2,): 1})}
    for m in range(7):
        expected = {
            (2,) * j + (1,) * (m - 2 * j): a ** (m - 2 * j)
            * b**j
            * Fraction(1, factorial(m - 2 * j) * factorial(j))
            for j in range(m // 2 + 1)
        }
        assert graded_exponential(pieces, m) == ChernPolynomial(m, expected), m


def test_graded_exponential_rejects_constant_term():
    with pytest.raises(ValueError):
        graded_exponential({0: (YPolynomial.one(), {(): 1})}, 3)
