"""Truncated power series: products, log, exp, inversion."""

import random
from fractions import Fraction
from math import factorial

import pytest

from chigenus.series import TruncatedSeries
from chigenus.ypoly import YPolynomial


def bernoulli_plus(count: int) -> list[Fraction]:
    """Bernoulli numbers with B_1 = +1/2, so x/(1-e^{-x}) = sum B_k x^k / k!.

    Independent oracle: the defining recurrence sum_{j<m} C(m,j) B_j = m
    applied to the shifted generating function.
    """
    from math import comb

    values: list[Fraction] = []
    for m in range(count):
        if m == 0:
            values.append(Fraction(1))
            continue
        acc = Fraction(0)
        for j in range(m):
            acc += comb(m + 1, j) * values[j]
        values.append((Fraction(m + 1) - acc) / (m + 1))
    return values


def todd_series(order: int) -> TruncatedSeries:
    bern = bernoulli_plus(order)
    return TruncatedSeries(
        [YPolynomial.constant(bern[k] / factorial(k)) for k in range(order)], order
    )


def geometric(order: int, coeff) -> TruncatedSeries:
    return TruncatedSeries([YPolynomial.one(), coeff], order)


def test_simple_products():
    one_plus = geometric(3, YPolynomial.constant(1))
    one_minus = geometric(3, YPolynomial.constant(-1))
    assert one_plus * one_minus == TruncatedSeries([1, 0, -1], 3)

    with_y = geometric(3, YPolynomial.variable())
    sq = with_y * with_y
    assert sq == TruncatedSeries(
        [YPolynomial.one(), YPolynomial({1: 2}), YPolynomial({2: 1})], 3
    )


def test_todd_times_reflected_todd_is_even():
    # x/(1-e^{-x}) * (-x)/(1-e^{x}) has only even terms; degree-2 coefficient -1/12
    tod = todd_series(6)
    reflected = TruncatedSeries(
        [c * Fraction((-1) ** k) for k, c in enumerate(tod.coefficients())], 6
    )
    product = tod * reflected
    assert product.coefficient(0) == YPolynomial.one()
    assert product.coefficient(1).is_zero()
    assert product.coefficient(3).is_zero()
    assert product.coefficient(5).is_zero()
    assert product.coefficient(2) == YPolynomial.constant(Fraction(-1, 12))


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries.one(3) * TruncatedSeries.one(4)


def test_log_of_one_plus_x_is_mercator():
    series = geometric(8, YPolynomial.constant(1)).log()
    for k in range(1, 8):
        assert series.coefficient(k) == YPolynomial.constant(Fraction((-1) ** (k + 1), k))


def test_log_of_one_is_zero():
    assert TruncatedSeries.one(5).log() == TruncatedSeries.zero(5)


def test_exp_of_zero_and_x():
    assert TruncatedSeries.zero(4).exp() == TruncatedSeries.one(4)
    x = TruncatedSeries([0, 1], 6)
    e = x.exp()
    for k in range(6):
        assert e.coefficient(k) == YPolynomial.constant(Fraction(1, factorial(k)))


def test_exp_log_round_trip_on_random_series():
    rng = random.Random(23)
    for order in (2, 5, 9, 16):
        for _ in range(10):
            coeffs = [YPolynomial.one()] + [
                YPolynomial(
                    {
                        d: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                        for d in range(rng.randint(0, 3))
                    }
                )
                for _ in range(order - 1)
            ]
            series = TruncatedSeries(coeffs, order)
            assert series.log().exp() == series
            no_constant = TruncatedSeries([YPolynomial.zero()] + coeffs[1:], order)
            assert no_constant.exp().log() == no_constant


def test_log_requires_unit_constant():
    with pytest.raises(ValueError):
        TruncatedSeries([2, 1], 3).log()


def test_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        TruncatedSeries.one(3).exp()


def test_inverse_round_trip():
    rng = random.Random(5)
    for _ in range(20):
        coeffs = [YPolynomial.one()] + [
            YPolynomial({d: rng.randint(-4, 4) for d in range(2)}) for _ in range(5)
        ]
        series = TruncatedSeries(coeffs, 6)
        assert series * series.inverse() == TruncatedSeries.one(6)


def test_independent_inversion_oracle():
    """Long-division inversion, structurally unlike the library recurrence."""
    rng = random.Random(31)
    for _ in range(20):
        coeffs = [Fraction(1)] + [
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(5)
        ]
        series = TruncatedSeries([YPolynomial.constant(c) for c in coeffs], 6)
        inv = series.inverse()
        remainder = [Fraction(1)] + [Fraction(0)] * 5
        quotient = []
        for k in range(6):
            q = remainder[k]
            quotient.append(q)
            for j in range(6 - k):
                remainder[k + j] -= q * coeffs[j]
        for k in range(6):
            assert inv.coefficient(k) == YPolynomial.constant(quotient[k])

