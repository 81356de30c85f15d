"""Exact polynomial arithmetic in y."""

import random
from fractions import Fraction

import pytest

from chigenus.ypoly import YPolynomial, add_into
from oracles import shift_degree


def random_poly(rng: random.Random) -> YPolynomial:
    return YPolynomial(
        {d: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for d in range(rng.randint(0, 5))}
    )


def test_zero_never_stored():
    p = YPolynomial({0: 1, 2: 0})
    assert p.items() == [(0, Fraction(1))]
    assert (p - p).is_zero()
    assert repr(YPolynomial.zero()) == "0"


def test_scalar_reduction_invariant():
    # every arithmetic result is in lowest terms with a positive denominator
    from math import gcd

    rng = random.Random(3)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        for value in (a + b, a - b, a * b) + ((a / b,) if b else ()):
            assert value.denominator > 0
            assert gcd(value.numerator, value.denominator) == 1


def test_ring_laws_on_random_inputs():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_evaluation_is_a_homomorphism():
    rng = random.Random(11)
    for _ in range(100):
        a, b = random_poly(rng), random_poly(rng)
        point = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
        assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)


def test_add_into_pads_past_the_end():
    total = [1, 2]
    add_into(total, [3, 0, 4], 2, shift=4)
    assert total == [1, 2, 0, 0, 6, 0, 8]
    add_into(total, [1, 1])
    assert total == [2, 3, 0, 0, 6, 0, 8]


def test_negate_y():
    p = YPolynomial({0: 1, 1: 2, 2: 3})
    assert p.negate_y() == YPolynomial({0: 1, 1: -2, 2: 3})


def test_pow_matches_repeated_product():
    p = YPolynomial({0: 1, 1: 1})
    assert p**0 == YPolynomial.one()
    assert p**3 == p * p * p


def test_degree_and_constant():
    assert YPolynomial.zero().degree == -1
    assert YPolynomial.constant(5).constant_value() == 5
    with pytest.raises(ValueError):
        YPolynomial.variable().constant_value()


def test_repr_reads_each_term_by_increasing_degree():
    assert repr(YPolynomial.constant(Fraction(-2, 3))) == "-2/3"
    assert repr(YPolynomial({1: 1, 3: Fraction(1, 2)})) == "1*y + 1/2*y^3"
    # the one place a user meets it: the refusal of a non-constant polynomial
    with pytest.raises(ValueError, match=r"^1/2 \+ -3/2\*y\^2 is not a constant polynomial$"):
        YPolynomial.from_row(2, (1, 0, -3)).constant_value()


def test_shift_degree():
    p = YPolynomial({0: 1, 1: 1})
    assert shift_degree(p, 2) == YPolynomial({2: 1, 3: 1})
    with pytest.raises(ValueError):
        shift_degree(p, -1)


def test_negative_degree_rejected():
    with pytest.raises(ValueError, match="^degrees must be non-negative$"):
        YPolynomial({-1: 1})


def test_dense_coefficients():
    p = YPolynomial({0: 1, 2: 5})
    # a degree inside the row with no term, and one past its end, both read 0
    assert [p.coefficient(d) for d in range(4)] == [Fraction(1), Fraction(0), Fraction(5), Fraction(0)]
