"""Taylor coefficients at y = -1, the binomial transform, Eulerian polynomials."""

from fractions import Fraction
from itertools import permutations
from math import comb

import pytest

from chigenus import kexpansion
from chigenus.catalog import _splits, projective_space, standard_catalog
from chigenus.chern import ChernPolynomial
from chigenus.engine import chi_vector, chi_y_chern_polynomial, eulerian_polynomials
from chigenus.kexpansion import (
    binomial_transform,
    closed_form_k,
    k_coefficients,
    odd_k_span_check,
    verify_closed_forms,
)
from chigenus.ypoly import YPolynomial

from oracles import point


def test_k0_is_top_chern_class():
    for n in (1, 2, 5, 8):
        assert k_coefficients(n).k_polys[0] == ChernPolynomial(n, {(n,): 1})


def test_k1_is_half_n_times_top():
    for n in (1, 3, 6):
        expected = ChernPolynomial(n, {(n,): Fraction(-n, 2)})
        assert k_coefficients(n).k_polys[1] == expected


def test_k2_surface_case():
    expected = ChernPolynomial(2, {(2,): Fraction(1, 12), (1, 1): Fraction(1, 12)})
    assert k_coefficients(2).k_polys[2] == expected


def test_reassembly_identity():
    # sum_j K_j (1+y)^j must equal the genus polynomial identically
    one_plus_y = YPolynomial({0: 1, 1: 1})
    for n in range(1, 11):
        total: dict = {}
        for j, poly in enumerate(k_coefficients(n).k_polys):
            for part, coeff in poly.items():
                total[part] = total.get(part, YPolynomial.zero()) + coeff * one_plus_y**j
        assert ChernPolynomial(n, total) == chi_y_chern_polynomial(n), n


def test_closed_forms_small_and_large():
    for n in (2, 4, 6, 8):
        checks = verify_closed_forms(n)
        assert checks == (True,) * (min(n, 4) + 1), (n, checks)


def test_closed_forms_vanish_above_the_dimension():
    # every monomial of K_j has an index n + 1 or more once j > n, and c_0 counts as 1
    for j in range(2, 5):
        for n in range(1, j):
            assert closed_form_k(j, n) == ChernPolynomial(n), (j, n)


def test_closed_form_k3_on_threefolds():
    # cross-checked on P^3: K_3 must evaluate to -1 there
    poly = closed_form_k(3, 3)
    values = projective_space(3).chern_numbers
    assert poly.evaluate(values).constant_value() == -1


def test_binomial_transform_examples():
    assert binomial_transform([1, -1, 1]) == [Fraction(3), Fraction(-3), Fraction(1)]
    assert binomial_transform([1]) == [Fraction(1)]
    assert binomial_transform([1, -1, 1, -1]) == [
        Fraction(4),
        Fraction(-6),
        Fraction(4),
        Fraction(-1),
    ]


def test_transform_matches_evaluated_k_polynomials():
    for key, data in standard_catalog():
        table = k_coefficients(data.dimension)
        evaluated = [
            poly.evaluate(data.chern_numbers).constant_value() for poly in table.k_polys
        ]
        assert binomial_transform(chi_vector(data)) == evaluated, key


def test_projective_k_values():
    # K_j(P^n) = (-1)^j * C(n+1, j+1), equivalently sum_{p>=j} C(p, j) up to sign
    for n in range(1, 11):
        values = projective_space(n).chern_numbers
        table = k_coefficients(n)
        for j, poly in enumerate(table.k_polys):
            expected = Fraction((-1) ** j * comb(n + 1, j + 1))
            assert poly.evaluate(values).constant_value() == expected, (n, j)
            assert (-1) ** j * expected == sum(comb(p, j) for p in range(j, n + 1))


def test_point_transform():
    assert binomial_transform(chi_vector(point())) == [Fraction(1)]


def test_odd_span_membership():
    for n in range(3, 13):
        checks = odd_k_span_check(n)
        assert len(checks) == (n + 1) // 2, (n, checks)
        assert all(c.in_span for c in checks), (n, checks)
        table = k_coefficients(n)
        for i, check in enumerate(checks):
            odd = 2 * i + 1
            combo: dict = {}
            for j, coeff in enumerate(check.combination):
                for part, c in table.k_polys[2 * j].items():
                    combo[part] = combo.get(part, 0) + coeff * c.constant_value()
            assert ChernPolynomial(n, combo) == table.k_polys[odd], (n, odd)


def test_k1_span_ratio():
    first = odd_k_span_check(4)[0]
    assert first.combination == (Fraction(-2),)  # -n/2 at n = 4


def test_eulerian_polynomials_start():
    p = eulerian_polynomials(3)
    assert p[0] == YPolynomial({0: 1})
    assert p[1] == YPolynomial({0: 1, 1: 1})
    assert p[2] == YPolynomial({0: 1, 1: 4, 2: 1})


def brute_force_descents(i: int) -> YPolynomial:
    counts: dict[int, int] = {}
    for perm in permutations(range(i)):
        d = sum(1 for a, b in zip(perm, perm[1:]) if a > b)
        counts[d] = counts.get(d, 0) + 1
    return YPolynomial(counts)


def test_eulerian_against_brute_force():
    polys = eulerian_polynomials(6)
    for i in range(1, 7):
        assert polys[i - 1] == brute_force_descents(i), i


def test_eulerian_shape():
    from math import factorial

    polys = eulerian_polynomials(8)
    for i, poly in enumerate(polys, start=1):
        assert poly.denominator == 1
        dense = poly.row
        assert len(dense) == i  # degree i - 1
        assert all(c > 0 for c in dense)
        assert dense == dense[::-1]  # palindromic
        assert sum(dense) == factorial(i)


def test_k_coefficients_requires_positive_n():
    with pytest.raises(ValueError):
        k_coefficients(0)


@pytest.mark.parametrize(
    "build, args, other, refused",
    [
        (chi_y_chern_polynomial, (5,), (4,), (-1,)),
        (k_coefficients, (5,), (4,), (0,)),
        (_splits, (2, 3), (3, 2), (-1, 2)),
    ],
    ids=["chi_y_chern_polynomial", "k_coefficients", "_splits"],
)
def test_table_builders_are_memoized_per_argument(build, args, other, refused):
    assert build(*args) is build(*args)
    assert build(*args) is not build(*other)
    # a refused argument raises on every call and leaves nothing in the cache
    size = build.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError):
            build(*refused)
    assert build.cache_info().currsize == size


def test_k_coefficients_reject_a_table_of_excess_y_degree(monkeypatch):
    table = ChernPolynomial(2, {(2,): YPolynomial({3: Fraction(1, 2)}), (1, 1): 1})
    monkeypatch.setattr(kexpansion, "chi_y_chern_polynomial", lambda n: table)
    with pytest.raises(ArithmeticError, match="y-degree above 2"):
        k_coefficients.__wrapped__(2)


def test_span_check_requires_n_at_least_three():
    with pytest.raises(ValueError):
        odd_k_span_check(2)
