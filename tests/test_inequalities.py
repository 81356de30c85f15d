"""Inequality reports, their positivity hypothesis, and the curvature bound."""

import random
from fractions import Fraction
from math import comb, lcm

import pytest

from chigenus import inequalities, serialize
from chigenus.catalog import (
    CATALOG_KEYS,
    CohomologyModel,
    ManifoldData,
    hypersurface,
    make_manifold,
    product,
    projective_space,
    standard_catalog,
)
from chigenus.chern import ChernPolynomial
from chigenus.engine import chi_minus_y, chi_vector, chi_y_chern_polynomial, specialize
from chigenus.inequalities import check_inequalities, miyaoka_yau_check
from chigenus.kexpansion import KTable, k_coefficients
from chigenus.partitions import iter_partitions
from chigenus.ypoly import YPolynomial

from oracles import positivity, reference_check_inequalities, synthetic_manifold


def synthetic(n: int, seed: int) -> ManifoldData:
    """Arbitrary integer Chern numbers on every partition of n."""
    rng = random.Random(seed)
    return ManifoldData(n, {part: Fraction(rng.randint(-40, 40)) for part in iter_partitions(n)})


def test_a0_is_top_class():
    # eps^n K_0 = eps^n c_n, already cleared
    for n in (1, 2, 5):
        m = synthetic(n, n)
        for epsilon in (1, -1):
            r0 = check_inequalities(m, epsilon)[0]
            assert (r0.lhs, r0.scale) == (epsilon**n * m.chern_numbers[(n,)], 1)


def test_a1_surface():
    # K_2 at n = 2 is (c_2 + c_1^2) / 12, reported times 12
    m = synthetic(2, 12)
    c = m.chern_numbers
    for epsilon in (1, -1):
        r1 = check_inequalities(m, epsilon)[1]
        assert (r1.lhs, r1.scale) == (c[(2,)] + c[(1, 1)], 12)


def test_a1_threefold_signed():
    # (-1)^3 K_2 at n = 3: -(1/12)(6 c_3 + c_1 c_2), reported times 12
    m = synthetic(3, 3)
    c = m.chern_numbers
    r1 = check_inequalities(m, -1)[1]
    assert (r1.lhs, r1.scale) == (-(6 * c[(3,)] + c[(2, 1)]), 12)
    assert check_inequalities(m, 1)[1].lhs == -r1.lhs
    with pytest.raises(ValueError):
        check_inequalities(m, 2)


def test_projective_spaces_attain_every_equality():
    for n in range(1, 9):
        reports = check_inequalities(projective_space(n), 1)
        assert len(reports) == n // 2 + 1
        for r in reports:
            assert r.holds and r.equality and r.hypothesis_met
            assert r.lhs == r.rhs
            assert r.equality_witness == tuple(range(2 * r.index, n + 1))


def test_first_report_restates_euler_bound():
    for n in (2, 3, 5):
        r0 = check_inequalities(projective_space(n), 1)[0]
        assert r0.scale == 1
        assert r0.rhs == n + 1


def test_surface_cleared_form():
    r1 = check_inequalities(projective_space(2), 1)[1]
    assert (r1.lhs, r1.rhs, r1.scale) == (12, 12, 12)


def test_second_bound_is_cleared_cubic():
    for n in range(2, 9):
        r1 = check_inequalities(projective_space(n), 1)[1]
        assert r1.rhs == 2 * (n - 1) * n * (n + 1)


def test_quartic_surface_strict():
    reports = check_inequalities(hypersurface(2, 4), 1)
    r0 = reports[0]
    assert (r0.lhs, r0.rhs) == (24, 3)
    assert r0.holds and not r0.equality and r0.hypothesis_met


def test_projective_bounds_match_the_direct_formula():
    # scale = lcm of the K_{2i} denominators, rhs = scale * sum_p coeff_p * prod C(n+1, lambda)
    for n in range(1, 13):
        reports = check_inequalities(projective_space(n), 1)
        for report, k_poly in zip(reports, k_coefficients(n).k_polys[::2], strict=True):
            coefficients = {part: c.constant_value() for part, c in k_poly.items()}
            scale = lcm(*(c.denominator for c in coefficients.values()))
            total = Fraction(0)
            for part, c in coefficients.items():
                value = Fraction(1)
                for lam in part:
                    value *= comb(n + 1, lam)
                total += c * value
            assert (report.scale, report.rhs) == (scale, total * scale), (n, report.index)
            assert report.lhs == report.rhs and report.equality, (n, report.index)


def test_broken_k_table_trips_the_cleared_bound_check(monkeypatch):
    # K_2 + c_3/5 at n = 3 has denominator 60, so the i=1 bound reads C(4, 3) * 60 = 240
    good = k_coefficients(3)
    terms = {part: c.constant_value() for part, c in good.k_polys[2].items()}
    terms[(3,)] = terms.get((3,), 0) + Fraction(1, 5)
    wrong = ChernPolynomial(3, terms)
    broken = KTable(good.k_polys[:2] + (wrong,) + good.k_polys[3:])
    monkeypatch.setattr(inequalities, "k_coefficients", lambda n: broken)
    with pytest.raises(ArithmeticError, match=r"cleared i=1 bound 240 disagrees with .* = 48"):
        check_inequalities(projective_space(3), 1)


def test_rhs_agrees_with_catalog_integration():
    # each right-hand side is K_{2i} on P^n integrated in the ring Q[h]/(h^{n+1})
    for n in range(1, 9):
        total = {(j,): Fraction(comb(n + 1, j)) for j in range(n + 1)}
        numbers = CohomologyModel(("h",), (n,), Fraction(1), total).chern_numbers(n)
        k_polys = k_coefficients(n).k_polys
        for report in check_inequalities(synthetic(n, n), 1):
            k_poly = k_polys[2 * report.index]
            assert report.rhs == k_poly.evaluate(numbers).constant_value() * report.scale, n


def fractional_synthetic(n: int, seed: int, denominators=(1, 2, 3, 5, 12)) -> ManifoldData:
    """Arbitrary rational Chern numbers, most of them not integers, on every partition of n."""
    rng = random.Random(seed)
    return ManifoldData(
        n,
        {
            part: Fraction(rng.randint(-40, 40), rng.choice(denominators))
            for part in iter_partitions(n)
        },
    )


def test_lhs_agrees_with_evaluating_each_k_polynomial():
    for n in range(1, 13):
        m = fractional_synthetic(n, 100 + n)
        k_polys = k_coefficients(n).k_polys
        for epsilon in (1, -1):
            for report in check_inequalities(m, epsilon):
                k_value = k_polys[2 * report.index].evaluate(m.chern_numbers).constant_value()
                assert report.lhs == epsilon**n * k_value * report.scale, (n, epsilon, report.index)


SIXTHS = (1, 2, 3, 6)


def oracle_manifolds() -> list[ManifoldData]:
    """The catalog, seeded products of its small members, seeded sixths on n = 1..8
    (Chern numbers over 1, 2, 3 and 6), and
    P^4 + (P^2 x P^2 - (P^1)^4) / 2, whose chi-vector (1, 0, -1/2, 0, 1) is over 2 yet
    meets the i = 2 equality criterion."""
    manifolds = [make_manifold(key) for key in CATALOG_KEYS]
    p1, p2, p4 = projective_space(1), projective_space(2), projective_space(4)
    p22, p1111 = product(p2, p2), product(product(p1, p1), product(p1, p1))
    numbers = {
        part: p4.chern_numbers[part] + (p22.chern_numbers[part] - p1111.chern_numbers[part]) / 2
        for part in iter_partitions(4)
    }
    manifolds.append(ManifoldData(4, numbers))
    small = [m for m in manifolds if m.dimension <= 4]
    rng = random.Random(5)
    for _ in range(12):
        a, b = rng.choice(small), rng.choice(small)
        manifolds.append(product(a, b))
        manifolds.append(product(a, fractional_synthetic(rng.randint(1, 3), rng.randint(0, 10**6), SIXTHS)))
    for n in range(1, 9):
        manifolds += [fractional_synthetic(n, 1000 * n + seed, SIXTHS) for seed in range(3)]
    return manifolds


def test_reports_equal_the_fraction_route_field_by_field():
    integral = set()
    for m in oracle_manifolds():
        integral.add(all(v.denominator == 1 for v in chi_vector(m)))
        for epsilon in (1, -1):
            reports = check_inequalities(m, epsilon)
            assert reports == reference_check_inequalities(m, epsilon), (m.dimension, epsilon)
            assert all(type(r.lhs) is Fraction and type(r.rhs) is Fraction for r in reports)
    assert integral == {True, False}


@pytest.mark.parametrize("epsilon", [1.0, -1.0, True, Fraction(1)])
def test_epsilon_must_be_the_int_one_or_minus_one(epsilon):
    with pytest.raises(ValueError, match=f"^epsilon must be int, got {type(epsilon).__name__}$"):
        check_inequalities(projective_space(2), epsilon)


def test_one_genus_evaluation_per_manifold(monkeypatch):
    # a record evaluates its genus once, as it is built, and no read evaluates it again
    evaluated = []
    original = ChernPolynomial.evaluate

    def counting(self, values):
        evaluated.append(self)
        return original(self, values)

    for n in (2, 7, 12):
        # building the tables first, so only evaluations are counted
        expected = {eps: check_inequalities(fractional_synthetic(n, n), eps) for eps in (1, -1)}
        monkeypatch.setattr(ChernPolynomial, "evaluate", counting)
        m = fractional_synthetic(n, n)
        assert len(evaluated) == 1 and evaluated[0] is chi_y_chern_polynomial(n), n
        chi = chi_vector(m)
        assert chi_minus_y(m) == YPolynomial({p: (-1) ** p * c for p, c in enumerate(chi)})
        assert [specialize(m, at) for at in ("euler", "todd", "signature")] == [
            sum((-1) ** p * c for p, c in enumerate(chi)), chi[0], sum(chi)
        ]
        reports = {eps: check_inequalities(m, eps) for eps in (1, -1)}
        monkeypatch.undo()
        assert len(evaluated) == 1 and evaluated.pop() is chi_y_chern_polynomial(n), n
        assert reports == expected


def test_failed_hypothesis_is_flagged_not_rejected():
    torus = hypersurface(1, 3)  # genus-one curve: chi_y vanishes identically
    reports = check_inequalities(torus, 1)
    assert not reports[0].hypothesis_met
    assert not reports[0].holds  # 0 < 2: the bound genuinely fails here


def test_hypothesis_met_is_chi_positivity_for_plus_and_signed_for_minus():
    # the genus-3 curve, chi = (-2, 2): integral and signed chi-positive only
    manifolds = [data for _, data in standard_catalog() if data.dimension >= 1] + [hypersurface(1, 4)]
    manifolds += [serialize.manifold_from_json(synthetic_manifold(n)) for n in range(1, 13)]
    seen = set()
    for m in manifolds:
        chi = chi_vector(m)
        integral = all(v.denominator == 1 for v in [*chi, *m.chern_numbers.values()])
        plain, signed = [sign and integral for sign in positivity(chi)]
        met = {eps: {r.hypothesis_met for r in check_inequalities(m, eps)} for eps in (1, -1)}
        assert met == {1: {plain}, -1: {signed}}, (m.dimension, chi)
        seen.add((plain, signed))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_rational_data_that_passes_the_sign_test_does_not_meet_the_hypothesis():
    # half of P^2: chi = (1/2, -1/2, 1/2) is positive and signed positive, and both
    # i = 0 and i = 1 fail, but no manifold has these Chern numbers
    half = ManifoldData(2, {(2,): Fraction(3, 2), (1, 1): Fraction(9, 2)})
    chi = chi_vector(half)
    assert chi == [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2)]
    assert positivity(chi) == (True, True)
    for epsilon in (1, -1):
        reports = check_inequalities(half, epsilon)
        assert not any(r.hypothesis_met for r in reports)
        assert not any(r.holds for r in reports)
    # an integral chi-vector is not enough: c_1^3 does not enter chi_y of a 3-fold,
    # so P^3 with c_1^3 moved by 1/2 keeps chi = (1, -1, 1, -1)
    p3 = projective_space(3)
    moved = ManifoldData(3, {**p3.chern_numbers, (1, 1, 1): p3.chern_numbers[(1, 1, 1)] + Fraction(1, 2)})
    assert chi_vector(moved) == chi_vector(p3)
    assert all(r.hypothesis_met for r in check_inequalities(p3, 1))
    assert not any(r.hypothesis_met for r in check_inequalities(moved, 1))


def test_equality_criterion_implies_numeric_equality():
    # chi-vector (1, -5, 1): the i=1 criterion holds (chi^2 = 1) while the
    # i=0 one fails, and lhs == rhs exactly where the criterion says so
    synthetic = ManifoldData(2, {(2,): Fraction(7), (1, 1): Fraction(5)})
    assert chi_vector(synthetic) == [Fraction(1), Fraction(-5), Fraction(1)]
    r0, r1 = check_inequalities(synthetic, 1)
    assert not r0.equality and r0.lhs > r0.rhs
    assert r1.equality and r1.lhs == r1.rhs


def test_signed_positivity_uses_global_sign():
    reports = check_inequalities(projective_space(3), -1)
    assert not reports[0].hypothesis_met  # P^3 is chi-positive, not signed


def test_curvature_bound_ball_quotient_numbers():
    ball = ManifoldData(2, {(2,): Fraction(3), (1, 1): Fraction(9)})
    report = miyaoka_yau_check(ball)
    assert report.holds and report.equality
    first, second = report.surface
    assert first.equality and first.lhs == first.rhs == 9
    assert second.equality and second.lhs == second.rhs == 12


def test_curvature_bound_quartic():
    report = miyaoka_yau_check(hypersurface(2, 4))
    assert report.holds and not report.equality
    assert report.lhs == 24 and report.rhs == 0


def test_curvature_bound_higher_dimension():
    report = miyaoka_yau_check(projective_space(3))
    # (-1)^3 c_2 c_1 [P^3] = -24*... both sides computed exactly
    assert report.n == 3
    assert report.lhs == -projective_space(3).chern_numbers[(2, 1)]
    assert report.surface == ()


def test_curvature_bound_needs_surface_dimension():
    with pytest.raises(ValueError):
        miyaoka_yau_check(projective_space(1))
