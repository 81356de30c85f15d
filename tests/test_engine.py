"""The genus engine against hand expansions and brute-force root products."""

import hashlib
import random
from fractions import Fraction

import pytest

from chigenus import engine
from chigenus.catalog import hypersurface, product, projective_space
from chigenus.chern import ChernPolynomial
from chigenus.engine import (
    ManifoldData,
    chi_minus_y,
    chi_vector,
    chi_y_chern_polynomial,
    duality_holds,
    evaluate_genus,
    genus_polynomial,
    log_q_coefficients,
    normalized_series,
    specialize,
)
from chigenus.partitions import iter_partitions
from chigenus.serialize import chern_to_json, dumps
from chigenus.series import TruncatedSeries
from chigenus.ypoly import YPolynomial

from oracles import fraction_rank, point
from test_chern import substitute_roots
from test_cli import DIGESTS
from test_series import bernoulli_plus


def test_series_constant_term():
    assert normalized_series(1).coefficient(0) == YPolynomial.one()


def test_series_linear_term():
    # hand expansion of x(1 + y e^{-u})/(1 - e^{-u}) with u = (1+y) x
    assert normalized_series(3).coefficient(1) == YPolynomial(
        {0: Fraction(1, 2), 1: Fraction(-1, 2)}
    )


def test_series_reduces_to_todd_at_y_zero():
    series = normalized_series(6)
    bern = bernoulli_plus(6)
    from math import factorial

    for k in range(6):
        assert series.coefficient(k).evaluate(0) == bern[k] / factorial(k)


def test_series_coefficient_degree_bound():
    series = normalized_series(9)
    for k in range(9):
        assert series.coefficient(k).degree <= k + 1


def test_series_log_at_y_zero_starts_with_half():
    # log of the Todd series has linear coefficient 1/2
    log_series = normalized_series(5).log()
    assert log_series.coefficient(0).is_zero()
    assert log_series.coefficient(1).evaluate(0) == Fraction(1, 2)


def test_closed_form_log_matches_the_series_log():
    # truncating a series keeps its lower coefficients, so one log serves every n
    series = normalized_series(17).log()
    for n in range(1, 17):
        assert log_q_coefficients(n) == [series.coefficient(k) for k in range(1, n + 1)], n


def test_table_build_uses_no_series(monkeypatch):
    def refuse(*args):
        raise AssertionError("the table build used the series route or a YPolynomial")

    monkeypatch.setattr(engine, "normalized_series", refuse)
    monkeypatch.setattr(TruncatedSeries, "__init__", refuse)
    monkeypatch.setattr(TruncatedSeries, "log", refuse)
    monkeypatch.setattr(YPolynomial, "__init__", refuse)
    for n in range(1, 13):
        # the function under the cache, so every table is built here
        out = dumps(chern_to_json(chi_y_chern_polynomial.__wrapped__(n))) + "\n"
        assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[f"chi --n {n}"], n


def test_table_point():
    assert chi_y_chern_polynomial(0) == ChernPolynomial(0, {(): 1})


def test_table_curve():
    expected = ChernPolynomial(1, {(1,): YPolynomial({0: Fraction(1, 2), 1: Fraction(-1, 2)})})
    assert chi_y_chern_polynomial(1) == expected


def test_table_surface():
    # (1+y)^2/12 * (c_1^2 - 2 c_2) + (1-y)^2/4 * c_2, collected per monomial
    expected = ChernPolynomial(
        2,
        {
            (1, 1): YPolynomial({0: Fraction(1, 12), 1: Fraction(1, 6), 2: Fraction(1, 12)}),
            (2,): YPolynomial({0: Fraction(1, 12), 1: Fraction(-5, 6), 2: Fraction(1, 12)}),
        },
    )
    assert chi_y_chern_polynomial(2) == expected


def test_evaluate_projective_plane():
    assert genus_polynomial(projective_space(2)) == YPolynomial({0: 1, 1: -1, 2: 1})


def test_evaluate_product_of_lines():
    p1p1 = product(projective_space(1), projective_space(1))
    assert genus_polynomial(p1p1) == YPolynomial({0: 1, 1: -2, 2: 1})


def test_evaluate_quartic_surface():
    k3 = hypersurface(2, 4)
    assert genus_polynomial(k3) == YPolynomial({0: 2, 1: -20, 2: 2})
    assert chi_minus_y(k3) == YPolynomial({0: 2, 1: 20, 2: 2})


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        evaluate_genus(chi_y_chern_polynomial(2), projective_space(3))


def test_chi_vectors():
    assert chi_vector(projective_space(3)) == [
        Fraction(1),
        Fraction(-1),
        Fraction(1),
        Fraction(-1),
    ]
    assert chi_vector(point()) == [Fraction(1)]
    assert chi_vector(hypersurface(2, 4)) == [Fraction(2), Fraction(-20), Fraction(2)]


def test_specializations():
    assert specialize(projective_space(2), "euler") == 3
    assert specialize(projective_space(3), "signature") == 0
    k3 = hypersurface(2, 4)
    assert specialize(k3, "signature") == -16
    assert specialize(k3, "todd") == 2
    assert specialize(k3, "euler") == 24
    with pytest.raises(ValueError, match="unknown specialization"):
        specialize(k3, "elliptic")


@pytest.mark.parametrize("value", [0.1, "1/3"])
def test_only_ints_and_fractions_are_exact_data(value):
    with pytest.raises(ValueError, match="^Chern numbers must be int or Fraction, got "):
        engine.ManifoldData(1, {(1,): value})
    with pytest.raises(ValueError, match="^coefficients must be int or Fraction, got "):
        YPolynomial({0: value})
    with pytest.raises(ValueError, match="^coefficients must be int or Fraction, got "):
        ChernPolynomial(1, {(1,): value})
    with pytest.raises(ValueError, match="^evaluation point must be int or Fraction, got "):
        YPolynomial({0: 1, 1: 1}).evaluate(value)


def test_a_failed_manifold_leaves_the_partition_lists_untouched(monkeypatch):
    monkeypatch.setattr(engine, "_PARTITIONS", {})
    # a missing partition, then an extra one
    for dimension, numbers in ((3, {(3,): 1, (2, 1): 1}), (2, {(2,): 1, (1, 1): 1, (3,): 1})):
        with pytest.raises(ValueError, match=f"^Chern numbers must cover all partitions of {dimension}; "):
            engine.ManifoldData(dimension, numbers)
        assert engine._PARTITIONS == {}
    engine.ManifoldData(2, {(1, 1): 1, (2,): 1})
    assert engine._PARTITIONS == {2: ((2,), (1, 1))}
    # a kept list refuses the same numbers with the same messages
    with pytest.raises(ValueError, match=r"^Chern numbers must cover all partitions of 2; missing \[1, 1\]$"):
        engine.ManifoldData(2, {(2,): 1})
    with pytest.raises(ValueError, match=r"^Chern numbers must cover all partitions of 2; got 3, but p\(2\) = 2$"):
        engine.ManifoldData(2, {(2,): 1, (1, 1): 1, (3,): 1})
    assert engine._PARTITIONS == {2: ((2,), (1, 1))}


def test_a_given_fraction_is_kept_and_an_int_becomes_one():
    half = Fraction(1, 2)
    data = engine.ManifoldData(2, {(2,): half, (1, 1): 3})
    assert data.chern_numbers[(2,)] is half
    assert data.chern_numbers[(1, 1)] == 3 and type(data.chern_numbers[(1, 1)]) is Fraction
    assert list(data.chern_numbers) == [(2,), (1, 1)]


def test_duality():
    assert duality_holds(chi_vector(projective_space(4)))
    assert duality_holds(chi_vector(hypersurface(2, 4)))
    assert not duality_holds([Fraction(1), Fraction(0), Fraction(2)])


def test_euler_specialization_symbolic():
    for n in range(0, 11):
        table = chi_y_chern_polynomial(n)
        top = (n,) if n else ()
        at_euler = ChernPolynomial(n, {p: c.evaluate(-1) for p, c in table.items()})
        assert at_euler == ChernPolynomial(n, {top: 1}), n


def test_projective_space_law():
    for n in range(1, 11):
        expected = YPolynomial({p: (-1) ** p for p in range(n + 1)})
        assert genus_polynomial(projective_space(n)) == expected, n


def test_multiplicativity_on_products():
    pairs = [
        (projective_space(1), projective_space(1)),
        (projective_space(1), projective_space(2)),
        (projective_space(2), projective_space(2)),
        (projective_space(1), hypersurface(2, 4)),
    ]
    for a, b in pairs:
        combined = genus_polynomial(product(a, b))
        assert combined == genus_polynomial(a) * genus_polynomial(b)


def test_cobordism_basis_oracle():
    """The table is chi_y in dimensions 1..6, not just on the instances checked.

    The products P^lambda, lambda a partition of n, have independent Chern
    number vectors (rank p(n)), so they span every linear functional on the
    Chern numbers; the table agrees with chi_y on each of them, and chi_y is
    multiplicative with chi_y(P^k) = sum_p (-y)^p.
    """
    spaces = {k: projective_space(k) for k in range(1, 7)}
    for n in range(1, 7):
        table = chi_y_chern_polynomial(n)
        basis = list(iter_partitions(n))
        rows = []
        for lam in basis:
            data = spaces[lam[0]]
            expected = YPolynomial({p: (-1) ** p for p in range(lam[0] + 1)})
            for k in lam[1:]:
                data = product(data, spaces[k])
                expected = expected * YPolynomial({p: (-1) ** p for p in range(k + 1)})
            assert evaluate_genus(table, data) == expected, lam
            rows.append([data.chern_numbers[mu] for mu in basis])
        assert fraction_rank(rows) == len(basis), n


def test_tables_past_the_cli_cap():
    """The kernel at n = 13 and 14, beyond GENUS_MAX_N, on P^n and on products P^a x P^b.

    chi_y(P^n) = sum_p (-y)^p; on a product the genus is multiplicative and
    its chi-vector obeys duality. ``projective_space`` and ``product`` read
    the signature off the cached table, so each dimension is built twice:
    cold here and once through the cache. Time budget: well under 0.5 s in
    all (about 0.25 s on a 2-vCPU Xeon guest: about 0.1 s for the four
    builds, the rest building the products' Chern numbers). The module-scoped
    fixture in ``conftest.py`` drops the cached tables after this module.
    """

    def chi_pn(k):
        return YPolynomial({p: (-1) ** p for p in range(k + 1)})

    for n in (13, 14):
        table = chi_y_chern_polynomial.__wrapped__(n)
        assert evaluate_genus(table, projective_space(n)) == chi_pn(n), n
        for a in (1, n // 2):
            chi = evaluate_genus(table, product(projective_space(a), projective_space(n - a)))
            assert chi == chi_pn(a) * chi_pn(n - a), (a, n - a)
            assert duality_holds(chi.coefficients_dense(n + 1)), (a, n - a)


def test_split_manifold_oracle():
    """Substituting integer roots equals the direct product of scaled series."""
    rng = random.Random(17)
    for _ in range(12):
        n = rng.randint(1, 4)
        roots = [rng.randint(-3, 3) for _ in range(n)]
        table = chi_y_chern_polynomial(n)
        via_table = substitute_roots(table, roots)
        series = normalized_series(n + 1)
        direct = None
        for r in roots:
            # Q(r * x): the x^k coefficient times r^k
            scaled = TruncatedSeries([series.coefficient(k) * r**k for k in range(n + 1)], n + 1)
            direct = scaled if direct is None else direct * scaled
        assert via_table == direct.coefficient(n), roots


def test_duality_symbolic_via_evaluation():
    # chi^p = (-1)^n chi^{n-p} holds for arbitrary Chern data of split type
    rng = random.Random(29)
    for _ in range(10):
        n = rng.randint(1, 4)
        roots = [rng.randint(-3, 3) for _ in range(n)]
        from test_chern import elementary_values

        es = elementary_values(roots)
        values = {}
        for part in iter_partitions(n):
            v = Fraction(1)
            for lam in part:
                v *= es[lam]
            values[part] = v
        manifold = ManifoldData(n, values)
        assert duality_holds(chi_vector(manifold)), roots
