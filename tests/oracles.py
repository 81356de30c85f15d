"""Reference routes on Fraction/YPolynomial arithmetic, kept for tests to compare against.

These are the straightforward forms of the integer code in ``chigenus.betti``,
``chigenus.localization``, ``chigenus.chern`` and ``chigenus.kexpansion``:
Schur-complement elimination over the rationals, polynomial sums built one
component at a time (each shifted up by :func:`shift_degree`), the graded
exponential on ``YPolynomial`` coefficients and the binomial transform term
by term; the two localization reports read their coefficients as
``Fraction`` values, and the inequality reports read both sides off the
``Fraction`` chi-vector. One Gauss-Jordan elimination over the rationals,
:func:`fraction_reduce`, gives the rank that checks test matrices have full
rank and the solve of an invertible system; :func:`fraction_inertia` stays a
separate congruence route for the inertia. :func:`point` is the zero-dimensional
manifold, :func:`synthetic_manifold` a seeded manifold document, and
:func:`positivity` the two positivity predicates of the modified genus.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from chigenus.betti import BettiProfile, InertiaTriple
from chigenus.chern import ChernPolynomial
from chigenus.engine import ManifoldData, chi_vector
from chigenus.inequalities import InequalityReport
from chigenus.kexpansion import k_coefficients
from chigenus.localization import (
    FixedPointModel,
    IsolatedConsistencyReport,
    SignatureIdentityReport,
)
from chigenus.partitions import Partition, iter_partitions, merge
from chigenus.ypoly import YPolynomial


def point() -> ManifoldData:
    """The point: its one Chern number c_() = 1, Betti numbers (1,) and signature 1."""
    return ManifoldData(0, {(): 1}, betti=BettiProfile(0, (1,), 1))


def synthetic_manifold(n: int) -> dict:
    """A manifold document with seeded Chern numbers, most of them not integers."""
    rng = random.Random(n)
    numbers = [
        {"partition": list(part), "value": str(Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 5, 12))))}
        for part in iter_partitions(n)
    ]
    return {"dimension": n, "chernNumbers": numbers}


def positivity(chi) -> tuple[bool, bool]:
    """(chi-positive, signed chi-positive): all (-1)^p chi^p > 0, and all (-1)^(n+p) chi^p > 0."""
    n = len(chi) - 1
    plain = all((-1) ** p * chi[p] > 0 for p in range(n + 1))
    signed = all((-1) ** (n + p) * chi[p] > 0 for p in range(n + 1))
    return plain, signed


def fraction_inertia(matrix) -> InertiaTriple:
    """Inertia by congruence diagonalization over the rationals.

    Same pivot choice and hyperbolic repair as ``chigenus.betti.inertia``;
    each pivot replaces the remaining block by its true Schur complement, so
    a pivot's sign is read off directly.
    """
    size = len(matrix)
    work = [[Fraction(v) for v in row] for row in matrix]
    for row in work:
        if len(row) != size:
            raise ValueError("matrix must be square")
    for i in range(size):
        for j in range(i + 1, size):
            if work[i][j] != work[j][i]:
                raise ValueError("matrix must be symmetric")
    plus = minus = zero = 0
    rows = list(range(size))
    while rows:
        k = next((r for r in rows if work[r][r] != 0), None)
        if k is None:
            pair = next(
                ((r, s) for r in rows for s in rows if r != s and work[r][s] != 0),
                None,
            )
            if pair is None:
                zero += len(rows)
                break
            r, s = pair
            for t in rows:
                work[r][t] += work[s][t]
            for t in rows:
                work[t][r] += work[t][s]
            k = r
        pivot = work[k][k]
        if pivot > 0:
            plus += 1
        else:
            minus += 1
        rows.remove(k)
        for r in rows:
            if work[r][k] == 0:
                continue
            factor = work[r][k] / pivot
            for t in rows:
                work[r][t] -= factor * work[k][t]
    return InertiaTriple(plus, minus, zero)


def fraction_reduce(matrix) -> tuple[list[list[Fraction]], int]:
    """The reduced row echelon form of a rational matrix by Gauss-Jordan elimination, and its rank."""
    work = [[Fraction(v) for v in row] for row in matrix]
    cols = len(work[0]) if work else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = 1 / work[r][c]
        work[r] = [v * inv for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                factor = work[i][c]
                work[i] = [v - factor * w for v, w in zip(work[i], work[r])]
        r += 1
    return work, r


def fraction_rank(matrix) -> int:
    """Number of pivots of a rational matrix by Gauss-Jordan elimination."""
    return fraction_reduce(matrix)[1]


def fraction_solve(matrix, rhs) -> list[Fraction]:
    """x with matrix x = rhs for an invertible square matrix: the last column of the reduced augmented matrix."""
    work, _ = fraction_reduce([[*row, b] for row, b in zip(matrix, rhs)])
    assert all(row[i] == 1 for i, row in enumerate(work)), "matrix is singular"
    return [row[-1] for row in work]


def reference_binomial_transform(chi) -> list[Fraction]:
    """K_j = sum_{p>=j} (-1)^{p-j} chi^p C(p, j), one Fraction term at a time."""
    n = len(chi) - 1
    out = []
    for j in range(n + 1):
        total = Fraction(0)
        for p in range(j, n + 1):
            total += Fraction(-1) ** (p - j) * Fraction(chi[p]) * comb(p, j)
        out.append(total)
    return out


def reference_check_inequalities(manifold: ManifoldData, epsilon: int) -> list[InequalityReport]:
    """The inequality reports on Fractions: the chi-vector, its transform, then Fraction products."""
    n = manifold.dimension
    sign = epsilon**n
    chi = chi_vector(manifold)
    hypothesis = (
        all(sign * (-1) ** p * chi[p] > 0 for p in range(n + 1))
        and all(v.denominator == 1 for v in chi)
        and all(Fraction(v).denominator == 1 for v in manifold.chern_numbers.values())
    )
    k_values = reference_binomial_transform(chi)
    reports = []
    for i in range(n // 2 + 1):
        scale = k_coefficients(n).k_polys[2 * i].denominator
        rhs = Fraction(comb(n + 1, 2 * i + 1) * scale)
        lhs = sign * k_values[2 * i] * scale
        witness = tuple(range(2 * i, n + 1))
        equality = all(chi[p] == sign * (-1) ** p for p in witness)
        reports.append(InequalityReport(i, lhs, rhs, scale, lhs >= rhs, equality, witness, hypothesis))
    return reports


def shift_degree(poly: YPolynomial, k: int) -> YPolynomial:
    """poly * y**k, by moving each coefficient up k degrees."""
    if k < 0:
        raise ValueError("cannot shift to negative degrees")
    return YPolynomial({d + k: c for d, c in poly.items()})


def reference_chi_minus_y(model: FixedPointModel) -> YPolynomial:
    """sum_F chi_{-y}(F) y^{d_F}, adding one shifted polynomial per component."""
    total = YPolynomial.zero()
    for comp in model.components:
        if comp.chi_minus_y is None:
            raise ValueError("positive-dimensional component lacks its modified genus")
        total = total + shift_degree(comp.chi_minus_y, comp.d_f)
    return total


def reference_novikov_polynomial(model: FixedPointModel) -> YPolynomial:
    """sum_F P_y(F) y^{2 d_F}, adding one shifted Poincare polynomial per component."""
    total = YPolynomial.zero()
    for comp in model.components:
        if comp.betti is None:
            raise ValueError("component has no Betti numbers")
        poincare = YPolynomial({i: b for i, b in enumerate(comp.betti)})
        total = total + shift_degree(poincare, 2 * comp.d_f)
    return total


def reference_signature(model: FixedPointModel) -> int:
    """sum_F sigma(F) (-1)^{d_F}, one power of -1 per component."""
    if any(comp.signature is None for comp in model.components):
        raise ValueError("component lacks a signature")
    return sum(comp.signature * (-1) ** comp.d_f for comp in model.components)


def reference_signature_identity_check(model: FixedPointModel) -> SignatureIdentityReport:
    """The signature identity report, each b_{2i}(xi) read as a Fraction coefficient of the reference sum."""
    applicable = all(
        c.betti is not None
        and c.signature is not None
        and c.signature == sum((-1) ** i * c.betti[2 * i] for i in range(c.complex_dim + 1))
        for c in model.components
    )
    signature = reference_signature(model)
    novikov = reference_novikov_polynomial(model)
    alternating = sum((-1) ** i * int(novikov.coefficient(2 * i)) for i in range(model.n + 1))
    return SignatureIdentityReport(applicable, signature, alternating)


def reference_consistency_isolated(model: FixedPointModel) -> IsolatedConsistencyReport:
    """The isolated-point report, reading the reference sums' coefficients as Fractions."""
    if any(c.complex_dim for c in model.components):
        raise ValueError("all components must be isolated points")
    chi = reference_chi_minus_y(model)
    novikov = reference_novikov_polynomial(model)
    odd_vanish = all(d % 2 == 0 for d, _ in novikov.items())
    # y -> y^2, substituted in Fractions
    matches = YPolynomial({2 * d: c for d, c in chi.items()}) == novikov
    positive = all(chi.coefficient(i) > 0 for i in range(model.n + 1))
    return IsolatedConsistencyReport(odd_vanish, matches, positive)


def reference_graded_exponential(a: dict[Partition, YPolynomial], cap: int) -> ChernPolynomial:
    """The weight-cap part of exp(A) by m E_m = sum_k k A_k E_{m-k}, term by term on YPolynomials."""
    if () in a:
        raise ValueError("exponential requires vanishing constant term")
    exp: list[dict[Partition, YPolynomial]] = [{(): YPolynomial.one()}]
    for m in range(1, cap + 1):
        acc: dict[Partition, YPolynomial] = {}
        for pa, ca in a.items():
            k = sum(pa)
            if k > m:
                continue
            for pb, cb in exp[m - k].items():
                key = merge(pa, pb)
                acc[key] = acc.get(key, YPolynomial.zero()) + ca * cb * Fraction(k, m)
        exp.append(acc)
    return ChernPolynomial(cap, exp[cap])
