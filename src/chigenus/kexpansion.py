"""Taylor coefficients of the genus at y = -1 and the Eulerian machinery.

Writing chi_y(M) = sum_j K_j(M) * (y+1)^j defines Chern polynomials
K_0..K_n; K_0 is the top Chern class and the even K_{2i} carry the
inequality content. This module computes the K_j by exact re-expansion of
the universal genus polynomial, checks the classical closed forms for
K_0..K_4, implements the binomial transform between the chi^p and the K_j,
and checks that the Eulerian polynomials (built in :mod:`chigenus.engine`)
encode the reciprocal series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Sequence

from .chern import ChernPolynomial
from .engine import chi_y_chern_polynomial, eulerian_polynomials
from .linalg import solve
from .partitions import Partition
from .series import TruncatedSeries
from .ypoly import YPolynomial


@dataclass(frozen=True)
class KTable:
    """K_0..K_n as grade-n Chern polynomials with constant coefficients."""

    n: int
    k_polys: tuple[ChernPolynomial, ...]


_K_CACHE: dict[int, KTable] = {}


def k_coefficients(n: int) -> KTable:
    """Expand the universal genus polynomial in powers of (y + 1).

    Each coefficient of the table is put over its own common denominator q,
    as (1/q) * sum_d v_d y^d with integers v_d; the numerator of its K_j part
    is then sum_d v_d * C(d, j) * (-1)^(d - j), so the shift to y = -1 runs
    on ints and each K coefficient is made as one ``Fraction``. Results are
    memoized per n for the life of the process, like the tables themselves.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    cached = _K_CACHE.get(n)
    if cached is not None:
        return cached
    table = chi_y_chern_polynomial(n)
    buckets: list[dict[Partition, Fraction]] = [{} for _ in range(n + 1)]
    for part, coeff in table.items():
        terms = coeff.items()
        q = lcm(*(value.denominator for _, value in terms))
        numerators = [(d, value.numerator * (q // value.denominator)) for d, value in terms]
        for j in range(coeff.degree + 1):
            total = sum(v * comb(d, j) * (-1) ** (d - j) for d, v in numerators if d >= j)
            if total == 0:
                continue
            if j > n:
                raise ArithmeticError(f"coefficient of {part} has y-degree above {n}")
            buckets[j][part] = Fraction(total, q)
    result = KTable(n, tuple(ChernPolynomial(n, bucket) for bucket in buckets))
    _K_CACHE[n] = result
    return result


def reassemble(table: KTable) -> ChernPolynomial:
    """sum_j K_j * (y+1)^j; must equal the genus polynomial identically."""
    one_plus_y = YPolynomial({0: 1, 1: 1})
    total = ChernPolynomial.zero(table.n)
    for j, poly in enumerate(table.k_polys):
        total = total + poly.scale(one_plus_y**j)
    return total


def _chern_monomial(indices: Sequence[int], n: int) -> Partition | None:
    """Partition for c_{i_1}...c_{i_k}, or None when some class vanishes.

    An index 0 contributes the unit class; indices outside 1..n kill the
    whole monomial.
    """
    parts = []
    for i in indices:
        if i < 0 or i > n:
            return None
        if i == 0:
            continue
        parts.append(i)
    return tuple(sorted(parts, reverse=True))


def _combination(n: int, pieces: list[tuple[Fraction, Sequence[int]]]) -> ChernPolynomial:
    terms: dict[Partition, Fraction] = {}
    for coeff, indices in pieces:
        part = _chern_monomial(indices, n)
        if part is None:
            continue
        terms[part] = terms.get(part, Fraction(0)) + coeff
    return ChernPolynomial(n, terms)


def closed_form_k(j: int, n: int) -> ChernPolynomial:
    """Classical closed form of K_j for j <= 4, valid for every n >= 1.

    Monomials whose index falls outside 1..n are dropped; c_0 counts as 1.
    """
    if not 0 <= j <= 4:
        raise ValueError("closed forms are implemented for j <= 4 only")
    nq = Fraction(n)
    if j == 0:
        return _combination(n, [(Fraction(1), [n])])
    if j == 1:
        return _combination(n, [(-nq / 2, [n])])
    if j == 2:
        return _combination(
            n,
            [
                (nq * (3 * n - 5) / 24, [n]),
                (Fraction(1, 12), [1, n - 1]),
            ],
        )
    if j == 3:
        return _combination(
            n,
            [
                (-nq * (n - 2) * (n - 3) / 48, [n]),
                (-Fraction(n - 2, 24), [1, n - 1]),
            ],
        )
    lead = nq * (15 * n**3 - 150 * n**2 + 485 * n - 502)
    mixed = Fraction(4 * (15 * n**2 - 85 * n + 108))
    return _combination(
        n,
        [
            (lead / 5760, [n]),
            (mixed / 5760, [1, n - 1]),
            (Fraction(8, 5760), [1, 1, n - 2]),
            (Fraction(24, 5760), [2, n - 2]),
            (-Fraction(8, 5760), [1, 1, 1, n - 3]),
            (Fraction(24, 5760), [1, 2, n - 3]),
            (-Fraction(24, 5760), [3, n - 3]),
        ],
    )


@dataclass(frozen=True)
class ClosedFormCheck:
    j: int
    matches: bool


@dataclass(frozen=True)
class ClosedFormReport:
    n: int
    checks: tuple[ClosedFormCheck, ...]

    @property
    def all_match(self) -> bool:
        return all(c.matches for c in self.checks)


def verify_closed_forms(n: int) -> ClosedFormReport:
    """Compare computed K_j with the closed forms, for j <= min(n, 4)."""
    table = k_coefficients(n)
    checks = []
    for j in range(min(n, 4) + 1):
        checks.append(ClosedFormCheck(j, table.k_polys[j] == closed_form_k(j, n)))
    return ClosedFormReport(n, tuple(checks))


def binomial_transform(chi: Sequence[Fraction | int], epsilon: int = 1) -> list[Fraction]:
    """K_0..K_n from the chi-vector: K_j = sum_{p>=j} (-1)^{p-j} chi^p C(p, j).

    The global sign epsilon appears on both sides of the defining identity,
    so the returned values do not depend on it; it is validated only.
    """
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    n = len(chi) - 1
    out = []
    for j in range(n + 1):
        total = Fraction(0)
        for p in range(j, n + 1):
            total += Fraction(-1) ** (p - j) * Fraction(chi[p]) * comb(p, j)
        out.append(total)
    return out


@dataclass(frozen=True)
class SpanCheck:
    odd_index: int
    in_span: bool
    combination: tuple[Fraction, ...] = field(default=())


@dataclass(frozen=True)
class SpanReport:
    n: int
    checks: tuple[SpanCheck, ...]

    @property
    def all_in_span(self) -> bool:
        return all(c.in_span for c in self.checks)


def odd_k_span_check(n: int) -> SpanReport:
    """Exhibit each K_{2i+1} as a combination of K_0, K_2, ..., K_{2i}.

    Solved exactly over the partition basis; a failure would mean the odd
    coefficients carry information beyond the even ones, which the theory
    forbids.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    table = k_coefficients(n)
    checks = []
    for i in range(0, (n - 1) // 2 + 1):
        odd = 2 * i + 1
        basis = [table.k_polys[2 * j] for j in range(i + 1)]
        target = table.k_polys[odd]
        support: set[Partition] = set()
        for poly in basis + [target]:
            support.update(p for p, _ in poly.items())
        rows = []
        rhs = []
        for part in sorted(support, reverse=True):
            rows.append([b.coefficient(part).constant_value() for b in basis])
            rhs.append(target.coefficient(part).constant_value())
        solution = solve(rows, rhs)
        if solution is None:
            checks.append(SpanCheck(odd, False))
        else:
            checks.append(SpanCheck(odd, True, tuple(solution)))
    return SpanReport(n, tuple(checks))


def eulerian_identity_check(order: int) -> bool:
    """Verify that the Eulerian polynomials generate the reciprocal series.

    The claim is (e^{x(1-y)} - 1) / (1 - y e^{x(1-y)}) = sum P_i(y) x^i / i!.
    The denominator's constant term 1 - y is not invertible over Q[y], so
    the quotient is checked in cross-multiplied form, which determines it
    uniquely in the integral domain Q[y][[x]].
    """
    if order < 1:
        raise ValueError("order must be positive")
    if order > 12:
        raise ValueError("order capped at 12")
    one_minus_y = YPolynomial({0: 1, 1: -1})
    y = YPolynomial.variable()
    # e^{x(1-y)} truncated: x^k coefficient (1-y)^k / k!
    exp_coeffs = [one_minus_y**k * Fraction(1, factorial(k)) for k in range(order)]
    lhs = TruncatedSeries(
        [YPolynomial.zero()] + exp_coeffs[1:], order
    )  # e^{x(1-y)} - 1
    denominator = TruncatedSeries(
        [YPolynomial.one() - y * exp_coeffs[0]] + [-(y * c) for c in exp_coeffs[1:]], order
    )  # 1 - y e^{x(1-y)}
    polys = eulerian_polynomials(max(order - 1, 1))
    gen = TruncatedSeries(
        [YPolynomial.zero()]
        + [polys[i - 1] * Fraction(1, factorial(i)) for i in range(1, order)],
        order,
    )
    return denominator * gen == lhs
