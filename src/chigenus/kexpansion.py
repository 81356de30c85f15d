"""Taylor coefficients of the genus at y = -1.

Writing chi_y(M) = sum_j K_j(M) * (y+1)^j defines Chern polynomials
K_0..K_n; K_0 is the top Chern class and the even K_{2i} carry the
inequality content. One transform owns the shift to y = -1:
:func:`binomial_row`, the Taylor shift of an integer row. It builds every
K_j from the universal genus polynomial's integer y-rows over its
denominator, so each K_j comes out in the same cleared form, and the
inequality reports and :func:`binomial_transform` run it on a chi-vector.
The module also checks the classical closed forms for K_0..K_4 and writes
each odd K_j as the combination of the even ones that Serre duality fixes,
checked on the table; both checks return one result per index, in index
order. The Eulerian identity, which only ``genus verify-paper`` checks,
lives in :mod:`chigenus.verify`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb
from typing import NamedTuple, Sequence

from .chern import ChernPolynomial
from .engine import chi_y_chern_polynomial
from .partitions import Partition
from .ypoly import clear, require_exact


class KTable(NamedTuple):
    """K_0..K_n as grade-n Chern polynomials with constant coefficients."""

    k_polys: tuple[ChernPolynomial, ...]


@cache
def k_coefficients(n: int) -> KTable:
    """Expand the universal genus polynomial in powers of (y + 1).

    The table holds one integer y-row per partition over one denominator D
    (see :class:`~chigenus.chern.ChernPolynomial`), so each stored row goes
    through :func:`binomial_row`, the Taylor shift to y = -1, once; entry j
    of the result is that partition's coefficient in K_j, over the same D.
    A row longer than n + 1 entries would mean a y-degree above n and is
    refused. Memoized per argument for the life of the process.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    table = chi_y_chern_polynomial(n)
    for part, row in zip(table.partitions, table.rows):
        if len(row) > n + 1:
            raise ArithmeticError(f"coefficient of {part} has y-degree above {n}")
    shifted = [binomial_row(row) for row in table.rows]
    k_rows = [{part: row[j : j + 1] for part, row in zip(table.partitions, shifted)} for j in range(n + 1)]
    return KTable(tuple(ChernPolynomial._from_rows(n, table.denominator, rows) for rows in k_rows))


def _combination(n: int, pieces: list[tuple[Fraction, Sequence[int]]]) -> ChernPolynomial:
    """sum coeff * c_{i_1}...c_{i_k}: an index 0 is the unit class, one outside 0..n kills its monomial."""
    terms: dict[Partition, Fraction] = {}
    for coeff, indices in pieces:
        if all(0 <= i <= n for i in indices):
            part = tuple(sorted([i for i in indices if i], reverse=True))
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


def verify_closed_forms(n: int) -> tuple[bool, ...]:
    """Whether each computed K_j equals its closed form, for j = 0..min(n, 4) in order."""
    table = k_coefficients(n)
    return tuple(table.k_polys[j] == closed_form_k(j, n) for j in range(min(n, 4) + 1))


def binomial_row(row: Sequence[int]) -> list[int]:
    """The Taylor shift to y = -1: sum_p row[p] y^p in powers of (y + 1), on ints.

    Entry j is sum_{p>=j} (-1)^{p-j} C(p, j) row[p], found by repeated
    differencing. On D times a chi-vector this is D times K_0..K_n, over the
    same D; on a y-row of the universal table, that partition's K_j coefficients.
    """
    out = list(row)
    for i in range(len(out) - 1):
        for k in range(len(out) - 2, i - 1, -1):
            out[k] -= out[k + 1]
    return out


def binomial_transform(chi: Sequence[Fraction | int]) -> list[Fraction]:
    """K_0..K_n from the chi-vector: K_j = sum_{p>=j} (-1)^{p-j} chi^p C(p, j).

    Entries must be ``int`` or ``Fraction``. The chi-vector is put over one
    denominator D by ``ypoly.clear`` and transformed by :func:`binomial_row`,
    so each K_j is one ``Fraction`` over D.
    """
    require_exact("chi-vector", chi)
    d, row = clear(chi)
    return [Fraction(k, d) for k in binomial_row(row)]


class SpanCheck(NamedTuple):
    in_span: bool
    combination: tuple[Fraction, ...] = ()


def odd_k_span_check(n: int) -> tuple[SpanCheck, ...]:
    """Write each K_{2i+1} as a combination of K_0, K_2, ..., K_{2i} and check it.

    Serre duality, chi^p = (-1)^n chi^{n-p}, reads sum_j K_j t^j =
    (-1)^n sum_l K_l t^l (t - 1)^{n-l} with t = 1 + y, so for odd j
    2 K_j = -sum_{l<j} C(n-l, j-l) K_l. Substituting the lower odd K's
    gives each odd K as an explicit rational combination of the even ones
    (K_1 = -(n/2) K_0 first), which is then checked on every partition of
    the universal table; a failure would mean the table breaks duality.
    Entry i of the result checks K_{2i+1}: ``combination`` holds the
    coefficients of K_0, K_2, ..., K_{2i} when ``in_span`` holds.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    # read each K's terms off its cleared rows once, not once per combination
    values = [
        {part: Fraction(row[0], poly.denominator) for part, row in zip(poly.partitions, poly.rows)}
        for poly in k_coefficients(n).k_polys
    ]
    # lower_odd[l][k]: coefficient of K_{2k} in the odd K_l
    lower_odd: dict[int, list[Fraction]] = {}
    checks = []
    for j in range(1, n + 1, 2):
        combination = [Fraction(-comb(n - l, j - l), 2) for l in range(0, j, 2)]
        for l, lower in lower_odd.items():
            for k, c in enumerate(lower):
                combination[k] -= comb(n - l, j - l) * c / 2
        lower_odd[j] = combination
        combined: dict[Partition, Fraction] = {}
        for c, even in zip(combination, values[0::2]):
            for part, v in even.items():
                combined[part] = combined.get(part, 0) + c * v
        in_span = {part: v for part, v in combined.items() if v} == values[j]
        checks.append(SpanCheck(True, tuple(combination)) if in_span else SpanCheck(False))
    return tuple(checks)

