"""The chi_y genus as a universal Chern polynomial and its evaluations.

The genus of a 2n-real-dimensional almost-complex manifold is the integral
of the product over the Chern roots x_i of the normalized series Q(y; x_i).
We never manipulate the roots themselves: the logarithm of the series turns
the product into a sum over power sums of the roots, each power sum is
rewritten in the c_i via Newton's identities, and a truncated exponential
in the graded monomial ring recovers the degree-n integrand.

The logarithm is taken in closed form (Hirzebruch, *Topological Methods in
Algebraic Geometry*, section 1.8): its x^j coefficient is
beta_j (1+y)^j + (-1)^j y A_{j-1}(-y) / j!, with A_k the Eulerian
polynomials and beta_j = -A_{j-1}(-1) / (2^j (2^j - 1) j!) for j >= 2, so
the Eulerian triangle is its only ingredient. :func:`normalized_series`
builds Q itself, as the reference route the tests check this against.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Protocol

from .chern import ChernPolynomial, GradedTerms, graded_exponential, graded_part, integer_power_sums
from .partitions import Partition
from .series import TruncatedSeries
from .ypoly import YPolynomial


class ManifoldLike(Protocol):
    """Anything carrying a dimension and exact Chern numbers."""

    dimension: int
    chern_numbers: dict[Partition, Fraction]


SPECIAL_VALUES = {"euler": Fraction(-1), "todd": Fraction(0), "signature": Fraction(1)}


def normalized_series(order: int) -> TruncatedSeries:
    """The genus-defining power series in x, normalized to constant term 1.

    Writing u = x*(1+y), the series is x*(1 + y*e^{-u}) / (1 - e^{-u}).
    Both factors below have coefficients in Q[y] and the denominator has
    constant term 1, so the quotient stays inside Q[y] with no division by
    non-constant polynomials. At y = 0 it reduces to the Todd series
    x / (1 - e^{-x}); the x^k coefficient has y-degree at most k + 1.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    one_plus_y = YPolynomial({0: 1, 1: 1})
    y = YPolynomial.variable()
    numerator = [YPolynomial.one()]
    denominator = [YPolynomial.one()]
    for k in range(1, order):
        sign = Fraction(-1) ** k
        numerator.append(y * one_plus_y ** (k - 1) * (sign / factorial(k)))
        denominator.append(one_plus_y**k * (sign / factorial(k + 1)))
    num = TruncatedSeries(numerator, order)
    den = TruncatedSeries(denominator, order)
    return num * den.inverse()


def eulerian_polynomials(up_to: int) -> list[YPolynomial]:
    """P_1..P_up_to via the descent-count triangle.

    a(m, k) = (k+1) a(m-1, k) + (m-k) a(m-1, k-1): appending the letter m to
    a permutation either preserves or creates a descent. P_m has degree
    m - 1, positive palindromic coefficients, and total mass m!.
    """
    if up_to < 1:
        raise ValueError("need at least one polynomial")
    rows = [[1]]
    for m in range(2, up_to + 1):
        prev = rows[-1]
        row = []
        for k in range(m):
            keep = (k + 1) * prev[k] if k < len(prev) else 0
            create = (m - k) * prev[k - 1] if 0 <= k - 1 < len(prev) else 0
            row.append(keep + create)
        rows.append(row)
    return [YPolynomial({k: v for k, v in enumerate(row)}) for row in rows]


def log_q_coefficients(n: int) -> list[YPolynomial]:
    """The x^1..x^n coefficients of log Q, in closed form.

    With u = x(1+y), log Q = log(u / (1 - e^{-u})) + log((1 + y e^{-u}) / (1 + y)).
    The first term gives beta_j (1+y)^j, with beta_1 = 1/2 and
    beta_j = -A_{j-1}(-1) / (2^j (2^j - 1) j!) = -B_j / (j j!) for j >= 2
    (zero for odd j >= 3); the second gives (-1)^j y A_{j-1}(-y) / j!, A_0 = 1.
    """
    eulerian = [YPolynomial.one()] + eulerian_polynomials(n)
    one_plus_y = YPolynomial({0: 1, 1: 1})
    out = []
    for j in range(1, n + 1):
        a = eulerian[j - 1]
        if j == 1:
            beta = Fraction(1, 2)
        else:
            beta = -a.evaluate(-1) / (2**j * (2**j - 1) * factorial(j))
        tail = a.negate_y().shift_degree(1) * Fraction((-1) ** j, factorial(j))
        out.append(one_plus_y**j * beta + tail)
    return out


_TABLE_CACHE: dict[int, ChernPolynomial] = {}


def chi_y_chern_polynomial(n: int) -> ChernPolynomial:
    """Universal grade-n Chern polynomial of the chi_y genus.

    Its evaluation on the Chern numbers of a manifold is the chi_y polynomial.
    The power sums p_1..p_n are built once, on integer coefficients, and
    weighted by the x^k coefficients of log Q in the closed form of
    Hirzebruch section 1.8 (:func:`log_q_coefficients`, with beta_j read off
    A_{j-1}(-1)), so no series arithmetic runs; the exponential then runs on
    integers scaled by S_m = m! * D^m (see :func:`~chigenus.chern.graded_exponential`).
    Results are memoized per n for the life of the process; the computation
    is pure, so a racing recomputation is harmless.
    """
    if n < 0:
        raise ValueError("dimension must be non-negative")
    cached = _TABLE_CACHE.get(n)
    if cached is not None:
        return cached
    if n == 0:
        table = ChernPolynomial.monomial((), 1)
        _TABLE_CACHE[0] = table
        return table
    sums = integer_power_sums(n, n)
    exponent: GradedTerms = {}
    for k, ell in enumerate(log_q_coefficients(n), start=1):
        # p_k has weight k, so the pieces for different k never share a partition
        for part, coeff in sums[k].items():
            exponent[part] = ell * coeff
    table = graded_part(graded_exponential(exponent, n), n)
    _TABLE_CACHE[n] = table
    return table


def evaluate_genus(table: ChernPolynomial, manifold: ManifoldLike) -> YPolynomial:
    """chi_y polynomial of a manifold: pair the table with its Chern numbers."""
    if manifold.dimension != table.grade:
        raise ValueError(
            f"dimension mismatch: table is for n={table.grade}, manifold has n={manifold.dimension}"
        )
    return table.evaluate(manifold.chern_numbers)


def genus_polynomial(manifold: ManifoldLike) -> YPolynomial:
    return evaluate_genus(chi_y_chern_polynomial(manifold.dimension), manifold)


def chi_vector(manifold: ManifoldLike) -> list[Fraction]:
    """The indices chi^0, ..., chi^n read off the genus polynomial."""
    return genus_polynomial(manifold).coefficients_dense(manifold.dimension + 1)


def chi_minus_y(manifold: ManifoldLike) -> YPolynomial:
    """The modified genus: coefficient of y^p is (-1)^p chi^p."""
    return genus_polynomial(manifold).negate_y()


def specialize(manifold: ManifoldLike, at: str) -> Fraction:
    """Evaluate the genus at y = -1, 0, 1 (Euler, Todd, signature).

    The Euler specialization is cross-checked against the top Chern number,
    which it must reproduce identically.
    """
    try:
        point = SPECIAL_VALUES[at]
    except KeyError:
        raise ValueError(f"unknown specialization {at!r}; expected euler, todd or signature") from None
    value = genus_polynomial(manifold).evaluate(point)
    if at == "euler":
        top: Partition = (manifold.dimension,) if manifold.dimension else ()
        expected = manifold.chern_numbers[top]
        if value != expected:
            raise ArithmeticError(
                f"Euler specialization {value} disagrees with top Chern number {expected}"
            )
    return value


def duality_holds(chi: "list[Fraction]") -> bool:
    """Whether chi^p == (-1)^n chi^{n-p} for all p, on a bare chi-vector."""
    n = len(chi) - 1
    sign = (-1) ** n
    return all(chi[p] == sign * chi[n - p] for p in range(n + 1))


def check_duality(manifold: ManifoldLike) -> bool:
    """Self-reciprocity of the genus polynomial of a manifold.

    This holds identically for the symbolic table, so it doubles as an
    end-to-end consistency check of evaluation.
    """
    return duality_holds(chi_vector(manifold))
