"""The chi_y genus as a universal Chern polynomial and its evaluations.

The genus of a 2n-real-dimensional almost-complex manifold is the integral
of the product over the Chern roots x_i of the normalized series Q(y; x_i).
We never manipulate the roots themselves: the logarithm of the series turns
the product into a sum over power sums of the roots, each power sum is
rewritten in the c_i via Newton's identities, and a truncated exponential
in the graded monomial ring recovers the degree-n integrand.

The logarithm is taken in closed form (Hirzebruch, *Topological Methods in
Algebraic Geometry*, section 1.8): its x^j coefficient is
l_j(y) = beta_j (1+y)^j + (-1)^j y A_{j-1}(-y) / j!, with A_k the Eulerian
polynomials and beta_j = -A_{j-1}(-1) / (2^j (2^j - 1) j!) for j >= 2, so
one integer Eulerian triangle is its only ingredient. The build runs on
ints only: each l_j is a ``YPolynomial``, an integer row over a
denominator, each power sum p_j an integer Chern polynomial, and the
exponential takes the exponent factored as the pieces l_j p_j and keeps
every weight over its own reduced scale. :func:`normalized_series` builds Q
itself, as the reference route the tests check the closed form against.
:class:`ManifoldData` is the one manifold record; it takes Chern numbers as
``int`` or ``Fraction`` only, evaluates its chi_y polynomial once as it is
built, and checks a given signature and action against it. It rebuilds a
profile through the profile's own type and reads an action's chi_{-y} off
the model, which localized it as it was built, so loading this module
loads neither ``betti`` nor ``localization``. Serre duality has one
predicate, :func:`duality_holds`, on a bare chi-vector.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial
from types import MappingProxyType
from typing import TYPE_CHECKING

from .chern import ChernPolynomial, graded_exponential, integer_power_sums
from .partitions import Partition, iter_partitions
from .ypoly import YPolynomial, require_exact, slots_equal

if TYPE_CHECKING:
    from .betti import BettiProfile
    from .localization import FixedPointModel
    from .series import TruncatedSeries


# dimension -> its partitions in ``iter_partitions`` order, kept once a ManifoldData
# of that dimension has been built, so later ones walk a tuple, not the generator;
# a dict, not functools.cache, because only a walk that completed is kept, so a
# document that claims a huge dimension costs nothing
_PARTITIONS: dict[int, tuple[Partition, ...]] = {}


class ManifoldData:
    """Exact Chern numbers of a closed almost-complex manifold, plus extras.

    ``chern_numbers`` is a read-only mapping with one entry per partition of
    the complex dimension, in the reverse-lexicographic order of
    ``iter_partitions`` whatever order they were given in, each a
    ``Fraction``: a given ``Fraction`` is kept as it is and an ``int`` is
    converted once. ``betti.dim`` is twice that dimension, the Betti
    numbers' alternating sum, the Euler number, is the top Chern number, and
    ``action.n`` equals the dimension. Past those checks, ``genus`` holds the
    chi_y polynomial. A profile's sigma must be chi_y(1), and is filled in
    when absent; an action whose components all carry their modified genus
    must localize chi_{-y}, and a Hamiltonian action whose components all
    carry their Betti numbers must have the profile's as Novikov numbers.
    Builders and readers pass every field to the constructor, so each is
    checked once, and no field is rebound after it.
    Instances compare by value, every field included, but define no hash.
    """

    __slots__ = ("dimension", "chern_numbers", "betti", "action", "genus")

    def __init__(
        self,
        dimension: int,
        chern_numbers: dict[Partition, Fraction | int],
        betti: BettiProfile | None = None,
        action: FixedPointModel | None = None,
    ) -> None:
        require_exact("dimension", (dimension,), (int,))
        require_exact("Chern numbers", chern_numbers.values())
        # the walk stops at the first missing partition, so it visits at most one
        # partition more than were given: a dimension costs nothing to claim, and
        # only a dimension whose walk completed is kept in _PARTITIONS
        known = _PARTITIONS.get(dimension)
        numbers = {}
        for part in known or iter_partitions(dimension):
            if part not in chern_numbers:
                raise ValueError(
                    f"Chern numbers must cover all partitions of {dimension}; missing {list(part)}"
                )
            value = chern_numbers[part]
            numbers[part] = value if value.__class__ is Fraction else Fraction(value)
        if len(numbers) != len(chern_numbers):
            raise ValueError(
                f"Chern numbers must cover all partitions of {dimension}; "
                f"got {len(chern_numbers)}, but p({dimension}) = {len(numbers)}"
            )
        if known is None:
            _PARTITIONS[dimension] = tuple(numbers)
        if betti is not None:
            if betti.dim != 2 * dimension:
                raise ValueError(f"betti.dim {betti.dim} is not twice the dimension {dimension}")
            euler = sum(betti.betti[0::2]) - sum(betti.betti[1::2])
            top = numbers[(dimension,) if dimension else ()]
            if euler != top:
                raise ValueError(f"betti has Euler number {euler}, but the top Chern number is {top}")
        if action is not None and action.n != dimension:
            raise ValueError(f"action.n {action.n} is not the dimension {dimension}")
        self.dimension = dimension
        self.chern_numbers = MappingProxyType(numbers)
        self.genus = genus = evaluate_genus(chi_y_chern_polynomial(dimension), self)
        if betti is not None:
            sigma = genus.evaluate(1)
            if sigma.denominator != 1:
                raise ValueError(f"chi_y(1) = {sigma} is not an integer signature")
            if betti.sigma is None:
                betti = type(betti)(betti.dim, betti.betti, int(sigma))
            elif betti.sigma != sigma:
                raise ValueError(f"signature {betti.sigma} is not chi_y(1) = {sigma}")
        localized = action.chi_minus_y if action is not None else None
        if localized is not None and localized != genus.negate_y():
            raise ValueError(
                f"action localizes chi_-y = {localized}, but the Chern numbers give {genus.negate_y()}"
            )
        # a Hamiltonian model's Novikov row ends in b_2n = 1, so it has the profile's length
        novikov = action.novikov if action is not None and action.hamiltonian else None
        if novikov is not None and betti is not None and novikov.row != betti.betti:
            i = next(i for i, (a, b) in enumerate(zip(novikov.row, betti.betti)) if a != b)
            raise ValueError(
                "a Hamiltonian action's Novikov numbers are its Betti numbers, "
                f"but the action gives b_{i} = {novikov.row[i]} and betti has b_{i} = {betti.betti[i]}"
            )
        self.betti = betti
        self.action = action

    __eq__ = slots_equal


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
    from .series import TruncatedSeries

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
    """P_1..P_up_to, the descent-count polynomials.

    P_m has degree m - 1, positive palindromic coefficients, and total mass m!.
    The rows come from the descent-count triangle
    a(m, k) = (k+1) a(m-1, k) + (m-k) a(m-1, k-1): appending the letter m to
    a permutation either preserves or creates a descent.
    """
    if up_to < 1:
        raise ValueError("need at least one polynomial")
    polys = []
    prev = [1]
    for m in range(1, up_to + 1):
        padded = [0, *prev, 0]
        row = [(k + 1) * padded[k + 1] + (m - k) * padded[k] for k in range(m)]
        polys.append(YPolynomial.from_row(1, row))
        prev = row
    return polys


def log_q_coefficients(n: int) -> list[YPolynomial]:
    """The x^1..x^n coefficients of log Q, in closed form.

    With u = x(1+y), log Q = log(u / (1 - e^{-u})) + log((1 + y e^{-u}) / (1 + y)).
    The first term gives beta_j (1+y)^j, with beta_1 = 1/2 and
    beta_j = -A_{j-1}(-1) / (2^j (2^j - 1) j!) = -B_j / (j j!) for j >= 2
    (zero for odd j >= 3); the second gives (-1)^j y A_{j-1}(-y) / j!, A_0 = 1.
    Over den = 2^j (2^j - 1) j!, beta_j is den/2 at j = 1 and -A_{j-1}(-1)
    after, and the tail's y^(i+1) coefficient is (-1)^(j+i) a(j-1, i) den/j!,
    so each l_j is built as one integer row over den.
    """
    eulerian = [(1,)] + [p.row for p in eulerian_polynomials(max(n - 1, 1))]
    out = []
    for j in range(1, n + 1):
        a = eulerian[j - 1]
        den = 2**j * (2**j - 1) * factorial(j)
        beta = den // 2 if j == 1 else sum(a[1::2]) - sum(a[::2])
        row = [beta * comb(j, i) for i in range(j + 1)]
        for i, c in enumerate(a):
            row[i + 1] += (-1) ** (j + i) * c * (den // factorial(j))
        out.append(YPolynomial.from_row(den, row))
    return out


@cache
def chi_y_chern_polynomial(n: int) -> ChernPolynomial:
    """Universal grade-n Chern polynomial of the chi_y genus.

    Its evaluation on the Chern numbers of a manifold is the chi_y polynomial.
    The power sums p_1..p_n are built once, on integer coefficients, and
    paired with the x^k coefficients l_k of log Q in the closed form of
    Hirzebruch section 1.8, each an integer row over a denominator, so no
    series or ``Fraction`` arithmetic runs. The exponential
    of sum_k l_k p_k keeps each weight m as a grade-m Chern polynomial in
    its cleared form and returns the weight-n one as the table (see
    :func:`~chigenus.chern.graded_exponential`).
    Memoized per argument for the life of the process.
    """
    if n < 0:
        raise ValueError("dimension must be non-negative")
    sums = integer_power_sums(n, n)
    pieces = {k: (ell, sums[k]) for k, ell in enumerate(log_q_coefficients(n), start=1)}
    return graded_exponential(pieces, n)


def evaluate_genus(table: ChernPolynomial, manifold: ManifoldData) -> YPolynomial:
    """chi_y polynomial of a manifold: pair the table with its Chern numbers."""
    if manifold.dimension != table.grade:
        raise ValueError(
            f"dimension mismatch: table is for n={table.grade}, manifold has n={manifold.dimension}"
        )
    return table.evaluate(manifold.chern_numbers)


def chi_vector(manifold: ManifoldData) -> list[Fraction]:
    """The indices chi^0, ..., chi^n read off the genus polynomial."""
    return [manifold.genus.coefficient(p) for p in range(manifold.dimension + 1)]


def chi_minus_y(manifold: ManifoldData) -> YPolynomial:
    """The modified genus: coefficient of y^p is (-1)^p chi^p."""
    return manifold.genus.negate_y()


def specialize(manifold: ManifoldData, at: str) -> Fraction:
    """Evaluate the genus at y = -1, 0, 1 (Euler, Todd, signature).

    The Euler specialization is cross-checked against the top Chern number,
    which it must reproduce identically.
    """
    try:
        point = SPECIAL_VALUES[at]
    except KeyError:
        raise ValueError(f"unknown specialization {at!r}; expected euler, todd or signature") from None
    value = manifold.genus.evaluate(point)
    if at == "euler":
        top: Partition = (manifold.dimension,) if manifold.dimension else ()
        expected = manifold.chern_numbers[top]
        if value != expected:
            raise ArithmeticError(
                f"Euler specialization {value} disagrees with top Chern number {expected}"
            )
    return value


def duality_holds(chi: "list[Fraction]") -> bool:
    """Whether chi^p == (-1)^n chi^{n-p} for all p, on a bare chi-vector.

    On ``chi_vector(manifold)`` this holds identically for the symbolic
    table, so it doubles as an end-to-end consistency check of evaluation.
    """
    n = len(chi) - 1
    sign = (-1) ** n
    return all(chi[p] == sign * chi[n - p] for p in range(n + 1))
