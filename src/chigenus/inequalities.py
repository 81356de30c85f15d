"""Chern number inequalities attached to positivity of the modified genus.

A manifold whose modified genus is positive (eps = 1) or signed-positive
(eps = -1), that is eps^n (-1)^p chi^p > 0 for every p, satisfies
floor(n/2) + 1 inequalities: for each i, the Chern number combination
eps^n K_{2i} is at least its value on P^n, with equality exactly when
chi^p = eps^n (-1)^p for all p >= 2i. Since K_{2i} is a Taylor coefficient
at y = -1, both sides are read off chi-vectors: the left-hand side is the
binomial transform of the manifold's chi-vector, and chi_y(P^n) =
sum_p (-y)^p gives the right-hand side K_{2i}(P^n) = C(n+1, 2i+1) in
closed form. The manifold's chi-vector is the genus polynomial's integer
row over its denominator E, so the sign test, the equality criterion and
the transform (``kexpansion.binomial_row``) all run on ints, and each
left-hand side is one ``Fraction`` over E. Reports use the cleared integer
form: both sides are multiplied by the denominator D of K_{2i}'s cleared
form (reported as ``scale``), so the i = 0 line reads eps^n c_n >= n + 1
and the i = 1 line has right-hand side 2(n-1)n(n+1).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .engine import ManifoldData, partition_index
from .kexpansion import binomial_row, k_coefficients
from .ypoly import require_exact


class InequalityReport(NamedTuple):
    """One inequality, evaluated in cleared integer form.

    ``equality`` is the chi-vector criterion (chi^p = eps^n (-1)^p for
    p >= 2i), which coincides with lhs == rhs under the positivity
    hypothesis; ``hypothesis_met`` records that hypothesis so failing
    manifolds are flagged rather than rejected. It also requires integral
    Chern numbers and an integral chi-vector, which the theorem assumes
    (each chi^p is an index): rational data that merely passes the sign
    test, such as half of P^2, is not a counterexample.
    """

    index: int
    lhs: Fraction
    rhs: Fraction
    scale: int
    holds: bool
    equality: bool
    equality_witness: tuple[int, ...]
    hypothesis_met: bool


def check_inequalities(manifold: ManifoldData, epsilon: int = 1) -> list[InequalityReport]:
    """Evaluate every inequality on a manifold, detecting equality cases.

    Both sides come from the chi-vector: the left is eps^n K_{2i}(M), read
    off by the binomial transform, and the right is K_{2i}(P^n) =
    C(n+1, 2i+1), since chi_y(P^n) = sum_p (-y)^p. The table of K's supplies
    only each scale. The i = 1 right-hand side is cross-checked against
    2(n-1)n(n+1), which guards K_2's cleared denominator. ``epsilon`` must
    be the ``int`` 1 or -1.
    """
    require_exact("epsilon", [epsilon], (int,))
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 (chi-positive) or -1 (signed chi-positive)")
    n = manifold.dimension
    if n < 1:
        raise ValueError("need a manifold of positive dimension")
    sign = epsilon**n
    genus = manifold.genus
    den = genus.denominator
    row = [*genus.row, *[0] * (n + 1 - len(genus.row))]
    # E eps^n (-1)^p chi^p, which has the sign of eps^n (-1)^p chi^p since E > 0
    signed = [sign * (-1) ** p * c for p, c in enumerate(row)]
    # the integrality tests run only once the sign test has passed, so data that
    # fails it, as most does, pays nothing for them; E == 1 is an integral chi-vector
    hypothesis = all(s > 0 for s in signed) and den == 1 and manifold.scale == 1
    k_row = binomial_row(row)
    k_polys = k_coefficients(n).k_polys
    reports = []
    for i in range(n // 2 + 1):
        scale = k_polys[2 * i].denominator
        rhs = comb(n + 1, 2 * i + 1) * scale
        if i == 1 and rhs != 2 * (n - 1) * n * (n + 1):
            raise ArithmeticError(
                f"cleared i=1 bound {rhs} disagrees with 2(n-1)n(n+1) = {2 * (n - 1) * n * (n + 1)}"
            )
        lhs = sign * k_row[2 * i] * scale  # E times the left-hand side
        witness = tuple(range(2 * i, n + 1))
        equality = all(signed[p] == den for p in witness)
        reports.append(
            InequalityReport(
                index=i,
                lhs=Fraction(lhs, den),
                rhs=Fraction(rhs),
                scale=scale,
                holds=lhs >= rhs * den,
                equality=equality,
                equality_witness=witness,
                hypothesis_met=hypothesis,
            )
        )
    return reports


class SurfaceInequality(NamedTuple):
    label: str
    lhs: Fraction
    rhs: Fraction
    holds: bool
    equality: bool


class CurvatureBoundReport(NamedTuple):
    """The negative-first-Chern-class bound c_2 (-c_1)^{n-2} >= n/(2(n+1)) (-c_1)^n.

    For surfaces the report also carries the two cleared consequences
    3 c_2 >= c_1^2 and c_2 + c_1^2 >= 12, whose equality cases are realized
    by ball quotients with c_1^2 = 9, c_2 = 3.
    """

    n: int
    lhs: Fraction
    rhs: Fraction
    holds: bool
    equality: bool
    surface: tuple[SurfaceInequality, ...]


def miyaoka_yau_check(manifold: ManifoldData) -> CurvatureBoundReport:
    n = manifold.dimension
    if n < 2:
        raise ValueError("need n >= 2")
    row, scale, index = manifold.chern_row, manifold.scale, partition_index(n)
    c2_c1 = Fraction(row[index[(2,) + (1,) * (n - 2)]], scale)  # c_2 c_1^{n-2}, c_2 at n = 2
    c1_n = Fraction(row[index[(1,) * n]], scale)
    sign = Fraction(-1) ** n
    lhs = sign * c2_c1
    rhs = Fraction(n, 2 * (n + 1)) * sign * c1_n
    surface: tuple[SurfaceInequality, ...] = ()
    if n == 2:
        c2, c1_sq = c2_c1, c1_n
        surface = (
            SurfaceInequality("3*c2 >= c1^2", 3 * c2, c1_sq, 3 * c2 >= c1_sq, 3 * c2 == c1_sq),
            SurfaceInequality(
                "c2 + c1^2 >= 12", c2 + c1_sq, Fraction(12), c2 + c1_sq >= 12, c2 + c1_sq == 12
            ),
        )
    return CurvatureBoundReport(n, lhs, rhs, lhs >= rhs, lhs == rhs, surface)
