"""The built-in verification battery behind ``genus verify-paper``.

Each check recomputes a published identity or bound from scratch and
compares exactly. A check returns ``None`` when it passes and otherwise a
short witness naming the failing instance, such as ``"n=6 j=3"``, which
``genus verify-paper`` writes to stderr. The computation is deterministic,
so two runs of the command produce byte-identical output: the inertia
suite draws its matrices from a seeded stream, so its draws and witnesses
depend only on the seed, and it enumerates its Betti profiles.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations, product
from math import factorial
from typing import Callable, Iterator

from . import betti as betti_mod
from . import catalog, engine, inequalities, kexpansion, localization
from .ypoly import YPolynomial


def _check_k_closed_forms() -> str | None:
    for n in range(4, 9):
        checks = kexpansion.verify_closed_forms(n)
        if len(checks) != 5:
            return f"n={n} checked {len(checks)} closed forms"
        for j, matches in enumerate(checks):
            if not matches:
                return f"n={n} j={j}"
    return None


def _check_projective_genus() -> str | None:
    for n in range(1, 11):
        expected = YPolynomial({p: (-1) ** p for p in range(n + 1)})
        if catalog.projective_space(n).genus != expected:
            return f"n={n}"
    return None


def _check_duality() -> str | None:
    for key, data in catalog.standard_catalog():
        if data.dimension > 8:
            return f"{key} has dimension {data.dimension} > 8"
        if not engine.duality_holds(engine.chi_vector(data)):
            return key
    return None


def _check_inequality_optimality() -> str | None:
    for n in range(1, 9):
        reports = inequalities.check_inequalities(catalog.projective_space(n), 1)
        if len(reports) != n // 2 + 1:
            return f"n={n} has {len(reports)} reports"
        for r in reports:
            if not (r.holds and r.equality and r.lhs == r.rhs):
                return f"n={n} i={r.index}"
            if r.equality_witness != tuple(range(2 * r.index, n + 1)):
                return f"n={n} i={r.index} witness {r.equality_witness}"
    p2 = inequalities.check_inequalities(catalog.projective_space(2), 1)[1]
    if (p2.lhs, p2.rhs) != (12, 2 * (2 - 1) * 2 * (2 + 1)):
        return f"n=2 i=1 reads {p2.lhs} >= {p2.rhs}"
    return None


def _check_binomial_transform() -> str | None:
    for key, data in catalog.standard_catalog():
        chi = engine.chi_vector(data)
        table = kexpansion.k_coefficients(data.dimension)
        evaluated = [
            poly.evaluate(data.chern_numbers).constant_value() for poly in table.k_polys
        ]
        if kexpansion.binomial_transform(chi) != evaluated:
            return key
    return None


def _check_localization() -> str | None:
    for n in range(1, 7):
        action = catalog.standard_pn_action(n)
        genus_route = engine.chi_minus_y(catalog.projective_space(n))
        if localization.localized_chi_minus_y(action) != genus_route:
            return f"n={n} genus"
        expected = YPolynomial({2 * i: 1 for i in range(n + 1)})
        if localization.novikov_polynomial(action) != expected:
            return f"n={n} Novikov polynomial"
    return None


def _check_signature_chain() -> str | None:
    for k in (1, 2, 3):
        signature = localization.localized_signature(catalog.standard_pn_action(2 * k))
        if signature != 1:
            return f"n={2 * k} signature {signature}"
    for key, action in catalog.standard_actions():
        report = localization.signature_identity_check(action)
        if not report.applicable:
            return f"{key} identity not applicable"
        if not report.holds:
            return f"{key} identity fails"
        chi = localization.localized_chi_minus_y(action)
        if chi.evaluate(-1) != localization.localized_signature(action):
            return f"{key} y=-1"
    return None


def _check_k3() -> str | None:
    k3 = catalog.hypersurface(2, 4)
    if engine.chi_vector(k3) != [Fraction(2), Fraction(-20), Fraction(2)]:
        return "chi-vector"
    if engine.chi_minus_y(k3) != YPolynomial({0: 2, 1: 20, 2: 2}):
        return "modified genus"
    for at, expected in (("todd", 2), ("signature", -16), ("euler", 24)):
        if engine.specialize(k3, at) != expected:
            return at
    profile = k3.betti
    if profile is None or profile.betti != (1, 0, 22, 0, 1):
        return "Betti numbers"
    report = betti_mod.betti_inequality_check(profile)
    if betti_mod.signature_alternating(profile) or report.alternating:
        return "signature-alternating"
    if (report.b_plus, report.b_minus) != (3, 19):
        return f"b+={report.b_plus} b-={report.b_minus}"
    return None


def _brute_force_eulerian(i: int) -> YPolynomial:
    counts: dict[int, int] = {}
    for perm in permutations(range(1, i + 1)):
        descents = sum(1 for a, b in zip(perm, perm[1:]) if a > b)
        counts[descents] = counts.get(descents, 0) + 1
    return YPolynomial(counts)


def _check_eulerian() -> str | None:
    """(e^{x(1-y)} - 1) / (1 - y e^{x(1-y)}) = sum_i P_i(y) x^i / i!, to order 8 in x.

    The denominator's constant term 1 - y is not invertible over Q[y], so
    the quotient is checked cross-multiplied, which determines it uniquely
    in the integral domain Q[y][[x]]: each series is the list of its
    x^0..x^7 coefficients, and the product is their truncated Cauchy product.
    """
    order = 8
    y = YPolynomial.variable()
    # e^{x(1-y)}: x^k coefficient (1-y)^k / k!
    exp_coeffs = [(1 - y) ** k * Fraction(1, factorial(k)) for k in range(order)]
    lhs = [YPolynomial.zero()] + exp_coeffs[1:]  # e^{x(1-y)} - 1
    denominator = [1 - y] + [-(y * c) for c in exp_coeffs[1:]]  # 1 - y e^{x(1-y)}
    polys = engine.eulerian_polynomials(order - 1)
    gen = [YPolynomial.zero()] + [p * Fraction(1, factorial(i)) for i, p in enumerate(polys, 1)]
    product = [
        sum((denominator[i] * gen[m - i] for i in range(m + 1)), YPolynomial.zero())
        for m in range(order)
    ]
    if product != lhs:
        return f"order {order}"
    for i in range(1, 7):
        if polys[i - 1] != _brute_force_eulerian(i):
            return f"i={i}"
    return None


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def random_symmetric(rng: random.Random, size: int) -> list[list[Fraction]]:
    """A symmetric matrix with entries p/q, -4 <= p <= 4 and 1 <= q <= 3."""
    matrix = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            matrix[i][j] = matrix[j][i] = _random_rational(rng)
    return matrix


def random_invertible(rng: random.Random, size: int) -> list[list[Fraction]]:
    """An invertible matrix: the rows of an upper-triangular one in shuffled order.

    Entries above the diagonal are drawn as in :func:`random_symmetric`, and
    each diagonal entry is redrawn until it is nonzero, so the determinant,
    up to sign the product of the diagonal, is nonzero by construction.
    """
    rows = []
    for i in range(size):
        diagonal = _random_rational(rng)
        while not diagonal:
            diagonal = _random_rational(rng)
        above = [_random_rational(rng) for _ in range(size - i - 1)]
        rows.append([Fraction(0)] * i + [diagonal] + above)
    rng.shuffle(rows)
    return rows


def congruent(
    matrix: list[list[Fraction]], transform: list[list[Fraction]]
) -> list[list[Fraction]]:
    """The congruent matrix transform^T * matrix * transform."""
    size = len(matrix)
    middle = [
        [sum(transform[k][i] * matrix[k][j] for k in range(size)) for j in range(size)]
        for i in range(size)
    ]
    return [
        [sum(middle[i][k] * transform[k][j] for k in range(size)) for j in range(size)]
        for i in range(size)
    ]


def alternating_profiles() -> Iterator[betti_mod.BettiProfile]:
    """Every small signature-alternating profile of dimension 4m, 1 <= m <= 4.

    b_0 = 1 and the odd Betti numbers vanish; b_2..b_{2m-2} run over 0..3,
    the upper half mirrors them, and the middle b_{2m} runs over 1..6. sigma
    is the alternating sum of the even Betti numbers, which has the parity
    of b_{2m} by duality. A profile is kept when its middle form can exist,
    |sigma| <= b_{2m}, and has b^+ = (b_{2m} + sigma) / 2 >= 1.
    """
    for m in range(1, 5):
        for lower in product(range(4), repeat=m - 1):
            for middle in range(1, 7):
                betti = [0] * (4 * m + 1)
                betti[0::2] = (1, *lower, middle, *reversed(lower), 1)
                sigma = betti_mod.even_alternating_sum(betti)
                if -middle < sigma <= middle:
                    yield betti_mod.BettiProfile(4 * m, betti, sigma)


def _check_inertia_suite() -> str | None:
    rng = random.Random(20240517)
    for trial in range(100):
        size = rng.randint(1, 5)
        base = random_symmetric(rng, size)
        transform = random_invertible(rng, size)
        if betti_mod.inertia(congruent(base, transform)) != betti_mod.inertia(base):
            return f"congruence trial {trial} size={size}"
    for triple, expected in (
        (betti_mod.InertiaTriple(1, 5, 0), (True, False)),
        (betti_mod.InertiaTriple(3, 0, 0), (False, True)),
        (betti_mod.InertiaTriple(1, 0, 0), (True, True)),
    ):
        if tuple(betti_mod.cs_classification(triple)) != expected:
            return f"classification of {tuple(triple)}"
    for profile in alternating_profiles():
        report = betti_mod.betti_inequality_check(profile)
        if not report.alternating:
            return f"profile {profile.betti} sigma={profile.sigma} not alternating"
        status = betti_mod.cs_classification(
            betti_mod.InertiaTriple(report.b_plus, report.b_minus, 0)
        )
        if report.upper.equality != status.reverse_cs or report.lower.equality != status.cs:
            return f"profile {profile.betti} sigma={profile.sigma}"
    return None


CHECKS: tuple[tuple[str, str, Callable[[], str | None]], ...] = (
    (
        "k-closed-forms",
        "computed K_0..K_4 match their closed forms for n = 4..8",
        _check_k_closed_forms,
    ),
    (
        "projective-genus",
        "chi_y of P^n equals sum of (-y)^p for n <= 10",
        _check_projective_genus,
    ),
    (
        "duality",
        "chi^p = (-1)^n chi^{n-p} on every catalog manifold of dimension <= 8",
        _check_duality,
    ),
    (
        "inequality-optimality",
        "P^n attains equality in every inequality; cleared i=1 bound is 2(n-1)n(n+1)",
        _check_inequality_optimality,
    ),
    (
        "binomial-transform",
        "binomial transform of the chi-vector equals the evaluated K_j on the catalog",
        _check_binomial_transform,
    ),
    (
        "localization",
        "fixed-point localization of P^n actions reproduces the genus and Betti numbers",
        _check_localization,
    ),
    (
        "signature-chain",
        "localized signatures, the alternating-sum identity, and the y = -1 specialization agree",
        _check_signature_chain,
    ),
    (
        "k3-cross-check",
        "the quartic surface has modified genus (2, 20, 2), Todd 2, signature -16, Euler 24, and is not signature-alternating",
        _check_k3,
    ),
    (
        "eulerian-identity",
        "the reciprocal series is generated by the Eulerian polynomials (brute-forced for i <= 6)",
        _check_eulerian,
    ),
    (
        "inertia-suite",
        "inertia is congruence-invariant; equality cases match the Cauchy-Schwarz classification",
        _check_inertia_suite,
    ),
)
