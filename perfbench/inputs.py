"""Seeded inputs with answers known by construction.

Nothing here imports ``chigenus``: the expected values come from how each
input is built, so they are an independent route to the program's outputs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm


def catalog_key(rng: random.Random, kind: str, dim: int) -> str:
    """A ``pn:``/``hyp:``/``product:`` key of complex dimension ``dim``."""
    if kind == "pn":
        return f"pn:{dim}"
    if kind == "hyp":
        return f"hyp:{dim}:{rng.randint(1, 7)}"
    parts = composition(rng, dim, 2 if dim < 3 else rng.randint(2, 3))
    factors = [f"pn:{a}" if rng.random() < 0.6 else f"hyp:{a}:{rng.randint(1, 5)}" for a in parts]
    return "product:" + ",".join(factors)


def composition(rng: random.Random, total: int, count: int) -> list[int]:
    """``count`` positive integers summing to ``total``, in random order."""
    cuts = sorted(rng.sample(range(1, total), count - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def factor_keys(key: str) -> list[str]:
    """Factor keys of a product key; a plain key is its own single factor."""
    kind, _, rest = key.partition(":")
    return rest.split(",") if kind == "product" else [key]


def key_dim(key: str) -> int:
    """Complex dimension of a ``pn:``/``hyp:``/``product:`` key."""
    return sum(int(f.split(":")[1]) for f in factor_keys(key))


def pn_genus_product(dims: list[int]) -> list[int]:
    """Coefficients of prod_i sum_p (-y)^p over P^{d_i}: the genus of a product of projective spaces."""
    coeffs = [1]
    for d in dims:
        factor = [(-1) ** p for p in range(d + 1)]
        coeffs = multiply(coeffs, factor)
    return coeffs


def multiply(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def action_exponents(rng: random.Random, n: int) -> list[int]:
    """n + 1 distinct exponents for the linear circle action on P^n."""
    return rng.sample(range(-4 * n - 8, 4 * n + 9), n + 1)


def congruent_form(
    rng: random.Random, size: int, zeros: bool
) -> tuple[list[list[Fraction]], tuple[int, int, int]]:
    """P^T D P for a random diagonal D and a random invertible P, with D's inertia.

    D has at least one positive entry (the middle form of a symplectic
    manifold pairs the symplectic class positively with itself). P = L U Pi
    with L unit lower-triangular, U upper-triangular with unit-modulus
    diagonal and Pi a column permutation, so P is invertible by construction.
    """
    signs = [1] + [rng.choice((1, -1, 0) if zeros else (1, -1)) for _ in range(size - 1)]
    rng.shuffle(signs)
    diag = [Fraction(s * rng.randint(1, 5), rng.randint(1, 3)) for s in signs]
    lower = [[1 if i == j else rng.randint(-2, 2) if j < i else 0 for j in range(size)] for i in range(size)]
    upper = [
        [rng.choice((1, -1)) if i == j else rng.randint(-2, 2) if j > i else 0 for j in range(size)]
        for i in range(size)
    ]
    p = [[sum(lower[i][k] * upper[k][j] for k in range(size)) for j in range(size)] for i in range(size)]
    order = list(range(size))
    rng.shuffle(order)
    p = [[row[c] for c in order] for row in p]
    # Integer arithmetic over a common denominator keeps generation cheap.
    den = lcm(*(q.denominator for q in diag))
    scaled = [int(q * den) for q in diag]
    form = [
        [
            Fraction(sum(p[k][i] * scaled[k] * p[k][j] for k in range(size)), den)
            for j in range(size)
        ]
        for i in range(size)
    ]
    triple = (signs.count(1), signs.count(-1), signs.count(0))
    return form, triple


def alternating_profile(
    rng: random.Random, m: int, b_plus: int, b_minus: int
) -> tuple[int, list[int], int]:
    """Betti numbers of dimension 4m whose signature b+ - b- is their alternating even sum.

    With E_j = b_{2j}, E_0 = 1 and S = sum_{j<m} (-1)^j E_j, the condition
    sigma = sum_j (-1)^j E_j reads b- = -S for even m and b+ = S for odd m;
    the free even Betti numbers are drawn, then E_1 or E_2 absorbs the rest.
    Odd Betti numbers are drawn symmetric and do not enter.
    """
    if m < 1 or b_plus < 1 or b_minus < 0:
        raise ValueError("need m >= 1, b+ >= 1, b- >= 0")
    if m == 1 and b_plus != 1:
        raise ValueError("dimension 4 forces b+ = 1")
    even = [1] + [rng.randint(0, 4) for _ in range(m - 1)]
    target = -b_minus if m % 2 == 0 else b_plus
    delta = target - sum((-1) ** j * e for j, e in enumerate(even))
    if m == 2:
        even[1] = 1 + b_minus
    elif delta < 0:
        even[1] -= delta
    elif delta > 0:
        even[2] += delta
    even.append(b_plus + b_minus)
    even += even[-2::-1]
    odd = [rng.randint(0, 3) for _ in range(m)]
    odd += odd[::-1]
    betti = []
    for j, e in enumerate(even):
        betti.append(e)
        if j < len(odd):
            betti.append(odd[j])
    return 4 * m, betti, b_plus - b_minus


def random_alternating_profile(rng: random.Random) -> tuple[int, list[int], int]:
    m = rng.randint(1, 6)
    b_plus = 1 if m == 1 else rng.randint(1, 5)
    return alternating_profile(rng, m, b_plus, rng.randint(0, 5))


def rational_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
