"""Inertia, signature-alternating profiles, and the Betti inequalities."""

import random
from fractions import Fraction

import pytest

from chigenus.betti import (
    BettiProfile,
    InertiaTriple,
    betti_inequality_check,
    cs_classification,
    inertia,
    signature_alternating,
    tolman_unimodality_report,
)
from chigenus.catalog import projective_space
from chigenus.verify import congruent, random_invertible, random_symmetric
from oracles import fraction_inertia, fraction_rank


def test_inertia_of_diagonal_matrices():
    assert inertia([[1, 0], [0, -1]]) == InertiaTriple(1, 1, 0)
    assert inertia([[0]]) == InertiaTriple(0, 0, 1)
    rng = random.Random(2)
    for _ in range(30):
        diag = [rng.randint(-3, 3) for _ in range(rng.randint(1, 6))]
        matrix = [
            [Fraction(diag[i]) if i == j else Fraction(0) for j in range(len(diag))]
            for i in range(len(diag))
        ]
        expected = InertiaTriple(
            sum(1 for d in diag if d > 0),
            sum(1 for d in diag if d < 0),
            sum(1 for d in diag if d == 0),
        )
        assert inertia(matrix) == expected
        transform = random_invertible(rng, len(diag))
        assert inertia(congruent(matrix, transform)) == expected, (diag, transform)


def test_hyperbolic_pair():
    assert inertia([[0, 1], [1, 0]]) == InertiaTriple(1, 1, 0)
    assert inertia([[0, 0, 2], [0, 0, 0], [2, 0, 0]]) == InertiaTriple(1, 1, 1)
    # the zero diagonal appears only in the Schur complement of the first pivot
    assert inertia([[1, 1, 0], [1, 1, 1], [0, 1, 0]]) == InertiaTriple(2, 1, 0)


def sparse_symmetric(rng, size, zero_diagonal):
    """About half the entries zero, denominators up to 12, whole entries as int."""
    matrix = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            if (i == j and zero_diagonal) or rng.random() < 0.5:
                continue
            value = Fraction(rng.randint(-6, 6), rng.randint(1, 12))
            matrix[i][j] = matrix[j][i] = int(value) if value.denominator == 1 else value
    return matrix


def test_inertia_matches_fraction_oracle():
    rng = random.Random(8)
    for trial in range(650):
        size = trial % 13
        # an all-zero diagonal makes the first step a hyperbolic repair
        matrix = sparse_symmetric(rng, size, zero_diagonal=trial % 3 == 0)
        assert inertia(matrix) == fraction_inertia(matrix), matrix


def test_inertia_of_large_congruent_forms():
    rng = random.Random(24)
    for size in range(1, 25):
        signs = [rng.choice((1, -1, 0)) for _ in range(size)]
        diag = [Fraction(s * rng.randint(1, 5), rng.randint(1, 12)) for s in signs]
        base = [[diag[i] if i == j else 0 for j in range(size)] for i in range(size)]
        # P = L U with L unit lower-triangular and U of unit-modulus diagonal
        lower = [
            [1 if i == j else rng.randint(-2, 2) if j < i else 0 for j in range(size)]
            for i in range(size)
        ]
        upper = [
            [rng.choice((1, -1)) if i == j else rng.randint(-2, 2) if j > i else 0
             for j in range(size)]
            for i in range(size)
        ]
        transform = [
            [sum(lower[i][k] * upper[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)
        ]
        form = congruent(base, transform)
        expected = InertiaTriple(signs.count(1), signs.count(-1), signs.count(0))
        assert inertia(form) == fraction_inertia(form) == expected, size


def test_inertia_rejects_bad_input():
    with pytest.raises(ValueError, match="symmetric"):
        inertia([[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="square"):
        inertia([[0, 1]])


@pytest.mark.parametrize("entry", [0.5, "1/2"])
def test_inertia_rejects_entries_that_are_not_int_or_fraction(entry):
    with pytest.raises(ValueError, match="int or Fraction"):
        inertia([[Fraction(1), entry], [entry, 2]])


def test_random_invertible_has_full_rank():
    rng = random.Random(15)
    for trial in range(600):
        size = trial % 6 + 1
        transform = random_invertible(rng, size)
        assert fraction_rank(transform) == size, transform


def test_sylvester_invariance():
    rng = random.Random(100)
    for _ in range(100):
        size = rng.randint(1, 6)
        matrix = random_symmetric(rng, size)
        transform = random_invertible(rng, size)
        assert inertia(congruent(matrix, transform)) == inertia(matrix)


def test_signature_alternating_examples():
    assert signature_alternating(BettiProfile(4, (1, 0, 1, 0, 1), 1))
    assert not signature_alternating(BettiProfile(4, (1, 0, 22, 0, 1), -16))
    assert signature_alternating(BettiProfile(0, (1,), 1))


def test_signature_alternating_requires_sigma():
    with pytest.raises(ValueError, match="no signature"):
        signature_alternating(BettiProfile(4, (1, 0, 1, 0, 1)))


def test_profile_validation():
    with pytest.raises(ValueError, match="even"):
        BettiProfile(3, (1, 0, 0, 1))
    with pytest.raises(ValueError, match="Poincare"):
        BettiProfile(4, (1, 0, 2, 0, 3), 0)
    with pytest.raises(ValueError, match="divisible by 4"):
        BettiProfile(6, (1, 0, 1, 2, 1, 0, 1), 4)
    with pytest.raises(ValueError, match="non-negative"):
        BettiProfile(2, (1, -1, 1), 0)


@pytest.mark.parametrize(
    "betti, sigma, message",
    [
        ((1, 0, 2.5, 0, 1), None, "Betti numbers must be int, got float"),
        ((1, 0, "2", 0, 1), None, "Betti numbers must be int, got str"),
        ((1, 0, 2, 0, 1), 0.5, "signature must be int, got float"),
    ],
)
def test_profile_numbers_must_be_ints(betti, sigma, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        BettiProfile(4, betti, sigma)


def test_dimension_2_mod_4_is_automatically_alternating():
    # palindromic even Betti numbers cancel pairwise, so sigma = 0 suffices
    assert signature_alternating(BettiProfile(6, (1, 0, 5, 2, 5, 0, 1), 0))


def test_cs_classification():
    assert cs_classification(InertiaTriple(1, 5, 0)) == (True, False)
    assert cs_classification(InertiaTriple(3, 0, 0)) == (False, True)
    assert cs_classification(InertiaTriple(1, 0, 0)) == (True, True)
    with pytest.raises(ValueError, match="b_plus >= 1"):
        cs_classification(InertiaTriple(0, 2, 0))


def test_betti_inequalities_projective_four_space():
    profile = projective_space(4).betti
    report = betti_inequality_check(profile)
    assert report.alternating
    assert (report.b_plus, report.b_minus) == (1, 0)
    assert report.upper.holds and report.upper.equality
    assert report.lower.holds and report.lower.equality


def test_betti_inequalities_dimension_eight_profile():
    profile = BettiProfile(8, (1, 0, 2, 0, 4, 0, 2, 0, 1), 2)
    report = betti_inequality_check(profile)
    assert report.alternating
    assert report.b_plus == 3 and report.b_minus == 1
    assert report.upper.lhs == 2 and report.upper.rhs == 4
    assert report.upper.holds and not report.upper.equality
    assert not report.lower.equality


def test_betti_inequalities_dimension_four():
    profile = BettiProfile(4, (1, 0, 3, 0, 1), 1)
    report = betti_inequality_check(profile)
    assert report.lower.lhs == 3 and report.lower.rhs == 1  # b_2 >= b_0
    assert report.lower.holds and not report.lower.equality
    assert report.upper.k == 0 and report.upper.equality  # empty sums


def test_betti_inequalities_parity_error():
    # the profile refuses a sigma no middle form has, so the report never reads one
    with pytest.raises(ValueError, match="^middle Betti number and signature have different parity$"):
        BettiProfile(4, (1, 0, 2, 0, 1), 1)


def test_betti_inequalities_signature_bound():
    with pytest.raises(ValueError, match="^signature 4 exceeds the middle Betti number 2$"):
        BettiProfile(4, (1, 0, 2, 0, 1), 4)
    with pytest.raises(ValueError, match="^signature -4 exceeds the middle Betti number 2$"):
        BettiProfile(4, (1, 0, 2, 0, 1), -4)


def test_b_plus_minus_reconstruction():
    rng = random.Random(41)
    for _ in range(50):
        b_plus = rng.randint(1, 6)
        b_minus = rng.randint(0, 6)
        middle = b_plus + b_minus
        profile = BettiProfile(4, (1, 0, middle, 0, 1), b_plus - b_minus)
        report = betti_inequality_check(profile)
        assert report.b_plus == b_plus and report.b_minus == b_minus
        assert report.b_plus + report.b_minus == middle
        assert report.b_plus - report.b_minus == profile.sigma


def test_unimodality_reports():
    assert tolman_unimodality_report(projective_space(4).betti) is True
    assert tolman_unimodality_report(BettiProfile(8, (1, 0, 3, 0, 2, 0, 3, 0, 1), 0)) is False
    assert tolman_unimodality_report(BettiProfile(8, (1, 0, 1, 0, 2, 0, 1, 0, 1), 2)) is True
