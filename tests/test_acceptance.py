"""End-to-end acceptance battery: the ten checks behind ``genus verify-paper``.

One test per criterion runs its ``verify.CHECKS`` entry, which returns
``None`` on success or a witness naming the failing instance; the witness
is the failure message. Each test prints a PASS line once its check holds
(run with ``pytest -s`` to see them). Everything is exact rational
arithmetic; there are no tolerances anywhere.
"""

from fractions import Fraction

import pytest

from chigenus import betti, catalog, engine, inequalities, kexpansion, localization, verify
from chigenus.chern import ChernPolynomial
from chigenus.ypoly import YPolynomial


def accept(k: int, key: str) -> None:
    statement, check = {c[0]: c[1:] for c in verify.CHECKS}[key]
    witness = check()
    assert witness is None, f"{key}: {witness}"
    print(f"ACCEPTANCE {k}: PASS - {statement}")


def test_acceptance_1_k_formula_reproduction():
    accept(1, "k-closed-forms")


def test_acceptance_2_projective_space_genus():
    accept(2, "projective-genus")


def test_acceptance_3_duality():
    accept(3, "duality")


def test_acceptance_4_inequality_optimality():
    accept(4, "inequality-optimality")


def test_acceptance_5_binomial_transform():
    accept(5, "binomial-transform")


def test_acceptance_6_localization_oracle():
    accept(6, "localization")


def test_acceptance_7_signature_chain():
    accept(7, "signature-chain")


def test_acceptance_8_quartic_surface_cross_check():
    accept(8, "k3-cross-check")


def test_acceptance_9_eulerian_identity():
    accept(9, "eulerian-identity")


def test_acceptance_10_inertia_property_suite():
    accept(10, "inertia-suite")


def _diagonal_inertia(matrix):
    """Sign counts of the diagonal alone, which congruence does not preserve."""
    diag = [matrix[i][i] for i in range(len(matrix))]
    return betti.InertiaTriple(
        sum(1 for d in diag if d > 0), sum(1 for d in diag if d < 0), sum(1 for d in diag if d == 0)
    )


# One package function per check, replaced by a wrong one the check must catch,
# and the witness the check then names.
BREAKAGES = {
    "k-closed-forms": (kexpansion, "closed_form_k", lambda j, n: ChernPolynomial(n), "n=4 j=0"),
    "projective-genus": (catalog, "projective_space", lambda n: catalog.hypersurface(n, 2), "n=2"),
    "duality": (engine, "chi_vector", lambda m: [Fraction(1)] + [Fraction(0)] * m.dimension, "pn:1"),
    "inequality-optimality": (inequalities, "binomial_row", lambda row: [0] * len(row), "n=1 i=0"),
    "binomial-transform": (kexpansion, "binomial_transform", lambda chi: list(chi), "pn:1"),
    "localization": (
        localization,
        "novikov_polynomial",
        lambda model: YPolynomial.one(),
        "n=1 Novikov polynomial",
    ),
    "signature-chain": (localization, "localized_signature", lambda model: 0, "n=2 signature 0"),
    "k3-cross-check": (catalog, "hypersurface", lambda n, d: catalog.projective_space(n), "chi-vector"),
    "eulerian-identity": (
        engine,
        "eulerian_polynomials",
        lambda up_to: [YPolynomial.one()] * up_to,
        "order 8",
    ),
    "inertia-suite": (betti, "inertia", _diagonal_inertia, "congruence trial 1 size=2"),
}


@pytest.mark.parametrize("key", [c[0] for c in verify.CHECKS])
def test_check_returns_witness_when_broken(monkeypatch, key):
    module, name, wrong, expected = BREAKAGES[key]
    monkeypatch.setattr(module, name, wrong)
    check = {c[0]: c[2] for c in verify.CHECKS}[key]
    assert check() == expected


def test_the_inertia_suite_reaches_every_dimension_and_both_equality_cases():
    profiles = list(verify.alternating_profiles())
    reports = [betti.betti_inequality_check(p) for p in profiles]
    assert len(set(profiles)) == len(profiles) == 268
    assert all(r.alternating for r in reports)
    assert sum(r.b_plus == 1 for r in reports) == 77
    assert sum(r.b_minus == 0 for r in reports) == 89
    for dim in (4, 8, 12, 16):
        cases = [(r.upper.equality, r.lower.equality) for p, r in zip(profiles, reports) if p.dim == dim]
        assert any(upper for upper, _ in cases) and any(lower for _, lower in cases), dim


def test_the_inertia_suite_catches_swapped_equality_cases(monkeypatch):
    real = betti.betti_inequality_check

    def swapped(profile):
        report = real(profile)
        return report._replace(upper=report.lower, lower=report.upper)

    monkeypatch.setattr(betti, "betti_inequality_check", swapped)
    check = {c[0]: c[2] for c in verify.CHECKS}["inertia-suite"]
    assert check() == "profile (1, 0, 2, 0, 1) sigma=0"


def test_inequality_optimality_reads_lhs_and_rhs_by_different_routes(monkeypatch):
    # the left-hand side goes through the transform and the right-hand side does not,
    # so a wrong transform already shows on P^1
    monkeypatch.setattr(inequalities, "binomial_row", lambda row: list(row))
    check = {c[0]: c[2] for c in verify.CHECKS}["inequality-optimality"]
    assert check() == "n=1 i=0"
