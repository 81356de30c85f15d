"""Catalog constructions: Chern numbers, Betti profiles, circle actions."""

import hashlib
import json
import re
from fractions import Fraction
from itertools import combinations_with_replacement, product as tuples
from math import comb
from pathlib import Path

import pytest

from chigenus import catalog, serialize
from chigenus.catalog import (
    CATALOG_KEYS,
    CohomologyModel,
    ManifoldData,
    hypersurface,
    make_action,
    make_manifold,
    product,
    projective_space,
    standard_catalog,
    standard_pn_action,
)
from chigenus.chern import ChernPolynomial
from chigenus.engine import chi_vector, duality_holds, specialize
from chigenus.partitions import iter_partitions
from chigenus.ypoly import YPolynomial

from oracles import fraction_solve, point, synthetic_manifold


def test_projective_plane_numbers():
    p2 = projective_space(2)
    assert p2.chern_numbers == {(2,): Fraction(3), (1, 1): Fraction(9)}


def test_projective_line():
    assert projective_space(1).chern_numbers == {(1,): Fraction(2)}


def test_top_chern_number_is_euler_count():
    for n in range(1, 9):
        assert projective_space(n).chern_numbers[(n,)] == n + 1


def test_model_integration_matches_binomial_products():
    for n in range(1, 9):
        pn = projective_space(n)
        for part in iter_partitions(n):
            expected = Fraction(1)
            for lam in part:
                expected *= comb(n + 1, lam)
            assert pn.chern_numbers[part] == expected, (n, part)


def test_product_of_lines():
    p1p1 = product(projective_space(1), projective_space(1))
    assert p1p1.chern_numbers[(1, 1)] == 8
    assert p1p1.chern_numbers[(2,)] == 4
    assert p1p1.genus == projective_space(1).genus ** 2


def test_product_line_with_plane():
    p1p2 = product(projective_space(1), projective_space(2))
    assert p1p2.chern_numbers[(3,)] == 6  # Euler count 2 * 3


def test_product_takes_any_two_manifolds():
    p2 = projective_space(2)
    assert product(point(), p2).chern_numbers == p2.chern_numbers
    text = serialize.dumps(serialize.manifold_to_json(hypersurface(2, 4)))
    k3 = serialize.manifold_from_json(json.loads(text))
    assert product(k3, projective_space(1)) == make_manifold("product:hyp:2:4,pn:1")


def test_product_betti_profile_is_kuenneth():
    p1p2 = product(projective_space(1), projective_space(2))
    assert p1p2.betti is not None
    assert p1p2.betti.betti == (1, 0, 2, 0, 2, 0, 1)
    assert p1p2.betti.sigma == 0


def test_quartic_surface():
    k3 = hypersurface(2, 4)
    assert k3.chern_numbers == {(2,): Fraction(24), (1, 1): Fraction(0)}
    assert k3.betti is not None
    assert k3.betti.betti == (1, 0, 22, 0, 1)
    assert k3.betti.sigma == -16


def test_degree_one_hypersurface_is_projective_space():
    assert hypersurface(2, 1).chern_numbers == projective_space(2).chern_numbers
    assert hypersurface(3, 1).chern_numbers == projective_space(3).chern_numbers


def test_quadric_surface_matches_product_of_lines():
    quadric = hypersurface(2, 2)
    p1p1 = product(projective_space(1), projective_space(1))
    assert quadric.chern_numbers == p1p1.chern_numbers


def test_quintic_threefold():
    quintic = hypersurface(3, 5)
    assert quintic.chern_numbers[(3,)] == -200
    assert quintic.betti is not None
    assert quintic.betti.betti == (1, 0, 1, 204, 1, 0, 1)


def test_plane_curves():
    line = hypersurface(1, 1)
    assert line.chern_numbers[(1,)] == 2
    cubic = hypersurface(1, 3)
    assert cubic.chern_numbers[(1,)] == 0
    assert cubic.betti is not None and cubic.betti.betti == (1, 2, 1)


def test_self_intersections_come_out_integral():
    for key, data in standard_catalog():
        for part, value in data.chern_numbers.items():
            assert value.denominator == 1, (key, part)


def test_duality_on_catalog():
    for key, data in standard_catalog():
        assert data.dimension <= 8
        assert duality_holds(chi_vector(data)), key


def test_hypersurface_profile_sigma_matches_genus():
    for n, d in ((2, 3), (2, 4), (4, 2), (4, 6)):
        data = hypersurface(n, d)
        assert data.betti is not None
        assert data.betti.sigma == specialize(data, "signature"), (n, d)


def test_hypersurface_todd_genus_closed_form():
    # independent oracle: chi(O_X) = 1 + (-1)^n C(d-1, n+1) for a smooth
    # degree-d hypersurface of dimension n
    for n in range(1, 5):
        for d in range(1, 7):
            expected = 1 + (-1) ** n * comb(d - 1, n + 1)
            assert specialize(hypersurface(n, d), "todd") == expected, (n, d)


def test_standard_action_weights():
    model = standard_pn_action(2, (0, 1, 2))
    assert [c.weights for c in model.components] == [(1, 2), (-1, 1), (-2, -1)]
    assert [c.d_f for c in model.components] == [0, 1, 2]
    assert model.hamiltonian


def test_action_dF_is_rank_order():
    # d_f of each fixed point is the rank of its exponent among all exponents
    model = standard_pn_action(3, (5, -2, 9, 0))
    assert [c.d_f for c in model.components] == [2, 0, 3, 1]


def test_make_manifold_keys():
    assert make_manifold("pn:3").chern_numbers == projective_space(3).chern_numbers
    assert make_manifold("hyp:2:4").chern_numbers == hypersurface(2, 4).chern_numbers
    triple = make_manifold("product:pn:1,pn:1,pn:1")
    assert triple.dimension == 3
    assert triple.chern_numbers[(3,)] == 8
    with pytest.raises(ValueError):
        make_manifold("grassmannian:2:4")
    with pytest.raises(ValueError):
        make_manifold("product:pn:1")
    with pytest.raises(ValueError):
        make_manifold("pn:x")


def test_make_action_keys():
    model = make_action("pnaction:2:0,1,2")
    assert model.n == 2 and len(model.components) == 3
    default = make_action("pnaction:4")
    assert [c.d_f for c in default.components] == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        make_action("pnaction:2:0,1")


def test_only_serialize_reads_catalog_key_text():
    for name in ("catalog.py", "cli.py"):
        source = (Path(serialize.__file__).parent / name).read_text()
        assert '.partition(":")' not in source and '.split(",")' not in source, name


def test_catalog_assigns_no_field_of_a_built_manifold():
    # every builder passes each field to the constructor, which checks them all;
    # only the constructor, in engine, assigns them
    fields = "|".join(ManifoldData.__slots__)
    assigned = rf"(\w+)\.(?:{fields})\s*=(?!=)"
    package = Path(serialize.__file__).parent
    for name, owners in (("catalog.py", set()), ("engine.py", {"self"})):
        source = (package / name).read_text()
        assert set(re.findall(assigned, source)) == owners, name
        assert "setattr(" not in source, name


# SHA-256 of the documents `catalog --make` prints for these keys, then point(), joined by
# newlines
SWEEP_KEYS = (
    [f"pn:{n}" for n in range(1, 13)]
    + [f"hyp:{n}:{d}" for n in range(1, 13) for d in range(1, 9)]
    + [f"product:pn:{a},pn:{b}" for a in range(1, 7) for b in range(1, 7)]
)
SWEEP_DIGEST = "7228397bec3bf938e6c79f31712e28492435e4a6ab968dedfec0c4ac80018735"


def test_catalog_documents_are_byte_identical_over_a_sweep():
    manifolds = [make_manifold(key) for key in SWEEP_KEYS] + [point()]
    docs = [serialize.dumps(serialize.manifold_to_json(data)) for data in manifolds]
    assert len(docs) == 145
    assert hashlib.sha256("\n".join(docs).encode()).hexdigest() == SWEEP_DIGEST


def test_point_genus():
    assert chi_vector(point()) == [Fraction(1)]
    assert point().genus == YPolynomial.one()


def test_manifold_data_requires_all_partitions():
    with pytest.raises(ValueError, match="cover all partitions"):
        ManifoldData(2, {(2,): Fraction(24)})


def _hypersurface_chern_class(n, d):
    """(1+h)^{n+2} (1+dh)^{-1} mod h^{n+1}, by long division."""
    total = []
    for j in range(n + 1):
        total.append(comb(n + 2, j) - d * (total[j - 1] if j else 0))
    return total


def _ring_model(key):
    """The truncated-ring model of a pn:, hyp: or product: key, tensoring the factors' rings."""
    kind, _, rest = key.partition(":")
    if kind == "product":
        return _tensor([_ring_model(factor) for factor in rest.split(",")])
    if kind == "pn":
        n, d = int(rest), 1
        total = [comb(n + 1, j) for j in range(n + 1)]
    else:
        n, d = map(int, rest.split(":"))
        total = _hypersurface_chern_class(n, d)
    chern = {(j,): Fraction(a) for j, a in enumerate(total) if a}
    return CohomologyModel(("h",), (n,), Fraction(d), chern)


def _tensor(models):
    """The ring model of a product: generators side by side, top integrals and total classes multiplied."""
    orders, top, chern = (), Fraction(1), {(): Fraction(1)}
    for model in models:
        orders += model.orders
        top *= model.top_integral
        factor_chern = model.total_chern.items()
        chern = {ma + mb: ca * cb for ma, ca in chern.items() for mb, cb in factor_chern}
    names = tuple([f"h{i + 1}" for i in range(len(orders))])
    return CohomologyModel(names, orders, top, chern)


def _manifold(model):
    n = sum(model.orders)
    return ManifoldData(n, model.chern_numbers(n))


# half of P^2, and a threefold whose total Chern class and top integral are fractions
_HALF_P2 = CohomologyModel(("h",), (2,), Fraction(1, 2), _ring_model("pn:2").total_chern)
_FRACTIONAL = CohomologyModel(
    ("h",), (3,), Fraction(2, 7), {(0,): 1, (1,): Fraction(1, 3), (2,): Fraction(-5, 2), (3,): 4}
)


# one projective space and one hypersurface with nonzero c_1 per factor dimension
_FACTORS = [f"pn:{n}" for n in range(1, 7)] + [f"hyp:{n}:{n + 3}" for n in range(1, 7)]
_PRODUCTS = [
    "product:" + ",".join(factors)
    for size in (2, 3)
    for factors in combinations_with_replacement(_FACTORS, size)
    if serialize.parse_key("product:" + ",".join(factors)).dimension <= 8
]


def test_catalog_chern_numbers_match_the_ring_model():
    keys = [f"pn:{n}" for n in range(1, 13)]
    keys += [f"hyp:{n}:{d}" for n in range(1, 7) for d in range(1, 7)]
    for key in keys + _PRODUCTS:
        data = make_manifold(key)
        assert data.chern_numbers == _ring_model(key).chern_numbers(data.dimension), key


def test_catalog_uses_no_ring_model(monkeypatch):
    def refuse(*args):
        raise AssertionError("the catalog integrated in the ring model")

    monkeypatch.setattr(CohomologyModel, "chern_numbers", refuse)
    monkeypatch.setattr(CohomologyModel, "multiply", refuse)
    for key in CATALOG_KEYS:
        # verify-paper's checks run on every entry, so none may be a point
        dimension = make_manifold(key).dimension
        assert dimension == serialize.parse_key(key).dimension and 1 <= dimension <= 8, key


def test_product_matches_the_ring_model_for_every_factor_pair():
    models = [_ring_model(key) for key in _FACTORS] + [_HALF_P2, _FRACTIONAL]
    pairs = [(a, b) for a in models for b in models if sum(a.orders) + sum(b.orders) <= 10]
    assert len(pairs) == 184
    for a, b in pairs:
        expected = _tensor([a, b]).chern_numbers(sum(a.orders) + sum(b.orders))
        assert product(_manifold(a), _manifold(b)).chern_numbers == expected, (a.orders, b.orders)


def test_product_with_seeded_chern_numbers_matches_the_ring_model():
    # the products of projective spaces P^mu, mu a partition of n, have linearly independent
    # Chern numbers (Milnor), and Chern numbers of a product are bilinear in the factors',
    # so half of P^2 times any numbers is the same combination of ring-model products
    for n in range(1, 7):
        target = serialize.manifold_from_json(synthetic_manifold(n))
        basis = [_tensor([_ring_model(f"pn:{m}") for m in mu]) for mu in iter_partitions(n)]
        columns = [model.chern_numbers(n) for model in basis]
        matrix = [[column[lam] for column in columns] for lam in iter_partitions(n)]
        weights = fraction_solve(matrix, list(target.chern_numbers.values()))
        expected = dict.fromkeys(iter_partitions(n + 2), Fraction(0))
        for weight, model in zip(weights, basis):
            for lam, value in _tensor([_HALF_P2, model]).chern_numbers(n + 2).items():
                expected[lam] += weight * value
        assert any(value.denominator > 1 for value in expected.values())
        assert product(_manifold(_HALF_P2), target).chern_numbers == expected, n


# every 2- and 3-factor product of these, folded as numbers, is the product of their records
_FOLD_FACTORS = [f"pn:{n}" for n in range(1, 5)] + [f"hyp:{a}:{d}" for a in range(1, 4) for d in range(1, 4)]


@pytest.mark.parametrize("size", [2, 3])
def test_a_folded_product_key_equals_the_product_of_its_factor_records(size):
    records = {key: make_manifold(key) for key in _FOLD_FACTORS}
    for factors in tuples(_FOLD_FACTORS, repeat=size):
        expected = records[factors[0]]
        for factor in factors[1:]:
            expected = product(expected, records[factor])
        built = make_manifold("product:" + ",".join(factors))
        assert built == expected and built.action is None, factors


@pytest.mark.parametrize(
    "key, message",
    [("product:pn:0,pn:1", "need n >= 1"), ("product:pn:2,hyp:2:0", "need n >= 1 and d >= 1")],
)
def test_a_product_key_keeps_its_factor_refusal(key, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_manifold(key)


def test_a_product_key_builds_one_record_and_no_factor_action(monkeypatch):
    evaluated = []
    original = ChernPolynomial.evaluate

    def counting(self, values):
        evaluated.append(self.grade)
        return original(self, values)

    def refuse(*args):
        raise AssertionError("a product key built a factor's action")

    key = "product:pn:2,hyp:3:2,pn:3"
    expected = make_manifold(key)  # the n = 8 table is built outside the count
    monkeypatch.setattr(ChernPolynomial, "evaluate", counting)
    monkeypatch.setattr(catalog, "standard_pn_action", refuse)
    assert make_manifold(key) == expected
    assert evaluated == [8]


def test_factors_of_the_same_dimensions_share_one_split_table():
    catalog._splits.cache_clear()
    product(projective_space(2), projective_space(3))
    table = catalog._splits(2, 3)
    product(hypersurface(2, 4), hypersurface(3, 5))
    assert catalog._splits.cache_info().currsize == 1 and catalog._splits(2, 3) is table
    assert [part for part, _ in table] == list(iter_partitions(5))
    product(projective_space(3), projective_space(2))
    assert catalog._splits.cache_info().currsize == 2
