"""Wire formats: canonical strings, round trips, schema errors."""

import json
from fractions import Fraction

import pytest

from chigenus import serialize
from chigenus.betti import BettiProfile
from chigenus.catalog import hypersurface, projective_space, standard_pn_action
from chigenus.engine import chi_y_chern_polynomial
from chigenus.serialize import SchemaError
from chigenus.ypoly import YPolynomial


def test_rational_strings():
    assert serialize.format_rational(Fraction(3)) == "3"
    assert serialize.format_rational(Fraction(-1, 12)) == "-1/12"
    assert serialize.parse_rational("7/2") == Fraction(7, 2)
    assert serialize.parse_rational("-4") == Fraction(-4)
    with pytest.raises(SchemaError):
        serialize.parse_rational("1.5e3")
    with pytest.raises(SchemaError):
        serialize.parse_rational(12)
    with pytest.raises(SchemaError):
        serialize.parse_rational("1/0")


def test_ypoly_round_trip():
    poly = YPolynomial({0: Fraction(1, 12), 3: Fraction(-5)})
    encoded = serialize.ypoly_to_json(poly)
    assert encoded == {"0": "1/12", "3": "-5"}
    assert serialize.ypoly_from_json(encoded) == poly


def test_chern_round_trip():
    poly = chi_y_chern_polynomial(3)
    encoded = serialize.chern_to_json(poly)
    again = serialize.chern_from_json(encoded)
    assert again == poly
    assert serialize.chern_to_json(again) == encoded


def test_chern_schema_checks_weight():
    bad = {"grade": 2, "terms": [{"partition": [1], "coeff": {"0": "1"}}]}
    with pytest.raises(SchemaError, match="weight"):
        serialize.chern_from_json(bad)


def test_chern_grade_rejects_booleans():
    # no command reads a Chern polynomial, so the grade is checked here and not in test_cli
    doc = {"grade": True, "terms": [{"partition": [1], "coeff": {"0": "1"}}]}
    with pytest.raises(SchemaError, match=r"^chern\.grade: "):
        serialize.chern_from_json(doc)


def test_duplicate_partitions_rejected():
    term = {"partition": [2], "coeff": {"0": "1"}}
    with pytest.raises(SchemaError, match="duplicate"):
        serialize.chern_from_json({"grade": 2, "terms": [term, term]})
    entry = {"partition": [1], "value": "2"}
    with pytest.raises(SchemaError, match="duplicate"):
        serialize.manifold_from_json({"dimension": 1, "chernNumbers": [entry, entry]})


def test_manifold_round_trip_is_byte_identical():
    for data in (projective_space(3), hypersurface(2, 4)):
        doc = serialize.manifold_to_json(data)
        text = serialize.dumps(doc)
        again = serialize.manifold_from_json(json.loads(text))
        assert serialize.dumps(serialize.manifold_to_json(again)) == text


def test_manifold_schema_error_names_field():
    with pytest.raises(SchemaError, match="manifold.dimension"):
        serialize.manifold_from_json({"chernNumbers": []})
    with pytest.raises(SchemaError, match=r"chernNumbers\[0\].value"):
        serialize.manifold_from_json(
            {"dimension": 1, "chernNumbers": [{"partition": [1], "value": 2}]}
        )


def test_model_round_trip():
    model = standard_pn_action(3)
    doc = serialize.model_to_json(model)
    text = serialize.dumps(doc)
    again = serialize.model_from_json(json.loads(text))
    assert serialize.dumps(serialize.model_to_json(again)) == text


def test_model_schema_errors():
    with pytest.raises(SchemaError, match="components"):
        serialize.model_from_json({"n": 2, "components": []})
    with pytest.raises(SchemaError, match=r"components\[0\].weights"):
        serialize.model_from_json(
            {"n": 1, "components": [{"complexDim": 0, "weights": [0]}]}
        )


def test_model_accepts_explicit_df():
    doc = {
        "n": 2,
        "hamiltonian": False,
        "components": [
            {"complexDim": 0, "dF": 0},
            {"complexDim": 0, "dF": 2},
        ],
    }
    model = serialize.model_from_json(doc)
    assert [c.d_f for c in model.components] == [0, 2]
    # re-emission keeps the explicit dF since no weights are known
    assert serialize.model_to_json(model)["components"][0]["dF"] == 0


def test_profile_round_trip():
    profile = BettiProfile(4, (1, 0, 22, 0, 1), -16)
    doc = serialize.profile_to_json(profile)
    assert serialize.profile_from_json(doc) == profile
    no_sigma = BettiProfile(4, (1, 0, 2, 0, 1))
    assert serialize.profile_from_json(serialize.profile_to_json(no_sigma)) == no_sigma


def test_profile_schema_errors():
    with pytest.raises(SchemaError, match="profile.betti"):
        serialize.profile_from_json({"dim": 2, "betti": ["1", "0", "1"]})
    with pytest.raises(SchemaError, match="profile"):
        serialize.profile_from_json({"dim": 2, "betti": [1, 5, 2]})


def test_form_round_trip():
    matrix = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    doc = serialize.form_to_json(matrix)
    assert doc == [["0", "1"], ["1", "0"]]
    assert serialize.form_from_json(doc) == matrix
    with pytest.raises(SchemaError, match=r"form\[0\]\[1\]"):
        serialize.form_from_json([["0", 1]])
