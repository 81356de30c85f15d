"""Command-line behavior: payload formats, exit codes, reproducibility."""

import copy
import hashlib
import json
import sys
from pathlib import Path

import pytest

from chigenus import catalog, engine, kexpansion, serialize, verify
from chigenus.chern import ChernPolynomial
from chigenus.ypoly import YPolynomial
from chigenus.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


@pytest.fixture()
def p2_file(tmp_path, capsys):
    code, out, _ = run(capsys, ["catalog", "--make", "pn:2"])
    assert code == 0
    return write(tmp_path, "p2.json", out)


def test_chi_symbolic(capsys):
    code, out, err = run(capsys, ["chi", "--n", "2"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["grade"] == 2
    assert doc["terms"][0] == {"partition": [2], "coeff": {"0": "1/12", "1": "-5/6", "2": "1/12"}}


def test_chi_evaluated(capsys, p2_file):
    code, out, _ = run(capsys, ["chi", "--n", "2", "--manifold", p2_file])
    assert code == 0
    assert out.strip() == '{"chi":[["0","1"],["1","-1"],["2","1"]]}'


def test_chi_specialized(capsys, p2_file):
    for at, expected in (("euler", '"3"'), ("todd", '"1"'), ("signature", '"1"')):
        code, out, _ = run(capsys, ["chi", "--manifold", p2_file, "--at", at])
        assert code == 0 and out.strip() == expected


def test_failed_cross_check_is_a_check_failure(capsys, monkeypatch, p2_file):
    monkeypatch.setattr(engine, "genus_polynomial", lambda manifold: YPolynomial({0: 4}))
    code, out, err = run(capsys, ["chi", "--manifold", p2_file, "--at", "euler"])
    assert code == 1 and out == ""
    assert "Euler specialization 4 disagrees with top Chern number 3" in err


def test_chi_dimension_mismatch(capsys, p2_file):
    code, out, err = run(capsys, ["chi", "--n", "3", "--manifold", p2_file])
    assert code == 2 and out == "" and "does not match" in err


def test_chi_requires_input(capsys):
    code, _, err = run(capsys, ["chi"])
    assert code == 2 and "chi needs" in err


def test_kcoeffs_verify(capsys):
    code, out, _ = run(capsys, ["kcoeffs", "--n", "4", "--verify"])
    assert code == 0
    doc = json.loads(out)
    assert doc["closedForms"]["allMatch"] is True
    assert doc["oddSpan"]["allInSpan"] is True
    assert len(doc["k"]) == 5
    assert doc["k"][0]["terms"] == [{"partition": [4], "coeff": {"0": "1"}}]


def test_kcoeffs_verify_reports_an_odd_k_outside_the_span(capsys, monkeypatch):
    # c_1^6 added to K_5 breaks the combination of K_0, K_2, K_4 that duality fixes
    n, odd = 6, 5
    table = kexpansion.k_coefficients(n)
    terms = dict(table.k_polys[odd].items())
    ones = (1,) * n
    terms[ones] = terms.get(ones, 0) + 1
    k_polys = list(table.k_polys)
    k_polys[odd] = ChernPolynomial(n, terms)
    monkeypatch.setitem(kexpansion._K_CACHE, n, kexpansion.KTable(n, tuple(k_polys)))
    report = kexpansion.odd_k_span_check(n)
    assert [(c.odd_index, c.in_span) for c in report.checks] == [(1, True), (3, True), (5, False)]
    assert report.checks[2].combination == ()
    code, out, _ = run(capsys, ["kcoeffs", "--n", str(n), "--verify"])
    doc = json.loads(out)
    assert code == 1
    assert doc["closedForms"]["allMatch"] is True
    assert doc["oddSpan"]["allInSpan"] is False
    assert doc["oddSpan"]["checks"][2] == {"j": 5, "inSpan": False, "combination": []}


def test_ineq_reports(capsys, p2_file):
    code, out, _ = run(capsys, ["ineq", "--manifold", p2_file, "--epsilon", "1"])
    assert code == 0
    reports = json.loads(out)
    assert reports[1] == {
        "i": 1,
        "lhs": "12",
        "rhs": "12",
        "scale": 12,
        "holds": True,
        "equality": True,
        "equalityWitness": [2],
        "hypothesisMet": True,
    }


def test_localize_with_check(capsys, tmp_path):
    code, out, _ = run(capsys, ["catalog", "--make", "pnaction:2:0,1,2"])
    assert code == 0
    model = write(tmp_path, "action.json", out)
    code, out, _ = run(capsys, ["localize", "--model", model, "--check", "mainapp4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["chiMinusY"] == {"0": "1", "1": "1", "2": "1"}
    assert doc["novikov"] == {"0": "1", "2": "1", "4": "1"}
    assert doc["signature"] == 1
    assert doc["check"]["holds"] is True


def test_localize_rejects_zero_weight(capsys, tmp_path):
    bad = write(
        tmp_path,
        "bad.json",
        {"n": 1, "components": [{"complexDim": 0, "weights": [0]}]},
    )
    code, out, err = run(capsys, ["localize", "--model", bad])
    assert code == 2 and out == ""
    assert "weights" in err


def test_betti_profile_and_form(capsys, tmp_path):
    profile = write(
        tmp_path, "k3.json", {"dim": 4, "betti": [1, 0, 22, 0, 1], "sigma": -16}
    )
    code, out, _ = run(capsys, ["betti", "--profile", profile])
    assert code == 0
    doc = json.loads(out)
    assert doc["signatureAlternating"] is False
    assert doc["inequalities"]["bPlus"] == 3
    assert doc["inequalities"]["bMinus"] == 19

    form = write(tmp_path, "form.json", [["0", "1"], ["1", "0"]])
    code, out, _ = run(capsys, ["betti", "--form", form])
    doc = json.loads(out)
    assert doc["inertia"] == {"bPlus": 1, "bMinus": 1, "bZero": 0}
    assert doc["cs"] == {"reverseCS": True, "CS": False}


def test_betti_sigma_from_form(capsys, tmp_path):
    profile = write(tmp_path, "prof.json", {"dim": 4, "betti": [1, 0, 1, 0, 1]})
    form = write(tmp_path, "one.json", [["1"]])
    code, out, _ = run(capsys, ["betti", "--profile", profile, "--form", form])
    assert code == 0
    doc = json.loads(out)
    assert doc["signatureAlternating"] is True


def test_betti_needs_input(capsys):
    code, _, err = run(capsys, ["betti"])
    assert code == 2 and "needs" in err


def test_catalog_round_trip_byte_identical(capsys, tmp_path):
    for key in ("pn:3", "hyp:2:4", "product:pn:1,pn:2"):
        code, out, _ = run(capsys, ["catalog", "--make", key])
        assert code == 0
        from chigenus import serialize

        doc = json.loads(out)
        again = serialize.dumps(serialize.manifold_to_json(serialize.manifold_from_json(doc)))
        assert again + "\n" == out


def test_catalog_list(capsys):
    code, out, _ = run(capsys, ["catalog", "--list"])
    assert code == 0
    doc = json.loads(out)
    assert "pn:4" in doc["manifolds"]
    assert any(k.startswith("pnaction:") for k in doc["actions"])


def test_catalog_bad_key(capsys):
    code, out, err = run(capsys, ["catalog", "--make", "torus:1"])
    assert code == 2 and out == ""


def test_verify_paper_passes_and_reproduces(capsys):
    code, out, _ = run(capsys, ["verify-paper"])
    assert code == 0
    results = json.loads(out)
    assert len(results) == 10
    assert all(r["pass"] for r in results)
    code2, out2, _ = run(capsys, ["verify-paper"])
    assert out2 == out


def test_verify_paper_reports_failure(capsys, monkeypatch):
    broken = (
        ("always-false", "synthetic failing check", lambda: "n=0"),
        ("long-witness", "synthetic failing check", lambda: "x" * 100_000),
    )
    monkeypatch.setattr(verify, "CHECKS", verify.CHECKS + broken)
    code, out, err = run(capsys, ["verify-paper"])
    assert code == 1
    results = json.loads(out)
    assert [r["pass"] for r in results[-2:]] == [False, False]
    first, second = err.splitlines()
    assert first == "genus: verify-paper: always-false: n=0"
    assert second.startswith("genus: verify-paper: long-witness: xxx") and len(second) < 300


def test_degree_cap(capsys, monkeypatch):
    code, _, err = run(capsys, ["chi", "--n", "13"])
    assert code == 2 and "GENUS_MAX_N" in err
    monkeypatch.setenv("GENUS_MAX_N", "14")
    code, out, _ = run(capsys, ["kcoeffs", "--n", "13"])
    assert code == 0
    monkeypatch.setenv("GENUS_MAX_N", "4")
    code, _, err = run(capsys, ["catalog", "--make", "pn:8"])
    assert code == 2 and "GENUS_MAX_N" in err


@pytest.mark.parametrize(
    "key",
    ["pn: 3", "pn:+3", "pn:\u0663", "pn:03", "pn:3_0", "product:pn:1,,pn:1", "product:pn:1,pn:1,"],
)
def test_catalog_key_integers_are_ascii_and_canonical(capsys, key):
    code, out, err = run(capsys, ["catalog", "--make", key])
    assert code == 2 and out == ""
    assert "catalog key" in err or "empty product factor" in err
    assert len(err.encode()) < 1024


def test_over_cap_catalog_key_is_rejected_before_building(capsys, monkeypatch):
    def build(n):
        raise AssertionError(f"built P^{n}")

    monkeypatch.setattr(catalog, "projective_space", build)
    for key in ("pn:40", "product:pn:30,pn:10", "hyp:13:2", "pnaction:40"):
        code, out, err = run(capsys, ["catalog", "--make", key])
        assert code == 2 and out == "" and "exceeds GENUS_MAX_N=12" in err, key


DIGESTS = json.loads((Path(__file__).parent.parent / "perfbench" / "digests.json").read_text())


@pytest.mark.parametrize("command", ["chi", "kcoeffs", "kcoeffs --verify"])
@pytest.mark.parametrize("n", range(1, 13))
def test_symbolic_output_is_byte_identical(capsys, command, n):
    name, *flags = command.split()
    argv = [name, "--n", str(n), *flags]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[" ".join(argv)]


# SHA-256 of `catalog --make KEY` stdout for every built-in key and two further products
CATALOG_DIGESTS = {
    "pn:1": "d2b24d7fea7e9ba68a5188cb66b5569133712eac448d8b6ea126e2c754fffa22",
    "pn:2": "697d8fe4eac5229fb527c7edd74a0ac123d88c229ec6f59341cc5d9099eb983e",
    "pn:3": "ae279f8ad74acd9efb67d4a80d3fd4d79448f4f2b39660b7ed42c3ac0ed8ef0e",
    "pn:4": "2ccfdc87825eb53edb2add875f8c399db8554c744bfa6098aa93d36d525f65c8",
    "pn:5": "200645901182d4b1cc2f2615f881989d7e9dfdeb1acf560faf1dcea2fcee6332",
    "pn:6": "2b8ddda21bf7ba41f35e25affa401d5c0233d6ba8a9f11514e9d55791e83d784",
    "pn:7": "284d40d545ddcbdf4a5062fc4e9a72939a3aa0ba7c096e1fcbd3a373f5f032d5",
    "pn:8": "384928e83a94f0e5e465ce8e928407b63f9b57f5389b1353ca7b84201fda1a0c",
    "hyp:1:3": "21203532a1430c2c397354776c1a492ade479c0aa26419f66cb7e56a21376b31",
    "hyp:2:1": "0cca032e8951fe1725af5f7f6f67e2ba80823e964dee6a433128f6e487961818",
    "hyp:2:2": "4b50037ee00e0ea9a95d55d6d0a51b9dc4cc973c29502798366e12b0650a965f",
    "hyp:2:4": "c7019d539ce08297de3731d963b0f16a8f31a8bb46f85f9462c9018eb1c3c9b4",
    "hyp:3:5": "5ebbf1c07f29751f42f1cba75ef2830194eb188f763db8e96d6897a533a31470",
    "hyp:4:6": "f738a0d3d09c453ecd6e2fba5f58bb6a1b684fbbd5e0795318fdc3e389f88c4f",
    "product:pn:1,pn:1": "53ce9b9ae4ed4b571d925d0636e917a3ac4a4c1b5bd0aa2a64c4ca7bc435c215",
    "product:pn:1,pn:2": "07df2f3801a842a09c40f377c0c5f709b20f68f70ca65285b4751d4eb4b58d9d",
    "product:pn:1,pn:3": "4ee4182df6b4b919ec07660a569435f153f6bd68e3c6ace88b37d0988e9546c3",
    "product:pn:2,pn:2": "d339d5b44006d021cea814d391c72d6a4a056d46a378b997b008d0ca83b3e5de",
    "product:pn:1,pn:1,pn:1": "55d5765ce586f917bc0bc900ad7a8abd3bb218eba714c78db2778e806b70e3f7",
    "product:hyp:2:4,pn:2": "4f1aacd65042d07d1d68edfb3024d6c46e89e8f38cf41fce4a0a113749232c15",
    "product:pn:3,pn:3,pn:2": "8f917264c0877a8ec4f94a5b1ccec33195ebda9ee87cac3f3fd029033e5768cb",
}


@pytest.mark.parametrize("key", catalog.CATALOG_KEYS + ("product:hyp:2:4,pn:2", "product:pn:3,pn:3,pn:2"))
def test_catalog_output_is_byte_identical(capsys, key):
    code, out, _ = run(capsys, ["catalog", "--make", key])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CATALOG_DIGESTS[key]


def test_unknown_command(capsys):
    code, out, err = run(capsys, ["nonsense"])
    assert code == 2 and out == ""
    assert "usage" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, ["ineq", "--manifold", "/nonexistent.json"])
    assert code == 2 and "cannot read" in err


def test_missing_partitions_error_is_bounded(capsys, monkeypatch, tmp_path):
    # under the cap, the dimension-40 document reaches the partition check
    monkeypatch.setenv("GENUS_MAX_N", "40")
    bad = write(tmp_path, "d40.json", {"dimension": 40, "chernNumbers": []})
    code, out, err = run(capsys, ["ineq", "--manifold", bad])
    assert code == 2 and out == ""
    assert "cover all partitions" in err and len(err.encode()) < 1024


# input -> command line, and the text its cut message must start with
LONG_INPUTS = {
    "zero-parts": (
        ["chi", "--manifold"],
        {"dimension": 1, "chernNumbers": [{"partition": [0] * 200_000, "value": "2"}]},
        "manifold.chernNumbers[0].partition: partition parts must be positive",
    ),
    "rational": (["betti", "--form"], [["1/" + "0" * 100_000]], "form[0][0]: expected 'p' or 'p/q'"),
    "degree": (
        ["localize", "--model"],
        {"n": 1, "components": [{"weights": [1], "chiMinusY": {"x" * 100_000: "1"}}, {"weights": [-1]}]},
        "model.components[0].chiMinusY: bad degree",
    ),
    "catalog-int": (["catalog", "--make", "pn:" + "x" * 100_000], None, "malformed catalog key"),
    "catalog-factor": (["catalog", "--make", "product:" + "q" * 100_000], None, "product factors must be"),
}


@pytest.mark.parametrize("case", LONG_INPUTS)
def test_long_input_error_is_bounded(capsys, tmp_path, case):
    argv, doc, lead = LONG_INPUTS[case]
    if doc is not None:
        argv = argv + [write(tmp_path, "doc.json", doc)]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("genus: " + lead) and len(err.encode()) < 1024, err[:300]


def test_leading_zeros_in_a_form_are_rejected(capsys, tmp_path):
    form = write(tmp_path, "form.json", [["007", "0"], ["0", "-0"]])
    code, out, err = run(capsys, ["betti", "--form", form])
    assert code == 2 and out == ""
    assert err == "genus: form[0][0]: expected 'p' or 'p/q' with q > 0, got '007'\n"


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no limit on digits converted to int"
)
@pytest.mark.parametrize(
    "argv, doc, lead",
    [
        (["betti", "--form"], [["1" * 5000]], "form[0][0]: too many digits"),
        (["betti", "--form"], [["1/" + "3" * 5000]], "form[0][0]: too many digits"),
        (
            ["localize", "--model"],
            {"n": 1, "components": [{"weights": [1], "chiMinusY": {"1" * 5000: "1"}}, {"weights": [-1]}]},
            "model.components[0].chiMinusY: degree has too many digits",
        ),
        # unquoted numbers fail in the JSON decoder itself, so the message names the file
        pytest.param(
            ["betti", "--form"],
            "[[" + "1" * 5000 + "]]",
            "{path} holds a number with too many digits",
            id="unquoted-form-entry",
        ),
        pytest.param(
            ["localize", "--model"],
            '{"n": ' + "1" * 5000 + ', "components": []}',
            "{path} holds a number with too many digits",
            id="unquoted-model-n",
        ),
    ],
)
def test_digits_over_the_conversion_limit_name_the_field(capsys, tmp_path, argv, doc, lead):
    path = write(tmp_path, "doc.json", doc)
    code, out, err = run(capsys, argv + [path])
    assert code == 2 and out == "" and len(err.encode()) < 1024
    assert err.startswith("genus: " + lead.format(path=path)), err[:300]
    assert "set_int_max_str_digits" not in err, err[:300]


def test_over_cap_manifold_is_rejected_before_building(capsys, monkeypatch, tmp_path):
    def listing(n):
        raise AssertionError(f"listed the partitions of {n}")

    monkeypatch.setattr(catalog, "partitions_of", listing)
    bad = write(tmp_path, "d40.json", {"dimension": 40, "chernNumbers": []})
    for argv in (
        ["ineq", "--manifold", bad],
        ["chi", "--manifold", bad],
        ["chi", "--manifold", bad, "--n", "3"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and err == "genus: degree 40 exceeds GENUS_MAX_N=12\n", argv


def _with(doc, path, value):
    """A deep copy of doc with the entry at path set to value."""
    doc = copy.deepcopy(doc)
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    return doc


# the documents of `catalog --make pn:1`, its action and a P^2 Betti profile
P1 = serialize.manifold_to_json(catalog.projective_space(1))
P1_ACTION = P1["action"]
P2_PROFILE = serialize.profile_to_json(catalog.projective_space(2).betti)

# field -> command, option, a document that is valid once its true/false reads as 1/0
BOOLEAN_DOCS = {
    "dimension": ("ineq", "--manifold", _with(P1, ["dimension"], True)),
    "partition": ("ineq", "--manifold", _with(P1, ["chernNumbers", 0, "partition"], [True])),
    "n": ("localize", "--model", _with(P1_ACTION, ["n"], True)),
    "complexDim": ("localize", "--model", _with(P1_ACTION, ["components", 0, "complexDim"], False)),
    "weights": ("localize", "--model", _with(P1_ACTION, ["components", 0, "weights"], [True])),
    "dF": ("localize", "--model", _with(P1_ACTION, ["components", 1], {"complexDim": 0, "dF": True})),
    "component-betti": ("localize", "--model", _with(P1_ACTION, ["components", 0, "betti"], [True])),
    "signature": ("localize", "--model", _with(P1_ACTION, ["components", 0, "signature"], True)),
    "dim": ("betti", "--profile", {"dim": False, "betti": [1]}),
    "betti": ("betti", "--profile", _with(P2_PROFILE, ["betti", 2], True)),
    "sigma": ("betti", "--profile", _with(P2_PROFILE, ["sigma"], True)),
}


@pytest.mark.parametrize("field", BOOLEAN_DOCS)
def test_json_booleans_are_not_integers(capsys, tmp_path, field):
    command, option, doc = BOOLEAN_DOCS[field]
    code, out, err = run(capsys, [command, option, write(tmp_path, "doc.json", doc)])
    assert code == 2 and out == "" and len(err.encode()) < 1024, err
    assert "expected a" in err and "integer" in err, err


def test_malformed_json_names_field(capsys, tmp_path):
    bad = write(tmp_path, "bad.json", {"dimension": 2, "chernNumbers": "nope"})
    code, _, err = run(capsys, ["ineq", "--manifold", bad])
    assert code == 2 and "chernNumbers" in err


@pytest.mark.parametrize("value", ["1\n", "\u0663"])
def test_rational_needs_ascii_digits_only(capsys, tmp_path, value):
    code, out, err = run(capsys, ["betti", "--form", write(tmp_path, "form.json", [[value]])])
    assert code == 2 and out == "" and err.startswith("genus: form[0][0]:"), err


@pytest.mark.parametrize(
    "degrees", [{"0_0": "1"}, {" 0": "1"}, {"+1": "1"}, {"01": "1"}, {"-1": "1"}, {"0_0": "1", " 0": "2"}]
)
def test_degree_keys_must_be_canonical(capsys, tmp_path, degrees):
    code, _, _ = run(capsys, ["localize", "--model", write(tmp_path, "ok.json", P1_ACTION)])
    assert code == 0
    doc = _with(P1_ACTION, ["components", 0, "chiMinusY"], degrees)
    code, out, err = run(capsys, ["localize", "--model", write(tmp_path, "doc.json", doc)])
    assert code == 2 and out == "" and err.startswith("genus: model.components[0].chiMinusY: bad degree"), err
