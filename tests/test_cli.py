"""Command-line behavior: payload formats, exit codes, reproducibility."""

import hashlib
import json
from pathlib import Path

import pytest

from chigenus import catalog, engine, verify
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
    broken = (("always-false", "synthetic failing check", lambda: "n=0"),)
    monkeypatch.setattr(verify, "CHECKS", verify.CHECKS + broken)
    code, out, _ = run(capsys, ["verify-paper"])
    assert code == 1
    results = json.loads(out)
    assert results[-1]["pass"] is False


def test_degree_cap(capsys, monkeypatch):
    code, _, err = run(capsys, ["chi", "--n", "13"])
    assert code == 2 and "GENUS_MAX_N" in err
    monkeypatch.setenv("GENUS_MAX_N", "14")
    code, out, _ = run(capsys, ["kcoeffs", "--n", "13"])
    assert code == 0
    monkeypatch.setenv("GENUS_MAX_N", "4")
    code, _, err = run(capsys, ["catalog", "--make", "pn:8"])
    assert code == 2 and "GENUS_MAX_N" in err


def test_over_cap_catalog_key_is_rejected_before_building(capsys, monkeypatch):
    def build(n):
        raise AssertionError(f"built P^{n}")

    monkeypatch.setattr(catalog, "projective_space", build)
    for key in ("pn:40", "product:pn:30,pn:10", "hyp:13:2", "pnaction:40"):
        code, out, err = run(capsys, ["catalog", "--make", key])
        assert code == 2 and out == "" and "exceeds GENUS_MAX_N=12" in err, key


DIGESTS = json.loads((Path(__file__).parent.parent / "perfbench" / "digests.json").read_text())


@pytest.mark.parametrize("command", ["chi", "kcoeffs"])
@pytest.mark.parametrize("n", range(1, 9))
def test_symbolic_output_is_byte_identical(capsys, command, n):
    code, out, _ = run(capsys, [command, "--n", str(n)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[f"{command} --n {n}"]


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


def test_malformed_json_names_field(capsys, tmp_path):
    bad = write(tmp_path, "bad.json", {"dimension": 2, "chernNumbers": "nope"})
    code, _, err = run(capsys, ["ineq", "--manifold", bad])
    assert code == 2 and "chernNumbers" in err
