"""Command-line behavior: payload formats, exit codes, reproducibility."""

import contextlib
import copy
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import chigenus
from chigenus import betti, catalog, cli, engine, kexpansion, localization, serialize, verify
from chigenus.betti import inertia
from chigenus.chern import ChernPolynomial
from chigenus.ypoly import YPolynomial
from chigenus.cli import build_parser, main

from oracles import synthetic_manifold


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


def test_failed_cross_check_is_a_check_failure(capsys, monkeypatch, tmp_path):
    # a wrong genus on a document with no Betti numbers and no action to refuse it
    monkeypatch.setattr(engine, "evaluate_genus", lambda table, manifold: YPolynomial({0: 4}))
    bare = write(tmp_path, "bare.json", DOCUMENTS["bare"])
    code, out, err = run(capsys, ["chi", "--manifold", bare, "--at", "euler"])
    assert code == 1 and out == ""
    assert "Euler specialization 4 disagrees with top Chern number 2" in err


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
    broken, build = kexpansion.KTable(tuple(k_polys)), kexpansion.k_coefficients
    monkeypatch.setattr(kexpansion, "k_coefficients", lambda m: broken if m == n else build(m))
    checks = kexpansion.odd_k_span_check(n)
    assert [c.in_span for c in checks] == [True, True, False]
    assert checks[2].combination == ()
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


def test_a_hamiltonian_model_with_two_minima_is_an_input_error(capsys, tmp_path, p2_file):
    points = [{"complexDim": 0, "dF": d_f} for d_f in (0, 0, 1, 1)]
    model = {"n": 1, "hamiltonian": True, "components": points}
    refusal = "a Hamiltonian action has one minimum and one maximum; got 2 components with d_f = 0"
    code, out, err = run(capsys, ["localize", "--model", write(tmp_path, "model.json", model)])
    assert code == 2 and out == "" and err.startswith(f"genus: model: {refusal}") and len(err.encode()) < 1024
    # P^2's action with its minimum listed twice
    doc = json.loads(Path(p2_file).read_text())
    doc["action"]["components"].append(doc["action"]["components"][0])
    code, out, err = run(capsys, ["chi", "--manifold", write(tmp_path, "p2.json", doc)])
    assert code == 2 and out == "" and err.startswith(f"genus: manifold.action: {refusal}")
    model["hamiltonian"] = False
    assert run(capsys, ["localize", "--model", write(tmp_path, "model.json", model)])[0] == 0


def test_a_hamiltonian_model_without_a_minimum_or_maximum_is_an_input_error(capsys, tmp_path):
    curve = {"complexDim": 1, "betti": [1, 0, 1], "signature": 0, "chiMinusY": {"0": "1"}}
    refusal = "genus: model: a Hamiltonian action must attain d_f = 0 and d_f = n - dim F"
    for components in (
        # one fixed curve with a negative weight: no minimum, Novikov polynomial y^2 + y^4
        [{**curve, "dF": 1}],
        # a fixed curve at the bottom and a point with one positive weight: no maximum
        [{**curve, "dF": 0}, {"complexDim": 0, "dF": 1}],
    ):
        model = {"n": 2, "hamiltonian": True, "components": components}
        code, out, err = run(capsys, ["localize", "--model", write(tmp_path, "model.json", model)])
        assert code == 2 and out == "" and err.startswith(refusal) and len(err.encode()) < 1024, err
        model["hamiltonian"] = False
        assert run(capsys, ["localize", "--model", write(tmp_path, "model.json", model)])[0] == 0


def test_a_component_signature_its_dimension_forbids_is_an_input_error(capsys, tmp_path):
    # P^2 rotated about a line: the fixed line, a sphere with one positive weight,
    # cannot have signature 5, which would make the localized signature 6
    sphere = {"complexDim": 1, "weights": [1], "betti": [1, 0, 1], "signature": 5, "chiMinusY": {"0": "1", "1": "1"}}
    model = {"n": 2, "components": [sphere, {"weights": [-1, -1]}]}
    refusal = "genus: model.components[0]: signature must vanish in dimensions not divisible by 4\n"
    code, out, err = run(capsys, ["localize", "--model", write(tmp_path, "model.json", model), "--check", "mainapp4"])
    assert (code, out, err) == (2, "", refusal)
    sphere["signature"] = 0
    code, out, _ = run(capsys, ["localize", "--model", write(tmp_path, "model.json", model), "--check", "mainapp4"])
    assert code == 0 and json.loads(out)["signature"] == 1


def test_a_profile_sigma_no_middle_form_has_is_an_input_error(capsys, tmp_path, p2_file):
    # P^2's middle form has rank 1, so its signature is 1 or -1
    doc = json.loads(Path(p2_file).read_text())
    doc["betti"]["sigma"] = 2
    code, out, err = run(capsys, ["chi", "--manifold", write(tmp_path, "p2.json", doc)])
    assert (code, out, err) == (2, "", "genus: manifold.betti: signature 2 exceeds the middle Betti number 1\n")
    profile = {"dim": 4, "betti": [1, 0, 2, 0, 1], "sigma": 1}
    code, out, err = run(capsys, ["betti", "--profile", write(tmp_path, "profile.json", profile)])
    assert (code, out, err) == (2, "", "genus: profile: middle Betti number and signature have different parity\n")


@pytest.mark.parametrize(
    "betti, refusal",
    [([0, 0, 5], "Betti numbers must satisfy Poincare duality"), ([2, 0, 2], "a fixed component is connected, so b_0 must be 1")],
)
def test_a_component_that_is_not_closed_and_connected_is_an_input_error(capsys, tmp_path, betti, refusal):
    curve = {"complexDim": 1, "dF": 0, "betti": betti, "signature": 0, "chiMinusY": {"0": "1", "1": "1"}}
    model = write(tmp_path, "model.json", {"n": 1, "components": [curve]})
    code, out, err = run(capsys, ["localize", "--model", model])
    assert (code, out, err) == (2, "", f"genus: model.components[0]: {refusal}\n")


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


def _symmetric_form(size, entry):
    rows = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            rows[i][j] = rows[j][i] = entry(i, j)
    return rows


def test_a_form_past_the_bounds_is_refused_before_any_elimination(capsys, tmp_path, monkeypatch):
    # the 40 x 40 form of entries p/q, |p| <= 9, q <= 997, that took 4.4 s to eliminate
    rng = random.Random(40)
    big = _symmetric_form(40, lambda i, j: str(Fraction(rng.randint(-9, 9), rng.randint(1, 997))))
    # 24 rows of 1/q, q odd near 10^6: 4608 digits
    dense = _symmetric_form(24, lambda i, j: f"1/{1_000_003 + 2 * (24 * i + j)}")
    eliminated = []

    def counting(matrix):
        eliminated.append(len(matrix))
        return inertia(matrix)

    monkeypatch.setattr(betti, "inertia", counting)
    start = time.perf_counter()
    code, out, err = run(capsys, ["betti", "--form", write(tmp_path, "big.json", big)])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "") and err == "genus: form has 40 rows, over the largest allowed, 24\n"
    code, out, err = run(capsys, ["betti", "--form", write(tmp_path, "dense.json", dense)])
    assert (code, out) == (2, "")
    assert err == "genus: form entries have 4608 digits, over the largest allowed, 1600\n"
    assert eliminated == []
    # a form at the size bound, with few digits, is eliminated
    identity = _symmetric_form(cli.MAX_FORM_SIZE, lambda i, j: "1" if i == j else "0")
    code, out, _ = run(capsys, ["betti", "--form", write(tmp_path, "identity.json", identity)])
    assert code == 0 and json.loads(out)["inertia"] == {"bPlus": 24, "bMinus": 0, "bZero": 0}
    assert eliminated == [24]


def test_betti_needs_input(capsys):
    code, _, err = run(capsys, ["betti"])
    assert code == 2 and "needs" in err


@pytest.mark.parametrize("key", catalog.CATALOG_KEYS + catalog.ACTION_KEYS)
def test_catalog_round_trip_byte_identical(capsys, key):
    code, out, _ = run(capsys, ["catalog", "--make", key])
    assert code == 0
    if key.startswith("pnaction:"):
        again = serialize.model_to_json(serialize.model_from_json(json.loads(out)))
    else:
        again = serialize.manifold_to_json(serialize.manifold_from_json(json.loads(out)))
    assert serialize.dumps(again) + "\n" == out


def test_catalog_list(capsys):
    code, out, _ = run(capsys, ["catalog", "--list"])
    assert code == 0
    doc = json.loads(out)
    assert "pn:4" in doc["manifolds"]
    assert any(k.startswith("pnaction:") for k in doc["actions"])
    assert doc["grammar"] == ["pn:N", "hyp:N:D", "product:KEY,KEY[,...]", "pnaction:N[:A0,A1,...,AN]"]


def test_catalog_bad_key(capsys):
    code, out, err = run(capsys, ["catalog", "--make", "torus:1"])
    assert code == 2 and out == ""


# sha256 of `genus verify-paper`'s stdout; a changed row comes with a new digest
VERIFY_PAPER_SHA256 = "0cae3315c455d4c013110a2fc5690504a8a7d6938774e5c23f06d05b1ff2d469"


def test_verify_paper_passes_and_reproduces(capsys):
    code, out, _ = run(capsys, ["verify-paper"])
    assert code == 0
    results = json.loads(out)
    assert len(results) == 10
    assert all(r["pass"] for r in results)
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_PAPER_SHA256
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


def test_verify_paper_reports_a_check_that_raises_as_its_failure(capsys, monkeypatch):
    # every localized chi_-y one too large: each pn: build with its action is refused, as bad
    # input would be, but verify-paper reads no input, so the rows that build one fail
    shifted_sum = localization.shifted_sum
    monkeypatch.setattr(localization, "shifted_sum", lambda terms: shifted_sum(terms) + YPolynomial.one())
    code, out, err = run(capsys, ["verify-paper"])
    assert code == 1
    failed = [r["key"] for r in json.loads(out) if not r["pass"]]
    assert failed == [
        "projective-genus", "duality", "inequality-optimality",
        "binomial-transform", "localization", "signature-chain",
    ]
    raised = "raised action localizes chi_-y = 2 + 1*y, but the Chern numbers give 1 + 1*y"
    assert err.splitlines()[:5] == [f"genus: verify-paper: {key}: {raised}" for key in failed[:5]]


# what the `genus` console script runs
ENTRY_POINT = ["-c", "from chigenus.cli import entry; entry()"]


def python_process(args, stdout):
    """``python ARGS`` in a fresh interpreter that imports the package under test, under the default cap."""
    env = {k: v for k, v in os.environ.items() if k != "GENUS_MAX_N"}
    env["PYTHONPATH"] = str(Path(chigenus.__file__).parent.parent)
    return subprocess.Popen(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, env=env
    )


def test_module_entry_point_runs_the_command(capsys):
    _, expected, _ = run(capsys, ["chi", "--n", "2"])
    child = python_process(["-m", "chigenus.cli", "chi", "--n", "2"], subprocess.PIPE)
    out, err = child.communicate(timeout=120)
    assert (child.returncode, out, err) == (0, expected.encode(), b"")
    child = python_process(["-m", "chigenus.cli", "chi", "--n", "13"], subprocess.PIPE)
    out, err = child.communicate(timeout=120)
    assert (child.returncode, out) == (2, b"") and b"exceeds GENUS_MAX_N=12" in err


@pytest.mark.parametrize("argv", [["chi", "--n", "2"], ["verify-paper"]])
def test_closed_stdout_ends_the_output_quietly(argv):
    # the read end is closed before the child starts, so its first write meets no reader
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = python_process(ENTRY_POINT + argv, write_end)
    finally:
        os.close(write_end)
    _, err = child.communicate(timeout=120)
    assert (child.returncode, err) == (0, b"")


def test_degree_cap(capsys, monkeypatch):
    code, _, err = run(capsys, ["chi", "--n", "13"])
    assert code == 2 and "GENUS_MAX_N" in err
    monkeypatch.setenv("GENUS_MAX_N", "14")
    code, out, _ = run(capsys, ["kcoeffs", "--n", "13"])
    assert code == 0
    monkeypatch.setenv("GENUS_MAX_N", "4")
    code, _, err = run(capsys, ["catalog", "--make", "pn:8"])
    assert code == 2 and "GENUS_MAX_N" in err


def _curve(without):
    """A model of one fixed curve, chi_{-y} = 1 + y, whose component lacks the key ``without``."""
    component = {"complexDim": 1, "dF": 0, "betti": [1, 0, 1], "signature": 0, "chiMinusY": {"0": "1", "1": "1"}}
    del component[without]
    return {"n": 1, "components": [component]}


# argv (a dict in it is a document, written to a file), GENUS_MAX_N, the one stderr line
INPUT_ERRORS = {
    "cap-not-an-integer": (["chi", "--n", "2"], "x", "GENUS_MAX_N must be an integer, got 'x'"),
    "negative-degree": (["chi", "--n", "-1"], None, "degree must be non-negative"),
    "at-without-manifold": (["chi", "--at", "euler", "--n", "2"], None, "--at needs --manifold"),
    "kcoeffs-of-a-point": (["kcoeffs", "--n", "0"], None, "kcoeffs needs --n >= 1"),
    "kcoeffs-over-the-cap": (["kcoeffs", "--n", "13"], None, "degree 13 exceeds GENUS_MAX_N=12"),
    # a model lacking an invariant is still read; only the sum that needs it is refused
    "localize-without-chi-minus-y": (
        ["localize", "--model", _curve("chiMinusY")],
        None,
        "positive-dimensional component lacks its modified genus",
    ),
    "localize-without-betti": (["localize", "--model", _curve("betti")], None, "component has no Betti numbers"),
    "localize-without-signature": (
        ["localize", "--model", _curve("signature")],
        None,
        "component lacks a signature",
    ),
    # a point carrying all three invariants of a curve: the first one checked is named
    "localize-point-with-curve-invariants": (
        [
            "localize",
            "--model",
            {"n": 1, "components": [
                {"complexDim": 0, "dF": 0, "chiMinusY": {"0": "2"}, "betti": [3], "signature": -5},
                {"complexDim": 0, "dF": 1},
            ]},
        ],
        None,
        "model.components[0]: a fixed point has Betti numbers (1,)",
    ),
    "product-factor-refusal": (["catalog", "--make", "product:pn:2,hyp:2:0"], None, "need n >= 1 and d >= 1"),
    # Novikov numbers 1 + y^4 with sigma = 2 are no Betti numbers of a 4-manifold
    "localize-hamiltonian-two-points": (
        [
            "localize",
            "--model",
            {"n": 2, "hamiltonian": True, "components": [{"weights": [1, 1]}, {"weights": [-1, -1]}]},
        ],
        None,
        "model: a Hamiltonian action's Novikov numbers are its Betti numbers: "
        "signature 2 exceeds the middle Betti number 0",
    ),
}


@pytest.mark.parametrize("case", INPUT_ERRORS)
def test_each_input_error_exits_2_with_its_own_message(capsys, monkeypatch, tmp_path, case):
    argv, cap, message = INPUT_ERRORS[case]
    argv = [write(tmp_path, "doc.json", arg) if isinstance(arg, dict) else arg for arg in argv]
    if cap is not None:
        monkeypatch.setenv("GENUS_MAX_N", cap)
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and err == f"genus: {message}\n"


def test_the_table_of_a_point_is_the_constant_1(capsys):
    code, out, err = run(capsys, ["chi", "--n", "0"])
    assert code == 0 and err == ""
    assert out == '{"grade":0,"terms":[{"partition":[],"coeff":{"0":"1"}}]}\n'


def test_a_manifold_file_that_is_not_json_is_an_input_error(capsys, tmp_path):
    path = write(tmp_path, "bad.json", "nope")
    code, out, err = run(capsys, ["chi", "--manifold", path])
    assert code == 2 and out == ""
    assert err == f"genus: {path} is not valid JSON: Expecting value: line 1 column 1 (char 0)\n"


@pytest.mark.parametrize(
    "option",
    [["chi", "--manifold"], ["ineq", "--manifold"], ["localize", "--model"], ["betti", "--profile"], ["betti", "--form"]],
    ids=["chi", "ineq", "localize", "betti-profile", "betti-form"],
)
def test_a_document_nested_too_deeply_is_an_input_error(capsys, tmp_path, option):
    depth = 100_000
    path = write(tmp_path, "deep.json", '{"a":' * depth + "1" + "}" * depth)
    code, out, err = run(capsys, [*option, path])
    assert (code, out, err) == (2, "", f"genus: {path} is nested too deeply\n")


def test_a_component_with_the_wrong_number_of_weights_is_an_input_error(capsys, tmp_path):
    # a curve in a 3-fold has n - 1 = 2 normal weights
    doc = {"n": 3, "components": [{"complexDim": 1, "weights": [1, -1, 2]}, {"weights": [-1, -1, -1]}]}
    code, out, err = run(capsys, ["localize", "--model", write(tmp_path, "doc.json", doc)])
    assert code == 2 and out == "" and err == "genus: model: component of dimension 1 needs 2 weights\n"


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
    def build(*args):
        raise AssertionError(f"built {args}")

    # every manifold build, products included, goes through the fold
    for name in ("projective_space", "_fold", "standard_pn_action"):
        monkeypatch.setattr(catalog, name, build)
    for key in ("pn:40", "product:pn:30,pn:10", "hyp:13:2", "pnaction:40"):
        code, out, err = run(capsys, ["catalog", "--make", key])
        assert code == 2 and out == "" and "exceeds GENUS_MAX_N=12" in err, key


def test_a_malformed_key_is_refused_before_the_cap(capsys):
    for key, lead in (
        ("hyp:13:x", "malformed catalog key 'hyp:13:x'"),
        ("pnaction:13:0,x", "malformed catalog key 'pnaction:13:0,x'"),
        ("product:pn:13", "product needs at least two factors: 'product:pn:13'"),
    ):
        code, out, err = run(capsys, ["catalog", "--make", key])
        assert (code, out, err) == (2, "", f"genus: {lead}\n"), key


def test_a_key_integer_over_the_digit_limit_is_malformed(capsys):
    key = "pn:" + "1" * 5000
    code, out, err = run(capsys, ["catalog", "--make", key])
    assert (code, out, err) == (2, "", f"genus: malformed catalog key {key[:60]!r}... (5003 characters)\n")


def test_an_action_key_with_a_colon_needs_exponents(capsys):
    code, out, err = run(capsys, ["catalog", "--make", "pnaction:2:"])
    assert (code, out, err) == (2, "", "genus: malformed catalog key 'pnaction:2:'\n")
    code, out, _ = run(capsys, ["catalog", "--make", "pnaction:2"])
    assert code == 0 and json.loads(out)["n"] == 2


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
    "pn:1": "a990b113ac1158cd6ad9ad4c1d89359698e82d036c84903140a9c2f16460c5ae",
    "pn:2": "16825cda95d1e6f28b7ff67f3dd17bd6fbb0b6fb344e5be394a1f81ccf2ef088",
    "pn:3": "3091e6c46038d89de38d8948da9c018767106c319dddd8f4a332ccf0901821a4",
    "pn:4": "289b36fb980acf67bc182ecd10375328f6e549672bcabe35a826f9d1cb289aa9",
    "pn:5": "11f801746512c769155403d78179997fd82f278fcd0d598c2f831c97d3aba3e1",
    "pn:6": "41d163dfe85b9c73f34e456916ac260c0312feaea69664c19142ebfe78989853",
    "pn:7": "7af7e3fdcf96723901c858cf825698d354ad3332e4d715dbf2d31761b8c860d2",
    "pn:8": "22234cc093b0c49b8dc1231804a543d9fee67b709a44ad2fe935a332b6f648a4",
    "hyp:1:3": "21203532a1430c2c397354776c1a492ade479c0aa26419f66cb7e56a21376b31",
    "hyp:2:1": "0cca032e8951fe1725af5f7f6f67e2ba80823e964dee6a433128f6e487961818",
    "hyp:2:2": "4b50037ee00e0ea9a95d55d6d0a51b9dc4cc973c29502798366e12b0650a965f",
    "hyp:2:4": "c7019d539ce08297de3731d963b0f16a8f31a8bb46f85f9462c9018eb1c3c9b4",
    "hyp:3:5": "5ebbf1c07f29751f42f1cba75ef2830194eb188f763db8e96d6897a533a31470",
    "hyp:4:6": "f738a0d3d09c453ecd6e2fba5f58bb6a1b684fbbd5e0795318fdc3e389f88c4f",
    "product:pn:1,pn:1": "4b50037ee00e0ea9a95d55d6d0a51b9dc4cc973c29502798366e12b0650a965f",
    "product:pn:1,pn:2": "74e8deb4321b5237ac40c4fe914170d251755c1f3c7fe3e120814705d79a195e",
    "product:pn:1,pn:3": "aafc6e74463a5379f35fb17d090d58d7d1740ef372fb516472a160ca78fa1725",
    "product:pn:2,pn:2": "efa0caa771cf130bdba5778b2cbf62571f7cb96e02433350a315513dad73746f",
    "product:pn:1,pn:1,pn:1": "aa71871361b30e0c032b844b5ead5c5908ad8a905358b3837e2e62687e10a94d",
    "product:hyp:2:4,pn:2": "4f1aacd65042d07d1d68edfb3024d6c46e89e8f38cf41fce4a0a113749232c15",
    "product:pn:3,pn:3,pn:2": "6f93c265a42ffe1c6cc9f626fba4b701ed4d1c546f752378a056c924404a7fcb",
}


@pytest.mark.parametrize("key", catalog.CATALOG_KEYS + ("product:hyp:2:4,pn:2", "product:pn:3,pn:3,pn:2"))
def test_catalog_output_is_byte_identical(capsys, key):
    code, out, _ = run(capsys, ["catalog", "--make", key])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CATALOG_DIGESTS[key]


# A model whose one-dimensional components carry rational modified genera;
# their y^1 terms cancel in the sum and the y^2 term keeps denominator 4.
RATIONAL_MODEL = {
    "n": 3,
    "components": [
        {"weights": [1, 2, 3]},
        {"complexDim": 1, "weights": [1, -2], "betti": [1, 0, 1], "signature": 0,
         "chiMinusY": {"0": "-1/6", "1": "-3/4"}},
        {"complexDim": 1, "weights": [2, 5], "betti": [1, 2, 1], "signature": 0,
         "chiMinusY": {"0": "1/2", "1": "1/6"}},
        {"weights": [-1, -2, -3]},
    ],
}


# documents that no catalog key writes, by name
DOCUMENTS = {
    "rational": RATIONAL_MODEL,
    # a curve with c_1 = 2 and neither Betti numbers nor an action
    "bare": {"dimension": 1, "chernNumbers": [{"partition": [1], "value": "2"}]},
    # half-integral Chern numbers: no hypothesis of the inequalities is met
    "half": {
        "dimension": 2,
        "chernNumbers": [{"partition": [2], "value": "3/2"}, {"partition": [1, 1], "value": "9/2"}],
    },
}

REPORT_CASES = [
    f"localize {key}{check}"
    for key in catalog.ACTION_KEYS + ("pnaction:6", "rational")
    for check in ("", " --check mainapp4")
] + [
    f"{command} {key}{flags}"
    for key in catalog.CATALOG_KEYS
    for command, flags in (
        ("chi", ""), ("chi", " --at signature"), ("ineq", " --epsilon 1"), ("ineq", " --epsilon -1")
    )
] + [f"ineq synthetic:{n} --epsilon {epsilon}" for n in range(9, 13) for epsilon in (1, -1)] + [
    "chi bare",
    "ineq half",
    "ineq half --epsilon -1",
    "chi product:pn:1,hyp:2:3,pn:2",
    "ineq product:hyp:2:4,pn:2",
]

# SHA-256 of stdout for each case: COMMAND KEY FLAGS runs COMMAND on the document
# that `catalog --make KEY` writes (DOCUMENTS[KEY] for a key named there and
# synthetic_manifold(N) for the key "synthetic:N")
REPORT_DIGESTS = {
    "localize pnaction:1:0,1": "45a739ef761533d69dd07084babdccd5be10b3db9627fd0c8f7afc4c5bfab9dc",
    "localize pnaction:1:0,1 --check mainapp4": "49e150f78395b22d0882c2e9e89af93f9d5e5bf24b91f54b0ba61bc290825a36",
    "localize pnaction:2:0,1,2": "c1d60a72873405900e1b25d49a7425d5cdbe243e92d5379224d8c46bae924095",
    "localize pnaction:2:0,1,2 --check mainapp4": "7f2d74b2725fe5f3294207a109e1e6b6b66758a2cfc4038bd239b8980a23d6c9",
    "localize pnaction:3:0,1,2,3": "23676199e9797b387e6e4472930398ffe3740d8010817211346f01e1b410de19",
    "localize pnaction:3:0,1,2,3 --check mainapp4": "2b1cfaadd59770764698d90d94916852f2395f26dd57d75396d1854b5c3d1875",
    "localize pnaction:4:0,1,2,3,4": "32472d74e3992b83bb6a8a709743b544fb743239688720217ebd6803bc525dfa",
    "localize pnaction:4:0,1,2,3,4 --check mainapp4": "7073d695cf1597f2053704e5c1a2a8f54da71995f30301cadf8ece0a1a9ac278",
    "localize pnaction:5:0,1,2,3,4,5": "c288fa9250f88b5feab5bf2934ccfd5d0df404877ca5ec26e2f25c47099bd2a9",
    "localize pnaction:5:0,1,2,3,4,5 --check mainapp4": "5f8cae65ea7c90212768c1b7e80aef6636fe0369f081359a019e69d5945392bf",
    "localize pnaction:6:0,1,2,3,4,5,6": "364a7a22d3f15af6604a56ed517e80616c6bb88b904eb3b0792cc42f105bf129",
    "localize pnaction:6:0,1,2,3,4,5,6 --check mainapp4": "b1282c0f1e951f9100048dfaa041af76119294050b43d8cb6e90abc2621b7cbb",
    "localize pnaction:6": "364a7a22d3f15af6604a56ed517e80616c6bb88b904eb3b0792cc42f105bf129",
    "localize pnaction:6 --check mainapp4": "b1282c0f1e951f9100048dfaa041af76119294050b43d8cb6e90abc2621b7cbb",
    "localize rational": "c5713c4c44b720ccc55be13582b76f9c55d53e866f6f620454e931b83c79b354",
    "localize rational --check mainapp4": "f3579174c01568c1ac18694fd519f55db4452a340b760da9d1d41e82b95578a4",
    "chi pn:1": "081c667c2afcc22d397f7ebc0f72bd5956932715f9a62e4d44d838fbf9e9d20f",
    "chi pn:1 --at signature": "94664180e5190a6c6dc2ba6e2d7944081d2dd0e0151a9ff07f62c8865eeb9389",
    "ineq pn:1 --epsilon 1": "086ddd835d00cfb7746a84ab135f92d3b096c5fa43ff2db1a142843b96611b0e",
    "ineq pn:1 --epsilon -1": "85a9a4fffe0a817f1993208bb5022a8da7da0ec6e2c87230c624117f3ad374c6",
    "chi pn:2": "682c168d975431fcfd573e524b7dae3ee3ffc973a44de7980f79c7a7bc969941",
    "chi pn:2 --at signature": "ee0ce7db9ce2f1d4d2e01f0e96d73fa2399a99d825d8a9898947539a8d8e1742",
    "ineq pn:2 --epsilon 1": "06cd321fbd9790afce24210aa2037294150b73329326afda577175eca26d65a3",
    "ineq pn:2 --epsilon -1": "06cd321fbd9790afce24210aa2037294150b73329326afda577175eca26d65a3",
    "chi pn:3": "4ee03f5b17b1ebded3be5e02cb70031548f121e8dee1d919988c7d66eecc576a",
    "chi pn:3 --at signature": "94664180e5190a6c6dc2ba6e2d7944081d2dd0e0151a9ff07f62c8865eeb9389",
    "ineq pn:3 --epsilon 1": "129dc5681f06c8b7cee1de27a78720af5e6fed32e1614daf1fe70e6673e667b5",
    "ineq pn:3 --epsilon -1": "ae804d8076b27034e23b0f4ff2c672aff2f9bdefef7a382e2de2c0841a29a534",
    "chi pn:4": "3e19e669cc45e5489245c9e6ff25db6fbd35973995498b092e404f7424e44f5b",
    "chi pn:4 --at signature": "ee0ce7db9ce2f1d4d2e01f0e96d73fa2399a99d825d8a9898947539a8d8e1742",
    "ineq pn:4 --epsilon 1": "0ddc70ffe7a80f261d76ccf8c6817b6b945b0028e93f0ac6a81e8696ad7abdb1",
    "ineq pn:4 --epsilon -1": "0ddc70ffe7a80f261d76ccf8c6817b6b945b0028e93f0ac6a81e8696ad7abdb1",
    "chi pn:5": "c2c6914215be020862dbd80f9fd858c298db8c74f833bf7c4c832f805f60da20",
    "chi pn:5 --at signature": "94664180e5190a6c6dc2ba6e2d7944081d2dd0e0151a9ff07f62c8865eeb9389",
    "ineq pn:5 --epsilon 1": "a3e5d721ca252d84dc37738ab74e1f27f2706551a09e1d2a71dc2d6361c9bff8",
    "ineq pn:5 --epsilon -1": "73b11f6ccff338a7f1e6e3b79659b1e1af9cf86bfbcd9bee7fe815aa9b3201dc",
    "chi pn:6": "f2d2c113adea9fa63c42a457a14d77ea423505da061aac207e43bd8d21838561",
    "chi pn:6 --at signature": "ee0ce7db9ce2f1d4d2e01f0e96d73fa2399a99d825d8a9898947539a8d8e1742",
    "ineq pn:6 --epsilon 1": "b37db0de7dfd705529b34de9128ff815e2c9be22b26e5fe427a221933b6f0c78",
    "ineq pn:6 --epsilon -1": "b37db0de7dfd705529b34de9128ff815e2c9be22b26e5fe427a221933b6f0c78",
    "chi pn:7": "3e89063fc20990088cc8891c7fe3c7d7352bee3c3f84f05ef4c7df9bace3f7c1",
    "chi pn:7 --at signature": "94664180e5190a6c6dc2ba6e2d7944081d2dd0e0151a9ff07f62c8865eeb9389",
    "ineq pn:7 --epsilon 1": "d513a04664141082cec53ad590b84fd8b8f69cd21d0450db12c663b4bb32fc65",
    "ineq pn:7 --epsilon -1": "5b35a63597c1f9d82f22d81cf6c7aa6f7be21a2a6d33c3ba4ba634d4787ccfaa",
    "chi pn:8": "2eb6d0f9bdf00db8424fbdbce484d6a66d3491f9c79c000bb12fade27deaeb42",
    "chi pn:8 --at signature": "ee0ce7db9ce2f1d4d2e01f0e96d73fa2399a99d825d8a9898947539a8d8e1742",
    "ineq pn:8 --epsilon 1": "3d127b2ae12b5f77e282363bbe9ec554e3ee17d92ad9c4a981fa07a667e2421a",
    "ineq pn:8 --epsilon -1": "3d127b2ae12b5f77e282363bbe9ec554e3ee17d92ad9c4a981fa07a667e2421a",
    "chi hyp:1:3": "60f5451988fd58043f5fc93be4329498ea43828832bf8f49a213082b8b1cfd9b",
    "chi hyp:1:3 --at signature": "94664180e5190a6c6dc2ba6e2d7944081d2dd0e0151a9ff07f62c8865eeb9389",
    "ineq hyp:1:3 --epsilon 1": "5af8c2e3ad3e4997ee654f6c99fec89badcfad03d958426a614767f4ce52f2de",
    "ineq hyp:1:3 --epsilon -1": "5af8c2e3ad3e4997ee654f6c99fec89badcfad03d958426a614767f4ce52f2de",
    "chi hyp:2:1": "682c168d975431fcfd573e524b7dae3ee3ffc973a44de7980f79c7a7bc969941",
    "chi hyp:2:1 --at signature": "ee0ce7db9ce2f1d4d2e01f0e96d73fa2399a99d825d8a9898947539a8d8e1742",
    "ineq hyp:2:1 --epsilon 1": "06cd321fbd9790afce24210aa2037294150b73329326afda577175eca26d65a3",
    "ineq hyp:2:1 --epsilon -1": "06cd321fbd9790afce24210aa2037294150b73329326afda577175eca26d65a3",
    "chi hyp:2:2": "2bd2231f6e2f537d2a5c8493fa53da6da4525d79856bbfd9f15c4306f5e3e57b",
    "chi hyp:2:2 --at signature": "94664180e5190a6c6dc2ba6e2d7944081d2dd0e0151a9ff07f62c8865eeb9389",
    "ineq hyp:2:2 --epsilon 1": "dea67b62ce37ec30ea182e32d92efe36ae32c04bfae5aa761e85075be74bfd24",
    "ineq hyp:2:2 --epsilon -1": "dea67b62ce37ec30ea182e32d92efe36ae32c04bfae5aa761e85075be74bfd24",
    "chi hyp:2:4": "adc7c5d360a6379345c857c4e71924363ffe3b7986026df889944eb4e5343f08",
    "chi hyp:2:4 --at signature": "dc7337d58d481166e5b1174091eaa25ee36ee4a4d9edcd77be88864a31ba7ca0",
    "ineq hyp:2:4 --epsilon 1": "f99d14102ce52c39cda910ee37bd41b543643b940df5713335c30c84e49b6f14",
    "ineq hyp:2:4 --epsilon -1": "f99d14102ce52c39cda910ee37bd41b543643b940df5713335c30c84e49b6f14",
    "chi hyp:3:5": "aba57c663175547f81fa432c2a6990e1848762eab5ec9571da2a964e3c5fdd78",
    "chi hyp:3:5 --at signature": "94664180e5190a6c6dc2ba6e2d7944081d2dd0e0151a9ff07f62c8865eeb9389",
    "ineq hyp:3:5 --epsilon 1": "582fc1c81babd85e8b0d84e39ced7b43f6bb56c8d8a8bac337fdeecd977e0d3c",
    "ineq hyp:3:5 --epsilon -1": "a2883df95b3c95a607cf459a26cd783d5d554d03f78b640c275d96724991cca5",
    "chi hyp:4:6": "30258350b53034c3e0e02073d8f6e075512d3115f78e1e72fa73f44c30216462",
    "chi hyp:4:6 --at signature": "c1fb847292b3bddd3807f4ba7bcd54d499f9d56c33d5bbb00cd7c1f2de0c23b6",
    "ineq hyp:4:6 --epsilon 1": "b05fcb8f63119429c94a3bd10883b85109d0bb6b13c11fa95a1d565a744c6269",
    "ineq hyp:4:6 --epsilon -1": "b05fcb8f63119429c94a3bd10883b85109d0bb6b13c11fa95a1d565a744c6269",
    "chi product:pn:1,pn:1": "2bd2231f6e2f537d2a5c8493fa53da6da4525d79856bbfd9f15c4306f5e3e57b",
    "chi product:pn:1,pn:1 --at signature": "94664180e5190a6c6dc2ba6e2d7944081d2dd0e0151a9ff07f62c8865eeb9389",
    "ineq product:pn:1,pn:1 --epsilon 1": "dea67b62ce37ec30ea182e32d92efe36ae32c04bfae5aa761e85075be74bfd24",
    "ineq product:pn:1,pn:1 --epsilon -1": "dea67b62ce37ec30ea182e32d92efe36ae32c04bfae5aa761e85075be74bfd24",
    "chi product:pn:1,pn:2": "edabadd7db5906e8252fc4537d02011b5a4482618db996112610da86aa64db41",
    "chi product:pn:1,pn:2 --at signature": "94664180e5190a6c6dc2ba6e2d7944081d2dd0e0151a9ff07f62c8865eeb9389",
    "ineq product:pn:1,pn:2 --epsilon 1": "b615ebed0a38bed3a0cd8835aa4e0411cb48014b98fb1368376baabe4f78fc11",
    "ineq product:pn:1,pn:2 --epsilon -1": "071dac6d4e25ff7e8a0fc2ac39bd258a4d09474babab26c335b40866e1d15a7e",
    "chi product:pn:1,pn:3": "4603c7522afb5216cef3f52210ade5b66cc70b2f32936154c2ff833aeb7f4682",
    "chi product:pn:1,pn:3 --at signature": "94664180e5190a6c6dc2ba6e2d7944081d2dd0e0151a9ff07f62c8865eeb9389",
    "ineq product:pn:1,pn:3 --epsilon 1": "410b14bb2e015205c9722ca5b74c21527c9256ff71986a65b402f5282b9d8565",
    "ineq product:pn:1,pn:3 --epsilon -1": "410b14bb2e015205c9722ca5b74c21527c9256ff71986a65b402f5282b9d8565",
    "chi product:pn:2,pn:2": "fc3cf6632661b4a38b55c7a1d5ed51f38650ea3ec47dd07cf00410bc55648e5b",
    "chi product:pn:2,pn:2 --at signature": "ee0ce7db9ce2f1d4d2e01f0e96d73fa2399a99d825d8a9898947539a8d8e1742",
    "ineq product:pn:2,pn:2 --epsilon 1": "70384788474954ad4e185cde340d311a0510a753bec6ef00f3edd1fbac2fd05e",
    "ineq product:pn:2,pn:2 --epsilon -1": "70384788474954ad4e185cde340d311a0510a753bec6ef00f3edd1fbac2fd05e",
    "chi product:pn:1,pn:1,pn:1": "8bf37b7f7ab74fece7e13698ac272c945426aa8402b8980d90476e503d6ebc47",
    "chi product:pn:1,pn:1,pn:1 --at signature": "94664180e5190a6c6dc2ba6e2d7944081d2dd0e0151a9ff07f62c8865eeb9389",
    "ineq product:pn:1,pn:1,pn:1 --epsilon 1": "53437f8d1486f5fc7d7f14584b956d101101cdb8bb10db5ea2ffc0a02fa31ea2",
    "ineq product:pn:1,pn:1,pn:1 --epsilon -1": "76467a5ec007ae56e9466246e54e955e4cea13fb157680bf967a42d6269f4591",
    "ineq synthetic:9 --epsilon 1": "6cd00508f9446c0671672971facc58539bd132ba2974776de9fc74364a93371a",
    "ineq synthetic:9 --epsilon -1": "cfb22bb8bb23eb906df7794dd32e705ae55de479b3f3b9f1e0073e3eb5c10193",
    "ineq synthetic:10 --epsilon 1": "31876eab5e961987325bacd2f84ea52ad8e0cb1cfe406733d3ba9b7060466402",
    "ineq synthetic:10 --epsilon -1": "31876eab5e961987325bacd2f84ea52ad8e0cb1cfe406733d3ba9b7060466402",
    "ineq synthetic:11 --epsilon 1": "696c82edd5c9ce29a7468d26da12eefd614af23656b93678e16bb5d1be1624ef",
    "ineq synthetic:11 --epsilon -1": "00351359b27386cde2084d297967c9ef6804abdc13d8b07f36c8a5c3350d9d7f",
    "ineq synthetic:12 --epsilon 1": "60d4fe1c7cff324ed25d38e4b4d35e57154daccec5a221868a2ef5b3a4e053de",
    "ineq synthetic:12 --epsilon -1": "60d4fe1c7cff324ed25d38e4b4d35e57154daccec5a221868a2ef5b3a4e053de",
    "chi bare": "081c667c2afcc22d397f7ebc0f72bd5956932715f9a62e4d44d838fbf9e9d20f",
    "ineq half": "f2049f1cacfe28e64d2559eebb3f3513f7b2980aaa4a3e339a13a9cb9e9fcaf3",
    "ineq half --epsilon -1": "f2049f1cacfe28e64d2559eebb3f3513f7b2980aaa4a3e339a13a9cb9e9fcaf3",
    "chi product:pn:1,hyp:2:3,pn:2": "839032d436b39779e764e23c5fa5c255e64d7b89bc056422894461d2aa281124",
    "ineq product:hyp:2:4,pn:2": "4bf2044cef64638a749b71cf554ec8fefcd553efd7a41c4fd75ae480cbbfeff4",
}


@pytest.mark.parametrize("case", REPORT_CASES)
def test_report_output_is_byte_identical(capsys, tmp_path, case):
    command, key, *flags = case.split()
    if key in DOCUMENTS:
        path = write(tmp_path, "input.json", DOCUMENTS[key])
    elif key.startswith("synthetic:"):
        path = write(tmp_path, "input.json", synthetic_manifold(int(key.partition(":")[2])))
    else:
        code, out, _ = run(capsys, ["catalog", "--make", key])
        assert code == 0
        path = write(tmp_path, "input.json", out)
    option = "--model" if command == "localize" else "--manifold"
    code, out, _ = run(capsys, [command, option, path, *flags])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS[case]


# documents for `genus betti`, by name
BETTI_PROFILES = {
    "k3": {"dim": 4, "betti": [1, 0, 22, 0, 1], "sigma": -16},
    "dim6": {"dim": 6, "betti": [1, 0, 5, 2, 5, 0, 1], "sigma": 0},
    "dim8": {"dim": 8, "betti": [1, 0, 2, 0, 4, 0, 2, 0, 1], "sigma": 2},
    "dim12": {"dim": 12, "betti": [1, 0, 1, 0, 3, 0, 5, 0, 3, 0, 1, 0, 1], "sigma": 1},
    "unsigned4": {"dim": 4, "betti": [1, 0, 2, 0, 1]},
    "unsigned8": {"dim": 8, "betti": [1, 0, 3, 0, 2, 0, 3, 0, 1]},
    "unsigned8-middle3": {"dim": 8, "betti": [1, 0, 2, 0, 3, 0, 2, 0, 1]},
}
BETTI_FORMS = {
    "hyperbolic": [["0", "1"], ["1", "0"]],
    "rational": [["1/2", "1", "0"], ["1", "-2/3", "3"], ["0", "3", "0"]],
    "degenerate": [["1", "1", "2"], ["1", "1", "2"], ["2", "2", "4"]],
    "diagonal3": [["2", "1", "0"], ["1", "-1", "0"], ["0", "0", "-3/2"]],
}

# SHA-256 of stdout for each case: `betti` with each option given the named document
BETTI_DIGESTS = {
    "--form hyperbolic": "8166e82d4dfd3935557ae13676032d89259370de12dbde50713cddcfcba9d5ff",
    "--form rational": "70251f5ba0c0e200c2986ede774711de672029c3b0a21713267ac861164b23cd",
    "--form degenerate": "2a03e6c7bc4d8f5df8a025597ab3675908155243d4a8021fd261837534bb06a7",
    "--profile k3": "c4d25144d8bd6f04be78b6abcde4c05bf640cd86531321d4dd08e956872fc823",
    "--profile dim6": "af94a2472486331b59bdf6d6c6c66da724189f6c6cbd080afe07fe301b127001",
    "--profile dim8": "3b0ad925f7a3e3d07d0ebbd1aecc070731c707f8489fc433466c44a4fb3335e6",
    "--profile dim12": "ec1b7473121f55c062fd1bccfec12a420f918a88f1d48b9444d0b7fccc6a3d5d",
    "--profile unsigned8": "e563f19deb1dd45cd0b48537e44db6d7c5763f89540444760c735f99992f701c",
    "--profile unsigned4 --form hyperbolic": "d985bf0c5f3e6c6f9ae500a732da0ee2094af4d66f3f114263aa39fb167d8199",
    "--profile unsigned8-middle3 --form diagonal3": "7f1771a6de1a780d471a0a4ab03b9fdac1ea3eb435b5dc1bf39a4a584607fe8b",
}


@pytest.mark.parametrize("case", BETTI_DIGESTS)
def test_betti_output_is_byte_identical(capsys, tmp_path, case):
    words = case.split()
    argv = ["betti"]
    for option, name in zip(words[::2], words[1::2]):
        documents = BETTI_PROFILES if option == "--profile" else BETTI_FORMS
        argv += [option, write(tmp_path, f"{option[2:]}.json", documents[name])]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BETTI_DIGESTS[case]


# a profile and a middle form that disagree -> the message
CONTRADICTORY_PAIRS = {
    "sigma-against-inertia": (
        {"dim": 4, "betti": [1, 0, 2, 0, 1], "sigma": 2},
        [["1", "0"], ["0", "-1"]],
        "profile sigma 2 is not the form's b_plus - b_minus = 0",
    ),
    "size-with-sigma": (
        {"dim": 4, "betti": [1, 0, 2, 0, 1], "sigma": 2},
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "form size 3 does not match the middle Betti number 2",
    ),
    "size-without-sigma": (
        {"dim": 4, "betti": [1, 0, 2, 0, 1]},
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "form size 3 does not match the middle Betti number 2",
    ),
    "degenerate": (
        {"dim": 4, "betti": [1, 0, 4, 0, 1]},
        [["1", "0", "0", "0"], ["0", "-1", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"]],
        "a middle intersection form is nondegenerate, got b_zero = 2",
    ),
    "dimension-with-sigma": (
        {"dim": 6, "betti": [1, 0, 2, 0, 2, 0, 1], "sigma": 0},
        [["1", "0"], ["0", "-1"]],
        "a middle intersection form needs dimension divisible by 4",
    ),
}


@pytest.mark.parametrize("case", CONTRADICTORY_PAIRS)
def test_a_profile_and_form_that_disagree_are_refused(capsys, tmp_path, case):
    profile, form, message = CONTRADICTORY_PAIRS[case]
    argv = ["betti", "--profile", write(tmp_path, "p.json", profile), "--form", write(tmp_path, "f.json", form)]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", f"genus: {message}\n")


def test_a_profile_sigma_that_agrees_with_the_form_changes_nothing(capsys, tmp_path):
    form = write(tmp_path, "f.json", BETTI_FORMS["hyperbolic"])
    outputs = []
    for sigma in (None, 0):
        profile = dict(BETTI_PROFILES["unsigned4"], **({} if sigma is None else {"sigma": sigma}))
        code, out, _ = run(capsys, ["betti", "--profile", write(tmp_path, "p.json", profile), "--form", form])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv",
    [["catalog", "--make=--"], ["chi", "--n=--"], ["localize", "--model=--"], ["ineq", "--manifold=--"]],
)
def test_double_dash_as_an_option_value_is_an_input_error(capsys, argv):
    # some argparse versions read "--option=--" as an empty list, others as the value "--"
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            empty = [] in vars(build_parser().parse_args(argv)).values()
        except SystemExit:
            empty = False
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert len(err.encode()) < 1024 and "Traceback" not in err
    if empty:
        assert err == "genus: an option was given '--' in place of its value\n"


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

    monkeypatch.setattr(catalog, "iter_partitions", listing)
    monkeypatch.setattr(engine, "iter_partitions", listing)
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
P2 = serialize.manifold_to_json(catalog.projective_space(2))
P1_SQUARED_ACTION = {
    "n": 2,
    "hamiltonian": True,
    "components": [{"weights": [a, b]} for a in (1, -1) for b in (1, -1)],
}

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


# object kind -> command, option, a valid document with one unknown key added, the stderr line
UNKNOWN_KEY_DOCS = {
    "manifold": (
        "chi",
        "--manifold",
        _with(P1, ["extraTop"], 1),
        "manifold: unknown key 'extraTop'",
    ),
    "flags": (
        "chi",
        "--manifold",
        _with(P1, ["flags"], {"pureType": True}),
        "manifold: unknown key 'flags'",
    ),
    "chern-number": (
        "ineq",
        "--manifold",
        _with(P1, ["chernNumbers", 0, "weight"], 1),
        "manifold.chernNumbers[0]: unknown key 'weight'",
    ),
    "manifold-betti": (
        "chi",
        "--manifold",
        _with(P1, ["betti", "b1"], 0),
        "manifold.betti: unknown key 'b1'",
    ),
    "manifold-action": (
        "chi",
        "--manifold",
        _with(P1, ["action", "weights"], [1, -1]),
        "manifold.action: unknown key 'weights'",
    ),
    "manifold-component": (
        "ineq",
        "--manifold",
        _with(P1, ["action", "components", 1, "dim"], 0),
        "manifold.action.components[1]: unknown key 'dim'",
    ),
    "model": ("localize", "--model", _with(P1_ACTION, ["N"], 1), "model: unknown key 'N'"),
    "component": (
        "localize",
        "--model",
        _with(P1_ACTION, ["components", 0, "chi"], {"0": "1"}),
        "model.components[0]: unknown key 'chi'",
    ),
    "profile": (
        "betti",
        "--profile",
        _with(P2_PROFILE, ["signature"], 1),
        "profile: unknown key 'signature'",
    ),
}


@pytest.mark.parametrize("kind", UNKNOWN_KEY_DOCS)
def test_an_unknown_key_is_refused_with_its_path(capsys, tmp_path, kind):
    command, option, doc, message = UNKNOWN_KEY_DOCS[kind]
    code, out, err = run(capsys, [command, option, write(tmp_path, "doc.json", doc)])
    assert code == 2 and out == "" and err == f"genus: {message}\n", err


# a pn:1 or pn:2 document that carries another manifold's Betti profile, circle action or Chern numbers
MISMATCHED_DOCS = {
    "betti": (
        _with(P1, ["betti"], {"dim": 4, "betti": [1, 0, 5, 0, 1], "sigma": -3}),
        "manifold: betti.dim 4 is not twice the dimension 1",
    ),
    "action": (
        _with(P1, ["action"], {"n": 3, "components": [{"dF": 0}, {"dF": 3}]}),
        "manifold: action.n 3 is not the dimension 1",
    ),
    # refused before the action's genus of degree 10**20 is read
    "action-over-bound": (
        _with(P1, ["action"], {"n": 10**20, "components": [
            {"complexDim": 10**20, "dF": 0, "chiMinusY": {str(10**20): "1"}}
        ]}),
        f"manifold: action.n {10**20} is not the dimension 1",
    ),
    # P^2's Betti numbers, signature and action with K3's Chern numbers c_2 = 24, c_1^2 = 0
    "euler": (
        _with(
            serialize.manifold_to_json(catalog.projective_space(2)),
            ["chernNumbers"],
            [{"partition": [2], "value": "24"}, {"partition": [1, 1], "value": "0"}],
        ),
        "manifold: betti has Euler number 3, but the top Chern number is 24",
    ),
    # P^2's document with sigma = -1, and with the four-point action of P^1 x P^1
    "sigma": (
        _with(P2, ["betti", "sigma"], -1),
        "manifold: signature -1 is not chi_y(1) = 1",
    ),
    "localization": (
        _with(P2, ["action"], P1_SQUARED_ACTION),
        "manifold: action localizes chi_-y = 1 + 2*y + 1*y^2, but the Chern numbers give 1 + 1*y + 1*y^2",
    ),
    # P^2's document with b_1 = b_3 = 1 and b_2 = 3: the same Euler number and signature, but
    # its Hamiltonian action has Novikov numbers (1, 0, 1, 0, 1)
    "novikov": (
        _with(P2, ["betti"], {"dim": 4, "betti": [1, 1, 3, 1, 1], "sigma": 1}),
        "manifold: a Hamiltonian action's Novikov numbers are its Betti numbers, "
        "but the action gives b_1 = 0 and betti has b_1 = 1",
    ),
}


@pytest.mark.parametrize("field", MISMATCHED_DOCS)
def test_a_manifold_carries_only_its_own_invariants(capsys, tmp_path, field):
    doc, message = MISMATCHED_DOCS[field]
    for command in ("chi", "ineq"):
        code, out, err = run(capsys, [command, "--manifold", write(tmp_path, "doc.json", doc)])
        assert code == 2 and out == "" and err == f"genus: {message}\n", err


@pytest.mark.parametrize(
    "invariant, value, message",
    [
        ("betti", [3], "Betti numbers (1,)"),
        ("signature", -5, "signature 1"),
        ("chiMinusY", {"0": "2"}, "modified genus 1"),
    ],
)
def test_a_fixed_point_has_the_invariants_of_a_point(capsys, tmp_path, invariant, value, message):
    doc = {"n": 1, "components": [{"complexDim": 0, "dF": 0, invariant: value}, {"complexDim": 0, "dF": 1}]}
    code, out, err = run(capsys, ["localize", "--model", write(tmp_path, "doc.json", doc)])
    assert code == 2 and out == "" and err == f"genus: model.components[0]: a fixed point has {message}\n"


def test_malformed_json_names_field(capsys, tmp_path):
    bad = write(tmp_path, "bad.json", {"dimension": 2, "chernNumbers": "nope"})
    code, out, err = run(capsys, ["ineq", "--manifold", bad])
    assert code == 2 and out == "" and err == "genus: manifold.chernNumbers: expected an array\n"


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


HUGE = 10**20  # a degree or dimension no dense row could hold


def test_a_genus_above_its_component_dimension_is_refused_before_it_is_built(capsys, tmp_path):
    doc = _with(P1_ACTION, ["components", 0, "chiMinusY"], {"0": "1", str(HUGE): "1"})
    code, out, err = run(capsys, ["localize", "--model", write(tmp_path, "doc.json", doc)])
    assert code == 2 and out == ""
    field = "model.components[0].chiMinusY"
    assert err == f"genus: {field}: degree {HUGE} exceeds the largest allowed, 0\n"
    # a zero coefficient names no degree
    doc = _with(P1_ACTION, ["components", 0, "chiMinusY"], {"0": "1", str(HUGE): "0"})
    code, out, _ = run(capsys, ["localize", "--model", write(tmp_path, "doc.json", doc)])
    assert code == 0 and json.loads(out)["chiMinusY"] == {"0": "1", "1": "1"}


@pytest.mark.parametrize(
    "n, message",
    [(1, "model: component dimension exceeds the manifold's"), (HUGE, f"degree {HUGE} exceeds GENUS_MAX_N=12")],
)
def test_a_component_dimension_is_bounded_before_its_genus_is_read(capsys, tmp_path, n, message):
    component = {"complexDim": HUGE, "dF": 0, "chiMinusY": {str(HUGE): "1"}}
    doc = {"n": n, "components": [component]}
    code, out, err = run(capsys, ["localize", "--model", write(tmp_path, "doc.json", doc)])
    assert code == 2 and out == "" and err == f"genus: {message}\n"
