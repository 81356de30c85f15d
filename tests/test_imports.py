"""What a process imports: the lazy package namespace and the per-subcommand CLI imports.

Each check that counts modules runs in a fresh interpreter, because this
test process has long since imported the whole package.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import chigenus
from chigenus import catalog, engine, serialize

ROOT = Path(__file__).parent.parent
PACKAGE = Path(chigenus.__file__).parent  # the checkout's src/chigenus, or an installed copy

# Runs genus in-process and prints, after its output, the modules the run added.
PROBE = """
import json, sys
before = set(sys.modules)
from chigenus import cli
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": sorted(set(sys.modules) - before)}))
"""


def python(code, *args):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def loaded_by(argv):
    report = json.loads(python(PROBE, *argv).splitlines()[-1])
    return report["code"], set(report["loaded"])


DOCUMENTS = {
    "form": [["0", "1"], ["1", "0"]],
    "model": {"n": 1, "components": [{"weights": [1]}, {"weights": [-1]}]},
    "d40": {"dimension": 40, "chernNumbers": []},
    "p2": serialize.manifold_to_json(catalog.projective_space(2)),
    "bare": {"dimension": 1, "chernNumbers": [{"partition": [1], "value": "2"}]},
}


# argv (with {name} for a document) -> exit code, modules the run must not load
# besides dataclasses and inspect, which no run loads
IMPORT_CASES = {
    "chi": (
        ["chi", "--n", "3"],
        0,
        [f"chigenus.{m}" for m in ("catalog", "betti", "localization", "kexpansion", "inequalities")]
        + ["chigenus.verify", "chigenus.series"],
    ),
    "chi-manifold": (
        ["chi", "--manifold", "{p2}"],
        0,
        ["chigenus.catalog", "chigenus.kexpansion", "chigenus.verify"],
    ),
    "ineq-manifold": (
        ["ineq", "--manifold", "{p2}"],
        0,
        ["chigenus.catalog", "chigenus.verify", "chigenus.series"],
    ),
    "chi-bare-manifold": (
        ["chi", "--manifold", "{bare}"],
        0,
        ["chigenus.catalog", "chigenus.betti", "chigenus.localization"],
    ),
    "kcoeffs": (["kcoeffs", "--n", "4"], 0, ["chigenus.catalog", "chigenus.inequalities"]),
    "catalog": (["catalog", "--make", "pn:2"], 0, ["chigenus.kexpansion", "chigenus.verify"]),
    "betti-form": (["betti", "--form", "{form}"], 0, ["chigenus.engine", "chigenus.chern"]),
    "localize": (["localize", "--model", "{model}"], 0, ["chigenus.engine", "chigenus.chern"]),
    "chi-over-cap": (
        ["chi", "--n", "13"],
        2,
        ["chigenus.engine", "chigenus.inequalities", "chigenus.chern"],
    ),
    "ineq-over-cap": (["ineq", "--manifold", "{d40}"], 2, ["chigenus.engine", "chigenus.inequalities"]),
    "catalog-over-cap": (
        ["catalog", "--make", "pn:13"],
        2,
        ["chigenus.catalog", "chigenus.engine", "chigenus.chern"],
    ),
    "catalog-list": (["catalog", "--list"], 0, ["chigenus.catalog", "chigenus.engine"]),
    "catalog-bad-integer": (["catalog", "--make", "hyp:2:x"], 2, ["chigenus.catalog", "chigenus.engine"]),
    "catalog-bad-exponent": (
        ["catalog", "--make", "pnaction:2:0,1,x"],
        2,
        ["chigenus.catalog", "chigenus.engine"],
    ),
    "catalog-bad-factor": (
        ["catalog", "--make", "product:pn:1,hyp:2"],
        2,
        ["chigenus.catalog", "chigenus.engine"],
    ),
    "verify-paper": (["verify-paper"], 0, ["chigenus.series"]),
}


@pytest.mark.parametrize("case", IMPORT_CASES)
def test_a_subcommand_loads_only_what_it_runs(tmp_path, case):
    argv, expected_code, absent = IMPORT_CASES[case]
    absent = set(absent) | {"dataclasses", "inspect"}
    paths = {}
    for name, doc in DOCUMENTS.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    code, loaded = loaded_by([arg.format(**paths) for arg in argv])
    assert code == expected_code
    assert not loaded & absent, sorted(loaded & absent)


def test_no_module_imports_dataclasses():
    for path in sorted(PACKAGE.glob("*.py")):
        assert not re.search(r"^\s*(from|import)\s+dataclasses\b", path.read_text(), re.M), path.name


def test_bare_import_loads_no_submodule():
    out = python(
        "import sys, chigenus\n"
        "print(sorted(m for m in sys.modules if m.startswith('chigenus.')))\n"
        "print(chigenus.engine.__name__, chigenus.chi_vector.__module__)"
    )
    assert out.splitlines() == ["[]", "chigenus.engine chigenus.engine"]


def readme_api_block():
    return re.search(r"## Python API\n\n```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)


def test_readme_api_example_runs_in_a_fresh_process():
    python(readme_api_block())


def test_the_namespace_is_the_readme_quick_start():
    imported = re.search(r"from chigenus import \((.*?)\)", readme_api_block(), re.S).group(1)
    assert chigenus.__all__ == sorted(name.strip() for name in imported.split(",") if name.strip())


# names the top-level namespace no longer exports -> the submodule that defines each
UNEXPORTED = {
    "BettiInequalityReport": "betti",
    "BettiProfile": "betti",
    "InertiaTriple": "betti",
    "betti_inequality_check": "betti",
    "cs_classification": "betti",
    "signature_alternating": "betti",
    "tolman_unimodality_report": "betti",
    "ManifoldData": "engine",
    "make_action": "catalog",
    "make_manifold": "catalog",
    "standard_actions": "catalog",
    "standard_catalog": "catalog",
    "ChernPolynomial": "chern",
    "chi_minus_y": "engine",
    "duality_holds": "engine",
    "evaluate_genus": "engine",
    "InequalityReport": "inequalities",
    "KTable": "kexpansion",
    "binomial_transform": "kexpansion",
    "closed_form_k": "kexpansion",
    "eulerian_polynomials": "engine",
    "odd_k_span_check": "kexpansion",
    "verify_closed_forms": "kexpansion",
    "FixedComponent": "localization",
    "FixedPointModel": "localization",
    "localized_signature": "localization",
    "negative_weight_count": "localization",
    "novikov_polynomial": "localization",
    "signature_identity_check": "localization",
    "Partition": "partitions",
    "YPolynomial": "ypoly",
}


@pytest.mark.parametrize("name", UNEXPORTED)
def test_an_unexported_name_is_imported_from_its_submodule(name):
    assert hasattr(importlib.import_module(f"chigenus.{UNEXPORTED[name]}"), name)
    assert name not in chigenus.__all__ and name not in dir(chigenus)
    with pytest.raises(ImportError, match=f"cannot import name {name!r}"):
        exec(f"from chigenus import {name}", {})


def test_every_listed_submodule_resolves_after_a_bare_import():
    reachable = {"betti", "catalog", "chern", "cli", "engine", "inequalities", "kexpansion"}
    reachable |= {"localization", "partitions", "serialize", "series", "verify", "ypoly"}
    assert reachable <= chigenus._SUBMODULES
    out = python(
        "import chigenus\n"
        "for name in sorted(chigenus._SUBMODULES):\n"
        "    print(name, getattr(chigenus, name).__name__)"
    )
    assert out.splitlines() == [f"{name} chigenus.{name}" for name in sorted(chigenus._SUBMODULES)]


def test_the_catalog_reexports_the_one_manifold_record():
    assert catalog.ManifoldData is engine.ManifoldData
    assert engine.ManifoldData.__module__ == "chigenus.engine"


def test_every_export_is_its_submodule_object():
    for name in chigenus.__all__:
        home = importlib.import_module(f"chigenus.{chigenus._SOURCE[name]}")
        assert getattr(chigenus, name) is getattr(home, name), name


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        chigenus.no_such_name


def test_dir_lists_the_exports():
    listed = dir(chigenus)
    assert set(chigenus.__all__) <= set(listed)
    assert "__version__" in listed and listed == sorted(listed)


def imported_names(tree):
    """(submodule, name) pairs a file reaches: by import, or as an attribute of an imported submodule."""
    aliases, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                module = f"chigenus.{node.module}" if node.module else "chigenus"
            elif node.level == 0 and (node.module or "").split(".")[0] == "chigenus":
                module = node.module
            else:
                continue
            for alias in node.names:
                if module == "chigenus" and alias.name in chigenus._SUBMODULES:
                    aliases[alias.asname or alias.name] = alias.name
                elif module == "chigenus":
                    used.add((chigenus._SOURCE.get(alias.name), alias.name))
                else:
                    used.add((module[len("chigenus.") :], alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("chigenus.") and alias.asname:
                    aliases[alias.asname] = alias.name[len("chigenus.") :]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            used.add((aliases[node.value.id], node.attr))
    return used


def traced_names(tree):
    """(submodule, name) pairs named by the ``TARGETS`` table: its module and the path's first part."""
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS":
            return {
                (entry.elts[0].value[len("chigenus.") :], entry.elts[1].value.split(".")[0])
                for entry in node.value.values
            }
    raise AssertionError("perfbench/tracing.py defines no TARGETS table")


def uncalled_public_names(perfbench: bool) -> list[tuple[str, str]]:
    """Public (submodule, name) pairs that no caller outside the tests reaches: none used in its
    own module, imported or read as ``<module>.<name>`` by another module (or by perfbench, and
    traced by it, when ``perfbench``), or run as the console script."""
    sources = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    called = set()
    for module, tree in sources.items():
        called |= imported_names(tree)
        called |= {(module, node.id) for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if perfbench:
        for path in (ROOT / "perfbench").glob("*.py"):
            called |= imported_names(ast.parse(path.read_text()))
        called |= traced_names(ast.parse((ROOT / "perfbench" / "tracing.py").read_text()))
    script = re.search(r'^genus = "chigenus\.(\w+):(\w+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    called.add(script.groups())
    public = {
        (module, node.name)
        for module, tree in sources.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    return sorted(public - called)


def test_every_public_name_has_a_caller_outside_the_tests():
    assert uncalled_public_names(perfbench=True) == []


def test_only_these_public_names_are_reached_by_the_benchmark_alone():
    """The benchmark resolves these by name, so they wait on it to be deleted; a new name
    reached only by the benchmark fails here, and each deletion shortens the list."""
    assert uncalled_public_names(perfbench=False) == [
        ("catalog", "CohomologyModel"),
        ("chern", "power_sum_in_chern"),
        ("engine", "normalized_series"),
        ("inequalities", "miyaoka_yau_check"),
        ("localization", "consistency_isolated"),
    ]
