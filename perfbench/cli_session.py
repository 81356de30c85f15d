"""The ``cli-session`` workload: one fresh ``genus`` process per op.

Set-up writes the op's input files: catalog manifolds and actions through
``genus catalog --make``, forms and Betti profiles built by the benchmark.
Each op's exit code is checked; ``chi --n`` and ``kcoeffs --n`` stdout must
match the digests in ``digests.json``, and the other outputs are compared
with answers known by construction.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from statistics import median
from typing import Any, Callable, NamedTuple

import inputs
from tracing import Tracer

HERE = Path(__file__).resolve().parent
GENUS = ["-c", "from chigenus.cli import entry; entry()"]
DRIVER = HERE / "cli_driver.py"
OVER_CAP_DIMENSION = 40


class CliOp(NamedTuple):
    label: str
    args: list[str]
    exit_code: int
    check: Callable[[bytes], list[str]]
    over_cap: bool = False


class Outcome(NamedTuple):
    seconds: float
    exit_code: int
    stdout: bytes
    stderr_bytes: int
    max_rss_kib: int
    driver: dict[str, Any]


class CliSession:
    """Cold start on every call: import, argument parsing and a fresh table build.

    A block holds 63 ops in seeded order: ``chi --n`` for n = 1..12, plus
    n = 1..6 and four more n = 11, ``kcoeffs --n`` for n = 4..12 (``--verify`` on alternate
    n, switching each block), four ``chi --manifold`` and four ``--at``,
    four ``ineq``, four ``localize``, five ``betti``, seven ``catalog``, one
    ``verify-paper`` and three over-cap ops that must exit 2 (``chi --n 13``,
    ``catalog --make pn:13`` and an ``ineq`` document of dimension 40).
    """

    name = "cli-session"
    SET_UP_REPEATS = 5
    MIN_ROUNDS = 1  # two blocks already take about 40 s
    IN_CHILDREN = True  # ops run in child processes, so timings follow the spawn reference

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root
        self.work = HERE / ".work" / str(os.getpid())
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = {k: v for k, v in os.environ.items() if k != "GENUS_MAX_N"}
        self.env["PYTHONPATH"] = str(root / "src")
        self.digests = json.loads((HERE / "digests.json").read_text())
        self.tracer = Tracer()  # holds the spans the driver processes send back
        self._startups: list[float] = []
        self._rejects: list[tuple[float, int]] = []
        self._peak_kib = 0
        self._counts: dict[str, int] = {}
        rng = random.Random(f"{self.name}:{seed}:setup")
        # Dimensions are fixed so that set-up costs the same for every seed.
        pn_parts = inputs.composition(rng, 6, 2)
        hyp_dim = rng.randint(2, 4)
        self.keys = {
            "m1": "pn:4",
            "m2": f"hyp:4:{rng.randint(1, 6)}",
            "m3": "product:" + ",".join(f"pn:{a}" for a in pn_parts),
            "m4": f"product:hyp:{hyp_dim}:{rng.randint(1, 5)},pn:{8 - hyp_dim}",
            "a1": _action_key(rng, 4),
            "a2": _action_key(rng, 8),
        }
        self.forms = {
            "f1": inputs.congruent_form(rng, rng.randint(4, 8), zeros=False),
            "f2": inputs.congruent_form(rng, rng.randint(9, 12), zeros=False),
            "f3": inputs.congruent_form(rng, rng.randint(5, 10), zeros=True),
        }
        # p1/p2 carry no signature: the CLI takes it from the matching form.
        self.profiles = {
            f"p{i}": inputs.alternating_profile(rng, rng.randint(2, 4), *self.forms[f"f{i}"][1][:2])
            for i in (1, 2)
        }
        for i in (1, 2):
            self.profiles[f"q{i}"] = inputs.random_alternating_profile(rng)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    # -- what the runner calls --------------------------------------------

    def set_up_once(self) -> float:
        start = time.perf_counter()
        self.set_up()
        return time.perf_counter() - start

    def prepare(self) -> None:
        """Nothing to add: the last set-up left the input files in place."""

    def set_up_traced(self) -> None:
        self.set_up()

    def begin(self, mode: str) -> None:
        self._counts = {}

    def end(self, mode: str) -> dict[str, int]:
        return self._counts

    def execute(self, op: CliOp, mode: str, op_id: int) -> tuple[float, list[str]]:
        result = self.spawn(op.args, mode)
        self._peak_kib = max(self._peak_kib, result.max_rss_kib)
        if mode == "traced":
            offset = len(self.tracer.spans)
            for span in result.driver["spans"]:
                span[3] = span[3] + offset if span[3] >= 0 else -1
                span[4] = op_id
                self.tracer.spans.append(span)
            if result.driver["startup"] is not None:
                self._startups.append(result.driver["startup"])
            if op.over_cap:
                self._rejects.append((result.seconds, result.stderr_bytes))
        elif mode == "counted":
            for name, calls in result.driver["counts"].items():
                self._counts[name] = self._counts.get(name, 0) + calls
        return result.seconds, self.check(op, result)

    def peak_rss_mib(self) -> float:
        return self._peak_kib / 1024

    def layer_extras(self) -> dict[str, float]:
        rejects = self._rejects or [(0.0, 0)]
        return {
            "cli.startup_ms": 1000 * median(self._startups) if self._startups else 0.0,
            "cli.reject_ms": 1000 * sum(s for s, _ in rejects) / len(rejects),
            "cli.stderr_bytes": sum(b for _, b in rejects) / len(rejects),
        }

    def path(self, name: str) -> str:
        return os.path.relpath(self.work / f"{name}.json", self.root)

    # -- set-up ---------------------------------------------------------

    def set_up(self) -> None:
        for name, key in self.keys.items():
            result = self.spawn(["catalog", "--make", key], "plain")
            if result.exit_code != 0:
                raise RuntimeError(f"set-up: catalog --make {key} exited {result.exit_code}")
            (self.work / f"{name}.json").write_bytes(result.stdout)
        for name, (form, _) in self.forms.items():
            rows = [[inputs.rational_text(v) for v in row] for row in form]
            self._write(name, rows)
        for name, (dim, betti, sigma) in self.profiles.items():
            doc = {"dim": dim, "betti": betti}
            if name.startswith("q"):
                doc["sigma"] = sigma
            self._write(name, doc)
        self._write("over_cap", {"dimension": OVER_CAP_DIMENSION, "chernNumbers": []})

    def _write(self, name: str, doc: Any) -> None:
        (self.work / f"{name}.json").write_text(json.dumps(doc))

    # -- ops --------------------------------------------------------------

    def block(self, index: int) -> list[CliOp]:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        # Five ops of n = 11 per block put the 90th percentile inside a cluster of like ops.
        chi_sizes = list(range(1, 13)) + list(range(1, 7)) + [11] * 4
        ops = [self._digest_op(["chi", "--n", str(n)]) for n in chi_sizes]
        for n in range(4, 13):
            verify = ["--verify"] if (n + index) % 2 == 0 else []
            ops.append(self._digest_op(["kcoeffs", "--n", str(n)] + verify))
        for name in ("m1", "m2", "m3", "m4"):
            key = self.keys[name]
            ops.append(CliOp(f"chi {key}", ["chi", "--manifold", self.path(name)], 0, self._check_chi(key)))
            at = rng.choice(("euler", "todd", "signature")) if _pn_dims(key) else "euler"
            ops.append(
                CliOp(
                    f"chi {key} --at {at}",
                    ["chi", "--manifold", self.path(name), "--at", at],
                    0,
                    self._check_at(name, key, at),
                )
            )
            epsilon = rng.choice((1, -1))
            ops.append(
                CliOp(
                    f"ineq {key} {epsilon}",
                    ["ineq", "--manifold", self.path(name), "--epsilon", str(epsilon)],
                    0,
                    _check_ineq(key, epsilon),
                )
            )
            ops.append(self._make_op(name))
        for name in ("a1", "a2"):
            n = int(self.keys[name].split(":")[1])
            for extra in ([], ["--check", "mainapp4"]):
                ops.append(
                    CliOp(
                        f"localize {self.keys[name]} {extra}",
                        ["localize", "--model", self.path(name)] + extra,
                        0,
                        _check_localize(n, bool(extra)),
                    )
                )
            ops.append(self._make_op(name))
        for form, profile in (("f1", "p1"), ("f2", "p2"), (None, "q1"), (None, "q2"), ("f3", None)):
            args = ["betti"]
            if form:
                args += ["--form", self.path(form)]
            if profile:
                args += ["--profile", self.path(profile)]
            ops.append(CliOp(f"betti {form} {profile}", args, 0, self._check_betti(form, profile)))
        ops.append(CliOp("catalog --list", ["catalog", "--list"], 0, _check_list))
        ops.append(CliOp("verify-paper", ["verify-paper"], 0, _check_verify))
        for args in (
            ["chi", "--n", "13"],
            ["catalog", "--make", "pn:13"],
            ["ineq", "--manifold", self.path("over_cap")],
        ):
            ops.append(CliOp(" ".join(args), args, 2, _check_empty, over_cap=True))
        rng.shuffle(ops)
        return ops

    def spawn(self, args: list[str], mode: str) -> Outcome:
        """Run one ``genus`` process; ``traced``/``counted`` go through the driver."""
        out_path, err_path, report = (self.work / n for n in ("stdout", "stderr", "driver.json"))
        report.unlink(missing_ok=True)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            if mode == "plain":
                command = [sys.executable, *GENUS, *args]
            else:
                command = [sys.executable, str(DRIVER), str(report), repr(start), mode, *args]
            proc = subprocess.Popen(command, stdout=out, stderr=err, env=self.env, cwd=self.root)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        # A driver that died before writing its report left no spans: the op fails its exit code.
        driver = json.loads(report.read_text()) if report.exists() else {"spans": [], "startup": None, "counts": {}}
        return Outcome(
            seconds,
            proc.returncode,
            out_path.read_bytes(),
            err_path.stat().st_size,
            usage.ru_maxrss,
            driver,
        )

    def check(self, op: CliOp, result: Outcome) -> list[str]:
        if result.exit_code != op.exit_code:
            return [f"exit code {result.exit_code}, expected {op.exit_code}"]
        try:
            return op.check(result.stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]

    # -- checks -----------------------------------------------------------

    def _digest_op(self, args: list[str]) -> CliOp:
        label = " ".join(args)
        expected = self.digests[label]

        def check(out: bytes) -> list[str]:
            return [] if hashlib.sha256(out).hexdigest() == expected else ["stdout digest changed"]

        return CliOp(label, args, 0, check)

    def _make_op(self, name: str) -> CliOp:
        def check(out: bytes) -> list[str]:
            same = out == (self.work / f"{name}.json").read_bytes()
            return [] if same else ["catalog output differs from the set-up file"]

        key = self.keys[name]
        return CliOp(f"catalog --make {key}", ["catalog", "--make", key], 0, check)

    def _check_chi(self, key: str) -> Callable[[bytes], list[str]]:
        def check(out: bytes) -> list[str]:
            pairs = json.loads(out)["chi"]
            chi = [Fraction(v) for _, v in pairs]
            n = len(chi) - 1
            bad = [] if [int(p) for p, _ in pairs] == list(range(n + 1)) else ["chi indices"]
            if n != inputs.key_dim(key) or any(chi[p] != (-1) ** n * chi[n - p] for p in range(n + 1)):
                bad.append("chi is not self-dual of the right length")
            dims = _pn_dims(key)
            if dims and chi != inputs.pn_genus_product(dims):
                bad.append("chi is not the product of the factors' sum (-y)^p")
            return bad

        return check

    def _check_at(self, name: str, key: str, at: str) -> Callable[[bytes], list[str]]:
        def check(out: bytes) -> list[str]:
            value = Fraction(json.loads(out))
            dims = _pn_dims(key)
            if dims:
                point = {"euler": -1, "todd": 0, "signature": 1}[at]
                expected = sum(c * point**p for p, c in enumerate(inputs.pn_genus_product(dims)))
            else:
                doc = json.loads((self.work / f"{name}.json").read_bytes())
                n = doc["dimension"]
                expected = next(Fraction(e["value"]) for e in doc["chernNumbers"] if e["partition"] == [n])
            return [] if value == expected else [f"{at} = {value}, expected {expected}"]

        return check

    def _check_betti(self, form: str | None, profile: str | None) -> Callable[[bytes], list[str]]:
        def check(out: bytes) -> list[str]:
            doc = json.loads(out)
            bad = []
            if form:
                b_plus, b_minus, b_zero = self.forms[form][1]
                got = doc["inertia"]
                if (got["bPlus"], got["bMinus"], got["bZero"]) != (b_plus, b_minus, b_zero):
                    bad.append(f"inertia {got} != {(b_plus, b_minus, b_zero)}")
                if doc["cs"] != {"reverseCS": b_plus == 1, "CS": b_minus == 0}:
                    bad.append("Cauchy-Schwarz status")
            if profile:
                dim, betti, sigma = self.profiles[profile]
                b_plus, b_minus = (betti[dim // 2] + sigma) // 2, (betti[dim // 2] - sigma) // 2
                if doc["signatureAlternating"] is not True:
                    bad.append("profile is signature-alternating by construction")
                report = doc["inequalities"]
                if (report["bPlus"], report["bMinus"]) != (b_plus, b_minus):
                    bad.append("b+/b- from the profile")
                if (report["upper"]["equality"], report["lower"]["equality"]) != (b_plus == 1, b_minus == 0):
                    bad.append("equality cases")
            return bad

        return check


def _action_key(rng: random.Random, n: int) -> str:
    return f"pnaction:{n}:" + ",".join(str(a) for a in inputs.action_exponents(rng, n))


def _pn_dims(key: str) -> list[int]:
    """Factor dimensions when every factor is a projective space, else []."""
    factors = inputs.factor_keys(key)
    if all(f.startswith("pn:") for f in factors):
        return [int(f[3:]) for f in factors]
    return []


def _check_ineq(key: str, epsilon: int) -> Callable[[bytes], list[str]]:
    def check(out: bytes) -> list[str]:
        reports = json.loads(out)
        n = inputs.key_dim(key)
        bad = [] if len(reports) == n // 2 + 1 else [f"{len(reports)} inequalities for n = {n}"]
        if any(r["hypothesisMet"] and not r["holds"] for r in reports):
            bad.append("an inequality fails under its hypothesis")
        if key.startswith("pn:") and epsilon == 1 and not all(r["holds"] and r["equality"] for r in reports):
            bad.append("P^n misses equality")
        return bad

    return check


def _check_localize(n: int, with_check: bool) -> Callable[[bytes], list[str]]:
    def check(out: bytes) -> list[str]:
        doc = json.loads(out)
        bad = []
        if doc["chiMinusY"] != {str(p): "1" for p in range(n + 1)}:
            bad.append("chi_-y is not sum y^p")
        if doc["novikov"] != {str(2 * p): "1" for p in range(n + 1)}:
            bad.append("Novikov polynomial is not sum y^2p")
        if doc["signature"] != (1 if n % 2 == 0 else 0):
            bad.append(f"signature {doc['signature']}")
        if with_check and not (doc["check"]["applicable"] and doc["check"]["holds"]):
            bad.append("signature identity")
        return bad

    return check


def _check_list(out: bytes) -> list[str]:
    doc = json.loads(out)
    return [] if doc["manifolds"] and doc["actions"] else ["empty catalog"]


def _check_verify(out: bytes) -> list[str]:
    return [r["key"] for r in json.loads(out) if not r["pass"]]


def _check_empty(out: bytes) -> list[str]:
    return [] if not out else ["over-cap op wrote to stdout"]
