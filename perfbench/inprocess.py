"""The two one-process workloads: ``catalog-sweep`` and ``forms-actions``.

Both call the public functions of ``chigenus`` in the benchmark's own
process. An op's ``run`` is timed; its ``check`` is not, and compares the
result with an answer reached by another route.
"""

from __future__ import annotations

import cProfile
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, NamedTuple

from chigenus import betti, catalog, engine, inequalities, kexpansion, localization, serialize

import inputs
from tracing import Tracer, call_counts


HERE = Path(__file__).resolve().parent


class Op(NamedTuple):
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


def _rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{block}")


class InProcess:
    """What the runner needs from a one-process workload; subclasses add ``prepare`` and ``block``."""

    name = ""
    SET_UP_REPEATS = 15
    MIN_ROUNDS = 3
    IN_CHILDREN = False  # ops run here, so timings follow the CPU reference

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root
        self.tracer = Tracer()
        self._profiler: cProfile.Profile | None = None

    def prepare(self) -> None:
        """The program work done before the first op."""

    def set_up_once(self) -> float:
        """Seconds a fresh process takes to import chigenus and run ``prepare``."""
        probe = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), self.name],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(self.root / "src")),
            cwd=self.root,
            check=True,
            timeout=120,
        )
        return float(probe.stdout)

    def set_up_traced(self) -> None:
        self.tracer.install()
        try:
            self.prepare()
        finally:
            self.tracer.uninstall()

    def begin(self, mode: str) -> None:
        if mode == "traced":
            self.tracer.install()
        elif mode == "counted":
            self._profiler = cProfile.Profile()

    def end(self, mode: str) -> dict[str, int]:
        if mode == "traced":
            self.tracer.uninstall()
        elif mode == "counted":
            return call_counts(self._profiler)
        return {}

    def execute(self, op: Op, mode: str, op_id: int) -> tuple[float, list[str]]:
        self.tracer.op = op_id
        profiler = self._profiler if mode == "counted" else None
        if profiler:
            profiler.enable()
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an op that raises counts as failed
            return time.perf_counter() - start, [f"raised {exc!r}"]
        finally:
            if profiler:
                profiler.disable()
        seconds = time.perf_counter() - start
        self.tracer.enabled = False
        try:
            return seconds, op.check(result)
        except Exception as exc:
            return seconds, [f"check raised {exc!r}"]
        finally:
            self.tracer.enabled = True

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def layer_extras(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


class CatalogSweep(InProcess):
    """Warm library use: tables for n <= 8 are built in set-up, ops only read them.

    A block holds, for every total dimension 2..8, one ``pn:``, one ``hyp:``
    and one ``product:`` key, in seeded order; only the degrees and the
    factorizations vary with the seed, so every block costs about the same.
    """

    name = "catalog-sweep"

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self._factor_chi: dict[str, list[Fraction]] = {}
        self._k_tables: dict[int, Any] = {}

    def prepare(self) -> None:
        for n in range(1, 9):
            engine.chi_y_chern_polynomial(n)

    def block(self, index: int) -> list[Op]:
        rng = _rng(self.name, self.seed, index)
        keys = [inputs.catalog_key(rng, kind, dim) for dim in range(2, 9) for kind in ("pn", "hyp", "product")]
        rng.shuffle(keys)
        return [Op(key, self._runner(key), self._checker(key)) for key in keys]

    @staticmethod
    def _runner(key: str) -> Callable[[], Any]:
        def run() -> Any:
            data = catalog.make_manifold(key)
            chi = engine.chi_vector(data)
            special = {at: engine.specialize(data, at) for at in ("euler", "todd", "signature")}
            reports = {eps: inequalities.check_inequalities(data, eps) for eps in (1, -1)}
            bound = inequalities.miyaoka_yau_check(data) if data.dimension >= 2 else None
            text = serialize.dumps(serialize.manifold_to_json(data))
            back = serialize.manifold_from_json(json.loads(text))
            again = serialize.dumps(serialize.manifold_to_json(back))
            return data, chi, special, reports, bound, text, back, again

        return run

    def _checker(self, key: str) -> Callable[[Any], list[str]]:
        def check(result: Any) -> list[str]:
            data, chi, special, reports, bound, text, back, again = result
            n = data.dimension
            bad = []
            if len(chi) != n + 1:
                return [f"chi has {len(chi)} entries for n = {n}"]
            if any(chi[p] != (-1) ** n * chi[n - p] for p in range(n + 1)):
                bad.append("duality")
            euler = sum((-1) ** p * c for p, c in enumerate(chi))
            if not special["euler"] == euler == data.chern_numbers[(n,)]:
                bad.append("euler is not the top Chern number")
            if special["todd"] != chi[0] or special["signature"] != sum(chi):
                bad.append("todd or signature specialization")
            expected = self._expected_chi(key)
            if chi != expected:
                bad.append(f"chi {chi} != {expected} from the factors")
            table = self._k_table(n)
            evaluated = [k.evaluate(data.chern_numbers).constant_value() for k in table.k_polys]
            if kexpansion.binomial_transform(chi) != evaluated:
                bad.append("binomial transform differs from the evaluated K_j")
            for eps, lines in reports.items():
                if len(lines) != n // 2 + 1:
                    bad.append(f"epsilon {eps}: {len(lines)} inequalities")
                if any(r.hypothesis_met and not r.holds for r in lines):
                    bad.append(f"epsilon {eps}: an inequality fails under its hypothesis")
            if key.startswith("pn:") and not all(r.holds and r.equality for r in reports[1]):
                bad.append("P^n misses equality")
            if bound is not None:
                mixed = data.chern_numbers[tuple(sorted([2] + [1] * (n - 2), reverse=True))]
                power = data.chern_numbers[(1,) * n]
                lhs, rhs = (-1) ** n * mixed, Fraction(n, 2 * (n + 1)) * (-1) ** n * power
                if (bound.lhs, bound.rhs, bound.holds) != (lhs, rhs, lhs >= rhs):
                    bad.append("curvature bound")
            if again != text or back.chern_numbers != data.chern_numbers:
                bad.append("serialize round trip")
            return bad

        return check

    def _expected_chi(self, key: str) -> list[Fraction]:
        """chi of a product as the product of its factors' chi; P^n by its closed form."""
        coeffs: list = [1]
        for factor in inputs.factor_keys(key):
            if factor not in self._factor_chi:
                if factor.startswith("pn:"):
                    chi = inputs.pn_genus_product([int(factor[3:])])
                else:
                    chi = engine.chi_vector(catalog.make_manifold(factor))
                self._factor_chi[factor] = chi
            coeffs = inputs.multiply(coeffs, self._factor_chi[factor])
        return [Fraction(c) for c in coeffs]

    def _k_table(self, n: int) -> Any:
        if n not in self._k_tables:
            self._k_tables[n] = kexpansion.k_coefficients(n)
        return self._k_tables[n]


class FormsActions(InProcess):
    """No Chern table: exact elimination on forms, y-polynomial sums over fixed points.

    A block holds two form batches, five action batches and three profile
    batches in seeded order. Each batch draws from every stratum: two forms
    (twelve of sizes 2..24) or one action (six of n = 2..60), so batches of
    a kind cost about the same: the form batches are the slowest fifth of the
    ops, the action batches hold the median.
    """

    name = "forms-actions"
    FORM_SIZES = ((2, 5), (6, 9), (10, 13), (14, 17), (18, 21), (22, 24))
    FORMS_PER_STRATUM = 2  # the 90th percentile falls among form batches; two per stratum halve a batch's variance
    ACTION_DIMS = ((2, 11), (12, 21), (22, 31), (32, 41), (42, 51), (52, 60))
    PROFILES_PER_BATCH = 100

    def block(self, index: int) -> list[Op]:
        rng = _rng(self.name, self.seed, index)
        kinds = ["forms"] * 2 + ["actions"] * 5 + ["profiles"] * 3
        rng.shuffle(kinds)
        return [getattr(self, f"_{kind}")(rng) for kind in kinds]

    def _forms(self, rng: random.Random) -> Op:
        batch = [
            inputs.congruent_form(rng, rng.randint(lo, hi), zeros=rng.random() < 0.5)
            for lo, hi in self.FORM_SIZES
            for _ in range(self.FORMS_PER_STRATUM)
        ]

        def run() -> Any:
            out = []
            for form, _ in batch:
                triple = betti.inertia(form)
                out.append((triple, betti.cs_classification(triple)))
            return out

        def check(result: Any) -> list[str]:
            bad = []
            for (form, expected), (triple, status) in zip(batch, result):
                if tuple(triple) != expected:
                    bad.append(f"size {len(form)}: inertia {tuple(triple)} != {expected}")
                if tuple(status) != (expected[0] == 1, expected[1] == 0):
                    bad.append(f"size {len(form)}: Cauchy-Schwarz status {tuple(status)}")
            return bad

        return Op("forms:" + ",".join(str(len(f)) for f, _ in batch), run, check)

    def _actions(self, rng: random.Random) -> Op:
        batch = []
        for lo, hi in self.ACTION_DIMS:
            n = rng.randint(lo, hi)
            batch.append((n, tuple(inputs.action_exponents(rng, n))))

        def run() -> Any:
            out = []
            for n, exponents in batch:
                model = catalog.standard_pn_action(n, exponents)
                out.append(
                    (
                        localization.localized_chi_minus_y(model),
                        localization.novikov_polynomial(model),
                        localization.signature_identity_check(model),
                        localization.consistency_isolated(model),
                    )
                )
            return out

        def check(result: Any) -> list[str]:
            bad = []
            for (n, _), (chi, novikov, identity, consistency) in zip(batch, result):
                if chi.items() != [(p, 1) for p in range(n + 1)]:
                    bad.append(f"P^{n}: chi_-y is not sum y^p")
                if novikov.items() != [(2 * p, 1) for p in range(n + 1)]:
                    bad.append(f"P^{n}: Novikov polynomial is not sum y^2p")
                if identity.signature != (1 if n % 2 == 0 else 0):
                    bad.append(f"P^{n}: signature {identity.signature}")
                if not (identity.applicable and identity.holds):
                    bad.append(f"P^{n}: signature identity")
                if not (consistency.consistent and consistency.chi_positive):
                    bad.append(f"P^{n}: isolated-point consistency")
            return bad

        return Op("actions:" + ",".join(str(n) for n, _ in batch), run, check)

    def _profiles(self, rng: random.Random) -> Op:
        batch = [inputs.random_alternating_profile(rng) for _ in range(self.PROFILES_PER_BATCH)]

        def run() -> Any:
            return [betti.betti_inequality_check(betti.BettiProfile(d, tuple(b), s)) for d, b, s in batch]

        def check(result: Any) -> list[str]:
            bad = []
            for (dim, numbers, sigma), report in zip(batch, result):
                b_plus = (numbers[dim // 2] + sigma) // 2
                b_minus = b_plus - sigma
                if (report.b_plus, report.b_minus, report.alternating) != (b_plus, b_minus, True):
                    bad.append(f"{numbers}: b+/b-/alternating")
                elif not (report.upper.holds and report.lower.holds):
                    bad.append(f"{numbers}: an inequality fails")
                elif (report.upper.equality, report.lower.equality) != (b_plus == 1, b_minus == 0):
                    bad.append(f"{numbers}: equality cases")
            return bad

        return Op(f"profiles:{len(batch)}", run, check)


WORKLOADS = {cls.name: cls for cls in (CatalogSweep, FormsActions)}
