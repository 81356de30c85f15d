"""Spans around the public functions of ``chigenus`` and the per-layer arithmetic.

Tracing is done from outside the package: :meth:`Tracer.install` rebinds,
in the current process only, every module-level name (and the few class
attributes) through which the package reaches a traced function, so callers
inside the package pick up the wrapper too. :meth:`Tracer.uninstall`
restores the originals.

A span is ``[name, start, end, parent, op, note]``: ``parent`` is the index of
the enclosing span in the same list (or -1), ``op`` the identifier of the
benchmark operation that caused it, and ``note`` a small dict of sizes (the
dimension of a table, the number of terms returned, ...). Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable

# Takes a call's arguments and result, returns the sizes to keep on its span.
_Note = Callable[[tuple, Any], "dict[str, int] | None"]


def _arg0(args: tuple, _: Any) -> dict[str, int]:
    return {"n": args[0]}


def _exp_note(args: tuple, result: Any) -> dict[str, int]:
    return {"n": args[1], "terms": len(result)}


def _chern_numbers_note(args: tuple, result: Any) -> dict[str, int]:
    return {"n": args[1], "partitions": len(result)}


def _inertia_note(args: tuple, _: Any) -> dict[str, int]:
    return {"entries": len(args[0]) ** 2}


def _components_note(args: tuple, _: Any) -> dict[str, int]:
    return {"components": len(args[0].components)}


# span name -> (module, attribute path in it, note)
TARGETS: dict[str, tuple[str, str, _Note | None]] = {
    "cli.build_parser": ("chigenus.cli", "build_parser", None),
    "serialize.dumps": ("chigenus.serialize", "dumps", None),
    "serialize.ypoly_to_json": ("chigenus.serialize", "ypoly_to_json", None),
    "serialize.chern_to_json": ("chigenus.serialize", "chern_to_json", None),
    "serialize.model_to_json": ("chigenus.serialize", "model_to_json", None),
    "serialize.manifold_to_json": ("chigenus.serialize", "manifold_to_json", None),
    "serialize.manifold_from_json": ("chigenus.serialize", "manifold_from_json", None),
    "serialize.model_from_json": ("chigenus.serialize", "model_from_json", None),
    "serialize.form_from_json": ("chigenus.serialize", "form_from_json", None),
    "serialize.profile_from_json": ("chigenus.serialize", "profile_from_json", None),
    "series.normalized_series": ("chigenus.engine", "normalized_series", None),
    "series.log": ("chigenus.series", "TruncatedSeries.log", None),
    "chern.power_sum_in_chern": ("chigenus.chern", "power_sum_in_chern", None),
    "chern.graded_exponential": ("chigenus.chern", "graded_exponential", _exp_note),
    "engine.chi_y_chern_polynomial": ("chigenus.engine", "chi_y_chern_polynomial", _arg0),
    "engine.evaluate_genus": ("chigenus.engine", "evaluate_genus", None),
    "kexpansion.k_coefficients": ("chigenus.kexpansion", "k_coefficients", _arg0),
    "kexpansion.odd_k_span_check": ("chigenus.kexpansion", "odd_k_span_check", _arg0),
    "kexpansion.verify_closed_forms": ("chigenus.kexpansion", "verify_closed_forms", _arg0),
    "inequalities.check_inequalities": ("chigenus.inequalities", "check_inequalities", None),
    "catalog.chern_numbers": ("chigenus.catalog", "CohomologyModel.chern_numbers", _chern_numbers_note),
    "catalog.multiply": ("chigenus.catalog", "CohomologyModel.multiply", None),
    "betti.inertia": ("chigenus.betti", "inertia", _inertia_note),
    "betti.betti_inequality_check": ("chigenus.betti", "betti_inequality_check", None),
    "localization.localized_chi_minus_y": ("chigenus.localization", "localized_chi_minus_y", _components_note),
    "localization.novikov_polynomial": ("chigenus.localization", "novikov_polynomial", None),
    "localization.localized_signature": ("chigenus.localization", "localized_signature", None),
    "localization.signature_identity_check": ("chigenus.localization", "signature_identity_check", None),
    "localization.consistency_isolated": ("chigenus.localization", "consistency_isolated", None),
}


class Tracer:
    """Collects spans; ``op`` names the benchmark operation now running."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self.op: Any = None
        self.enabled = True
        self._undo: list[Callable[[], None]] = []

    def wrap(self, name: str, fn: Callable, note: _Note | None = None) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span[5] = note(args, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target in :data:`TARGETS` and the ``verify.CHECKS`` entries."""
        for name, (module_name, path, note) in TARGETS.items():
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                self._rebind(owner, attr, self.wrap(name, owner.__dict__[attr], note))
            else:
                original = getattr(module, attr)
                wrapper = self.wrap(name, original, note)
                for mod in _package_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, wrapper)
        verify = importlib.import_module("chigenus.verify")
        checks = tuple(
            (key, statement, self.wrap(f"verify.{key}", fn)) for key, statement, fn in verify.CHECKS
        )
        self._rebind(verify, "CHECKS", checks)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _rebind(self, owner: Any, attr: str, value: Any) -> None:
        old = owner.__dict__[attr]
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))


def call_counts(profiler: Any) -> dict[str, int]:
    """Calls of ``Fraction.__new__`` and ``YPolynomial.__init__`` seen by a ``cProfile`` profiler."""
    import pstats
    from fractions import Fraction

    from chigenus.ypoly import YPolynomial

    wanted = {
        "fractions.new_calls": Fraction.__new__.__code__,
        "ypoly.init_calls": YPolynomial.__init__.__code__,
    }
    counts = dict.fromkeys(wanted, 0)
    for (filename, line, func), (_, calls, *_rest) in pstats.Stats(profiler).stats.items():
        for metric, code in wanted.items():
            if (filename, line, func) == (code.co_filename, code.co_firstlineno, code.co_name):
                counts[metric] += calls
    return counts


def _package_modules() -> list[Any]:
    return [m for k, m in list(sys.modules.items()) if k == "chigenus" or k.startswith("chigenus.")]


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def table_lookups(spans: list[list[Any]]) -> tuple[list[int], list[int]]:
    """Indices of table lookups that were cache hits and misses.

    A lookup is a ``engine.chi_y_chern_polynomial`` span; it missed the cache
    when it has a ``chern.graded_exponential`` child.
    """
    builders = {s[3] for s in spans if s[0] == "chern.graded_exponential"}
    hits, misses = [], []
    for index, span in enumerate(spans):
        if span[0] == "engine.chi_y_chern_polynomial":
            (misses if index in builders else hits).append(index)
    return hits, misses


# Layer metrics that sum self time per timed op, and the spans they cover.
SELF_MS_LAYERS = {
    "serialize.dump_ms": (
        "serialize.dumps",
        "serialize.ypoly_to_json",
        "serialize.chern_to_json",
        "serialize.model_to_json",
        "serialize.manifold_to_json",
    ),
    "serialize.parse_ms": (
        "serialize.manifold_from_json",
        "serialize.model_from_json",
        "serialize.form_from_json",
        "serialize.profile_from_json",
    ),
    "series.log_ms": ("series.normalized_series", "series.log"),
    "chern.power_sum_ms": ("chern.power_sum_in_chern",),
    "engine.evaluate_ms": ("engine.evaluate_genus",),
    "kexpansion.k_coefficients_ms": ("kexpansion.k_coefficients",),
    "kexpansion.span_check_ms": ("kexpansion.odd_k_span_check",),
    "kexpansion.closed_forms_ms": ("kexpansion.verify_closed_forms",),
    "inequalities.check_ms": ("inequalities.check_inequalities",),
    "catalog.chern_numbers_ms": ("catalog.chern_numbers", "catalog.multiply"),
    "betti.inertia_ms": ("betti.inertia",),
    "betti.inequality_ms": ("betti.betti_inequality_check",),
    "localization.localize_ms": (
        "localization.localized_chi_minus_y",
        "localization.novikov_polynomial",
        "localization.localized_signature",
        "localization.signature_identity_check",
        "localization.consistency_isolated",
    ),
}

# Metrics that count calls per timed op.
CALL_COUNTS = {
    "chern.power_sum_calls": "chern.power_sum_in_chern",
    "engine.evaluate_calls": "engine.evaluate_genus",
    "kexpansion.k_coefficients_calls": "kexpansion.k_coefficients",
    "inequalities.check_calls": "inequalities.check_inequalities",
    "catalog.multiply_calls": "catalog.multiply",
    "betti.inertia_calls": "betti.inertia",
}

# Metrics that sum a note field per timed op.
NOTE_SUMS = {
    "catalog.chern_numbers_partitions": ("catalog.chern_numbers", "partitions"),
    "betti.inertia_entries": ("betti.inertia", "entries"),
    "localization.components": ("localization.localized_chi_minus_y", "components"),
}

SIZES = (4, 8, 12)


def _median(values: list[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def layer_metrics(spans: list[list[Any]], ops: int, check_keys: list[str]) -> dict[str, float]:
    """Per-layer figures from the spans of a traced run.

    Spans whose op is ``None`` belong to set-up: they feed only the per-call
    figures (table builds by size, exponential terms, paper checks), never the
    per-op ones.
    """
    selfs = self_times(spans)
    timed = [i for i, s in enumerate(spans) if s[4] is not None]
    out: dict[str, float] = {}
    by_name: dict[str, list[int]] = defaultdict(list)
    for i in timed:
        by_name[spans[i][0]].append(i)
    for metric, names in SELF_MS_LAYERS.items():
        total = sum(selfs[i] for name in names for i in by_name[name])
        out[metric] = 1000 * total / ops
    for metric, name in CALL_COUNTS.items():
        out[metric] = len(by_name[name]) / ops
    for metric, (name, field) in NOTE_SUMS.items():
        out[metric] = sum(spans[i][5][field] for i in by_name[name]) / ops

    exps = [s for s in spans if s[0] == "chern.graded_exponential"]
    hits, misses = table_lookups(spans)
    for n in SIZES:
        out[f"chern.graded_exponential_ms.n{n}"] = 1000 * _median(
            [s[2] - s[1] for s in exps if s[5]["n"] == n]
        )
        out[f"engine.table_build_ms.n{n}"] = 1000 * _median(
            [spans[i][2] - spans[i][1] for i in misses if spans[i][5]["n"] == n]
        )
    out["chern.graded_exponential_terms"] = (
        sum(s[5]["terms"] for s in exps) / len(exps) if exps else 0.0
    )
    timed_set = set(timed)
    out["engine.table_hits"] = sum(1 for i in hits if i in timed_set) / ops
    out["engine.table_misses"] = sum(1 for i in misses if i in timed_set) / ops
    for key in check_keys:
        runs = [s[2] - s[1] for s in spans if s[0] == f"verify.{key}"]
        out[f"verify.{key}_ms"] = 1000 * sum(runs) / len(runs) if runs else 0.0
    return out
