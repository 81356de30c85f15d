"""Tests of the benchmark's own arithmetic.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import json
import random
import sys
from pathlib import Path
from statistics import median

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
from speed import Reference, SpeedTrack  # noqa: E402
from stats import min_samples, percentile, relative_spread, samples_beyond  # noqa: E402
from tracing import Tracer, layer_metrics, self_times, table_lookups  # noqa: E402


def span(name, start, end, parent=-1, op=0, note=None):
    return [name, start, end, parent, op, note]


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 3.0, parent=0),
        span("c", 2.0, 4.0, parent=0),  # overlaps b: [1, 4] is covered once
        span("d", 8.0, 12.0, parent=0),  # runs past the parent: only [8, 10] counts
        span("e", 1.5, 2.5, parent=1),  # grandchild: covered by b already
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.0, 2.0, 4.0, 1.0])


def test_self_time_of_sequential_children():
    spans = [span("a", 0.0, 6.0), span("b", 1.0, 2.0, parent=0), span("b", 3.0, 5.0, parent=0)]
    assert self_times(spans) == pytest.approx([3.0, 1.0, 2.0])


def test_nearest_rank_percentile_and_samples_beyond():
    values = [float(v) for v in range(100, 0, -1)]
    assert percentile(values, 0.5) == 50.0
    assert percentile(values, 0.9) == 90.0
    assert percentile(values, 0.55) == 55.0  # 0.55 * 100 is 55.00000000000001 in floats
    assert percentile(values + [101.0] * 20, 0.9) == 101.0
    assert samples_beyond(100, 0.9) == 10
    assert samples_beyond(99, 0.9) == 9
    assert samples_beyond(118, 0.9) == 11
    assert min_samples(0.9) == 100
    assert min_samples(0.5) == 20
    assert percentile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_relative_spread_is_quartile_distance_over_median():
    assert relative_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


def test_speed_scaling_uses_the_median_reference_near_the_interval():
    track = SpeedTrack(Reference(lambda: None, ref_ms=10.0, interval=0.25, window=1.0))
    track.samples = [(0.0, 20.0), (0.5, 20.0), (1.0, 40.0), (9.0, 5.0)]
    # Interval [1.2, 1.4]: samples at 0.5 and 1.0 are within 1 s, the one at 9.0 is not.
    assert track.scale(1.2, 1.4, 3.0) == pytest.approx(3.0 * 10.0 / 30.0)
    # No sample within the window: the nearest one on each side.
    assert track.scale(4.0, 5.0, 1.0) == pytest.approx(1.0 * 10.0 / median([40.0, 5.0]))


def test_a_lookup_misses_only_with_a_graded_exponential_child():
    spans = [
        span("engine.chi_y_chern_polynomial", 0, 5, note={"n": 3}),
        span("series.log", 1, 2, parent=0),
        span("chern.graded_exponential", 2, 4, parent=0, note={"n": 3, "terms": 3}),
        span("engine.chi_y_chern_polynomial", 6, 7, note={"n": 3}),
        span("kexpansion.k_coefficients", 8, 12, note={"n": 2}),
        span("engine.chi_y_chern_polynomial", 9, 10, parent=4, note={"n": 2}),
        span("chern.graded_exponential", 10, 11, parent=4, note={"n": 2, "terms": 2}),
    ]
    hits, misses = table_lookups(spans)
    assert misses == [0]
    assert hits == [3, 5]


def test_layer_metrics_split_set_up_from_timed_ops():
    spans = [
        # set-up: a table build for n = 4
        span("engine.chi_y_chern_polynomial", 0.0, 0.010, op=None, note={"n": 4}),
        span("chern.graded_exponential", 0.002, 0.008, parent=0, op=None, note={"n": 4, "terms": 5}),
        # two timed ops reading the table and evaluating it
        span("engine.evaluate_genus", 1.0, 1.003, op=0),
        span("engine.chi_y_chern_polynomial", 1.001, 1.002, parent=2, op=0, note={"n": 4}),
        span("engine.evaluate_genus", 2.0, 2.001, op=1),
    ]
    out = layer_metrics(spans, ops=2, check_keys=["duality"])
    assert out["engine.table_build_ms.n4"] == pytest.approx(10.0)
    assert out["chern.graded_exponential_ms.n4"] == pytest.approx(6.0)
    assert out["chern.graded_exponential_terms"] == 5
    assert out["engine.table_hits"] == 0.5
    assert out["engine.table_misses"] == 0.0
    assert out["engine.evaluate_calls"] == 1.0
    assert out["engine.evaluate_ms"] == pytest.approx((2.0 + 1.0) / 2)
    assert out["engine.table_build_ms.n12"] == 0.0
    assert out["verify.duality_ms"] == 0.0


def test_tracer_records_nested_spans_and_restores_the_package():
    from chigenus import engine, kexpansion

    original = engine.chi_y_chern_polynomial
    tracer = Tracer()
    tracer.op = 7
    tracer.install()
    try:
        kexpansion.k_coefficients(2)
    finally:
        tracer.uninstall()
    assert engine.chi_y_chern_polynomial is original
    assert kexpansion.chi_y_chern_polynomial is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "kexpansion.k_coefficients"
    lookup = names.index("engine.chi_y_chern_polynomial")
    assert tracer.spans[lookup][3] == 0
    assert all(s[4] == 7 for s in tracer.spans)


def test_generated_profiles_are_signature_alternating():
    rng = random.Random(3)
    for _ in range(500):
        dim, betti, sigma = inputs.random_alternating_profile(rng)
        assert len(betti) == dim + 1 and betti == betti[::-1] and betti[0] == 1
        even = betti[::2]
        assert sigma == sum((-1) ** j * e for j, e in enumerate(even))
        assert (betti[dim // 2] + sigma) % 2 == 0 and betti[dim // 2] >= abs(sigma)


def test_generated_forms_are_symmetric_with_the_stated_inertia():
    from chigenus import inertia

    rng = random.Random(4)
    for size in (2, 5, 9):
        form, triple = inputs.congruent_form(rng, size, zeros=True)
        assert all(form[i][j] == form[j][i] for i in range(size) for j in range(size))
        assert tuple(inertia(form)) == triple


def test_benchmark_json_lists_every_metric_the_runner_prints():
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in config["workloads"]] == list(run.WORKLOADS)
