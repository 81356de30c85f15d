"""Benchmark of chigenus: three workloads, end-to-end figures and a traced per-layer breakdown.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
makes a separate traced run and reports the per-layer metrics. The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are the run's context and a
readable table. ``--workload all`` runs every workload both ways, one
process each, and prints every table.

Ops run in a closed loop, one at a time, in blocks of fixed composition
whose order and inputs come from ``--seed``. A run takes the fewest whole
blocks that hold 100 ops and runs them in rounds until ``--seconds`` have
passed and the workload's ``MIN_ROUNDS`` are done. Every timing is scaled
to a reference speed (see ``speed.py``), and an op's latency is its median
over the rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any

from speed import CPU, SPAWN, SpeedTrack
from stats import min_samples, percentile, samples_beyond
from tracing import CALL_COUNTS, NOTE_SUMS, SELF_MS_LAYERS, SIZES, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-session", "catalog-sweep", "forms-actions")
P90 = 0.9

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# Keys of chigenus.verify.CHECKS at the commit that defined this benchmark.
VERIFY_KEYS = (
    "k-closed-forms",
    "projective-genus",
    "duality",
    "inequality-optimality",
    "binomial-transform",
    "localization",
    "signature-chain",
    "k3-cross-check",
    "eulerian-identity",
    "inertia-suite",
)


def per_layer_units() -> dict[str, str]:
    """The unit of every per-layer metric, in the order the traced run prints them."""
    units = {"cli.startup_ms": "ms", "cli.stderr_bytes": "bytes", "cli.reject_ms": "ms"}
    units.update(dict.fromkeys(SELF_MS_LAYERS, "ms/op"))
    units.update(dict.fromkeys(CALL_COUNTS, "count/op"))
    units.update(dict.fromkeys(NOTE_SUMS, "count/op"))
    for n in SIZES:
        units[f"chern.graded_exponential_ms.n{n}"] = "ms"
        units[f"engine.table_build_ms.n{n}"] = "ms"
    units["chern.graded_exponential_terms"] = "count"
    units["engine.table_hits"] = "count/op"
    units["engine.table_misses"] = "count/op"
    units.update({f"verify.{key}_ms": "ms" for key in VERIFY_KEYS})
    units["ypoly.init_calls"] = "count/op"
    units["fractions.new_calls"] = "count/op"
    units["trace.overhead_ms"] = "ms/op"
    return units


def make_workload(name: str, seed: int) -> Any:
    if name == "cli-session":
        from cli_session import CliSession

        return CliSession(seed, ROOT)
    from inprocess import WORKLOADS as IN_PROCESS

    return IN_PROCESS[name](seed, ROOT)


def measure(
    workload: Any, mode: str, seconds: float, min_ops: int, min_rounds: int, track: SpeedTrack
) -> tuple[list[float], list[float], list[float], list[str]]:
    """Run a fixed op list in rounds until ``seconds`` have passed and ``min_rounds`` are done.

    The op list is the fewest whole blocks that hold ``min_ops`` ops (at
    least one block). Latencies are scaled to the reference speed by
    ``track``. Returns each op's median latency over the rounds, scaled and
    as measured, every execution's scaled latency in order, and a line per
    failed execution.
    """
    ops: list[Any] = []
    blocks = 0
    while blocks == 0 or len(ops) < min_ops:
        ops += workload.block(blocks)
        blocks += 1
    runs: list[tuple[int, float, float, float]] = []
    failures: list[str] = []
    start = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        for index, op in enumerate(ops):
            track.sample_if_due()
            begun = time.perf_counter()
            latency, bad = workload.execute(op, mode, len(runs))
            runs.append((index, begun, time.perf_counter(), latency))
            if bad:
                failures.append(f"{op.label}: {'; '.join(bad)[:500]}")
        rounds += 1
    track.sample()
    executions = [track.scale(begun, ended, latency) for _, begun, ended, latency in runs]
    samples: list[list[float]] = [[] for _ in ops]
    raw: list[list[float]] = [[] for _ in ops]
    for (index, *_, measured), latency in zip(runs, executions):
        samples[index].append(latency)
        raw[index].append(measured)
    return [median(s) for s in samples], [median(r) for r in raw], executions, failures


def figures(latencies: list[float], setups: list[float], rss_mib: float) -> dict[str, float]:
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1000 * percentile(latencies, 0.5),
        "op_p90_ms": 1000 * percentile(latencies, P90),
        "setup_s": median(setups),
        "peak_rss_mib": rss_mib,
    }


def end_to_end(workload: Any, seconds: float, track: SpeedTrack) -> tuple[dict[str, float], int, list[str]]:
    """Set-up timings (scaled by process start-up), then the op list.

    Prints the same figures unscaled, as measured, on a line of their own.
    """
    setups, raw_setups = [], []
    spawn = SpeedTrack(SPAWN)
    for _ in range(workload.SET_UP_REPEATS):
        spawn.sample()
        begun = time.perf_counter()
        seconds_taken = workload.set_up_once()
        ended = time.perf_counter()
        spawn.sample()
        setups.append(spawn.scale(begun, ended, seconds_taken))
        raw_setups.append(seconds_taken)
    workload.prepare()
    latencies, raw, executions, failures = measure(
        workload, "plain", seconds, min_samples(P90), workload.MIN_ROUNDS, track
    )
    print(
        f"{len(latencies)} ops x {len(executions) // len(latencies)} rounds; "
        f"p90 has {samples_beyond(len(latencies), P90)} samples beyond it"
    )
    rss_mib = workload.peak_rss_mib()
    print(json.dumps({"unscaled": figures(raw, raw_setups, rss_mib)}))
    return figures(latencies, setups, rss_mib), len(executions), failures


def per_layer(workload: Any, seconds: float, track: SpeedTrack) -> tuple[dict[str, float], int, list[str]]:
    """Traced run: block 0 untraced, traced, then counted.

    The untraced and traced rounds run the same inputs, so the difference
    of their first rounds is the tracing overhead per op. Call counts come
    from a ``cProfile`` round, apart from the spans so the profiler's cost
    does not reach the timings.
    """
    workload.set_up_traced()
    _, _, plain, failures = measure(workload, "plain", 0, 0, 1, track)
    workload.begin("traced")
    _, _, traced, bad = measure(workload, "traced", seconds / 2, 0, 1, track)
    workload.end("traced")
    failures += bad
    workload.begin("counted")
    _, _, counted, bad = measure(workload, "counted", 0, 0, 1, track)
    counts = workload.end("counted")
    failures += bad

    units = per_layer_units()
    metrics = dict.fromkeys(units, 0.0)
    metrics.update(layer_metrics(workload.tracer.spans, len(traced), list(VERIFY_KEYS)))
    metrics.update(workload.layer_extras())
    metrics.update({name: value / len(counted) for name, value in counts.items()})
    first = len(plain)
    metrics["trace.overhead_ms"] = 1000 * (sum(traced[:first]) - sum(plain)) / first
    unknown = set(metrics) - set(units)
    if unknown:
        raise RuntimeError(f"metrics without a unit: {sorted(unknown)}")
    return metrics, len(plain) + len(traced) + len(counted), failures


def context() -> dict[str, Any]:
    """Where and on what the numbers were taken, recorded with every result."""
    info: dict[str, Any] = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": None,
        "loadavg": None,
    }
    try:
        with open("/proc/cpuinfo") as handle:
            info["cpu"] = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None
            )
        with open("/proc/loadavg") as handle:
            info["loadavg"] = [float(v) for v in handle.read().split()[:3]]
    except OSError:
        pass
    total = net = 0
    for path in sorted((ROOT / "src" / "chigenus").glob("*.py")):
        for line in path.read_text().splitlines():
            total += 1
            stripped = line.strip()
            net += bool(stripped) and not stripped.startswith("#")
    info["src_lines"] = total
    info["src_net_lines"] = net
    return info


def report(workload: str, trace: bool, metrics: dict[str, float], units: dict[str, str], extra: str) -> None:
    print(f"{workload} ({'traced, per layer' if trace else 'end to end'}){extra}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.4f} {units[name]}")


def run_one(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps({"context": context(), "workload": args.workload, "seed": args.seed}))
    workload = make_workload(args.workload, args.seed)
    track = SpeedTrack(SPAWN if workload.IN_CHILDREN else CPU)
    try:
        if args.trace:
            metrics, attempted, failures = per_layer(workload, args.seconds, track)
            units = per_layer_units()
        else:
            metrics, attempted, failures = end_to_end(workload, args.seconds, track)
            units = END_TO_END
    finally:
        workload.close()
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    speed = ", ".join(f"{k} {v:.3f}" for k, v in track.summary().items())
    extra = f": {attempted} ops, failed_frac {len(failures) / attempted:.4f}, {speed}"
    report(args.workload, bool(args.trace), metrics, units, extra)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, end to end and traced, each in a process of its own."""
    print(json.dumps({"context": context(), "workload": "all", "seed": args.seed}))
    merged: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            lines = subprocess.run(command, capture_output=True, text=True, check=True, cwd=ROOT).stdout.splitlines()
            print("\n".join(lines[1:-1]))
            result = json.loads(lines[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "chigenus" / "__init__.py").is_file():
        print(f"no chigenus sources under {ROOT / 'src'}: run from a checkout of the repository", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
