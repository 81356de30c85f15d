"""Scaling timings to a reference speed.

On a shared virtual machine (measured on a 2-vCPU Intel Xeon guest) a fixed
piece of work can take 50% longer for tens of seconds when neighbours are
busy, and one run cannot outlast such a phase. So the benchmark times a fixed reference, one
that touches no chigenus code, at regular intervals between ops, and
reports each timing as it would read on a machine where the reference takes
``ref_ms``: ``seconds * ref_ms / r``, with ``r`` the median reference time
measured within ``window`` seconds of the timed interval.

Two references, because they follow different costs: :data:`CPU` (exact
``Fraction`` sums, the arithmetic chigenus spends its time in) for work in
the benchmark's own process, and :data:`SPAWN` (a fresh interpreter
importing the standard modules the CLI uses) for work in child processes,
whose start-up cost the first does not follow.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction
from statistics import median
from typing import Callable, NamedTuple


class Reference(NamedTuple):
    unit: Callable[[], object]
    ref_ms: float
    interval: float
    window: float


def fraction_sums() -> Fraction:
    total = Fraction(0)
    for i in range(1, 2500):
        total += Fraction(1, i % 97 + 1)
    return total


def interpreter_start() -> None:
    subprocess.run([sys.executable, "-c", "import argparse, dataclasses, fractions, json, re"], check=True)


CPU = Reference(fraction_sums, ref_ms=8.0, interval=0.25, window=1.0)
SPAWN = Reference(interpreter_start, ref_ms=70.0, interval=1.0, window=2.0)


class SpeedTrack:
    """Reference timings ``(midpoint, milliseconds)`` taken through a run."""

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        start = time.perf_counter()
        self.reference.unit()
        end = time.perf_counter()
        self.samples.append(((start + end) / 2, 1000 * (end - start)))

    def sample_if_due(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= self.reference.interval:
            self.sample()

    def scale(self, start: float, end: float, seconds: float) -> float:
        """``seconds``, measured over ``[start, end]``, at the reference speed.

        Uses the samples within the reference's window of the interval, or
        failing that the nearest sample on each side.
        """
        window = self.reference.window
        near = [ms for t, ms in self.samples if start - window <= t <= end + window]
        if not near:
            before = [s for s in self.samples if s[0] < start]
            after = [s for s in self.samples if s[0] > end]
            near = [max(before)[1]] if before else []
            near += [min(after)[1]] if after else []
        if not near:
            raise ValueError("no reference timing for this interval")
        return seconds * self.reference.ref_ms / median(near)

    def summary(self) -> dict[str, float]:
        times = [ms for _, ms in self.samples]
        return {"ref_ms_median": median(times), "ref_ms_min": min(times), "ref_ms_max": max(times)}
