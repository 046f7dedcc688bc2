"""A fixed reference computation that tracks the speed of the host.

On a shared machine the same operation can take 1.5 times as long in one
second as in the next, and whole minutes can run slow.  Runs of different
seeds, or of a parent and a child commit, then differ by more than any bound
a benchmark could hold.

The reference is timed between operations in the same run, and it slows when
the host slows.  It does the kinds of work qpp does, none of it through qpp:
building many small Python objects, numpy calls on 4-element complex vectors,
and 4x4 complex matrices built from Python lists with a spectral norm taken.
Of the candidates tried, this mix tracked the check path and the optimizer
objective best.  A vectorized pass over a large array tracked them worst and
is left out.  Dividing an operation time by the reference time measured
around it cancels most of the drift, and a change to qpp does not move the
reference.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

INTERVAL_S = 0.05  # at most one sample per interval, taken between operations
SPAN_S = 0.25      # an operation is scaled by the samples from this long before it to just after
NOMINAL_MS = 1.0   # normalized times are for a host on which the reference takes this long


def _objects() -> int:
    pairs = [(i, str(i)) for i in range(3000)]
    return len({label for _, label in pairs})


_VEC = np.arange(4, dtype=np.complex128) + 1j
_VEC = _VEC / np.linalg.norm(_VEC)


def _small_arrays() -> float:
    total = 0.0
    for _ in range(60):
        total += float(np.linalg.norm(np.outer(_VEC, _VEC.conj()) @ _VEC))
    return total


_MAT = (np.arange(16).reshape(4, 4) + 1j) / 10.0


def _matrices() -> float:
    total = 0.0
    for _ in range(15):
        m = np.array([[complex(i, j) for j in range(4)] for i in range(4)])
        total += float(np.linalg.norm(m @ _MAT - np.eye(4), 2))
    return total


KERNELS = {"objects": _objects, "small-arrays": _small_arrays, "matrices": _matrices}


def _geometric_mean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


class SpeedReference:
    """Samples of the reference kernels over one run, in nanoseconds."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: dict[str, list[int]] = {name: [] for name in KERNELS}

    def sample(self) -> None:
        for name, kernel in KERNELS.items():
            start = time.perf_counter_ns()
            kernel()
            self.samples[name].append(time.perf_counter_ns() - start)
        self.times.append(time.perf_counter())

    def maybe_sample(self) -> None:
        """Sample unless the last sample is less than INTERVAL_S old."""
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def scale_since(self, start: float) -> float:
        """Factor that turns a time measured since ``start`` into one at nominal host speed.

        It uses the samples from SPAN_S before ``start`` onwards, and at least
        the latest one.  Short operations get the last few samples around
        them, long ones the samples just before and just after them.
        """
        first = min(bisect.bisect_left(self.times, start - SPAN_S), len(self.times) - 1)
        reference_ms = _geometric_mean(
            statistics.median(ns[first:]) / 1e6 for ns in self.samples.values()
        )
        return NOMINAL_MS / reference_ms

    def medians_ms(self) -> dict[str, float]:
        return {name: statistics.median(ns) / 1e6 for name, ns in self.samples.items()}
