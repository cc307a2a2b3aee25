"""Host speed, measured by a fixed calibration loop.

On a shared host the same pure-Python work runs up to twice as fast from
one second to the next: other tenants' load changes the clock and the
caches the guest gets, and no steal time shows inside it.  Timed items are
therefore scaled to a reference speed.  After at least CHUNK_S of timed
items the worker runs the calibration loop once, outside any item's
timing, and multiplies those items' latencies by REFERENCE_S over the mean
of the calibrations just before and just after them.  A scaled time is the
time the item would take on the host when the loop takes REFERENCE_S.

The loop is fixed here and does the kind of work the program does: an
exchange search over two rows (combinations, sorting, frozensets, a set of
row tuples) and dictionary and string work.  It uses no heckeprod code, so
a change to the program does not change it.

The loop tracks work inside one interpreter, not the start of new ones.
An item that is a whole program run is scaled instead by START_REFERENCE_S
over the time of a bare interpreter started just before it
(``start_scale``).
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from itertools import combinations

clock = time.perf_counter

# Calibration time that defines reference speed: about the median of
# calibration() on the 2-core Xeon host the benchmark was written on.
REFERENCE_S = 0.016
# The same for a bare ``python -c pass``.
START_REFERENCE_S = 0.055
# Timed work between two calibrations.  The host's speed changes on a scale
# of seconds; one calibration costs about a sixth of this.
CHUNK_S = 0.1


def _search(top: tuple[int, ...], bottom: tuple[int, ...]) -> int:
    seen = set()
    standard = 0
    for k in range(len(bottom) + 1):
        for down in combinations(top, k):
            down_set = frozenset(down)
            rest = [x for x in top if x not in down_set]
            for up in combinations(bottom, k):
                new_top = sorted(rest + list(up))
                if any(a == b for a, b in zip(new_top, new_top[1:])):
                    continue
                up_set = frozenset(up)
                new_bottom = sorted([x for x in bottom if x not in up_set]
                                    + list(down))
                if any(a == b for a, b in zip(new_bottom, new_bottom[1:])):
                    continue
                rows = (tuple(new_top), tuple(new_bottom))
                if rows in seen:
                    continue
                seen.add(rows)
                standard += all(t <= b for t, b in zip(*rows))
    return standard


def _tables(n: int) -> int:
    counts: dict[int, int] = {}
    width = 0
    for i in range(n):
        counts[i % 997] = counts.get(i % 997, 0) + i
        width += len(str(i))
    return width + len(counts)


def calibration() -> float:
    """Wall time in seconds of one round of the calibration loop."""
    t = clock()
    _search(tuple(range(2, 9)), tuple(range(1, 8)))
    _tables(20000)
    return clock() - t


def start_scale() -> float:
    """Factor that brings a program run started next to reference speed.
    One round of the calibration loop comes first, so that every probe
    starts from the same state of the host."""
    calibration()
    t = clock()
    # Captured output makes run() wait on the pipes; a bare wait(timeout)
    # polls at growing intervals and would read 64 or 114 ms.
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True,
                   check=True, timeout=60)
    return START_REFERENCE_S / (clock() - t)


class HostSpeed:
    """Calibrates between chunks of timed work.  ``scale()`` after a chunk
    gives the factor that brings its timings to reference speed, from the
    calibrations just before and just after it."""

    def __init__(self) -> None:
        self.last = calibration()
        self.scales: list[float] = []

    def raw_seconds(self, reference_s: float) -> float:
        """Wall seconds that ``reference_s`` reference seconds take now."""
        return reference_s * self.last / REFERENCE_S

    def scale(self) -> float:
        before, self.last = self.last, calibration()
        factor = REFERENCE_S / ((before + self.last) / 2)
        self.scales.append(factor)
        return factor

    def median_scale(self) -> float:
        return statistics.median(self.scales) if self.scales else 1.0


class Samples:
    """Item latencies in seconds, scaled to reference speed when a
    HostSpeed is given (otherwise as measured): once the unscaled items add
    up to CHUNK_S, the host is calibrated and they are scaled."""

    def __init__(self, speed: HostSpeed | None) -> None:
        self.speed = speed
        self.latencies: list[float] = []
        self.unscaled = 0  # trailing items not yet scaled
        self.unscaled_s = 0.0

    def add(self, seconds: float) -> None:
        self.latencies.append(seconds)
        self.unscaled += 1
        self.unscaled_s += seconds
        if self.unscaled_s >= CHUNK_S:
            self.flush()

    def flush(self) -> None:
        """Scale the trailing items now (at the end of the timed section,
        or where the caller needs the last latency scaled)."""
        if self.speed is not None and self.unscaled:
            factor = self.speed.scale()
            for i in range(len(self.latencies) - self.unscaled,
                           len(self.latencies)):
                self.latencies[i] *= factor
        self.unscaled, self.unscaled_s = 0, 0.0
