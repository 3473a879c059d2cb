"""A fixed calibration task that gauges how fast the machine runs right now.

On a shared host the same op can take 50% longer for minutes at a time while
neighbours load the cores and caches.  The harness times :func:`calibrate`
between ops and scales each op's CPU time by how slow the calibration ran
around it, so the end-to-end timings read as CPU seconds on a machine
running at :data:`NOMINAL_S` per calibration.

The task mixes the kinds of work the ops do -- splitting CSV text, float
parsing, building Python objects, vectorised numpy arithmetic and JSON
encoding -- and shares no code with mbstat, so a change to the program never
moves it.
"""

from __future__ import annotations

import json
import random
import time

import numpy as np

# About the fastest CPU time of calibrate() on a 2-vCPU Intel Xeon VM with
# Python 3.11 and numpy 2.4.  It only sets the scale of the reported timings.
NOMINAL_S = 0.09

# Working sets larger than a core's private caches, as the ops' are: the slow
# phases come from neighbours contending for the shared cache and memory, and
# a task that fits in cache under-reads them.
_ROWS = 60_000
_ARRAY_LEN = 1_000_000


def _inputs() -> tuple[str, np.ndarray]:
    rng = random.Random(5)
    text = "\n".join(f"{1000 + i},{rng.random() * 100:.6f},{rng.random() * 10:.4f}"
                     for i in range(_ROWS))
    return text, np.random.default_rng(1).random(_ARRAY_LEN)


_TEXT, _ARRAY = _inputs()


def calibrate() -> float:
    """CPU seconds this process spends on the fixed calibration task."""
    start = time.process_time()
    lines = _TEXT.split("\n")
    times = np.empty(len(lines), dtype=np.int64)
    prices = np.empty(len(lines))
    volumes = np.empty(len(lines))
    for i, line in enumerate(lines):
        t, price, volume = line.split(",")
        times[i], prices[i], volumes[i] = int(t), float(price), float(volume)
    x = _ARRAY.copy()
    for _ in range(6):
        x = np.sqrt(x * x + 1.0)
        np.cumsum(x)
    json.dumps([[float(prices[i]), float(volumes[i])] for i in range(0, len(lines), 4)])
    return time.process_time() - start
