"""Host-speed probe: how fast this machine runs right now.

The benchmark runs on a few cores of a shared host, whose speed drifts
by tens of percent over minutes as other tenants come and go.  The
probe times a fixed piece of work of the kinds a query spends its time
on -- interpreted Python, the JSON codec, a numpy scatter-add.  The
harness multiplies every time it reports by :data:`REFERENCE_S` over
the probe time measured around it, so times read as on the reference
machine, and a slow moment of the host does not read as a slow
program.  The raw figures are reported too, as the per-layer metrics
``host.probe_ms`` and ``client.raw_latency_p50_ms``.
"""

from __future__ import annotations

import json
import time

import numpy as np

#: Seconds :func:`probe` reads on the reference machine: a quiet
#: 2-vCPU Intel Xeon VM (2.1 GHz), Python 3 with numpy.
REFERENCE_S = 0.0023
#: Runs of the work per probe, back to back: about 28 ms in all, long
#: against a scheduler time slice, so a probe sees the share of a CPU
#: the host gives now rather than one lucky slice.
REPS = 12

_rng = np.random.default_rng(0)
_FLOATS = _rng.uniform(0.0, 100.0, size=1500).tolist()
_CELLS = _rng.integers(0, 4096, size=600_000)
_WEIGHTS = _rng.uniform(0.0, 1.0, size=600_000)


def _work() -> float:
    """The fixed work: about a third each of Python, JSON and numpy."""
    acc, table = 0, {}
    for i in range(10_000):
        key = i % 97
        table[key] = table.get(key, 0) + i
        acc += i * key
    decoded = json.loads(json.dumps({"values": _FLOATS}))
    sums = np.bincount(_CELLS, weights=_WEIGHTS, minlength=4096)
    return acc + len(decoded["values"]) + float(sums[0])


def probe() -> float:
    """Seconds one run of the probe work takes now: the mean of
    :data:`REPS` back-to-back runs."""
    t0 = time.perf_counter()
    for _ in range(REPS):
        _work()
    return (time.perf_counter() - t0) / REPS


if __name__ == "__main__":
    probe()
    print(f"probe: {probe() * 1e3:.3f} ms (reference {REFERENCE_S * 1e3:.3f} ms)")
