"""Span recording and the statistics the benchmark reports.

A :class:`Tracer` keeps spans in memory -- name, start, end, parent
span, query id and counters -- and hands them out as plain dicts when
the process ends.  Times come from ``time.perf_counter``, which reads
the system-wide monotonic clock on Linux, so spans recorded by the
server processes can be windowed against the client's timed phase.

The pure functions below (percentiles, self time, failure fraction,
router merge time) are the harness's own math; ``selftest.py`` checks
each of them.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Outcomes of one attempted query; every one but ``ok`` is a failure.
STATUSES = ("ok", "refused", "timeout", "wrong", "error")


class Tracer:
    """In-memory span recorder, safe to share between threads.

    A span opened on a thread becomes the parent of spans opened later
    on the same thread until it ends; spans on other threads (a
    router's fetch threads) name their parent explicitly.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._spans: List[dict] = []

    def _stack(self) -> List[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(
        self, name: str, qid: Optional[int] = None, parent: Optional[int] = None
    ) -> Iterator[dict]:
        """Time the ``with`` body as one span; the yielded dict's
        ``counters`` may be filled inside the body."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]["id"]
        if qid is None and stack:
            qid = stack[-1]["qid"]
        record = {
            "id": next(self._ids), "name": name, "qid": qid, "parent": parent,
            "start": 0.0, "end": 0.0, "counters": {},
        }
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self._spans.append(record)

    def spans(self) -> List[dict]:
        with self._lock:
            return list(self._spans)


# -- span math ------------------------------------------------------------


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[dict]) -> Dict[int, float]:
    """Span id -> self time: its duration minus the part of it that
    its children cover (overlapping children count once)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        clipped = [
            (max(lo, s["start"]), min(hi, s["end"]))
            for lo, hi in children.get(s["id"], [])
            if hi > s["start"] and lo < s["end"]
        ]
        out[s["id"]] = duration(s) - union_length(clipped)
    return out


def in_window(spans: Iterable[dict], lo: float, hi: float) -> List[dict]:
    """Spans that started and ended inside ``[lo, hi]``."""
    return [s for s in spans if s["start"] >= lo and s["end"] <= hi]


def router_merge_s(execute_s: float, plan_s: float, fetch_s: Sequence[float]) -> float:
    """Router time outside planning and the blocking fetch: a routed
    query waits for its slowest shard, so the rest of ``execute`` is
    scatter set-up, gather and the global combine."""
    return execute_s - plan_s - (max(fetch_s) if fetch_s else 0.0)


def fetch_skew(fetch_s: Sequence[float]) -> float:
    """Slowest shard fetch over the mean fetch (1.0 when balanced)."""
    mean = sum(fetch_s) / len(fetch_s)
    return max(fetch_s) / mean if mean > 0 else 1.0


# -- end-to-end statistics ----------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``q`` percent of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples lie above the nearest-rank *q*-th
    percentile -- a tail figure needs at least ten to mean anything."""
    return n - max(1, math.ceil(q / 100.0 * n))


def failed_fraction(statuses: Sequence[str]) -> float:
    """Failed, refused, timed-out and wrong answers over attempts."""
    if not statuses:
        raise ValueError("no attempted queries")
    unknown = set(statuses) - set(STATUSES)
    if unknown:
        raise ValueError(f"unknown query status {sorted(unknown)}")
    return sum(1 for s in statuses if s != "ok") / len(statuses)


def round_lengths(boundaries: Sequence[dict]) -> List[float]:
    """Seconds of load in each round: from the end of the probe before
    it to the start of the probe after it."""
    return [b["start"] - a["end"] for a, b in zip(boundaries, boundaries[1:])]


def round_scales(boundaries: Sequence[dict], reference_s: float) -> List[float]:
    """Per round, the factor that turns a time measured in it into
    one at reference speed: the reference probe time over the mean of
    the two probes around the round."""
    return [
        2.0 * reference_s / (a["probe_s"] + b["probe_s"])
        for a, b in zip(boundaries, boundaries[1:])
    ]


def at_reference_speed(records: Sequence[dict], scales: Sequence[float]) -> List[dict]:
    """The records with each latency scaled by its round's factor."""
    return [{**r, "latency_s": r["latency_s"] * scales[r["round"]]} for r in records]


def latencies_with_failures(records: Sequence[dict], phase_s: float) -> List[float]:
    """Latency sample in which a failed query counts as missing every
    limit: it takes the whole timed phase."""
    return [r["latency_s"] if r["status"] == "ok" else phase_s for r in records]
