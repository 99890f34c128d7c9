"""Self-tests of the harness's own math.

Every benchmark run calls :func:`run_selftests` first, so a broken
percentile or span computation fails the run instead of reporting
wrong numbers.  Standalone::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys

from spans import (
    STATUSES,
    at_reference_speed,
    failed_fraction,
    fetch_skew,
    latencies_with_failures,
    percentile,
    round_lengths,
    round_scales,
    router_merge_s,
    samples_beyond,
    self_times,
)


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(f"harness self-test failed: {what}")


def _close(a: float, b: float) -> bool:
    return abs(a - b) < 1e-9


def test_tail_percentile() -> None:
    sample = [float(v) for v in range(1, 101)]
    _check(percentile(sample, 50) == 50.0, "p50 of 1..100 is 50")
    _check(percentile(sample, 90) == 90.0, "p90 of 1..100 is 90")
    _check(samples_beyond(100, 90) == 10, "100 samples leave 10 beyond p90")
    _check(samples_beyond(99, 90) < 10, "99 samples leave fewer than 10 beyond p90")
    _check(percentile([7.0], 90) == 7.0, "p90 of one sample is that sample")
    _check(percentile(list(reversed(sample)), 90) == 90.0, "percentile sorts its input")


def test_self_time_overlapping_children() -> None:
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        # two overlapping children cover [2, 7]; a third [6, 8]: union [2, 8]
        {"id": 2, "parent": 1, "start": 2.0, "end": 5.0},
        {"id": 3, "parent": 1, "start": 3.0, "end": 7.0},
        {"id": 4, "parent": 1, "start": 6.0, "end": 8.0},
        # a child outliving its parent counts only inside the parent
        {"id": 5, "parent": 2, "start": 4.0, "end": 9.0},
    ]
    st = self_times(spans)
    _check(_close(st[1], 4.0), "parent self time excludes the union of its children")
    _check(_close(st[2], 2.0), "child self time clips its own child to its interval")
    _check(_close(st[3], 4.0) and _close(st[5], 5.0), "leaves keep their duration")


def test_failed_fraction() -> None:
    _check(failed_fraction(["ok"] * 4) == 0.0, "all ok is no failure")
    statuses = ["ok", "refused", "timeout", "wrong", "error", "ok", "ok", "ok"]
    _check(_close(failed_fraction(statuses), 4 / 8),
           "refusal, timeout, wrong answer and error each count as failed")
    _check(set(STATUSES) == {"ok", "refused", "timeout", "wrong", "error"}, "status set")
    records = [
        {"status": "ok", "latency_s": 0.1},
        {"status": "timeout", "latency_s": 0.2},
    ]
    _check(latencies_with_failures(records, 9.0) == [0.1, 9.0],
           "a failed query misses every latency limit")
    try:
        failed_fraction(["ok", "lost"])
    except ValueError:
        pass
    else:
        raise AssertionError("harness self-test failed: unknown statuses are rejected")


def test_router_merge() -> None:
    _check(_close(router_merge_s(10.0, 1.0, [3.0, 6.0, 4.0]), 3.0),
           "merge is execute minus plan minus the slowest fetch")
    _check(_close(fetch_skew([3.0, 6.0, 4.0]), 6.0 / (13.0 / 3)), "skew is max over mean")
    _check(_close(fetch_skew([2.0, 2.0]), 1.0), "balanced fetches have skew 1")


def test_reference_speed() -> None:
    bounds = [
        {"start": 0.0, "end": 0.1, "probe_s": 0.004},
        {"start": 1.1, "end": 1.2, "probe_s": 0.004},
        # the host slows to half speed during the second round
        {"start": 2.2, "end": 2.3, "probe_s": 0.012},
    ]
    _check(all(_close(a, b) for a, b in zip(round_lengths(bounds), [1.0, 1.0])),
           "a round runs from one probe's end to the next one's start")
    scales = round_scales(bounds, 0.004)
    _check(_close(scales[0], 1.0), "at reference speed a time is unchanged")
    _check(_close(scales[1], 0.5), "a round takes the mean of the probes around it")
    records = [{"round": 1, "latency_s": 0.3, "status": "ok"}]
    _check(_close(at_reference_speed(records, scales)[0]["latency_s"], 0.15),
           "a latency measured at half speed reads half as long")
    _check(records[0]["latency_s"] == 0.3, "scaling leaves the raw records alone")


def run_selftests() -> None:
    test_tail_percentile()
    test_self_time_overlapping_children()
    test_failed_fraction()
    test_router_merge()
    test_reference_speed()


if __name__ == "__main__":
    run_selftests()
    print("harness self-tests passed")
    sys.exit(0)
