"""Load client: closed-loop queries against a running deployment.

Run as ``python perfbench/client.py SPEC.json`` with ``src`` and
``perfbench`` on ``PYTHONPATH`` (``harness.py`` does this).  One
process, one thread per client (at most two).  Each thread sends its
next query only after the previous answer arrived.  The timed phase of
``seconds`` runs in rounds of ``ROUND_S``: a client's query in flight
when its round ends still completes and counts, then every thread
waits while the host probe (``probe.py``) runs on the idle deployment,
and the next round starts.  The phase ends at the first boundary past
``seconds``, so every round lies between two probes.

Every answer is checked against the expected result the harness
computed in process; a wrong answer is a failed query, like a refusal,
a timeout or an error.  With ``trace`` set, the client also records
spans around the calls it makes -- ``client.query``, the router's
``plan``/``execute`` and per-shard ``fetch`` -- and, once the timed
phase is over, re-runs the public wire codec on a sample of the
received results to time encode and decode.

The records, the boundaries' probe times, spans and the process's
peak RSS go to ``out`` as JSON.
"""

from __future__ import annotations

import json
import pickle
import resource
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from typing import Dict, List, Optional

import numpy as np

from repro.frontend import protocol
from repro.frontend.protocol import DeadlineExceededError, ProtocolError
from repro.frontend.service import ADRClient, RemoteQueryError
from repro.runtime.engine import QueryResult
from repro.shard.router import (
    RouterPolicy,
    ShardEndpoint,
    ShardRouter,
    ShardUnavailableError,
)
from repro.shard.server import ShardClient
from probe import probe
from spans import Tracer

#: Seconds one query may take before it counts as timed out.
QUERY_DEADLINE_S = 30.0
#: Received results whose wire codec a traced run re-times.
CODEC_SAMPLE = 24
#: Seconds of load between two host probes.
ROUND_S = 2.0


def matches(result: QueryResult, ids: np.ndarray, values: np.ndarray, compare: str) -> bool:
    """Does *result* equal the expected in-process answer?  ``exact``
    is the repository's bit-identity check (``np.array_equal`` with
    NaN equal to NaN); ``close`` allows shard combine-order rounding."""
    if result.completeness != 1.0 or result.shard_errors or result.chunk_errors:
        return False
    if not np.array_equal(result.output_ids, ids):
        return False
    got = np.concatenate([np.asarray(v, dtype=float).ravel() for v in result.chunk_values])
    if got.shape != values.shape:
        return False
    if compare == "exact":
        return bool(np.array_equal(got, values, equal_nan=True))
    return bool(np.allclose(got, values, equal_nan=True))


def result_counters(result: QueryResult) -> dict:
    keys = ("chunk_hits", "chunk_misses", "routing_hits", "routing_misses")
    return {
        "phase": {k: float(v) for k, v in result.phase_times.items()},
        "cache": {k: int(result.cache_stats.get(k, 0)) for k in keys},
        "n_reads": int(result.n_reads),
        "bytes_read": int(result.bytes_read),
        "n_aggregations": int(result.n_aggregations),
        "n_combines": int(result.n_combines),
        "shared_reads": int(result.shared_reads),
        "chunks_pruned": int(result.chunks_pruned),
    }


def time_codec(tracer: Tracer, qid: int, results: List[QueryResult]) -> dict:
    """Re-run the public wire codec on the results one query received
    (one per shard through a router) under ``protocol.encode`` and
    ``protocol.decode`` spans; returns the summed times and sizes."""
    out = {"encode_s": 0.0, "decode_s": 0.0, "sizes": []}
    for result in results:
        with tracer.span("protocol.encode", qid=qid) as enc:
            data = json.dumps(protocol.result_to_dict(result)).encode("utf-8")
        with tracer.span("protocol.decode", qid=qid) as dec:
            protocol.result_from_dict(json.loads(data))
        out["encode_s"] += enc["end"] - enc["start"]
        out["decode_s"] += dec["end"] - dec["start"]
        out["sizes"].append(len(data))
    return out


class _TimedShardClient:
    """A shard client whose partial fetches record ``router.fetch``
    spans under the router's current ``execute`` span."""

    def __init__(self, inner: ShardClient, router: "TracedRouter") -> None:
        self.inner = inner
        self.router = router

    def query_partial(self, query, deadline=None):
        parent, qid = self.router.current
        with self.router.tracer.span("router.fetch", qid=qid, parent=parent):
            partial = self.inner.query_partial(query, deadline=deadline)
        with self.router.lock:
            self.router.partials.append(partial)
        return partial

    def close(self) -> None:
        self.inner.close()


class TracedRouter(ShardRouter):
    """ShardRouter recording ``router.execute`` and ``router.plan``
    spans, and keeping each query's partials for the codec re-run."""

    def __init__(self, tracer: Tracer, topology, endpoints, policy) -> None:
        def factory(address, timeout):
            host, port = address
            return _TimedShardClient(ShardClient(host, port, timeout=timeout), self)

        super().__init__(topology, endpoints, policy=policy, client_factory=factory)
        self.tracer = tracer
        self.lock = threading.Lock()
        self.partials: List[QueryResult] = []
        self.current = (None, None)

    def plan(self, query):
        with self.tracer.span("router.plan"):
            return super().plan(query)

    def execute(self, query):
        with self.tracer.span("router.execute") as span:
            self.current = (span["id"], span["qid"])
            with self.lock:
                self.partials = []
            return super().execute(query)


class Runner:
    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.trace = bool(spec["trace"])
        self.tracer = Tracer()
        self.queries = [protocol.query_from_dict(q) for q in spec["queries"]]
        with np.load(spec["expected"]) as exp:
            self.expected = [
                (exp[f"ids{i}"], exp[f"values{i}"]) for i in range(len(self.queries))
            ]
        self.router: Optional[ShardRouter] = None
        if spec["mode"] == "router":
            with open(spec["topology"], "rb") as fh:
                topology = pickle.load(fh)
            endpoints = [
                ShardEndpoint(sid, (host, port)) for sid, host, port in spec["endpoints"]
            ]
            policy = RouterPolicy(shard_deadline_s=QUERY_DEADLINE_S)
            if self.trace:
                self.router = TracedRouter(self.tracer, topology, endpoints, policy)
            else:
                self.router = ShardRouter(topology, endpoints, policy=policy)
        self.records: List[List[dict]] = [[] for _ in spec["schedules"]]
        self._qid_lock = threading.Lock()
        self._next_qid = 0
        #: traced runs: (record, results that crossed the wire)
        self._received: List[tuple] = []
        #: host probes between rounds: start, end, probe_s
        self.boundaries: List[dict] = []
        self._errors: List[Exception] = []
        self._barrier: Optional[threading.Barrier] = None
        self._stop_at = 0.0
        self._round_end: Optional[float] = None

    def _connect(self) -> Optional[ADRClient]:
        if self.router is not None:
            return None
        host, port = self.spec["address"]
        return ADRClient(host, port, timeout=QUERY_DEADLINE_S)

    def _new_qid(self) -> int:
        with self._qid_lock:
            self._next_qid += 1
            return self._next_qid

    def _send(self, client: Optional[ADRClient], idx: int):
        query = self.queries[idx]
        if self.router is not None:
            return self.router.execute(query), {}
        result, info = client.query_with_info(query, deadline=QUERY_DEADLINE_S)
        return result, info or {}

    def _boundary(self) -> None:
        """Between rounds, with every client thread waiting and so the
        deployment idle: probe the host, then end the phase or open
        the next round."""
        t0 = time.perf_counter()
        probe_s = probe()
        t1 = time.perf_counter()
        self.boundaries.append({"start": t0, "end": t1, "probe_s": probe_s})
        self._round_end = t1 + ROUND_S if t1 < self._stop_at else None

    def loop(self, ci: int) -> None:
        try:
            self._loop(ci)
        except Exception as e:  # reported by run(), after the other threads stop
            self._errors.append(e)
            self._barrier.abort()

    def _loop(self, ci: int) -> None:
        schedule = self.spec["schedules"][ci]
        records = self.records[ci]
        client = self._connect()
        pos = 0
        try:
            while True:
                self._barrier.wait(timeout=4 * QUERY_DEADLINE_S)
                rnd, round_end = len(self.boundaries) - 1, self._round_end
                if round_end is None:
                    return
                while time.perf_counter() < round_end:
                    idx = schedule[pos % len(schedule)]
                    pos += 1
                    record = self._one(client, ci, rnd, idx)
                    if record["status"] != "ok" and client is not None:
                        client.close()
                        client = self._connect()
                    records.append(record)
        finally:
            if client is not None:
                client.close()

    def _one(self, client: Optional[ADRClient], ci: int, rnd: int, idx: int) -> dict:
        """Send one query, wait for its answer and check it."""
        qid = self._new_qid()
        record: Dict[str, object] = {"client": ci, "round": rnd, "idx": idx, "qid": qid}
        result, info = None, {}
        t0 = time.perf_counter()
        try:
            span = (
                self.tracer.span("client.query", qid=qid)
                if self.trace else nullcontext()
            )
            with span:
                result, info = self._send(client, idx)
            status = "ok"
        except RemoteQueryError as e:
            status = "refused" if e.code == "overloaded" else "error"
            record["error"] = str(e)
        except DeadlineExceededError as e:
            status = "timeout"
            record["error"] = str(e)
        except (OSError, ProtocolError, ShardUnavailableError) as e:
            status = "error"
            record["error"] = f"{type(e).__name__}: {e}"
        except Exception:  # any other failure is one failed query
            status = "error"
            record["error"] = traceback.format_exc()
        t1 = time.perf_counter()
        if status == "ok" and not matches(result, *self.expected[idx], self.spec["compare"]):
            status = "wrong"
        record.update(start=t0, end=t1, latency_s=t1 - t0, status=status)
        if status == "ok":
            record.update(result_counters(result))
            record["service"] = {
                k: info[k] for k in ("queue_wait_s", "batch_size") if k in info
            }
            if self.trace:
                self._received.append((record, self._wire_results(result)))
        return record

    def _wire_results(self, result: QueryResult) -> List[QueryResult]:
        """What crossed the wire for one query: the result itself, or
        the shard partials the router merged."""
        if isinstance(self.router, TracedRouter):
            with self.router.lock:
                return list(self.router.partials)
        return [result]

    def _time_codec_sample(self) -> None:
        """After the timed phase (so the re-run cannot change the load
        the server sees), time the codec on an evenly spaced sample of
        the received results."""
        step = max(1, len(self._received) // CODEC_SAMPLE)
        for record, results in self._received[::step]:
            record["codec"] = time_codec(self.tracer, record["qid"], results)
        self._received = []

    def run(self) -> dict:
        probe()  # warm the probe's code and data before the first boundary
        self._stop_at = time.perf_counter() + float(self.spec["seconds"])
        threads = [
            threading.Thread(target=self.loop, args=(ci,))
            for ci in range(len(self.spec["schedules"]))
        ]
        self._barrier = threading.Barrier(len(threads), action=self._boundary)
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if self._errors:
            # The first failure breaks the barrier for the other threads.
            first = next(
                (e for e in self._errors if not isinstance(e, threading.BrokenBarrierError)),
                self._errors[0],
            )
            raise RuntimeError("a client thread failed") from first
        if self.trace:
            self._time_codec_sample()
        return {
            "boundaries": self.boundaries,
            "records": [r for per_client in self.records for r in per_client],
            "spans": self.tracer.spans(),
            "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }


def main(argv: List[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    out = Runner(spec).run()
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
