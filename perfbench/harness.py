"""End-to-end, per-layer query benchmark (see ``README.md``).

One invocation runs one workload:

1. generate the workload's items and queries from ``--seed``;
2. answer every distinct query in process (``ADR.execute``) and check
   a sample against the serial Figure-1 oracle;
3. start the deployment ``SETUP_REPS`` times -- server processes from
   raw items to ``READY`` -- and keep the last one serving;
4. correctness gate: every distinct query over the wire must match the
   in-process answer (bit-identical, or allclose through shards);
5. a closed-loop client process runs for ``--seconds``, in rounds
   between host-speed probes (``probe.py``) that put every time at
   reference speed;
6. with ``--trace 1``, a second deployment with timing wrappers repeats
   4-5 and the spans give the per-layer metrics.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics untraced, the
per-layer metrics traced.  A failed gate prints ``correct: false`` and
exits 1.  Every server process is stopped on success, failure and
Ctrl-C; all temporary files live under ``.perfbench_tmp`` in the
working directory and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import queue
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import ExitStack
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from client import matches
from repro.dataset.chunkset import ChunkSet
from repro.dataset.partition import hilbert_partition
from repro.frontend.adr import ADR
from repro.frontend.protocol import query_to_dict
from repro.frontend.service import ADRClient
from repro.machine.presets import ibm_sp
from repro.runtime.phases import PHASES
from repro.runtime.serial import execute_serial
from repro.shard.router import RouterPolicy, ShardEndpoint, ShardRouter
from repro.shard.topology import ShardTopology, shard_chunks
from repro.util.units import MB
from probe import REFERENCE_S, probe
from selftest import run_selftests
from spans import (
    at_reference_speed,
    duration,
    failed_fraction,
    fetch_skew,
    in_window,
    latencies_with_failures,
    percentile,
    round_lengths,
    round_scales,
    router_merge_s,
    samples_beyond,
    self_times,
)
from workloads import Workload, build

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

#: Deployments started per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Seconds a host may take from spawn to ``READY`` or to exit.
HOST_TIMEOUT_S = 60.0
#: Set-up figures that are times, and so scale with host speed.
SETUP_TIMES = ("setup_s", "partition_s", "load_s", "server_start_s")


class GateFailure(AssertionError):
    """A served answer differs from the in-process one."""


def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _by_name(spans: List[dict]) -> Dict[str, List[dict]]:
    out: Dict[str, List[dict]] = {}
    for s in spans:
        out.setdefault(s["name"], []).append(s)
    return out


# -- processes --------------------------------------------------------------


class Host:
    """One ``host.py`` server process; lines of its stdout arrive on
    a queue so every wait on it has a timeout."""

    def __init__(self, spec: dict, path: Path, env: Dict[str, str]) -> None:
        path.write_text(json.dumps(spec), encoding="utf-8")
        self._stderr = open(path.with_suffix(".err"), "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "host.py"), str(path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr,
            text=True, env=env,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        self.port: Optional[int] = None

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.strip())
        self._lines.put(None)

    def _expect(self, prefix: str, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError(f"server host gave no {prefix!r} in {timeout}s") from None
            if line is None:
                tail = Path(self._stderr.name).read_text(encoding="utf-8")[-2000:]
                raise RuntimeError(f"server host exited before {prefix!r}:\n{tail}")
            if line.startswith(prefix):
                return line[len(prefix):].strip()

    def wait_ready(self) -> None:
        self.port = int(self._expect("PORT", HOST_TIMEOUT_S))
        self._expect("READY", HOST_TIMEOUT_S)

    def read_setup(self) -> dict:
        return json.loads(self._expect("SETUP", HOST_TIMEOUT_S))

    def stop(self) -> dict:
        """Close stdin (the host's shutdown signal) and collect its
        ``DONE`` report."""
        self.proc.stdin.close()
        done = json.loads(self._expect("DONE", HOST_TIMEOUT_S))
        self.proc.wait(timeout=HOST_TIMEOUT_S)
        self._reader.join(timeout=HOST_TIMEOUT_S)
        return done

    def kill(self) -> None:
        """Make sure the process is gone (idempotent)."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        self._reader.join(timeout=10)
        self.proc.stdout.close()
        self._stderr.close()


class Deployment:
    """The serving side of one workload: one ``ADRServer`` host, or
    ``n_shards`` shard hosts plus the topology the router needs."""

    def __init__(self, wl: Workload, tmp: Path, env, tag: str, trace: bool) -> None:
        self.wl = wl
        self.tmp = tmp
        self.env = env
        self.tag = tag
        self.trace = trace
        self.hosts: List[Host] = []
        self.topology_path = tmp / f"topology-{tag}.pickle"
        self._client: Optional[ADRClient] = None
        self._router: Optional[ShardRouter] = None

    def _spec(self, i: int) -> dict:
        wl = self.wl
        return {
            "mode": "adr",
            "dataset": wl.dataset,
            "space": {
                "name": wl.space.name,
                "dims": [d.name for d in wl.space.dims],
                "lo": [d.lo for d in wl.space.dims],
                "hi": [d.hi for d in wl.space.dims],
            },
            "items": str(self.tmp / "items.npz"),
            "items_per_chunk": wl.items_per_chunk,
            "n_procs": wl.n_procs,
            "store": wl.store,
            "store_dir": str(self.tmp / f"store-{self.tag}-{i}"),
            "cache_bytes": wl.cache_bytes,
            "trace_out": str(self.tmp / f"spans-{self.tag}-{i}.json") if self.trace else None,
        }

    def start(self) -> dict:
        """Bring the deployment up; returns the set-up measurements."""
        wl = self.wl
        t0 = time.perf_counter()
        partition_s = 0.0
        if wl.n_shards == 0:
            self.hosts.append(Host(self._spec(0), self.tmp / f"host-{self.tag}-0.json", self.env))
        else:
            chunks = hilbert_partition(wl.coords, wl.values, wl.items_per_chunk)
            partition_s = time.perf_counter() - t0
            topology = ShardTopology.build(wl.dataset, wl.space, chunks, wl.n_shards)
            with open(self.topology_path, "wb") as fh:
                pickle.dump(topology, fh)
            for sid in range(wl.n_shards):
                spec = self._spec(sid)
                spec.update(mode="shard", shard_id=sid,
                            payload=str(self.tmp / f"shard-{self.tag}-{sid}.pickle"))
                with open(spec["payload"], "wb") as fh:
                    pickle.dump(shard_chunks(chunks, topology.assignment, sid), fh)
                self.hosts.append(
                    Host(spec, self.tmp / f"host-{self.tag}-{sid}.json", self.env)
                )
        for host in self.hosts:
            host.wait_ready()
        setup_s = time.perf_counter() - t0
        reports = [host.read_setup() for host in self.hosts]
        partition_s += max(r["partition_s"] for r in reports)
        load_s = max(r["load_s"] for r in reports)
        return {
            "setup_s": setup_s,
            "partition_s": partition_s,
            "load_s": load_s,
            "server_start_s": setup_s - partition_s - load_s,
            "stored_bytes_ratio": sum(r["stored_bytes"] for r in reports) / wl.raw_bytes,
        }

    def client_spec(self) -> dict:
        if self.wl.n_shards == 0:
            return {"mode": "adr", "address": ["127.0.0.1", self.hosts[0].port]}
        return {
            "mode": "router",
            "topology": str(self.topology_path),
            "endpoints": [
                [sid, "127.0.0.1", host.port] for sid, host in enumerate(self.hosts)
            ],
        }

    def query(self, query):
        """One query through the deployment's front door (gate, warm-up)."""
        if self.wl.n_shards == 0:
            if self._client is None:
                self._client = ADRClient("127.0.0.1", self.hosts[0].port, timeout=60.0)
            return self._client.query(query, deadline=60.0)
        if self._router is None:
            with open(self.topology_path, "rb") as fh:
                topology = pickle.load(fh)
            self._router = ShardRouter(
                topology,
                [ShardEndpoint(sid, ("127.0.0.1", h.port)) for sid, h in enumerate(self.hosts)],
                policy=RouterPolicy(shard_deadline_s=60.0),
            )
        return self._router.execute(query)

    def stop(self) -> dict:
        """Stop every host; returns their summed peak RSS and spans."""
        if self._client is not None:
            self._client.close()
            self._client = None
        maxrss_kib = 0
        spans: List[dict] = []
        try:
            for host in self.hosts:
                maxrss_kib += host.stop()["maxrss_kib"]
            if self.trace:
                for i in range(len(self.hosts)):
                    path = self.tmp / f"spans-{self.tag}-{i}.json"
                    spans.extend(json.loads(path.read_text(encoding="utf-8")))
        finally:
            self.close()
        return {"maxrss_kib": maxrss_kib, "spans": spans}

    def close(self) -> None:
        for host in self.hosts:
            host.kill()
        self.hosts = []


def start_at_reference_speed(dep: Deployment) -> dict:
    """Start *dep* between two host probes; returns its set-up figures
    with the times at reference speed, and the raw ``raw_setup_s``."""
    before = probe()
    setup = dep.start()
    scale = 2.0 * REFERENCE_S / (before + probe())
    out = {k: v * scale if k in SETUP_TIMES else v for k, v in setup.items()}
    out["raw_setup_s"] = setup["setup_s"]
    return out


# -- correctness ------------------------------------------------------------


def in_process_answers(wl: Workload):
    """Every distinct query answered by an in-process ADR over the same
    items, plus a sample checked against the serial oracle."""
    chunks = hilbert_partition(wl.coords, wl.values, wl.items_per_chunk)
    adr = ADR(machine=ibm_sp(wl.n_procs))
    adr.load(wl.dataset, wl.space, chunks)
    answers = [adr.execute(q) for q in wl.queries]
    metas = ChunkSet.from_metas([c.meta for c in chunks])
    with_where = [i for i, q in enumerate(wl.queries) if q.where is not None]
    for i in sorted({0, *with_where[:1]}):  # one plain, one where= query
        q, got = wl.queries[i], answers[i]
        # Chunks picked by a brute-force MBR test, not by the index.
        touched = [chunks[int(c)] for c in metas.intersecting(q.region)]
        oracle = execute_serial(
            touched, q.mapping, q.grid, q.spec(), output_ids=got.output_ids,
            region=q.region, predicate=q.predicate(),
        )
        for o, values in zip(got.output_ids, got.chunk_values):
            if not np.allclose(values, oracle[int(o)], equal_nan=True):
                raise GateFailure(
                    f"query {i}: in-process output chunk {int(o)} differs from "
                    "the serial oracle"
                )
    return answers


def gate(dep: Deployment, wl: Workload, answers) -> None:
    """Every distinct query over the wire must match the in-process
    answer; through shards the pruning counts must match too."""
    for i, (q, want) in enumerate(zip(wl.queries, answers)):
        got = dep.query(q)
        values = np.concatenate([np.asarray(v, dtype=float).ravel() for v in want.chunk_values])
        if not matches(got, want.output_ids, values, wl.compare):
            raise GateFailure(f"{wl.name} query {i}: served answer differs from ADR.execute")
        if got.chunks_pruned != want.chunks_pruned:
            raise GateFailure(f"{wl.name} query {i}: pruning differs from ADR.execute")


# -- measurement ------------------------------------------------------------


def run_client(dep: Deployment, wl: Workload, tmp: Path, env, seconds: float,
               trace: bool) -> dict:
    tag = f"{dep.tag}-client"
    spec = dep.client_spec()
    spec.update(
        queries=[query_to_dict(q) for q in wl.queries],
        schedules=wl.schedules,
        expected=str(tmp / "expected.npz"),
        compare=wl.compare,
        seconds=seconds,
        trace=trace,
        out=str(tmp / f"{tag}.out.json"),
    )
    path = tmp / f"{tag}.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    with open(tmp / f"{tag}.err", "w", encoding="utf-8") as err:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "client.py"), str(path)],
            stdout=subprocess.DEVNULL, stderr=err, env=env,
        )
        try:
            code = proc.wait(timeout=seconds + 150)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
    if code != 0:
        tail = Path(err.name).read_text(encoding="utf-8")[-2000:]
        raise RuntimeError(f"load client exited {code}:\n{tail}")
    return json.loads(Path(spec["out"]).read_text(encoding="utf-8"))


def scaled(out: dict):
    """The run's records with latencies at reference speed, and its
    load seconds at reference speed."""
    bounds = out["boundaries"]
    scales = round_scales(bounds, REFERENCE_S)
    load_s = sum(n * k for n, k in zip(round_lengths(bounds), scales))
    return at_reference_speed(out["records"], scales), load_s


def end_to_end(out: dict, setups: List[dict], server_maxrss_kib: int) -> dict:
    records, load_s = scaled(out)
    lat_ms = [x * 1e3 for x in latencies_with_failures(records, load_s)]
    ok = sum(1 for r in records if r["status"] == "ok")
    return {
        "latency_p50_ms": (percentile(lat_ms, 50), "ms"),
        "latency_p90_ms": (percentile(lat_ms, 90), "ms"),
        "throughput_qps": (ok / load_s, "queries/s"),
        "success_frac": (1.0 - failed_fraction([r["status"] for r in records]), "fraction"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": ((server_maxrss_kib + out["maxrss_kib"]) / 1024.0, "MiB"),
    }


def per_layer(out: dict, server_spans: List[dict], setups: List[dict],
              untraced: dict) -> dict:
    """Per-query layer figures from a traced run (see README.md);
    *untraced* holds the untraced run's output and its scaled p50."""
    ok = [r for r in out["records"] if r["status"] == "ok"]
    lat_ms = _mean(r["latency_s"] for r in ok) * 1e3
    cspans = _by_name(out["spans"])
    codec = [r["codec"] for r in ok if "codec" in r]
    encode_ms = _mean(c["encode_s"] for c in codec) * 1e3
    decode_ms = _mean(c["decode_s"] for c in codec) * 1e3
    m: Dict[str, tuple] = {}

    m["protocol.response_bytes"] = (_mean(sum(c["sizes"]) for c in codec), "bytes")
    m["protocol.encode_ms"] = (encode_ms, "ms")
    m["protocol.decode_ms"] = (decode_ms, "ms")
    m["protocol.wire_share"] = (_ratio(encode_ms + decode_ms, lat_ms), "fraction")

    service = [r["service"] for r in ok if r.get("service")]
    queue_ms = _mean(s["queue_wait_s"] for s in service) * 1e3
    m["queryservice.queue_wait_ms"] = (queue_ms, "ms")
    m["queryservice.batch_size_mean"] = (_mean(s["batch_size"] for s in service), "count")
    m["queryservice.shared_read_frac"] = (
        _ratio(sum(r["shared_reads"] for r in ok), sum(r["n_reads"] for r in ok)), "fraction")

    bounds = out["boundaries"]
    window = in_window(server_spans, bounds[0]["end"], bounds[-1]["start"])
    sspans = _by_name(window)
    selfs = self_times(window)
    index = sspans.get("index.query", [])
    problems = sspans.get("adr.build_problem", [])
    plans = sspans.get("adr.plan", [])
    executes = sspans.get("adr.execute", [])
    reads = sspans.get("store.read", [])
    n_exec = max(1, len(executes))
    problem_of = {s["parent"]: s for s in problems}
    candidates = sum(s["counters"]["candidates"] for s in index)
    m["index.query_ms"] = (_mean(map(duration, index)) * 1e3, "ms")
    m["index.candidates_per_query"] = (_mean(s["counters"]["candidates"] for s in index), "count")
    m["planner.problem_ms"] = (_mean(selfs[s["id"]] for s in problems) * 1e3, "ms")
    m["planner.select_ms"] = (_mean(
        duration(p) - duration(problem_of[p["id"]]) for p in plans if p["id"] in problem_of
    ) * 1e3, "ms")
    m["planner.pruned_frac"] = (
        _ratio(sum(s["counters"]["pruned"] for s in problems), candidates), "fraction")

    for phase in PHASES:
        m[f"runtime.{phase}_ms"] = (_mean(r["phase"].get(phase, 0.0) for r in ok) * 1e3, "ms")
    m["runtime.reduce_mb_per_s"] = (_ratio(
        sum(r["bytes_read"] for r in ok) / MB, sum(r["phase"].get("reduce", 0.0) for r in ok)
    ), "MB/s")
    m["runtime.aggregations"] = (_mean(r["n_aggregations"] for r in ok), "count")
    m["runtime.combines"] = (_mean(r["n_combines"] for r in ok), "count")

    read_s = sum(map(duration, reads))
    m["store.reads"] = (len(reads) / n_exec, "count")
    m["store.read_ms"] = (read_s * 1e3 / n_exec, "ms")
    m["store.read_mb_per_s"] = (
        _ratio(sum(s["counters"]["bytes"] for s in reads) / MB, read_s), "MB/s")

    def cache_frac(prefix: str) -> float:
        hits = sum(r["cache"][f"{prefix}_hits"] for r in ok)
        return _ratio(hits, hits + sum(r["cache"][f"{prefix}_misses"] for r in ok))

    m["store.cache_hit_frac"] = (cache_frac("chunk"), "fraction")
    m["store.routing_hit_frac"] = (cache_frac("routing"), "fraction")

    routed_all = cspans.get("router.execute", [])
    fetches: Dict[int, List[float]] = {}
    for s in cspans.get("router.fetch", []):
        fetches.setdefault(s["parent"], []).append(duration(s))
    plan_of = {s["parent"]: duration(s) for s in cspans.get("router.plan", [])}
    routed = [e for e in routed_all if e["id"] in fetches and e["id"] in plan_of]
    all_fetch = [d for ds in fetches.values() for d in ds]
    m["router.plan_ms"] = (_mean(plan_of.values()) * 1e3, "ms")
    m["router.fetch_ms"] = (_mean(all_fetch) * 1e3, "ms")
    m["router.fetch_skew"] = (_mean(fetch_skew(fetches[e["id"]]) for e in routed), "ratio")
    m["router.merge_ms"] = (_mean(
        router_merge_s(duration(e), plan_of[e["id"]], fetches[e["id"]]) for e in routed
    ) * 1e3, "ms")
    m["router.partial_bytes"] = (
        _mean(b for c in codec for b in c["sizes"]) if routed_all else 0.0, "bytes")

    for key, unit in (("partition_s", "s"), ("load_s", "s"), ("server_start_s", "s"),
                      ("stored_bytes_ratio", "ratio")):
        m[f"setup.{key}"] = (statistics.median(s[key] for s in setups), unit)

    untraced_p50_ms = untraced["latency_p50_ms"]
    traced_ok = [r for r in scaled(out)[0] if r["status"] == "ok"]
    traced_p50 = percentile([r["latency_s"] * 1e3 for r in traced_ok], 50) if ok else 0.0
    m["trace.overhead_frac"] = (_ratio(traced_p50 - untraced_p50_ms, untraced_p50_ms),
                                "fraction")
    # Blocking steps of one query: queue wait, planning, execution and
    # the codec on a server; plan, slowest fetch and merge on a router.
    if routed_all:
        blocking_ms = _mean(map(duration, routed_all)) * 1e3
    else:
        blocking_ms = (queue_ms + _mean(map(duration, plans)) * 1e3
                       + _mean(map(duration, executes)) * 1e3 + encode_ms + decode_ms)
    m["client.unaccounted_ms"] = (lat_ms - blocking_ms, "ms")
    raw = untraced["out"]
    untraced_n = len(raw["records"])
    m["client.samples"] = (untraced_n, "count")
    m["client.tail_samples"] = (samples_beyond(untraced_n, 90), "count")
    m["client.raw_latency_p50_ms"] = (percentile(
        [x * 1e3 for x in latencies_with_failures(raw["records"], sum(round_lengths(
            raw["boundaries"])))], 50), "ms")
    m["host.probe_ms"] = (
        statistics.median(b["probe_s"] for b in raw["boundaries"]) * 1e3, "ms")
    return m


# -- one run --------------------------------------------------------------------


def _write_inputs(wl: Workload, tmp: Path, answers) -> None:
    np.savez(tmp / "items.npz", coords=wl.coords, values=wl.values)
    expected = {}
    for i, a in enumerate(answers):
        expected[f"ids{i}"] = np.asarray(a.output_ids)
        expected[f"values{i}"] = np.concatenate(
            [np.asarray(v, dtype=float).ravel() for v in a.chunk_values]
        )
    np.savez(tmp / "expected.npz", **expected)


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    t_start = time.perf_counter()

    def stage(what: str) -> None:
        print(f"[{time.perf_counter() - t_start:6.1f}s] {what}", flush=True)

    run_selftests()
    wl = build(name, seed)
    stage(f"workload {wl.name} seed {seed}: {wl.summary}")
    workdir.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC_DIR), str(BENCH_DIR)])
    with ExitStack() as stack:
        tmp = Path(stack.enter_context(tempfile.TemporaryDirectory(dir=workdir)))
        env["TMPDIR"] = str(tmp)
        answers = in_process_answers(wl)
        _write_inputs(wl, tmp, answers)
        stage("in-process answers checked against the serial oracle")

        setups, dep = [], None
        for rep in range(SETUP_REPS):
            dep = Deployment(wl, tmp, env, f"run{rep}", trace=False)
            stack.callback(dep.close)
            setups.append(start_at_reference_speed(dep))
            stage(f"deployment {rep} ready in {setups[-1]['raw_setup_s']:.3f}s "
                  f"({setups[-1]['setup_s']:.3f}s at reference speed)")
            if rep < SETUP_REPS - 1:
                dep.stop()
        gate(dep, wl, answers)
        stage(f"gate passed: {len(wl.queries)} distinct queries match")
        out = run_client(dep, wl, tmp, env, seconds, trace=False)
        server_rss = dep.stop()["maxrss_kib"]
        e2e = end_to_end(out, setups, server_rss)
        records = out["records"]
        n_ok = sum(1 for r in records if r["status"] == "ok")
        stage(
            f"untraced: {len(records)} queries, {n_ok} ok, "
            f"{samples_beyond(len(records), 90)} beyond p90"
        )
        for key, (value, unit) in e2e.items():
            print(f"  {key} = {value:.6g} {unit}", flush=True)
        if not trace:
            return _result(records, e2e)

        tdep = Deployment(wl, tmp, env, "traced", trace=True)
        stack.callback(tdep.close)
        tdep.start()
        gate(tdep, wl, answers)
        tout = run_client(tdep, wl, tmp, env, seconds, trace=True)
        spans = tdep.stop()["spans"]
        stage(f"traced: {len(tout['records'])} queries")
        layers = per_layer(tout, spans, setups,
                           {"out": out, "latency_p50_ms": e2e["latency_p50_ms"][0]})
        for key, (value, unit) in layers.items():
            print(f"  {key} = {value:.6g} {unit}", flush=True)
        return _result(records + tout["records"], layers)


def _result(records: List[dict], metrics: Dict[str, tuple]) -> dict:
    failed = sum(1 for r in records if r["status"] != "ok")
    wrong = sum(1 for r in records if r["status"] == "wrong")
    return {
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workdir = Path.cwd() / ".perfbench_tmp"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except GateFailure as e:
        print(f"correctness gate failed: {e}", flush=True)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        if workdir.exists() and not any(workdir.iterdir()):
            shutil.rmtree(workdir)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1
