"""Server host: one ADR front end or one shard, in its own OS process.

Run as ``python perfbench/host.py SPEC.json`` with ``src`` and
``perfbench`` on ``PYTHONPATH`` (``harness.py`` does this).  The spec
names the inputs and the deployment:

- ``mode: "adr"`` reads raw items from ``items`` (``.npz`` with
  ``coords`` and ``values``), Hilbert-partitions them and serves the
  dataset from an :class:`~repro.frontend.service.ADRServer`;
- ``mode: "shard"`` reads one shard's pre-partitioned chunks from
  ``payload`` (a pickle the harness wrote) and serves them from a
  :class:`~repro.shard.server.ShardServer`.

Stdout carries ``PORT <n>``, ``READY`` and ``SETUP {json}``; the host
then serves until its stdin closes, and prints ``DONE {json}`` with its
peak RSS on the way out.  With ``trace_out`` set, the ADR is built with
timing wrappers around the store, the planner entry points, the index
and execution, and the spans are written to that path on exit.
"""

from __future__ import annotations

import json
import pickle
import resource
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.dataset.chunk import Chunk
from repro.dataset.partition import hilbert_partition
from repro.frontend.adr import ADR
from repro.frontend.service import ADRServer
from repro.machine.presets import ibm_sp
from repro.shard.server import ShardServer
from repro.space.attribute_space import AttributeSpace
from repro.store.chunk_store import ChunkStore, FileChunkStore, MemoryChunkStore
from spans import Tracer


class TimedStore(ChunkStore):
    """Backing-store wrapper timing every read as a ``store.read``
    span.  The ADR puts its payload cache in front of this wrapper, so
    only cache misses reach it: each span is one backing-store read
    (open, read, CRC check and decode for a file store)."""

    def __init__(self, inner: ChunkStore, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def read_chunk(self, dataset: str, chunk_id: int) -> Chunk:
        with self.tracer.span("store.read") as span:
            chunk = self.inner.read_chunk(dataset, chunk_id)
            span["counters"]["bytes"] = int(chunk.coords.nbytes + chunk.values.nbytes)
        return chunk

    def write_chunk(self, dataset: str, chunk: Chunk, node: int, disk: int) -> None:
        self.inner.write_chunk(dataset, chunk, node, disk)

    def placement(self, dataset: str, chunk_id: int):
        return self.inner.placement(dataset, chunk_id)

    def chunk_ids(self, dataset: str) -> List[int]:
        return self.inner.chunk_ids(dataset)

    def delete_dataset(self, dataset: str) -> None:
        self.inner.delete_dataset(dataset)

    def __getattr__(self, name: str):
        # ``write_chunks`` (bulk load) exactly when the inner store has it.
        if name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)


class _TimedIndex:
    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def query(self, region):
        with self.tracer.span("index.query") as span:
            ids = self.inner.query(region)
            span["counters"]["candidates"] = int(len(ids))
        return ids


class TracedADR(ADR):
    """ADR whose public planning and execution entry points record
    spans: ``adr.plan`` (``plan_with_choice``) around
    ``adr.build_problem`` around ``index.query``, and ``adr.execute``
    around the store reads.  A query keeps one id from planning to
    execution (the service plans a batch, then executes it)."""

    def __init__(self, tracer: Tracer, **kwargs) -> None:
        super().__init__(**kwargs)
        self.tracer = tracer
        self._qids: Dict[int, int] = {}
        self._qid_lock = threading.Lock()
        self._next_qid = 0

    def _qid(self, query) -> int:
        with self._qid_lock:
            key = id(query)
            if key not in self._qids:
                self._next_qid += 1
                self._qids[key] = self._next_qid
            return self._qids[key]

    def index(self, name: str):
        return _TimedIndex(super().index(name), self.tracer)

    def build_problem(self, query):
        with self.tracer.span("adr.build_problem", qid=self._qid(query)) as span:
            problem = super().build_problem(query)
            span["counters"]["pruned"] = int(len(problem.pruned_input_ids))
        return problem

    def plan_with_choice(self, query):
        with self.tracer.span("adr.plan", qid=self._qid(query)):
            return super().plan_with_choice(query)

    def execute(self, query, plan=None, store_as=None, backend="sequential"):
        try:
            with self.tracer.span("adr.execute", qid=self._qid(query)):
                return super().execute(
                    query, plan=plan, store_as=store_as, backend=backend
                )
        finally:
            with self._qid_lock:
                self._qids.pop(id(query), None)


def _stored_bytes(store: ChunkStore, root: Optional[Path]) -> int:
    if root is not None:
        return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())
    return int(store.nbytes())


def _emit(line: str) -> None:
    print(line, flush=True)


def main(argv: List[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = Tracer() if spec.get("trace_out") else None
    space = AttributeSpace.regular(
        spec["space"]["name"], spec["space"]["dims"], spec["space"]["lo"],
        spec["space"]["hi"],
    )

    t0 = time.perf_counter()
    if spec["mode"] == "adr":
        with np.load(spec["items"]) as items:
            coords, values = items["coords"], items["values"]
        chunks = hilbert_partition(coords, values, int(spec["items_per_chunk"]))
        del coords, values
    else:
        with open(spec["payload"], "rb") as fh:
            chunks = pickle.load(fh)
    partition_s = time.perf_counter() - t0

    root = Path(spec["store_dir"]) if spec["store"] == "file" else None
    backing = FileChunkStore(root) if root is not None else MemoryChunkStore()
    store = TimedStore(backing, tracer) if tracer is not None else backing
    kwargs = dict(
        machine=ibm_sp(int(spec["n_procs"])), store=store,
        cache_bytes=int(spec["cache_bytes"]),
    )
    adr = TracedADR(tracer, **kwargs) if tracer is not None else ADR(**kwargs)
    t1 = time.perf_counter()
    adr.load(spec["dataset"], space, chunks)
    load_s = time.perf_counter() - t1
    del chunks

    if spec["mode"] == "adr":
        server = ADRServer(adr)
    else:
        server = ShardServer(adr, int(spec["shard_id"]))
    with server:
        _emit(f"PORT {server.address[1]}")
        _emit("READY")
        setup = {
            "partition_s": partition_s if spec["mode"] == "adr" else 0.0,
            "load_s": load_s,
            "stored_bytes": _stored_bytes(backing, root),
        }
        _emit("SETUP " + json.dumps(setup))
        sys.stdin.read()  # serve until the harness closes our stdin
    if tracer is not None:
        with open(spec["trace_out"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans(), fh)
    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _emit("DONE " + json.dumps({"maxrss_kib": maxrss_kib}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
