"""Shard server and client: one ADR back-end process of a deployment.

A :class:`ShardServer` is an :class:`~repro.frontend.service.ADRServer`
that owns one Hilbert-assigned chunk shard (loaded as a standalone
local dataset) and additionally answers *partial* queries --
``{"op": "query", "partial": true, "query": {...}}`` -- by wrapping
the query's aggregation in
:class:`~repro.shard.partial.PartialAggregationSpec` before submitting
it into its :class:`~repro.frontend.queryservice.QueryService`, so the
response carries raw accumulators for the router's global combine.
A query that selects none of this shard's chunks answers an *empty
partial* (nothing read, nothing aggregated) rather than an error:
emptiness is a normal outcome of scattering a range query over a
declustered deployment.

``python -m repro.shard.server --load shard.pickle`` hosts one shard
as a standalone OS process (used by ``benchmarks/bench_shards.py`` to
measure machine-count scaling on real processes); everything else in
the test suite and corpus hosts shards in threads via
:class:`repro.shard.cluster.ShardCluster`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.frontend.adr import ADR
from repro.frontend.protocol import (
    ProtocolError,
    error_to_dict,
    query_from_dict,
    query_to_dict,
    result_from_dict,
    result_to_message,
)
from repro.frontend.query import RangeQuery
from repro.frontend.queryservice import (
    QueryService,
    ServiceClosedError,
    ServiceOverloadedError,
    ServicePolicy,
)
from repro.frontend.service import ADRClient, ADRServer
from repro.runtime.engine import QueryResult
from repro.shard.partial import (
    EMPTY_SELECTION_MARK,
    as_partial,
    empty_partial_result,
)

__all__ = ["ShardServer", "ShardClient"]


class ShardServer(ADRServer):
    """One shard process: a local ADR plus the partial-query op."""

    def __init__(
        self,
        adr: ADR,
        shard_id: int,
        host: str = "127.0.0.1",
        port: int = 0,
        policy: Optional[ServicePolicy] = None,
        service: Optional[QueryService] = None,
    ) -> None:
        self.shard_id = int(shard_id)
        super().__init__(adr, host, port, policy, service)

    def health(self) -> Dict[str, Any]:
        h = super().health()
        h["shard_id"] = self.shard_id
        return h

    def adr_dispatch(self, message: dict) -> dict:
        if (
            message.get("op") == "query"
            and message.get("partial")
            and not self._draining.is_set()
        ):
            return self._dispatch_partial(message)
        # Draining partial queries fall through to the base dispatch,
        # which answers ``shard_unavailable`` for every query op.
        return super().adr_dispatch(message)

    def _dispatch_partial(self, message: dict) -> dict:
        try:
            query = query_from_dict(message.get("query", {}))
        except (ProtocolError, KeyError, ValueError) as e:
            return error_to_dict("bad_request", e)
        try:
            ticket = self.service.submit(as_partial(query))
        except ServiceOverloadedError as e:
            return error_to_dict("overloaded", e)
        except ServiceClosedError as e:
            return error_to_dict("internal", e)
        try:
            result = ticket.result()
        except ValueError as e:
            if EMPTY_SELECTION_MARK in str(e):
                result = empty_partial_result(query)
            else:
                return error_to_dict("bad_request", e)
        except (ProtocolError, KeyError) as e:
            return error_to_dict("bad_request", e)
        except Exception as e:
            return error_to_dict("internal", e)
        return {"ok": True, "result": result_to_message(result)}


class ShardClient(ADRClient):
    """Protocol client speaking the shard extension of the wire schema."""

    def query_partial(
        self, query: RangeQuery, deadline: Optional[float] = None
    ) -> QueryResult:
        """Fetch this shard's raw-accumulator partial for *query*."""
        response = self._call(
            {"op": "query", "query": query_to_dict(query), "partial": True},
            deadline,
        )
        self._checked(response, "partial query")
        return result_from_dict(response["result"])


def main(argv: Optional[list] = None) -> int:
    """Host one pickled shard as a standalone process (bench harness).

    The pickle holds ``{"dataset", "space", "chunks", "shard_id",
    "n_procs", "memory_per_proc"}`` with the chunks already re-numbered
    by :func:`repro.shard.topology.shard_chunks`; optional
    ``read_delay_s`` stalls every chunk read (the disk farm's round
    trip, for machine-count scaling benches) and ``cache_bytes``
    overrides the payload-cache size (``0`` disables it, so repeated
    bench rounds keep paying the modelled read latency).  Prints
    ``PORT <n>`` then ``READY`` on stdout so the parent can connect.
    """
    import argparse
    import pickle

    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.machine.config import MachineConfig
    from repro.store.chunk_store import MemoryChunkStore
    from repro.util.units import MB

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--load", required=True, help="pickled shard payload")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args(argv)

    with open(args.load, "rb") as f:
        payload = pickle.load(f)
    store = MemoryChunkStore()
    delay = float(payload.get("read_delay_s", 0.0) or 0.0)
    if delay > 0.0:
        from repro.faults.store import FaultyChunkStore

        store = FaultyChunkStore(
            store, FaultInjector(FaultPlan.slow_read(delay))
        )
    adr = ADR(
        machine=MachineConfig(
            n_procs=int(payload["n_procs"]),
            memory_per_proc=int(payload["memory_per_proc"]),
        ),
        store=store,
        cache_bytes=int(payload.get("cache_bytes", 64 * MB)),
    )
    adr.load(payload["dataset"], payload["space"], payload["chunks"])
    with ShardServer(
        adr, payload["shard_id"], host=args.host, port=args.port
    ) as server:
        print(f"PORT {server.address[1]}", flush=True)
        print("READY", flush=True)
        try:
            while True:
                server._thread.join(timeout=3600)
        except KeyboardInterrupt:  # noqa: ADR401 -- operator Ctrl-C is the shutdown signal
            pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
