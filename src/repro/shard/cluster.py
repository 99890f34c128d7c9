"""Thread-hosted sharded deployments for tests, corpus and chaos runs.

:class:`ShardCluster` builds the whole deployment in one process: it
splits a chunk population across N :class:`~repro.shard.server.ShardServer`
instances (each with its own ADR over its Hilbert-assigned shard),
binds them to loopback ports on daemon threads, and fronts them with a
:class:`~repro.shard.router.ShardRouter`.  That is the deployment the
``--shards`` corpus gates and the chaos corpus injures.

Two execution paths, same code:

- :meth:`execute` goes over real sockets through the cluster's router;
- :meth:`execute_local` runs the identical router/merge path against
  the servers' dispatch methods directly (no sockets), optionally with
  some shards ``down`` -- it is the *expectation generator* for both
  the bit-identity gate (sharded-over-sockets must equal
  sharded-in-process bit for bit) and every degraded chaos scenario.

Fault hooks: ``faulty_stores`` plants a
:class:`~repro.faults.FaultyChunkStore` injector under a shard's cache
(chunk-level faults compose with shard-level ones);
:meth:`crash_shard` closes a shard's listening socket so new
connections are refused; :meth:`drain_shard` flips one into graceful
drain.  Wire-level faults (torn frames, slow peers) come from
:class:`repro.faults.wire.ChaosProxy` sitting between the router's
endpoints and the servers.
"""

from __future__ import annotations

import io
import threading
import time
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence

from repro.dataset.chunk import Chunk
from repro.faults.injector import FaultInjector
from repro.faults.store import FaultyChunkStore
from repro.frontend.adr import ADR
from repro.frontend.protocol import (
    query_to_dict,
    read_frame,
    result_from_dict,
    write_frame,
)
from repro.frontend.query import RangeQuery
from repro.frontend.queryservice import ServicePolicy
from repro.frontend.service import ADRClient
from repro.machine.config import MachineConfig
from repro.runtime.engine import QueryResult
from repro.shard.router import (
    RouterPolicy,
    ShardEndpoint,
    ShardRouter,
)
from repro.shard.server import ShardServer
from repro.shard.topology import ShardTopology, shard_chunks
from repro.space.attribute_space import AttributeSpace
from repro.store.chunk_store import MemoryChunkStore

__all__ = ["ShardCluster"]

#: Upper bound on :meth:`ShardCluster.close` waiting for its servers.
#: One server's stop is bounded by its serve-thread and worker joins
#: (5 s + 10 s per worker); anything slower is a hang worth reporting.
_CLOSE_TIMEOUT_S = 30.0


class _LocalShardClient:
    """In-process stand-in for :class:`~repro.shard.server.ShardClient`.

    Calls the server's dispatch directly and passes the response
    through ``write_frame``/``read_frame`` on a memory buffer -- the
    exact same encode/dispatch/frame/decode code the socket path runs,
    minus the socket -- so local composite results are bit-identical
    to wire results and serve as the chaos corpus's ground truth.
    """

    def __init__(self, server: ShardServer) -> None:
        self._server = server

    def query_partial(
        self, query: RangeQuery, deadline: Optional[float] = None
    ) -> QueryResult:
        buf = io.BytesIO()
        write_frame(buf, self._server.adr_dispatch(
            {"op": "query", "query": query_to_dict(query), "partial": True}
        ))
        buf.seek(0)
        response = read_frame(buf)
        ADRClient._checked(response, "partial query")
        return result_from_dict(response["result"])

    def health(self, deadline: Optional[float] = None) -> Dict[str, Any]:
        return ADRClient._checked(
            self._server.adr_dispatch({"op": "health"}), "health"
        )["result"]

    def close(self) -> None:
        pass


class ShardCluster:
    """One sharded deployment: N shard servers behind a router."""

    def __init__(
        self,
        topology: ShardTopology,
        shard_adrs: List[ADR],
        service_policy: Optional[ServicePolicy] = None,
        router_policy: Optional[RouterPolicy] = None,
    ) -> None:
        if len(shard_adrs) != topology.n_shards:
            raise ValueError(
                f"{len(shard_adrs)} ADRs for {topology.n_shards} shards"
            )
        self.topology = topology
        self.shard_adrs = shard_adrs
        self.service_policy = service_policy
        self.router_policy = (
            router_policy if router_policy is not None else RouterPolicy()
        )
        self.servers: List[ShardServer] = []
        self.router: Optional[ShardRouter] = None
        self._crashed: set = set()
        self._started = False

    # -- construction ----------------------------------------------------

    @classmethod
    def build(
        cls,
        dataset: str,
        space: AttributeSpace,
        chunks: Sequence[Chunk],
        n_shards: int,
        n_procs: int = 2,
        memory_per_proc: int = 1 << 20,
        bits: int = 16,
        service_policy: Optional[ServicePolicy] = None,
        router_policy: Optional[RouterPolicy] = None,
        faulty_stores: Optional[Dict[int, FaultInjector]] = None,
    ) -> "ShardCluster":
        """Split *chunks* over *n_shards* local ADRs (not yet serving).

        ``faulty_stores`` maps shard ids to
        :class:`~repro.faults.FaultInjector` instances planted under
        that shard's payload cache, so seeded chunk-level faults
        compose with shard-level ones in the chaos corpus.
        """
        topology = ShardTopology.build(dataset, space, chunks, n_shards, bits)
        injectors = faulty_stores or {}
        adrs: List[ADR] = []
        for sid in range(n_shards):
            store = MemoryChunkStore()
            if sid in injectors:
                store = FaultyChunkStore(store, injectors[sid])
            adr = ADR(
                machine=MachineConfig(
                    n_procs=n_procs, memory_per_proc=memory_per_proc
                ),
                store=store,
            )
            adr.load(dataset, space, shard_chunks(chunks, topology.assignment, sid))
            adrs.append(adr)
        return cls(topology, adrs, service_policy, router_policy)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ShardCluster":
        """Bind every shard server on a loopback port, build the router."""
        if self._started:
            return self
        for sid, adr in enumerate(self.shard_adrs):
            server = ShardServer(
                adr, sid, host="127.0.0.1", port=0, policy=self.service_policy
            )
            server.__enter__()
            self.servers.append(server)
        self._started = True
        self.router = self.router_for()
        return self

    def close(self) -> None:
        """Stop every live server concurrently.

        Each ``shutdown()`` waits out the ``serve_forever`` poll
        (0.5 s), so stopping the servers in parallel pays that wait
        once rather than once per shard.  Raises ``RuntimeError`` if a
        server is still stopping after ``_CLOSE_TIMEOUT_S``.
        """
        stoppers = {
            sid: threading.Thread(
                target=server.__exit__, args=(None, None, None),
                name=f"shard-{sid}-close", daemon=True,
            )
            for sid, server in enumerate(self.servers)
            if sid not in self._crashed
        }
        for t in stoppers.values():
            t.start()
        end = time.monotonic() + _CLOSE_TIMEOUT_S
        for t in stoppers.values():
            t.join(timeout=max(0.0, end - time.monotonic()))
        self.servers = []
        self._started = False
        stuck = sorted(sid for sid, t in stoppers.items() if t.is_alive())
        if stuck:
            raise RuntimeError(
                f"shard servers {stuck} still stopping after {_CLOSE_TIMEOUT_S}s"
            )

    def __enter__(self) -> "ShardCluster":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- deployment views ------------------------------------------------

    @property
    def endpoints(self) -> List[ShardEndpoint]:
        """The live socket endpoints (primary only, no replicas)."""
        self._require_started()
        return [
            ShardEndpoint(shard_id=sid, address=server.address)
            for sid, server in enumerate(self.servers)
        ]

    def router_for(
        self,
        endpoints: Optional[Sequence[ShardEndpoint]] = None,
        policy: Optional[RouterPolicy] = None,
        client_factory: Optional[Callable] = None,
        clock: Optional[Callable[[], float]] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> ShardRouter:
        """A router over this topology with overridable wiring --
        redirected endpoints (chaos proxies, replicas), a tighter
        policy, or an injected clock."""
        self._require_started()
        kwargs: Dict[str, Any] = {}
        if client_factory is not None:
            kwargs["client_factory"] = client_factory
        if clock is not None:
            kwargs["clock"] = clock
        if sleep is not None:
            kwargs["sleep"] = sleep
        return ShardRouter(
            self.topology,
            list(endpoints) if endpoints is not None else self.endpoints,
            policy=policy if policy is not None else self.router_policy,
            **kwargs,
        )

    # -- execution -------------------------------------------------------

    def execute(self, query: RangeQuery) -> QueryResult:
        """Scatter/gather over real sockets through the cluster router."""
        self._require_started()
        assert self.router is not None
        return self.router.execute(query)

    def execute_local(
        self,
        query: RangeQuery,
        down: FrozenSet[int] = frozenset(),
        policy: Optional[RouterPolicy] = None,
    ) -> QueryResult:
        """The same scatter/gather/merge, in process, without sockets.

        Shards in *down* answer every connection attempt with
        ``ConnectionRefusedError`` -- this is how chaos scenarios
        compute their exact degraded expectation: the wire run with
        shard k injured must equal ``execute_local(q, down={k})`` bit
        for bit.
        """
        self._require_started()

        def factory(address: Any, timeout: float) -> _LocalShardClient:
            sid = int(address)
            if sid in down or sid in self._crashed:
                raise ConnectionRefusedError(f"shard {sid} is down")
            return _LocalShardClient(self.servers[sid])

        local_endpoints = [
            ShardEndpoint(shard_id=sid, address=sid)
            for sid in range(self.topology.n_shards)
        ]
        router = ShardRouter(
            self.topology,
            local_endpoints,
            policy=policy if policy is not None else self.router_policy,
            client_factory=factory,
        )
        return router.execute(query)

    # -- fault hooks -----------------------------------------------------

    def crash_shard(self, shard_id: int) -> None:
        """Close the shard's listening socket: connections are refused
        from now on (an OS-level process death, minus the OS)."""
        self._require_started()
        if shard_id in self._crashed:
            return
        self.servers[shard_id].__exit__(None, None, None)
        self._crashed.add(shard_id)

    def drain_shard(self, shard_id: int) -> None:
        """Flip one shard into graceful drain (it answers
        ``shard_unavailable`` for queries, keeps serving probes)."""
        self._require_started()
        self.servers[shard_id].drain()

    def _require_started(self) -> None:
        if not self._started:
            raise RuntimeError(
                "cluster is not serving; use `with cluster:` or call start()"
            )
