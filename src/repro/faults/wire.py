"""Wire-level fault injection: a chaos proxy for the shard protocol.

The store-level injectors in this package model disks going bad; a
sharded deployment also has to survive the *network* going bad --
connections refused, frames torn mid-payload, bytes flipped in
transit, peers that answer arbitrarily slowly.  :class:`ChaosProxy`
sits between a :class:`~repro.shard.router.ShardRouter` endpoint and
the real :class:`~repro.shard.server.ShardServer`, forwarding traffic
byte-for-byte except where a seeded :class:`WireFaultPlan` says to
injure it.

Faults act on the **response** direction (server to client) of one
proxied connection, except ``refuse`` which acts at accept time.  The
router opens a fresh client connection per fetch attempt, so "fires
once per connection" and "fires once per attempt" coincide -- which is
what makes ``times=1`` specs express "transient glitch, retry wins"
and ``times=None`` express "persistently broken link, shard degrades".

Kinds (:data:`WIRE_FAULT_KINDS`):

- ``refuse``   -- close the client connection at accept, before any
  bytes flow (a dead process's OS resetting the handshake);
- ``delay``    -- stall ``delay_s`` seconds before forwarding the
  first response byte (a congested or wedged peer; pairs with client
  deadlines);
- ``cut``      -- forward ``after_bytes`` response bytes, then sever
  both sides (a mid-frame disconnect; the client must surface a loud
  :class:`~repro.frontend.protocol.ProtocolError`, never a short
  result);
- ``corrupt``  -- XOR ``0xFF`` into the response byte at offset
  ``after_bytes`` and keep forwarding (``after_bytes=0`` hits the
  frame header's most significant length byte, declaring an absurd
  frame the client must refuse; an offset inside the JSON header
  breaks the JSON, and one inside a result array's raw segment fails
  that segment's CRC32 check).

Determinism mirrors :class:`~repro.faults.plan.FaultPlan`: each spec
draws from its own generator spawned from the plan seed, and ``times``
counters are updated under a lock, so a scenario replays identically
for a given seed and connection order.
"""

from __future__ import annotations

import contextlib
import socket
import threading
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.util.rng import spawn_rngs

__all__ = ["WIRE_FAULT_KINDS", "WireFaultSpec", "WireFaultPlan", "ChaosProxy"]

#: Supported wire fault kinds (see module docstring for semantics).
WIRE_FAULT_KINDS = ("refuse", "delay", "cut", "corrupt")


@dataclass(frozen=True)
class WireFaultSpec:
    """One injectable wire fault.

    ``times`` bounds how many connections the spec injures (``None`` =
    every connection); ``p`` makes firing probabilistic, drawn from the
    plan's seeded per-spec stream.
    """

    kind: str
    #: delay: seconds to stall the response
    delay_s: float = 0.0
    #: cut: response bytes forwarded before severing;
    #: corrupt: offset of the response byte to flip
    after_bytes: int = 0
    #: firing probability per connection
    p: float = 1.0
    #: maximum number of firings (None = unlimited)
    times: Optional[int] = 1

    def __post_init__(self) -> None:
        if self.kind not in WIRE_FAULT_KINDS:
            raise ValueError(
                f"unknown wire fault kind {self.kind!r}; "
                f"expected one of {WIRE_FAULT_KINDS}"
            )
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"fault probability must be in [0, 1], got {self.p}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1 or None, got {self.times}")
        if self.delay_s < 0.0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")
        if self.after_bytes < 0:
            raise ValueError(f"after_bytes must be >= 0, got {self.after_bytes}")


@dataclass(frozen=True)
class WireFaultPlan:
    """An ordered, seedable collection of wire fault specs."""

    specs: Tuple[WireFaultSpec, ...] = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def __len__(self) -> int:
        return len(self.specs)

    def extend(self, *specs: WireFaultSpec) -> "WireFaultPlan":
        return WireFaultPlan(self.specs + specs, seed=self.seed)

    # -- convenience constructors (one per supported scenario) ----------

    @staticmethod
    def refuse(times: Optional[int] = 1, seed: int = 0) -> "WireFaultPlan":
        """Refuse the next *times* connections (``None`` = all: the
        peer is gone for good and the shard must degrade)."""
        return WireFaultPlan((WireFaultSpec("refuse", times=times),), seed=seed)

    @staticmethod
    def slow(
        delay_s: float, times: Optional[int] = 1, seed: int = 0,
    ) -> "WireFaultPlan":
        """Stall responses by *delay_s* seconds (deadline testing)."""
        return WireFaultPlan(
            (WireFaultSpec("delay", delay_s=delay_s, times=times),), seed=seed
        )

    @staticmethod
    def cut(
        after_bytes: int = 6, times: Optional[int] = 1, seed: int = 0,
    ) -> "WireFaultPlan":
        """Sever the connection *after_bytes* into the response -- the
        default lands mid-payload of any framed message (4-byte header
        plus two JSON bytes), tearing the frame."""
        return WireFaultPlan(
            (WireFaultSpec("cut", after_bytes=after_bytes, times=times),),
            seed=seed,
        )

    @staticmethod
    def corrupt(
        after_bytes: int = 0, times: Optional[int] = 1, seed: int = 0,
    ) -> "WireFaultPlan":
        """Flip the response byte at *after_bytes* -- the default hits
        the frame header, declaring an oversized frame."""
        return WireFaultPlan(
            (WireFaultSpec("corrupt", after_bytes=after_bytes, times=times),),
            seed=seed,
        )


class _WireSpecState:
    """Firing bookkeeping for one spec (same contract as the store
    injector's ``_SpecState``: probabilistic draws come from the
    spec's own seeded stream, ``times`` bounds total firings)."""

    def __init__(self, spec: WireFaultSpec, rng) -> None:
        self.spec = spec
        self.rng = rng
        self.fired = 0

    def fire(self) -> bool:
        if self.spec.times is not None and self.fired >= self.spec.times:
            return False
        if self.spec.p < 1.0 and float(self.rng.random()) >= self.spec.p:
            return False
        self.fired += 1
        return True


class ChaosProxy:
    """A TCP proxy that injures the response stream per a seeded plan.

    Point a router endpoint at :attr:`address` instead of the real
    shard server; traffic is pumped verbatim both ways except where
    the plan fires.  ``start()``/``close()`` (or the context manager)
    bound the accept loop; every socket the proxy touches carries a
    timeout, so ``close()`` converges without hanging on a dead peer.
    """

    _POLL_S = 0.2
    _BUF = 65536

    def __init__(
        self,
        upstream: Tuple[str, int],
        plan: WireFaultPlan,
        host: str = "127.0.0.1",
        port: int = 0,
        connect_timeout_s: float = 5.0,
    ) -> None:
        self.upstream = upstream
        self.plan = plan
        self.connect_timeout_s = float(connect_timeout_s)
        self._states = [
            _WireSpecState(spec, rng)
            for spec, rng in zip(
                plan.specs, spawn_rngs(plan.seed, max(len(plan), 1))
            )
        ]
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._conns: List[socket.socket] = []
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.settimeout(self._POLL_S)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self.address: Tuple[str, int] = self._listener.getsockname()
        self._accept_thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ChaosProxy":
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="chaos-accept", daemon=True
            )
            self._accept_thread.start()
        return self

    def close(self) -> None:
        self._stop.set()
        with contextlib.suppress(OSError):
            self._listener.close()
        with self._lock:
            conns, self._conns = self._conns, []
            threads, self._threads = self._threads, []
        for conn in conns:
            with contextlib.suppress(OSError):
                conn.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for t in threads:
            t.join(timeout=5.0)

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- plan interpretation --------------------------------------------

    def _connection_faults(self) -> List[WireFaultSpec]:
        """Decide, once per accepted connection, which specs injure it."""
        with self._lock:
            return [s.spec for s in self._states if s.fire()]

    # -- proxying --------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                client, _ = self._listener.accept()
            except socket.timeout:  # noqa: ADR401 -- accept-poll tick, re-checks stop flag
                continue
            except OSError:
                return  # listener closed under us: shutdown
            faults = self._connection_faults()
            if any(f.kind == "refuse" for f in faults):
                with contextlib.suppress(OSError):
                    client.close()
                continue
            t = threading.Thread(
                target=self._serve, args=(client, faults),
                name="chaos-conn", daemon=True,
            )
            with self._lock:
                self._conns.append(client)
                self._threads.append(t)
            t.start()

    def _serve(self, client: socket.socket, faults: List[WireFaultSpec]) -> None:
        try:
            upstream = socket.create_connection(
                self.upstream, timeout=self.connect_timeout_s
            )
        except OSError:
            with contextlib.suppress(OSError):
                client.close()
            return
        with self._lock:
            self._conns.append(upstream)
        request = threading.Thread(
            target=self._pump, args=(client, upstream, []),
            name="chaos-request", daemon=True,
        )
        with self._lock:
            self._threads.append(request)
        request.start()
        # The response direction runs on this connection's own thread
        # and carries the injected faults.
        self._pump(upstream, client, faults)
        request.join(timeout=5.0)

    def _pump(
        self,
        src: socket.socket,
        dst: socket.socket,
        faults: List[WireFaultSpec],
    ) -> None:
        """Forward *src* to *dst* until EOF/teardown, applying *faults*.

        Either side ending the conversation closes both sockets: the
        peer must see EOF, not a silent stall (a proxy that half-closes
        would turn every injected cut into a hang instead of the loud
        failure the scenario wants)."""
        delay_s = sum(f.delay_s for f in faults if f.kind == "delay")
        cut_at = min(
            (f.after_bytes for f in faults if f.kind == "cut"), default=None
        )
        corrupt_at = [f.after_bytes for f in faults if f.kind == "corrupt"]
        forwarded = 0
        delayed = delay_s <= 0.0
        src.settimeout(self._POLL_S)
        try:
            while not self._stop.is_set():
                try:
                    data = src.recv(self._BUF)
                except socket.timeout:  # noqa: ADR401 -- pump-poll tick, re-checks stop flag
                    continue
                except OSError:
                    break
                if not data:
                    break
                if not delayed:
                    # Interruptible stall: close() unblocks it.
                    self._stop.wait(delay_s)
                    delayed = True
                data = bytearray(data)
                for offset in corrupt_at:
                    local = offset - forwarded
                    if 0 <= local < len(data):
                        data[local] ^= 0xFF
                if cut_at is not None and forwarded + len(data) >= cut_at:
                    with contextlib.suppress(OSError):
                        dst.sendall(bytes(data[: cut_at - forwarded]))
                    break
                try:
                    dst.sendall(bytes(data))
                except OSError:
                    break
                forwarded += len(data)
        finally:
            for sock in (src, dst):
                with contextlib.suppress(OSError):
                    sock.close()
