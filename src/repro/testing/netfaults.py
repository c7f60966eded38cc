"""Deterministic network fault injection: a frame-aware TCP chaos proxy.

The storage layer proves its crash-safety with :mod:`repro.testing.faults`
(byte-exact write failures); this module is the network-side analogue
for the serving layer.  A :class:`ChaosProxy` sits between a client and
a real server, forwards whole protocol frames, and injects one
scheduled fault class per accepted connection:

* :class:`ResetOnConnect` — RST as soon as the first request byte
  arrives, before anything is answered;
* :class:`Delay` — hold the first N responses for a fixed time;
* :class:`DropResponse` — forward the request (the server *applies*
  it), then swallow the response and RST.  The canonical lost-ACK:
  exactly the case idempotency tokens exist for;
* :class:`TruncateResponse` — send only the first few bytes of a
  response, then close: the client sees EOF mid-frame;
* :class:`Blackhole` — accept and read, never answer: the client's
  read deadline is the only way out;
* :class:`Stall` — the slow-loris: relay one frame at a trickle
  (``bytes_per_second``), in either direction.  A stalled *response*
  exercises the client's read deadline against a connection that is
  alive but uselessly slow; a stalled *request* models a client that
  dribbles its frame into the server byte by byte;
* :class:`Passthrough` — forward faithfully (the default when the
  fault queue is empty, so retries against the same proxy succeed).

Faults are consumed from an explicit FIFO (:meth:`ChaosProxy.schedule`),
one per connection, so a test scripts the exact failure sequence a
retrying client will experience — no randomness, no flakes.  For
broader coverage, :meth:`ChaosProxy.schedule_random` draws a schedule
from a :class:`random.Random` seeded by the constructor's ``seed``
argument: different seeds explore different fault interleavings, while
any fixed seed replays the same schedule byte-for-byte.
"""

from __future__ import annotations

import random
import socket
import struct
import threading
import time
from dataclasses import dataclass

_LEN = struct.Struct(">I")
_LINGER_RST = struct.pack("ii", 1, 0)  # SO_LINGER(on, 0s) => RST on close

DEFAULT_IO_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Passthrough:
    """Forward every frame untouched."""


@dataclass(frozen=True)
class ResetOnConnect:
    """Reset the client connection before any bytes are answered.

    The reset is held until the first request byte arrives, so the
    client deterministically sees a torn connection *after* sending —
    never a failure of ``connect()`` itself, which retrying clients
    may legitimately treat as "nothing was sent" and retry.
    """


@dataclass(frozen=True)
class Delay:
    """Hold each of the first ``frames`` responses for ``seconds``."""

    seconds: float = 0.2
    frames: int = 1


@dataclass(frozen=True)
class DropResponse:
    """Forward requests, but swallow the ``after_frames``-th response
    and reset the client — the server applied the op, the ACK is lost."""

    after_frames: int = 1


@dataclass(frozen=True)
class TruncateResponse:
    """Send only ``n_bytes`` of the ``after_frames``-th response, then
    close cleanly — the client sees EOF mid-frame."""

    n_bytes: int = 2
    after_frames: int = 1


@dataclass(frozen=True)
class Blackhole:
    """Accept the connection and read requests, but never answer."""


@dataclass(frozen=True)
class Stall:
    """Relay the first ``frames`` frames at a trickle (the slow-loris).

    ``direction`` picks the victim: ``"response"`` stalls what the
    client reads (a live-but-useless server), ``"request"`` stalls what
    the server reads (a client dribbling its frame in).  Excluded from
    :meth:`ChaosProxy.schedule_random` for the same reason as
    :class:`Blackhole`: it only resolves through a peer's deadline.
    """

    bytes_per_second: float = 200.0
    frames: int = 1
    direction: str = "response"
    chunk: int = 8


class ChaosProxy:
    """A threaded TCP proxy injecting one scheduled fault per connection."""

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        *,
        host: str = "127.0.0.1",
        io_timeout: float = DEFAULT_IO_TIMEOUT_S,
        seed: int | None = None,
    ):
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.host = host
        self.port = 0  # bound by start()
        self.io_timeout = io_timeout
        self.seed = seed
        self._rng = random.Random(seed)
        self._faults: list = []
        self._lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._handlers: list[threading.Thread] = []
        self._live: set[socket.socket] = set()
        self._closing = False
        self.connections = 0
        self.faults_injected = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ChaosProxy":
        """Bind an ephemeral port and start accepting."""
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self.host, 0))
        self._listener.listen(32)
        self.port = self._listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-proxy-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def close(self) -> None:
        """Stop accepting, kill live relays, join threads."""
        self._closing = True
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept();
            # shutdown() does, so the accept loop exits promptly.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            live = list(self._live)
        for sock in live:
            try:
                sock.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for handler in self._handlers:
            handler.join(timeout=5.0)

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- fault scheduling ----------------------------------------------------

    def schedule(self, *faults) -> None:
        """Queue fault objects; each accepted connection consumes one."""
        with self._lock:
            self._faults.extend(faults)

    def schedule_random(self, n: int, kinds=None) -> list:
        """Queue ``n`` faults drawn from the seeded RNG; returns them.

        ``kinds`` restricts the draw to a subset of the fault *classes*
        (default: every recoverable kind — ``Blackhole`` is excluded
        because it only resolves through a client deadline, which makes
        randomly-scheduled runs timing-dependent).  The sequence is a
        pure function of the constructor's ``seed``, so a failing run
        is replayed exactly by re-running with the same seed.
        """
        if kinds is None:
            kinds = (ResetOnConnect, DropResponse, TruncateResponse, Delay)
        drawn = []
        for _ in range(n):
            kind = self._rng.choice(list(kinds))
            if kind is DropResponse:
                drawn.append(DropResponse(after_frames=self._rng.randint(1, 2)))
            elif kind is TruncateResponse:
                drawn.append(TruncateResponse(
                    n_bytes=self._rng.randint(1, 4),
                    after_frames=self._rng.randint(1, 2),
                ))
            elif kind is Delay:
                drawn.append(Delay(
                    seconds=self._rng.uniform(0.05, 0.2),
                    frames=self._rng.randint(1, 2),
                ))
            else:
                drawn.append(kind())
        self.schedule(*drawn)
        return drawn

    def _next_fault(self):
        with self._lock:
            return self._faults.pop(0) if self._faults else Passthrough()

    # -- relay ---------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            self.connections += 1
            fault = self._next_fault()
            handler = threading.Thread(
                target=self._handle,
                args=(conn, fault),
                name="chaos-proxy-conn",
                daemon=True,
            )
            self._handlers.append(handler)
            handler.start()

    def _track(self, sock: socket.socket) -> None:
        with self._lock:
            self._live.add(sock)

    def _untrack(self, sock: socket.socket) -> None:
        with self._lock:
            self._live.discard(sock)
        try:
            sock.close()
        except OSError:
            pass

    def _handle(self, client: socket.socket, fault) -> None:
        self._track(client)
        client.settimeout(self.io_timeout)
        upstream = None
        try:
            if isinstance(fault, ResetOnConnect):
                self.faults_injected += 1
                # Wait for the first request byte before resetting: an
                # RST fired straight from accept() can race the client's
                # connect() on loopback and get classified as a connect
                # failure (retryable even for non-idempotent ops),
                # making the fault nondeterministic.  Landing it after
                # the first sent byte guarantees the client observes a
                # reset *after* its request hit the wire.
                try:
                    client.recv(1)
                except OSError:
                    pass
                self._reset(client)
                return
            if isinstance(fault, Blackhole):
                self.faults_injected += 1
                self._consume_forever(client)
                return
            upstream = socket.create_connection(
                (self.upstream_host, self.upstream_port), timeout=self.io_timeout
            )
            self._track(upstream)
            responses = 0
            while not self._closing:
                request = self._read_raw_frame(client)
                if request is None:
                    return
                if (
                    isinstance(fault, Stall)
                    and fault.direction == "request"
                    and responses < fault.frames
                ):
                    self.faults_injected += 1
                    self._trickle(upstream, request, fault)
                else:
                    upstream.sendall(request)
                response = self._read_raw_frame(upstream)
                if response is None:
                    return
                responses += 1
                if (
                    isinstance(fault, DropResponse)
                    and responses == fault.after_frames
                ):
                    self.faults_injected += 1
                    self._reset(client)
                    return
                if (
                    isinstance(fault, TruncateResponse)
                    and responses == fault.after_frames
                ):
                    self.faults_injected += 1
                    client.sendall(response[: fault.n_bytes])
                    return  # clean close: EOF mid-frame on the client
                if isinstance(fault, Delay) and responses <= fault.frames:
                    self.faults_injected += 1
                    time.sleep(fault.seconds)
                if (
                    isinstance(fault, Stall)
                    and fault.direction == "response"
                    and responses <= fault.frames
                ):
                    self.faults_injected += 1
                    self._trickle(client, response, fault)
                else:
                    client.sendall(response)
        except OSError:
            pass  # a torn relay is exactly the point
        finally:
            self._untrack(client)
            if upstream is not None:
                self._untrack(upstream)

    def _trickle(self, sock: socket.socket, data: bytes, fault: "Stall") -> None:
        """Send ``data`` in ``fault.chunk``-byte dribbles at the stall rate.

        Aborts early (silently) when the peer goes away or the proxy is
        closing — a stalled peer giving up *is* the expected outcome.
        """
        pause = fault.chunk / max(fault.bytes_per_second, 1e-6)
        for offset in range(0, len(data), fault.chunk):
            if self._closing:
                return
            sock.sendall(data[offset : offset + fault.chunk])
            time.sleep(pause)

    def _read_raw_frame(self, sock: socket.socket) -> bytes | None:
        """One whole frame (prefix + body) as raw bytes; None on EOF."""
        prefix = self._recv_exactly(sock, _LEN.size)
        if prefix is None:
            return None
        (length,) = _LEN.unpack(prefix)
        body = self._recv_exactly(sock, length)
        if body is None:
            return None
        return prefix + body

    @staticmethod
    def _recv_exactly(sock: socket.socket, n: int) -> bytes | None:
        chunks = []
        remaining = n
        while remaining:
            chunk = sock.recv(remaining)
            if not chunk:
                return None
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks) if chunks else b""

    def _consume_forever(self, sock: socket.socket) -> None:
        """Read and discard until the peer gives up or the proxy closes."""
        sock.settimeout(0.1)
        while not self._closing:
            try:
                if not sock.recv(65536):
                    return
            except socket.timeout:
                continue
            except OSError:
                return

    @staticmethod
    def _reset(sock: socket.socket) -> None:
        """Close with SO_LINGER(1, 0) so the peer sees an RST."""
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, _LINGER_RST)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass
