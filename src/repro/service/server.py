"""The asyncio TCP server: admission, deadlines, timeouts, drain.

One :class:`PatternServer` wraps one
:class:`~repro.service.handlers.PatternService` and speaks the frame
protocol of :mod:`repro.service.protocol` to any number of clients.
The contract it adds on top of the handlers:

* **Admission control** — at most ``max_connections`` concurrent
  connections, and per-op-class dispatch limits with *bounded* wait
  queues (:class:`AdmissionController`).  A request past a queue
  bound is shed at enqueue time with one typed ``overloaded`` frame
  carrying ``retry_after`` — the connection survives and nothing was
  dispatched, so a stampede degrades into fast, honest rejections
  instead of unbounded queueing.
* **Deadline propagation** — a request stamped with ``deadline_ms``
  is refused unstarted if the budget is already gone on arrival,
  and its handler runs under ``min(request_timeout, remaining)``;
  the live :class:`~repro.service.protocol.Deadline` is published
  via ``CURRENT_DEADLINE`` so downstream hops (the shard router's
  links) re-stamp the remaining budget instead of their own default.
* **Per-request timeout** — a handler that exceeds
  ``request_timeout`` is cancelled and answered with a ``timeout``
  error; the connection survives.  Response *writes* are bounded
  too (``write_timeout``), so a slow-loris receiver cannot pin a
  connection slot forever.
* **Brownout** — sustained shedding flips the controller into a
  browned-out state that the handlers consult to downgrade ``mine``
  to the cached/approximate path; it clears automatically once the
  queues drain and shedding stops.
* **Graceful drain** — SIGTERM/SIGINT (or the ``shutdown`` op) stops
  the listener, lets every in-flight request finish and be answered,
  closes idle connections, and only then resolves
  :meth:`wait_drained`.  The CLI exits 0 on this path.

:func:`start_server_thread` runs a server on a background thread with
its own event loop — the harness used by the test suite and the CI
smoke script to serve a fixture index in-process.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.errors import (
    OverloadedError,
    ReproError,
    ServiceError,
    ServiceProtocolError,
    ServiceTimeoutError,
)
from repro.service.handlers import PatternService
from repro.service.protocol import (
    CURRENT_DEADLINE,
    ERR_INTERNAL,
    ERR_OVERLOADED,
    ERR_QUERY,
    ERR_SHUTTING_DOWN,
    ERR_TIMEOUT,
    Deadline,
    error_frame,
    ok_frame,
    parse_request,
    read_frame,
    write_frame_nowait,
)

DEFAULT_MAX_CONNECTIONS = 64
DEFAULT_REQUEST_TIMEOUT_S = 30.0
DEFAULT_WRITE_TIMEOUT_S = 10.0

# -- op classification -------------------------------------------------------

#: Operations that must stay answerable *while* the server sheds load:
#: an operator locked out of ``status``/``metrics``/``shutdown`` on an
#: overloaded server cannot diagnose or relieve the overload.  These
#: bypass the admission queues entirely (they are all cheap and
#: loop-serialised).
CONTROL_OPS = frozenset(
    {"status", "metrics", "health", "shutdown", "recover", "promote", "cancel"}
)
MINE_OPS = frozenset({"mine"})
WRITE_OPS = frozenset({"append"})


def classify_op(op: str) -> str:
    """Map an op name onto an admission class.

    Unknown ops land in ``read`` — they are admitted and then answered
    ``bad_request`` by the handler, which keeps the error typed rather
    than conflating "no such op" with "overloaded".
    """
    if op in CONTROL_OPS:
        return "control"
    if op in MINE_OPS:
        return "mine"
    if op in WRITE_OPS:
        return "write"
    return "read"


@dataclass(frozen=True)
class AdmissionLimits:
    """Bounds for one op class: concurrent dispatches + queued waiters."""

    max_concurrent: int
    max_queue: int


#: Defaults sized so a healthy server never sheds: reads are cheap and
#: loop-serialised, writes fsync, mine *submission* is cheap (the
#: expensive part is gated separately by the job backlog below).
DEFAULT_ADMISSION_LIMITS: dict[str, AdmissionLimits] = {
    "read": AdmissionLimits(max_concurrent=64, max_queue=512),
    "write": AdmissionLimits(max_concurrent=16, max_queue=256),
    "mine": AdmissionLimits(max_concurrent=8, max_queue=32),
}


class _ClassState:
    """Mutable per-class admission state (loop-confined)."""

    __slots__ = (
        "name",
        "limits",
        "active",
        "queued",
        "waiters",
        "admitted",
        "sheds",
        "max_depth",
        "ewma_s",
    )

    def __init__(self, name: str, limits: AdmissionLimits):
        self.name = name
        self.limits = limits
        self.active = 0
        self.queued = 0
        # each entry is ``[future, dead]``; ``dead`` marks a waiter
        # whose own deadline fired while queued, so a later release
        # skips it without double-decrementing the depth.
        self.waiters: deque = deque()
        self.admitted = 0
        self.sheds = 0
        self.max_depth = 0
        self.ewma_s = 0.0


def _clamp(value: float, lo: float, hi: float) -> float:
    return max(lo, min(hi, value))


class AdmissionController:
    """Bounded per-op-class admission with shedding and brownout.

    Two distinct bounds, matching where the cost actually lives:

    * **Dispatch bounds** (``limits``) cap concurrent handler
      dispatches per class and the number of requests allowed to wait
      for a slot.  A request over the queue bound is shed *at enqueue
      time* with a typed ``overloaded`` error carrying ``retry_after``
      — it never waits, never dispatches.
    * **Mine job backlog** (``mine_backlog`` jobs /
      ``mine_cost_cap`` cost units) caps the executor's outstanding
      mining work, weighted by the Geerts–Goethals candidate-bound
      cost estimate the handlers compute per submission — the same
      bound family that drives LPT batching in the parallel layer.
      This is the gate that matters under load: submissions are cheap,
      the jobs behind them are not.

    Sustained shedding (``brownout_after`` sheds inside
    ``brownout_window_s``) flips :attr:`browned_out`; it clears lazily
    once every queue is empty and no shed has happened for
    ``brownout_recover_s``.  The handlers consult the flag to downgrade
    ``mine`` to the cached/approximate path.

    Dispatch-side state is confined to the serving loop; only the mine
    backlog counters (decremented from executor threads when a job
    finishes) take a lock.
    """

    def __init__(
        self,
        limits: dict[str, AdmissionLimits] | None = None,
        *,
        mine_backlog: int = 32,
        mine_cost_cap: int = 1 << 22,
        brownout_after: int = 4,
        brownout_window_s: float = 5.0,
        brownout_recover_s: float = 2.0,
    ):
        merged = dict(DEFAULT_ADMISSION_LIMITS)
        if limits:
            merged.update(limits)
        self.limits = merged
        self._classes = {
            name: _ClassState(name, lim) for name, lim in merged.items()
        }
        self.mine_backlog = mine_backlog
        self.mine_cost_cap = mine_cost_cap
        self._mine_lock = threading.Lock()
        self.mine_outstanding = 0
        self.mine_outstanding_cost = 0
        self.mine_jobs_admitted = 0
        self.mine_sheds = 0
        self._mine_ewma_s = 0.0
        self.brownout_after = max(1, brownout_after)
        self.brownout_window_s = brownout_window_s
        self.brownout_recover_s = brownout_recover_s
        self._shed_times: deque = deque()
        self._last_shed: float | None = None
        self._brownout_since: float | None = None
        self.brownout_entries = 0
        self.deadline_expired = {"pre_dispatch": 0, "queued": 0, "running": 0}
        self.stalled_writes = 0
        self.connection_sheds = 0

    # -- dispatch admission (loop-confined) --------------------------------

    async def acquire(
        self,
        op_class: str,
        *,
        timeout: float,
        deadline: Deadline | None = None,
    ) -> None:
        """Admit one dispatch, waiting (bounded) for a slot if needed.

        Raises :class:`OverloadedError` when the class queue is full
        (the shed path — sub-millisecond, nothing enqueued) and
        :class:`ServiceTimeoutError` when the caller's budget ran out
        while queued.
        """
        state = self._classes[op_class]
        if state.active < state.limits.max_concurrent:
            state.active += 1
            state.admitted += 1
            return
        if state.queued >= state.limits.max_queue:
            state.sheds += 1
            self._record_shed()
            raise OverloadedError(
                f"{state.name} admission queue full "
                f"({state.queued} queued, {state.active} dispatched)",
                retry_after=self._retry_after(state),
            )
        loop = asyncio.get_running_loop()
        entry = [loop.create_future(), False]
        state.waiters.append(entry)
        state.queued += 1
        state.max_depth = max(state.max_depth, state.queued)
        wait_s = timeout
        if deadline is not None:
            wait_s = min(wait_s, deadline.remaining_s)
        try:
            await asyncio.wait_for(entry[0], timeout=max(wait_s, 0.0))
        except asyncio.TimeoutError:
            if entry[0].done() and not entry[0].cancelled():
                # The slot landed in the same tick the timer fired:
                # hand it to the next waiter instead of leaking it.
                self.release(op_class)
            elif not entry[1]:
                entry[1] = True
                state.queued -= 1
                with contextlib.suppress(ValueError):
                    state.waiters.remove(entry)
            self.deadline_expired["queued"] += 1
            raise ServiceTimeoutError(
                f"budget expired after {wait_s:.3f}s queued for "
                f"{state.name} admission"
            ) from None
        state.admitted += 1

    def release(self, op_class: str, elapsed: float | None = None) -> None:
        """Return a dispatch slot; hands it to the oldest live waiter."""
        state = self._classes[op_class]
        if elapsed is not None:
            state.ewma_s = (
                elapsed if state.ewma_s == 0.0
                else 0.8 * state.ewma_s + 0.2 * elapsed
            )
        while state.waiters:
            entry = state.waiters.popleft()
            if entry[1]:
                continue
            state.queued -= 1
            if entry[0].done():
                continue
            entry[0].set_result(None)
            return  # the slot transfers; ``active`` is unchanged
        state.active -= 1

    def _retry_after(self, state: _ClassState) -> float:
        per_request = state.ewma_s if state.ewma_s > 0.0 else 0.05
        backlog = state.queued + state.active + 1
        return _clamp(
            per_request * backlog / max(1, state.limits.max_concurrent),
            0.05,
            5.0,
        )

    # -- mine job backlog (cross-thread) -----------------------------------

    def admit_mine_job(self, cost: int) -> None:
        """Admit one mining job of ``cost`` candidate-bound units.

        Raises :class:`OverloadedError` when the backlog is full; the
        shed is counted toward brownout (only the serving loop calls
        this, so the brownout bookkeeping stays loop-confined).
        """
        with self._mine_lock:
            if (
                self.mine_outstanding >= self.mine_backlog
                or self.mine_outstanding_cost + cost > self.mine_cost_cap
            ):
                self.mine_sheds += 1
                outstanding = self.mine_outstanding
                outstanding_cost = self.mine_outstanding_cost
                retry_after = _clamp(
                    self._mine_ewma_s if self._mine_ewma_s > 0.0 else 0.5,
                    0.1,
                    10.0,
                )
            else:
                self.mine_outstanding += 1
                self.mine_outstanding_cost += cost
                self.mine_jobs_admitted += 1
                return
        self._record_shed()
        raise OverloadedError(
            f"mine backlog full ({outstanding} jobs, "
            f"{outstanding_cost} cost units outstanding)",
            retry_after=retry_after,
        )

    def finish_mine_job(self, cost: int, elapsed: float | None = None) -> None:
        """Release one mining job's backlog share (any thread)."""
        with self._mine_lock:
            self.mine_outstanding = max(0, self.mine_outstanding - 1)
            self.mine_outstanding_cost = max(
                0, self.mine_outstanding_cost - cost
            )
            if elapsed is not None:
                self._mine_ewma_s = (
                    elapsed if self._mine_ewma_s == 0.0
                    else 0.7 * self._mine_ewma_s + 0.3 * elapsed
                )

    # -- brownout ----------------------------------------------------------

    def _record_shed(self) -> None:
        now = time.monotonic()
        self._last_shed = now
        self._shed_times.append(now)
        floor = now - self.brownout_window_s
        while self._shed_times and self._shed_times[0] < floor:
            self._shed_times.popleft()
        if (
            self._brownout_since is None
            and len(self._shed_times) >= self.brownout_after
        ):
            self._brownout_since = now
            self.brownout_entries += 1

    @property
    def browned_out(self) -> bool:
        """True while the server should serve degraded answers.

        Recovery is *lazy*: checked on access, cleared once every
        dispatch queue is empty and no shed has landed for
        ``brownout_recover_s`` — no background timer to leak.
        """
        if self._brownout_since is None:
            return False
        queued = sum(s.queued for s in self._classes.values())
        if queued == 0 and (
            self._last_shed is None
            or time.monotonic() - self._last_shed >= self.brownout_recover_s
        ):
            self._brownout_since = None
            self._shed_times.clear()
            return False
        return True

    # -- counters / introspection ------------------------------------------

    def note_deadline_expired(self, where: str) -> None:
        self.deadline_expired[where] += 1

    def note_stalled_write(self) -> None:
        self.stalled_writes += 1

    def note_connection_shed(self) -> None:
        self.connection_sheds += 1
        self._record_shed()

    @property
    def sheds_total(self) -> int:
        return (
            sum(s.sheds for s in self._classes.values())
            + self.mine_sheds
            + self.connection_sheds
        )

    def as_dict(self) -> dict:
        """The load-side signals for ``status``/``metrics``."""
        browned = self.browned_out  # may lazily clear the state
        with self._mine_lock:
            mine = {
                "outstanding": self.mine_outstanding,
                "outstanding_cost": self.mine_outstanding_cost,
                "backlog": self.mine_backlog,
                "cost_cap": self.mine_cost_cap,
                "admitted": self.mine_jobs_admitted,
                "sheds": self.mine_sheds,
            }
        return {
            "classes": {
                name: {
                    "active": s.active,
                    "queued": s.queued,
                    "max_depth": s.max_depth,
                    "admitted": s.admitted,
                    "sheds": s.sheds,
                    "max_concurrent": s.limits.max_concurrent,
                    "max_queue": s.limits.max_queue,
                }
                for name, s in self._classes.items()
            },
            "mine_jobs": mine,
            "deadline_expired": dict(self.deadline_expired),
            "stalled_writes": self.stalled_writes,
            "connection_sheds": self.connection_sheds,
            "sheds_total": self.sheds_total,
            "brownout": {
                "state": "browned_out" if browned else "ok",
                "entries": self.brownout_entries,
                "threshold": self.brownout_after,
                "window_s": self.brownout_window_s,
                "recover_s": self.brownout_recover_s,
            },
        }


class PatternServer:
    """Serve one :class:`PatternService` over TCP."""

    def __init__(
        self,
        service: PatternService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int = DEFAULT_MAX_CONNECTIONS,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT_S,
        write_timeout: float = DEFAULT_WRITE_TIMEOUT_S,
        admission: AdmissionController | None = None,
        scrubber=None,
        tailer=None,
    ):
        self.service = service
        self.host = host
        self.port = port  # replaced by the bound port after start()
        self.max_connections = max_connections
        self.request_timeout = request_timeout
        self.write_timeout = write_timeout
        self.admission = admission if admission is not None else AdmissionController()
        # The handlers consult the controller for brownout state and
        # the mine-job backlog; metrics/status read its counters.
        service.admission = self.admission
        self.scrubber = scrubber
        self.tailer = tailer
        self._scrub_task: asyncio.Task | None = None
        self._tailer_task: asyncio.Task | None = None
        self._server: asyncio.AbstractServer | None = None
        self._draining = False
        self._drain_event: asyncio.Event | None = None
        self._drained = False
        self._connections: set[asyncio.Task] = set()
        #: Connections waiting for their next request: reader -> writer.
        self._idle: dict[asyncio.StreamReader, asyncio.StreamWriter] = {}
        self.active_connections = 0
        service.shutdown_callback = self.request_shutdown

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; resolves ``self.port``."""
        self._drain_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.scrubber is not None:
            self._scrub_task = asyncio.ensure_future(self.scrubber.run())
        if self.tailer is not None:
            self._tailer_task = asyncio.ensure_future(self.tailer.run())
            self.service.stop_tailer_callback = self.stop_tailer

    def stop_tailer(self) -> None:
        """Stop the replication tailer (the ``promote`` op's hook).

        Safe to call from a handler on the serving loop: the tailer
        coroutine is parked at an await (it never yields mid-apply), so
        cancelling here cannot tear a half-applied record.
        """
        if self.tailer is not None:
            self.tailer.request_stop()
        if self._tailer_task is not None:
            self._tailer_task.cancel()
            self._tailer_task = None

    def request_shutdown(self) -> None:
        """Begin a graceful drain; idempotent, callable from the loop."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        if self._drain_event is not None:
            self._drain_event.set()
            # End idle reads two ticks on, so that a request the loop
            # reads off an idle socket meanwhile, such as one sent right
            # after SIGTERM, is still answered.
            loop = asyncio.get_running_loop()
            loop.call_soon(loop.call_soon, self._end_idle_reads)

    def _end_idle_reads(self) -> None:
        """End every idle connection's wait for its next request.

        Pausing also drops a read callback already queued, so no bytes
        follow the EOF; bytes already in a reader are read first.
        """
        for reader, writer in self._idle.items():
            writer.transport.pause_reading()
            reader.feed_eof()

    async def wait_drained(self) -> None:
        """Resolve once a drain was requested and every request finished."""
        await self._drain_event.wait()
        if self._scrub_task is not None:
            self._scrub_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._scrub_task
        if self._tailer_task is not None:
            task = self._tailer_task
            self._tailer_task = None
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        while self._connections:
            await asyncio.gather(*list(self._connections), return_exceptions=True)
        if self._server is not None:
            with contextlib.suppress(OSError):
                await self._server.wait_closed()
        self.service.close()
        self._drained = True

    def install_signal_handlers(self) -> None:
        """Drain on SIGTERM/SIGINT (loop-native, falls back to signal())."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                signal.signal(
                    signum,
                    lambda *_: loop.call_soon_threadsafe(self.request_shutdown),
                )

    # -- connection handling ---------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        # Refused connections are tracked too, so the drain waits until
        # every accepted socket is closed.
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            if self._draining:
                await self._refuse(writer, ERR_SHUTTING_DOWN, "server is draining")
            elif self.active_connections >= self.max_connections:
                self.admission.note_connection_shed()
                await self._refuse(
                    writer,
                    ERR_OVERLOADED,
                    f"connection limit of {self.max_connections} reached",
                    retry_after=1.0,
                )
            else:
                self.active_connections += 1
                try:
                    await self._serve_connection(reader, writer)
                finally:
                    self.active_connections -= 1
        finally:
            self._connections.discard(task)
            await self._close_writer(writer)

    @staticmethod
    async def _close_writer(writer) -> None:
        """Close a stream without waiting forever on a wedged peer."""
        writer.close()
        with contextlib.suppress(asyncio.TimeoutError, OSError):
            await asyncio.wait_for(writer.wait_closed(), timeout=5.0)

    async def _refuse(
        self,
        writer,
        error_type: str,
        message: str,
        *,
        retry_after: float | None = None,
    ) -> None:
        with contextlib.suppress(ConnectionError, OSError):
            await self._write_response(
                writer,
                error_frame(-1, error_type, message, retry_after=retry_after),
            )

    async def _serve_connection(self, reader, writer) -> None:
        """One request/response loop; exits on EOF, drain, or bad frame.

        Between requests the connection waits in ``read_frame`` on its
        own task; a drain ends that wait (:meth:`_end_idle_reads`).
        """
        while not self._draining:
            self._idle[reader] = writer
            try:
                payload = await read_frame(reader)
            except ServiceProtocolError as exc:
                if not self._draining:  # a drain's EOF cut it, not the peer
                    with contextlib.suppress(ConnectionError, OSError):
                        await self._write_response(
                            writer, error_frame(-1, "protocol", str(exc))
                        )
                return
            except (ConnectionError, OSError):
                return
            finally:
                del self._idle[reader]
            if payload is None:  # clean EOF between frames
                return
            try:
                await self._answer(writer, payload)
            except (ConnectionError, OSError):
                return

    async def _answer(self, writer, payload: dict) -> None:
        """Dispatch one decoded payload and write exactly one frame."""
        try:
            request = parse_request(payload)
        except ServiceProtocolError as exc:
            await self._write_response(writer, error_frame(-1, "protocol", str(exc)))
            return
        deadline = (
            Deadline.from_budget_ms(request.deadline_ms)
            if request.deadline_ms is not None
            else None
        )
        response = await self._dispatch(request, deadline)
        await self._write_response(writer, response)

    async def _write_response(self, writer, response: dict) -> None:
        """Write one frame, bounded — a stalled receiver loses the link.

        A frame the socket takes at once costs no task and no timer;
        only bytes left in the transport's buffer are waited on, for at
        most ``write_timeout``.
        """
        if not write_frame_nowait(writer, response):
            return
        try:
            await asyncio.wait_for(writer.drain(), timeout=self.write_timeout)
        except asyncio.TimeoutError:
            self.admission.note_stalled_write()
            # Drop the buffered bytes too: a plain close would wait for
            # them to flush, holding the socket for as long as the peer
            # does not read.
            writer.transport.abort()
            raise ConnectionError(
                f"response write stalled past {self.write_timeout}s"
            ) from None

    async def _dispatch(self, request, deadline: Deadline | None) -> dict:
        """Admission, deadline enforcement, and the handler call itself."""
        admission = self.admission
        if deadline is not None and deadline.expired:
            # The budget was gone before any work started: refuse in
            # O(1) so the expired caller's request burns zero CPU here
            # and provably spawns nothing downstream.
            admission.note_deadline_expired("pre_dispatch")
            return error_frame(
                request.id,
                ERR_TIMEOUT,
                "propagated deadline expired before dispatch; "
                "the request was refused unstarted",
            )
        op_class = classify_op(request.op)
        if op_class != "control":
            try:
                await admission.acquire(
                    op_class, timeout=self.request_timeout, deadline=deadline
                )
            except OverloadedError as exc:
                return error_frame(
                    request.id,
                    ERR_OVERLOADED,
                    str(exc),
                    retry_after=exc.retry_after,
                )
            except ServiceTimeoutError as exc:
                return error_frame(request.id, ERR_TIMEOUT, str(exc))
        started = time.monotonic()
        token = CURRENT_DEADLINE.set(deadline)
        try:
            effective = self.request_timeout
            deadline_bound = False
            if deadline is not None and deadline.remaining_s < effective:
                effective = deadline.remaining_s
                deadline_bound = True
            try:
                result = await asyncio.wait_for(
                    self.service.handle(
                        request.op, request.args, deadline=deadline
                    ),
                    timeout=effective,
                )
                response = ok_frame(request.id, result)
            except asyncio.TimeoutError:
                if deadline_bound:
                    admission.note_deadline_expired("running")
                    message = (
                        f"propagated deadline expired after {effective:.3f}s; "
                        "the work was cancelled"
                    )
                else:
                    message = (
                        f"request exceeded the {self.request_timeout}s limit"
                    )
                response = error_frame(request.id, ERR_TIMEOUT, message)
            except ServiceError as exc:
                response = error_frame(
                    request.id,
                    exc.error_type,
                    str(exc),
                    retry_after=getattr(exc, "retry_after", None),
                )
            except ReproError as exc:
                response = error_frame(request.id, ERR_QUERY, str(exc))
            except Exception as exc:  # never let a handler bug kill the server
                response = error_frame(
                    request.id, ERR_INTERNAL, f"{type(exc).__name__}: {exc}"
                )
        finally:
            CURRENT_DEADLINE.reset(token)
            if op_class != "control":
                admission.release(op_class, time.monotonic() - started)
        return response

    # -- blocking entry point ---------------------------------------------------

    async def run(self, *, announce=print) -> None:
        """Start, announce, install signal handlers, serve until drained."""
        await self.start()
        self.install_signal_handlers()
        if announce is not None:
            announce(f"serving on {self.host}:{self.port}")
        await self.wait_drained()


class ServerHandle:
    """A server running on a background thread (tests, smoke scripts)."""

    def __init__(self, server: PatternServer, loop, thread: threading.Thread):
        self.server = server
        self.loop = loop
        self.thread = thread

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def request_shutdown(self) -> None:
        """Trigger the drain from any thread."""
        self.loop.call_soon_threadsafe(self.server.request_shutdown)

    def stop(self, timeout: float = 10.0) -> None:
        """Drain and join; raises if the server thread will not die."""
        self.request_shutdown()
        self.thread.join(timeout)
        if self.thread.is_alive():  # pragma: no cover - diagnostic path
            raise RuntimeError("server thread did not exit within the timeout")

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def start_server_thread(
    service: PatternService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    start_timeout: float = 10.0,
    **server_kwargs,
) -> ServerHandle:
    """Run a :class:`PatternServer` on a dedicated thread + event loop.

    Returns once the listener is bound (so ``handle.port`` is real).
    The thread exits after a drain completes; use ``handle.stop()`` or
    the context-manager form to shut it down.
    """
    started = threading.Event()
    holder: dict = {}

    def _runner() -> None:
        async def _main() -> None:
            server = PatternServer(service, host=host, port=port, **server_kwargs)
            try:
                await server.start()
            except Exception as exc:
                holder["error"] = exc
                started.set()
                return
            holder["server"] = server
            holder["loop"] = asyncio.get_running_loop()
            started.set()
            await server.wait_drained()

        asyncio.run(_main())

    thread = threading.Thread(
        target=_runner, name="repro-pattern-server", daemon=True
    )
    thread.start()
    if not started.wait(start_timeout):  # pragma: no cover - diagnostic path
        raise RuntimeError("server failed to start within the timeout")
    if "error" in holder:
        raise holder["error"]
    return ServerHandle(holder["server"], holder["loop"], thread)
