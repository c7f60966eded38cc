"""The wire protocol: length-prefixed JSON frames.

Every message — request, response, or error — is one *frame*::

    +----------------+----------------------------------+
    | 4 bytes        | N bytes                          |
    | N (big-endian) | UTF-8 JSON object                |
    +----------------+----------------------------------+

Requests carry ``{"id", "op", "args"}``; the server answers every
request with exactly one frame echoing the ``id``: either
``{"id", "ok": true, "result": {...}}`` or
``{"id", "ok": false, "error": {"type", "message"}}``.

The protocol is deliberately boring: stdlib-only, one frame per
request, no streaming, no negotiation.  Long-running work (mining)
returns a job id immediately and is polled with further requests, so a
connection is never held hostage by a slow operation.  The full spec,
including every error type and the epoch semantics, lives in
docs/wire_protocol.md.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import socket
import struct
import time
from dataclasses import dataclass

from repro.errors import (
    ConnectionClosedError,
    DegradedError,
    OverloadedError,
    PartialResultError,
    ServiceError,
    ServiceProtocolError,
    ServiceTimeoutError,
)

#: Hard cap on one frame's JSON payload.  Large enough for a mined
#: result set, small enough that a garbage length prefix cannot make
#: the server allocate gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LEN = struct.Struct(">I")

# -- error types (the closed vocabulary of the ``error.type`` field) -------

#: The request frame was malformed (bad JSON shape, unknown op, ...).
ERR_BAD_REQUEST = "bad_request"
#: The operation itself failed (empty itemset, unknown job id, ...).
ERR_QUERY = "query"
#: The request exceeded the server's per-request timeout.
ERR_TIMEOUT = "timeout"
#: The server refused the connection: admission limit reached.
ERR_OVERLOADED = "overloaded"
#: The server is draining and no longer accepts new requests.
ERR_SHUTTING_DOWN = "shutting_down"
#: The server is in degraded read-only mode; writes are refused.
ERR_DEGRADED = "degraded"
#: The server is a replication follower; writes must go to the primary.
ERR_NOT_PRIMARY = "not_primary"
#: A scatter-gather router could not reach every shard; the message
#: names the missing transaction ranges.  The answer was *not* served
#: from partial data — the request failed rather than under-counting.
ERR_PARTIAL = "partial"
#: Anything unexpected server-side; the message carries the details.
ERR_INTERNAL = "internal"


@dataclass(frozen=True)
class Request:
    """A parsed request frame.

    ``deadline_ms`` is the caller's *remaining budget* in milliseconds,
    stamped at send time.  It is a relative duration, not a wall-clock
    timestamp, so the two ends of a connection never need agreeing
    clocks; each hop converts it to a monotonic :class:`Deadline` on
    arrival and re-stamps whatever is left when it forwards work.
    """

    id: int
    op: str
    args: dict
    deadline_ms: float | None = None


class Deadline:
    """A monotonic-clock deadline derived from a wire budget.

    Constructed once at frame arrival (``from_budget_ms``); every later
    check compares against ``time.monotonic()``, so in-process clock
    reads are cheap and a slow network hop eats into the budget exactly
    as the caller intended.
    """

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float):
        self.expires_at = expires_at

    @classmethod
    def from_budget_ms(cls, budget_ms: float) -> Deadline:
        return cls(time.monotonic() + budget_ms / 1000.0)

    @classmethod
    def after(cls, seconds: float) -> Deadline:
        return cls(time.monotonic() + seconds)

    @property
    def remaining_s(self) -> float:
        """Seconds left; never negative."""
        return max(0.0, self.expires_at - time.monotonic())

    @property
    def remaining_ms(self) -> float:
        return self.remaining_s * 1000.0

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining={self.remaining_s:.3f}s)"


#: The deadline governing the request currently being served, if any.
#: The server sets this for the duration of each handler invocation;
#: because every request runs in its own asyncio task (and sub-tasks
#: copy the context at creation), downstream code — most importantly
#: the router's shard links — can read the live budget without every
#: intermediate call signature threading it through.
CURRENT_DEADLINE: contextvars.ContextVar[Deadline | None] = contextvars.ContextVar(
    "repro_service_deadline", default=None
)


def encode_frame(payload: dict) -> bytes:
    """Serialise one message into its wire bytes (length prefix + JSON)."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ServiceProtocolError(
            f"frame payload of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _LEN.pack(len(body)) + body


def decode_payload(body: bytes) -> dict:
    """Parse one frame body; always a JSON object."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ServiceProtocolError(
            f"frame body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def parse_request(payload: dict) -> Request:
    """Validate a decoded payload as a request frame."""
    request_id = payload.get("id")
    if not isinstance(request_id, int) or isinstance(request_id, bool):
        raise ServiceProtocolError("request 'id' must be an integer")
    op = payload.get("op")
    if not isinstance(op, str) or not op:
        raise ServiceProtocolError("request 'op' must be a non-empty string")
    args = payload.get("args", {})
    if not isinstance(args, dict):
        raise ServiceProtocolError("request 'args' must be an object")
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None:
        if (
            not isinstance(deadline_ms, (int, float))
            or isinstance(deadline_ms, bool)
            or deadline_ms <= 0
        ):
            raise ServiceProtocolError(
                "request 'deadline_ms' must be a positive number"
            )
        deadline_ms = float(deadline_ms)
    return Request(id=request_id, op=op, args=args, deadline_ms=deadline_ms)


def request_frame(
    request_id: int, op: str, args: dict, deadline_ms: float | None = None
) -> dict:
    """A request payload; ``deadline_ms`` is stamped only when given."""
    frame = {"id": request_id, "op": op, "args": args}
    if deadline_ms is not None:
        frame["deadline_ms"] = deadline_ms
    return frame


def ok_frame(request_id: int, result: dict) -> dict:
    """A success response payload for ``request_id``."""
    return {"id": request_id, "ok": True, "result": result}


def error_frame(
    request_id: int,
    error_type: str,
    message: str,
    *,
    retry_after: float | None = None,
) -> dict:
    """An error response payload for ``request_id``.

    ``retry_after`` (seconds) rides along on ``overloaded`` sheds: the
    server's estimate of when capacity frees up, which well-behaved
    clients honour as a backoff floor.
    """
    error: dict = {"type": error_type, "message": message}
    if retry_after is not None:
        error["retry_after"] = round(float(retry_after), 4)
    return {
        "id": request_id,
        "ok": False,
        "error": error,
    }


def decode_response(payload: dict | None, request_id: int) -> dict:
    """The ``result`` of the response to ``request_id``, or its error raised.

    ``payload`` is ``None`` when the connection closed instead.  Error
    frames raise :class:`~repro.errors.ServiceError` keeping the wire
    ``error_type`` (typed subclasses for degraded, partial, overloaded).
    """
    if payload is None:
        raise ConnectionClosedError("connection closed between frames")
    frame_id = payload.get("id")
    if frame_id not in (request_id, -1):
        raise ServiceProtocolError(
            f"response id {frame_id!r} does not match request {request_id}"
        )
    if payload.get("ok"):
        result = payload.get("result")
        if not isinstance(result, dict):
            raise ServiceProtocolError("success frame carries no result object")
        return result
    error = payload.get("error") or {}
    message = error.get("message", "unspecified server error")
    error_type = error.get("type", "internal")
    if error_type == ERR_DEGRADED:
        raise DegradedError(message)
    if error_type == ERR_PARTIAL:
        raise PartialResultError(message)
    if error_type == ERR_OVERLOADED:
        raise OverloadedError(message, retry_after=error.get("retry_after"))
    raise ServiceError(message, error_type=error_type)


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ServiceProtocolError(
            f"incoming frame announces {length} bytes, over the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )


# -- asyncio codec (server side) -------------------------------------------


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame; ``None`` on clean EOF before a length prefix."""
    try:
        prefix = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between frames
        raise ServiceProtocolError(
            f"connection closed mid-length-prefix ({len(exc.partial)}/4 bytes)"
        ) from exc
    (length,) = _LEN.unpack(prefix)
    _check_length(length)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ServiceProtocolError(
            f"connection closed mid-frame ({len(exc.partial)}/{length} bytes)"
        ) from exc
    return decode_payload(body)


async def write_frame(writer: asyncio.StreamWriter, payload: dict) -> None:
    """Write one frame and flush it to the transport."""
    writer.write(encode_frame(payload))
    await writer.drain()


def write_frame_nowait(writer: asyncio.StreamWriter, payload: dict) -> bool:
    """Hand one frame to the transport; True while bytes stay buffered.

    The transport sends at once whatever the socket accepts, so a
    reader that keeps up leaves nothing behind and the caller need not
    wait at all; on True it waits, bounded, for the buffer to drain.
    """
    writer.write(encode_frame(payload))
    return writer.transport.get_write_buffer_size() > 0


# -- blocking codec (client side) ------------------------------------------


def _recv_exactly(sock: socket.socket, n: int, *, what: str) -> bytes:
    """Read exactly ``n`` bytes or raise a typed, diagnosable error.

    * A clean close before the first byte of a length prefix is a
      :class:`ConnectionClosedError` — the stream ended on a frame
      boundary, nothing was lost.
    * A close with bytes outstanding is a mid-frame truncation and
      raises :class:`ServiceProtocolError` with the byte counts.
    * A socket timeout surfaces as :class:`ServiceTimeoutError`.
    """
    chunks = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except socket.timeout as exc:
            raise ServiceTimeoutError(
                f"timed out with {remaining}/{n} bytes of the "
                f"{what} outstanding"
            ) from exc
        if not chunk:
            if remaining == n and what == "length prefix":
                raise ConnectionClosedError(
                    "connection closed between frames"
                )
            raise ServiceProtocolError(
                f"connection closed with {remaining}/{n} bytes of the "
                f"{what} outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame_sock(sock: socket.socket) -> dict:
    """Blocking read of one frame from a connected socket."""
    (length,) = _LEN.unpack(_recv_exactly(sock, _LEN.size, what="length prefix"))
    _check_length(length)
    return decode_payload(_recv_exactly(sock, length, what="frame body"))


def write_frame_sock(sock: socket.socket, payload: dict) -> None:
    """Blocking write of one frame to a connected socket."""
    try:
        sock.sendall(encode_frame(payload))
    except socket.timeout as exc:
        raise ServiceTimeoutError("timed out sending a frame") from exc
