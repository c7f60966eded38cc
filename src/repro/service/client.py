"""The blocking client for the pattern query service.

One :class:`ServiceClient` owns one TCP connection and issues one
request at a time (the protocol answers every request with exactly one
frame, so a blocking request/response loop needs no multiplexing).
Used by ``repro-mine query``, the test suite, and the CI smoke script;
it is also the reference implementation of the wire protocol for any
other client.

Error frames surface as :class:`~repro.errors.ServiceError` with the
wire-level ``error_type`` preserved, so callers can distinguish a
malformed request from an overloaded or draining server.

The operation methods (``count`` ... ``shutdown``) live once, in
:class:`ServiceOps`, and are shared with
:class:`~repro.service.resilience.RetryingClient`.
"""

from __future__ import annotations

import socket
import time

from repro.errors import ServiceError, ServiceTimeoutError
from repro.service.protocol import (
    decode_response,
    read_frame_sock,
    request_frame,
    write_frame_sock,
)

DEFAULT_TIMEOUT_S = 30.0


class ServiceOps:
    """The wire operations as methods, written once for every client.

    Each method builds one op's arguments and hands them to the
    subclass's ``request(op, args)``; :meth:`_append_token` lets the
    retrying client mint an idempotency token when the caller gives none.
    """

    def request(self, op: str, args: dict | None = None) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _append_token(self, token: int | None) -> int | None:
        return token

    def count(self, items, *, exact: bool = False) -> dict:
        """Estimated (and optionally exact) support of ``items``."""
        return self.request("count", {"items": list(items), "exact": exact})

    def count_batch(self, itemsets, *, exact: bool = False) -> dict:
        """Count many itemsets in one request (one result per itemset)."""
        return self.request(
            "count_batch",
            {"itemsets": [list(items) for items in itemsets], "exact": exact},
        )

    def shardmap(self) -> dict:
        """A scatter-gather router's persisted range assignment."""
        return self.request("shardmap")

    def append(self, items, *, token: int | None = None) -> dict:
        """Insert one transaction; returns position and the new epoch.

        ``token`` is an optional client-generated idempotency token: a
        retried append carrying the same token applies exactly once
        (the duplicate is answered with ``deduped: true``).
        """
        args: dict = {"items": list(items)}
        token = self._append_token(token)
        if token is not None:
            args["token"] = token
        return self.request("append", args)

    def mine(
        self,
        min_support,
        *,
        algorithm: str = "dfp",
        max_size: int | None = None,
        workers: int = 1,
    ) -> str:
        """Submit a background mining job; returns its job id."""
        result = self.request(
            "mine",
            {
                "min_support": min_support,
                "algorithm": algorithm,
                "max_size": max_size,
                "workers": workers,
            },
        )
        return result["job_id"]

    def job(self, job_id: str, *, top: int = 0) -> dict:
        """Poll one job's state (includes the result once done)."""
        return self.request("job", {"job_id": job_id, "top": top})

    def wait_for_job(
        self,
        job_id: str,
        *,
        timeout: float = 60.0,
        poll_interval: float = 0.05,
        top: int = 0,
    ) -> dict:
        """Poll until the job leaves pending/running; return the final poll.

        Raises :class:`ServiceError` if the job errored or was
        cancelled, and :class:`ServiceTimeoutError` on timeout.
        """
        deadline = time.monotonic() + timeout
        while True:
            payload = self.job(job_id, top=top)
            state = payload["state"]
            if state == "done":
                return payload
            if state in ("error", "cancelled"):
                raise ServiceError(
                    f"job {job_id} finished as {state}: "
                    f"{payload.get('error', 'no result')}",
                    error_type="query",
                )
            if time.monotonic() >= deadline:
                raise ServiceTimeoutError(
                    f"job {job_id} still {state} after {timeout}s"
                )
            time.sleep(poll_interval)

    def cancel(self, job_id: str) -> dict:
        """Request cancellation of one job."""
        return self.request("cancel", {"job_id": job_id})

    def patterns(self, *, top: int = 0) -> dict:
        """The tracked frequent-pattern set (tracking servers only)."""
        return self.request("patterns", {"top": top})

    def status(self) -> dict:
        """Server status: transactions, epoch, jobs, uptime."""
        return self.request("status")

    def metrics(self) -> dict:
        """Latency histograms, IOStats totals/deltas, cache counters."""
        return self.request("metrics")

    def health(self) -> dict:
        """Liveness check (carries the serving ``mode``)."""
        return self.request("health")

    def recover(self) -> dict:
        """Ask a degraded server to heal its write path and resume."""
        return self.request("recover")

    def replicate(
        self,
        from_position: int,
        *,
        max_records: int = 512,
        wait_s: float = 0.0,
    ) -> dict:
        """One batch of journal records from ``from_position`` onward."""
        return self.request(
            "replicate",
            {
                "from_position": from_position,
                "max_records": max_records,
                "wait_s": wait_s,
            },
        )

    def snapshot(self) -> dict:
        """The sealed-segment manifest (see repro.storage.snapshot)."""
        return self.request("snapshot")

    def snapshot_fetch(
        self, part, *, offset: int = 0, max_bytes: int = 1 << 20
    ) -> dict:
        """One chunk of raw snapshot bytes (base64 in the payload)."""
        return self.request(
            "snapshot_fetch",
            {"part": part, "offset": offset, "max_bytes": max_bytes},
        )

    def promote(self) -> dict:
        """Promote a follower to a writable primary (idempotent)."""
        return self.request("promote")

    def shutdown(self) -> dict:
        """Ask the server to drain gracefully (same path as SIGTERM)."""
        return self.request("shutdown")


class ServiceClient(ServiceOps):
    """Blocking request/response client over one TCP connection."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = DEFAULT_TIMEOUT_S,
        connect_timeout: float | None = None,
        deadline_ms: float | None = None,
    ):
        self.host = host
        self.port = port
        #: When set, every request is stamped with this remaining-budget
        #: deadline (per request, in milliseconds) unless the call
        #: passes its own.  The server refuses expired work unstarted
        #: and cancels work that outlives the budget.
        self.deadline_ms = deadline_ms
        self._next_id = 1
        try:
            self._sock = socket.create_connection(
                (host, port),
                timeout=connect_timeout if connect_timeout is not None else timeout,
            )
        except socket.timeout as exc:
            raise ServiceTimeoutError(
                f"timed out connecting to {host}:{port}"
            ) from exc
        self._sock.settimeout(timeout)

    def settimeout(self, timeout: float | None) -> None:
        """Adjust the per-socket-operation timeout on the live connection."""
        if self._sock is not None:
            self._sock.settimeout(timeout)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    # -- the request core ------------------------------------------------------

    def request(
        self,
        op: str,
        args: dict | None = None,
        *,
        deadline_ms: float | None = None,
    ) -> dict:
        """Send one request and return the ``result`` payload.

        ``deadline_ms`` stamps the frame with the caller's remaining
        budget (falling back to the client-wide :attr:`deadline_ms`);
        the server — and, through a router, every shard — enforces it.

        Raises :class:`ServiceError` for error frames and
        :class:`ServiceProtocolError` for wire-level violations.
        """
        if self._sock is None:
            raise ServiceError("client is closed", error_type="protocol")
        request_id = self._next_id
        self._next_id += 1
        budget = deadline_ms if deadline_ms is not None else self.deadline_ms
        write_frame_sock(
            self._sock, request_frame(request_id, op, args or {}, budget)
        )
        return decode_response(read_frame_sock(self._sock), request_id)
