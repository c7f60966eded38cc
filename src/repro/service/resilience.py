"""Client-side resilience: retries, deadlines, and a circuit breaker.

:class:`RetryCore` owns every retry decision, without I/O; the blocking
:class:`RetryingClient` and the router's asyncio
:class:`~repro.service.shard.router.ShardLink` are thin loops around
it.  :class:`RetryingClient` wraps :class:`ServiceClient` with the
machinery a long-lived caller needs against a server that crashes,
restarts, drops connections, or stalls:

* a **per-operation deadline** spanning all attempts,
* **capped exponential backoff with jitter** between attempts,
* **automatic reconnect** — every transport failure drops the
  connection and the next attempt dials fresh,
* a **circuit breaker** that stops hammering a server that has failed
  repeatedly, letting one probe through after a cool-down,
* **idempotency tokens** on ``append``: the client generates a random
  64-bit token per logical append and resends the *same* token on every
  retry, so a retry after a lost ACK can never double-insert (the
  server dedupes in :class:`IdempotencyWindow`).

Which failures are retried
--------------------------
Transport failures (``OSError``, timeouts, mid-frame truncation,
connection resets) and the transient wire errors ``shutting_down`` and
``timeout`` are retried — but only for operations that are safe to
resend: reads, and appends carrying a token; a failure before the
request was sent is retried for any operation.  A typed ``overloaded`` shed is resent for any operation (the
server provably dispatched nothing).  Definitive answers
(``bad_request``, ``query``, ``degraded``, ``internal``) are never
retried; the server spoke, retrying will not change its mind.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from repro.errors import (
    CircuitOpenError,
    OverloadedError,
    ServiceError,
    ServiceTimeoutError,
)
from repro.service.client import ServiceClient, ServiceOps
from repro.service.protocol import CURRENT_DEADLINE, Deadline

#: Idempotency tokens live in [2**32, 2**63).  The floor keeps them
#: disjoint from positional transaction ids (small integers counted
#: from 0), which is what lets a restarted server rebuild its token
#: window from the journal: any persisted tid >= 2**32 *is* a token.
TOKEN_MIN = 1 << 32
TOKEN_MAX = 1 << 63

#: Operations that are always safe to resend.  ``promote`` qualifies
#: because promoting an already-primary server is a converging no-op;
#: the replication reads (``replicate``/``snapshot``/``snapshot_fetch``)
#: never mutate server state at all.
IDEMPOTENT_OPS = frozenset(
    {
        "count", "count_batch", "status", "metrics", "health", "job",
        "patterns", "recover", "replicate", "snapshot", "snapshot_fetch",
        "promote", "shardmap",
    }
)

#: Wire error types that describe a transient server condition.
RETRYABLE_ERROR_TYPES = frozenset({"overloaded", "shutting_down", "timeout"})


def make_token(rng: random.Random | None = None) -> int:
    """A fresh idempotency token for one logical append."""
    return (rng or random).randrange(TOKEN_MIN, TOKEN_MAX)


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs for :class:`RetryingClient`.

    ``op_deadline`` bounds one logical operation across *all* attempts,
    backoff sleeps included; ``request_timeout`` bounds a single
    attempt's socket reads so a blackholed connection cannot eat the
    whole deadline.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5
    op_deadline: float = 30.0
    request_timeout: float = 10.0
    connect_timeout: float = 5.0

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        delay = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        return delay * (1.0 + self.jitter * rng.random())


class CircuitBreaker:
    """Closed / open / half-open failure gate.

    ``failure_threshold`` consecutive failures open the circuit;
    requests are then refused locally for ``reset_after`` seconds.
    After the cool-down the breaker is *half-open*: attempts are allowed
    again, and the first success closes it while a further failure
    re-opens it for another cool-down.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        reset_after: float = 5.0,
        clock=time.monotonic,
    ):
        self.failure_threshold = failure_threshold
        self.reset_after = reset_after
        self._clock = clock
        self._failures = 0
        self._opened_at: float | None = None
        self.opens = 0

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= self.reset_after:
            return "half_open"
        return "open"

    def allow(self) -> bool:
        """May a request be attempted right now?"""
        return self.state != "open"

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None

    def record_failure(self) -> None:
        self._failures += 1
        if self._opened_at is not None:
            if self.state == "half_open":
                self._opened_at = self._clock()  # failed probe: re-open
                self.opens += 1
        elif self._failures >= self.failure_threshold:
            self._opened_at = self._clock()
            self.opens += 1

    def as_dict(self) -> dict:
        return {
            "state": self.state,
            "failures": self._failures,
            "opens": self.opens,
        }


class AIMDLimiter:
    """Additive-increase / multiplicative-decrease concurrency limiter.

    The client-side half of the server's admission control: the allowed
    in-flight concurrency grows by ``~1/limit`` per success (one extra
    slot per round-trip-full of successes) and halves on every
    ``overloaded`` shed, the same control law TCP uses for congestion
    windows.  Shared by every thread using one :class:`RetryingClient`
    (or a pool of them against the same server), so a fleet of callers
    converges onto the capacity the server actually has instead of
    hammering it into further shedding.
    """

    def __init__(
        self,
        *,
        initial: float = 8.0,
        min_limit: float = 1.0,
        max_limit: float = 64.0,
        increase: float = 1.0,
        decrease: float = 0.5,
    ):
        self._cond = threading.Condition()
        self.limit = float(initial)
        self.min_limit = float(min_limit)
        self.max_limit = float(max_limit)
        self.increase = increase
        self.decrease = decrease
        self.in_flight = 0
        self.acquired = 0
        self.acquire_timeouts = 0
        self.decreases = 0

    def acquire(self, timeout: float | None = None) -> bool:
        """Take one slot; False if the window stayed full past ``timeout``."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self.in_flight >= int(self.limit):
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    self.acquire_timeouts += 1
                    return False
                self._cond.wait(remaining)
            self.in_flight += 1
            self.acquired += 1
            return True

    def release(self) -> None:
        with self._cond:
            self.in_flight = max(0, self.in_flight - 1)
            self._cond.notify()

    def on_success(self) -> None:
        """Additive increase: ~one extra slot per window of successes."""
        with self._cond:
            self.limit = min(
                self.max_limit, self.limit + self.increase / max(1.0, self.limit)
            )
            self._cond.notify()

    def on_overloaded(self) -> None:
        """Multiplicative decrease on a shed."""
        with self._cond:
            self.limit = max(self.min_limit, self.limit * self.decrease)
            self.decreases += 1

    def as_dict(self) -> dict:
        with self._cond:
            return {
                "limit": round(self.limit, 2),
                "in_flight": self.in_flight,
                "acquired": self.acquired,
                "acquire_timeouts": self.acquire_timeouts,
                "decreases": self.decreases,
            }


#: The four classes of a failed attempt (see :func:`classify`).
TRANSPORT = "transport"  # the link failed: refused, reset, EOF, timed out
TRANSIENT = "transient"  # the peer answered "not now" (shutting_down, timeout)
SHED = "shed"  # a typed ``overloaded``: healthy, provably dispatched nothing
DEFINITIVE = "definitive"  # any other answer; resending will not change it

#: Classes in which the peer gave no answer of its own: the router
#: fails over to a follower on these, never on a shed or a definitive.
UNANSWERED = frozenset({TRANSPORT, TRANSIENT})


def classify(exc: BaseException) -> str:
    """Which of the four failure classes ``exc`` falls in.

    An open circuit counts as transport: the breaker opened because the
    link kept failing.
    """
    if isinstance(exc, OverloadedError):
        return SHED
    if isinstance(exc, (OSError, ServiceTimeoutError, CircuitOpenError)):
        return TRANSPORT
    if isinstance(exc, ServiceError):
        if exc.error_type == "protocol":
            return TRANSPORT
        if exc.error_type in RETRYABLE_ERROR_TYPES:
            return TRANSIENT
    return DEFINITIVE


@dataclass(slots=True)
class _Call:
    """One logical operation's progress through the retry core."""

    op: str
    idempotent: bool
    deadline_ts: float
    ceiling: float  # per-attempt bound on the request/response exchange
    budget: Deadline | None  # the propagated caller budget, if forwarded
    attempt: int = 0
    sent: bool = False  # the request may have hit the wire
    last_exc: Exception | None = None


class RetryCore:
    """Every retry decision for one endpoint, with no I/O of its own.

    A transport drives it: :meth:`_begin` per logical operation, then per
    attempt :meth:`_next_attempt` (breaker and deadline gate), its own
    dial and send (stamping :meth:`_stamp`, setting ``call.sent``), and
    :meth:`_succeeded` or :meth:`_failed`, which raises or returns the
    pause before the next attempt.  The core drops the connection
    through the transport's ``close()``.

    Two policy fields set by the transports tell them apart:
    ``retry_sheds`` (resend a typed ``overloaded`` after the
    ``retry_after`` floor and an AIMD halving, or raise it at once) and
    ``forwards_budget`` (cap the deadline at the propagated
    :data:`~repro.service.protocol.CURRENT_DEADLINE`, preempt an expired
    one before any attempt and stamp only it; otherwise stamp the op's
    own remaining budget).  For the breaker a shed is an answer from a
    live peer: a success, like every definitive error.
    """

    retry_sheds = True
    forwards_budget = False

    def __init__(
        self,
        host: str,
        port: int,
        *,
        policy: RetryPolicy,
        rng: random.Random,
        breaker: CircuitBreaker | None = None,
        limiter: AIMDLimiter | None = None,
        clock=time.monotonic,
    ):
        self.host = host
        self.port = port
        self.policy = policy
        self.breaker = breaker or CircuitBreaker()
        #: Optional shared AIMD window fed by sheds and successes.
        self.limiter = limiter
        self._rng = rng
        self._clock = clock
        self.retries = 0
        self.reconnects = 0
        self.sheds_seen = 0
        #: Operations refused before any attempt because the propagated
        #: deadline had already expired — the zero-orphaned-work proof.
        self.deadline_preempts = 0

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def close(self) -> None:
        """Drop the connection (transports override; the core has none)."""

    def _begin(
        self,
        op: str,
        args: dict | None,
        idempotent: bool | None = None,
        deadline: float | None = None,
        request_timeout: float | None = None,
    ) -> _Call:
        """Start one logical operation.

        ``idempotent`` defaults from the op: reads always, ``append``
        only when ``args`` carries an idempotency token.
        """
        if idempotent is None:
            idempotent = op in IDEMPOTENT_OPS or (
                op == "append" and bool((args or {}).get("token"))
            )
        policy = self.policy
        deadline_ts = self._clock() + (
            deadline if deadline is not None else policy.op_deadline
        )
        budget = CURRENT_DEADLINE.get() if self.forwards_budget else None
        if budget is not None:
            # Retrying past the point where the original caller is gone
            # is pure waste.
            deadline_ts = min(deadline_ts, budget.expires_at)
        ceiling = (
            request_timeout if request_timeout is not None
            else policy.request_timeout
        )
        return _Call(op, idempotent, deadline_ts, ceiling, budget)

    def _next_attempt(self, call: _Call) -> float:
        """Gate the next attempt; the seconds left in the op deadline."""
        if call.attempt:
            self.retries += 1
        if not self.breaker.allow():
            raise CircuitOpenError(
                f"circuit open after repeated failures against {self.address}"
            )
        now = self._clock()
        remaining = call.deadline_ts - now
        if remaining <= 0:
            budget = call.budget
            if budget is not None and now >= budget.expires_at:
                self.deadline_preempts += 1
                raise ServiceTimeoutError(
                    f"propagated deadline expired before contacting "
                    f"{self.address}; the shard was never asked"
                ) from call.last_exc
            raise ServiceTimeoutError(
                f"operation {call.op!r} deadline exhausted after "
                f"{call.attempt} attempt(s) against {self.address}"
            ) from call.last_exc
        call.attempt += 1
        call.sent = False
        return remaining

    def _dialled(self, call: _Call) -> None:
        """The transport opened a new connection for this attempt."""
        if call.attempt > 1:
            self.reconnects += 1

    def _stamp(self, call: _Call) -> float | None:
        """The ``deadline_ms`` to stamp on this attempt's frame, if any."""
        if not self.forwards_budget:
            deadline_ts = call.deadline_ts
        elif call.budget is not None:
            deadline_ts = call.budget.expires_at
        else:
            return None
        # The floor keeps an almost-expired request parseable; the
        # peer's own pre-dispatch check refuses it if it runs out.
        return max(1.0, (deadline_ts - self._clock()) * 1000.0)

    def _succeeded(self) -> None:
        self.breaker.record_success()
        if self.limiter is not None:
            self.limiter.on_success()

    def _failed(self, call: _Call, exc: Exception) -> float:
        """Account a failed attempt: raise ``exc``, or return the pause."""
        kind = classify(exc)
        if kind == SHED:
            self.sheds_seen += 1
            self.breaker.record_success()
            if not self.retry_sheds:
                raise exc
            if self.limiter is not None:
                self.limiter.on_overloaded()
            retryable = True  # nothing was dispatched, whatever the op
        elif kind == DEFINITIVE:
            self.breaker.record_success()
            raise exc
        else:
            self.breaker.record_failure()
            self.close()
            retryable = call.idempotent or (kind == TRANSPORT and not call.sent)
        call.last_exc = exc
        if not retryable or call.attempt >= self.policy.max_attempts:
            raise exc
        pause = self.policy.backoff(call.attempt, self._rng)
        retry_after = getattr(exc, "retry_after", None)
        if retry_after:
            # The server's own capacity estimate is a *floor* on the
            # backoff, never a ceiling.
            pause = max(pause, float(retry_after))
        return min(pause, max(0.0, call.deadline_ts - self._clock()))


class RetryingClient(ServiceOps, RetryCore):
    """A reconnecting, retrying, deadline-bound service client.

    Has the :class:`ServiceClient` operation surface; each call is one
    *logical* operation that may span several attempts over several TCP
    connections.  Connections are dialled lazily and dropped on any
    transport failure.  Appends get an idempotency token when the
    caller supplies none.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        limiter: AIMDLimiter | None = None,
        seed: int | None = None,
    ):
        super().__init__(
            host,
            port,
            policy=policy or RetryPolicy(),
            breaker=breaker,
            limiter=limiter,
            rng=random.Random(seed),
        )
        self._client: ServiceClient | None = None

    def close(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            client.close()

    def _append_token(self, token: int | None) -> int:
        # The same token rides every retry, so the server can dedupe.
        return make_token(self._rng) if token is None else token

    def request(
        self,
        op: str,
        args: dict | None = None,
        *,
        idempotent: bool | None = None,
        deadline: float | None = None,
    ) -> dict:
        """One logical operation, retried per the policy.

        With a :attr:`limiter`, the operation holds one AIMD slot for
        its whole duration.
        """
        call = self._begin(op, args, idempotent, deadline)
        limiter = self.limiter
        if limiter is not None and not limiter.acquire(
            timeout=max(0.0, call.deadline_ts - self._clock())
        ):
            raise ServiceTimeoutError(
                f"operation {op!r} deadline exhausted waiting for an "
                f"AIMD concurrency slot"
            )
        try:
            while True:
                remaining = self._next_attempt(call)
                try:
                    client = self._client
                    if client is None:
                        client = self._client = ServiceClient(
                            self.host,
                            self.port,
                            timeout=min(call.ceiling, remaining),
                            connect_timeout=min(
                                self.policy.connect_timeout, remaining
                            ),
                        )
                        self._dialled(call)
                    else:
                        client.settimeout(min(call.ceiling, remaining))
                    call.sent = True
                    result = client.request(
                        op, args, deadline_ms=self._stamp(call)
                    )
                except (ServiceError, OSError) as exc:
                    pause = self._failed(call, exc)
                    if pause:
                        time.sleep(pause)
                else:
                    self._succeeded()
                    return result
        finally:
            if limiter is not None:
                limiter.release()


#: Append tokens a node's dedupe window remembers.
IDEMPOTENCY_CAPACITY = 4096


class IdempotencyWindow:
    """Server-side bounded map of append tokens → applied positions.

    The window remembers the last ``capacity`` tokens in arrival order;
    a retried append whose token is still in the window is answered
    from the map instead of re-applied.  Durable servers persist each
    token as the journal record's transaction id, so the window can be
    re-seeded after a crash (see :func:`seed`) and dedupe survives
    kill -9.
    """

    def __init__(self, capacity: int = IDEMPOTENCY_CAPACITY):
        if capacity <= 0:
            raise ValueError("idempotency window capacity must be positive")
        self.capacity = capacity
        self._tokens: dict[int, int] = {}
        self.hits = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._tokens)

    def lookup(self, token: int) -> int | None:
        """The applied position for ``token``, or None if unseen."""
        position = self._tokens.get(token)
        if position is not None:
            self.hits += 1
        return position

    def record(self, token: int, position: int) -> None:
        """Remember that ``token`` was applied at ``position``."""
        if token in self._tokens:
            self._tokens[token] = position
            return
        while len(self._tokens) >= self.capacity:
            oldest = next(iter(self._tokens))
            del self._tokens[oldest]
            self.evictions += 1
        self._tokens[token] = position

    def seed(self, pairs) -> int:
        """Pre-load ``(token, position)`` pairs (journal replay at boot)."""
        n = 0
        for token, position in pairs:
            self.record(token, position)
            n += 1
        return n

    def as_dict(self) -> dict:
        return {
            "size": len(self._tokens),
            "capacity": self.capacity,
            "hits": self.hits,
            "evictions": self.evictions,
        }
