"""The retry core's policy, with no sockets.

A fake clock and scripted attempt outcomes drive
:class:`~repro.service.resilience.RetryCore` the way a transport does:
once with the policy fields of :class:`RetryingClient` (the caller) and
once with those of :class:`ShardLink` (the router's hop to a shard).
Every row of the "Retry semantics" table in docs/wire_protocol.md is
checked for a read, a tokened append, a tokenless append and a mine;
the tests after the table pin where the two policies differ on purpose.
"""

from __future__ import annotations

import asyncio
import inspect
import random

import pytest

from repro.errors import (
    CircuitOpenError,
    DegradedError,
    OverloadedError,
    ServiceError,
    ServiceProtocolError,
    ServiceTimeoutError,
)
from repro.service.protocol import CURRENT_DEADLINE, Deadline
from repro.service.resilience import (
    TOKEN_MIN,
    AIMDLimiter,
    CircuitBreaker,
    RetryCore,
    RetryingClient,
    RetryPolicy,
)
from repro.service.shard.router import ShardLink

POLICY = RetryPolicy(
    max_attempts=3,
    base_delay=0.01,
    max_delay=0.05,
    jitter=0.0,
    op_deadline=10.0,
    request_timeout=2.0,
    connect_timeout=1.0,
)

#: The two callers whose policy fields the core runs under.
CALLERS = {"client": RetryingClient, "link": ShardLink}

OK = {"ok": True}


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_core(caller: str, *, breaker=None, limiter=None) -> RetryCore:
    """A bare core carrying ``caller``'s policy fields and a fake clock."""
    clock = FakeClock()
    core = RetryCore(
        "127.0.0.1",
        9,
        policy=POLICY,
        breaker=breaker or CircuitBreaker(clock=clock),
        limiter=limiter,
        rng=random.Random(1),
        clock=clock,
    )
    core.retry_sheds = CALLERS[caller].retry_sheds
    core.forwards_budget = CALLERS[caller].forwards_budget
    return core


class BeforeSend:
    """An attempt that failed before the request could hit the wire."""

    def __init__(self, exc: Exception):
        self.exc = exc


class Trace:
    def __init__(self):
        self.attempts = 0
        self.pauses: list[float] = []
        self.result = None
        self.error: Exception | None = None


def play(core: RetryCore, op: str, args: dict, outcomes, **begin) -> Trace:
    """Drive ``core`` through one logical op, one outcome per attempt.

    An outcome is a result, an exception raised after the send, or a
    :class:`BeforeSend`.  Pauses advance the fake clock, as a sleep
    would; whatever the core raises lands in ``trace.error``.
    """
    trace = Trace()
    script = iter(outcomes)
    try:
        call = core._begin(op, args, **begin)
        while True:
            core._next_attempt(call)
            trace.attempts = call.attempt
            outcome = next(script)
            if isinstance(outcome, BeforeSend):
                exc = outcome.exc
            else:
                call.sent = True
                exc = outcome if isinstance(outcome, Exception) else None
            if exc is None:
                core._succeeded()
                trace.result = outcome
                return trace
            pause = core._failed(call, exc)
            trace.pauses.append(pause)
            core._clock.advance(pause)
    except Exception as exc:
        trace.error = exc
        return trace


# -- the "Retry semantics" table ---------------------------------------------

OPS = {
    "read": ("count", {"items": [1, 2]}),
    "append_token": ("append", {"items": [1], "token": TOKEN_MIN + 7}),
    "append_no_token": ("append", {"items": [1]}),
    "mine": ("mine", {"min_support": 2}),
}


def _failures():
    """(row, failure factory, retried per op column, per caller)."""
    every = {op: True for op in OPS}
    never = {op: False for op in OPS}
    safe_only = {
        "read": True,
        "append_token": True,
        "append_no_token": False,
        "mine": False,
    }
    return [
        ("connect refused", lambda: BeforeSend(ConnectionRefusedError()),
         {"client": every, "link": every}),
        ("connect timeout",
         lambda: BeforeSend(ServiceTimeoutError("connect timed out")),
         {"client": every, "link": every}),
        ("reset after send", lambda: ConnectionResetError("reset"),
         {"client": safe_only, "link": safe_only}),
        ("EOF mid-frame",
         lambda: ServiceProtocolError("connection closed mid-frame"),
         {"client": safe_only, "link": safe_only}),
        ("read timeout", lambda: ServiceTimeoutError("timed out reading"),
         {"client": safe_only, "link": safe_only}),
        ("overloaded", lambda: OverloadedError("shed", retry_after=0.05),
         {"client": every, "link": never}),
        ("shutting_down",
         lambda: ServiceError("draining", error_type="shutting_down"),
         {"client": safe_only, "link": safe_only}),
        ("timeout frame",
         lambda: ServiceError("too slow", error_type="timeout"),
         {"client": safe_only, "link": safe_only}),
        ("bad_request",
         lambda: ServiceError("malformed", error_type="bad_request"),
         {"client": never, "link": never}),
        ("query", lambda: ServiceError("unknown job", error_type="query"),
         {"client": never, "link": never}),
        ("degraded", lambda: DegradedError("read-only"),
         {"client": never, "link": never}),
        ("internal", lambda: ServiceError("bug", error_type="internal"),
         {"client": never, "link": never}),
    ]


TABLE = [
    pytest.param(caller, op, make_failure, expected[caller][op],
                 id=f"{caller}-{row}-{op}")
    for row, make_failure, expected in _failures()
    for caller in CALLERS
    for op in OPS
]


@pytest.mark.parametrize("caller, op, make_failure, retried", TABLE)
def test_retry_semantics_table(caller, op, make_failure, retried):
    failure = make_failure()
    name, args = OPS[op]
    trace = play(make_core(caller), name, args, [failure, OK])
    if retried:
        assert trace.error is None
        assert trace.result is OK
        assert trace.attempts == 2
    else:
        raised = failure.exc if isinstance(failure, BeforeSend) else failure
        assert trace.error is raised
        assert trace.attempts == 1


@pytest.mark.parametrize("caller", CALLERS)
def test_attempts_are_bounded_by_the_policy(caller):
    core = make_core(caller)
    trace = play(core, "count", {"items": [1]}, [ConnectionResetError()] * 5)
    assert isinstance(trace.error, ConnectionResetError)
    assert trace.attempts == POLICY.max_attempts
    assert core.retries == POLICY.max_attempts - 1
    assert trace.pauses == [0.01, 0.02]  # capped exponential backoff


@pytest.mark.parametrize("caller", CALLERS)
def test_one_deadline_spans_every_attempt(caller):
    core = make_core(caller)
    trace = play(
        core,
        "count",
        {"items": [1]},
        [ConnectionResetError()] * 5,
        deadline=0.015,
    )
    assert isinstance(trace.error, ServiceTimeoutError)
    assert "deadline exhausted after 2 attempt(s)" in str(trace.error)
    assert isinstance(trace.error.__cause__, ConnectionResetError)
    assert trace.pauses == [0.01, pytest.approx(0.005)]


@pytest.mark.parametrize("caller", CALLERS)
def test_only_unanswered_failures_count_against_the_breaker(caller):
    breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
    core = make_core(caller, breaker=breaker)
    play(core, "mine", {"min_support": 2}, [ConnectionResetError()])
    assert breaker.as_dict()["failures"] == 1
    play(core, "count", {"items": [1]},
         [ServiceError("malformed", error_type="bad_request")])
    assert breaker.as_dict()["failures"] == 0  # the peer answered
    trace = play(core, "count", {"items": [1]},
                 [ServiceError("x", error_type="shutting_down")] * 3)
    assert breaker.state == "open"
    assert isinstance(trace.error, CircuitOpenError)


@pytest.mark.parametrize("caller", CALLERS)
def test_reconnects_count_redials_after_the_first_attempt(caller):
    core = make_core(caller)
    call = core._begin("count", {"items": [1]})
    core._next_attempt(call)
    core._dialled(call)
    assert core.reconnects == 0
    core._failed(call, ConnectionResetError())
    core._next_attempt(call)
    core._dialled(call)
    assert core.reconnects == 1
    assert core.retries == 1


# -- differences kept on purpose ----------------------------------------------


class TestSheds:
    def test_client_retries_with_the_retry_after_floor_and_aimd_halving(self):
        limiter = AIMDLimiter(initial=8.0)
        core = make_core("client", limiter=limiter)
        trace = play(
            core,
            "mine",
            {"min_support": 2},
            [OverloadedError("shed", retry_after=0.3), OK],
        )
        assert trace.result is OK
        assert trace.pauses == [0.3]  # the floor beat the 10 ms backoff
        assert core.sheds_seen == 1
        assert core.retries == 1
        assert limiter.decreases == 1
        # Halved to 4 by the shed, then +1/4 for the success.
        assert limiter.limit == pytest.approx(4.25)

    def test_link_raises_a_shed_at_once(self):
        core = make_core("link")
        shed = OverloadedError("shed", retry_after=0.3)
        trace = play(core, "count", {"items": [1]}, [shed, OK])
        assert trace.error is shed
        assert trace.attempts == 1
        assert core.retries == 0

    @pytest.mark.parametrize("caller", CALLERS)
    def test_a_shed_is_a_healthy_answer_for_the_breaker(self, caller):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        core = make_core(caller, breaker=breaker)
        play(core, "count", {"items": [1]}, [OverloadedError("shed")])
        assert breaker.as_dict()["failures"] == 0
        assert breaker.state == "closed"


class TestPropagatedBudget:
    def _with_budget(self, core, seconds_left, body):
        budget = Deadline(core._clock() + seconds_left)
        token = CURRENT_DEADLINE.set(budget)
        try:
            return body()
        finally:
            CURRENT_DEADLINE.reset(token)

    def test_link_caps_its_deadline_at_the_budget(self):
        core = make_core("link")
        call = self._with_budget(
            core, 0.5, lambda: core._begin("count", {"items": [1]})
        )
        assert call.deadline_ts == pytest.approx(core._clock() + 0.5)

    def test_client_keeps_its_own_deadline(self):
        core = make_core("client")
        call = self._with_budget(
            core, 0.5, lambda: core._begin("count", {"items": [1]})
        )
        assert call.deadline_ts == pytest.approx(
            core._clock() + POLICY.op_deadline
        )

    def test_expired_budget_preempts_the_link_before_any_attempt(self):
        core = make_core("link")
        trace = self._with_budget(
            core, -0.001, lambda: play(core, "count", {"items": [1]}, [OK])
        )
        assert isinstance(trace.error, ServiceTimeoutError)
        assert "never asked" in str(trace.error)
        assert core.deadline_preempts == 1
        assert trace.attempts == 0

    def test_expired_budget_does_not_stop_the_client(self):
        core = make_core("client")
        trace = self._with_budget(
            core, -0.001, lambda: play(core, "count", {"items": [1]}, [OK])
        )
        assert trace.result is OK
        assert core.deadline_preempts == 0


class TestDeadlineStamp:
    def test_client_stamps_its_own_remaining_budget(self):
        core = make_core("client")
        call = core._begin("count", {"items": [1]})
        assert core._stamp(call) == pytest.approx(10_000.0)
        core._clock.advance(2.0)
        assert core._stamp(call) == pytest.approx(8_000.0)

    def test_link_stamps_nothing_without_a_budget(self):
        core = make_core("link")
        assert core._stamp(core._begin("count", {"items": [1]})) is None

    def test_link_stamps_the_propagated_budget(self):
        core = make_core("link")
        token = CURRENT_DEADLINE.set(Deadline(core._clock() + 3.0))
        try:
            call = core._begin("count", {"items": [1]})
        finally:
            CURRENT_DEADLINE.reset(token)
        assert core._stamp(call) == pytest.approx(3_000.0)
        core._clock.advance(3.5)
        assert core._stamp(call) == 1.0  # floored, still parseable


class TestPerCallRequestTimeout:
    def test_only_the_link_accepts_it(self):
        link = inspect.signature(ShardLink.request).parameters
        client = inspect.signature(RetryingClient.request).parameters
        assert "request_timeout" in link
        assert "request_timeout" not in client

    def test_it_overrides_the_per_attempt_ceiling(self):
        core = make_core("link")
        slow = core._begin("job", {"job_id": "j"}, request_timeout=60.0)
        default = core._begin("job", {"job_id": "j"})
        assert slow.ceiling == 60.0
        assert default.ceiling == POLICY.request_timeout


class TestCancellation:
    def test_link_drops_its_connection_when_cancelled(self):
        class FakeWriter:
            closed = False

            def close(self):
                self.closed = True

        link = ShardLink(
            "127.0.0.1", 9, policy=POLICY, rng=random.Random(1)
        )
        writer = FakeWriter()
        link._reader, link._writer = object(), writer

        async def never_answers(op, args, call):
            await asyncio.Event().wait()

        link._roundtrip = never_answers

        async def scenario():
            task = asyncio.ensure_future(link.request("count", {"items": [1]}))
            for _ in range(3):
                await asyncio.sleep(0)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        asyncio.run(scenario())
        assert writer.closed
        assert link._writer is None and link._reader is None


class TestBreakerGate:
    @pytest.mark.parametrize("caller", CALLERS)
    def test_an_open_breaker_refuses_before_any_attempt(self, caller):
        breaker = CircuitBreaker(failure_threshold=1, clock=FakeClock())
        breaker.record_failure()
        core = make_core(caller, breaker=breaker)
        trace = play(core, "count", {"items": [1]}, [OK])
        assert isinstance(trace.error, CircuitOpenError)
        assert trace.attempts == 0


class TestTokenlessAppend:
    @pytest.mark.parametrize("caller", CALLERS)
    @pytest.mark.parametrize("failure", [
        ConnectionResetError("reset"),
        ServiceTimeoutError("timed out reading"),
        ServiceError("draining", error_type="shutting_down"),
    ])
    def test_never_resent_after_the_request_hit_the_wire(self, caller, failure):
        core = make_core(caller)
        trace = play(core, "append", {"items": [1]}, [failure, OK])
        assert trace.error is failure
        assert core.retries == 0

    @pytest.mark.parametrize("caller", CALLERS)
    def test_resent_when_nothing_was_sent(self, caller):
        core = make_core(caller)
        trace = play(
            core,
            "append",
            {"items": [1]},
            [BeforeSend(ConnectionRefusedError()), OK],
        )
        assert trace.result is OK
        assert core.retries == 1

    def test_the_retrying_client_mints_a_token_the_plain_one_does_not(self):
        from repro.service.client import ServiceOps

        class Recorder(ServiceOps):
            def request(self, op, args=None):
                return args

        retrying = RetryingClient("127.0.0.1", 9, seed=3)
        minted = retrying._append_token(None)
        assert minted >= TOKEN_MIN
        assert retrying._append_token(12345) == 12345
        assert "token" not in Recorder().append([1])
