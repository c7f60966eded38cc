"""Chaos-proxy tests: the retrying client against injected network faults.

Every test runs a real server on a thread, a :class:`ChaosProxy` in
front of it, and a :class:`RetryingClient` pointed at the proxy.  The
proxy injects one scripted fault per connection (reset, delay, dropped
ACK, truncated frame, blackhole); the client must ride through each
without wrong answers — and a retried append must apply exactly once.
"""

from __future__ import annotations

import socket

import pytest

from repro.core.bbs import BBS
from repro.errors import ServiceError, ServiceTimeoutError
from repro.service.handlers import PatternService
from repro.service.resilience import RetryingClient, RetryPolicy
from repro.service.server import start_server_thread
from repro.testing.netfaults import (
    Blackhole,
    ChaosProxy,
    Delay,
    DropResponse,
    ResetOnConnect,
    Stall,
    TruncateResponse,
)
from tests.conftest import make_random_database

#: Generous attempts, tight per-attempt reads: chaos rounds should win
#: by retrying, not by waiting.
CHAOS_POLICY = RetryPolicy(
    max_attempts=6,
    base_delay=0.02,
    max_delay=0.2,
    op_deadline=30.0,
    request_timeout=2.0,
    connect_timeout=2.0,
)


@pytest.fixture
def chaos():
    db = make_random_database(
        seed=17, n_transactions=140, n_items=28, max_len=7
    )
    bbs = BBS.from_database(db, m=128)
    service = PatternService(db, bbs)
    with start_server_thread(service) as handle:
        with ChaosProxy(handle.host, handle.port).start() as proxy:
            client = RetryingClient(
                "127.0.0.1", proxy.port, policy=CHAOS_POLICY, seed=99
            )
            try:
                yield db, service, proxy, client
            finally:
                client.close()


class TestFaultClasses:
    def test_passthrough_baseline(self, chaos):
        db, service, proxy, client = chaos
        payload = client.count([3, 9], exact=True)
        assert payload["exact"] == db.support([3, 9])
        assert payload["estimate"] >= payload["exact"]
        assert client.retries == 0

    def test_reset_on_connect_is_retried(self, chaos):
        db, service, proxy, client = chaos
        proxy.schedule(ResetOnConnect(), ResetOnConnect())
        payload = client.count([5], exact=True)
        assert payload["exact"] == db.support([5])
        assert proxy.faults_injected == 2
        assert client.retries >= 2

    def test_delay_is_absorbed_without_retry(self, chaos):
        db, service, proxy, client = chaos
        proxy.schedule(Delay(seconds=0.1, frames=1))
        payload = client.count([2], exact=True)
        assert payload["exact"] == db.support([2])
        assert proxy.faults_injected == 1

    def test_truncated_response_is_retried(self, chaos):
        db, service, proxy, client = chaos
        proxy.schedule(TruncateResponse(n_bytes=2))
        payload = client.count([7], exact=True)
        assert payload["exact"] == db.support([7])
        assert client.retries >= 1
        assert client.reconnects >= 1

    def test_blackhole_times_out_then_recovers(self, chaos):
        db, service, proxy, client = chaos
        client.policy = RetryPolicy(
            max_attempts=4,
            base_delay=0.02,
            op_deadline=15.0,
            request_timeout=0.3,
            connect_timeout=1.0,
        )
        proxy.schedule(Blackhole())
        payload = client.count([1], exact=True)
        assert payload["exact"] == db.support([1])
        assert client.retries >= 1

    def test_response_stall_times_out_then_recovers(self, chaos):
        """The slow-loris server: a trickled response must resolve
        through the client's own read timeout, then succeed on a fresh
        (unfaulted) connection."""
        db, service, proxy, client = chaos
        client.policy = RetryPolicy(
            max_attempts=3,
            base_delay=0.02,
            op_deadline=15.0,
            request_timeout=0.4,
            connect_timeout=1.0,
        )
        # 8-byte chunks at 8 B/s: a 1 s gap between dribbles, far past
        # the 0.4 s read timeout — the pause must exceed the timeout
        # because socket timeouts are per-recv, not per-frame.
        proxy.schedule(Stall(bytes_per_second=8.0, chunk=8))
        payload = client.count([4], exact=True)
        assert payload["exact"] == db.support([4])
        assert proxy.faults_injected == 1
        assert client.retries >= 1
        assert client.reconnects >= 1

    def test_request_dribble_still_completes(self, chaos):
        """A client trickling its frame in must not wedge the server:
        the dribbled request completes and later requests are served
        normally."""
        db, service, proxy, client = chaos
        proxy.schedule(
            Stall(direction="request", bytes_per_second=200.0, chunk=8)
        )
        payload = client.count([6], exact=True)
        assert payload["exact"] == db.support([6])
        assert proxy.faults_injected == 1
        assert client.retries == 0
        # The next request on the same connection is back to full speed.
        assert client.count([2], exact=True)["exact"] == db.support([2])

    def test_blackhole_exhausts_deadline_when_permanent(self, chaos):
        db, service, proxy, client = chaos
        client.policy = RetryPolicy(
            max_attempts=3,
            base_delay=0.01,
            op_deadline=2.0,
            request_timeout=0.2,
            connect_timeout=0.5,
        )
        proxy.schedule(Blackhole(), Blackhole(), Blackhole(), Blackhole())
        with pytest.raises(ServiceTimeoutError):
            client.count([1])


class TestExactlyOnce:
    def test_lost_ack_append_is_deduped(self, chaos):
        """The canonical retry hazard: the server applies the append,
        the ACK dies on the wire, the client retries — the transaction
        must exist exactly once."""
        db, service, proxy, client = chaos
        before = client.status()["n_transactions"]
        client.close()  # the next request dials fresh and meets the fault
        marker = 9001
        proxy.schedule(DropResponse())
        payload = client.append([marker])
        assert payload["deduped"] is True  # answered from the token window
        assert client.retries >= 1
        after = client.status()
        assert after["n_transactions"] == before + 1
        exact = client.count([marker], exact=True)["exact"]
        assert exact == 1
        assert service.idempotency.hits >= 1

    def test_string_of_faults_one_logical_append(self, chaos):
        db, service, proxy, client = chaos
        before = client.status()["n_transactions"]
        client.close()  # the next request dials fresh and meets the fault
        marker = 9002
        proxy.schedule(ResetOnConnect(), DropResponse(), TruncateResponse())
        payload = client.append([marker])
        assert payload["n_transactions"] == before + 1
        assert client.count([marker], exact=True)["exact"] == 1

    def test_distinct_appends_get_distinct_tokens(self, chaos):
        db, service, proxy, client = chaos
        before = client.status()["n_transactions"]
        client.append([9003])
        client.append([9003])
        assert client.status()["n_transactions"] == before + 2
        assert client.count([9003], exact=True)["exact"] == 2


class TestNonIdempotentOps:
    def test_mine_submit_not_retried_after_send(self, chaos):
        """A dropped mine ACK must surface as an error, not a silent
        duplicate job."""
        db, service, proxy, client = chaos
        proxy.schedule(DropResponse())
        with pytest.raises((ServiceError, OSError)):
            client.mine(20)
        assert len(service._jobs) == 1  # applied once, never resubmitted

    def test_reset_after_connect_not_retried_for_mine(self, chaos):
        """Once the connection is up the submit may have reached the
        server; a conservative client must not resend it."""
        db, service, proxy, client = chaos
        proxy.schedule(ResetOnConnect())
        with pytest.raises(OSError):
            client.mine(30)
        assert client.retries == 0
        assert len(service._jobs) == 0  # proxy reset before the relay

    def test_mine_retries_pure_connect_failures(self):
        """Nothing was sent when connect() itself fails, so even the
        non-idempotent submit retries those."""
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()  # nobody listens: every dial is refused
        client = RetryingClient(
            "127.0.0.1",
            dead_port,
            policy=RetryPolicy(
                max_attempts=3, base_delay=0.01, op_deadline=5.0
            ),
        )
        with pytest.raises(OSError):
            client.mine(20)
        assert client.retries == 2


class TestProxyLifecycle:
    def test_close_wakes_the_accept_loop_promptly(self):
        import threading
        import time

        with ChaosProxy("127.0.0.1", 1).start() as proxy:
            accept_thread = proxy._accept_thread
            assert accept_thread.is_alive()
            started = time.monotonic()
            proxy.close()
            elapsed = time.monotonic() - started
        assert elapsed < 1.0
        assert not accept_thread.is_alive()
        assert not any(
            thread.name == "chaos-proxy-accept" and thread.is_alive()
            for thread in threading.enumerate()
        )
