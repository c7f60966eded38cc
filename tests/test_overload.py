"""Overload robustness: admission, deadlines, shedding, brownout.

PR 9's contract (DESIGN.md §11) in test form:

* a queue-full request is shed *at enqueue* with a typed ``overloaded``
  error carrying ``retry_after`` — fast, nothing dispatched, and the
  connection survives the shed;
* a propagated ``deadline_ms`` budget is enforced at every hop — the
  server refuses expired work unstarted, and a router whose budget ran
  out never asks a shard at all (**zero orphaned work**);
* sustained shedding flips the server into brownout, where ``mine``
  downgrades to the cached/approximate path marked ``degraded_load``;
* the client side cooperates: ``retry_after`` floors the backoff, the
  AIMD window halves on sheds, and the circuit breaker stays closed —
  a shed is a healthy answer, not a failure.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import socket
import threading
import time

import pytest

from repro.core.bbs import BBS
from repro.errors import (
    OverloadedError,
    ServiceError,
    ServiceProtocolError,
    ServiceTimeoutError,
)
from repro.service.client import ServiceClient
from repro.service.handlers import PatternService
from repro.service.protocol import (
    CURRENT_DEADLINE,
    Deadline,
    encode_frame,
    parse_request,
    read_frame,
    request_frame,
    write_frame,
)
from repro.service.resilience import AIMDLimiter, RetryingClient, RetryPolicy
from repro.service.server import (
    AdmissionController,
    AdmissionLimits,
    classify_op,
    start_server_thread,
)
from repro.service.shard.router import ShardLink, ShardRouter
from repro.service.shard.shardmap import build_map
from tests.conftest import make_random_database
from tests.test_sharding import FAST_POLICY, split_ranges

M = 128


def make_service(seed=11):
    db = make_random_database(
        seed=seed, n_transactions=160, n_items=30, max_len=7
    )
    bbs = BBS.from_database(db, m=M)
    return db, PatternService(db, bbs)


# --------------------------------------------------------------------------
# Op classification and wire-level deadline parsing
# --------------------------------------------------------------------------


class TestClassifyOp:
    def test_control_ops_bypass_the_queues(self):
        for op in ("status", "metrics", "health", "shutdown", "cancel"):
            assert classify_op(op) == "control"

    def test_mine_and_write_classes(self):
        assert classify_op("mine") == "mine"
        assert classify_op("append") == "write"

    def test_reads_and_unknown_ops_share_the_read_class(self):
        # Unknown ops are admitted and answered ``bad_request`` by the
        # handler — "no such op" must not masquerade as "overloaded".
        assert classify_op("count") == "read"
        assert classify_op("definitely_not_an_op") == "read"


class TestDeadlineParsing:
    def test_budget_converts_to_monotonic_deadline(self):
        deadline = Deadline.from_budget_ms(50.0)
        assert 0.0 < deadline.remaining_s <= 0.05 + 1e-6
        assert not deadline.expired

    def test_expired_budget_reads_zero_not_negative(self):
        deadline = Deadline.after(-1.0)
        assert deadline.expired
        assert deadline.remaining_s == 0.0
        assert deadline.remaining_ms == 0.0

    def test_request_accepts_a_deadline(self):
        request = parse_request(
            {"id": 1, "op": "count", "args": {}, "deadline_ms": 250}
        )
        assert request.deadline_ms == 250.0

    def test_request_without_deadline_is_unbounded(self):
        request = parse_request({"id": 1, "op": "count", "args": {}})
        assert request.deadline_ms is None

    @pytest.mark.parametrize("bad", [0, -5, -0.5, "100", True, [250]])
    def test_non_positive_or_non_numeric_deadline_is_refused(self, bad):
        with pytest.raises(ServiceProtocolError, match="deadline_ms"):
            parse_request(
                {"id": 1, "op": "count", "args": {}, "deadline_ms": bad}
            )


# --------------------------------------------------------------------------
# AdmissionController units
# --------------------------------------------------------------------------


def run(coro):
    return asyncio.run(coro)


def tight_controller(**kwargs) -> AdmissionController:
    defaults = dict(
        limits={"read": AdmissionLimits(max_concurrent=1, max_queue=1)},
        mine_backlog=1,
        brownout_after=100,  # stay out of brownout unless the test wants it
    )
    defaults.update(kwargs)
    return AdmissionController(**defaults)


class TestAdmissionController:
    def test_admits_up_to_the_concurrency_limit(self):
        async def scenario():
            ctl = tight_controller()
            await ctl.acquire("read", timeout=0.1)
            snapshot = ctl.as_dict()
            assert snapshot["classes"]["read"]["active"] == 1
            ctl.release("read")
            assert ctl.as_dict()["classes"]["read"]["active"] == 0

        run(scenario())

    def test_queue_full_sheds_typed_fast_and_enqueues_nothing(self):
        async def scenario():
            ctl = tight_controller(
                limits={"read": AdmissionLimits(max_concurrent=1, max_queue=0)}
            )
            await ctl.acquire("read", timeout=0.1)
            started = time.perf_counter()
            with pytest.raises(OverloadedError) as err:
                await ctl.acquire("read", timeout=5.0)
            elapsed = time.perf_counter() - started
            # The shed path decides at enqueue: no waiting, no slot.
            assert elapsed < 0.05
            assert err.value.retry_after is not None
            assert err.value.retry_after > 0.0
            stats = ctl.as_dict()["classes"]["read"]
            assert stats["sheds"] == 1
            assert stats["queued"] == 0

        run(scenario())

    def test_release_hands_the_slot_to_the_oldest_waiter(self):
        async def scenario():
            ctl = tight_controller()
            await ctl.acquire("read", timeout=0.1)
            waiter = asyncio.ensure_future(ctl.acquire("read", timeout=5.0))
            await asyncio.sleep(0.01)
            assert not waiter.done()
            assert ctl.as_dict()["classes"]["read"]["queued"] == 1
            ctl.release("read")
            await waiter  # the slot transferred; no shed, no timeout
            stats = ctl.as_dict()["classes"]["read"]
            assert stats["active"] == 1  # transferred, not re-counted
            assert stats["queued"] == 0
            assert stats["admitted"] == 2

        run(scenario())

    def test_queued_waiter_expires_with_its_budget(self):
        async def scenario():
            ctl = tight_controller()
            await ctl.acquire("read", timeout=0.1)
            with pytest.raises(ServiceTimeoutError, match="queued"):
                await ctl.acquire(
                    "read", timeout=5.0, deadline=Deadline.after(0.02)
                )
            assert ctl.as_dict()["deadline_expired"]["queued"] == 1
            # The dead waiter left the queue; a release must not hand
            # the slot to its corpse.
            assert ctl.as_dict()["classes"]["read"]["queued"] == 0
            ctl.release("read")
            await ctl.acquire("read", timeout=0.1)

        run(scenario())

    def test_mine_backlog_bounds_jobs_and_recovers_on_finish(self):
        ctl = tight_controller(mine_backlog=1)
        ctl.admit_mine_job(100)
        with pytest.raises(OverloadedError, match="mine backlog full"):
            ctl.admit_mine_job(100)
        assert ctl.mine_sheds == 1
        ctl.finish_mine_job(100, elapsed=0.2)
        ctl.admit_mine_job(100)  # the slot came back
        assert ctl.mine_jobs_admitted == 2

    def test_mine_backlog_is_weighted_by_cost(self):
        ctl = tight_controller(mine_backlog=64, mine_cost_cap=1000)
        ctl.admit_mine_job(900)
        with pytest.raises(OverloadedError):
            ctl.admit_mine_job(200)  # 1100 > cap, though only 1 job deep
        ctl.admit_mine_job(50)  # cheap job still fits under the cap

    def test_brownout_enters_on_sustained_sheds_and_recovers_lazily(self):
        ctl = tight_controller(
            mine_backlog=0, brownout_after=2, brownout_recover_s=0.05
        )
        for _ in range(2):
            with pytest.raises(OverloadedError):
                ctl.admit_mine_job(1)
        assert ctl.browned_out
        assert ctl.brownout_entries == 1
        assert ctl.as_dict()["brownout"]["state"] == "browned_out"
        time.sleep(0.08)
        # Lazy recovery: queues are empty and the last shed is old.
        assert not ctl.browned_out
        assert ctl.as_dict()["brownout"]["state"] == "ok"

    def test_brownout_is_sticky_while_sheds_keep_landing(self):
        ctl = tight_controller(
            mine_backlog=0, brownout_after=1, brownout_recover_s=30.0
        )
        with pytest.raises(OverloadedError):
            ctl.admit_mine_job(1)
        assert ctl.browned_out
        assert ctl.browned_out  # repeated reads do not clear it early

    def test_as_dict_carries_every_overload_signal(self):
        snapshot = tight_controller().as_dict()
        assert set(snapshot["classes"]) == {"read", "write", "mine"}
        assert snapshot["mine_jobs"]["backlog"] == 1
        assert snapshot["deadline_expired"] == {
            "pre_dispatch": 0,
            "queued": 0,
            "running": 0,
        }
        for key in ("stalled_writes", "connection_sheds", "sheds_total"):
            assert key in snapshot


# --------------------------------------------------------------------------
# AIMD limiter units
# --------------------------------------------------------------------------


class TestAIMDLimiter:
    def test_additive_increase_on_success(self):
        limiter = AIMDLimiter(initial=4.0)
        before = limiter.limit
        for _ in range(4):  # one window of successes ≈ one extra slot
            limiter.on_success()
        # ~1/limit per success compounds slightly sub-linearly: a full
        # window of successes grows the window by just under one slot.
        assert before + 0.8 < limiter.limit <= before + 1.0

    def test_multiplicative_decrease_on_shed(self):
        limiter = AIMDLimiter(initial=8.0)
        limiter.on_overloaded()
        assert limiter.limit == pytest.approx(4.0)
        assert limiter.decreases == 1

    def test_limit_is_clamped_to_its_bounds(self):
        limiter = AIMDLimiter(initial=2.0, min_limit=1.0, max_limit=3.0)
        for _ in range(50):
            limiter.on_overloaded()
        assert limiter.limit == 1.0
        for _ in range(500):
            limiter.on_success()
        assert limiter.limit == 3.0

    def test_acquire_blocks_at_the_window_and_times_out(self):
        limiter = AIMDLimiter(initial=1.0)
        assert limiter.acquire(timeout=0.1)
        started = time.perf_counter()
        assert not limiter.acquire(timeout=0.05)
        assert time.perf_counter() - started >= 0.04
        assert limiter.acquire_timeouts == 1
        limiter.release()
        assert limiter.acquire(timeout=0.1)

    def test_release_wakes_a_blocked_acquirer(self):
        limiter = AIMDLimiter(initial=1.0)
        assert limiter.acquire()
        acquired = threading.Event()

        def blocked():
            if limiter.acquire(timeout=2.0):
                acquired.set()

        thread = threading.Thread(target=blocked)
        thread.start()
        time.sleep(0.02)
        assert not acquired.is_set()
        limiter.release()
        thread.join(timeout=2.0)
        assert acquired.is_set()


# --------------------------------------------------------------------------
# Server-level: shed semantics and deadline refusal over the wire
# --------------------------------------------------------------------------


class TestServerOverload:
    def shedding_server(self, **admission_kwargs):
        _, service = make_service()
        admission = AdmissionController(
            mine_backlog=0, brownout_after=10_000, **admission_kwargs
        )
        return service, start_server_thread(service, admission=admission)

    def test_mine_sheds_typed_with_retry_after_and_keeps_the_connection(self):
        service, handle = self.shedding_server()
        with handle:
            with ServiceClient("127.0.0.1", handle.port) as client:
                for _ in range(5):
                    started = time.perf_counter()
                    with pytest.raises(OverloadedError) as err:
                        client.request("mine", {"min_support": 0.2})
                    assert time.perf_counter() - started < 0.5
                    assert err.value.retry_after is not None
                    assert err.value.retry_after > 0.0
                # The shed was request-level: the same connection keeps
                # serving, and reads are untouched by the mine backlog.
                result = client.request("count", {"items": [1]})
                assert "estimate" in result
                metrics = client.request("metrics", {})
                assert metrics["overload"]["mine_jobs"]["sheds"] == 5
                assert metrics["overload"]["sheds_total"] == 5
        # Shed before submission: no mine job was ever created.
        assert len(service._jobs) == 0

    def test_expired_deadline_is_refused_unstarted(self):
        _, service = make_service()
        with start_server_thread(service) as handle:
            with ServiceClient("127.0.0.1", handle.port) as client:
                with pytest.raises(ServiceError) as err:
                    client.request(
                        "count", {"items": [1]}, deadline_ms=0.0001
                    )
                assert err.value.error_type == "timeout"
                assert "deadline" in str(err.value)
                metrics = client.request("metrics", {})
                expired = metrics["overload"]["deadline_expired"]
                assert expired["pre_dispatch"] >= 1
        # Refused unstarted: the handler never saw the op.
        assert service.request_counts.get("count", 0) == 0

    def test_a_receiver_that_never_reads_is_cut_off_at_the_write_timeout(self):
        _, service = make_service()
        write_timeout = 0.5
        batch = {"itemsets": [[i % 30, (i * 7 + 1) % 30] for i in range(1024)]}
        # About 56 KB per response: 200 of them overrun every buffer
        # between the server's transport and a 4 KB receive window.
        frames = b"".join(
            encode_frame(request_frame(i, "count_batch", batch)) for i in range(200)
        )
        with start_server_thread(service, write_timeout=write_timeout) as handle:
            server = handle.server
            stalled = socket.socket()
            stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            stalled.settimeout(30.0)
            stalled.connect(("127.0.0.1", handle.port))

            def pipeline():
                with contextlib.suppress(OSError):
                    stalled.sendall(frames)  # fails once the server cuts us off

            sender = threading.Thread(target=pipeline, daemon=True)
            sender.start()
            try:
                answered, last_progress = 0, time.monotonic()
                deadline = last_progress + 30.0
                while server.admission.stalled_writes == 0:
                    assert time.monotonic() < deadline, "the stalled write never timed out"
                    now_answered = service.request_counts.get("count_batch", 0)
                    if now_answered != answered:
                        answered, last_progress = now_answered, time.monotonic()
                    time.sleep(0.01)
                cut_after = time.monotonic() - last_progress
                assert 0 < answered < 200
                # The last answer that went out is where the write stalled.
                assert cut_after < write_timeout + 1.0
                while server.active_connections:
                    assert time.monotonic() < deadline, "the stalled link was kept"
                    time.sleep(0.01)
                # Cut off, not closed politely: the server dropped what it
                # had buffered, so only what already sat in this socket's
                # small receive window arrives before the reset.
                leftover = 0
                with contextlib.suppress(OSError):
                    while chunk := stalled.recv(65536):
                        leftover += len(chunk)
                assert leftover < 64 * 1024
                with ServiceClient("127.0.0.1", handle.port) as client:
                    overload = client.request("metrics", {})["overload"]
                    assert overload["stalled_writes"] == 1
                    assert "estimate" in client.request("count", {"items": [1]})
            finally:
                stalled.close()
                sender.join(timeout=10.0)

    def test_status_and_metrics_expose_the_load_section(self):
        _, service = make_service()
        with start_server_thread(service) as handle:
            with ServiceClient("127.0.0.1", handle.port) as client:
                status = client.request("status", {})
                assert status["load"]["state"] == "ok"
                assert status["load"]["sheds_total"] == 0
                assert set(status["load"]["queued"]) == {
                    "read",
                    "write",
                    "mine",
                }
                metrics = client.request("metrics", {})
                overload = metrics["overload"]
                assert overload["brownout"]["state"] == "ok"
                assert metrics["mine_cache"]["entries"] == 0


class TestBrownoutDegradedMine:
    def test_sustained_sheds_downgrade_mine_to_approximate(self):
        _, service = make_service()
        admission = AdmissionController(
            mine_backlog=0, brownout_after=1, brownout_recover_s=60.0
        )
        with start_server_thread(service, admission=admission) as handle:
            with ServiceClient("127.0.0.1", handle.port) as client:
                # First mine sheds (backlog 0) and trips brownout...
                with pytest.raises(OverloadedError):
                    client.request("mine", {"min_support": 0.2})
                # ...so the next one serves the degraded path instead
                # of shedding again: the approximate miner, marked.
                submitted = client.request("mine", {"min_support": 0.2})
                assert submitted["degraded_load"] is True
                assert submitted["cached"] is False
                deadline_ts = time.monotonic() + 30.0
                while True:
                    poll = client.request(
                        "job", {"job_id": submitted["job_id"]}
                    )
                    if poll["state"] in ("done", "error"):
                        break
                    assert time.monotonic() < deadline_ts
                    time.sleep(0.02)
                assert poll["state"] == "done"
                assert poll["degraded_load"] is True
                assert poll["result"]["n_patterns"] >= 1
                status = client.request("status", {})
                assert status["load"]["state"] == "browned_out"


# --------------------------------------------------------------------------
# Client cooperation: retry_after floor, AIMD halving, breaker never trips
# --------------------------------------------------------------------------


class TestRetryingClientCooperation:
    POLICY = RetryPolicy(
        max_attempts=2,
        base_delay=0.01,
        max_delay=0.02,
        op_deadline=5.0,
        request_timeout=1.0,
        connect_timeout=0.5,
    )

    def test_retry_after_floors_the_backoff_and_spares_the_breaker(self):
        _, service = make_service()
        admission = AdmissionController(mine_backlog=0, brownout_after=10_000)
        limiter = AIMDLimiter(initial=8.0)
        with start_server_thread(service, admission=admission) as handle:
            client = RetryingClient(
                "127.0.0.1", handle.port, policy=self.POLICY, limiter=limiter
            )
            with client:
                started = time.perf_counter()
                with pytest.raises(OverloadedError):
                    client.request("mine", {"min_support": 0.2})
                elapsed = time.perf_counter() - started
                # Both attempts shed; the pause between them honoured
                # the server's retry_after (≥ 0.1 by construction) as a
                # floor over the 10 ms policy backoff.
                assert client.sheds_seen == 2
                assert client.retries == 1
                assert elapsed >= 0.08
                # A shed is a healthy, typed answer: the breaker stays
                # closed and the AIMD window did the reacting instead.
                assert client.breaker.allow()
                assert limiter.decreases == 2
                assert limiter.limit == pytest.approx(2.0)
                # The connection survived both sheds — no reconnect.
                assert client.reconnects == 0
                assert client.count([1])["estimate"] >= 0


# --------------------------------------------------------------------------
# Deadline propagation across the router hop
# --------------------------------------------------------------------------


class MiniCluster:
    """Two in-process shard servers + an *undriven* router object.

    The router is exercised directly on the test's own event loop (its
    links dial lazily, so they bind to whichever loop first awaits
    them) — which lets a test plant ``CURRENT_DEADLINE`` and observe
    the links' preempt counters deterministically, with real servers
    on the other end of every wire.
    """

    def __init__(self, *, shard_admissions=None):
        self.db = make_random_database(
            seed=23, n_transactions=120, n_items=24, max_len=6
        )
        self.slices = split_ranges(self.db, [60])
        self.services = []
        self.handles = []
        addresses = []
        for index, piece in enumerate(self.slices):
            bbs = BBS.from_database(piece, m=M)
            service = PatternService(piece, bbs)
            kwargs = {}
            if shard_admissions and shard_admissions.get(index) is not None:
                kwargs["admission"] = shard_admissions[index]
            handle = start_server_thread(service, **kwargs)
            self.services.append(service)
            self.handles.append(handle)
            addresses.append(("127.0.0.1", handle.port))
        shard_map = build_map(
            addresses, [len(piece) for piece in self.slices]
        )
        self.router = ShardRouter(shard_map, policy=FAST_POLICY, seed=7)

    def stop(self):
        try:
            self.router.close()
        except RuntimeError:
            # Links dialled inside a since-finished asyncio.run() loop
            # cannot flush their transports; the sockets died with the
            # loop.  Tests that dial close the router in-loop instead.
            pass
        for handle in self.handles:
            handle.stop()


@pytest.fixture
def mini_cluster():
    cluster = MiniCluster()
    yield cluster
    cluster.stop()


class TestDeadlineAcrossTheRouterHop:
    def test_live_budget_is_stamped_on_the_forwarded_frame(self):
        """A ShardLink re-stamps the *remaining* budget on the wire."""

        async def scenario():
            frames = []

            async def stub_shard(reader, writer):
                frame = await read_frame(reader)
                frames.append(frame)
                await write_frame(
                    writer, {"id": frame["id"], "ok": True, "result": {}}
                )
                writer.close()
                await writer.wait_closed()

            server = await asyncio.start_server(stub_shard, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            link = ShardLink(
                "127.0.0.1", port, policy=FAST_POLICY, rng=random.Random(3)
            )
            token = CURRENT_DEADLINE.set(Deadline.after(3.0))
            try:
                await link.request("status", {})
            finally:
                CURRENT_DEADLINE.reset(token)
                link.close()
                server.close()
                await server.wait_closed()
            return frames

        frames = run(scenario())
        assert len(frames) == 1
        assert 0.0 < frames[0]["deadline_ms"] <= 3000.0

    def test_no_budget_means_no_stamp(self):
        async def scenario():
            frames = []

            async def stub_shard(reader, writer):
                frame = await read_frame(reader)
                frames.append(frame)
                await write_frame(
                    writer, {"id": frame["id"], "ok": True, "result": {}}
                )
                writer.close()
                await writer.wait_closed()

            server = await asyncio.start_server(stub_shard, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            link = ShardLink(
                "127.0.0.1", port, policy=FAST_POLICY, rng=random.Random(3)
            )
            try:
                await link.request("status", {})
            finally:
                link.close()
                server.close()
                await server.wait_closed()
            return frames

        frames = run(scenario())
        assert "deadline_ms" not in frames[0]

    def test_expired_budget_spawns_zero_shard_work(self, mini_cluster):
        """The zero-orphaned-work guarantee, end to end.

        A fan-out whose propagated budget is already gone must fail
        typed without dialling a single shard: every link counts a
        preempt, and no shard's request counter moves.
        """
        router = mini_cluster.router

        async def scenario():
            token = CURRENT_DEADLINE.set(Deadline.after(-0.001))
            try:
                with pytest.raises(ServiceError):
                    await router.handle("count", {"items": [1]})
            finally:
                CURRENT_DEADLINE.reset(token)

        run(scenario())
        for state in router.shards:
            assert state.primary.deadline_preempts == 1
        for service in mini_cluster.services:
            assert service.request_counts.get("count", 0) == 0

    def test_live_budget_flows_through_to_real_shards(self, mini_cluster):
        router = mini_cluster.router

        async def scenario():
            token = CURRENT_DEADLINE.set(Deadline.after(5.0))
            try:
                return await router.handle("count", {"items": [1]})
            finally:
                CURRENT_DEADLINE.reset(token)
                router.close()  # while the links' loop is still alive

        result = run(scenario())
        assert "estimate" in result
        for state in router.shards:
            assert state.primary.deadline_preempts == 0
        for service in mini_cluster.services:
            assert service.request_counts.get("count", 0) == 1


class TestRouterFanoutShedding:
    def test_one_overloaded_shard_sheds_the_whole_fanout(self):
        """A required shard's shed aborts the fan-out typed.

        Shard 1 sheds every mine (zero backlog, brownout disabled);
        the router must convert that leg's ``overloaded`` into a
        whole-request ``overloaded`` carrying the shard's retry_after —
        not a partial, not a failover (the shard is healthy).
        """
        cluster = MiniCluster(
            shard_admissions={
                1: AdmissionController(mine_backlog=0, brownout_after=10_000)
            }
        )
        try:
            router = cluster.router

            async def scenario():
                try:
                    with pytest.raises(OverloadedError) as err:
                        await router._fanout("mine", {"min_support": 0.2})
                finally:
                    router.close()  # while the links' loop is still alive
                return err.value

            exc = run(scenario())
            assert exc.retry_after is not None
            assert exc.retry_after > 0.0
            assert "shed" in str(exc)
            assert router.fanout_sheds == 1
            # The overloaded shard answered; its breaker records a
            # success, not a failure — load is not unreachability.
            assert cluster.router.shards[1].primary.breaker.allow()
        finally:
            cluster.stop()


# --------------------------------------------------------------------------
# Overload soak: typed sheds under sustained pressure, reads unharmed
# --------------------------------------------------------------------------


class TestOverloadSoak:
    def test_sustained_mine_pressure_stays_typed_and_bounded(self):
        _, service = make_service()
        admission = AdmissionController(mine_backlog=0, brownout_after=10_000)
        with start_server_thread(service, admission=admission) as handle:
            sheds = []
            read_latencies = []
            errors = []

            def hammer(seed):
                try:
                    with ServiceClient("127.0.0.1", handle.port) as client:
                        for _ in range(10):
                            started = time.perf_counter()
                            try:
                                client.request("mine", {"min_support": 0.2})
                            except OverloadedError as exc:
                                sheds.append(
                                    (
                                        time.perf_counter() - started,
                                        exc.retry_after,
                                    )
                                )
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            def read(seed):
                try:
                    with ServiceClient("127.0.0.1", handle.port) as client:
                        for _ in range(10):
                            started = time.perf_counter()
                            client.request("count", {"items": [1 + seed % 5]})
                            read_latencies.append(
                                time.perf_counter() - started
                            )
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(i,)) for i in range(4)
            ] + [threading.Thread(target=read, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert errors == []
            # Every mine shed typed, carried a retry_after, and came
            # back fast — the shed path does no mining work.
            assert len(sheds) == 40
            assert all(after and after > 0.0 for _, after in sheds)
            assert max(elapsed for elapsed, _ in sheds) < 1.0
            # Reads sailed through a server shedding 100% of its mines.
            assert len(read_latencies) == 20
            with ServiceClient("127.0.0.1", handle.port) as client:
                metrics = client.request("metrics", {})
            assert metrics["overload"]["mine_jobs"]["sheds"] == 40
            assert metrics["overload"]["mine_jobs"]["admitted"] == 0
        # Forty sheds, zero jobs: the backlog gate did all the refusing.
        assert len(service._jobs) == 0
