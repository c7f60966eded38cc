"""Resilient-serving unit and in-process tests.

Covers the client-side machinery (retry policy, circuit breaker,
idempotency tokens), the hardened sync codec (typed timeout and
EOF-mid-frame errors), server-side degraded mode with journal faults,
exactly-once retried appends, and the background scrubber's
detect-quarantine-recover cycle against real flipped bytes.
"""

from __future__ import annotations

import asyncio
import random
import shutil
import signal
import socket
import struct
import subprocess
import sys
import time

import pytest

from repro.cli import _build_parser, _open_service, main
from repro.core.bbs import BBS
from repro.data.database import TransactionDatabase
from repro.errors import (
    CircuitOpenError,
    ConnectionClosedError,
    DegradedError,
    ServiceError,
    ServiceProtocolError,
    ServiceTimeoutError,
)
from repro.service.client import ServiceClient
from repro.service.handlers import PatternService
from repro.service.protocol import read_frame_sock
from repro.service.resilience import (
    TOKEN_MAX,
    TOKEN_MIN,
    CircuitBreaker,
    IdempotencyWindow,
    RetryingClient,
    RetryPolicy,
    make_token,
)
from repro.service.scrubber import Scrubber
from repro.service.server import start_server_thread
from repro.storage.diskbbs import DiskBBS
from repro.storage.metrics import IOStats
from repro.storage.recovery import inspect_index
from repro.storage.txfile import (
    TransactionFileReader,
    TransactionFileWriter,
    index_path,
)
from repro.testing.faults import FaultPlan, arm_diskbbs, arm_txwriter, flip_bit
from repro.testing.netfaults import ChaosProxy, DropResponse
from tests.conftest import make_random_database


# --------------------------------------------------------------------------
# RetryPolicy / tokens
# --------------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.4, jitter=0.0)
        rng = random.Random(0)
        delays = [policy.backoff(n, rng) for n in (1, 2, 3, 4, 5)]
        assert delays == [0.1, 0.2, 0.4, 0.4, 0.4]

    def test_jitter_bounds(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0, jitter=0.5)
        rng = random.Random(7)
        for _ in range(200):
            delay = policy.backoff(2, rng)
            assert 0.2 <= delay <= 0.3

    def test_tokens_live_in_the_reserved_band(self):
        rng = random.Random(3)
        for _ in range(500):
            token = make_token(rng)
            assert TOKEN_MIN <= token < TOKEN_MAX


# --------------------------------------------------------------------------
# CircuitBreaker
# --------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_opens_after_threshold_and_cools_down(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=3, reset_after=5.0, clock=clock
        )
        assert breaker.state == "closed"
        for _ in range(2):
            breaker.record_failure()
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        clock.now += 5.0
        assert breaker.state == "half_open"
        assert breaker.allow()

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_after=1.0, clock=clock)
        breaker.record_failure()
        clock.now += 1.0
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_after=1.0, clock=clock)
        breaker.record_failure()
        clock.now += 1.0
        assert breaker.state == "half_open"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.opens == 2

    def test_open_breaker_refuses_locally(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_after=60.0)
        breaker.record_failure()
        client = RetryingClient("127.0.0.1", 1, breaker=breaker)
        with pytest.raises(CircuitOpenError):
            client.status()


# --------------------------------------------------------------------------
# IdempotencyWindow
# --------------------------------------------------------------------------


class TestIdempotencyWindow:
    def test_record_and_lookup(self):
        window = IdempotencyWindow(capacity=8)
        assert window.lookup(TOKEN_MIN + 1) is None
        window.record(TOKEN_MIN + 1, 42)
        assert window.lookup(TOKEN_MIN + 1) == 42
        assert window.hits == 1

    def test_fifo_eviction(self):
        window = IdempotencyWindow(capacity=3)
        for n in range(5):
            window.record(TOKEN_MIN + n, n)
        assert window.evictions == 2
        assert window.lookup(TOKEN_MIN) is None
        assert window.lookup(TOKEN_MIN + 1) is None
        assert window.lookup(TOKEN_MIN + 4) == 4
        assert len(window) == 3

    def test_seed_preloads(self):
        window = IdempotencyWindow(capacity=16)
        n = window.seed([(TOKEN_MIN + 7, 0), (TOKEN_MIN + 8, 1)])
        assert n == 2
        assert window.lookup(TOKEN_MIN + 8) == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            IdempotencyWindow(capacity=0)


# --------------------------------------------------------------------------
# Typed client timeouts and EOF-mid-frame (satellites a + b)
# --------------------------------------------------------------------------


def make_service(seed=11):
    db = make_random_database(
        seed=seed, n_transactions=120, n_items=30, max_len=7
    )
    bbs = BBS.from_database(db, m=128)
    return db, bbs, PatternService(db, bbs)


class TestTypedTimeouts:
    def test_connect_timeout_is_typed(self):
        # A bound-but-never-accepting listener with a zero backlog: the
        # second connect hangs in the SYN queue until the timeout.
        gate = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        gate.bind(("127.0.0.1", 0))
        gate.listen(0)
        port = gate.getsockname()[1]
        filler = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        filler.setblocking(False)
        try:
            try:
                filler.connect(("127.0.0.1", port))
            except BlockingIOError:
                pass
            with pytest.raises((ServiceTimeoutError, OSError)):
                ServiceClient("127.0.0.1", port, connect_timeout=0.2)
        finally:
            filler.close()
            gate.close()

    def test_read_timeout_is_typed(self):
        db, bbs, service = make_service()

        async def _slow_op(self, args):
            await asyncio.sleep(5.0)
            return {}

        service._OPS = {**PatternService._OPS, "slowop": _slow_op}
        with start_server_thread(service, request_timeout=30.0) as handle:
            with ServiceClient(handle.host, handle.port, timeout=0.2) as client:
                with pytest.raises(ServiceTimeoutError) as excinfo:
                    client.request("slowop")
                assert excinfo.value.error_type == "timeout"


class TestEOFMidFrame:
    def _pair(self):
        left, right = socket.socketpair()
        left.settimeout(5.0)
        return left, right

    def test_eof_between_frames_is_clean_close(self):
        left, right = self._pair()
        right.close()
        with pytest.raises(ConnectionClosedError):
            read_frame_sock(left)
        left.close()

    def test_eof_inside_length_prefix(self):
        left, right = self._pair()
        right.sendall(b"\x00\x00")  # 2 of 4 prefix bytes
        right.close()
        with pytest.raises(ServiceProtocolError) as excinfo:
            read_frame_sock(left)
        assert not isinstance(excinfo.value, ConnectionClosedError)
        left.close()

    def test_eof_inside_body(self):
        left, right = self._pair()
        right.sendall(struct.pack(">I", 100) + b'{"tr')
        right.close()
        with pytest.raises(ServiceProtocolError) as excinfo:
            read_frame_sock(left)
        assert "frame body" in str(excinfo.value)
        left.close()

    def test_server_survives_truncated_frame_from_client(self):
        db, bbs, service = make_service()
        with start_server_thread(service) as handle:
            raw = socket.create_connection((handle.host, handle.port))
            raw.sendall(struct.pack(">I", 64) + b'{"id"')
            raw.close()
            # The torn connection must not poison the accept loop.
            with ServiceClient(handle.host, handle.port) as client:
                assert client.health()["ok"] is True


# --------------------------------------------------------------------------
# Durable service fixtures
# --------------------------------------------------------------------------


def make_durable_service(tmp_path, *, seed=23, n_transactions=60):
    """A PatternService journaling to a real transaction file pair."""
    db_src = make_random_database(
        seed=seed, n_transactions=n_transactions, n_items=24, max_len=6
    )
    path = tmp_path / "svc.tx"
    stats = IOStats()
    with TransactionFileWriter(path, stats=stats) as writer:
        for transaction in db_src:
            writer.append(transaction)
        writer.sync()
    db = TransactionDatabase(list(db_src), stats=stats)
    bbs = BBS.from_database(db, m=128, stats=stats)
    journal = TransactionFileWriter(path, truncate=False, stats=stats)
    service = PatternService(db, bbs, journal=journal)
    return path, db, service


def run_op(service, op, args=None):
    handler = PatternService._OPS[op]
    return asyncio.run(handler(service, args or {}))


# --------------------------------------------------------------------------
# Exactly-once retried appends (in-process)
# --------------------------------------------------------------------------


class TestIdempotentAppend:
    def test_same_token_applies_once(self, tmp_path):
        path, db, service = make_durable_service(tmp_path)
        try:
            before = len(db)
            token = TOKEN_MIN + 99
            first = run_op(
                service, "append", {"items": [5, 9], "token": token}
            )
            again = run_op(
                service, "append", {"items": [5, 9], "token": token}
            )
            assert first["deduped"] is False
            assert again["deduped"] is True
            assert again["position"] == first["position"]
            assert len(db) == before + 1
        finally:
            service.close()

    def test_token_survives_restart_via_journal(self, tmp_path):
        path, db, service = make_durable_service(tmp_path)
        token = TOKEN_MIN + 4242
        position = run_op(
            service, "append", {"items": [3, 4], "token": token}
        )["position"]
        service.close()
        # Boot a second service over the same journal through the
        # ``serve --durable`` boot path.
        service2 = _open_service(_build_parser().parse_args([
            "serve", "--durable", "--db", str(path), "--m", "128",
        ]))
        try:
            assert service2.database.tid(position) == token
            replay = run_op(
                service2, "append", {"items": [3, 4], "token": token}
            )
            assert replay["deduped"] is True
            assert len(service2.database) == len(db)
        finally:
            service2.close()

    def test_bad_tokens_rejected(self, tmp_path):
        path, db, service = make_durable_service(tmp_path)
        try:
            for bad in (0, -3, True, "abc", TOKEN_MIN - 1, TOKEN_MAX):
                with pytest.raises(ServiceError) as excinfo:
                    run_op(service, "append", {"items": [1], "token": bad})
                assert excinfo.value.error_type == "bad_request"
        finally:
            service.close()


# --------------------------------------------------------------------------
# Degraded mode (tentpole: write-path faults flip read-only; recover heals)
# --------------------------------------------------------------------------


class TestDegradedMode:
    def test_enospc_flips_read_only_and_recover_heals(self, tmp_path):
        path, db, service = make_durable_service(tmp_path)
        try:
            before = len(db)
            plan = arm_txwriter(
                service.journal.writer, FaultPlan(error_after_bytes=4)
            )
            with pytest.raises(DegradedError):
                run_op(service, "append", {"items": [2, 7]})
            assert service.mode == "degraded"
            assert "write path failed" in service.degraded_reason

            # Reads keep flowing in degraded mode.
            count = run_op(service, "count", {"items": [2], "exact": True})
            assert count["estimate"] >= count["exact"]
            health = run_op(service, "health")
            assert health == {
                "ok": False, "mode": "degraded", "epoch": service.index.epoch,
            }
            status = run_op(service, "status")
            assert status["mode"] == "degraded"
            metrics = run_op(service, "metrics")
            assert metrics["mode"] == "degraded"
            assert metrics["degraded_seconds"] >= 0.0

            # Writes are refused with the typed error.
            with pytest.raises(DegradedError):
                run_op(service, "append", {"items": [8]})

            # "Disk cleaned up": recover salvages the journal, audits,
            # and clears the mode.
            plan.disarm()
            outcome = run_op(service, "recover")
            assert outcome["recovered"] is True
            assert service.mode == "ok"
            after = run_op(service, "append", {"items": [2, 7]})
            assert after["deduped"] is False
            assert len(db) == before + 1

            # The healed journal holds exactly the surviving records.
            with TransactionFileReader(path) as reader:
                assert sum(1 for _ in reader.scan()) == len(db)
        finally:
            service.close()

    def test_recover_noop_when_healthy(self, tmp_path):
        path, db, service = make_durable_service(tmp_path)
        try:
            outcome = run_op(service, "recover")
            assert outcome == {"mode": "ok", "recovered": False, "actions": []}
        finally:
            service.close()

    def test_degraded_over_the_wire(self, tmp_path):
        path, db, service = make_durable_service(tmp_path)
        with start_server_thread(service) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                plan = arm_txwriter(
                    service.journal.writer, FaultPlan(error_after_bytes=4)
                )
                with pytest.raises(DegradedError):
                    client.append([4, 6])
                assert client.health()["ok"] is False
                # The connection survives the typed refusal.
                assert client.count([4])["estimate"] >= 0
                plan.disarm()
                assert client.recover()["recovered"] is True
                assert client.health()["ok"] is True
                assert client.append([4, 6])["deduped"] is False


# --------------------------------------------------------------------------
# Scrubber (tentpole: detect flipped bytes, quarantine, keep serving)
# --------------------------------------------------------------------------


def make_disk_service(tmp_path, *, seed=5, n_transactions=48):
    db_src = make_random_database(
        seed=seed, n_transactions=n_transactions, n_items=20, max_len=6
    )
    idx_path = tmp_path / "scrub.bbsd"
    stats = IOStats()
    index = DiskBBS.create(idx_path, m=64, stats=stats, flush_threshold=16)
    for transaction in db_src:
        index.insert(transaction)
    index.flush()
    db = TransactionDatabase(list(db_src), stats=stats)
    service = PatternService(db, index)
    return idx_path, db, service


class TestScrubber:
    def test_clean_store_completes_cycles(self, tmp_path):
        idx_path, db, service = make_disk_service(tmp_path)
        try:
            scrub = Scrubber(service, interval=0.01, idle_after=0.0)
            service.last_request_monotonic = time.monotonic() - 60
            budget = service.index.n_segments + len(service.index.items()) + 4
            for _ in range(budget):
                scrub.tick()
            assert scrub.cycles >= 1
            assert scrub.checks >= service.index.n_segments
            assert not scrub.findings
            assert service.mode == "ok"
            assert db.stats.scrub_checks == scrub.checks
        finally:
            service.index.close()

    def test_busy_server_still_makes_progress(self, tmp_path):
        idx_path, db, service = make_disk_service(tmp_path)
        try:
            scrub = Scrubber(
                service, interval=0.01, idle_after=3600.0, max_busy_skips=3
            )
            service.last_request_monotonic = time.monotonic()
            for _ in range(3):
                scrub.tick()
            assert scrub.checks == 0  # all skipped: "busy"
            scrub.tick()  # the forced unit
            assert scrub.checks == 1
            assert scrub.busy_skips_total == 4
        finally:
            service.index.close()

    def test_flipped_byte_quarantines_and_recovers(self, tmp_path):
        idx_path, db, service = make_disk_service(tmp_path)
        try:
            # Bit-rot one byte inside the newest segment's bit matrix.
            target = service.index._segments[-1]
            flip_bit(idx_path, target.matrix_offset + 5)

            scrub = Scrubber(service, interval=0.01, idle_after=0.0)
            service.last_request_monotonic = time.monotonic() - 60
            budget = service.index.n_segments + len(service.index.items()) + 4
            for _ in range(budget):
                scrub.tick()
                if service.mode != "ok":
                    break
            assert service.mode == "degraded"
            assert scrub.findings
            assert "scrubber" in service.degraded_reason
            assert db.stats.scrub_findings == 1

            # The damage was quarantined and the store rebuilt: counts
            # served post-swap match the database exactly.
            qpath = idx_path.with_suffix(idx_path.suffix + ".quarantine")
            assert qpath.exists()
            for item in list(db.item_counts())[:8]:
                payload = run_op(
                    service, "count", {"items": [item], "exact": True}
                )
                assert payload["exact"] == db.support([item])
                assert payload["estimate"] >= payload["exact"]

            # recover audits the rebuilt store and clears the mode.
            outcome = run_op(service, "recover")
            assert outcome["recovered"] is True, outcome
            assert service.mode == "ok"
            run_op(service, "append", {"items": [1, 2]})

            # Metrics surface the scrub trail.
            metrics = run_op(service, "metrics")
            assert metrics["scrub"]["findings"]
        finally:
            service.index.close()

    def test_epoch_advances_across_quarantine_swap(self, tmp_path):
        idx_path, db, service = make_disk_service(tmp_path)
        try:
            old_epoch = service.index.epoch
            target = service.index._segments[0]
            flip_bit(idx_path, target.matrix_offset + 1)
            service.quarantine_index("test: simulated corruption")
            assert service.index.epoch > old_epoch
            assert service.batcher.index is service.index
        finally:
            service.index.close()

    def test_recover_and_quarantine_scan_the_log_once(
        self, tmp_path, monkeypatch
    ):
        from repro.storage import diskbbs, recovery

        scans = []
        real_scan = diskbbs.scan_log

        def counted_scan(*args, **kwargs):
            scans.append(args)
            return real_scan(*args, **kwargs)

        for module in (diskbbs, recovery):
            monkeypatch.setattr(module, "scan_log", counted_scan)
        idx_path, db, service = make_disk_service(tmp_path)
        try:
            flip_bit(idx_path, service.index._segments[0].matrix_offset + 1)
            scans.clear()
            report = service.quarantine_index("test: count the scans")
            assert report.status == "corrupt" and report.rebuilt_transactions
            assert len(scans) == 1
        finally:
            service.index.close()
        scans.clear()
        DiskBBS.recover(idx_path).close()  # clean
        assert len(scans) == 1
        with open(idx_path, "ab") as fh:
            fh.write(b"SEG1\0\0")  # a torn segment header
        scans.clear()
        with DiskBBS.recover(idx_path) as store:
            assert store.last_recovery.status == "torn"
            assert store.n_transactions == len(db)
        assert len(scans) == 1

    def test_internal_error_stops_scrubber_not_server(self, tmp_path):
        idx_path, db, service = make_disk_service(tmp_path)
        try:
            scrub = Scrubber(service, interval=0.0, idle_after=0.0)
            service.last_request_monotonic = time.monotonic() - 60
            scrub._run_unit = lambda unit: (_ for _ in ()).throw(
                RuntimeError("boom")
            )
            asyncio.run(asyncio.wait_for(scrub.run(), timeout=5.0))
            assert any("internal error" in f for f in scrub.findings)
            assert service.mode == "ok"
        finally:
            service.index.close()


# --------------------------------------------------------------------------
# Failover: kill -9 the primary under chaos, promote the follower
# --------------------------------------------------------------------------


def _spawn_serve(*argv: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def _wait_port(proc: subprocess.Popen, timeout: float = 30.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line and proc.poll() is not None:
            raise AssertionError(f"server exited early: {proc.returncode}")
        if line.startswith("serving on "):
            return int(line.rsplit(":", 1)[1])
    raise AssertionError("server never announced its port")


def _reap(proc: subprocess.Popen) -> None:
    """Kill ``proc`` if it still runs, wait for it, close its pipe."""
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=10.0)
    proc.stdout.close()


class TestFailoverExactlyOnce:
    def test_kill9_primary_promote_follower(self, tmp_path):
        """Every ACKed append survives the primary's death exactly once.

        A durable primary and a bootstrapped follower run as real
        subprocesses.  Tokened appends flow through a ChaosProxy (one
        ACK is dropped mid-append, forcing a dedup retry); once the
        follower reports lag 0 the primary is killed -9.  The promoted
        follower must hold every ACKed append exactly once, dedupe a
        client's post-failover retry, accept fresh writes, and serve
        estimates bit-identical to a fresh single-node rebuild of its
        own database.
        """
        db_src = make_random_database(
            seed=31, n_transactions=40, n_items=24, max_len=6
        )
        p_db = tmp_path / "primary.tx"
        p_idx = tmp_path / "primary.bbsd"
        with TransactionFileWriter(p_db) as writer:
            for transaction in db_src:
                writer.append(transaction)
            writer.sync()
        index = DiskBBS.create(p_idx, m=64, flush_threshold=16)
        for transaction in db_src:
            index.insert(transaction)
        index.flush()
        index.close()

        f_db = tmp_path / "follower.tx"
        f_idx = tmp_path / "follower.bbsd"
        primary = _spawn_serve(
            "--db", str(p_db), "--index", str(p_idx),
            "--durable", "--port", "0", "--scrub-interval", "0",
        )
        follower = None
        proxy = None
        try:
            p_port = _wait_port(primary)
            follower = _spawn_serve(
                "--db", str(f_db), "--index", str(f_idx),
                "--follower", f"127.0.0.1:{p_port}",
                "--port", "0", "--scrub-interval", "0",
            )
            f_port = _wait_port(follower)

            tokens = [TOKEN_MIN + 7000 + i for i in range(8)]
            acked = 5  # appends ACKed before the primary dies
            policy = RetryPolicy(
                max_attempts=6, base_delay=0.05, op_deadline=30.0,
                request_timeout=5.0, connect_timeout=5.0,
            )
            proxy = ChaosProxy("127.0.0.1", p_port, seed=7).start()
            with RetryingClient(
                "127.0.0.1", proxy.port, policy=policy, seed=7
            ) as client:
                base = client.status()["n_transactions"]
                for i in range(acked):
                    if i == 2:
                        client.close()  # next dial meets the fault
                        proxy.schedule(DropResponse())
                    result = client.append([100 + i], token=tokens[i])
                    assert result["position"] == base + i
                assert client.retries >= 1  # the dropped ACK forced one

            deadline = time.monotonic() + 30.0
            while True:
                with ServiceClient("127.0.0.1", f_port, timeout=5.0) as fc:
                    status = fc.status()
                if (status["n_transactions"] == base + acked
                        and status["replication"]["lag"] == 0):
                    break
                assert time.monotonic() < deadline, status
                time.sleep(0.05)
            assert status["role"] == "follower"

            primary.send_signal(signal.SIGKILL)
            primary.wait(timeout=10.0)

            with ServiceClient("127.0.0.1", f_port, timeout=10.0) as fc:
                with pytest.raises(ServiceError) as excinfo:
                    fc.append([999])
                assert excinfo.value.error_type == "not_primary"
                promoted = fc.promote()
                assert promoted["promoted"] is True
                assert promoted["role"] == "primary"
                # An ACKed append retried against the new primary is
                # answered from the replicated idempotency window.
                replay = fc.append(
                    [100 + acked - 1], token=tokens[acked - 1]
                )
                assert replay["deduped"] is True
                assert replay["position"] == base + acked - 1
                # The never-ACKed suffix applies fresh, exactly once.
                for i in range(acked, len(tokens)):
                    result = fc.append([100 + i], token=tokens[i])
                    assert result["deduped"] is False
                status = fc.status()
                assert status["role"] == "primary"
                assert status["n_transactions"] == base + len(tokens)
                for i in range(len(tokens)):
                    payload = fc.count([100 + i], exact=True)
                    assert payload["exact"] == 1

            # Bit-identical to a fresh single-node rebuild of the
            # survivor's own database.
            with TransactionFileReader(f_db) as reader:
                replayed = [items for _, _, items in reader.scan()]
            assert len(replayed) == base + len(tokens)
            fresh = BBS.from_database(TransactionDatabase(replayed), m=64)
            with ServiceClient("127.0.0.1", f_port, timeout=5.0) as fc:
                for probe in ([100], [1], [2, 3]):
                    assert (fc.count(probe)["estimate"]
                            == fresh.count_itemset(probe))

            follower.send_signal(signal.SIGTERM)
            out, _ = follower.communicate(timeout=30.0)
            assert follower.returncode == 0, out
            assert "drained after" in out
            follower = None
        finally:
            if proxy is not None:
                proxy.close()
            for proc in (primary, follower):
                if proc is not None:
                    _reap(proc)


# --------------------------------------------------------------------------
# The journal is the only append barrier: the DiskBBS tail seals at its
# flush threshold, at close, and for snapshot/recover; boot reconciles.
# --------------------------------------------------------------------------


def make_sealed_store(tmp_path, *, n_transactions=40):
    """A transaction file and a DiskBBS log sealing all of it."""
    db_src = make_random_database(
        seed=37, n_transactions=n_transactions, n_items=24, max_len=6
    )
    tx_path = tmp_path / "node.tx"
    idx_path = tmp_path / "node.bbsd"
    with TransactionFileWriter(tx_path) as writer:
        for transaction in db_src:
            writer.append(transaction)
        writer.sync()
    with DiskBBS.create(idx_path, m=64) as index:
        for transaction in db_src:
            index.insert(transaction)
    return tx_path, idx_path, list(db_src)


def make_journaled_disk_service(tmp_path):
    """A journaled service over the sealed store; the tail seals at 64."""
    tx_path, idx_path, base = make_sealed_store(tmp_path)
    stats = IOStats()
    db = TransactionDatabase(base, stats=stats)
    index = DiskBBS.open(idx_path, stats=stats, flush_threshold=64)
    journal = TransactionFileWriter(tx_path, truncate=False, stats=stats)
    service = PatternService(db, index, journal=journal)
    return tx_path, idx_path, service


def _serve_durable(tx_path, idx_path) -> tuple[subprocess.Popen, int]:
    proc = _spawn_serve(
        "--db", str(tx_path), "--index", str(idx_path), "--durable",
        "--port", "0", "--scrub-interval", "0",
    )
    try:
        return proc, _wait_port(proc)
    except BaseException:
        _reap(proc)
        raise


def _drain(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=30.0)
    assert proc.returncode == 0, out
    assert "drained after" in out


def _check_index(idx_path, tx_path) -> int:
    """``repro-mine check <log> --db <journal>``'s exit code."""
    return main(["check", str(idx_path), "--db", str(tx_path)])


class TestJournalIsTheOnlyAppendBarrier:
    N_APPENDS = 12

    def test_acked_appends_fsync_the_journal_only(self, tmp_path):
        """``serve --durable`` over a DiskBBS log: an append's barrier is
        the journal's fsync pair; the log is written once, at the drain."""
        tx_path, idx_path, base = make_sealed_store(tmp_path)
        segments = inspect_index(idx_path).segments_ok
        log_bytes = idx_path.read_bytes()
        appended = [[500 + i, i % 7] for i in range(self.N_APPENDS)]
        proc, port = _serve_durable(tx_path, idx_path)
        try:
            with ServiceClient("127.0.0.1", port) as client:
                client.metrics()
                for i, items in enumerate(appended):
                    got = client.append(items, token=TOKEN_MIN + 600 + i)
                    assert got["position"] == len(base) + i
                io_delta = client.metrics()["io_delta"]
                # Two fsyncs per append (journal data, then its index),
                # and no segment: the log file is untouched.
                assert io_delta["fsyncs"] == 2 * self.N_APPENDS
                assert idx_path.read_bytes() == log_bytes
                fresh = BBS.from_database(
                    TransactionDatabase(base + appended), m=64
                )
                for probe in ([500], [3], [1, 2], [505, 5], [511]):
                    got = client.count(probe, exact=True)
                    assert got["estimate"] == fresh.count_itemset(probe)
                    assert got["exact"] == sum(
                        set(probe) <= set(t) for t in base + appended
                    )
            _drain(proc)
        finally:
            _reap(proc)
        # The drain sealed the tail as one segment covering the journal.
        report = inspect_index(idx_path)
        assert report.clean
        assert report.segments_ok == segments + 1
        assert report.committed_transactions == len(base) + len(appended)
        assert _check_index(idx_path, tx_path) == 0

    def test_crash_with_unsealed_tail_restores_acked_appends_once(
        self, tmp_path
    ):
        """Boot re-inserts the journaled suffix a crash left unsealed,
        exactly once, and re-seeds the appends' tokens."""
        tx_path, idx_path, service = make_journaled_disk_service(tmp_path)
        base = len(service.database)
        tokens = [TOKEN_MIN + 800 + i for i in range(self.N_APPENDS)]
        try:
            for i, token in enumerate(tokens):
                got = run_op(
                    service, "append", {"items": [700 + i], "token": token}
                )
                assert got["position"] == base + i
            assert service.index.tail_size == self.N_APPENDS
            # kill -9 here: the fsynced journal survives, the tail does not.
            crash = tmp_path / "crash"
            crash.mkdir()
            for path in (tx_path, index_path(tx_path), idx_path):
                shutil.copy(path, crash / path.name)
        finally:
            service.close()
        tx_copy, idx_copy = crash / tx_path.name, crash / idx_path.name
        assert inspect_index(idx_copy).committed_transactions == base
        log_bytes = idx_copy.read_bytes()

        proc, port = _serve_durable(tx_copy, idx_copy)
        try:
            # Boot caught up in memory; it did not rebuild the log.
            assert idx_copy.read_bytes() == log_bytes
            with ServiceClient("127.0.0.1", port) as client:
                assert client.status()["n_transactions"] == base + len(tokens)
                for i, token in enumerate(tokens):
                    assert client.count([700 + i], exact=True)["exact"] == 1
                    replay = client.append([700 + i], token=token)
                    assert replay["deduped"] is True
                    assert replay["position"] == base + i
                assert client.status()["n_transactions"] == base + len(tokens)
            _drain(proc)
        finally:
            _reap(proc)
        assert _check_index(idx_copy, tx_copy) == 0

    def test_failed_threshold_seal_still_dedupes_the_append(self, tmp_path):
        """A seal failing at the flush threshold degrades the server, yet
        its append was journaled and applied, so the retry dedupes."""
        tx_path, idx_path, service = make_journaled_disk_service(tmp_path)
        try:
            base = len(service.database)
            service.index.flush_threshold = 1
            plan = arm_diskbbs(service.index, FaultPlan(error_after_bytes=16))
            token = TOKEN_MIN + 950
            with pytest.raises(DegradedError):
                run_op(service, "append", {"items": [3, 5], "token": token})
            assert service.mode == "degraded"
            replay = run_op(
                service, "append", {"items": [3, 5], "token": token}
            )
            assert replay["deduped"] is True
            assert replay["position"] == base
            assert len(service.database) == base + 1
            plan.disarm()  # so the close below can seal the tail
        finally:
            service.close()
        assert _check_index(idx_path, tx_path) == 0

    def test_drain_after_quarantine_swap_seals_the_held_index(self, tmp_path):
        """The drain closes the index the service holds, which the
        scrubber's quarantine swap replaced, so its tail is sealed."""
        tx_path, idx_path, service = make_journaled_disk_service(tmp_path)
        for i in range(4):
            run_op(service, "append", {"items": [900 + i]})
        flip_bit(idx_path, service.index._segments[0].matrix_offset + 3)
        scrub = Scrubber(service, interval=0.01, idle_after=0.0)
        service.last_request_monotonic = time.monotonic() - 60
        swapped_from = service.index
        for _ in range(len(service.index.items()) + 8):
            scrub.tick()
            if service.mode != "ok":
                break
        assert service.index is not swapped_from
        assert run_op(service, "recover")["recovered"] is True
        for i in range(4, 10):
            run_op(service, "append", {"items": [900 + i]})
        assert service.index.tail_size == 6
        with start_server_thread(service):
            pass  # a graceful drain: the server closes the service
        assert _check_index(idx_path, tx_path) == 0
