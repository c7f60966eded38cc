"""Replication unit and in-process tests.

Covers the snapshot manifest layer (build/verify/assemble), the
journal write surface (:class:`ReplicationLog`), the server-side
``replicate``/``snapshot``/``snapshot_fetch``/``promote`` ops,
follower apply semantics (position + token dedupe, gap detection),
bootstrap against a live in-process primary, promotion, and the
supervisor's standby-failover hook.  The full kill -9 subprocess drill lives in
tests/test_resilience.py (TestFailoverExactlyOnce) and the CI
``failover`` job's ``service_smoke.py --failover``.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.bbs import BBS
from repro.data.database import TransactionDatabase
from repro.errors import (
    ConfigurationError,
    CorruptFileError,
    ServiceError,
    StorageError,
)
from repro.service.client import ServiceClient
from repro.service.handlers import PatternService
from repro.service.replication import (
    FollowerTailer,
    ReplicationLog,
    ReplicationState,
    bootstrap_follower,
    parse_address,
    salvage_journal,
)
from repro.service.resilience import TOKEN_MIN
from repro.service.server import start_server_thread
from repro.service.supervisor import _promote_standby
from repro.storage.diskbbs import DiskBBS
from repro.storage.metrics import IOStats
from repro.storage.snapshot import (
    MANIFEST_FORMAT,
    SnapshotManifest,
    assemble_index,
    build_manifest,
    verify_span,
)
from repro.storage.txfile import TransactionFileReader, TransactionFileWriter
from tests.conftest import make_random_database


# --------------------------------------------------------------------------
# parse_address
# --------------------------------------------------------------------------


class TestParseAddress:
    def test_round_trip(self):
        assert parse_address("127.0.0.1:7707") == ("127.0.0.1", 7707)
        assert parse_address("db-host:1") == ("db-host", 1)

    @pytest.mark.parametrize(
        "bad", ["", "hostonly", ":7707", "host:", "host:abc", "host:0",
                "host:70000"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigurationError):
            parse_address(bad)


# --------------------------------------------------------------------------
# ReplicationLog
# --------------------------------------------------------------------------


def write_journal(path, transactions, *, tids=None):
    with TransactionFileWriter(path) as writer:
        for n, transaction in enumerate(transactions):
            tid = None if tids is None else tids[n]
            writer.append(transaction, tid=tid)
        writer.sync()


def journal_records(path):
    """Every record of a journal file as ``replicate`` sends it."""
    with TransactionFileReader(path) as reader:
        return [
            [position, tid, list(items)]
            for position, tid, items in reader.scan()
        ]


class TestReplicationLog:
    def test_append_and_tail_interleave(self, tmp_path):
        path = tmp_path / "log.tx"
        with ReplicationLog.open(path, truncate=True) as log:
            log.append([1, 2], tid=5)
            log.sync()
            assert journal_records(path) == [[0, 5, [1, 2]]]
            log.append([3], tid=TOKEN_MIN + 9)
            log.sync()
            assert journal_records(path) == [
                [0, 5, [1, 2]], [1, TOKEN_MIN + 9, [3]]
            ]

    def test_salvage_reopens_for_append(self, tmp_path):
        path = tmp_path / "log.tx"
        write_journal(path, [[1], [2]])
        log = ReplicationLog.open(path)
        try:
            report = log.salvage()
            assert report.records_kept == 2
            log.append([3])
            log.sync()
            assert len(journal_records(path)) == 3
        finally:
            log.close()

    def test_salvage_journal_wrapper(self, tmp_path):
        path = tmp_path / "log.tx"
        write_journal(path, [[1]])
        report = salvage_journal(path)
        assert report.records_kept == 1
        assert not report.repaired


# --------------------------------------------------------------------------
# Snapshot manifests
# --------------------------------------------------------------------------


def make_disk_index(tmp_path, transactions, *, name="snap.bbsd", m=64):
    idx_path = tmp_path / name
    index = DiskBBS.create(idx_path, m=m, flush_threshold=8)
    for transaction in transactions:
        index.insert(transaction)
    index.flush()
    return idx_path, index


class TestSnapshotManifest:
    def test_build_describes_sealed_state(self, tmp_path):
        db = make_random_database(seed=3, n_transactions=24, n_items=16)
        idx_path, index = make_disk_index(tmp_path, db)
        try:
            manifest = build_manifest(index, high_water_tid=23)
            assert manifest.covered_transactions == 24
            assert manifest.m == index.m and manifest.k == index.k
            assert manifest.high_water_tid == 23
            assert sum(e.n_tx for e in manifest.segments) == 24
            assert manifest.total_bytes == idx_path.stat().st_size
        finally:
            index.close()

    def test_dict_round_trip(self, tmp_path):
        db = make_random_database(seed=4, n_transactions=16, n_items=12)
        idx_path, index = make_disk_index(tmp_path, db)
        try:
            manifest = build_manifest(index, high_water_tid=None)
        finally:
            index.close()
        clone = SnapshotManifest.from_dict(manifest.as_dict())
        assert clone == manifest
        assert clone.format == MANIFEST_FORMAT

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(CorruptFileError):
            SnapshotManifest.from_dict({"format": "not-a-snapshot"})
        with pytest.raises(CorruptFileError):
            SnapshotManifest.from_dict({"format": MANIFEST_FORMAT})

    def test_verify_span_catches_corruption(self, tmp_path):
        db = make_random_database(seed=5, n_transactions=16, n_items=12)
        idx_path, index = make_disk_index(tmp_path, db)
        try:
            manifest = build_manifest(index, high_water_tid=None)
            entry = manifest.segments[0]
            blob = index.read_span(entry.offset, entry.length)
            verify_span(entry, blob, idx_path)  # clean passes
            flipped = bytes([blob[0] ^ 0x40]) + blob[1:]
            with pytest.raises(CorruptFileError):
                verify_span(entry, flipped, idx_path)
            with pytest.raises(CorruptFileError):
                verify_span(entry, blob[:-1], idx_path)
        finally:
            index.close()

    def test_assemble_is_bit_identical(self, tmp_path):
        db = make_random_database(seed=6, n_transactions=32, n_items=14)
        idx_path, index = make_disk_index(tmp_path, db)
        try:
            manifest = build_manifest(index, high_water_tid=31)
            base = index.read_span(0, manifest.base_length)
            spans = [
                index.read_span(e.offset, e.length) for e in manifest.segments
            ]
        finally:
            index.close()
        target = tmp_path / "replica.bbsd"
        assemble_index(manifest, base, iter(spans), target)
        assert target.read_bytes() == idx_path.read_bytes()
        # The assembled file opens and serves the same counts.
        with DiskBBS.open(target) as replica:
            fresh = BBS.from_database(db, m=replica.m, k=replica.k)
            for probe in ([1], [2, 3], [5]):
                assert replica.count_itemset(probe) == fresh.count_itemset(probe)

    def test_assemble_refuses_missing_span(self, tmp_path):
        db = make_random_database(seed=7, n_transactions=32, n_items=14)
        idx_path, index = make_disk_index(tmp_path, db)
        try:
            manifest = build_manifest(index, high_water_tid=None)
            base = index.read_span(0, manifest.base_length)
            spans = [
                index.read_span(e.offset, e.length)
                for e in manifest.segments[:-1]
            ]
        finally:
            index.close()
        target = tmp_path / "replica.bbsd"
        # CorruptFileError is an OSError, so the assembly wrapper reports
        # it as a StorageError anchored at the temp file.
        with pytest.raises(StorageError):
            assemble_index(manifest, base, iter(spans), target)
        assert not target.exists()


# --------------------------------------------------------------------------
# In-process service fixtures
# --------------------------------------------------------------------------


def make_primary(tmp_path, *, seed=17, n_transactions=30, name="primary"):
    """A durable PatternService over a DiskBBS log + journal pair."""
    db_src = make_random_database(
        seed=seed, n_transactions=n_transactions, n_items=20, max_len=6
    )
    db_path = tmp_path / f"{name}.tx"
    idx_path = tmp_path / f"{name}.bbsd"
    stats = IOStats()
    with TransactionFileWriter(db_path, stats=stats) as writer:
        for transaction in db_src:
            writer.append(transaction)
        writer.sync()
    index = DiskBBS.create(idx_path, m=64, stats=stats, flush_threshold=8)
    for transaction in db_src:
        index.insert(transaction)
    index.flush()
    db = TransactionDatabase(list(db_src), stats=stats)
    journal = ReplicationLog.open(db_path, stats=stats)
    service = PatternService(db, index, journal=journal)
    return db_path, idx_path, db, service


def run_op(service, op, args=None):
    handler = PatternService._OPS[op]
    return asyncio.run(handler(service, args or {}))


# --------------------------------------------------------------------------
# The replicate / snapshot / snapshot_fetch ops
# --------------------------------------------------------------------------


class TestReplicateOp:
    def test_serves_journal_batches(self, tmp_path):
        db_path, idx_path, db, service = make_primary(tmp_path)
        try:
            first = run_op(
                service, "replicate", {"from_position": 0, "max_records": 10}
            )
            assert first["high_water_position"] == len(db)
            assert first["role"] == "primary"
            assert len(first["records"]) == 10
            position, tid, items = first["records"][0]
            assert position == 0
            assert tuple(items) == next(iter(db))
            rest = run_op(
                service,
                "replicate",
                {"from_position": 10, "max_records": 4096},
            )
            assert len(rest["records"]) == len(db) - 10
            # Untokened and tokened appends are served exactly as the
            # journal file holds them: position, tid and items.
            run_op(service, "append", {"items": [9, 3]})
            run_op(service, "append", {"items": [4, 2], "token": TOKEN_MIN + 7})
            run_op(service, "append", {"items": [5], "token": TOKEN_MIN + 8})
            served = run_op(
                service, "replicate", {"from_position": 0, "max_records": 4096}
            )
            assert served["records"] == journal_records(db_path)
            assert served["records"][-2:] == [
                [len(db) - 2, TOKEN_MIN + 7, [2, 4]],
                [len(db) - 1, TOKEN_MIN + 8, [5]],
            ]
        finally:
            service.close()

    def test_caught_up_returns_empty(self, tmp_path):
        db_path, idx_path, db, service = make_primary(tmp_path)
        try:
            payload = run_op(
                service, "replicate", {"from_position": len(db)}
            )
            assert payload["records"] == []
            assert payload["high_water_position"] == len(db)
        finally:
            service.close()

    def test_long_poll_times_out_quietly(self, tmp_path):
        db_path, idx_path, db, service = make_primary(tmp_path)
        try:
            payload = run_op(
                service,
                "replicate",
                {"from_position": len(db), "wait_s": 0.05},
            )
            assert payload["records"] == []
        finally:
            service.close()

    def test_append_and_drain_each_answer_a_parked_long_poll(self, tmp_path):
        db_path, idx_path, db, service = make_primary(tmp_path)
        replicate = PatternService._OPS["replicate"]
        caught_up = {"from_position": len(db), "wait_s": 10}

        async def scenario():
            loop = asyncio.get_running_loop()
            parked = asyncio.ensure_future(replicate(service, caught_up))
            await asyncio.sleep(0.1)
            assert not parked.done()
            await PatternService._OPS["append"](service, {"items": [4, 2]})
            grown = await asyncio.wait_for(parked, 2)
            parked = asyncio.ensure_future(
                replicate(service, {**caught_up, "from_position": len(db)})
            )
            await asyncio.sleep(0.1)
            assert not parked.done()
            started = loop.time()
            service.end_long_polls()
            drained = await asyncio.wait_for(parked, 2)
            return grown, drained, loop.time() - started

        try:
            grown, drained, elapsed = asyncio.run(scenario())
            assert [r[2] for r in grown["records"]] == [[2, 4]]
            assert drained["records"] == []
            assert elapsed < 1.0
        finally:
            service.close()

    def test_a_server_drain_answers_a_parked_poll_at_once(self, tmp_path):
        db_path, idx_path, db, service = make_primary(tmp_path)
        handle = start_server_thread(service)
        client = ServiceClient(handle.host, handle.port, timeout=20)
        try:
            with ThreadPoolExecutor(max_workers=1) as pool:
                parked = pool.submit(client.replicate, len(db), wait_s=10)
                time.sleep(0.3)  # parked on a caught-up primary
                started = time.monotonic()
                handle.request_shutdown()
                assert parked.result(timeout=5)["records"] == []
                handle.thread.join(5)
                assert not handle.thread.is_alive()
                assert time.monotonic() - started < 1.5
        finally:
            client.close()

    def test_a_parked_poll_leaves_the_read_service_time_alone(self, tmp_path):
        db_path, idx_path, db, service = make_primary(tmp_path)
        with start_server_thread(service) as handle:
            read = handle.server.admission._classes["read"]
            with ServiceClient(handle.host, handle.port) as client:
                for _ in range(20):
                    client.count([1, 2])
                served_s = read.ewma_s
                polled = client.replicate(len(db), wait_s=0.5)
        assert polled["records"] == []
        assert 0 < served_s < 0.1
        assert read.ewma_s == served_s

    def test_validation(self, tmp_path):
        db_path, idx_path, db, service = make_primary(tmp_path)
        try:
            for bad in (-1, "x", True, None):
                with pytest.raises(ServiceError) as excinfo:
                    run_op(service, "replicate", {"from_position": bad})
                assert excinfo.value.error_type == "bad_request"
            with pytest.raises(ServiceError) as excinfo:
                run_op(service, "replicate", {"from_position": len(db) + 1})
            assert excinfo.value.error_type == "query"
        finally:
            service.close()

    def test_requires_a_journal(self):
        db = make_random_database(seed=9, n_transactions=20, n_items=12)
        service = PatternService(db, BBS.from_database(db, m=64))
        try:
            with pytest.raises(ServiceError) as excinfo:
                run_op(service, "replicate", {"from_position": 0})
            assert excinfo.value.error_type == "query"
        finally:
            service.close()


class TestSnapshotOps:
    def test_manifest_covers_everything_after_tail_flush(self, tmp_path):
        db_path, idx_path, db, service = make_primary(tmp_path)
        try:
            run_op(service, "append", {"items": [1, 2]})  # buffered tail
            payload = run_op(service, "snapshot")
            manifest = SnapshotManifest.from_dict(payload)
            assert manifest.covered_transactions == len(db)
            assert manifest.high_water_tid is not None
        finally:
            service.close()

    def test_high_water_tid_is_the_journal_tid_of_the_last_sealed_record(
        self, tmp_path
    ):
        db_path, idx_path, db, service = make_primary(tmp_path)
        try:
            run_op(service, "append", {"items": [1, 2], "token": TOKEN_MIN + 3})
            manifest = SnapshotManifest.from_dict(run_op(service, "snapshot"))
            covered = manifest.covered_transactions
            assert covered == service.index.sealed_transactions == len(db)
            assert manifest.high_water_tid == TOKEN_MIN + 3
            assert manifest.high_water_tid == journal_records(db_path)[
                covered - 1
            ][1]
        finally:
            service.close()

    def test_fetch_round_trips_spans(self, tmp_path):
        db_path, idx_path, db, service = make_primary(tmp_path)
        try:
            manifest = SnapshotManifest.from_dict(run_op(service, "snapshot"))
            import base64 as b64

            blob = b""
            offset = 0
            while True:
                chunk = run_op(
                    service,
                    "snapshot_fetch",
                    {"part": "header", "offset": offset, "max_bytes": 7},
                )
                blob += b64.b64decode(chunk["data"])
                offset += chunk["length"]
                if chunk["eof"]:
                    break
            assert len(blob) == manifest.base_length
            entry = manifest.segments[0]
            chunk = run_op(
                service,
                "snapshot_fetch",
                {"part": 0, "max_bytes": entry.length},
            )
            verify_span(entry, b64.b64decode(chunk["data"]), idx_path)
        finally:
            service.close()

    def test_fetch_validation(self, tmp_path):
        db_path, idx_path, db, service = make_primary(tmp_path)
        try:
            for part, err in ((None, "bad_request"), (99, "query"),
                              (True, "bad_request")):
                with pytest.raises(ServiceError) as excinfo:
                    run_op(service, "snapshot_fetch", {"part": part})
                assert excinfo.value.error_type == err
        finally:
            service.close()

    def test_snapshot_needs_a_disk_index(self, tmp_path):
        db = make_random_database(seed=10, n_transactions=20, n_items=12)
        path = tmp_path / "mem.tx"
        write_journal(path, db)
        journal = ReplicationLog.open(path)
        service = PatternService(
            db, BBS.from_database(db, m=64), journal=journal
        )
        try:
            with pytest.raises(ServiceError) as excinfo:
                run_op(service, "snapshot")
            assert excinfo.value.error_type == "query"
        finally:
            service.close()


# --------------------------------------------------------------------------
# Follower apply semantics + promotion
# --------------------------------------------------------------------------


def make_follower(tmp_path, *, name="follower"):
    db_path = tmp_path / f"{name}.tx"
    stats = IOStats()
    journal = ReplicationLog.open(db_path, truncate=True, stats=stats)
    db = TransactionDatabase([], stats=stats)
    index = BBS.from_database(db, m=64, stats=stats)
    service = PatternService(
        db, index, journal=journal,
        role="follower", upstream="127.0.0.1:1",
    )
    return db_path, db, service


class TestApplyReplicated:
    def test_applies_in_order_and_dedupes_positions(self, tmp_path):
        db_path, db, service = make_follower(tmp_path)
        try:
            assert service.apply_replicated(0, 0, (1, 2)) is True
            assert service.apply_replicated(1, 1, (3,)) is True
            # A reconnect re-offers an already-applied record: skipped.
            assert service.apply_replicated(0, 0, (1, 2)) is False
            assert len(db) == 2
            # Applies land in the local journal with original tids.
            with TransactionFileReader(db_path) as reader:
                rows = list(reader.scan())
            assert [(tid, items) for _, tid, items in rows] == [
                (0, (1, 2)), (1, (3,))
            ]
        finally:
            service.close()

    def test_token_dedupe_and_window_seeding(self, tmp_path):
        db_path, db, service = make_follower(tmp_path)
        try:
            token = TOKEN_MIN + 77
            assert service.apply_replicated(0, token, (5, 6)) is True
            # The same token at a later position is a duplicate, not a
            # new record (a retried append the primary ACKed twice
            # can never double-apply on the follower).
            assert service.apply_replicated(1, token, (5, 6)) is False
            assert service.idempotency.lookup(token) == 0
            assert len(db) == 1
        finally:
            service.close()

    def test_gap_is_a_hard_error(self, tmp_path):
        db_path, db, service = make_follower(tmp_path)
        try:
            with pytest.raises(StorageError):
                service.apply_replicated(3, 3, (1,))
        finally:
            service.close()

    def test_replication_state_lag(self):
        state = ReplicationState(role="follower", upstream="h:1")
        state.upstream_high_water = 10
        assert state.lag(7) == 3
        assert state.lag(12) == 0
        payload = state.as_dict(7)
        assert payload["role"] == "follower"
        assert payload["lag"] == 3
        with pytest.raises(ConfigurationError):
            ReplicationState(role="queen")


class TestPromotion:
    def test_follower_refuses_appends_until_promoted(self, tmp_path):
        db_path, db, service = make_follower(tmp_path)
        try:
            service.apply_replicated(0, 0, (1, 2))
            with pytest.raises(ServiceError) as excinfo:
                run_op(service, "append", {"items": [9]})
            assert excinfo.value.error_type == "not_primary"

            stopped = []
            service.stop_tailer_callback = lambda: stopped.append(True)
            outcome = run_op(service, "promote")
            assert outcome["promoted"] is True
            assert outcome["role"] == "primary"
            assert stopped == [True]
            assert service.replication.role == "primary"

            appended = run_op(service, "append", {"items": [9]})
            assert appended["position"] == 1
            # Promote again: converging no-op.
            again = run_op(service, "promote")
            assert again["promoted"] is False
            assert again["n_transactions"] == 2
        finally:
            service.close()

    def test_promote_adopts_journal_ahead_records(self, tmp_path):
        """Records fsynced locally but not applied in memory survive."""
        db_path, db, service = make_follower(tmp_path)
        try:
            service.apply_replicated(0, 0, (1, 2))
            # Simulate a crash-interrupted apply: the record reached the
            # local journal but never the in-memory database.
            token = TOKEN_MIN + 123
            service.journal.append([7, 8], tid=token)
            service.journal.sync()
            assert len(db) == 1

            outcome = run_op(service, "promote")
            assert outcome["promoted"] is True
            assert outcome["n_transactions"] == 2
            assert len(db) == 2
            # The adopted token dedupes a post-failover client retry.
            replay = run_op(
                service, "append", {"items": [7, 8], "token": token}
            )
            assert replay["deduped"] is True
            assert replay["position"] == 1
            # The promoted primary serves the applied record and the
            # adopted one exactly as its journal file holds them.
            served = run_op(service, "replicate", {"from_position": 0})
            assert served["records"] == journal_records(db_path)
            assert served["records"] == [[0, 0, [1, 2]], [1, token, [7, 8]]]
        finally:
            service.close()

    def test_status_and_metrics_surface_the_role(self, tmp_path):
        db_path, db, service = make_follower(tmp_path)
        try:
            status = run_op(service, "status")
            assert status["role"] == "follower"
            assert status["replication"]["upstream"] == "127.0.0.1:1"
            assert status["replication"]["lag"] == 0
            metrics = run_op(service, "metrics")
            assert metrics["role"] == "follower"
            assert "records_applied" in metrics["replication"]
            run_op(service, "promote")
            status = run_op(service, "status")
            assert status["role"] == "primary"
            assert status["replication"]["promoted_seconds_ago"] >= 0.0
        finally:
            service.close()


# --------------------------------------------------------------------------
# Bootstrap + tailing against a live in-process primary
# --------------------------------------------------------------------------


class TestBootstrapFollower:
    def test_ships_snapshot_and_catches_up(self, tmp_path):
        db_path, idx_path, db, service = make_primary(
            tmp_path, n_transactions=25
        )
        with start_server_thread(service) as handle:
            # Tail transactions beyond the sealed snapshot coverage.
            with ServiceClient(handle.host, handle.port) as client:
                client.append([11, 12], token=TOKEN_MIN + 5)
                client.append([13])
            f_db = tmp_path / "boot.tx"
            f_idx = tmp_path / "boot.bbsd"
            actions = bootstrap_follower(
                handle.host, handle.port,
                db_path=f_db, index_path=f_idx, fetch_bytes=512,
            )
            assert any("shipped snapshot" in a for a in actions)
            assert any("journal record(s)" in a for a in actions)
        # The local journal holds the full history with original tids.
        with TransactionFileReader(f_db) as reader:
            rows = list(reader.scan())
        assert len(rows) == 27
        assert rows[25][1] == TOKEN_MIN + 5
        assert rows[25][2] == (11, 12)
        # The assembled index opens and covers the sealed prefix.
        with DiskBBS.open(f_idx) as replica:
            assert replica.n_transactions >= 25

    def test_bootstrap_refuses_non_durable_primary(self, tmp_path):
        db = make_random_database(seed=19, n_transactions=20, n_items=12)
        service = PatternService(db, BBS.from_database(db, m=64))
        with start_server_thread(service) as handle:
            with pytest.raises(ConfigurationError):
                bootstrap_follower(
                    handle.host, handle.port,
                    db_path=tmp_path / "x.tx",
                    index_path=tmp_path / "x.bbsd",
                )

    def test_tailer_catches_up_to_lag_zero(self, tmp_path):
        db_path, idx_path, db, service = make_primary(
            tmp_path, n_transactions=20
        )
        with start_server_thread(service) as handle:
            f_path, f_db, follower = make_follower(tmp_path, name="tailed")
            try:
                tailer = FollowerTailer(
                    follower, handle.host, handle.port,
                    batch_records=7, poll_wait_s=0.05,
                )

                async def _drive():
                    task = asyncio.ensure_future(tailer.run())
                    try:
                        deadline = asyncio.get_running_loop().time() + 15.0
                        while len(f_db) < len(db):
                            if asyncio.get_running_loop().time() > deadline:
                                raise AssertionError(
                                    f"tailer stalled at {len(f_db)}"
                                )
                            await asyncio.sleep(0.02)
                    finally:
                        tailer.request_stop()
                        task.cancel()
                        try:
                            await task
                        except asyncio.CancelledError:
                            pass

                asyncio.run(_drive())
                assert list(f_db) == list(db)
                assert follower.replication.lag(len(f_db)) == 0
                assert follower.replication.records_applied == len(db)
            finally:
                follower.close()


# --------------------------------------------------------------------------
# Supervisor standby failover
# --------------------------------------------------------------------------


class TestPromoteStandby:
    def test_promotes_a_live_standby(self, tmp_path):
        db_path, db, service = make_follower(tmp_path)
        lines = []
        with start_server_thread(service) as handle:
            code = _promote_standby(
                f"{handle.host}:{handle.port}", lines.append
            )
            assert code == 0
            assert service.replication.role == "primary"
        assert any("promoted standby" in line for line in lines)

    def test_unreachable_standby_fails_closed(self):
        lines = []
        code = _promote_standby("127.0.0.1:9", lines.append)
        assert code == 1
        assert any("failover" in line and "failed" in line for line in lines)
