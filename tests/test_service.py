"""End-to-end and unit tests of the pattern query service.

Covers the acceptance criteria of the service layer: 32+ concurrent
``count`` clients answered correctly, epoch-keyed cache invalidation on
``append`` (with a control showing the stale read the epoch prevents),
graceful drain on SIGTERM, plus the protocol, cache, batcher, jobs,
admission, and timeout behaviours.  Stdlib networking only.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.core.bbs import BBS
from repro.core.incremental import IncrementalMiner
from repro.core.mining import mine
from repro.data.database import TransactionDatabase
from repro.errors import QueryError, ServiceError, ServiceProtocolError
from repro.service.cache import CountCache, MicroBatcher, canonical_itemset
from repro.service.client import ServiceClient
from repro.service.handlers import (
    MAX_COUNT_BATCH,
    LatencyHistogram,
    PatternService,
)
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    decode_payload,
    encode_frame,
    error_frame,
    ok_frame,
    parse_request,
    read_frame_sock,
    write_frame_sock,
)
from repro.service.server import start_server_thread
from tests.conftest import make_random_database

N_CONCURRENT_CLIENTS = 32


def make_service(seed=11, *, miner_support=None, cache_entries=4096):
    db = make_random_database(
        seed=seed, n_transactions=160, n_items=30, max_len=7
    )
    bbs = BBS.from_database(db, m=128)
    miner = (
        IncrementalMiner(db, bbs, miner_support)
        if miner_support is not None
        else None
    )
    service = PatternService(
        db, bbs, miner=miner, cache_entries=cache_entries
    )
    return db, bbs, service


@pytest.fixture
def served():
    db, bbs, service = make_service()
    with start_server_thread(service) as handle:
        yield db, bbs, service, handle


# --------------------------------------------------------------------------
# Protocol unit tests
# --------------------------------------------------------------------------


class TestProtocol:
    def test_frame_roundtrip(self):
        payload = {"id": 3, "op": "count", "args": {"items": [1, 2]}}
        raw = encode_frame(payload)
        (length,) = struct.unpack(">I", raw[:4])
        assert length == len(raw) - 4
        assert decode_payload(raw[4:]) == payload

    def test_oversized_frame_rejected(self):
        with pytest.raises(ServiceProtocolError):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_non_object_payload_rejected(self):
        with pytest.raises(ServiceProtocolError):
            decode_payload(b"[1, 2, 3]")
        with pytest.raises(ServiceProtocolError):
            decode_payload(b"not json at all")

    @pytest.mark.parametrize("payload", [
        {"op": "count"},                      # missing id
        {"id": "x", "op": "count"},           # non-integer id
        {"id": True, "op": "count"},          # bool id
        {"id": 1},                            # missing op
        {"id": 1, "op": ""},                  # empty op
        {"id": 1, "op": "count", "args": 3},  # args not an object
    ])
    def test_bad_requests_rejected(self, payload):
        with pytest.raises(ServiceProtocolError):
            parse_request(payload)

    def test_ok_and_error_frames(self):
        assert ok_frame(7, {"a": 1}) == {"id": 7, "ok": True, "result": {"a": 1}}
        frame = error_frame(7, "timeout", "too slow")
        assert frame["ok"] is False
        assert frame["error"] == {"type": "timeout", "message": "too slow"}


# --------------------------------------------------------------------------
# Cache unit tests
# --------------------------------------------------------------------------


class TestCanonicalItemset:
    def test_sorts_and_dedupes(self):
        assert canonical_itemset([3, 1, 3, 2]) == (1, 2, 3)

    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            canonical_itemset([])

    def test_mixed_types_stable(self):
        assert canonical_itemset(["b", 2, "a", 1]) == (1, 2, "a", "b")


class TestCountCache:
    def test_hit_and_miss(self):
        cache = CountCache(max_entries=4)
        key = (1, 2)
        assert cache.get(key, 0) is None
        cache.put(key, 0, 42)
        assert cache.get(key, 0) == 42
        assert cache.hits == 1 and cache.misses == 1

    def test_epoch_is_part_of_the_key(self):
        cache = CountCache()
        cache.put((1,), 5, 10)
        assert cache.get((1,), 6) is None  # newer epoch: a miss by definition
        assert cache.get((1,), 5) == 10

    def test_exact_entries_are_separate(self):
        cache = CountCache()
        cache.put((1,), 0, 12)
        cache.put((1,), 0, 9, exact=True)
        assert cache.get((1,), 0) == 12
        assert cache.get((1,), 0, exact=True) == 9

    def test_lru_eviction(self):
        cache = CountCache(max_entries=2)
        cache.put((1,), 0, 1)
        cache.put((2,), 0, 2)
        assert cache.get((1,), 0) == 1  # refresh (1,) so (2,) is LRU
        cache.put((3,), 0, 3)
        assert cache.get((2,), 0) is None
        assert cache.get((1,), 0) == 1
        assert cache.evictions == 1


class TestMicroBatcher:
    """One request's cache misses, counted on the request's own task."""

    @staticmethod
    def _spy(monkeypatch, bbs):
        calls = []
        original = bbs.count_itemsets

        def spy(itemsets):
            calls.append(list(itemsets))
            return original(itemsets)

        monkeypatch.setattr(bbs, "count_itemsets", spy)
        return calls

    def test_duplicate_requests_coalesce(self, small_bbs, monkeypatch):
        calls = self._spy(monkeypatch, small_bbs)
        batcher = MicroBatcher(small_bbs)
        key = canonical_itemset([3, 5])
        assert batcher.count({key: [None] * 10}) == [small_bbs.count_itemset(key)]
        assert calls == [[key]]
        assert (batcher.batches, batcher.requests, batcher.coalesced) == (1, 10, 9)

    def test_mixed_batch_matches_direct_counts(self, small_bbs):
        itemsets = [
            canonical_itemset(items)
            for items in ([1], [1, 2], [2, 3], [4], [1, 2, 3], [9, 11])
        ]
        batcher = MicroBatcher(small_bbs)
        counts = batcher.count({itemset: [None] for itemset in itemsets})
        assert counts == [small_bbs.count_itemset(itemset) for itemset in itemsets]

    def test_a_cache_missing_count_completes_without_suspending(self):
        _, bbs, service = make_service()
        for op, args in (
            ("count", {"items": [2, 4], "exact": True}),
            ("count_batch", {"itemsets": [[1, 3], [5]], "exact": True}),
        ):
            coro = service.handle(op, args)
            with pytest.raises(StopIteration) as stop:
                coro.send(None)
            entries = stop.value.value.get("results", [stop.value.value])
            for entry in entries:
                assert entry["cached"] is False
                assert entry["estimate"] == bbs.count_itemset(entry["items"])
        assert service.batcher.batches == 2

    def test_one_count_itemsets_call_per_request(self, monkeypatch):
        _, bbs, service = make_service()
        calls = self._spy(monkeypatch, bbs)
        batch = [[2, 4], [1], [4, 2], [2, 4], [3]]
        asyncio.run(service.handle("count_batch", {"itemsets": batch}))
        # Duplicate itemsets in one batch are counted once.
        assert calls == [[(2, 4), (1,), (3,)]]
        asyncio.run(service.handle("count", {"items": [5]}))
        assert calls[1:] == [[(5,)]]
        # Cache hits reach the index not at all.
        asyncio.run(service.handle("count_batch", {"itemsets": [[1], [5]]}))
        assert len(calls) == 2

    def test_batch_counters_mean_what_the_wire_protocol_says(self):
        _, bbs, service = make_service()
        pair, single = bbs.signature_positions([2, 4]).size, bbs.signature_positions([1]).size
        asyncio.run(service.handle(
            "count_batch", {"itemsets": [[2, 4], [1], [4, 2], [2, 4]]}
        ))
        asyncio.run(service.handle("count", {"items": [1]}))  # a cache hit
        metrics = asyncio.run(service.handle("metrics", {}))
        assert metrics["batch"] == {
            "batches": 1,                  # count_itemsets calls
            "requests": 4,                 # cache-missing entries
            "coalesced": 2,                # the repeats of [2, 4]
            "slice_ands": pair + single,   # slice reads charged
            "slice_ands_saved": 2 * pair,  # positions the repeats skipped
        }


class TestLatencyHistogram:
    def test_buckets_are_cumulative(self):
        histogram = LatencyHistogram()
        histogram.record(0.00005)   # 0.05 ms -> first bucket
        histogram.record(0.002)     # 2 ms
        histogram.record(10.0)      # 10 s -> overflow bucket
        snapshot = histogram.as_dict()
        assert snapshot["count"] == 3
        assert snapshot["buckets"][0]["count"] == 1
        assert snapshot["buckets"][-1]["le_ms"] is None
        assert snapshot["buckets"][-1]["count"] == 3
        assert snapshot["max_ms"] == pytest.approx(10_000.0)


# --------------------------------------------------------------------------
# The acceptance-driving end-to-end tests
# --------------------------------------------------------------------------


class TestConcurrentCounts:
    def test_32_concurrent_clients_get_correct_counts(self, served):
        db, bbs, service, handle = served
        itemsets = [
            canonical_itemset([i % 25, (i * 7 + 3) % 25])
            for i in range(N_CONCURRENT_CLIENTS)
        ]
        expected = {
            itemset: (bbs.count_itemset(itemset), db.support(itemset))
            for itemset in set(itemsets)
        }

        def worker(itemset):
            with ServiceClient(handle.host, handle.port) as client:
                return client.count(itemset, exact=True)

        with ThreadPoolExecutor(max_workers=N_CONCURRENT_CLIENTS) as pool:
            payloads = list(pool.map(worker, itemsets))

        for itemset, payload in zip(itemsets, payloads):
            estimate, exact = expected[itemset]
            assert payload["estimate"] == estimate, itemset
            assert payload["exact"] == exact, itemset
            assert payload["estimate"] >= payload["exact"]  # Lemma 4

    def test_one_connection_many_requests(self, served):
        db, bbs, _, handle = served
        with ServiceClient(handle.host, handle.port) as client:
            for i in range(20):
                itemset = canonical_itemset([i % 30])
                assert client.count(itemset)["estimate"] == \
                    bbs.count_itemset(itemset)


class TestEpochInvalidation:
    def test_append_invalidates_cached_count(self, served):
        db, bbs, service, handle = served
        itemset = [2, 4]
        with ServiceClient(handle.host, handle.port) as client:
            first = client.count(itemset, exact=True)
            # Same epoch: the repeat is served from cache, same values.
            repeat = client.count(itemset, exact=True)
            assert repeat["cached"] is True
            assert repeat["estimate"] == first["estimate"]

            appended = client.append(itemset)
            assert appended["epoch"] > first["epoch"]

            fresh = client.count(itemset, exact=True)
            # The appended transaction contains the itemset, so both the
            # estimate and the exact count must move — a stale cache hit
            # would return `first` unchanged.
            assert fresh["cached"] is False
            assert fresh["exact"] == first["exact"] + 1
            assert fresh["estimate"] == first["estimate"] + 1
            assert fresh["epoch"] == appended["epoch"]

    def test_stale_read_happens_without_the_epoch_key(self, served):
        """The control: key the cache by itemset alone and the bug appears."""
        db, bbs, service, handle = served
        itemset = canonical_itemset([2, 4])
        frozen_epoch = 0  # what a cache without epoch awareness would use
        with ServiceClient(handle.host, handle.port) as client:
            before = client.count(itemset)["estimate"]
            service.cache.put(itemset, frozen_epoch, before)
            client.append(itemset)
            stale = service.cache.get(itemset, frozen_epoch)
            live = client.count(itemset)["estimate"]
            assert stale == before          # the epoch-less cache still serves this
            assert live == before + 1       # reality moved on
            assert live != stale            # i.e. the stale value is wrong

    def test_append_through_server_keeps_index_aligned(self, served):
        db, bbs, service, handle = served
        with ServiceClient(handle.host, handle.port) as client:
            n_before = client.status()["n_transactions"]
            client.append([7, 8, 9])
            status = client.status()
            assert status["n_transactions"] == n_before + 1
        assert len(db) == bbs.n_transactions == n_before + 1


class TestMineJobs:
    def test_mine_job_matches_direct_mining(self, served):
        db, bbs, service, handle = served
        direct = mine(
            TransactionDatabase(iter(db)),
            BBS.from_database(TransactionDatabase(iter(db)), m=128),
            9,
        )
        with ServiceClient(handle.host, handle.port) as client:
            job_id = client.mine(9)
            payload = client.wait_for_job(job_id, timeout=120)
        result = payload["result"]
        assert result["n_patterns"] == len(direct.patterns)
        served_counts = {
            tuple(entry["items"]): entry["count"]
            for entry in result["patterns"]
        }
        for itemset, pattern in direct.patterns.items():
            assert served_counts[canonical_itemset(itemset)] == pattern.count

    def test_job_tracks_submission_epoch(self, served):
        db, bbs, service, handle = served
        with ServiceClient(handle.host, handle.port) as client:
            job_id = client.mine(9)
            payload = client.wait_for_job(job_id, timeout=120)
            assert payload["epoch"] == bbs.epoch
            assert payload["result"]["n_transactions"] == len(db)
            # An append after submission flags the finished job as stale.
            client.append([1, 2, 3])
            assert client.job(job_id)["stale"] is True

    def test_unknown_job_id_is_a_query_error(self, served):
        _, _, _, handle = served
        with ServiceClient(handle.host, handle.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.job("job-999")
            assert excinfo.value.error_type == "query"

    def test_cancel_discards_the_result(self, served):
        _, _, service, handle = served
        with ServiceClient(handle.host, handle.port) as client:
            job_id = client.mine(9)
            client.cancel(job_id)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                state = client.job(job_id)["state"]
                if state in ("cancelled", "done"):
                    break
                time.sleep(0.02)
            # Cancellation is cooperative: a job caught before its worker
            # finished ends `cancelled` with no result; one that already
            # completed keeps its result.  Either way the state settles.
            assert state in ("cancelled", "done")
            if state == "cancelled":
                assert service._jobs[job_id].result is None


class TestTrackingMode:
    def test_patterns_stay_current_under_appends(self):
        db, bbs, service = make_service(seed=23, miner_support=30)
        with start_server_thread(service) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                before = client.patterns()
                # Push one itemset over the threshold via appends.
                target = [0, 1]
                for _ in range(40):
                    client.append(target)
                after = client.patterns()
                assert after["epoch"] == before["epoch"] + 40
                served = {
                    tuple(p["items"]): p["count"] for p in after["patterns"]
                }
                assert served[(0, 1)] == db.support([0, 1])
                assert served[(0, 1)] >= 30

    def test_patterns_requires_tracking(self, served):
        _, _, _, handle = served
        with ServiceClient(handle.host, handle.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.patterns()
            assert excinfo.value.error_type == "query"


class TestObservability:
    def test_metrics_exposes_iostats_dicts_and_latency(self, served):
        _, _, _, handle = served
        with ServiceClient(handle.host, handle.port) as client:
            client.count([1, 2], exact=True)
            client.count([1, 2])
            metrics = client.metrics()
        from repro.storage.metrics import IOStats

        expected_keys = set(IOStats().as_dict())
        assert set(metrics["io"]) == expected_keys
        assert set(metrics["io_delta"]) == expected_keys
        assert metrics["io"]["probe_fetches"] > 0  # the exact refinement probed
        assert metrics["requests"]["count"] == 2
        count_latency = metrics["latency"]["count"]
        assert count_latency["count"] == 2
        assert count_latency["buckets"][-1]["count"] == 2
        assert metrics["cache"]["hits"] >= 1  # second count hit the cache

    def test_io_delta_resets_between_metrics_calls(self, served):
        _, _, _, handle = served
        with ServiceClient(handle.host, handle.port) as client:
            client.count([3, 4])
            first = client.metrics()
            assert first["io_delta"]["slice_reads"] > 0
            second = client.metrics()
            assert second["io_delta"]["slice_reads"] == 0
            assert second["io"]["slice_reads"] == first["io"]["slice_reads"]

    def test_status_and_health(self, served):
        db, bbs, _, handle = served
        with ServiceClient(handle.host, handle.port) as client:
            status = client.status()
            assert status["n_transactions"] == len(db)
            assert status["epoch"] == bbs.epoch
            assert status["index"] == "BBS"
            assert status["tracking"] is False
            assert client.health()["ok"] is True


class TestServerLimits:
    def test_admission_limit_rejects_excess_connections(self):
        _, _, service = make_service(seed=5)
        with start_server_thread(service, max_connections=2) as handle:
            with ServiceClient(handle.host, handle.port) as c1, \
                    ServiceClient(handle.host, handle.port) as c2:
                assert c1.health()["ok"] and c2.health()["ok"]
                sock = socket.create_connection(
                    (handle.host, handle.port), timeout=5
                )
                try:
                    frame = read_frame_sock(sock)
                finally:
                    sock.close()
                assert frame["ok"] is False
                assert frame["error"]["type"] == "overloaded"

    def test_request_timeout_is_reported_not_fatal(self):
        _, _, service = make_service(seed=5)

        async def _slow_op(self, args):
            await asyncio.sleep(0.5)
            return {"ok": True}

        service._OPS = {**PatternService._OPS, "slowop": _slow_op}
        with start_server_thread(service, request_timeout=0.05) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.request("slowop")
                assert excinfo.value.error_type == "timeout"
                # The connection survives the timeout.
                assert client.health()["ok"] is True

    def test_unknown_op_is_bad_request(self, served):
        _, _, _, handle = served
        with ServiceClient(handle.host, handle.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.request("frobnicate")
            assert excinfo.value.error_type == "bad_request"

    def test_bad_items_are_bad_requests(self, served):
        _, _, _, handle = served
        with ServiceClient(handle.host, handle.port) as client:
            for bad_args in ({}, {"items": []}, {"items": "3,4"},
                             {"items": [1.5]}, {"items": [True]}):
                with pytest.raises(ServiceError) as excinfo:
                    client.request("count", bad_args)
                assert excinfo.value.error_type == "bad_request"

    def test_malformed_frame_gets_protocol_error(self, served):
        _, _, _, handle = served
        sock = socket.create_connection((handle.host, handle.port), timeout=5)
        try:
            body = b"this is not json"
            sock.sendall(struct.pack(">I", len(body)) + body)
            frame = read_frame_sock(sock)
        finally:
            sock.close()
        assert frame["ok"] is False
        assert frame["error"]["type"] == "protocol"

    def test_request_id_echoed(self, served):
        _, _, _, handle = served
        sock = socket.create_connection((handle.host, handle.port), timeout=5)
        try:
            write_frame_sock(sock, {"id": 41, "op": "health", "args": {}})
            frame = read_frame_sock(sock)
        finally:
            sock.close()
        assert frame["id"] == 41 and frame["ok"] is True


class TestGracefulDrain:
    def test_in_flight_request_is_answered_during_drain(self):
        _, _, service = make_service(seed=5)

        async def _slow_op(self, args):
            await asyncio.sleep(0.3)
            return {"survived": True}

        service._OPS = {**PatternService._OPS, "slowop": _slow_op}
        handle = start_server_thread(service)
        client = ServiceClient(handle.host, handle.port, timeout=10)
        try:
            with ThreadPoolExecutor(max_workers=1) as pool:
                in_flight = pool.submit(client.request, "slowop")
                time.sleep(0.1)  # the request is now mid-handler
                handle.request_shutdown()
                assert in_flight.result(timeout=10) == {"survived": True}
            handle.thread.join(10)
            assert not handle.thread.is_alive()
        finally:
            client.close()

    def test_idle_connection_reads_eof_while_in_flight_request_is_answered(self):
        _, _, service = make_service(seed=5)

        async def _slow_op(self, args):
            await asyncio.sleep(0.6)
            return {"survived": True}

        service._OPS = {**PatternService._OPS, "slowop": _slow_op}
        handle = start_server_thread(service)
        busy = ServiceClient(handle.host, handle.port, timeout=10)
        idle = socket.create_connection((handle.host, handle.port), timeout=10)
        try:
            write_frame_sock(idle, {"id": 1, "op": "health", "args": {}})
            assert read_frame_sock(idle)["ok"] is True  # opened and served
            with ThreadPoolExecutor(max_workers=1) as pool:
                in_flight = pool.submit(busy.request, "slowop")
                time.sleep(0.1)  # the request is now mid-handler
                handle.request_shutdown()
                assert idle.recv(1) == b""  # EOF, not a timeout
                assert not in_flight.done()
                assert in_flight.result(timeout=10) == {"survived": True}
            handle.thread.join(10)
            assert not handle.thread.is_alive()
        finally:
            idle.close()
            busy.close()

    def test_shutdown_op_drains(self):
        _, _, service = make_service(seed=5)
        handle = start_server_thread(service)
        with ServiceClient(handle.host, handle.port) as client:
            assert client.shutdown()["draining"] is True
        handle.thread.join(10)
        assert not handle.thread.is_alive()
        # New connections are refused after the drain.
        with pytest.raises(OSError):
            socket.create_connection((handle.host, handle.port), timeout=1)


class TestSigtermSubprocess:
    """The CLI server process drains and exits 0 on SIGTERM."""

    @pytest.fixture
    def fixture_index(self, tmp_path):
        from repro.cli import main

        db_path = str(tmp_path / "svc.tx")
        idx_path = str(tmp_path / "svc.bbs")
        assert main([
            "generate", "--out", db_path, "--transactions", "200",
            "--items", "60", "--patterns", "25", "--seed", "9",
        ]) == 0
        assert main([
            "index", "--db", db_path, "--out", idx_path, "--m", "256",
        ]) == 0
        return db_path, idx_path

    def test_sigterm_drains_and_exits_zero(self, fixture_index):
        db_path, idx_path = fixture_index
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--db", db_path, "--index", idx_path, "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            port = None
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if line.startswith("serving on "):
                    port = int(line.rsplit(":", 1)[1])
                    break
            assert port, "server never announced its port"
            with ServiceClient("127.0.0.1", port) as client:
                payload = client.count([3, 17], exact=True)
                assert payload["estimate"] >= payload["exact"]
                proc.send_signal(signal.SIGTERM)
                # The already-open connection still gets answered while
                # the server drains.
                assert client.health()["ok"] is True
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "drained after" in out


class TestCountBatch:
    """``count_batch`` on one node: every entry answers like ``count``."""

    def test_entries_equal_single_counts(self, served):
        db, _, _, handle = served
        itemsets = [[1, 2], [3], [2, 4, 6], [7, 11], [5, 9]]
        with ServiceClient(handle.host, handle.port) as client:
            batch = client.count_batch(itemsets, exact=True)
            assert len(batch["results"]) == len(itemsets)
            for items, entry in zip(itemsets, batch["results"]):
                alone = client.count(items, exact=True)
                assert entry["items"] == alone["items"]
                for key in ("estimate", "exact", "epoch"):
                    assert entry[key] == alone[key]
                assert entry["exact"] == db.support(items)

    def test_duplicates_inside_one_batch(self, served):
        _, bbs, service, handle = served
        with ServiceClient(handle.host, handle.port) as client:
            batch = client.count_batch([[2, 4], [1], [4, 2], [2, 4]])
        first, other, *dups = batch["results"]
        assert all(entry == first for entry in dups)
        assert first["cached"] is False
        assert first["estimate"] == bbs.count_itemset([2, 4])
        assert other["estimate"] == bbs.count_itemset([1])
        # The two distinct itemsets were counted once each; the two
        # repeats of [2, 4] coalesced onto the first one's count.
        assert (service.batcher.requests, service.batcher.coalesced) == (4, 2)
        assert service.batcher.slice_ands == (
            bbs.signature_positions([2, 4]).size + bbs.signature_positions([1]).size
        )

    def test_mixed_item_types_in_one_batch(self):
        db = TransactionDatabase([[1, "a"], [1, 2], ["a", "b"], [2, "b"]])
        bbs = BBS.from_database(db, m=64)
        service = PatternService(db, bbs)
        with start_server_thread(service) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                batch = client.count_batch([[1], ["a"], [2, "b"]], exact=True)
        assert [entry["exact"] for entry in batch["results"]] == [2, 2, 1]
        assert [entry["estimate"] for entry in batch["results"]] == [
            bbs.count_itemset(items) for items in ([1], ["a"], [2, "b"])
        ]

    def test_repeated_batch_is_cached(self, served):
        _, _, _, handle = served
        itemsets = [[1, 2], [3, 5], [8]]
        with ServiceClient(handle.host, handle.port) as client:
            first = client.count_batch(itemsets)
            again = client.count_batch(itemsets)
        assert [e["cached"] for e in first["results"]] == [False] * 3
        assert [e["cached"] for e in again["results"]] == [True] * 3
        assert [e["estimate"] for e in again["results"]] == [
            e["estimate"] for e in first["results"]
        ]
        assert again["epoch"] == first["epoch"]

    def test_one_invalid_entry_rejects_the_whole_batch(self, served):
        _, _, service, handle = served
        with ServiceClient(handle.host, handle.port) as client:
            for bad in ([1, 2], []), ([1], [1.5]), ([3], "4"):
                with pytest.raises(ServiceError) as excinfo:
                    client.request("count_batch", {"itemsets": list(bad)})
                assert excinfo.value.error_type == "bad_request"
        assert service.batcher.requests == 0
        assert (service.cache.hits, service.cache.misses) == (0, 0)

    def test_the_per_request_cap(self, served):
        _, _, _, handle = served
        cap = [[i % 30, (i * 7) % 30] for i in range(MAX_COUNT_BATCH)]
        with ServiceClient(handle.host, handle.port) as client:
            assert len(client.count_batch(cap)["results"]) == MAX_COUNT_BATCH
            with pytest.raises(ServiceError) as excinfo:
                client.count_batch(cap + [[1]])
            assert excinfo.value.error_type == "bad_request"

    def test_append_between_batches_moves_epoch_and_estimates(self, served):
        _, _, _, handle = served
        with ServiceClient(handle.host, handle.port) as client:
            before = client.count_batch([[2, 4], [3]])
            client.append([2, 4])
            after = client.count_batch([[2, 4], [3]])
        assert after["epoch"] == before["epoch"] + 1
        (pair_before, _), (pair_after, single_after) = (
            before["results"], after["results"]
        )
        assert pair_after["cached"] is False
        assert pair_after["epoch"] == after["epoch"]
        assert pair_after["estimate"] == pair_before["estimate"] + 1
        assert single_after["cached"] is False


class TestServiceDirect:
    """Handler-level behaviours not worth a socket round-trip."""

    def test_service_requires_alignment(self):
        db = TransactionDatabase([[1, 2], [2, 3]])
        bbs = BBS(64)
        bbs.insert([1, 2])
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            PatternService(db, bbs)

    def test_count_result_is_json_serialisable(self, served):
        _, _, _, handle = served
        with ServiceClient(handle.host, handle.port) as client:
            payload = client.count([1, 2], exact=True)
        json.dumps(payload)  # no numpy types may leak into the wire payload
