"""Scatter-gather sharding: map, merges, router, failover, kill -9.

The load-bearing claim (DESIGN.md §10) is **bit-identity**: every
answer served through the router over N shards equals the answer a
single node would give over the concatenation of the shard ranges —
same estimates, same exact counts, same mined pattern sets, same
ordering.  The property-style suite below checks that claim over
several shard counts and cut points, including with a shard restarting
mid-run, and the subprocess drill proves ACKed appends survive a
kill -9 of the tail shard exactly once.
"""

from __future__ import annotations

import asyncio
import json
import signal
import subprocess
import sys
import time

import pytest

from repro.core.bbs import BBS
from repro.core.incremental import IncrementalMiner
from repro.core.mining import mine
from repro.data.database import TransactionDatabase
from repro.errors import (
    ConfigurationError,
    PartialResultError,
    ServiceError,
)
from repro.service.client import ServiceClient
from repro.service.handlers import PatternService, _serialise_result
from repro.service.resilience import RetryPolicy, make_token
from repro.service.server import start_server_thread
from repro.service.shard.merge import (
    candidate_itemsets,
    local_threshold,
    merge_count_payloads,
    merged_mine_payload,
)
from repro.service.shard.router import ShardRouter
from repro.service.shard.shardmap import ShardEntry, ShardMap, build_map
from repro.storage.txfile import TransactionFileWriter
from tests.conftest import make_random_database

M, K = 128, 4

#: Fast-failing per-shard policy so dead-shard tests resolve in well
#: under a second instead of the serving default's eight.
FAST_POLICY = RetryPolicy(
    max_attempts=2,
    base_delay=0.01,
    max_delay=0.05,
    op_deadline=2.0,
    request_timeout=1.0,
    connect_timeout=0.5,
)


def split_ranges(db: TransactionDatabase, cuts: list[int]):
    """Slice ``db`` into contiguous ranges at the given cut positions."""
    transactions = list(db)
    bounds = [0, *cuts, len(transactions)]
    return [
        TransactionDatabase(transactions[lo:hi])
        for lo, hi in zip(bounds, bounds[1:])
    ]


class Cluster:
    """In-process shard servers + a router server over them."""

    def __init__(
        self,
        db: TransactionDatabase,
        cuts: list[int],
        *,
        followers: bool = False,
        track_abs: int | None = None,
        map_path=None,
    ):
        self.full_db = db
        self.slices = split_ranges(db, cuts)
        n_total = len(db)
        self.services: list[PatternService] = []
        self.handles = []
        self.follower_handles: list = []
        addresses = []
        follower_addrs = [] if followers else None
        for piece in self.slices:
            service = self._make_service(piece, track_abs, n_total)
            handle = start_server_thread(service)
            self.services.append(service)
            self.handles.append(handle)
            addresses.append(("127.0.0.1", handle.port))
            if followers:
                # A warm replica over the same range: reads serve from
                # it on primary failure, and `promote` answers (a
                # primary's promote is an idempotent no-op success).
                f_handle = start_server_thread(
                    self._make_service(piece, track_abs, n_total)
                )
                self.follower_handles.append(f_handle)
                follower_addrs.append(("127.0.0.1", f_handle.port))
        self.map = build_map(
            addresses,
            [len(piece) for piece in self.slices],
            followers=follower_addrs,
        )
        self.router = ShardRouter(
            self.map, policy=FAST_POLICY, map_path=map_path, seed=7
        )
        self.router_handle = start_server_thread(self.router)

    @staticmethod
    def _make_service(piece, track_abs, n_total):
        bbs = BBS.from_database(piece, m=M, k=K)
        miner = None
        if track_abs is not None:
            miner = IncrementalMiner(
                piece, bbs, local_threshold(track_abs, len(piece), n_total)
            )
        return PatternService(piece, bbs, miner=miner)

    def client(self, **kwargs) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.router_handle.port, **kwargs)

    def restart_shard(self, index: int) -> None:
        """Stop one shard server and rebind a fresh one on the same port."""
        port = self.handles[index].port
        self.handles[index].stop()
        piece = self.slices[index]
        service = self._make_service(piece, None, len(self.full_db))
        deadline = time.monotonic() + 10.0
        while True:
            try:
                self.handles[index] = start_server_thread(service, port=port)
                return
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.1)

    def close(self) -> None:
        self.router_handle.stop()
        for handle in [*self.handles, *self.follower_handles]:
            try:
                handle.stop()
            except RuntimeError:
                pass


@pytest.fixture
def db():
    return make_random_database(seed=23, n_transactions=180, n_items=26,
                                max_len=7)


def sample_itemsets(database: TransactionDatabase, n: int = 25):
    """A deterministic mix of 1/2/3-itemsets, present and absent."""
    transactions = list(database)
    picks = []
    for i in range(n):
        tx = sorted(transactions[(i * 7) % len(transactions)])
        if not tx:
            continue
        if i % 3 == 0:
            picks.append(tx[:1])
        elif i % 3 == 1:
            picks.append(tx[:2])
        else:
            picks.append(tx[:3])
    picks.append([997])          # absent item: zero everywhere
    picks.append([1, 997])       # mixed present/absent
    return picks


def canonical(payload: dict, drop=("elapsed_seconds",)) -> str:
    trimmed = {k: v for k, v in payload.items() if k not in drop}
    return json.dumps(trimmed, sort_keys=True)


# ---------------------------------------------------------------------------
# ShardMap
# ---------------------------------------------------------------------------


class TestShardMap:
    def test_build_map_assigns_prefix_sum_ranges(self):
        m = build_map([("a", 1), ("b", 2), ("c", 3)], [10, 0, 5])
        assert [(e.start, e.count) for e in m.entries] == [
            (0, 10), (10, 0), (10, 5),
        ]
        assert m.tail.shard_id == 2
        assert m.n_transactions == 15

    def test_ranges_must_tile_contiguously(self):
        entries = [
            ShardEntry(shard_id=0, host="a", port=1, start=0, count=10),
            ShardEntry(shard_id=1, host="b", port=2, start=11, count=5),
        ]
        with pytest.raises(ConfigurationError, match="contiguous"):
            ShardMap(entries=entries)

    def test_duplicate_shard_ids_rejected(self):
        entries = [
            ShardEntry(shard_id=0, host="a", port=1, start=0, count=10),
            ShardEntry(shard_id=0, host="b", port=2, start=10, count=5),
        ]
        with pytest.raises(ConfigurationError, match="duplicate"):
            ShardMap(entries=entries)

    def test_shard_for_position_tail_owns_the_open_end(self):
        m = build_map([("a", 1), ("b", 2)], [10, 5])
        assert m.shard_for_position(0).shard_id == 0
        assert m.shard_for_position(9).shard_id == 0
        assert m.shard_for_position(10).shard_id == 1
        assert m.shard_for_position(10_000).shard_id == 1

    def test_save_load_roundtrip_is_identical(self, tmp_path):
        path = tmp_path / "map.json"
        m = build_map(
            [("a", 1), ("b", 2)], [10, 5], followers=[None, ("f", 9)]
        )
        m.save(path)
        assert ShardMap.load(path).as_dict() == m.as_dict()

    def test_promote_follower_bumps_epoch_and_fences_old_primary(self):
        m = build_map([("a", 1), ("b", 2)], [10, 5],
                      followers=[None, ("f", 9)])
        updated = m.promote_follower(1)
        assert (updated.host, updated.port) == ("f", 9)
        assert updated.epoch == 1
        assert updated.follower_address is None  # dead primary fenced out
        with pytest.raises(ConfigurationError, match="no follower"):
            m.promote_follower(1)

    def test_load_rejects_garbage(self, tmp_path):
        from repro.errors import StorageError

        path = tmp_path / "map.json"
        path.write_text("{not json")
        with pytest.raises(StorageError):
            ShardMap.load(path)
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ConfigurationError):
            ShardMap.from_dict(json.loads(path.read_text()))


# ---------------------------------------------------------------------------
# Merge semantics (pure)
# ---------------------------------------------------------------------------


class TestMergeSemantics:
    def test_local_threshold_preserves_the_partition_guarantee(self):
        # If an itemset misses every local cut, its global support is
        # below the global threshold — for every split of every N.
        for n_total in (1, 7, 100, 181):
            for s_abs in (1, 2, 10, n_total):
                for cut in range(0, n_total + 1):
                    parts = [cut, n_total - cut]
                    worst = sum(
                        local_threshold(s_abs, n_i, n_total) - 1
                        for n_i in parts if n_i > 0
                    )
                    assert worst < s_abs

    def test_merge_count_payloads_sums_ranges(self):
        merged = merge_count_payloads(
            [3, 17],
            [
                {"estimate": 5, "exact": 4, "epoch": 2, "cached": True},
                {"estimate": 0, "exact": 0, "epoch": 7, "cached": False},
            ],
            want_exact=True,
        )
        assert merged["estimate"] == 5
        assert merged["exact"] == 4
        assert merged["cached"] is False

    def test_merged_mine_payload_matches_serialise_result_shape(self):
        totals = {(1,): 9, (2,): 9, (1, 2): 3, (5,): 1}
        payload = merged_mine_payload(
            algorithm="sfp",
            min_support_abs=3,
            n_transactions=20,
            totals=totals,
            elapsed_seconds=0.0,
        )
        # Filtered at the threshold, ranked by (-count, itemset), every
        # count exact.
        assert [p["items"] for p in payload["patterns"]] == [
            [1], [2], [1, 2],
        ]
        assert all(p["exact"] for p in payload["patterns"])
        assert payload["n_patterns"] == 3

    def test_candidate_union_dedupes_and_sorts(self):
        union = candidate_itemsets(
            [
                {"patterns": [{"items": [2, 1]}, {"items": [3]}]},
                {"patterns": [{"items": [1, 2]}]},
            ]
        )
        assert union == [(1, 2), (3,)]


# ---------------------------------------------------------------------------
# Router equivalence: sharded answers == single-node answers
# ---------------------------------------------------------------------------


class TestRouterEquivalence:
    @pytest.mark.parametrize("cuts", [[90], [60, 120], [45, 90, 135], [7]])
    def test_counts_byte_identical_across_shardings(self, db, cuts):
        single = BBS.from_database(db, m=M, k=K)
        cluster = Cluster(db, cuts)
        try:
            with cluster.client() as client:
                for items in sample_itemsets(db):
                    got = client.count(items, exact=True)
                    key = frozenset(items)
                    assert got["estimate"] == single.count_itemset(key)
                    assert got["exact"] == sum(
                        1 for tx in db if key <= set(tx)
                    )
        finally:
            cluster.close()

    def test_count_batch_merges_like_individual_counts(self, db):
        cluster = Cluster(db, [60, 120])
        try:
            with cluster.client() as client:
                itemsets = sample_itemsets(db, n=9)
                batch = client.count_batch(itemsets, exact=True)
                assert len(batch["results"]) == len(itemsets)
                for items, entry in zip(itemsets, batch["results"]):
                    alone = client.count(items, exact=True)
                    assert entry["estimate"] == alone["estimate"]
                    assert entry["exact"] == alone["exact"]
        finally:
            cluster.close()

    @pytest.mark.parametrize("cuts", [[90], [60, 120], [45, 90, 135]])
    @pytest.mark.parametrize("min_support", [6, 0.05])
    def test_mine_byte_identical_to_single_node(self, db, cuts, min_support):
        single = BBS.from_database(db, m=M, k=K)
        expected = _serialise_result(mine(db, single, min_support, "sfp"))
        cluster = Cluster(db, cuts)
        try:
            with cluster.client() as client:
                job_id = client.mine(min_support, algorithm="sfp")
                payload = client.wait_for_job(job_id, top=0)
            assert canonical(payload["result"]) == canonical(expected)
        finally:
            cluster.close()

    def test_dfp_through_router_is_the_exact_refinement(self, db):
        # A single dfp node may emit exact=False bounded counts; the
        # router's phase-2 verification always serves the fully exact
        # answer — identical to single-node sfp up to the algorithm tag.
        single = BBS.from_database(db, m=M, k=K)
        expected = _serialise_result(mine(db, single, 6, "sfp"))
        cluster = Cluster(db, [60, 120])
        try:
            with cluster.client() as client:
                job_id = client.mine(6, algorithm="dfp")
                payload = client.wait_for_job(job_id, top=0)
            drop = ("elapsed_seconds", "algorithm")
            assert canonical(payload["result"], drop) == canonical(
                expected, drop
            )
        finally:
            cluster.close()

    def test_counts_stay_identical_across_a_shard_restart_mid_run(self, db):
        single = BBS.from_database(db, m=M, k=K)
        cluster = Cluster(db, [60, 120])
        try:
            itemsets = sample_itemsets(db)
            with cluster.client() as client:
                for items in itemsets[: len(itemsets) // 2]:
                    got = client.count(items, exact=True)
                    assert got["estimate"] == single.count_itemset(
                        frozenset(items)
                    )
            cluster.restart_shard(1)
            # The router's cached connection died with the shard; its
            # link reconnects lazily and the answers never change.
            with cluster.client() as client:
                for items in itemsets:
                    got = client.count(items, exact=True)
                    key = frozenset(items)
                    assert got["estimate"] == single.count_itemset(key)
                    assert got["exact"] == sum(
                        1 for tx in db if key <= set(tx)
                    )
        finally:
            cluster.close()

    def test_tracked_patterns_merge_to_the_global_threshold(self, db):
        s_abs = 8
        cluster = Cluster(db, [60, 120], track_abs=s_abs)
        try:
            with cluster.client() as client:
                payload = client.patterns(top=0)
            global_threshold = payload["min_support"]
            assert global_threshold >= s_abs  # sum of the local cuts
            single = BBS.from_database(db, m=M, k=K)
            expected = _serialise_result(
                mine(db, single, global_threshold, "sfp")
            )
            got = [(tuple(p["items"]), p["count"]) for p in payload["patterns"]]
            want = [
                (tuple(p["items"]), p["count"]) for p in expected["patterns"]
            ]
            assert got == want
        finally:
            cluster.close()


# ---------------------------------------------------------------------------
# Appends through the router
# ---------------------------------------------------------------------------


class TestRouterAppend:
    def test_append_routes_to_tail_with_global_positions(self, db):
        cluster = Cluster(db, [60, 120])
        try:
            with cluster.client() as client:
                before = client.request("status")["n_transactions"]
                assert before == len(db)
                got = client.append([1, 2, 3])
                assert got["position"] == len(db)  # global, not shard-local
                assert got["n_transactions"] == len(db) + 1
                again = client.request("status")["n_transactions"]
                assert again == len(db) + 1
                # Only the tail shard grew.
                assert len(cluster.services[-1].database) == 60 + 1
                assert len(cluster.services[0].database) == 60
        finally:
            cluster.close()

    def test_token_rides_through_end_to_end(self, db):
        cluster = Cluster(db, [90])
        try:
            token = make_token()
            with cluster.client() as client:
                first = client.append([4, 5], token=token)
                assert first.get("deduped", False) is False
                retry = client.append([4, 5], token=token)
                assert retry["deduped"] is True
                assert retry["position"] == first["position"]
                assert (
                    client.request("status")["n_transactions"] == len(db) + 1
                )
        finally:
            cluster.close()

    def test_appends_visible_in_merged_counts(self, db):
        single_before = BBS.from_database(db, m=M, k=K)
        cluster = Cluster(db, [60, 120])
        try:
            probe_items = [7, 11]
            with cluster.client() as client:
                base = client.count(probe_items, exact=True)["exact"]
                for _ in range(3):
                    client.append(probe_items)
                after = client.count(probe_items, exact=True)
            assert after["exact"] == base + 3
            # And still identical to a single node over the grown data.
            grown = TransactionDatabase([*db, *([probe_items] * 3)])
            single = BBS.from_database(grown, m=M, k=K)
            assert after["estimate"] == single.count_itemset(
                frozenset(probe_items)
            )
            del single_before
        finally:
            cluster.close()


# ---------------------------------------------------------------------------
# Failure handling: typed partial errors, follower failover
# ---------------------------------------------------------------------------


class TestRouterFailure:
    def test_dead_shard_without_follower_is_a_typed_partial_error(self, db):
        cluster = Cluster(db, [60, 120])
        try:
            cluster.handles[1].stop()  # a sealed (non-tail) shard dies
            started = time.monotonic()
            with cluster.client() as client:
                with pytest.raises(PartialResultError) as excinfo:
                    client.count([1, 2])
                # The error names the missing global range, and the
                # fan-out failed fast (deadline, not a hang).
                assert "[60, 120)" in str(excinfo.value)
                assert time.monotonic() - started < FAST_POLICY.op_deadline * 2
                status = client.request("status")
                assert status["mode"] == "partial"
                assert status["unreachable_shards"] == 1
                health = client.request("health")
                assert health["ok"] is False
        finally:
            cluster.close()

    def test_dead_tail_refuses_appends_with_partial(self, db):
        cluster = Cluster(db, [90])
        try:
            cluster.handles[-1].stop()
            with cluster.client() as client:
                with pytest.raises(PartialResultError) as excinfo:
                    client.append([1, 2], token=make_token())
                assert "[90, ...)" in str(excinfo.value)
        finally:
            cluster.close()

    def test_reads_fail_over_to_the_follower(self, db):
        single = BBS.from_database(db, m=M, k=K)
        cluster = Cluster(db, [60, 120], followers=True)
        try:
            cluster.handles[1].stop()
            with cluster.client() as client:
                for items in sample_itemsets(db, n=6):
                    got = client.count(items, exact=True)
                    assert got["estimate"] == single.count_itemset(
                        frozenset(items)
                    )
                status = client.request("status")
                assert status["mode"] == "ok"  # follower covers the range
        finally:
            cluster.close()

    def test_append_failover_promotes_and_persists_the_map(self, db, tmp_path):
        map_path = tmp_path / "map.json"
        cluster = Cluster(db, [90], followers=True, map_path=map_path)
        try:
            cluster.map.save(map_path)
            follower_port = cluster.follower_handles[-1].port
            cluster.handles[-1].stop()  # kill the tail primary
            with cluster.client() as client:
                got = client.append([8, 9], token=make_token())
                assert got["position"] == len(db)
                # The promoted follower took the append...
                shardmap = client.shardmap()
            tail = shardmap["entries"][-1]
            assert tail["port"] == follower_port
            assert tail["epoch"] == 1
            assert "follower_host" not in tail  # fenced, not demoted
            # ...and the promotion was durably recorded.
            persisted = ShardMap.load(map_path)
            assert persisted.tail.port == follower_port
            assert persisted.tail.epoch == 1
        finally:
            cluster.close()

    def test_unrouted_ops_point_at_the_shards(self, db):
        cluster = Cluster(db, [90])
        try:
            with cluster.client() as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.request("replicate", {"from_position": 0})
                assert excinfo.value.error_type == "bad_request"
                assert "shardmap" in str(excinfo.value)
        finally:
            cluster.close()


# ---------------------------------------------------------------------------
# Discovery
# ---------------------------------------------------------------------------


class TestDiscovery:
    def test_discover_builds_persists_and_reloads_the_map(self, db, tmp_path):
        map_path = tmp_path / "map.json"
        cluster = Cluster(db, [60, 120])
        try:
            addresses = [
                ("127.0.0.1", handle.port) for handle in cluster.handles
            ]
            router = asyncio.run(
                ShardRouter.discover(addresses, map_path=map_path)
            )
            router.close()
            assert [e.count for e in router.map.entries] == [60, 60, 60]
            assert map_path.exists()
            # A second discovery against the same shard list reuses the
            # persisted assignment, same generation.
            again = asyncio.run(
                ShardRouter.discover(addresses, map_path=map_path)
            )
            again.close()
            assert again.map.generation == router.map.generation
            # A changed shard list rebuilds under a bumped generation.
            rebuilt = asyncio.run(
                ShardRouter.discover(addresses[:2], map_path=map_path)
            )
            rebuilt.close()
            assert rebuilt.map.generation == router.map.generation + 1
        finally:
            cluster.close()

    def test_discover_rejects_mismatched_hash_families(self, db, tmp_path):
        pieces = split_ranges(db, [90])
        service_a = PatternService(
            pieces[0], BBS.from_database(pieces[0], m=M, k=K)
        )
        service_b = PatternService(
            pieces[1], BBS.from_database(pieces[1], m=M * 2, k=K)
        )
        with start_server_thread(service_a) as ha, start_server_thread(
            service_b
        ) as hb:
            with pytest.raises(ConfigurationError, match="hash family"):
                asyncio.run(
                    ShardRouter.discover(
                        [("127.0.0.1", ha.port), ("127.0.0.1", hb.port)]
                    )
                )


# ---------------------------------------------------------------------------
# The kill -9 drill (subprocess): ACKed appends survive exactly once
# ---------------------------------------------------------------------------


def _spawn(*argv: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
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


def _write_txfile(path, transactions) -> None:
    with TransactionFileWriter(path) as writer:
        for transaction in transactions:
            writer.append(transaction)
        writer.sync()


class TestShardKillDrill:
    def test_kill9_tail_shard_acked_appends_survive_exactly_once(
        self, tmp_path
    ):
        """Kill -9 the tail shard mid-append-stream; nothing is lost or
        doubled, and reads during the outage fail typed, never hang.

        Two durable `shard-serve` processes behind a `serve --router`
        process.  Tokened appends stream through the router; the tail
        shard is killed -9; during the outage a read returns the typed
        ``partial`` error within the deadline; the shard restarts over
        its journal; every token is re-sent and must answer
        ``deduped: true`` from the journal-seeded window — each ACKed
        append exactly once, verified by exact counts and a final
        transaction total.
        """
        source = make_random_database(
            seed=41, n_transactions=90, n_items=30, max_len=6
        )
        transactions = list(source)
        db_a = tmp_path / "shard-a.tx"
        db_b = tmp_path / "shard-b.tx"
        _write_txfile(db_a, transactions[:50])
        _write_txfile(db_b, transactions[50:])
        map_path = tmp_path / "shards.json"

        procs: list[subprocess.Popen] = []
        try:
            shard_a = _spawn(
                "shard-serve", "--db", str(db_a), "--m", "64",
                "--port", "0", "--scrub-interval", "0",
            )
            procs.append(shard_a)
            port_a = _wait_port(shard_a)
            shard_b = _spawn(
                "shard-serve", "--db", str(db_b), "--m", "64",
                "--port", "0", "--scrub-interval", "0",
            )
            procs.append(shard_b)
            port_b = _wait_port(shard_b)
            router = _spawn(
                "serve", "--router",
                "--shard", f"127.0.0.1:{port_a}",
                "--shard", f"127.0.0.1:{port_b}",
                "--shardmap", str(map_path),
                "--port", "0",
            )
            procs.append(router)
            router_port = _wait_port(router)

            # Stream ACKed tokened appends through the router.
            tokens: list[tuple[int, list[int], int]] = []
            marker = 7000  # distinct items, absent from the base data
            with ServiceClient("127.0.0.1", router_port) as client:
                assert client.request("status")["n_transactions"] == 90
                for i in range(8):
                    token = make_token()
                    items = [marker + i]
                    got = client.append(items, token=token)
                    assert got["position"] == 90 + i
                    tokens.append((token, items, got["position"]))

            # Kill -9 the tail shard mid-stream.
            shard_b.send_signal(signal.SIGKILL)
            shard_b.wait(timeout=10)

            # Reads during the outage: typed partial, bounded time.
            started = time.monotonic()
            with ServiceClient("127.0.0.1", router_port) as client:
                with pytest.raises(PartialResultError) as excinfo:
                    client.count([marker], exact=True)
                assert "[50, ...)" in str(excinfo.value)
                # Appends refuse typed too — the ACK guarantee is never
                # faked while the owning shard is down.
                with pytest.raises(PartialResultError):
                    client.append([marker + 99], token=make_token())
            assert time.monotonic() - started < 30.0

            # Restart the shard over its surviving journal, same port.
            shard_b2 = _spawn(
                "shard-serve", "--db", str(db_b), "--m", "64",
                "--port", str(port_b), "--scrub-interval", "0",
            )
            procs.append(shard_b2)
            _wait_port(shard_b2)

            # The router's breaker for the dead link may be open;
            # poll until it half-opens and the path heals.
            deadline = time.monotonic() + 30.0
            with ServiceClient("127.0.0.1", router_port) as client:
                while True:
                    try:
                        status = client.request("status")
                        if status["mode"] == "ok":
                            break
                    except ServiceError:
                        pass
                    if time.monotonic() >= deadline:
                        raise AssertionError(
                            "router never healed after the shard restart"
                        )
                    time.sleep(0.25)

                # Every ACKed append survived exactly once: the re-sent
                # token dedupes from the journal-seeded window at the
                # original global position.
                for token, items, position in tokens:
                    retry = client.append(items, token=token)
                    assert retry["deduped"] is True, items
                    assert retry["position"] == position
                # Exactly once, by count: each marker itemset appears
                # exactly one time in the merged exact counts.
                for _, items, _ in tokens:
                    got = client.count(items, exact=True)
                    assert got["exact"] == 1
                assert (
                    client.request("status")["n_transactions"]
                    == 90 + len(tokens)
                )
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait(timeout=10)
                proc.stdout.close()


# ---------------------------------------------------------------------------
# Failover promotion race
# ---------------------------------------------------------------------------


class TestPromoteRace:
    """Two appends racing through the same tail failover.

    Both hit the dead primary, both call ``_promote_tail``, and the
    ``promote`` RPC suspends each at an await.  The promotion itself
    must happen exactly once: the loser re-checks the shard state
    after its await and rides the winner's promotion instead of
    calling ``promote_follower`` on a map entry that no longer has a
    follower (which raises ``ConfigurationError``).
    """

    class StubLink:
        def __init__(self, gate: asyncio.Event | None = None):
            self.gate = gate
            self.promotes = 0
            self.appends: list[dict] = []

        async def request(self, op: str, args: dict | None = None) -> dict:
            if op == "promote":
                self.promotes += 1
                if self.gate is not None:
                    await self.gate.wait()
                return {}
            if op == "append":
                self.appends.append(args or {})
                n = len(self.appends)
                return {"position": n, "n_transactions": n, "epoch": 1}
            raise AssertionError(f"unexpected op {op!r}")

        def close(self) -> None:
            pass

    def test_concurrent_tail_failovers_promote_exactly_once(self):
        shardmap = build_map(
            [("127.0.0.1", 1)], [4], followers=[("127.0.0.1", 2)]
        )
        router = ShardRouter(shardmap, policy=FAST_POLICY, seed=3)
        state = router.shards[-1]

        async def drive():
            gate = asyncio.Event()
            follower = self.StubLink(gate)
            state.primary.close()
            state.follower.close()
            state.primary = self.StubLink()
            state.follower = follower
            first = asyncio.ensure_future(
                router._promote_tail(state, {"transaction": [1]})
            )
            second = asyncio.ensure_future(
                router._promote_tail(state, {"transaction": [2]})
            )
            # Let both tasks read state.follower and park inside the
            # promote RPC — the interleaving window under test.
            while follower.promotes < 2:
                await asyncio.sleep(0)
            gate.set()
            return follower, await first, await second

        follower, first, second = asyncio.run(drive())
        # One promotion, both appends served by the promoted node.
        assert follower.promotes == 2  # both RPCs ran (idempotent)
        assert state.follower is None
        assert state.entry.epoch == 1
        assert router.map.tail.follower_address is None
        assert [a["transaction"] for a in follower.appends] == [[1], [2]]
        assert {first["position"], second["position"]} == {1, 2}
