"""Tests for the disk-backed database."""

import pytest

from repro.baselines.apriori import apriori
from repro.core.bbs import BBS
from repro.core.mining import mine
from repro.data.diskdb import DiskDatabase
from repro.errors import QueryError
from tests.conftest import make_random_database


@pytest.fixture
def mirrored(tmp_path):
    """An in-memory DB and its on-disk mirror."""
    mem = make_random_database(seed=13, n_transactions=60, n_items=20)
    disk = DiskDatabase.create(tmp_path / "db.tx", list(mem))
    yield mem, disk
    disk.close()


class TestParityWithMemory:
    def test_len_and_items(self, mirrored):
        mem, disk = mirrored
        assert len(disk) == len(mem)
        assert disk.items() == mem.items()
        assert disk.item_counts() == mem.item_counts()

    def test_iteration_matches(self, mirrored):
        mem, disk = mirrored
        assert list(disk) == list(mem)

    def test_scan_matches(self, mirrored):
        mem, disk = mirrored
        assert list(disk.scan()) == list(mem.scan())

    def test_fetch_matches(self, mirrored):
        mem, disk = mirrored
        for position in (0, len(mem) // 2, len(mem) - 1):
            assert disk.fetch(position) == mem.fetch(position)

    def test_support_matches(self, mirrored):
        mem, disk = mirrored
        for itemset in ([0], [0, 1], [5, 7]):
            assert disk.support(itemset) == mem.support(itemset)


class TestAccounting:
    def test_scan_counts_pages(self, mirrored):
        _, disk = mirrored
        disk.reset_io()
        list(disk.scan())
        assert disk.stats.db_scans == 1
        assert disk.stats.page_reads == disk.n_pages

    def test_fetch_uses_buffer_pool(self, mirrored):
        _, disk = mirrored
        disk.reset_io()
        disk.fetch(0)
        disk.fetch(1)  # adjacent record, same page at 4 KiB
        assert disk.stats.cache_hits >= 1

    def test_fetch_out_of_range(self, mirrored):
        _, disk = mirrored
        with pytest.raises(QueryError):
            disk.fetch(10_000)


class TestAppend:
    def test_append_visible(self, mirrored):
        _, disk = mirrored
        n = len(disk)
        disk.append([99, 98])
        assert len(disk) == n + 1
        assert disk.fetch(n) == (98, 99)

    def test_extend(self, mirrored):
        _, disk = mirrored
        n = len(disk)
        disk.extend([[1, 2], [3, 4]])
        assert len(disk) == n + 2

    def test_append_with_tid(self, mirrored):
        _, disk = mirrored
        position = disk.append([5], tid=777)
        assert disk.tid(position) == 777

    def test_untokened_tids_stay_positional_across_writer_sessions(
        self, tmp_path
    ):
        disk = DiskDatabase.create(tmp_path / "tids.tx", [[1], [2], [3]])
        try:
            disk.append([4])
            disk.extend([[5], [6]])
            assert disk.tids() == [0, 1, 2, 3, 4, 5]
        finally:
            disk.close()

    def test_item_counts_refresh_after_append(self, mirrored):
        _, disk = mirrored
        before = disk.item_counts().get(0, 0)
        disk.append([0])
        assert disk.item_counts()[0] == before + 1


class TestMiningOnDisk:
    def test_full_pipeline_matches_memory(self, mirrored):
        mem, disk = mirrored
        reference = apriori(mem, 5)
        bbs = BBS.from_database(disk, m=128)
        result = mine(disk, bbs, 5, "dfp")
        assert result.itemsets() == reference.itemsets()

    def test_context_manager(self, tmp_path):
        path = tmp_path / "cm.tx"
        DiskDatabase.create(path, [[1, 2]]).close()
        with DiskDatabase(path) as db:
            assert len(db) == 1
