"""Tests for the in-memory transaction database."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bbs import BBS
from repro.core.mining import mine
from repro.data.database import (
    ITEM_BYTES,
    RECORD_OVERHEAD_BYTES,
    TransactionDatabase,
)
from repro.errors import ConfigurationError, QueryError
from tests.conftest import make_random_database


class TestAppend:
    def test_positions_are_sequential(self):
        db = TransactionDatabase()
        assert db.append([1]) == 0
        assert db.append([2]) == 1
        assert len(db) == 2

    def test_empty_transaction_rejected(self):
        with pytest.raises(ConfigurationError):
            TransactionDatabase().append([])

    def test_duplicates_collapse(self):
        db = TransactionDatabase()
        db.append([3, 3, 1, 1])
        assert next(iter(db)) == (1, 3)

    def test_items_stored_sorted(self):
        db = TransactionDatabase([[9, 2, 5]])
        assert next(iter(db)) == (2, 5, 9)

    def test_custom_tids(self):
        db = TransactionDatabase()
        db.append([1], tid=100)
        db.append([2], tid=200)
        assert db.tids() == [100, 200]
        assert db.tid(1) == 200

    def test_default_tid_is_position(self):
        db = TransactionDatabase([[1], [2]])
        assert db.tids() == [0, 1]

    def test_extend(self):
        db = TransactionDatabase()
        db.extend([[1], [2], [3]])
        assert len(db) == 3

    def test_mixed_type_items_sort_stably(self):
        db = TransactionDatabase()
        db.append(["b", 2, "a", 1])
        assert next(iter(db)) == (1, 2, "a", "b")


class TestIntrospection:
    def test_items_sorted(self):
        db = TransactionDatabase([[3, 1], [2, 1]])
        assert db.items() == [1, 2, 3]

    def test_item_counts(self):
        db = TransactionDatabase([[1, 2], [1], [2, 3]])
        assert db.item_counts() == {1: 2, 2: 2, 3: 1}

    def test_size_bytes(self):
        db = TransactionDatabase([[1, 2, 3]])
        assert db.size_bytes == RECORD_OVERHEAD_BYTES + 3 * ITEM_BYTES

    def test_n_pages(self):
        db = TransactionDatabase(page_bytes=64)
        assert db.n_pages == 0
        for _ in range(10):
            db.append(list(range(10)))  # 48 bytes each
        assert db.n_pages == (10 * 48 + 63) // 64


class TestScan:
    def test_scan_yields_all_in_order(self):
        db = TransactionDatabase([[1], [2], [3]])
        assert [pos for pos, _ in db.scan()] == [0, 1, 2]

    def test_scan_accounting(self):
        db = TransactionDatabase([[1, 2]] * 50, page_bytes=64)
        list(db.scan())
        assert db.stats.db_scans == 1
        assert db.stats.page_reads == db.n_pages
        assert db.stats.tuples_read == 50

    def test_two_scans_double_pages(self):
        db = TransactionDatabase([[1, 2]] * 50, page_bytes=64)
        list(db.scan())
        first = db.stats.page_reads
        list(db.scan())
        assert db.stats.page_reads == 2 * first


class TestFetch:
    def test_fetch_returns_transaction(self):
        db = TransactionDatabase([[1, 2], [3]])
        assert db.fetch(1) == (3,)

    def test_fetch_out_of_range(self):
        db = TransactionDatabase([[1]])
        with pytest.raises(QueryError):
            db.fetch(1)
        with pytest.raises(QueryError):
            db.fetch(-1)

    def test_fetch_accounting(self):
        db = TransactionDatabase([[1]] * 10)
        db.fetch(0)
        assert db.stats.probe_fetches == 1
        assert db.stats.tuples_read == 1

    def test_fetch_same_page_hits_cache(self):
        db = TransactionDatabase([[1]] * 10, page_bytes=4096)
        db.fetch(0)
        db.fetch(1)  # same simulated page
        assert db.stats.cache_hits == 1
        assert db.stats.page_reads == 1

    def test_fetch_many(self):
        db = TransactionDatabase([[1], [2], [3]])
        assert db.fetch_many([0, 2]) == [(1,), (3,)]


class TestSupport:
    def test_support_counts_subsets(self):
        db = TransactionDatabase([[1, 2, 3], [1, 2], [2, 3]])
        assert db.support([1, 2]) == 2
        assert db.support([2]) == 3
        assert db.support([1, 3]) == 1

    def test_support_of_absent_item(self):
        db = TransactionDatabase([[1]])
        assert db.support([99]) == 0

    def test_empty_itemset_rejected(self):
        with pytest.raises(QueryError):
            TransactionDatabase([[1]]).support([])


class TestResetIO:
    def test_reset_clears_counters(self):
        db = TransactionDatabase([[1]] * 5)
        list(db.scan())
        db.fetch(0)
        db.reset_io()
        assert db.stats.page_reads == 0
        assert db.stats.db_scans == 0


class TestCopy:
    def test_appends_to_the_original_leave_the_copy_unchanged(self):
        db = TransactionDatabase([[1, 2], [2, 3], [1, 3, 4]], page_bytes=64)
        db.append([5, 1], tid=900)
        copy = db.copy()

        def view(database):
            return (
                len(database), list(database.scan()), database.tids(),
                database.item_counts(), database.size_bytes,
            )

        before = view(copy)
        db.append([1, 5])
        db.append([6], tid=77)
        assert view(copy) == before
        assert copy.tids() == [0, 1, 2, 900]
        assert copy.page_bytes == 64
        copy.append([7])
        assert len(db) == 6
        assert 7 not in db.item_counts()

    def test_shares_tuples_but_not_accounting(self):
        db = TransactionDatabase([[1, 2], [3]])
        db.fetch(0)
        copy = db.copy()
        assert all(a is b for a, b in zip(copy, db))
        assert copy.stats is not db.stats
        assert copy.stats.probe_fetches == 0
        copy.fetch(1)
        assert db.stats.probe_fetches == 1
        assert copy.stats.cache_misses == 1  # its own, empty buffer pool

    @pytest.mark.parametrize("algorithm", ["dfp", "sfs"])
    def test_mining_a_copy_equals_mining_a_rebuild(self, algorithm):
        db = make_random_database(seed=41, n_transactions=300, n_items=30)
        results = []
        for snapshot in (db.copy(), TransactionDatabase(iter(db))):
            bbs = BBS.from_database(db, m=48)
            results.append(mine(snapshot, bbs, 12, algorithm))
        copied, rebuilt = results
        assert rebuilt.refine_stats.false_drops or rebuilt.io.db_scans
        assert list(copied.patterns.items()) == list(rebuilt.patterns.items())
        assert copied.n_transactions == rebuilt.n_transactions
        assert copied.filter_stats == rebuilt.filter_stats
        assert copied.refine_stats == rebuilt.refine_stats
        assert copied.io == rebuilt.io


class TestValidation:
    def test_tiny_page_rejected(self):
        with pytest.raises(ConfigurationError):
            TransactionDatabase(page_bytes=4)


@settings(max_examples=30, deadline=None)
@given(
    transactions=st.lists(
        st.sets(st.integers(0, 20), min_size=1, max_size=6),
        min_size=1,
        max_size=30,
    )
)
def test_property_support_matches_literal_count(transactions):
    db = TransactionDatabase(transactions)
    probe = list(transactions[0])[:2]
    expected = sum(1 for tx in transactions if set(probe) <= tx)
    assert db.support(probe) == expected
