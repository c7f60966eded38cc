"""Crash-safety tests: torn appends, salvage, rebuild, and the CLI.

The central claim under test is the acceptance criterion of the
durable-append protocol: *a process killed at any byte of a
:meth:`DiskBBS.flush` leaves a file that* :meth:`DiskBBS.recover`
*reopens with every previously committed segment intact*.  The sweep in
:class:`TestCrashSweep` proves it by injecting a kill at every single
byte offset of an append and recovering each time.
"""

from __future__ import annotations

import gc
import warnings

import pytest

from repro.core.bbs import BBS
from repro.data.database import TransactionDatabase
from repro.data.diskdb import DiskDatabase
from repro.errors import (
    CorruptFileError,
    DatabaseMismatchError,
    RecoveryError,
    StorageError,
    TornWriteError,
)
from repro.storage.diskbbs import DiskBBS
from repro.storage.recovery import (
    CLEAN,
    CORRUPT,
    EXIT_CLEAN,
    EXIT_CORRUPT,
    EXIT_TORN,
    TORN,
    inspect_index,
    salvage_index,
)
from repro.storage.txfile import TransactionFileWriter, salvage_txfile
from repro.testing.faults import (
    FaultPlan,
    SimulatedCrash,
    arm_diskbbs,
    arm_txwriter,
    faulty_open,
    flip_bit,
)

COMMITTED = [["a", "b"], ["b", "c"], ["a", "c"]]
PENDING = [["a", "b", "c"], ["d"], ["a", "d"]]


def build_index(path, transactions=COMMITTED, m=32):
    """A committed one-segment index over ``transactions``."""
    store = DiskBBS.create(path, m)
    for tx in transactions:
        store.insert(tx)
    store.flush()
    store.close()


def append_size(tmp_path, transactions=PENDING, m=32) -> int:
    """Measure how many bytes one flush of ``transactions`` appends."""
    probe = tmp_path / "probe.bbsd"
    build_index(probe, m=m)
    before = probe.stat().st_size
    store = DiskBBS.open(probe)
    for tx in transactions:
        store.insert(tx)
    store.flush()
    store.close()
    return probe.stat().st_size - before


class TestCrashSweep:
    """The acceptance criterion: kill flush() at every byte, recover."""

    def test_recover_after_crash_at_every_byte(self, tmp_path):
        idx = tmp_path / "swept.bbsd"
        build_index(idx)
        base = idx.read_bytes()
        total = append_size(tmp_path)
        assert total > 100  # the sweep genuinely covers a protocol

        for crash_at in range(total):
            idx.write_bytes(base)
            store = DiskBBS.open(idx)
            for tx in PENDING:
                store.insert(tx)
            arm_diskbbs(store, FaultPlan(crash_after_bytes=crash_at))
            with pytest.raises(SimulatedCrash):
                store.flush()

            recovered = DiskBBS.recover(idx)
            try:
                assert recovered.n_transactions == len(COMMITTED), (
                    f"crash at byte {crash_at}: committed data lost"
                )
                # The committed segment is not merely counted but usable.
                assert recovered.count_itemset(["a", "b"]) >= 1
            finally:
                recovered.close()
            report = inspect_index(idx)
            assert report.status == CLEAN, f"crash at byte {crash_at}"
            assert report.committed_transactions == len(COMMITTED)

    def test_crash_between_barriers_is_torn_not_corrupt(self, tmp_path):
        # ops=1 kills after the segment write but before the commit
        # record: the payload is durable yet uncommitted — the exact
        # state the commit record exists to make recognisable.
        idx = tmp_path / "tween.bbsd"
        build_index(idx)
        store = DiskBBS.open(idx)
        for tx in PENDING:
            store.insert(tx)
        arm_diskbbs(store, FaultPlan(crash_after_ops=1))
        with pytest.raises(SimulatedCrash):
            store.flush()

        report = inspect_index(idx)
        assert report.status == TORN
        assert report.committed_transactions == len(COMMITTED)
        with pytest.raises(TornWriteError):
            DiskBBS.open(idx)
        recovered = DiskBBS.recover(idx)
        assert recovered.n_transactions == len(COMMITTED)
        assert recovered.last_recovery.repaired
        recovered.close()


class TestVersion1Compatibility:
    def downgrade_to_v1(self, path):
        """Rewrite a one-segment v2 file as its v1 equivalent."""
        import struct

        from repro.storage.diskbbs import _BASE_HEAD, _COMMIT, _CRC

        blob = path.read_bytes()
        magic, version, header_len = _BASE_HEAD.unpack_from(blob, 0)
        assert version == 2
        header = blob[_BASE_HEAD.size:_BASE_HEAD.size + header_len]
        data_start = _BASE_HEAD.size + header_len + _CRC.size
        segment = blob[data_start: len(blob) - _COMMIT.size]
        path.write_bytes(
            _BASE_HEAD.pack(magic, 1, header_len) + header + segment
        )

    def test_v1_files_still_open_and_answer(self, tmp_path):
        idx = tmp_path / "old.bbsd"
        build_index(idx)
        self.downgrade_to_v1(idx)
        with DiskBBS.open(idx) as store:
            assert store.n_transactions == len(COMMITTED)
            assert store.count_itemset(["a", "b"]) >= 1
        report = inspect_index(idx)
        assert report.status == CLEAN
        assert report.format_version == 1
        assert report.committed_transactions == len(COMMITTED)

    def test_v1_torn_tail_is_still_salvageable(self, tmp_path):
        idx = tmp_path / "old.bbsd"
        build_index(idx)
        self.downgrade_to_v1(idx)
        blob = idx.read_bytes()
        idx.write_bytes(blob[:-11])  # torn segment, no commit records
        assert inspect_index(idx).status == TORN
        recovered = DiskBBS.recover(idx)
        assert recovered.n_transactions == 0  # the only segment was torn
        recovered.close()
        assert inspect_index(idx).status == CLEAN

    def test_appending_to_a_v1_log_rewrites_it_as_v2(self, tmp_path):
        idx = tmp_path / "old.bbsd"
        build_index(idx)
        self.downgrade_to_v1(idx)
        appended = PENDING[:2]
        store = DiskBBS.open(idx)
        for tx in appended:
            store.insert(tx)
        store.close()  # the first flush into the v1 log
        report = inspect_index(idx)
        assert report.status == CLEAN
        assert report.format_version == 2
        assert report.committed_transactions == len(COMMITTED) + len(appended)
        with DiskBBS.open(idx) as store:
            assert store.n_segments == 1
            fresh = BBS.from_database(
                TransactionDatabase(COMMITTED + appended), m=store.m, k=store.k
            )
            for items in (["a"], ["a", "b"], ["b", "c"], ["d"], ["a", "d"]):
                assert store.count_itemset(items) == fresh.count_itemset(items)


class TestFlushErrorHandling:
    def test_enospc_rolls_back_and_the_retry_loses_nothing(self, tmp_path):
        idx = tmp_path / "enospc.bbsd"
        build_index(idx)
        size_before = idx.stat().st_size
        store = DiskBBS.open(idx)
        for tx in PENDING:
            store.insert(tx)
        plan = FaultPlan(error_after_bytes=30)
        arm_diskbbs(store, plan)
        with pytest.raises(StorageError) as caught:
            store.flush()
        assert caught.value.path == str(idx)
        assert caught.value.offset == size_before
        # Rolled back: the log is exactly its pre-append self ...
        assert idx.stat().st_size == size_before
        # ... and the tail is still buffered, so a retry completes.
        plan.disarm()
        store.flush()
        assert store.n_transactions == len(COMMITTED) + len(PENDING)
        store.close()
        assert inspect_index(idx).status == CLEAN

    def test_failed_final_seal_still_closes_the_file(self, tmp_path):
        idx = tmp_path / "close.bbsd"
        build_index(idx)
        size_before = idx.stat().st_size
        store = DiskBBS.open(idx)
        for tx in PENDING:
            store.insert(tx)
        handle = store._file
        arm_diskbbs(store, FaultPlan(error_after_bytes=30))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(StorageError):
                store.close()
            assert handle.closed
            assert store._file is None
            del store, handle
            gc.collect()
        assert idx.stat().st_size == size_before
        assert inspect_index(idx).status == CLEAN


class TestSalvage:
    def two_segment_index(self, tmp_path):
        idx = tmp_path / "two.bbsd"
        build_index(idx)
        store = DiskBBS.open(idx)
        for tx in PENDING:
            store.insert(tx)
        store.flush()
        store.close()
        return idx

    def test_bit_rot_is_quarantined_and_truncated(self, tmp_path):
        idx = self.two_segment_index(tmp_path)
        report = inspect_index(idx)
        assert report.segments_ok == 2
        second_segment_start = None
        # Corrupt the second segment: flip a bit just past the first
        # segment's committed extent.
        first_only = tmp_path / "first.bbsd"
        build_index(first_only)
        second_segment_start = first_only.stat().st_size
        flip_bit(idx, second_segment_start + 20)

        report = inspect_index(idx)
        assert report.status == CORRUPT
        assert report.committed_transactions == len(COMMITTED)

        salvaged = salvage_index(idx)
        assert salvaged.repaired
        assert salvaged.quarantined_to is not None
        quarantine = tmp_path / (idx.name + ".quarantine")
        assert quarantine.exists() and quarantine.stat().st_size > 0
        assert inspect_index(idx).status == CLEAN

        with DiskBBS.open(idx) as store:
            assert store.n_transactions == len(COMMITTED)

    def test_no_quarantine_flag_skips_the_sibling(self, tmp_path):
        idx = self.two_segment_index(tmp_path)
        flip_bit(idx, idx.stat().st_size - 30)
        report = salvage_index(idx, quarantine=False)
        assert report.repaired
        assert report.quarantined_to is None
        assert not (tmp_path / (idx.name + ".quarantine")).exists()

    def test_rebuild_from_companion_database(self, tmp_path):
        idx = self.two_segment_index(tmp_path)
        db_path = tmp_path / "companion.tx"
        all_tx = [[1, 2], [2, 3], [1, 3], [1, 2, 3], [4], [1, 4]]
        # Rebuild sources are matched positionally, so mirror the index
        # content with integer items the txfile can store.
        idx = tmp_path / "int.bbsd"
        build_index(idx, [[1, 2], [2, 3], [1, 3]])
        store = DiskBBS.open(idx)
        for tx in [[1, 2, 3], [4], [1, 4]]:
            store.insert(tx)
        store.flush()
        store.close()
        DiskDatabase.create(db_path, all_tx).close()

        first_only = tmp_path / "f.bbsd"
        build_index(first_only, [[1, 2], [2, 3], [1, 3]])
        flip_bit(idx, first_only.stat().st_size + 8)

        report = salvage_index(idx, db=db_path)
        assert report.rebuilt_transactions == 3
        with DiskBBS.open(idx) as store:
            assert store.n_transactions == len(all_tx)
            for tx in all_tx:
                assert store.count_itemset(tx) >= 1

    def test_rebuild_refuses_a_short_companion(self, tmp_path):
        idx = tmp_path / "short.bbsd"
        build_index(idx, [[1, 2], [2, 3], [1, 3]])
        with pytest.raises(DatabaseMismatchError):
            salvage_index(idx, db=[[1, 2]])  # one transaction, index has 3

    def test_header_damage_is_unsalvageable(self, tmp_path):
        idx = tmp_path / "head.bbsd"
        build_index(idx)
        flip_bit(idx, 14)  # inside the header JSON, breaks the seal
        with pytest.raises(RecoveryError) as caught:
            salvage_index(idx)
        assert isinstance(caught.value.__cause__, CorruptFileError)

    def test_clean_file_is_left_untouched(self, tmp_path):
        idx = tmp_path / "clean.bbsd"
        build_index(idx)
        before = idx.read_bytes()
        report = salvage_index(idx)
        assert report.clean and not report.repaired
        assert idx.read_bytes() == before


class TestTransactionFileCrashes:
    TX = [[1, 2], [2, 3], [1, 3], [1, 2, 3]]

    def test_crash_mid_append_salvages_whole_records(self, tmp_path):
        db_path = tmp_path / "t.tx"
        DiskDatabase.create(db_path, self.TX[:2]).close()
        writer = TransactionFileWriter(db_path, truncate=False)
        plan = arm_txwriter(writer, FaultPlan(crash_after_bytes=5))
        with pytest.raises(SimulatedCrash):
            for tx in self.TX[2:]:
                writer.append(tx)
        assert plan.crashed

        db = DiskDatabase.recover(db_path)
        assert db.last_recovery is not None
        # Whole committed records survive; the torn one is gone.
        assert len(db) == 2
        assert [tuple(tx) for tx in db] == [tuple(t) for t in self.TX[:2]]
        db.close()
        # Salvage is idempotent: a second pass finds nothing to do.
        assert salvage_txfile(db_path).clean

    def test_crash_sweep_over_the_record_protocol(self, tmp_path):
        base_path = tmp_path / "base.tx"
        DiskDatabase.create(base_path, self.TX[:2]).close()
        base_data = base_path.read_bytes()

        db_path = tmp_path / "swept.tx"
        for crash_at in range(1, 40):
            db_path.write_bytes(base_data)
            index_sibling = db_path.with_suffix(db_path.suffix + ".idx")
            if index_sibling.exists():
                index_sibling.unlink()
            writer = TransactionFileWriter(db_path, truncate=False)
            writer.sync()
            arm_txwriter(writer, FaultPlan(crash_after_bytes=crash_at))
            try:
                for tx in self.TX[2:]:
                    writer.append(tx)
                writer.close()
            except SimulatedCrash:
                pass
            db = DiskDatabase.recover(db_path)
            kept = [tuple(tx) for tx in db]
            db.close()
            assert kept[:2] == [tuple(t) for t in self.TX[:2]], (
                f"crash at byte {crash_at}: committed records lost"
            )
            for extra in kept[2:]:
                assert extra in [tuple(t) for t in self.TX[2:]]

    def test_salvage_resurrects_unindexed_complete_records(self, tmp_path):
        # A record fully in the data file whose index entry was lost is
        # recovered: the data file is the ground truth.
        db_path = tmp_path / "t.tx"
        DiskDatabase.create(db_path, self.TX).close()
        index_sibling = db_path.with_suffix(db_path.suffix + ".idx")
        blob = index_sibling.read_bytes()
        index_sibling.write_bytes(blob[:-8])  # drop the last entry

        db = DiskDatabase.recover(db_path)
        assert len(db) == len(self.TX)
        db.close()


class TestSliceFileAtomicSave:
    def test_crash_during_save_leaves_the_old_file_intact(self, tmp_path):
        from repro.core.bbs import BBS
        from repro.data.database import TransactionDatabase
        from repro.storage.slicefile import load_bbs, save_bbs

        path = tmp_path / "atomic.bbsf"
        old = BBS.from_database(TransactionDatabase([[1, 2], [2, 3]]), m=64)
        save_bbs(old, path)
        good = path.read_bytes()

        new = BBS.from_database(
            TransactionDatabase([[1, 2], [2, 3], [1, 3]]), m=64
        )
        for crash_at in (0, 10, len(good) // 2, len(good) - 1):
            with pytest.raises(SimulatedCrash):
                with faulty_open(
                    "atomic", FaultPlan(crash_after_bytes=crash_at)
                ):
                    save_bbs(new, path)
            assert path.read_bytes() == good  # never torn, never mixed
            assert load_bbs(path).n_transactions == 2

        save_bbs(new, path)  # and an undisturbed save still goes through
        assert load_bbs(path).n_transactions == 3


class TestVerifyIndex:
    def test_healthy_index_passes(self, tmp_path):
        from repro.tools.verify import verify_index

        db_path = tmp_path / "v.tx"
        tx = [[1, 2], [2, 3], [1, 3], [1, 2, 3], [4]]
        db = DiskDatabase.create(db_path, tx)
        idx = tmp_path / "v.bbsd"
        store = DiskBBS.create(idx, 64)
        for t in tx:
            store.insert(t)
        store.flush()
        report = verify_index(store, db)
        assert report.ok, str(report)
        store.close()
        db.close()

    def test_lost_coverage_is_detected(self, tmp_path):
        from repro.tools.verify import verify_index

        db_path = tmp_path / "v.tx"
        tx = [[1, 2], [2, 3], [1, 3], [1, 2, 3], [4]]
        db = DiskDatabase.create(db_path, tx)
        idx = tmp_path / "v.bbsd"
        store = DiskBBS.create(idx, 64)
        for t in tx[:3]:  # the index silently misses two transactions
            store.insert(t)
        store.flush()
        report = verify_index(store, db)
        assert not report.ok
        store.close()
        db.close()


class TestCheckAndRepairCli:
    def run(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    def test_check_clean_torn_repair_clean(self, tmp_path, capsys):
        idx = tmp_path / "cli.bbsd"
        build_index(idx)
        code, out = self.run(capsys, "check", str(idx))
        assert code == EXIT_CLEAN
        assert "clean" in out

        store = DiskBBS.open(idx)
        for tx in PENDING:
            store.insert(tx)
        arm_diskbbs(store, FaultPlan(crash_after_bytes=25))
        with pytest.raises(SimulatedCrash):
            store.flush()

        code, out = self.run(capsys, "check", str(idx))
        assert code == EXIT_TORN
        assert "torn" in out

        code, out = self.run(capsys, "repair", str(idx))
        assert code == 0
        code, _ = self.run(capsys, "check", str(idx))
        assert code == EXIT_CLEAN

    def test_check_reports_corruption(self, tmp_path, capsys):
        idx = tmp_path / "rot.bbsd"
        build_index(idx)
        flip_bit(idx, idx.stat().st_size - 30)
        code, out = self.run(capsys, "check", str(idx))
        assert code == EXIT_CORRUPT
        assert "corrupt" in out

    def test_check_unreadable_file_exits_1(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.bin"
        bogus.write_bytes(b"not an index at all")
        code, _ = self.run(capsys, "check", str(bogus))
        assert code == 1

    def test_repair_with_db_rebuilds(self, tmp_path, capsys):
        tx = [[1, 2], [2, 3], [1, 3], [1, 2, 3], [4], [1, 4]]
        idx = tmp_path / "r.bbsd"
        build_index(idx, tx[:3])
        store = DiskBBS.open(idx)
        for t in tx[3:]:
            store.insert(t)
        store.flush()
        store.close()
        db_path = tmp_path / "r.tx"
        DiskDatabase.create(db_path, tx).close()

        first_only = tmp_path / "fo.bbsd"
        build_index(first_only, tx[:3])
        flip_bit(idx, first_only.stat().st_size + 8)

        code, out = self.run(
            capsys, "repair", str(idx), "--db", str(db_path)
        )
        assert code == 0
        assert "re-inserted" in out
        code, _ = self.run(capsys, "check", str(idx), "--db", str(db_path))
        assert code == EXIT_CLEAN

    def test_check_db_reports_a_log_behind_its_journal(
        self, tmp_path, capsys
    ):
        tx = [[i % 7 + 1, i % 5 + 10] for i in range(55)]
        db_path = tmp_path / "j.tx"
        DiskDatabase.create(db_path, tx).close()
        idx = tmp_path / "behind.bbsd"
        build_index(idx, tx[:50])

        code, out = self.run(capsys, "check", str(idx), "--db", str(db_path))
        assert code == EXIT_TORN
        assert "behind by 5 transaction(s)" in out
        assert "underestimates" not in out

        code, _ = self.run(capsys, "repair", str(idx), "--db", str(db_path))
        assert code == 0
        code, _ = self.run(capsys, "check", str(idx), "--db", str(db_path))
        assert code == EXIT_CLEAN

    def test_check_db_damage_inside_the_prefix_stays_corrupt(
        self, tmp_path, capsys
    ):
        tx = [[i % 7 + 1, i % 5 + 10] for i in range(55)]
        db_path = tmp_path / "j.tx"
        DiskDatabase.create(db_path, tx).close()

        rotten = tmp_path / "rot.bbsd"
        build_index(rotten, tx[:50])
        flip_bit(rotten, rotten.stat().st_size - 30)
        code, _ = self.run(capsys, "check", str(rotten), "--db", str(db_path))
        assert code == EXIT_CORRUPT

        # Sealed and CRC-clean, but not the journal's first 50 records.
        foreign = tmp_path / "foreign.bbsd"
        build_index(foreign, [[i % 7 + 20] for i in range(50)])
        code, out = self.run(capsys, "check", str(foreign), "--db", str(db_path))
        assert code == EXIT_CORRUPT
        assert "behind" not in out

        ahead = tmp_path / "ahead.bbsd"
        build_index(ahead, tx + [[1, 10]])
        code, out = self.run(capsys, "check", str(ahead), "--db", str(db_path))
        assert code == EXIT_CORRUPT
        assert "index covers 56 transactions, database has 55" in out

    def test_check_and_repair_txfile(self, tmp_path, capsys):
        db_path = tmp_path / "t.tx"
        DiskDatabase.create(db_path, [[1, 2], [2, 3]]).close()
        code, _ = self.run(capsys, "check", str(db_path))
        assert code == EXIT_CLEAN

        data = db_path.read_bytes()
        db_path.write_bytes(data[:-3])  # torn final record
        code, _ = self.run(capsys, "check", str(db_path))
        assert code == EXIT_TORN
        code, _ = self.run(capsys, "repair", str(db_path))
        assert code == 0
        code, _ = self.run(capsys, "check", str(db_path))
        assert code == EXIT_CLEAN

    def test_repair_slice_file_points_at_reindex(self, tmp_path, capsys):
        from repro.core.bbs import BBS
        from repro.data.database import TransactionDatabase
        from repro.storage.slicefile import save_bbs

        path = tmp_path / "s.bbsf"
        save_bbs(
            BBS.from_database(TransactionDatabase([[1, 2]]), m=64), path
        )
        code, _ = self.run(capsys, "check", str(path))
        assert code == EXIT_CLEAN
        flip_bit(path, path.stat().st_size // 2)
        code, _ = self.run(capsys, "check", str(path))
        assert code == EXIT_CORRUPT
        code, _ = self.run(capsys, "repair", str(path))
        assert code == 1  # slice files are regenerated, not repaired
