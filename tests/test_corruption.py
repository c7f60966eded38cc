"""Hostile-bytes tests: every storage reader fails typed, never raw.

The contract under test: feeding a truncated or bit-flipped file to any
loader raises :class:`~repro.errors.CorruptFileError` (or a subclass)
carrying the file path — never a bare ``struct.error``, ``IndexError``,
or ``KeyError`` leaking from the parser — and salvage afterwards always
restores a readable prefix.
"""

from __future__ import annotations

import pytest

from repro.core.bbs import BBS
from repro.data.database import TransactionDatabase
from repro.data.diskdb import DiskDatabase
from repro.errors import (
    CorruptFileError,
    RecoveryError,
    StorageError,
    TornWriteError,
)
from repro.storage.diskbbs import DiskBBS
from repro.storage.recovery import CLEAN, TORN, inspect_index, salvage_index
from repro.storage.slicefile import load_bbs, save_bbs
from repro.storage.txfile import TransactionFileReader, salvage_txfile
from repro.testing.faults import flip_bit, truncate_to

TRANSACTIONS = [[1, 2], [2, 3], [1, 3], [1, 2, 3], [4], [1, 4]]

#: Relative cut points covering header, body, and tail damage.
CUT_FRACTIONS = [0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99]


def make_diskbbs(path, segments=1):
    store = DiskBBS.create(path, 32)
    step = len(TRANSACTIONS) // segments
    for start in range(0, len(TRANSACTIONS), step):
        for tx in TRANSACTIONS[start:start + step]:
            store.insert(tx)
        store.flush()
    store.close()


def assert_refusal_matches_inspect(idx, refused, where):
    """An open that refused a log is torn exactly when inspect says torn."""
    try:
        status = inspect_index(idx).status
    except CorruptFileError:
        status = None  # base-header damage: unreadable, never torn
    assert status != CLEAN, where
    assert isinstance(refused, TornWriteError) == (status == TORN), where


def make_slicefile(path):
    bbs = BBS.from_database(TransactionDatabase(TRANSACTIONS), m=32)
    save_bbs(bbs, path)


def make_txfile(path):
    DiskDatabase.create(path, TRANSACTIONS).close()


class TestTruncationAlwaysTyped:
    @pytest.mark.parametrize("fraction", CUT_FRACTIONS)
    def test_diskbbs(self, tmp_path, fraction):
        idx = tmp_path / "t.bbsd"
        make_diskbbs(idx)
        truncate_to(idx, int(idx.stat().st_size * fraction))
        with pytest.raises(CorruptFileError) as caught:
            DiskBBS.open(idx).close()
        assert caught.value.path == str(idx)

    @pytest.mark.parametrize("fraction", CUT_FRACTIONS)
    def test_slicefile(self, tmp_path, fraction):
        path = tmp_path / "t.bbsf"
        make_slicefile(path)
        truncate_to(path, int(path.stat().st_size * fraction))
        with pytest.raises(CorruptFileError) as caught:
            load_bbs(path)
        assert caught.value.path == str(path)

    @pytest.mark.parametrize("fraction", CUT_FRACTIONS)
    def test_txfile(self, tmp_path, fraction):
        path = tmp_path / "t.tx"
        make_txfile(path)
        truncate_to(path, int(path.stat().st_size * fraction))
        # Opening may succeed (the index detects most tears, not all);
        # reading every record must either work or fail typed.
        try:
            with TransactionFileReader(path) as reader:
                for position in range(len(reader)):
                    reader.read_at(position)
        except CorruptFileError as caught:
            assert caught.path in (str(path), str(path) + ".idx")

    def test_every_single_byte_prefix_of_a_diskbbs(self, tmp_path):
        # The exhaustive version: no prefix length may leak an untyped
        # parser error.  A prefix that ends exactly on a commit boundary
        # is a valid (shorter) index and must open; every other prefix
        # must fail typed.
        idx = tmp_path / "full.bbsd"
        make_diskbbs(idx)
        blob = idx.read_bytes()
        valid_prefixes = 0
        for cut in range(len(blob)):
            idx.write_bytes(blob[:cut])
            try:
                store = DiskBBS.open(idx)
            except (CorruptFileError, StorageError) as refused:
                assert_refusal_matches_inspect(idx, refused, f"cut at {cut}")
                continue
            store.close()
            valid_prefixes += 1
            assert inspect_index(idx).status == CLEAN, f"cut at {cut}"
        # Exactly one interior prefix is self-consistent: the empty
        # index that ends right after the sealed base header.
        assert valid_prefixes == 1


class TestTruncationIsRecoverable:
    @pytest.mark.parametrize("fraction", CUT_FRACTIONS)
    def test_diskbbs_recover_restores_a_readable_prefix(
        self, tmp_path, fraction
    ):
        idx = tmp_path / "t.bbsd"
        make_diskbbs(idx)
        cut = int(idx.stat().st_size * fraction)
        truncate_to(idx, cut)
        try:
            store = DiskBBS.recover(idx)
        except RecoveryError:
            # The base header itself was cut away: correctly refused.
            assert fraction <= 0.1
            return
        try:
            assert store.n_transactions <= len(TRANSACTIONS)
            if store.n_transactions:
                assert store.count_itemset([1, 2]) >= 0
        finally:
            store.close()
        assert inspect_index(idx).status == CLEAN

    @pytest.mark.parametrize("fraction", CUT_FRACTIONS)
    def test_txfile_salvage_restores_a_readable_prefix(
        self, tmp_path, fraction
    ):
        path = tmp_path / "t.tx"
        make_txfile(path)
        truncate_to(path, int(path.stat().st_size * fraction))
        try:
            report = salvage_txfile(path)
        except RecoveryError:
            assert fraction <= 0.1  # header cut away, nothing to salvage
            return
        with DiskDatabase(path) as db:
            kept = [tuple(tx) for tx in db]
        assert len(kept) == report.records_kept
        assert kept == [tuple(t) for t in TRANSACTIONS[: len(kept)]]


class TestBitRotAlwaysDetected:
    def test_diskbbs_flip_sweep_never_reads_clean(self, tmp_path):
        # Every byte of a DiskBBS file is covered by a CRC (header seal,
        # segment CRC, or commit-record CRC), so no flip may go unseen:
        # open refuses it, typed as inspect classifies it.
        for segments in (1, 2):
            idx = tmp_path / f"rot{segments}.bbsd"
            make_diskbbs(idx, segments)
            blob = idx.read_bytes()
            for offset in range(0, len(blob), 7):
                idx.write_bytes(blob)
                flip_bit(idx, offset, bit=offset % 8)
                where = f"flip at byte {offset} of {segments} segment(s)"
                with pytest.raises(CorruptFileError) as refused:
                    DiskBBS.open(idx).close()
                assert_refusal_matches_inspect(idx, refused.value, where)

    def test_slicefile_flip_sweep_never_loads_clean(self, tmp_path):
        path = tmp_path / "rot.bbsf"
        make_slicefile(path)
        blob = path.read_bytes()
        for offset in range(0, len(blob), 7):
            path.write_bytes(blob)
            flip_bit(path, offset, bit=offset % 8)
            with pytest.raises(CorruptFileError):
                load_bbs(path)

    def test_diskbbs_salvage_after_rot_yields_a_clean_file(self, tmp_path):
        idx = tmp_path / "rot2.bbsd"
        make_diskbbs(idx)
        flip_bit(idx, idx.stat().st_size - 40)
        assert inspect_index(idx).status != CLEAN
        salvage_index(idx)
        assert inspect_index(idx).status == CLEAN


class TestErrorContext:
    """Storage errors identify the file and, where known, the offset."""

    def test_diskbbs_errors_carry_path_and_offset(self, tmp_path):
        idx = tmp_path / "ctx.bbsd"
        make_diskbbs(idx)
        truncate_to(idx, idx.stat().st_size - 9)
        with pytest.raises(CorruptFileError) as caught:
            DiskBBS.open(idx).close()
        assert caught.value.path == str(idx)
        assert caught.value.offset is not None

    def test_slicefile_errors_chain_their_cause(self, tmp_path):
        path = tmp_path / "ctx.bbsf"
        make_slicefile(path)
        blob = bytearray(path.read_bytes())
        blob[5] ^= 0xFF  # corrupt the version field
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptFileError) as caught:
            load_bbs(path)
        assert caught.value.path == str(path)

    def test_struct_errors_never_escape(self, tmp_path):
        # Random-ish garbage with the right magic exercises the parsers
        # past the magic check; nothing may leak an untyped error.
        for magic in (b"BBSD", b"BBSF", b"BBTX"):
            path = tmp_path / f"garbage-{magic.decode()}.bin"
            path.write_bytes(magic + bytes(range(64)))
            with pytest.raises((CorruptFileError, StorageError)):
                if magic == b"BBSD":
                    DiskBBS.open(path).close()
                elif magic == b"BBSF":
                    load_bbs(path)
                else:
                    TransactionFileReader(path).close()
