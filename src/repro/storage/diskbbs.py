"""A disk-resident, append-only BBS: the paper's persistence story, fully.

:class:`~repro.core.bbs.BBS` is the in-memory working form;
:mod:`repro.storage.slicefile` snapshots it.  But the paper's index is
*"dynamic and persistent"* — it lives on disk across sessions and
absorbs new transactions **without rewriting** what is already stored.
A transposed slice matrix makes in-place appends awkward (one new
transaction touches a bit in up to ``k·n`` slices scattered across the
file), so :class:`DiskBBS` stores the index as a log of immutable
**segments**:

* the *base header* fixes ``m``, ``k`` and the hash family;
* each *segment* is a row-major ``m × n_words`` slice matrix covering a
  contiguous transaction range, with its own item-count delta and CRC;
* fresh inserts accumulate in an in-memory *tail* (an ordinary BBS) and
  :meth:`DiskBBS.flush` appends them as one new segment — a pure
  ``O(tail)`` write, exactly the update cost the paper advertises.

Queries (``count_itemset``, candidate positions, constrained counts)
stream the needed slices segment by segment through a
:class:`~repro.storage.buffer.PageCache`, charging page reads only on
misses.  Mining loads the whole index once via :meth:`to_memory`
(one sequential read — the same cost the adaptive pipeline assumes).

**Crash safety (format version 2).**  :meth:`flush` is a WAL-style
durable append: the segment bytes are written and fsynced *before* a
small CRC-sealed commit record is written and fsynced.  The commit
record is the linearisation point — a crash at any byte of the protocol
leaves either a fully committed segment or a torn, uncommitted tail
that :func:`repro.storage.recovery.salvage_index` (or
:meth:`DiskBBS.recover`, or ``repro-mine repair``) can truncate away
without touching committed data.  Version-1 files (no commit records)
are still readable; the first flush into one rewrites it as version 2
(:meth:`DiskBBS.compact`), so every append uses the durable protocol.

**One reader of the layout.**  :func:`scan_log` is the only code that
decodes a log: it checks every entry's CRC and commit record, decodes
its counts, and calls the log clean, torn or corrupt.
:meth:`DiskBBS.open` refuses what it does not call clean,
:meth:`DiskBBS.recover` opens on its valid prefix after salvage,
:func:`~repro.storage.recovery.inspect_index` reports it, and
:meth:`DiskBBS.verify_segment` re-checks one entry the same way.
"""

from __future__ import annotations

import json
import struct
import zlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import bitvec
from repro.core.bbs import BBS
from repro.core.counts import ItemCountTable
from repro.core.hashing import HashFamily, family_from_description
from repro.errors import (
    ConfigurationError,
    CorruptFileError,
    QueryError,
    RecoveryError,
    StorageError,
    TornWriteError,
)
from repro.storage.buffer import PageCache
from repro.storage.durable import durable_replace, fsync_dir, fsync_file
from repro.storage.metrics import DEFAULT_PAGE_BYTES, IOStats
from repro.storage.slicefile import _decode_item, _encode_item

BASE_MAGIC = b"BBSD"
SEGMENT_MAGIC = b"SEG1"
COMMIT_MAGIC = b"CMT1"
FORMAT_VERSION = 2
#: Format versions this reader understands (1 = pre-commit-record logs).
READABLE_VERSIONS = (1, 2)
_BASE_HEAD = struct.Struct("<4sII")      # magic, version, header json len
_SEG_HEAD = struct.Struct("<4sQII")      # magic, n_tx, n_words, counts len
_COMMIT = struct.Struct("<4sQQI")        # magic, segment offset, segment len, crc
_CRC = struct.Struct("<I")

#: What :func:`scan_log` calls a log (also the vocabulary of
#: ``repro-mine check``).
CLEAN = "clean"
TORN = "torn"
CORRUPT = "corrupt"


def commit_record(segment_offset: int, segment_len: int) -> bytes:
    """The CRC-sealed commit record that finalises one durable append."""
    body = COMMIT_MAGIC + struct.pack("<QQ", segment_offset, segment_len)
    return body + _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)


def base_header_block(header_json: bytes) -> bytes:
    """The version-2 file prologue: fixed head, JSON header, CRC seal.

    Version 2 seals the base header with its own CRC so bit rot in the
    hash-family parameters is detected instead of silently yielding an
    index that hashes differently than the one that was written.
    """
    head = _BASE_HEAD.pack(BASE_MAGIC, FORMAT_VERSION, len(header_json))
    seal = _CRC.pack(zlib.crc32(head + header_json) & 0xFFFFFFFF)
    return head + header_json + seal

#: Default number of buffered tail transactions before an automatic flush.
DEFAULT_FLUSH_THRESHOLD = 4096
DEFAULT_CACHE_PAGES = 256


@dataclass(slots=True)
class _Segment:
    """Directory entry for one committed segment.

    ``length`` spans the whole entry: header, counts, matrix, CRC and
    (format v2) the commit record.
    """

    offset: int
    matrix_offset: int
    n_tx: int
    n_words: int
    length: int
    start_tx: int = 0


@dataclass
class LogScan:
    """What one pass of :func:`scan_log` found in a segment log.

    ``segments``, ``item_counts``, ``signature_bits`` and
    ``transactions`` describe the committed prefix, which ends at
    :attr:`good_end`.  ``status`` is :data:`CLEAN`, or :data:`TORN` /
    :data:`CORRUPT` with the offset and cause of the first damaged
    entry.  An open :class:`DiskBBS` keeps its scan as its segment
    directory, and :meth:`DiskBBS.flush` extends it through :meth:`add`.
    """

    path: str
    format_version: int
    hash_family: HashFamily
    base_length: int
    size: int
    segments: list[_Segment] = field(default_factory=list)
    item_counts: Counter = field(default_factory=Counter)
    signature_bits: int = 0
    transactions: int = 0
    status: str = CLEAN
    damage_offset: int | None = None
    detail: str | None = None

    @property
    def good_end(self) -> int:
        """Byte length of the committed prefix."""
        if not self.segments:
            return self.base_length
        last = self.segments[-1]
        return last.offset + last.length

    def add(self, segment: _Segment, counts: dict, signature_bits: int) -> None:
        """Fold one committed segment and its counts delta into the directory."""
        segment.start_tx = self.transactions
        self.segments.append(segment)
        self.transactions += segment.n_tx
        self.item_counts.update(counts)
        self.signature_bits += signature_bits


class _Damage(Exception):
    """The first damaged entry of a log: its status and cause."""

    def __init__(self, status: str, detail: str):
        super().__init__(detail)
        self.status = status


def scan_log(fh, path, stats: IOStats | None = None) -> LogScan:
    """Check a segment log entry by entry; the one reader of its layout.

    Reads the base header, then one entry at a time — segment header,
    counts, matrix, CRC and (format v2) the commit record — verifying
    every seal and decoding every counts delta, and stops at the first
    damaged entry.  Damage that runs off the end of the file is a torn
    append; damage with all its bytes present is corruption.  The pages
    read are charged to ``stats``.  Raises
    :class:`~repro.errors.CorruptFileError` only when the base header
    is unreadable: no salvage can mend that.
    """
    size = fh.seek(0, 2)
    fh.seek(0)
    head = fh.read(_BASE_HEAD.size)
    if len(head) < _BASE_HEAD.size:
        raise CorruptFileError(
            f"{path} is {size} bytes, too short for a DiskBBS base header",
            path=path, offset=0,
        )
    magic, version, header_len = _BASE_HEAD.unpack(head)
    if magic != BASE_MAGIC:
        raise CorruptFileError(
            f"{path} is not a DiskBBS index (magic {magic!r})",
            path=path, offset=0,
        )
    if version not in READABLE_VERSIONS:
        raise CorruptFileError(
            f"{path} is format version {version}, this library reads "
            f"versions {READABLE_VERSIONS}", path=path, offset=4,
        )
    header_end = _BASE_HEAD.size + header_len
    data_start = header_end + (_CRC.size if version >= 2 else 0)
    if data_start > size:
        raise CorruptFileError(
            f"{path}: base header overruns the file "
            f"(claims {header_len} bytes of JSON)",
            path=path, offset=_BASE_HEAD.size,
        )
    header_blob = fh.read(header_len)
    if version >= 2:
        (seal,) = _CRC.unpack(fh.read(_CRC.size))
        if seal != zlib.crc32(header_blob, zlib.crc32(head)):
            raise CorruptFileError(
                f"{path}: base header failed its CRC seal at offset "
                f"{header_end}", path=path, offset=header_end,
            )
    try:
        family = family_from_description(json.loads(header_blob)["hash_family"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CorruptFileError(
            f"{path}: base header JSON is malformed: {exc}",
            path=path, offset=_BASE_HEAD.size,
        ) from exc

    scan = LogScan(str(path), version, family, data_start, size)
    while scan.good_end < size:
        pos = scan.good_end
        try:
            scan.add(*_read_entry(fh, pos, size, family.m, version, path))
        except _Damage as damage:
            scan.status, scan.detail = damage.status, str(damage)
            scan.damage_offset = pos
            break
    if stats is not None:
        stats.page_reads += _pages(fh.tell(), DEFAULT_PAGE_BYTES)
    return scan


def _read_entry(
    fh, pos: int, size: int, m: int, version: int, path
) -> tuple[_Segment, dict, int]:
    """Read and check the entry at ``pos`` of a file of ``size`` bytes.

    Returns the entry's ``(segment, counts, signature_bits)``; raises
    :class:`_Damage` when it is not a committed segment whose counts
    decode.
    """
    if size - pos < _SEG_HEAD.size:
        raise _Damage(TORN, f"torn segment header at offset {pos}")
    fh.seek(pos)
    head = fh.read(_SEG_HEAD.size)
    magic, n_tx, n_words, counts_len = _SEG_HEAD.unpack(head)
    if magic != SEGMENT_MAGIC:
        raise _Damage(CORRUPT, f"bad segment magic at offset {pos}")
    seg_len = _SEG_HEAD.size + counts_len + m * n_words * 8 + _CRC.size
    length = seg_len + (_COMMIT.size if version >= 2 else 0)
    if seg_len > size - pos:
        raise _Damage(
            TORN, f"segment at offset {pos} runs past EOF "
                  f"(needs {seg_len} bytes, {size - pos} present)",
        )
    if length > size - pos:
        raise _Damage(TORN, f"segment at offset {pos} has a torn commit record")
    body = memoryview(fh.read(length - _SEG_HEAD.size))
    crc_at = seg_len - _SEG_HEAD.size - _CRC.size
    if version >= 2:
        commit = body[crc_at + _CRC.size:]
        cmagic, coffset, clen, ccrc = _COMMIT.unpack(commit)
        if cmagic != COMMIT_MAGIC or ccrc != zlib.crc32(commit[: -_CRC.size]):
            # At the tail this is an interrupted append; mid-file it can
            # only be damage to already-committed state.
            raise _Damage(
                TORN if pos + length >= size else CORRUPT,
                f"invalid commit record at offset {pos + seg_len}",
            )
        if coffset != pos or clen != seg_len:
            raise _Damage(
                CORRUPT,
                f"commit record at offset {pos + seg_len} seals offset "
                f"{coffset} (+{clen}), segment spans {pos} (+{seg_len})",
            )
    (stored,) = _CRC.unpack_from(body, crc_at)
    actual = zlib.crc32(body[:crc_at], zlib.crc32(head))
    if actual != stored:
        raise _Damage(
            CORRUPT, f"segment at offset {pos} failed its CRC "
                     f"(stored {stored:#010x}, actual {actual:#010x})",
        )
    try:
        delta = json.loads(bytes(body[:counts_len]))
        counts = {
            _decode_item(tagged, path): int(count)
            for tagged, count in delta["item_counts"]
        }
        signature_bits = int(delta.get("signature_bits", 0))
    except (KeyError, TypeError, ValueError, CorruptFileError) as exc:
        raise _Damage(
            CORRUPT, f"segment counts at offset {pos + _SEG_HEAD.size} "
                     f"are malformed: {exc}",
        ) from exc
    segment = _Segment(
        pos, pos + _SEG_HEAD.size + counts_len, n_tx, n_words, length
    )
    return segment, counts, signature_bits


class DiskBBS:
    """Segmented on-disk BBS with an in-memory tail for appends."""

    def __init__(
        self,
        path,
        *,
        flush_threshold: int = DEFAULT_FLUSH_THRESHOLD,
        cache_pages: int = DEFAULT_CACHE_PAGES,
        page_bytes: int = DEFAULT_PAGE_BYTES,
        stats: IOStats | None = None,
    ):
        if flush_threshold < 1:
            raise ConfigurationError("flush_threshold must be >= 1")
        self.path = Path(path)
        self.flush_threshold = flush_threshold
        self.page_bytes = page_bytes
        self.stats = stats if stats is not None else IOStats()
        self._cache = PageCache(cache_pages, self.stats)
        self._file = None
        #: The scan this store opened on, extended by every flush.
        self._log: LogScan | None = None
        self.hash_family: HashFamily | None = None
        self._tail: BBS | None = None
        self._epoch = 0
        #: The :class:`~repro.storage.recovery.RecoveryReport` of the
        #: salvage pass that opened this store, when :meth:`recover` was
        #: used; ``None`` for a plain :meth:`open`.
        self.last_recovery = None

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def create(
        cls,
        path,
        m: int,
        k: int = 4,
        *,
        hash_family: HashFamily | None = None,
        **kwargs,
    ) -> "DiskBBS":
        """Initialise a fresh index file and open it."""
        if hash_family is None:
            from repro.core.hashing import MD5HashFamily

            hash_family = MD5HashFamily(m, k)
        if hash_family.m != m:
            raise ConfigurationError(
                f"hash family width {hash_family.m} does not match m={m}"
            )
        header = json.dumps(
            {"hash_family": hash_family.describe()},
            separators=(",", ":"),
        ).encode("utf-8")
        target = Path(path)
        with open(target, "wb") as fh:
            fh.write(base_header_block(header))
            fsync_file(fh)
        fsync_dir(target.parent)
        return cls.open(target, **kwargs)

    @classmethod
    def open(cls, path, **kwargs) -> "DiskBBS":
        """Open an existing index file after one :func:`scan_log` of it.

        The scan verifies every CRC and commit record and decodes every
        segment's counts.  A log it does not call clean is refused, and
        the file closed again: a torn tail raises
        :class:`~repro.errors.TornWriteError`, other damage
        :class:`~repro.errors.CorruptFileError`.  Use :meth:`recover`
        to salvage instead of refusing.
        """
        store = cls(path, **kwargs)
        store._open()
        return store

    @classmethod
    def recover(cls, path, db=None, *, quarantine: bool = True, **kwargs) -> "DiskBBS":
        """Salvage a possibly-damaged index file, then open it.

        One scan classifies the log.  Torn (uncommitted) tails are
        truncated; corrupt committed segments are quarantined; the store
        then opens on that scan's valid prefix.  When a companion
        transaction source ``db`` is supplied (a path to a transaction
        file, a :class:`~repro.data.diskdb.DiskDatabase`, or any
        iterable of transactions), the transactions the log lacks are
        re-inserted from it into the tail.  The
        :class:`~repro.storage.recovery.RecoveryReport` describing what
        was done is attached as :attr:`last_recovery`.  Damage to the
        base header raises :class:`~repro.errors.RecoveryError`.
        """
        from repro.storage.recovery import rebuild_missing, salvage_scan

        store = cls(path, **kwargs)
        try:
            scan = store._scan()
        except CorruptFileError as exc:
            raise RecoveryError(
                f"cannot salvage {store.path}: {exc} (rebuild the index "
                f"from its database with `repro-mine index`)",
                path=store.path,
            ) from exc
        try:
            report = salvage_scan(
                store._file, scan, quarantine=quarantine, stats=store.stats
            )
            store._adopt(scan)
            if db is not None:
                rebuild_missing(store, db, report)
        except BaseException:
            store.close()
            raise
        store.last_recovery = report
        return store

    def _open(self) -> None:
        """Scan the file and serve it, refusing a log that is not clean."""
        scan = self._scan()
        if scan.status != CLEAN:
            self._file.close()
            self._file = None
            refusal = TornWriteError if scan.status == TORN else CorruptFileError
            raise refusal(
                f"{self.path}: {scan.detail} ({scan.status}; run "
                f"`repro-mine repair` to salvage)",
                path=self.path, offset=scan.damage_offset,
            )
        self._adopt(scan)

    def _scan(self) -> LogScan:
        """Open the file and scan it; the file is closed if the scan raises."""
        try:
            self._file = open(self.path, "r+b")
        except OSError as exc:
            raise StorageError(
                f"cannot open index {self.path}: {exc}", path=self.path
            ) from exc
        try:
            return scan_log(self._file, self.path, self.stats)
        except BaseException:
            self._file.close()
            self._file = None
            raise

    def _adopt(self, scan: LogScan) -> None:
        """Serve the committed prefix ``scan`` found."""
        self._log = scan
        self.hash_family = scan.hash_family
        self._tail = BBS(self.m, self.k, hash_family=self.hash_family)

    def close(self) -> None:
        """Flush the tail and close the file handle, even if that fails."""
        if self._file is not None:
            try:
                if self._tail is not None and self._tail.n_transactions:
                    self.flush()
            finally:
                self._file.close()
                self._file = None
                self._tail = None

    def __enter__(self) -> "DiskBBS":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection -----------------------------------------------------------

    @property
    def m(self) -> int:
        """Signature width in bits."""
        return self.hash_family.m

    @property
    def k(self) -> int:
        """Hash functions per item."""
        return self.hash_family.k

    @property
    def n_transactions(self) -> int:
        """Transactions covered: on-disk segments plus the tail."""
        return self._log.transactions + self.tail_size

    @property
    def epoch(self) -> int:
        """Monotonic version counter, bumped once per :meth:`insert`.

        Session-local (starts at 0 on open, never persisted) with the
        same contract as :attr:`repro.core.bbs.BBS.epoch`: equal epochs
        imply identical index contents, so epoch-tagged derived values
        can be invalidated by comparison.  Tracked on the store itself —
        not the in-memory tail, which is replaced wholesale on every
        :meth:`flush`.
        """
        return self._epoch

    def __len__(self) -> int:
        return self.n_transactions

    @property
    def n_segments(self) -> int:
        """Number of immutable on-disk segments."""
        return len(self._segments)

    @property
    def _segments(self) -> list[_Segment]:
        return self._log.segments

    @property
    def tail_size(self) -> int:
        """Transactions buffered in memory, not yet flushed."""
        return self._tail.n_transactions if self._tail else 0

    @property
    def item_counts(self) -> ItemCountTable:
        """Exact 1-itemset counts across disk segments and the tail."""
        merged = ItemCountTable(self._log.item_counts)
        if self._tail is not None:
            merged.merge(self._tail.item_counts)
        return merged

    def items(self) -> list:
        """Every distinct item across segments and tail, sorted."""
        return self.item_counts.items()

    # -- segment export (snapshot shipping) ----------------------------------------

    @property
    def base_length(self) -> int:
        """Byte length of the base-header prologue (magic + JSON + seal)."""
        return self._log.base_length

    def segment_span(self, position: int) -> tuple[int, int]:
        """``(offset, length)`` of one committed segment's full byte span.

        The span covers everything a follower must receive to replay the
        segment verbatim: header, counts blob, matrix, body CRC and (for
        format v2) the commit record.
        """
        if not 0 <= position < len(self._segments):
            raise StorageError(
                f"segment {position} out of range [0, "
                f"{len(self._segments)})", path=self.path,
            )
        seg = self._segments[position]
        return seg.offset, seg.length

    def segment_info(self, position: int) -> dict:
        """Manifest-facing facts about one committed segment."""
        offset, length = self.segment_span(position)
        seg = self._segments[position]
        return {
            "index": position,
            "offset": offset,
            "length": length,
            "n_tx": seg.n_tx,
            "start_tx": seg.start_tx,
        }

    def read_span(self, offset: int, length: int) -> bytes:
        """Raw bytes of an arbitrary file span (snapshot shipping only)."""
        if self._file is None:
            raise StorageError("index is closed", path=self.path)
        if offset < 0 or length < 0:
            raise StorageError(
                f"invalid span ({offset}, {length})", path=self.path
            )
        self._file.seek(offset)
        blob = self._file.read(length)
        if len(blob) < length:
            raise CorruptFileError(
                f"{self.path}: span read at offset {offset} ran past EOF "
                f"({len(blob)} of {length} bytes)",
                path=self.path, offset=offset,
            )
        self.stats.page_reads += _pages(length, self.page_bytes)
        return blob

    @property
    def sealed_item_counts(self) -> ItemCountTable:
        """Exact 1-itemset counts across committed segments only (no tail)."""
        return ItemCountTable(self._log.item_counts)

    @property
    def sealed_transactions(self) -> int:
        """Transactions covered by committed on-disk segments (no tail)."""
        return self._log.transactions

    # -- updates -------------------------------------------------------------------

    def insert(self, items) -> int:
        """Append one transaction; auto-flushes past the threshold."""
        if self._tail is None:
            raise StorageError("index is closed", path=self.path)
        position = self._log.transactions + self._tail.insert(items)
        self._epoch += 1
        if self._tail.n_transactions >= self.flush_threshold:
            self.flush()
        return position

    def flush(self) -> None:
        """Durably append the in-memory tail as one immutable segment.

        The append is a two-barrier protocol:

        1. segment bytes (header, counts, matrix, CRC) — then fsync;
        2. a CRC-sealed commit record — then fsync.

        A crash before the second fsync leaves an uncommitted tail that
        :func:`scan_log` calls torn, so :meth:`open` refuses it with
        :class:`~repro.errors.TornWriteError` and :meth:`recover`
        truncates it; committed segments are never at
        risk.  On an I/O error (``ENOSPC``, ``EIO``) the file is rolled
        back to its pre-append length and the tail stays buffered in
        memory, so a later ``flush()`` can retry with no data loss.

        A version-1 log has no commit records, so its first flush
        rewrites it, tail included, as a version-2 log through
        :meth:`compact`.
        """
        tail = self._tail
        if tail is None or tail.n_transactions == 0:
            return
        if self._log.format_version < FORMAT_VERSION:
            self.compact()
            return
        slices, n_tx, counts, sig_bits = tail._raw_state()
        counts_blob = json.dumps(
            {
                "item_counts": [
                    [_encode_item(item, self.path), count]
                    for item, count in sorted(
                        counts.items(), key=lambda pair: repr(pair[0])
                    )
                ],
                "signature_bits": sig_bits,
            },
            separators=(",", ":"),
        ).encode("utf-8")
        matrix = np.ascontiguousarray(slices, dtype="<u8").tobytes()
        segment = bytearray()
        segment += _SEG_HEAD.pack(
            SEGMENT_MAGIC, n_tx, slices.shape[1], len(counts_blob)
        )
        segment += counts_blob
        segment += matrix
        segment += _CRC.pack(zlib.crc32(segment) & 0xFFFFFFFF)

        self._file.seek(0, 2)
        offset = self._file.tell()
        try:
            self._file.write(segment)
            fsync_file(self._file, self.stats)       # barrier 1: payload durable
            self._file.write(commit_record(offset, len(segment)))
            fsync_file(self._file, self.stats)       # barrier 2: commit point
        except OSError as exc:
            # Roll the log back to its pre-append length so it stays
            # readable; the tail remains buffered for a retry.
            try:
                self._file.truncate(offset)
                self._file.seek(0, 2)
            except OSError:
                pass  # recover()/salvage will drop the torn tail instead
            raise StorageError(
                f"durable append to {self.path} failed at offset "
                f"{offset}: {exc}", path=self.path, offset=offset,
            ) from exc
        self.stats.page_writes += _pages(
            len(segment) + _COMMIT.size, self.page_bytes
        )

        matrix_offset = offset + _SEG_HEAD.size + len(counts_blob)
        self._log.add(
            _Segment(
                offset, matrix_offset, n_tx, slices.shape[1],
                len(segment) + _COMMIT.size,
            ),
            counts, sig_bits,
        )
        self._tail = BBS(self.m, self.k, hash_family=self.hash_family)

    def verify_segment(self, position: int) -> str | None:
        """Re-read one committed segment from disk and check it as the scan does.

        The scrubber's unit of work: runs :func:`scan_log`'s entry check
        (CRC, commit record, counts) on the *current bytes on disk*,
        deliberately bypassing the page cache so bit rot is caught even
        for rows a hot cache would never re-read.  Returns a problem
        description, or ``None`` when the segment is sound.
        ``position`` indexes :attr:`n_segments`; out-of-range positions
        are treated as sound (the directory may have grown/shrunk
        between scheduling and checking).
        """
        if self._file is None or not 0 <= position < len(self._segments):
            return None
        seg = self._segments[position]
        size = self._file.seek(0, 2)
        self.stats.page_reads += _pages(seg.length, self.page_bytes)
        try:
            _read_entry(
                self._file, seg.offset, size, self.m,
                self._log.format_version, self.path,
            )
        except _Damage as damage:
            return f"segment {position}: {damage}"
        return None

    # -- slice access -----------------------------------------------------------------

    def _segment_slice(self, segment: _Segment, position: int) -> np.ndarray:
        """One slice row of one segment, through the page cache."""
        key = (segment.offset, position)

        def load():
            """Read one slice row from disk (miss path of the cache)."""
            row_bytes = segment.n_words * 8
            row_offset = segment.matrix_offset + position * row_bytes
            self._file.seek(row_offset)
            blob = self._file.read(row_bytes)
            if len(blob) < row_bytes:
                raise CorruptFileError(
                    f"{self.path}: slice read at offset {row_offset} ran "
                    f"past EOF ({len(blob)} of {row_bytes} bytes)",
                    path=self.path, offset=row_offset,
                )
            # Charge the real page span of one slice row (>= 1 page).
            self.stats.page_reads += max(
                0, _pages(row_bytes, self.page_bytes) - 1
            )
            return np.frombuffer(blob, dtype="<u8").astype(np.uint64)

        self.stats.slice_reads += 1
        return self._cache.get(key, load)

    # -- queries -----------------------------------------------------------------------

    def count_itemset(self, items) -> int:
        """``CountItemSet`` across every segment plus the tail."""
        positions = self._positions(items)
        total = 0
        for segment in self._segments:
            total += bitvec.popcount(self._segment_and(segment, positions))
        if self._tail.n_transactions:
            total += self._tail.count_itemset(items)
        return total

    def count_itemsets(self, itemsets) -> list[int]:
        """``count_itemset`` per itemset; segment rows come from the page cache."""
        return [self.count_itemset(items) for items in itemsets]

    def candidate_positions(self, items) -> np.ndarray:
        """Global candidate transaction positions (for probing)."""
        positions = self._positions(items)
        pieces = []
        for segment in self._segments:
            hits = bitvec.indices_of_set_bits(
                self._segment_and(segment, positions), segment.n_tx
            )
            if hits.size:
                pieces.append(hits + segment.start_tx)
        if self._tail.n_transactions:
            tail_hits = self._tail.candidate_positions(items)
            if tail_hits.size:
                pieces.append(tail_hits + self._log.transactions)
        if not pieces:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(pieces)

    def count_with_constraint(self, items, constraint_words: np.ndarray) -> int:
        """Constrained count; the constraint covers the global range."""
        expected = bitvec.words_for_bits(self.n_transactions)
        if constraint_words.shape[0] != expected:
            raise QueryError(
                f"constraint has {constraint_words.shape[0]} words, "
                f"index needs {expected}"
            )
        flagged = self.candidate_positions(items)
        return sum(
            1 for position in flagged
            if bitvec.get_bit(constraint_words, int(position))
        )

    def _positions(self, items) -> np.ndarray:
        positions = self.hash_family.itemset_positions(set(items))
        if positions.size == 0:
            raise QueryError("cannot form a signature for the empty itemset")
        return positions

    def _segment_and(self, segment: _Segment, positions: np.ndarray) -> np.ndarray:
        out = self._segment_slice(segment, int(positions[0])).copy()
        for position in positions[1:]:
            out &= self._segment_slice(segment, int(position))
        return out

    # -- maintenance -----------------------------------------------------------------------

    def compact(self) -> None:
        """Merge every segment (and the tail) into one segment.

        The segment log keeps appends cheap, but every query pays one
        slice read per segment; compaction restores single-segment
        query cost.  The rewrite is crash-atomic: the merged index is
        written to a sibling temp file, fsynced, and durably renamed
        over the original (with a directory fsync), so a crash at any
        point leaves either the old or the new index — never a ruin.
        """
        merged = self.to_memory()
        header = json.dumps(
            {"hash_family": self.hash_family.describe()},
            separators=(",", ":"),
        ).encode("utf-8")
        tmp_path = self.path.with_suffix(self.path.suffix + ".compact")
        with open(tmp_path, "wb") as fh:
            fh.write(base_header_block(header))
        self._file.close()

        rewritten = DiskBBS.open(
            tmp_path,
            flush_threshold=self.flush_threshold,
            cache_pages=self._cache.capacity_pages,
            page_bytes=self.page_bytes,
            stats=self.stats,
        )
        if merged.n_transactions:
            rewritten._tail = merged
            rewritten.flush()
        fsync_file(rewritten._file, self.stats)
        rewritten._file.close()

        durable_replace(tmp_path, self.path, self.stats)
        self._cache.clear()
        self._open()

    # -- bulk load for mining --------------------------------------------------------------

    def to_memory(self) -> BBS:
        """Materialise the whole index as an in-memory BBS (one read pass).

        This is the load the mining algorithms assume; the returned BBS
        covers disk segments *and* the unflushed tail, in insert order.
        """
        total_words = bitvec.words_for_bits(self.n_transactions)
        matrix = np.zeros((self.m, max(total_words, 1)), dtype=np.uint64)
        bit_offset = 0
        for segment in self._segments:
            self._file.seek(segment.matrix_offset)
            matrix_bytes = self.m * segment.n_words * 8
            blob = self._file.read(matrix_bytes)
            if len(blob) < matrix_bytes:
                raise CorruptFileError(
                    f"{self.path}: segment matrix at offset "
                    f"{segment.matrix_offset} ran past EOF "
                    f"({len(blob)} of {matrix_bytes} bytes)",
                    path=self.path, offset=segment.matrix_offset,
                )
            seg_matrix = np.frombuffer(blob, dtype="<u8").reshape(
                self.m, segment.n_words
            )
            _or_shifted(matrix, seg_matrix, bit_offset, segment.n_tx)
            bit_offset += segment.n_tx
            self.stats.page_reads += _pages(len(blob), self.page_bytes)
        if self._tail.n_transactions:
            tail_slices, tail_n, _, _ = self._tail._raw_state()
            _or_shifted(matrix, tail_slices, bit_offset, tail_n)
        counts = self.item_counts.as_dict()
        return BBS._from_raw_state(
            self.hash_family, matrix, self.n_transactions, counts,
            self._log.signature_bits + (
                self._tail._signature_bits_total if self._tail else 0
            ),
        )


def _or_shifted(
    target: np.ndarray, source: np.ndarray, bit_offset: int, n_bits: int
) -> None:
    """OR ``source``'s first ``n_bits`` columns into ``target`` at an offset.

    Segments start on arbitrary bit boundaries, so each source word may
    straddle two target words.
    """
    word_offset, shift = divmod(bit_offset, bitvec.WORD_BITS)
    n_words = bitvec.words_for_bits(n_bits)
    chunk = source[:, :n_words]
    total_words = target.shape[1]
    if shift == 0:
        end = min(word_offset + n_words, total_words)
        target[:, word_offset:end] |= chunk[:, : end - word_offset]
        return
    left = (chunk << np.uint64(shift)).astype(np.uint64)
    right = (chunk >> np.uint64(bitvec.WORD_BITS - shift)).astype(np.uint64)
    left_end = min(word_offset + n_words, total_words)
    target[:, word_offset:left_end] |= left[:, : left_end - word_offset]
    right_start = word_offset + 1
    right_end = min(right_start + n_words, total_words)
    if right_end > right_start:
        # Any bits the clip would drop are beyond n_bits and thus zero.
        target[:, right_start:right_end] |= right[:, : right_end - right_start]


def _pages(n_bytes: int, page_bytes: int) -> int:
    if n_bytes <= 0:
        return 0
    return (n_bytes + page_bytes - 1) // page_bytes
