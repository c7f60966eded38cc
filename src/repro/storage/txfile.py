"""The persistent transaction-file format and its positional index.

The Probe refinement needs exactly what the paper describes: *"an index
[whose] key is the relative position of the transaction from the
beginning of the file"*.  A transaction file is therefore two parts:

* ``<name>`` — the data file: a small header followed by fixed-layout
  records ``(tid: uint64, n_items: uint32, items: n * uint32)``;
* ``<name>.idx`` — the positional index: a header plus one uint64 byte
  offset per transaction, appended in lock-step with the data file.

Items are ``uint32`` integers (the synthetic workloads' native type);
string-item databases should stay in memory or map items through an
external dictionary.  Both files carry magics and the index stores the
record count, so mismatched or truncated pairs are detected on open.

**Crash safety.**  The index is *derived state*: every offset in it can
be recomputed by walking the data file.  :func:`salvage_txfile` exploits
this — after a crash it walks the data records, truncates any torn tail
record, and rewrites the index wholesale (crash-atomically), so the pair
is always recoverable up to the last complete record.  The writer runs
a cheap lock-step check when reopening for append and invokes the same
salvage when the pair is inconsistent, and fsyncs both files on close.
"""

from __future__ import annotations

import struct
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import CorruptFileError, RecoveryError, StorageError
from repro.storage.durable import durable_write_bytes, fsync_file
from repro.storage.metrics import IOStats

DATA_MAGIC = b"BBTX"
INDEX_MAGIC = b"BBIX"
FORMAT_VERSION = 1
_FILE_HEAD = struct.Struct("<4sI")
_RECORD_HEAD = struct.Struct("<QI")
_MAX_ITEM = 2**32 - 1


def index_path(data_path) -> Path:
    """The sidecar index path for a data file path."""
    data = Path(data_path)
    return data.with_suffix(data.suffix + ".idx")


@dataclass
class TxSalvageReport:
    """What :func:`inspect_txfile` found / :func:`salvage_txfile` repaired."""

    path: str
    records_kept: int = 0
    data_bytes_truncated: int = 0
    index_rebuilt: bool = False
    repaired: bool = False
    actions: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """Whether the pair needed no repair."""
        return not self.actions

    def __str__(self) -> str:
        state = (
            "clean" if self.clean
            else "repaired" if self.repaired
            else "torn"
        )
        lines = [f"{self.path}: {state} — {self.records_kept} record(s)"]
        lines.extend(f"  {action}" for action in self.actions)
        return "\n".join(lines)


def _read_data_blob(data_path: Path) -> bytes:
    """Read a data file, insisting on a readable header."""
    try:
        blob = data_path.read_bytes()
    except OSError as exc:
        raise RecoveryError(
            f"cannot read transaction file {data_path}: {exc}",
            path=data_path,
        ) from exc
    if len(blob) < _FILE_HEAD.size:
        raise RecoveryError(
            f"{data_path} is {len(blob)} bytes, too short for a header",
            path=data_path, offset=0,
        )
    magic, version = _FILE_HEAD.unpack_from(blob, 0)
    if magic != DATA_MAGIC or version != FORMAT_VERSION:
        raise RecoveryError(
            f"{data_path} has no readable data header "
            f"(magic {magic!r}, version {version})",
            path=data_path, offset=0,
        )
    return blob


def _walk_pair(path) -> tuple[TxSalvageReport, int, bytes | None]:
    """The one walk of a transaction-file pair, shared by inspect and salvage.

    Walks the data records and returns the report of what it found
    (records kept, torn bytes), the offset where the complete records
    end, and the index bytes those records imply when the stored index
    disagrees (else ``None``).
    """
    data_path = Path(path)
    blob = _read_data_blob(data_path)
    offsets = []
    end = _FILE_HEAD.size
    while len(blob) - end >= _RECORD_HEAD.size:
        _, n_items = _RECORD_HEAD.unpack_from(blob, end)
        record_end = end + _RECORD_HEAD.size + 4 * n_items
        if record_end > len(blob):
            break  # torn record body
        offsets.append(end)
        end = record_end
    report = TxSalvageReport(
        path=str(data_path), records_kept=len(offsets),
        data_bytes_truncated=len(blob) - end,
    )
    expected_index = _FILE_HEAD.pack(INDEX_MAGIC, FORMAT_VERSION) + np.asarray(
        offsets, dtype="<u8"
    ).tobytes()
    try:
        current_index = index_path(path).read_bytes()
    except OSError:
        current_index = None
    return report, end, None if current_index == expected_index else expected_index


def inspect_txfile(path, *, stats: IOStats | None = None) -> TxSalvageReport:
    """Read-only classification of a transaction-file pair.

    Reports exactly what :func:`salvage_txfile` would repair — a torn
    final record, a positional index that disagrees with the data — but
    writes nothing.  Raises :class:`~repro.errors.RecoveryError` when
    the data header itself is unreadable (unsalvageable).
    """
    report, end, rebuilt_index = _walk_pair(path)
    if stats is not None:
        stats.page_reads += 1
    if report.data_bytes_truncated:
        report.actions.append(
            f"{report.data_bytes_truncated} torn byte(s) at offset {end}"
        )
    if rebuilt_index is not None:
        report.actions.append(
            "positional index disagrees with the data file"
        )
    return report


def salvage_txfile(path, *, stats: IOStats | None = None) -> TxSalvageReport:
    """Restore a transaction-file pair to a consistent, readable state.

    Walks the data file record by record (the ground truth), truncates a
    torn final record, and rewrites the positional index from the walk
    when it disagrees with the data.  Raises
    :class:`~repro.errors.RecoveryError` if the data file's own header
    is unreadable — there is nothing to rebuild from then.
    """
    report, end, rebuilt_index = _walk_pair(path)
    torn = report.data_bytes_truncated
    if torn:
        with open(path, "r+b") as fh:
            fh.truncate(end)
            fsync_file(fh, stats)
        report.actions.append(
            f"truncated {torn} torn byte(s) at offset {end}"
        )
        if stats is not None:
            stats.salvage_events += 1
            stats.torn_bytes_truncated += torn
    if rebuilt_index is not None:
        durable_write_bytes(index_path(path), rebuilt_index, stats)
        report.index_rebuilt = True
        report.actions.append(
            f"rebuilt positional index ({report.records_kept} offset(s))"
        )
        if stats is not None and not torn:
            stats.salvage_events += 1
    report.repaired = bool(report.actions)
    return report


class TransactionFileWriter:
    """Append-only writer keeping data and index in lock-step.

    Reopening for append (``truncate=False``) verifies the pair is in
    lock-step — the last indexed record must end exactly at the data
    file's EOF — and runs :func:`salvage_txfile` first when it is not,
    so appends never land after a torn tail.  ``close()`` fsyncs both
    files.
    """

    def __init__(
        self,
        path,
        *,
        truncate: bool = True,
        stats: IOStats | None = None,
    ):
        self.path = Path(path)
        self._index_path = index_path(path)
        self.stats = stats
        if not truncate and self.path.exists():
            self._ensure_consistent_tail()
        mode = "wb" if truncate else "ab"
        fresh = truncate or not self.path.exists()
        try:
            self._data = open(self.path, mode)
            self._index = open(self._index_path, mode)
        except OSError as exc:
            raise StorageError(
                f"cannot open transaction file {self.path} for writing: "
                f"{exc}", path=self.path,
            ) from exc
        if fresh:
            self._data.write(_FILE_HEAD.pack(DATA_MAGIC, FORMAT_VERSION))
            self._index.write(_FILE_HEAD.pack(INDEX_MAGIC, FORMAT_VERSION))
        #: Records the pair held at open: an untokened tid is a position.
        self._first_position = (self._index.tell() - _FILE_HEAD.size) // 8
        self.n_written = 0

    def _ensure_consistent_tail(self) -> None:
        """Cheap lock-step check; full salvage only when it fails."""
        try:
            data_size = self.path.stat().st_size
            index_blob = self._index_path.read_bytes()
        except OSError:
            salvage_txfile(self.path, stats=self.stats)
            return
        payload = index_blob[_FILE_HEAD.size:]
        consistent = (
            data_size >= _FILE_HEAD.size
            and len(index_blob) >= _FILE_HEAD.size
            and index_blob[:4] == INDEX_MAGIC
            and len(payload) % 8 == 0
        )
        if consistent and payload:
            # The last indexed record must end exactly at the data EOF.
            last_offset = int(np.frombuffer(payload[-8:], dtype="<u8")[0])
            consistent = self._record_end(last_offset) == data_size
        elif consistent:
            consistent = data_size == _FILE_HEAD.size
        if not consistent:
            salvage_txfile(self.path, stats=self.stats)

    def _record_end(self, offset: int) -> int | None:
        """End offset of the record starting at ``offset``, or ``None``."""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(offset)
                head = fh.read(_RECORD_HEAD.size)
        except OSError:
            return None
        if len(head) < _RECORD_HEAD.size:
            return None
        _, n_items = _RECORD_HEAD.unpack(head)
        return offset + _RECORD_HEAD.size + 4 * n_items

    def append(self, items, tid: int | None = None) -> int:
        """Write one transaction; returns its byte offset in the data file."""
        itemset = sorted(set(int(i) for i in items))
        if not itemset:
            raise StorageError(
                "cannot write an empty transaction", path=self.path
            )
        if itemset[0] < 0 or itemset[-1] > _MAX_ITEM:
            raise StorageError(
                f"items must fit uint32, got range "
                f"[{itemset[0]}, {itemset[-1]}]", path=self.path,
            )
        offset = self._data.tell()
        record_tid = (
            self._first_position + self.n_written if tid is None else int(tid)
        )
        self._data.write(_RECORD_HEAD.pack(record_tid, len(itemset)))
        self._data.write(np.asarray(itemset, dtype="<u4").tobytes())
        self._index.write(struct.pack("<Q", offset))
        self.n_written += 1
        return offset

    def sync(self) -> None:
        """Force both files durable (data first, then the derived index)."""
        fsync_file(self._data, self.stats)
        fsync_file(self._index, self.stats)

    def close(self) -> None:
        """Sync and close both file handles."""
        if not self._data.closed:
            try:
                self.sync()
            finally:
                self._data.close()
                self._index.close()

    def __enter__(self) -> "TransactionFileWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TransactionFileReader:
    """Random and sequential access over a transaction file pair."""

    def __init__(self, path):
        self.path = Path(path)
        self._index_path = index_path(path)
        with ExitStack() as opened:  # closes the data file on a refusal
            try:
                self._data = opened.enter_context(open(self.path, "rb"))
                index_blob = self._index_path.read_bytes()
            except OSError as exc:
                raise StorageError(
                    f"cannot open transaction file {path}: {exc}", path=path
                ) from exc
            self._check_head(
                self._data.read(_FILE_HEAD.size), DATA_MAGIC, self.path
            )
            self._check_head(
                index_blob[: _FILE_HEAD.size], INDEX_MAGIC, self._index_path
            )
            payload = index_blob[_FILE_HEAD.size:]
            if len(payload) % 8:
                raise CorruptFileError(
                    f"index {self._index_path} has a torn tail "
                    f"({len(payload)} payload bytes is not a multiple of 8; "
                    f"run `repro-mine repair` to rebuild it)",
                    path=self._index_path,
                    offset=_FILE_HEAD.size + len(payload) - len(payload) % 8,
                )
            self._offsets = np.frombuffer(payload, dtype="<u8")
            data_size = self.path.stat().st_size
            if self._offsets.size and int(self._offsets[-1]) >= data_size:
                raise CorruptFileError(
                    f"index {self._index_path} points at offset "
                    f"{int(self._offsets[-1])} beyond the data file "
                    f"({data_size} bytes; run `repro-mine repair`)",
                    path=self._index_path, offset=int(self._offsets[-1]),
                )
            opened.pop_all()

    @staticmethod
    def _check_head(blob: bytes, magic: bytes, path) -> None:
        if len(blob) < _FILE_HEAD.size:
            raise CorruptFileError(
                f"{path} is truncated ({len(blob)} of {_FILE_HEAD.size} "
                f"header bytes)", path=path, offset=0,
            )
        got_magic, version = _FILE_HEAD.unpack_from(blob, 0)
        if got_magic != magic:
            raise CorruptFileError(
                f"{path} has the wrong magic ({got_magic!r} at offset 0)",
                path=path, offset=0,
            )
        if version != FORMAT_VERSION:
            raise CorruptFileError(
                f"{path} is format version {version}, expected "
                f"{FORMAT_VERSION}", path=path, offset=4,
            )

    def __len__(self) -> int:
        return int(self._offsets.size)

    def read_at(self, position: int) -> tuple[int, tuple[int, ...]]:
        """``(tid, items)`` of the transaction at ``position``."""
        if not 0 <= position < len(self):
            raise StorageError(
                f"position {position} out of range [0, {len(self)})",
                path=self.path,
            )
        self._data.seek(int(self._offsets[position]))
        return self._read_record()

    def _read_record(self) -> tuple[int, tuple[int, ...]]:
        """Read one ``(tid, items)`` record at the data file's offset."""
        offset = self._data.tell()
        head = self._data.read(_RECORD_HEAD.size)
        if len(head) < _RECORD_HEAD.size:
            raise CorruptFileError(
                f"{self.path}: record header truncated at offset {offset} "
                f"({len(head)} of {_RECORD_HEAD.size} bytes)",
                path=self.path, offset=offset,
            )
        tid, n_items = _RECORD_HEAD.unpack(head)
        body = self._data.read(4 * n_items)
        if len(body) < 4 * n_items:
            raise CorruptFileError(
                f"{self.path}: record body truncated at offset "
                f"{offset + _RECORD_HEAD.size} "
                f"({len(body)} of {4 * n_items} bytes)",
                path=self.path, offset=offset + _RECORD_HEAD.size,
            )
        items = tuple(int(i) for i in np.frombuffer(body, dtype="<u4"))
        return tid, items

    def scan(self):
        """Yield ``(position, tid, items)`` sequentially."""
        self._data.seek(_FILE_HEAD.size)
        for position in range(len(self)):
            yield (position, *self._read_record())

    def offset_of(self, position: int) -> int:
        """Byte offset of a record (page-accounting hook for DiskDatabase)."""
        return int(self._offsets[position])

    @property
    def data_bytes(self) -> int:
        """Size of the data file in bytes."""
        return self.path.stat().st_size

    def close(self) -> None:
        """Close the data file handle."""
        self._data.close()

    def __enter__(self) -> "TransactionFileReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
