"""Salvage and recovery for the segmented DiskBBS log.

:meth:`~repro.storage.diskbbs.DiskBBS.open` is deliberately strict: any
structural damage refuses the open.  This module is the other half of
the crash-safety story — it classifies damage and repairs what can be
repaired.  The recovery state machine over a scanned log:

1. **clean** — every segment parses, passes its CRC, and is sealed by a
   matching commit record: nothing to do.
2. **torn** — the valid committed prefix is followed by an *uncommitted*
   tail: an append that never reached its second fsync barrier (a crash
   or kill mid-:meth:`flush`).  Salvage truncates the tail; no committed
   data is touched.  This is the expected post-crash state.
3. **corrupt** — a *committed* segment fails its CRC or a commit record
   contradicts its segment (bit rot, overwrite).  Salvage keeps the
   longest valid prefix, quarantines the damaged suffix to a
   ``.quarantine`` sibling for forensics, and truncates.  Transactions
   covered by the damaged suffix are lost *unless* a companion
   transaction source is supplied, in which case the suffix is rebuilt
   by re-inserting the missing transactions.

Only the base header is unsalvageable: it holds the hash-family
parameters without which the slice matrix is meaningless, so damage
there raises :class:`~repro.errors.RecoveryError` (rebuild the index
from its database with ``repro-mine index`` instead).

Everything here works on the file, not on an open store; use
:meth:`DiskBBS.recover` for salvage-then-open in one step, or
``repro-mine check`` / ``repro-mine repair`` from the shell.
"""

from __future__ import annotations

import itertools
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.hashing import family_from_description
from repro.errors import (
    CorruptFileError,
    DatabaseMismatchError,
    RecoveryError,
    StorageError,
)
from repro.storage.diskbbs import (
    _BASE_HEAD,
    _COMMIT,
    _CRC,
    _SEG_HEAD,
    BASE_MAGIC,
    COMMIT_MAGIC,
    READABLE_VERSIONS,
    SEGMENT_MAGIC,
)
from repro.storage.durable import (
    durable_write_bytes,
    fsync_dir,
    fsync_file,
)
from repro.storage.metrics import DEFAULT_PAGE_BYTES, IOStats

#: Status labels (also the vocabulary of ``repro-mine check``).
CLEAN = "clean"
TORN = "torn"
CORRUPT = "corrupt"

#: Scripting-friendly exit codes for ``repro-mine check``.
EXIT_CLEAN = 0
EXIT_TORN = 3
EXIT_CORRUPT = 4


@dataclass
class RecoveryReport:
    """What a deep scan found, and (after salvage) what was done about it."""

    path: str
    status: str                        # CLEAN | TORN | CORRUPT
    format_version: int = 0
    segments_ok: int = 0               # fully valid committed segments
    committed_transactions: int = 0    # transactions those segments cover
    good_end: int = 0                  # byte length of the valid prefix
    damage_offset: int | None = None   # where the first bad entry starts
    suspect_bytes: int = 0             # bytes past the valid prefix
    detail: str | None = None          # human-readable cause of the damage
    repaired: bool = False
    truncated_bytes: int = 0
    quarantined_to: str | None = None
    rebuilt_transactions: int = 0
    actions: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """Whether the file needed (or needs) no repair."""
        return self.status == CLEAN

    def __str__(self) -> str:
        head = (
            f"{self.path}: {self.status} — {self.segments_ok} committed "
            f"segment(s), {self.committed_transactions} transaction(s)"
        )
        lines = [head]
        if self.detail:
            lines.append(f"  cause: {self.detail}")
        if self.suspect_bytes and not self.repaired:
            lines.append(
                f"  {self.suspect_bytes} suspect byte(s) past offset "
                f"{self.good_end}"
            )
        lines.extend(f"  {action}" for action in self.actions)
        return "\n".join(lines)


def inspect_index(path, *, stats: IOStats | None = None) -> RecoveryReport:
    """Deep, read-only scan of a DiskBBS file; classifies but never raises
    for torn/corrupt logs.

    Unlike open-time scanning this verifies every segment CRC and every
    commit seal (it reads the whole file once).  Raises
    :class:`~repro.errors.CorruptFileError` only when the file is not a
    readable DiskBBS log at all (missing/foreign/future base header).
    """
    target = Path(path)
    try:
        blob = target.read_bytes()
    except OSError as exc:
        raise StorageError(
            f"cannot read index {target}: {exc}", path=target
        ) from exc
    if stats is not None:
        stats.page_reads += (
            len(blob) + DEFAULT_PAGE_BYTES - 1
        ) // DEFAULT_PAGE_BYTES

    if len(blob) < _BASE_HEAD.size:
        raise CorruptFileError(
            f"{target} is {len(blob)} bytes, too short for a DiskBBS "
            f"base header", path=target, offset=0,
        )
    magic, version, header_len = _BASE_HEAD.unpack_from(blob, 0)
    if magic != BASE_MAGIC:
        raise CorruptFileError(
            f"{target} is not a DiskBBS index (magic {magic!r})",
            path=target, offset=0,
        )
    if version not in READABLE_VERSIONS:
        raise CorruptFileError(
            f"{target} is format version {version}, this library reads "
            f"versions {READABLE_VERSIONS}", path=target, offset=4,
        )
    header_end = _BASE_HEAD.size + header_len
    data_start = header_end + (_CRC.size if version >= 2 else 0)
    if data_start > len(blob):
        raise CorruptFileError(
            f"{target}: base header overruns the file "
            f"(claims {header_len} bytes of JSON)",
            path=target, offset=_BASE_HEAD.size,
        )
    if version >= 2:
        stored_seal, = _CRC.unpack_from(blob, header_end)
        actual_seal = zlib.crc32(blob[:header_end]) & 0xFFFFFFFF
        if stored_seal != actual_seal:
            raise CorruptFileError(
                f"{target}: base header failed its CRC seal at offset "
                f"{header_end}", path=target, offset=header_end,
            )
    try:
        header = json.loads(blob[_BASE_HEAD.size:header_end])
        family = family_from_description(header["hash_family"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CorruptFileError(
            f"{target}: base header JSON is malformed: {exc}",
            path=target, offset=_BASE_HEAD.size,
        ) from exc

    report = RecoveryReport(
        path=str(target), status=CLEAN, format_version=version,
        good_end=data_start,
    )
    m = family.m
    pos = data_start
    while pos < len(blob):
        end, n_tx, problem = _check_entry(blob, pos, m, version)
        if problem is not None:
            report.status, report.detail = problem
            report.damage_offset = pos
            break
        report.segments_ok += 1
        report.committed_transactions += n_tx
        report.good_end = end
        pos = end
    report.suspect_bytes = len(blob) - report.good_end
    return report


def _check_entry(blob: bytes, pos: int, m: int, version: int):
    """Validate one segment(+commit) entry starting at ``pos``.

    Returns ``(entry_end, n_tx, problem)`` where ``problem`` is ``None``
    for a fully valid committed entry, else ``(status, detail)``.
    Damage that runs off the end of the file is a torn append; damage
    with all its bytes present is corruption.
    """
    size = len(blob)
    if size - pos < _SEG_HEAD.size:
        return pos, 0, (TORN, f"torn segment header at offset {pos}")
    magic, n_tx, n_words, counts_len = _SEG_HEAD.unpack_from(blob, pos)
    if magic != SEGMENT_MAGIC:
        return pos, 0, (CORRUPT, f"bad segment magic at offset {pos}")
    seg_len = _SEG_HEAD.size + counts_len + m * n_words * 8 + _CRC.size
    seg_end = pos + seg_len
    if seg_end > size:
        return pos, 0, (
            TORN, f"segment at offset {pos} runs past EOF "
                  f"(needs {seg_len} bytes, {size - pos} present)",
        )
    commit_end = seg_end + (_COMMIT.size if version >= 2 else 0)
    if commit_end > size:
        return pos, 0, (
            TORN, f"segment at offset {pos} has a torn commit record",
        )
    if version >= 2:
        commit = blob[seg_end:commit_end]
        cmagic, coffset, clen, ccrc = _COMMIT.unpack(commit)
        sealed = zlib.crc32(commit[: -_CRC.size]) & 0xFFFFFFFF
        if cmagic != COMMIT_MAGIC or sealed != ccrc:
            # At the tail this is an interrupted append; mid-file it can
            # only be damage to already-committed state.
            status = TORN if commit_end >= size else CORRUPT
            return pos, 0, (
                status, f"invalid commit record at offset {seg_end}",
            )
        if coffset != pos or clen != seg_len:
            return pos, 0, (
                CORRUPT,
                f"commit record at offset {seg_end} seals offset "
                f"{coffset} (+{clen}), segment spans {pos} (+{seg_len})",
            )
    stored_crc, = _CRC.unpack_from(blob, seg_end - _CRC.size)
    actual = zlib.crc32(blob[pos: seg_end - _CRC.size]) & 0xFFFFFFFF
    if actual != stored_crc:
        return pos, 0, (
            CORRUPT, f"segment at offset {pos} failed its CRC "
                     f"(stored {stored_crc:#010x}, actual {actual:#010x})",
        )
    return commit_end, int(n_tx), None


def salvage_index(
    path,
    db=None,
    *,
    quarantine: bool = True,
    stats: IOStats | None = None,
) -> RecoveryReport:
    """Repair a damaged DiskBBS file in place; returns what was done.

    Torn tails are truncated to the last commit point.  Corrupt
    committed segments (and everything after them, which the log can no
    longer address) are quarantined to a ``.quarantine`` sibling and
    truncated away.  When ``db`` is given — a transaction-file path, a
    :class:`~repro.data.diskdb.DiskDatabase`, or any iterable of
    transactions — the transactions lost with the damaged suffix are
    re-inserted from it, restoring the index to full coverage.

    A clean file is returned untouched.  Damage to the base header
    raises :class:`~repro.errors.RecoveryError`: the hash-family
    parameters live there and cannot be reconstructed.
    """
    target = Path(path)
    try:
        report = inspect_index(target, stats=stats)
    except CorruptFileError as exc:
        raise RecoveryError(
            f"cannot salvage {target}: {exc} (rebuild the index from its "
            f"database with `repro-mine index`)", path=target,
        ) from exc

    if not report.clean:
        if stats is not None:
            stats.salvage_events += 1
        blob = target.read_bytes()
        suspect = blob[report.good_end:]
        if quarantine and suspect:
            qpath = target.with_suffix(target.suffix + ".quarantine")
            durable_write_bytes(qpath, suspect, stats)
            report.quarantined_to = str(qpath)
            report.actions.append(
                f"quarantined {len(suspect)} byte(s) to {qpath}"
            )
            if stats is not None:
                stats.quarantined_segments += 1
        try:
            with open(target, "r+b") as fh:
                fh.truncate(report.good_end)
                fsync_file(fh, stats)
        except OSError as exc:
            raise RecoveryError(
                f"cannot truncate {target} to its valid prefix: {exc}",
                path=target, offset=report.good_end,
            ) from exc
        fsync_dir(target.parent, stats)
        report.truncated_bytes = len(suspect)
        report.repaired = True
        report.actions.append(
            f"truncated {len(suspect)} byte(s); index restored to "
            f"{report.segments_ok} segment(s) / "
            f"{report.committed_transactions} transaction(s)"
        )
        if stats is not None:
            stats.torn_bytes_truncated += len(suspect)

    if db is not None:
        _rebuild_missing(target, db, report, stats)
    return report


def _rebuild_missing(
    target: Path, db, report: RecoveryReport, stats: IOStats | None
) -> None:
    """Re-insert the transactions the salvaged index no longer covers."""
    from repro.storage.diskbbs import DiskBBS

    kwargs = {} if stats is None else {"stats": stats}
    store = DiskBBS.open(target, **kwargs)
    try:
        inserted = catch_up_index(store, _iter_transactions(db))
    finally:
        store.close()
    report.rebuilt_transactions = inserted
    if inserted:
        report.repaired = True
        report.actions.append(
            f"re-inserted {inserted} transaction(s) from the companion "
            f"database"
        )
        if stats is not None:
            stats.rebuilt_transactions += inserted


def catch_up_index(index, transactions) -> int:
    """Insert every transaction past ``index.n_transactions``; how many.

    The one catch-up of an index behind its source, for boot and for
    :func:`salvage_index`.  A source shorter than the index cannot be
    its companion: that raises :class:`~repro.errors.DatabaseMismatchError`
    before anything is inserted.
    """
    covered = index.n_transactions
    records = iter(transactions)
    held = sum(1 for _ in itertools.islice(records, covered))
    if held < covered:
        raise DatabaseMismatchError(
            f"transaction source holds {held} transaction(s) but "
            f"{getattr(index, 'path', 'the index')} already covers "
            f"{covered}; refusing to catch up from a source that cannot "
            f"be its companion"
        )
    inserted = 0
    for inserted, transaction in enumerate(records, 1):
        index.insert(transaction)
    return inserted


def sniff_magic(path) -> bytes:
    """The 4-byte magic that names a repro file's format."""
    try:
        with open(path, "rb") as fh:
            return fh.read(4)
    except OSError as exc:
        raise StorageError(f"cannot read {path}: {exc}", path=path) from exc


def _iter_transactions(db):
    """Normalise the rebuild source to an iterable of item collections."""
    if isinstance(db, (str, Path)):
        from repro.data.diskdb import DiskDatabase

        with DiskDatabase(db) as source:
            yield from source
        return
    yield from db
