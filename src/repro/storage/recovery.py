"""Salvage and recovery for the segmented DiskBBS log.

:func:`~repro.storage.diskbbs.scan_log` is the one reader of the log's
layout: :meth:`~repro.storage.diskbbs.DiskBBS.open`, this module and the
scrubber share its classification.  Open refuses any log it does not
call clean; this module is the other half of the crash-safety story —
it reports the classification and repairs what can be repaired.  The
recovery state machine over a scanned log:

1. **clean** — every segment parses, passes its CRC, and is sealed by a
   matching commit record: nothing to do.
2. **torn** — the valid committed prefix is followed by an *uncommitted*
   tail: an append that never reached its second fsync barrier (a crash
   or kill mid-:meth:`flush`).  Salvage truncates the tail; no committed
   data is touched.  This is the expected post-crash state.
3. **corrupt** — a *committed* segment fails its CRC or its counts do
   not decode, or a commit record is invalid before the end of the log
   or contradicts its segment (bit rot, overwrite).  Salvage keeps the
   longest valid prefix, quarantines the damaged suffix to a
   ``.quarantine`` sibling for forensics, and truncates.  Transactions
   covered by the damaged suffix are lost *unless* a companion
   transaction source is supplied, in which case they are re-inserted.

Only the base header is unsalvageable: it holds the hash-family
parameters without which the slice matrix is meaningless, so damage
there raises :class:`~repro.errors.RecoveryError` (rebuild the index
from its database with ``repro-mine index`` instead).

Everything here works on the file, not on an open store, except the
two steps :meth:`DiskBBS.recover` runs on its own scan
(:func:`salvage_scan`, :func:`rebuild_missing`); use
:meth:`DiskBBS.recover` for salvage-then-open in one scan, or
``repro-mine check`` / ``repro-mine repair`` from the shell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import DatabaseMismatchError, RecoveryError, StorageError
from repro.storage.diskbbs import CLEAN, CORRUPT, TORN, LogScan, scan_log
from repro.storage.durable import (
    durable_write_bytes,
    fsync_dir,
    fsync_file,
)
from repro.storage.metrics import IOStats

__all__ = [
    "CLEAN", "CORRUPT", "TORN", "EXIT_CLEAN", "EXIT_CORRUPT", "EXIT_TORN",
    "RecoveryReport", "catch_up_index", "inspect_index", "rebuild_missing",
    "salvage_index", "salvage_scan", "sniff_magic",
]

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

    This is the scan :meth:`DiskBBS.open` runs, verifying every segment
    CRC, commit seal and counts delta, turned into a report.  Raises
    :class:`~repro.errors.CorruptFileError` only when the file is not a
    readable DiskBBS log at all (missing/foreign/future base header).
    """
    target = Path(path)
    try:
        fh = open(target, "rb")
    except OSError as exc:
        raise StorageError(
            f"cannot read index {target}: {exc}", path=target
        ) from exc
    with fh:
        return _report(scan_log(fh, target, stats))


def _report(scan: LogScan) -> RecoveryReport:
    return RecoveryReport(
        path=scan.path, status=scan.status,
        format_version=scan.format_version,
        segments_ok=len(scan.segments),
        committed_transactions=scan.transactions,
        good_end=scan.good_end, damage_offset=scan.damage_offset,
        suspect_bytes=scan.size - scan.good_end, detail=scan.detail,
    )


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
    from repro.storage.diskbbs import DiskBBS

    kwargs = {} if stats is None else {"stats": stats}
    with DiskBBS.recover(path, db, quarantine=quarantine, **kwargs) as store:
        return store.last_recovery


def salvage_scan(
    fh, scan: LogScan, *, quarantine: bool, stats: IOStats
) -> RecoveryReport:
    """Cut a scanned log back to its valid prefix; returns what was done.

    ``fh`` is the log open for writing and ``scan`` what
    :func:`~repro.storage.diskbbs.scan_log` found in it.  Past the
    valid prefix, the bytes are copied to a ``.quarantine`` sibling
    (unless ``quarantine`` is false) and truncated.
    """
    report = _report(scan)
    if report.clean:
        return report
    target = Path(scan.path)
    stats.salvage_events += 1
    if quarantine and report.suspect_bytes:
        fh.seek(report.good_end)
        qpath = target.with_suffix(target.suffix + ".quarantine")
        durable_write_bytes(qpath, fh.read(), stats)
        report.quarantined_to = str(qpath)
        report.actions.append(
            f"quarantined {report.suspect_bytes} byte(s) to {qpath}"
        )
        stats.quarantined_segments += 1
    try:
        fh.truncate(report.good_end)
        fsync_file(fh, stats)
    except OSError as exc:
        raise RecoveryError(
            f"cannot truncate {target} to its valid prefix: {exc}",
            path=target, offset=report.good_end,
        ) from exc
    fsync_dir(target.parent, stats)
    report.truncated_bytes = report.suspect_bytes
    report.repaired = True
    report.actions.append(
        f"truncated {report.suspect_bytes} byte(s); index restored to "
        f"{report.segments_ok} segment(s) / "
        f"{report.committed_transactions} transaction(s)"
    )
    stats.torn_bytes_truncated += report.suspect_bytes
    return report


def rebuild_missing(index, db, report: RecoveryReport) -> None:
    """Re-insert the transactions a salvaged index no longer covers."""
    inserted = catch_up_index(index, _iter_transactions(db))
    report.rebuilt_transactions = inserted
    if inserted:
        report.repaired = True
        report.actions.append(
            f"re-inserted {inserted} transaction(s) from the companion "
            f"database"
        )
        index.stats.rebuilt_transactions += inserted


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
