"""Journal-tailing replication: follower catch-up, promotion, failover.

The durable serving story so far is single-process: one server owns
the fsynced transaction journal and the DiskBBS segment log.  This
module turns that journal into a replication log — the same sequential
secondary-memory pass the mining index is already reconstructible from
(Grahne & Zhu, PAPERS.md) — and adds the pieces a warm standby needs:

* :class:`ReplicationLog` — the service layer's **only** journal write
  surface (lint rule RPR008 enforces this).  It wraps a
  :class:`~repro.storage.txfile.TransactionFileWriter`, and
  :meth:`ReplicationLog.salvage` heals a torn tail in place.  Nothing
  reads records back through it: every record a node has applied is
  held, at its journal position and with its journal tid, in the
  served :class:`~repro.data.database.TransactionDatabase`, and the
  primary's ``replicate`` op serves followers from there.
* :class:`ReplicationState` — the role (``primary``/``follower``) and
  catch-up counters the ``status``/``metrics`` ops report, including
  the follower's **lag in tids**.
* :class:`FollowerTailer` — an asyncio task running *on the follower's
  serving loop* (so applies serialise with reads by construction,
  exactly like the primary's own appends) that long-polls the primary's
  ``replicate`` op and applies each record through
  ``PatternService.apply_replicated`` — the normal append path, so
  epochs, caches, and the idempotency window stay correct.
* :func:`bootstrap_follower` — the blocking pre-serve phase: ship a
  snapshot of sealed segments (manifest-verified, see
  :mod:`repro.storage.snapshot`) when the local index is missing, then
  fetch the journal suffix record by record, preserving tids, until the
  local pair covers everything the primary has ACKed.
* :func:`salvage_journal` — the supervisor-facing wrapper around
  journal salvage, so ``service/`` code never touches
  ``salvage_txfile`` directly.

Promotion safety (DESIGN.md §9): a follower refuses writes until the
``promote`` op stops the tailer, reconciles journal-ahead records
(anything fsynced locally but not yet applied in memory), re-seeds
token dedupe from those records, and only then flips the role — so an
append retried against the new primary is deduped if its first attempt
replicated, and applied fresh if it never did.  Exactly once, per
token, across the failover.
"""

from __future__ import annotations

import asyncio
import base64
import time

from repro.errors import (
    ConfigurationError,
    ReproError,
    ServiceError,
    StorageError,
)
from repro.service.client import ServiceClient
from repro.service.protocol import (
    decode_response,
    read_frame,
    request_frame,
    write_frame,
)
from repro.storage.metrics import IOStats
from repro.storage.snapshot import SnapshotManifest, assemble_index
from repro.storage.txfile import (
    TransactionFileWriter,
    TxSalvageReport,
    salvage_txfile,
)

#: Records per ``replicate`` request during bootstrap and tailing.
DEFAULT_BATCH_RECORDS = 512
#: Server-side cap on one ``replicate`` response.
MAX_BATCH_RECORDS = 4096
#: Server-side cap on one ``replicate`` long-poll.
MAX_WAIT_S = 10.0
#: Bytes per ``snapshot_fetch`` chunk during bootstrap.
DEFAULT_FETCH_BYTES = 1 << 20
#: Pause before a tailer reconnect attempt.
RECONNECT_DELAY_S = 0.5


def parse_address(text: str) -> tuple[str, int]:
    """Split a ``host:port`` string, validating the port."""
    host, sep, port_text = str(text).rpartition(":")
    if not sep or not host:
        raise ConfigurationError(
            f"expected HOST:PORT, got {text!r}"
        )
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ConfigurationError(
            f"expected HOST:PORT with an integer port, got {text!r}"
        ) from exc
    if not 0 < port < 65536:
        raise ConfigurationError(f"port {port} out of range (1-65535)")
    return host, port


def salvage_journal(path, *, stats: IOStats | None = None) -> TxSalvageReport:
    """Heal a journal pair (torn tail, stale index) outside a service.

    The supervisor's pre-start repair hook: ``service/`` code routes
    journal salvage through here (or :meth:`ReplicationLog.salvage`)
    instead of calling the storage layer directly, keeping every
    journal mutation behind one auditable surface (RPR008).
    """
    return salvage_txfile(path, stats=stats)


class ReplicationLog:
    """The journal, as the service layer is allowed to touch it.

    Wraps the append-only :class:`TransactionFileWriter`.  Everything
    that mutates the journal from ``service/`` — appends, syncs,
    salvage — goes through this class; lint rule RPR008 flags any other
    construction site.
    """

    def __init__(self, writer: TransactionFileWriter):
        self.writer = writer

    @classmethod
    def open(
        cls,
        path,
        *,
        truncate: bool = False,
        stats: IOStats | None = None,
    ) -> "ReplicationLog":
        """Open (by default re-open for append) a journal pair."""
        return cls(TransactionFileWriter(path, truncate=truncate, stats=stats))

    @property
    def path(self):
        return self.writer.path

    @property
    def stats(self) -> IOStats | None:
        return self.writer.stats

    def append(self, items, tid: int | None = None) -> int:
        """Append one record (see :meth:`TransactionFileWriter.append`)."""
        return self.writer.append(items, tid=tid)

    def sync(self) -> None:
        """Fsync data then index."""
        self.writer.sync()

    def close(self) -> None:
        """Sync and close the writer."""
        self.writer.close()

    def salvage(self) -> TxSalvageReport:
        """Close, heal the pair in place, and re-open for append."""
        path = self.path
        stats = self.stats
        try:
            self.writer.close()
        except (OSError, StorageError):
            pass  # a failed close still leaves the files salvageable
        report = salvage_txfile(path, stats=stats)
        self.writer = TransactionFileWriter(path, truncate=False, stats=stats)
        return report

    def __enter__(self) -> "ReplicationLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ReplicationState:
    """Role and catch-up accounting, surfaced by ``status``/``metrics``."""

    def __init__(self, role: str = "primary", upstream: str | None = None):
        if role not in ("primary", "follower"):
            raise ConfigurationError(
                f"replication role must be primary|follower, got {role!r}"
            )
        self.role = role
        self.upstream = upstream
        #: The primary's transaction count as of the last replicate round.
        self.upstream_high_water = 0
        self.rounds = 0
        self.records_applied = 0
        self.connected = False
        self.last_error: str | None = None
        self.last_applied_epoch: int | None = None
        self.promoted_at: float | None = None

    def lag(self, applied: int) -> int:
        """Tids the follower is behind the primary's last observed state."""
        return max(0, self.upstream_high_water - applied)

    def as_dict(self, applied: int) -> dict:
        payload = {
            "role": self.role,
            "upstream": self.upstream,
            "lag": self.lag(applied) if self.role == "follower" else 0,
            "upstream_high_water": self.upstream_high_water,
            "rounds": self.rounds,
            "records_applied": self.records_applied,
            "connected": self.connected,
            "last_error": self.last_error,
            "last_applied_epoch": self.last_applied_epoch,
        }
        if self.promoted_at is not None:
            payload["promoted_seconds_ago"] = time.monotonic() - self.promoted_at
        return payload


class FollowerTailer:
    """Tail the primary's journal from the follower's serving loop.

    Runs as one asyncio task on the same loop as the follower's request
    handlers: each fetched record is applied synchronously between
    awaits, so reads never observe a half-applied insert — the same
    no-locks argument the primary's own append path makes.  Connection
    loss (including mid-stream chaos) is absorbed by reconnecting and
    re-requesting from the follower's own ``len(database)``; dedupe by
    position and token makes the re-request idempotent.
    """

    def __init__(
        self,
        service,
        upstream_host: str,
        upstream_port: int,
        *,
        batch_records: int = DEFAULT_BATCH_RECORDS,
        poll_wait_s: float = 1.0,
        reconnect_delay_s: float = RECONNECT_DELAY_S,
    ):
        self.service = service
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.batch_records = batch_records
        self.poll_wait_s = poll_wait_s
        self.reconnect_delay_s = reconnect_delay_s
        self._stop = False
        self._next_id = 1

    def request_stop(self) -> None:
        """Ask the loop to exit before its next request (promotion path)."""
        self._stop = True

    async def run(self) -> None:
        """Connect, tail, apply; reconnect forever until stopped."""
        state = self.service.replication
        while not self._stop:
            writer = None
            try:
                reader, writer = await asyncio.open_connection(
                    self.upstream_host, self.upstream_port
                )
                state.connected = True
                state.last_error = None
                while not self._stop:
                    await self._round(reader, writer, state)
            except asyncio.CancelledError:
                raise
            except (ReproError, OSError, asyncio.IncompleteReadError) as exc:
                state.connected = False
                state.last_error = f"{type(exc).__name__}: {exc}"
            finally:
                if writer is not None:
                    writer.close()
            if not self._stop:
                await asyncio.sleep(self.reconnect_delay_s)
        state.connected = False

    async def _round(self, reader, writer, state) -> None:
        """One replicate request/response and its applies."""
        request_id = self._next_id
        self._next_id += 1
        await write_frame(writer, request_frame(request_id, "replicate", {
            "from_position": len(self.service.database),
            "max_records": self.batch_records,
            "wait_s": self.poll_wait_s,
        }))
        result = decode_response(await read_frame(reader), request_id)
        state.rounds += 1
        state.upstream_high_water = int(result["high_water_position"])
        for record in result["records"]:
            if self._stop:
                return
            position, tid, items = record
            if self.service.apply_replicated(
                int(position), int(tid), tuple(int(i) for i in items)
            ):
                state.records_applied += 1


# -- bootstrap ---------------------------------------------------------------


def bootstrap_follower(
    upstream_host: str,
    upstream_port: int,
    *,
    db_path,
    index_path,
    stats: IOStats | None = None,
    batch_records: int = DEFAULT_BATCH_RECORDS,
    fetch_bytes: int = DEFAULT_FETCH_BYTES,
    timeout: float = 60.0,
) -> list[str]:
    """Prepare a follower's on-disk state from a running primary.

    Blocking; runs before the follower starts serving.  Two phases:

    1. **Snapshot shipping** — when the local index file is missing,
       fetch the primary's segment manifest plus the raw bytes of the
       base prologue and every sealed segment (chunked, each span
       CRC-verified against the manifest) and assemble them
       crash-atomically into ``index_path``.
    2. **Journal catch-up** — salvage (or create) the local journal
       pair, then fetch the record suffix the primary has beyond it,
       appending each with its **original tid** (so idempotency tokens
       survive the hop) and fsyncing per batch, until the local journal
       covers the primary's current high water.  The tailer closes any
       gap that opens after this returns.

    Returns human-readable action lines for the serve log.
    """
    from pathlib import Path

    actions: list[str] = []
    db_file = Path(db_path)
    index_file = Path(index_path)
    with ServiceClient(upstream_host, upstream_port, timeout=timeout) as client:
        status = client.status()
        if not status.get("durable"):
            raise ConfigurationError(
                f"primary {upstream_host}:{upstream_port} is not durable; "
                f"only --durable servers expose a replicable journal"
            )
        covered = 0
        if not index_file.exists():
            covered = _ship_snapshot(
                client, index_file, stats=stats, fetch_bytes=fetch_bytes,
                actions=actions,
            )
        if db_file.exists():
            report = salvage_journal(db_file, stats=stats)
            if report.repaired:
                actions.append(
                    f"salvaged local journal {db_file.name}: "
                    f"{'; '.join(report.actions)}"
                )
            n_local = report.records_kept
        else:
            n_local = 0
        with ReplicationLog.open(
            db_file, truncate=not db_file.exists(), stats=stats
        ) as journal:
            fetched = _catch_up_journal(
                client, journal, n_local,
                at_least=covered, batch_records=batch_records,
            )
        if fetched:
            actions.append(
                f"fetched {fetched} journal record(s) from "
                f"{upstream_host}:{upstream_port} "
                f"(local journal now {n_local + fetched} record(s))"
            )
    return actions


def _ship_snapshot(
    client: ServiceClient,
    index_file,
    *,
    stats: IOStats | None,
    fetch_bytes: int,
    actions: list[str],
) -> int:
    """Fetch manifest + spans and assemble the index; returns coverage."""
    manifest = SnapshotManifest.from_dict(client.snapshot())
    base_blob = _fetch_part(client, "header", manifest.base_length, fetch_bytes)

    def spans():
        for entry in manifest.segments:
            yield _fetch_part(client, entry.index, entry.length, fetch_bytes)

    assemble_index(manifest, base_blob, spans(), index_file, stats=stats)
    actions.append(
        f"shipped snapshot into {index_file.name}: "
        f"{len(manifest.segments)} segment(s), "
        f"{manifest.covered_transactions} transaction(s), "
        f"{manifest.total_bytes} byte(s), high-water tid "
        f"{manifest.high_water_tid}"
    )
    return manifest.covered_transactions


def _fetch_part(
    client: ServiceClient, part, expected_length: int, fetch_bytes: int
) -> bytes:
    """Chunked ``snapshot_fetch`` of one span (header or a segment)."""
    chunks = []
    offset = 0
    while offset < expected_length or (expected_length == 0 and not chunks):
        payload = client.snapshot_fetch(
            part, offset=offset, max_bytes=fetch_bytes
        )
        blob = base64.b64decode(payload["data"])
        chunks.append(blob)
        offset += len(blob)
        if payload["eof"]:
            break
        if not blob:
            raise ServiceError(
                f"snapshot_fetch of part {part!r} stalled at offset {offset}",
                error_type="protocol",
            )
    return b"".join(chunks)


def _catch_up_journal(
    client: ServiceClient,
    journal: ReplicationLog,
    n_local: int,
    *,
    at_least: int,
    batch_records: int,
) -> int:
    """Fetch journal records [n_local, high water) and append them locally."""
    fetched = 0
    position = n_local
    while True:
        result = client.replicate(position, max_records=batch_records)
        records = result["records"]
        for _pos, tid, items in records:
            journal.append([int(i) for i in items], tid=int(tid))
        if records:
            journal.sync()
            fetched += len(records)
            position += len(records)
        high_water = int(result["high_water_position"])
        if position >= max(high_water, at_least) or not records:
            break
    if position < at_least:
        raise StorageError(
            f"journal catch-up stopped at {position} record(s) but the "
            f"shipped snapshot covers {at_least}", path=journal.path,
        )
    return fetched
