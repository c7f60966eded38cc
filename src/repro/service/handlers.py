"""The service operations bound to a resident database + index.

:class:`PatternService` owns the long-lived state — the transaction
database, the BBS (or DiskBBS) index, the optional
:class:`~repro.core.incremental.IncrementalMiner`, the epoch-keyed
result cache, and the background mining jobs — and exposes one
``handle(op, args)`` coroutine the server dispatches requests into.

Concurrency model (the reason there are no locks here): all index
reads and writes happen on the event loop, so ``count`` and ``append``
handlers are serialised by construction; the only worker threads are
background ``mine`` jobs, and those run on *snapshots* taken
synchronously at submission — a job never observes a half-applied
insert, and an insert never waits on a running job.  Cache freshness
rides entirely on the index epoch (see :mod:`repro.service.cache`).
"""

from __future__ import annotations

import asyncio
import base64
import itertools
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.bbs import BBS
from repro.core.mining import ALGORITHMS, mine
from repro.core.approximate import mine_approximate
from repro.core.refine import probe, resolve_threshold
from repro.data.database import TransactionDatabase
from repro.errors import (
    ConfigurationError,
    DegradedError,
    ReproError,
    ServiceError,
    StorageError,
)
from repro.service.cache import (
    DEFAULT_CACHE_ENTRIES,
    CountCache,
    MicroBatcher,
    MineResultCache,
    canonical_itemset,
)
from repro.service.protocol import ERR_BAD_REQUEST, ERR_NOT_PRIMARY, ERR_QUERY
from repro.service.replication import (
    MAX_BATCH_RECORDS,
    MAX_WAIT_S,
    ReplicationLog,
    ReplicationState,
)
from repro.service.resilience import TOKEN_MAX, TOKEN_MIN, IdempotencyWindow
from repro.storage.metrics import IOStats
from repro.storage.txfile import TransactionFileReader
from repro.tools.verify import quick_audit

#: Finished jobs retained for polling before the oldest are dropped.
MAX_RETAINED_JOBS = 64

#: Worker threads running a node's background mine jobs.
MINE_THREADS = 2

#: Itemsets accepted by one ``count_batch`` request.  Keeps the frame
#: comfortably under MAX_FRAME_BYTES and bounds one request's work.
MAX_COUNT_BATCH = 1024


class LatencyHistogram:
    """Fixed-bucket log-scale latency histogram (milliseconds)."""

    #: Upper bucket bounds in ms; one overflow bucket is appended.
    BOUNDS_MS = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0)

    def __init__(self):
        self.counts = [0] * (len(self.BOUNDS_MS) + 1)
        self.total = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0

    def record(self, seconds: float) -> None:
        """Account one request that took ``seconds``."""
        ms = seconds * 1000.0
        bucket = 0
        for bound in self.BOUNDS_MS:
            if ms <= bound:
                break
            bucket += 1
        self.counts[bucket] += 1
        self.total += 1
        self.sum_ms += ms
        self.max_ms = max(self.max_ms, ms)

    def as_dict(self) -> dict:
        """JSON-able snapshot: cumulative ``le`` buckets plus summary."""
        cumulative = 0
        buckets = []
        for bound, count in zip(self.BOUNDS_MS, self.counts):
            cumulative += count
            buckets.append({"le_ms": bound, "count": cumulative})
        buckets.append({"le_ms": None, "count": self.total})  # +Inf
        mean = self.sum_ms / self.total if self.total else 0.0
        return {
            "count": self.total,
            "mean_ms": mean,
            "max_ms": self.max_ms,
            "buckets": buckets,
        }


@dataclass
class MineJob:
    """One background mining job (a node's or a router's) and its state."""

    id: str
    params: dict
    submitted_epoch: int
    submitted_at: float
    state: str = "pending"  # pending -> running -> done|error|cancelled
    cancel_requested: bool = False
    result: object = None
    error: str | None = None
    elapsed_seconds: float | None = None
    #: Candidate-bound cost units charged against the mine backlog.
    cost: int = 0
    #: True for brownout answers (cached or approximate) so clients can
    #: tell a degraded-under-load result from a full mine.
    degraded: bool = False
    #: The node's executor future, or the router's asyncio task.
    future: object = field(default=None, repr=False)

    def finish(
        self, started: float, result=None, error: str | None = None
    ) -> None:
        """Settle the job; a cancel request wins, the state is set last."""
        self.elapsed_seconds = time.perf_counter() - started
        if self.cancel_requested:
            self.state = "cancelled"
        elif error is not None:
            self.error, self.state = error, "error"
        else:
            self.result, self.state = result, "done"


def _itemset_arg(args: dict) -> tuple:
    """Validate and canonicalise the ``items`` argument of a request."""
    items = args.get("items")
    if not isinstance(items, list) or not items:
        raise ServiceError(
            "'items' must be a non-empty JSON list",
            error_type=ERR_BAD_REQUEST,
        )
    for item in items:
        if not isinstance(item, (int, str)) or isinstance(item, bool):
            raise ServiceError(
                f"items must be integers or strings, got {item!r}",
                error_type=ERR_BAD_REQUEST,
            )
    return canonical_itemset(items)


def _itemsets_arg(args: dict) -> list[tuple]:
    """Validate and canonicalise the ``itemsets`` of a ``count_batch``."""
    itemsets = args.get("itemsets")
    if not isinstance(itemsets, list) or not itemsets:
        raise ServiceError(
            "'itemsets' must be a non-empty JSON list of itemsets",
            error_type=ERR_BAD_REQUEST,
        )
    if len(itemsets) > MAX_COUNT_BATCH:
        raise ServiceError(
            f"'itemsets' holds {len(itemsets)} entries, over the "
            f"{MAX_COUNT_BATCH} per-request cap; split the batch",
            error_type=ERR_BAD_REQUEST,
        )
    return [_itemset_arg({"items": items}) for items in itemsets]


def mine_params(args: dict) -> dict:
    """Validate a ``mine`` request's arguments into job parameters."""
    min_support = args.get("min_support")
    if not isinstance(min_support, (int, float)) or isinstance(min_support, bool):
        raise ServiceError(
            "'min_support' must be a number (absolute count or fraction)",
            error_type=ERR_BAD_REQUEST,
        )
    algorithm = args.get("algorithm", "dfp")
    if algorithm not in ALGORITHMS + ("auto",):
        raise ServiceError(
            f"unknown algorithm {algorithm!r}", error_type=ERR_BAD_REQUEST
        )
    return {
        "min_support": min_support,
        "algorithm": algorithm,
        "max_size": args.get("max_size"),
        "workers": args.get("workers", 1),
    }


def _mine_key(params: dict) -> tuple:
    """A mine's :class:`MineResultCache` key: what its answer depends on."""
    return (params["min_support"], params["algorithm"], params["max_size"])


def load_summary(overload: dict) -> dict:
    """The ``load`` section of ``status``, from the admission snapshot."""
    return {
        "state": overload["brownout"]["state"],
        "queued": {
            name: stats["queued"] for name, stats in overload["classes"].items()
        },
        "sheds_total": overload["sheds_total"],
    }


class RequestStats:
    """Per-op request counts and latency histograms.

    What the ``requests`` and ``latency`` keys of the ``metrics`` op
    report, on a node and on a router alike.
    """

    def __init__(self):
        self.counts: Counter = Counter()
        self.histograms: dict[str, LatencyHistogram] = {}

    def record(self, op: str, seconds: float) -> None:
        histogram = self.histograms.get(op)
        if histogram is None:
            histogram = self.histograms[op] = LatencyHistogram()
        histogram.record(seconds)
        self.counts[op] += 1

    def latency(self) -> dict:
        return {
            op: histogram.as_dict()
            for op, histogram in sorted(self.histograms.items())
        }


class JobRegistry(dict):
    """Submitted mining jobs by id, as a node and a router keep them.

    Finished jobs stay pollable until more than
    :data:`MAX_RETAINED_JOBS` are held, oldest evicted first.  ``stop``
    is the owner's way of cancelling one pending or running job.
    """

    def __init__(self, prefix: str, stop):
        super().__init__()
        self._ids = itertools.count(1)
        self._prefix = prefix
        self._stop = stop

    def new_id(self) -> str:
        return f"{self._prefix}-{next(self._ids)}"

    def add(self, job: MineJob) -> None:
        self[job.id] = job
        finished = [
            job_id for job_id, held in self.items()
            if held.state in ("done", "error", "cancelled")
        ]
        for job_id in finished[: max(0, len(self) - MAX_RETAINED_JOBS)]:
            del self[job_id]

    def find(self, args: dict) -> MineJob:
        """The job named by ``args["job_id"]``; a typed error if unknown."""
        job_id = args.get("job_id")
        job = self.get(job_id) if isinstance(job_id, str) else None
        if job is None:
            raise ServiceError(
                f"unknown job id {job_id!r}", error_type=ERR_QUERY
            )
        return job

    def states(self) -> dict:
        """Job counts by state (the ``jobs`` key of ``status``)."""
        return dict(Counter(job.state for job in self.values()))

    def poll(self, args: dict, *, epoch: int, serialise) -> dict:
        """The ``job`` op: one job's state, and its result once done.

        ``serialise(result, top)`` renders the result; the poll is
        ``stale`` when ``epoch`` moved on since submission.
        """
        job = self.find(args)
        payload = {
            "job_id": job.id,
            "state": job.state,
            "params": job.params,
            "epoch": job.submitted_epoch,
            "elapsed_seconds": job.elapsed_seconds,
        }
        if job.degraded:
            payload["degraded_load"] = True
        if job.state == "error":
            payload["error"] = job.error
        if job.state == "done":
            payload["result"] = serialise(job.result, args.get("top", 0))
            payload["stale"] = job.submitted_epoch != epoch
        return payload

    def cancel(self, args: dict) -> dict:
        """The ``cancel`` op: stop the job if it has not settled yet."""
        job = self.find(args)
        if job.state in ("pending", "running"):
            self._stop(job)
        return {
            "job_id": job.id,
            "state": job.state,
            "cancel_requested": job.cancel_requested,
        }


class OpService:
    """The op plumbing a node and a router share.

    ``handle`` (op lookup and per-op :class:`RequestStats`), the
    :class:`JobRegistry`, parked long-polls, and the ``cancel`` and
    ``shutdown`` ops.  Subclasses define ``_OPS`` (op name to handler)
    and ``_stop_job``, and bind ``handle = OpService.handle`` on
    themselves: perfbench's span tracer wraps each serving class's own
    ``handle``.
    """

    _OPS: dict

    def __init__(self, job_prefix: str):
        self.stats = RequestStats()
        self.request_counts = self.stats.counts
        self._jobs = JobRegistry(job_prefix, self._stop_job)
        #: One future per parked long-poll, resolved by a drain.
        self._parked: set[asyncio.Future] = set()
        self._draining = False
        #: Set by the server (PatternServer.__init__): the
        #: :class:`AdmissionController` guarding this service's front
        #: door.  ``None`` when the service runs without a server (tests).
        self.admission = None
        #: Set by the server so the ``shutdown`` op can trigger a drain.
        self.shutdown_callback = None
        self.started_monotonic = time.monotonic()
        self.last_request_monotonic = self.started_monotonic

    async def handle(self, op: str, args: dict, deadline=None) -> dict:
        """Run one operation; raises :class:`ServiceError` on bad input.

        ``deadline`` is the caller's propagated
        :class:`~repro.service.protocol.Deadline`, if any.  The server
        already bounds the whole dispatch with it and publishes it via
        ``CURRENT_DEADLINE`` for downstream hops, such as a router's
        shard links.
        """
        handler = self._handler(op)
        self.last_request_monotonic = time.monotonic()
        started = time.perf_counter()
        try:
            return await handler(self, args)
        finally:
            self.stats.record(op, time.perf_counter() - started)

    def _handler(self, op: str):
        handler = self._OPS.get(op)
        if handler is None:
            raise ServiceError(
                f"unknown op {op!r}; expected one of {sorted(self._OPS)}",
                error_type=ERR_BAD_REQUEST,
            )
        return handler

    def end_long_polls(self) -> None:
        """Answer every parked long-poll now, and park no new one.

        The server's drain calls this, so a drain waits for no poll.
        """
        self._draining = True
        _resolve_all(self._parked)

    async def _op_cancel(self, args: dict) -> dict:
        return self._jobs.cancel(args)

    async def _op_shutdown(self, args: dict) -> dict:
        """Request a graceful drain (same path as SIGTERM)."""
        if self.shutdown_callback is not None:
            self.shutdown_callback()
        return {"draining": True}


class PatternService(OpService):
    """The resident serving state and its request handlers.

    Parameters
    ----------
    database:
        The positional :class:`TransactionDatabase` backing Probe
        refinement and appends.
    index:
        The resident index — an in-memory :class:`BBS` or a
        :class:`~repro.storage.diskbbs.DiskBBS` whose ``IOStats`` feed
        the ``metrics`` endpoint.  Must be position-aligned with
        ``database``.
    miner:
        Optional :class:`~repro.core.incremental.IncrementalMiner`
        wrapping the same database + index; when present, appends route
        through it and the ``patterns`` op serves its always-current
        frequent set.
    cache_entries:
        Result-cache capacity.
    journal:
        The durable append log.  Its tokens are the tids in the token
        band of ``database``, which re-seed the idempotency window.
    """

    def __init__(
        self,
        database: TransactionDatabase,
        index,
        *,
        miner=None,
        cache_entries: int = DEFAULT_CACHE_ENTRIES,
        journal=None,
        role: str = "primary",
        upstream: str | None = None,
    ):
        if index.n_transactions != len(database):
            raise ConfigurationError(
                f"index covers {index.n_transactions} transactions, "
                f"database has {len(database)}"
            )
        if miner is not None and (miner.bbs is not index or miner.database is not database):
            raise ConfigurationError(
                "the incremental miner must wrap the served database and index"
            )
        super().__init__("job")
        self.database = database
        self.index = index
        self.miner = miner
        if journal is not None and not isinstance(journal, ReplicationLog):
            # Raw writers (tests, older callers) are adopted into the
            # one sanctioned journal surface.
            journal = ReplicationLog(journal)
        self.journal = journal
        self.replication = ReplicationState(role=role, upstream=upstream)
        self.idempotency = IdempotencyWindow()
        if journal is not None:
            # Re-seeding from the journal tids lets dedupe survive a
            # restart (and, on a follower, a promotion).
            self.idempotency.seed(
                (tid, position)
                for position, tid in enumerate(database.tids())
                if tid >= TOKEN_MIN
            )
        self.mode = "ok"  # "ok" | "degraded"
        self.degraded_reason: str | None = None
        self.degraded_since: float | None = None
        #: Set by the server when a background scrubber is attached.
        self.scrubber = None
        self.cache = CountCache(cache_entries)
        #: Completed mine results by parameter key — the brownout path
        #: serves from here before falling back to the approximate miner.
        self.mine_cache = MineResultCache()
        self.batcher = MicroBatcher(index)
        self._executor = ThreadPoolExecutor(
            max_workers=MINE_THREADS, thread_name_prefix="repro-mine-job"
        )
        self._io_last = self._io_totals()
        #: Set by the server when a replication tailer is attached, so
        #: the ``promote`` op can stop it before flipping the role.
        self.stop_tailer_callback = None

    # -- dispatch ----------------------------------------------------------

    handle = OpService.handle

    def close(self) -> None:
        """Stop the job executor; close the journal and the index.

        Closing a DiskBBS seals its tail, so the drain leaves the index
        held now, swapped by a quarantine or not, covering the journal.
        """
        self._executor.shutdown(wait=False, cancel_futures=True)
        for store in (self.journal, self.index):
            close = getattr(store, "close", None)  # a resident BBS has none
            if close is None:
                continue
            try:
                close()
            except (OSError, StorageError):
                pass  # best effort: the journal holds every ACKed record

    # -- degraded mode -------------------------------------------------------

    def enter_degraded(self, reason: str) -> None:
        """Flip to read-only serving; counts/mining stay up, appends stop."""
        if self.mode != "degraded":
            self.mode = "degraded"
            self.degraded_since = time.monotonic()
        self.degraded_reason = reason

    def quarantine_index(self, reason: str):
        """Corruption response: degrade, quarantine, rebuild, re-point.

        Called by the scrubber when a checksum fails.  The damaged
        on-disk index is recovered in one scan (damage quarantined to a
        ``.quarantine`` sibling, lost transactions re-inserted from the
        resident database) and the service re-points at the repaired
        store.  Serving stays degraded until an explicit ``recover``
        confirms the repair — wrong counts are never served from the
        damaged file because the swap happens before this method returns.
        """
        from repro.storage.diskbbs import DiskBBS

        self.enter_degraded(reason)
        index = self.index
        if not isinstance(index, DiskBBS):
            return None  # resident BBS: nothing on disk to quarantine
        try:
            index.close()
        except (OSError, StorageError):
            pass  # closing a damaged store is best-effort
        fresh = DiskBBS.recover(
            index.path, db=self.database, stats=index.stats,
            flush_threshold=index.flush_threshold,
        )
        # The epoch must stay monotonic across the swap: cached counts
        # and in-flight jobs were keyed against the old object's epochs.
        fresh._epoch = index.epoch + 1
        self.index = fresh
        self.batcher.index = fresh
        self.cache.clear()  # entries may have been computed from bad bytes
        return fresh.last_recovery

    # -- count -------------------------------------------------------------

    async def _op_count(self, args: dict) -> dict:
        """``CountItemSet`` with optional Probe-based exact refinement."""
        key = _itemset_arg(args)
        (result,) = self._count_keys([key], bool(args.get("exact", False)))
        return result

    async def _op_count_batch(self, args: dict) -> dict:
        """Count many itemsets in one request (scatter-gather phase 2).

        Every entry answers as a ``count`` of it would.  The whole batch
        is validated before anything is counted.
        """
        want_exact = bool(args.get("exact", False))
        results = self._count_keys(_itemsets_arg(args), want_exact)
        return {"results": results, "epoch": self.index.epoch}

    def _count_keys(self, keys: list[tuple], want_exact: bool) -> list[dict]:
        """One ``count`` answer per key, in order, without suspending.

        The distinct cache misses are counted in one pass
        (:meth:`MicroBatcher.count`), so a router verifying hundreds of
        candidates pays one sweep, not one per itemset.  Nothing here
        awaits, so no append can move the epoch in between.
        """
        epoch = self.index.epoch
        results = []
        misses: dict[tuple, list[dict]] = {}
        for key in keys:
            estimate = self.cache.get(key, epoch)
            result = {
                "items": list(key),
                "estimate": estimate,
                "epoch": epoch,
                "cached": estimate is not None,
            }
            results.append(result)
            if estimate is None:
                misses.setdefault(key, []).append(result)
            elif want_exact:
                self._refine_exact(key, result)
        if misses:
            estimates = self.batcher.count(misses)
            for (key, entries), estimate in zip(misses.items(), estimates):
                self.cache.put(key, epoch, estimate)
                for result in entries:
                    result["estimate"] = estimate
                    if want_exact:
                        self._refine_exact(key, result)
        return results

    def _refine_exact(self, key: tuple, result: dict) -> None:
        """Add the Probe-refined exact count, and its epoch, to ``result``."""
        # The probe path is fully synchronous, so the epoch read and
        # the probe are atomic with respect to appends.
        epoch = self.index.epoch
        exact = self.cache.get(key, epoch, exact=True)
        if exact is None:
            positions = self.index.candidate_positions(key)
            exact = probe(self.database, frozenset(key), positions)
            self.cache.put(key, epoch, exact, exact=True)
        result["exact"] = exact
        result["epoch"] = epoch

    # -- append ------------------------------------------------------------

    async def _op_append(self, args: dict) -> dict:
        """Dynamic insert: one scattered write, no rebuild (§3.4).

        With an idempotency ``token`` the append is exactly-once across
        retries: a token already in the window answers from the recorded
        position (``deduped: true``) without touching the index.  The
        dedupe lookup runs *before* the degraded gate so a client whose
        first attempt succeeded just as the server degraded still gets
        its ACK instead of a spurious refusal.

        Durable servers journal first: the transaction (with the token
        as its persisted tid) is fsynced to the transaction file before
        any in-memory state changes, so an ACK survives kill -9 and the
        token window is reconstructible from the journal.  That fsync
        is the ACK's only barrier; a DiskBBS seals its tail later
        (DESIGN.md §8).  Tokens live in ``[2**32, 2**63)``, the band
        boot re-seeds the window from.
        """
        key = _itemset_arg(args)
        token = args.get("token")
        if token is not None:
            if (
                not isinstance(token, int)
                or isinstance(token, bool)
                or not TOKEN_MIN <= token < TOKEN_MAX
            ):
                raise ServiceError(
                    "'token' must be an integer in [2**32, 2**63)",
                    error_type=ERR_BAD_REQUEST,
                )
            applied = self.idempotency.lookup(token)
            if applied is not None:
                return {
                    "position": applied,
                    "epoch": self.index.epoch,
                    "n_transactions": len(self.database),
                    "deduped": True,
                }
        if self.replication.role != "primary":
            # After the dedupe lookup, deliberately: a token whose first
            # attempt was ACKed by the old primary and replicated here
            # still gets its answer even before promotion.
            raise ServiceError(
                "server is a replication follower; appends must go to "
                "the primary (or `promote` this follower first)",
                error_type=ERR_NOT_PRIMARY,
            )
        if self.mode != "ok":
            raise DegradedError(
                f"server is read-only ({self.degraded_reason}); "
                f"counts and mining are still served, appends resume "
                f"after a successful 'recover'"
            )
        if self.journal is not None:
            for item in key:
                if not isinstance(item, int) or not 0 <= item < 2**32:
                    raise ServiceError(
                        "durable servers store items as uint32; "
                        f"got {item!r}",
                        error_type=ERR_BAD_REQUEST,
                    )
        position = len(self.database)
        # Untokened appends persist their position as the tid (a
        # reopened writer's default would restart at 0 and collide with
        # existing positional tids).
        tid = token if token is not None else position
        try:
            if self.journal is not None:
                self.journal.append(key, tid=tid)
                self.journal.sync()
            self._apply(key, tid)
        except OSError as exc:  # includes StorageError (ENOSPC, EIO, ...)
            self.enter_degraded(f"write path failed: {exc}")
            if token is not None and len(self.database) > position:
                # The transaction *did* apply (only the index's seal at
                # its flush threshold failed); remember the token so the
                # client's retry is deduped, not inserted twice.
                self.idempotency.record(token, position)
            raise DegradedError(
                f"append failed and the server is now read-only: {exc}"
            ) from exc
        return {
            "position": position,
            "epoch": self.index.epoch,
            "n_transactions": len(self.database),
            "deduped": False,
        }

    def _apply(self, key, tid: int) -> None:
        """Apply one record to memory: the one path for an append (after
        its journal fsync, if durable), a replicated record and a journal
        record adopted by ``recover`` or ``promote``.

        The database keeps the journal tid, the index or the incremental
        miner takes the insert, a token-band tid enters the idempotency
        window, and ``replicate`` long-polls wake.
        """
        position = len(self.database)
        if self.miner is not None:
            self.miner.insert(key, tid=tid)
        else:
            self.database.append(key, tid=tid)
            self.index.insert(key)
        if tid >= TOKEN_MIN:
            self.idempotency.record(tid, position)
        # A tailing follower's parked ``replicate`` wakes at once.
        _resolve_all(self._parked)

    # -- recovery ------------------------------------------------------------

    async def _op_recover(self, args: dict) -> dict:
        """Heal the write path and clear degraded mode.

        Healing is conservative: each step must succeed and a sampled
        index-vs-database audit must come back clean before the mode
        flips back to ``ok``; otherwise the server stays degraded with
        the failure recorded as the new reason.
        """
        actions: list[str] = []
        if self.mode == "ok":
            return {"mode": "ok", "recovered": False, "actions": actions}
        try:
            if self.journal is not None:
                actions.extend(self._heal_journal())
            if getattr(self.index, "tail_size", 0):
                self.index.flush()
                actions.append("flushed the buffered index tail")
            audit = quick_audit(self.index, self.database)
            if not audit.ok:
                raise StorageError(
                    "post-recovery audit failed: "
                    + "; ".join(audit.issues[:3]),
                    path=getattr(self.index, "path", None),
                )
        except (ReproError, OSError) as exc:
            self.degraded_reason = f"recovery failed: {exc}"
            return {
                "mode": self.mode,
                "recovered": False,
                "actions": actions,
                "error": str(exc),
            }
        previous = self.degraded_reason
        self.mode = "ok"
        self.degraded_reason = None
        self.degraded_since = None
        actions.append(f"cleared degraded mode (was: {previous})")
        return {"mode": "ok", "recovered": True, "actions": actions}

    def _heal_journal(self) -> list[str]:
        """Salvage the journal pair and adopt any records memory missed."""
        actions: list[str] = []
        path = self.journal.path
        report = self.journal.salvage()
        if report.repaired:
            actions.append(
                f"salvaged journal {path.name}: kept {report.records_kept} "
                f"record(s), truncated {report.data_bytes_truncated} byte(s)"
            )
        actions.extend(self._adopt_journal_extras(path))
        return actions

    def _adopt_journal_extras(self, path) -> list[str]:
        """Apply journal records the in-memory state never saw.

        A sync that failed *after* the OS had already persisted the
        record leaves the journal one transaction ahead of memory; on
        the next boot that record would appear as an un-ACKed append.
        Adopting it now (and re-seeding its token) keeps the running
        process consistent with its own journal, so a client retrying
        the append is deduped instead of double-applied.  Memory holds
        the journal's first ``len(database)`` records, so only the
        records past them are read.
        """
        actions: list[str] = []
        applied = len(self.database)
        with TransactionFileReader(path) as reader:
            for position in range(applied, len(reader)):
                tid, items = reader.read_at(position)
                self._apply(items, tid)
        adopted = len(self.database) - applied
        if adopted:
            actions.append(
                f"adopted {adopted} journal record(s) memory never applied"
            )
        return actions

    # -- replication ---------------------------------------------------------

    def apply_replicated(self, position: int, tid: int, items) -> bool:
        """Apply one tailed journal record through the normal append path.

        Called by the :class:`~repro.service.replication.FollowerTailer`
        on the serving loop, so it serialises with reads exactly like a
        primary append.  Dedupe is two-layered: a position already
        covered locally is skipped (a reconnect re-requests from the
        follower's own count, so overlap is routine), and a tid in the
        idempotency window is skipped too.  The record is journaled and
        fsynced locally *with its original tid* before memory changes —
        the follower offers the same ACK-survives-kill-9 guarantee as
        the primary, and its window re-seeds from its own journal.
        """
        if position < len(self.database):
            return False
        if tid >= TOKEN_MIN and self.idempotency.lookup(tid) is not None:
            return False
        if position > len(self.database):
            raise StorageError(
                f"replication gap: record {position} offered but only "
                f"{len(self.database)} applied locally",
                path=getattr(self.journal, "path", None),
            )
        key = canonical_itemset(items)
        self.journal.append(key, tid=tid)
        self.journal.sync()
        self._apply(key, tid)
        self.replication.last_applied_epoch = self.index.epoch
        return True

    async def _wait_for_growth(self, baseline: int, wait_s: float) -> None:
        """Long-poll helper: wait for an append beyond ``baseline``.

        The next apply or a drain ends the wait early.
        """
        if len(self.database) > baseline or self._draining:
            return
        # No await between the check and the park, so an append landing
        # in between cannot be missed (single-loop model).
        woken = asyncio.get_running_loop().create_future()
        self._parked.add(woken)
        try:
            await asyncio.wait((woken,), timeout=wait_s)
        finally:
            self._parked.discard(woken)

    def _require_journal(self, op: str) -> None:
        if self.journal is None:
            raise ServiceError(
                f"{op!r} requires a durable server (start it with "
                f"--durable); there is no journal to replicate",
                error_type=ERR_QUERY,
            )

    async def _op_replicate(self, args: dict) -> dict:
        """Serve a batch of journal records from ``from_position`` on.

        The tailing op: strictly request/response (one frame per batch,
        like every other op), with an optional bounded long-poll via
        ``wait_s`` when the follower is caught up.  The records come
        from the served database, which holds every applied record at
        its journal position with its journal tid (each was fsynced
        before :meth:`_apply`).  So only records that are both fsynced
        *and* applied are served, and a journal-ahead record from a
        mid-append crash is never replicated before reconcile.
        """
        self._require_journal("replicate")
        from_position = args.get("from_position")
        if (
            not isinstance(from_position, int)
            or isinstance(from_position, bool)
            or from_position < 0
        ):
            raise ServiceError(
                "'from_position' must be a non-negative integer",
                error_type=ERR_BAD_REQUEST,
            )
        max_records = args.get("max_records", 512)
        if (
            not isinstance(max_records, int)
            or isinstance(max_records, bool)
            or max_records < 1
        ):
            raise ServiceError(
                "'max_records' must be a positive integer",
                error_type=ERR_BAD_REQUEST,
            )
        max_records = min(max_records, MAX_BATCH_RECORDS)
        wait_s = args.get("wait_s", 0)
        if not isinstance(wait_s, (int, float)) or isinstance(wait_s, bool):
            raise ServiceError(
                "'wait_s' must be a number", error_type=ERR_BAD_REQUEST
            )
        wait_s = min(max(0.0, float(wait_s)), MAX_WAIT_S)
        if from_position > len(self.database):
            raise ServiceError(
                f"'from_position' {from_position} is beyond this server's "
                f"{len(self.database)} transaction(s)",
                error_type=ERR_QUERY,
            )
        if from_position == len(self.database) and wait_s > 0:
            await self._wait_for_growth(from_position, wait_s)
        records = self.database.records(
            from_position, from_position + max_records
        )
        return {
            "from_position": from_position,
            "records": [
                [position, tid, list(items)]
                for position, tid, items in records
            ],
            "high_water_position": len(self.database),
            "epoch": self.index.epoch,
            "role": self.replication.role,
        }

    async def _op_snapshot(self, args: dict) -> dict:
        """The sealed-segment manifest a follower bootstraps from."""
        from repro.storage.diskbbs import DiskBBS
        from repro.storage.snapshot import build_manifest

        self._require_journal("snapshot")
        if not isinstance(self.index, DiskBBS):
            raise ServiceError(
                "'snapshot' requires a DiskBBS segment log; this server "
                f"holds a {type(self.index).__name__}",
                error_type=ERR_QUERY,
            )
        if self.index.tail_size:
            # Seal the buffered tail so the manifest covers everything
            # applied so far; flush() does not bump the epoch.
            self.index.flush()
        covered = self.index.sealed_transactions
        high_water_tid = self.database.tid(covered - 1) if covered else None
        return build_manifest(
            self.index, high_water_tid=high_water_tid
        ).as_dict()

    async def _op_snapshot_fetch(self, args: dict) -> dict:
        """One chunk of raw snapshot bytes (base header or a segment)."""
        from repro.storage.diskbbs import DiskBBS

        self._require_journal("snapshot_fetch")
        if not isinstance(self.index, DiskBBS):
            raise ServiceError(
                "'snapshot_fetch' requires a DiskBBS segment log",
                error_type=ERR_QUERY,
            )
        part = args.get("part")
        if part == "header":
            span_offset, span_length = 0, self.index.base_length
        elif isinstance(part, int) and not isinstance(part, bool):
            if not 0 <= part < self.index.n_segments:
                raise ServiceError(
                    f"segment {part} out of range "
                    f"[0, {self.index.n_segments})", error_type=ERR_QUERY,
                )
            span_offset, span_length = self.index.segment_span(part)
        else:
            raise ServiceError(
                "'part' must be \"header\" or a segment index",
                error_type=ERR_BAD_REQUEST,
            )
        offset = args.get("offset", 0)
        if not isinstance(offset, int) or isinstance(offset, bool) or offset < 0:
            raise ServiceError(
                "'offset' must be a non-negative integer",
                error_type=ERR_BAD_REQUEST,
            )
        max_bytes = args.get("max_bytes", 1 << 20)
        if (
            not isinstance(max_bytes, int)
            or isinstance(max_bytes, bool)
            or max_bytes < 1
        ):
            raise ServiceError(
                "'max_bytes' must be a positive integer",
                error_type=ERR_BAD_REQUEST,
            )
        # Base64 inflates 4/3x; stay far inside the 16 MiB frame cap.
        max_bytes = min(max_bytes, 8 << 20)
        if offset > span_length:
            raise ServiceError(
                f"'offset' {offset} is beyond the part's {span_length} "
                f"byte(s)", error_type=ERR_QUERY,
            )
        chunk_len = min(max_bytes, span_length - offset)
        blob = (
            self.index.read_span(span_offset + offset, chunk_len)
            if chunk_len else b""
        )
        return {
            "part": part,
            "offset": offset,
            "length": len(blob),
            "eof": offset + len(blob) >= span_length,
            "data": base64.b64encode(blob).decode("ascii"),
        }

    async def _op_promote(self, args: dict) -> dict:
        """Turn a caught-up follower into a writable primary.

        Idempotent: promoting a primary is a no-op answer, not an
        error, so a retried promote (or a supervisor racing an operator)
        converges.  The promotion sequence — stop the tailer, fsync the
        journal, adopt journal-ahead records through the same path
        ``recover`` uses, flip the role — runs entirely on the serving
        loop, so no read or append interleaves with it.  The index tail
        stays buffered, as after any append.
        """
        if self.replication.role == "primary":
            return {
                "promoted": False,
                "role": "primary",
                "n_transactions": len(self.database),
                "epoch": self.index.epoch,
                "actions": [],
            }
        self._require_journal("promote")
        actions: list[str] = []
        if self.stop_tailer_callback is not None:
            self.stop_tailer_callback()
            actions.append("stopped the journal tailer")
        self.journal.sync()
        actions.extend(self._adopt_journal_extras(self.journal.path))
        self.replication.role = "primary"
        self.replication.connected = False
        self.replication.promoted_at = time.monotonic()
        actions.append(
            f"promoted to primary at {len(self.database)} transaction(s)"
        )
        return {
            "promoted": True,
            "role": "primary",
            "n_transactions": len(self.database),
            "epoch": self.index.epoch,
            "actions": actions,
        }

    # -- mining jobs ---------------------------------------------------------

    async def _op_mine(self, args: dict) -> dict:
        """Submit a background mining job over a consistent snapshot.

        Under brownout the submission is downgraded instead of queued:
        a matching completed result in :attr:`mine_cache` is answered
        as an already-``done`` job, otherwise the job runs the
        index-only approximate miner.  Either way the response (and
        every later poll) carries ``degraded_load: true`` so the caller
        knows it traded exactness for latency.  Full mines are charged
        against the admission controller's job backlog using the
        Geerts–Goethals candidate-bound cost estimate and shed typed
        when it is full.
        """
        params = mine_params(args)
        if self.admission is not None and self.admission.browned_out:
            return self._submit_degraded_mine(params)
        cost = self.mine_cost_units(params["min_support"], params["max_size"])
        if self.admission is not None:
            # Raises a typed OverloadedError (with retry_after) when the
            # backlog is full — before any snapshot is taken.
            self.admission.admit_mine_job(cost)
        # Snapshot synchronously: no await between here and submit, so
        # the copies are consistent with each other and with the epoch.
        job = MineJob(
            id=self._jobs.new_id(),
            params=params,
            submitted_epoch=self.index.epoch,
            submitted_at=time.monotonic(),
            cost=cost,
        )
        db_snapshot = self.database.copy()
        index_snapshot = self._index_snapshot()
        self._jobs.add(job)
        job.future = self._executor.submit(
            self._run_job, job, db_snapshot, index_snapshot
        )
        return {"job_id": job.id, "epoch": job.submitted_epoch}

    def mine_cost_units(self, min_support, max_size) -> int:
        """Estimate one mine's cost in candidate-bound units.

        The same shape the parallel layer's LPT batching uses: the
        frequency-mass frontier estimate ``sum(freq_counts) //
        threshold`` scaled by the achievable depth, capped by the
        Geerts–Goethals bound ``2**depth - 1`` on how many candidates
        can exist at all.  Coarse on purpose — it ranks cheap mines
        below expensive ones and bounds the backlog in work, not jobs.
        """
        n = len(self.database)
        if n == 0:
            return 1
        threshold = max(1, resolve_threshold(min_support, n))
        frequent = [
            count
            for count in self.database.item_counts().values()
            if count >= threshold
        ]
        if not frequent:
            return 1
        depth = len(frequent)
        if max_size is not None:
            depth = min(depth, int(max_size))
        depth = max(1, depth)
        est = max(1, sum(frequent) // threshold)
        weight = est * depth
        if depth < 60:
            weight = min(weight, (1 << depth) - 1)
        return max(1, min(weight, 1 << 60))

    def _submit_degraded_mine(self, params: dict) -> dict:
        """The brownout mine path: cached result or approximate job."""
        cached = self.mine_cache.get(_mine_key(params))
        job = MineJob(
            id=self._jobs.new_id(),
            params=params,
            submitted_epoch=self.index.epoch,
            submitted_at=time.monotonic(),
            degraded=True,
        )
        if cached is not None:
            result, result_epoch = cached
            # Served as an already-finished job: zero queueing, zero
            # mining.  ``submitted_epoch`` records the epoch the cached
            # result was computed at so the poll's ``stale`` flag is
            # honest about its age.
            job.state = "done"
            job.result = result
            job.submitted_epoch = result_epoch
            job.elapsed_seconds = 0.0
            self._jobs.add(job)
            return {
                "job_id": job.id,
                "epoch": job.submitted_epoch,
                "degraded_load": True,
                "cached": True,
            }
        index_snapshot = self._index_snapshot()
        self._jobs.add(job)
        job.future = self._executor.submit(
            self._run_approximate_job, job, index_snapshot
        )
        return {
            "job_id": job.id,
            "epoch": job.submitted_epoch,
            "degraded_load": True,
            "cached": False,
        }

    def _index_snapshot(self) -> BBS:
        if isinstance(self.index, BBS):
            return BBS._from_raw_state(
                self.index.hash_family, *self.index._raw_state()
            )
        return self.index.to_memory()

    def _run_job(self, job: MineJob, database, index) -> None:
        params = job.params
        try:
            self._settle(job, lambda: mine(
                database,
                index,
                params["min_support"],
                params["algorithm"],
                max_size=params["max_size"],
                workers=params["workers"],
            ))
            if job.state == "done":
                # Feed the brownout cache: the next overload serves this
                # result instead of queueing another full mine.
                self.mine_cache.put(
                    _mine_key(params), job.result, job.submitted_epoch
                )
        finally:
            if self.admission is not None:
                self.admission.finish_mine_job(job.cost, job.elapsed_seconds)

    def _run_approximate_job(self, job: MineJob, index) -> None:
        """The brownout worker: index-only estimates, no refinement.

        Runs :func:`mine_approximate` over the snapshot — every count
        is an upper-bound estimate (``exact: false``), which is the
        trade the browned-out server makes to keep answering at all.
        Deliberately not charged against the mine backlog: this *is*
        the relief valve, its cost is bounded by the index scan, and
        the executor's thread count still caps real concurrency.
        """
        self._settle(job, lambda: mine_approximate(
            index, job.params["min_support"], max_size=job.params["max_size"]
        )[0])

    @staticmethod
    def _settle(job: MineJob, work) -> None:
        """Run a job's ``work`` on this worker thread and settle it."""
        job.state = "running"
        started = time.perf_counter()
        try:
            result = work()
        except Exception as exc:  # surfaces via the job poll, not a crash
            job.finish(started, error=f"{type(exc).__name__}: {exc}")
        else:
            job.finish(started, result)

    async def _op_job(self, args: dict) -> dict:
        """Poll one job; includes the serialised result once done."""
        return self._jobs.poll(
            args, epoch=self.index.epoch, serialise=_serialise_result
        )

    def _stop_job(self, job: MineJob) -> None:
        """Immediate while the job is queued, cooperative once running."""
        if job.state == "pending" and job.future is not None and job.future.cancel():
            job.state = "cancelled"
            # The worker will never run, so release its backlog share
            # here (a run job releases in its own ``finally``).
            if self.admission is not None and not job.degraded:
                self.admission.finish_mine_job(job.cost)
        else:
            # The worker checks the flag after mining; the result is
            # discarded even though the CPU work may run to completion.
            job.cancel_requested = True

    # -- tracked patterns ----------------------------------------------------

    async def _op_patterns(self, args: dict) -> dict:
        """The incremental miner's always-current frequent set."""
        if self.miner is None:
            raise ServiceError(
                "server is not tracking patterns (start it with --track)",
                error_type=ERR_QUERY,
            )
        top = args.get("top", 0)
        current = self.miner.patterns()
        ranked = sorted(
            ((canonical_itemset(items), count) for items, count in current.items()),
            key=lambda kv: (-kv[1], kv[0]),
        )
        if top:
            ranked = ranked[:top]
        return {
            "epoch": self.miner.epoch,
            "min_support": self.miner.threshold,
            "n_patterns": len(current),
            "border_size": self.miner.border_size,
            "promotions": self.miner.promotions,
            "patterns": [
                {"items": list(items), "count": count}
                for items, count in ranked
            ],
        }

    # -- observability -------------------------------------------------------

    async def _op_status(self, args: dict) -> dict:
        load = None
        if self.admission is not None:
            overload = self.admission.as_dict()
            load = load_summary(overload)
            load["mine_outstanding"] = overload["mine_jobs"]["outstanding"]
        return {
            "load": load,
            "n_transactions": len(self.database),
            "epoch": self.index.epoch,
            "index": type(self.index).__name__,
            "m": self.index.m,
            "k": self.index.k,
            "tracking": self.miner is not None,
            "mode": self.mode,
            "degraded_reason": self.degraded_reason,
            "durable": self.journal is not None,
            "role": self.replication.role,
            "replication": self.replication.as_dict(len(self.database)),
            "uptime_seconds": time.monotonic() - self.started_monotonic,
            "jobs": self._jobs.states(),
        }

    async def _op_metrics(self, args: dict) -> dict:
        io_now = self._io_totals()
        io_delta = io_now - self._io_last
        self._io_last = io_now
        payload = {
            "uptime_seconds": time.monotonic() - self.started_monotonic,
            "requests": dict(self.request_counts),
            "latency": self.stats.latency(),
            "io": io_now.as_dict(),
            "io_delta": io_delta.as_dict(),
            "cache": self.cache.as_dict(),
            "batch": self.batcher.as_dict(),
            "mode": self.mode,
            "degraded_reason": self.degraded_reason,
            "idempotency": self.idempotency.as_dict(),
            "role": self.replication.role,
            "replication": self.replication.as_dict(len(self.database)),
            "mine_cache": self.mine_cache.as_dict(),
        }
        if self.admission is not None:
            payload["overload"] = self.admission.as_dict()
        if self.degraded_since is not None:
            payload["degraded_seconds"] = time.monotonic() - self.degraded_since
        if self.scrubber is not None:
            payload["scrub"] = self.scrubber.as_dict()
        return payload

    def _io_totals(self) -> IOStats:
        merged = self.database.stats.snapshot()
        if self.index.stats is not self.database.stats:
            merged = merged.merged(self.index.stats)
        return merged

    async def _op_health(self, args: dict) -> dict:
        return {
            "ok": self.mode == "ok",
            "mode": self.mode,
            "epoch": self.index.epoch,
        }

    _OPS = {
        "count": _op_count,
        "count_batch": _op_count_batch,
        "append": _op_append,
        "mine": _op_mine,
        "job": _op_job,
        "cancel": OpService._op_cancel,
        "patterns": _op_patterns,
        "status": _op_status,
        "metrics": _op_metrics,
        "health": _op_health,
        "recover": _op_recover,
        "replicate": _op_replicate,
        "snapshot": _op_snapshot,
        "snapshot_fetch": _op_snapshot_fetch,
        "promote": _op_promote,
        "shutdown": OpService._op_shutdown,
    }


def _resolve_all(futures: set) -> None:
    """Resolve every pending future in ``futures`` (parked polls wake)."""
    for future in futures:
        if not future.done():
            future.set_result(None)


def _serialise_result(result, top: int = 0) -> dict:
    """A :class:`MiningResult` as a JSON-able payload (ranked patterns)."""
    ranked = sorted(
        (
            (canonical_itemset(items), pattern)
            for items, pattern in result.patterns.items()
        ),
        key=lambda kv: (-kv[1].count, kv[0]),
    )
    shown = ranked if not top else ranked[:top]
    return {
        "algorithm": result.algorithm,
        "min_support": result.min_support,
        "n_transactions": result.n_transactions,
        "n_patterns": len(ranked),
        "elapsed_seconds": result.elapsed_seconds,
        "patterns": [
            {
                "items": list(items),
                "count": pattern.count,
                "exact": pattern.exact,
            }
            for items, pattern in shown
        ],
    }


# Re-exported so a caller composing errors sees one module.
__all__ = [
    "LatencyHistogram",
    "MineJob",
    "PatternService",
    "ReproError",
]
