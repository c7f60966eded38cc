"""The scatter-gather router: one wire endpoint, N shard servers.

:class:`ShardRouter` exposes the same ``handle(op, args)`` /
``close()`` surface as :class:`~repro.service.handlers.PatternService`,
so the unchanged :class:`~repro.service.server.PatternServer` (and its
admission limits, per-request timeouts, and graceful drain) serves it —
clients speak the existing wire protocol and cannot tell a router from
a single node, except that the answers cover the concatenation of every
shard's transaction range.

Per-shard transport is :class:`ShardLink`, the asyncio transport of
the retry core (:class:`~repro.service.resilience.RetryCore`) that the
blocking :class:`~repro.service.resilience.RetryingClient` drives too:
one :class:`RetryPolicy` (per-operation deadline spanning all attempts,
capped exponential backoff with jitter, bounded attempts), a
:class:`CircuitBreaker` per endpoint, and one retry matrix — transport
failures and transient error frames retry for idempotent operations,
definitive answers never do.

Overload handling (PR 9): the router is itself served by a
:class:`PatternServer`, so it inherits admission control and brownout
for free; what this module adds is *propagation*.  A client-stamped
``deadline_ms`` survives the extra hop — the server parks the live
budget in :data:`~repro.service.protocol.CURRENT_DEADLINE` and every
:class:`ShardLink` re-stamps the *remaining* budget onto its shard
frames, refusing to dial at all once it has expired (an expired request
provably spawns zero shard-side work).  And a shard that sheds with a
typed ``overloaded`` error is *healthy*, just saturated: the link does
not trip its breaker or fail over to the follower — instead the whole
fan-out is cancelled promptly and the router answers with its own typed
``overloaded`` carrying the largest shard ``retry_after``, so one
saturated shard cannot make the others burn work that will be thrown
away.

Failure handling (the "never a hang" contract): every fan-out runs
under the per-shard deadline; a shard that stays unreachable past its
retries fails over to its configured follower for reads (PR 6
replication — followers serve counts), or, for the tail shard's
appends, is *promoted* (the idempotent ``promote`` op) with the map
updated and persisted.  When no follower exists the request fails with
a typed ``partial`` error naming the missing global ranges — the router
never serves an under-count from partial coverage.
"""

from __future__ import annotations

import asyncio
import random
import time

from repro.core.refine import resolve_threshold
from repro.errors import (
    ConfigurationError,
    OverloadedError,
    PartialResultError,
    ReproError,
    ServiceError,
    ServiceTimeoutError,
)
from repro.service.handlers import (
    MineJob,
    OpService,
    RequestStats,
    _itemset_arg,
    _itemsets_arg,
    load_summary,
    mine_params,
)
from repro.service.protocol import (
    CURRENT_DEADLINE,
    ERR_BAD_REQUEST,
    ERR_QUERY,
    decode_response,
    read_frame,
    request_frame,
    write_frame,
)
from repro.service.resilience import (
    UNANSWERED,
    CircuitBreaker,
    RetryCore,
    RetryPolicy,
    classify,
)
from repro.service.shard.merge import (
    candidate_itemsets,
    local_threshold,
    merge_count_payloads,
    merged_mine_payload,
    merged_patterns_payload,
    sum_exact_counts,
)
from repro.service.shard.shardmap import ShardEntry, ShardMap

#: Default per-shard retry policy: tighter than the client default so a
#: dead shard resolves to a typed error well inside the server's own
#: per-request timeout instead of racing it.
ROUTER_POLICY = RetryPolicy(
    max_attempts=3,
    base_delay=0.05,
    max_delay=1.0,
    op_deadline=8.0,
    request_timeout=4.0,
    connect_timeout=2.0,
)

#: Itemsets per ``count_batch`` request during phase-2 verification.
VERIFY_BATCH = 512

#: Overall deadline for a routed mining job (both phases, all shards).
MINE_DEADLINE_S = 600.0

#: Poll cadence for shard-side mine jobs.
JOB_POLL_INTERVAL_S = 0.05

#: Per-attempt / per-poll ceilings for ``job`` polls against a mining
#: shard.  Mining pegs the shard's CPU, so even a tiny status frame can
#: take seconds to come back (and the final poll carries the full local
#: result); misclassifying that as "unreachable" would fail a healthy
#: cluster.  The whole routed mine stays bounded by ``MINE_DEADLINE_S``.
MINE_POLL_TIMEOUT_S = 60.0
MINE_POLL_DEADLINE_S = 120.0

#: Operations the router does not provide.  Storage-coupled ops
#: (recovery, replication, snapshots) are per-shard concerns — address
#: the shard server directly.
UNROUTED_OPS = frozenset(
    {"recover", "replicate", "snapshot", "snapshot_fetch", "promote"}
)


class ShardUnavailableError(ServiceError):
    """Internal: a shard (and its follower, if any) is unreachable."""

    def __init__(self, entry: ShardEntry, cause: Exception):
        super().__init__(
            f"shard {entry.shard_id} at {entry.address} unreachable: {cause}",
            error_type="unavailable",
        )
        self.entry = entry
        self.cause = cause


class ShardLink(RetryCore):
    """One retrying, breaker-gated asyncio connection to one endpoint.

    The asyncio transport of :class:`RetryCore`: lazily dialled, dropped
    on any transport failure, serialised per connection (the protocol
    is strict request/response).  It forwards the caller's budget and
    raises a shed at once, for the fan-out to decide what it means.
    """

    retry_sheds = False
    forwards_budget = True

    def __init__(
        self,
        host: str,
        port: int,
        *,
        policy: RetryPolicy,
        rng: random.Random,
        breaker: CircuitBreaker | None = None,
    ):
        super().__init__(host, port, policy=policy, breaker=breaker, rng=rng)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._lock = asyncio.Lock()
        self._next_id = 1

    def close(self) -> None:
        """Drop the connection (sync-safe: no await, best-effort close)."""
        writer = self._writer
        self._reader = None
        self._writer = None
        if writer is not None:
            writer.close()

    async def _dial(self, timeout: float) -> None:
        try:
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port), timeout=timeout
            )
        except asyncio.TimeoutError as exc:
            raise ServiceTimeoutError(
                f"timed out connecting to {self.address}"
            ) from exc

    async def _roundtrip(self, op: str, args: dict, call) -> dict:
        request_id = self._next_id
        self._next_id += 1
        frame = request_frame(request_id, op, args, self._stamp(call))
        await write_frame(self._writer, frame)
        return decode_response(await read_frame(self._reader), request_id)

    async def request(
        self,
        op: str,
        args: dict | None = None,
        *,
        idempotent: bool | None = None,
        deadline: float | None = None,
        request_timeout: float | None = None,
    ) -> dict:
        """One logical operation against this endpoint, retried per policy.

        ``request_timeout`` overrides the per-attempt ceiling for ops
        that are legitimately slow on a healthy shard (a ``job`` poll
        against a CPU-saturated miner can take seconds to answer — slow
        is not the same as unreachable).
        """
        call = self._begin(op, args, idempotent, deadline, request_timeout)
        while True:
            remaining = self._next_attempt(call)
            try:
                async with self._lock:
                    if self._reader is None:
                        await self._dial(
                            min(self.policy.connect_timeout, remaining)
                        )
                        self._dialled(call)
                    call.sent = True
                    result = await asyncio.wait_for(
                        self._roundtrip(op, args or {}, call),
                        timeout=min(call.ceiling, remaining),
                    )
            except asyncio.CancelledError:
                # Cancelled mid-roundtrip (fan-out shed, expired caller):
                # a request frame may be on the wire with its response
                # unread, which would desync the strictly-serialised
                # connection — drop it so the next request redials clean.
                self.close()
                raise
            except asyncio.TimeoutError:
                pause = self._failed(
                    call,
                    ServiceTimeoutError(
                        f"timed out waiting for {op!r} from {self.address}"
                    ),
                )
            except (ServiceError, OSError) as exc:
                pause = self._failed(call, exc)
            else:
                self._succeeded()
                return result
            if pause:
                await asyncio.sleep(pause)

    def as_dict(self) -> dict:
        return {
            "address": self.address,
            "breaker": self.breaker.as_dict(),
            "retries": self.retries,
            "reconnects": self.reconnects,
            "deadline_preempts": self.deadline_preempts,
        }


class ShardState:
    """One shard's links and the router's last observations of it."""

    def __init__(
        self, entry: ShardEntry, *, policy: RetryPolicy, rng: random.Random
    ):
        self.entry = entry
        self.policy = policy
        self.rng = rng
        self.primary = ShardLink(entry.host, entry.port, policy=policy, rng=rng)
        self.follower = (
            ShardLink(
                entry.follower_host, entry.follower_port, policy=policy, rng=rng
            )
            if entry.follower_address is not None
            else None
        )
        self.last_epoch = 0
        self.last_n_transactions = entry.count
        self.failovers = 0

    def observe(self, payload: dict) -> None:
        """Fold a shard answer's epoch / count into the router's view.

        ``max`` keeps the view monotonic across a shard restart (which
        resets the shard's session-local epoch to its boot value).
        """
        epoch = payload.get("epoch")
        if isinstance(epoch, int) and not isinstance(epoch, bool):
            self.last_epoch = max(self.last_epoch, epoch)
        count = payload.get("n_transactions")
        if isinstance(count, int) and not isinstance(count, bool):
            self.last_n_transactions = max(self.last_n_transactions, count)

    def adopt_promotion(self, updated: ShardEntry) -> None:
        """Point the primary link at the just-promoted follower."""
        self.entry = updated
        self.primary.close()
        if self.follower is not None:
            self.primary = self.follower
        else:  # pragma: no cover - promote is gated on a follower existing
            self.primary = ShardLink(
                updated.host, updated.port, policy=self.policy, rng=self.rng
            )
        self.follower = None
        self.failovers += 1

    def close(self) -> None:
        self.primary.close()
        if self.follower is not None:
            self.follower.close()


class ShardRouter(OpService):
    """The service object a :class:`PatternServer` serves for a router.

    Routed operations: ``count``, ``append``, ``mine``/``job``/
    ``cancel``, ``patterns``, ``status``, ``metrics``, ``health``,
    ``shardmap``, ``shutdown``.  Storage-coupled per-shard ops
    (``recover``, ``replicate``, ``snapshot``...) are refused with a
    pointer at the shard — the router holds no storage of its own
    beyond the persisted :class:`ShardMap`.
    """

    def __init__(
        self,
        shard_map: ShardMap,
        *,
        map_path=None,
        policy: RetryPolicy | None = None,
        seed: int | None = None,
    ):
        super().__init__("rjob")
        self.map = shard_map
        self.map_path = map_path
        self.policy = policy or ROUTER_POLICY
        self._rng = random.Random(seed)
        self.shards = [
            ShardState(entry, policy=self.policy, rng=self._rng)
            for entry in shard_map.entries
        ]
        self._epoch_high = 0
        #: Per-op time spent fanning out to the shards.
        self.fanout_stats = RequestStats()
        #: Fan-outs abandoned because a required shard shed (typed
        #: ``overloaded``): the router cancelled the other legs and
        #: answered with the shard's ``retry_after``.
        self.fanout_sheds = 0

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    async def discover(
        cls,
        addresses: list[tuple[str, int]],
        *,
        followers: list[tuple[str, int] | None] | None = None,
        map_path=None,
        policy: RetryPolicy | None = None,
        seed: int | None = None,
    ) -> "ShardRouter":
        """Build (or reload) the map by interrogating the live shards.

        A persisted map at ``map_path`` whose address list still matches
        is reused as-is (range starts and entry epochs survive a router
        restart); a changed shard list rebuilds the assignment under a
        bumped generation.  Either way every shard's ``status`` is
        fetched to validate reachability and ``m``/``k`` agreement —
        shards hashing with different families would silently break
        bit-identity, so that is a boot-time error, not a runtime
        surprise.
        """
        from pathlib import Path

        from repro.service.shard.shardmap import build_map

        policy = policy or ROUTER_POLICY
        rng = random.Random(seed)
        statuses = []
        for host, port in addresses:
            link = ShardLink(host, port, policy=policy, rng=rng)
            try:
                statuses.append(await link.request("status"))
            finally:
                link.close()
        mks = {(s["m"], s["k"]) for s in statuses}
        if len(mks) > 1:
            raise ConfigurationError(
                f"shards disagree on the hash family: m/k pairs {sorted(mks)};"
                f" a sharded index must be built with one (m, k)"
            )
        counts = [s["n_transactions"] for s in statuses]
        shard_map = None
        if map_path is not None and Path(map_path).exists():
            persisted = ShardMap.load(map_path)
            if cls._map_matches(persisted, addresses, followers):
                shard_map = persisted
                cls._check_counts(shard_map, counts)
            else:
                shard_map = build_map(
                    addresses,
                    counts,
                    followers=followers,
                    generation=persisted.generation + 1,
                )
        if shard_map is None:
            shard_map = build_map(addresses, counts, followers=followers)
        if map_path is not None:
            shard_map.save(map_path)
        router = cls(
            shard_map, map_path=map_path, policy=policy, seed=seed
        )
        for state, status in zip(router.shards, statuses):
            state.observe(status)
        return router

    @staticmethod
    def _map_matches(persisted, addresses, followers) -> bool:
        if len(persisted.entries) != len(addresses):
            return False
        followers = followers or [None] * len(addresses)
        for entry, (host, port), follower in zip(
            persisted.entries, addresses, followers
        ):
            if (entry.host, entry.port) != (host, port):
                return False
            wanted = f"{follower[0]}:{follower[1]}" if follower else None
            if entry.follower_address != wanted:
                return False
        return True

    @staticmethod
    def _check_counts(shard_map: ShardMap, counts: list[int]) -> None:
        """A sealed shard that shrank or grew broke its range contract."""
        for entry, live in zip(shard_map.entries[:-1], counts[:-1]):
            if live != entry.count:
                raise ConfigurationError(
                    f"sealed shard {entry.shard_id} at {entry.address} has "
                    f"{live} transaction(s) but the map assigns it "
                    f"{entry.count}; only the tail shard may grow — "
                    f"rebuild the map if the topology really changed"
                )

    def close(self) -> None:
        """Drop every shard connection; cancel in-flight routed jobs."""
        for job in self._jobs.values():
            if job.future is not None and job.state in ("pending", "running"):
                job.future.cancel()
        for state in self.shards:
            state.close()

    # -- dispatch ------------------------------------------------------------

    handle = OpService.handle

    def _handler(self, op: str):
        if op in UNROUTED_OPS:
            raise ServiceError(
                f"op {op!r} is not routed: it is a per-shard storage "
                f"operation — address the shard server directly "
                f"(see the `shardmap` op for addresses)",
                error_type=ERR_BAD_REQUEST,
            )
        return super()._handler(op)

    # -- shard transport helpers ---------------------------------------------

    async def _failover(self, state: ShardState, work) -> dict:
        """``work(link)`` on the shard's primary, else on its follower.

        Raises :class:`ShardUnavailableError` when neither gave an
        answer of its own; sheds and definitive errors (``bad_request``,
        ``query``, ``degraded``...) propagate untouched.
        """
        try:
            return await work(state.primary)
        except Exception as exc:
            if classify(exc) not in UNANSWERED:
                raise
            if state.follower is None:
                raise ShardUnavailableError(state.entry, exc) from exc
            try:
                return await work(state.follower)
            except Exception as follower_exc:
                if classify(follower_exc) not in UNANSWERED:
                    raise
                raise ShardUnavailableError(
                    state.entry, follower_exc
                ) from follower_exc

    async def _shard_request(
        self,
        state: ShardState,
        op: str,
        args: dict | None = None,
        *,
        deadline: float | None = None,
        request_timeout: float | None = None,
    ) -> dict:
        """One shard operation, failing over to the follower."""
        started = time.perf_counter()
        try:
            result = await self._failover(
                state,
                lambda link: link.request(
                    op, args, deadline=deadline, request_timeout=request_timeout
                ),
            )
        finally:
            self.fanout_stats.record(op, time.perf_counter() - started)
        state.observe(result)
        return result

    def _missing_ranges(
        self, failures: list[ShardUnavailableError]
    ) -> list[tuple]:
        tail_id = self.map.tail.shard_id
        missing = []
        for failure in failures:
            entry = failure.entry
            end = None if entry.shard_id == tail_id else entry.start + entry.count
            missing.append((entry.start, end, entry.address))
        return missing

    def _raise_partial(self, failures: list[ShardUnavailableError]) -> None:
        tail_id = self.map.tail.shard_id
        labels = ", ".join(
            f.entry.range_label(tail=f.entry.shard_id == tail_id)
            + f" (shard {f.entry.shard_id} at {f.entry.address})"
            for f in failures
        )
        raise PartialResultError(
            f"{len(failures)} shard(s) unreachable; missing transaction "
            f"range(s): {labels}",
            missing=self._missing_ranges(failures),
        )

    async def _fanout(
        self,
        op: str,
        args: dict | None = None,
        *,
        deadline: float | None = None,
        request_timeout: float | None = None,
    ) -> list[dict]:
        """Run ``op`` on every shard concurrently; all-or-typed-error.

        Either every shard (or its follower) answered — the results come
        back in shard order — or the request fails typed: ``partial``
        naming the uncovered ranges, ``overloaded`` (carrying the
        largest shard ``retry_after``) when any required shard shed, or
        the definitive shard error itself.  The merge layers need every
        shard's answer, so the first shed or definitive failure cancels
        the still-pending legs promptly instead of letting them burn
        work the caller can no longer use.
        """
        tasks = [
            asyncio.ensure_future(
                self._shard_request(
                    state,
                    op,
                    args,
                    deadline=deadline,
                    request_timeout=request_timeout,
                )
            )
            for state in self.shards
        ]
        index_of = {task: index for index, task in enumerate(tasks)}
        results: list[dict | None] = [None] * len(tasks)
        failures: list[tuple[int, ShardUnavailableError]] = []
        overload: OverloadedError | None = None
        definitive: tuple[int, BaseException] | None = None
        pending = set(tasks)
        try:
            while pending and overload is None and definitive is None:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    index = index_of[task]
                    exc = task.exception()
                    if exc is None:
                        results[index] = task.result()
                    elif isinstance(exc, OverloadedError):
                        if overload is None or (exc.retry_after or 0.0) > (
                            overload.retry_after or 0.0
                        ):
                            overload = exc
                    elif isinstance(exc, ShardUnavailableError):
                        failures.append((index, exc))
                    elif definitive is None or index < definitive[0]:
                        definitive = (index, exc)
        finally:
            if pending:
                for task in pending:
                    task.cancel()
                await asyncio.gather(*pending, return_exceptions=True)
        if overload is not None:
            self.fanout_sheds += 1
            raise OverloadedError(
                f"fan-out for {op!r} shed: a required shard is overloaded "
                f"({overload}); the remaining legs were cancelled",
                retry_after=overload.retry_after,
            ) from overload
        if definitive is not None:
            raise definitive[1]
        if failures:
            self._raise_partial([exc for _, exc in sorted(failures)])
        return results

    def _router_epoch(self) -> int:
        self._epoch_high = max(
            self._epoch_high, sum(state.last_epoch for state in self.shards)
        )
        return self._epoch_high

    def _persist_map(self) -> None:
        if self.map_path is not None:
            self.map.save(self.map_path)

    # -- count ---------------------------------------------------------------

    async def _op_count(self, args: dict) -> dict:
        key = _itemset_arg(args)
        want_exact = bool(args.get("exact", False))
        payloads = await self._fanout(
            "count", {"items": list(key), "exact": want_exact}
        )
        merged = merge_count_payloads(
            list(key), payloads, want_exact=want_exact
        )
        merged["epoch"] = self._router_epoch()
        return merged

    async def _op_count_batch(self, args: dict) -> dict:
        itemsets = _itemsets_arg(args)
        want_exact = bool(args.get("exact", False))
        payloads = await self._fanout(
            "count_batch",
            {"itemsets": [list(k) for k in itemsets], "exact": want_exact},
        )
        results = []
        for position, key in enumerate(itemsets):
            per_shard = [p["results"][position] for p in payloads]
            results.append(
                merge_count_payloads(list(key), per_shard, want_exact=want_exact)
            )
        epoch = self._router_epoch()
        for entry in results:
            entry["epoch"] = epoch
        return {"results": results, "epoch": epoch}

    # -- append --------------------------------------------------------------

    async def _op_append(self, args: dict) -> dict:
        """Route the append to the tail shard; global position out.

        The idempotency token (when present) is forwarded verbatim, so
        the shard's journal-backed dedupe window gives the same
        exactly-once guarantee across the extra hop: however many times
        the client — or the router's own bounded retry — resends, the
        shard applies it once and answers from the window.

        If the tail primary is unreachable and a follower is configured,
        the router *promotes* the follower (idempotent op), re-points
        the persisted map at it (epoch bump fences the dead primary
        out), and routes the append there.
        """
        tail_state = self.shards[-1]
        try:
            result = await tail_state.primary.request("append", args)
        except Exception as exc:
            if classify(exc) not in UNANSWERED:
                raise
            if tail_state.follower is None:
                self._raise_partial([ShardUnavailableError(tail_state.entry, exc)])
            result = await self._promote_tail(tail_state, args)
        tail_state.observe(result)
        start = tail_state.entry.start
        merged = dict(result)
        merged["position"] = start + result["position"]
        merged["n_transactions"] = start + result["n_transactions"]
        merged["epoch"] = self._router_epoch()
        return merged

    async def _promote_tail(self, state: ShardState, append_args: dict) -> dict:
        """Fail the tail shard over to its follower, then retry the append."""
        follower = state.follower
        try:
            await follower.request("promote")
        except Exception as exc:
            if classify(exc) in UNANSWERED:
                self._raise_partial([ShardUnavailableError(state.entry, exc)])
            raise
        # The promote RPC suspended this task; a concurrent append that
        # hit the same dead primary may have raced through this failover
        # already, in which case the map entry has no follower left and
        # promote_follower would refuse.  Re-check after the await: if
        # another task already adopted the promotion, just ride it.
        if state.follower is not None:
            updated = self.map.promote_follower(state.entry.shard_id)
            state.adopt_promotion(updated)
            self._persist_map()
        return await state.primary.request("append", append_args)

    # -- mining --------------------------------------------------------------

    async def _op_mine(self, args: dict) -> dict:
        job = MineJob(
            id=self._jobs.new_id(),
            params=mine_params(args),
            submitted_epoch=self._router_epoch(),
            submitted_at=time.monotonic(),
        )
        self._jobs.add(job)
        job.future = asyncio.ensure_future(self._run_mine_job(job))
        return {"job_id": job.id, "epoch": job.submitted_epoch}

    async def _run_mine_job(self, job: MineJob) -> None:
        # The submitting request's budget only covered the *submission*;
        # this background task inherited a copy of its context, so shed
        # the stale deadline or every shard poll would be stamped with a
        # budget that expires seconds into a minutes-long mine.
        CURRENT_DEADLINE.set(None)
        job.state = "running"
        started = time.perf_counter()
        try:
            result = await asyncio.wait_for(
                self._mine_two_phase(job.params), timeout=MINE_DEADLINE_S
            )
        except asyncio.CancelledError:
            job.cancel_requested = True
            job.finish(started)
            raise
        except asyncio.TimeoutError:
            job.finish(
                started,
                error=f"routed mine exceeded the {MINE_DEADLINE_S:.0f}s deadline",
            )
        except (ReproError, OSError) as exc:
            job.finish(started, error=f"{type(exc).__name__}: {exc}")
        else:
            job.finish(started, result)
            result["elapsed_seconds"] = job.elapsed_seconds

    async def _mine_two_phase(self, params: dict) -> dict:
        """Partition phase 1 (scatter) + exact verification phase 2.

        See :mod:`repro.service.shard.merge` for why the output equals
        the single-node answer: local thresholds preserve completeness,
        phase-2 exact counting over every shard restores the true
        global supports.
        """
        statuses = await self._fanout("status")
        counts = [status["n_transactions"] for status in statuses]
        total = sum(counts)
        s_abs = resolve_threshold(params["min_support"], total)

        shard_results = await asyncio.gather(
            *(
                self._mine_on_shard(
                    state,
                    local_threshold(s_abs, count, total),
                    params,
                )
                for state, count in zip(self.shards, counts)
            )
        )
        candidates = candidate_itemsets(shard_results)
        totals = await self._verify_candidates(candidates)
        return merged_mine_payload(
            algorithm=params["algorithm"],
            min_support_abs=s_abs,
            n_transactions=total,
            totals=totals,
            elapsed_seconds=0.0,  # stamped by the caller when the job settles
        )

    async def _mine_on_shard(
        self, state: ShardState, threshold: int, params: dict
    ) -> dict:
        """Submit + poll one shard's local mine, failing over whole.

        A shard that dies mid-poll loses its job state, so failover
        restarts the (deterministic) local mine on the follower rather
        than resuming — same parameters, same local answer.
        """
        mine_args = {
            "min_support": threshold,
            "algorithm": params["algorithm"],
            "max_size": params["max_size"],
            "workers": params["workers"],
        }
        try:
            return await self._failover(
                state, lambda link: self._mine_via(link, mine_args)
            )
        except ShardUnavailableError as exc:
            self._raise_partial([exc])

    async def _mine_via(self, link: ShardLink, mine_args: dict) -> dict:
        submitted = await link.request("mine", mine_args, idempotent=True)
        job_id = submitted["job_id"]
        interval = JOB_POLL_INTERVAL_S
        while True:
            # A mining shard is CPU-saturated: a poll can take seconds
            # to answer (and the final poll ships the whole local
            # result), so give it the patient per-attempt ceiling —
            # slow is not unreachable.  The overall mine is still
            # bounded by MINE_DEADLINE_S around the whole job.
            payload = await link.request(
                "job",
                {"job_id": job_id, "top": 0},
                deadline=MINE_POLL_DEADLINE_S,
                request_timeout=MINE_POLL_TIMEOUT_S,
            )
            state = payload["state"]
            if state == "done":
                return payload["result"]
            if state in ("error", "cancelled"):
                raise ServiceError(
                    f"shard mine job {job_id} on {link.address} finished as "
                    f"{state}: {payload.get('error', 'no result')}",
                    error_type=ERR_QUERY,
                )
            await asyncio.sleep(interval)
            interval = min(interval * 2, 0.5)

    async def _verify_candidates(
        self, candidates: list[tuple]
    ) -> dict[tuple, int]:
        """Exact global support for every candidate: batched shard sums."""
        per_shard: list[dict[tuple, int]] = [{} for _ in self.shards]
        for offset in range(0, len(candidates), VERIFY_BATCH):
            chunk = candidates[offset : offset + VERIFY_BATCH]
            # Exact verification probes the shard's database for every
            # candidate; a full batch on a busy shard can legitimately
            # take longer than an interactive count, so use the patient
            # mine-phase ceilings here too.
            payloads = await self._fanout(
                "count_batch",
                {"itemsets": [list(key) for key in chunk], "exact": True},
                deadline=MINE_POLL_DEADLINE_S,
                request_timeout=MINE_POLL_TIMEOUT_S,
            )
            for shard_index, payload in enumerate(payloads):
                for key, entry in zip(chunk, payload["results"]):
                    per_shard[shard_index][key] = entry["exact"]
        return sum_exact_counts(candidates, per_shard)

    async def _op_job(self, args: dict) -> dict:
        return self._jobs.poll(
            args, epoch=self._router_epoch(), serialise=_top_patterns
        )

    def _stop_job(self, job: MineJob) -> None:
        if job.future is not None:
            job.future.cancel()
            job.state = "cancelled"
            job.cancel_requested = True

    # -- tracked patterns ----------------------------------------------------

    async def _op_patterns(self, args: dict) -> dict:
        """Merge the shards' tracked sets at the summed threshold.

        Sound by the same pigeonhole as phase 1: a pattern with global
        support ``≥ Σ t_i`` clears some shard's local cut, so the union
        of tracked sets contains every such pattern; phase-2 exact
        verification then restores true counts and filters.
        """
        top = args.get("top", 0)
        payloads = await self._fanout("patterns", {"top": 0})
        global_threshold = sum(p["min_support"] for p in payloads)
        candidates = candidate_itemsets(payloads)
        totals = await self._verify_candidates(candidates)
        merged = merged_patterns_payload(
            shard_payloads=payloads,
            totals=totals,
            global_threshold=global_threshold,
        )
        merged["epoch"] = self._router_epoch()
        if top:
            merged["patterns"] = merged["patterns"][:top]
        return merged

    # -- observability -------------------------------------------------------

    async def _shard_overview(self) -> tuple[list[dict], int]:
        """Best-effort per-shard status rows; never raises on a dead shard."""
        outcomes = await asyncio.gather(
            *(
                self._shard_request(state, "status")
                for state in self.shards
            ),
            return_exceptions=True,
        )
        rows = []
        unreachable = 0
        tail_id = self.map.tail.shard_id
        for state, outcome in zip(self.shards, outcomes):
            entry = state.entry
            row = {
                "shard_id": entry.shard_id,
                "address": entry.address,
                "follower": entry.follower_address,
                "range": entry.range_label(tail=entry.shard_id == tail_id),
                "map_epoch": entry.epoch,
                "breaker": state.primary.breaker.as_dict(),
                "failovers": state.failovers,
            }
            if state.follower is not None:
                row["follower_breaker"] = state.follower.breaker.as_dict()
            if isinstance(outcome, BaseException):
                unreachable += 1
                row["reachable"] = False
                row["error"] = str(outcome)
                row["n_transactions"] = state.last_n_transactions
                row["epoch"] = state.last_epoch
            else:
                row["reachable"] = True
                row["n_transactions"] = outcome["n_transactions"]
                row["epoch"] = outcome["epoch"]
                row["mode"] = outcome["mode"]
                row["role"] = outcome["role"]
                replication = outcome.get("replication") or {}
                if replication.get("lag") is not None:
                    row["lag"] = replication["lag"]
            rows.append(row)
        return rows, unreachable

    async def _op_status(self, args: dict) -> dict:
        rows, unreachable = await self._shard_overview()
        payload = {
            "router": True,
            "n_transactions": sum(row["n_transactions"] for row in rows),
            "epoch": self._router_epoch(),
            "generation": self.map.generation,
            "n_shards": len(self.shards),
            "unreachable_shards": unreachable,
            "mode": "ok" if unreachable == 0 else "partial",
            "shards": rows,
            "uptime_seconds": time.monotonic() - self.started_monotonic,
            "jobs": self._jobs.states(),
            "fanout_sheds": self.fanout_sheds,
        }
        if self.admission is not None:
            payload["load"] = load_summary(self.admission.as_dict())
        return payload

    async def _op_metrics(self, args: dict) -> dict:
        rows, unreachable = await self._shard_overview()
        payload = {
            "router": True,
            "uptime_seconds": time.monotonic() - self.started_monotonic,
            "requests": dict(self.request_counts),
            "latency": self.stats.latency(),
            "fanout_latency": self.fanout_stats.latency(),
            "generation": self.map.generation,
            "unreachable_shards": unreachable,
            "mode": "ok" if unreachable == 0 else "partial",
            "shards": rows,
            "fanout_sheds": self.fanout_sheds,
            "links": [state.primary.as_dict() for state in self.shards],
        }
        if self.admission is not None:
            payload["overload"] = self.admission.as_dict()
        return payload

    async def _op_health(self, args: dict) -> dict:
        rows, unreachable = await self._shard_overview()
        degraded = any(row.get("mode") == "degraded" for row in rows)
        if unreachable:
            mode = "partial"
        elif degraded:
            mode = "degraded"
        else:
            mode = "ok"
        return {
            "ok": mode == "ok",
            "mode": mode,
            "epoch": self._router_epoch(),
        }

    async def _op_shardmap(self, args: dict) -> dict:
        return self.map.as_dict()

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
        "shardmap": _op_shardmap,
        "shutdown": OpService._op_shutdown,
    }


def _top_patterns(result: dict, top: int) -> dict:
    """A finished routed mine's payload, cut to its ``top`` patterns."""
    result = dict(result)
    if top:
        result["patterns"] = result["patterns"][:top]
    return result


__all__ = [
    "JOB_POLL_INTERVAL_S",
    "MINE_DEADLINE_S",
    "ROUTER_POLICY",
    "ShardLink",
    "ShardRouter",
    "ShardState",
    "ShardUnavailableError",
    "VERIFY_BATCH",
]
