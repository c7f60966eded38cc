"""Result caching and batched counting for the serving layer.

Three mechanisms keep a hot ``count`` workload off the index:

* :class:`CountCache` — an LRU keyed by ``(canonical itemset, epoch,
  exact)``.  Because the index's :attr:`~repro.core.bbs.BBS.epoch` is
  bumped on every insert, an append invalidates *every* cached entry by
  construction: stale entries simply stop being addressable and age out
  of the LRU.  No sweep, no per-entry dirty bit, no lock ordering
  against the writer.

* :class:`MineResultCache` — a small LRU of *completed* mining results
  keyed by the submission parameters, with the epoch each result was
  computed at.  This is the brownout relief valve: a browned-out
  server answers a repeated ``mine`` from here (marked
  ``degraded_load``, with honest staleness) instead of queueing
  another full mine it cannot afford.

* :class:`MicroBatcher` — counts one request's cache misses on the
  request's own task: duplicate itemsets collapse to one computation,
  and the distinct ones are counted in one vectorised pass
  (:meth:`~repro.core.bbs.BBS.count_itemsets`: one gather of their
  slice rows, an AND-reduce and a row popcount, with scratch memory
  bounded at 256 KiB; a single itemset takes the plain AND and
  popcount).  A :class:`~repro.storage.diskbbs.DiskBBS` still counts
  per itemset through its page cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.errors import ConfigurationError, QueryError

DEFAULT_CACHE_ENTRIES = 4096


def _sort_key(item):
    """Stable ordering across mixed item types (ints before strings)."""
    return (type(item).__name__, item)


def canonical_itemset(items) -> tuple:
    """The canonical cache/wire form of an itemset: a sorted tuple.

    Deduplicates, rejects the empty itemset, and orders items with the
    same mixed-type key the database layer uses, so the same itemset
    always maps to the same cache key and the same JSON list.
    """
    canonical = tuple(sorted(set(items), key=_sort_key))
    if not canonical:
        raise QueryError("the empty itemset has no support")
    return canonical


class CountCache:
    """LRU cache of support counts keyed by ``(itemset, epoch, exact)``.

    ``get``/``put`` are O(1); eviction is least-recently-used.  The
    epoch in the key is the whole invalidation story: callers tag every
    entry with the index epoch it was computed at, and a lookup under a
    newer epoch is a miss by definition.
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES):
        if max_entries < 1:
            raise ConfigurationError(
                f"cache needs max_entries >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, int] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, itemset: tuple, epoch: int, *, exact: bool = False) -> int | None:
        """The cached count, or ``None``; refreshes LRU order on hit."""
        key = (itemset, epoch, exact)
        count = self._entries.get(key)
        if count is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return count

    def put(self, itemset: tuple, epoch: int, count: int, *, exact: bool = False) -> None:
        """Insert (or refresh) one entry, evicting the LRU tail if full."""
        key = (itemset, epoch, exact)
        self._entries[key] = count
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (used when the index is swapped or repaired).

        Epoch keying already makes stale entries unaddressable under a
        newer epoch, but entries computed from bytes later found to be
        corrupt must not be reachable even at their original epoch.
        """
        self._entries.clear()

    def as_dict(self) -> dict:
        """Counter snapshot for the ``metrics`` endpoint."""
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class MineResultCache:
    """LRU of completed mining results keyed by submission parameters.

    Written from mine-job worker threads (a job stores its result the
    moment it finishes) and read from the serving loop (the brownout
    path), so the tiny critical sections take a lock — unlike the rest
    of this module, which is loop-confined.

    Entries deliberately do *not* carry the epoch in the key: a
    browned-out server would rather serve a slightly stale mine marked
    ``degraded_load`` than none at all.  The stored epoch rides along
    so the answer's ``stale`` flag stays honest.
    """

    def __init__(self, max_entries: int = 16):
        if max_entries < 1:
            raise ConfigurationError(
                f"mine cache needs max_entries >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple):
        """``(result, epoch)`` for ``key``, or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: tuple, result, epoch: int) -> None:
        with self._lock:
            self._entries[key] = (result, epoch)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
            }


class MicroBatcher:
    """Count one request's cache misses in one pass, and keep counters.

    :meth:`count` runs on the request's own task and hands the distinct
    itemsets to the index's ``count_itemsets`` in one call; nothing
    waits for a later loop tick.  Counts are not shared across
    requests: in traced ``query`` and ``sharded`` benchmark runs, at
    most 3 in 67,061 cache misses met another request's in one tick.
    """

    def __init__(self, index):
        self.index = index
        # -- metrics (docs/wire_protocol.md, "batch") ------------------
        self.batches = 0         # count_itemsets calls, one per request with a miss
        self.requests = 0        # cache-missing itemsets, duplicates included
        self.coalesced = 0       # duplicates answered by the same request's count
        self.slice_ands = 0      # slice reads the index charged for the batches
        self.slice_ands_saved = 0  # signature positions the duplicates skipped

    def count(self, misses: dict[tuple, list]) -> list[int]:
        """Estimated support of each key of ``misses``, in one pass.

        ``misses`` maps each distinct itemset to the request's entries
        that asked for it; all but the first of them are coalesced.
        """
        self.batches += 1
        family = self.index.hash_family
        for itemset, entries in misses.items():
            self.requests += len(entries)
            if len(entries) > 1:
                width = family.itemset_positions(set(itemset)).size
                self.coalesced += len(entries) - 1
                self.slice_ands_saved += (len(entries) - 1) * width
        return self._count_batch(list(misses))

    def _count_batch(self, itemsets: list[tuple]) -> list[int]:
        stats = self.index.stats
        reads = stats.slice_reads
        counts = self.index.count_itemsets(itemsets)
        self.slice_ands += stats.slice_reads - reads
        return counts

    def as_dict(self) -> dict:
        """Counter snapshot for the ``metrics`` endpoint."""
        return {
            "batches": self.batches,
            "requests": self.requests,
            "coalesced": self.coalesced,
            "slice_ands": self.slice_ands,
            "slice_ands_saved": self.slice_ands_saved,
        }
