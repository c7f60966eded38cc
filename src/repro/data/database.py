"""The transaction database abstraction.

The paper's database ``D`` is a sequence of variable-length transactions
over an item universe, stored in a file; the Probe refinement relies on
*"an index ... [whose] key is the relative position of the transaction
from the beginning of the file"*.  :class:`TransactionDatabase` models
exactly that: an append-only sequence of itemsets addressed by position,
with simulated page-level I/O accounting so that sequential scans and
positional probes have faithful relative costs even when the data lives
in memory (see :mod:`repro.storage.metrics`).

Transactions are stored as sorted tuples (deterministic iteration) and
membership tests use frozensets built lazily per access pattern.  Items
may be any hashable value; the synthetic generators use ``int`` items.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator

from repro.errors import ConfigurationError, QueryError
from repro.storage.buffer import PageCache
from repro.storage.metrics import DEFAULT_PAGE_BYTES, IOStats

#: Simulated on-disk size of one item within a transaction record.
ITEM_BYTES = 4
#: Simulated per-record overhead (length header + TID).
RECORD_OVERHEAD_BYTES = 8

#: Default number of buffer-pool pages used to account positional probes.
DEFAULT_PROBE_CACHE_PAGES = 64


class TransactionDatabase:
    """Append-only database of transactions with positional access.

    Parameters
    ----------
    transactions:
        Optional initial transactions (any iterable of item iterables).
    page_bytes:
        Simulated page size used for I/O accounting.
    probe_cache_pages:
        Capacity of the buffer pool used when fetching by position.
    stats:
        Optional shared :class:`IOStats`; a fresh one is created if absent.
    """

    def __init__(
        self,
        transactions: Iterable[Iterable] | None = None,
        *,
        page_bytes: int = DEFAULT_PAGE_BYTES,
        probe_cache_pages: int = DEFAULT_PROBE_CACHE_PAGES,
        stats: IOStats | None = None,
    ):
        if page_bytes < RECORD_OVERHEAD_BYTES + ITEM_BYTES:
            raise ConfigurationError(
                f"page size {page_bytes} too small to hold a single record"
            )
        self.page_bytes = page_bytes
        self.stats = stats if stats is not None else IOStats()
        self._cache = PageCache(probe_cache_pages, self.stats)
        self._transactions: list[tuple] = []
        self._tids: list[int] = []
        self._offsets: list[int] = []
        self._next_byte = 0
        self._item_counts: Counter = Counter()
        if transactions is not None:
            for tx in transactions:
                self.append(tx)

    # -- construction -----------------------------------------------------

    def append(self, items: Iterable, tid: int | None = None) -> int:
        """Add a transaction; returns its position (0-based).

        ``tid`` is an optional application-level transaction identifier
        (the paper's examples use TIDs like 100, 200, ...); it defaults
        to the position.  Duplicate items within a transaction are
        collapsed, matching set semantics.
        """
        itemset = tuple(sorted(set(items), key=_sort_key))
        if not itemset:
            raise ConfigurationError("cannot append an empty transaction")
        position = len(self._transactions)
        self._transactions.append(itemset)
        self._tids.append(position if tid is None else tid)
        self._offsets.append(self._next_byte)
        self._next_byte += RECORD_OVERHEAD_BYTES + ITEM_BYTES * len(itemset)
        self._item_counts.update(itemset)
        return position

    def extend(self, transactions: Iterable[Iterable]) -> None:
        """Append many transactions."""
        for tx in transactions:
            self.append(tx)

    def copy(self) -> "TransactionDatabase":
        """An independent copy that shares the immutable transaction tuples.

        Appends to either database leave the other unchanged.  The copy
        keeps the tids and starts with its own :class:`IOStats` and an
        empty buffer pool, as a database rebuilt from the same
        transactions would.
        """
        clone = TransactionDatabase(
            page_bytes=self.page_bytes,
            probe_cache_pages=self._cache.capacity_pages,
        )
        clone._transactions = list(self._transactions)
        clone._tids = list(self._tids)
        clone._offsets = list(self._offsets)
        clone._next_byte = self._next_byte
        clone._item_counts = Counter(self._item_counts)
        return clone

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._transactions)

    def __iter__(self) -> Iterator[tuple]:
        """Iterate transactions *without* I/O accounting (test/oracle use)."""
        return iter(self._transactions)

    @property
    def size_bytes(self) -> int:
        """Simulated on-disk size of the database."""
        return self._next_byte

    @property
    def n_pages(self) -> int:
        """Simulated number of data pages."""
        if self._next_byte == 0:
            return 0
        return (self._next_byte + self.page_bytes - 1) // self.page_bytes

    def tid(self, position: int) -> int:
        """Application-level TID of the transaction at ``position``."""
        return self._tids[position]

    def tids(self) -> list[int]:
        """All TIDs in position order (a copy)."""
        return list(self._tids)

    def records(self, start: int, stop: int) -> list[tuple[int, int, tuple]]:
        """``(position, tid, itemset)`` for positions ``[start, stop)``.

        Unaccounted, like :meth:`tid`: replication serves applied records
        from here, and that charges no simulated I/O.
        """
        return list(zip(
            range(start, stop), self._tids[start:stop],
            self._transactions[start:stop],
        ))

    def items(self) -> list:
        """Distinct items present in the database, sorted."""
        return sorted(self._item_counts, key=_sort_key)

    def item_counts(self) -> dict:
        """Exact support of every item (a copy)."""
        return dict(self._item_counts)

    # -- accounted access --------------------------------------------------

    def scan(self) -> Iterator[tuple[int, tuple]]:
        """Sequential scan: yields ``(position, itemset)`` and charges I/O.

        One ``db_scans`` tick plus one ``page_read`` per data page, the
        cost structure of the paper's SequentialScan refinement and of
        every Apriori pass.
        """
        self.stats.db_scans += 1
        self.stats.page_reads += self.n_pages
        self.stats.tuples_read += len(self._transactions)
        for position, itemset in enumerate(self._transactions):
            yield position, itemset

    def fetch(self, position: int) -> tuple:
        """Positional fetch through the buffer pool (the Probe access path)."""
        if not 0 <= position < len(self._transactions):
            raise QueryError(
                f"transaction position {position} out of range "
                f"[0, {len(self._transactions)})"
            )
        page_id = self._offsets[position] // self.page_bytes
        self._cache.get(page_id)
        self.stats.probe_fetches += 1
        self.stats.tuples_read += 1
        return self._transactions[position]

    def fetch_many(self, positions: Iterable[int]) -> list[tuple]:
        """Fetch several positions (each individually accounted)."""
        return [self.fetch(p) for p in positions]

    # -- oracle helpers (unaccounted; used by tests and rule generation) ----

    def support(self, itemset: Iterable) -> int:
        """Exact number of transactions containing ``itemset`` (no I/O)."""
        wanted = set(itemset)
        if not wanted:
            raise QueryError("support of the empty itemset is undefined here")
        return sum(1 for tx in self._transactions if wanted.issubset(tx))

    def reset_io(self) -> None:
        """Zero the I/O counters and drop the buffer pool contents."""
        self.stats.reset()
        self._cache.clear()


def _sort_key(item):
    """Stable ordering across mixed item types (ints before strings)."""
    return (type(item).__name__, item)
