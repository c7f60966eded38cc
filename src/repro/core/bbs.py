"""The Bit-Sliced Bloom-Filtered Signature File (BBS).

This is the paper's primary data structure (Section 2): every
transaction is mapped by ``k`` bloom-filter hash functions onto an
``m``-bit signature, and the signature file is stored *transposed* as
``m`` bit-slices so that :meth:`BBS.count_itemset` (the paper's
``CountItemSet``, Figure 1) reduces to ANDing a handful of slices and
popcounting the result.

Properties guaranteed by construction (Lemmas 1-4) and enforced by the
test suite:

* an estimate is never below the true support (no false misses);
* a transaction whose signature lacks any bit of the query signature is
  never counted (subset pruning);
* inserts are append-only — the structure is *dynamic and persistent*,
  never rebuilt.

Internally the slices live in a ``(m, capacity_words)`` ``uint64``
matrix: bit ``t`` of slice ``s`` is ``_slices[s, t // 64] >> (t % 64)``.
Capacity grows geometrically along the transaction axis.  The hot path
used by the filter recursion is :meth:`and_positions_into`, which ANDs
one item's slices into a caller-provided accumulator without allocating
(see DESIGN.md, "Incremental AND accumulator").
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.core import bitvec
from repro.core.counts import ItemCountTable
from repro.core.hashing import HashFamily, MD5HashFamily
from repro.errors import ConfigurationError, QueryError
from repro.storage.metrics import IOStats

DEFAULT_K = 4
_INITIAL_CAPACITY_WORDS = 16  # 1024 transactions before the first growth

#: Bytes of gathered slice rows one :meth:`BBS.count_itemsets` chunk may
#: hold (a chunk always takes at least one itemset).
COUNT_SCRATCH_BYTES = 256 * 1024


class BBS:
    """Bit-Sliced Bloom-Filtered Signature File.

    Parameters
    ----------
    m:
        Signature width in bits (the number of bit-slices).  The paper
        explores 400-6400 and settles on 1600 for its default workload.
    k:
        Number of hash functions per item (ignored when ``hash_family``
        is given).  The paper's MD5 construction uses 4.
    hash_family:
        Custom :class:`~repro.core.hashing.HashFamily`; defaults to the
        paper's :class:`~repro.core.hashing.MD5HashFamily`.
    stats:
        Optional shared :class:`~repro.storage.metrics.IOStats`.
    """

    def __init__(
        self,
        m: int,
        k: int = DEFAULT_K,
        *,
        hash_family: HashFamily | None = None,
        stats: IOStats | None = None,
    ):
        if hash_family is None:
            hash_family = MD5HashFamily(m, k)
        if hash_family.m != m:
            raise ConfigurationError(
                f"hash family width {hash_family.m} does not match m={m}"
            )
        self.hash_family = hash_family
        self.m = m
        self.k = hash_family.k
        self.stats = stats if stats is not None else IOStats()
        self._slices = np.zeros((m, _INITIAL_CAPACITY_WORDS), dtype=np.uint64)
        self._n_tx = 0
        self._item_counts = ItemCountTable()
        self._signature_bits_total = 0
        self._epoch = 0

    # -- construction --------------------------------------------------------

    @classmethod
    def from_database(
        cls,
        database,
        m: int,
        k: int = DEFAULT_K,
        *,
        hash_family: HashFamily | None = None,
        stats: IOStats | None = None,
    ) -> "BBS":
        """Build a BBS over every transaction of ``database`` (one scan)."""
        bbs = cls(m, k, hash_family=hash_family, stats=stats)
        for _, itemset in database.scan():
            bbs.insert(itemset)
        return bbs

    def insert(self, items: Iterable) -> int:
        """Append one transaction's signature; returns its position.

        This is the whole update story for a dynamic database: no
        rebuild, no reordering — one scattered write per slice touched.
        """
        itemset = set(items)
        if not itemset:
            raise QueryError("cannot insert an empty transaction")
        positions = self.hash_family.itemset_positions(itemset)
        self._ensure_capacity(self._n_tx + 1)
        word = self._n_tx // bitvec.WORD_BITS
        mask = np.uint64(1 << (self._n_tx % bitvec.WORD_BITS))
        self._slices[positions, word] |= mask
        self._n_tx += 1
        self._item_counts.record(itemset)
        self._signature_bits_total += int(positions.size)
        self._epoch += 1
        return self._n_tx - 1

    def _ensure_capacity(self, n_tx: int) -> None:
        needed = bitvec.words_for_bits(n_tx)
        have = self._slices.shape[1]
        if needed <= have:
            return
        new_words = max(needed, have * 2)
        grown = np.zeros((self.m, new_words), dtype=np.uint64)
        grown[:, :have] = self._slices
        self._slices = grown

    # -- introspection --------------------------------------------------------

    @property
    def n_transactions(self) -> int:
        """Number of transactions the index covers."""
        return self._n_tx

    @property
    def epoch(self) -> int:
        """Monotonic version counter, bumped once per :meth:`insert`.

        Two reads of the index are guaranteed to see identical contents
        when their epochs match, so any derived value (a cached count, a
        mined pattern set) can be tagged with the epoch it was computed
        at and invalidated by comparison instead of by sweeping.  The
        epoch is *session-local*: it starts at 0 whenever an index
        becomes resident (constructed, loaded, folded, or concatenated)
        and is never persisted.
        """
        return self._epoch

    def __len__(self) -> int:
        return self._n_tx

    @property
    def n_words(self) -> int:
        """Words per slice covering the current transactions."""
        return bitvec.words_for_bits(self._n_tx)

    @property
    def size_bytes(self) -> int:
        """Logical on-disk size: m slices of ceil(n/8) bytes."""
        return self.m * ((self._n_tx + 7) // 8)

    @property
    def mean_signature_density(self) -> float:
        """Average fraction of signature bits set per transaction.

        Feeds the false-positive model of :mod:`repro.core.approximate`.
        """
        if self._n_tx == 0:
            return 0.0
        return self._signature_bits_total / (self._n_tx * self.m)

    @property
    def item_counts(self) -> ItemCountTable:
        """Exact 1-itemset counts (the DualFilter side table)."""
        return self._item_counts

    def items(self) -> list:
        """Every distinct item ever inserted, sorted."""
        return self._item_counts.items()

    def slice_words(self, position: int) -> np.ndarray:
        """Read-only view of one bit-slice, trimmed to live words."""
        if not 0 <= position < self.m:
            raise QueryError(f"slice {position} outside [0, {self.m})")
        view = self._slices[position, : self.n_words]
        view.setflags(write=False)
        return view

    # -- CountItemSet and friends ----------------------------------------------

    def signature_positions(self, items: Iterable) -> np.ndarray:
        """Set bit positions of the itemset's query signature."""
        positions = self.hash_family.itemset_positions(set(items))
        if positions.size == 0:
            raise QueryError("cannot form a signature for the empty itemset")
        return positions

    def resultant_vector(self, items: Iterable) -> np.ndarray:
        """The resultant bit vector of ``CountItemSet`` (Figure 1, step 2).

        Bit ``t`` set means transaction ``t`` *may* contain the itemset;
        Lemma 3 guarantees every true occurrence is set.
        """
        positions = self.signature_positions(items)
        self.stats.slice_reads += int(positions.size)
        n = self.n_words
        if n == 0:
            return np.empty(0, dtype=np.uint64)
        out = self._slices[positions[0], :n].copy()
        for pos in positions[1:]:
            out &= self._slices[pos, :n]
        return out

    def count_itemset(self, items: Iterable) -> int:
        """Algorithm ``CountItemSet``: estimated support of ``items``.

        Never an under-estimate (Lemma 4).
        """
        return bitvec.popcount(self.resultant_vector(items))

    def count_itemsets(self, itemsets: Iterable[Iterable]) -> list[int]:
        """``CountItemSet`` for many itemsets in one vectorised pass.

        Equal to ``[self.count_itemset(x) for x in itemsets]``, with the
        same ``slice_reads`` charge.  Each itemset's signature positions
        become one row of a position table, padded to the widest row by
        repeating the row's first position (AND is idempotent).  Rows
        are gathered from the slice matrix in chunks of at most
        :data:`COUNT_SCRATCH_BYTES`, AND-reduced along the position axis
        and counted with one :func:`~repro.core.bitvec.row_popcount`.
        A single itemset takes :meth:`count_itemset`'s AND chain, which
        costs less than a gather for one row.
        """
        itemsets = list(itemsets)
        if len(itemsets) == 1:
            return [self.count_itemset(itemsets[0])]
        rows = [self.signature_positions(items) for items in itemsets]
        widths = np.array([row.size for row in rows], dtype=np.int64)
        self.stats.slice_reads += int(widths.sum())
        n = self.n_words
        if n == 0 or not rows:
            return [0] * len(rows)
        width = int(widths.max())
        table = np.repeat(
            np.array([row[0] for row in rows], dtype=np.int64)[:, None], width, axis=1
        )
        table[np.arange(width) < widths[:, None]] = np.concatenate(rows)
        step = max(1, COUNT_SCRATCH_BYTES // (width * n * 8))
        slices = self._slices[:, :n]
        counts: list[int] = []
        for start in range(0, len(rows), step):
            gathered = slices[table[start:start + step]]  # (rows, width, n)
            counts += bitvec.row_popcount(
                np.bitwise_and.reduce(gathered, axis=1)
            ).tolist()
        return counts

    def count_and_vector(self, items: Iterable) -> tuple[int, np.ndarray]:
        """Estimated support together with the resultant vector."""
        vector = self.resultant_vector(items)
        return bitvec.popcount(vector), vector

    def candidate_positions(self, items: Iterable) -> np.ndarray:
        """Transaction positions whose signatures match ``items``.

        This is the set the Probe refinement fetches from the database.
        """
        return bitvec.indices_of_set_bits(self.resultant_vector(items), self._n_tx)

    # -- filter hot path ---------------------------------------------------------

    def fresh_accumulator(self) -> np.ndarray:
        """All-ones accumulator for the empty itemset (tail bits clear)."""
        return bitvec.ones(self._n_tx)

    def and_positions_into(
        self, base: np.ndarray, positions: np.ndarray, out: np.ndarray
    ) -> None:
        """``out = base AND slices[positions]`` without heap churn.

        ``base`` and ``out`` may alias.  ``positions`` must be non-empty
        (every item sets at least one signature bit).
        """
        n = out.shape[0]
        self.stats.slice_reads += int(positions.size)
        np.bitwise_and(base, self._slices[positions[0], :n], out=out)
        for pos in positions[1:]:
            np.bitwise_and(out, self._slices[pos, :n], out=out)

    # -- constrained counting (Section 3.4 / 4.9) ----------------------------------

    def count_with_constraint(
        self, items: Iterable, constraint_words: np.ndarray
    ) -> int:
        """``CountItemSet`` ANDed with a constraint bit-slice.

        The constraint slice marks the transactions satisfying an
        arbitrary selection predicate; see
        :mod:`repro.core.constraints` for builders.
        """
        vector = self.resultant_vector(items)
        if constraint_words.shape[0] != vector.shape[0]:
            raise QueryError(
                f"constraint slice has {constraint_words.shape[0]} words, "
                f"index has {vector.shape[0]}"
            )
        return bitvec.popcount(vector & constraint_words)

    # -- folding (adaptive filtering, Section 3.1) -----------------------------------

    def fold(self, k_slices: int) -> "BBS":
        """OR-fold the ``m`` slices down to ``k_slices`` (the MemBBS).

        Slice ``j`` of the folded index is the OR of slices
        ``j, j + k_slices, j + 2*k_slices, ...`` — equivalently, a BBS
        whose hash functions are the originals composed with
        ``mod k_slices``.  The fold preserves the over-estimation
        property (extra OR-ed bits can only *raise* estimates), so all
        filter lemmas continue to hold on the folded index.
        """
        if not 1 <= k_slices <= self.m:
            raise ConfigurationError(
                f"fold width must be in [1, {self.m}], got {k_slices}"
            )
        folded = BBS.__new__(BBS)
        folded.hash_family = _FoldedHashFamily(self.hash_family, k_slices)
        folded.m = k_slices
        folded.k = self.k
        folded.stats = IOStats()
        folded._n_tx = self._n_tx
        folded._epoch = self._epoch  # same contents, same version
        folded._item_counts = self._item_counts  # exact counts are m-independent
        words = max(self._slices.shape[1], _INITIAL_CAPACITY_WORDS)
        matrix = np.zeros((k_slices, words), dtype=np.uint64)
        for row in range(self.m):
            matrix[row % k_slices, : self._slices.shape[1]] |= self._slices[row]
        folded._slices = matrix
        # Column t of the matrix *is* transaction t's folded signature, so
        # the exact post-fold bit total is one popcount — positions that
        # collide under ``mod k_slices`` merge instead of double-counting,
        # keeping mean_signature_density (and the saturation warning)
        # honest on folded indexes.
        folded._signature_bits_total = bitvec.popcount(matrix)
        return folded

    # -- partitioned building ------------------------------------------------------

    def concat(self, other: "BBS") -> "BBS":
        """A new index covering this index's transactions then ``other``'s.

        Both operands must share the hash family configuration.  Because
        a BBS is position-aligned with its database, concatenation is
        exactly what a partitioned build needs: index each partition
        independently (in parallel, on different machines, ...) and
        concatenate in partition order.
        """
        if self.hash_family.describe() != other.hash_family.describe():
            raise ConfigurationError(
                "cannot concatenate indexes with different hash families: "
                f"{self.hash_family.describe()} vs {other.hash_family.describe()}"
            )
        from repro.storage.diskbbs import _or_shifted

        total = self._n_tx + other._n_tx
        words = max(bitvec.words_for_bits(total), _INITIAL_CAPACITY_WORDS)
        matrix = np.zeros((self.m, words), dtype=np.uint64)
        if self._n_tx:
            matrix[:, : self.n_words] = self._slices[:, : self.n_words]
        if other._n_tx:
            _or_shifted(
                matrix, other._slices[:, : other.n_words],
                self._n_tx, other._n_tx,
            )
        counts = self._item_counts.as_dict()
        merged_counts = ItemCountTable(counts)
        merged_counts.merge(other._item_counts)
        combined = BBS._from_raw_state(
            self.hash_family,
            matrix,
            total,
            merged_counts.as_dict(),
            self._signature_bits_total + other._signature_bits_total,
        )
        return combined

    # -- persistence hand-off ------------------------------------------------------

    def save(self, path) -> None:
        """Persist to a slice file (see :mod:`repro.storage.slicefile`)."""
        from repro.storage.slicefile import save_bbs

        save_bbs(self, path)

    @classmethod
    def load(cls, path, *, stats: IOStats | None = None) -> "BBS":
        """Reload a slice file written by :meth:`save`."""
        from repro.storage.slicefile import load_bbs

        return load_bbs(path, stats=stats)

    # internal hooks used by the persistence layer ---------------------------------

    def _raw_state(self) -> tuple[np.ndarray, int, dict, int]:
        return (
            self._slices[:, : self.n_words],
            self._n_tx,
            self._item_counts.as_dict(),
            self._signature_bits_total,
        )

    @classmethod
    def _from_raw_state(
        cls,
        hash_family: HashFamily,
        slices: np.ndarray,
        n_tx: int,
        counts: dict,
        signature_bits_total: int = 0,
        stats: IOStats | None = None,
    ) -> "BBS":
        bbs = cls.__new__(cls)
        bbs.hash_family = hash_family
        bbs.m = hash_family.m
        bbs.k = hash_family.k
        bbs.stats = stats if stats is not None else IOStats()
        words = max(slices.shape[1], _INITIAL_CAPACITY_WORDS)
        matrix = np.zeros((hash_family.m, words), dtype=np.uint64)
        matrix[:, : slices.shape[1]] = slices
        bbs._slices = matrix
        bbs._n_tx = n_tx
        bbs._item_counts = ItemCountTable(counts)
        bbs._signature_bits_total = signature_bits_total
        bbs._epoch = 0  # session-local: a freshly resident index
        return bbs


class _FoldedHashFamily(HashFamily):
    """The base family's positions reduced ``mod k`` (MemBBS view)."""

    fixed_arity = False  # dedup/fold make the per-item weight variable

    def __init__(self, base: HashFamily, k_slices: int):
        super().__init__(k_slices, base.k)
        self._base = base

    def _canonical(self, item) -> str:  # noqa: D401 - delegate to the base family
        return self._base._canonical(item)

    def _raw_positions(self, key: str) -> list[int]:
        # Reuse the base family's (cached) positions rather than re-hashing.
        base_positions = self._base._cache.get(key)
        if base_positions is None:
            base_positions = self._base._raw_positions(key)
        # Distinct base positions frequently collide once reduced
        # ``mod k_slices``; deduplicate here so every consumer of the
        # raw list (arity checks, weight accounting) sees the true
        # per-item signature weight.
        return sorted({int(p) % self.m for p in base_positions})

    def describe(self) -> dict:
        """Persistence descriptor including the wrapped base family."""
        return {
            "kind": "_FoldedHashFamily",
            "m": self.m,
            "k": self.k,
            "base": self._base.describe(),
        }
