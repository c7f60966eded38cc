"""Incremental maintenance of a mined result under inserts.

The paper's index absorbs appends without a rebuild (§3.4), but its
miners still recompute the pattern set from scratch on demand.  This
module closes that gap with the classic *negative-border* technique
(Thomas et al., KDD'97 adapted to the BBS substrate): keep exact counts
for

* ``F`` — the current frequent patterns, and
* the **negative border** — the minimal infrequent patterns all of whose
  proper subsets are frequent,

update both with a subset test per inserted transaction, and when a
border pattern crosses the threshold, *promote* it and explore only the
lattice it unlocks — counting each new candidate with one BBS-guided
probe instead of a database scan.  Between promotions an insert costs a
few dictionary bumps; no scan, no re-mining.

Restricted to an **absolute** threshold: with inserts only, counts are
monotone, so patterns never leave ``F`` (a fractional τ grows with |D|
and would require demotions and border re-contraction).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.bbs import BBS
from repro.core.mining import mine_dfp
from repro.core.refine import probe, resolve_exact_counts
from repro.core.results import MiningResult, PatternCount, RefineStats
from repro.errors import ConfigurationError, DatabaseMismatchError


class IncrementalMiner:
    """Keep a frequent-pattern set current while transactions stream in.

    Usage::

        miner = IncrementalMiner(db, bbs, min_support=30)
        for tx in stream:
            miner.insert(tx)
        miner.result()   # always-exact MiningResult, no re-mining

    ``database`` and ``bbs`` are taken over by the miner: inserts go
    through :meth:`insert` so the index, the counts, and the border stay
    aligned.
    """

    def __init__(
        self,
        database,
        bbs: BBS,
        min_support: int,
        *,
        max_size: int | None = None,
    ):
        if not isinstance(min_support, int) or isinstance(min_support, bool):
            raise ConfigurationError(
                "IncrementalMiner needs an absolute integer min_support: "
                "a fractional threshold rises with |D| and would demote "
                "patterns, which insert-only maintenance cannot express"
            )
        if min_support < 1:
            raise ConfigurationError("min_support must be >= 1")
        if bbs.n_transactions != len(database):
            raise DatabaseMismatchError(
                f"index covers {bbs.n_transactions} transactions, "
                f"database has {len(database)}"
            )
        self.database = database
        self.bbs = bbs
        self.threshold = min_support
        self.max_size = max_size
        self.refine_stats = RefineStats()
        self.promotions = 0

        # Initial state: exact counts for F, then the negative border.
        base = mine_dfp(database, bbs, min_support, max_size=max_size)
        resolve_exact_counts(base, database, bbs, stats=self.refine_stats)
        self._frequent: dict[frozenset, int] = {
            itemset: pattern.count for itemset, pattern in base.patterns.items()
        }
        self._border: dict[frozenset, int] = {}
        self._buckets: dict = {}  # anchor item -> [patterns containing it]
        for itemset in self._frequent:
            self._bucket(itemset)
        self._build_border()

    # -- public surface ---------------------------------------------------

    def insert(self, items: Iterable, tid: int | None = None) -> None:
        """Append one transaction and bring the pattern set up to date."""
        itemset = frozenset(items)
        self.database.append(itemset, tid=tid)
        self.bbs.insert(itemset)
        # Bump every tracked pattern contained in the transaction.  Each
        # pattern lives in exactly one anchor bucket, so the scan over
        # the transaction's items visits it at most once.
        crossed: list[frozenset] = []
        for item in itemset:
            for pattern in self._buckets.get(item, ()):
                if pattern <= itemset:
                    if pattern in self._frequent:
                        self._frequent[pattern] += 1
                    else:
                        self._border[pattern] += 1
                        if self._border[pattern] >= self.threshold:
                            crossed.append(pattern)
        # New frequent 1-items surface through the exact item table.
        for item in itemset:
            single = frozenset([item])
            if (
                single not in self._frequent
                and single not in self._border
                and self.bbs.item_counts.count(item) >= self.threshold
            ):
                crossed.append(single)
        for pattern in crossed:
            if pattern not in self._frequent:
                self._promote(pattern)

    def patterns(self) -> dict[frozenset, int]:
        """The current frequent patterns with exact counts (a copy)."""
        return dict(self._frequent)

    def result(self) -> MiningResult:
        """The current state packaged as a standard MiningResult."""
        result = MiningResult(
            "incremental", self.threshold, len(self.database)
        )
        for itemset, count in self._frequent.items():
            result.patterns[itemset] = PatternCount(count, exact=True)
        result.refine_stats = self.refine_stats
        return result

    @property
    def border_size(self) -> int:
        """Number of tracked minimal-infrequent patterns (size >= 2)."""
        return len(self._border)

    @property
    def epoch(self) -> int:
        """The underlying index's version counter (see :attr:`BBS.epoch`).

        Every :meth:`insert` routes through ``self.bbs.insert``, so the
        miner's pattern set is exactly as fresh as this number: a result
        tagged with the epoch it was computed at is current iff the tags
        still match.
        """
        return self.bbs.epoch

    # -- internals -----------------------------------------------------------

    def _bucket(self, pattern: frozenset) -> None:
        anchor = min(pattern, key=repr)
        self._buckets.setdefault(anchor, []).append(pattern)

    def _exact_count(self, pattern: frozenset) -> int:
        """One BBS-guided probe: exact support without a scan."""
        positions = self.bbs.candidate_positions(pattern)
        return probe(self.database, pattern, positions, stats=self.refine_stats)

    def _candidate_extensions(self, pattern: frozenset):
        """Minimal supersets of ``pattern`` whose every subset is frequent."""
        if self.max_size is not None and len(pattern) >= self.max_size:
            return
        frequent_items = [
            item for (item,) in
            (tuple(p) for p in self._frequent if len(p) == 1)
        ]
        for item in frequent_items:
            if item in pattern:
                continue
            candidate = pattern | {item}
            if candidate in self._frequent or candidate in self._border:
                continue
            if all(
                candidate - {member} in self._frequent for member in candidate
            ):
                yield candidate

    def _promote(self, pattern: frozenset) -> None:
        """Move a border pattern into F and explore what it unlocks."""
        count = self._border.pop(pattern, None)
        if count is None:
            count = (
                self.bbs.item_counts.count(next(iter(pattern)))
                if len(pattern) == 1
                else self._exact_count(pattern)
            )
            self._bucket(pattern)
        if pattern in self._frequent:
            return
        self._frequent[pattern] = count
        self.promotions += 1
        # The promotion may complete the subset condition for minimal
        # supersets of every frequent pattern it touches; by minimality
        # those supersets are pattern ∪ {frequent item}.
        for candidate in list(self._candidate_extensions(pattern)):
            exact = self._exact_count(candidate)
            if exact >= self.threshold:
                self._border[candidate] = exact  # _promote pops it again
                self._bucket(candidate)
                self._promote(candidate)
            else:
                self._border[candidate] = exact
                self._bucket(candidate)

    def _build_border(self) -> None:
        """Initial negative border: minimal infrequent size->=2 patterns."""
        for pattern in list(self._frequent):
            for candidate in self._candidate_extensions(pattern):
                if len(candidate) < 2:
                    continue
                self._border[candidate] = self._exact_count(candidate)
                self._bucket(candidate)
