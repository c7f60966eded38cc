"""Pure merge semantics for scatter-gathered shard answers.

Everything here is a plain function over JSON-shaped payloads — no I/O,
no asyncio — so the bit-identity story is testable in isolation.

Why the merges are exact
------------------------
The shards partition the logical database by contiguous transaction
range, and every shard builds its index with the same deterministic
``(m, k)`` hash family.  ``build_partitioned`` + ``concat`` (PR 2)
prove that such a shard index is byte-identical to the row-restriction
of the single-node index.  Three consequences carry the whole design:

* **Estimates add.**  ``CountItemSet`` is a popcount of an AND of
  bit-slices; restricted to disjoint row ranges, popcounts sum.  So
  ``estimate(X) = Σ_i estimate_i(X)`` exactly — not approximately.
* **Exact counts add.**  True supports over disjoint ranges sum
  trivially.
* **Mining merges by the Partition theorem** (Savasere et al., reused
  by Grahne & Zhu's secondary-memory miner): with local threshold
  ``t_i = max(1, ceil(s · n_i / N))`` on shard ``i``, any itemset
  globally frequent at absolute support ``s`` is locally frequent on at
  least one shard — if it missed every local cut, summing
  ``count_i ≤ t_i − 1 < s·n_i/N`` over shards gives ``count < s``.
  Phase 2 gives the union of local candidates an *exact* count on
  every shard and filters at ``s``, so the merged pattern set equals
  the single-node frequent set and every reported count is the true
  support.

Phase 2 recounts only what phase 1 left open
--------------------------------------------
A shard's phase-1 result already holds the exact support of each of
its patterns marked ``exact: true`` — probed, scanned, or certified
by CheckCount (Lemma 5) — and ``exact: true`` is never an estimate.
:func:`plan_recount` reuses those counts and owes a recount only for
the candidates a shard's result lacks (locally infrequent there) or
marks ``exact: false`` (a bounded DualFilter estimate).  A true
support is a true support however it was obtained, so the sums stay
exact.  What differs is *when* each count is taken: a reused count at
the shard's job snapshot, a recount when phase 2 asks.  The two agree
on every shard that took no append in between — always on a sealed
shard, and on the tail shard when the database is quiescent, which is
when a routed mine equals the single-node answer.  With appends in
flight the tail shard's counts may come from two prefixes of its
range, each count the true support over its prefix; the candidate
set and ``n_transactions`` already come from different moments in
that case (the ``status`` fan-out, each local mine, each recount
batch).
"""

from __future__ import annotations

from repro.service.cache import canonical_itemset


def local_threshold(s_abs: int, n_shard: int, n_total: int) -> int:
    """Shard-local absolute threshold preserving the Partition guarantee.

    ``ceil(s_abs * n_shard / n_total)``, floored at 1 (an empty shard
    still needs a positive threshold to be a valid mining parameter).
    """
    if n_total <= 0:
        return 1
    return max(1, -(-s_abs * n_shard // n_total))


def merge_count_payloads(
    items: list, payloads: list[dict], *, want_exact: bool
) -> dict:
    """Fold per-shard ``count`` results into the single-node shape.

    ``estimate`` and ``exact`` are sums over the disjoint ranges (see
    the module docstring for why that is bit-identical, not a bound).
    ``epoch`` is the sum of shard epochs — monotonic under appends, and
    comparable across answers from the same router the way a
    single-node epoch is.  ``cached`` is true only when *every* shard
    answered from its cache (provenance, not semantics).
    """
    merged = {
        "items": list(items),
        "estimate": sum(p["estimate"] for p in payloads),
        "epoch": sum(p["epoch"] for p in payloads),
        "cached": all(p.get("cached", False) for p in payloads),
    }
    if want_exact:
        merged["exact"] = sum(p["exact"] for p in payloads)
    return merged


def candidate_itemsets(shard_results: list[dict]) -> list[tuple]:
    """The deduplicated union of pattern itemsets across shard results.

    Input payloads are serialised mining results (``{"patterns":
    [{"items": [...]}, ...]}``); output is canonical tuples in sorted
    order, so phase-2 verification fans out a deterministic batch.
    """
    union: set[tuple] = set()
    for result in shard_results:
        for pattern in result.get("patterns", []):
            union.add(canonical_itemset(pattern["items"]))
    return sorted(union)


def plan_recount(
    candidates: list[tuple], shard_results: list[dict]
) -> tuple[list[dict[tuple, int]], list[list[tuple]]]:
    """Split phase 2 per shard into reused exact counts and recounts.

    Returns ``(exact, owed)``: ``exact[i]`` maps each candidate that
    shard ``i``'s phase-1 result reports ``exact: true`` to its count,
    and ``owed[i]`` lists, in candidate order, every other candidate —
    the ones shard ``i`` must still count exactly.  Adding those
    counts to ``exact[i]`` gives :func:`sum_exact_counts` its input.
    """
    exact: list[dict[tuple, int]] = []
    owed: list[list[tuple]] = []
    for result in shard_results:
        reported = {
            canonical_itemset(pattern["items"]): pattern["count"]
            for pattern in result.get("patterns", [])
            if pattern["exact"]
        }
        exact.append(reported)
        owed.append([key for key in candidates if key not in reported])
    return exact, owed


def sum_exact_counts(
    candidates: list[tuple], per_shard_counts: list[dict[tuple, int]]
) -> dict[tuple, int]:
    """Total exact support per candidate: the sum over all shards."""
    totals: dict[tuple, int] = {}
    for key in candidates:
        totals[key] = sum(counts[key] for counts in per_shard_counts)
    return totals


def merged_mine_payload(
    *,
    algorithm: str,
    min_support_abs: int,
    n_transactions: int,
    totals: dict[tuple, int],
    elapsed_seconds: float,
) -> dict:
    """The phase-2 output in the exact shape of a single-node result.

    Filters ``totals`` at the global threshold and ranks by
    ``(-count, canonical itemset)`` — the ordering
    ``handlers._serialise_result`` uses — so the payload is
    byte-comparable to a single-node answer field by field.  Every
    pattern is ``exact: true``: the router always serves fully verified
    counts (a strict refinement of dfp/dfs, identical to sfs/sfp).
    """
    frequent = [
        (key, count)
        for key, count in totals.items()
        if count >= min_support_abs
    ]
    ranked = sorted(frequent, key=lambda kv: (-kv[1], kv[0]))
    return {
        "algorithm": algorithm,
        "min_support": min_support_abs,
        "n_transactions": n_transactions,
        "n_patterns": len(ranked),
        "elapsed_seconds": elapsed_seconds,
        "patterns": [
            {"items": list(key), "count": count, "exact": True}
            for key, count in ranked
        ],
    }


def merged_patterns_payload(
    *,
    shard_payloads: list[dict],
    totals: dict[tuple, int],
    global_threshold: int,
) -> dict:
    """Merge tracked (`patterns` op) sets at ``Σ`` of shard thresholds.

    Each shard tracks its locally frequent set at its own absolute
    threshold ``t_i``; by the same pigeonhole as mining, any itemset
    with global support ``≥ Σ t_i`` is tracked on at least one shard.
    ``totals`` must hold phase-2 verified exact counts for the union of
    tracked itemsets; the result filters at ``Σ t_i`` and reports the
    verified counts.
    """
    frequent = [
        (key, count)
        for key, count in totals.items()
        if count >= global_threshold
    ]
    ranked = sorted(frequent, key=lambda kv: (-kv[1], kv[0]))
    return {
        "epoch": sum(p["epoch"] for p in shard_payloads),
        "min_support": global_threshold,
        "n_patterns": len(ranked),
        "border_size": sum(p.get("border_size", 0) for p in shard_payloads),
        "promotions": sum(p.get("promotions", 0) for p in shard_payloads),
        "patterns": [
            {"items": list(key), "count": count} for key, count in ranked
        ],
    }


__all__ = [
    "candidate_itemsets",
    "local_threshold",
    "merge_count_payloads",
    "merged_mine_payload",
    "merged_patterns_payload",
    "plan_recount",
    "sum_exact_counts",
]
