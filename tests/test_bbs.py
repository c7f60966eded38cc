"""Tests for the BBS index: structure, CountItemSet, and the lemmas."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import bitvec, kernels
from repro.core.bbs import BBS, COUNT_SCRATCH_BYTES
from repro.core.hashing import (
    MD5HashFamily,
    ModuloHashFamily,
    SuperimposedHashFamily,
)
from repro.data.database import TransactionDatabase
from repro.errors import ConfigurationError, QueryError
from tests.conftest import make_random_database


class TestConstruction:
    def test_empty_index(self):
        bbs = BBS(m=64)
        assert bbs.n_transactions == 0
        assert bbs.size_bytes == 0
        assert len(bbs) == 0

    def test_mismatched_family_rejected(self):
        with pytest.raises(ConfigurationError):
            BBS(m=64, hash_family=MD5HashFamily(m=32, k=2))

    def test_from_database_covers_all(self, small_db):
        bbs = BBS.from_database(small_db, m=128)
        assert bbs.n_transactions == len(small_db)

    def test_from_database_counts_a_scan(self, small_db):
        small_db.reset_io()
        BBS.from_database(small_db, m=128)
        assert small_db.stats.db_scans == 1


class TestInsert:
    def test_insert_returns_position(self):
        bbs = BBS(m=64)
        assert bbs.insert([1, 2]) == 0
        assert bbs.insert([3]) == 1

    def test_empty_transaction_rejected(self):
        with pytest.raises(QueryError):
            BBS(m=64).insert([])

    def test_capacity_growth_preserves_bits(self):
        bbs = BBS(m=16, hash_family=ModuloHashFamily(16))
        for i in range(3000):  # far beyond the initial 1024-bit capacity
            bbs.insert([i % 16])
        assert bbs.n_transactions == 3000
        # Item 5 went in at positions 5, 21, 37, ...
        positions = bbs.candidate_positions([5])
        assert positions.tolist() == list(range(5, 3000, 16))

    def test_duplicate_items_collapse(self):
        bbs = BBS(m=32)
        bbs.insert([7, 7, 7])
        assert bbs.item_counts.count(7) == 1

    def test_item_counts_track_exactly(self, small_db):
        bbs = BBS.from_database(small_db, m=64)
        for item, count in small_db.item_counts().items():
            assert bbs.item_counts.count(item) == count

    def test_size_bytes(self):
        bbs = BBS(m=80)
        for i in range(9):
            bbs.insert([i])
        assert bbs.size_bytes == 80 * 2  # ceil(9/8) = 2 bytes per slice


class TestCountItemSet:
    def test_single_item_exact_when_no_collisions(self):
        bbs = BBS(m=1024, k=2)
        for _ in range(5):
            bbs.insert(["a"])
        bbs.insert(["b"])
        assert bbs.count_itemset(["a"]) >= 5

    def test_never_underestimates(self, small_db, small_bbs):
        """Lemma 4 on a real database, every 1- and 2-itemset."""
        items = small_db.items()
        for item in items[:20]:
            assert small_bbs.count_itemset([item]) >= small_db.support([item])
        for a, b in zip(items[:10], items[10:20]):
            assert small_bbs.count_itemset([a, b]) >= small_db.support([a, b])

    def test_no_false_misses_in_candidates(self, small_db, small_bbs):
        """Lemma 3: every containing transaction appears in the vector."""
        items = small_db.items()
        itemset = items[:2]
        candidates = set(small_bbs.candidate_positions(itemset).tolist())
        for position in range(len(small_db)):
            if set(itemset) <= set(small_db.fetch(position)):
                assert position in candidates

    def test_empty_itemset_rejected(self):
        bbs = BBS(m=64)
        bbs.insert([1])
        with pytest.raises(QueryError):
            bbs.count_itemset([])

    def test_count_on_empty_index(self):
        bbs = BBS(m=64)
        assert bbs.count_itemset([1]) == 0

    def test_count_and_vector_consistent(self, small_bbs):
        count, vector = small_bbs.count_and_vector([0, 1])
        assert count == bitvec.popcount(vector)

    def test_monotone_in_itemset_size(self, small_bbs):
        """est(I ∪ {a}) <= est(I): a superset ANDs more slices."""
        assert small_bbs.count_itemset([0, 1]) <= small_bbs.count_itemset([0])
        assert small_bbs.count_itemset([0, 1, 2]) <= small_bbs.count_itemset([0, 1])

    def test_slice_reads_accounted(self, small_bbs):
        small_bbs.stats.reset()
        positions = small_bbs.signature_positions([3])
        small_bbs.count_itemset([3])
        assert small_bbs.stats.slice_reads == positions.size


BACKENDS = ["numpy"] + (["native"] if kernels.native_available() else [])
ITEMSET = st.lists(st.integers(0, 60), min_size=1, max_size=6)


def _index(kind: str, m: int, n_base: int, n_insert: int, seed: int) -> BBS:
    """Random slice bits for ``n_base`` transactions, then real inserts.

    The random base makes large indexes cheap; starting from a raw state
    whose capacity it fills, the inserts grow the slice matrix.
    """
    family = {
        "md5": lambda: MD5HashFamily(m, 3),
        "folded": lambda: MD5HashFamily(m, 3),
        "modulo": lambda: ModuloHashFamily(m),
        "superimposed": lambda: SuperimposedHashFamily(m, 3),
    }[kind]()
    rng = np.random.default_rng(seed)
    words = bitvec.words_for_bits(n_base)
    slices = rng.integers(0, 2**64, size=(m, words), dtype=np.uint64)
    slices &= rng.integers(0, 2**64, size=(m, words), dtype=np.uint64)
    if n_base % 64:
        slices[:, -1] &= np.uint64((1 << (n_base % 64)) - 1)
    index = BBS._from_raw_state(family, slices, n_base, {})
    for _ in range(n_insert):
        index.insert(rng.choice(60, size=int(rng.integers(1, 8))).tolist())
    return index.fold(max(1, m // 3)) if kind == "folded" else index


def _batched_equals_single(index: BBS, batch: list) -> None:
    reads = index.stats.slice_reads
    singles = [index.count_itemset(items) for items in batch]
    single_reads = index.stats.slice_reads - reads
    batched = index.count_itemsets(batch)
    assert batched == singles
    assert all(type(count) is int for count in batched)
    assert index.stats.slice_reads - reads == 2 * single_reads


class TestCountItemsets:
    """``count_itemsets`` is ``count_itemset`` per itemset, in one pass."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["md5", "modulo", "superimposed", "folded"]),
        m=st.sampled_from([16, 64, 200]),
        n_base=st.integers(0, 3000) | st.sampled_from([0, 64, 1024, 40_000]),
        n_insert=st.integers(0, 1100),
        seed=st.integers(0, 2**16),
        # One-itemset batches take count_itemset's path; draw them often.
        batch=st.lists(ITEMSET, min_size=1, max_size=1) | st.lists(ITEMSET, max_size=40),
        repeats=st.integers(0, 4),
    )
    @example(kind="md5", m=16, n_base=0, n_insert=0, seed=0,
             batch=[[1], [2, 3]], repeats=0)  # empty index
    @example(kind="folded", m=200, n_base=3000, n_insert=5, seed=3,
             batch=[[4, 9, 17]], repeats=0)  # one itemset
    @example(kind="superimposed", m=64, n_base=0, n_insert=0, seed=4,
             batch=[[8]], repeats=0)  # one itemset, empty index
    @example(kind="modulo", m=64, n_base=1024, n_insert=70, seed=1,
             batch=[[5], [5, 69], [7, 8, 9]], repeats=1)  # growth by insert
    @example(kind="md5", m=200, n_base=40_000, n_insert=3, seed=2,
             batch=[[i, i + 1, i + 7] for i in range(40)], repeats=2)  # chunks
    def test_matches_count_itemset(
        self, backend, kind, m, n_base, n_insert, seed, batch, repeats
    ):
        before = bitvec.active_kernel_backend()
        try:
            assert bitvec.set_kernel_backend(backend) == backend
            index = _index(kind, m, n_base, n_insert, seed)
            _batched_equals_single(index, batch + batch[:repeats])
        finally:
            bitvec.set_kernel_backend(before)

    def test_the_chunk_example_spans_several_chunks(self):
        index = _index("md5", 200, 40_000, 3, seed=2)
        batch = [[i, i + 1, i + 7] for i in range(40)]
        width = max(index.signature_positions(x).size for x in batch)
        per_chunk = COUNT_SCRATCH_BYTES // (width * index.n_words * 8)
        assert 1 <= per_chunk and len(batch) >= 3 * per_chunk
        _batched_equals_single(index, batch)

    def test_empty_itemset_rejected_before_counting(self, small_bbs):
        small_bbs.stats.reset()
        with pytest.raises(QueryError):
            small_bbs.count_itemsets([[1], []])
        assert small_bbs.stats.slice_reads == 0

    def test_empty_batch(self, small_bbs):
        assert small_bbs.count_itemsets([]) == []


class TestAccumulatorPath:
    """The filter hot path must agree with the plain CountItemSet."""

    def test_and_positions_into_matches_resultant(self, small_bbs):
        acc = small_bbs.fresh_accumulator()
        out = np.empty_like(acc)
        positions = small_bbs.signature_positions([5, 9])
        small_bbs.and_positions_into(acc, positions, out)
        assert np.array_equal(out, small_bbs.resultant_vector([5, 9]))

    def test_incremental_extension_matches_direct(self, small_bbs):
        acc = small_bbs.fresh_accumulator()
        out1 = np.empty_like(acc)
        small_bbs.and_positions_into(
            acc, small_bbs.hash_family.positions(5), out1
        )
        out2 = np.empty_like(acc)
        small_bbs.and_positions_into(
            out1, small_bbs.hash_family.positions(9), out2
        )
        assert bitvec.popcount(out2) == small_bbs.count_itemset([5, 9])

    def test_aliasing_allowed(self, small_bbs):
        acc = small_bbs.fresh_accumulator()
        small_bbs.and_positions_into(
            acc, small_bbs.hash_family.positions(5), acc
        )
        assert bitvec.popcount(acc) == small_bbs.count_itemset([5])


class TestSliceAccess:
    def test_slice_out_of_range(self, small_bbs):
        with pytest.raises(QueryError):
            small_bbs.slice_words(small_bbs.m)
        with pytest.raises(QueryError):
            small_bbs.slice_words(-1)

    def test_slice_view_read_only(self, small_bbs):
        view = small_bbs.slice_words(0)
        with pytest.raises(ValueError):
            view[0] = 1


class TestConstraintCounting:
    def test_full_constraint_is_identity(self, small_db, small_bbs):
        all_set = bitvec.ones(len(small_db))
        for item in small_db.items()[:5]:
            assert (
                small_bbs.count_with_constraint([item], all_set)
                == small_bbs.count_itemset([item])
            )

    def test_empty_constraint_gives_zero(self, small_db, small_bbs):
        none_set = bitvec.zeros(len(small_db))
        assert small_bbs.count_with_constraint([0], none_set) == 0

    def test_shape_mismatch_rejected(self, small_bbs):
        with pytest.raises(QueryError):
            small_bbs.count_with_constraint([0], bitvec.zeros(7))


class TestFold:
    def test_fold_width_validation(self, small_bbs):
        with pytest.raises(ConfigurationError):
            small_bbs.fold(0)
        with pytest.raises(ConfigurationError):
            small_bbs.fold(small_bbs.m + 1)

    def test_identity_fold(self, small_bbs):
        folded = small_bbs.fold(small_bbs.m)
        for item in range(5):
            assert folded.count_itemset([item]) == small_bbs.count_itemset([item])

    def test_fold_never_underestimates_original(self, small_db, small_bbs):
        """Folding ORs bits together, so estimates can only grow."""
        folded = small_bbs.fold(32)
        for item in small_db.items()[:15]:
            assert folded.count_itemset([item]) >= small_bbs.count_itemset([item])

    def test_fold_preserves_lemma4(self, small_db, small_bbs):
        folded = small_bbs.fold(16)
        for item in small_db.items()[:15]:
            assert folded.count_itemset([item]) >= small_db.support([item])

    def test_fold_shares_exact_counts(self, small_bbs):
        folded = small_bbs.fold(16)
        assert folded.item_counts is small_bbs.item_counts

    def test_fold_keeps_transaction_count(self, small_bbs):
        assert small_bbs.fold(16).n_transactions == small_bbs.n_transactions


class TestDensity:
    def test_empty_density_zero(self):
        assert BBS(m=64).mean_signature_density == 0.0

    def test_density_in_unit_interval(self, small_bbs):
        assert 0.0 < small_bbs.mean_signature_density < 1.0

    def test_density_matches_hand_count(self):
        bbs = BBS(m=8, hash_family=ModuloHashFamily(8))
        bbs.insert([0, 1])   # 2 bits of 8
        bbs.insert([2])      # 1 bit of 8
        assert bbs.mean_signature_density == pytest.approx(3 / 16)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    m=st.sampled_from([32, 64, 128]),
)
def test_property_estimates_dominate_support(seed, m):
    """Lemma 4 as a property over random databases."""
    db = make_random_database(seed, n_transactions=60, n_items=25, max_len=6)
    bbs = BBS.from_database(db, m=m)
    rng_items = db.items()[:8]
    for a in rng_items:
        assert bbs.count_itemset([a]) >= db.support([a])
    for a, b in zip(rng_items, rng_items[1:]):
        assert bbs.count_itemset([a, b]) >= db.support([a, b])


class TestConcat:
    def test_concat_equals_bulk_build(self):
        full = make_random_database(seed=55, n_transactions=100, n_items=20)
        transactions = list(full)
        left = BBS(m=96)
        right = BBS(m=96)
        for tx in transactions[:60]:
            left.insert(tx)
        for tx in transactions[60:]:
            right.insert(tx)
        combined = left.concat(right)
        bulk = BBS.from_database(full, m=96)
        assert combined.n_transactions == bulk.n_transactions
        for row in range(96):
            assert np.array_equal(
                combined.slice_words(row), bulk.slice_words(row)
            ), f"slice {row}"
        for item in full.items():
            assert combined.item_counts.count(item) == bulk.item_counts.count(item)
        assert combined.mean_signature_density == bulk.mean_signature_density

    def test_concat_unaligned_boundary(self):
        """The left side ends mid-word: the shifted OR must be exact."""
        full = make_random_database(seed=56, n_transactions=77, n_items=15)
        transactions = list(full)
        left = BBS(m=48)
        right = BBS(m=48)
        for tx in transactions[:13]:  # 13 is not a multiple of 64
            left.insert(tx)
        for tx in transactions[13:]:
            right.insert(tx)
        combined = left.concat(right)
        bulk = BBS.from_database(full, m=48)
        for item in full.items():
            assert combined.count_itemset([item]) == bulk.count_itemset([item])

    def test_concat_mining_matches(self):
        from repro.baselines.apriori import apriori
        from repro.core.mining import mine

        full = make_random_database(seed=57, n_transactions=120, n_items=18)
        transactions = list(full)
        parts = [transactions[:40], transactions[40:90], transactions[90:]]
        indexes = []
        for part in parts:
            bbs = BBS(m=96)
            for tx in part:
                bbs.insert(tx)
            indexes.append(bbs)
        combined = indexes[0].concat(indexes[1]).concat(indexes[2])
        result = mine(full, combined, 7, "dfp")
        assert result.itemsets() == apriori(full, 7).itemsets()

    def test_concat_with_empty_side(self):
        db = make_random_database(seed=58, n_transactions=30, n_items=10)
        built = BBS.from_database(db, m=32)
        empty = BBS(m=32)
        assert built.concat(empty).n_transactions == 30
        assert empty.concat(built).count_itemset([0]) == built.count_itemset([0])

    def test_mismatched_families_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            BBS(m=32).concat(BBS(m=64))
        with pytest.raises(ConfigurationError):
            BBS(m=32, k=2).concat(BBS(m=32, k=4))

    def test_concat_accepts_further_inserts(self):
        a = BBS(m=32)
        a.insert([1])
        b = BBS(m=32)
        b.insert([2])
        combined = a.concat(b)
        combined.insert([1, 2])
        assert combined.n_transactions == 3
        assert combined.count_itemset([1]) >= 2


class TestSignatureAccounting:
    """``_signature_bits_total`` must equal the live popcount of the matrix."""

    def test_append_only_build_matches_popcount(self, small_bbs):
        live = bitvec.popcount(small_bbs._slices)
        assert small_bbs._signature_bits_total == live

    def test_fold_density_is_exact(self, small_bbs):
        """Folding merges colliding positions; the total must not be inflated."""
        for k_slices in (8, 16, 32):
            folded = small_bbs.fold(k_slices)
            assert folded._signature_bits_total == bitvec.popcount(
                folded._slices
            )

    def test_fold_density_never_exceeds_original(self, small_bbs):
        folded = small_bbs.fold(16)
        assert folded._signature_bits_total <= small_bbs._signature_bits_total

    def test_identity_fold_density_unchanged(self, small_bbs):
        folded = small_bbs.fold(small_bbs.m)
        assert folded._signature_bits_total == small_bbs._signature_bits_total
        assert (
            folded.mean_signature_density == small_bbs.mean_signature_density
        )

    def test_folded_raw_positions_sorted_unique(self, small_bbs):
        """A folded family reports each collapsed position exactly once."""
        family = small_bbs.fold(2).hash_family
        for item in range(20):
            positions = family.positions(family._canonical(item))
            assert list(positions) == sorted(set(positions))
            assert all(0 <= p < 2 for p in positions)
            assert len(positions) <= small_bbs.k

    def test_hand_folded_collision(self):
        bbs = BBS(m=8, hash_family=ModuloHashFamily(8))
        bbs.insert([1, 5])  # positions 1 and 5 collide under mod 4 -> bit 1
        folded = bbs.fold(4)
        assert folded._signature_bits_total == 1
        assert folded.mean_signature_density == pytest.approx(1 / 4)


class TestEpoch:
    def test_starts_at_zero(self, small_bbs):
        assert BBS(64).epoch == 0
        # from_database builds via insert but a freshly loaded/constructed
        # index still reports its session-local insert count.
        assert small_bbs.epoch == small_bbs.n_transactions

    def test_bumps_once_per_insert(self):
        bbs = BBS(64)
        for expected in range(1, 6):
            bbs.insert([expected, expected + 1])
            assert bbs.epoch == expected

    def test_load_resets_epoch(self, small_bbs, tmp_path):
        path = tmp_path / "idx.bbs"
        small_bbs.save(path)
        assert BBS.load(path).epoch == 0

    def test_fold_carries_epoch(self, small_bbs):
        assert small_bbs.fold(16).epoch == small_bbs.epoch
