"""Tests for the MD5 bloom hash family and friends."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bbs import _FoldedHashFamily
from repro.core.hashing import (
    HashFamily,
    MD5HashFamily,
    ModuloHashFamily,
    SuperimposedHashFamily,
    family_from_description,
)
from repro.errors import ConfigurationError


class TestMD5Family:
    def test_positions_in_range(self):
        family = MD5HashFamily(m=97, k=4)
        for item in ("apple", "banana", 42, 0):
            positions = family.positions(item)
            assert positions.size >= 1
            assert positions.min() >= 0
            assert positions.max() < 97

    def test_positions_deterministic(self):
        a = MD5HashFamily(m=256, k=4)
        b = MD5HashFamily(m=256, k=4)
        for item in ("x", "y", 7):
            assert np.array_equal(a.positions(item), b.positions(item))

    def test_positions_sorted_unique(self):
        family = MD5HashFamily(m=16, k=8)  # collisions guaranteed often
        for item in range(50):
            positions = family.positions(item)
            assert sorted(set(positions.tolist())) == positions.tolist()

    def test_matches_paper_md5_construction(self):
        """Hash j is the j-th big-endian 4-byte group of md5(name)."""
        family = MD5HashFamily(m=10_000, k=4)
        digest = hashlib.md5(b"itemname").digest()
        expected = sorted({
            int.from_bytes(digest[i * 4:(i + 1) * 4], "big") % 10_000
            for i in range(4)
        })
        assert family.positions("itemname").tolist() == expected

    def test_more_than_four_hashes_rehashes_doubled_name(self):
        """k > 4 pulls groups from md5(name + name), per the paper."""
        family = MD5HashFamily(m=1_000_000, k=5)
        d1 = hashlib.md5(b"ab").digest()
        d2 = hashlib.md5(b"abab").digest()
        expected = {int.from_bytes(d1[i * 4:(i + 1) * 4], "big") % 1_000_000
                    for i in range(4)}
        expected.add(int.from_bytes(d2[:4], "big") % 1_000_000)
        assert set(family.positions("ab").tolist()) == expected

    def test_int_and_repr_string_agree(self):
        family = MD5HashFamily(m=512, k=4)
        assert np.array_equal(family.positions(42), family.positions("42"))

    def test_cache_is_used(self):
        family = MD5HashFamily(m=64, k=2)
        first = family.positions("cached")
        assert family.positions("cached") is first  # same array object

    def test_clear_cache(self):
        family = MD5HashFamily(m=64, k=2)
        first = family.positions("cached")
        family.clear_cache()
        again = family.positions("cached")
        assert again is not first
        assert np.array_equal(again, first)

    def test_positions_read_only(self):
        family = MD5HashFamily(m=64, k=2)
        positions = family.positions("ro")
        with pytest.raises(ValueError):
            positions[0] = 1

    @given(st.integers(min_value=0, max_value=10**6), st.integers(1, 8))
    def test_property_positions_valid(self, item, k):
        family = MD5HashFamily(m=733, k=k)
        positions = family.positions(item)
        assert 1 <= positions.size <= k
        assert all(0 <= int(p) < 733 for p in positions)


class TestItemsetPositions:
    def test_union_of_items(self):
        family = MD5HashFamily(m=256, k=3)
        merged = family.itemset_positions(["a", "b"])
        expected = sorted(
            set(family.positions("a").tolist())
            | set(family.positions("b").tolist())
        )
        assert merged.tolist() == expected

    def test_empty_itemset_gives_empty(self):
        family = MD5HashFamily(m=256, k=3)
        assert family.itemset_positions([]).size == 0

    def test_single_item_identity(self):
        family = MD5HashFamily(m=256, k=3)
        assert np.array_equal(
            family.itemset_positions(["only"]), family.positions("only")
        )


FAMILIES = {
    "md5": lambda m: MD5HashFamily(m, 3),
    "modulo": ModuloHashFamily,
    "superimposed": lambda m: SuperimposedHashFamily(m, 3),
    "folded": lambda m: _FoldedHashFamily(MD5HashFamily(m, 4), max(1, m // 3)),
}


class TestItemsetPositionsProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(sorted(FAMILIES)),
        m=st.sampled_from([5, 64, 800]),
        items=st.lists(st.integers(0, 400), max_size=8),
    )
    def test_equals_numpy_unique_of_the_item_positions(self, kind, m, items):
        family = FAMILIES[kind](m)
        merged = family.itemset_positions(items)
        arrays = [family.positions(item) for item in items]
        expected = np.unique(np.concatenate(arrays)) if arrays else np.empty(0)
        assert merged.dtype == np.int64
        assert merged.tolist() == expected.tolist()
        if items:
            assert not merged.flags.writeable


class TestModuloFamily:
    def test_running_example_hash(self):
        family = ModuloHashFamily(8)
        assert family.positions(0).tolist() == [0]
        assert family.positions(14).tolist() == [6]
        assert family.positions(15).tolist() == [7]
        assert family.positions(11).tolist() == [3]

    def test_k_is_one(self):
        assert ModuloHashFamily(8).k == 1


class TestValidation:
    def test_bad_m(self):
        with pytest.raises(ConfigurationError):
            MD5HashFamily(m=0, k=2)

    def test_bad_k(self):
        with pytest.raises(ConfigurationError):
            MD5HashFamily(m=8, k=0)


class TestDescribeRoundTrip:
    def test_md5_round_trip(self):
        family = MD5HashFamily(m=321, k=5)
        rebuilt = family_from_description(family.describe())
        assert isinstance(rebuilt, MD5HashFamily)
        assert rebuilt.m == 321 and rebuilt.k == 5
        assert np.array_equal(rebuilt.positions("z"), family.positions("z"))

    def test_modulo_round_trip(self):
        family = ModuloHashFamily(8)
        rebuilt = family_from_description(family.describe())
        assert isinstance(rebuilt, ModuloHashFamily)
        assert rebuilt.positions(11).tolist() == [3]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            family_from_description({"kind": "Nonsense", "m": 8, "k": 1})

    def test_missing_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            family_from_description({})


class TestBaseClassContract:
    def test_raw_positions_length_enforced(self):
        class Broken(HashFamily):
            def _raw_positions(self, key):
                return [0]  # always 1, regardless of k

        broken = Broken(m=8, k=3)
        with pytest.raises(ConfigurationError):
            broken.positions("x")

    def test_out_of_range_position_enforced(self):
        class Escapes(HashFamily):
            def _raw_positions(self, key):
                return [99]

        escapes = Escapes(m=8, k=1)
        with pytest.raises(ConfigurationError):
            escapes.positions("x")
