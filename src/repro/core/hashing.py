"""Bloom-filter hash family used to form transaction signatures.

The paper (Section 4) derives the ``k`` hash values of an item from its
MD5 digest: *"we take the four disjoint groups of bits from the 128-bit
MD5 signature of the item name; if more bits are needed, we calculate
the MD5 signature of the item name concatenated with itself"*.  This
module reproduces that construction exactly:

* hash ``j`` of an item uses the ``j``-th disjoint 32-bit group, reading
  groups big-endian from ``md5(name)``, then ``md5(name + name)``,
  ``md5(name + name + name)``, ... as more groups are required;
* each 32-bit group is reduced modulo ``m`` to a bit position.

Because mining touches the same items millions of times, the family
memoises the position tuple per item.  The cache is an ordinary dict
keyed by the item's canonical string form, so arbitrary hashable items
(ints, strings) are supported.

The running example of the paper (a single hash ``h(x) = x mod 8``) is
available as :class:`ModuloHashFamily` for tests and documentation.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.errors import ConfigurationError

_GROUP_BYTES = 4
_GROUPS_PER_DIGEST = 16 // _GROUP_BYTES  # an MD5 digest yields 4 groups


class HashFamily:
    """Interface: map an item to ``k`` bit positions in ``[0, m)``.

    Subclasses implement :meth:`_raw_positions`; the base class handles
    validation, caching, and the deduplicated numpy form used by the
    bit-slice kernels.  Families whose per-item weight is not exactly
    ``k`` (e.g. classical superimposed coding) set ``fixed_arity``
    to False, relaxing the arity check to "at least one position".
    """

    fixed_arity = True

    def __init__(self, m: int, k: int):
        if m < 1:
            raise ConfigurationError(f"signature width m must be >= 1, got {m}")
        if k < 1:
            raise ConfigurationError(f"hash count k must be >= 1, got {k}")
        self.m = m
        self.k = k
        self._cache: dict[str, np.ndarray] = {}

    # -- public API ----------------------------------------------------

    def positions(self, item) -> np.ndarray:
        """Sorted, deduplicated bit positions for ``item`` (read-only array).

        Distinct hash functions may collide on the same position; the
        signature semantics (set the bit) make duplicates redundant, so
        they are removed here once instead of in every AND-reduce.
        """
        key = self._canonical(item)
        cached = self._cache.get(key)
        if cached is None:
            raw = self._raw_positions(key)
            if self.fixed_arity and len(raw) != self.k:
                raise ConfigurationError(
                    f"hash family produced {len(raw)} positions, expected k={self.k}"
                )
            if not raw:
                raise ConfigurationError(
                    "hash family produced no positions for an item"
                )
            for pos in raw:
                if not 0 <= pos < self.m:
                    raise ConfigurationError(
                        f"hash position {pos} outside [0, {self.m})"
                    )
            cached = np.unique(np.asarray(raw, dtype=np.int64))
            cached.setflags(write=False)
            self._cache[key] = cached
        return cached

    def itemset_positions(self, items) -> np.ndarray:
        """Union of the positions of every item in ``items`` (sorted)."""
        arrays = [self.positions(item) for item in items]
        if not arrays:
            return np.empty(0, dtype=np.int64)
        if len(arrays) == 1:
            return arrays[0]
        # A set union of the small cached arrays costs less than
        # ``np.unique(np.concatenate(...))`` for the few items of an itemset.
        union: set[int] = set()
        for array in arrays:
            union.update(array.tolist())
        merged = np.array(sorted(union), dtype=np.int64)
        merged.setflags(write=False)
        return merged

    def clear_cache(self) -> None:
        """Drop the memoised positions (mostly for memory-bound tests)."""
        self._cache.clear()

    # -- subclass hooks --------------------------------------------------

    @staticmethod
    def _canonical(item) -> str:
        """Canonical string form of an item; the unit hashed by MD5."""
        return item if isinstance(item, str) else repr(item)

    def _raw_positions(self, key: str) -> list[int]:
        raise NotImplementedError

    # -- descriptor used by the persistent slice-file header -------------

    def describe(self) -> dict:
        """A JSON-able description sufficient to rebuild the family."""
        return {"kind": type(self).__name__, "m": self.m, "k": self.k}


class MD5HashFamily(HashFamily):
    """The paper's MD5-group construction (Section 4)."""

    def _raw_positions(self, key: str) -> list[int]:
        positions: list[int] = []
        repeat = 1
        digest = b""
        group = _GROUPS_PER_DIGEST  # force a digest on first iteration
        while len(positions) < self.k:
            if group >= _GROUPS_PER_DIGEST:
                digest = hashlib.md5((key * repeat).encode("utf-8")).digest()
                repeat += 1
                group = 0
            start = group * _GROUP_BYTES
            value = int.from_bytes(digest[start:start + _GROUP_BYTES], "big")
            positions.append(value % self.m)
            group += 1
        return positions


class ModuloHashFamily(HashFamily):
    """Single hash ``h(x) = x mod m`` from the paper's running example.

    Only meaningful for integer items; kept deliberately simple because
    its role is to reproduce Tables 1-2 verbatim in tests and docs.
    """

    def __init__(self, m: int):
        super().__init__(m, k=1)

    @staticmethod
    def _canonical(item) -> str:
        return str(int(item))

    def _raw_positions(self, key: str) -> list[int]:
        return [int(key) % self.m]


class SuperimposedHashFamily(HashFamily):
    """The classical signature-file coding the paper contrasts with Bloom.

    Footnote 3 of the paper: *"An alternative method ... employed by the
    signature file method, is to hash each item into an m-bit vector and
    superimpose (inclusive-OR) all the vectors ... The bloom filter
    approach is preferred here because it allows us to control the
    number of bits to be set."*

    Hashing an item straight into an m-bit vector sets a *random* number
    of bits: here the realised weight is (approximately Poisson)
    distributed with mean ``k`` instead of being exactly ``k``.  Items
    that land a light vector filter poorly; items that land a heavy one
    densify every signature they touch.  Exposing this family lets the
    ablation benchmark quantify exactly the control the paper's Bloom
    construction buys.
    """

    fixed_arity = False

    def _raw_positions(self, key: str) -> list[int]:
        stream = _DigestStream(key)
        weight = max(1, _poisson_quantile(stream.next_unit(), self.k))
        return [stream.next_int() % self.m for _ in range(weight)]


class _DigestStream:
    """An endless stream of 32-bit values derived from chained MD5."""

    def __init__(self, key: str):
        self._key = key
        self._counter = 0
        self._digest = b""
        self._cursor = _GROUPS_PER_DIGEST

    def next_int(self) -> int:
        """The next 32-bit value of the stream."""
        if self._cursor >= _GROUPS_PER_DIGEST:
            seed = f"{self._key}#{self._counter}".encode("utf-8")
            self._digest = hashlib.md5(seed).digest()
            self._counter += 1
            self._cursor = 0
        start = self._cursor * _GROUP_BYTES
        self._cursor += 1
        return int.from_bytes(self._digest[start:start + _GROUP_BYTES], "big")

    def next_unit(self) -> float:
        """The next value scaled into [0, 1)."""
        return self.next_int() / 2**32


def _poisson_quantile(u: float, mean: float) -> int:
    """Smallest n with PoissonCDF(n; mean) >= u (inverse-CDF sampling)."""
    import math

    probability = math.exp(-mean)
    cumulative = probability
    n = 0
    while cumulative < u and n < 16 * int(mean + 1):
        n += 1
        probability *= mean / n
        cumulative += probability
    return n


_FAMILIES = {
    "MD5HashFamily": MD5HashFamily,
    "ModuloHashFamily": ModuloHashFamily,
    "SuperimposedHashFamily": SuperimposedHashFamily,
}


def family_from_description(desc: dict) -> HashFamily:
    """Rebuild a hash family from :meth:`HashFamily.describe` output."""
    try:
        kind = desc["kind"]
        cls = _FAMILIES[kind]
    except KeyError as exc:
        raise ConfigurationError(f"unknown hash family description: {desc!r}") from exc
    if cls is ModuloHashFamily:
        return ModuloHashFamily(int(desc["m"]))
    return cls(int(desc["m"]), int(desc["k"]))
