"""Standard Bloom filter with a per-key hash-selection hook.

This is the substrate the paper builds HABF on.  Besides the classic
``add``/``contains`` interface it exposes:

* ``add_with_selection`` / ``contains_with_selection`` — insert or query a key
  with an explicit subset of the global hash family, which is exactly the hook
  HABF's two-round query and the TPJO optimizer need;
* ``bit_positions`` — the positions a key maps to under a given selection,
  used by TPJO's runtime indexes ``V`` and ``Γ``;
* ``clear_position`` — used by TPJO when an adjusted key abandons a bit that
  (per the ``V`` index) nothing else maps to.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Union

from repro.core.batch import (
    BatchMembership,
    at_rows,
    gather_bits,
    positions_for_matrix,
    positions_for_selection,
)
from repro.core.bitarray import BitArray
from repro.errors import ConfigurationError
from repro.hashing import vectorized as vec
from repro.hashing.base import Key
from repro.hashing.double_hashing import DoubleHashFamily
from repro.hashing.registry import GLOBAL_HASH_FAMILY, HashFamily

FamilyLike = Union[HashFamily, DoubleHashFamily]


def optimal_num_hashes(bits_per_key: float) -> int:
    """Return the FPR-optimal hash count ``k = ln2 · b`` (at least 1)."""
    if bits_per_key <= 0:
        raise ConfigurationError("bits_per_key must be positive")
    return max(1, int(round(math.log(2) * bits_per_key)))


def probe_selection(family, batch, selection: Sequence[int], bits, modulus, offset):
    """Test every row of ``batch`` under one fixed hash selection (H0).

    ``bits`` holds one or more filters' bit bytes end to end; row ``r``
    probes the filter whose table starts at bit ``offset[r]`` and holds
    ``modulus[r]`` bits (each may also be one scalar for every row, see
    :func:`~repro.core.batch.at_rows`).  The filters must share ``family``.

    For a table family the probe short-circuits row by row: keys that miss
    hash ``i`` are dropped from the batch before hash ``i+1`` runs, so a
    mixed workload pays roughly ``1/(1-fill)`` hash rows instead of ``k``.
    Double-hashing families skip the short-circuit — their ``k`` rows all
    derive from one memoised base pass, so dropping rows saves almost
    nothing and would re-slice the batch per row.  Returns a bool vector.
    """
    np = vec.numpy_or_none()
    if isinstance(family, DoubleHashFamily):
        positions = family.hash_many(batch, indexes=list(selection)) % modulus + offset
        return gather_bits(bits, positions).all(axis=0)
    answers = np.ones(len(batch), dtype=bool)
    alive = None  # None means "all rows", avoiding an initial take()
    for index in selection:
        sub = batch if alive is None else batch.take(alive)
        raw = family[index].hash_many(sub)
        hits = gather_bits(bits, raw % at_rows(modulus, alive) + at_rows(offset, alive))
        if alive is None:
            answers &= hits
            alive = np.flatnonzero(hits)
        else:
            answers[alive[~hits]] = False
            alive = alive[hits]
        if not alive.size:
            break
    return answers


def probe_matrix(family, batch, selection_matrix, bits, modulus, offset, rows=None):
    """Test batch rows under per-key selections (HABF round 2).

    Row ``i`` of ``selection_matrix`` is the selection of batch row
    ``rows[i]`` (see :func:`~repro.core.batch.positions_for_matrix`);
    ``bits``, ``modulus`` and ``offset`` are as in :func:`probe_selection`,
    with one entry per matrix row.  One bit gather answers every row.
    """
    np = vec.numpy_or_none()
    positions = positions_for_matrix(family, batch, selection_matrix, modulus, rows=rows)
    offset = np.asarray(offset, dtype=np.uint64).reshape(-1, 1)
    return gather_bits(bits, positions + offset).all(axis=1)


class BloomFilter(BatchMembership):
    """A standard Bloom filter over a configurable hash family.

    Args:
        num_bits: Size ``m`` of the underlying bit array.
        num_hashes: Number of hash functions ``k`` applied per key.
        family: Hash family to draw functions from; defaults to the paper's
            Table II family.  A :class:`~repro.hashing.double_hashing.DoubleHashFamily`
            may be supplied for Kirsch–Mitzenmacher double hashing.
        selection: Initial hash selection ``H0`` as indexes into ``family``;
            defaults to the first ``num_hashes`` members.
    """

    def __init__(
        self,
        num_bits: int,
        num_hashes: int,
        family: Optional[FamilyLike] = None,
        selection: Optional[Sequence[int]] = None,
    ) -> None:
        if num_bits <= 0:
            raise ConfigurationError("num_bits must be positive")
        if num_hashes < 1:
            raise ConfigurationError("num_hashes must be at least 1")
        self._family: FamilyLike = family if family is not None else GLOBAL_HASH_FAMILY
        if num_hashes > len(self._family):
            raise ConfigurationError(
                f"num_hashes={num_hashes} exceeds hash family size {len(self._family)}"
            )
        self._bits = BitArray(num_bits)
        self._num_hashes = num_hashes
        if selection is None:
            self._initial_selection: List[int] = self._family.initial_selection(num_hashes)
        else:
            self._initial_selection = list(selection)
            if len(self._initial_selection) != num_hashes:
                raise ConfigurationError(
                    "selection length must equal num_hashes "
                    f"({len(self._initial_selection)} != {num_hashes})"
                )
        self._num_items = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_bits(self) -> int:
        """Size ``m`` of the bit array."""
        return len(self._bits)

    @property
    def num_hashes(self) -> int:
        """Number of hash functions ``k`` per key."""
        return self._num_hashes

    @property
    def family(self) -> FamilyLike:
        """The hash family this filter draws from."""
        return self._family

    @property
    def initial_selection(self) -> List[int]:
        """The default hash selection ``H0`` (indexes into the family)."""
        return list(self._initial_selection)

    @property
    def num_items(self) -> int:
        """Number of keys inserted so far."""
        return self._num_items

    @property
    def bits(self) -> BitArray:
        """The underlying bit array (shared, not copied)."""
        return self._bits

    def fill_ratio(self) -> float:
        """Fraction of bits set to 1."""
        return self._bits.fill_ratio()

    def size_in_bits(self) -> int:
        """Space used by the bit payload, in bits."""
        return len(self._bits)

    def size_in_bytes(self) -> int:
        """Space used by the bit payload, in bytes."""
        return self._bits.size_in_bytes()

    # ------------------------------------------------------------------ #
    # Hashing helpers
    # ------------------------------------------------------------------ #
    def bit_positions(self, key: Key, selection: Optional[Sequence[int]] = None) -> List[int]:
        """Return the bit positions ``key`` maps to under ``selection`` (or H0)."""
        indexes = self._initial_selection if selection is None else selection
        modulus = len(self._bits)
        return [self._family[i](key, modulus) for i in indexes]

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, key: Key) -> None:
        """Insert ``key`` using the initial hash selection ``H0``."""
        self.add_with_selection(key, self._initial_selection)

    def add_all(self, keys: Iterable[Key]) -> None:
        """Insert every key in ``keys`` using ``H0``.

        Prefer :meth:`add_many` for large key sets — it routes through the
        batch engine; this scalar loop is kept for incremental use and as the
        numpy-free reference semantics.
        """
        for key in keys:
            self.add(key)

    def add_with_selection(self, key: Key, selection: Sequence[int]) -> None:
        """Insert ``key`` using an explicit hash selection."""
        for position in self.bit_positions(key, selection):
            self._bits.set(position)
        self._num_items += 1

    def _insert_selection_batch(self, batch, selection: Sequence[int]) -> None:
        """Engine round: insert a whole batch under one fixed selection.

        One ``(k, n)`` position pass plus one ``set_many`` over the shared
        ``bytearray`` — serialization stays byte-identical to the scalar
        insert loop.
        """
        positions = positions_for_selection(
            self._family, batch, selection, len(self._bits)
        )
        self._bits.set_many(positions.reshape(-1))
        self._num_items += len(batch)

    def _add_batch(self, batch) -> bool:
        """Batch form of :meth:`add`: one H0 position pass + ``set_many``."""
        self._insert_selection_batch(batch, self._initial_selection)
        return True

    def add_many_with_selection(self, keys: Iterable[Key], selection: Sequence[int]) -> None:
        """Bulk form of :meth:`add_with_selection` (one fixed selection for all).

        Used by filters that insert key groups under distinct selections
        (e.g. Ada-BF's score groups); falls back to the scalar loop when
        numpy is absent, with identical resulting bits.
        """
        keys = list(keys)
        np = vec.numpy_or_none()
        if np is not None and keys:
            self._insert_selection_batch(vec.KeyBatch(keys), selection)
            return
        for key in keys:
            self.add_with_selection(key, selection)

    @classmethod
    def from_keys(
        cls,
        keys: Iterable[Key],
        num_bits: Optional[int] = None,
        num_hashes: Optional[int] = None,
        bits_per_key: float = 10.0,
        family: Optional[FamilyLike] = None,
        selection: Optional[Sequence[int]] = None,
    ) -> "BloomFilter":
        """Build a Bloom filter from a key set via the bulk-build path.

        Args:
            keys: The keys to insert (consumed once).
            num_bits: Explicit bit-array size; derived from ``bits_per_key``
                and ``len(keys)`` when omitted.
            num_hashes: Explicit hash count; derived from the effective
                bits-per-key when omitted.
            bits_per_key: Space budget used for derivation.
            family: Hash family override (see :class:`BloomFilter`).
            selection: Initial hash selection ``H0`` override.
        """
        keys = list(keys)
        if num_bits is None:
            num_bits = max(8, int(round(bits_per_key * max(1, len(keys)))))
        if num_hashes is None:
            num_hashes = optimal_num_hashes(num_bits / max(1, len(keys)))
        bloom = cls(
            num_bits=num_bits, num_hashes=num_hashes, family=family, selection=selection
        )
        bloom.add_many(keys)
        return bloom

    def set_position(self, position: int) -> None:
        """Set an individual bit; used by the TPJO optimizer."""
        self._bits.set(position)

    def add_positions_many(self, positions, num_keys: int) -> None:
        """Commit precomputed bit positions as ``num_keys`` insertions.

        TPJO hook: the optimizer computes the H0 position matrix itself (it
        needs the per-key positions for its ``V`` index) and hands the whole
        matrix here, so the bits are set in one ``set_many`` instead of a
        per-key loop.
        """
        self._bits.set_many(positions)
        self._num_items += num_keys

    def clear_position(self, position: int) -> None:
        """Clear an individual bit; only safe when the caller knows (via the
        ``V`` index) that no other key maps to it."""
        self._bits.clear(position)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def contains(self, key: Key) -> bool:
        """Membership test with the initial hash selection ``H0``."""
        return self.contains_with_selection(key, self._initial_selection)

    def contains_with_selection(self, key: Key, selection: Sequence[int]) -> bool:
        """Membership test with an explicit hash selection."""
        modulus = len(self._bits)
        return all(self._bits.test(self._family[i](key, modulus)) for i in selection)

    def __contains__(self, key: Key) -> bool:
        return self.contains(key)

    def _probe_batch(self, batch, selection: Sequence[int]):
        """Engine round: test a whole batch under one fixed selection (see
        :func:`probe_selection`, here over this filter's table alone)."""
        np = vec.numpy_or_none()
        return probe_selection(
            self._family,
            batch,
            selection,
            self._bits.byte_view(),
            np.uint64(len(self._bits)),
            np.uint64(0),
        )

    def _contains_batch(self, batch):
        """Batch form of :meth:`contains`: one H0 array probe."""
        return self._probe_batch(batch, self._initial_selection)

    def _contains_fallback(self, keys):
        """numpy-less batch path: hash functions and the bit test are
        resolved once per batch instead of once per key, which is where the
        scalar loop spends its dispatch overhead."""
        functions = [self._family[i] for i in self._initial_selection]
        test = self._bits.test
        modulus = len(self._bits)
        return [all(test(fn(key, modulus)) for fn in functions) for key in keys]

    def expected_fpr(self) -> float:
        """Analytic FPR estimate ``(1 - e^{-kn/m})^k`` for the current load."""
        if self._num_items == 0:
            return 0.0
        exponent = -self._num_hashes * self._num_items / len(self._bits)
        return (1.0 - math.exp(exponent)) ** self._num_hashes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BloomFilter(num_bits={len(self._bits)}, k={self._num_hashes}, "
            f"items={self._num_items})"
        )
