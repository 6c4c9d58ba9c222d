"""Hash Adaptive Bloom Filter (HABF) and its fast variant f-HABF.

A :class:`HABF` is the composition the paper's Fig. 1 shows: a standard Bloom
filter plus a :class:`~repro.core.hash_expressor.HashExpressor`, constructed
by the :class:`~repro.core.tpjo.TPJOOptimizer` from the positive keys, the
known negative keys and (optionally) per-key misidentification costs.

Queries follow the two-round pattern of Section III-E, which preserves the
zero-false-negative guarantee:

1. test the key with the initial hash selection ``H0``; if it hits, report
   *positive*;
2. otherwise ask the HashExpressor for a customised selection; if one is
   returned, test the key again with it and report the result, else report
   *negative*.

:class:`FastHABF` (the paper's f-HABF) trades accuracy for construction and
query speed by using Kirsch–Mitzenmacher double hashing and disabling the
``Γ`` conflict-detection index during construction.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Union

from repro.core.batch import BatchMembership
from repro.core.bloom import BloomFilter
from repro.core.hash_expressor import HashExpressor
from repro.core.params import HABFParams
from repro.core.tpjo import TPJOOptimizer, TPJOStats
from repro.errors import ConfigurationError, ConstructionError
from repro.hashing.base import Key
from repro.hashing.double_hashing import DoubleHashFamily
from repro.hashing.registry import GLOBAL_HASH_FAMILY, HashFamily

FamilyLike = Union[HashFamily, DoubleHashFamily]


class HABF(BatchMembership):
    """Hash Adaptive Bloom Filter (paper Sections III-C through III-E).

    The usual way to obtain one is :meth:`HABF.build`, which runs the full
    TPJO construction.  The resulting object supports ``key in habf`` with the
    two-round query and exposes the exact space split between its Bloom filter
    and HashExpressor halves.

    Args:
        params: Structural parameters (space budget, k, ∆, cell size, seed).
        family: Hash family to draw from; defaults to the Table II family.
        use_gamma: Whether TPJO should run conflict detection; ``False`` is the
            f-HABF fast construction.
    """

    #: Human-readable algorithm label used by the experiment reports.
    algorithm_name = "HABF"

    def __init__(
        self,
        params: HABFParams,
        family: Optional[FamilyLike] = None,
        use_gamma: bool = True,
    ) -> None:
        self._params = params
        self._family: FamilyLike = family if family is not None else GLOBAL_HASH_FAMILY
        if params.k > len(self._family):
            raise ConfigurationError(
                f"k={params.k} exceeds the hash family size {len(self._family)}"
            )
        if params.bloom_bits <= 0:
            raise ConfigurationError("space budget leaves no room for the Bloom filter")
        self._use_gamma = use_gamma
        self._bloom = BloomFilter(
            num_bits=max(1, params.bloom_bits),
            num_hashes=params.k,
            family=self._family,
        )
        if params.num_cells > 0:
            self._expressor: Optional[HashExpressor] = HashExpressor(
                num_cells=params.num_cells,
                cell_hash_bits=params.cell_hash_bits,
                family=self._family,  # type: ignore[arg-type]
            )
        else:
            self._expressor = None
        self._stats: Optional[TPJOStats] = None
        self._built = False

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        positives: Sequence[Key],
        negatives: Sequence[Key] = (),
        costs: Optional[Mapping[Key, float]] = None,
        params: Optional[HABFParams] = None,
        bits_per_key: float = 10.0,
        family: Optional[FamilyLike] = None,
        use_gamma: bool = True,
    ) -> "HABF":
        """Construct a HABF from key sets.

        Args:
            positives: The positive key set ``S`` (must be non-empty).
            negatives: The known negative key set ``O`` used to steer TPJO.
            costs: Optional per-key misidentification costs ``Θ``.
            params: Explicit structural parameters; if omitted they are derived
                from ``bits_per_key`` and ``len(positives)``.
            bits_per_key: Space budget used when ``params`` is omitted.
            family: Hash family override.
            use_gamma: Enable conflict detection (disable for f-HABF behaviour).
        """
        positives = list(positives)
        if not positives:
            raise ConstructionError("cannot build a HABF from an empty positive set")
        if params is None:
            params = HABFParams.from_bits_per_key(bits_per_key, len(positives))
        habf = cls(params=params, family=family, use_gamma=use_gamma)
        habf.fit(positives, negatives, costs)
        return habf

    def fit(
        self,
        positives: Sequence[Key],
        negatives: Sequence[Key] = (),
        costs: Optional[Mapping[Key, float]] = None,
    ) -> TPJOStats:
        """Run the TPJO construction on this (empty) filter and return its stats."""
        if self._built:
            raise ConstructionError("this HABF has already been built")
        positives = list(positives)
        negatives = list(negatives)
        if not positives:
            raise ConstructionError("cannot build a HABF from an empty positive set")
        overlap = set(positives) & set(negatives)
        if overlap:
            raise ConstructionError(
                f"positive and negative key sets must be disjoint; "
                f"{len(overlap)} keys appear in both"
            )
        if self._expressor is None or not negatives:
            # Degenerate case (∆=0 or no negative information): plain Bloom
            # filter, bulk-inserted through the engine.
            self._bloom.add_many(positives)
            self._stats = TPJOStats(
                num_positive=len(positives), num_negative=len(negatives)
            )
        else:
            optimizer = TPJOOptimizer(
                bloom=self._bloom,
                expressor=self._expressor,
                params=self._params,
                use_gamma=self._use_gamma,
            )
            self._stats = optimizer.optimize(positives, negatives, costs)
        self._built = True
        return self._stats

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def contains(self, key: Key) -> bool:
        """Two-round membership test (zero false negatives by construction)."""
        if self._bloom.contains(key):
            return True
        if self._expressor is None:
            return False
        selection = self._expressor.query(key, self._params.k)
        if selection is None:
            return False
        return self._bloom.contains_with_selection(key, selection)

    def __contains__(self, key: Key) -> bool:
        return self.contains(key)

    def _contains_batch(self, batch):
        """Batch form of the two-round query.

        Round 1 is one vectorized H0 Bloom probe over the whole batch.  Only
        the first-round misses (typically the negatives) enter round 2: one
        lock-step HashExpressor chain walk recovers their customised
        selections, and the keys with a valid selection get a second
        vectorized Bloom probe under the decoded per-key selection matrix.
        """
        from repro.hashing import vectorized as vec

        np = vec.numpy_or_none()
        answers = self._bloom._contains_batch(batch)
        expressor = self._expressor
        if expressor is None:
            return answers
        missed = np.flatnonzero(~answers)
        if not missed.size:
            return answers
        misses = batch.take(missed)
        selections, valid = expressor.query_many_batch(misses, self._params.k)
        recovered = np.flatnonzero(valid)
        if not recovered.size:
            return answers
        answers[missed[recovered]] = self._bloom._probe_matrix(
            misses, selections[recovered], rows=recovered
        )
        return answers

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def params(self) -> HABFParams:
        """The structural parameters this filter was built with."""
        return self._params

    @property
    def bloom(self) -> BloomFilter:
        """The underlying standard Bloom filter."""
        return self._bloom

    @property
    def expressor(self) -> Optional[HashExpressor]:
        """The HashExpressor, or ``None`` when ∆ = 0."""
        return self._expressor

    @property
    def construction_stats(self) -> Optional[TPJOStats]:
        """TPJO statistics from the build, or ``None`` before :meth:`fit`."""
        return self._stats

    def size_in_bits(self) -> int:
        """Total serialized size: Bloom-filter bits plus HashExpressor cells."""
        expressor_bits = self._expressor.size_in_bits() if self._expressor else 0
        return self._bloom.size_in_bits() + expressor_bits

    def size_in_bytes(self) -> int:
        """Total serialized size in bytes (rounded up)."""
        return (self.size_in_bits() + 7) // 8

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cells = self._expressor.num_cells if self._expressor else 0
        return (
            f"{self.algorithm_name}(bloom_bits={self._bloom.num_bits}, "
            f"cells={cells}, k={self._params.k})"
        )


class FastHABF(HABF):
    """f-HABF: double hashing plus the Γ-free fast construction (Section III-G)."""

    algorithm_name = "f-HABF"

    def __init__(
        self,
        params: HABFParams,
        family: Optional[FamilyLike] = None,
        base_primitive: str = "xxhash",
    ) -> None:
        if family is None:
            family = DoubleHashFamily(
                size=min(len(GLOBAL_HASH_FAMILY), max(params.k, params.max_hash_functions)),
                primitive=base_primitive,
                seed=params.seed,
            )
        super().__init__(params=params, family=family, use_gamma=False)

    @classmethod
    def build(
        cls,
        positives: Sequence[Key],
        negatives: Sequence[Key] = (),
        costs: Optional[Mapping[Key, float]] = None,
        params: Optional[HABFParams] = None,
        bits_per_key: float = 10.0,
        family: Optional[FamilyLike] = None,
        use_gamma: bool = False,
        base_primitive: str = "xxhash",
    ) -> "FastHABF":
        """Construct an f-HABF; mirrors :meth:`HABF.build`."""
        positives = list(positives)
        if not positives:
            raise ConstructionError("cannot build a HABF from an empty positive set")
        if params is None:
            params = HABFParams.from_bits_per_key(bits_per_key, len(positives))
        habf = cls(params=params, family=family, base_primitive=base_primitive)
        habf.fit(positives, negatives, costs)
        return habf
