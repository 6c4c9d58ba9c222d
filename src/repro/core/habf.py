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

from repro.core.batch import BatchMembership, at_rows
from repro.core.bloom import BloomFilter, probe_matrix, probe_selection
from repro.core.hash_expressor import HashExpressor, walk_chains
from repro.core.params import HABFParams
from repro.core.tpjo import TPJOOptimizer, TPJOStats
from repro.errors import ConfigurationError, ConstructionError
from repro.hashing import vectorized as vec
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
        """Batch form of the two-round query: :func:`contains_window` over
        this filter alone."""
        return contains_window([self], batch)

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


def _family_identity(family):
    """What a family's hash values depend on.

    Each decoded shard builds its own :class:`DoubleHashFamily`, so those
    compare by their parameters; table families compare by identity (the
    ``habf`` backend's shards share the one global Table II family).
    """
    if isinstance(family, DoubleHashFamily):
        return ("double", len(family), family.primitive_name, family.seed)
    return id(family)


def probe_signature(filt) -> Optional[tuple]:
    """What HABFs must share to answer one window in one program, or ``None``.

    The signature is the hash family, the initial selection ``H0`` and the
    chain length ``k``.  ``None`` means ``filt`` cannot join a window
    program: it is no HABF, or its HashExpressor hashes with another family
    than its Bloom filter.
    """
    if not isinstance(filt, HABF):
        return None
    family = _family_identity(filt.bloom.family)
    expressor = filt.expressor
    if expressor is not None and _family_identity(expressor._family) != family:
        return None
    return family, tuple(filt.bloom.initial_selection), filt.params.k


def contains_window(filters: Sequence[HABF], batch, owners=None):
    """The two-round query (Section III-E) of ``batch`` over several HABFs.

    Row ``r`` of ``batch`` is answered by ``filters[owners[r]]``;
    ``owners=None`` means every row is answered by the one filter in
    ``filters``.  Several filters must share one :func:`probe_signature`.
    Their Bloom bit bytes and HashExpressor cells are laid end to end for
    this call only, and each row carries its own filter's modulus and
    offset, so each stage runs once for the whole window:

    1. one H0 probe of every row (:func:`~repro.core.bloom.probe_selection`);
    2. for the first-round misses of filters with a HashExpressor, one
       lock-step chain walk (:func:`~repro.core.hash_expressor.walk_chains`)
       recovers their customised selections;
    3. the rows with a valid selection get one probe under the decoded
       per-key selection matrix (:func:`~repro.core.bloom.probe_matrix`).

    The walk and round 2 hash each family index once over the rows of every
    filter that select it.  Returns a bool vector; requires numpy.
    """
    np = vec.numpy_or_none()
    first = filters[0]
    family = first.bloom.family
    expressors = [filt.expressor for filt in filters]
    if owners is None:
        bits = first.bloom.bits.byte_view()
        bit_modulus = np.uint64(first.bloom.num_bits)
        bit_offset = np.uint64(0)
    else:
        views = [filt.bloom.bits.byte_view() for filt in filters]
        bits = np.concatenate(views)
        sizes = np.array([view.size for view in views], dtype=np.uint64)
        starts = (np.cumsum(sizes) - sizes) * np.uint64(8)
        moduli = np.array([filt.bloom.num_bits for filt in filters], dtype=np.uint64)
        bit_modulus = moduli[owners]
        bit_offset = starts[owners]
    answers = probe_selection(
        family, batch, first.bloom.initial_selection, bits, bit_modulus, bit_offset
    )
    missed = np.flatnonzero(~answers)
    present = [expressor for expressor in expressors if expressor is not None]
    if not missed.size or not present:
        return answers
    if owners is None:
        hash_index, endbit = present[0].cell_arrays()
        cell_modulus = np.uint64(present[0].num_cells)
        cell_offset = np.uint64(0)
    else:
        if len(present) < len(filters):
            # A filter without a HashExpressor (∆ = 0) answers in round 1.
            walks = np.array([expressor is not None for expressor in expressors])
            missed = missed[walks[owners[missed]]]
            if not missed.size:
                return answers
        tables = [expressor.cell_arrays() for expressor in present]
        hash_index = np.concatenate([table[0] for table in tables])
        endbit = np.concatenate([table[1] for table in tables])
        counts = np.array(
            [0 if expressor is None else expressor.num_cells for expressor in expressors],
            dtype=np.uint64,
        )
        missed_owners = owners[missed]
        cell_modulus = counts[missed_owners]
        cell_offset = (np.cumsum(counts) - counts)[missed_owners]
    misses = batch.take(missed)
    selections, valid = walk_chains(
        present[0]._family,
        misses,
        first.params.k,
        hash_index,
        endbit,
        cell_modulus,
        cell_offset,
    )
    recovered = np.flatnonzero(valid)
    if not recovered.size:
        return answers
    rows = missed[recovered]
    answers[rows] = probe_matrix(
        family,
        misses,
        selections[recovered],
        bits,
        at_rows(bit_modulus, rows),
        at_rows(bit_offset, rows),
        rows=recovered,
    )
    return answers
