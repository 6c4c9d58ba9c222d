"""The shared batch-membership engine interface.

Every filter in the library mixes in :class:`BatchMembership`, which defines
the public batch query ``contains_many(keys) -> List[bool]`` and the bulk
construction entry ``add_many(keys)`` once: encode the keys into one
:class:`~repro.hashing.vectorized.KeyBatch`, hand it to the filter's
``_contains_batch`` / ``_add_batch`` array program, and fall back to the
scalar ``contains`` / ``add`` loop when numpy is absent (or the filter has
no batch path).  The membership hot paths thereby stop being "a loop over
``contains``" (or ``add``) and become one array program per filter, while
the scalar semantics stay the single source of truth — the engine must agree
with them bit for bit (pinned by ``tests/core/test_batch_equivalence.py``
for queries and ``tests/core/test_batch_build_equivalence.py`` for
construction).

The module also hosts the two position kernels shared by the Bloom-probing
filters:

* :func:`positions_for_selection` — one *fixed* hash selection applied to a
  whole batch (Bloom round 1, H0);
* :func:`positions_for_matrix` — a *per-key* selection matrix, as decoded
  from the HashExpressor (Bloom round 2).  For a
  :class:`~repro.hashing.double_hashing.DoubleHashFamily` this collapses to
  one vectorized multiply-add off the shared h1/h2 base pass; for a table
  family the keys are grouped by selected function and each group hashes
  only its own rows, so each primitive runs once per distinct index over
  that index's rows.  Round 2 is sparse — most first-round misses carry no
  selection — so it never pays a pass over the whole serving window
  (see invariant 3 in ``docs/ARCHITECTURE.md``).

Both the position kernels and the HABF window program
(:func:`repro.core.habf.contains_window`) accept rows that belong to
several filters at once: each row carries its filter's modulus (and the
caller adds its table offset), see :func:`at_rows`, and
:func:`gather_bits` reads the filters' bit bytes laid end to end.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.errors import ConstructionError
from repro.hashing import vectorized as vec
from repro.hashing.base import Key
from repro.hashing.double_hashing import DoubleHashFamily


class BatchMembership:
    """Mixin providing the engine-backed ``contains_many`` and ``add_many``.

    Subclasses override :meth:`_contains_batch` (and, for incrementally
    buildable filters, :meth:`_add_batch`) with an array program over a
    :class:`~repro.hashing.vectorized.KeyBatch`; the mixin handles encoding,
    the numpy gate and the scalar fallback.  Filters that cannot vectorize
    simply inherit the fallback loops, so every filter in the library exposes
    the same batch interface.
    """

    def contains_many(self, keys: Iterable[Key]) -> List[bool]:
        """Vector form of ``contains``, in input order."""
        keys = list(keys)
        np = vec.numpy_or_none()
        if np is not None and keys:
            answers = self._contains_batch(vec.KeyBatch(keys))
            if answers is not None:
                return answers.tolist()
        return self._contains_fallback(keys)

    def add_many(self, keys: Iterable[Key]) -> None:
        """Bulk form of ``add``: encode once, insert the whole batch.

        The resulting filter state is bit-for-bit identical to looping the
        scalar ``add`` over ``keys`` (pinned by
        ``tests/core/test_batch_build_equivalence.py``), so serialized codec
        frames do not depend on which path built the filter.  Filters without
        an ``_add_batch`` array program — or any filter when numpy is absent
        — take the scalar fallback loop.  Build-once filters (no ``add``,
        e.g. the Xor filter) raise
        :class:`~repro.errors.ConstructionError` instead of failing with an
        attribute lookup.
        """
        keys = list(keys)
        np = vec.numpy_or_none()
        if np is not None and keys:
            if self._add_batch(vec.KeyBatch(keys)):
                return
        self._add_fallback(keys)

    def _add_fallback(self, keys: List[Key]) -> None:
        """Scalar bulk-insert path used when numpy (or a batch program) is absent."""
        add = getattr(self, "add", None)
        if add is None and keys:
            raise ConstructionError(
                f"{type(self).__name__} is built once from its key set and does "
                "not support incremental insertion (add_many)"
            )
        for key in keys:
            add(key)

    def _add_batch(self, batch: "vec.KeyBatch") -> bool:
        """Insert a whole encoded batch; return ``True`` if handled.

        ``False`` means "no bulk-build path for this filter" and routes the
        call to the scalar fallback.  Only invoked when numpy is available.
        """
        return False

    def _contains_fallback(self, keys: List[Key]) -> List[bool]:
        """Scalar batch path used when numpy (or a batch program) is absent.

        Filters whose scalar query re-resolves state per call can override
        this to hoist that dispatch out of the loop (see ``BloomFilter``).
        """
        return [self.contains(key) for key in keys]

    def _contains_batch(self, batch: "vec.KeyBatch"):
        """Answer a whole encoded batch; return a bool ndarray or ``None``.

        ``None`` means "no batch path for this filter" and routes the call to
        the scalar fallback.  Only invoked when numpy is available.
        """
        return None


def positions_for_selection(family, batch: "vec.KeyBatch", selection: Sequence[int], modulus: int):
    """Bit positions of every key under one fixed hash selection.

    Returns a ``(len(selection), len(batch))`` array; row ``i`` holds the
    positions of all keys under ``family[selection[i]]`` reduced modulo
    ``modulus``.  Family-level ``hash_many`` deduplicates the underlying
    work (one primitive pass per selected function; one shared base pass for
    double hashing).
    """
    return family.hash_many(batch, indexes=list(selection), modulus=modulus)


def at_rows(values, rows):
    """A per-row parameter restricted to ``rows``.

    The engine's kernels take each row's modulus and table offset either as
    one scalar, when every row probes the same filter, or as a vector with
    one entry per row, when the rows probe several filters' tables laid end
    to end.  A scalar applies to every row; ``rows=None`` means all rows.
    """
    if rows is None or values.ndim == 0:
        return values
    return values[rows]


def gather_bits(bits, positions):
    """Gather the bits at ``positions`` from the uint8 array ``bits``.

    ``bits`` holds one or more filters' bit bytes end to end (see
    :meth:`~repro.core.bitarray.BitArray.byte_view`), and each position
    already includes its filter's bit offset.  Positions come from a
    modulus reduction, so they are in range by construction.  Returns a
    bool array of the same shape.
    """
    np = vec.numpy_or_none()
    shift = (positions & np.uint64(7)).astype(np.uint8)
    return (bits[positions >> np.uint64(3)] >> shift) & 1 != 0


def _positions_for_group(family, batch, family_index: int, group_rows, modulus):
    """Positions of the keys at ``group_rows`` under one family member.

    The HashExpressor chain walk and the HABF second round are sparse: each
    family-index group holds a few of the window's rows.  The group reads
    the member's pass when the window already holds it (a stage that needed
    every row memoised it there, e.g. an H0 member), and otherwise hashes
    only its own rows — the scalar loop at or below
    :data:`~repro.hashing.vectorized.SCALAR_CROSSOVER_ROWS` — never a
    whole-window pass (see :func:`~repro.hashing.vectorized.hash_rows`).
    ``modulus`` is one value or one per group row.
    """
    function = family[family_index]
    group = batch.take(group_rows)
    # Memoise the group's own rows first, so hash_many below reads them
    # instead of starting a pass over the whole window.
    vec.hash_rows(function.primitive, group)
    return function.hash_many(group) % modulus


def positions_for_matrix(family, batch: "vec.KeyBatch", selection_matrix, modulus, rows=None):
    """Bit positions under a per-key selection matrix.

    ``selection_matrix`` is ``(m, k)`` of family indexes — row ``i`` is the
    customised selection (as recovered from the HashExpressor) of the key at
    batch row ``rows[i]`` (``rows=None`` means rows ``0..m-1``, i.e. the
    whole batch).  ``modulus`` is one int, or a vector with one entry per
    matrix row when the rows belong to filters of different sizes.  Returns
    positions of the same shape.  A table family hashes each family index
    once, over every row and column that selects it (see
    :func:`_positions_for_group`); a double-hashing family derives every
    column from the batch's one memoised base pass.
    """
    np = vec.numpy_or_none()
    selection_matrix = np.asarray(selection_matrix, dtype=np.int64)
    modulus = np.asarray(modulus, dtype=np.uint64)
    if rows is None:
        rows = np.arange(selection_matrix.shape[0])
    if isinstance(family, DoubleHashFamily):
        h1, h2 = family.base_hashes_many(batch)
        h1, odd = h1[rows], (h2 | np.uint64(1))[rows]
        steps = (selection_matrix + 1).astype(np.uint64)
        return (h1[:, None] + steps * odd[:, None]) % modulus.reshape(-1, 1)
    width = selection_matrix.shape[1]
    indexes = selection_matrix.reshape(-1)
    entry_rows = np.repeat(rows, width)
    entry_modulus = modulus if modulus.ndim == 0 else np.repeat(modulus, width)
    positions = np.zeros(indexes.shape, dtype=np.uint64)
    for family_index in np.unique(indexes):
        members = np.flatnonzero(indexes == family_index)
        positions[members] = _positions_for_group(
            family,
            batch,
            int(family_index),
            entry_rows[members],
            at_rows(entry_modulus, members),
        )
    return positions.reshape(selection_matrix.shape)


def hash_for_index_vector(family, batch: "vec.KeyBatch", indexes, modulus, rows=None):
    """One hash per entry where entry ``i`` uses ``family[indexes[i]]``.

    The single-column case of :func:`positions_for_matrix`; used by the
    HashExpressor chain walk, where each step's next cell is addressed by the
    hash function stored in the current cell.  ``rows`` maps the entries onto
    batch rows, letting the walk hash only the chains still alive, and
    ``modulus`` is one int or one per entry.
    """
    np = vec.numpy_or_none()
    return positions_for_matrix(
        family, batch, np.asarray(indexes, dtype=np.int64)[:, None], modulus, rows=rows
    )[:, 0]


__all__ = [
    "BatchMembership",
    "at_rows",
    "gather_bits",
    "positions_for_selection",
    "positions_for_matrix",
    "hash_for_index_vector",
]
