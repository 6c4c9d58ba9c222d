"""A compact bit vector backed by a ``bytearray``.

Every filter in this package stores its membership bits in a :class:`BitArray`.
The implementation favours clarity and exact space accounting over raw speed
on the scalar paths; the batch engine's :meth:`BitArray.set_many` and
:meth:`BitArray.test_many` additionally expose the same ``bytearray`` as a
writable numpy view, so whole index vectors are set and tested as one array
program.  Because the numpy view aliases the *same* buffer, serialization
(:meth:`BitArray.to_bytes` and the :mod:`repro.service.codec` frames built on
it) is byte-identical whichever path populated the bits, and a pure-Python
fallback keeps every batch entry point working when numpy is absent.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import ConfigurationError
from repro.hashing import vectorized as _vec

_POPCOUNT_TABLE = bytes(bin(i).count("1") for i in range(256))


class BitArray:
    """A fixed-length array of bits with set/test/clear and popcount support.

    Args:
        num_bits: Length of the array in bits; must be positive.
    """

    __slots__ = ("_num_bits", "_buffer")

    def __init__(self, num_bits: int) -> None:
        if num_bits <= 0:
            raise ConfigurationError(f"BitArray size must be positive, got {num_bits}")
        self._num_bits = num_bits
        self._buffer = bytearray((num_bits + 7) // 8)

    @classmethod
    def from_indices(cls, num_bits: int, indices: Iterable[int]) -> "BitArray":
        """Create an array of ``num_bits`` with the given ``indices`` set to 1."""
        array = cls(num_bits)
        for index in indices:
            array.set(index)
        return array

    def __len__(self) -> int:
        return self._num_bits

    def _check(self, index: int) -> int:
        if index < 0:
            index += self._num_bits
        if not 0 <= index < self._num_bits:
            raise IndexError(f"bit index {index} out of range for {self._num_bits} bits")
        return index

    def set(self, index: int) -> None:
        """Set the bit at ``index`` to 1."""
        index = self._check(index)
        self._buffer[index >> 3] |= 1 << (index & 7)

    def clear(self, index: int) -> None:
        """Set the bit at ``index`` to 0."""
        index = self._check(index)
        self._buffer[index >> 3] &= ~(1 << (index & 7)) & 0xFF

    def test(self, index: int) -> bool:
        """Return ``True`` if the bit at ``index`` is 1."""
        index = self._check(index)
        return bool(self._buffer[index >> 3] & (1 << (index & 7)))

    def __getitem__(self, index: int) -> bool:
        return self.test(index)

    def __setitem__(self, index: int, value: object) -> None:
        if value:
            self.set(index)
        else:
            self.clear(index)

    def set_all(self, indices: Iterable[int]) -> None:
        """Set every bit listed in ``indices``."""
        for index in indices:
            self.set(index)

    def test_all(self, indices: Iterable[int]) -> bool:
        """Return ``True`` only if every bit listed in ``indices`` is 1."""
        return all(self.test(index) for index in indices)

    # ------------------------------------------------------------------ #
    # Batch engine
    # ------------------------------------------------------------------ #
    def _checked_index_vector(self, np, indices):
        index = np.asarray(indices, dtype=np.int64).ravel()
        # Two reductions clear the common all-in-range case; the wrap and the
        # per-entry check run only when an index is negative or too large.
        if index.size and (index.min() < 0 or index.max() >= self._num_bits):
            index = np.where(index < 0, index + self._num_bits, index)
            bad = (index < 0) | (index >= self._num_bits)
            if bad.any():
                offender = int(np.asarray(indices, dtype=np.int64).ravel()[np.flatnonzero(bad)[0]])
                raise IndexError(
                    f"bit index {offender} out of range for {self._num_bits} bits"
                )
        return index

    def set_many(self, indices) -> None:
        """Set every bit listed in ``indices`` (vectorized when numpy exists).

        Accepts any integer sequence or ndarray, with the same negative-index
        wrapping and bounds checking as :meth:`set`.  Duplicate indices are
        fine (``bitwise_or.at`` accumulates per byte).
        """
        np = _vec.numpy_or_none()
        if np is None:
            self.set_all(int(index) for index in indices)
            return
        index = self._checked_index_vector(np, indices)
        if not index.size:
            return
        view = self.byte_view()
        np.bitwise_or.at(
            view, index >> 3, np.uint8(1) << (index & 7).astype(np.uint8)
        )

    def test_many(self, indices):
        """Test every bit listed in ``indices``, in order.

        Returns a bool ndarray when numpy is available and a plain list of
        bools otherwise; index semantics match :meth:`test`.
        """
        np = _vec.numpy_or_none()
        if np is None:
            return [self.test(int(index)) for index in indices]
        index = self._checked_index_vector(np, indices)
        view = self.byte_view()
        return (view[index >> 3] >> (index & 7).astype(np.uint8)) & 1 != 0

    def byte_view(self):
        """The bit bytes as a uint8 ndarray aliasing this array's buffer.

        Bit ``i`` is bit ``i & 7`` of byte ``i >> 3``.  The batch engine
        gathers bits through this view, and lays several filters' views end
        to end to probe them in one gather.  Requires numpy.
        """
        np = _vec.numpy_or_none()
        return np.frombuffer(self._buffer, dtype=np.uint8)

    def count(self) -> int:
        """Return the number of bits set to 1 (popcount)."""
        return sum(_POPCOUNT_TABLE[byte] for byte in self._buffer)

    def fill_ratio(self) -> float:
        """Return the fraction of bits set to 1."""
        return self.count() / self._num_bits

    def reset(self) -> None:
        """Clear every bit."""
        for i in range(len(self._buffer)):
            self._buffer[i] = 0

    def copy(self) -> "BitArray":
        """Return a deep copy of this array."""
        clone = BitArray(self._num_bits)
        clone._buffer[:] = self._buffer
        return clone

    def iter_set_bits(self) -> Iterator[int]:
        """Yield the indices of all bits currently set to 1, in order."""
        for byte_index, byte in enumerate(self._buffer):
            if not byte:
                continue
            base = byte_index << 3
            for offset in range(8):
                if byte & (1 << offset):
                    index = base + offset
                    if index < self._num_bits:
                        yield index

    def to_bytes(self) -> bytes:
        """Return the packed little-endian byte representation."""
        return bytes(self._buffer)

    @classmethod
    def from_bytes(cls, num_bits: int, data: bytes) -> "BitArray":
        """Rebuild an array from :meth:`to_bytes` output."""
        array = cls(num_bits)
        expected = (num_bits + 7) // 8
        if len(data) != expected:
            raise ConfigurationError(
                f"expected {expected} bytes for {num_bits} bits, got {len(data)}"
            )
        array._buffer[:] = data
        return array

    @classmethod
    def view(cls, num_bits: int, buffer) -> "BitArray":
        """Wrap an existing buffer as a :class:`BitArray` without copying.

        ``buffer`` is any object exporting the buffer protocol over exactly
        ``(num_bits + 7) // 8`` bytes — a ``bytes``, ``bytearray``,
        ``memoryview``, or a slice of a ``multiprocessing.shared_memory``
        mapping.  The returned array *aliases* the buffer: no bytes are
        copied, and :meth:`test` / :meth:`test_many` / :meth:`to_bytes` read
        straight from it.  This is what lets N replica processes serve the
        same filter payload from one shared-memory segment.

        Mutators (:meth:`set`, :meth:`set_many`, :meth:`clear`,
        :meth:`reset`) work only when the buffer is writable; over a
        read-only buffer they raise ``TypeError``/``ValueError`` from the
        buffer itself.  Serving-side filters are immutable after build, so
        read-only views are the intended use.
        """
        if num_bits <= 0:
            raise ConfigurationError(f"BitArray size must be positive, got {num_bits}")
        data = memoryview(buffer).cast("B")
        expected = (num_bits + 7) // 8
        if data.nbytes != expected:
            raise ConfigurationError(
                f"expected {expected} bytes for {num_bits} bits, got {data.nbytes}"
            )
        array = cls.__new__(cls)
        array._num_bits = num_bits
        array._buffer = data
        return array

    @property
    def writable(self) -> bool:
        """``False`` when this array is a read-only :meth:`view`."""
        buffer = self._buffer
        if isinstance(buffer, memoryview):
            return not buffer.readonly
        return True

    def size_in_bytes(self) -> int:
        """Return the storage footprint of the bit payload in bytes."""
        return len(self._buffer)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitArray):
            return NotImplemented
        return self._num_bits == other._num_bits and self._buffer == other._buffer

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BitArray(num_bits={self._num_bits}, set={self.count()})"
