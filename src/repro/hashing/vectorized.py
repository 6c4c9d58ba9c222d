"""Vectorized (numpy) batch implementations of the Table II hash primitives.

This module is the substrate of the batch-membership engine: every scalar
primitive in :mod:`repro.hashing.primitives` has a column-wise numpy twin
here that hashes a whole batch of keys in one array program.  Keys are
encoded **once** into a :class:`KeyBatch` (a zero-padded ``(n, max_len)``
uint8 matrix plus a length vector); the per-byte recurrences then run down
the byte columns with a live-key mask, so the Python-level loop is bounded
by the longest key, not by the batch size.

Bit-for-bit agreement with the scalar primitives is a hard requirement (the
HashExpressor chains and every serialized filter depend on it) and is pinned
by ``tests/hashing/test_vectorized.py``.  All arithmetic runs in ``uint64``,
whose wrap-around is exactly the ``& _MASK64`` masking of the scalar code;
32-bit cores keep an explicit ``& _MASK32``.

numpy is an optional runtime dependency of the engine: when it is missing
(``np`` is ``None``) every batch entry point in the library falls back to
its scalar loop.  The gate is checked at *call* time through
:func:`numpy_or_none`, so tests can simulate a numpy-less interpreter by
monkeypatching ``repro.hashing.vectorized.np`` to ``None``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.hashing.base import Key, normalize_key
from repro.hashing import primitives as _scalar

try:  # pragma: no cover - exercised indirectly via numpy_or_none()
    import numpy as np
except ImportError:  # pragma: no cover - the CI image bundles numpy
    np = None  # type: ignore[assignment]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def numpy_or_none():
    """Return the numpy module if the engine can vectorize, else ``None``.

    Every batch code path in the library consults this at call time instead
    of caching the import, so a monkeypatched ``vectorized.np = None``
    switches the whole stack onto the pure-Python fallback at once.
    """
    return np


@contextmanager
def force_scalar():
    """Temporarily disable the numpy engine (scalar fallbacks everywhere).

    The supported way to compare engine vs scalar behaviour — equivalence
    tests, scalar-forced timing in ``fig12`` / the build benchmark — without
    reaching into the module global by hand.  Restores the engine even if
    the body raises.  Flips a process-wide switch, so do not use it around
    code that serves concurrent engine traffic.
    """
    global np
    saved = np
    np = None
    try:
        yield
    finally:
        np = saved


class KeyBatch:
    """A batch of keys encoded once for the vectorized engine.

    Attributes:
        keys: The original user-facing keys, in order (kept for scalar
            fallbacks such as dict lookups in the WBF cost cache).
        data: The canonical byte encoding of each key.
        matrix: ``(n, max_len)`` uint8 array, rows zero-padded to the right.
        lengths: ``(n,)`` int64 array of true byte lengths.
        cache: Batch-lifetime memo used by hash functions and families to
            avoid re-hashing the same batch across engine stages (keyed by
            object identity, which is safe because the cached-for object is
            referenced by the filter for the duration of the call).

    A sub-batch from :meth:`take` indexes the *root* batch its chain of
    takes started from (the serving window) and slices only the numpy state
    eagerly; its ``keys``/``data`` lists materialise lazily from the root,
    so engine stages that subset purely for vectorized hashing never pay
    Python-level per-row work.
    """

    __slots__ = ("_keys", "_data", "matrix", "lengths", "cache", "_matrix64", "_root", "_rows")

    def __init__(self, keys: Sequence[Key]) -> None:
        if np is None:  # pragma: no cover - callers gate on numpy_or_none()
            raise RuntimeError("KeyBatch requires numpy")
        self._keys: Optional[List[Key]] = list(keys)
        data = [normalize_key(key) for key in self._keys]
        self._data: Optional[List[bytes]] = data
        n = len(data)
        self.lengths = np.fromiter(map(len, data), dtype=np.int64, count=n)
        max_len = int(self.lengths.max()) if n else 0
        buffer = b"".join([d.ljust(max_len, b"\0") for d in data])
        self.matrix = np.frombuffer(buffer, dtype=np.uint8).reshape(n, max_len)
        self.cache: Dict = {}
        self._matrix64 = None
        self._root: Optional["KeyBatch"] = None
        self._rows = None

    def __len__(self) -> int:
        return self.matrix.shape[0]

    @property
    def keys(self) -> List[Key]:
        """The original keys (materialised from the root on first access)."""
        if self._keys is None:
            keys = self._root.keys
            self._keys = [keys[i] for i in self._rows.tolist()]
        return self._keys

    @property
    def data(self) -> List[bytes]:
        """The canonical key bytes (materialised from the root on first access)."""
        if self._data is None:
            data = self._root.data
            self._data = [data[i] for i in self._rows.tolist()]
        return self._data

    def take(self, indices) -> "KeyBatch":
        """Return a sub-batch holding the rows at ``indices`` (no re-encode).

        Sub-batches index the root window: a take of a take composes its row
        indices onto the batch the chain started from, so every level —
        shard groups, H0 survivors, second-round misses, family-index
        groups — reads the hash passes memoised on that one window (see
        :func:`hash_batch`).  Numpy state is sliced immediately (C-speed
        fancy indexing); ``keys``/``data`` stay references into the root
        until someone actually reads them.
        """
        rows = np.asarray(indices, dtype=np.intp)
        sub = KeyBatch.__new__(KeyBatch)
        sub._keys = None
        sub._data = None
        sub._root = self if self._root is None else self._root
        sub._rows = rows if self._root is None else self._rows[rows]
        sub.matrix = self.matrix[rows]
        sub.lengths = self.lengths[rows]
        sub.cache = {}
        sub._matrix64 = self._matrix64[rows] if self._matrix64 is not None else None
        return sub

    @property
    def matrix64(self):
        """The byte matrix widened to uint64, built lazily and kept.

        The byte-at-a-time primitives read byte columns as uint64 operands;
        widening the matrix once per batch replaces thousands of per-column
        ``astype`` calls in the column loops.  The word-at-a-time primitives
        read words of the uint8 matrix through :func:`_le_words` instead,
        so a batch that only they hash never pays the 8x widened copy.
        """
        if self._matrix64 is None:
            self._matrix64 = self.matrix.astype(np.uint64)
        return self._matrix64

    @classmethod
    def concat(cls, parts: Sequence["KeyBatch"]) -> "KeyBatch":
        """Merge encoded batches into one batch without re-normalising any key.

        The serving micro-batcher coalesces requests that were already
        encoded at arrival time (multi-key protocol requests) with freshly
        encoded scalar keys; concatenation re-pads the byte matrices to the
        widest part at numpy speed and never touches ``normalize_key`` again.
        Rows keep part order, so verdict slices map back to the original
        requests by offset.
        """
        if np is None:  # pragma: no cover - callers gate on numpy_or_none()
            raise RuntimeError("KeyBatch requires numpy")
        parts = list(parts)
        if not parts:
            raise ValueError("KeyBatch.concat needs at least one part")
        if len(parts) == 1:
            return parts[0]
        total = sum(len(part) for part in parts)
        width = max(part.matrix.shape[1] for part in parts)
        matrix = np.zeros((total, width), dtype=np.uint8)
        lengths = np.empty(total, dtype=np.int64)
        row = 0
        for part in parts:
            n = len(part)
            matrix[row : row + n, : part.matrix.shape[1]] = part.matrix
            lengths[row : row + n] = part.lengths
            row += n
        merged = cls.__new__(cls)
        merged._keys = [key for part in parts for key in part.keys]
        merged._data = [data for part in parts for data in part.data]
        merged._root = None
        merged._rows = None
        merged.matrix = matrix
        merged.lengths = lengths
        merged.cache = {}
        merged._matrix64 = None
        return merged


BatchLike = Union[KeyBatch, Sequence[Key]]


def as_batch(keys: BatchLike) -> KeyBatch:
    """Coerce ``keys`` into a :class:`KeyBatch` (no-op if it already is one)."""
    if isinstance(keys, KeyBatch):
        return keys
    return KeyBatch(keys)


# --------------------------------------------------------------------- #
# Vector helpers (mirrors of the scalar helpers in primitives.py)
# --------------------------------------------------------------------- #
def _rotl32(value, amount: int):
    value = value & _MASK32
    return ((value << np.uint64(amount)) | (value >> np.uint64(32 - amount))) & _MASK32


def _rotl64(value, amount: int):
    return (value << np.uint64(amount)) | (value >> np.uint64(64 - amount))


def _fmix64(value):
    value = value ^ (value >> np.uint64(33))
    value = value * np.uint64(0xFF51AFD7ED558CCD)
    value = value ^ (value >> np.uint64(33))
    value = value * np.uint64(0xC4CEB9FE1A85EC53)
    return value ^ (value >> np.uint64(33))


def mix64(value):
    """Vector form of :func:`repro.hashing.base.mix64` (SplitMix64 finaliser)."""
    value = value ^ (value >> np.uint64(30))
    value = value * np.uint64(0xBF58476D1CE4E5B9)
    value = value ^ (value >> np.uint64(27))
    value = value * np.uint64(0x94D049BB133111EB)
    return value ^ (value >> np.uint64(31))


def _full(batch: KeyBatch, value: int):
    return np.full(len(batch), value, dtype=np.uint64)


def _columns(batch: KeyBatch):
    """Yield ``(mask, column)`` per byte position: mask = key still has bytes."""
    matrix, lengths = batch.matrix64, batch.lengths
    for j in range(matrix.shape[1]):
        yield lengths > j, matrix[:, j]


def _le_words(batch: KeyBatch, nbytes: int):
    """``(n, width // nbytes)`` little-endian words of each key's aligned blocks.

    Column ``b`` holds bytes ``b*nbytes .. b*nbytes+nbytes-1`` of every key:
    one reinterpreting view of the byte matrix, so the word-at-a-time loops
    assemble no word from byte columns.
    """
    matrix = batch.matrix
    blocks = matrix.shape[1] // nbytes
    aligned = np.ascontiguousarray(matrix[:, : blocks * nbytes])
    return aligned.view(f"<u{nbytes}").astype(np.uint64)


def _tail_words(batch: KeyBatch, offsets, remaining, count: int, nbytes: int = 1):
    """``(n, count // nbytes)`` little-endian words of the ``count`` bytes at ``offsets``.

    Byte ``p`` of a key reads as 0 where ``p >= remaining``, mirroring the
    scalar pattern ``int.from_bytes(data[i:], "little")`` with implicit zero
    padding.  One gather covers every tail position; out-of-range offsets
    of masked bytes are clipped so the fancy index stays in bounds.
    """
    matrix = batch.matrix
    n, width = matrix.shape
    if width == 0:
        return np.zeros((n, count // nbytes), dtype=np.uint64)
    span = np.arange(count)
    index = np.clip(offsets[:, None] + span, 0, width - 1)
    gathered = matrix[np.arange(n)[:, None], index]
    tail = np.where(span < remaining[:, None], gathered, np.uint8(0))
    return tail.view(f"<u{nbytes}").astype(np.uint64)


# --------------------------------------------------------------------- #
# Byte-at-a-time primitives
# --------------------------------------------------------------------- #
def fnv1a(batch: KeyBatch):
    value = _full(batch, 0xCBF29CE484222325)
    for mask, col in _columns(batch):
        value = np.where(mask, (value ^ col) * np.uint64(0x100000001B3), value)
    return value


def djb2(batch: KeyBatch):
    value = _full(batch, 5381)
    for mask, col in _columns(batch):
        value = np.where(mask, value * np.uint64(33) + col, value)
    return value


def ndjb(batch: KeyBatch):
    value = _full(batch, 5381)
    for mask, col in _columns(batch):
        value = np.where(mask, (value * np.uint64(33)) ^ col, value)
    return value


def sdbm(batch: KeyBatch):
    value = _full(batch, 0)
    for mask, col in _columns(batch):
        updated = col + (value << np.uint64(6)) + (value << np.uint64(16)) - value
        value = np.where(mask, updated, value)
    return value


def bkdr(batch: KeyBatch):
    value = _full(batch, 0)
    for mask, col in _columns(batch):
        value = np.where(mask, value * np.uint64(131) + col, value)
    return value


def pjw(batch: KeyBatch):
    value = _full(batch, 0)
    for mask, col in _columns(batch):
        v = ((value << np.uint64(4)) + col) & _MASK32
        high = v & np.uint64(0xF0000000)
        v = np.where(high != 0, v ^ (high >> np.uint64(24)), v)
        v = v & (~high & _MASK32)
        value = np.where(mask, v, value)
    return _fmix64(value)


def elf(batch: KeyBatch):
    value = _full(batch, 0)
    for mask, col in _columns(batch):
        v = ((value << np.uint64(4)) + col) & _MASK32
        high = v & np.uint64(0xF0000000)
        adjusted = (v ^ (high >> np.uint64(24))) & (~high & _MASK32)
        v = np.where(high != 0, adjusted, v)
        value = np.where(mask, v, value)
    return _fmix64(value ^ (batch.lengths.astype(np.uint64) << np.uint64(16)))


def rs_hash(batch: KeyBatch):
    value = _full(batch, 0)
    # The multiplier sequence a, a*b, a*b^2, ... is data-independent, so it is
    # precomputed per column as plain Python ints.
    a, b = 63689, 378551
    for mask, col in _columns(batch):
        value = np.where(mask, value * np.uint64(a) + col, value)
        a = (a * b) & _MASK64
    return value


def js_hash(batch: KeyBatch):
    value = _full(batch, 1315423911)
    for mask, col in _columns(batch):
        updated = value ^ ((value << np.uint64(5)) + col + (value >> np.uint64(2)))
        value = np.where(mask, updated, value)
    return value


def ap_hash(batch: KeyBatch):
    value = _full(batch, 0xAAAAAAAA)
    for j, (mask, col) in enumerate(_columns(batch)):
        if j & 1 == 0:
            updated = value ^ ((value << np.uint64(7)) ^ col * (value >> np.uint64(3)))
        else:
            updated = value ^ ~((value << np.uint64(11)) + (col ^ (value >> np.uint64(5))))
        value = np.where(mask, updated, value)
    return value


def dek(batch: KeyBatch):
    value = batch.lengths.astype(np.uint64)
    for mask, col in _columns(batch):
        updated = (value << np.uint64(5)) ^ (value >> np.uint64(27)) ^ col
        value = np.where(mask, updated, value)
    return value


def brp(batch: KeyBatch):
    value = _full(batch, 0)
    for mask, col in _columns(batch):
        updated = (value << np.uint64(7)) ^ (value >> np.uint64(25)) ^ col
        value = np.where(mask, updated, value)
    return _fmix64(value)


def oaat(batch: KeyBatch):
    value = _full(batch, 0)
    for mask, col in _columns(batch):
        v = (value + col) & _MASK32
        v = (v + (v << np.uint64(10))) & _MASK32
        v = v ^ (v >> np.uint64(6))
        value = np.where(mask, v, value)
    value = (value + (value << np.uint64(3))) & _MASK32
    value = value ^ (value >> np.uint64(11))
    value = (value + (value << np.uint64(15))) & _MASK32
    return _fmix64(value)


def crc32(batch: KeyBatch):
    table = np.asarray(_scalar._crc32_table(), dtype=np.uint64)
    crc = _full(batch, 0xFFFFFFFF)
    for mask, col in _columns(batch):
        index = ((crc ^ col) & np.uint64(0xFF)).astype(np.intp)
        crc = np.where(mask, (crc >> np.uint64(8)) ^ table[index], crc)
    return _fmix64((crc ^ np.uint64(0xFFFFFFFF)) & _MASK32)


def hsieh(batch: KeyBatch):
    value = _full(batch, 0x811C9DC5)
    for mask, col in _columns(batch):
        v = ((value ^ col) * np.uint64(0x01000193)) & _MASK32
        v = v ^ (v >> np.uint64(15))
        value = np.where(mask, v, value)
    return _fmix64(value)


def pyhash(batch: KeyBatch):
    width = batch.matrix.shape[1]
    if width == 0:
        return np.zeros(len(batch), dtype=np.uint64)
    value = (batch.matrix64[:, 0] << np.uint64(7)) & _MASK64
    for mask, col in _columns(batch):
        value = np.where(mask, (value * np.uint64(1000003)) ^ col, value)
    value = value ^ batch.lengths.astype(np.uint64)
    return np.where(batch.lengths == 0, np.uint64(0), value)


def twmx(batch: KeyBatch):
    value = fnv1a(batch)
    value = ~value + (value << np.uint64(21))
    value = value ^ (value >> np.uint64(24))
    value = value + (value << np.uint64(3)) + (value << np.uint64(8))
    value = value ^ (value >> np.uint64(14))
    value = value + (value << np.uint64(2)) + (value << np.uint64(4))
    value = value ^ (value >> np.uint64(28))
    return value + (value << np.uint64(31))


# --------------------------------------------------------------------- #
# Word-at-a-time primitives
# --------------------------------------------------------------------- #
def murmur3(batch: KeyBatch):
    c1, c2 = np.uint64(0xCC9E2D51), np.uint64(0x1B873593)
    lengths = batch.lengths
    value = _full(batch, 0x9747B28C)
    # The per-word scramble does not depend on the running value, so it runs
    # once over every block of every key.
    words = (_le_words(batch, 4) * c1) & _MASK32
    words = (_rotl32(words, 15) * c2) & _MASK32
    for block in range(words.shape[1]):
        mask = lengths >= (block + 1) * 4
        v = _rotl32(value ^ words[:, block], 13)
        v = (v * np.uint64(5) + np.uint64(0xE6546B64)) & _MASK32
        value = np.where(mask, v, value)
    rounded = (lengths - (lengths % 4)).astype(np.int64)
    remaining = lengths - rounded
    has_tail = remaining >= 1
    k = _tail_words(batch, rounded, remaining, 4, 4)[:, 0]
    k = (k * c1) & _MASK32
    k = (_rotl32(k, 15) * c2) & _MASK32
    value = np.where(has_tail, value ^ k, value)
    value = value ^ lengths.astype(np.uint64)
    value = value ^ (value >> np.uint64(16))
    value = (value * np.uint64(0x85EBCA6B)) & _MASK32
    value = value ^ (value >> np.uint64(13))
    value = (value * np.uint64(0xC2B2AE35)) & _MASK32
    value = value ^ (value >> np.uint64(16))
    return _fmix64(value)


def cityhash(batch: KeyBatch):
    k2 = np.uint64(0x9AE16A3B2F90404F)
    lengths = batch.lengths
    value = lengths.astype(np.uint64) * k2
    words = _le_words(batch, 8) * k2
    for block in range(words.shape[1]):
        mask = lengths >= (block + 1) * 8
        v = _rotl64(value ^ words[:, block], 29)
        v = v * np.uint64(5) + np.uint64(0x52DCE729)
        value = np.where(mask, v, value)
    rounded = (lengths - (lengths % 8)).astype(np.int64)
    remaining = lengths - rounded
    has_tail = remaining > 0
    word = _tail_words(batch, rounded, remaining, 8, 8)[:, 0]
    tailed = _rotl64(value ^ (word * np.uint64(0xB492B66FBE98F273)), 33)
    value = np.where(has_tail, tailed, value)
    value = value ^ (value >> np.uint64(47))
    value = value * k2
    return value ^ (value >> np.uint64(47))


def xxhash(batch: KeyBatch):
    prime1 = np.uint64(0x9E3779B185EBCA87)
    prime2 = np.uint64(0xC2B2AE3D27D4EB4F)
    prime3 = np.uint64(0x165667B19E3779F9)
    prime5 = np.uint64(0x27D4EB2F165667C5)
    lengths = batch.lengths
    value = prime5 + lengths.astype(np.uint64)
    # Word and byte rounds scramble their input independently of the running
    # value, so that part runs once over every block (and tail byte) of every key.
    words = _rotl64(_le_words(batch, 8) * prime2, 31) * prime1
    for block in range(words.shape[1]):
        mask = lengths >= (block + 1) * 8
        v = _rotl64(value ^ words[:, block], 27) * prime1 + prime3
        value = np.where(mask, v, value)
    rounded = (lengths - (lengths % 8)).astype(np.int64)
    remaining = lengths - rounded
    tail = _tail_words(batch, rounded, remaining, 7) * prime5
    # Positions past every key's tail would leave ``value`` unchanged.
    for p in range(int(remaining.max(initial=0))):
        v = _rotl64(value ^ tail[:, p], 11) * prime1
        value = np.where(remaining > p, v, value)
    value = value ^ (value >> np.uint64(33))
    value = value * prime2
    value = value ^ (value >> np.uint64(29))
    value = value * prime3
    return value ^ (value >> np.uint64(32))


def superfast(batch: KeyBatch):
    lengths = batch.lengths
    value = lengths.astype(np.uint64) & _MASK32
    halves = _le_words(batch, 2)
    for chunk in range(halves.shape[1] // 2):
        mask = lengths >= (chunk + 1) * 4
        low, high = halves[:, 2 * chunk], halves[:, 2 * chunk + 1]
        v = (value + low) & _MASK32
        tmp = ((high << np.uint64(11)) ^ v) & _MASK32
        v = ((v << np.uint64(16)) ^ tmp) & _MASK32
        v = (v + (v >> np.uint64(11))) & _MASK32
        value = np.where(mask, v, value)
    start = ((lengths // 4) * 4).astype(np.int64)
    remaining = lengths - start
    byte0, byte1, byte2 = _tail_words(batch, start, remaining, 3).T
    two_le = byte0 | (byte1 << np.uint64(8))

    v3 = (value + two_le) & _MASK32
    v3 = v3 ^ ((v3 << np.uint64(16)) & _MASK32)
    v3 = v3 ^ ((byte2 << np.uint64(18)) & _MASK32)
    v3 = (v3 + (v3 >> np.uint64(11))) & _MASK32

    v2 = (value + two_le) & _MASK32
    v2 = v2 ^ ((v2 << np.uint64(11)) & _MASK32)
    v2 = (v2 + (v2 >> np.uint64(17))) & _MASK32

    v1 = (value + byte0) & _MASK32
    v1 = v1 ^ ((v1 << np.uint64(10)) & _MASK32)
    v1 = (v1 + (v1 >> np.uint64(1))) & _MASK32

    value = np.where(remaining == 3, v3, np.where(remaining == 2, v2, np.where(remaining == 1, v1, value)))
    value = value ^ ((value << np.uint64(3)) & _MASK32)
    value = (value + (value >> np.uint64(5))) & _MASK32
    value = value ^ ((value << np.uint64(4)) & _MASK32)
    value = (value + (value >> np.uint64(17))) & _MASK32
    value = value ^ ((value << np.uint64(25)) & _MASK32)
    value = (value + (value >> np.uint64(6))) & _MASK32
    return _fmix64(value)


def _jenkins_mix(a, b, c):
    a = (a - b - c) & _MASK32
    a = a ^ (c >> np.uint64(13))
    b = (b - c - a) & _MASK32
    b = b ^ ((a << np.uint64(8)) & _MASK32)
    c = (c - a - b) & _MASK32
    c = c ^ (b >> np.uint64(13))
    a = (a - b - c) & _MASK32
    a = a ^ (c >> np.uint64(12))
    b = (b - c - a) & _MASK32
    b = b ^ ((a << np.uint64(16)) & _MASK32)
    c = (c - a - b) & _MASK32
    c = c ^ (b >> np.uint64(5))
    a = (a - b - c) & _MASK32
    a = a ^ (c >> np.uint64(3))
    b = (b - c - a) & _MASK32
    b = b ^ ((a << np.uint64(10)) & _MASK32)
    c = (c - a - b) & _MASK32
    c = c ^ (b >> np.uint64(15))
    return a, b, c


def bob_jenkins(batch: KeyBatch):
    lengths = batch.lengths
    a = _full(batch, 0x9E3779B9)
    b = _full(batch, 0x9E3779B9)
    c = _full(batch, 0xDEADBEEF)
    words = _le_words(batch, 4)
    for block in range(words.shape[1] // 3):
        mask = lengths >= (block + 1) * 12
        na = (a + words[:, 3 * block]) & _MASK32
        nb = (b + words[:, 3 * block + 1]) & _MASK32
        nc = (c + words[:, 3 * block + 2]) & _MASK32
        na, nb, nc = _jenkins_mix(na, nb, nc)
        a = np.where(mask, na, a)
        b = np.where(mask, nb, b)
        c = np.where(mask, nc, c)
    # Every key processes exactly one zero-padded tail block (possibly all
    # zeros when the length is a multiple of 12), as in the scalar code.
    start = ((lengths // 12) * 12).astype(np.int64)
    remaining = lengths - start
    word_a, word_b, word_c = _tail_words(batch, start, remaining, 12, 4).T
    a = (a + word_a) & _MASK32
    b = (b + word_b) & _MASK32
    c = (c + word_c + lengths.astype(np.uint64)) & _MASK32
    a, b, c = _jenkins_mix(a, b, c)
    return (b << np.uint64(32)) | c


#: Vectorized twin of :data:`repro.hashing.primitives.PRIMITIVES`.
BATCH_PRIMITIVES: Dict[str, Callable[[KeyBatch], "np.ndarray"]] = {
    "xxhash": xxhash,
    "cityhash": cityhash,
    "murmur3": murmur3,
    "superfast": superfast,
    "crc32": crc32,
    "fnv": fnv1a,
    "bob": bob_jenkins,
    "oaat": oaat,
    "dek": dek,
    "hsieh": hsieh,
    "pyhash": pyhash,
    "brp": brp,
    "twmx": twmx,
    "ap": ap_hash,
    "ndjb": ndjb,
    "djb": djb2,
    "bkdr": bkdr,
    "pjw": pjw,
    "js": js_hash,
    "rs": rs_hash,
    "sdbm": sdbm,
    "elf": elf,
}

#: Scalar callable -> vectorized twin, for lookups by HashFunction.primitive.
_BY_CALLABLE: Dict[Callable[[bytes], int], Callable[[KeyBatch], "np.ndarray"]] = {
    _scalar.PRIMITIVES[name]: fn for name, fn in BATCH_PRIMITIVES.items()
}


#: A sub-batch answers a primitive by slicing its root window's pass.  When
#: the root has no pass yet, :func:`hash_batch` computes it there eagerly
#: while the root stays window-sized: the Python column loop dominates at
#: that scale and costs the same however many rows ride along, and the
#: sibling stages that need every row (the router, each shard group's H0
#: probe) then slice the same pass for free.  Past this row count the
#: per-row work dominates, so a take from a large batch hashes only its own
#: rows — which preserves the short-circuit savings of probes that
#: progressively narrow a big batch (see ``BloomFilter._probe_batch``).
_ROOT_EAGER_ROWS = 4096

#: Below this row count the scalar primitive loop beats the numpy column
#: pass.  The column pass costs a near-constant ~200-400us setup (one Python
#: iteration per key-byte column, each running a handful of ufuncs on a tiny
#: array) while the scalar loop costs ~1-7us per key, so tiny batches — a
#: dispatcher's per-replica sub-window, a single-key probe riding the batch
#: path — were paying 10-30x overhead.  Measured on this repo's Shalla-like
#: keys (~25-byte URLs): scalar wins at <=32 rows for every primitive tried
#: (xxhash, bkdr, crc32, fnv1a; crossover lands in the 32-48 row band), so
#: 32 is the conservative cut.  Results are bit-identical either way (the
#: vectorized twins are pinned bit-for-bit against the scalar primitives),
#: and memoisation/slicing semantics are unchanged.
SCALAR_CROSSOVER_ROWS = 32


def hash_batch(primitive: Callable[[bytes], int], batch: KeyBatch):
    """Hash every key in ``batch`` with ``primitive`` as one uint64 vector.

    The entry point for stages that need every row of a window.  Uses the
    vectorized twin when one exists and the batch is larger than
    :data:`SCALAR_CROSSOVER_ROWS`; otherwise evaluates the scalar primitive
    per key (still saving the per-key normalisation, since the batch carries
    pre-encoded bytes).  Results are memoised on the batch, so engine stages
    that derive several values from one primitive pass (Xor slots +
    fingerprints, WBF base/step, double-hashing bases) hash each key once
    per batch.

    A sub-batch made with :meth:`KeyBatch.take` reads its root window's
    pass by row-slicing it (hash values are per-key, so slicing is exact),
    and starts that pass on the root when the root is window-sized (see
    :data:`_ROOT_EAGER_ROWS`).  This is what makes sharded serving windows
    affordable: the router and each shard's H0 probe together pay one
    column-loop pass per primitive for the whole window instead of one per
    shard.  Sparse stages that touch a few rows use :func:`hash_rows`
    instead, which never starts a window pass.
    """
    window = window_of(batch)
    if window is not None and ("primitive", primitive) not in batch.cache:
        hash_rows(primitive, window[0])
    return hash_rows(primitive, batch)


def window_of(batch: KeyBatch):
    """``(root, rows)`` when ``batch`` is a take from a window-sized root, else ``None``.

    Per-key values that every row of a serving window needs — a primitive
    pass (:func:`hash_batch`), or values derived from one such as the
    double-hashing bases — are computed once on that root and row-sliced by
    each sub-batch (see :data:`_ROOT_EAGER_ROWS`).
    """
    root = batch._root
    if root is None or len(root) > _ROOT_EAGER_ROWS:
        return None
    return root, batch._rows


def hash_rows(primitive: Callable[[bytes], int], batch: KeyBatch):
    """Hash ``batch``'s own rows, unless its root window already holds the pass.

    The sparse counterpart of :func:`hash_batch`: a family-index group of
    the HABF second round covers a handful of a window's rows, so it slices
    the window's pass when a stage that needed every row already memoised
    one, and otherwise hashes only its own rows — with the scalar loop at or
    below :data:`SCALAR_CROSSOVER_ROWS`.  It never starts a pass on the
    root.  The result is memoised on ``batch`` under the same key
    :func:`hash_batch` reads.
    """
    cache_key = ("primitive", primitive)
    values = batch.cache.get(cache_key)
    if values is not None:
        return values
    root = batch._root
    window = root.cache.get(cache_key) if root is not None else None
    if window is not None:
        values = window[batch._rows]
    else:
        vectorized = _BY_CALLABLE.get(primitive)
        if vectorized is not None and len(batch) > SCALAR_CROSSOVER_ROWS:
            values = vectorized(batch)
        else:
            values = np.fromiter(
                ((primitive(d) & _MASK64) for d in batch.data),
                dtype=np.uint64,
                count=len(batch),
            )
    batch.cache[cache_key] = values
    return values
