"""Versioned binary frames for persisting and shipping membership filters.

Every serializable object is wrapped in one self-describing frame::

    offset 0   magic      4 bytes  b"HABF"
    offset 4   version    1 byte   currently 2
    offset 5   type tag   1 byte   which structure the payload encodes
    offset 6   length     4 bytes  payload size (big-endian)
    offset 10  payload    `length` bytes
    offset -4  crc32      4 bytes  over version + type + length + payload

The CRC turns silent corruption (bit rot, truncated downloads, partial
writes) into a loud :class:`~repro.errors.CodecError`; the version byte lets
future formats evolve without misreading old frames.  Frames are
self-contained: a filter's hash family is encoded alongside its bits, so
``loads(dumps(f))`` reproduces a filter that answers identically to ``f``
in a fresh process.  Replication deltas (``HDLT``) and wire messages
(``HRPL``) use the same envelope under their own magic: :func:`_seal`
writes it and :func:`_unseal` checks it for all three.

Version history: version 2 added per-shard generations and key-set
fingerprints to the sharded-store payload (the incremental-rebuild
metadata) and the frames for the cost-aware and learned backends (WBF,
``KeyScoreModel``, LBF, SLBF, Ada-BF).  Version 1 frames still decode; the
codec always writes the current version.

Composite structures (HABF, the learned filters, the sharded store) embed
their parts as nested length-prefixed frames, so every layer round-trips
through the same code path.  Construction-time statistics (``TPJOStats``)
are *not* serialized — a revived filter serves queries but reports
``construction_stats`` of ``None``.  The sharded store writes one
:class:`~repro.service.shards.ShardEntry` per shard with
:func:`_write_entry`, the same bytes the disk ``DIRECTORY`` and the
``HDLT`` delta write, except that it names the backends once, in its
header.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.core.bitarray import BitArray
from repro.core.bloom import BloomFilter
from repro.core.habf import HABF, FastHABF
from repro.core.hash_expressor import HashExpressor
from repro.core.params import HABFParams
from repro.baselines.weighted_bloom import WeightedBloomFilter
from repro.baselines.xor_filter import XorFilter
from repro.errors import CodecError
from repro.hashing.base import HashFunction
from repro.hashing.double_hashing import DoubleHashFamily
from repro.hashing.registry import GLOBAL_HASH_FAMILY, HashFamily, get_primitive
from repro.service.shards import EmptyShardFilter, ShardEntry, ShardedFilterStore

#: Magic bytes opening every frame.
FRAME_MAGIC = b"HABF"

#: Current frame-format version (always written; every version in
#: :data:`READABLE_VERSIONS` still decodes).
CODEC_VERSION = 2

#: Frame versions :func:`loads` accepts.
READABLE_VERSIONS = (1, 2)

# Type tags (1 byte each).
TAG_BITARRAY = 1
TAG_BLOOM = 2
TAG_EXPRESSOR = 3
TAG_HABF = 4
TAG_FAST_HABF = 5
TAG_XOR = 6
TAG_SHARDED_STORE = 7
TAG_EMPTY_SHARD = 8
TAG_ALWAYS_CONTAINS = 9
TAG_WBF = 10
TAG_SCORE_MODEL = 11
TAG_LBF = 12
TAG_SLBF = 13
TAG_ADABF = 14

# Key kinds used by the WBF cost-cache encoding (keys keep their Python type
# so a revived filter consults its cache with exactly the original lookups).
_KEY_BYTES = 0
_KEY_STR = 1
_KEY_INT = 2

# Hash-family descriptor kinds.
_FAMILY_GLOBAL = 0
_FAMILY_NAMED = 1
_FAMILY_DOUBLE = 2

_HEADER = struct.Struct(">4sBBI")


_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_F64 = struct.Struct(">d")


class _Writer:
    """Append-only big-endian byte builder.

    Out-of-range values (e.g. a negative seed packed as u64) surface as
    :class:`CodecError` rather than a raw ``struct.error``.
    """

    def __init__(self) -> None:
        self._parts: List[bytes] = []

    def _pack(self, fmt: struct.Struct, value) -> None:
        try:
            self._parts.append(fmt.pack(value))
        except struct.error as exc:
            raise CodecError(
                f"value {value!r} does not fit the frame field ({exc})"
            ) from exc

    def u8(self, value: int) -> None:
        self._pack(_U8, value)

    def u16(self, value: int) -> None:
        self._pack(_U16, value)

    def u32(self, value: int) -> None:
        self._pack(_U32, value)

    def u64(self, value: int) -> None:
        self._pack(_U64, value)

    def f64(self, value: float) -> None:
        self._pack(_F64, value)

    def raw(self, data: bytes) -> None:
        self._parts.append(bytes(data))

    def bytes_field(self, data: bytes) -> None:
        self.u32(len(data))
        self.raw(data)

    def str_field(self, text: str) -> None:
        self.bytes_field(text.encode("utf-8"))

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class _Reader:
    """Sequential big-endian reader that fails loudly on truncation.

    With ``zero_copy=True`` the reader hands out :class:`memoryview` slices
    of the input buffer instead of ``bytes`` copies, so bulk payloads (the
    ``BitArray`` bits of every decoded filter) alias the caller's buffer —
    the mechanism behind shared-memory replica serving.  Decoders that need
    real ``bytes`` (text, dict keys) convert explicitly.
    """

    def __init__(self, data, *, zero_copy: bool = False) -> None:
        self._data = memoryview(data) if zero_copy else data
        self._pos = 0
        self.zero_copy = zero_copy

    def take(self, count: int):
        end = self._pos + count
        if count < 0 or end > len(self._data):
            raise CodecError(
                f"truncated frame payload: wanted {count} bytes at offset "
                f"{self._pos}, only {len(self._data) - self._pos} left"
            )
        chunk = self._data[self._pos : end]
        self._pos = end
        return chunk

    def _unpack(self, fmt: struct.Struct) -> Any:
        return fmt.unpack(self.take(fmt.size))[0]

    def u8(self) -> int:
        return self._unpack(_U8)

    def u16(self) -> int:
        return self._unpack(_U16)

    def u32(self) -> int:
        return self._unpack(_U32)

    def u64(self) -> int:
        return self._unpack(_U64)

    def f64(self) -> float:
        return self._unpack(_F64)

    def bytes_field(self):
        return self.take(self.u32())

    def str_field(self) -> str:
        data = bytes(self.bytes_field())
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"string field is not UTF-8: {exc}") from exc

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise CodecError(
                f"{len(self._data) - self._pos} trailing bytes after payload"
            )


# --------------------------------------------------------------------- #
# Hash-family descriptors
# --------------------------------------------------------------------- #
def _encode_family(writer: _Writer, family: Union[HashFamily, DoubleHashFamily]) -> None:
    if family is GLOBAL_HASH_FAMILY:
        writer.u8(_FAMILY_GLOBAL)
        return
    if isinstance(family, DoubleHashFamily):
        writer.u8(_FAMILY_DOUBLE)
        writer.u16(len(family))
        writer.str_field(family.primitive_name)
        writer.u64(family.seed)
        return
    if isinstance(family, HashFamily):
        writer.u8(_FAMILY_NAMED)
        writer.str_field(family.name)
        writer.u16(len(family))
        for fn in family:
            writer.str_field(fn.name)
            writer.u64(fn.seed)
        return
    raise CodecError(f"cannot serialize hash family of type {type(family).__name__}")


def _decode_family(reader: _Reader) -> Union[HashFamily, DoubleHashFamily]:
    kind = reader.u8()
    if kind == _FAMILY_GLOBAL:
        return GLOBAL_HASH_FAMILY
    if kind == _FAMILY_DOUBLE:
        size = reader.u16()
        primitive = reader.str_field()
        seed = reader.u64()
        return DoubleHashFamily(size=size, primitive=primitive, seed=seed)
    if kind == _FAMILY_NAMED:
        label = reader.str_field()
        count = reader.u16()
        functions = []
        for index in range(count):
            name = reader.str_field()
            seed = reader.u64()
            functions.append(
                HashFunction(name=name, index=index, primitive=get_primitive(name), seed=seed)
            )
        return HashFamily(functions, name=label)
    raise CodecError(f"unknown hash-family descriptor kind {kind}")


# --------------------------------------------------------------------- #
# Per-type payload encoders/decoders
# --------------------------------------------------------------------- #
def _encode_bitarray(writer: _Writer, bits: BitArray) -> None:
    writer.u64(len(bits))
    writer.bytes_field(bits.to_bytes())


def _decode_bitarray(reader: _Reader) -> BitArray:
    num_bits = reader.u64()
    payload = reader.bytes_field()
    if num_bits == 0:
        raise CodecError("BitArray frame declares zero bits")
    try:
        if reader.zero_copy:
            # The decoded array aliases the frame buffer: replicas mapping a
            # SharedFrameArena probe filter bits straight from the segment.
            return BitArray.view(num_bits, payload)
        return BitArray.from_bytes(num_bits, payload)
    except Exception as exc:  # ConfigurationError on length mismatch
        raise CodecError(f"invalid BitArray payload: {exc}") from exc


def _encode_bloom(writer: _Writer, bloom: BloomFilter) -> None:
    writer.u64(bloom.num_bits)
    writer.u16(bloom.num_hashes)
    writer.u64(bloom.num_items)
    _encode_family(writer, bloom.family)
    selection = bloom.initial_selection
    writer.u16(len(selection))
    for index in selection:
        writer.u16(index)
    _encode_bitarray(writer, bloom.bits)


def _decode_bloom(reader: _Reader) -> BloomFilter:
    num_bits = reader.u64()
    num_hashes = reader.u16()
    num_items = reader.u64()
    family = _decode_family(reader)
    selection = [reader.u16() for _ in range(reader.u16())]
    for index in selection:
        if index >= len(family):
            raise CodecError(
                f"selection index {index} out of range for family of size {len(family)}"
            )
    bits = _decode_bitarray(reader)
    if len(bits) != num_bits:
        raise CodecError(
            f"Bloom frame bit-array length {len(bits)} != declared {num_bits}"
        )
    try:
        bloom = BloomFilter(
            num_bits=num_bits, num_hashes=num_hashes, family=family, selection=selection
        )
    except Exception as exc:
        raise CodecError(f"invalid Bloom frame parameters: {exc}") from exc
    bloom._bits = bits
    bloom._num_items = num_items
    return bloom


def _encode_expressor(writer: _Writer, expressor: HashExpressor) -> None:
    writer.u64(expressor.num_cells)
    writer.u16(expressor.cell_hash_bits)
    writer.u64(expressor.inserted_keys)
    _encode_family(writer, expressor._family)
    for value in expressor._hash_index:
        writer.u16(value)
    endbits = BitArray(max(1, expressor.num_cells))
    for index, endbit in enumerate(expressor._endbit):
        if endbit:
            endbits.set(index)
    _encode_bitarray(writer, endbits)


def _decode_expressor(reader: _Reader) -> HashExpressor:
    num_cells = reader.u64()
    cell_hash_bits = reader.u16()
    inserted_keys = reader.u64()
    family = _decode_family(reader)
    try:
        expressor = HashExpressor(
            num_cells=num_cells, cell_hash_bits=cell_hash_bits, family=family
        )
    except Exception as exc:
        raise CodecError(f"invalid HashExpressor frame parameters: {exc}") from exc
    limit = 1 << cell_hash_bits
    hash_index = []
    for _ in range(num_cells):
        value = reader.u16()
        if value >= limit:
            raise CodecError(
                f"cell hashindex {value} does not fit in {cell_hash_bits} bits"
            )
        hash_index.append(value)
    endbits = _decode_bitarray(reader)
    expressor._hash_index = hash_index
    expressor._endbit = [endbits.test(i) for i in range(num_cells)]
    expressor._inserted_keys = inserted_keys
    return expressor


def _encode_habf(writer: _Writer, habf: HABF) -> None:
    params = habf.params
    writer.u64(params.total_bits)
    writer.u16(params.k)
    writer.f64(params.delta)
    writer.u16(params.cell_hash_bits)
    writer.u64(params.seed)
    writer.u16(params.max_queue_passes)
    writer.u8(1 if habf._use_gamma else 0)
    writer.u8(1 if habf._built else 0)
    writer.bytes_field(dumps(habf.bloom))
    if habf.expressor is not None:
        writer.u8(1)
        writer.bytes_field(dumps(habf.expressor))
    else:
        writer.u8(0)


def _decode_habf(reader: _Reader, cls: type) -> HABF:
    try:
        params = HABFParams(
            total_bits=reader.u64(),
            k=reader.u16(),
            delta=reader.f64(),
            cell_hash_bits=reader.u16(),
            seed=reader.u64(),
            max_queue_passes=reader.u16(),
        )
    except CodecError:
        raise
    except Exception as exc:
        raise CodecError(f"invalid HABF frame parameters: {exc}") from exc
    use_gamma = reader.u8() != 0
    built = reader.u8() != 0
    bloom = loads(reader.bytes_field(), zero_copy=reader.zero_copy)
    if not isinstance(bloom, BloomFilter):
        raise CodecError("HABF frame does not embed a Bloom-filter frame")
    expressor: Optional[HashExpressor] = None
    if reader.u8():
        nested = loads(reader.bytes_field(), zero_copy=reader.zero_copy)
        if not isinstance(nested, HashExpressor):
            raise CodecError("HABF frame does not embed a HashExpressor frame")
        expressor = nested
    habf = cls.__new__(cls)
    habf._params = params
    habf._family = bloom.family
    habf._use_gamma = use_gamma
    habf._bloom = bloom
    habf._expressor = expressor
    habf._stats = None
    habf._built = built
    return habf


def _encode_xor(writer: _Writer, xor: XorFilter) -> None:
    writer.u16(xor._fingerprint_bits)
    writer.u64(xor._seed)
    writer.u64(xor._num_keys)
    writer.u64(xor._segment_length)
    writer.u32(len(xor._slots))
    for slot in xor._slots:
        writer.u32(slot)


def _decode_xor(reader: _Reader) -> XorFilter:
    fingerprint_bits = reader.u16()
    seed = reader.u64()
    num_keys = reader.u64()
    segment_length = reader.u64()
    slot_count = reader.u32()
    if not 1 <= fingerprint_bits <= 32:
        raise CodecError(f"fingerprint_bits {fingerprint_bits} out of range")
    if segment_length < 1:
        raise CodecError("Xor frame segment length must be positive")
    if slot_count != segment_length * 3:
        raise CodecError(
            f"Xor frame slot count {slot_count} != 3 * segment length {segment_length}"
        )
    mask = (1 << fingerprint_bits) - 1
    slots = []
    for _ in range(slot_count):
        value = reader.u32()
        if value > mask:
            raise CodecError(f"Xor slot value {value} exceeds fingerprint mask {mask}")
        slots.append(value)
    xor = XorFilter.__new__(XorFilter)
    xor._fingerprint_bits = fingerprint_bits
    xor._fingerprint_mask = mask
    xor._num_keys = num_keys
    xor._segment_length = segment_length
    xor._capacity = slot_count
    xor._seed = seed
    xor._slots = slots
    return xor


def _encode_key(writer: _Writer, key) -> None:
    if isinstance(key, bytes):
        writer.u8(_KEY_BYTES)
        writer.bytes_field(key)
    elif isinstance(key, str):
        writer.u8(_KEY_STR)
        writer.str_field(key)
    elif isinstance(key, int):
        writer.u8(_KEY_INT)
        writer.u8(1 if key < 0 else 0)
        magnitude = abs(key)
        writer.bytes_field(magnitude.to_bytes(max(1, (magnitude.bit_length() + 7) // 8), "little"))
    else:
        raise CodecError(f"cannot serialize cache key of type {type(key).__name__}")


def _decode_key(reader: _Reader):
    kind = reader.u8()
    if kind == _KEY_BYTES:
        # Cache keys must be real (hashable) bytes even in zero-copy mode.
        return bytes(reader.bytes_field())
    if kind == _KEY_STR:
        return reader.str_field()
    if kind == _KEY_INT:
        negative = reader.u8() != 0
        magnitude = int.from_bytes(reader.bytes_field(), "little")
        return -magnitude if negative else magnitude
    raise CodecError(f"unknown key kind {kind}")


def _encode_wbf(writer: _Writer, wbf: WeightedBloomFilter) -> None:
    writer.u16(wbf._default_hashes)
    writer.u16(wbf._max_hashes)
    writer.f64(wbf._cache_fraction)
    writer.u64(wbf._num_items)
    writer.u32(len(wbf._hash_cache))
    for key, count in wbf._hash_cache.items():
        _encode_key(writer, key)
        writer.u16(count)  # u16 like max_hashes: counts above 255 are legal
    _encode_bitarray(writer, wbf._bits)


def _decode_wbf(reader: _Reader) -> WeightedBloomFilter:
    default_hashes = reader.u16()
    max_hashes = reader.u16()
    cache_fraction = reader.f64()
    num_items = reader.u64()
    cache = {}
    for _ in range(reader.u32()):
        key = _decode_key(reader)
        count = reader.u16()
        if not 1 <= count <= max_hashes:
            raise CodecError(
                f"cached hash count {count} outside 1..{max_hashes}"
            )
        cache[key] = count
    bits = _decode_bitarray(reader)
    try:
        wbf = WeightedBloomFilter(
            num_bits=len(bits),
            default_hashes=default_hashes,
            max_hashes=max_hashes,
            cache_fraction=cache_fraction,
        )
    except Exception as exc:
        raise CodecError(f"invalid WBF frame parameters: {exc}") from exc
    wbf._bits = bits
    wbf._hash_cache = cache
    wbf._num_items = num_items
    return wbf


def _learned_numpy():
    """The numpy module, or a loud CodecError for learned frames without it."""
    from repro.baselines.learned import model as model_module

    if model_module.np is None:
        raise CodecError(
            "decoding a learned-filter frame requires numpy (the model weights "
            "revive as a numpy array)"
        )
    return model_module.np


def _encode_model(writer: _Writer, model) -> None:
    writer.u32(model._num_features)
    writer.u8(len(model._ngram_sizes))
    for size in model._ngram_sizes:
        writer.u16(size)
    writer.f64(model._learning_rate)
    writer.u32(model._epochs)
    writer.u64(model._seed)
    writer.u16(model._weight_bits)
    writer.u8(1 if model._trained else 0)
    writer.f64(model._bias)
    for weight in model._weights:
        writer.f64(float(weight))


def _decode_model(reader: _Reader):
    np = _learned_numpy()
    from repro.baselines.learned.model import KeyScoreModel

    num_features = reader.u32()
    ngram_sizes = tuple(reader.u16() for _ in range(reader.u8()))
    learning_rate = reader.f64()
    epochs = reader.u32()
    seed = reader.u64()
    weight_bits = reader.u16()
    trained = reader.u8() != 0
    bias = reader.f64()
    try:
        model = KeyScoreModel(
            num_features=num_features,
            ngram_sizes=ngram_sizes,
            learning_rate=learning_rate,
            epochs=epochs,
            seed=seed,
            weight_bits=weight_bits,
        )
    except Exception as exc:
        raise CodecError(f"invalid KeyScoreModel frame parameters: {exc}") from exc
    model._weights = np.array(
        [reader.f64() for _ in range(num_features)], dtype=np.float64
    )
    model._bias = bias
    model._trained = trained
    return model


def _nested_model(reader: _Reader):
    model = loads(reader.bytes_field(), zero_copy=reader.zero_copy)
    from repro.baselines.learned.model import KeyScoreModel

    if not isinstance(model, KeyScoreModel):
        raise CodecError("learned-filter frame does not embed a KeyScoreModel frame")
    return model


def _nested_bloom(reader: _Reader) -> Optional[BloomFilter]:
    if not reader.u8():
        return None
    bloom = loads(reader.bytes_field(), zero_copy=reader.zero_copy)
    if not isinstance(bloom, BloomFilter):
        raise CodecError("learned-filter frame does not embed a Bloom-filter frame")
    return bloom


def _write_optional_bloom(writer: _Writer, bloom: Optional[BloomFilter]) -> None:
    if bloom is None:
        writer.u8(0)
    else:
        writer.u8(1)
        writer.bytes_field(dumps(bloom))


def _encode_lbf(writer: _Writer, lbf) -> None:
    writer.u64(lbf._total_bits)
    writer.u64(lbf._seed)
    writer.f64(lbf._threshold)
    writer.u8(1 if lbf._built else 0)
    writer.bytes_field(dumps(lbf._model))
    _write_optional_bloom(writer, lbf._backup)


def _decode_lbf(reader: _Reader):
    _learned_numpy()
    from repro.baselines.learned.lbf import LearnedBloomFilter

    lbf = LearnedBloomFilter.__new__(LearnedBloomFilter)
    lbf._total_bits = reader.u64()
    lbf._seed = reader.u64()
    lbf._threshold = reader.f64()
    lbf._built = reader.u8() != 0
    lbf._model = _nested_model(reader)
    lbf._backup = _nested_bloom(reader)
    return lbf


def _encode_slbf(writer: _Writer, slbf) -> None:
    writer.u64(slbf._total_bits)
    writer.u64(slbf._seed)
    writer.f64(slbf._threshold)
    writer.u8(1 if slbf._built else 0)
    writer.bytes_field(dumps(slbf._model))
    _write_optional_bloom(writer, slbf._initial)
    _write_optional_bloom(writer, slbf._backup)


def _decode_slbf(reader: _Reader):
    _learned_numpy()
    from repro.baselines.learned.slbf import SandwichedLearnedBloomFilter

    slbf = SandwichedLearnedBloomFilter.__new__(SandwichedLearnedBloomFilter)
    slbf._total_bits = reader.u64()
    slbf._seed = reader.u64()
    slbf._threshold = reader.f64()
    slbf._built = reader.u8() != 0
    slbf._model = _nested_model(reader)
    slbf._initial = _nested_bloom(reader)
    slbf._backup = _nested_bloom(reader)
    return slbf


def _encode_adabf(writer: _Writer, adabf) -> None:
    writer.u64(adabf._total_bits)
    writer.u16(adabf._num_groups)
    writer.u64(adabf._seed)
    writer.u8(1 if adabf._built else 0)
    writer.u16(len(adabf._thresholds))
    for threshold in adabf._thresholds:
        writer.f64(float(threshold))
    writer.u16(len(adabf._group_hashes))
    for count in adabf._group_hashes:
        writer.u16(count)
    writer.bytes_field(dumps(adabf._model))
    _write_optional_bloom(writer, adabf._bloom)


def _decode_adabf(reader: _Reader):
    _learned_numpy()
    from repro.baselines.learned.adabf import AdaptiveLearnedBloomFilter

    adabf = AdaptiveLearnedBloomFilter.__new__(AdaptiveLearnedBloomFilter)
    adabf._total_bits = reader.u64()
    adabf._num_groups = reader.u16()
    if adabf._num_groups < 2:
        raise CodecError(f"Ada-BF frame declares {adabf._num_groups} groups (minimum 2)")
    adabf._seed = reader.u64()
    adabf._built = reader.u8() != 0
    adabf._thresholds = [reader.f64() for _ in range(reader.u16())]
    adabf._group_hashes = [reader.u16() for _ in range(reader.u16())]
    if any(count < 1 for count in adabf._group_hashes):
        raise CodecError("Ada-BF frame contains a zero group hash count")
    adabf._model = _nested_model(reader)
    adabf._bloom = _nested_bloom(reader)
    return adabf


# --------------------------------------------------------------------- #
# Shard entries
# --------------------------------------------------------------------- #
def _write_entry(writer: _Writer, entry: ShardEntry, named: bool = True) -> None:
    """``key_count u64 | generation u32 | has_fp u8 | fingerprint u64``, then
    ``backend_name str`` unless the caller names backends elsewhere."""
    writer.u64(entry.key_count)
    writer.u32(entry.generation)
    writer.u8(0 if entry.fingerprint is None else 1)
    writer.u64(entry.fingerprint or 0)
    if named:
        writer.str_field(entry.backend_name)


def _read_entry(reader: _Reader, backend_name: Optional[str] = None) -> ShardEntry:
    """Read what :func:`_write_entry` wrote, named by ``backend_name`` if given."""
    key_count = reader.u64()
    generation = reader.u32()
    has_fingerprint = reader.u8()
    fingerprint = reader.u64()
    if backend_name is None:
        backend_name = reader.str_field()
    return ShardEntry(
        key_count, generation, fingerprint if has_fingerprint else None, backend_name
    )


def _encode_store(writer: _Writer, store: ShardedFilterStore) -> None:
    writer.u32(store.num_shards)
    writer.u64(store.router_seed)
    # The backend-name field is free-form, so heterogeneous (adaptively
    # migrated) stores reuse it without a frame-version bump: a "mixed:"
    # prefix followed by the comma-joined per-shard names.  Plain names with
    # a comma or that prefix would be ambiguous on decode, hence the guard.
    shard_names = store.shard_backend_names
    if len(set(shard_names)) > 1:
        for name in shard_names:
            if "," in name or name.startswith("mixed:"):
                raise CodecError(
                    f"shard backend name {name!r} cannot be encoded in a "
                    "mixed store frame"
                )
        writer.str_field("mixed:" + ",".join(shard_names))
    else:
        writer.str_field(store.backend_name)
    for filt, entry in zip(store.filters, store.entries):
        _write_entry(writer, entry, named=False)
        writer.bytes_field(dumps(filt))


def _decode_store(reader: _Reader, version: int) -> ShardedFilterStore:
    num_shards = reader.u32()
    router_seed = reader.u64()
    backend_name = reader.str_field()
    shard_names: Optional[List[str]] = None
    if backend_name.startswith("mixed:"):
        shard_names = backend_name[len("mixed:") :].split(",")
        if len(shard_names) != num_shards:
            raise CodecError(
                f"mixed store frame names {len(shard_names)} shard "
                f"backends for {num_shards} shards"
            )
    filters = []
    entries = []
    for shard in range(num_shards):
        name = backend_name if shard_names is None else shard_names[shard]
        if version >= 2:
            entries.append(_read_entry(reader, name))
        else:
            # Version-1 store frames predate incremental rebuilds: shard
            # generations default to 1 and fingerprints stay unknown (the
            # first incremental rebuild treats those shards as dirty).
            entries.append(ShardEntry(reader.u64(), 1, None, name))
        filters.append(loads(reader.bytes_field(), zero_copy=reader.zero_copy))
    return ShardedFilterStore(filters, router_seed, entries)


# --------------------------------------------------------------------- #
# The envelope
# --------------------------------------------------------------------- #
def _seal(magic: bytes, version: int, kind: int, payload: bytes) -> bytes:
    """``magic 4s | version u8 | kind u8 | length u32 | payload | crc32``,
    the CRC over everything after the magic."""
    header = _HEADER.pack(magic, version, kind, len(payload))
    crc = zlib.crc32(payload, zlib.crc32(header[4:]))
    return b"".join((header, payload, _U32.pack(crc)))


def _open_header(
    header, magic: bytes, versions: Sequence[int], what: str
) -> Tuple[int, int, int]:
    """Check a header's magic and version; returns ``(version, kind, length)``.

    A stream reader calls this before it reads the payload, then
    :func:`_check_crc`; :func:`_unseal` does both for a whole envelope.
    """
    found, version, kind, length = _HEADER.unpack_from(header)
    if found != magic:
        raise CodecError(f"bad {what} magic {found!r} (expected {magic!r})")
    if version not in versions:
        raise CodecError(
            f"unsupported {what} version {version} (readable: "
            f"{', '.join(map(str, versions))})"
        )
    return version, kind, length


def _frame_length(data) -> int:
    """Bytes of the codec frame that opens ``data``, read from its header.

    For a buffer that holds one frame and then padding, such as a
    shared-memory segment; :func:`loads` checks the frame itself.
    """
    if len(data) < _HEADER.size + 4:
        raise CodecError(
            f"frame too short: {len(data)} bytes < minimum {_HEADER.size + 4}"
        )
    _version, _kind, length = _open_header(data, FRAME_MAGIC, READABLE_VERSIONS, "frame")
    total = _HEADER.size + length + 4
    if total > len(data):
        raise CodecError(
            f"frame header declares {length} payload bytes but the buffer "
            f"holds only {len(data) - _HEADER.size - 4}"
        )
    return total


def _check_crc(header, payload, stored_crc: int, what: str) -> None:
    actual_crc = zlib.crc32(payload, zlib.crc32(header[4:]))
    if stored_crc != actual_crc:
        raise CodecError(
            f"{what} checksum mismatch: stored {stored_crc:#010x}, computed "
            f"{actual_crc:#010x}"
        )


def _unseal(data, magic: bytes, versions: Sequence[int], what: str):
    """Check one whole envelope; returns ``(version, kind, payload)``.

    The payload is a copy for ``bytes`` and a view of any other buffer, so
    zero-copy decoding can alias a mapping.
    """
    if len(data) < _HEADER.size + 4:
        raise CodecError(
            f"{what} too short: {len(data)} bytes < minimum {_HEADER.size + 4}"
        )
    version, kind, length = _open_header(data, magic, versions, what)
    end = _HEADER.size + length
    if len(data) != end + 4:
        raise CodecError(
            f"{what} length mismatch: header declares {length} payload bytes "
            f"but it holds {len(data) - _HEADER.size - 4}"
        )
    view = data if isinstance(data, (bytes, bytearray)) else memoryview(data)
    payload = view[_HEADER.size : end]
    _check_crc(view[: _HEADER.size], payload, _U32.unpack_from(data, end)[0], what)
    return version, kind, payload


# --------------------------------------------------------------------- #
# Public API
# --------------------------------------------------------------------- #
def dumps(obj: Any) -> bytes:
    """Serialize a supported filter structure into one binary frame."""
    from repro.baselines.learned.adabf import AdaptiveLearnedBloomFilter
    from repro.baselines.learned.lbf import LearnedBloomFilter
    from repro.baselines.learned.model import KeyScoreModel
    from repro.baselines.learned.slbf import SandwichedLearnedBloomFilter
    from repro.kvstore.filter_policy import AlwaysContainsFilter
    from repro.service.diskstore import _LazyShardFilter

    if isinstance(obj, _LazyShardFilter):
        return obj.frame()  # a disk tier's shard: its committed frame, not decoded
    writer = _Writer()
    if isinstance(obj, ShardedFilterStore):
        tag = TAG_SHARDED_STORE
        _encode_store(writer, obj)
    elif isinstance(obj, EmptyShardFilter):
        tag = TAG_EMPTY_SHARD
    elif isinstance(obj, AlwaysContainsFilter):
        tag = TAG_ALWAYS_CONTAINS
    elif isinstance(obj, FastHABF):
        tag = TAG_FAST_HABF
        _encode_habf(writer, obj)
    elif isinstance(obj, HABF):
        tag = TAG_HABF
        _encode_habf(writer, obj)
    elif isinstance(obj, BloomFilter):
        tag = TAG_BLOOM
        _encode_bloom(writer, obj)
    elif isinstance(obj, HashExpressor):
        tag = TAG_EXPRESSOR
        _encode_expressor(writer, obj)
    elif isinstance(obj, XorFilter):
        tag = TAG_XOR
        _encode_xor(writer, obj)
    elif isinstance(obj, WeightedBloomFilter):
        tag = TAG_WBF
        _encode_wbf(writer, obj)
    elif isinstance(obj, KeyScoreModel):
        tag = TAG_SCORE_MODEL
        _encode_model(writer, obj)
    elif isinstance(obj, LearnedBloomFilter):
        tag = TAG_LBF
        _encode_lbf(writer, obj)
    elif isinstance(obj, SandwichedLearnedBloomFilter):
        tag = TAG_SLBF
        _encode_slbf(writer, obj)
    elif isinstance(obj, AdaptiveLearnedBloomFilter):
        tag = TAG_ADABF
        _encode_adabf(writer, obj)
    elif isinstance(obj, BitArray):
        tag = TAG_BITARRAY
        _encode_bitarray(writer, obj)
    else:
        raise CodecError(
            f"cannot serialize object of type {type(obj).__name__}; supported: "
            "BitArray, BloomFilter, HashExpressor, HABF, FastHABF, XorFilter, "
            "WeightedBloomFilter, KeyScoreModel, LBF, SLBF, Ada-BF, "
            "ShardedFilterStore and the degenerate shard/table filters"
        )
    return _seal(FRAME_MAGIC, CODEC_VERSION, tag, writer.getvalue())


def loads(data, *, zero_copy: bool = False) -> Any:
    """Decode one binary frame back into the filter structure it encodes.

    Args:
        data: The frame bytes — any buffer-protocol object (``bytes``,
            ``memoryview``, a ``multiprocessing.shared_memory`` slice).
        zero_copy: When true, decoded ``BitArray`` payloads *alias* ``data``
            instead of copying it, so the caller's buffer must outlive the
            decoded structure and the filters come back read-only (see
            :meth:`repro.core.bitarray.BitArray.view`).  Slot-table filters
            (Xor, HashExpressor) decode into their own arrays regardless.

    Raises:
        CodecError: on bad magic, unsupported version, unknown type tag,
            truncation, trailing garbage or checksum mismatch.
    """
    version, tag, payload = _unseal(data, FRAME_MAGIC, READABLE_VERSIONS, "frame")
    reader = _Reader(payload, zero_copy=zero_copy)
    try:
        if tag == TAG_BITARRAY:
            result: Any = _decode_bitarray(reader)
        elif tag == TAG_BLOOM:
            result = _decode_bloom(reader)
        elif tag == TAG_EXPRESSOR:
            result = _decode_expressor(reader)
        elif tag == TAG_HABF:
            result = _decode_habf(reader, HABF)
        elif tag == TAG_FAST_HABF:
            result = _decode_habf(reader, FastHABF)
        elif tag == TAG_XOR:
            result = _decode_xor(reader)
        elif tag == TAG_WBF:
            result = _decode_wbf(reader)
        elif tag == TAG_SCORE_MODEL:
            result = _decode_model(reader)
        elif tag == TAG_LBF:
            result = _decode_lbf(reader)
        elif tag == TAG_SLBF:
            result = _decode_slbf(reader)
        elif tag == TAG_ADABF:
            result = _decode_adabf(reader)
        elif tag == TAG_SHARDED_STORE:
            result = _decode_store(reader, version)
        elif tag == TAG_EMPTY_SHARD:
            result = EmptyShardFilter()
        elif tag == TAG_ALWAYS_CONTAINS:
            from repro.kvstore.filter_policy import AlwaysContainsFilter

            result = AlwaysContainsFilter()
        else:
            raise CodecError(f"unknown frame type tag {tag}")
        reader.expect_end()
    except CodecError:
        raise
    except Exception as exc:
        # Structurally valid bytes can still describe an unbuildable object
        # (zero shards, unknown primitive name, ...); callers are promised
        # CodecError for every malformed frame, so normalise here.
        raise CodecError(f"malformed frame payload: {exc}") from exc
    return result


def loads_as(data, cls: type, *, zero_copy: bool = False) -> Any:
    """Decode one frame and require the result to be an instance of ``cls``.

    The typed twin of :func:`loads`, used by the ``from_frame`` classmethods
    on the filter classes.

    Raises:
        CodecError: for every malformed frame, and additionally when the
            frame decodes to a different structure than ``cls``.
    """
    obj = loads(data, zero_copy=zero_copy)
    if not isinstance(obj, cls):
        raise CodecError(
            f"frame holds {type(obj).__name__}, expected {cls.__name__}"
        )
    return obj


def dump(obj: Any, path) -> int:
    """Serialize ``obj`` to ``path``; returns the number of bytes written."""
    frame = dumps(obj)
    with open(path, "wb") as handle:
        handle.write(frame)
    return len(frame)


def load(path) -> Any:
    """Read one frame from ``path`` and decode it."""
    with open(path, "rb") as handle:
        return loads(handle.read())
