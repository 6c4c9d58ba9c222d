"""Kirsch–Mitzenmacher double hashing, used by f-HABF and the Fig. 14 BF variants.

The paper's fast variant (f-HABF) and the single-primitive Bloom filters
BF(City64) / BF(XXH128) avoid computing ``k`` independent hashes per key.
Instead they compute two base hashes ``h1(x)`` and ``h2(x)`` once and simulate
the ``i``-th hash as ``g_i(x) = h1(x) + i * h2(x)``.  This module provides a
:class:`DoubleHashFamily` that exposes the simulated functions through the
same :class:`~repro.hashing.base.HashFunction`-like calling convention the
rest of the library uses, so filters can swap hashing strategies without any
other code change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.hashing import vectorized as vec
from repro.hashing.base import HashFunction, Key, mix64, normalize_key
from repro.hashing.primitives import PRIMITIVES

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SimulatedHash:
    """The ``i``-th Kirsch–Mitzenmacher simulated hash ``g_i(x) = h1(x) + i*h2(x)``."""

    name: str
    index: int
    base1: Callable[[bytes], int]
    base2: Callable[[bytes], int]
    step: int
    family: object = None

    def raw(self, key: Key) -> int:
        data = normalize_key(key)
        h1 = self.base1(data)
        h2 = self.base2(data) | 1  # force odd so the step cycles the whole range
        return (h1 + self.step * h2) & _MASK64

    def __call__(self, key: Key, modulus: int) -> int:
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        return self.raw(key) % modulus

    def hash_many(self, keys, modulus: int = 0):
        """Vector form of :meth:`raw` / :meth:`__call__` over a whole batch.

        Shares one vectorized h1/h2 base pass per batch with every other
        simulated hash of the same family (via the batch cache); falls back
        to the scalar loop when numpy is unavailable.
        """
        if modulus < 0:
            raise ValueError("modulus must be positive (or 0 for no reduction)")
        np = vec.numpy_or_none()
        if np is None or self.family is None:
            if modulus:
                return [self(key, modulus) for key in keys]
            return [self.raw(key) for key in keys]
        batch = vec.as_batch(keys)
        h1, h2 = self.family.base_hashes_many(batch)
        values = h1 + np.uint64(self.step) * (h2 | np.uint64(1))
        if modulus:
            return values % np.uint64(modulus)
        return values


class DoubleHashFamily:
    """A family of ``size`` simulated hashes derived from two base primitives.

    The interface intentionally matches :class:`repro.hashing.registry.HashFamily`
    (indexing, iteration, ``initial_selection``) so filters accept either.
    """

    def __init__(self, size: int, primitive: str = "xxhash", seed: int = 0) -> None:
        if size < 1:
            raise ConfigurationError("double hash family needs size >= 1")
        if primitive not in PRIMITIVES:
            raise ConfigurationError(f"unknown base primitive {primitive!r}")
        base = PRIMITIVES[primitive]
        salt1 = (seed * 0x9E3779B97F4A7C15 + 0xA5A5A5A5) & _MASK64
        salt2 = (seed * 0xC2B2AE3D27D4EB4F + 0x5A5A5A5A) & _MASK64

        # The whole point of double hashing is to evaluate the base primitive
        # once per key instead of once per simulated function.  The simulated
        # functions are evaluated back-to-back on the same key by the filters,
        # so a single-entry memo captures that reuse without unbounded growth.
        memo: dict = {}

        def bases(data: bytes, _base=base, _s1=salt1, _s2=salt2, _memo=memo):
            cached = _memo.get(data)
            if cached is None:
                raw = _base(data)
                cached = (mix64(raw ^ _s1), mix64(raw ^ _s2))
                _memo.clear()
                _memo[data] = cached
            return cached

        def base1(data: bytes, _bases=bases) -> int:
            return _bases(data)[0]

        def base2(data: bytes, _bases=bases) -> int:
            return _bases(data)[1]

        self.name = f"double[{primitive}]"
        self.primitive_name = primitive
        self.seed = seed
        self._base = base
        self._salt1 = salt1
        self._salt2 = salt2
        self._functions: List[SimulatedHash] = [
            SimulatedHash(
                name=f"{primitive}+{i}*step",
                index=i,
                base1=base1,
                base2=base2,
                step=i + 1,
                family=self,
            )
            for i in range(size)
        ]

    def __len__(self) -> int:
        return len(self._functions)

    def __iter__(self):
        return iter(self._functions)

    def __getitem__(self, index: int) -> SimulatedHash:
        return self._functions[index]

    def subset(self, indexes: Sequence[int]) -> List[SimulatedHash]:
        return [self._functions[i] for i in indexes]

    def initial_selection(self, k: int) -> List[int]:
        if not 1 <= k <= len(self):
            raise ConfigurationError(f"k must be between 1 and {len(self)}, got {k}")
        return list(range(k))

    def names(self) -> List[str]:
        return [fn.name for fn in self._functions]

    def base_hashes_many(self, batch):
        """One vectorized base pass: ``(h1, h2)`` uint64 vectors for ``batch``.

        This is the whole point of lifting Kirsch–Mitzenmacher into the batch
        engine — every simulated function of the family derives from these
        two vectors with one multiply-add, so a k-probe query hashes each key
        once instead of k times.  Memoised on the batch.
        """
        np = vec.numpy_or_none()
        # Keyed by what the bases depend on, not by family identity: the
        # shards of one store build equal families, so a serving window's
        # shard groups all slice the bases computed once on the window.
        cache_key = ("double-bases", self._base, self._salt1, self._salt2)
        cached = batch.cache.get(cache_key)
        if cached is None:
            window = vec.window_of(batch)
            if window is not None:
                root, rows = window
                h1, h2 = self.base_hashes_many(root)
                cached = (h1[rows], h2[rows])
            else:
                raw = vec.hash_batch(self._base, batch)
                salts = np.array([[self._salt1], [self._salt2]], dtype=np.uint64)
                h1, h2 = vec.mix64(raw ^ salts)
                cached = (h1, h2)
            batch.cache[cache_key] = cached
        return cached

    def hash_many(self, keys, indexes: Optional[Sequence[int]] = None, modulus: int = 0):
        """Batch counterpart of :meth:`repro.hashing.registry.HashFamily.hash_many`.

        All requested simulated functions are derived from a single h1/h2
        base pass; returns a ``(len(indexes), len(keys))`` uint64 ndarray, or
        per-function scalar lists when numpy is unavailable.
        """
        chosen = list(indexes) if indexes is not None else list(range(len(self)))
        np = vec.numpy_or_none()
        if np is None:
            return [self._functions[i].hash_many(keys, modulus) for i in chosen]
        batch = vec.as_batch(keys)
        if not chosen:
            return np.zeros((0, len(batch)), dtype=np.uint64)
        h1, h2 = self.base_hashes_many(batch)
        steps = np.array([self._functions[i].step for i in chosen], dtype=np.uint64)
        values = h1 + steps[:, None] * (h2 | np.uint64(1))
        return values % np.uint64(modulus) if modulus else values


def double_hashing_family(size: int, primitive: str = "xxhash", seed: int = 0) -> DoubleHashFamily:
    """Convenience constructor matching :func:`repro.hashing.registry.build_family`."""
    return DoubleHashFamily(size=size, primitive=primitive, seed=seed)


__all__ = ["DoubleHashFamily", "SimulatedHash", "double_hashing_family", "HashFunction"]
