"""One bounded, thread-safe LRU cache with one set of counters.

Every memo the :class:`repro.runtime.ExecutionContext` owns — kernel
builds, the simulation cache's memory tier, conv plans, schedule-search
winners, lint verdicts and the simulator's per-problem memory images —
is an :class:`LRUCache`, so each reports the same :class:`CacheStats`
and one :meth:`LRUCache.clear` drops its entries and zeroes its
counters.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
from typing import Callable, Generic, Hashable, TypeVar

V = TypeVar("V")


@dataclasses.dataclass
class CacheStats:
    """A snapshot of one :class:`LRUCache`'s counters.

    ``misses`` counts lookups that found no entry, ``builds`` the values
    :meth:`LRUCache.get_or_build` computed after a miss, and
    ``evictions`` the entries the bound pushed out.  ``max_entries`` is
    the bound (``None``: unbounded).
    """

    hits: int = 0
    misses: int = 0
    builds: int = 0
    evictions: int = 0
    size: int = 0
    max_entries: int | None = None

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache(Generic[V]):
    """A map from hashable keys to values, least recently used evicted first.

    *max_entries* bounds the number of entries (``None``: unbounded).
    Every method takes one lock; :meth:`get_or_build` runs its build
    outside it, so slow builds of different keys do not serialize.
    """

    def __init__(self, max_entries: int | None):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"cache bound must be >= 1 or None, got {max_entries}")
        self._lock = threading.Lock()
        self._entries: collections.OrderedDict[Hashable, V] = collections.OrderedDict()
        self._stats = CacheStats(max_entries=max_entries)

    def get(self, key: Hashable) -> V | None:
        """The value under *key* (now the most recent), else ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._stats.misses += 1
            else:
                self._entries.move_to_end(key)
                self._stats.hits += 1
            return value

    def put(self, key: Hashable, value: V) -> None:
        """Store *value* under *key* as the most recent entry."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._evict()

    def get_or_build(self, key: Hashable, build: Callable[[], V]) -> V:
        """The value under *key*, or ``build()`` stored there on a miss.

        When two callers race to build one key, both build and the first
        value stored is the one every caller gets.
        """
        value = self.get(key)
        if value is not None:
            return value
        value = build()
        with self._lock:
            self._stats.builds += 1
            if key not in self._entries:
                self._entries[key] = value
                self._evict()
            return self._entries[key]

    def items(self) -> list[tuple[Hashable, V]]:
        """A copy of the entries, least recently used first."""
        with self._lock:
            return list(self._entries.items())

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        with self._lock:
            self._entries.clear()
            self._stats = CacheStats(max_entries=self._stats.max_entries)

    def stats(self) -> CacheStats:
        with self._lock:
            return dataclasses.replace(self._stats, size=len(self._entries))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _evict(self) -> None:
        bound = self._stats.max_entries
        while bound is not None and len(self._entries) > bound:
            self._entries.popitem(last=False)
            self._stats.evictions += 1
