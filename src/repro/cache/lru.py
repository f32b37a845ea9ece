"""Generic LRU machinery shared by Flash's caches and the simulator.

The paper uses LRU in two places with slightly different shapes:

* an *LRU cache* with a hard entry or byte limit (pathname translation cache,
  response header cache, the simulator's OS buffer cache), and
* an *LRU free list* of inactive pinned resources (Section 5.4's mapped-file
  chunks; here the descriptor cache's open files): resources in use are
  pinned and only inactive ones are eligible for eviction, which is how
  Flash approximates the kernel's clock replacement.

Both are built here on ordered dictionaries so the rest of the code base
never reimplements eviction logic.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Hashable, Iterator, Optional, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """A size-bounded least-recently-used cache.

    The bound may be expressed in entries (``max_entries``), in a
    caller-defined cost such as bytes (``max_cost`` with ``cost_fn``), or
    both.  Lookups refresh recency; insertion evicts from the cold end until
    both bounds hold.

    Parameters
    ----------
    max_entries:
        Maximum number of entries, or ``None`` for unbounded.
    max_cost:
        Maximum total cost, or ``None`` for unbounded.
    cost_fn:
        Function computing the cost of a value; defaults to ``1`` per entry.
    on_evict:
        Optional callback invoked as ``on_evict(key, value)`` for every
        evicted (not explicitly removed) entry; used e.g. to unmap chunks.
    """

    def __init__(
        self,
        max_entries: Optional[int] = None,
        max_cost: Optional[float] = None,
        cost_fn: Optional[Callable[[V], float]] = None,
        on_evict: Optional[Callable[[K, V], None]] = None,
    ):
        if max_entries is not None and max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        if max_cost is not None and max_cost < 0:
            raise ValueError("max_cost must be non-negative")
        self.max_entries = max_entries
        self.max_cost = max_cost
        self._cost_fn = cost_fn or (lambda _value: 1.0)
        self._on_evict = on_evict
        self._entries: OrderedDict[K, V] = OrderedDict()
        self._costs: dict[K, float] = {}
        self._total_cost = 0.0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[K]:
        return iter(self._entries)

    @property
    def total_cost(self) -> float:
        """Sum of the costs of all cached values."""
        return self._total_cost

    @property
    def hit_rate(self) -> float:
        """Fraction of ``get`` calls that hit, 0.0 when never queried."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(self, key: K, default: Optional[V] = None) -> Optional[V]:
        """Return the cached value for ``key``, refreshing its recency."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return self._entries[key]
        self.misses += 1
        return default

    def peek(self, key: K, default: Optional[V] = None) -> Optional[V]:
        """Return the cached value without refreshing recency or counting."""
        return self._entries.get(key, default)

    def put(self, key: K, value: V) -> None:
        """Insert or update ``key``, evicting cold entries as needed."""
        if key in self._entries:
            self._total_cost -= self._costs[key]
            del self._entries[key]
            del self._costs[key]
        cost = float(self._cost_fn(value))
        self._entries[key] = value
        self._costs[key] = cost
        self._total_cost += cost
        self._evict_to_bounds()

    def remove(self, key: K) -> Optional[V]:
        """Remove ``key`` without invoking the eviction callback."""
        if key not in self._entries:
            return None
        value = self._entries.pop(key)
        self._total_cost -= self._costs.pop(key)
        return value

    def clear(self) -> None:
        """Drop every entry without invoking the eviction callback."""
        self._entries.clear()
        self._costs.clear()
        self._total_cost = 0.0

    def keys(self) -> list[K]:
        """Keys ordered from least to most recently used."""
        return list(self._entries.keys())

    def _evict_to_bounds(self) -> None:
        while self._over_bounds() and self._entries:
            key, value = self._entries.popitem(last=False)
            self._total_cost -= self._costs.pop(key)
            self.evictions += 1
            if self._on_evict is not None:
                self._on_evict(key, value)

    def _over_bounds(self) -> bool:
        if self.max_entries is not None and len(self._entries) > self.max_entries:
            return True
        if self.max_cost is not None and self._total_cost > self.max_cost:
            return True
        return False


class LRUList(Generic[K]):
    """An LRU-ordered free list of keys, as used by the descriptor cache.

    Unlike :class:`LRUCache`, this structure stores only keys: the
    descriptor cache keeps the descriptor objects itself, moving keys onto
    this list when a descriptor becomes inactive and removing them when it
    is reused.
    ``pop_coldest`` yields eviction victims in least-recently-used order.
    """

    def __init__(self) -> None:
        self._order: OrderedDict[K, None] = OrderedDict()

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, key: K) -> bool:
        return key in self._order

    def touch(self, key: K) -> None:
        """Add ``key`` (or refresh it) as the most recently used entry."""
        if key in self._order:
            self._order.move_to_end(key)
        else:
            self._order[key] = None

    def discard(self, key: K) -> bool:
        """Remove ``key`` if present; return whether it was present."""
        if key in self._order:
            del self._order[key]
            return True
        return False

    def pop_coldest(self) -> K:
        """Remove and return the least recently used key.

        Raises :class:`KeyError` when the list is empty.
        """
        if not self._order:
            raise KeyError("pop_coldest on empty LRUList")
        key, _ = self._order.popitem(last=False)
        return key

    def coldest(self) -> Optional[K]:
        """Return (without removing) the least recently used key."""
        return next(iter(self._order), None)
