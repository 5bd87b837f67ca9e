"""Exact memo of DISCO's Algorithm 1 decisions.

`compute_update` costs three transcendental evaluations per packet.  The
decision ``(delta, p_d)`` depends only on ``(c, l)``, and real traffic
reuses that pair heavily: packet lengths come from a small alphabet
(40/576/1500-byte modes) and a counter dwells on each value for many
packets once ``gap(c)`` is large.  Caching decisions therefore removes
most of the math from full-scale replays while remaining *bit-for-bit*
the same algorithm (the cache stores exact decisions, not approximations).

:class:`~repro.core.disco.DiscoSketch` always takes its decisions from
a private :class:`UpdateCache`, and the columnar DISCO kernel's general
tail phase shares one per ``b``; the cache-hit accounting makes the
speedup inspectable.
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

from repro.core.functions import CountingFunction
from repro.core.update import compute_update
from repro.errors import ParameterError

__all__ = ["UpdateCache"]


class UpdateCache:
    """Exact memo of Algorithm 1 decisions keyed by ``(c, l)``.

    Bounded: when ``max_entries`` is reached the cache is swapped for a
    fresh dict (the reuse pattern is bursty, so wholesale reset beats
    eviction bookkeeping at this scale).

    Thread-safe: lookups read the dict reference lock-free (values are
    exact, so a stale snapshot is still correct) while the miss path —
    compute, capacity swap, insert, accounting — runs under a lock.  The
    per-``b`` shared instances in :mod:`repro.core.kernels` are hit from
    multiple replica threads concurrently.
    """

    def __init__(self, function: CountingFunction,
                 max_entries: int = 1 << 20) -> None:
        if max_entries < 1:
            raise ParameterError(f"max_entries must be >= 1, got {max_entries!r}")
        self.function = function
        self.max_entries = max_entries
        self._cache: Dict[Tuple[int, float], Tuple[int, float]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        #: Number of wholesale resets taken when ``max_entries`` was hit.
        #: A climbing count means the working set outgrows the cache and
        #: the hit rate is being rebuilt from scratch each time — raise
        #: ``max_entries`` rather than trusting ``hit_rate`` alone.
        self.clears = 0

    def decision(self, c: int, l: float) -> Tuple[int, float]:
        key = (c, l)
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        decision = compute_update(self.function, c, l)
        value = (decision.delta, decision.probability)
        with self._lock:
            self.misses += 1
            if len(self._cache) >= self.max_entries:
                # Atomic swap, never in-place clear: concurrent readers
                # keep their (still exact) snapshot.
                self._cache = {}
                self.clears += 1
            self._cache[key] = value
        return value

    def clear(self) -> None:
        """Drop the memo and zero the accounting counters.

        Unlike the capacity resets ``decision`` takes internally (which
        bump ``clears`` and keep the hit/miss history), this is a full
        restart: ``hits``, ``misses`` and ``clears`` all return to 0, as
        if the cache were freshly built.
        """
        with self._lock:
            self._cache = {}
            self.hits = 0
            self.misses = 0
            self.clears = 0

    def __getstate__(self) -> Dict[str, object]:
        # Locks do not pickle; a sketch that owns a cache must still copy.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Accounting snapshot: hits, misses, hit rate, resets, occupancy."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "clears": self.clears,
            "entries": len(self._cache),
            "max_entries": self.max_entries,
        }
