"""Shared infrastructure for the precompiled per-problem fast scorers.

Every problem with a precompiled delta evaluator (PPP's bilinear scorer,
UBQP's gain tables, MaxSAT's clause-incidence scorer, NK's subfunction-mask
scorer) follows the same discipline:

* **Exactness guard** — the fast path only engages when its reordered
  arithmetic is provably bit-identical to the chunked reference evaluation
  (integer-valued intermediates below the float mantissa, identical
  reduction layouts).
* **Reference fallback** — move tables outside the compiled model (k > 2,
  duplicate indices, out-of-range bits, oversized workspaces) silently fall
  back to the reference path; the two paths agree bit for bit.
* **Evaluation path switch** — ``REPRO_EVAL_PATH`` selects the path for
  A/B timing and the identity test suites: ``reference`` forces the
  reference evaluation everywhere, ``fast`` runs the fast scorers but
  recomputes every neighborhood, and ``incremental`` (the default) adds
  the gain engine of :mod:`repro.problems.incremental` on top for PPP
  2-Hamming and MaxSAT lockstep runs.

This module holds the pieces those scorers share: the evaluation-path
reader, a bounded LRU cache (used for both the id-keyed move-table caches
and the shape-keyed workspace caches, which previously grew without limit
across many instances), a global registry behind :func:`clear_fast_caches`,
and the common k<=2 move-table validation.
"""

from __future__ import annotations

import os
import weakref
from typing import Callable

import numpy as np

__all__ = [
    "BoundedCache",
    "MoveTableCache",
    "cache_stats",
    "clear_fast_caches",
    "eval_path",
    "fast_path_enabled",
    "validated_pair_columns",
]

EVAL_PATH_ENV = "REPRO_EVAL_PATH"
#: Valid ``REPRO_EVAL_PATH`` values, slowest first; the last is the default.
EVAL_PATHS = ("reference", "fast", "incremental")
#: Per-layer switches that ``REPRO_EVAL_PATH`` replaced.  Setting one is an
#: error rather than a silent no-op, so an A/B run never times the wrong path.
_RETIRED_SWITCHES = (
    "REPRO_PPP_FAST",
    "REPRO_UBQP_FAST",
    "REPRO_MAXSAT_FAST",
    "REPRO_NK_FAST",
    "REPRO_INCREMENTAL",
)

#: Every live :class:`BoundedCache` registers itself here (weakly, so caches
#: die with their scorers); :func:`clear_fast_caches` empties them all.
_CACHE_REGISTRY: "weakref.WeakSet[BoundedCache]" = weakref.WeakSet()
#: Hit/miss/eviction counts over every cache ever created.  Each cache adds
#: to these as it counts, so a cache that dies (a per-run workspace cache)
#: keeps its share and the totals never decrease.
_TOTALS = {"hits": 0, "misses": 0, "evictions": 0}


def eval_path() -> str:
    """The evaluation path selected by ``REPRO_EVAL_PATH`` (validated)."""
    for name in _RETIRED_SWITCHES:
        if name in os.environ:
            raise ValueError(
                f"{name} is no longer supported; set {EVAL_PATH_ENV} to one of "
                f"{', '.join(EVAL_PATHS)} instead"
            )
    value = os.environ.get(EVAL_PATH_ENV, EVAL_PATHS[-1])
    if value not in EVAL_PATHS:
        raise ValueError(
            f"{EVAL_PATH_ENV} must be one of {', '.join(EVAL_PATHS)}, got {value!r}"
        )
    return value


def fast_path_enabled() -> bool:
    """Whether the precompiled fast scorers run (every path but ``reference``)."""
    return eval_path() != "reference"


def clear_fast_caches() -> None:
    """Empty every live fast-scorer cache (move tables and workspaces).

    The caches are bounded LRU maps, so calling this is never required for
    correctness — it exists to release the cached preprocessing and scratch
    buffers eagerly (e.g. between benchmark phases or memory-sensitive
    batch jobs).
    """
    for cache in list(_CACHE_REGISTRY):
        cache.clear()


def cache_stats() -> dict:
    """Cache counters: live caches and entries, and process-wide totals.

    ``caches`` and ``entries`` count the live caches.  ``hits``, ``misses``
    and ``evictions`` count over every cache ever created, dead ones
    included, so the difference of two readings is never negative.
    Surfaced by the hot-loop profiler so move-table and gain-state cache
    behavior is observable under long runs.
    """
    live = list(_CACHE_REGISTRY)
    return {
        "caches": len(live),
        "entries": sum(len(cache) for cache in live),
        **_TOTALS,
    }


class BoundedCache:
    """A small insertion-ordered LRU mapping.

    Used for the per-scorer move-table caches (keyed by array identity) and
    workspace caches (keyed by shape).  Lookups refresh recency; inserts
    beyond ``maxsize`` evict the least recently used entry.
    """

    __slots__ = ("maxsize", "_data", "hits", "misses", "evictions", "__weakref__")

    def __init__(self, maxsize: int) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = int(maxsize)
        self._data: dict = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        _CACHE_REGISTRY.add(self)

    def get(self, key, default=None):
        try:
            value = self._data.pop(key)
        except KeyError:
            self.misses += 1
            _TOTALS["misses"] += 1
            return default
        self.hits += 1
        _TOTALS["hits"] += 1
        self._data[key] = value  # re-insert as most recently used
        return value

    def put(self, key, value) -> None:
        self._data.pop(key, None)
        self._data[key] = value
        while len(self._data) > self.maxsize:
            self._data.pop(next(iter(self._data)))
            self.evictions += 1
            _TOTALS["evictions"] += 1

    def stats(self) -> dict:
        """Cumulative cache-behavior counters (survive :meth:`clear`)."""
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data


class MoveTableCache:
    """Identity-keyed cache of per-move-table preprocessing.

    The kernels pass the same frozen (read-only) move array every launch, so
    its ``id`` is a stable cache key as long as a strong reference to the
    array is held — the cache stores ``(moves, table)`` pairs and double
    checks identity on hit.  Writable arrays may be mutated by the caller
    between calls and are rebuilt fresh every time.
    """

    __slots__ = ("_build", "_cache", "writable_rebuilds")

    def __init__(self, build: Callable[[np.ndarray], object], maxsize: int = 8) -> None:
        self._build = build
        self._cache = BoundedCache(maxsize)
        self.writable_rebuilds = 0

    def lookup(self, moves: np.ndarray):
        """The preprocessed table for ``moves`` (``None`` if out of model)."""
        if moves.flags.writeable:
            self.writable_rebuilds += 1
            return self._build(moves)
        entry = self._cache.get(id(moves))
        if entry is not None and entry[0] is moves:
            return entry[1]
        table = self._build(moves)
        if table is not None:
            self._cache.put(id(moves), (moves, table))
        return table

    def stats(self) -> dict:
        """Cumulative counters of the underlying identity-keyed cache."""
        stats = self._cache.stats()
        stats["writable_rebuilds"] = self.writable_rebuilds
        return stats

    def __len__(self) -> int:
        return len(self._cache)


def validated_pair_columns(
    moves: np.ndarray,
    n: int,
    *,
    allow_duplicates: bool = False,
) -> tuple[np.ndarray, np.ndarray | None] | None:
    """Split a k<=2 move table into contiguous column arrays, or ``None``.

    Returns ``(cols_i, cols_j)`` with ``cols_j is None`` for 1-bit moves.
    Rejects (returns ``None``) empty tables, k outside {1, 2}, out-of-range
    bit indices and — unless the scorer's arithmetic represents double flips
    exactly (``allow_duplicates``) — repeated indices within a move.
    """
    if moves.ndim != 2 or moves.shape[1] not in (1, 2) or moves.shape[0] == 0:
        return None
    if moves.min() < 0 or moves.max() >= n:
        return None
    cols_i = np.ascontiguousarray(moves[:, 0])
    if moves.shape[1] == 1:
        return cols_i, None
    cols_j = np.ascontiguousarray(moves[:, 1])
    if not allow_duplicates and (cols_i == cols_j).any():
        return None
    return cols_i, cols_j
