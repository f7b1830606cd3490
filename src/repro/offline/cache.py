"""Content-addressed on-disk cache for offline OPT brackets.

:func:`repro.offline.bracket.opt_bracket` is *pure* in ``(instance,
exact_limit, force_bounds)`` — the same job set on the same machine count
always yields the same certified bracket — and it dominates the cost of a
sweep cell.  Reruns across algorithm variants, resumed journals and
repeated report generation therefore recompute identical brackets over
and over.  :class:`BracketCache` eliminates that waste with two tiers:

* a **process-local LRU** (an ``OrderedDict`` capped at
  ``max_memory_entries``) absorbing repeated lookups within one process;
* a **content-addressed disk tier**: one atomic JSON file per bracket
  under a sharded directory (``<cache_dir>/<key[:2]>/<key[2:]>.json``),
  shared between processes and across runs.

Keys are SHA-256 digests of a *canonical* instance fingerprint — the
sorted multiset of ``(release, processing, deadline)`` triples plus the
machine count — combined with ``exact_limit``, ``force_bounds`` and
:data:`CACHE_VERSION`.  Job order, ids, names, metadata and the declared
slack ``epsilon`` do not enter the key: none of them can change the
offline optimum.  Bumping :data:`CACHE_VERSION` (done whenever the
bracket computation itself changes meaning) invalidates every old entry
by construction — stale files simply stop being addressed.

Robustness contract:

* **writes are atomic** — entries are written to a temp file in the
  shard directory and ``os.replace``'d into place, so concurrent writers
  (e.g. the resilient runner's fresh worker processes) can race on the
  same key and the loser merely overwrites identical bytes;
* **a bad entry is a miss, never a crash** — truncated, garbled,
  wrong-schema or non-finite entries are dropped (best-effort unlink),
  counted in :attr:`CacheStats.corrupt` and reported via
  :class:`BracketCacheWarning`;
* **an unusable cache directory degrades to pass-through** — I/O errors
  on read or write are counted (:attr:`CacheStats.io_errors`) and the
  bracket is computed as if no cache existed.

``BracketCache(":memory:")`` keeps only the LRU tier (used by the report
generator, which wants sharing within one invocation but no durable
state).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import tempfile
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.model.instance import Instance
from repro.offline.bracket import OptBracket, opt_bracket
from repro.offline.exact import EXACT_JOB_LIMIT

#: Cache schema/semantics version.  Part of every key: bump it whenever
#: the bracket computation or the entry layout changes meaning, and every
#: previously written entry becomes unreachable (a clean global miss).
#: Version 2: the flow bound is the exact maximum flow rounded up.
#: Version 3: exact values are summed in canonical dispatch order, which
#: can move them by a few ulps.
CACHE_VERSION = 3

#: Sentinel ``cache_dir`` selecting a memory-only cache (no disk tier).
MEMORY_ONLY = ":memory:"


class BracketCacheWarning(UserWarning):
    """A cache entry was unreadable and has been treated as a miss."""


def default_cache_dir() -> pathlib.Path:
    """The default on-disk location for bracket entries.

    ``$REPRO_CACHE_DIR/brackets`` when the environment variable is set,
    otherwise ``$XDG_CACHE_HOME/repro/brackets`` falling back to
    ``~/.cache/repro/brackets``.
    """
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        return pathlib.Path(root) / "brackets"
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "repro" / "brackets"


def instance_fingerprint(instance: Instance) -> str:
    """Canonical content fingerprint of *instance* (hex SHA-256).

    Hashes the sorted multiset of ``(release, processing, deadline)``
    triples plus the machine count — everything the offline optimum
    depends on, and nothing else.  Two instances with permuted job
    orders, different names/metadata or different declared ``epsilon``
    fingerprint identically.
    """
    triples = sorted(
        (job.release, job.processing, job.deadline) for job in instance.jobs
    )
    payload = json.dumps(
        {"machines": int(instance.machines), "jobs": triples},
        separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def bracket_key(
    instance: Instance,
    exact_limit: int = EXACT_JOB_LIMIT,
    force_bounds: bool = False,
) -> str:
    """Content address of one ``opt_bracket`` result (hex SHA-256).

    Combines the instance fingerprint with every remaining input of
    :func:`repro.offline.bracket.opt_bracket` plus :data:`CACHE_VERSION`.
    """
    payload = json.dumps(
        {
            "version": CACHE_VERSION,
            "instance": instance_fingerprint(instance),
            "exact_limit": int(exact_limit),
            "force_bounds": bool(force_bounds),
        },
        separators=(",", ":"),
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/evict counters for one :class:`BracketCache`."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    writes: int = 0
    #: entries pushed out of the memory LRU (they remain on disk).
    evictions: int = 0
    #: unreadable entries dropped and recomputed (never raised).
    corrupt: int = 0
    #: read/write OS failures absorbed by pass-through degradation.
    io_errors: int = 0

    @property
    def hits(self) -> int:
        """Total hits across both tiers."""
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """``hits / lookups`` (0.0 before the first lookup)."""
        return 0.0 if self.lookups == 0 else self.hits / self.lookups

    def as_dict(self) -> dict[str, Any]:
        """Flat dict form (JSON/report-friendly), including derived rates."""
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "io_errors": self.io_errors,
            "hit_rate": self.hit_rate,
        }

    def merge(self, other: "CacheStats | dict[str, Any]") -> None:
        """Accumulate counters from another stats object or its dict form.

        Derived fields (``hits``, ``hit_rate``) in a dict are ignored —
        they are recomputed from the merged counters.
        """
        source = other.as_dict() if isinstance(other, CacheStats) else other
        for name in (
            "memory_hits",
            "disk_hits",
            "misses",
            "writes",
            "evictions",
            "corrupt",
            "io_errors",
        ):
            setattr(self, name, getattr(self, name) + int(source.get(name, 0)))


@dataclass(frozen=True)
class CacheReport:
    """On-disk census of a cache directory (``repro cache stats``)."""

    directory: str
    entries: int
    shards: int
    total_bytes: int

    def as_dict(self) -> dict[str, Any]:
        """Flat dict form (JSON-friendly)."""
        return {
            "directory": self.directory,
            "entries": self.entries,
            "shards": self.shards,
            "total_bytes": self.total_bytes,
            "version": CACHE_VERSION,
        }


class BracketCache:
    """Two-tier content-addressed cache of :class:`OptBracket` records.

    ``cache_dir`` defaults to :func:`default_cache_dir`; pass
    :data:`MEMORY_ONLY` (``":memory:"``) to disable the disk tier.  The
    instance is picklable: only the configuration crosses process
    boundaries — each fresh worker process starts with an empty LRU and
    zeroed stats over the *shared* disk directory.
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike[str] | None = None,
        max_memory_entries: int = 512,
    ) -> None:
        if max_memory_entries < 0:
            raise ValueError(
                f"max_memory_entries must be >= 0, got {max_memory_entries}"
            )
        self.memory_only = cache_dir == MEMORY_ONLY
        self.cache_dir = (
            None
            if self.memory_only
            else pathlib.Path(cache_dir) if cache_dir is not None else default_cache_dir()
        )
        self.max_memory_entries = max_memory_entries
        self.stats = CacheStats()
        self._memory: OrderedDict[str, OptBracket] = OrderedDict()

    # -- pickling: ship configuration, not contents --------------------

    def __getstate__(self) -> dict[str, Any]:
        return {
            "cache_dir": MEMORY_ONLY if self.memory_only else os.fspath(self.cache_dir),
            "max_memory_entries": self.max_memory_entries,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__init__(state["cache_dir"], state["max_memory_entries"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = MEMORY_ONLY if self.memory_only else os.fspath(self.cache_dir)
        return f"BracketCache({where!r}, entries_in_memory={len(self._memory)})"

    # -- layout --------------------------------------------------------

    def entry_path(self, key: str) -> pathlib.Path:
        """Sharded on-disk location of *key* (two-hex-digit fan-out)."""
        if self.cache_dir is None:
            raise ValueError("memory-only cache has no on-disk entries")
        return self.cache_dir / key[:2] / f"{key[2:]}.json"

    def _iter_entry_files(self) -> Iterator[pathlib.Path]:
        if self.cache_dir is None or not self.cache_dir.is_dir():
            return
        for shard in sorted(self.cache_dir.iterdir()):
            if shard.is_dir() and len(shard.name) == 2:
                yield from sorted(shard.glob("*.json"))

    # -- memory tier ---------------------------------------------------

    def _memory_get(self, key: str) -> OptBracket | None:
        bracket = self._memory.get(key)
        if bracket is not None:
            self._memory.move_to_end(key)
        return bracket

    def _memory_put(self, key: str, bracket: OptBracket) -> None:
        if self.max_memory_entries == 0:
            return
        self._memory[key] = bracket
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    # -- disk tier -----------------------------------------------------

    def _disk_get(self, key: str) -> OptBracket | None:
        path = self.entry_path(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            self.stats.io_errors += 1
            return None
        bracket = self._decode_entry(raw)
        if bracket is None:
            self.stats.corrupt += 1
            warnings.warn(
                f"dropping corrupt bracket-cache entry {path} (recomputing)",
                BracketCacheWarning,
                stacklevel=3,
            )
            try:
                path.unlink()
            except OSError:  # pragma: no cover - unlink race / read-only dir
                pass
        return bracket

    @staticmethod
    def _decode_entry(raw: bytes) -> OptBracket | None:
        """Parse one entry; ``None`` for anything structurally unsound."""
        try:
            record = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(record, dict) or record.get("version") != CACHE_VERSION:
            return None
        try:
            lower = float(record["lower"])
            upper = float(record["upper"])
            exact = record["exact"]
        except (KeyError, TypeError, ValueError):
            return None
        if not isinstance(exact, bool):
            return None
        if not (math.isfinite(lower) and math.isfinite(upper)):
            return None
        if lower > upper:
            return None
        return OptBracket(lower=lower, upper=upper, exact=exact)

    def _disk_put(self, key: str, bracket: OptBracket) -> None:
        path = self.entry_path(key)
        record = json.dumps(
            {
                "version": CACHE_VERSION,
                "key": key,
                "lower": bracket.lower,
                "upper": bracket.upper,
                "exact": bracket.exact,
            },
            sort_keys=True,
            allow_nan=False,
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=".tmp-", suffix=".json", dir=path.parent
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(record)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            self.stats.io_errors += 1
            return
        self.stats.writes += 1

    # -- public API ----------------------------------------------------

    def get(
        self,
        instance: Instance,
        exact_limit: int = EXACT_JOB_LIMIT,
        force_bounds: bool = False,
    ) -> OptBracket | None:
        """Look the bracket up in both tiers; ``None`` is a miss."""
        key = bracket_key(instance, exact_limit, force_bounds)
        bracket = self._memory_get(key)
        if bracket is not None:
            self.stats.memory_hits += 1
            return bracket
        if self.cache_dir is not None:
            bracket = self._disk_get(key)
            if bracket is not None:
                self.stats.disk_hits += 1
                self._memory_put(key, bracket)
                return bracket
        self.stats.misses += 1
        return None

    def put(
        self,
        instance: Instance,
        bracket: OptBracket,
        exact_limit: int = EXACT_JOB_LIMIT,
        force_bounds: bool = False,
    ) -> None:
        """Store a computed bracket in both tiers (atomic on disk)."""
        key = bracket_key(instance, exact_limit, force_bounds)
        self._memory_put(key, bracket)
        if self.cache_dir is not None:
            self._disk_put(key, bracket)

    def bracket(
        self,
        instance: Instance,
        exact_limit: int = EXACT_JOB_LIMIT,
        force_bounds: bool = False,
    ) -> OptBracket:
        """Cached :func:`repro.offline.bracket.opt_bracket` (get-or-compute)."""
        cached = self.get(instance, exact_limit, force_bounds)
        if cached is not None:
            return cached
        bracket = opt_bracket(instance, exact_limit=exact_limit, force_bounds=force_bounds)
        self.put(instance, bracket, exact_limit, force_bounds)
        return bracket

    def clear(self) -> int:
        """Drop the memory tier and delete every on-disk entry.

        Returns the number of disk entries removed (0 for memory-only).
        Shard directories are pruned when emptied; foreign files are
        left untouched.
        """
        self._memory.clear()
        removed = 0
        for path in list(self._iter_entry_files()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                self.stats.io_errors += 1
        if self.cache_dir is not None and self.cache_dir.is_dir():
            for shard in self.cache_dir.iterdir():
                if shard.is_dir() and len(shard.name) == 2:
                    try:
                        shard.rmdir()
                    except OSError:
                        pass  # non-empty (foreign files) or racing writer
        return removed

    def scan(self) -> CacheReport:
        """Census of the disk tier (``repro cache stats`` backing)."""
        entries = 0
        shards: set[str] = set()
        total = 0
        for path in self._iter_entry_files():
            entries += 1
            shards.add(path.parent.name)
            try:
                total += path.stat().st_size
            except OSError:  # pragma: no cover - deleted mid-scan
                pass
        return CacheReport(
            directory=MEMORY_ONLY if self.cache_dir is None else os.fspath(self.cache_dir),
            entries=entries,
            shards=len(shards),
            total_bytes=total,
        )


def cached_opt_bracket(
    instance: Instance,
    exact_limit: int = EXACT_JOB_LIMIT,
    force_bounds: bool = False,
    cache: BracketCache | None = None,
) -> OptBracket:
    """``opt_bracket`` through an optional cache.

    With ``cache=None`` this is exactly
    :func:`repro.offline.bracket.opt_bracket` — the call-site-friendly
    form for APIs that thread an optional :class:`BracketCache`.
    """
    if cache is None:
        return opt_bracket(instance, exact_limit=exact_limit, force_bounds=force_bounds)
    return cache.bracket(instance, exact_limit=exact_limit, force_bounds=force_bounds)


__all__ = [
    "BracketCache",
    "BracketCacheWarning",
    "CacheReport",
    "CacheStats",
    "CACHE_VERSION",
    "MEMORY_ONLY",
    "bracket_key",
    "cached_opt_bracket",
    "default_cache_dir",
    "instance_fingerprint",
]
