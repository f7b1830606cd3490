"""Content-addressed cache for offline OPT brackets, on one append-only log.

:func:`repro.offline.bracket.opt_bracket` is *pure* in ``(instance,
exact_limit, force_bounds)`` — the same job set on the same machine count
always yields the same certified bracket — and it dominates the cost of a
sweep cell.  Reruns across algorithm variants, resumed journals and
repeated report generation therefore recompute identical brackets over
and over.  :class:`BracketCache` eliminates that waste with two tiers:

* a **process-local LRU** (an ``OrderedDict`` capped at
  ``max_memory_entries``) absorbing repeated lookups within one process;
* a **disk tier**: one append-only log per cache directory,
  ``<cache_dir>/brackets-v<CACHE_VERSION>.jsonl``, shared between
  processes and across runs.  Each line is one
  :func:`repro.utils.sealed_log.record_line` of ``{key, lower, upper,
  exact, crc}``.  A process reads the log once, at its first lookup,
  into an index, and answers every later lookup from it: a miss does no
  file I/O.  The process's own entries go into the index too.

Keys are SHA-256 digests of a *canonical* instance fingerprint — the
sorted multiset of ``(release, processing, deadline)`` triples plus the
machine count — combined with ``exact_limit``, ``force_bounds`` and
:data:`CACHE_VERSION`.  Job order, ids, names, metadata and the declared
slack ``epsilon`` do not enter the key: none of them can change the
offline optimum.  Bumping :data:`CACHE_VERSION` (done whenever the
bracket computation itself changes meaning) invalidates every old entry
by construction — the new version reads a log of its own.

Robustness contract:

* **appends never interleave** — one append opens the log, takes an
  exclusive ``flock``, completes a torn last line with a newline, writes
  its lines with one write and closes the file.  No descriptor outlives
  an append, so none is inherited across ``fork``, and any number of
  processes share the log.  Inside :meth:`BracketCache.batch` the block's
  new entries are one append;
* **no fsync** — the cache needs integrity, which the CRC and the
  torn-line skip give, not durability: a lost entry costs one recompute;
* **a bad line is a miss, never a crash** — a torn, undecodable,
  wrong-shaped or non-finite line, or one whose CRC fails, is skipped,
  counted in :attr:`CacheStats.corrupt` and reported via
  :class:`BracketCacheWarning`; its bracket is recomputed and appended
  again;
* **an unusable cache directory degrades to pass-through** — I/O errors
  on read or write are counted (:attr:`CacheStats.io_errors`) and the
  bracket is computed as if no cache existed.

Versions 1–3 kept one JSON file per bracket under two-hex-digit
directories (``<cache_dir>/<key[:2]>/<key[2:]>.json``).  Those files are
never read — their brackets are a clean miss, as after every version
bump — but :meth:`BracketCache.scan` counts them and
:meth:`BracketCache.clear` deletes them.

``BracketCache(":memory:")`` keeps only the LRU tier (used by the report
generator, which wants sharing within one invocation but no durable
state).
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import math
import os
import pathlib
import warnings
import zlib
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from repro.model.instance import Instance
from repro.offline.bracket import OptBracket, opt_bracket
from repro.offline.exact import EXACT_JOB_LIMIT
from repro.utils.sealed_log import LogReader, record_line

#: Cache schema/semantics version.  Part of every key and of the log's
#: file name: bump it whenever the bracket computation or the entry
#: layout changes meaning, and every previously written entry becomes
#: unreachable (a clean global miss).
#: Version 2: the flow bound is the exact maximum flow rounded up.
#: Version 3: exact values are summed in canonical dispatch order, which
#: can move them by a few ulps.
#: Version 4: one append-only CRC'd log per directory instead of one
#: file per entry.
CACHE_VERSION = 4

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


def _entry_crc(key: str, lower: float, upper: float, exact: bool) -> str:
    """CRC of one log entry: 8 hex digits over its canonical JSON payload.

    Floats serialise as their shortest round-trip literals, so the CRC of
    a decoded entry equals the CRC its writer computed.
    """
    blob = json.dumps([key, lower, upper, exact], allow_nan=False, separators=(",", ":"))
    return format(zlib.crc32(blob.encode("utf-8")), "08x")


def _decode_entry(record: dict[str, Any] | None) -> tuple[str, OptBracket] | None:
    """``(key, bracket)`` of one decoded log line; ``None`` if it is unsound.

    Unsound means not a JSON object, a missing or mistyped field, a
    non-finite or inverted bracket, or a CRC that does not match.
    """
    if record is None:
        return None
    key, lower, upper, exact = (record.get(f) for f in ("key", "lower", "upper", "exact"))
    if not (
        isinstance(key, str)
        and isinstance(lower, float)  # brackets are floats, even of no jobs
        and isinstance(upper, float)
        and isinstance(exact, bool)
        and math.isfinite(lower)
        and math.isfinite(upper)
        and lower <= upper
    ):
        return None
    if record.get("crc") != _entry_crc(key, lower, upper, exact):
        return None
    return key, OptBracket(lower=lower, upper=upper, exact=exact)


@dataclass
class CacheStats:
    """Hit/miss/evict counters for one :class:`BracketCache`."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    #: entries appended to the log.
    writes: int = 0
    #: entries pushed out of the memory LRU (they remain on disk).
    evictions: int = 0
    #: unreadable log lines skipped (their brackets are recomputed).
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
    #: distinct brackets in the log.
    entries: int
    #: log lines that would be skipped as corrupt.
    corrupt: int
    total_bytes: int
    #: entry files of the per-entry layout of versions 1–3 (never read).
    old_entries: int

    def as_dict(self) -> dict[str, Any]:
        """Flat dict form (JSON-friendly)."""
        return {
            "directory": self.directory,
            "entries": self.entries,
            "corrupt": self.corrupt,
            "total_bytes": self.total_bytes,
            "old_entries": self.old_entries,
            "version": CACHE_VERSION,
        }


class BracketCache:
    """Two-tier content-addressed cache of :class:`OptBracket` records.

    ``cache_dir`` defaults to :func:`default_cache_dir`; pass
    :data:`MEMORY_ONLY` (``":memory:"``) to disable the disk tier.
    Constructing one does no I/O.  The instance is picklable: only the
    configuration crosses process boundaries — each fresh worker process
    starts with an empty LRU, no index and zeroed stats over the *shared*
    log.
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
        #: the log's entries by key, read at the first lookup.
        self._index: dict[str, OptBracket] | None = None
        #: lines put inside :meth:`batch`, appended when it exits.
        self._pending: list[str] | None = None

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

    @property
    def log_path(self) -> pathlib.Path:
        """The disk tier's log: ``<cache_dir>/brackets-v<CACHE_VERSION>.jsonl``."""
        if self.cache_dir is None:
            raise ValueError("memory-only cache has no log")
        return self.cache_dir / f"brackets-v{CACHE_VERSION}.jsonl"

    def _old_entry_files(self) -> list[pathlib.Path]:
        """Entry files of the per-entry layout of versions 1–3."""
        if self.cache_dir is None or not self.cache_dir.is_dir():
            return []
        return [
            path
            for shard in sorted(self.cache_dir.iterdir())
            if shard.is_dir() and len(shard.name) == 2
            for path in sorted(shard.glob("*.json"))
        ]

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

    def _read_log(self) -> tuple[dict[str, OptBracket], int]:
        """The log's sound entries by key, and how many lines were not.

        A missing log is empty; other ``OSError`` s propagate.
        """
        try:
            reader = LogReader(self.log_path)
        except FileNotFoundError:
            return {}, 0
        entries: dict[str, OptBracket] = {}
        corrupt = 0
        for _, _, record in reader:
            entry = _decode_entry(record)
            if entry is None:
                corrupt += 1
            else:
                entries[entry[0]] = entry[1]
        return entries, corrupt + int(reader.truncated_tail)

    def _entries(self) -> dict[str, OptBracket]:
        """The index, read from the log at the first call."""
        if self._index is None:
            try:
                self._index, corrupt = self._read_log()
            except OSError:
                self._index, corrupt = {}, 0
                self.stats.io_errors += 1
            if corrupt:
                self.stats.corrupt += corrupt
                warnings.warn(
                    f"skipping {corrupt} corrupt line(s) of bracket-cache log "
                    f"{self.log_path} (their brackets are recomputed)",
                    BracketCacheWarning,
                    stacklevel=4,
                )
        return self._index

    def _append(self, lines: list[str]) -> None:
        """Append *lines* to the log with one write, under an exclusive lock."""
        data = "".join(lines).encode("utf-8")
        try:
            try:
                fh = open(self.log_path, "a+b")
            except FileNotFoundError:
                self.cache_dir.mkdir(parents=True, exist_ok=True)
                fh = open(self.log_path, "a+b")
            with fh:
                fcntl.flock(fh, fcntl.LOCK_EX)
                end = fh.seek(0, os.SEEK_END)
                if end:
                    fh.seek(end - 1)
                    if fh.read(1) != b"\n":
                        data = b"\n" + data  # complete a torn last line
                fh.write(data)
                fh.flush()
        except OSError:
            self.stats.io_errors += 1
            return
        self.stats.writes += len(lines)

    # -- lookups -------------------------------------------------------

    def _lookup(self, key: str) -> OptBracket | None:
        bracket = self._memory_get(key)
        if bracket is not None:
            self.stats.memory_hits += 1
            return bracket
        if self.cache_dir is not None:
            bracket = self._entries().get(key)
            if bracket is not None:
                self.stats.disk_hits += 1
                self._memory_put(key, bracket)
                return bracket
        self.stats.misses += 1
        return None

    def _store(self, key: str, bracket: OptBracket) -> None:
        self._memory_put(key, bracket)
        if self.cache_dir is None:
            return
        self._entries()[key] = bracket
        lower, upper, exact = bracket.lower, bracket.upper, bracket.exact
        line = record_line(
            {
                "key": key,
                "lower": lower,
                "upper": upper,
                "exact": exact,
                "crc": _entry_crc(key, lower, upper, exact),
            }
        )
        if self._pending is None:
            self._append([line])
        else:
            self._pending.append(line)

    # -- public API ----------------------------------------------------

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Append every entry put in the block with one append on exit.

        The entries go out even when the block raises; a nested batch
        joins the outer one.
        """
        if self._pending is not None or self.cache_dir is None:
            yield
            return
        self._pending = []
        try:
            yield
        finally:
            lines, self._pending = self._pending, None
            if lines:
                self._append(lines)

    def get(
        self,
        instance: Instance,
        exact_limit: int = EXACT_JOB_LIMIT,
        force_bounds: bool = False,
    ) -> OptBracket | None:
        """Look the bracket up in both tiers; ``None`` is a miss."""
        return self._lookup(bracket_key(instance, exact_limit, force_bounds))

    def put(
        self,
        instance: Instance,
        bracket: OptBracket,
        exact_limit: int = EXACT_JOB_LIMIT,
        force_bounds: bool = False,
    ) -> None:
        """Store a computed bracket in both tiers (appended at once outside
        :meth:`batch`)."""
        self._store(bracket_key(instance, exact_limit, force_bounds), bracket)

    def bracket(
        self,
        instance: Instance,
        exact_limit: int = EXACT_JOB_LIMIT,
        force_bounds: bool = False,
    ) -> OptBracket:
        """Cached :func:`repro.offline.bracket.opt_bracket` (get-or-compute)."""
        key = bracket_key(instance, exact_limit, force_bounds)
        cached = self._lookup(key)
        if cached is not None:
            return cached
        bracket = opt_bracket(instance, exact_limit=exact_limit, force_bounds=force_bounds)
        self._store(key, bracket)
        return bracket

    def clear(self) -> int:
        """Drop the memory tier, delete the log and every old-layout entry.

        Returns the number of brackets removed: the log's distinct
        entries plus the old layout's entry files (0 for memory-only).
        Old shard directories are pruned when emptied; foreign files are
        left untouched.
        """
        self._memory.clear()
        self._index = None
        if self.cache_dir is None:
            return 0
        removed = 0
        try:
            entries, _ = self._read_log()
            self.log_path.unlink(missing_ok=True)
            removed = len(entries)
        except OSError:
            self.stats.io_errors += 1
        for path in self._old_entry_files():
            try:
                path.unlink()
                removed += 1
            except OSError:
                self.stats.io_errors += 1
        if self.cache_dir.is_dir():
            for shard in self.cache_dir.iterdir():
                if shard.is_dir() and len(shard.name) == 2:
                    try:
                        shard.rmdir()
                    except OSError:
                        pass  # non-empty (foreign files) or racing writer
        return removed

    def scan(self) -> CacheReport:
        """Census of the disk tier (``repro cache stats`` backing)."""
        entries: dict[str, OptBracket] = {}
        corrupt = total = 0
        if self.cache_dir is not None and self.log_path.is_file():
            entries, corrupt = self._read_log()
            total = self.log_path.stat().st_size
        return CacheReport(
            directory=MEMORY_ONLY if self.cache_dir is None else os.fspath(self.cache_dir),
            entries=len(entries),
            corrupt=corrupt,
            total_bytes=total,
            old_entries=len(self._old_entry_files()),
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
