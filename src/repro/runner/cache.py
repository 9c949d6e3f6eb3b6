"""Content-addressed on-disk cache for experiment results and arrival streams.

A :class:`ResultCache` maps a *scenario specification* — any value the
canonical codec accepts (see :mod:`repro.runner.serialize`) — to a
stored payload. The address is ``SHA-256(canonical_json(spec) + salt)``:

* the canonical encoding makes the key invariant to dict insertion
  order and sensitive to any value change;
* the salt carries a cache schema tag plus the package version, so a
  release that changes the physics silently invalidates every entry
  rather than replaying stale results.

Entries are sharded two-level (``ab/ab12....json``) and written
atomically (temp file + ``os.replace``), so a crashed writer can never
leave a half-entry that a later reader trusts. A corrupt or undecodable
entry is treated as a miss and counted, never raised.

Concurrency contract: any number of processes may read and write one
cache directory at the same time. Every write lands under a fresh
``mkstemp`` name and is published with a single atomic ``os.replace``,
so readers observe either the previous complete entry or the new
complete entry — never a torn mix — and racing writers of the same key
resolve last-writer-wins (both wrote the same content-addressed value,
so which rename lands last is immaterial).

The cache is **off by default**: nothing in the library writes to disk
unless the user passes ``--cache`` on a CLI, sets ``REPRO_CACHE_DIR``,
or constructs a :class:`ResultCache` directly. Hit/miss/store counters
are reported through :mod:`repro.obs` under ``runner.cache.*`` when
collection is enabled.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
from pathlib import Path
from typing import Any

from repro.obs import get_registry
from repro.runner.serialize import (
    SerializationError,
    canonical_json,
    dumps_payload,
    loads_payload,
)

#: Environment variable naming the cache directory (enables the cache).
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Schema tag folded into every key; bump to invalidate all entries.
CACHE_SCHEMA = "repro.runner.cache/1"

#: Sentinel distinguishing "miss" from a legitimately-cached ``None``.
MISS = object()


def default_salt() -> str:
    """The key salt: cache schema + code version.

    The version import is deferred: :mod:`repro.runner` is imported by
    layers that ``repro/__init__`` itself imports, so a module-level
    ``from repro import __version__`` would run against the partially
    initialized package.
    """
    from repro import __version__

    return f"{CACHE_SCHEMA}+repro-{__version__}"


def cache_key(spec: Any, salt: str | None = None) -> str:
    """SHA-256 hex address of a scenario specification."""
    text = canonical_json(spec)
    digest = hashlib.sha256()
    digest.update((salt if salt is not None else default_salt()).encode())
    digest.update(b"\x00")
    digest.update(text.encode("utf-8"))
    return digest.hexdigest()


class ResultCache:
    """Content-addressed result store rooted at one directory."""

    def __init__(self, directory: str | Path, salt: str | None = None) -> None:
        self.directory = Path(directory)
        self.salt = salt if salt is not None else default_salt()

    def key(self, spec: Any) -> str:
        """Address of ``spec`` under this cache's salt."""
        return cache_key(spec, self.salt)

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def get(self, spec: Any) -> Any:
        """Stored payload for ``spec``, or :data:`MISS`.

        Returns :data:`MISS` (never raises) for absent, unreadable, or
        corrupt entries, so callers can always fall back to computing.
        """
        obs = get_registry()
        path = self._path(self.key(spec))
        try:
            payload = loads_payload(path.read_text(encoding="utf-8"))
        except OSError:
            obs.count("runner.cache.miss")
            return MISS
        except (ValueError, KeyError, TypeError, SerializationError):
            # UnicodeDecodeError is a ValueError: an entry cut off inside
            # a multi-byte character is corrupt like any other.
            obs.count("runner.cache.corrupt")
            obs.count("runner.cache.miss")
            return MISS
        obs.count("runner.cache.hit")
        return payload

    def put(self, spec: Any, payload: Any) -> Path:
        """Store ``payload`` under ``spec``'s address (atomic)."""
        path = self._path(self.key(spec))
        path.parent.mkdir(parents=True, exist_ok=True)
        text = dumps_payload(payload)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        get_registry().count("runner.cache.store")
        return path

    def purge_stale_tmp(self, max_age_s: float = 3600.0) -> int:
        """Delete orphaned ``*.tmp`` files left by crashed writers.

        A writer killed between ``mkstemp`` and ``os.replace`` leaks its
        temp file; entries themselves are never affected. Only files
        older than ``max_age_s`` are removed so a live writer's
        in-progress temp is never yanked out from under it. Returns the
        number of files removed.
        """
        if not self.directory.exists():
            return 0
        cutoff = time.time() - max_age_s
        removed = 0
        for tmp in self.directory.glob("*/*.tmp"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
                    removed += 1
            except OSError:
                continue
        return removed

    def __contains__(self, spec: Any) -> bool:
        return self._path(self.key(spec)).exists()

    def entry_count(self) -> int:
        """Number of stored entries (walks the directory)."""
        if not self.directory.exists():
            return 0
        return sum(1 for _ in self.directory.glob("*/*.json"))


def cache_from_env() -> ResultCache | None:
    """The cache named by ``REPRO_CACHE_DIR``, or ``None`` (default off)."""
    directory = os.environ.get(ENV_CACHE_DIR, "").strip()
    if not directory:
        return None
    return ResultCache(directory)


def resolve_cache(
    cache: ResultCache | str | Path | None | bool,
) -> ResultCache | None:
    """Normalize a cache argument: instance, directory, or ``None``.

    ``None`` falls through to the environment toggle so CLI layers can
    pass their ``--cache`` value straight in; ``False`` disables the
    cache even when ``REPRO_CACHE_DIR`` is set.
    """
    if cache is None:
        return cache_from_env()
    if isinstance(cache, bool):
        return cache_from_env() if cache else None
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)
