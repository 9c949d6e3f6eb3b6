"""Parallel experiment execution and content-addressed result caching.

The substrate every sweep-shaped workload in the library runs on:

* :func:`~repro.runner.pool.sweep` — fan independent evaluations
  (steady-state solves, two-day cluster simulations, TCO points) over a
  process pool with deterministic result ordering and graceful fallback
  to serial execution.
* :class:`~repro.runner.cache.ResultCache` — a content-addressed
  on-disk store keyed by SHA-256 of the canonical scenario encoding
  plus a code-version salt. Off by default; enabled per-call, via
  ``repro-experiments --cache``, or the ``REPRO_CACHE_DIR`` environment
  variable.
* :mod:`~repro.runner.serialize` — the exact, array-aware codec the
  cache stores with.

See ``docs/RUNNER.md`` for the full contract.
"""

from repro.runner.cache import (
    CACHE_SCHEMA,
    ENV_CACHE_DIR,
    MISS,
    ResultCache,
    cache_from_env,
    cache_key,
    default_salt,
    resolve_cache,
)
from repro.runner.pool import sweep
from repro.runner.serialize import (
    SerializationError,
    canonical_json,
    decode,
    decode_experiment_result,
    dumps_payload,
    encode,
    encode_experiment_result,
    loads_payload,
)

__all__ = [
    "CACHE_SCHEMA",
    "ENV_CACHE_DIR",
    "MISS",
    "ResultCache",
    "SerializationError",
    "cache_from_env",
    "cache_key",
    "canonical_json",
    "decode",
    "decode_experiment_result",
    "default_salt",
    "dumps_payload",
    "encode",
    "encode_experiment_result",
    "loads_payload",
    "resolve_cache",
    "sweep",
]
