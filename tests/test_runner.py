"""Tests for the parallel sweep runner and its content-addressed cache.

The property suites (hypothesis) pin the runner's two contracts:

* parallel execution is an implementation detail — any ``jobs`` value
  yields the same results in the same order as a serial run;
* the cache codec is exact — arbitrary payloads (NaN, infinities, empty
  arrays, non-ASCII keys, NumPy scalars) round-trip unchanged, and the
  key is invariant to dict ordering but sensitive to any value change.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro.errors import RunnerError
from repro.obs import disable, enable, reset, snapshot
from repro.runner import (
    MISS,
    ResultCache,
    SerializationError,
    cache_key,
    canonical_json,
    decode,
    decode_experiment_result,
    default_salt,
    encode,
    encode_experiment_result,
    resolve_cache,
    sweep,
)
from repro.runner.cache import source_digest
from repro.runner.cache import ENV_CACHE_DIR


# --- module-level workers (picklable, required for pool mode) ---------------


def _double(x):
    return 2 * x


def _stagger_negate(x):
    """Finish later items sooner, so pool completion order != item order."""
    time.sleep(0.002 * (5 - (x % 6)))
    return -x


def _fails_on_odd(x):
    if x % 2:
        raise ValueError(f"odd input {x}")
    return x


def _stress_write(task):
    """One contender in the multi-process cache stress: hammer a shared
    key with writer-specific payloads, interleaving reads."""
    directory, writer_id, rounds = task
    from repro.runner import MISS, ResultCache

    cache = ResultCache(directory, salt="stress")
    spec = {"kind": "stress", "shared": True}
    torn = 0
    for round_no in range(rounds):
        payload = {
            "writer": writer_id,
            "round": round_no,
            "blob": np.full(257, float(writer_id)),
        }
        cache.put(spec, payload)
        seen = cache.get(spec)
        if seen is MISS:
            continue
        # Whatever we read must be SOME complete payload — a torn or
        # interleaved write would break this structural invariant.
        if (
            set(seen) != {"writer", "round", "blob"}
            or seen["blob"].shape != (257,)
            or not np.all(seen["blob"] == float(seen["writer"]))
        ):
            torn += 1
    return torn


# --- hypothesis strategies ---------------------------------------------------

_any_float = st.floats(allow_nan=True, allow_infinity=True, width=64)

_np_scalars = st.one_of(
    st.builds(np.float64, _any_float),
    st.builds(np.float32, st.floats(width=32, allow_nan=True)),
    st.builds(np.int64, st.integers(-(2**62), 2**62)),
    st.builds(np.int32, st.integers(-(2**31), 2**31 - 1)),
    st.builds(np.bool_, st.booleans()),
)

_arrays = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
    shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3),
    elements=None,
)

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**53), 2**53),
    _any_float,
    st.text(max_size=8),  # includes non-ASCII
    _np_scalars,
    _arrays,
)

_tag_keys = {"__tuple__", "__ndarray__", "__npscalar__", "__float__"}

_payloads = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.tuples(children, children),
        st.dictionaries(
            st.text(max_size=8).filter(lambda k: k not in _tag_keys),
            children,
            max_size=3,
        ),
    ),
    max_leaves=8,
)


def _assert_payload_equal(a, b):
    """Exact structural equality, NaN-tolerant, type-preserving."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert type(a) is type(b)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
        return
    assert type(a) is type(b), f"{type(a)} != {type(b)}"
    if isinstance(a, dict):
        assert list(a) == list(b)  # insertion order is part of the contract
        for key in a:
            _assert_payload_equal(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for left, right in zip(a, b):
            _assert_payload_equal(left, right)
    elif isinstance(a, (float, np.floating)) and math.isnan(float(a)):
        assert math.isnan(float(b))
    else:
        assert a == b


# --- codec properties --------------------------------------------------------


class TestCodec:
    @given(_payloads)
    @settings(max_examples=200, deadline=None)
    def test_round_trip_is_exact(self, payload):
        _assert_payload_equal(decode(encode(payload)), payload)

    def test_np_float64_survives_with_type(self):
        out = decode(encode(np.float64(0.1)))
        assert type(out) is np.float64 and out == np.float64(0.1)

    def test_empty_array_round_trips(self):
        out = decode(encode(np.empty((0,), dtype=np.float32)))
        assert out.shape == (0,) and out.dtype == np.float32

    def test_non_ascii_keys_round_trip(self):
        payload = {"日本語": [1.0, float("nan")], "κλειδί": ("a", None)}
        _assert_payload_equal(decode(encode(payload)), payload)

    def test_rejects_non_string_keys(self):
        with pytest.raises(SerializationError):
            canonical_json({1: "x"})

    def test_rejects_object_arrays(self):
        with pytest.raises(SerializationError):
            encode(np.array([object()]))


class TestCacheKey:
    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=6),
            st.integers(-1000, 1000),
            min_size=2,
            max_size=6,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_key_invariant_to_dict_ordering(self, spec):
        reordered = dict(reversed(list(spec.items())))
        assert cache_key(spec) == cache_key(reordered)

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=6),
            st.integers(-1000, 1000),
            min_size=1,
            max_size=6,
        ),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_key_sensitive_to_any_value_change(self, spec, data):
        victim = data.draw(st.sampled_from(sorted(spec)))
        changed = dict(spec)
        changed[victim] = spec[victim] + 1
        assert cache_key(spec) != cache_key(changed)

    def test_key_sensitive_to_salt(self):
        assert cache_key({"a": 1}, salt="s1") != cache_key({"a": 1}, salt="s2")

    def test_source_digest_sees_one_changed_byte(self, tmp_path):
        """The default salt folds in the package's sources, so an edited
        tree never reads another tree's entries."""
        package = tmp_path / "pkg"
        (package / "sub").mkdir(parents=True)
        (package / "a.py").write_bytes(b"x = 1\n")
        (package / "sub" / "b.py").write_bytes(b"y = 2\n")
        (package / "notes.txt").write_bytes(b"not source")
        before = source_digest(package)
        assert source_digest(package) == before
        (package / "notes.txt").write_bytes(b"still not source")
        assert source_digest(package) == before
        (package / "sub" / "b.py").write_bytes(b"y = 3\n")
        assert source_digest(package) != before
        # The relative path counts too, not only the bytes.
        (package / "sub" / "b.py").write_bytes(b"y = 2\n")
        assert source_digest(package) == before
        (package / "sub" / "b.py").rename(package / "b.py")
        assert source_digest(package) != before

    def test_default_salt_carries_the_package_digest(self):
        package = Path(repro.__file__).parent
        assert default_salt().endswith(f"+src-{source_digest(package)}")


# --- cache behaviour ---------------------------------------------------------


class TestResultCache:
    @given(_payloads)
    @settings(max_examples=50, deadline=None)
    def test_round_trips_arbitrary_payloads(self, payload):
        # No tmp_path here: function-scoped fixtures trip hypothesis's
        # health check, and distinct specs keep examples independent.
        with tempfile.TemporaryDirectory() as directory:
            cache = ResultCache(directory)
            spec = {"payload": payload}
            cache.put(spec, payload)
            _assert_payload_equal(cache.get(spec), payload)

    def test_absent_entry_is_miss(self, tmp_path):
        assert ResultCache(tmp_path).get({"never": "stored"}) is MISS

    def test_corrupt_entry_is_miss_not_error(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put({"x": 1}, [1, 2, 3])
        # Not JSON, then not even UTF-8.
        for damage in (b"{not json", b"\xff\xfe garbage"):
            path.write_bytes(damage)
            assert cache.get({"x": 1}) is MISS

    def test_truncated_shard_counted_and_overwritable(self, tmp_path):
        """A half-written shard (e.g. a crash mid-copy) must read as a
        corrupt miss, bump the corrupt counter, and stay writable — the
        next ``put`` atomically replaces the damaged file. Cut inside a
        multi-byte character, the shard is not even valid UTF-8."""
        cache = ResultCache(tmp_path)
        spec = {"experiment": "fig9", "quick": True}
        payload = {"values": [1.5, 2.5], "label": "ok", "unit": "°C"}
        path = cache.put(spec, payload)
        data = path.read_bytes()
        for end in (len(data) // 2, data.index("°".encode()) + 1):
            path.write_bytes(data[:end])
            enable()
            reset()
            try:
                assert cache.get(spec) is MISS
                assert cache.put(spec, payload) == path
                recovered = cache.get(spec)
                counters = snapshot().counters
            finally:
                disable()
            _assert_payload_equal(recovered, payload)
            assert counters["runner.cache.corrupt"] == 1
            assert counters["runner.cache.miss"] == 1
            assert counters["runner.cache.store"] == 1
            assert counters["runner.cache.hit"] == 1

    def test_entry_count_and_contains(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.entry_count() == 0 and {"a": 1} not in cache
        cache.put({"a": 1}, "payload")
        assert cache.entry_count() == 1 and {"a": 1} in cache

    def test_resolve_cache_forms(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        assert resolve_cache(str(tmp_path)).directory == tmp_path
        cache = ResultCache(tmp_path)
        assert resolve_cache(cache) is cache
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "env"))
        assert resolve_cache(True).directory == tmp_path / "env"
        assert resolve_cache(None).directory == tmp_path / "env"
        assert resolve_cache(False) is None

    def test_counters_reported(self, tmp_path):
        enable()
        reset()
        try:
            cache = ResultCache(tmp_path)
            cache.get({"k": 1})  # miss
            cache.put({"k": 1}, 42)  # store
            cache.get({"k": 1})  # hit
            counters = snapshot().counters
        finally:
            disable()
        assert counters["runner.cache.miss"] == 1
        assert counters["runner.cache.store"] == 1
        assert counters["runner.cache.hit"] == 1


# --- sweep: serial/parallel equivalence --------------------------------------


class TestSweep:
    @given(st.lists(st.integers(-100, 100), max_size=12))
    @settings(max_examples=10, deadline=None)
    def test_parallel_matches_serial_in_order(self, xs):
        serial = sweep(_double, xs, jobs=1)
        parallel = sweep(_double, xs, jobs=3)
        assert serial == parallel == [2 * x for x in xs]

    def test_order_preserved_under_staggered_completion(self):
        xs = list(range(12))
        assert sweep(_stagger_negate, xs, jobs=4) == [-x for x in xs]

    def test_unpicklable_func_falls_back_to_serial(self):
        offset = 10
        assert sweep(lambda x: x + offset, [1, 2, 3], jobs=4) == [11, 12, 13]

    def test_invalid_jobs_rejected(self):
        with pytest.raises(RunnerError):
            sweep(_double, [1], jobs=0)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_raises_runner_error_naming_index(self, jobs):
        with pytest.raises(RunnerError, match="task 1"):
            sweep(_fails_on_odd, [0, 1, 2], jobs=jobs)
        # The error path kills the pool's workers rather than leaking
        # them. Poll briefly: reaping is asynchronous.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and multiprocessing.active_children():
            time.sleep(0.1)
        orphans = multiprocessing.active_children()
        assert not orphans, f"workers still alive after the error: {orphans}"

    def test_empty_items(self):
        assert sweep(_double, [], jobs=4) == []

    def test_scheduling_counters(self):
        enable()
        reset()
        try:
            sweep(_double, [1, 2, 3, 4], jobs=2)
            counters = snapshot().counters
        finally:
            disable()
        assert counters["runner.sweeps"] == 1
        assert counters["runner.tasks"] == 4
        assert counters["runner.parallel_tasks"] == 4


# --- cache under concurrent multi-process writers ----------------------------


class TestCacheConcurrency:
    """The cache's cross-process contract: writers never tear entries
    (mkstemp + os.replace), readers see MISS or a complete payload, and
    the last complete write wins."""

    @pytest.mark.slow
    def test_multiprocess_writers_never_tear_entries(self, tmp_path):
        from concurrent.futures import ProcessPoolExecutor

        writers, rounds = 4, 25
        tasks = [(str(tmp_path), wid, rounds) for wid in range(writers)]
        with ProcessPoolExecutor(max_workers=writers) as pool:
            torn_counts = list(pool.map(_stress_write, tasks))
        # No contender ever observed a torn/interleaved entry.
        assert torn_counts == [0] * writers

        # Last-writer-wins: the surviving entry is some writer's
        # complete final payload, readable by a fresh process too.
        cache = ResultCache(tmp_path, salt="stress")
        final = cache.get({"kind": "stress", "shared": True})
        assert final is not MISS
        assert np.all(final["blob"] == float(final["writer"]))
        # Exactly one entry on disk and no leaked temp files young
        # enough to matter.
        assert cache.entry_count() == 1
        assert cache.purge_stale_tmp(max_age_s=0.0) == 0

    def test_purge_stale_tmp_removes_only_old_orphans(self, tmp_path):
        cache = ResultCache(tmp_path, salt="purge")
        cache.put({"k": 1}, {"v": 1})
        shard = next(tmp_path.glob("*"))
        stale = shard / "deadbeef.tmp"
        stale.write_text("{}")
        os.utime(stale, (time.time() - 7200, time.time() - 7200))
        fresh = shard / "cafe.tmp"
        fresh.write_text("{}")
        assert cache.purge_stale_tmp(max_age_s=3600.0) == 1
        assert not stale.exists()
        assert fresh.exists()
        assert cache.get({"k": 1}) == {"v": 1}


# --- ExperimentResult codec --------------------------------------------------


class TestExperimentResultCodec:
    def test_round_trip(self):
        from repro.experiments.registry import ExperimentResult

        result = ExperimentResult(experiment_id="demo", title="Demo")
        result.series = {"t": np.array([0.0, 1.5]), "empty": np.array([])}
        result.summary = {"metric": np.float64(0.25)}
        result.paper = {"metric": 0.3}
        result.tables = {"t": (["a", "b"], [["x", "y"]])}

        back = decode_experiment_result(encode_experiment_result(result))
        assert back.experiment_id == "demo" and back.title == "Demo"
        _assert_payload_equal(back.series["t"], result.series["t"])
        assert back.series["empty"].shape == (0,)
        assert type(back.summary["metric"]) is np.float64
        assert back.tables == result.tables
        assert back.perf == {}  # perf is per-run, deliberately not cached
