"""Tests for the exact Algorithm-1 decision memo and its use in DiscoSketch."""

import pickle
import random
import threading
import time

import pytest

from repro.core.disco import DiscoSketch
from repro.core.fastpath import UpdateCache
from repro.core.functions import GeometricCountingFunction
from repro.core.update import compute_update
from repro.errors import ParameterError


class TestUpdateCache:
    def test_validation(self):
        with pytest.raises(ParameterError):
            UpdateCache(GeometricCountingFunction(1.1), max_entries=0)

    def test_exactness(self):
        fn = GeometricCountingFunction(1.02)
        cache = UpdateCache(fn)
        for c, l in [(0, 64.0), (100, 1500.0), (100, 1500.0)]:
            delta, p = cache.decision(c, l)
            exact = compute_update(fn, c, l)
            assert (delta, p) == (exact.delta, exact.probability)

    def test_hit_accounting(self):
        cache = UpdateCache(GeometricCountingFunction(1.02))
        cache.decision(5, 100.0)
        cache.decision(5, 100.0)
        cache.decision(6, 100.0)
        assert cache.hits == 1
        assert cache.misses == 2
        assert cache.hit_rate == pytest.approx(1 / 3)

    def test_bounded(self):
        cache = UpdateCache(GeometricCountingFunction(1.02), max_entries=4)
        for c in range(20):
            cache.decision(c, 100.0)
        assert len(cache._cache) <= 4

    def test_clears_counted(self):
        cache = UpdateCache(GeometricCountingFunction(1.02), max_entries=4)
        assert cache.clears == 0
        for c in range(20):
            cache.decision(c, 100.0)
        # 20 distinct keys through a 4-entry cache: cleared on every 4th.
        assert cache.clears == 4

    def test_stats_snapshot(self):
        cache = UpdateCache(GeometricCountingFunction(1.02))
        cache.decision(5, 100.0)
        cache.decision(5, 100.0)
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)
        assert stats["clears"] == 0
        assert stats["entries"] == 1
        assert stats["max_entries"] == cache.max_entries

    def test_hit_rate_on_empty_cache_is_zero(self):
        cache = UpdateCache(GeometricCountingFunction(1.02))
        assert cache.hit_rate == 0.0
        assert cache.stats()["hit_rate"] == 0.0

    def test_clear_resets_memo_and_accounting(self):
        cache = UpdateCache(GeometricCountingFunction(1.02), max_entries=4)
        for c in range(20):
            cache.decision(c, 100.0)
        cache.decision(19, 100.0)
        assert cache.hits == 1 and cache.misses == 20 and cache.clears == 4
        cache.clear()
        assert len(cache._cache) == 0
        # Unlike a capacity reset (which bumps ``clears`` and keeps the
        # hit/miss history), clear() is a full restart of the accounting.
        assert cache.hits == 0
        assert cache.misses == 0
        assert cache.clears == 0
        assert cache.hit_rate == 0.0

    def test_clear_then_reuse_counts_from_scratch(self):
        fn = GeometricCountingFunction(1.02)
        cache = UpdateCache(fn)
        cache.decision(5, 100.0)
        cache.decision(5, 100.0)
        cache.clear()
        # The memo is gone: the same key is a miss again, and the
        # decision recomputed after clear is still exact.
        delta, p = cache.decision(5, 100.0)
        exact = compute_update(fn, 5, 100.0)
        assert (delta, p) == (exact.delta, exact.probability)
        assert cache.hits == 0
        assert cache.misses == 1
        assert cache.hit_rate == 0.0
        cache.decision(5, 100.0)
        assert cache.hit_rate == pytest.approx(0.5)


class TestUpdateCacheConcurrency:
    def test_concurrent_decisions_stay_exact(self):
        # Many threads hammer one cache whose capacity forces constant
        # swap-out.  Every decision returned — hit, miss, or read from
        # a snapshot a concurrent swap already replaced — must equal
        # the exact computation.  (Hit/miss counters are deliberately
        # racy and not asserted here; see test_hit_accounting for the
        # single-threaded accounting contract.)
        fn = GeometricCountingFunction(1.02)
        cache = UpdateCache(fn, max_entries=8)
        expected = {(c, l): compute_update(fn, c, l)
                    for c in range(40) for l in (40.0, 576.0, 1500.0)}
        keys = list(expected)
        errors = []
        barrier = threading.Barrier(6)

        def worker(seed):
            rand = random.Random(seed)
            barrier.wait()
            for _ in range(2000):
                c, l = rand.choice(keys)
                delta, p = cache.decision(c, l)
                exact = expected[(c, l)]
                if (delta, p) != (exact.delta, exact.probability):
                    errors.append((c, l, delta, p))

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache._cache) <= cache.max_entries

    def test_shared_update_cache_single_instance_across_threads(self):
        from repro.core.kernels import _shared_update_cache

        got = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            got.append(_shared_update_cache(1.0173))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(cache) for cache in got}) == 1


class TestFastDiscoSketch:
    """The memoized DiscoSketch keeps the surface of the old fast sketch."""

    def test_mode_validation(self):
        with pytest.raises(ParameterError):
            DiscoSketch(b=1.1, mode="bytes")

    def test_rejects_bad_length(self):
        sketch = DiscoSketch(b=1.1)
        with pytest.raises(ParameterError):
            sketch.observe("f", 0)
        # A rejected packet never reaches the memo or the counters.
        assert sketch._update_cache.stats()["misses"] == 0
        assert len(sketch) == 0

    def test_readout_surface(self):
        sketch = DiscoSketch(b=1.05, rng=0)
        sketch.observe_many([("a", 100), ("b", 1000)])
        assert len(sketch) == 2
        assert set(sketch.flows()) == {"a", "b"}
        assert sketch.estimate("a") > 0
        assert sketch.estimates()["b"] == sketch.estimate("b")
        assert sketch.max_counter_bits() >= 1
        assert sketch.counter_value("zzz") == 0


class TestDiscoSketchMemo:
    def test_identical_trajectory_to_reference(self, disco_reference):
        # Same seed, same packets: the memoized sketch must take the
        # exact same random decisions as the un-memoized algorithm.
        rand = random.Random(3)
        packets = [(rand.randrange(6), rand.choice([40, 576, 1500]))
                   for _ in range(3000)]
        sketch = DiscoSketch(b=1.02, mode="volume", rng=9)
        sketch.observe_many(packets)
        assert sketch._counters == disco_reference(1.02, "volume", 9,
                                                   packets)

    def test_variance_tracking_matches_reference(self):
        # track_variance reads (delta, p) from the memo too.
        rand = random.Random(11)
        packets = [(rand.randrange(3), rand.choice([40, 1500]))
                   for _ in range(2000)]
        sketch = DiscoSketch(b=1.02, rng=2, track_variance=True)
        sketch.observe_many(packets)
        fn = sketch.function
        counters = {}
        variances = {}
        draws = random.Random(2)
        for flow, length in packets:
            c = counters.get(flow, 0)
            decision = compute_update(fn, c, float(length))
            p = decision.probability
            step = fn.gap(c + decision.delta)
            variances[flow] = variances.get(flow, 0.0) \
                + p * (1.0 - p) * step * step
            counters[flow] = c + decision.delta + (draws.random() < p)
        assert sketch._counters == counters
        for flow, variance in variances.items():
            assert sketch.variance_of(flow) == variance

    def test_high_hit_rate_on_realistic_lengths(self):
        rand = random.Random(4)
        sketch = DiscoSketch(b=1.01, mode="volume", rng=5)
        for _ in range(20_000):
            sketch.observe(rand.randrange(4), rand.choice([40, 576, 1500]))
        assert sketch._update_cache.hit_rate > 0.8

    def test_size_mode_hit_rate_near_one(self):
        sketch = DiscoSketch(b=1.02, mode="size", rng=6)
        for _ in range(5000):
            sketch.observe("f", 1234)
        # l is always 1: one miss per distinct counter value only.
        assert sketch._update_cache.hit_rate > 0.9

    def test_faster_than_reference_on_cached_workload(self, disco_reference):
        rand = random.Random(7)
        packets = [("f", rand.choice([40, 1500])) for _ in range(30_000)]

        sketch = DiscoSketch(b=1.002, mode="volume", rng=8)
        start = time.perf_counter()
        sketch.observe_many(packets)
        memo_time = time.perf_counter() - start

        start = time.perf_counter()
        reference = disco_reference(1.002, "volume", 8, packets)
        reference_time = time.perf_counter() - start

        assert sketch._counters == reference
        assert memo_time < reference_time

    def test_cache_stats_surface(self):
        sketch = DiscoSketch(b=1.05, rng=0)
        sketch.observe_many([("a", 100)] * 50)
        stats = sketch._update_cache.stats()
        assert stats["hits"] + stats["misses"] == 50
        assert stats["clears"] == 0
        assert 0.0 <= stats["hit_rate"] <= 1.0

    def test_sketch_with_memo_pickles(self):
        sketch = DiscoSketch(b=1.05, rng=0)
        sketch.observe_many([("a", 100)] * 50)
        clone = pickle.loads(pickle.dumps(sketch))
        clone.observe("a", 100)
        sketch.observe("a", 100)
        assert clone._counters == sketch._counters
        assert clone._update_cache.stats() == sketch._update_cache.stats()
