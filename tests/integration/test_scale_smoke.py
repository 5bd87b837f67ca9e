"""Scale smoke tests: a million packets through the memoized scalar path.

Not a benchmark — a guard that the library's full-scale story (DESIGN.md
offers paper-scale runs as "a parameter change") keeps working: a
million-packet replay must finish in seconds and stay accurate.
"""

import random
import time

import pytest

from repro.core.analysis import choose_b, cov_bound
from repro.core.disco import DiscoSketch
from repro.traces.zipf import ZipfPopularity


@pytest.mark.slow
def test_million_packet_replay():
    # Realistic modal packet lengths (ACK / DNS-ish / MTU) — the length
    # alphabet real links exhibit and the regime the memo cache targets.
    num_packets = 1_000_000
    lengths = (40, 576, 1500)
    rand = random.Random(2)
    popularity = ZipfPopularity(2000, alpha=1.0)
    b = choose_b(14, num_packets * 1500, slack=1.5)
    sketch = DiscoSketch(b=b, mode="volume", rng=1)
    truth = {}
    start = time.perf_counter()
    for _ in range(num_packets):
        flow = popularity.sample(rand)
        length = lengths[rand.randrange(3)]
        sketch.observe(flow, length)
        truth[flow] = truth.get(flow, 0) + length
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0  # generous; typically a few seconds
    assert sketch._update_cache.hit_rate > 0.7

    errors = [abs(sketch.estimate(f) - n) / n for f, n in truth.items()
              if n > 10_000]
    assert errors
    assert sum(errors) / len(errors) < cov_bound(b)
