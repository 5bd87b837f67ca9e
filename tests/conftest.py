"""Shared fixtures for the test suite."""

import random

import pytest

from repro.core.functions import GeometricCountingFunction
from repro.core.update import compute_update
from repro.traces.trace import Trace


@pytest.fixture
def rng():
    """A deterministically seeded generator."""
    return random.Random(0xD15C0)


@pytest.fixture
def tiny_trace():
    """A hand-written 3-flow trace with known truths."""
    return Trace(
        {
            "a": [100, 200, 300],          # 3 packets, 600 bytes
            "b": [1500] * 10,              # 10 packets, 15000 bytes
            "c": [40],                     # 1 packet, 40 bytes
        },
        name="tiny",
    )


@pytest.fixture
def small_trace():
    """A reproducible ~60-flow mixed trace for integration tests."""
    rand = random.Random(42)
    flows = {}
    for i in range(60):
        count = rand.randint(1, 120)
        flows[f"f{i}"] = [rand.randint(40, 1500) for _ in range(count)]
    return Trace(flows, name="small")


@pytest.fixture
def disco_reference():
    """Un-memoized DISCO: ``run(b, mode, seed, packets) -> counters``.

    Algorithm 1 computed afresh per packet with the same ``random.Random``
    draws a seeded ``DiscoSketch`` takes — the reference its exact
    decision memo must reproduce bit for bit.
    """
    def run(b, mode, seed, packets):
        fn = GeometricCountingFunction(b)
        rand = random.Random(seed)
        counters = {}
        for flow, length in packets:
            amount = 1.0 if mode == "size" else float(length)
            c = counters.get(flow, 0)
            decision = compute_update(fn, c, amount)
            counters[flow] = c + decision.delta \
                + (rand.random() < decision.probability)
        return counters

    return run
