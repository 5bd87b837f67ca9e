"""DISCO counters and the per-flow DISCO sketch.

Two layers are provided:

* :class:`DiscoCounter` — a single discount counter implementing
  Algorithm 1 plus the unbiased inverse estimator ``f(c)`` (Theorem 1).
* :class:`DiscoSketch` — a keyed collection of DISCO counters, one per
  flow, which is the object a monitoring component actually deploys.  It
  supports both counting modes from the paper (``"size"`` counts packets,
  ``"volume"`` counts bytes) and the burst-aggregation optimisation from
  Section VI (accumulate a burst in a small exact counter, then feed the
  burst total to Algorithm 1 as if it were one packet).
"""

from __future__ import annotations

import math
import random
from typing import Dict, Hashable, Iterable, Iterator, Optional, Union

from repro.core.fastpath import UpdateCache
from repro.core.functions import CountingFunction, GeometricCountingFunction
from repro.core.update import compute_update
from repro.errors import CounterOverflowError, ParameterError

__all__ = ["DiscoCounter", "DiscoSketch", "counter_bits"]

FlowKey = Hashable


def counter_bits(value: int) -> int:
    """Number of bits needed to store the integer counter ``value``.

    The paper sizes fixed-length counter arrays by the largest counter
    value observed ("largest counter bits", Section V-B); a value of 0
    still occupies one bit.
    """
    if value < 0:
        raise ParameterError(f"counter value must be >= 0, got {value!r}")
    return max(1, value.bit_length())


def _resolve_function(
    function: Optional[CountingFunction], b: Optional[float]
) -> CountingFunction:
    if function is not None and b is not None:
        raise ParameterError("pass either a counting function or b, not both")
    if function is not None:
        return function
    if b is None:
        raise ParameterError("a counting function or the parameter b is required")
    return GeometricCountingFunction(b)


class DiscoCounter:
    """A single DISCO discount counter.

    Parameters
    ----------
    b:
        Growth base of the paper's regulator ``f(c) = (b^c-1)/(b-1)``.
        Mutually exclusive with ``function``.
    function:
        Any :class:`~repro.core.functions.CountingFunction`; overrides ``b``.
    rng:
        Seed or ``random.Random`` instance used for the probabilistic
        update.  Defaults to a fresh unseeded generator.
    capacity_bits:
        Optional fixed counter width.  When set, the counter saturates at
        ``2**capacity_bits - 1`` (and counts saturation events) unless
        ``strict_overflow`` is true, in which case it raises
        :class:`~repro.errors.CounterOverflowError`.

    Examples
    --------
    >>> ctr = DiscoCounter(b=1.08, rng=1)
    >>> for length in [81, 1420, 142, 691]:
    ...     _ = ctr.add(length)
    >>> ctr.value > 0
    True
    >>> round(ctr.estimate()) > 0
    True
    """

    __slots__ = ("function", "_value", "_rng", "capacity_bits", "_max_value",
                 "strict_overflow", "saturation_events", "updates",
                 "track_variance", "_variance_sum")

    def __init__(
        self,
        b: Optional[float] = None,
        *,
        function: Optional[CountingFunction] = None,
        rng: Union[None, int, random.Random] = None,
        capacity_bits: Optional[int] = None,
        strict_overflow: bool = False,
        track_variance: bool = False,
    ) -> None:
        self.function = _resolve_function(function, b)
        self._value = 0
        self._rng = rng if isinstance(rng, random.Random) else random.Random(rng)
        if capacity_bits is not None and capacity_bits < 1:
            raise ParameterError(f"capacity_bits must be >= 1, got {capacity_bits!r}")
        self.capacity_bits = capacity_bits
        self._max_value = (1 << capacity_bits) - 1 if capacity_bits else None
        self.strict_overflow = strict_overflow
        self.saturation_events = 0
        self.updates = 0
        #: When enabled, each update accumulates its conditional estimator
        #: variance p(1-p) * gap(c+delta)^2.  The update increments form a
        #: martingale, so the accumulated sum is an unbiased estimate of
        #: Var[f(c)] for THIS flow's actual packet sequence — error bars
        #: without the uniform-increment assumption Theorem 2 makes.
        self.track_variance = track_variance
        self._variance_sum = 0.0

    @property
    def value(self) -> int:
        """Current integer counter value ``c``."""
        return self._value

    def add(self, l: float = 1.0) -> int:
        """Process one packet carrying ``l`` traffic units (Algorithm 1).

        Returns the counter advance that was applied.
        """
        decision = compute_update(self.function, self._value, l)
        advance = decision.delta
        if self._rng.random() < decision.probability:
            advance += 1
        if self.track_variance:
            p = decision.probability
            step = self.function.gap(self._value + decision.delta)
            contribution = p * (1.0 - p) * step * step
            if math.isfinite(contribution):
                self._variance_sum += contribution
        new_value = self._value + advance
        if self._max_value is not None and new_value > self._max_value:
            if self.strict_overflow:
                raise CounterOverflowError(
                    f"counter of {self.capacity_bits} bits overflowed "
                    f"(value {new_value} > {self._max_value})"
                )
            self.saturation_events += 1
            new_value = self._max_value
            advance = new_value - self._value
        self._value = new_value
        self.updates += 1
        return advance

    def add_many(self, amounts: Iterable[float]) -> None:
        """Process a sequence of packets."""
        for l in amounts:
            self.add(l)

    def estimate(self) -> float:
        """Unbiased estimate ``f(c)`` of the total traffic seen (Theorem 1)."""
        return self.function.value(self._value)

    def bits_used(self) -> int:
        """Bits needed to store the current counter value."""
        return counter_bits(self._value)

    @property
    def variance_estimate(self) -> float:
        """Accumulated estimator variance (requires ``track_variance``).

        Unbiased for ``Var[f(c)]`` over this counter's actual update
        sequence; see the constructor note.
        """
        if not self.track_variance:
            raise ParameterError("construct the counter with track_variance=True")
        return self._variance_sum

    @property
    def stddev_estimate(self) -> float:
        """Square root of :attr:`variance_estimate`."""
        return math.sqrt(self.variance_estimate)

    @property
    def relative_error_estimate(self) -> float:
        """Tracked standard deviation relative to the current estimate."""
        estimate = self.estimate()
        if estimate <= 0:
            return 0.0
        return self.stddev_estimate / estimate

    def reset(self) -> None:
        """Zero the counter (start of a new measurement interval)."""
        self._value = 0
        self.saturation_events = 0
        self.updates = 0
        self._variance_sum = 0.0

    def __repr__(self) -> str:
        return (
            f"DiscoCounter(value={self._value}, estimate={self.estimate():.1f}, "
            f"function={self.function!r})"
        )


class DiscoSketch:
    """Per-flow DISCO statistics — one discount counter per flow.

    This is the monitoring-component view: every incoming packet is mapped
    to its flow (by any hashable key: a 5-tuple, an int, a string) and
    drives that flow's counter through Algorithm 1.  Estimates are available
    on-line at any time, which is the property that motivates keeping
    everything in SRAM.

    Parameters
    ----------
    b, function, rng, capacity_bits:
        As for :class:`DiscoCounter`.  All flows share one counting function
        and one random stream.
    mode:
        ``"volume"`` (count bytes; the counter is driven by packet lengths)
        or ``"size"`` (count packets; every packet contributes 1).
    burst_capacity:
        Optional burst-aggregation threshold in traffic units (Section VI).
        Consecutive packets of the *same* flow are accumulated exactly until
        the accumulator would exceed this capacity or another flow's packet
        arrives; the accumulated total is then fed to Algorithm 1 as one
        amount.  ``flush()`` must be called before reading estimates.
    track_variance:
        Accumulate each flow's per-update estimator variance (see
        :class:`DiscoCounter`); read with :meth:`variance_of`.
    """

    #: Scheme name used in experiment reports (CountingScheme convention).
    name = "disco"

    def __init__(
        self,
        b: Optional[float] = None,
        *,
        function: Optional[CountingFunction] = None,
        mode: str = "volume",
        rng: Union[None, int, random.Random] = None,
        capacity_bits: Optional[int] = None,
        burst_capacity: Optional[float] = None,
        track_variance: bool = False,
    ) -> None:
        if mode not in ("volume", "size"):
            raise ParameterError(f"mode must be 'volume' or 'size', got {mode!r}")
        self.function = _resolve_function(function, b)
        self.mode = mode
        self._rng = rng if isinstance(rng, random.Random) else random.Random(rng)
        if capacity_bits is not None and capacity_bits < 1:
            raise ParameterError(f"capacity_bits must be >= 1, got {capacity_bits!r}")
        self.capacity_bits = capacity_bits
        self._max_value = (1 << capacity_bits) - 1 if capacity_bits else None
        if burst_capacity is not None and not burst_capacity > 0:
            raise ParameterError(f"burst_capacity must be > 0, got {burst_capacity!r}")
        self.burst_capacity = burst_capacity
        self._counters: Dict[FlowKey, int] = {}
        # Algorithm 1's decision depends only on (c, l): memoize it
        # exactly, so trajectories match compute_update bit for bit.
        self._update_cache = UpdateCache(self.function)
        self._burst_flow: Optional[FlowKey] = None
        self._burst_amount = 0.0
        self.track_variance = track_variance
        self._variances: Dict[FlowKey, float] = {}
        self.saturation_events = 0
        self.packets_observed = 0

    # -- ingestion ---------------------------------------------------------

    def observe(self, flow: FlowKey, length: float = 1.0) -> None:
        """Record one packet of ``length`` bytes belonging to ``flow``."""
        amount = 1.0 if self.mode == "size" else float(length)
        if not (amount > 0) or not math.isfinite(amount):
            raise ParameterError(f"packet length must be finite and > 0, got {length!r}")
        self.packets_observed += 1
        if self.burst_capacity is None:
            self._drive(flow, amount)
            return
        if self._burst_flow is not None and flow != self._burst_flow:
            self._flush_burst()
        if self._burst_amount + amount > self.burst_capacity and self._burst_flow is not None:
            self._flush_burst()
        self._burst_flow = flow
        self._burst_amount += amount

    def observe_many(self, packets: Iterable) -> None:
        """Record an iterable of ``(flow, length)`` pairs."""
        for flow, length in packets:
            self.observe(flow, length)

    def flush(self) -> None:
        """Commit any pending burst accumulator to its counter."""
        self._flush_burst()

    def _flush_burst(self) -> None:
        if self._burst_flow is None:
            return
        self._drive(self._burst_flow, self._burst_amount)
        self._burst_flow = None
        self._burst_amount = 0.0

    def _drive(self, flow: FlowKey, amount: float) -> None:
        c = self._counters.get(flow, 0)
        delta, probability = self._update_cache.decision(c, amount)
        advance = delta
        if self._rng.random() < probability:
            advance += 1
        if self.track_variance:
            p = probability
            step = self.function.gap(c + delta)
            contribution = p * (1.0 - p) * step * step
            if math.isfinite(contribution):
                self._variances[flow] = self._variances.get(flow, 0.0) \
                    + contribution
        new_value = c + advance
        if self._max_value is not None and new_value > self._max_value:
            self.saturation_events += 1
            new_value = self._max_value
        self._counters[flow] = new_value

    # -- read-out ----------------------------------------------------------

    def counter_value(self, flow: FlowKey) -> int:
        """Raw counter value for ``flow`` (0 if never seen)."""
        return self._counters.get(flow, 0)

    def estimate(self, flow: FlowKey) -> float:
        """Unbiased estimate of the flow's size/volume from its counter."""
        return self.function.value(self._counters.get(flow, 0))

    def estimates(self) -> Dict[FlowKey, float]:
        """Estimates for all observed flows."""
        return {flow: self.function.value(c) for flow, c in self._counters.items()}

    def variance_of(self, flow: FlowKey) -> float:
        """Tracked estimator variance for a flow (needs ``track_variance``).

        The martingale accumulation described on :class:`DiscoCounter`:
        unbiased for ``Var[f(c)]`` over the flow's actual packet sequence.
        """
        if not self.track_variance:
            raise ParameterError("construct the sketch with track_variance=True")
        return self._variances.get(flow, 0.0)

    def flows(self) -> Iterator[FlowKey]:
        return iter(self._counters)

    def __len__(self) -> int:
        return len(self._counters)

    def __contains__(self, flow: FlowKey) -> bool:
        return flow in self._counters

    def max_counter_value(self) -> int:
        """Largest counter value across flows (0 when empty)."""
        return max(self._counters.values(), default=0)

    def max_counter_bits(self) -> int:
        """Bits of the largest counter — the paper's fixed-array sizing metric."""
        return counter_bits(self.max_counter_value())

    def kernel(self):
        """Columnar-kernel offer (see :mod:`repro.core.kernels`)."""
        from repro.core.kernels import disco_kernel_spec

        return disco_kernel_spec(self)

    def total_counter_bits(self) -> int:
        """Sum of per-counter bit costs (variable-length encoding view)."""
        return sum(counter_bits(c) for c in self._counters.values())

    def reset(self) -> None:
        """Clear all flows (start of a new measurement interval)."""
        self._counters.clear()
        self._variances.clear()
        self._burst_flow = None
        self._burst_amount = 0.0
        self.saturation_events = 0
        self.packets_observed = 0

    def __repr__(self) -> str:
        return (
            f"DiscoSketch(mode={self.mode!r}, flows={len(self)}, "
            f"function={self.function!r})"
        )
