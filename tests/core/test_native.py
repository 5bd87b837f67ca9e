"""Tests for the compiled native backend (``repro.core.native``).

Three groups, mirroring the backend's contract:

* **Bit-identity** — kernels whose native path consumes the same
  pre-drawn uniform stream as the vector path (exact, ANLS, ANLS-I,
  AEE) must match ``engine="vector"`` bit for bit.
* **Distributional equivalence** — kernels whose native path draws a
  data-dependent number of uniforms (DISCO, SAC, ANLS-II, SD, ICE)
  follow the same law on a different stream; their error statistics
  must agree with the vector engine's.
* **Fallback** — without the provider (no C compiler, or
  ``REPRO_DISABLE_NATIVE=1``) the backend must warn once, run the
  vector path, and produce identical results; ``engine="auto"`` must
  prefer native only when the probe succeeded.

The whole file degrades gracefully: on a machine without a backend the
identity/distributional groups skip and the fallback group still runs
(``make test-nonative`` exercises exactly that configuration).
"""

import warnings

import numpy as np
import pytest

from repro.core import native
from repro.counters.anls import Anls, AnlsBytesNaive
from repro.counters.exact import ExactCounters
from repro.errors import ParameterError
from repro.facade import replay, stream
from repro.harness.runner import resolve_engine
from repro.schemes import make_scheme, scheme_factory
from repro.streaming import StreamSession
from repro.traces.compiled import compile_trace
from repro.traces.nlanr import nlanr_like

B = 1.02

needs_native = pytest.mark.skipif(
    not native.available(),
    reason="no native backend (no C compiler, or disabled)")


@pytest.fixture(scope="module")
def compiled():
    return compile_trace(nlanr_like(num_flows=250, mean_flow_bytes=30_000,
                                    max_flow_bytes=600_000, rng=8))


def both_engines(build, compiled, **kwargs):
    """Replay a freshly built scheme under vector and native."""
    rv = replay(build(), compiled, order="asis", engine="vector", **kwargs)
    rn = replay(build(), compiled, order="asis", engine="native", **kwargs)
    assert rv.engine == "vector" and rn.engine == "native"
    return rv, rn


def avg_error(result):
    return sum(result.errors) / len(result.errors)


# ---------------------------------------------------------------------------
# bit-identity: exact, ANLS, ANLS-I
# ---------------------------------------------------------------------------

@needs_native
class TestBitIdentity:
    @pytest.mark.parametrize("mode", ["size", "volume"])
    def test_exact(self, compiled, mode):
        rv, rn = both_engines(lambda: ExactCounters(mode=mode), compiled)
        assert rv.estimates == rn.estimates
        assert rv.summary.average == rn.summary.average == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_anls_size_counting(self, compiled, seed):
        rv, rn = both_engines(lambda: Anls(b=B, rng=seed), compiled)
        assert rv.estimates == rn.estimates

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_anls1_byte_counting(self, compiled, seed):
        rv, rn = both_engines(lambda: AnlsBytesNaive(b=B, rng=seed),
                              compiled)
        assert rv.estimates == rn.estimates

    def test_anls1_via_registry(self, compiled):
        rv, rn = both_engines(lambda: make_scheme("anls1", b=B, seed=5),
                              compiled)
        assert rv.estimates == rn.estimates

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_aee_byte_counting(self, compiled, seed):
        # Constant-p compare-add: the native columns consume the same
        # pre-drawn uniform stream lane for lane, and the tail reuses
        # the kernel's own vectorised tail — bit-identical end to end.
        rv, rn = both_engines(
            lambda: make_scheme("aee", p=0.3, seed=seed), compiled)
        assert rv.estimates == rn.estimates

    def test_aee_size_counting(self, compiled):
        rv, rn = both_engines(
            lambda: make_scheme("aee", p=0.25, mode="size", seed=1),
            compiled)
        assert rv.estimates == rn.estimates

    def test_aee_saturation_counts_match(self, compiled):
        # A clamping configuration: the saturation ledger is part of
        # the bit-identity contract, not just the estimates.
        sv = make_scheme("aee", p=0.5, bits=12, seed=2)
        sn = make_scheme("aee", p=0.5, bits=12, seed=2)
        replay(sv, compiled, order="asis", engine="vector")
        replay(sn, compiled, order="asis", engine="native")
        assert sn.saturation_events > 0
        assert sn.saturation_events == sv.saturation_events

    def test_replicas_reject_native(self, compiled):
        # The replica axis runs on the vector path; native is a
        # single-replay engine and must be rejected eagerly.
        with pytest.raises(ParameterError, match="replica"):
            replay(ExactCounters(mode="volume"), compiled, order="asis",
                   engine="native", replicas=4)


# ---------------------------------------------------------------------------
# distributional equivalence: DISCO, SAC, ANLS-II, SD
# ---------------------------------------------------------------------------

@needs_native
class TestDistributionalEquivalence:
    SEEDS = range(6)

    def _avg_errors(self, build, compiled):
        vec, nat = [], []
        for seed in self.SEEDS:
            rv, rn = both_engines(lambda: build(seed), compiled)
            vec.append(avg_error(rv))
            nat.append(avg_error(rn))
        return float(np.mean(vec)), float(np.mean(nat))

    def test_disco(self, compiled):
        v, n = self._avg_errors(
            lambda s: make_scheme("disco", b=B, mode="volume", seed=s),
            compiled)
        # Same law: both averages sit around the b=1.02 error level and
        # agree to well within the Monte-Carlo noise of 6x250 flows.
        assert abs(v - n) < 0.02
        assert n < 0.2

    def test_anls2(self, compiled):
        v, n = self._avg_errors(
            lambda s: make_scheme("anls2", b=B, seed=s), compiled)
        assert abs(v - n) < 0.02
        assert n < 0.3

    def test_sac(self, compiled):
        v, n = self._avg_errors(
            lambda s: make_scheme("sac", bits=10, mode_bits=3, seed=s),
            compiled)
        assert abs(v - n) < 0.02

    def test_ice(self, compiled):
        v, n = self._avg_errors(
            lambda s: make_scheme("ice", bits=10, seed=s), compiled)
        assert abs(v - n) < 0.02
        assert n < 0.2

    def test_ice_size_mode(self, compiled):
        v, n = self._avg_errors(
            lambda s: make_scheme("ice", bits=8, mode="size", seed=s),
            compiled)
        assert abs(v - n) < 0.02

    def test_ice_upscale_counts_same_order(self, compiled):
        # Upscales are data-driven, so the two engines need not agree
        # exactly — but both must see the same pressure regime.
        sv = make_scheme("ice", bits=8, seed=0)
        sn = make_scheme("ice", bits=8, seed=0)
        replay(sv, compiled, order="asis", engine="vector")
        replay(sn, compiled, order="asis", engine="native")
        assert sv.bucket_upscales > 0
        assert sn.bucket_upscales > 0
        assert 0.5 < sn.bucket_upscales / sv.bucket_upscales < 2.0

    def test_sd_exact_when_not_saturating(self, compiled):
        # SD with generous SRAM never loses traffic: both engines must
        # report every flow exactly (a deterministic, stronger check
        # than comparing error statistics).
        rv, rn = both_engines(
            lambda: make_scheme("sd", sram_bits=16, dram_access_ratio=12,
                                seed=0), compiled)
        assert rv.summary.average == 0.0
        assert rn.summary.average == 0.0
        assert rv.estimates == rn.estimates

    def test_sd_accounting_under_pressure(self, compiled):
        # Tight SRAM forces flush traffic; the native path must keep
        # the same books (flush counts are policy-deterministic, only
        # timing-independent totals are compared).
        sv = make_scheme("sd", sram_bits=8, dram_access_ratio=12, seed=0)
        sn = make_scheme("sd", sram_bits=8, dram_access_ratio=12, seed=0)
        replay(sv, compiled, order="asis", engine="vector")
        replay(sn, compiled, order="asis", engine="native")
        assert sn.flushes > 0
        assert sn.flushes == sv.flushes
        assert sn.bus_bits_transferred == sv.bus_bits_transferred


# ---------------------------------------------------------------------------
# streaming with native chunks
# ---------------------------------------------------------------------------

@needs_native
class TestStreamNative:
    def test_exact_stream_equals_one_shot_replay(self, compiled):
        # Carried KernelState must round-trip through native chunks:
        # for the exact scheme the summed epochs equal one replay pass
        # bit for bit, same as the vector-chunk invariant.
        result = stream(scheme_factory("exact"), compiled, shards=3,
                        epoch_packets=compiled.num_packets // 3,
                        chunk_packets=512, rng=7, engine="native")
        one_shot = replay(ExactCounters(mode="volume"), compiled,
                          order="asis", engine="vector")
        assert result.estimates_dict() == one_shot.estimates
        assert result.packets == compiled.num_packets

    def test_native_stream_matches_vector_stream_bitwise_for_anls(
            self, compiled):
        factory = scheme_factory("anls1", b=B, seed=3)
        kwargs = dict(shards=2, epoch_packets=compiled.num_packets // 2,
                      chunk_packets=1024, rng=11)
        rv = stream(factory, compiled, engine="vector", **kwargs)
        rn = stream(factory, compiled, engine="native", **kwargs)
        assert rv.estimates_dict() == rn.estimates_dict()

    def test_checkpoint_carries_engine(self, compiled, tmp_path):
        path = tmp_path / "native.ckpt"
        session = StreamSession(scheme_factory("exact"), shards=2,
                                epoch_packets=10_000, engine="native",
                                checkpoint_path=str(path))
        assert session.engine == "native"
        session.consume(compiled)
        session.checkpoint()
        restored = StreamSession.restore(str(path))
        assert restored.engine == "native"

    def test_native_stream_matches_vector_stream_bitwise_for_aee(
            self, compiled):
        # AEE's chunk replays are bit-identical and its carried state is
        # a plain counter array, so the whole sharded stream matches.
        factory = scheme_factory("aee", p=0.3, seed=3)
        kwargs = dict(shards=2, epoch_packets=compiled.num_packets // 2,
                      chunk_packets=1024, rng=11)
        rv = stream(factory, compiled, engine="vector", **kwargs)
        rn = stream(factory, compiled, engine="native", **kwargs)
        assert rv.estimates_dict() == rn.estimates_dict()

    def test_ice_stream_runs_on_native_chunks(self, compiled):
        result = stream(scheme_factory("ice", bits=10, seed=0), compiled,
                        shards=2, epoch_packets=compiled.num_packets // 2,
                        rng=5, engine="native")
        assert result.packets == compiled.num_packets
        errors = [abs(e - t) / t for e, t in
                  ((result.estimates_dict()[f], t)
                   for f, t in compiled.true_totals("volume").items())]
        assert sum(errors) / len(errors) < 0.2

    def test_disco_stream_runs_on_native_chunks(self, compiled):
        result = stream(scheme_factory("disco", b=B, seed=0), compiled,
                        shards=2, epoch_packets=compiled.num_packets // 2,
                        rng=5, engine="native")
        assert result.packets == compiled.num_packets
        errors = [abs(e - t) / t for e, t in
                  ((result.estimates_dict()[f], t)
                   for f, t in compiled.true_totals("volume").items())]
        assert sum(errors) / len(errors) < 0.2


# ---------------------------------------------------------------------------
# fallback behaviour (runs with or without a backend)
# ---------------------------------------------------------------------------

class TestFallback:
    @pytest.fixture()
    def clean_probe(self):
        native.reset()
        yield
        native.reset()

    @pytest.fixture()
    def no_backend(self, clean_probe, monkeypatch):
        """Mask the provider: the C compile fails."""
        monkeypatch.setattr(native, "_compile_cc", lambda: None)

    def test_disable_env_masks_backend(self, clean_probe, monkeypatch):
        monkeypatch.setenv(native.DISABLE_ENV, "1")
        assert native.disabled()
        assert not native.available()
        assert native.provider_name() == "none"

    def test_provider_is_cc_or_none(self, clean_probe):
        expected = "cc" if native.available() else "none"
        assert native.provider_name() == expected

    def test_native_without_backend_warns_once_and_matches_vector(
            self, no_backend, compiled):
        assert not native.available()
        build = lambda: Anls(b=B, rng=4)  # noqa: E731
        with pytest.warns(RuntimeWarning, match="falling back"):
            rn = replay(build(), compiled, order="asis", engine="native")
        assert rn.engine == "vector"
        # Identical results to an explicit vector replay — the fallback
        # is the vector path, not a third code path.
        rv = replay(build(), compiled, order="asis", engine="vector")
        assert rn.estimates == rv.estimates
        # Warn-once: a second degraded call is silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            again = replay(build(), compiled, order="asis", engine="native")
        assert again.engine == "vector"

    def test_stream_engine_falls_back_at_construction(self, no_backend):
        with pytest.warns(RuntimeWarning, match="falling back"):
            session = StreamSession(scheme_factory("exact"), shards=2,
                                    epoch_packets=1000, engine="native")
        assert session.engine == "vector"

    def test_auto_prefers_native_only_after_probe_succeeds(
            self, clean_probe, monkeypatch):
        scheme = ExactCounters(mode="volume")
        if native.available():
            assert resolve_engine("auto", scheme) == "native"
        native.reset()
        monkeypatch.setenv(native.DISABLE_ENV, "1")
        assert resolve_engine("auto", scheme) == "vector"

    def test_probe_is_cached_and_resettable(self, clean_probe):
        first = native.available()
        assert native.available() == first  # cached flag, no re-probe
        native.reset()
        assert native.available() == first  # deterministic re-probe
