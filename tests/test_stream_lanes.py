"""The lane-aligned per-shard state plane under ``StreamSession``.

Each shard keeps its carried kernel state in lanes (lane ``i`` is the
shard's ``i``-th key this epoch) and hands a chunk's replay only the
lanes it must step: the touched ones for lane-local kernels, every seen
one for SAC, ICE and SD.  These tests pin what that must not change —
estimates bit-identical to the whole-epoch replays it replaced, old
checkpoints that still resume — and what it adds: the ``stream.lanes``
counter and a single-shard session that never hashes.
"""

import hashlib
import pickle

import numpy as np
import pytest

import repro.faults as faults_mod
import repro.streaming as streaming
from repro import StreamSession, Telemetry, scheme_factory, stream
from repro.core.kernels import (
    AeeKernel,
    AnlsKernel,
    AnlsPerUnitKernel,
    DiscoKernel,
    ExactKernel,
    IceKernel,
    KernelState,
    SacKernel,
    SdKernel,
)
from repro.traces import make_trace
from repro.traces.nlanr import nlanr_like

#: Stream digests recorded before the shard state became lane-aligned,
#: when every chunk replayed every key the shard had seen this epoch.
#: ``(big trace, shuffled pairs)`` per scheme; the dense and pools
#: stores give the same digests (pools is lossless).
RECORDED = {
    "disco": ("3d5d3b433f059589", "7ccdc86468962df2"),
    "exact": ("bc5555c81a728695", "cbd573b622831648"),
    "anls2": ("e201bd4710b8f0ea", "2c5c1a207c5218c1"),
    "aee": ("09f4a245e28919a5", "20cca9858ed5928f"),
    "sac": ("e69ad765be173811", "083ad8f5f3a505ff"),
    "sd": ("bc5555c81a728695", "cbd573b622831648"),
}
PARAMS = {"disco": dict(b=1.02), "exact": {}, "anls2": dict(b=1.02),
          "aee": dict(p=0.25, bits=16), "sac": dict(bits=12), "sd": {}}


def _digest(result) -> str:
    h = hashlib.sha256()
    for snap in result.snapshots:
        for key, est in sorted(snap.estimates_dict().items(),
                               key=lambda kv: repr(kv[0])):
            h.update(f"{key!r}={float(est).hex()};".encode())
        h.update(repr(snap.shard_counter_bits).encode())
    return h.hexdigest()[:16]


@pytest.fixture(scope="module")
def big():
    return make_trace("big", num_flows=1500, seed=3, segment_flows=512)


@pytest.fixture(scope="module")
def pairs():
    trace = nlanr_like(num_flows=150, mean_flow_bytes=20_000,
                       max_flow_bytes=200_000, rng=5)
    return list(trace.packet_pairs(order="shuffled", rng=2))


@pytest.fixture(autouse=True)
def _clean_faults():
    faults_mod.disarm()
    yield
    faults_mod.disarm()


class TestLaneLocalFlag:
    @pytest.mark.parametrize("cls", [DiscoKernel, AnlsKernel,
                                     AnlsPerUnitKernel, ExactKernel,
                                     AeeKernel])
    def test_lane_local_kernels(self, cls):
        assert cls.lane_local is True

    @pytest.mark.parametrize("cls", [SacKernel, IceKernel, SdKernel])
    def test_cross_lane_kernels_step_every_lane(self, cls):
        assert cls.lane_local is False


class TestBitIdentity:
    """Same seed and configuration: the estimates recorded before."""

    @pytest.mark.parametrize("store", ["dense", "pools"])
    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_matches_recorded_digest(self, big, pairs, name, store):
        factory = scheme_factory(name, seed=0, **PARAMS[name])
        flow_major = stream(factory, big, shards=2,
                            epoch_packets=big.num_packets // 3,
                            chunk_packets=3000, rng=11, store=store)
        assert flow_major.epochs >= 3
        session = StreamSession(factory, shards=2,
                                epoch_packets=len(pairs) // 2,
                                chunk_packets=1000, rng=12, store=store)
        session.extend(pairs)
        shuffled = session.finish()
        assert (_digest(flow_major), _digest(shuffled)) == RECORDED[name]

    @pytest.mark.parametrize("name", ["ice", "sac"])
    def test_pooled_equals_serial(self, pairs, name):
        factory = scheme_factory(name, seed=0, bits=10)
        results = []
        for workers in (None, 2):
            session = StreamSession(factory, shards=2, chunk_packets=1000,
                                    epoch_packets=len(pairs) // 2, rng=3,
                                    workers=workers)
            session.extend(pairs)
            results.append(session.finish().estimates_dict())
        assert results[0] == results[1]


class TestLaneAlignedState:
    def test_state_index_is_the_lane_map(self, pairs):
        session = StreamSession(scheme_factory("disco", b=1.02, seed=0),
                                shards=2, chunk_packets=500, rng=1)
        session.extend(pairs[:3000])
        for shard in range(2):
            lane_of = session._keys[shard]
            state = session._state[shard]
            assert state.index is lane_of
            assert list(lane_of.values()) == list(range(len(lane_of)))
            assert state.arrays["counters"].size == len(lane_of)
        live = session.live_counters()
        assert set(live) == set(session._keys[0]) | set(session._keys[1])

    def test_dense_buffers_grow_by_doubling(self):
        session = StreamSession(scheme_factory("exact"), chunk_packets=10,
                                rng=0)
        capacities = []
        for flow in range(40):
            session.ingest_chunk([f"f{flow}"], [np.array([100.0])])
            capacities.append(session._buffers[0]["totals"].size)
        assert capacities[-1] < 2 * 40 + 1
        assert len(set(capacities)) <= 7  # 1, 2, 4, ..., 64
        assert session._state[0].arrays["totals"].size == 40
        assert session.live_estimates() == {f"f{i}": 100.0 for i in range(40)}

    def test_compact_store_keeps_no_dense_buffers(self, pairs):
        session = StreamSession(scheme_factory("disco", b=1.02, seed=0),
                                shards=2, chunk_packets=500, rng=1,
                                store="pools")
        session.extend(pairs[:2000])
        assert session._buffers == [None, None]
        assert all(state.store is not None and not state.arrays
                   for state in session._state)


class TestLanesCounter:
    CHUNKS = [(["a", "b", "c"], [[100.0, 40.0], [60.0], [80.0, 80.0, 8.0]]),
              (["d"], [[50.0]]),
              (["a", "e"], [[10.0], [20.0, 30.0]])]

    def _lanes(self, name, **params):
        tel = Telemetry()
        session = StreamSession(scheme_factory(name, seed=0, **params),
                                rng=0, telemetry=tel)
        for keys, lengths in self.CHUNKS:
            session.ingest_chunk(keys, [np.array(ls) for ls in lengths])
        session.finish()
        return tel.snapshot()["counters"]["stream.lanes"]

    def test_lane_local_counts_touched_flows(self):
        assert self._lanes("disco", b=1.02) == 3 + 1 + 2

    def test_sac_counts_flows_seen_this_epoch(self):
        assert self._lanes("sac", bits=12) == 3 + 4 + 5


class TestSingleShard:
    def test_one_shard_never_hashes(self, pairs, monkeypatch):
        def no_hash(key):
            raise AssertionError("stable_hash called with one shard")

        monkeypatch.setattr(streaming, "stable_hash", no_hash)
        session = StreamSession(scheme_factory("exact"), shards=1,
                                chunk_packets=700, rng=0)
        session.extend(pairs)
        result = session.finish()
        assert session._shard_of == {}
        assert result.packets == len(pairs)


class TestOldCheckpoints:
    """Checkpoints whose rows are in a chunk's size order still resume."""

    @staticmethod
    def _permute(state: KernelState, rng) -> KernelState:
        keys = list(state.index)
        order = rng.permutation(len(keys))
        R = state.replicas
        positions = (order[:, None] * R + np.arange(R)).ravel()
        arrays = {name: column[positions]
                  for name, column in state.dense_arrays().items()}
        index = {keys[row]: i for i, row in enumerate(order.tolist())}
        if state.store is None:
            return KernelState(index=index, arrays=arrays,
                               scalars=state.scalars, replicas=R)
        compact = type(state.store)()
        for name, column in arrays.items():
            compact.write(name, column)
        return KernelState(index=index, arrays={}, scalars=state.scalars,
                           replicas=R, store=compact)

    @pytest.mark.parametrize("store", ["dense", "pools"])
    @pytest.mark.parametrize("name", ["disco", "sac"])
    def test_permuted_rows_resume_bit_identical(self, pairs, tmp_path,
                                                name, store):
        factory = scheme_factory(name, seed=0, **PARAMS[name])
        config = dict(shards=2, epoch_packets=len(pairs) // 2,
                      chunk_packets=1000, rng=12, store=store)
        baseline = StreamSession(factory, **config)
        baseline.extend(pairs)
        expected = baseline.finish().estimates_dict()

        path = tmp_path / "old.ckpt"
        crashed = StreamSession(factory, checkpoint_path=str(path), **config)
        # Whole chunks only, so the crashed run keeps the chunk schedule.
        crashed.extend(pairs[:len(pairs) // 3 // 1000 * 1000])
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        rng = np.random.default_rng(7)
        assert any(state is not None for state in payload["state"])
        payload["state"] = [None if state is None
                            else self._permute(state, rng)
                            for state in payload["state"]]
        with open(path, "wb") as fh:
            pickle.dump(payload, fh)

        resumed = StreamSession.restore(str(path))
        for shard, state in enumerate(resumed._state):
            if state is not None:
                assert state.index is resumed._keys[shard]
                assert list(state.index.values()) == list(range(state.flows))
        resumed.extend(pairs)
        assert resumed.finish().estimates_dict() == expected
