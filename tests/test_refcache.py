"""Tests for the process-level reference-trace cache (repro.sim.refcache).

The cache's contract: the reference trajectory is keyed and seeded by
the protocol structure alone, so the first run of a structure records
it, every later run of that structure — any seed, arm, shot count or
engine — replays it without building a tableau, and replayed, recorded
and uncached live runs are bit-identical.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.experiments.ler import BatchedLerExperiment
from repro.sim.refcache import (
    REFERENCE_CACHE_CAPACITY,
    ReferenceTableau,
    clear_reference_cache,
    lookup_reference_trace,
    reference_cache_size,
    reference_seed,
    reference_trace_key,
    store_reference_trace,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_reference_cache()
    yield
    clear_reference_cache()


def run_ler(engine, seed=11, reference_cache=True):
    experiment = BatchedLerExperiment(
        0.002,
        128,
        use_pauli_frame=True,
        windows=3,
        seed=seed,
        engine=engine,
        reference_cache=reference_cache,
    )
    result = experiment.run()
    return result, experiment.core.simulator.replaying


#: The structure of ``BatchedLerExperiment(..., windows=3)``.
STRUCTURE = ("batched_ler", "x", 3, 2, 3)


class TestReferenceTraceKey:
    def test_equivalent_seed_spellings_share_a_key(self):
        keys = {
            BatchedLerExperiment(
                0.002, 2, windows=3, seed=seed
            ).core.simulator.key
            for seed in (7, np.random.SeedSequence(7))
        }
        assert keys == {reference_trace_key(STRUCTURE)}

    def test_different_seeds_share_a_key(self):
        """Changed contract: the seed only drives the frames."""
        keys = {
            BatchedLerExperiment(
                0.002, 2, windows=3, seed=seed
            ).core.simulator.key
            for seed in (7, 8, None)
        }
        assert keys == {reference_trace_key(STRUCTURE)}

    def test_different_structures_differ(self):
        assert reference_trace_key(STRUCTURE) != reference_trace_key(
            ("batched_ler", "z", 3, 2, 3)
        )

    def test_reference_seed_is_the_structure_digest(self):
        key = reference_trace_key(STRUCTURE)
        assert reference_seed(key).entropy == int(key, 16)


class TestCacheStore:
    def test_store_lookup_roundtrip(self):
        stored = store_reference_trace("k1", [1, 0, 1])
        found = lookup_reference_trace("k1")
        assert found is stored
        assert found.dtype == np.uint8
        assert list(found) == [1, 0, 1]

    def test_stored_traces_are_frozen(self):
        trace = store_reference_trace("k1", [1, 0])
        with pytest.raises(ValueError):
            trace[0] = 0

    def test_miss_returns_none(self):
        assert lookup_reference_trace("absent") is None

    def test_clear_reports_held_entries(self):
        store_reference_trace("k1", [1])
        store_reference_trace("k2", [0])
        assert reference_cache_size() == 2
        assert clear_reference_cache() == 2
        assert reference_cache_size() == 0

    def test_fifo_eviction_is_bounded(self):
        for index in range(REFERENCE_CACHE_CAPACITY + 5):
            store_reference_trace(f"k{index}", [index & 1])
        assert reference_cache_size() == REFERENCE_CACHE_CAPACITY
        assert lookup_reference_trace("k0") is None
        assert lookup_reference_trace("k4") is None
        assert lookup_reference_trace("k5") is not None

    def test_hit_miss_telemetry_counters(self):
        with telemetry.enabled() as collector:
            lookup_reference_trace("k")
            store_reference_trace("k", [1])
            lookup_reference_trace("k")
        counters = collector.counters[("sim.refcache", "reference_cache")]
        assert counters["misses"] == 1
        assert counters["hits"] == 1


class TestReferenceTableau:
    def test_live_mode_records_nothing(self):
        tableau = ReferenceTableau(np.random.default_rng(0), key=None)
        tableau.add_qubits(1)
        tableau.apply_gate("h", (0,))
        tableau.measure(0)
        tableau.commit()
        assert reference_cache_size() == 0

    def test_record_then_replay_same_bits(self):
        recorder = ReferenceTableau(np.random.default_rng(3), key="k")
        recorder.add_qubits(2)
        bits = []
        for _ in range(8):
            recorder.apply_gate("h", (0,))
            bits.append(recorder.measure(0))
        recorder.commit()

        replayer = ReferenceTableau(np.random.default_rng(999), key="k")
        assert replayer.replaying
        replayer.add_qubits(2)  # no-op, must not fail
        replayed = []
        for _ in range(8):
            replayer.apply_gate("h", (0,))
            replayed.append(replayer.measure(0))
        assert replayed == bits

    def test_replay_exhaustion_raises(self):
        store_reference_trace("k", [1])
        replayer = ReferenceTableau(np.random.default_rng(0), key="k")
        assert replayer.measure(0) == 1
        with pytest.raises(RuntimeError, match="trace exhausted"):
            replayer.measure(0)

    def test_commit_after_replay_is_noop(self):
        store_reference_trace("k", [1, 0])
        replayer = ReferenceTableau(np.random.default_rng(0), key="k")
        replayer.measure(0)
        replayer.commit()
        assert list(lookup_reference_trace("k")) == [1, 0]


class TestExperimentIntegration:
    def test_warm_run_is_bit_identical(self):
        cold, cold_replaying = run_ler("exact")
        warm, warm_replaying = run_ler("exact")
        assert not cold_replaying
        assert warm_replaying
        assert [r.to_json_dict() for r in cold] == [
            r.to_json_dict() for r in warm
        ]

    def test_trace_is_shared_across_engines(self):
        run_ler("exact")
        _, replaying = run_ler("fast")
        assert replaying

    def test_opt_out_skips_the_cache(self):
        _, replaying = run_ler("exact", reference_cache=False)
        assert not replaying
        assert reference_cache_size() == 0

    @pytest.mark.parametrize("engine", ["exact", "fast"])
    def test_live_mode_equals_cached_mode(self, engine):
        """Live, record and replay runs draw one reference."""
        live, _ = run_ler(engine, reference_cache=False)
        recorded, recorded_replaying = run_ler(engine)
        replayed, replaying = run_ler(engine)
        assert not recorded_replaying and replaying
        documents = [
            [r.to_json_dict() for r in result]
            for result in (live, recorded, replayed)
        ]
        assert documents[0] == documents[1] == documents[2]

    def test_unseeded_runs_share_the_structure_trace(self):
        """Changed contract: an unseeded run has a structure too."""
        run_ler("exact", seed=None)
        _, replaying = run_ler("exact", seed=None)
        assert replaying
        assert reference_cache_size() == 1

    def test_distinct_seeds_share_one_entry(self):
        """Changed contract: seeds, arms and shot counts share one
        trace; only a different structure adds an entry."""
        run_ler("exact", seed=1)
        _, replaying = run_ler("exact", seed=2)
        assert replaying
        BatchedLerExperiment(
            0.01, 5, use_pauli_frame=False, windows=3, seed=3
        ).run_counts()
        assert reference_cache_size() == 1
        BatchedLerExperiment(0.002, 5, windows=4, seed=1).run_counts()
        assert reference_cache_size() == 2
