"""Conformance gate of the bit-packed frame-differential engine.

The packed engine's contract has two halves, and both are tested at
the bit level where possible:

* ``engine="exact"`` consumes the same random stream as the bool
  :class:`~repro.sim.framesim.FrameArray` kernels draw for draw, so
  sampled measurement streams must be **bit-identical** to the bool
  :class:`~repro.sim.framesim.BatchedFrameSampler`, and the streaming
  core's measurement bits and whole-experiment :class:`BatchCounts`
  must reproduce the digests pinned from the bool-array batched core
  this engine replaced — across every arm, error kind, window shape,
  and in particular across shot counts that exercise the ragged last
  ``uint64`` word (1, 63, 64, 65, 1000);
* ``engine="fast"`` draws noise at the word level: a different
  stream of the same channel, so it is held to the *distributional*
  standard of the differential-fuzz corpus (exact state-vector
  enumeration at small n) instead of bit equality.

The legacy engine names map onto the two canonical ones
(:func:`~repro.sim.packedsim.resolve_engine`), and every entry point
refuses an unknown engine with one message.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments.ler import BatchedLerExperiment
from repro.qpdo import PackedStabilizerCore
from repro.sim import (
    NoiseParameters,
    sample_circuit,
    sample_circuit_packed,
)
from repro.sim.packedsim import PackedFrameSampler, unpack_bits
from repro.sim.framesim import (
    BatchedFrameSampler,
    compile_frame_program,
)
from repro.codes.surface17.esm import parallel_esm

from .test_framesim_equivalence import exact_distribution
from .test_fuzz_differential import (
    CORPUS_SEEDS,
    _chisquare_against_exact,
    random_noisy_circuit,
)

#: The ragged-last-word shot counts: below, at, and above one word,
#: plus the single-shot degenerate case and a many-word count.
RAGGED_SHOTS = (1, 63, 64, 65)


def counts_tuple(counts):
    return (
        counts.logical_errors.tolist(),
        counts.clean_windows.tolist(),
        counts.corrections_commanded.tolist(),
    )


def run_counts(engine, **kwargs):
    defaults = dict(
        physical_error_rate=8e-3,
        num_shots=65,
        windows=5,
        seed=23,
    )
    defaults.update(kwargs)
    return BatchedLerExperiment(engine=engine, **defaults).run_counts()


def digest(*arrays):
    """Short content digest of integer/bool arrays."""
    h = hashlib.sha256()
    for array in arrays:
        h.update(
            np.ascontiguousarray(np.asarray(array), dtype=np.int64).tobytes()
        )
    return h.hexdigest()[:16]


def counts_digest(counts):
    return digest(
        counts.logical_errors,
        counts.clean_windows,
        counts.corrections_commanded,
    )


#: ``counts_digest`` of each configuration below as run by the
#: bool-array batched core (``BatchedStabilizerCore``, the default
#: engine until the packed core became the only one).
BOOL_ENGINE_COUNTS = {
    ("ragged", 1, False): "8e593fdee7021d9c",
    ("ragged", 1, True): "18433020b92352c3",
    ("ragged", 63, False): "e6bb413418ba25a8",
    ("ragged", 63, True): "b41766a34a01b807",
    ("ragged", 64, False): "6a95a272d2a66847",
    ("ragged", 64, True): "7f9db445b99a467b",
    ("ragged", 65, False): "38ad59e375dc7384",
    ("ragged", 65, True): "1181fa67b885f780",
    ("kind", "x", False): "38ad59e375dc7384",
    ("kind", "x", True): "1181fa67b885f780",
    ("kind", "z", False): "8441a8622c280348",
    ("kind", "z", True): "18b6036c53831d0c",
    ("shape", 1, 3, True): "52c9c316c934f8c4",
    ("shape", 3, 5, True): "d7907a96fa128b83",
    ("shape", 2, 3, False): "405e1d804d6a4eb3",
    ("thousand", False): "89faadcc17ef4a94",
    ("thousand", True): "e50000b91c507f8d",
}

#: ``digest`` of the streaming core's measurement bits in
#: :meth:`TestPackedCoreBitIdentity.test_esm_rounds_and_feedback`, as
#: produced by the bool-array batched core.
BOOL_ENGINE_CORE_BITS = {
    1: "4503e7166fa1f65e",
    63: "cb57728a4af9af9f",
    64: "17d91ffabcd0fb95",
    65: "26d0efd6326aa7ce",
}


class TestBatchCountsBitIdentity:
    """engine="exact" reproduces the bool-array engine, bit for bit."""

    @pytest.mark.parametrize("num_shots", RAGGED_SHOTS)
    @pytest.mark.parametrize("use_frame", [False, True])
    def test_ragged_shot_counts(self, num_shots, use_frame):
        counts = run_counts(
            "exact", num_shots=num_shots, use_pauli_frame=use_frame
        )
        assert counts_digest(counts) == BOOL_ENGINE_COUNTS[
            ("ragged", num_shots, use_frame)
        ]

    @pytest.mark.parametrize("error_kind", ["x", "z"])
    @pytest.mark.parametrize("use_frame", [False, True])
    def test_arms_and_error_kinds(self, error_kind, use_frame):
        counts = run_counts(
            "exact", error_kind=error_kind, use_pauli_frame=use_frame
        )
        assert counts_digest(counts) == BOOL_ENGINE_COUNTS[
            ("kind", error_kind, use_frame)
        ]

    @pytest.mark.parametrize(
        "shape",
        [
            # (rounds_per_window, init_rounds, use_majority_vote)
            (1, 3, True),  # odd history: no drop-oldest
            (3, 5, True),  # even history: drop-oldest path
            (2, 3, False),  # last-round-only (no vote)
        ],
    )
    def test_window_shapes(self, shape):
        rounds, init, vote = shape
        counts = run_counts(
            "exact",
            rounds_per_window=rounds,
            init_rounds=init,
            use_majority_vote=vote,
        )
        assert counts_digest(counts) == BOOL_ENGINE_COUNTS[
            ("shape",) + shape
        ]

    def test_thousand_shots(self):
        """15.6 words + 40 ragged tail bits, both arms."""
        for use_frame in (False, True):
            counts = run_counts(
                "exact",
                num_shots=1000,
                windows=3,
                use_pauli_frame=use_frame,
            )
            assert counts_digest(counts) == BOOL_ENGINE_COUNTS[
                ("thousand", use_frame)
            ]


class TestSamplerBitIdentity:
    """sample_circuit_packed == sample_circuit on the fuzz corpus."""

    @pytest.mark.parametrize("fuzz_seed", CORPUS_SEEDS)
    def test_fuzz_corpus_streams(self, fuzz_seed):
        rng = np.random.default_rng(fuzz_seed)
        num_qubits = int(rng.integers(2, 6))
        circuit = random_noisy_circuit(
            num_qubits, int(rng.integers(6, 15)), rng
        )
        for shots in RAGGED_SHOTS:
            reference = sample_circuit(
                circuit,
                shots,
                seed=fuzz_seed,
                noise=NoiseParameters(0.08),
                num_qubits=num_qubits,
            )
            packed = sample_circuit_packed(
                circuit,
                shots,
                seed=fuzz_seed,
                noise=NoiseParameters(0.08),
                num_qubits=num_qubits,
            )
            assert np.array_equal(reference, packed), (fuzz_seed, shots)

    def test_split_sampling_matches_one_call(self):
        """Drawing 37 + 63 shots equals one 100-shot call's stream
        split at the same point — per-call draws, not per-stream."""
        esm = parallel_esm(list(range(17)), name="esm")
        program = compile_frame_program(
            esm.circuit, noise=NoiseParameters(5e-3), num_qubits=17
        )
        packed = PackedFrameSampler(program, seed=11)
        reference = BatchedFrameSampler(program, seed=11)
        for block in (37, 63):
            assert np.array_equal(
                packed.sample(block), reference.sample(block)
            )

    def test_noiseless_circuit_matches(self):
        esm = parallel_esm(list(range(17)), name="esm")
        for shots in (1, 65):
            reference = sample_circuit(esm.circuit, shots, seed=3)
            packed = sample_circuit_packed(esm.circuit, shots, seed=3)
            assert np.array_equal(reference, packed)


class TestPackedCoreBitIdentity:
    """The streaming core against the bool-array batched core."""

    @pytest.mark.parametrize("num_shots", RAGGED_SHOTS)
    def test_esm_rounds_and_feedback(self, num_shots):
        esm = parallel_esm(list(range(17)), name="esm")
        noise = NoiseParameters(8e-3, active_qubits=range(17))
        packed = PackedStabilizerCore(
            num_shots, noise=noise, seed=42, rng_mode="exact"
        )
        packed.createqubit(17)
        rng = np.random.default_rng(7)
        columns = []
        for round_index in range(4):
            packed.add(esm.circuit)
            result_packed = packed.execute()
            for m in esm.x_measurements + esm.z_measurements:
                bits = result_packed.bits_of(m)
                columns.append(bits)
                assert np.array_equal(
                    bits,
                    unpack_bits(result_packed.words_of(m), num_shots),
                )
            if round_index == 3:
                break
            # Random Pauli feedback + masked depolarizing, the two
            # per-shot channels the LER experiment uses.
            x_mask = rng.random((num_shots, 17)) < 0.3
            z_mask = rng.random((num_shots, 17)) < 0.3
            packed.apply_pauli_frame(x_mask, z_mask)
            shot_mask = rng.random(num_shots) < 0.5
            packed.inject_depolarizing(range(17), shot_mask=shot_mask)
        assert digest(np.stack(columns)) == BOOL_ENGINE_CORE_BITS[
            num_shots
        ]

    def test_scalar_core_contract(self):
        """measurements/getstate expose shot 0."""
        esm = parallel_esm(list(range(17)), name="esm")
        noise = NoiseParameters(8e-3, active_qubits=range(17))
        packed = PackedStabilizerCore(66, noise=noise, seed=9)
        packed.createqubit(17)
        packed.add(esm.circuit)
        result_packed = packed.execute()
        for m in esm.x_measurements + esm.z_measurements:
            shot0 = int(result_packed.bits_of(m)[0])
            assert result_packed.measurements[m.uid] == shot0
        known = packed.getstate().known_bits()
        for m in esm.x_measurements + esm.z_measurements:
            assert known[m.qubits[0]] == result_packed.measurements[m.uid]


class TestPackedFastDistribution:
    """fast: a different stream of the same channel."""

    @pytest.mark.parametrize("fuzz_seed", CORPUS_SEEDS[:3])
    def test_matches_exact_distribution(self, fuzz_seed):
        rng = np.random.default_rng(fuzz_seed)
        num_qubits = int(rng.integers(2, 6))
        circuit = random_noisy_circuit(
            num_qubits, int(rng.integers(6, 15)), rng
        )
        expected = exact_distribution(circuit, num_qubits)
        shots = 2000
        samples = sample_circuit_packed(
            circuit,
            shots,
            seed=fuzz_seed + 1,
            num_qubits=num_qubits,
            rng_mode="fast",
        )
        _chisquare_against_exact(
            samples, expected, shots, context=fuzz_seed
        )

    def test_noisy_distribution_matches_exact(self):
        """Fast-mode depolarizing sampling against enumeration: run
        a noiseless random circuit under fast-mode built-in noise and
        compare to the exact framesim distribution at matched shots
        (homogeneity via the chi-square helper on pooled streams)."""
        from .test_fuzz_differential import _chisquare_homogeneity

        rng = np.random.default_rng(77)
        num_qubits = 3
        circuit = random_noisy_circuit(num_qubits, 10, rng)
        shots = 4000
        noise = NoiseParameters(0.05)
        reference = sample_circuit(
            circuit, shots, seed=5, noise=noise, num_qubits=num_qubits
        )
        fast = sample_circuit_packed(
            circuit,
            shots,
            seed=6,
            noise=noise,
            num_qubits=num_qubits,
            rng_mode="fast",
        )
        _chisquare_homogeneity(reference, fast, context="fast")

    def test_deterministic_for_fixed_seed(self):
        first = run_counts("fast", num_shots=128, windows=3)
        second = run_counts("fast", num_shots=128, windows=3)
        assert counts_tuple(first) == counts_tuple(second)


class TestEngineValidation:
    @pytest.mark.parametrize(
        "legacy, canonical",
        [("framesim", "exact"), ("packed", "exact"), ("packed-fast", "fast")],
    )
    def test_legacy_name_runs_its_canonical_engine(self, legacy, canonical):
        experiment = BatchedLerExperiment(8e-3, num_shots=65, engine=legacy)
        assert experiment.engine == canonical
        assert counts_tuple(run_counts(legacy)) == counts_tuple(
            run_counts(canonical)
        )

    def test_unknown_engine_refused_alike_everywhere(self, capsys):
        """CLI, experiment, shard planner and serve: one message."""
        from repro.cli import main
        from repro.experiments.parallel import plan_shards
        from repro.serve.workers import JobParamsError, check_job_params
        from repro.sim.packedsim import resolve_engine

        with pytest.raises(ValueError) as expected:
            resolve_engine("quantum")
        message = str(expected.value)
        assert "'exact' or 'fast'" in message

        with pytest.raises(ValueError) as error:
            BatchedLerExperiment(8e-3, num_shots=4, engine="quantum")
        assert str(error.value) == message
        with pytest.raises(ValueError) as error:
            plan_shards([8e-3], "x", 4, 4, 2, 0, engine="quantum")
        assert str(error.value) == message
        with pytest.raises(JobParamsError) as error:
            check_job_params(
                "ler", {"physical_error_rate": 8e-3, "engine": "quantum"}
            )
        assert str(error.value) == message
        with pytest.raises(SystemExit) as exit_info:
            main(["ler", "--batch", "4", "--engine", "quantum"])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_packed_core_refuses_non_clifford(self):
        from repro.circuits import Circuit
        from repro.circuits.operation import Operation

        circuit = Circuit("t")
        circuit.append(Operation("t", (0,)))
        core = PackedStabilizerCore(4, seed=1)
        core.createqubit(1)
        core.add(circuit)
        with pytest.raises(ValueError, match="non-Clifford"):
            core.execute()

    def test_packed_capabilities(self):
        from repro.qpdo.core import (
            CAP_BATCH,
            CAP_NON_CLIFFORD,
            CAP_PACKED,
        )

        core = PackedStabilizerCore(4, seed=1)
        assert core.supports(CAP_BATCH)
        assert core.supports(CAP_PACKED)
        assert not core.supports(CAP_NON_CLIFFORD)
