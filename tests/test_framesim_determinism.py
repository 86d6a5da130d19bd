"""Seed determinism of the batched sampler and the batched core.

The reproducibility contract of :mod:`repro.sim.framesim`:

* the same seed always yields bit-identical sample arrays,
* batch splits are invisible — ``sample(1000)`` equals the
  concatenation of ten consecutive ``sample(100)`` calls, bit for bit
  (each random instruction owns one RNG stream and every call simply
  continues it),
* different seeds yield different arrays (no accidental stream
  reuse),
* the full compile-and-sample helper is a pure function of
  ``(circuit, shots, seed, noise)``.
"""

import numpy as np
import pytest

from repro.circuits import Circuit, random_clifford_circuit
from repro.circuits.operation import Operation
from repro.codes.surface17 import parallel_esm
from repro.experiments import BatchedLerExperiment
from repro.qpdo import PackedStabilizerCore
from repro.sim import (
    BatchedFrameSampler,
    NoiseParameters,
    compile_frame_program,
    sample_circuit,
)


def noisy_test_circuit(seed: int = 0, num_qubits: int = 6) -> Circuit:
    """A representative circuit: Cliffords, resets and measurements."""
    rng = np.random.default_rng(seed)
    base = random_clifford_circuit(num_qubits, 30, rng=rng)
    circuit = Circuit("determinism")
    for qubit in range(num_qubits):
        circuit.add("prep_z", qubit)
    for index, operation in enumerate(base.operations()):
        circuit.add(operation.name, *operation.qubits)
        if index % 5 == 4:
            circuit.add("measure", int(rng.integers(num_qubits)))
        if index % 11 == 10:
            circuit.add("prep_z", int(rng.integers(num_qubits)))
    for qubit in range(num_qubits):
        circuit.add("measure", qubit)
    return circuit


NOISE = NoiseParameters(0.02)


class TestSamplerDeterminism:
    def _program(self):
        return compile_frame_program(
            noisy_test_circuit(),
            num_qubits=6,
            noise=NOISE,
            reference_seed=7,
        )

    def test_same_seed_bit_identical(self):
        program = self._program()
        a = BatchedFrameSampler(program, seed=123).sample(800)
        b = BatchedFrameSampler(program, seed=123).sample(800)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("split", [(10, 100), (4, 250), (1000, 1)])
    def test_batch_split_invisible(self, split):
        """1 x 1000 shots == pieces x size shots, concatenated."""
        pieces, size = split
        program = self._program()
        whole = BatchedFrameSampler(program, seed=55).sample(1000)
        sampler = BatchedFrameSampler(program, seed=55)
        parts = np.concatenate(
            [sampler.sample(size) for _ in range(pieces)]
        )
        assert np.array_equal(whole, parts)

    def test_uneven_batch_split_invisible(self):
        program = self._program()
        whole = BatchedFrameSampler(program, seed=9).sample(337)
        sampler = BatchedFrameSampler(program, seed=9)
        parts = np.concatenate(
            [sampler.sample(n) for n in (1, 100, 7, 200, 29)]
        )
        assert np.array_equal(whole, parts)

    def test_different_seeds_differ(self):
        program = self._program()
        a = BatchedFrameSampler(program, seed=1).sample(600)
        b = BatchedFrameSampler(program, seed=2).sample(600)
        assert not np.array_equal(a, b)

    def test_shots_sampled_counter(self):
        program = self._program()
        sampler = BatchedFrameSampler(program, seed=3)
        sampler.sample(10)
        sampler.sample(32)
        assert sampler.shots_sampled == 42

    def test_sample_packed_matches_sample(self):
        program = self._program()
        bits = BatchedFrameSampler(program, seed=4).sample(100)
        packed = BatchedFrameSampler(program, seed=4).sample_packed(100)
        assert np.array_equal(
            np.packbits(bits.astype(np.uint8), axis=1), packed
        )

    def test_sample_circuit_is_pure(self):
        circuit = noisy_test_circuit(seed=3)
        a = sample_circuit(circuit, 500, seed=77, noise=NOISE)
        b = sample_circuit(circuit, 500, seed=77, noise=NOISE)
        assert np.array_equal(a, b)

    def test_compilation_stream_layout_is_stable(self):
        """Stream indices depend only on the circuit, not the run."""
        circuit = noisy_test_circuit()
        first = compile_frame_program(
            circuit, num_qubits=6, noise=NOISE, reference_seed=7
        )
        second = compile_frame_program(
            circuit, num_qubits=6, noise=NOISE, reference_seed=7
        )
        assert first.num_streams == second.num_streams
        assert first.measurement_uids == second.measurement_uids
        assert [i[0] for i in first.instructions] == [
            i[0] for i in second.instructions
        ]


class TestBatchedCoreDeterminism:
    @staticmethod
    def _run_core(seed: int, shots: int = 250) -> np.ndarray:
        core = PackedStabilizerCore(
            shots,
            noise=NoiseParameters(0.02, active_qubits=range(17)),
            seed=seed,
            rng_mode="exact",
        )
        core.createqubit(17)
        prep = Circuit("prep")
        slot = prep.new_slot()
        for qubit in range(9):
            slot.add(Operation("prep_z", (qubit,)))
        core.run(prep)
        columns = []
        for _ in range(3):
            esm = parallel_esm(list(range(17)))
            result = core.run(esm.circuit)
            for measure in esm.x_measurements + esm.z_measurements:
                columns.append(result.bits_of(measure))
        return np.stack(columns, axis=1)

    def test_same_seed_bit_identical(self):
        assert np.array_equal(self._run_core(31), self._run_core(31))

    def test_different_seeds_differ(self):
        assert not np.array_equal(self._run_core(31), self._run_core(32))

    def test_batched_ler_experiment_reproducible(self):
        def run():
            results = BatchedLerExperiment(
                8e-3, num_shots=60, windows=6, seed=2017
            ).run()
            return [
                (r.logical_errors, r.clean_windows, r.corrections_commanded)
                for r in results
            ]

        assert run() == run()
