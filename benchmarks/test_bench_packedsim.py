"""E22 -- bit-packed frame-differential engine vs the batched sampler.

The acceptance bar for the packed engine's fast RNG mode: at 100,000
shots, the fast :class:`~repro.sim.packedsim.PackedFrameSampler` must
beat the bool :class:`~repro.sim.framesim.BatchedFrameSampler` by at
least ``REQUIRED_SPEEDUP``.  The CI gate is 4x (shared runners are
noisy and slow).

Two measurements:

* raw shot sampling -- the compiled noisy ESM program sampled by the
  unpacked :class:`~repro.sim.framesim.BatchedFrameSampler` against
  the packed sampler in both RNG modes.  The exact mode must return
  bit-identical samples (conformance is free here, so it is asserted
  in passing); the fast mode carries the speedup gate,
* the full adaptive LER workload (sample + majority vote + LUT decode
  + frame feedback every window) through
  :class:`~repro.experiments.ler.BatchedLerExperiment` on both
  engines, ``exact`` and ``fast``: their rates are printed and their
  LERs must land in the same regime.  The bool-array core this
  workload used to be gated against no longer exists.

Environment knobs (CI uses the defaults):

* ``REPRO_E22_SHOTS`` -- lockstep shots (default 100,000),
* ``REPRO_E22_MIN_SPEEDUP`` -- the gate (default 4.0).
"""

import os
import time

import numpy as np

from repro.circuits import Circuit
from repro.codes.surface17 import parallel_esm
from repro.experiments import BatchedLerExperiment
from repro.sim import (
    BatchedFrameSampler,
    NoiseParameters,
    compile_frame_program,
)
from repro.sim.packedsim import PackedFrameSampler

#: Physical error rate of the workload (mid-sweep, Fig 5.11 range).
PER = 6e-3
#: Lockstep shots of the packed acceptance run.
BATCH_SHOTS = int(os.environ.get("REPRO_E22_SHOTS", 100_000))
#: Required raw-sampling speedup of the fast packed sampler over the
#: bool sampler (CI gate).
REQUIRED_SPEEDUP = float(os.environ.get("REPRO_E22_MIN_SPEEDUP", 4.0))
#: Windows per shot of the LER workload.
WINDOWS = 3


def _esm_program():
    """Prep + three noisy ESM rounds, compiled once."""
    circuit = Circuit("sc17-esm")
    for qubit in range(9):
        circuit.add("prep_z", qubit)
    for _ in range(3):
        circuit.extend(parallel_esm(list(range(17))).circuit)
    return compile_frame_program(
        circuit,
        num_qubits=17,
        noise=NoiseParameters(PER, active_qubits=range(17)),
        reference_seed=11,
    )


def _rate(fn):
    start = time.perf_counter()
    out = fn()
    return out, BATCH_SHOTS / (time.perf_counter() - start)


def test_bench_e22_raw_sampling_speedup(benchmark):
    program = _esm_program()

    unpacked, unpacked_rate = _rate(
        lambda: BatchedFrameSampler(program, seed=12).sample(BATCH_SHOTS)
    )
    exact, exact_rate = _rate(
        lambda: PackedFrameSampler(
            program, seed=12, rng_mode="exact"
        ).sample(BATCH_SHOTS)
    )
    # Conformance, asserted in passing: exact mode is bit-identical.
    assert np.array_equal(unpacked, exact)

    def sample_fast():
        return PackedFrameSampler(
            program, seed=12, rng_mode="fast"
        ).sample(BATCH_SHOTS)

    start = time.perf_counter()
    fast = benchmark.pedantic(sample_fast, rounds=1, iterations=1)
    fast_rate = BATCH_SHOTS / (time.perf_counter() - start)

    assert fast.shape == unpacked.shape
    speedup = fast_rate / unpacked_rate
    print("\n[E22] SC17 ESM raw sampling, shots/second:")
    print(f"  batched frame sampler: {unpacked_rate:12.1f}")
    print(f"  packed (exact rng):    {exact_rate:12.1f}")
    print(f"  packed (fast rng):     {fast_rate:12.1f}")
    print(
        f"  fast speedup:          {speedup:12.1f}x "
        f"(gate {REQUIRED_SPEEDUP:.0f}x)"
    )
    assert speedup >= REQUIRED_SPEEDUP


def test_bench_e22_ler_workload_speedup(benchmark):
    def run(engine):
        return BatchedLerExperiment(
            PER,
            num_shots=BATCH_SHOTS,
            use_pauli_frame=True,
            error_kind="x",
            windows=WINDOWS,
            seed=6,
            engine=engine,
        ).run_counts()

    exact, exact_rate = _rate(lambda: run("exact"))

    start = time.perf_counter()
    fast = benchmark.pedantic(lambda: run("fast"), rounds=1, iterations=1)
    fast_rate = BATCH_SHOTS / (time.perf_counter() - start)

    print("\n[E22] SC17 adaptive LER workload, shots/second:")
    print(f"  exact engine:          {exact_rate:12.1f}")
    print(f"  fast engine:           {fast_rate:12.1f}")
    print(f"  fast over exact:       {fast_rate / exact_rate:12.1f}x")

    # Sanity: both engines land in the same LER regime.
    ler_exact = exact.logical_errors.sum() / (BATCH_SHOTS * WINDOWS)
    ler_fast = fast.logical_errors.sum() / (BATCH_SHOTS * WINDOWS)
    assert 0.5 * ler_exact <= ler_fast <= 2.0 * ler_exact
