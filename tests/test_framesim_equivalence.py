"""Cross-simulator equivalence of the batched Pauli-frame sampler.

Three independent implementations of the same physics must agree:

* the batched frame sampler (:mod:`repro.sim.framesim`) against the
  *exact* outcome distribution enumerated on the dense state-vector
  simulator (chi-square),
* the batched sampler against per-shot tableau loops, noiseless and
  under the depolarizing error layer (chi-square homogeneity),
* a Pauli-frame stack against a frame-less stack under identical
  seeds and identical injected noise: syndromes must match *bit for
  bit* — the paper's central invariant, tested exactly rather than
  statistically.

All randomness is seeded, so every assertion here is deterministic;
the chi-square thresholds only have to absorb the sampling noise of
the fixed draws.
"""

import numpy as np
import pytest
from scipy import stats

from repro.circuits import Circuit, random_clifford_circuit
from repro.circuits.operation import Operation
from repro.codes.surface17 import Z_CHECK_MATRIX, parallel_esm
from repro.qpdo import (
    DepolarizingErrorLayer,
    PackedStabilizerCore,
    PauliFrameLayer,
    StabilizerCore,
)
from repro.sim import (
    BatchedFrameSampler,
    NoiseParameters,
    StabilizerSimulator,
    StateVectorSimulator,
    compile_frame_program,
    sample_circuit,
)

P_VALUE_FLOOR = 1e-3


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def random_measured_circuit(
    num_qubits: int,
    num_gates: int,
    rng: np.random.Generator,
    measure_probability: float = 0.12,
    prep_probability: float = 0.05,
) -> Circuit:
    """A random Clifford circuit with interleaved prep/measure ops."""
    base = random_clifford_circuit(num_qubits, num_gates, rng=rng)
    circuit = Circuit("measured")
    for qubit in range(num_qubits):
        circuit.add("prep_z", qubit)
    for operation in base.operations():
        circuit.add(operation.name, *operation.qubits)
        draw = rng.random()
        victim = int(rng.integers(num_qubits))
        if draw < prep_probability:
            circuit.add("prep_z", victim)
        elif draw < prep_probability + measure_probability:
            circuit.add("measure", victim)
    # Final readout of every qubit so the joint distribution is rich.
    for qubit in range(num_qubits):
        circuit.add("measure", qubit)
    return circuit


def exact_distribution(circuit: Circuit, num_qubits: int) -> dict:
    """Exact joint outcome distribution via branch enumeration.

    Walks the circuit on the dense simulator; at every measurement (and
    at the measurement inside every reset of a dirty qubit) both
    branches are explored with :meth:`StateVectorSimulator.postselect`,
    multiplying branch probabilities.  Returns outcome-tuple -> prob.
    """
    operations = list(circuit.operations())
    distribution: dict = {}

    def walk(sim: StateVectorSimulator, index: int, bits, weight: float):
        if weight < 1e-12:
            return
        while index < len(operations):
            op = operations[index]
            index += 1
            if op.is_measurement or op.is_preparation:
                qubit = op.qubits[0]
                p_one = sim.probability_of_one(qubit)
                for outcome, p in ((0, 1.0 - p_one), (1, p_one)):
                    if p < 1e-12:
                        continue
                    branch = sim.copy()
                    branch.postselect(qubit, outcome)
                    if op.is_preparation:
                        if outcome:
                            branch.apply_gate("x", (qubit,))
                        walk(branch, index, bits, weight * p)
                    else:
                        walk(
                            branch,
                            index,
                            bits + (outcome,),
                            weight * p,
                        )
                return
            sim.apply_gate(op.name, op.qubits, op.params)
        distribution[bits] = distribution.get(bits, 0.0) + weight

    walk(StateVectorSimulator(num_qubits), 0, (), 1.0)
    return distribution


def tableau_shot_loop(
    circuit: Circuit, num_qubits: int, shots: int, seed: int
) -> np.ndarray:
    """Reference per-shot tableau sampling of ``circuit``."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(shots):
        sim = StabilizerSimulator(num_qubits, rng=rng)
        row = []
        for op in circuit.operations():
            if op.is_preparation:
                sim.reset(op.qubits[0])
            elif op.is_measurement:
                row.append(sim.measure(op.qubits[0]))
            else:
                sim.apply_gate(op.name, op.qubits)
        rows.append(row)
    return np.array(rows, dtype=bool)


def outcome_counts(samples: np.ndarray) -> dict:
    """Map outcome tuples to observed counts."""
    counts: dict = {}
    for row in samples:
        key = tuple(int(b) for b in row)
        counts[key] = counts.get(key, 0) + 1
    return counts


# ----------------------------------------------------------------------
# Batched sampler vs exact state-vector probabilities
# ----------------------------------------------------------------------
class TestBatchedMatchesStateVector:
    """Chi-square of batched samples against the exact distribution."""

    @pytest.mark.parametrize(
        "num_qubits,num_gates,seed",
        [(2, 8, 11), (3, 12, 22), (4, 16, 33), (5, 20, 44), (6, 18, 55)],
    )
    def test_joint_distribution(self, num_qubits, num_gates, seed):
        rng = np.random.default_rng(seed)
        circuit = random_measured_circuit(num_qubits, num_gates, rng)
        expected = exact_distribution(circuit, num_qubits)
        shots = 3000
        samples = sample_circuit(
            circuit, shots, seed=seed + 1000, num_qubits=num_qubits
        )
        observed = outcome_counts(samples)
        # No sampled outcome may fall outside the exact support.
        support = set(expected)
        assert set(observed) <= support
        keys = sorted(support)
        f_exp = np.array([expected[k] * shots for k in keys])
        f_obs = np.array([observed.get(k, 0) for k in keys])
        # Pool tiny-probability outcomes to keep chi-square valid.
        big = f_exp >= 5.0
        f_exp = np.append(f_exp[big], f_exp[~big].sum())
        f_obs = np.append(f_obs[big], f_obs[~big].sum())
        if f_exp[-1] == 0.0:
            f_exp, f_obs = f_exp[:-1], f_obs[:-1]
        if len(f_exp) < 2:
            assert f_obs.sum() == shots
            return
        result = stats.chisquare(f_obs, f_exp * shots / f_exp.sum())
        assert result.pvalue > P_VALUE_FLOOR, (
            num_qubits,
            seed,
            result.pvalue,
        )

    def test_deterministic_circuit_is_exact(self):
        """A GHZ readout has only two outcomes — matched exactly."""
        circuit = Circuit("ghz")
        for qubit in range(4):
            circuit.add("prep_z", qubit)
        circuit.add("h", 0)
        for qubit in range(3):
            circuit.add("cnot", qubit, qubit + 1)
        for qubit in range(4):
            circuit.add("measure", qubit)
        samples = sample_circuit(circuit, 500, seed=7)
        for row in samples:
            assert row.all() or not row.any()

    def test_reference_bits_follow_reference_tableau(self):
        """The compiled reference equals an identically-seeded tableau."""
        rng = np.random.default_rng(17)
        circuit = random_measured_circuit(4, 14, rng)
        program = compile_frame_program(
            circuit, num_qubits=4, reference_seed=99
        )
        sim = StabilizerSimulator(4, seed=99)
        expected = []
        for op in circuit.operations():
            if op.is_preparation:
                sim.reset(op.qubits[0])
            elif op.is_measurement:
                expected.append(bool(sim.measure(op.qubits[0])))
            else:
                sim.apply_gate(op.name, op.qubits)
        assert program.reference_bits.tolist() == expected


# ----------------------------------------------------------------------
# Batched sampler vs per-shot tableau loops
# ----------------------------------------------------------------------
class TestBatchedMatchesTableauLoop:
    """Chi-square homogeneity of batched vs per-shot tableau samples."""

    @pytest.mark.parametrize(
        "num_qubits,num_gates,seed",
        [(3, 10, 5), (5, 18, 6), (8, 26, 7), (8, 30, 8)],
    )
    def test_noiseless_distributions_agree(
        self, num_qubits, num_gates, seed
    ):
        rng = np.random.default_rng(seed)
        circuit = random_measured_circuit(num_qubits, num_gates, rng)
        shots = 1500
        loop = tableau_shot_loop(
            circuit, num_qubits, shots, seed=seed + 1
        )
        batched = sample_circuit(
            circuit, shots, seed=seed + 2, num_qubits=num_qubits
        )
        assert batched.shape == loop.shape
        self._assert_same_distribution(loop, batched, seed)

    def test_noisy_channel_matches_error_layer_loop(self):
        """Batched depolarizing noise vs DepolarizingErrorLayer loops.

        The same 3-qubit circuit runs (a) per shot through a
        ``StabilizerCore`` under the error layer and (b) once through
        the batched sampler with built-in noise of the same
        probability.  The two outcome distributions must agree.
        """
        probability = 0.08
        circuit = Circuit("noisy")
        for qubit in range(3):
            circuit.add("prep_z", qubit)
        circuit.add("h", 0)
        circuit.add("cnot", 0, 1)
        circuit.add("cnot", 1, 2)
        circuit.add("s", 2)
        circuit.add("h", 2)
        measures = [circuit.add("measure", q) for q in range(3)]

        shots = 1200
        rng = np.random.default_rng(314)
        loop_rows = []
        for _ in range(shots):
            core = StabilizerCore(rng=rng)
            stack = DepolarizingErrorLayer(
                core, probability=probability, rng=rng
            )
            stack.createqubit(3)
            result = stack.run(circuit.copy(fresh_uids=False))
            loop_rows.append(
                [result.result_of(m) for m in measures]
            )
        loop = np.array(loop_rows, dtype=bool)
        batched = sample_circuit(
            circuit,
            shots,
            seed=2718,
            noise=NoiseParameters(probability),
            num_qubits=3,
        )
        self._assert_same_distribution(loop, batched, seed=314)

    @staticmethod
    def _assert_same_distribution(a: np.ndarray, b: np.ndarray, seed):
        counts_a = outcome_counts(a)
        counts_b = outcome_counts(b)
        keys = sorted(set(counts_a) | set(counts_b))
        table = np.array(
            [
                [counts_a.get(k, 0) for k in keys],
                [counts_b.get(k, 0) for k in keys],
            ]
        )
        # Pool rare outcomes (expected count < 5) into one cell.
        expected = stats.contingency.expected_freq(table)
        rare = expected.min(axis=0) < 5.0
        if rare.any() and (~rare).any():
            pooled = np.concatenate(
                [
                    table[:, ~rare],
                    table[:, rare].sum(axis=1, keepdims=True),
                ],
                axis=1,
            )
        else:
            pooled = table
        if pooled.shape[1] < 2:
            return  # single outcome: trivially identical
        result = stats.chi2_contingency(pooled)
        assert result.pvalue > P_VALUE_FLOOR, (seed, result.pvalue)


# ----------------------------------------------------------------------
# Frame-on vs frame-off: exact syndrome equality (the paper's invariant)
# ----------------------------------------------------------------------
class TestFrameOnOffIdenticalSyndromes:
    """A Pauli-frame stack and a frame-less stack, driven with the same
    seed, the same injected physical errors and the same commanded
    Pauli corrections, must report *identical* syndromes every round.

    This is exact, not statistical: corrections are Paulis, so the
    frame-less state differs from the framed state by exactly the
    tracked Pauli operator; every deterministic measurement outcome
    then differs by the record's X component — which is precisely what
    the frame's Table 3.2 mapping adds back.  Pauli gates consume no
    tableau randomness, so the two RNG streams stay aligned.
    """

    SEED = 421

    @staticmethod
    def _inject_errors(target, qubits_gates):
        circuit = Circuit("noise")
        slot = circuit.new_slot()
        for gate, qubit in qubits_gates:
            slot.add(Operation(gate, (qubit,), is_error=True))
        target.add(circuit)
        target.execute()

    @staticmethod
    def _command_corrections(target, qubits_gates):
        circuit = Circuit("corrections")
        slot = circuit.new_slot()
        for gate, qubit in qubits_gates:
            slot.add(Operation(gate, (qubit,)))
        target.add(circuit)
        target.execute()

    def _esm_syndromes(self, target):
        esm = parallel_esm(list(range(17)))
        target.add(esm.circuit)
        return esm.syndromes(target.execute())

    @pytest.mark.parametrize("rounds", [4])
    def test_exact_syndrome_equality(self, rounds):
        framed = PauliFrameLayer(StabilizerCore(seed=self.SEED))
        framed.createqubit(17)
        plain = StabilizerCore(seed=self.SEED)
        plain.createqubit(17)

        # Projection round: frames are clean, streams identical.
        assert self._esm_syndromes(framed) == self._esm_syndromes(plain)

        pattern_rng = np.random.default_rng(97)
        gates = ("x", "y", "z")
        for _ in range(rounds):
            # Identical pre-sampled physical errors into both stacks.
            errors = [
                (gates[int(pattern_rng.integers(3))], qubit)
                for qubit in range(9)
                if pattern_rng.random() < 0.25
            ]
            if errors:
                self._inject_errors(framed, errors)
                self._inject_errors(plain, errors)
            # Identical commanded Pauli corrections: absorbed by the
            # frame on one stack, physically applied on the other.
            corrections = [
                (gates[int(pattern_rng.integers(3))], qubit)
                for qubit in range(9)
                if pattern_rng.random() < 0.2
            ]
            if corrections:
                self._command_corrections(framed, corrections)
                self._command_corrections(plain, corrections)
            assert self._esm_syndromes(framed) == self._esm_syndromes(
                plain
            )

    def test_frame_records_equal_commanded_corrections(self):
        """After absorbing corrections the frame holds exactly them."""
        framed = PauliFrameLayer(StabilizerCore(seed=5))
        framed.createqubit(17)
        self._esm_syndromes(framed)
        self._command_corrections(framed, [("x", 0), ("y", 4), ("z", 8)])
        records = framed.frame.nontrivial()
        assert {q: r.name for q, r in records.items()} == {
            0: "X",
            4: "XZ",
            8: "Z",
        }


# ----------------------------------------------------------------------
# Batched core vs batched compiler on the ESM workload
# ----------------------------------------------------------------------
class TestBatchedCoreMatchesCompiledSampler:
    """The streaming core and the one-shot compiler agree on the SC17
    ESM workload's syndrome statistics."""

    def test_first_round_syndrome_rates_agree(self):
        probability = 0.01
        shots = 4000
        esm = parallel_esm(list(range(17)))

        core = PackedStabilizerCore(
            shots,
            noise=NoiseParameters(
                probability, active_qubits=range(17)
            ),
            seed=1,
            rng_mode="exact",
        )
        core.createqubit(17)
        prep = Circuit("prep")
        slot = prep.new_slot()
        for qubit in range(9):
            slot.add(Operation("prep_z", (qubit,)))
        core.run(prep)
        first = core.run(esm.circuit)
        second_esm = parallel_esm(list(range(17)))
        second = core.run(second_esm.circuit)
        z_first = np.stack(
            [first.bits_of(m) for m in esm.x_measurements]
            + [first.bits_of(m) for m in esm.z_measurements],
            axis=1,
        )
        z_second = np.stack(
            [second.bits_of(m) for m in second_esm.x_measurements]
            + [second.bits_of(m) for m in second_esm.z_measurements],
            axis=1,
        )
        # Round-over-round syndrome *changes* isolate the noise (the
        # first round's X checks are random projections).
        streaming_rate = (z_first ^ z_second).mean()

        circuit = Circuit("two_rounds")
        slot = circuit.new_slot()
        for qubit in range(9):
            slot.add(Operation("prep_z", (qubit,)))
        esm_a = parallel_esm(list(range(17)))
        esm_b = parallel_esm(list(range(17)))
        circuit.extend(esm_a.circuit)
        circuit.extend(esm_b.circuit)
        samples = sample_circuit(
            circuit,
            shots,
            seed=2,
            noise=NoiseParameters(
                probability, active_qubits=range(17)
            ),
            num_qubits=17,
        )
        program_cols = {}
        program = compile_frame_program(
            circuit,
            num_qubits=17,
            noise=NoiseParameters(probability, active_qubits=range(17)),
            reference_seed=3,
        )
        for index, uid in enumerate(program.measurement_uids):
            program_cols[uid] = index
        a_cols = [
            program_cols[m.uid]
            for m in esm_a.x_measurements + esm_a.z_measurements
        ]
        b_cols = [
            program_cols[m.uid]
            for m in esm_b.x_measurements + esm_b.z_measurements
        ]
        compiled_rate = (
            samples[:, a_cols] ^ samples[:, b_cols]
        ).mean()
        assert streaming_rate == pytest.approx(
            compiled_rate, abs=0.01
        )
        assert 0.0 < streaming_rate < 0.5


# ----------------------------------------------------------------------
# Frame-transparent Paulis
# ----------------------------------------------------------------------
class TestPauliTransparency:
    """Pauli gates shift the reference, never the frames — flipping a
    data qubit flips exactly the affected Z checks for every shot."""

    def test_reference_x_flips_z_checks_for_all_shots(self):
        circuit = Circuit("flip")
        slot = circuit.new_slot()
        for qubit in range(9):
            slot.add(Operation("prep_z", (qubit,)))
        esm_a = parallel_esm(list(range(17)))
        circuit.extend(esm_a.circuit)
        circuit.add("x", 4)
        esm_b = parallel_esm(list(range(17)))
        circuit.extend(esm_b.circuit)
        samples = sample_circuit(circuit, 64, seed=12, num_qubits=17)
        program = compile_frame_program(
            circuit, num_qubits=17, reference_seed=12
        )
        cols = {
            uid: index
            for index, uid in enumerate(program.measurement_uids)
        }
        before = samples[
            :, [cols[m.uid] for m in esm_a.z_measurements]
        ]
        after = samples[
            :, [cols[m.uid] for m in esm_b.z_measurements]
        ]
        expected = Z_CHECK_MATRIX[:, 4].astype(bool)
        delta = before ^ after
        assert np.array_equal(
            delta, np.tile(expected, (64, 1))
        )
