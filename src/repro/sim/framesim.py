"""Batched Pauli-frame shot sampler (the paper's ch. 3 trick, at scale).

The paper's core observation -- a Pauli frame tracks errors in
classical memory without touching the quantum state -- is also the
trick behind Stim-style bulk sampling (Gidney, Quantum 5, 497): run
the noiseless Clifford *reference* circuit once on a tableau, then
propagate only the per-shot error frames.  A frame is two bits per
qubit, so ``N`` shots are two numpy bool arrays of shape
``(num_shots, num_qubits)`` and every gate, noise channel and
measurement becomes a vectorized column operation over all shots at
once.

The correctness invariant is exactly the paper's: at every point of
the circuit, shot ``s`` is in state ``F_s |ref>`` where ``F_s`` is the
shot's Pauli frame and ``|ref>`` the reference state.  A measurement of
``Z_q`` therefore returns the reference outcome XOR-ed with the frame's
``X`` component on ``q`` (Table 3.2), and Clifford gates conjugate the
frame columns with the same mod-phase rules as Tables 3.4/3.5.

Randomness of non-deterministic measurements is reproduced by *gauge
randomization* (the ``Z_ERROR(0.5)`` trick of the Stim paper): after
every reset and every measurement of ``q``, ``+/-Z_q`` stabilizes the
reference state, so XOR-ing a uniformly random ``Z`` into the frame is
unobservable *now* but propagates into an unbiased ``X`` component at
any later measurement whose outcome should be random.  Deterministic
measurements stay deterministic because their observable commutes with
every element of the (abelian) stabilizer group the gauges generate.

Three public entry points:

* :func:`compile_frame_program` -- one reference tableau run compiles a
  :class:`~repro.circuits.circuit.Circuit` into a
  :class:`FrameProgram` (reference bits + fault-propagation
  instructions, optionally with depolarizing-noise instructions that
  mirror :class:`repro.qpdo.error_layer.DepolarizingErrorLayer`);
* :class:`BatchedFrameSampler` -- samples ``N`` shots of a compiled
  program; one RNG stream per random instruction makes samples
  bit-identical across runs *and* across batch splits (1 x 1000 shots
  equals 10 x 100 shots, bit for bit);
* :func:`sample_circuit` -- compile + sample in one deterministic call.

The bit-packed :mod:`repro.sim.packedsim` engine runs the same
kernels 64 shots to a word and, in its exact RNG mode, draws the same
streams; these bool kernels are its reference.  The streaming variant
(adaptive circuits with per-shot Pauli feedback, used by the batched
LER experiments) is :class:`repro.qpdo.packed_core.PackedStabilizerCore`
on top of the packed kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..circuits.circuit import Circuit, TimeSlot
from .. import telemetry
from .stabilizer import StabilizerSimulator

# ----------------------------------------------------------------------
# Instruction opcodes (tuples keep the sampler loop allocation-free).
# ----------------------------------------------------------------------
OP_H = 0
OP_S = 1  # also sdg: identical mod-phase frame action
OP_CNOT = 2
OP_CZ = 3
OP_SWAP = 4
OP_RESET = 5
OP_MEASURE = 6
OP_XERR = 7
OP_DEPOL1 = 8
OP_DEPOL2 = 9

#: Telemetry kernel-counter names, indexed by opcode.
_OP_COUNTER_NAMES = (
    "h",
    "s",
    "cnot",
    "cz",
    "swap",
    "reset",
    "measure",
    "xerr",
    "depol1",
    "depol2",
)

#: Frame-transparent gates: Pauli conjugation maps every Pauli to
#: itself up to a (dropped) phase, so frames pass straight through.
_PAULI_NAMES = frozenset({"i", "x", "y", "z"})

_SINGLE_CLIFFORD_OPS = {"h": OP_H, "s": OP_S, "sdg": OP_S}
_TWO_QUBIT_OPS = {"cnot": OP_CNOT, "cx": OP_CNOT, "cz": OP_CZ, "swap": OP_SWAP}

#: The 15 non-identity two-qubit Pauli error patterns as (xa, za, xb, zb)
#: bit rows, indexed by ``4 * a + b - 1`` with 0=I, 1=X, 2=Y, 3=Z --
#: the same enumeration order as ``repro.qpdo.error_layer``'s
#: ``TWO_QUBIT_ERRORS`` table.
_PAULI_BITS = ((0, 0), (1, 0), (1, 1), (0, 1))  # I, X, Y, Z -> (x, z)
TWO_QUBIT_ERROR_BITS = np.array(
    [
        _PAULI_BITS[first] + _PAULI_BITS[second]
        for first in range(4)
        for second in range(4)
        if not (first == 0 and second == 0)
    ],
    dtype=bool,
)


@dataclass(frozen=True)
class NoiseParameters:
    """Symmetric depolarizing noise for compiled programs.

    Mirrors :class:`repro.qpdo.error_layer.DepolarizingErrorLayer`
    semantics exactly: per commanded time slot, every single-qubit gate
    (idling included) draws one of ``X/Y/Z`` with probability ``p/3``
    each, measurements draw a preceding ``X`` flip with probability
    ``p``, preparations a following ``X`` with probability ``p``, and
    two-qubit gates one of the 15 non-identity Pauli pairs with
    probability ``p/15`` each.

    Attributes
    ----------
    probability:
        The Physical Error Rate ``p``.
    active_qubits:
        Qubits subject to (gate and idle) noise; ``None`` charges every
        qubit addressed by the compiled register.
    """

    probability: float
    active_qubits: Optional[frozenset] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("error probability must be in [0, 1]")
        if self.active_qubits is not None:
            object.__setattr__(
                self, "active_qubits", frozenset(self.active_qubits)
            )

    def active_set(self, num_qubits: int) -> Set[int]:
        """The concrete set of noisy qubits for an ``n``-qubit program."""
        if self.active_qubits is None:
            return set(range(num_qubits))
        return set(self.active_qubits)


class FrameArray:
    """``num_shots`` Pauli frames as two bool matrices.

    The batched analogue of :class:`repro.pauliframe.frame.PauliFrame`:
    column ``q`` of ``x``/``z`` holds the ``has X``/``has Z`` record
    bits of qubit ``q`` for every shot.  All updates are the mod-phase
    conjugation rules of Tables 3.4/3.5, vectorized over shots.
    """

    __slots__ = ("x", "z")

    def __init__(self, num_shots: int, num_qubits: int):
        self.x = np.zeros((int(num_shots), int(num_qubits)), dtype=bool)
        self.z = np.zeros((int(num_shots), int(num_qubits)), dtype=bool)

    @property
    def num_shots(self) -> int:
        return self.x.shape[0]

    @property
    def num_qubits(self) -> int:
        return self.x.shape[1]

    # -- register -------------------------------------------------------
    def add_qubits(self, count: int, rng: np.random.Generator) -> None:
        """Append ``count`` fresh ``|0>`` qubits (Z gauge randomized)."""
        if count <= 0:
            return
        shots = self.num_shots
        pad_x = np.zeros((shots, count), dtype=bool)
        pad_z = rng.random((shots, count)) < 0.5
        self.x = np.concatenate([self.x, pad_x], axis=1)
        self.z = np.concatenate([self.z, pad_z], axis=1)

    def remove_qubits(self, count: int) -> None:
        """Drop the ``count`` highest-index qubit columns."""
        if count <= 0:
            return
        keep = self.num_qubits - count
        self.x = self.x[:, :keep].copy()
        self.z = self.z[:, :keep].copy()

    # -- Clifford conjugation (Tables 3.4/3.5, vectorized) --------------
    def h(self, qubit: int) -> None:
        """H exchanges the X and Z record bits."""
        tmp = self.x[:, qubit].copy()
        self.x[:, qubit] = self.z[:, qubit]
        self.z[:, qubit] = tmp

    def s(self, qubit: int) -> None:
        """S (and, mod phase, S^dagger): ``X -> XZ``, ``Z -> Z``."""
        self.z[:, qubit] ^= self.x[:, qubit]

    def cnot(self, control: int, target: int) -> None:
        """X propagates control->target, Z propagates target->control."""
        self.x[:, target] ^= self.x[:, control]
        self.z[:, control] ^= self.z[:, target]

    def cz(self, control: int, target: int) -> None:
        """X on either qubit acquires a Z on the other."""
        new_zc = self.z[:, control] ^ self.x[:, target]
        self.z[:, target] ^= self.x[:, control]
        self.z[:, control] = new_zc

    def swap(self, first: int, second: int) -> None:
        """SWAP exchanges the two record columns."""
        self.x[:, [first, second]] = self.x[:, [second, first]]
        self.z[:, [first, second]] = self.z[:, [second, first]]

    # -- state transitions ----------------------------------------------
    def reset(self, qubit: int, rng: np.random.Generator) -> None:
        """Reset clears the record; the Z gauge is randomized."""
        self.x[:, qubit] = False
        self.z[:, qubit] = rng.random(self.num_shots) < 0.5

    def measure_flips(
        self, qubit: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-shot outcome flips of a Z measurement (Table 3.2).

        Returns the ``X``-component column (a copy), then randomizes
        the now-gauge ``Z`` component.
        """
        t = telemetry.ACTIVE
        if t is None:
            flips = self.x[:, qubit].copy()
            self.z[:, qubit] = rng.random(self.num_shots) < 0.5
            return flips
        with t.span("sim.framesim", "FrameArray.measure_flips"):
            flips = self.x[:, qubit].copy()
            self.z[:, qubit] = rng.random(self.num_shots) < 0.5
            return flips

    # -- noise channels (vectorized) ------------------------------------
    def xerr(
        self, qubit: int, probability: float, rng: np.random.Generator
    ) -> None:
        """Bit-flip channel: X with probability ``p`` on every shot."""
        self.x[:, qubit] ^= rng.random(self.num_shots) < probability

    def depolarize1(
        self,
        qubit: int,
        probability: float,
        rng: np.random.Generator,
        shot_mask: Optional[np.ndarray] = None,
    ) -> None:
        """Single-qubit depolarizing: X/Y/Z with probability ``p/3``.

        One uniform draw per shot doubles as both the hit indicator and
        the error kind (conditioned on ``u < p``, ``3u/p`` is uniform
        over the three kinds), which keeps the random stream at exactly
        one float per shot per channel -- the property the batch-split
        determinism guarantee rests on.  ``shot_mask`` restricts the
        channel to a subset of shots (used for shot-dependent slots,
        e.g. per-shot correction circuits); the stream consumption is
        the same with or without a mask.
        """
        u = rng.random(self.num_shots)
        hit = u < probability
        if shot_mask is not None:
            hit &= shot_mask
        kind = np.minimum((u * (3.0 / probability)).astype(np.int64), 2)
        self.x[:, qubit] ^= hit & (kind != 2)  # X or Y
        self.z[:, qubit] ^= hit & (kind != 0)  # Y or Z

    def depolarize2(
        self,
        first: int,
        second: int,
        probability: float,
        rng: np.random.Generator,
    ) -> None:
        """Two-qubit depolarizing: one of 15 pairs, ``p/15`` each."""
        u = rng.random(self.num_shots)
        hit = u < probability
        kind = np.minimum((u * (15.0 / probability)).astype(np.int64), 14)
        bits = TWO_QUBIT_ERROR_BITS[kind]
        self.x[:, first] ^= hit & bits[:, 0]
        self.z[:, first] ^= hit & bits[:, 1]
        self.x[:, second] ^= hit & bits[:, 2]
        self.z[:, second] ^= hit & bits[:, 3]

    def apply_pauli_masks(
        self, x_mask: np.ndarray, z_mask: np.ndarray
    ) -> None:
        """XOR per-shot Pauli masks into the frames.

        This is how batched experiments command per-shot corrections:
        a Pauli gate *is* a frame update (the paper's working principle
        2), so decoder feedback never touches the reference tableau.
        """
        self.x ^= x_mask
        self.z ^= z_mask

    def copy(self) -> "FrameArray":
        duplicate = FrameArray(0, 0)
        duplicate.x = self.x.copy()
        duplicate.z = self.z.copy()
        return duplicate


@dataclass
class FrameProgram:
    """A circuit compiled into reference outcomes + frame instructions.

    Attributes
    ----------
    num_qubits:
        Register width of the compiled program.
    instructions:
        Flat tuple list; random instructions carry the index of their
        dedicated RNG stream as last element.
    reference_bits:
        The noiseless reference outcome of each measurement, in
        circuit order.
    measurement_uids:
        ``Operation.uid`` of each measurement, aligned with
        ``reference_bits`` and with the sample column order.
    num_streams:
        Total number of RNG streams the program consumes (stream 0 is
        always the initial Z-gauge randomization).
    """

    num_qubits: int
    instructions: List[Tuple] = field(default_factory=list)
    reference_bits: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=bool)
    )
    measurement_uids: List[int] = field(default_factory=list)
    num_streams: int = 1

    @property
    def num_measurements(self) -> int:
        return len(self.measurement_uids)

    def column_of(self, uid: int) -> int:
        """Sample-array column of the measurement with ``uid``."""
        return self.measurement_uids.index(uid)


def _slot_noise_events(
    slot: TimeSlot, active: Set[int], nq: int
) -> Tuple[List[Tuple], List[Tuple]]:
    """Noise events (pre, post) for one commanded slot.

    Event tuples are ``(opcode, qubits...)`` without probability or
    stream -- those are attached by the compiler.  The event structure
    mirrors ``DepolarizingErrorLayer._sample_slot_errors`` so the
    batched channel is statistically identical to the per-shot loop.
    """
    pre: List[Tuple] = []
    post: List[Tuple] = []
    busy: Set[int] = set()
    for operation in slot:
        busy.update(operation.qubits)
        if operation.is_error:
            continue
        if operation.is_measurement:
            qubit = operation.qubits[0]
            if qubit in active:
                pre.append((OP_XERR, qubit))
        elif operation.is_preparation:
            qubit = operation.qubits[0]
            if qubit in active:
                post.append((OP_XERR, qubit))
        elif len(operation.qubits) == 1:
            qubit = operation.qubits[0]
            if qubit in active:
                post.append((OP_DEPOL1, qubit))
        else:
            if all(q in active for q in operation.qubits):
                post.append(
                    (OP_DEPOL2, operation.qubits[0], operation.qubits[1])
                )
    for qubit in sorted(active - busy):
        if qubit < nq:
            post.append((OP_DEPOL1, qubit))
    return pre, post


def compile_frame_program(
    circuit: Circuit,
    num_qubits: Optional[int] = None,
    noise: Optional[NoiseParameters] = None,
    reference_rng: Optional[np.random.Generator] = None,
    reference_seed: Optional[int] = None,
) -> FrameProgram:
    """Compile ``circuit`` into a :class:`FrameProgram`.

    Runs the noiseless reference once on a
    :class:`~repro.sim.stabilizer.StabilizerSimulator` (Clifford-only,
    like the paper's CHP back-end) and records, per operation, the
    vectorized frame instruction.  Pauli gates are applied to the
    reference but emit *no* frame instruction: conjugating a frame by
    a Pauli is the identity up to global phase -- the same fact that
    lets the Pauli Frame Unit absorb them.

    Parameters
    ----------
    circuit:
        The circuit to compile.  Must be Clifford + prep/measure;
        operations flagged ``is_error`` are treated as deterministic
        noise shared by every shot (they shift the reference).
    num_qubits:
        Register width; defaults to ``circuit.max_qubit() + 1``.
    noise:
        Optional depolarizing model; when given, noise instructions
        bracket every commanded slot exactly like the error layer
        (pre-slot measurement flips, post-slot gate/prep/idle errors).
        Bypass circuits compile without noise regardless.
    reference_rng, reference_seed:
        Randomness for non-deterministic reference measurements.
    """
    if num_qubits is None:
        num_qubits = circuit.max_qubit() + 1
    nq = int(num_qubits)
    reference = StabilizerSimulator(
        nq, rng=reference_rng, seed=reference_seed
    )
    program = FrameProgram(num_qubits=nq)
    instructions = program.instructions
    next_stream = 1  # stream 0 = initial gauge randomization
    noisy = noise is not None and not circuit.bypass
    if noisy and noise.probability <= 0.0:
        noisy = False
    active = noise.active_set(nq) if noisy else set()
    reference_bits: List[bool] = []

    def emit_noise(events: List[Tuple]) -> None:
        nonlocal next_stream
        for event in events:
            instructions.append(
                event + (noise.probability, next_stream)
            )
            next_stream += 1

    for slot in circuit:
        if noisy:
            pre, post = _slot_noise_events(slot, active, nq)
            emit_noise(pre)
        for operation in slot:
            name = operation.name
            if operation.is_preparation:
                reference.reset(operation.qubits[0])
                instructions.append(
                    (OP_RESET, operation.qubits[0], next_stream)
                )
                next_stream += 1
            elif operation.is_measurement:
                bit = reference.measure(operation.qubits[0])
                instructions.append(
                    (
                        OP_MEASURE,
                        operation.qubits[0],
                        len(reference_bits),
                        next_stream,
                    )
                )
                next_stream += 1
                reference_bits.append(bool(bit))
                program.measurement_uids.append(operation.uid)
            elif name in _PAULI_NAMES:
                reference.apply_gate(name, operation.qubits)
            elif name in _SINGLE_CLIFFORD_OPS:
                reference.apply_gate(name, operation.qubits)
                instructions.append(
                    (_SINGLE_CLIFFORD_OPS[name], operation.qubits[0])
                )
            elif name in _TWO_QUBIT_OPS:
                reference.apply_gate(name, operation.qubits)
                instructions.append(
                    (
                        _TWO_QUBIT_OPS[name],
                        operation.qubits[0],
                        operation.qubits[1],
                    )
                )
            else:
                raise ValueError(
                    f"frame sampler cannot compile non-Clifford gate "
                    f"{name!r}"
                )
        if noisy:
            emit_noise(post)
    program.reference_bits = np.array(reference_bits, dtype=bool)
    program.num_streams = next_stream
    return program


SeedLike = Union[None, int, Sequence[int], np.random.SeedSequence]


def _seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


class BatchedFrameSampler:
    """Sample shots of a compiled :class:`FrameProgram` in bulk.

    Every random instruction of the program owns one child RNG stream
    (spawned from a single :class:`numpy.random.SeedSequence`), and a
    stream is only ever consumed by its instruction, shot-major.  Two
    consequences, both load-bearing for reproducible experiments:

    * the same ``seed`` always yields bit-identical samples, and
    * batching is invisible: ``sample(1000)`` equals ten consecutive
      ``sample(100)`` calls concatenated, bit for bit, because each
      call just continues every stream where the previous call left
      off.

    Parameters
    ----------
    program:
        The compiled program to sample.
    seed:
        Seed (or :class:`~numpy.random.SeedSequence`) for the stream
        tree.
    """

    def __init__(self, program: FrameProgram, seed: SeedLike = None):
        self.program = program
        children = _seed_sequence(seed).spawn(program.num_streams)
        self._streams = [np.random.default_rng(c) for c in children]
        self.shots_sampled = 0

    # ------------------------------------------------------------------
    def sample(self, num_shots: int) -> np.ndarray:
        """Sample ``num_shots`` shots.

        Returns a bool array of shape ``(num_shots, num_measurements)``
        whose columns follow the circuit's measurement order
        (``program.measurement_uids``).
        """
        t = telemetry.ACTIVE
        if t is None:
            return self._sample(num_shots)
        with t.span(
            "sim.framesim",
            "BatchedFrameSampler.sample",
            shots=int(num_shots),
            instructions=len(self.program.instructions),
        ):
            out = self._sample(num_shots)
        for instr in self.program.instructions:
            t.count("sim.framesim", "kernel", _OP_COUNTER_NAMES[instr[0]])
        return out

    def _sample(self, num_shots: int) -> np.ndarray:
        program = self.program
        shots = int(num_shots)
        frames = FrameArray(shots, program.num_qubits)
        # Initial Z-gauge randomization: every |0> qubit's Z stabilizer
        # is gauge, and later Cliffords may rotate it into an observable
        # X component (that is how random measurement outcomes emerge).
        frames.z[:] = self._streams[0].random(
            (shots, program.num_qubits)
        ) < 0.5
        out = np.empty((shots, program.num_measurements), dtype=bool)
        streams = self._streams
        reference = program.reference_bits
        for instr in program.instructions:
            opcode = instr[0]
            if opcode == OP_MEASURE:
                _, qubit, column, stream = instr
                flips = frames.measure_flips(qubit, streams[stream])
                out[:, column] = reference[column] ^ flips
            elif opcode == OP_CNOT:
                frames.cnot(instr[1], instr[2])
            elif opcode == OP_H:
                frames.h(instr[1])
            elif opcode == OP_S:
                frames.s(instr[1])
            elif opcode == OP_CZ:
                frames.cz(instr[1], instr[2])
            elif opcode == OP_SWAP:
                frames.swap(instr[1], instr[2])
            elif opcode == OP_RESET:
                frames.reset(instr[1], streams[instr[2]])
            elif opcode == OP_XERR:
                _, qubit, p, stream = instr
                frames.xerr(qubit, p, streams[stream])
            elif opcode == OP_DEPOL1:
                _, qubit, p, stream = instr
                frames.depolarize1(qubit, p, streams[stream])
            elif opcode == OP_DEPOL2:
                _, first, second, p, stream = instr
                frames.depolarize2(first, second, p, streams[stream])
            else:  # pragma: no cover - compiler emits a closed set
                raise AssertionError(f"unknown opcode {opcode}")
        self.shots_sampled += shots
        return out

    def sample_packed(self, num_shots: int) -> np.ndarray:
        """Like :meth:`sample` but bit-packed along the measurement
        axis (``numpy.packbits``), eight shots of memory per byte."""
        return np.packbits(
            self.sample(num_shots).astype(np.uint8), axis=1
        )


def sample_circuit(
    circuit: Circuit,
    num_shots: int,
    seed: SeedLike = None,
    noise: Optional[NoiseParameters] = None,
    num_qubits: Optional[int] = None,
) -> np.ndarray:
    """Compile and sample ``circuit`` in one deterministic call.

    The reference run and the shot sampler draw from two children of
    one seed tree, so the full result is a pure function of
    ``(circuit, num_shots, seed, noise)``.
    """
    reference_ss, sampler_ss = _seed_sequence(seed).spawn(2)
    program = compile_frame_program(
        circuit,
        num_qubits=num_qubits,
        noise=noise,
        reference_rng=np.random.default_rng(reference_ss),
    )
    return BatchedFrameSampler(program, seed=sampler_ss).sample(num_shots)
