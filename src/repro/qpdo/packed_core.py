"""The batched simulation core: N shots behind one Core interface.

:class:`PackedStabilizerCore` is the streaming counterpart of
:func:`repro.sim.packedsim.sample_circuit_packed`: instead of
compiling a fixed circuit up front, it executes circuits as they
arrive (the normal QPDO ``add``/``execute`` protocol of Table 4.1)
while carrying *all shots at once* — one shared noiseless reference
tableau plus a :class:`~repro.sim.packedsim.PackedFrameArray` of
per-shot Pauli error frames, ``uint64`` planes of shape
``(num_qubits, ceil(num_shots / 64))``.  Gates, noise, measurement
flips and correction feedback are word-wide bitwise kernels.

This is what makes adaptive experiments batchable: in the LER protocol
the only per-shot feedback is the decoder's corrections, and
corrections are Pauli gates — i.e. pure frame updates
(:meth:`PackedStabilizerCore.apply_pauli_frame`).  The non-Pauli
instruction stream (ESM rounds, probes) is identical across shots and
runs once on the reference, so a 10 000-shot window costs one tableau
pass plus a handful of word-row XORs.

Noise is built in rather than layered: a
:class:`~repro.sim.framesim.NoiseParameters` model makes the core
inject depolarizing faults directly into the frame planes with the
exact per-slot semantics of
:class:`~repro.qpdo.error_layer.DepolarizingErrorLayer` (bypass
circuits stay noiseless).  Stacking the per-shot error layer above a
batched core would be meaningless — it could only fault all shots
identically.

``rng_mode`` selects the random-stream regime (see
:mod:`repro.sim.packedsim`):

* ``"exact"`` consumes the frame RNG draw-for-draw like the bool
  :class:`~repro.sim.framesim.FrameArray` kernels, so measurement
  bits — and whole-experiment :class:`~repro.experiments.results.
  BatchCounts` — reproduce the pinned golden values for the same
  seed;
* ``"fast"`` draws noise at the word level (binomial hit counts,
  random gauge words): the same channel, a different stream.

Measurement results come back packed (``words_of``); ``bits_of``
unpacks on demand, and ``measurements`` keeps the scalar Core
contract by exposing shot 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.operation import Operation
from ..sim.framesim import (
    OP_DEPOL1,
    OP_DEPOL2,
    OP_XERR,
    NoiseParameters,
    _PAULI_NAMES,
    _SINGLE_CLIFFORD_OPS,
    _TWO_QUBIT_OPS,
    _seed_sequence,
    _slot_noise_events,
)
from ..sim.packedsim import PackedFrameArray, unpack_bits
from ..sim.refcache import ReferenceTableau, reference_seed
from ..sim.state import State
from .. import telemetry
from .core import CAP_BATCH, CAP_PACKED, Core, ExecutionResult

SeedLike = object  # see repro.sim.framesim.SeedLike


@dataclass
class PackedExecutionResult(ExecutionResult):
    """An :class:`~repro.qpdo.core.ExecutionResult` carrying N packed
    shots.

    Attributes
    ----------
    bit_words:
        Operation ``uid`` -> ``uint64`` words of shape
        ``(num_words,)``: bit ``s & 63`` of word ``s >> 6`` is shot
        ``s``'s outcome (tail bits zero).
    num_shots:
        Valid shot count of every row in ``bit_words``.
    """

    bit_words: Dict[int, np.ndarray] = field(default_factory=dict)
    num_shots: int = 0

    def words_of(self, operation: Operation) -> np.ndarray:
        """Packed per-shot outcomes of ``operation`` (a measurement)."""
        return self.bit_words[operation.uid]

    def bits_of(self, operation: Operation) -> np.ndarray:
        """Per-shot outcomes as bools of shape ``(num_shots,)``."""
        return unpack_bits(self.bit_words[operation.uid], self.num_shots)

    def merge(self, other: "ExecutionResult") -> None:
        super().merge(other)
        if isinstance(other, PackedExecutionResult):
            self.bit_words.update(other.bit_words)
            self.num_shots = other.num_shots or self.num_shots


class PackedStabilizerCore(Core):
    """Clifford core executing ``num_shots`` noisy shots on packed
    frames.

    Parameters
    ----------
    num_shots:
        Number of simultaneous shots.
    noise:
        Optional built-in depolarizing model applied to every
        non-bypass circuit (see module docstring).
    seed:
        Seed of the per-shot fault / gauge randomness (its second
        spawned child).  Without a ``reference_key`` its first child
        seeds the reference tableau.
    rng_mode:
        ``"exact"`` (the bool kernels' stream, draw for draw) or
        ``"fast"`` (word-level noise; distribution-identical).
    reference_key:
        Optional :func:`~repro.sim.refcache.reference_trace_key`
        digest of the protocol structure.  With a key, the reference
        tableau is seeded from the key itself
        (:func:`~repro.sim.refcache.reference_seed`), so every run of
        one structure shares one reference trajectory; it is recorded
        on first execution and *replayed* from the process-level trace
        cache on subsequent runs with the same key — bit-identical
        results without re-simulating the noiseless tableau.  The
        reference stream does not depend on ``rng_mode``.  The
        experiment owning the core must call
        :meth:`commit_reference_trace` once its circuit stream is
        complete.
    reference_cache:
        With ``False``, a keyed reference is simulated live every run
        (same seed, same bits) and never enters the cache.

    Notes
    -----
    The executed circuit stream must be shot-independent apart from
    Pauli feedback: a measurement's *reference* outcome is decided
    once on the shared tableau, and per-shot outcomes differ from it
    only through the error frames.  Branching on a single shot's
    outcome and commanding different non-Pauli circuits per shot is
    not expressible here — use the per-shot :class:`StabilizerCore`
    loop for that.
    """

    def __init__(
        self,
        num_shots: int,
        noise: Optional[NoiseParameters] = None,
        seed: SeedLike = None,
        rng_mode: str = "exact",
        reference_key: Optional[str] = None,
        reference_cache: bool = True,
    ) -> None:
        if num_shots < 1:
            raise ValueError("num_shots must be positive")
        reference_ss, frame_ss = _seed_sequence(seed).spawn(2)
        if reference_key is not None:
            reference_ss = reference_seed(reference_key)
        self.simulator = ReferenceTableau(
            np.random.default_rng(reference_ss),
            key=reference_key if reference_cache else None,
        )
        self.frames = PackedFrameArray(num_shots, 0, rng_mode=rng_mode)
        self.noise = noise
        self.rng_mode = rng_mode
        self._frame_rng = np.random.default_rng(frame_ss)
        self._queue: List[Circuit] = []
        self._state = State(0)
        self._num_qubits = 0

    # -- register -------------------------------------------------------
    @property
    def num_shots(self) -> int:
        return self.frames.num_shots

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    def createqubit(self, size: int = 1) -> int:
        first = self._num_qubits
        self._num_qubits += int(size)
        self.simulator.add_qubits(int(size))
        self.frames.add_qubits(int(size), self._frame_rng)
        self._state.resize(self._num_qubits)
        for qubit in range(first, self._num_qubits):
            self._state.set_bit(qubit, 0)
        return first

    def removequbit(self, size: int = 1) -> None:
        if size > self._num_qubits:
            raise ValueError("cannot remove more qubits than allocated")
        self._num_qubits -= int(size)
        self._state.resize(self._num_qubits)
        # Like the scalar cores, the tableau keeps its registers; the
        # frame rows are dropped so re-created qubits start fresh.
        self.frames.remove_qubits(
            self.frames.num_qubits - self._num_qubits
        )

    # -- execution ------------------------------------------------------
    def add(self, circuit: Circuit) -> None:
        top = circuit.max_qubit()
        if top >= self._num_qubits:
            raise ValueError(
                f"circuit addresses qubit {top} but only "
                f"{self._num_qubits} are allocated"
            )
        self._queue.append(circuit)

    def execute(self) -> PackedExecutionResult:
        t = telemetry.ACTIVE
        if t is None:
            return self._execute()
        with t.span(
            "qpdo",
            "PackedStabilizerCore.execute",
            circuits=len(self._queue),
            shots=self.num_shots,
            rng_mode=self.rng_mode,
        ):
            return self._execute()

    def _execute(self) -> PackedExecutionResult:
        result = PackedExecutionResult(num_shots=self.num_shots)
        for circuit in self._queue:
            noisy = (
                self.noise is not None
                and self.noise.probability > 0.0
                and not circuit.bypass
            )
            active = (
                self.noise.active_set(self._num_qubits) if noisy else set()
            )
            for slot in circuit:
                if noisy:
                    pre, post = _slot_noise_events(
                        slot, active, self._num_qubits
                    )
                    self._inject(pre)
                for operation in slot:
                    self._apply(operation, result)
                if noisy:
                    self._inject(post)
        self._queue.clear()
        return result

    def getstate(self) -> State:
        """Binary state as seen by shot 0 (the scalar-Core view)."""
        return self._state.copy()

    def supports(self, capability: str) -> bool:
        return capability in (CAP_BATCH, CAP_PACKED) or super().supports(
            capability
        )

    def commit_reference_trace(self) -> None:
        """Store the recorded reference trace in the process cache.

        Call exactly once, after the experiment's full circuit stream
        has executed; no-op without a ``reference_key`` or on a run
        that replayed a cached trace.
        """
        self.simulator.commit()

    # -- per-shot Pauli feedback ----------------------------------------
    def apply_pauli_frame(
        self, x_mask: np.ndarray, z_mask: np.ndarray
    ) -> None:
        """XOR per-shot Pauli masks (decoder corrections) into the
        frames.

        Masks are bool arrays of shape ``(num_shots, num_qubits)`` or
        pre-packed ``uint64`` planes of shape
        ``(num_qubits, num_words)``; ``x_mask`` marks shots/qubits
        receiving an X gate, ``z_mask`` a Z gate (Y sets both).  This
        is the batched analogue of commanding per-shot correction
        circuits: a Pauli gate is exactly a frame update, so the
        shared reference is untouched.
        """
        self.frames.apply_pauli_masks(x_mask, z_mask)

    def inject_depolarizing(
        self,
        qubits,
        shot_mask: Optional[np.ndarray] = None,
        probability: Optional[float] = None,
    ) -> None:
        """Charge one depolarizing slot to ``qubits``, optionally only
        on the shots selected by ``shot_mask``.

        Experiments use this for shot-dependent circuits the lockstep
        stream cannot express — e.g. the frame-less arm's physical
        correction slot, which only exists on shots whose decoder
        commanded corrections.  The probability defaults to the core's
        noise model; without a noise model this is a no-op.
        """
        if probability is None:
            probability = (
                self.noise.probability if self.noise is not None else 0.0
            )
        if probability <= 0.0:
            return
        self.frames.depolarize1(
            list(qubits), probability, self._frame_rng, shot_mask=shot_mask
        )

    # -- internals ------------------------------------------------------
    def _inject(self, events) -> None:
        """Inject one slot's noise events, one kernel call per run of
        same-kind events (the kernels take qubit vectors)."""
        frames, rng = self.frames, self._frame_rng
        p = self.noise.probability
        for opcode, group in itertools.groupby(events, key=itemgetter(0)):
            run = list(group)
            if opcode == OP_DEPOL1:
                frames.depolarize1([e[1] for e in run], p, rng)
            elif opcode == OP_XERR:
                frames.xerr([e[1] for e in run], p, rng)
            elif opcode == OP_DEPOL2:
                frames.depolarize2(
                    [e[1] for e in run], [e[2] for e in run], p, rng
                )

    def _apply(
        self, operation: Operation, result: PackedExecutionResult
    ) -> None:
        name = operation.name
        if operation.is_preparation:
            qubit = operation.qubits[0]
            self.simulator.reset(qubit)
            self.frames.reset(qubit, self._frame_rng)
            self._state.set_bit(qubit, 0)
            return
        if operation.is_measurement:
            qubit = operation.qubits[0]
            reference_bit = self.simulator.measure(qubit)
            flips = self.frames.measure_flips(qubit, self._frame_rng)
            if reference_bit:
                # NOT over the valid shots; tail bits stay zero.
                flips = flips ^ self.frames.full_words
            result.bit_words[operation.uid] = flips
            shot0 = int(flips[0] & np.uint64(1))
            result.measurements[operation.uid] = shot0
            self._state.set_bit(qubit, shot0)
            return
        if name in _PAULI_NAMES:
            # Paulis move the shared reference; frames are untouched
            # (conjugation by a Pauli is the identity mod phase).
            self.simulator.apply_gate(name, operation.qubits)
        elif name in _SINGLE_CLIFFORD_OPS:
            self.simulator.apply_gate(name, operation.qubits)
            qubit = operation.qubits[0]
            if name == "h":
                self.frames.h(qubit)
            else:
                self.frames.s(qubit)
        elif name in _TWO_QUBIT_OPS:
            self.simulator.apply_gate(name, operation.qubits)
            first, second = operation.qubits
            if name in ("cnot", "cx"):
                self.frames.cnot(first, second)
            elif name == "cz":
                self.frames.cz(first, second)
            else:
                self.frames.swap(first, second)
        else:
            raise ValueError(
                f"packed stabilizer core cannot execute non-Clifford "
                f"gate {name!r}"
            )
        if name != "i":
            for qubit in operation.qubits:
                self._state.invalidate(qubit)
