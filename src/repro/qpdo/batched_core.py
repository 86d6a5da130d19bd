"""A batched simulation core: N shots behind one Core interface.

:class:`BatchedStabilizerCore` is the streaming counterpart of
:func:`repro.sim.framesim.sample_circuit`: instead of compiling a
fixed circuit up front, it executes circuits as they arrive (the
normal QPDO ``add``/``execute`` protocol of Table 4.1) while carrying
*all shots at once* — one shared noiseless reference tableau plus a
:class:`~repro.sim.framesim.FrameArray` of per-shot Pauli error
frames.

This is what makes adaptive experiments batchable: in the LER protocol
the only per-shot feedback is the decoder's corrections, and
corrections are Pauli gates — i.e. pure frame updates
(:meth:`BatchedStabilizerCore.apply_pauli_frame`).  The non-Pauli
instruction stream (ESM rounds, probes) is identical across shots and
runs once on the reference, so a 10 000-shot window costs one tableau
pass plus a handful of vectorized column XORs.

Noise is built in rather than layered: a
:class:`~repro.sim.framesim.NoiseParameters` model makes the core
inject depolarizing faults directly into the frame arrays with the
exact per-slot semantics of
:class:`~repro.qpdo.error_layer.DepolarizingErrorLayer` (bypass
circuits stay noiseless).  Stacking the per-shot error layer above a
batched core would be meaningless — it could only fault all shots
identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.operation import Operation
from ..sim.framesim import (
    OP_DEPOL1,
    OP_DEPOL2,
    OP_XERR,
    FrameArray,
    NoiseParameters,
    _PAULI_NAMES,
    _SINGLE_CLIFFORD_OPS,
    _TWO_QUBIT_OPS,
    _seed_sequence,
    _slot_noise_events,
)
from ..sim.refcache import ReferenceTableau, reference_seed
from ..sim.state import State
from .. import telemetry
from .core import CAP_BATCH, Core, ExecutionResult

SeedLike = object  # see repro.sim.framesim.SeedLike


@dataclass
class BatchedExecutionResult(ExecutionResult):
    """An :class:`~repro.qpdo.core.ExecutionResult` carrying N shots.

    ``measurements`` keeps the scalar Core contract by exposing shot 0,
    so existing layers and test benches keep working unchanged on top
    of a batched core; the full per-shot record lives in
    ``bit_arrays``.

    Attributes
    ----------
    bit_arrays:
        Operation ``uid`` -> bool array of shape ``(num_shots,)``.
    """

    bit_arrays: Dict[int, np.ndarray] = field(default_factory=dict)

    def bits_of(self, operation: Operation) -> np.ndarray:
        """Per-shot outcomes of ``operation`` (must be a measurement)."""
        return self.bit_arrays[operation.uid]

    def merge(self, other: "ExecutionResult") -> None:
        super().merge(other)
        if isinstance(other, BatchedExecutionResult):
            self.bit_arrays.update(other.bit_arrays)


class BatchedStabilizerCore(Core):
    """Clifford core executing ``num_shots`` noisy shots in lockstep.

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
    reference_key:
        Optional :func:`~repro.sim.refcache.reference_trace_key`
        digest of the protocol structure.  With a key, the reference
        tableau is seeded from the key itself
        (:func:`~repro.sim.refcache.reference_seed`), so every run of
        one structure shares one reference trajectory; it is recorded
        on first execution and *replayed* from the process-level trace
        cache on subsequent runs with the same key — bit-identical
        results without re-simulating the noiseless tableau.  The
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
        self.frames = FrameArray(num_shots, 0)
        self.noise = noise
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
        # frame columns are dropped so re-created qubits start fresh.
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

    def execute(self) -> BatchedExecutionResult:
        t = telemetry.ACTIVE
        if t is None:
            return self._execute()
        with t.span(
            "qpdo",
            "BatchedStabilizerCore.execute",
            circuits=len(self._queue),
            shots=self.num_shots,
        ):
            return self._execute()

    def _execute(self) -> BatchedExecutionResult:
        result = BatchedExecutionResult()
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
        return capability == CAP_BATCH or super().supports(capability)

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

        Masks have shape ``(num_shots, num_qubits)``; ``x_mask`` marks
        shots/qubits receiving an X gate, ``z_mask`` a Z gate (Y sets
        both).  This is the batched analogue of commanding per-shot
        correction circuits: a Pauli gate is exactly a frame update,
        so the shared reference is untouched.
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
        for qubit in qubits:
            self.frames.depolarize1(
                qubit, probability, self._frame_rng, shot_mask=shot_mask
            )

    # -- internals ------------------------------------------------------
    def _inject(self, events) -> None:
        frames, rng = self.frames, self._frame_rng
        p = self.noise.probability
        for event in events:
            if event[0] == OP_DEPOL1:
                frames.depolarize1(event[1], p, rng)
            elif event[0] == OP_XERR:
                frames.xerr(event[1], p, rng)
            elif event[0] == OP_DEPOL2:
                frames.depolarize2(event[1], event[2], p, rng)

    def _apply(
        self, operation: Operation, result: BatchedExecutionResult
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
            bits = flips if not reference_bit else ~flips
            result.bit_arrays[operation.uid] = bits
            result.measurements[operation.uid] = int(bits[0])
            self._state.set_bit(qubit, int(bits[0]))
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
                f"batched stabilizer core cannot execute non-Clifford "
                f"gate {name!r}"
            )
        if name != "i":
            for qubit in operation.qubits:
                self._state.invalidate(qubit)
