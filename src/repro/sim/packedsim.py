"""Bit-packed frame-differential shot sampler (Stim's word-level trick).

:mod:`repro.sim.framesim` already splits a noisy Clifford circuit into
one noiseless *reference* run plus per-shot Pauli error frames; this
module packs those frames 64 shots per machine word, the way Stim
(Gidney, Quantum 5, 497) and CHP (Aaronson–Gottesman, PRA 70, 052328)
lay out their tableaux.  The X/Z frame planes become ``uint64`` arrays
of shape ``(num_qubits, ceil(num_shots / 64))`` — shot ``s`` lives in
word ``s >> 6``, bit ``s & 63`` (little-endian, the ``numpy.packbits``
``bitorder="little"`` convention) — and every frame operation turns
into a handful of word-wide bitwise kernels:

* Clifford conjugation (H/S/CNOT/CZ/SWAP) is row XOR/copy on the
  planes — 64 shots per instruction instead of one bool per shot;
* measurement flips are a row copy; gauge randomization is one random
  word row;
* noise channels scatter their (sparse) hits into packed rows;
* the windowed majority vote is a bit-sliced ripple-carry counter plus
  a bitwise magnitude comparator (:func:`packed_majority`).

**Two RNG regimes**, selected by ``rng_mode``:

``"exact"``
    Consumes random streams *exactly* like the unpacked kernels: one
    uniform float per shot per channel event, gauge rows drawn as
    ``rng.random(shots) < 0.5``.  Samples are bit-identical to
    :class:`~repro.sim.framesim.BatchedFrameSampler`, the bool
    reference — the conformance contract the golden values and the
    differential-fuzz corpus pin.  The speed comes from drawing all
    same-kind noise events of a slot at once, doing the hit→kind
    arithmetic sparsely (only at the hit indices) and all frame
    algebra on words.

``"fast"``
    Stim-style word-level randomness: a channel draws its hit *count*
    from a binomial, scatters that many distinct positions, and gauge
    rows are single ``uint64`` draws.  Distribution-identical (same
    physics, chi-square-gated in the conformance tests) but a
    different stream — this is the mode that clears the E22 ≥10x bar,
    because the per-event cost no longer scales with the shot count.

Both regimes keep the per-instruction stream-seeding contract of
:class:`~repro.sim.framesim.BatchedFrameSampler`, so samples stay
worker-count- and batch-split-invariant within a mode.

The **tail invariant**: bits at positions ``>= num_shots`` in the last
word of any row are always zero.  Packing pads with zeros, word
kernels (XOR/AND/copy) preserve zeros, random word rows and logical
NOT are masked with :meth:`PackedFrameArray.full_words` — so popcounts
and unpacks never see ghost shots.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence, Union

import numpy as np

from ..circuits.circuit import Circuit
from .. import telemetry
from .framesim import (
    OP_CNOT,
    OP_CZ,
    OP_DEPOL1,
    OP_DEPOL2,
    OP_H,
    OP_MEASURE,
    OP_RESET,
    OP_S,
    OP_SWAP,
    OP_XERR,
    _OP_COUNTER_NAMES,
    TWO_QUBIT_ERROR_BITS,
    FrameProgram,
    NoiseParameters,
    SeedLike,
    _seed_sequence,
    compile_frame_program,
)

#: All-ones word (numpy uint64 cannot take ``~0`` directly).
ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: The packing convention in one place: shot ``s`` -> word ``s >> 6``,
#: bit ``s & 63``; within a word bit 0 is the lowest-index shot.
SHOTS_PER_WORD = 64

_BIG_ENDIAN = sys.byteorder == "big"

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")
#: Byte popcount table for numpy builds without ``bitwise_count``.
_POPCOUNT_TABLE = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.uint8
)

#: Every accepted engine name -> the frame RNG mode it runs.  The
#: canonical names are the modes themselves; ``framesim``, ``packed``
#: and ``packed-fast`` name the engines of earlier releases and still
#: appear in serve journals and user scripts.
ENGINE_NAMES = {
    "exact": "exact",
    "fast": "fast",
    "framesim": "exact",
    "packed": "exact",
    "packed-fast": "fast",
}

#: The canonical engine names (= RNG modes), default first.
ENGINES = ("exact", "fast")


def resolve_engine(name: object) -> str:
    """Canonical engine name (RNG mode) of ``name``.

    Raises :class:`ValueError` with one message for every caller — the
    CLI, the experiments, the shard planner and the serve layer.
    """
    engine = ENGINE_NAMES.get(name) if isinstance(name, str) else None
    if engine is None:
        raise ValueError(
            f"unknown engine {name!r}; choose 'exact' or 'fast'"
        )
    return engine


def num_words(num_shots: int) -> int:
    """Words needed for ``num_shots`` packed shots."""
    return (int(num_shots) + SHOTS_PER_WORD - 1) >> 6


def tail_mask(num_shots: int) -> np.uint64:
    """Valid-bit mask of the *last* word of a ``num_shots`` row."""
    bits = int(num_shots) & 63
    if bits == 0:
        return ALL_ONES
    return np.uint64((1 << bits) - 1)


def full_mask(num_shots: int) -> np.ndarray:
    """Per-word valid-shot mask: all-ones except the ragged last word.

    XOR-ing a row with this mask is a logical NOT over the valid
    shots that preserves the tail invariant.
    """
    words = np.full(num_words(num_shots), ALL_ONES, dtype=np.uint64)
    words[-1] = tail_mask(num_shots)
    return words


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack bools along the last axis into little-endian ``uint64``.

    ``bits`` has shape ``(..., num_shots)``; the result has shape
    ``(..., num_words(num_shots))`` with bit ``s & 63`` of word
    ``s >> 6`` equal to ``bits[..., s]``.  Tail bits are zero.
    """
    bits = np.asarray(bits, dtype=bool)
    words = num_words(bits.shape[-1])
    packed = np.packbits(bits, axis=-1, bitorder="little")
    pad = words * 8 - packed.shape[-1]
    if pad:
        packed = np.concatenate(
            [packed, np.zeros(bits.shape[:-1] + (pad,), dtype=np.uint8)],
            axis=-1,
        )
    packed = np.ascontiguousarray(packed)
    out = packed.view(np.uint64)
    if _BIG_ENDIAN:  # pragma: no cover - little-endian CI hosts
        out = out.byteswap()
    return out


def unpack_bits(words: np.ndarray, num_shots: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`.

    ``words`` has shape ``(..., num_words)``; returns bools of shape
    ``(..., num_shots)``.
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if _BIG_ENDIAN:  # pragma: no cover - little-endian CI hosts
        words = words.byteswap()
    raw = words.view(np.uint8)
    bits = np.unpackbits(raw, axis=-1, bitorder="little", count=int(num_shots))
    return bits.astype(bool)


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Per-word set-bit counts (``numpy.bitwise_count`` when present)."""
    words = np.asarray(words, dtype=np.uint64)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).astype(np.int64)
    raw = np.ascontiguousarray(words).view(np.uint8)
    per_byte = _POPCOUNT_TABLE[raw].reshape(words.shape + (8,))
    return per_byte.sum(axis=-1, dtype=np.int64)


def packed_majority(planes: np.ndarray) -> np.ndarray:
    """Bitwise per-shot majority over the leading (rounds) axis.

    ``planes`` has shape ``(rounds, ...)``; the result, shape
    ``(...)``, has a bit set exactly where more than half of the
    rounds set it — the packed equivalent of the batched decoder's
    ``sum * 2 > rounds`` vote, computed without ever unpacking:
    a bit-sliced ripple-carry counter accumulates the per-position
    sums, then a bitwise magnitude comparator tests
    ``count >= rounds // 2 + 1`` MSB-down.

    Tail bits stay zero (the threshold has at least one set bit, so
    the equality chain is ANDed with a zero-tail counter plane).
    """
    planes = np.asarray(planes, dtype=np.uint64)
    rounds = planes.shape[0]
    if rounds < 1:
        raise ValueError("majority vote needs at least one round")
    width = rounds.bit_length()
    counters = [
        np.zeros(planes.shape[1:], dtype=np.uint64) for _ in range(width)
    ]
    for plane in planes:
        carry = plane
        for index in range(width):
            counters[index], carry = (
                counters[index] ^ carry,
                counters[index] & carry,
            )
    threshold = rounds // 2 + 1
    greater = np.zeros(planes.shape[1:], dtype=np.uint64)
    equal = np.full(planes.shape[1:], ALL_ONES, dtype=np.uint64)
    for index in range(width - 1, -1, -1):
        if (threshold >> index) & 1:
            equal = equal & counters[index]
        else:
            greater = greater | (equal & counters[index])
    return greater | equal


def _scatter(indices: np.ndarray, num_shots: int) -> np.ndarray:
    """Packed row with bits set at the given shot indices."""
    bits = np.zeros(num_shots, dtype=bool)
    bits[indices] = True
    return pack_bits(bits)


#: One qubit index, or a vector of them (a noise kernel's argument).
Qubits = Union[int, Sequence[int], np.ndarray]


def _qubit_rows(qubits: Qubits) -> np.ndarray:
    """A qubit or a sequence of qubits as a 1-D index vector."""
    return np.atleast_1d(np.asarray(qubits, dtype=np.intp))


def _xor_rows(plane: np.ndarray, rows: np.ndarray, words: np.ndarray) -> None:
    """``plane[rows[i]] ^= words[i]`` for every ``i``.

    One fancy-indexed XOR when the rows are distinct (every slot's
    noise events are); a repeated row falls back to one XOR per row,
    so no update is lost.
    """
    if rows.size == 1:
        plane[rows[0]] ^= words[0]
    elif len(set(rows.tolist())) == rows.size:
        plane[rows] ^= words
    else:
        for row, word in zip(rows, words):
            plane[row] ^= word


class PackedFrameArray:
    """``num_shots`` Pauli frames as two ``uint64`` bit planes.

    The packed analogue of :class:`~repro.sim.framesim.FrameArray`:
    row ``q`` of ``x``/``z`` holds the ``has X``/``has Z`` record bit
    of qubit ``q`` for all shots, 64 per word.  All kernels implement
    the same mod-phase conjugation rules (paper Tables 3.4/3.5); in
    ``rng_mode="exact"`` the random-stream consumption also matches
    the unpacked kernels draw for draw (see the module docstring).
    """

    __slots__ = ("x", "z", "num_shots", "rng_mode", "_full")

    def __init__(
        self, num_shots: int, num_qubits: int, rng_mode: str = "exact"
    ):
        if rng_mode not in ENGINES:
            raise ValueError(f"rng_mode must be one of {ENGINES}")
        self.num_shots = int(num_shots)
        words = num_words(self.num_shots)
        self.x = np.zeros((int(num_qubits), words), dtype=np.uint64)
        self.z = np.zeros((int(num_qubits), words), dtype=np.uint64)
        self.rng_mode = rng_mode
        self._full = full_mask(self.num_shots)

    @property
    def num_qubits(self) -> int:
        return self.x.shape[0]

    @property
    def num_words(self) -> int:
        return self.x.shape[1]

    @property
    def full_words(self) -> np.ndarray:
        """The valid-shot word mask (``NOT`` = ``row ^ full_words``)."""
        return self._full

    # -- packed/unpacked conversion -------------------------------------
    def x_bool(self) -> np.ndarray:
        """The X plane as a ``(num_shots, num_qubits)`` bool array."""
        return unpack_bits(self.x, self.num_shots).T

    def z_bool(self) -> np.ndarray:
        """The Z plane as a ``(num_shots, num_qubits)`` bool array."""
        return unpack_bits(self.z, self.num_shots).T

    def error_weight(self) -> int:
        """Total set frame bits across both planes (diagnostics)."""
        return int(
            popcount_words(self.x).sum() + popcount_words(self.z).sum()
        )

    def copy(self) -> "PackedFrameArray":
        duplicate = PackedFrameArray(
            self.num_shots, 0, rng_mode=self.rng_mode
        )
        duplicate.x = self.x.copy()
        duplicate.z = self.z.copy()
        return duplicate

    # -- register -------------------------------------------------------
    def add_qubits(self, count: int, rng: np.random.Generator) -> None:
        """Append ``count`` fresh ``|0>`` qubits (Z gauge randomized)."""
        if count <= 0:
            return
        pad_x = np.zeros((count, self.num_words), dtype=np.uint64)
        if self.rng_mode == "exact":
            pad_z = pack_bits(
                (rng.random((self.num_shots, count)) < 0.5).T
            )
        else:
            pad_z = self._random_words((count, self.num_words), rng)
        self.x = np.concatenate([self.x, pad_x], axis=0)
        self.z = np.concatenate([self.z, pad_z], axis=0)

    def remove_qubits(self, count: int) -> None:
        """Drop the ``count`` highest-index qubit rows."""
        if count <= 0:
            return
        keep = self.num_qubits - count
        self.x = self.x[:keep].copy()
        self.z = self.z[:keep].copy()

    # -- Clifford conjugation (word kernels) ----------------------------
    def h(self, qubit: int) -> None:
        """H exchanges the X and Z record rows."""
        tmp = self.x[qubit].copy()
        self.x[qubit] = self.z[qubit]
        self.z[qubit] = tmp

    def s(self, qubit: int) -> None:
        """S (and, mod phase, S^dagger): ``X -> XZ``, ``Z -> Z``."""
        self.z[qubit] ^= self.x[qubit]

    def cnot(self, control: int, target: int) -> None:
        """X propagates control->target, Z propagates target->control."""
        self.x[target] ^= self.x[control]
        self.z[control] ^= self.z[target]

    def cz(self, control: int, target: int) -> None:
        """X on either qubit acquires a Z on the other."""
        new_zc = self.z[control] ^ self.x[target]
        self.z[target] ^= self.x[control]
        self.z[control] = new_zc

    def swap(self, first: int, second: int) -> None:
        """SWAP exchanges the two record rows."""
        self.x[[first, second]] = self.x[[second, first]]
        self.z[[first, second]] = self.z[[second, first]]

    # -- state transitions ----------------------------------------------
    def reset(self, qubit: int, rng: np.random.Generator) -> None:
        """Reset clears the record; the Z gauge is randomized."""
        self.x[qubit] = 0
        self.z[qubit] = self._gauge_row(rng)

    def measure_flips(
        self, qubit: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-shot outcome flips of a Z measurement, as one word row.

        Returns the packed ``X``-component row (a copy), then
        randomizes the now-gauge ``Z`` component.
        """
        t = telemetry.ACTIVE
        if t is None:
            flips = self.x[qubit].copy()
            self.z[qubit] = self._gauge_row(rng)
            return flips
        with t.span("sim.packedsim", "PackedFrameArray.measure_flips"):
            flips = self.x[qubit].copy()
            self.z[qubit] = self._gauge_row(rng)
            return flips

    # -- noise channels --------------------------------------------------
    # Each channel takes one qubit or a vector of ``k`` qubits.  In
    # exact mode it makes one ``(k, num_shots)`` draw of uniforms —
    # ``Generator.random`` fills in C order, so this is the stream of
    # ``k`` scalar calls — computes the error kinds only at the hit
    # indices and packs all ``k`` rows with one ``pack_bits`` call.
    # Fast mode keeps its per-event stream, one qubit after another.
    def xerr(
        self, qubits: Qubits, probability: float, rng: np.random.Generator
    ) -> None:
        """Bit-flip channel: X with probability ``p`` on every shot."""
        rows = _qubit_rows(qubits)
        if self.rng_mode == "exact":
            hits = rng.random((rows.size, self.num_shots))
            _xor_rows(self.x, rows, pack_bits(hits < probability))
            return
        for qubit in rows:
            hits = int(rng.binomial(self.num_shots, probability))
            if hits:
                positions = rng.choice(
                    self.num_shots, size=hits, replace=False
                )
                self.x[qubit] ^= _scatter(positions, self.num_shots)

    def depolarize1(
        self,
        qubits: Qubits,
        probability: float,
        rng: np.random.Generator,
        shot_mask: Optional[np.ndarray] = None,
    ) -> None:
        """Single-qubit depolarizing: X/Y/Z with probability ``p/3``.

        ``shot_mask`` (bool, per shot) restricts the channel to a
        subset of shots; in both modes the stream consumption is
        mask-independent, exactly like the unpacked kernel.
        """
        rows = _qubit_rows(qubits)
        if self.rng_mode == "exact":
            self._depolarize1_exact(rows, probability, rng, shot_mask)
            return
        for qubit in rows:
            hits = int(rng.binomial(self.num_shots, probability))
            if hits == 0:
                continue
            indices = rng.choice(self.num_shots, size=hits, replace=False)
            kind = rng.integers(0, 3, size=hits)
            if shot_mask is not None:
                keep = shot_mask[indices]
                indices, kind = indices[keep], kind[keep]
            self.x[qubit] ^= _scatter(indices[kind != 2], self.num_shots)
            self.z[qubit] ^= _scatter(indices[kind != 0], self.num_shots)

    def depolarize2(
        self,
        first: Qubits,
        second: Qubits,
        probability: float,
        rng: np.random.Generator,
    ) -> None:
        """Two-qubit depolarizing: one of 15 pairs, ``p/15`` each.

        ``first`` and ``second`` are one qubit each or equal-length
        vectors of the pairs' qubits.
        """
        firsts, seconds = _qubit_rows(first), _qubit_rows(second)
        if self.rng_mode == "exact":
            self._depolarize2_exact(firsts, seconds, probability, rng)
            return
        for one, two in zip(firsts, seconds):
            hits = int(rng.binomial(self.num_shots, probability))
            if hits == 0:
                continue
            indices = rng.choice(self.num_shots, size=hits, replace=False)
            bits = TWO_QUBIT_ERROR_BITS[rng.integers(0, 15, size=hits)]
            self.x[one] ^= _scatter(indices[bits[:, 0]], self.num_shots)
            self.z[one] ^= _scatter(indices[bits[:, 1]], self.num_shots)
            self.x[two] ^= _scatter(indices[bits[:, 2]], self.num_shots)
            self.z[two] ^= _scatter(indices[bits[:, 3]], self.num_shots)

    def apply_pauli_masks(
        self, x_mask: np.ndarray, z_mask: np.ndarray
    ) -> None:
        """XOR per-shot Pauli masks into the frames.

        Masks are either bool arrays of shape
        ``(num_shots, num_qubits)`` (the unpacked-core convention,
        packed here) or already-packed ``uint64`` planes of shape
        ``(num_qubits, num_words)``.
        """
        self.x ^= self._as_words(x_mask)
        self.z ^= self._as_words(z_mask)

    # -- internals ------------------------------------------------------
    def _depolarize1_exact(
        self,
        rows: np.ndarray,
        probability: float,
        rng: np.random.Generator,
        shot_mask: Optional[np.ndarray],
    ) -> None:
        # Same double-duty draw as FrameArray.depolarize1: a hit u < p
        # has kind floor(3u / p), X (0), Y (1) or Z (2).
        u = rng.random((rows.size, self.num_shots))
        hit = u < probability
        if shot_mask is not None:
            hit &= shot_mask
        # Flat indices into the draw: 1-D nonzero/gather are far
        # cheaper than their 2-D forms.
        flat = np.flatnonzero(hit)
        if flat.size == 0:
            return
        kind = np.minimum(
            (u.ravel()[flat] * (3.0 / probability)).astype(np.int64), 2
        )
        # planes: the X record (X or Y hits), then the Z record (Y or Z).
        planes = np.zeros((2, u.size), dtype=bool)
        planes[0, flat[kind != 2]] = True
        planes[1, flat[kind != 0]] = True
        words = pack_bits(planes.reshape((2,) + u.shape))
        _xor_rows(self.x, rows, words[0])
        _xor_rows(self.z, rows, words[1])

    def _depolarize2_exact(
        self,
        firsts: np.ndarray,
        seconds: np.ndarray,
        probability: float,
        rng: np.random.Generator,
    ) -> None:
        u = rng.random((firsts.size, self.num_shots))
        flat = np.flatnonzero(u < probability)
        if flat.size == 0:
            return
        kind = np.minimum(
            (u.ravel()[flat] * (15.0 / probability)).astype(np.int64), 14
        )
        # planes: X/Z record of ``first``, then of ``second``.
        planes = np.zeros((4, u.size), dtype=bool)
        planes[:, flat] = TWO_QUBIT_ERROR_BITS[kind].T
        words = pack_bits(planes.reshape((4,) + u.shape))
        _xor_rows(self.x, firsts, words[0])
        _xor_rows(self.z, firsts, words[1])
        _xor_rows(self.x, seconds, words[2])
        _xor_rows(self.z, seconds, words[3])

    def _as_words(self, mask: np.ndarray) -> np.ndarray:
        mask = np.asarray(mask)
        if mask.dtype == np.uint64:
            return mask
        return pack_bits(np.asarray(mask, dtype=bool).T)

    def _gauge_row(self, rng: np.random.Generator) -> np.ndarray:
        """One uniformly random packed row (the Z-gauge trick)."""
        if self.rng_mode == "exact":
            return pack_bits(rng.random(self.num_shots) < 0.5)
        return self._random_words(self.num_words, rng)

    def _random_words(self, shape, rng: np.random.Generator) -> np.ndarray:
        words = rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)
        return words & self._full


class PackedFrameSampler:
    """Sample a compiled :class:`~repro.sim.framesim.FrameProgram` on
    packed frames.

    The drop-in counterpart of
    :class:`~repro.sim.framesim.BatchedFrameSampler`: the same
    one-stream-per-random-instruction seed tree (so the same ``seed``
    gives batch-split-invariant samples), with all frame algebra on
    :class:`PackedFrameArray` word kernels.  In ``rng_mode="exact"``
    :meth:`sample` is bit-identical to the unpacked sampler; in
    ``"fast"`` it is distribution-identical on a different stream.
    """

    def __init__(
        self,
        program: FrameProgram,
        seed: SeedLike = None,
        rng_mode: str = "exact",
    ):
        if rng_mode not in ENGINES:
            raise ValueError(f"rng_mode must be one of {ENGINES}")
        self.program = program
        self.rng_mode = rng_mode
        children = _seed_sequence(seed).spawn(program.num_streams)
        self._streams = [np.random.default_rng(c) for c in children]
        self.shots_sampled = 0

    # ------------------------------------------------------------------
    def sample(self, num_shots: int) -> np.ndarray:
        """Sample ``num_shots`` shots as bools.

        Returns shape ``(num_shots, num_measurements)``, the unpacked
        sampler's layout (columns in circuit measurement order).
        """
        return unpack_bits(self.sample_words(num_shots), int(num_shots)).T

    def sample_words(self, num_shots: int) -> np.ndarray:
        """Sample ``num_shots`` shots in packed form.

        Returns ``uint64`` words of shape
        ``(num_measurements, num_words(num_shots))`` — row ``m`` holds
        measurement ``m``'s outcome bit for every shot.
        """
        t = telemetry.ACTIVE
        if t is None:
            return self._sample_words(num_shots)
        with t.span(
            "sim.packedsim",
            "PackedFrameSampler.sample_words",
            shots=int(num_shots),
            instructions=len(self.program.instructions),
            rng_mode=self.rng_mode,
        ):
            out = self._sample_words(num_shots)
        for instr in self.program.instructions:
            t.count(
                "sim.packedsim", "kernel", _OP_COUNTER_NAMES[instr[0]]
            )
        return out

    def _sample_words(self, num_shots: int) -> np.ndarray:
        program = self.program
        shots = int(num_shots)
        frames = PackedFrameArray(
            shots, program.num_qubits, rng_mode=self.rng_mode
        )
        # Initial Z-gauge randomization (see framesim: stream 0).
        streams = self._streams
        if self.rng_mode == "exact":
            frames.z[:] = pack_bits(
                (streams[0].random((shots, program.num_qubits)) < 0.5).T
            )
        else:
            frames.z[:] = frames._random_words(frames.z.shape, streams[0])
        out = np.empty(
            (program.num_measurements, frames.num_words), dtype=np.uint64
        )
        full = frames.full_words
        reference = program.reference_bits
        for instr in program.instructions:
            opcode = instr[0]
            if opcode == OP_MEASURE:
                _, qubit, column, stream = instr
                flips = frames.measure_flips(qubit, streams[stream])
                out[column] = flips ^ full if reference[column] else flips
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


def sample_circuit_packed(
    circuit: Circuit,
    num_shots: int,
    seed: SeedLike = None,
    noise: Optional[NoiseParameters] = None,
    num_qubits: Optional[int] = None,
    rng_mode: str = "exact",
) -> np.ndarray:
    """Compile and sample ``circuit`` on the packed engine.

    The same two-child seed tree as
    :func:`~repro.sim.framesim.sample_circuit`, so with
    ``rng_mode="exact"`` the returned samples are bit-identical to the
    unpacked path for the same arguments.
    """
    reference_ss, sampler_ss = _seed_sequence(seed).spawn(2)
    program = compile_frame_program(
        circuit,
        num_qubits=num_qubits,
        noise=noise,
        reference_rng=np.random.default_rng(reference_ss),
    )
    return PackedFrameSampler(
        program, seed=sampler_ss, rng_mode=rng_mode
    ).sample(num_shots)
