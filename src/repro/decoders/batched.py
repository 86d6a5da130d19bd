"""Array-native batched decoding: all shots through the LUT at once.

The batched Pauli-frame sampler (PR 1) made *sampling* vectorized, so
the batched LER experiment became decode-bound: every shot owned a
:class:`~repro.decoders.rule_based.WindowedLutDecoder` that re-ran the
brute-force minimum-weight table build, and every window decoded
shot-by-shot in Python.  This module keeps the whole sample→decode
pipeline in packed array form (the lesson of Stim,
arXiv:2103.02202) while leaving the decoding *principle* exactly
Tomita–Svore (PRA 90, 062320), as the paper prescribes:

* the dict-based LUT becomes a **dense gather table** — a
  ``(2^num_checks, num_qubits)`` bool array built by one vectorized
  enumeration (syndromes packed via a power-of-two dot product,
  first-hit-wins minimum-weight fill, identical tie-break order to the
  scalar builder);
* tables live behind a **process-level cache** keyed by the
  check-matrix digest, so any number of decoder instances — batched or
  scalar — share one build (``clear_lut_cache`` empties it);
* :class:`PackedWindowedLutDecoder` consumes the packed engine's
  ``uint64`` syndrome word planes and runs majority vote, syndrome
  packing, table gather and the windowed carry-state as word-wide
  numpy, returning per-shot decision arrays.  Every registry decoder
  of the windowed protocol is this class over its own dense tables
  (:func:`dense_lut`, :func:`mwpm_dense_lut` and the union-find and
  sparse-matching table functions).

Bit-for-bit equivalence with the per-shot
:class:`~repro.decoders.rule_based.WindowedLutDecoder` on identical
syndrome streams is a hard invariant (see
``tests/test_batched_decoder.py`` and the golden LER counts).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from ..sim.packedsim import pack_bits, packed_majority, unpack_bits
from .. import telemetry

#: Dense tables hold ``2^num_checks`` rows; refuse to allocate
#: gigabyte-scale tables for check counts where brute-force LUT
#: decoding is meaningless anyway.
MAX_DENSE_CHECKS = 24

#: Process-level table cache: digest key -> (table, reachable-mask).
#: Cached arrays are frozen (non-writeable) so shared rows cannot be
#: corrupted through one consumer.
_LUT_CACHE: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = {}


# ----------------------------------------------------------------------
# Vectorized syndrome packing
# ----------------------------------------------------------------------
#: Frozen per-check-count weight / bit-index vectors.  The packers run
#: once per decoded window on the hot path, so the arrays are built at
#: most once per check count instead of per call.
_PACK_WEIGHTS: Dict[int, np.ndarray] = {}
_BIT_INDEX: Dict[int, np.ndarray] = {}


def _pack_weights(num_checks: int) -> np.ndarray:
    weights = _PACK_WEIGHTS.get(num_checks)
    if weights is None:
        weights = np.left_shift(
            np.int64(1), np.arange(num_checks, dtype=np.int64)
        )
        weights.setflags(write=False)
        _PACK_WEIGHTS[num_checks] = weights
    return weights


def _bit_index(num_checks: int) -> np.ndarray:
    index = _BIT_INDEX.get(num_checks)
    if index is None:
        index = np.arange(num_checks, dtype=np.int64)
        index.setflags(write=False)
        _BIT_INDEX[num_checks] = index
    return index


def pack_syndromes(bits: np.ndarray) -> np.ndarray:
    """Pack syndrome bit arrays along the last axis into integers.

    ``bits`` has shape ``(..., num_checks)``; the result has shape
    ``(...)`` with bit ``i`` of each packed value = check ``i``
    (little-endian, matching :func:`repro.decoders.lut.pack_syndrome`).
    """
    bits = np.asarray(bits, dtype=bool)
    return bits.astype(np.int64) @ _pack_weights(bits.shape[-1])


def unpack_syndromes(packed: np.ndarray, num_checks: int) -> np.ndarray:
    """Inverse of :func:`pack_syndromes`.

    ``packed`` has any shape; the result appends a trailing axis of
    length ``num_checks`` holding the bits.
    """
    packed = np.asarray(packed, dtype=np.int64)
    return (
        (packed[..., np.newaxis] >> _bit_index(num_checks)) & 1
    ).astype(bool)


def pack_syndromes_words(
    planes: np.ndarray, num_shots: int
) -> np.ndarray:
    """Packed-word fast path of :func:`pack_syndromes`.

    ``planes`` holds one bit-packed row per check — shape
    ``(num_checks, num_words)`` ``uint64``, bit ``s & 63`` of word
    ``s >> 6`` being shot ``s``'s syndrome bit (the
    :mod:`repro.sim.packedsim` layout).  Returns the same
    ``(num_shots,)`` int64 packed syndromes that
    ``pack_syndromes(bits)`` would produce from the equivalent
    ``(num_shots, num_checks)`` bool array.
    """
    planes = np.asarray(planes, dtype=np.uint64)
    packed = np.zeros(num_shots, dtype=np.int64)
    for check in range(planes.shape[0]):
        packed |= unpack_bits(planes[check], num_shots).astype(
            np.int64
        ) << np.int64(check)
    return packed


# ----------------------------------------------------------------------
# Dense table construction
# ----------------------------------------------------------------------
def build_dense_lut(
    check_matrix: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense minimum-weight decoding table of ``check_matrix``.

    Returns ``(table, reachable)``: ``table`` is a
    ``(2^num_checks, num_qubits)`` bool array mapping each packed
    syndrome to a minimum-weight error producing it, and ``reachable``
    flags the syndromes that any error pattern can produce (the rest
    of ``table`` stays all-zero).

    The fill order is identical to the scalar
    :func:`repro.decoders.lut.build_lut`: weights ascend, and within a
    weight the lexicographically first support wins (``np.unique``'s
    first-occurrence index over the packed syndromes of one weight
    batch).
    """
    check = np.ascontiguousarray(np.asarray(check_matrix, dtype=np.uint8))
    num_checks, num_qubits = check.shape
    if num_checks > MAX_DENSE_CHECKS:
        raise ValueError(
            f"dense LUT needs 2^{num_checks} rows; brute-force LUT "
            f"decoding is not meaningful beyond {MAX_DENSE_CHECKS} checks"
        )
    size = 1 << num_checks
    table = np.zeros((size, num_qubits), dtype=bool)
    reachable = np.zeros(size, dtype=bool)
    reachable[0] = True  # weight-0: the trivial syndrome, no error
    for weight in range(1, num_qubits + 1):
        if reachable.all():
            break
        supports = np.array(
            list(itertools.combinations(range(num_qubits), weight)),
            dtype=np.intp,
        )
        errors = np.zeros((len(supports), num_qubits), dtype=np.uint8)
        rows = np.repeat(np.arange(len(supports)), weight)
        errors[rows, supports.ravel()] = 1
        syndromes = (errors @ check.T) & 1
        packed = pack_syndromes(syndromes.astype(bool))
        # First occurrence per packed syndrome preserves the scalar
        # builder's lexicographic tie-break within one weight class.
        unique, first_index = np.unique(packed, return_index=True)
        fresh = ~reachable[unique]
        table[unique[fresh]] = errors[first_index[fresh]].astype(bool)
        reachable[unique[fresh]] = True
    return table, reachable


def _check_digest(check: np.ndarray) -> tuple:
    """Cache key of a check matrix: shape plus content digest."""
    return (
        check.shape,
        hashlib.sha256(check.tobytes()).hexdigest(),
    )


def dense_lut(check_matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Process-cached :func:`build_dense_lut`.

    Every decoder instance built on the same check matrix — across
    experiments, shots and species — shares one frozen table; the
    build runs at most once per process (until
    :func:`clear_lut_cache`).
    """
    check = np.ascontiguousarray(np.asarray(check_matrix, dtype=np.uint8))
    key = ("lut", *_check_digest(check))
    return _cached_table(key, lambda: build_dense_lut(check))


def mwpm_dense_lut(
    check_matrix: np.ndarray, boundary_qubits: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense table filled by Blossom matching instead of enumeration.

    Every one of the ``2^num_checks`` syndromes is decoded once by a
    :class:`~repro.decoders.mwpm.MwpmDecoder`, turning the matching
    decoder into a gather table for batched decoding (feasible for the
    small codes the windowed LUT protocol targets).  All syndromes are
    reachable by construction.
    """
    check = np.ascontiguousarray(np.asarray(check_matrix, dtype=np.uint8))
    key = ("mwpm", *_check_digest(check), tuple(boundary_qubits))

    def build() -> Tuple[np.ndarray, np.ndarray]:
        from .mwpm import MwpmDecoder

        num_checks, _ = check.shape
        if num_checks > MAX_DENSE_CHECKS:
            raise ValueError(
                "dense MWPM table infeasible beyond "
                f"{MAX_DENSE_CHECKS} checks"
            )
        decoder = MwpmDecoder(check, boundary_qubits)
        size = 1 << num_checks
        syndromes = unpack_syndromes(np.arange(size), num_checks)
        table = np.stack(
            [decoder.decode(s).astype(bool) for s in syndromes]
        )
        return table, np.ones(size, dtype=bool)

    return _cached_table(key, build)


def _cached_table(key, build) -> Tuple[np.ndarray, np.ndarray]:
    """Look ``key`` up in the process cache, building on first miss."""
    cached = _LUT_CACHE.get(key)
    t = telemetry.ACTIVE
    if cached is not None:
        if t is not None:
            t.count("decoder.batched", "lut_cache", "hits")
        return cached
    if t is None:
        table, reachable = build()
    else:
        t.count("decoder.batched", "lut_cache", "misses")
        with t.span("decoder.batched", "lut_cache.build", kind=key[0]):
            table, reachable = build()
    table.setflags(write=False)
    reachable.setflags(write=False)
    _LUT_CACHE[key] = (table, reachable)
    return table, reachable


def clear_lut_cache() -> int:
    """Drop every cached table; returns how many entries were held.

    The cache knob for benchmarks and memory-sensitive embeddings —
    normal code never needs it (tables are tiny for the codes where
    LUT decoding applies, and keys are content digests, so stale
    entries cannot occur).
    """
    held = len(_LUT_CACHE)
    _LUT_CACHE.clear()
    return held


def lut_cache_size() -> int:
    """Number of dense tables currently cached in this process."""
    return len(_LUT_CACHE)


# ----------------------------------------------------------------------
# Batched windowed decoding
# ----------------------------------------------------------------------
@dataclass
class BatchedWindowDecision:
    """Decoder output for one window across all shots.

    Attributes
    ----------
    x_corrections, z_corrections:
        Bool arrays of shape ``(shots, num_qubits)``: where each shot
        must apply X / Z gates.
    has_corrections:
        Bool mask of shape ``(shots,)``: shots commanding at least one
        correction gate.
    voted_x, voted_z:
        The majority-voted syndromes the decision decoded, shape
        ``(shots, num_checks)`` per species.
    """

    x_corrections: np.ndarray
    z_corrections: np.ndarray
    has_corrections: np.ndarray
    voted_x: np.ndarray
    voted_z: np.ndarray


class PackedWindowedLutDecoder:
    """All-shots-at-once windowed decoding over bit-packed syndromes.

    The same protocol as the scalar
    :class:`~repro.decoders.rule_based.WindowedLutDecoder` — three-
    round majority vote (Tomita–Svore rule), two-table decoding,
    corrected-frame carry-state — for every shot at once.  The
    :class:`~repro.qpdo.packed_core.PackedStabilizerCore` hands back
    syndromes as ``uint64`` word planes, and this decoder keeps them
    packed through the vote and the carry-state, unpacking only at the
    table gather (the table is indexed per shot no matter what).
    Round arrays are passed as ``(rounds, checks, num_words)``
    ``uint64`` — leading rounds axis, the
    :func:`repro.sim.packedsim.packed_majority` convention:

    * the majority vote is the bit-sliced popcount comparator of
      :func:`~repro.sim.packedsim.packed_majority`;
    * syndrome packing is :func:`pack_syndromes_words`;
    * decoding is one gather ``table[packed]`` per species;
    * the carry-state is stored as word planes and re-expressed in the
      corrected frame by packing the correction syndromes once.

    Parameters
    ----------
    x_check_matrix, z_check_matrix:
        CSS check matrices (X-type rows detect Z errors, Z-type rows
        detect X errors).
    num_shots:
        Valid shot count of the word planes.
    tables:
        The dense decoding tables ``(x_table, z_table)``: ``x_table``
        maps packed X-type syndromes to Z corrections, ``z_table``
        packed Z-type syndromes to X corrections (the
        :class:`~repro.decoders.lut.TwoLutDecoder` pairing).  Each
        registry entry passes its own: :func:`dense_lut`,
        :func:`mwpm_dense_lut` and friends.
    use_majority_vote:
        Ablation knob, as in the scalar decoder: with ``False`` only
        the last round of each window is decoded.

    Decisions (:class:`BatchedWindowDecision`) are bit-identical to
    running one scalar decoder per shot on the same streams.
    """

    def __init__(
        self,
        x_check_matrix: np.ndarray,
        z_check_matrix: np.ndarray,
        num_shots: int,
        tables: Tuple[np.ndarray, np.ndarray],
        use_majority_vote: bool = True,
    ) -> None:
        if num_shots < 1:
            raise ValueError("num_shots must be positive")
        self.x_check_matrix = np.asarray(x_check_matrix, dtype=np.uint8)
        self.z_check_matrix = np.asarray(z_check_matrix, dtype=np.uint8)
        self.num_shots = int(num_shots)
        self.use_majority_vote = bool(use_majority_vote)
        self._z_error_table, self._x_error_table = tables
        self._previous_x_words: np.ndarray | None = None
        self._previous_z_words: np.ndarray | None = None

    # ------------------------------------------------------------------
    def initialize(
        self, x_rounds: np.ndarray, z_rounds: np.ndarray
    ) -> BatchedWindowDecision:
        """Consume the ``d`` initialization rounds for every shot.

        ``x_rounds`` / ``z_rounds`` have shape
        ``(rounds, checks, num_words)``; the round count must be odd,
        as in the scalar decoder.
        """
        x_rounds = np.asarray(x_rounds, dtype=np.uint64)
        z_rounds = np.asarray(z_rounds, dtype=np.uint64)
        if x_rounds.shape[0] % 2 == 0:
            raise ValueError("initialization needs an odd number of rounds")
        return self._decide(
            packed_majority(x_rounds),
            packed_majority(z_rounds),
            x_rounds[-1],
            z_rounds[-1],
        )

    def decode_window(
        self, x_rounds: np.ndarray, z_rounds: np.ndarray
    ) -> BatchedWindowDecision:
        """Decode one window of ESM rounds for every shot (Fig. 5.9)."""
        t = telemetry.ACTIVE
        if t is None:
            return self._decode_window(x_rounds, z_rounds)
        with t.span(
            "decoder.batched",
            type(self).__name__ + ".decode_window",
            shots=self.num_shots,
            rounds=int(np.asarray(x_rounds).shape[0]),
        ):
            return self._decode_window(x_rounds, z_rounds)

    def _decode_window(
        self, x_rounds: np.ndarray, z_rounds: np.ndarray
    ) -> BatchedWindowDecision:
        if self._previous_x_words is None or self._previous_z_words is None:
            raise RuntimeError("decoder not initialized; call initialize()")
        x_rounds = np.asarray(x_rounds, dtype=np.uint64)
        z_rounds = np.asarray(z_rounds, dtype=np.uint64)
        if not self.use_majority_vote:
            return self._decide(
                x_rounds[-1],
                z_rounds[-1],
                x_rounds[-1],
                z_rounds[-1],
            )
        history_x = np.concatenate(
            [self._previous_x_words[np.newaxis], x_rounds], axis=0
        )
        history_z = np.concatenate(
            [self._previous_z_words[np.newaxis], z_rounds], axis=0
        )
        if history_x.shape[0] % 2 == 0:
            # Even total: drop the oldest round so the vote stays
            # well-defined (only non-default window sizes hit this).
            history_x = history_x[1:]
            history_z = history_z[1:]
        return self._decide(
            packed_majority(history_x),
            packed_majority(history_z),
            x_rounds[-1],
            z_rounds[-1],
        )

    # ------------------------------------------------------------------
    def _decide(
        self,
        voted_x_words: np.ndarray,
        voted_z_words: np.ndarray,
        last_x_words: np.ndarray,
        last_z_words: np.ndarray,
    ) -> BatchedWindowDecision:
        # Table gather: X-type syndromes select Z corrections and vice
        # versa, exactly the TwoLutDecoder pairing.
        packed_x = pack_syndromes_words(voted_x_words, self.num_shots)
        packed_z = pack_syndromes_words(voted_z_words, self.num_shots)
        z_corrections = self._z_error_table[packed_x]
        x_corrections = self._x_error_table[packed_z]
        # Carry-state: the stored newest round is re-expressed in the
        # corrected frame — commanded Z corrections flip X-check
        # parities and commanded X corrections flip Z-check parities.
        self._previous_x_words = last_x_words ^ pack_bits(
            _syndromes_of(self.x_check_matrix, z_corrections).T
        )
        self._previous_z_words = last_z_words ^ pack_bits(
            _syndromes_of(self.z_check_matrix, x_corrections).T
        )
        has_corrections = x_corrections.any(axis=1) | z_corrections.any(
            axis=1
        )
        t = telemetry.ACTIVE
        if t is not None:
            name = type(self).__name__
            t.count("decoder.batched", name, "batch_decisions")
            t.count("decoder.batched", name, "shots", self.num_shots)
            t.count(
                "decoder.batched",
                name,
                "x_correction_weight",
                int(x_corrections.sum()),
            )
            t.count(
                "decoder.batched",
                name,
                "z_correction_weight",
                int(z_corrections.sum()),
            )
        return BatchedWindowDecision(
            x_corrections=x_corrections,
            z_corrections=z_corrections,
            has_corrections=has_corrections,
            voted_x=unpack_syndromes(
                packed_x, self.x_check_matrix.shape[0]
            ),
            voted_z=unpack_syndromes(
                packed_z, self.z_check_matrix.shape[0]
            ),
        )

    def reset(self) -> None:
        """Forget all history (before re-initializing the batch)."""
        self._previous_x_words = None
        self._previous_z_words = None


def _syndromes_of(
    check_matrix: np.ndarray, errors: np.ndarray
) -> np.ndarray:
    """Batched ``H @ e mod 2``: ``(shots, n)`` errors to syndromes."""
    return (
        (errors.astype(np.uint8) @ check_matrix.T) & 1
    ).astype(bool)
