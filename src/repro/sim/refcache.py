"""Process-level cache of reference-run measurement traces.

The batched engines split every experiment into a shared *noiseless
reference trajectory* on a stabilizer tableau plus per-shot Pauli
error frames; a measurement's per-shot outcomes are
``reference_bit XOR frame_flips``.  Per-shot feedback never touches
the reference: decoder corrections are frame XORs and shot-masked
noise injection is frame-only.

The reference's random measurement outcomes (gauge picks) are
unobservable: the frames re-randomize every such outcome per shot, so
the per-shot outcome distribution is the same whichever reference the
tableau happened to draw.  Stim takes a single deterministic reference
sample for the same reason.  The reference is therefore made a pure
function of the **protocol structure alone** — the non-Pauli circuit
stream the experiment executes (protocol name, error kind, window
geometry, ...).  :func:`reference_trace_key` digests that structure,
and :func:`reference_seed` derives the tableau's gauge stream from the
same digest, so every run of one structure draws one reference,
whatever its shot count, arm, noise rate, engine or experiment seed.
The per-shot frame stream stays on the experiment seed
(``_seed_sequence(seed).spawn(2)[1]``), so fault draws are untouched.

That makes the reference trace computable once per structure per
process: the first run *records* the ordered reference measurement
bits under the key and every later run *replays* them instead of
re-simulating the tableau — across shards, arms, PER points, seeds and
``repro serve`` jobs.  Record, replay and the uncached live mode give
identical bits by construction: all three run (or return the recorded
outputs of) the same deterministic function of the key.

The cache does not cover the scalar per-shot loop: there, decoder
corrections are real tableau gates, so the reference depends on the
decoded syndromes and is not a pure function of the structure.

Entries are small (one uint8 per reference measurement; a 200-window
SC17 LER run records ~5 kB) and the cache is bounded: beyond
:data:`REFERENCE_CACHE_CAPACITY` entries the oldest are evicted FIFO,
so a long-lived worker process cannot grow without bound.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from .. import telemetry
from .stabilizer import StabilizerSimulator

#: FIFO capacity of the process-level trace cache.  Each entry is a
#: few kilobytes; the bound exists so a warm serve worker that sees an
#: unbounded stream of distinct structures stays memory-flat.
REFERENCE_CACHE_CAPACITY = 1024

#: key -> frozen uint8 array of reference measurement bits, in
#: execution order.  Insertion-ordered for FIFO eviction.
_REFERENCE_CACHE: "OrderedDict[str, np.ndarray]" = OrderedDict()


def reference_trace_key(structure: Tuple) -> str:
    """Digest identifying one reference trajectory.

    ``structure`` is a JSON-safe tuple pinning everything that shapes
    the non-Pauli circuit stream (protocol name, error kind, window
    geometry, ...).  Nothing that only shapes the frames — shots, arm,
    noise rate, decoder, engine, seed — belongs in it.
    """
    payload = json.dumps(list(structure), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def reference_seed(key: str) -> np.random.SeedSequence:
    """The reference tableau's seed: the structure digest itself.

    Record, replay and live runs of one key therefore draw the same
    reference, and so give the same bits.
    """
    return np.random.SeedSequence(int(key, 16))


def lookup_reference_trace(key: str) -> Optional[np.ndarray]:
    """The cached trace of ``key``, or ``None`` on a miss.

    Emits ``sim.refcache / reference_cache`` hit/miss counters, the
    same observability contract as the dense-LUT cache.
    """
    trace = _REFERENCE_CACHE.get(key)
    t = telemetry.ACTIVE
    if t is not None:
        t.count(
            "sim.refcache",
            "reference_cache",
            "hits" if trace is not None else "misses",
        )
    return trace


def store_reference_trace(key: str, bits) -> np.ndarray:
    """Freeze and cache a recorded trace; returns the stored array."""
    trace = np.asarray(bits, dtype=np.uint8)
    trace.setflags(write=False)
    _REFERENCE_CACHE[key] = trace
    _REFERENCE_CACHE.move_to_end(key)
    while len(_REFERENCE_CACHE) > REFERENCE_CACHE_CAPACITY:
        _REFERENCE_CACHE.popitem(last=False)
    return trace


def clear_reference_cache() -> int:
    """Drop every cached trace; returns how many entries were held."""
    held = len(_REFERENCE_CACHE)
    _REFERENCE_CACHE.clear()
    return held


def reference_cache_size() -> int:
    """Number of reference traces currently cached in this process."""
    return len(_REFERENCE_CACHE)


class ReferenceTableau:
    """The batched cores' reference simulator, with record/replay.

    A facade over :class:`~repro.sim.stabilizer.StabilizerSimulator`
    presenting exactly the four calls the batched cores make
    (``add_qubits`` / ``reset`` / ``apply_gate`` / ``measure``) in one
    of three modes:

    * **live** (``key=None``) — pure passthrough, byte-for-byte the
      pre-cache behavior;
    * **record** (``key`` given, cache miss) — passthrough that logs
      every measurement's reference bit; :meth:`commit` stores the
      trace under the key;
    * **replay** (``key`` given, cache hit) — no tableau is built at
      all: gates and resets are no-ops and ``measure`` pops the next
      recorded bit.  This is the warm path — the whole noiseless
      tableau pass disappears.

    A replay that runs out of recorded bits raises ``RuntimeError``:
    it means two different circuit streams hashed to one key, which is
    a caller bug the cache must never paper over.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        key: Optional[str] = None,
    ) -> None:
        self.key = key
        self._trace = (
            lookup_reference_trace(key) if key is not None else None
        )
        self._cursor = 0
        if self._trace is None:
            self._simulator: Optional[StabilizerSimulator] = (
                StabilizerSimulator(0, rng=rng)
            )
            self._recorded: Optional[list] = (
                [] if key is not None else None
            )
        else:
            self._simulator = None
            self._recorded = None

    @property
    def replaying(self) -> bool:
        """Whether this run serves bits from a cached trace."""
        return self._trace is not None

    # -- the Core-facing surface ---------------------------------------
    def add_qubits(self, size: int) -> None:
        if self._simulator is not None:
            self._simulator.add_qubits(size)

    def reset(self, qubit: int) -> None:
        if self._simulator is not None:
            self._simulator.reset(qubit)

    def apply_gate(self, name: str, qubits) -> None:
        if self._simulator is not None:
            self._simulator.apply_gate(name, qubits)

    def measure(self, qubit: int) -> int:
        if self._trace is not None:
            if self._cursor >= len(self._trace):
                raise RuntimeError(
                    "reference trace exhausted: the executed circuit "
                    "stream measured more often than the cached run "
                    f"under key {self.key!r}"
                )
            bit = int(self._trace[self._cursor])
            self._cursor += 1
            return bit
        bit = self._simulator.measure(qubit)
        if self._recorded is not None:
            self._recorded.append(int(bit))
        return bit

    # -- lifecycle ------------------------------------------------------
    def commit(self) -> None:
        """Store a freshly recorded trace under the key.

        Call once, after the experiment's full circuit stream has
        executed.  No-op in live mode and after replay (a replayed
        trace is already cached); re-storing on a racing double-record
        is harmless because both runs record identical bits.
        """
        if self.key is not None and self._recorded is not None:
            store_reference_trace(self.key, self._recorded)
            self._recorded = None
