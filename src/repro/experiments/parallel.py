"""Shot-sharded parallel LER sweeps with checkpoint/resume.

The paper's headline evaluation (Figs 5.17-5.24) wants tens of
thousands of decode-and-correct windows per (PER, frame-arm) point.
PR 1's batched sampler made a single process fast; this module scales
*across* processes the way Stim does (Gidney, Quantum 5, 497):
logical-error-rate sampling is embarrassingly parallel over shots, so
every sweep point is split into fixed-size **shards** that execute
independently on a worker pool.

Three properties are load-bearing:

* **Determinism regardless of worker count.**  A shard's entire RNG
  tree derives from ``(arm_seed, shard_index)`` — nothing else.  The
  aggregate is assembled from shard records *in shard-index order*, so
  1, 4 or 40 workers (or a resumed run) produce bit-identical
  per-shard records and bit-identical final numbers.

* **Checkpoint/resume.**  With a checkpoint path, every completed
  shard is appended to a JSON-lines file as one atomic line (single
  ``write`` + flush + fsync).  A killed sweep resumes by replaying the
  recorded shards and executing only the missing ones; the final
  result is identical to an uninterrupted run.  A header line pins the
  result-affecting configuration so a stale checkpoint cannot silently
  poison a different sweep.

* **Online aggregation with optional early stopping.**  Shard records
  stream into per-arm Wilson-interval trackers
  (:func:`repro.experiments.stats.wilson_interval`); with a
  ``target_ci``, an arm stops once the pooled LER's CI half-width at
  the *committed frontier* meets the target.  The frontier rule keeps
  early stopping deterministic: the committed shard set is the
  shortest prefix (in shard-index order) satisfying the target, no
  matter how many extra shards happened to finish on a wide pool.

Shards run either the batched lockstep sampler
(:class:`~repro.experiments.ler.BatchedLerExperiment`, ``mode="batch"``)
or the per-shot tableau loop
(:class:`~repro.experiments.ler.LerExperiment`, ``mode="loop"``).
"""

from __future__ import annotations

import json
import math
import multiprocessing as mp
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.packedsim import resolve_engine
from .. import telemetry
from .ler import (
    DEFAULT_BATCH_WINDOWS,
    BatchedLerExperiment,
    LerExperiment,
)
from .results import RunResult, ShardResult, SweepResult
from .stats import StreamingSummary, wilson_halfwidth, wilson_interval
from .sweep import (
    ARM_SEED_OFFSET,
    build_sweep_point,
    point_base_seed,
)

#: Format version of the JSON-lines checkpoint.  Version 2 records
#: come from structure-keyed reference trajectories; version 1
#: records came from seed-keyed references, can differ bit for bit and
#: are refused.
CHECKPOINT_VERSION = 2

#: Largest shard :func:`auto_shard_shots` picks.  With the reference
#: shared per process a shard's fixed cost is small, and the cap keeps
#: shards fine enough for worker load balance, ``--target-ci`` early
#: stopping and checkpoint granularity.
MAX_AUTO_SHARD_SHOTS = 4096


class CheckpointError(ValueError):
    """A checkpoint cannot be resumed: foreign, stale or corrupt."""


class PoolShutdownError(RuntimeError):
    """The shared worker pool was shut down while a sweep was draining.

    Raised instead of hanging: ``ProcessPoolExecutor.shutdown(
    cancel_futures=True)`` moves queued work-item futures to
    ``CANCELLED`` without notifying waiters (CPython never calls
    ``set_running_or_notify_cancel`` on them), so a concurrent
    ``concurrent.futures.wait`` would block forever.  Callers that own
    the pool (``repro serve``) treat this as shutdown collateral — the
    checkpoint keeps the committed shards and a later resume finishes
    the run bit-identically.
    """

#: Arm identifier used in records and keys.
ArmKey = Tuple[int, bool]


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardSpec:
    """One unit of work: a fixed block of shots of one (PER, arm).

    Everything that determines the shard's random stream is in here,
    and nothing else is: the shard seed is ``(arm_seed, shard_index)``
    (plus the in-shard shot index in loop mode), so the record a shard
    produces is a pure function of its spec.
    """

    point_index: int
    physical_error_rate: float
    use_pauli_frame: bool
    shard_index: int
    shots: int
    error_kind: str
    mode: str  # "batch" or "loop"
    windows: int  # batch mode: windows per shot; loop mode: 0
    max_logical_errors: int
    max_windows: int
    arm_seed: int
    #: Frame engine (RNG mode) of batch-mode shards, canonical name:
    #: "exact" or "fast" (:func:`~repro.sim.packedsim.resolve_engine`).
    engine: str = "exact"
    #: Registry decoder of batch-mode shards (canonical name; see
    #: :mod:`repro.decoders.registry`).  Decoding consumes no RNG, so
    #: the shard stream is decoder-independent — but the *records* are
    #: not (corrections differ), so the decoder is pinned per shard.
    decoder: str = "lut"
    #: Decoder builder keyword arguments as sorted ``(key, value)``
    #: pairs (a tuple keeps the spec hashable and frozen).
    decoder_params: Tuple = ()

    @property
    def key(self) -> Tuple[int, bool, int]:
        return (self.point_index, self.use_pauli_frame, self.shard_index)

    @property
    def arm_key(self) -> ArmKey:
        return (self.point_index, self.use_pauli_frame)

    @property
    def shard_seed(self) -> Tuple[int, int]:
        """Entropy of this shard's RNG tree (worker-count independent)."""
        return (self.arm_seed, self.shard_index)


def auto_shard_shots(shots: int) -> int:
    """The default shard size for ``shots`` shots per arm.

    The smallest multiple of 64 (one packed frame word) holding all of
    ``shots``, capped at :data:`MAX_AUTO_SHARD_SHOTS`.  A pure function
    of ``shots`` and never of the worker count: shard boundaries fix
    the shard seeds, so this keeps records bit-identical for any
    ``workers``.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    return min(MAX_AUTO_SHARD_SHOTS, -(-shots // 64) * 64)


def plan_shards(
    per_values: Sequence[float],
    error_kind: str,
    shots: int,
    shard_shots: int,
    windows: Optional[int],
    seed: int,
    max_logical_errors: int = 50,
    max_windows: int = 2_000_000,
    engine: str = "exact",
    decoder: str = "lut",
    decoder_params: Optional[Dict] = None,
) -> List[ShardSpec]:
    """The full deterministic shard schedule of a sweep.

    ``shots`` per arm are split into ``ceil(shots / shard_shots)``
    shards; the last shard takes the remainder.  ``windows`` selects
    batch mode (fixed windows per shot); ``None`` selects the per-shot
    tableau loop terminated at ``max_logical_errors``.  ``engine``
    selects the batch-mode frame engine and ``decoder`` the
    registry decoder (the loop mode has neither a batched core nor
    decoder selection and accepts only the defaults).
    """
    from ..decoders.registry import resolve_decoder_name

    if shots < 1:
        raise ValueError("shots must be positive")
    if shard_shots < 1:
        raise ValueError("shard_shots must be positive")
    engine = resolve_engine(engine)
    decoder = resolve_decoder_name(decoder)
    params = tuple(sorted((decoder_params or {}).items()))
    mode = "batch" if windows is not None else "loop"
    if mode == "batch" and windows < 1:
        raise ValueError("windows must be positive in batch mode")
    if mode == "loop" and engine != "exact":
        raise ValueError(
            "the per-shot loop mode has no batched core; "
            "engine selection requires batch mode (windows set)"
        )
    if mode == "loop" and (decoder != "lut" or params):
        raise ValueError(
            "the per-shot loop mode has a fixed decoder; "
            "decoder selection requires batch mode (windows set)"
        )
    specs: List[ShardSpec] = []
    num_shards = math.ceil(shots / shard_shots)
    for index, per in enumerate(per_values):
        base = point_base_seed(seed, index)
        for use_frame in (False, True):
            arm_seed = base + (ARM_SEED_OFFSET if use_frame else 0)
            remaining = shots
            for shard in range(num_shards):
                take = min(shard_shots, remaining)
                remaining -= take
                specs.append(
                    ShardSpec(
                        point_index=index,
                        physical_error_rate=float(per),
                        use_pauli_frame=use_frame,
                        shard_index=shard,
                        shots=take,
                        error_kind=error_kind,
                        mode=mode,
                        windows=int(windows) if mode == "batch" else 0,
                        max_logical_errors=int(max_logical_errors),
                        max_windows=int(max_windows),
                        arm_seed=arm_seed,
                        engine=engine,
                        decoder=decoder,
                        decoder_params=params,
                    )
                )
    return specs


# ----------------------------------------------------------------------
# Shard execution
# ----------------------------------------------------------------------
def run_shard(spec: ShardSpec) -> ShardResult:
    """Execute one shard; pure function of its spec.

    This is the function worker processes run.  Batch mode drives one
    :class:`BatchedLerExperiment` over the shard's shots in lockstep;
    loop mode runs ``spec.shots`` independent per-shot tableau
    experiments, each seeded by ``(arm_seed, shard_index, shot)``.
    """
    t = telemetry.ACTIVE
    if t is None:
        return _run_shard(spec)
    with t.span(
        "parallel",
        "run_shard",
        point_index=spec.point_index,
        use_pauli_frame=spec.use_pauli_frame,
        shard_index=spec.shard_index,
        shots=spec.shots,
        mode=spec.mode,
    ):
        return _run_shard(spec)


def _run_shard(spec: ShardSpec) -> ShardResult:
    if spec.mode == "batch":
        counts = BatchedLerExperiment(
            spec.physical_error_rate,
            num_shots=spec.shots,
            use_pauli_frame=spec.use_pauli_frame,
            error_kind=spec.error_kind,
            windows=spec.windows,
            seed=spec.shard_seed,
            engine=spec.engine,
            decoder_impl=spec.decoder,
            decoder_params=dict(spec.decoder_params),
        ).run_counts()
        return ShardResult(
            point_index=spec.point_index,
            physical_error_rate=spec.physical_error_rate,
            use_pauli_frame=spec.use_pauli_frame,
            shard_index=spec.shard_index,
            shots=spec.shots,
            error_kind=spec.error_kind,
            mode=spec.mode,
            windows=spec.windows,
            shot_errors=[int(v) for v in counts.logical_errors],
            shot_windows=[spec.windows] * spec.shots,
            shot_clean=[int(v) for v in counts.clean_windows],
            shot_corrections=[
                int(v) for v in counts.corrections_commanded
            ],
        )
    if spec.mode != "loop":
        raise ValueError(f"unknown shard mode {spec.mode!r}")
    errors: List[int] = []
    windows: List[int] = []
    clean: List[int] = []
    corrections: List[int] = []
    for shot in range(spec.shots):
        result = LerExperiment(
            spec.physical_error_rate,
            use_pauli_frame=spec.use_pauli_frame,
            error_kind=spec.error_kind,
            max_logical_errors=spec.max_logical_errors,
            max_windows=spec.max_windows,
            seed=(spec.arm_seed, spec.shard_index, shot),
        ).run()
        errors.append(result.logical_errors)
        windows.append(result.windows)
        clean.append(result.clean_windows)
        corrections.append(result.corrections_commanded)
    return ShardResult(
        point_index=spec.point_index,
        physical_error_rate=spec.physical_error_rate,
        use_pauli_frame=spec.use_pauli_frame,
        shard_index=spec.shard_index,
        shots=spec.shots,
        error_kind=spec.error_kind,
        mode=spec.mode,
        windows=spec.windows,
        shot_errors=errors,
        shot_windows=windows,
        shot_clean=clean,
        shot_corrections=corrections,
    )


# ----------------------------------------------------------------------
# Online aggregation with a deterministic early-stop frontier
# ----------------------------------------------------------------------
class ArmAggregator:
    """Order-committing accumulator of one arm's shard records.

    Records may *arrive* in any order (workers race), but they are
    *committed* strictly in shard-index order.  Early stopping is
    evaluated only at the committed frontier, so the set of committed
    shards — and therefore every downstream number — is independent of
    worker count and of how a resumed run interleaved with the
    original.  Records beyond a satisfied frontier are discarded.
    """

    def __init__(
        self,
        num_shards: int,
        target_halfwidth: Optional[float] = None,
        confidence: float = 0.95,
    ) -> None:
        self.num_shards = int(num_shards)
        self.target_halfwidth = target_halfwidth
        self.confidence = float(confidence)
        self.committed: List[ShardResult] = []
        self.errors = 0
        self.windows = 0
        self.satisfied = False
        self._pending: Dict[int, ShardResult] = {}

    @property
    def next_index(self) -> int:
        """Shard index the frontier is waiting for."""
        return len(self.committed)

    @property
    def done(self) -> bool:
        """Whether this arm needs no further shards."""
        return self.satisfied or self.next_index >= self.num_shards

    def halfwidth(self) -> float:
        """Wilson CI half-width of the committed pooled LER."""
        return wilson_halfwidth(
            self.errors, self.windows, self.confidence
        )

    def wilson(self) -> Tuple[float, float]:
        """Wilson CI of the committed pooled LER."""
        return wilson_interval(
            self.errors, self.windows, self.confidence
        )

    @property
    def pooled_ler(self) -> float:
        if self.windows == 0:
            return 0.0
        return self.errors / self.windows

    def add(self, record: ShardResult) -> None:
        """Stash a record; commit every in-order shard now available."""
        if record.shard_index < self.next_index or self.done:
            return  # duplicate (resume replay) or beyond the frontier
        self._pending[record.shard_index] = record
        while not self.done and self.next_index in self._pending:
            committed = self._pending.pop(self.next_index)
            self.committed.append(committed)
            self.errors += committed.total_errors
            self.windows += committed.total_windows
            if (
                self.target_halfwidth is not None
                and self.windows > 0
                and self.halfwidth() <= self.target_halfwidth
            ):
                self.satisfied = True
        if self.done:
            self._pending.clear()

    def results(self) -> List[RunResult]:
        """Per-shot results of the committed shards, in shard order."""
        results: List[RunResult] = []
        for record in self.committed:
            results.extend(record.to_results())
        return results

    def summary(self) -> StreamingSummary:
        """Streaming summary over the committed shards."""
        if not self.committed:
            raise ValueError("no committed shards")
        first = self.committed[0]
        summary = StreamingSummary(
            physical_error_rate=first.physical_error_rate,
            use_pauli_frame=first.use_pauli_frame,
        )
        for record in self.committed:
            summary.add_shots(record.shot_errors, record.shot_windows)
        return summary


# ----------------------------------------------------------------------
# Checkpointing (JSON lines, atomic append)
# ----------------------------------------------------------------------
class AtomicJsonLinesWriter:
    """Append-only JSON-lines file with kill-safe line writes.

    Each record is written as exactly one line in a single ``write``
    call followed by flush + fsync, so a kill between records leaves a
    parseable file and a kill mid-write leaves at most one truncated
    final line (which loaders tolerate and drop).  This is the storage
    primitive shared by the sweep checkpoint below and the serve
    layer's job journal (:mod:`repro.serve.jobs`).
    """

    def __init__(self, path: str, append: bool) -> None:
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        if append and os.path.exists(path):
            self._drop_torn_tail(path)
        self._handle = open(path, "a" if append else "w")

    @staticmethod
    def _drop_torn_tail(path: str) -> None:
        """Truncate a half-written final line before appending.

        A kill mid-write leaves the file without a trailing newline;
        that fragment was never a complete record (the loader already
        ignores it), so appending must first cut it off rather than
        concatenate onto it.
        """
        with open(path, "rb+") as handle:
            data = handle.read()
            if data and not data.endswith(b"\n"):
                handle.truncate(data.rfind(b"\n") + 1)

    def write_line(self, line: str) -> None:
        """Append one complete line atomically (write+flush+fsync)."""
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        self._handle.close()


class CheckpointWriter(AtomicJsonLinesWriter):
    """Append-only JSON-lines sweep checkpoint (header + shard lines)."""

    def write_header(self, config: Dict) -> None:
        payload = {
            "kind": "header",
            "version": CHECKPOINT_VERSION,
            "config": config,
        }
        self.write_line(json.dumps(payload, sort_keys=True))

    def write_record(self, record: ShardResult) -> None:
        self.write_line(record.to_json())


def load_checkpoint(
    path: str,
) -> Tuple[Optional[Dict], List[ShardResult]]:
    """Read a checkpoint file back into (header config, records).

    A truncated final line (the signature of a kill mid-write) is
    dropped; a malformed line anywhere else raises, because it means
    the file is not one of ours.
    """
    header: Optional[Dict] = None
    records: List[ShardResult] = []
    with open(path) as handle:
        lines = handle.read().split("\n")
    for number, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            if number == len(lines) - 1:
                break  # torn final line from an interrupted write
            raise CheckpointError(
                f"{path}:{number + 1}: malformed checkpoint line"
            )
        kind = payload.get("kind")
        if kind == "header":
            if payload.get("version") != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"{path}: checkpoint version "
                    f"{payload.get('version')!r} is not "
                    f"{CHECKPOINT_VERSION}; its records cannot be "
                    "resumed (run again without --resume)"
                )
            header = payload.get("config")
        elif kind == "shard":
            records.append(ShardResult.from_json_dict(payload))
        else:
            raise CheckpointError(
                f"{path}:{number + 1}: unknown record kind {kind!r}"
            )
    return header, records


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ParallelConfig:
    """Execution knobs of the parallel sweep engine.

    None of these affect the physics: the shard records are a pure
    function of the sweep parameters, so workers / checkpointing /
    early-stop targets can vary between runs without changing any
    committed number (early stopping changes *how many* shards are
    committed, deterministically, never their content).
    """

    workers: int = 1
    #: Shots per shard; ``None`` derives it from the shot count
    #: (:func:`auto_shard_shots`).
    shard_shots: Optional[int] = None
    checkpoint: Optional[str] = None
    resume: bool = False
    target_ci: Optional[float] = None
    confidence: float = 0.95


@dataclass
class ParallelSweepReport:
    """A finished parallel sweep: the figure data plus run metadata."""

    sweep: SweepResult
    arms: Dict[ArmKey, ArmAggregator]
    total_shards: int
    executed_shards: int
    resumed_shards: int

    @property
    def committed_shards(self) -> int:
        return sum(len(a.committed) for a in self.arms.values())

    def arm(self, point_index: int, use_pauli_frame: bool) -> ArmAggregator:
        return self.arms[(point_index, use_pauli_frame)]


def _checkpoint_config(
    per_values: Sequence[float],
    error_kind: str,
    shots: int,
    shard_shots: int,
    windows: Optional[int],
    seed: int,
    max_logical_errors: int,
    max_windows: int,
    engine: str = "exact",
    decoder: str = "lut",
    decoder_params: Optional[Dict] = None,
) -> Dict:
    """The result-affecting configuration pinned in the header.

    ``workers``, ``target_ci`` and the checkpoint path itself are
    deliberately absent: they do not change shard contents, so a
    resume may legally use different values for them.  The engine is
    pinned as its *RNG stream* — its canonical name — so a sweep
    checkpointed under a legacy engine name resumes under the
    canonical one; ``exact`` and ``fast`` draw different streams, so
    a checkpoint of one is refused by the other.  The
    decoder is pinned only when it is not the historical default
    (``lut``, no params), so pre-registry checkpoints keep resuming.
    """
    from ..decoders.registry import (
        format_decoder_arg,
        resolve_decoder_name,
    )

    config = {
        "per_values": [float(p) for p in per_values],
        "error_kind": error_kind,
        "shots": int(shots),
        "shard_shots": int(shard_shots),
        "windows": None if windows is None else int(windows),
        "seed": int(seed),
        "max_logical_errors": int(max_logical_errors),
        "max_windows": int(max_windows),
        "rng_stream": resolve_engine(engine),
    }
    decoder = resolve_decoder_name(decoder)
    params = dict(decoder_params or {})
    if decoder != "lut" or params:
        config["decoder"] = format_decoder_arg(decoder, params)
    return config


def _pool_context() -> mp.context.BaseContext:
    """Prefer fork (cheap start) and fall back to spawn."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def _execute_shards(
    specs: Sequence[ShardSpec],
    aggregators: Dict[ArmKey, ArmAggregator],
    workers: int,
    on_record: Callable[[ShardResult], None],
    pool: Optional[ProcessPoolExecutor] = None,
) -> int:
    """Run the outstanding shards; returns how many executed.

    ``workers <= 1`` runs inline in spec order, which doubles as the
    reference path for the determinism guarantees.  With a pool, all
    outstanding shards are submitted up front and results stream back
    as they finish; shards of arms whose frontier is already satisfied
    are cancelled where possible and discarded otherwise.

    An external ``pool`` (a long-lived executor such as the serve
    layer's :class:`~repro.serve.workers.WorkerFleet`) is used as-is
    and **not** shut down — its processes outlive the sweep, which is
    what keeps their LUT and reference-trace caches warm across jobs.
    Without one, ``workers > 1`` creates a throwaway pool.
    """
    executed = 0
    t = telemetry.ACTIVE
    if pool is None and workers <= 1:
        for spec in specs:
            if aggregators[spec.arm_key].done:
                continue
            if t is not None:
                t.event(
                    "parallel",
                    "shard_dispatch",
                    point_index=spec.point_index,
                    use_pauli_frame=spec.use_pauli_frame,
                    shard_index=spec.shard_index,
                    shots=spec.shots,
                )
            on_record(run_shard(spec))
            executed += 1
        return executed

    def _drain(pool: ProcessPoolExecutor) -> int:
        executed = 0
        future_specs = {}
        for spec in specs:
            if aggregators[spec.arm_key].done:
                continue
            if t is not None:
                t.event(
                    "parallel",
                    "shard_dispatch",
                    point_index=spec.point_index,
                    use_pauli_frame=spec.use_pauli_frame,
                    shard_index=spec.shard_index,
                    shots=spec.shots,
                )
            future_specs[pool.submit(run_shard, spec)] = spec
        pending = set(future_specs)
        try:
            while pending:
                # The timeout is load-bearing: a pool shut down under
                # us (server stopping) cancels queued futures without
                # notifying waiters, so an untimed wait() never wakes.
                finished, pending = wait(
                    pending, return_when=FIRST_COMPLETED, timeout=0.5
                )
                for future in finished:
                    if future.cancelled():
                        raise PoolShutdownError(
                            "worker pool shut down mid-sweep"
                        )
                    on_record(future.result())
                    executed += 1
                if any(f.cancelled() for f in pending):
                    raise PoolShutdownError(
                        "worker pool shut down mid-sweep"
                    )
                for future in list(pending):
                    arm = future_specs[future].arm_key
                    if aggregators[arm].done and future.cancel():
                        pending.discard(future)
        finally:
            for future in pending:
                future.cancel()
        return executed

    if pool is not None:
        return _drain(pool)
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=_pool_context()
    ) as throwaway:
        return _drain(throwaway)


def run_parallel_sweep(
    per_values: Sequence[float],
    error_kind: str = "x",
    shots: int = 100,
    windows: Optional[int] = DEFAULT_BATCH_WINDOWS,
    seed: int = 0,
    config: ParallelConfig = ParallelConfig(),
    max_logical_errors: int = 50,
    max_windows: int = 2_000_000,
    engine: str = "exact",
    pool: Optional[ProcessPoolExecutor] = None,
    decoder: str = "lut",
    decoder_params: Optional[Dict] = None,
) -> ParallelSweepReport:
    """Run a full with/without-frame PER sweep, shot-sharded.

    Parameters
    ----------
    per_values:
        The PER grid, as in :func:`~repro.experiments.sweep.run_ler_sweep`.
    shots:
        Shots per (PER, arm) point, split into
        ``ceil(shots / shard_shots)`` shards, where ``shard_shots`` is
        ``config.shard_shots`` or, by default,
        :func:`auto_shard_shots` of ``shots``.
    windows:
        Windows per shot (batch mode); ``None`` switches every shard
        to the per-shot tableau loop terminated at
        ``max_logical_errors``.
    seed:
        Root seed; per-point/arm/shard entropy derives from it exactly
        as documented in :func:`plan_shards`.
    config:
        Execution knobs (:class:`ParallelConfig`).
    engine:
        Batch-mode frame engine (``"exact"`` or ``"fast"``; see
        :class:`~repro.experiments.ler.BatchedLerExperiment`).
    pool:
        Optional long-lived executor to run shards on instead of a
        per-sweep pool; it is left running afterwards (warm caches).
        ``config.workers`` is ignored when a pool is supplied.
    decoder:
        Registry decoder of batch-mode shards
        (:mod:`repro.decoders.registry`); ``decoder_params`` forwards
        keyword arguments to its builder.

    Returns a :class:`ParallelSweepReport` whose ``sweep`` is the same
    :class:`~repro.experiments.results.SweepResult` structure the
    sequential path produces, built from the committed shard records.
    """
    shard_shots = (
        config.shard_shots
        if config.shard_shots is not None
        else auto_shard_shots(shots)
    )
    specs = plan_shards(
        per_values,
        error_kind,
        shots,
        shard_shots,
        windows,
        seed,
        max_logical_errors=max_logical_errors,
        max_windows=max_windows,
        engine=engine,
        decoder=decoder,
        decoder_params=decoder_params,
    )
    num_shards = math.ceil(shots / shard_shots)
    target = config.target_ci
    aggregators: Dict[ArmKey, ArmAggregator] = {}
    for index in range(len(per_values)):
        for use_frame in (False, True):
            aggregators[(index, use_frame)] = ArmAggregator(
                num_shards,
                target_halfwidth=target,
                confidence=config.confidence,
            )
    spec_by_key = {spec.key: spec for spec in specs}
    header_config = _checkpoint_config(
        per_values,
        error_kind,
        shots,
        shard_shots,
        windows,
        seed,
        max_logical_errors,
        max_windows,
        engine=engine,
        decoder=decoder,
        decoder_params=decoder_params,
    )

    resumed = 0
    replayed_keys = set()
    resuming = (
        config.resume
        and config.checkpoint is not None
        and os.path.exists(config.checkpoint)
    )
    if resuming:
        stored_config, records = load_checkpoint(config.checkpoint)
        if stored_config != header_config:
            raise CheckpointError(
                f"checkpoint {config.checkpoint!r} was written for a "
                f"different sweep configuration; refusing to resume"
            )
        for record in records:
            spec = spec_by_key.get(record.key)
            if spec is None or spec.shots != record.shots:
                raise CheckpointError(
                    f"checkpoint {config.checkpoint!r} holds shard "
                    f"{record.key} that the planned sweep does not"
                )
            if record.key in replayed_keys:
                continue  # an interrupted resume may duplicate lines
            replayed_keys.add(record.key)
            aggregators[record.arm_key].add(record)
            resumed += 1

    writer: Optional[CheckpointWriter] = None
    if config.checkpoint is not None:
        writer = CheckpointWriter(config.checkpoint, append=resuming)
        if not resuming:
            writer.write_header(header_config)

    def on_record(record: ShardResult) -> None:
        t = telemetry.ACTIVE
        if writer is not None:
            writer.write_record(record)
            if t is not None:
                t.event(
                    "parallel",
                    "checkpoint_write",
                    path=writer.path,
                    shard_index=record.shard_index,
                )
        aggregators[record.arm_key].add(record)
        if t is not None:
            t.event(
                "parallel",
                "shard_commit",
                point_index=record.point_index,
                use_pauli_frame=record.use_pauli_frame,
                shard_index=record.shard_index,
                errors=record.total_errors,
                windows=record.total_windows,
            )

    outstanding = [
        spec for spec in specs if spec.key not in replayed_keys
    ]
    t = telemetry.ACTIVE
    try:
        if t is None:
            executed = _execute_shards(
                outstanding,
                aggregators,
                config.workers,
                on_record,
                pool=pool,
            )
        else:
            with t.span(
                "parallel",
                "run_parallel_sweep",
                points=len(per_values),
                outstanding=len(outstanding),
                workers=config.workers,
            ):
                executed = _execute_shards(
                    outstanding,
                    aggregators,
                    config.workers,
                    on_record,
                    pool=pool,
                )
    finally:
        if writer is not None:
            writer.close()

    from ..decoders.registry import (
        format_decoder_arg,
        resolve_decoder_name,
    )

    decoder_label = (
        format_decoder_arg(
            resolve_decoder_name(decoder), decoder_params or {}
        )
        if windows is not None
        else None
    )
    sweep = SweepResult(error_kind=error_kind)
    for index, per in enumerate(per_values):
        without = aggregators[(index, False)].results()
        with_frame = aggregators[(index, True)].results()
        for result in without + with_frame:
            result.decoder = decoder_label
        sweep.points.append(
            build_sweep_point(
                float(per), without, with_frame, decoder=decoder_label
            )
        )
    return ParallelSweepReport(
        sweep=sweep,
        arms=aggregators,
        total_shards=len(specs),
        executed_shards=executed,
        resumed_shards=resumed,
    )


def run_parallel_point(
    physical_error_rate: float,
    error_kind: str = "x",
    shots: int = 100,
    windows: Optional[int] = DEFAULT_BATCH_WINDOWS,
    seed: int = 0,
    config: ParallelConfig = ParallelConfig(),
    max_logical_errors: int = 50,
    max_windows: int = 2_000_000,
    engine: str = "exact",
    pool: Optional[ProcessPoolExecutor] = None,
    decoder: str = "lut",
    decoder_params: Optional[Dict] = None,
) -> ParallelSweepReport:
    """One-point convenience wrapper around :func:`run_parallel_sweep`."""
    return run_parallel_sweep(
        [physical_error_rate],
        error_kind=error_kind,
        shots=shots,
        windows=windows,
        seed=seed,
        config=config,
        max_logical_errors=max_logical_errors,
        max_windows=max_windows,
        engine=engine,
        pool=pool,
        decoder=decoder,
        decoder_params=decoder_params,
    )


#: Historical result-class names (pre unified results API).
_DEPRECATED_RESULTS = {"ShardRecord": ShardResult}


def __getattr__(name: str):
    if name in _DEPRECATED_RESULTS:
        from .results import deprecated_alias

        return deprecated_alias(
            __name__, name, _DEPRECATED_RESULTS[name]
        )
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
