"""PER sweeps: the data behind Figs 5.11-5.26.

The paper sweeps the Physical Error Rate and, for every value, runs
several independent LER simulations with and without a Pauli frame.
This module orchestrates such sweeps and packages the per-point
comparisons, savings statistics and summary series that the benchmark
harness prints as the paper's figure data.

The paper's full scale (PER from 1e-4 to 1e-2 in 1e-4 steps, 10-20
seeds, 50 logical errors per run) takes CPU-days in pure Python; the
sweep therefore takes all scale knobs as parameters and the benchmarks
run a reduced grid that still exhibits the shapes: LER(+PF) = LER(-PF)
within noise, rho values scattered around 0.5, slot savings below 6%.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .ler import run_ler_point
from .results import RunResult, SweepPointResult, SweepResult
from .stats import compare_point


#: Seed offset of the with-frame arm relative to the without-frame arm
#: at the same sweep point.
ARM_SEED_OFFSET = 5_000
#: Seed stride between consecutive sweep points.
POINT_SEED_STRIDE = 10_000


def point_base_seed(seed: int, point_index: int) -> int:
    """Base seed of sweep point ``point_index`` (without-frame arm).

    The with-frame arm of the same point uses
    ``point_base_seed(...) + ARM_SEED_OFFSET``.  Shared by the
    sequential sweep below and the shot-sharded parallel engine
    (:mod:`repro.experiments.parallel`) so both derive their RNG trees
    from the same per-point entropy.
    """
    return seed + POINT_SEED_STRIDE * point_index


def build_sweep_point(
    physical_error_rate: float,
    without_frame: List[RunResult],
    with_frame: List[RunResult],
    decoder: Optional[str] = None,
) -> SweepPointResult:
    """Package both arms of one PER value into a
    :class:`~repro.experiments.results.SweepPointResult`."""
    return SweepPointResult(
        physical_error_rate=physical_error_rate,
        without_frame=without_frame,
        with_frame=with_frame,
        comparison=compare_point(without_frame, with_frame),
        decoder=decoder,
    )


def run_ler_sweep(
    per_values: Sequence[float],
    error_kind: str = "x",
    samples: int = 10,
    max_logical_errors: int = 50,
    seed: int = 0,
    max_windows: int = 2_000_000,
    batch_windows: Optional[int] = None,
    decoder_impl: str = "lut",
    engine: str = "exact",
    decoder_params: Optional[dict] = None,
) -> SweepResult:
    """Run the full with/without-frame sweep.

    Parameters mirror the paper: ``samples`` independent simulations
    per PER (10 for the broad sweep, 20 near the pseudo-threshold),
    each terminated at ``max_logical_errors`` logical errors.

    With ``batch_windows`` set, every point uses the batched sampler
    (:class:`~repro.experiments.ler.BatchedLerExperiment`):
    ``samples`` becomes the number of lockstep shots per arm and each
    shot runs exactly ``batch_windows`` windows, so far larger shot
    counts per PER become affordable.  ``decoder_impl`` then names a
    registry decoder (:mod:`repro.decoders.registry`) — ``"lut"``
    (the default), ``"mwpm"``, ``"unionfind"`` or ``"sparse-mwpm"``;
    ``decoder_params`` forwards keyword arguments to the decoder's
    builder.  ``engine`` selects the frame engine — ``"exact"`` (the
    default) or ``"fast"`` (statistically identical).
    """
    from ..decoders.registry import (
        format_decoder_arg,
        resolve_decoder_name,
    )

    decoder_label = (
        format_decoder_arg(
            resolve_decoder_name(decoder_impl), decoder_params or {}
        )
        if batch_windows is not None
        else None
    )
    sweep = SweepResult(error_kind=error_kind)
    for index, per in enumerate(per_values):
        base_seed = point_base_seed(seed, index)
        without = run_ler_point(
            per,
            use_pauli_frame=False,
            error_kind=error_kind,
            samples=samples,
            max_logical_errors=max_logical_errors,
            seed=base_seed,
            max_windows=max_windows,
            batch_windows=batch_windows,
            decoder_impl=decoder_impl,
            engine=engine,
            decoder_params=decoder_params,
        )
        with_frame = run_ler_point(
            per,
            use_pauli_frame=True,
            error_kind=error_kind,
            samples=samples,
            max_logical_errors=max_logical_errors,
            seed=base_seed + ARM_SEED_OFFSET,
            max_windows=max_windows,
            batch_windows=batch_windows,
            decoder_impl=decoder_impl,
            engine=engine,
            decoder_params=decoder_params,
        )
        sweep.points.append(
            build_sweep_point(
                per, without, with_frame, decoder=decoder_label
            )
        )
    return sweep


def format_sweep_table(sweep: SweepResult) -> str:
    """Render a sweep like the combined plots (Figs 5.15/5.16)."""
    lines = [
        "PER        LER(no PF)   LER(PF)      delta        sigma_max  "
        "rho_ind  saved_slots%",
    ]
    for point in sweep.points:
        lines.append(
            f"{point.physical_error_rate:9.2e}  "
            f"{point.mean_ler_without:11.4e}  "
            f"{point.mean_ler_with:11.4e}  "
            f"{point.comparison.delta_ler:+11.4e}  "
            f"{point.comparison.sigma_max:9.3e}  "
            f"{point.comparison.rho_independent:7.3f}  "
            f"{100.0 * point.mean_saved_slots:11.3f}"
        )
    return "\n".join(lines)


#: Historical result-class names (pre unified results API).
_DEPRECATED_RESULTS = {
    "SweepPoint": SweepPointResult,
    "LerSweep": SweepResult,
}


def __getattr__(name: str):
    if name in _DEPRECATED_RESULTS:
        from .results import deprecated_alias

        return deprecated_alias(
            __name__, name, _DEPRECATED_RESULTS[name]
        )
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
