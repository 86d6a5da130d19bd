"""The required equivalence gate for the batched LER decode path.

`BatchedLerExperiment` decodes every shot at once with the word-plane
:class:`~repro.decoders.batched.PackedWindowedLutDecoder`.  The
reference is the pre-vectorization protocol: one scalar
:class:`~repro.decoders.rule_based.WindowedLutDecoder` per shot,
swapped in here behind the same interface (:class:`PerShotDecoder`).
Because decoder decisions feed back into the core's frame state, any
divergence — in the tables, the vote, the carry-state or the
correction masks — cascades into different syndrome streams, so
comparing final :class:`~repro.experiments.results.BatchCounts` bit
for bit is a complete end-to-end check of the batched hot path.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.codes.surface17 import X_CHECK_MATRIX, Z_CHECK_MATRIX
from repro.decoders import (
    BatchedWindowDecision,
    PackedWindowedLutDecoder,
    SyndromeRound,
    WindowedLutDecoder,
    clear_lut_cache,
)
from repro.experiments.ler import BatchedLerExperiment
from repro.sim.packedsim import unpack_bits


class PerShotDecoder:
    """One scalar windowed LUT decoder per shot, consuming the packed
    decoder's ``(rounds, checks, num_words)`` word planes."""

    def __init__(self, num_shots, use_majority_vote=True):
        self.num_shots = num_shots
        self.decoders = [
            WindowedLutDecoder(
                X_CHECK_MATRIX,
                Z_CHECK_MATRIX,
                use_majority_vote=use_majority_vote,
            )
            for _ in range(num_shots)
        ]

    def reset(self):
        for decoder in self.decoders:
            decoder.reset()

    def initialize(self, x_rounds, z_rounds):
        return self._decide("initialize", x_rounds, z_rounds)

    def decode_window(self, x_rounds, z_rounds):
        return self._decide("decode_window", x_rounds, z_rounds)

    def _decide(self, method, x_words, z_words):
        x_bits = unpack_bits(x_words, self.num_shots)
        z_bits = unpack_bits(z_words, self.num_shots)
        decisions = [
            getattr(decoder, method)(
                [
                    SyndromeRound(
                        x_syndrome=x_bits[index, :, shot],
                        z_syndrome=z_bits[index, :, shot],
                    )
                    for index in range(x_bits.shape[0])
                ]
            )
            for shot, decoder in enumerate(self.decoders)
        ]
        return BatchedWindowDecision(
            x_corrections=np.stack(
                [d.x_corrections for d in decisions]
            ).astype(bool),
            z_corrections=np.stack(
                [d.z_corrections for d in decisions]
            ).astype(bool),
            has_corrections=np.array(
                [d.has_corrections for d in decisions]
            ),
            voted_x=np.stack([d.voted.x_syndrome for d in decisions]),
            voted_z=np.stack([d.voted.z_syndrome for d in decisions]),
        )


def _counts(decoder_impl, seed, per=8e-3, use_frame=True, kind="x", **kw):
    """``decoder_impl="per-shot"`` swaps in :class:`PerShotDecoder`."""
    num_shots = kw.pop("num_shots", 6)
    experiment = BatchedLerExperiment(
        per,
        num_shots=num_shots,
        use_pauli_frame=use_frame,
        error_kind=kind,
        windows=kw.pop("windows", 8),
        seed=seed,
        decoder_impl="lut" if decoder_impl == "per-shot" else decoder_impl,
        **kw,
    )
    if decoder_impl == "per-shot":
        experiment.decoder = PerShotDecoder(
            num_shots, kw.get("use_majority_vote", True)
        )
    return experiment.run_counts()


def _assert_identical(batched, per_shot):
    assert np.array_equal(batched.logical_errors, per_shot.logical_errors)
    assert np.array_equal(batched.clean_windows, per_shot.clean_windows)
    assert np.array_equal(
        batched.corrections_commanded, per_shot.corrections_commanded
    )


class TestBitIdenticalCounts:
    @pytest.mark.parametrize("seed", [0, 7, 2017])
    @pytest.mark.parametrize("use_frame", [False, True])
    def test_both_arms(self, seed, use_frame):
        _assert_identical(
            _counts("lut", seed, use_frame=use_frame),
            _counts("per-shot", seed, use_frame=use_frame),
        )

    @pytest.mark.parametrize("kind", ["x", "z"])
    def test_both_error_kinds(self, kind):
        _assert_identical(
            _counts("lut", 42, kind=kind),
            _counts("per-shot", 42, kind=kind),
        )

    def test_single_shot_batch(self):
        _assert_identical(
            _counts("lut", 3, num_shots=1),
            _counts("per-shot", 3, num_shots=1),
        )

    def test_without_majority_vote(self):
        _assert_identical(
            _counts("lut", 5, use_majority_vote=False),
            _counts("per-shot", 5, use_majority_vote=False),
        )

    def test_three_round_windows(self):
        """Odd window size exercises the drop-oldest vote rule."""
        _assert_identical(
            _counts("lut", 6, rounds_per_window=3),
            _counts("per-shot", 6, rounds_per_window=3),
        )

    def test_wider_batch_near_threshold(self):
        _assert_identical(
            _counts("lut", 1, per=2e-2, num_shots=20, windows=6),
            _counts("per-shot", 1, per=2e-2, num_shots=20, windows=6),
        )


class TestDecoderImplWiring:
    def test_invalid_decoder_impl_rejected(self):
        with pytest.raises(ValueError):
            BatchedLerExperiment(
                5e-3, num_shots=2, decoder_impl="quantum"
            )

    def test_default_decoder_is_one_packed_lut_decoder(self):
        experiment = BatchedLerExperiment(5e-3, num_shots=4, seed=0)
        assert experiment.decoder_impl == "lut"
        assert isinstance(experiment.decoder, PackedWindowedLutDecoder)
        assert experiment.decoder.num_shots == 4

    def test_lut_built_once_per_process_not_per_shot(self):
        """O(shots) brute-force builds collapse to O(1) cached ones."""
        clear_lut_cache()
        with telemetry.enabled() as collector:
            BatchedLerExperiment(5e-3, num_shots=50, seed=0)
        counters = collector.counters[("decoder.batched", "lut_cache")]
        assert counters["misses"] == 2  # one build per check species
        with telemetry.enabled() as collector:
            BatchedLerExperiment(5e-3, num_shots=50, seed=1)
        counters = collector.counters[("decoder.batched", "lut_cache")]
        assert counters == {"hits": 2}

    def test_batched_run_emits_batch_decode_spans(self):
        with telemetry.enabled() as collector:
            BatchedLerExperiment(
                5e-3, num_shots=3, windows=4, seed=9
            ).run_counts()
        key = (
            "decoder.batched",
            "PackedWindowedLutDecoder.decode_window",
        )
        assert collector.span_totals[key][0] == 4
        counters = collector.counters[
            ("decoder.batched", "PackedWindowedLutDecoder")
        ]
        assert counters["batch_decisions"] == 5  # init + 4 windows
        assert counters["shots"] == 15
