"""Tests for the array-native batched decoding layer.

Three pillars:

* the dense gather table is bit-identical to the dict LUT (same
  minimum-weight entries, same tie-break order) and lives behind a
  process-level cache;
* the vectorized syndrome packing round-trips and agrees with the
  scalar functions;
* :class:`PackedWindowedLutDecoder` over the LUT tables (and over the
  registry's MWPM tables) produces decisions bit-identical to running
  one scalar windowed decoder per shot on the same syndrome streams —
  including all-trivial batches, all-shots-correcting batches and
  ragged word counts.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.codes.rotated import RotatedSurfaceCode
from repro.codes.steane import HAMMING_CHECK_MATRIX
from repro.codes.surface17 import X_CHECK_MATRIX, Z_CHECK_MATRIX
from repro.decoders import (
    SyndromeRound,
    WindowedLutDecoder,
    WindowedMatchingDecoder,
    build_dense_lut,
    build_lut,
    clear_lut_cache,
    dense_lut,
    lut_cache_size,
    mwpm_dense_lut,
    pack_syndrome,
    pack_syndromes,
    syndrome_of,
    unpack_syndrome,
    unpack_syndromes,
)
from repro.decoders.batched import MAX_DENSE_CHECKS
from repro.decoders.registry import WindowContext, get_decoder
from repro.experiments.ler import sc17_window
from repro.sim.packedsim import pack_bits


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test sees (and leaves behind) an empty process cache."""
    clear_lut_cache()
    yield
    clear_lut_cache()


# ----------------------------------------------------------------------
# Vectorized packing
# ----------------------------------------------------------------------
class TestVectorizedPacking:
    def test_round_trip_2d(self):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, size=(50, 6)).astype(bool)
        packed = pack_syndromes(bits)
        assert packed.shape == (50,)
        assert np.array_equal(unpack_syndromes(packed, 6), bits)

    def test_round_trip_3d(self):
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2, size=(4, 3, 5)).astype(bool)
        assert np.array_equal(
            unpack_syndromes(pack_syndromes(bits), 5), bits
        )

    def test_agrees_with_scalar_functions(self):
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2, size=(20, 4)).astype(bool)
        packed = pack_syndromes(bits)
        for row, value in zip(bits, packed):
            assert pack_syndrome(row) == int(value)
            assert np.array_equal(
                unpack_syndrome(int(value), 4), row
            )

    def test_little_endian_bit_order(self):
        assert int(pack_syndromes(np.array([True, False, False]))) == 1
        assert int(pack_syndromes(np.array([False, False, True]))) == 4


# ----------------------------------------------------------------------
# Dense table construction + cache
# ----------------------------------------------------------------------
def _legacy_build_lut(check_matrix):
    """The pre-vectorization dict builder, kept as the test oracle."""
    import itertools

    check = np.asarray(check_matrix, dtype=np.uint8)
    num_checks, num_qubits = check.shape
    lut = {0: np.zeros(num_qubits, dtype=bool)}
    target = 2**num_checks
    for weight in range(1, num_qubits + 1):
        if len(lut) == target:
            break
        for support in itertools.combinations(
            range(num_qubits), weight
        ):
            error = np.zeros(num_qubits, dtype=np.uint8)
            error[list(support)] = 1
            packed = pack_syndrome(syndrome_of(check, error))
            if packed not in lut:
                lut[packed] = error.astype(bool)
    return lut


class TestDenseLut:
    @pytest.mark.parametrize(
        "matrix", [X_CHECK_MATRIX, Z_CHECK_MATRIX, HAMMING_CHECK_MATRIX]
    )
    def test_matches_legacy_builder(self, matrix):
        table, reachable = build_dense_lut(matrix)
        legacy = _legacy_build_lut(matrix)
        assert set(np.flatnonzero(reachable)) == set(legacy)
        for packed, error in legacy.items():
            assert np.array_equal(table[packed], error)

    def test_matches_legacy_on_random_matrices(self):
        """Same entries AND same tie-breaks on rank-deficient cases."""
        rng = np.random.default_rng(2017)
        for _ in range(25):
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 9)))
            matrix = rng.integers(0, 2, size=shape).astype(np.uint8)
            table, reachable = build_dense_lut(matrix)
            legacy = _legacy_build_lut(matrix)
            assert set(np.flatnonzero(reachable)) == set(legacy)
            for packed, error in legacy.items():
                assert np.array_equal(table[packed], error)

    def test_build_lut_dict_unchanged_api(self):
        lut = build_lut(Z_CHECK_MATRIX)
        assert len(lut) == 16
        assert not lut[0].any()
        # Entries are fresh, mutation-safe copies.
        lut[0][0] = True
        assert not build_lut(Z_CHECK_MATRIX)[0].any()

    def test_refuses_infeasible_check_counts(self):
        big = np.ones((MAX_DENSE_CHECKS + 1, 4), dtype=np.uint8)
        with pytest.raises(ValueError):
            build_dense_lut(big)


class TestLutCache:
    def test_same_matrix_shares_one_table(self):
        table_a, _ = dense_lut(X_CHECK_MATRIX)
        table_b, _ = dense_lut(np.array(X_CHECK_MATRIX))
        assert table_a is table_b
        assert lut_cache_size() == 1

    def test_cached_tables_are_frozen(self):
        table, reachable = dense_lut(X_CHECK_MATRIX)
        with pytest.raises(ValueError):
            table[0, 0] = True
        with pytest.raises(ValueError):
            reachable[0] = False

    def test_clear_forces_rebuild(self):
        table_a, _ = dense_lut(X_CHECK_MATRIX)
        assert clear_lut_cache() == 1
        assert lut_cache_size() == 0
        table_b, _ = dense_lut(X_CHECK_MATRIX)
        assert table_a is not table_b
        assert np.array_equal(table_a, table_b)

    def test_distinct_matrices_distinct_entries(self):
        dense_lut(X_CHECK_MATRIX)
        dense_lut(Z_CHECK_MATRIX)
        dense_lut(HAMMING_CHECK_MATRIX)
        assert lut_cache_size() == 3

    def test_scalar_decoders_share_the_cache(self):
        """The per-shot constructors stop rebuilding identical LUTs."""
        WindowedLutDecoder(X_CHECK_MATRIX, Z_CHECK_MATRIX)
        assert lut_cache_size() == 2
        with telemetry.enabled() as collector:
            WindowedLutDecoder(X_CHECK_MATRIX, Z_CHECK_MATRIX)
        counters = collector.counters[
            ("decoder.batched", "lut_cache")
        ]
        assert counters["hits"] == 2
        assert "misses" not in counters

    def test_cache_telemetry_counters(self):
        with telemetry.enabled() as collector:
            dense_lut(X_CHECK_MATRIX)
            dense_lut(X_CHECK_MATRIX)
            dense_lut(X_CHECK_MATRIX)
        counters = collector.counters[
            ("decoder.batched", "lut_cache")
        ]
        assert counters == {"misses": 1, "hits": 2}

    def test_mwpm_table_cached_separately_from_lut(self):
        code = RotatedSurfaceCode(3)
        from repro.decoders import boundary_qubits_for

        dense_lut(code.x_check_matrix)
        table_a, _ = mwpm_dense_lut(
            code.x_check_matrix, boundary_qubits_for(code, "x")
        )
        table_b, _ = mwpm_dense_lut(
            code.x_check_matrix, boundary_qubits_for(code, "x")
        )
        assert table_a is table_b
        assert lut_cache_size() == 2


class TestMwpmDenseTable:
    def test_rows_reproduce_mwpm_decisions(self):
        from repro.decoders import MwpmDecoder, boundary_qubits_for

        code = RotatedSurfaceCode(3)
        boundary = boundary_qubits_for(code, "z")
        table, reachable = mwpm_dense_lut(code.z_check_matrix, boundary)
        assert reachable.all()
        decoder = MwpmDecoder(code.z_check_matrix, boundary)
        num_checks = code.z_check_matrix.shape[0]
        for packed in range(1 << num_checks):
            syndrome = unpack_syndrome(packed, num_checks)
            assert np.array_equal(
                table[packed], decoder.decode(syndrome).astype(bool)
            )


# ----------------------------------------------------------------------
# Windowed decoding equivalence
# ----------------------------------------------------------------------
def _random_stream(rng, shots, rounds, num_checks, p):
    return rng.random((shots, rounds, num_checks)) < p


def _pack_rounds(rounds):
    """(shots, rounds, checks) bools -> (rounds, checks, words) uint64."""
    return pack_bits(np.asarray(rounds, dtype=bool).transpose(1, 2, 0))


def _lut(shots, use_majority_vote=True):
    """The registry's ``lut`` build for the SC17 windowed protocol."""
    window = sc17_window(shots, use_majority_vote)
    return get_decoder("lut").build(window.code, window)


def _scalar_decisions(decoders, x_rounds, z_rounds, initialize):
    """Drive one scalar decoder per shot over one window's arrays."""
    out = []
    for shot, decoder in enumerate(decoders):
        rounds = [
            SyndromeRound(
                x_syndrome=x_rounds[shot, index],
                z_syndrome=z_rounds[shot, index],
            )
            for index in range(x_rounds.shape[1])
        ]
        if initialize:
            decoder.reset()
            out.append(decoder.initialize(rounds))
        else:
            out.append(decoder.decode_window(rounds))
    return out


def _assert_window_equivalent(batched_decision, scalar_decisions):
    assert np.array_equal(
        batched_decision.x_corrections,
        np.stack([d.x_corrections for d in scalar_decisions]),
    )
    assert np.array_equal(
        batched_decision.z_corrections,
        np.stack([d.z_corrections for d in scalar_decisions]),
    )
    assert np.array_equal(
        batched_decision.has_corrections,
        np.array([d.has_corrections for d in scalar_decisions]),
    )
    assert np.array_equal(
        batched_decision.voted_x,
        np.stack([d.voted.x_syndrome for d in scalar_decisions]),
    )
    assert np.array_equal(
        batched_decision.voted_z,
        np.stack([d.voted.z_syndrome for d in scalar_decisions]),
    )


def _run_equivalence(
    make_batched,
    make_scalar,
    num_checks_x,
    num_checks_z,
    shots,
    seed,
    windows=6,
    rounds_per_window=2,
    init_rounds=3,
    p=0.25,
):
    """``make_batched(shots)`` decodes packed word planes; the same
    streams go to one ``make_scalar()`` decoder per shot as bools."""
    rng = np.random.default_rng(seed)
    batched = make_batched(shots)
    scalars = [make_scalar() for _ in range(shots)]
    init_x = _random_stream(rng, shots, init_rounds, num_checks_x, p)
    init_z = _random_stream(rng, shots, init_rounds, num_checks_z, p)
    batched.reset()
    decision = batched.initialize(_pack_rounds(init_x), _pack_rounds(init_z))
    _assert_window_equivalent(
        decision,
        _scalar_decisions(scalars, init_x, init_z, initialize=True),
    )
    for _ in range(windows):
        x_rounds = _random_stream(
            rng, shots, rounds_per_window, num_checks_x, p
        )
        z_rounds = _random_stream(
            rng, shots, rounds_per_window, num_checks_z, p
        )
        decision = batched.decode_window(
            _pack_rounds(x_rounds), _pack_rounds(z_rounds)
        )
        _assert_window_equivalent(
            decision,
            _scalar_decisions(
                scalars, x_rounds, z_rounds, initialize=False
            ),
        )


class TestPackedWindowedLutDecoder:
    @pytest.mark.parametrize("shots", [1, 5, 32, 64, 65])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equivalent_to_per_shot_decoder(self, shots, seed):
        _run_equivalence(
            _lut,
            lambda: WindowedLutDecoder(X_CHECK_MATRIX, Z_CHECK_MATRIX),
            num_checks_x=4,
            num_checks_z=4,
            shots=shots,
            seed=seed,
        )

    @pytest.mark.parametrize("shots", [8, 65])
    def test_equivalent_without_majority_vote(self, shots):
        _run_equivalence(
            lambda n: _lut(n, use_majority_vote=False),
            lambda: WindowedLutDecoder(
                X_CHECK_MATRIX, Z_CHECK_MATRIX, use_majority_vote=False
            ),
            num_checks_x=4,
            num_checks_z=4,
            shots=shots,
            seed=3,
        )

    def test_equivalent_on_odd_window_sizes(self):
        """Three fresh rounds: the even-history drop-oldest rule."""
        _run_equivalence(
            _lut,
            lambda: WindowedLutDecoder(X_CHECK_MATRIX, Z_CHECK_MATRIX),
            num_checks_x=4,
            num_checks_z=4,
            shots=7,
            seed=4,
            rounds_per_window=3,
        )

    def test_all_trivial_batch(self):
        decoder = _lut(5)
        zeros = _pack_rounds(np.zeros((5, 3, 4), dtype=bool))
        decision = decoder.initialize(zeros, zeros)
        assert not decision.has_corrections.any()
        window = _pack_rounds(np.zeros((5, 2, 4), dtype=bool))
        decision = decoder.decode_window(window, window)
        assert not decision.x_corrections.any()
        assert not decision.z_corrections.any()
        assert not decision.has_corrections.any()

    def test_all_shots_correcting_batch(self):
        """A persistent X error on D4 in every shot fires everywhere."""
        shots = 6
        decoder = _lut(shots)
        zeros = _pack_rounds(np.zeros((shots, 3, 4), dtype=bool))
        decoder.initialize(zeros, zeros)
        z_syndrome = syndrome_of(
            Z_CHECK_MATRIX, np.eye(9, dtype=np.uint8)[4]
        ).astype(bool)
        x_rounds = np.zeros((shots, 2, 4), dtype=bool)
        z_rounds = np.broadcast_to(
            z_syndrome, (shots, 2, 4)
        ).copy()
        decision = decoder.decode_window(
            _pack_rounds(x_rounds), _pack_rounds(z_rounds)
        )
        assert decision.has_corrections.all()
        expected = np.zeros(9, dtype=bool)
        expected[4] = True
        assert np.array_equal(
            decision.x_corrections, np.tile(expected, (shots, 1))
        )
        assert not decision.z_corrections.any()

    def test_requires_positive_shots(self):
        with pytest.raises(ValueError):
            _lut(0)

    def test_rejects_even_initialization(self):
        decoder = _lut(4)
        rounds = _pack_rounds(np.zeros((4, 2, 4), dtype=bool))
        with pytest.raises(ValueError, match="odd number"):
            decoder.initialize(rounds, rounds)

    def test_decode_before_initialize_raises(self):
        decoder = _lut(4)
        rounds = _pack_rounds(np.zeros((4, 2, 4), dtype=bool))
        with pytest.raises(RuntimeError, match="not initialized"):
            decoder.decode_window(rounds, rounds)

    def test_reset_clears_word_state(self):
        decoder = _lut(4)
        init = _pack_rounds(np.zeros((4, 3, 4), dtype=bool))
        decoder.initialize(init, init)
        decoder.reset()
        rounds = _pack_rounds(np.zeros((4, 2, 4), dtype=bool))
        with pytest.raises(RuntimeError, match="not initialized"):
            decoder.decode_window(rounds, rounds)

    def test_decode_window_emits_batched_telemetry(self):
        decoder = _lut(3)
        rounds = _pack_rounds(np.zeros((3, 3, 4), dtype=bool))
        decoder.initialize(rounds, rounds)
        window = _pack_rounds(np.zeros((3, 2, 4), dtype=bool))
        with telemetry.enabled() as collector:
            decoder.decode_window(window, window)
        key = ("decoder.batched", "PackedWindowedLutDecoder")
        assert collector.counters[key]["batch_decisions"] == 1
        assert collector.counters[key]["shots"] == 3
        assert (
            "decoder.batched",
            "PackedWindowedLutDecoder.decode_window",
        ) in collector.span_totals


class TestRegistryMatchingTables:
    """The registry's ``mwpm`` window build is the same decoder over
    Blossom-filled tables."""

    @pytest.mark.parametrize("shots", [1, 9])
    def test_equivalent_to_per_shot_matching(self, shots):
        code = RotatedSurfaceCode(3)
        num_x = code.x_check_matrix.shape[0]
        num_z = code.z_check_matrix.shape[0]

        def build(num_shots):
            window = WindowContext(
                code.x_check_matrix,
                code.z_check_matrix,
                code=code,
                num_shots=num_shots,
            )
            return get_decoder("mwpm").build(code, window)

        _run_equivalence(
            build,
            lambda: WindowedMatchingDecoder(code),
            num_checks_x=num_x,
            num_checks_z=num_z,
            shots=shots,
            seed=11,
            windows=4,
        )


# ----------------------------------------------------------------------
# Packed-word syndrome path (regression: per-call allocation fix)
# ----------------------------------------------------------------------
class TestPackedSyndromeWords:
    @pytest.mark.parametrize("shots", [1, 63, 64, 65, 200])
    def test_words_path_matches_scalar_pack(self, shots):
        from repro.decoders import pack_syndromes_words
        from repro.sim.packedsim import pack_bits

        rng = np.random.default_rng(31)
        bits = rng.integers(0, 2, size=(shots, 8)).astype(bool)
        planes = pack_bits(bits.T)
        assert np.array_equal(
            pack_syndromes_words(planes, shots), pack_syndromes(bits)
        )

    @pytest.mark.parametrize("shots", [1, 64, 65])
    def test_empty_syndromes(self, shots):
        from repro.decoders import pack_syndromes_words
        from repro.sim.packedsim import num_words

        planes = np.zeros((8, num_words(shots)), dtype=np.uint64)
        packed = pack_syndromes_words(planes, shots)
        assert packed.shape == (shots,)
        assert not packed.any()
        assert np.array_equal(
            packed, pack_syndromes(np.zeros((shots, 8), dtype=bool))
        )

    @pytest.mark.parametrize("shots", [1, 64, 65])
    def test_all_ones_syndromes(self, shots):
        from repro.decoders import pack_syndromes_words
        from repro.sim.packedsim import pack_bits

        bits = np.ones((shots, 8), dtype=bool)
        packed = pack_syndromes_words(pack_bits(bits.T), shots)
        assert (packed == 255).all()
        assert np.array_equal(packed, pack_syndromes(bits))

    def test_pack_weights_cached_per_check_count(self):
        from repro.decoders.batched import _pack_weights

        assert _pack_weights(8) is _pack_weights(8)
        weights = _pack_weights(8)
        assert not weights.flags.writeable
