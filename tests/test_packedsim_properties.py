"""Property-based tests of the packed bit-plane kernels.

Hypothesis drives the word-level kernels of
:mod:`repro.sim.packedsim` against their obvious unpacked numpy
counterparts over arbitrary shot counts (so the ragged last word is
exercised constantly, not just at hand-picked sizes):

* ``pack_bits``/``unpack_bits`` are mutually inverse and keep tail
  bits zero,
* XOR/AND on packed words equal XOR/AND on the bool arrays,
* ``popcount_words`` equals ``np.sum``,
* ``packed_majority`` equals the ``sum * 2 > rounds`` vote,
* a random Clifford+noise frame program advances
  :class:`PackedFrameArray` and the unpacked :class:`FrameArray`
  identically when fed identical RNG streams,
* a noise kernel called once over a vector of qubits (or qubit
  pairs) gives the same planes, and consumes the same stream, as one
  scalar call per qubit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.framesim import FrameArray
from repro.sim.packedsim import (
    PackedFrameArray,
    full_mask,
    num_words,
    pack_bits,
    packed_majority,
    popcount_words,
    unpack_bits,
)

#: Shot counts straddle word boundaries by construction.
shot_counts = st.integers(min_value=1, max_value=200)


def bool_rows(draw, num_shots, rows=None):
    """A (rows, num_shots) — or (num_shots,) — random bool array."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    shape = (num_shots,) if rows is None else (rows, num_shots)
    return rng.random(shape) < draw(
        st.floats(min_value=0.0, max_value=1.0)
    )


class TestPackRoundTrip:
    @given(st.data(), shot_counts)
    @settings(deadline=None)
    def test_bits_to_words_to_bits(self, data, num_shots):
        bits = bool_rows(data.draw, num_shots)
        words = pack_bits(bits)
        assert words.shape == (num_words(num_shots),)
        assert np.array_equal(unpack_bits(words, num_shots), bits)

    @given(st.data(), shot_counts)
    @settings(deadline=None)
    def test_tail_bits_stay_zero(self, data, num_shots):
        bits = bool_rows(data.draw, num_shots)
        words = pack_bits(bits)
        assert np.all(words & ~full_mask(num_shots) == 0)

    @given(st.data(), shot_counts, st.integers(1, 5))
    @settings(deadline=None)
    def test_words_to_bits_to_words(self, data, num_shots, rows):
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        rng = np.random.default_rng(seed)
        words = rng.integers(
            0, 2**64, size=(rows, num_words(num_shots)), dtype=np.uint64
        ) & full_mask(num_shots)
        bits = unpack_bits(words, num_shots)
        assert bits.shape == (rows, num_shots)
        assert np.array_equal(pack_bits(bits), words)


class TestWordKernels:
    @given(st.data(), shot_counts)
    @settings(deadline=None)
    def test_xor_and_not_match_bool_algebra(self, data, num_shots):
        a = bool_rows(data.draw, num_shots)
        b = bool_rows(data.draw, num_shots)
        wa, wb = pack_bits(a), pack_bits(b)
        assert np.array_equal(wa ^ wb, pack_bits(a ^ b))
        assert np.array_equal(wa & wb, pack_bits(a & b))
        # NOT over the valid shots = XOR with the full mask.
        assert np.array_equal(
            wa ^ full_mask(num_shots), pack_bits(~a)
        )

    @given(st.data(), shot_counts, st.integers(1, 4))
    @settings(deadline=None)
    def test_popcount_matches_sum(self, data, num_shots, rows):
        bits = bool_rows(data.draw, num_shots, rows=rows)
        words = pack_bits(bits)
        assert popcount_words(words).sum() == bits.sum()

    @given(st.data(), shot_counts, st.integers(1, 9))
    @settings(deadline=None)
    def test_majority_matches_sum_vote(self, data, num_shots, rounds):
        planes = np.stack(
            [
                pack_bits(bool_rows(data.draw, num_shots))
                for _ in range(rounds)
            ]
        )
        voted = packed_majority(planes)
        expected = (
            unpack_bits(planes, num_shots).sum(axis=0) * 2 > rounds
        )
        assert np.array_equal(unpack_bits(voted, num_shots), expected)
        # The vote itself must keep the tail clean.
        assert np.all(voted & ~full_mask(num_shots) == 0)


#: One random frame-program step: (kind, payload...).
def program_steps(num_qubits):
    one = st.integers(0, num_qubits - 1)
    pairs = st.tuples(one, one).filter(lambda p: p[0] != p[1])
    steps = [
        st.tuples(st.just("h"), one),
        st.tuples(st.just("s"), one),
        st.tuples(st.just("cnot"), pairs),
        st.tuples(st.just("cz"), pairs),
        st.tuples(st.just("swap"), pairs),
        st.tuples(st.just("reset"), one),
        st.tuples(st.just("measure"), one),
        st.tuples(st.just("xerr"), one),
        st.tuples(st.just("depolarize1"), one),
        st.tuples(st.just("depolarize2"), pairs),
        st.tuples(st.just("pauli_masks"), st.just(None)),
    ]
    return st.lists(st.one_of(steps), min_size=1, max_size=25)


class TestFrameProgramEquivalence:
    """Identical RNG streams => identical frames, step by step."""

    @given(
        st.data(),
        st.integers(min_value=1, max_value=130),
        st.integers(min_value=2, max_value=5),
    )
    @settings(deadline=None, max_examples=40)
    def test_random_program(self, data, num_shots, num_qubits):
        steps = data.draw(program_steps(num_qubits))
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        rng_ref = np.random.default_rng(seed)
        rng_packed = np.random.default_rng(seed)
        mask_rng = np.random.default_rng(seed + 1)

        reference = FrameArray(num_shots, 0)
        packed = PackedFrameArray(num_shots, 0, rng_mode="exact")
        reference.add_qubits(num_qubits, rng_ref)
        packed.add_qubits(num_qubits, rng_packed)

        for kind, payload in steps:
            if kind in ("h", "s"):
                getattr(reference, kind)(payload)
                getattr(packed, kind)(payload)
            elif kind in ("cnot", "cz", "swap"):
                getattr(reference, kind)(*payload)
                getattr(packed, kind)(*payload)
            elif kind == "reset":
                reference.reset(payload, rng_ref)
                packed.reset(payload, rng_packed)
            elif kind == "measure":
                flips_ref = reference.measure_flips(payload, rng_ref)
                flips_packed = packed.measure_flips(
                    payload, rng_packed
                )
                assert np.array_equal(
                    flips_ref, unpack_bits(flips_packed, num_shots)
                )
            elif kind == "xerr":
                reference.xerr(payload, 0.2, rng_ref)
                packed.xerr(payload, 0.2, rng_packed)
            elif kind == "depolarize1":
                reference.depolarize1(payload, 0.2, rng_ref)
                packed.depolarize1(payload, 0.2, rng_packed)
            elif kind == "depolarize2":
                reference.depolarize2(*payload, 0.2, rng_ref)
                packed.depolarize2(*payload, 0.2, rng_packed)
            else:  # pauli_masks
                x_mask = mask_rng.random((num_shots, num_qubits)) < 0.3
                z_mask = mask_rng.random((num_shots, num_qubits)) < 0.3
                reference.x ^= x_mask
                reference.z ^= z_mask
                packed.apply_pauli_masks(x_mask, z_mask)
            assert np.array_equal(packed.x_bool(), reference.x)
            assert np.array_equal(packed.z_bool(), reference.z)

    @given(st.data(), st.integers(min_value=1, max_value=130))
    @settings(deadline=None, max_examples=20)
    def test_error_weight_matches_bool_count(self, data, num_shots):
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        rng = np.random.default_rng(seed)
        packed = PackedFrameArray(num_shots, 0)
        packed.add_qubits(4, rng)
        for qubit in range(4):
            packed.depolarize1(qubit, 0.4, rng)
        assert packed.error_weight() == (
            packed.x_bool().sum() + packed.z_bool().sum()
        )


class TestVectorKernels:
    """One noise-kernel call over ``k`` qubits == ``k`` scalar calls
    on the same RNG state, bit for bit (repeated qubits included)."""

    NUM_QUBITS = 6

    @staticmethod
    def _pair(seed, num_shots, rng_mode):
        """Two identical frame arrays and two identical RNG states."""
        frames = []
        for _ in range(2):
            rng = np.random.default_rng(seed)
            array = PackedFrameArray(num_shots, 0, rng_mode=rng_mode)
            array.add_qubits(TestVectorKernels.NUM_QUBITS, rng)
            frames.append((array, rng))
        return frames

    @given(
        st.data(),
        st.sampled_from([1, 63, 64, 65, 400]),
        st.sampled_from(["exact", "fast"]),
        st.sampled_from(["xerr", "depolarize1", "depolarize2"]),
        st.booleans(),
    )
    @settings(deadline=None, max_examples=60)
    def test_vector_call_matches_scalar_calls(
        self, data, num_shots, rng_mode, kernel, masked
    ):
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        qubit = st.integers(0, self.NUM_QUBITS - 1)
        (vector, vector_rng), (scalar, scalar_rng) = self._pair(
            seed, num_shots, rng_mode
        )
        p = data.draw(st.sampled_from([0.05, 0.3, 0.9]))
        if kernel == "depolarize2":
            pairs = data.draw(
                st.lists(
                    st.tuples(qubit, qubit).filter(lambda q: q[0] != q[1]),
                    min_size=1,
                    max_size=4,
                )
            )
            firsts, seconds = zip(*pairs)
            vector.depolarize2(list(firsts), list(seconds), p, vector_rng)
            for first, second in pairs:
                scalar.depolarize2(first, second, p, scalar_rng)
        else:
            qubits = data.draw(st.lists(qubit, min_size=1, max_size=6))
            kwargs = {}
            if kernel == "depolarize1" and masked:
                mask_rng = np.random.default_rng(seed + 1)
                kwargs["shot_mask"] = mask_rng.random(num_shots) < 0.5
            getattr(vector, kernel)(qubits, p, vector_rng, **kwargs)
            for q in qubits:
                getattr(scalar, kernel)(q, p, scalar_rng, **kwargs)
        assert np.array_equal(vector.x, scalar.x)
        assert np.array_equal(vector.z, scalar.z)
        # Same stream consumed: the next draws agree too.
        assert vector_rng.random() == scalar_rng.random()
        assert np.all(vector.x & ~full_mask(num_shots) == 0)
        assert np.all(vector.z & ~full_mask(num_shots) == 0)
