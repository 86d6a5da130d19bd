"""Unit suite of the decoder registry (names, capabilities, parsing).

The registry (:mod:`repro.decoders.registry`) is the single decoder
selection point of the experiment stack: names, capability flags,
builders, and the ``--decoder name:key=value`` CLI argument grammar
all live there.
"""

import warnings

import numpy as np
import pytest

from repro.codes.rotated import RotatedSurfaceCode
from repro.decoders import boundary_qubits_for
from repro.decoders.registry import (
    CAP_EXACT,
    CAP_SPACETIME,
    CAP_SPARSE,
    CAP_WINDOWED,
    CapabilityError,
    DecoderRegistryError,
    DuplicateDecoderError,
    RegisteredDecoder,
    UnknownDecoderError,
    WindowContext,
    format_decoder_arg,
    get_decoder,
    list_decoders,
    parse_decoder_arg,
    register_decoder,
    resolve_decoder_name,
    unregister_decoder,
)


class TestCatalogue:
    def test_builtins_present(self):
        names = [spec.name for spec in list_decoders()]
        assert names == sorted(names)
        for expected in ("lut", "mwpm", "unionfind", "sparse-mwpm"):
            assert expected in names

    def test_capability_flags(self):
        assert CAP_EXACT in get_decoder("lut").capabilities
        assert CAP_EXACT in get_decoder("mwpm").capabilities
        for sparse_name in ("unionfind", "sparse-mwpm"):
            spec = get_decoder(sparse_name)
            assert CAP_SPARSE in spec.capabilities
            assert CAP_SPACETIME in spec.capabilities
        assert CAP_SPACETIME not in get_decoder("lut").capabilities

    def test_describe_is_json_ready(self):
        description = get_decoder("unionfind").describe()
        assert description["name"] == "unionfind"
        assert description["capabilities"] == sorted(
            description["capabilities"]
        )
        assert "time_weight" in description["params"]

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownDecoderError):
            get_decoder("quantum")

    @pytest.mark.parametrize("expired", ["batched", "per-shot"])
    def test_expired_aliases_are_unknown(self, expired):
        with pytest.raises(UnknownDecoderError) as error:
            resolve_decoder_name(expired)
        assert str(error.value).endswith(
            "registered: ['lut', 'mwpm', 'sparse-mwpm', 'unionfind']"
        )

    def test_canonical_names_resolve_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_decoder_name("lut") == "lut"
            assert resolve_decoder_name("unionfind") == "unionfind"


class TestRegistration:
    def _spec(self, name):
        return RegisteredDecoder(
            name=name,
            summary="test decoder",
            capabilities=frozenset((CAP_WINDOWED,)),
        )

    def test_register_and_unregister(self):
        register_decoder(self._spec("test-dec"))
        try:
            assert get_decoder("test-dec").name == "test-dec"
        finally:
            unregister_decoder("test-dec")
        with pytest.raises(UnknownDecoderError):
            get_decoder("test-dec")

    def test_duplicate_name_rejected(self):
        with pytest.raises(DuplicateDecoderError):
            register_decoder(self._spec("lut"))

    def test_unregister_unknown_raises(self):
        with pytest.raises(UnknownDecoderError):
            unregister_decoder("never-registered")


class TestCapabilityRefusal:
    def test_lut_refuses_spacetime_build(self):
        code = RotatedSurfaceCode(3)
        with pytest.raises(CapabilityError):
            get_decoder("lut").build_spacetime(
                code.z_check_matrix, boundary_qubits_for(code, "z")
            )

    def test_windowed_build_requires_context(self):
        with pytest.raises(CapabilityError):
            get_decoder("lut").build(RotatedSurfaceCode(3), None)

    def test_windowed_build_rejects_params(self):
        code = RotatedSurfaceCode(3)
        window = WindowContext(
            code.x_check_matrix, code.z_check_matrix, code=code, num_shots=2
        )
        with pytest.raises(CapabilityError):
            get_decoder("lut").build(code, window, time_weight=2)

    def test_unknown_graph_param_rejected(self):
        code = RotatedSurfaceCode(3)
        with pytest.raises(CapabilityError):
            get_decoder("unionfind").build_spacetime(
                code.z_check_matrix,
                boundary_qubits_for(code, "z"),
                growth_rate=3,
            )

    def test_windowed_builds_share_one_decoder_class(self):
        """Every windowed entry is the packed decoder over its own
        dense tables."""
        from repro.decoders import (
            PackedWindowedLutDecoder,
            dense_lut,
            mwpm_dense_lut,
            sparse_mwpm_dense_lut,
            unionfind_dense_lut,
        )

        code = RotatedSurfaceCode(3)
        window = WindowContext(
            code.x_check_matrix, code.z_check_matrix, code=code, num_shots=65
        )
        boundary = boundary_qubits_for(code, "x")
        tables = {
            "lut": dense_lut(code.x_check_matrix)[0],
            "mwpm": mwpm_dense_lut(code.x_check_matrix, boundary)[0],
            "unionfind": unionfind_dense_lut(
                code.x_check_matrix, boundary
            )[0],
            "sparse-mwpm": sparse_mwpm_dense_lut(
                code.x_check_matrix, boundary
            )[0],
        }
        for name, table in tables.items():
            decoder = get_decoder(name).build(code, window)
            assert type(decoder) is PackedWindowedLutDecoder
            assert decoder.num_shots == 65
            assert np.array_equal(decoder._z_error_table, table)


class TestArgumentGrammar:
    def test_bare_name(self):
        assert parse_decoder_arg("unionfind") == ("unionfind", {})

    def test_params_coerce(self):
        name, params = parse_decoder_arg(
            "mwpm:time_weight=2.5,verbose=true,depth=3,tag=x"
        )
        assert name == "mwpm"
        assert params == {
            "time_weight": 2.5,
            "verbose": True,
            "depth": 3,
            "tag": "x",
        }

    @pytest.mark.parametrize(
        "value", ["", ":k=v", "name:novalue", "name:=3", "name:,"]
    )
    def test_malformed_rejected(self, value):
        with pytest.raises(DecoderRegistryError):
            parse_decoder_arg(value)

    def test_format_round_trips(self):
        for value in ("lut", "unionfind:time_weight=2.5"):
            name, params = parse_decoder_arg(value)
            assert format_decoder_arg(name, params) == value

    def test_format_sorts_params(self):
        assert (
            format_decoder_arg("mwpm", {"b": 1, "a": 2})
            == "mwpm:a=2,b=1"
        )


class TestExperimentWiring:
    def test_space_builders_produce_working_decoders(self):
        import numpy as np

        from repro.decoders import syndrome_of

        code = RotatedSurfaceCode(3)
        boundary = boundary_qubits_for(code, "z")
        for name in ("mwpm", "unionfind", "sparse-mwpm"):
            decoder = get_decoder(name).build_space(
                code.z_check_matrix, boundary
            )
            error = np.zeros(code.num_data, dtype=np.uint8)
            error[0] = 1
            syndrome = syndrome_of(code.z_check_matrix, error)
            residual = error.astype(bool) ^ decoder.decode(syndrome)
            assert not syndrome_of(
                code.z_check_matrix, residual.astype(np.uint8)
            ).any()

    def test_spacetime_builder_accepts_time_weight(self):
        code = RotatedSurfaceCode(3)
        decoder = get_decoder("unionfind").build_spacetime(
            code.z_check_matrix,
            boundary_qubits_for(code, "z"),
            time_weight=2.0,
        )
        assert decoder.time_weight == 2.0
