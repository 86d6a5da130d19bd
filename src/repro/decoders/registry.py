"""First-class decoder registry: names, capabilities, builders.

Decoder selection used to be stringly typed — ``decoder_impl``
compared against literals inside :class:`~repro.experiments.ler.
BatchedLerExperiment`, with each experiment hard-wiring its own
decoder constructor calls.  This module replaces that with one
registry:

* every decoder registers a :class:`RegisteredDecoder` — canonical
  ``name``, one-line ``summary``, a frozenset of **capability flags**
  and the builder callables for the contexts it supports;
* consumers call :func:`get_decoder`, then ``spec.build(code,
  window)`` for the Surface-17 windowed protocol or
  ``spec.build_space`` / ``spec.build_spacetime`` for the
  code-capacity and phenomenological scaling experiments.

Every built-in windowed decoder is one
:class:`~repro.decoders.batched.PackedWindowedLutDecoder` over the
entry's own dense tables (:func:`~repro.decoders.batched.dense_lut`,
:func:`~repro.decoders.batched.mwpm_dense_lut`,
:func:`~repro.decoders.unionfind.unionfind_dense_lut` or
:func:`~repro.decoders.sparse.sparse_mwpm_dense_lut`); it consumes the
packed engine's ``uint64`` syndrome word planes directly.

Capability flags:

=========================== =======================================
:data:`CAP_EXACT`            provably minimum-weight / reference-
                             LUT-identical corrections
:data:`CAP_SPARSE`           scales past the dense-LUT check-count
                             ceiling (no ``2^checks`` tables)
:data:`CAP_WINDOWED`         builds the SC17 windowed protocol form
:data:`CAP_SPACETIME`        builds space / space-time graph forms
=========================== =======================================

The CLI surfaces the registry as ``repro decoders`` and accepts
``--decoder name:key=value,...`` everywhere a decoder can be chosen
(:func:`parse_decoder_arg`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

try:  # pragma: no cover - typing_extensions not required at runtime
    from typing import Protocol
except ImportError:  # pragma: no cover - py3.7 fallback
    Protocol = object  # type: ignore[assignment]

#: Corrections are provably minimum-weight (or bit-identical to the
#: reference LUT protocol) — what the golden digests pin.
CAP_EXACT = "exact"
#: No dense ``2^checks`` table anywhere: usable at d >= 15.
CAP_SPARSE = "sparse"
#: Builds the Surface-17 windowed-protocol decoder.
CAP_WINDOWED = "windowed"
#: Builds single-species space / space-time graph decoders.
CAP_SPACETIME = "spacetime"


class DecoderRegistryError(ValueError):
    """Base error of the decoder registry."""


class UnknownDecoderError(DecoderRegistryError):
    """No decoder registered under the requested name."""


class DuplicateDecoderError(DecoderRegistryError):
    """A decoder name was registered twice."""


class CapabilityError(DecoderRegistryError):
    """The decoder cannot be built for the requested context."""


@dataclass(frozen=True)
class WindowContext:
    """Build context of the Surface-17 windowed protocol.

    Attributes
    ----------
    x_check_matrix, z_check_matrix:
        The protocol's CSS check matrices (possibly a row permutation
        of the geometry code's — the SC17 layout is).
    code:
        The geometry provider for boundary lookups
        (:func:`~repro.decoders.mwpm.boundary_qubits_for` must accept
        it); data-qubit labelling must match the check matrices.
    num_shots:
        Valid shot count of the engine's ``uint64`` syndrome word
        planes.
    use_majority_vote:
        The Tomita–Svore cross-round vote ablation knob.
    """

    x_check_matrix: Any
    z_check_matrix: Any
    code: Any
    num_shots: int
    use_majority_vote: bool = True


class DecoderSpec(Protocol):
    """What a registered decoder exposes (structural protocol)."""

    name: str
    summary: str
    capabilities: frozenset

    def build(
        self, code: Any, window: Optional[WindowContext] = None, **p
    ) -> Any:
        """Construct the decoder for a windowed-protocol context."""


@dataclass(frozen=True)
class RegisteredDecoder:
    """One registry entry: identity, capabilities and builders.

    ``window_builder`` receives the :class:`WindowContext`;
    ``space_builder`` / ``spacetime_builder`` receive
    ``(check_matrix, boundary_qubits, **params)``.  Missing builders
    mean the capability is absent and :class:`CapabilityError` is
    raised on use.
    """

    name: str
    summary: str
    capabilities: frozenset
    window_builder: Optional[Callable[..., Any]] = None
    space_builder: Optional[Callable[..., Any]] = None
    spacetime_builder: Optional[Callable[..., Any]] = None
    #: Keyword parameters the graph builders accept (CLI-settable).
    graph_params: Tuple[str, ...] = ()

    # ------------------------------------------------------------------
    def build(
        self,
        code: Any,
        window: Optional[WindowContext] = None,
        **params: Any,
    ) -> Any:
        """Build the windowed-protocol decoder.

        ``code`` is the geometry provider; ``window`` carries the
        protocol context (check matrices, packed shots, vote knob).
        """
        if self.window_builder is None:
            raise CapabilityError(
                f"decoder {self.name!r} does not support the windowed "
                f"protocol (capability {CAP_WINDOWED!r} missing)"
            )
        if window is None:
            raise CapabilityError(
                "windowed build requires a WindowContext"
            )
        if params:
            raise CapabilityError(
                f"decoder {self.name!r} takes no windowed "
                f"parameters: {sorted(params)}"
            )
        return self.window_builder(code, window)

    def build_space(
        self,
        check_matrix: Any,
        boundary_qubits: Sequence[int],
        **params: Any,
    ) -> Any:
        """Build the single-round (space-graph) decoder."""
        if self.space_builder is None:
            raise CapabilityError(
                f"decoder {self.name!r} does not support graph "
                f"decoding (capability {CAP_SPACETIME!r} missing)"
            )
        self._check_params(params, allow=())
        return self.space_builder(check_matrix, boundary_qubits)

    def build_spacetime(
        self,
        check_matrix: Any,
        boundary_qubits: Sequence[int],
        **params: Any,
    ) -> Any:
        """Build the space-time (repeated-rounds) decoder."""
        if self.spacetime_builder is None:
            raise CapabilityError(
                f"decoder {self.name!r} does not support space-time "
                f"decoding (capability {CAP_SPACETIME!r} missing)"
            )
        self._check_params(params, allow=self.graph_params)
        return self.spacetime_builder(
            check_matrix, boundary_qubits, **params
        )

    def _check_params(
        self, params: Dict[str, Any], allow: Tuple[str, ...]
    ) -> None:
        unknown = sorted(set(params) - set(allow))
        if unknown:
            raise CapabilityError(
                f"decoder {self.name!r} does not accept "
                f"parameters {unknown}; known: {sorted(allow)}"
            )

    def describe(self) -> Dict[str, Any]:
        """JSON-ready description (the ``repro decoders`` payload)."""
        return {
            "name": self.name,
            "summary": self.summary,
            "capabilities": sorted(self.capabilities),
            "params": list(self.graph_params),
        }


_REGISTRY: Dict[str, RegisteredDecoder] = {}


def register_decoder(spec: RegisteredDecoder) -> RegisteredDecoder:
    """Add ``spec`` to the registry.

    Raises :class:`DuplicateDecoderError` when the name is taken.
    """
    if spec.name in _REGISTRY:
        raise DuplicateDecoderError(
            f"decoder name {spec.name!r} already registered"
        )
    _REGISTRY[spec.name] = spec
    return spec


def unregister_decoder(name: str) -> None:
    """Remove a decoder (test hygiene helper)."""
    if _REGISTRY.pop(name, None) is None:
        raise UnknownDecoderError(f"unknown decoder {name!r}")


def resolve_decoder_name(name: str) -> str:
    """``name`` itself when registered, else :class:`UnknownDecoderError`."""
    if name in _REGISTRY:
        return name
    raise UnknownDecoderError(
        f"unknown decoder {name!r}; registered: {sorted(_REGISTRY)}"
    )


def get_decoder(name: str) -> RegisteredDecoder:
    """The :class:`RegisteredDecoder` under ``name``."""
    return _REGISTRY[resolve_decoder_name(name)]


def list_decoders() -> List[RegisteredDecoder]:
    """All registered decoders, sorted by canonical name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def parse_decoder_arg(value: str) -> Tuple[str, Dict[str, Any]]:
    """Parse a ``--decoder name[:key=value,...]`` CLI argument.

    Values coerce to ``int`` / ``float`` / ``bool`` when they look
    like one, else stay strings.  The name is not resolved here
    (:func:`get_decoder` does that).
    """
    name, _, tail = value.partition(":")
    name = name.strip()
    if not name:
        raise DecoderRegistryError(
            f"empty decoder name in {value!r}"
        )
    params: Dict[str, Any] = {}
    if tail:
        for item in tail.split(","):
            key, sep, raw = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise DecoderRegistryError(
                    f"malformed decoder parameter {item!r} "
                    f"(expected key=value)"
                )
            params[key] = _coerce(raw.strip())
    return name, params


def format_decoder_arg(
    name: str, params: Optional[Dict[str, Any]] = None
) -> str:
    """Inverse of :func:`parse_decoder_arg` (result echoing)."""
    if not params:
        return name
    tail = ",".join(
        f"{key}={params[key]}" for key in sorted(params)
    )
    return f"{name}:{tail}"


def _coerce(raw: str) -> Any:
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


# ----------------------------------------------------------------------
# Built-in decoders
# ----------------------------------------------------------------------
def _windowed(
    dense_table: Callable[[Any, Any, str], Any],
) -> Callable[[Any, WindowContext], Any]:
    """Window builder of a dense-table decoder.

    ``dense_table(check_matrix, code, species)`` returns the decoding
    table of one check species; the build is one
    :class:`~repro.decoders.batched.PackedWindowedLutDecoder` over the
    two tables.
    """

    def build(code: Any, window: WindowContext) -> Any:
        from .batched import PackedWindowedLutDecoder

        x_check, z_check = window.x_check_matrix, window.z_check_matrix
        return PackedWindowedLutDecoder(
            x_check,
            z_check,
            num_shots=window.num_shots,
            tables=(
                dense_table(x_check, window.code, "x"),
                dense_table(z_check, window.code, "z"),
            ),
            use_majority_vote=window.use_majority_vote,
        )

    return build


def _lut_table(check: Any, code: Any, species: str) -> Any:
    from .batched import dense_lut

    return dense_lut(check)[0]


def _mwpm_table(check: Any, code: Any, species: str) -> Any:
    from .batched import mwpm_dense_lut
    from .mwpm import boundary_qubits_for

    return mwpm_dense_lut(check, boundary_qubits_for(code, species))[0]


def _unionfind_table(check: Any, code: Any, species: str) -> Any:
    from .mwpm import boundary_qubits_for
    from .unionfind import unionfind_dense_lut

    return unionfind_dense_lut(
        check, boundary_qubits_for(code, species)
    )[0]


def _sparse_table(check: Any, code: Any, species: str) -> Any:
    from .mwpm import boundary_qubits_for
    from .sparse import sparse_mwpm_dense_lut

    return sparse_mwpm_dense_lut(
        check, boundary_qubits_for(code, species)
    )[0]


def _space_mwpm(check: Any, boundary: Sequence[int]) -> Any:
    from .mwpm import MwpmDecoder

    return MwpmDecoder(check, boundary)


def _spacetime_mwpm(
    check: Any, boundary: Sequence[int], **params: Any
) -> Any:
    from .spacetime import SpaceTimeMatchingDecoder

    return SpaceTimeMatchingDecoder(check, boundary, **params)


def _space_unionfind(check: Any, boundary: Sequence[int]) -> Any:
    from .unionfind import UnionFindDecoder

    return UnionFindDecoder(check, boundary)


def _spacetime_unionfind(
    check: Any, boundary: Sequence[int], **params: Any
) -> Any:
    from .unionfind import SpaceTimeUnionFindDecoder

    return SpaceTimeUnionFindDecoder(check, boundary, **params)


def _space_sparse(check: Any, boundary: Sequence[int]) -> Any:
    from .sparse import SparseMwpmDecoder

    return SparseMwpmDecoder(check, boundary)


def _spacetime_sparse(
    check: Any, boundary: Sequence[int], **params: Any
) -> Any:
    from .sparse import SparseSpaceTimeMatchingDecoder

    return SparseSpaceTimeMatchingDecoder(check, boundary, **params)


def _register_builtins() -> None:
    register_decoder(
        RegisteredDecoder(
            name="lut",
            summary=(
                "dense minimum-weight lookup tables, batched "
                "gather decoding (exact, SC17-sized codes)"
            ),
            capabilities=frozenset((CAP_EXACT, CAP_WINDOWED)),
            window_builder=_windowed(_lut_table),
        )
    )
    register_decoder(
        RegisteredDecoder(
            name="mwpm",
            summary=(
                "exact Blossom minimum-weight perfect matching "
                "(networkx; windowed tables + space-time graphs)"
            ),
            capabilities=frozenset(
                (CAP_EXACT, CAP_WINDOWED, CAP_SPACETIME)
            ),
            window_builder=_windowed(_mwpm_table),
            space_builder=_space_mwpm,
            spacetime_builder=_spacetime_mwpm,
            graph_params=("time_weight",),
        )
    )
    register_decoder(
        RegisteredDecoder(
            name="unionfind",
            summary=(
                "array-native union-find (cluster growth + "
                "peeling); almost-linear, scales to d >= 15"
            ),
            capabilities=frozenset(
                (CAP_SPARSE, CAP_WINDOWED, CAP_SPACETIME)
            ),
            window_builder=_windowed(_unionfind_table),
            space_builder=_space_unionfind,
            spacetime_builder=_spacetime_unionfind,
            graph_params=("time_weight",),
        )
    )
    register_decoder(
        RegisteredDecoder(
            name="sparse-mwpm",
            summary=(
                "sparse local matching: csgraph shortest paths + "
                "exact subset-DP pairing (greedy past 16 defects)"
            ),
            capabilities=frozenset(
                (CAP_SPARSE, CAP_WINDOWED, CAP_SPACETIME)
            ),
            window_builder=_windowed(_sparse_table),
            space_builder=_space_sparse,
            spacetime_builder=_spacetime_sparse,
            graph_params=("time_weight",),
        )
    )


_register_builtins()
