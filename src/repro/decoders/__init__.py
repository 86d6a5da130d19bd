"""Error-syndrome decoders: LUT, matching, union-find, sparse.

Scalar decoders (`LutDecoder`, `WindowedLutDecoder`, ...) decode one
syndrome at a time; the :mod:`~repro.decoders.batched` layer decodes
whole shot batches of packed syndrome words as numpy gathers over
process-cached dense tables;
:mod:`~repro.decoders.unionfind` and :mod:`~repro.decoders.sparse`
scale past the dense-table ceiling (d >= 15) over the same
``(shots, rounds, checks)`` arrays.  All of them register in the
:mod:`~repro.decoders.registry`, which is how experiments, the CLI
and the serve fleet select decoders by name.
"""

from .batched import (
    BatchedWindowDecision,
    build_dense_lut,
    clear_lut_cache,
    dense_lut,
    lut_cache_size,
    mwpm_dense_lut,
    pack_syndromes,
    pack_syndromes_words,
    PackedWindowedLutDecoder,
    unpack_syndromes,
)
from .lut import (
    LutDecoder,
    TwoLutDecoder,
    build_lut,
    correction_operations,
    pack_syndrome,
    syndrome_of,
    unpack_syndrome,
)
from .mwpm import MatchingGraph, MwpmDecoder, boundary_qubits_for
from .registry import (
    CAP_EXACT,
    CAP_SPACETIME,
    CAP_SPARSE,
    CAP_WINDOWED,
    CapabilityError,
    DecoderRegistryError,
    DecoderSpec,
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
from .rule_based import (
    SyndromeRound,
    WindowedMatchingDecoder,
    WindowDecision,
    WindowedLutDecoder,
    majority_vote,
)
from .spacetime import SpaceTimeMatchingDecoder
from .sparse import (
    SparseMatchingGraph,
    SparseMwpmDecoder,
    SparseSpaceTimeMatchingDecoder,
    sparse_mwpm_dense_lut,
)
from .unionfind import (
    DecodingGraph,
    SpaceTimeUnionFindDecoder,
    UnionFindDecoder,
    build_space_graph,
    build_space_time_graph,
    find_roots,
    grow_clusters,
    peel_forest,
    unionfind_dense_lut,
)

__all__ = [
    "LutDecoder",
    "TwoLutDecoder",
    "build_lut",
    "pack_syndrome",
    "unpack_syndrome",
    "syndrome_of",
    "correction_operations",
    "SyndromeRound",
    "WindowDecision",
    "WindowedLutDecoder",
    "majority_vote",
    "MwpmDecoder",
    "MatchingGraph",
    "boundary_qubits_for",
    "SpaceTimeMatchingDecoder",
    "WindowedMatchingDecoder",
    "BatchedWindowDecision",
    "PackedWindowedLutDecoder",
    "pack_syndromes_words",
    "build_dense_lut",
    "dense_lut",
    "mwpm_dense_lut",
    "pack_syndromes",
    "unpack_syndromes",
    "clear_lut_cache",
    "lut_cache_size",
    # union-find
    "DecodingGraph",
    "build_space_graph",
    "build_space_time_graph",
    "find_roots",
    "grow_clusters",
    "peel_forest",
    "UnionFindDecoder",
    "SpaceTimeUnionFindDecoder",
    "unionfind_dense_lut",
    # sparse matching
    "SparseMatchingGraph",
    "SparseMwpmDecoder",
    "SparseSpaceTimeMatchingDecoder",
    "sparse_mwpm_dense_lut",
    # registry
    "CAP_EXACT",
    "CAP_SPARSE",
    "CAP_WINDOWED",
    "CAP_SPACETIME",
    "DecoderSpec",
    "RegisteredDecoder",
    "WindowContext",
    "DecoderRegistryError",
    "UnknownDecoderError",
    "DuplicateDecoderError",
    "CapabilityError",
    "register_decoder",
    "unregister_decoder",
    "get_decoder",
    "list_decoders",
    "resolve_decoder_name",
    "parse_decoder_arg",
    "format_decoder_arg",
]
