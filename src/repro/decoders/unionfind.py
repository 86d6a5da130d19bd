"""Array-native union-find decoding (Delfosse-Nickerson) at any d.

The dense LUT gather of :mod:`repro.decoders.batched` is exact but
holds ``2^num_checks`` rows, and the networkx Blossom matcher of
:mod:`repro.decoders.mwpm` re-solves an all-pairs matching per
syndrome — both cap the LER experiments at Surface-17-sized codes
(ROADMAP item 3).  This module supplies the almost-linear-time
alternative the fault-tolerance literature converged on: the
**union-find decoder** (Delfosse & Nickerson, Quantum 5, 595), whose
cluster-growth + peeling structure needs only a disjoint-set forest
over the decoding graph.

Everything is laid out as flat numpy arrays:

* the decoding graph is an **edge list** — ``edge_u`` / ``edge_v``
  node indices, ``edge_qubit`` (the data qubit a spatial edge
  corrects; ``-1`` for temporal edges, which re-interpret measurements
  and correct nothing), ``edge_capacity`` in half-edge growth units;
* **cluster growth** runs vectorized over the whole edge list: each
  iteration computes every node's root by path doubling
  (:func:`find_roots`), derives the active-cluster mask with one
  ``bincount``, and grows every boundary-crossing edge of every active
  cluster at once.  Edges that fill up are unioned; the union'ed edges
  form a spanning forest of the final clusters by construction;
* **peeling** walks that forest leaf-inward, flipping the data qubit
  of every spatial tree edge whose leaf side holds an unpaired defect.

Batched decoding (:meth:`UnionFindDecoder.decode_batch`,
:meth:`SpaceTimeUnionFindDecoder.decode_batch`) consumes the same
``(shots, rounds, checks)`` arrays the batched sampler emits and
dedupes identical syndromes with one ``np.unique`` — the Python-level
work scales with the number of *distinct* syndromes, not with shots.

For the Surface-17 windowed protocol the decoder also exists in dense
gather-table form (:func:`unionfind_dense_lut`), which the registry
hands to :class:`~repro.decoders.batched.PackedWindowedLutDecoder`
exactly like the LUT and MWPM tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from .batched import (
    MAX_DENSE_CHECKS,
    _cached_table,
    _check_digest,
    unpack_syndromes,
)


# ----------------------------------------------------------------------
# Decoding graphs as edge lists
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DecodingGraph:
    """One check species' matching graph, flattened to arrays.

    Nodes are checks (space) or ``(round, check)`` pairs flattened as
    ``round * num_checks + check`` (space-time), plus one virtual
    boundary node — always the highest index.  Edges carry the data
    qubit they correct (``-1`` for temporal edges) and a growth
    capacity in half-edge units (``2 x`` the edge weight).
    """

    num_nodes: int
    num_checks: int
    num_qubits: int
    boundary_node: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_qubit: np.ndarray
    edge_capacity: np.ndarray

    @property
    def num_edges(self) -> int:
        return int(self.edge_u.shape[0])


def _spatial_edges(
    check_matrix: np.ndarray, boundary_qubits: Sequence[int]
) -> Tuple[List[int], List[int], List[int]]:
    """Per-species ``(u, v, qubit)`` triples; boundary encoded as -1.

    The same construction rule as
    :class:`~repro.decoders.mwpm.MatchingGraph`: a data qubit touched
    by two checks links them; a qubit touched by one check links that
    check to the boundary if it is a boundary qubit (keeping the first
    boundary edge per check).
    """
    check = np.asarray(check_matrix, dtype=np.uint8)
    boundary = set(int(q) for q in boundary_qubits)
    edge_u: List[int] = []
    edge_v: List[int] = []
    edge_q: List[int] = []
    seen_pairs = set()
    boundary_linked = set()
    for qubit in range(check.shape[1]):
        touching = np.flatnonzero(check[:, qubit])
        if len(touching) == 2:
            pair = (int(touching[0]), int(touching[1]))
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            edge_u.append(pair[0])
            edge_v.append(pair[1])
            edge_q.append(qubit)
        elif len(touching) == 1 and qubit in boundary:
            node = int(touching[0])
            if node in boundary_linked:
                continue
            boundary_linked.add(node)
            edge_u.append(node)
            edge_v.append(-1)
            edge_q.append(qubit)
    return edge_u, edge_v, edge_q


def build_space_graph(
    check_matrix: np.ndarray, boundary_qubits: Sequence[int]
) -> DecodingGraph:
    """The single-round decoding graph of one check species."""
    check = np.asarray(check_matrix, dtype=np.uint8)
    num_checks, num_qubits = check.shape
    edge_u, edge_v, edge_q = _spatial_edges(check, boundary_qubits)
    boundary_node = num_checks
    u = np.asarray(edge_u, dtype=np.int64)
    v = np.asarray(edge_v, dtype=np.int64)
    v = np.where(v < 0, boundary_node, v)
    return DecodingGraph(
        num_nodes=num_checks + 1,
        num_checks=num_checks,
        num_qubits=num_qubits,
        boundary_node=boundary_node,
        edge_u=u,
        edge_v=v,
        edge_qubit=np.asarray(edge_q, dtype=np.int64),
        edge_capacity=np.full(len(edge_q), 2, dtype=np.int64),
    )


def build_space_time_graph(
    check_matrix: np.ndarray,
    boundary_qubits: Sequence[int],
    rounds: int,
    time_weight: float = 1.0,
) -> DecodingGraph:
    """The ``rounds``-layer space-time decoding graph.

    Node ``(t, c)`` is index ``t * num_checks + c``; one boundary node
    serves every layer.  Spatial edges repeat per layer; temporal
    edges join ``(t, c)`` to ``(t+1, c)`` with capacity
    ``2 * time_weight`` (rounded, floor 1) and no data qubit.
    """
    if rounds < 1:
        raise ValueError("rounds must be positive")
    if time_weight <= 0:
        raise ValueError("time_weight must be positive")
    check = np.asarray(check_matrix, dtype=np.uint8)
    num_checks, num_qubits = check.shape
    su, sv, sq = _spatial_edges(check, boundary_qubits)
    boundary_node = rounds * num_checks
    su_arr = np.asarray(su, dtype=np.int64)
    sv_arr = np.asarray(sv, dtype=np.int64)
    sq_arr = np.asarray(sq, dtype=np.int64)
    layers_u = []
    layers_v = []
    layers_q = []
    layers_cap = []
    for t in range(rounds):
        offset = t * num_checks
        layers_u.append(su_arr + offset)
        layers_v.append(
            np.where(sv_arr < 0, boundary_node, sv_arr + offset)
        )
        layers_q.append(sq_arr)
        layers_cap.append(np.full(len(sq), 2, dtype=np.int64))
    temporal_capacity = max(1, int(round(2 * time_weight)))
    for t in range(rounds - 1):
        checks = np.arange(num_checks, dtype=np.int64)
        layers_u.append(t * num_checks + checks)
        layers_v.append((t + 1) * num_checks + checks)
        layers_q.append(np.full(num_checks, -1, dtype=np.int64))
        layers_cap.append(
            np.full(num_checks, temporal_capacity, dtype=np.int64)
        )
    return DecodingGraph(
        num_nodes=rounds * num_checks + 1,
        num_checks=num_checks,
        num_qubits=num_qubits,
        boundary_node=boundary_node,
        edge_u=np.concatenate(layers_u),
        edge_v=np.concatenate(layers_v),
        edge_qubit=np.concatenate(layers_q),
        edge_capacity=np.concatenate(layers_cap),
    )


# ----------------------------------------------------------------------
# Disjoint-set kernels
# ----------------------------------------------------------------------
def find_roots(parent: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Vectorized root lookup with path compression.

    ``parent`` is mutated in place (queried nodes are compressed
    toward their roots); returns the root of every entry of ``nodes``.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    roots = parent[nodes]
    while True:
        above = parent[roots]
        if np.array_equal(above, roots):
            break
        parent[nodes] = above
        roots = above
    parent[nodes] = roots
    return roots


def _union(
    parent: np.ndarray, rank: np.ndarray, a: int, b: int
) -> bool:
    """Scalar union by rank; returns whether a merge happened."""
    root_a = a
    while parent[root_a] != root_a:
        root_a = parent[root_a]
    root_b = b
    while parent[root_b] != root_b:
        root_b = parent[root_b]
    if root_a == root_b:
        return False
    if rank[root_a] < rank[root_b]:
        root_a, root_b = root_b, root_a
    parent[root_b] = root_a
    if rank[root_a] == rank[root_b]:
        rank[root_a] += 1
    return True


def grow_clusters(
    graph: DecodingGraph, defects: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Grow odd clusters until even parity or boundary contact.

    ``defects`` is a bool mask over the graph's nodes.  Returns
    ``(parent, forest)``: the final disjoint-set parent array and a
    bool mask of edges that merged two clusters when they filled —
    by construction a spanning forest of every final cluster.
    """
    num_nodes = graph.num_nodes
    parent = np.arange(num_nodes, dtype=np.int64)
    rank = np.zeros(num_nodes, dtype=np.int64)
    forest = np.zeros(graph.num_edges, dtype=bool)
    if not defects.any() or graph.num_edges == 0:
        return parent, forest
    support = np.zeros(graph.num_edges, dtype=np.int64)
    all_nodes = np.arange(num_nodes, dtype=np.int64)
    defects = np.asarray(defects, dtype=bool)
    # Any active cluster grows every iteration, so the total budget of
    # half-edge growth bounds the loop.
    for _ in range(int(graph.edge_capacity.sum()) + 1):
        roots = find_roots(parent, all_nodes)
        parity = np.bincount(
            roots[defects], minlength=num_nodes
        )
        active = (parity % 2).astype(bool)
        active[roots[graph.boundary_node]] = False
        if not active.any():
            return parent, forest
        root_u = roots[graph.edge_u]
        root_v = roots[graph.edge_v]
        growing = (root_u != root_v) & (support < graph.edge_capacity)
        increment = active[root_u].astype(np.int64) + active[
            root_v
        ].astype(np.int64)
        support[growing] += increment[growing]
        filled = np.flatnonzero(
            growing & (support >= graph.edge_capacity)
        )
        for edge in filled:
            if _union(
                parent,
                rank,
                int(graph.edge_u[edge]),
                int(graph.edge_v[edge]),
            ):
                forest[edge] = True
    raise RuntimeError(
        "union-find growth failed to converge"
    )  # pragma: no cover - defensive


def peel_forest(
    graph: DecodingGraph, forest: np.ndarray, defects: np.ndarray
) -> np.ndarray:
    """Extract corrections from a grown spanning forest.

    Leaves are peeled inward: a leaf holding a defect flips its tree
    edge (recording the data qubit of spatial edges) and hands the
    defect to its neighbour; the boundary node is never peeled and
    absorbs whatever reaches it.  Returns the data-qubit correction
    mask.
    """
    correction = np.zeros(graph.num_qubits, dtype=bool)
    defect = np.asarray(defects, dtype=bool).copy()
    edges = np.flatnonzero(forest)
    if edges.size == 0:
        if defect.any():
            raise RuntimeError("defects outside the grown forest")
        return correction
    u = graph.edge_u[edges]
    v = graph.edge_v[edges]
    degree = np.bincount(u, minlength=graph.num_nodes) + np.bincount(
        v, minlength=graph.num_nodes
    )
    adjacency: List[List[Tuple[int, int]]] = [
        [] for _ in range(graph.num_nodes)
    ]
    for position in range(edges.size):
        node_u = int(u[position])
        node_v = int(v[position])
        adjacency[node_u].append((position, node_v))
        adjacency[node_v].append((position, node_u))
    removed = np.zeros(edges.size, dtype=bool)
    boundary = graph.boundary_node
    stack = [
        int(node)
        for node in np.flatnonzero(degree == 1)
        if node != boundary
    ]
    while stack:
        node = stack.pop()
        if degree[node] != 1:
            continue
        position = -1
        other = -1
        for candidate, neighbour in adjacency[node]:
            if not removed[candidate]:
                position = candidate
                other = neighbour
                break
        removed[position] = True
        degree[node] -= 1
        degree[other] -= 1
        if defect[node]:
            qubit = int(graph.edge_qubit[edges[position]])
            if qubit >= 0:
                correction[qubit] ^= True
            defect[node] = False
            if other != boundary:
                defect[other] = not defect[other]
        if other != boundary and degree[other] == 1:
            stack.append(other)
    if defect.any():
        raise RuntimeError("peeling left unpaired defects")
    return correction


def _decode_defects(
    graph: DecodingGraph, defects: np.ndarray
) -> np.ndarray:
    """Full union-find pass: grow, then peel."""
    parent, forest = grow_clusters(graph, defects)
    del parent
    return peel_forest(graph, forest, defects)


# ----------------------------------------------------------------------
# Decoder frontends
# ----------------------------------------------------------------------
class UnionFindDecoder:
    """Single-round union-find decoding of one check species.

    Drop-in for :class:`~repro.decoders.mwpm.MwpmDecoder`: same
    constructor signature, same ``decode(syndrome) -> correction``
    contract, plus a deduplicating :meth:`decode_batch` over
    ``(shots, checks)`` syndrome arrays.
    """

    def __init__(
        self,
        check_matrix: np.ndarray,
        boundary_qubits: Sequence[int],
    ) -> None:
        self.graph = build_space_graph(check_matrix, boundary_qubits)

    def decode(self, syndrome: Sequence[int]) -> np.ndarray:
        """Correction bit-vector for one syndrome."""
        syndrome = np.asarray(syndrome, dtype=bool)
        t = telemetry.ACTIVE
        if t is None:
            return self._decode(syndrome)
        with t.span(
            "decoder.unionfind",
            "UnionFindDecoder.decode",
            defects=int(np.count_nonzero(syndrome)),
        ):
            correction = self._decode(syndrome)
        t.count("decoder.unionfind", "UnionFindDecoder.decode", "calls")
        t.count(
            "decoder.unionfind",
            "UnionFindDecoder.decode",
            "correction_weight",
            int(correction.sum()),
        )
        return correction

    def _decode(self, syndrome: np.ndarray) -> np.ndarray:
        defects = np.zeros(self.graph.num_nodes, dtype=bool)
        defects[: self.graph.num_checks] = syndrome
        return _decode_defects(self.graph, defects)

    def decode_batch(self, syndromes: np.ndarray) -> np.ndarray:
        """Corrections for a ``(shots, checks)`` syndrome batch.

        Identical syndromes are decoded once (``np.unique`` over the
        rows) and the results gathered back, so the per-syndrome
        Python work scales with the number of distinct syndromes.
        """
        syndromes = np.asarray(syndromes, dtype=bool)
        unique, inverse = np.unique(
            syndromes, axis=0, return_inverse=True
        )
        inverse = np.asarray(inverse).reshape(-1)
        table = np.empty(
            (unique.shape[0], self.graph.num_qubits), dtype=bool
        )
        for index in range(unique.shape[0]):
            table[index] = self._decode(unique[index])
        t = telemetry.ACTIVE
        if t is not None:
            t.count(
                "decoder.unionfind",
                "UnionFindDecoder.decode_batch",
                "shots",
                int(syndromes.shape[0]),
            )
            t.count(
                "decoder.unionfind",
                "UnionFindDecoder.decode_batch",
                "unique_syndromes",
                int(unique.shape[0]),
            )
        return table[inverse]


class SpaceTimeUnionFindDecoder:
    """Union-find decoding of repeated noisy syndrome rounds.

    API-compatible with
    :class:`~repro.decoders.spacetime.SpaceTimeMatchingDecoder`
    (``detection_events`` / ``decode_history`` / ``decode_events``)
    plus the batched :meth:`decode_batch` over whole
    ``(shots, rounds, checks)`` history arrays.  Space-time graphs are
    cached per round count.
    """

    def __init__(
        self,
        check_matrix: np.ndarray,
        boundary_qubits: Sequence[int],
        time_weight: float = 1.0,
    ) -> None:
        self.check_matrix = np.asarray(check_matrix, dtype=np.uint8)
        self.boundary_qubits = [int(q) for q in boundary_qubits]
        self.time_weight = float(time_weight)
        self.num_checks = int(self.check_matrix.shape[0])
        self.num_qubits = int(self.check_matrix.shape[1])
        self._graphs: dict = {}

    def _graph_for(self, rounds: int) -> DecodingGraph:
        graph = self._graphs.get(rounds)
        if graph is None:
            graph = build_space_time_graph(
                self.check_matrix,
                self.boundary_qubits,
                rounds,
                time_weight=self.time_weight,
            )
            self._graphs[rounds] = graph
        return graph

    # ------------------------------------------------------------------
    def detection_events(
        self, syndrome_history: Sequence[Sequence[int]]
    ) -> List[Tuple[int, int]]:
        """``(round, check)`` pairs where the syndrome changed."""
        history = np.asarray(syndrome_history, dtype=bool)
        events = self._event_array(history[np.newaxis])[0]
        rounds_idx, checks_idx = np.nonzero(events)
        return [
            (int(t), int(c))
            for t, c in zip(rounds_idx, checks_idx)
        ]

    @staticmethod
    def _event_array(histories: np.ndarray) -> np.ndarray:
        """XOR each round against its predecessor (round 0 vs zeros).

        ``histories`` is ``(shots, rounds, checks)``; so is the
        result.
        """
        events = histories.copy()
        events[:, 1:] ^= histories[:, :-1]
        return events

    def decode_history(
        self, syndrome_history: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """Correction bit-vector from one full syndrome history."""
        history = np.asarray(syndrome_history, dtype=bool)
        return self.decode_batch(history[np.newaxis])[0]

    def decode_events(
        self,
        events: Sequence[Tuple[int, int]],
        rounds: Optional[int] = None,
    ) -> np.ndarray:
        """Decode explicit ``(round, check)`` detection events."""
        events = list(events)
        if rounds is None:
            rounds = max((t for t, _ in events), default=0) + 1
        graph = self._graph_for(rounds)
        defects = np.zeros(graph.num_nodes, dtype=bool)
        for t, check in events:
            defects[t * self.num_checks + check] ^= True
        return _decode_defects(graph, defects)

    def decode_batch(self, histories: np.ndarray) -> np.ndarray:
        """Corrections for ``(shots, rounds, checks)`` histories.

        The detection-event transform is one vectorized XOR; identical
        event patterns are decoded once (``np.unique`` dedupe) and
        gathered back into per-shot corrections.
        """
        histories = np.asarray(histories, dtype=bool)
        t = telemetry.ACTIVE
        if t is None:
            return self._decode_batch(histories)
        with t.span(
            "decoder.unionfind",
            "SpaceTimeUnionFindDecoder.decode_batch",
            shots=int(histories.shape[0]),
            rounds=int(histories.shape[1]),
        ):
            return self._decode_batch(histories)

    def _decode_batch(self, histories: np.ndarray) -> np.ndarray:
        shots, rounds, _ = histories.shape
        graph = self._graph_for(rounds)
        events = self._event_array(histories).reshape(shots, -1)
        unique, inverse = np.unique(
            events, axis=0, return_inverse=True
        )
        inverse = np.asarray(inverse).reshape(-1)
        table = np.empty(
            (unique.shape[0], self.num_qubits), dtype=bool
        )
        for index in range(unique.shape[0]):
            defects = np.zeros(graph.num_nodes, dtype=bool)
            defects[: rounds * self.num_checks] = unique[index]
            table[index] = _decode_defects(graph, defects)
        t = telemetry.ACTIVE
        if t is not None:
            t.count(
                "decoder.unionfind",
                "SpaceTimeUnionFindDecoder.decode_batch",
                "shots",
                int(shots),
            )
            t.count(
                "decoder.unionfind",
                "SpaceTimeUnionFindDecoder.decode_batch",
                "unique_syndromes",
                int(unique.shape[0]),
            )
        return table[inverse]


# ----------------------------------------------------------------------
# Dense-table form for the Surface-17 windowed protocol
# ----------------------------------------------------------------------
def unionfind_dense_lut(
    check_matrix: np.ndarray, boundary_qubits: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense gather table filled by union-find decoding.

    Every one of the ``2^num_checks`` syndromes is decoded once by a
    :class:`UnionFindDecoder`, process-cached like the LUT and MWPM
    tables — so the windowed pipeline can consume the union-find
    decoder as one gather per window.
    """
    check = np.ascontiguousarray(
        np.asarray(check_matrix, dtype=np.uint8)
    )
    key = ("unionfind", *_check_digest(check), tuple(boundary_qubits))

    def build() -> Tuple[np.ndarray, np.ndarray]:
        num_checks, _ = check.shape
        if num_checks > MAX_DENSE_CHECKS:
            raise ValueError(
                "dense union-find table infeasible beyond "
                f"{MAX_DENSE_CHECKS} checks; use the batch decoders"
            )
        decoder = UnionFindDecoder(check, boundary_qubits)
        size = 1 << num_checks
        syndromes = unpack_syndromes(np.arange(size), num_checks)
        table = decoder.decode_batch(syndromes)
        return table, np.ones(size, dtype=bool)

    return _cached_table(key, build)
