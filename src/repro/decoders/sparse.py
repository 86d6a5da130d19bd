"""Sparse local-matching MWPM: scipy-csgraph distances, greedy pairs.

The exact Blossom matcher (:mod:`repro.decoders.mwpm`) re-solves a
dense all-pairs matching per syndrome through networkx — fine for
Surface-17, hopeless for d >= 15 space-time graphs.  This module keeps
the *matching* decoding principle but swaps both expensive stages for
sparse, array-native machinery:

* **distances** come from one all-pairs shortest-path pass over the
  decoding graph (:func:`scipy.sparse.csgraph.shortest_path` with
  predecessors when scipy is present, a vectorized numpy
  Floyd-Warshall fallback otherwise), cached per graph — decoding
  never runs Dijkstra again;
* **matching** runs locally over the defects only: up to
  :data:`MAX_EXACT_DEFECTS` defects, a subset-DP finds the *exact*
  minimum-weight pairing (defect-defect or defect-boundary) over the
  shortest-path metric — the same optimum Blossom finds, without the
  dense all-nodes graph; beyond that, greedy sorted-candidate
  matching (a 2-approximation, the standard local-matching fallback)
  takes over.  Tests pin validity (``H c = s``) exactly and the
  logical class against Blossom at small d.

Graphs are the shared edge-list :class:`~repro.decoders.unionfind.
DecodingGraph` structures, so space and space-time layouts come for
free, and the batched frontends mirror the union-find ones:
``decode_batch`` over ``(shots, [rounds,] checks)`` arrays with
``np.unique`` dedupe, plus a dense-table form for the
Surface-17 windowed LER pipeline (:func:`sparse_mwpm_dense_lut`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from .batched import (
    MAX_DENSE_CHECKS,
    _cached_table,
    _check_digest,
    unpack_syndromes,
)
from .unionfind import (
    DecodingGraph,
    build_space_graph,
    build_space_time_graph,
)

try:  # pragma: no cover - exercised via HAVE_SCIPY branches
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover - numpy fallback container
    HAVE_SCIPY = False

#: ``predecessors`` sentinel for "no path / self" (scipy's value,
#: reused by the numpy fallback).
_NO_PRED = -9999

#: Defect-count ceiling for the exact subset-DP matching; above it the
#: greedy 2-approximation takes over (``O(2^m m)`` vs ``O(m^2 log m)``).
MAX_EXACT_DEFECTS = 16


def _min_cost_pairing(
    pair_cost: np.ndarray, boundary_cost: np.ndarray
) -> List[Tuple[int, int]]:
    """Exact minimum-cost pairing of defects, boundary always open.

    ``pair_cost`` is the ``(m, m)`` defect-defect distance matrix,
    ``boundary_cost`` the per-defect boundary distance.  Returns
    ``(i, j)`` index pairs with ``j = -1`` meaning the boundary.
    Subset DP over the defect set — exponential in ``m``, which stays
    tiny at the error rates where decoding succeeds at all.
    """
    m = int(boundary_cost.shape[0])
    size = 1 << m
    best = np.full(size, np.inf)
    best[0] = 0.0
    choice: List[Tuple[int, int]] = [(-1, -1)] * size
    for mask in range(size - 1):
        if not np.isfinite(best[mask]):
            continue
        free = 0
        while mask & (1 << free):
            free += 1
        with_boundary = mask | (1 << free)
        cost = best[mask] + boundary_cost[free]
        if cost < best[with_boundary]:
            best[with_boundary] = cost
            choice[with_boundary] = (free, -1)
        for partner in range(free + 1, m):
            if mask & (1 << partner):
                continue
            paired = mask | (1 << free) | (1 << partner)
            cost = best[mask] + pair_cost[free, partner]
            if cost < best[paired]:
                best[paired] = cost
                choice[paired] = (free, partner)
    if not np.isfinite(best[size - 1]):
        raise RuntimeError("defects unreachable from each other")
    pairs: List[Tuple[int, int]] = []
    mask = size - 1
    while mask:
        i, j = choice[mask]
        pairs.append((i, j))
        mask &= ~(1 << i)
        if j >= 0:
            mask &= ~(1 << j)
    return pairs


def _floyd_warshall(
    weights: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """All-pairs distances + predecessors without scipy.

    ``weights`` is a dense ``(n, n)`` matrix with 0 for "no edge".
    Returns ``(dist, pred)`` with scipy's ``shortest_path``
    conventions: ``pred[i, j]`` is the node before ``j`` on the
    shortest ``i -> j`` path (``_NO_PRED`` when none/self).
    """
    n = weights.shape[0]
    dist = np.where(weights > 0, weights, np.inf)
    np.fill_diagonal(dist, 0.0)
    pred = np.where(
        weights > 0,
        np.arange(n, dtype=np.int64)[:, np.newaxis],
        _NO_PRED,
    )
    np.fill_diagonal(pred, _NO_PRED)
    for via in range(n):
        alternative = dist[:, via, np.newaxis] + dist[np.newaxis, via]
        better = alternative < dist
        dist = np.where(better, alternative, dist)
        pred = np.where(better, pred[via][np.newaxis, :], pred)
    return dist, pred


class SparseMatchingGraph:
    """Distance/path oracle over one :class:`DecodingGraph`.

    Edge weights are ``edge_capacity / 2`` (the half-edge convention
    of the union-find graphs, so both decoders agree on geometry).
    The all-pairs pass runs once, lazily, and is kept on the instance.
    """

    def __init__(self, graph: DecodingGraph) -> None:
        self.graph = graph
        self._qubit_of: Dict[Tuple[int, int], int] = {}
        for index in range(graph.num_edges):
            u = int(graph.edge_u[index])
            v = int(graph.edge_v[index])
            qubit = int(graph.edge_qubit[index])
            self._qubit_of.setdefault((u, v), qubit)
            self._qubit_of.setdefault((v, u), qubit)
        self._dist: Optional[np.ndarray] = None
        self._pred: Optional[np.ndarray] = None

    def _solve(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._dist is None:
            n = self.graph.num_nodes
            weights = self.graph.edge_capacity.astype(np.float64) / 2.0
            if HAVE_SCIPY:
                adjacency = csr_matrix(
                    (weights, (self.graph.edge_u, self.graph.edge_v)),
                    shape=(n, n),
                )
                dist, pred = shortest_path(
                    adjacency,
                    directed=False,
                    return_predecessors=True,
                )
                self._dist = dist
                self._pred = pred.astype(np.int64)
            else:
                dense = np.zeros((n, n), dtype=np.float64)
                dense[self.graph.edge_u, self.graph.edge_v] = weights
                dense[self.graph.edge_v, self.graph.edge_u] = weights
                self._dist, self._pred = _floyd_warshall(dense)
        assert self._pred is not None
        return self._dist, self._pred

    def path_qubits(self, source: int, target: int) -> List[int]:
        """Data qubits along the shortest ``source -> target`` path.

        Temporal hops contribute nothing (no data qubit).
        """
        _, pred = self._solve()
        qubits: List[int] = []
        node = target
        while node != source:
            before = int(pred[source, node])
            if before == _NO_PRED:
                raise ValueError(
                    f"no path from {source} to {node}"
                )
            qubit = self._qubit_of[(before, node)]
            if qubit >= 0:
                qubits.append(qubit)
            node = before
        return qubits

    def match_defects(self, defect_nodes: np.ndarray) -> np.ndarray:
        """Local matching over the defects; returns the correction.

        Up to :data:`MAX_EXACT_DEFECTS` defects the pairing is the
        exact subset-DP optimum (:func:`_min_cost_pairing`); beyond
        that the greedy 2-approximation pairs sorted candidates.
        Both are deterministic.
        """
        correction = np.zeros(self.graph.num_qubits, dtype=bool)
        defect_nodes = np.asarray(defect_nodes, dtype=np.int64)
        count = int(defect_nodes.shape[0])
        if count == 0:
            return correction
        dist, _ = self._solve()
        boundary = self.graph.boundary_node
        rows = dist[defect_nodes]
        pair_cost = rows[:, defect_nodes]
        boundary_cost = rows[:, boundary]
        if count <= MAX_EXACT_DEFECTS:
            pairs = _min_cost_pairing(pair_cost, boundary_cost)
        else:
            pairs = self._greedy_pairing(pair_cost, boundary_cost)
        for i, j in pairs:
            target = boundary if j < 0 else int(defect_nodes[j])
            for qubit in self.path_qubits(
                int(defect_nodes[i]), target
            ):
                correction[qubit] ^= True
        return correction

    @staticmethod
    def _greedy_pairing(
        pair_cost: np.ndarray, boundary_cost: np.ndarray
    ) -> List[Tuple[int, int]]:
        """Greedy sorted-candidate pairing (``j = -1`` = boundary).

        Candidates sort by ``(distance, kind, i, j)`` — pairs win
        ties over boundary links, lower indices win within a kind.
        The boundary absorbs any number of defects, so everyone
        pairs off.
        """
        count = int(boundary_cost.shape[0])
        candidates: List[Tuple[float, int, int, int]] = []
        for i in range(count):
            for j in range(i + 1, count):
                candidates.append((float(pair_cost[i, j]), 0, i, j))
            candidates.append((float(boundary_cost[i]), 1, i, -1))
        candidates.sort()
        matched = np.zeros(count, dtype=bool)
        remaining = count
        pairs: List[Tuple[int, int]] = []
        for cost, kind, i, j in candidates:
            if remaining == 0:
                break
            if matched[i] or not np.isfinite(cost):
                continue
            if kind == 0:
                if matched[j]:
                    continue
                matched[i] = matched[j] = True
                remaining -= 2
            else:
                matched[i] = True
                remaining -= 1
            pairs.append((i, j))
        if remaining:
            raise RuntimeError(
                "greedy matching left unpaired defects"
            )
        return pairs


class SparseMwpmDecoder:
    """Single-round sparse local-matching decoding of one species.

    Drop-in for :class:`~repro.decoders.mwpm.MwpmDecoder` — same
    constructor, same ``decode(syndrome)`` contract — plus the
    deduplicating :meth:`decode_batch` over ``(shots, checks)``
    arrays.
    """

    def __init__(
        self,
        check_matrix: np.ndarray,
        boundary_qubits: Sequence[int],
    ) -> None:
        self.matcher = SparseMatchingGraph(
            build_space_graph(check_matrix, boundary_qubits)
        )

    def decode(self, syndrome: Sequence[int]) -> np.ndarray:
        """Correction bit-vector for one syndrome."""
        syndrome = np.asarray(syndrome, dtype=bool)
        t = telemetry.ACTIVE
        if t is None:
            return self._decode(syndrome)
        with t.span(
            "decoder.sparse",
            "SparseMwpmDecoder.decode",
            defects=int(np.count_nonzero(syndrome)),
        ):
            correction = self._decode(syndrome)
        t.count("decoder.sparse", "SparseMwpmDecoder.decode", "calls")
        return correction

    def _decode(self, syndrome: np.ndarray) -> np.ndarray:
        return self.matcher.match_defects(np.flatnonzero(syndrome))

    def decode_batch(self, syndromes: np.ndarray) -> np.ndarray:
        """Corrections for a ``(shots, checks)`` syndrome batch."""
        syndromes = np.asarray(syndromes, dtype=bool)
        unique, inverse = np.unique(
            syndromes, axis=0, return_inverse=True
        )
        inverse = np.asarray(inverse).reshape(-1)
        table = np.empty(
            (unique.shape[0], self.matcher.graph.num_qubits),
            dtype=bool,
        )
        for index in range(unique.shape[0]):
            table[index] = self._decode(unique[index])
        return table[inverse]


class SparseSpaceTimeMatchingDecoder:
    """Sparse matching over repeated noisy syndrome rounds.

    API-compatible with
    :class:`~repro.decoders.spacetime.SpaceTimeMatchingDecoder`
    (``detection_events`` / ``decode_history`` / ``decode_events``)
    plus :meth:`decode_batch` over ``(shots, rounds, checks)``
    histories.  Matchers are cached per round count.
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
        self._matchers: Dict[int, SparseMatchingGraph] = {}

    def _matcher_for(self, rounds: int) -> SparseMatchingGraph:
        matcher = self._matchers.get(rounds)
        if matcher is None:
            matcher = SparseMatchingGraph(
                build_space_time_graph(
                    self.check_matrix,
                    self.boundary_qubits,
                    rounds,
                    time_weight=self.time_weight,
                )
            )
            self._matchers[rounds] = matcher
        return matcher

    def detection_events(
        self, syndrome_history: Sequence[Sequence[int]]
    ) -> List[Tuple[int, int]]:
        """``(round, check)`` pairs where the syndrome changed."""
        history = np.asarray(syndrome_history, dtype=bool)
        events = history.copy()
        events[1:] ^= history[:-1]
        rounds_idx, checks_idx = np.nonzero(events)
        return [
            (int(t), int(c))
            for t, c in zip(rounds_idx, checks_idx)
        ]

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
        matcher = self._matcher_for(rounds)
        defects = np.zeros(matcher.graph.num_nodes, dtype=bool)
        for t, check in events:
            defects[t * self.num_checks + check] ^= True
        return matcher.match_defects(np.flatnonzero(defects))

    def decode_batch(self, histories: np.ndarray) -> np.ndarray:
        """Corrections for ``(shots, rounds, checks)`` histories."""
        histories = np.asarray(histories, dtype=bool)
        t = telemetry.ACTIVE
        if t is None:
            return self._decode_batch(histories)
        with t.span(
            "decoder.sparse",
            "SparseSpaceTimeMatchingDecoder.decode_batch",
            shots=int(histories.shape[0]),
            rounds=int(histories.shape[1]),
        ):
            return self._decode_batch(histories)

    def _decode_batch(self, histories: np.ndarray) -> np.ndarray:
        shots, rounds, _ = histories.shape
        matcher = self._matcher_for(rounds)
        events = histories.copy()
        events[:, 1:] ^= histories[:, :-1]
        flattened = events.reshape(shots, -1)
        unique, inverse = np.unique(
            flattened, axis=0, return_inverse=True
        )
        inverse = np.asarray(inverse).reshape(-1)
        table = np.empty(
            (unique.shape[0], self.num_qubits), dtype=bool
        )
        for index in range(unique.shape[0]):
            table[index] = matcher.match_defects(
                np.flatnonzero(unique[index])
            )
        return table[inverse]


# ----------------------------------------------------------------------
# Dense-table form for the Surface-17 windowed protocol
# ----------------------------------------------------------------------
def sparse_mwpm_dense_lut(
    check_matrix: np.ndarray, boundary_qubits: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense gather table filled by sparse local matching.

    Process-cached like the LUT / MWPM / union-find tables, so the
    windowed pipeline consumes the sparse matcher as one gather per
    window.
    """
    check = np.ascontiguousarray(
        np.asarray(check_matrix, dtype=np.uint8)
    )
    key = (
        "sparse-mwpm",
        *_check_digest(check),
        tuple(boundary_qubits),
    )

    def build() -> Tuple[np.ndarray, np.ndarray]:
        num_checks, _ = check.shape
        if num_checks > MAX_DENSE_CHECKS:
            raise ValueError(
                "dense sparse-matching table infeasible beyond "
                f"{MAX_DENSE_CHECKS} checks; use the batch decoders"
            )
        decoder = SparseMwpmDecoder(check, boundary_qubits)
        size = 1 << num_checks
        syndromes = unpack_syndromes(np.arange(size), num_checks)
        table = decoder.decode_batch(syndromes)
        return table, np.ones(size, dtype=bool)

    return _cached_table(key, build)
