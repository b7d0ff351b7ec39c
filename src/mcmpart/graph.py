"""Computation graphs: node/edge types, validation, JSON round-trip, topo order.

Nodes carry abstract per-op features (cost in time units, output/parameter
bytes); edges carry transfer sizes.  Node ids are dense integers so that
assignments and per-node distributions can live in flat arrays.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from typing import IO, Sequence, Union

import numpy as np

from .errors import DanglingEdgeError, GraphCycleError, GraphFormatError, InvalidConfigError
from .kernels import MAX_CHIPS


@dataclass(frozen=True)
class OpNode:
    """One operation: id, kind, abstract compute cost, output/parameter bytes."""

    id: int
    op_kind: str
    compute_cost: float
    output_bytes: int
    param_bytes: int

    def __post_init__(self):
        if not math.isfinite(self.compute_cost):
            raise GraphFormatError(f"node {self.id}: non-finite cost {self.compute_cost}")
        if self.compute_cost < 0 or self.output_bytes < 0 or self.param_bytes < 0:
            raise GraphFormatError(f"node {self.id}: negative cost or bytes")


@dataclass(frozen=True)
class DataEdge:
    """Directed dependency src -> dst transferring ``transfer_bytes``."""

    src: int
    dst: int
    transfer_bytes: int

    def __post_init__(self):
        if self.src == self.dst:
            raise GraphFormatError(f"self-edge on node {self.src}")
        if self.transfer_bytes < 0:
            raise GraphFormatError(f"edge {self.src}->{self.dst}: negative bytes")


@dataclass(frozen=True)
class ChipTopology:
    """A uni-directional ring of ``num_chips`` chips with per-chip SRAM."""

    num_chips: int
    sram_bytes_per_chip: int = 64 * 1024 * 1024
    link_bandwidth_bytes_per_time: float = float(1024 * 1024)

    def __post_init__(self):
        if self.num_chips < 1:
            raise InvalidConfigError("num_chips must be >= 1")
        if self.num_chips > MAX_CHIPS:
            raise InvalidConfigError(f"num_chips must be <= {MAX_CHIPS}")
        if not all(math.isfinite(v) and v > 0 for v in (self.sram_bytes_per_chip, self.link_bandwidth_bytes_per_time)):
            raise InvalidConfigError("chip capacities must be positive and finite")


class ComputationGraph:
    """Immutable DAG of operations; validated on construction.

    Exposes flat numpy views (costs, bytes, edge endpoints) that the solver
    and evaluators consume directly, plus per-node predecessor/successor
    tuples and a topological order for propagation.
    """

    def __init__(self, nodes: Sequence[OpNode], edges: Sequence[DataEdge]):
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)
        n = len(self.nodes)
        for i, node in enumerate(self.nodes):
            if node.id != i:
                raise GraphFormatError(f"node ids must be dense 0..{n - 1}; got {node.id} at position {i}")
        seen = set()
        for e in self.edges:
            if not (0 <= e.src < n) or not (0 <= e.dst < n):
                raise DanglingEdgeError(f"edge {e.src}->{e.dst} references a missing node (n={n})")
            if (e.src, e.dst) in seen:
                raise GraphFormatError(f"duplicate edge {e.src}->{e.dst}")
            seen.add((e.src, e.dst))

        self.num_nodes = n
        self.edge_src = np.array([e.src for e in self.edges], dtype=np.int64)
        self.edge_dst = np.array([e.dst for e in self.edges], dtype=np.int64)
        self.edge_bytes = np.array([e.transfer_bytes for e in self.edges], dtype=np.int64)
        self.compute_cost = np.array([nd.compute_cost for nd in self.nodes], dtype=np.float64)
        self.output_bytes = np.array([nd.output_bytes for nd in self.nodes], dtype=np.int64)
        self.param_bytes = np.array([nd.param_bytes for nd in self.nodes], dtype=np.int64)

        preds = [[] for _ in range(n)]
        succs = [[] for _ in range(n)]
        for e in self.edges:
            preds[e.dst].append(e.src)
            succs[e.src].append(e.dst)
        self.preds = tuple(tuple(p) for p in preds)
        self.succs = tuple(tuple(s) for s in succs)
        self.topo_nodes = self._compute_topo_order()

    def _compute_topo_order(self):
        n = self.num_nodes
        indeg = [len(p) for p in self.preds]
        succ = self.succs
        heap = [i for i in range(n) if indeg[i] == 0]
        heapq.heapify(heap)
        order = []
        while heap:
            u = heapq.heappop(heap)
            order.append(u)
            for v in succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    heapq.heappush(heap, v)
        if len(order) != n:
            raise GraphCycleError("graph contains a directed cycle")
        return tuple(order)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def node_depths(self) -> np.ndarray:
        """Longest-path depth from any source node, per node."""
        depth = np.zeros(self.num_nodes, dtype=np.int64)
        for u in self.topo_nodes:
            for v in self.succs[u]:
                if depth[v] < depth[u] + 1:
                    depth[v] = depth[u] + 1
        return depth

    def __repr__(self):
        return f"ComputationGraph(nodes={self.num_nodes}, edges={self.num_edges})"


def topological_order(g: ComputationGraph) -> np.ndarray:
    """Topological order of node ids, ties broken by smallest id first."""
    return np.array(g.topo_nodes, dtype=np.int64)


def load_graph(source: Union[bytes, str, IO]) -> ComputationGraph:
    """Parse the graph JSON document (bytes, str, or file-like)."""
    text = source if isinstance(source, (bytes, str)) else source.read()
    try:
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "nodes" not in doc or "edges" not in doc:
        raise GraphFormatError("document must be an object with 'nodes' and 'edges'")
    try:
        nodes = [
            OpNode(
                id=int(nd["id"]),
                op_kind=str(nd["op"]),
                compute_cost=float(nd["cost"]),
                output_bytes=int(nd["out_bytes"]),
                param_bytes=int(nd["param_bytes"]),
            )
            for nd in doc["nodes"]
        ]
        edges = [
            DataEdge(src=int(ed["src"]), dst=int(ed["dst"]), transfer_bytes=int(ed["bytes"]))
            for ed in doc["edges"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"malformed node or edge record: {exc}") from exc
    if not any(nd.compute_cost > 0 for nd in nodes):
        raise GraphFormatError("graph has no node with a positive cost, so its throughput is unbounded")
    return ComputationGraph(nodes, edges)


def load_graph_file(path) -> ComputationGraph:
    with open(path, "rb") as fh:
        return load_graph(fh)


def graph_to_json(g: ComputationGraph) -> str:
    """Canonical JSON form of a graph (stable key order, compact floats)."""
    doc = {
        "nodes": [
            {
                "id": nd.id,
                "op": nd.op_kind,
                "cost": nd.compute_cost,
                "out_bytes": nd.output_bytes,
                "param_bytes": nd.param_bytes,
            }
            for nd in g.nodes
        ],
        "edges": [
            {"src": e.src, "dst": e.dst, "bytes": e.transfer_bytes} for e in g.edges
        ],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def save_graph(g: ComputationGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_to_json(g))
