"""Domain-propagating, backtracking solver over chip assignments.

The solver keeps one chip-id domain per node (bitmask), prunes domains to a
fixpoint after every decision, and undoes the most recent decision whenever
a domain empties (removing the failed value before retrying).  Two
construction strategies sit on top: sampling each node's chip from a
per-node distribution restricted to its live domain, and repairing a given
candidate assignment by keeping the feasible entries and randomly
completing the rest.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import InfeasibleError, InvalidConfigError, LimitExceededError, StepBudgetError
from .graph import ChipTopology, ComputationGraph
from .kernels import check_static_kernel, mask_to_values, propagate, values_to_mask

STEP_BUDGET_FACTOR = 64
MAX_RESTARTS = 16

VIOLATION_NAMES = {1: "backward-edge", 2: "skipped-chip", 3: "chip-dependency"}


@dataclass
class StaticReport:
    """Outcome of the independent static check: ok, or a violation + witness."""

    ok: bool
    violation: Optional[str] = None
    witness: Optional[tuple] = None

    def __bool__(self):
        return self.ok


@dataclass
class Partition:
    """A total node -> chip assignment plus provenance tag."""

    assignment: np.ndarray
    source: str = "sampled"
    valid: bool = True

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=np.int64)

    def __len__(self):
        return len(self.assignment)

    def to_json(self) -> str:
        doc = {
            "assignment": [int(v) for v in self.assignment],
            "valid": bool(self.valid),
            "source": self.source,
        }
        return json.dumps(doc, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Partition":
        doc = json.loads(text)
        return cls(
            assignment=np.asarray(doc["assignment"], dtype=np.int64),
            source=doc.get("source", "sampled"),
            valid=bool(doc.get("valid", True)),
        )


def _checked_assignment(g: ComputationGraph, p, num_chips: int, what: str = "assignment") -> np.ndarray:
    """The assignment of ``p`` as int64, checked for length and chip range."""
    assign = np.asarray(p.assignment if isinstance(p, Partition) else p, dtype=np.int64)
    if len(assign) != g.num_nodes:
        raise InvalidConfigError(f"{what} length {len(assign)} != node count {g.num_nodes}")
    if len(assign) and (assign.min() < 0 or assign.max() >= num_chips):
        raise InvalidConfigError(f"{what} values must lie in [0, num_chips)")
    return assign


def check_static(g: ComputationGraph, p, num_chips: int) -> StaticReport:
    """Evaluate the three static placement rules directly on a total assignment.

    Implemented independently of the solver (no domains, no propagation) so
    it can serve as the oracle for solver outputs.
    """
    assign = _checked_assignment(g, p, num_chips)
    code, w0, w1 = check_static_kernel(assign, g.edge_src, g.edge_dst, num_chips)
    if code == 0:
        return StaticReport(ok=True)
    witness = (int(w0),) if code == 2 else (int(w0), int(w1))
    return StaticReport(ok=False, violation=VIOLATION_NAMES[int(code)], witness=witness)


class ConstraintSolver:
    """Per-node chip domains with propagation and chronological backtracking.

    The decision index returned by :meth:`set_domain` equals the number of
    live decisions; it normally grows by one per call but drops when the
    solver backtracks.
    """

    def __init__(self, g: ComputationGraph, topo: ChipTopology):
        self.graph = g
        self.topo = topo
        n = g.num_nodes
        c = topo.num_chips
        # A node on chip v forces chips 0..v-1 to be occupied by other
        # nodes, so no node can sit above chip n-1.
        init_mask = (1 << min(c, max(n, 1))) - 1
        self._dom = np.full(n, init_mask, dtype=np.int64)
        self._trail: list[tuple[int, int, np.ndarray]] = []
        if n and g.num_edges:
            status = self._propagate()
            if status != 0:  # full domains never wipe; defensive only
                raise InfeasibleError("infeasible at initialization")

    @property
    def decided_count(self) -> int:
        return len(self._trail)

    def get_domain(self, u: int) -> tuple:
        """Current allowed chip ids for node ``u`` (no state mutation)."""
        return mask_to_values(self._dom[u])

    def domain_mask(self, u: int) -> int:
        return int(self._dom[u])

    def set_domain(self, u: int, values: Iterable[int]) -> int:
        """Restrict node ``u`` to ``values``, propagate, backtrack if needed.

        Returns the new decision count: previous + 1 on success, lower if
        backtracking undid earlier decisions, and raises when backtracking
        exhausts the root alternatives.
        """
        mask = values_to_mask(values)
        cur = int(self._dom[u])
        new = cur & mask
        singleton = mask != 0 and mask & (mask - 1) == 0
        if singleton and new == 0:
            raise InvalidConfigError(
                f"value {mask_to_values(mask)} not in current domain of node {u}"
            )
        if new == 0:
            return self._backtrack()
        snapshot = self._dom.copy()
        value = _lowest_bit(new) if new & (new - 1) == 0 and singleton else -1
        self._trail.append((u, value, snapshot))
        if new != cur:
            self._dom[u] = new
            status = self._propagate()
            if status != 0:
                return self._backtrack()
        return len(self._trail)

    def _propagate(self) -> int:
        g = self.graph
        return propagate(self._dom, g.topo_nodes, g.preds, g.succs, self.topo.num_chips)

    def _backtrack(self) -> int:
        while self._trail:
            node, value, snapshot = self._trail.pop()
            np.copyto(self._dom, snapshot)
            if value < 0:
                continue  # re-asserted domain: nothing to retry here
            remaining = int(self._dom[node]) & ~(1 << value)
            if remaining == 0:
                continue
            self._dom[node] = remaining
            status = self._propagate()
            if status == 0:
                return len(self._trail)
        raise InfeasibleError("backtracking exhausted the root domain")

    def assignment(self) -> np.ndarray:
        """Read the assignment once every domain is a singleton."""
        out = np.empty(self.graph.num_nodes, dtype=np.int64)
        for i in range(self.graph.num_nodes):
            m = int(self._dom[i])
            if m & (m - 1) != 0:
                raise InvalidConfigError(f"node {i} is still undecided")
            out[i] = _lowest_bit(m)
        return out


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _sample_from_mask(probs: np.ndarray, mask: int, rng: np.random.Generator) -> int:
    """Draw a chip from ``probs`` renormalized over the domain ``mask``.

    Falls back to uniform over the domain when the distribution places no
    mass on any allowed value, so excluded values are never sampled.
    """
    allowed = mask_to_values(mask)
    if len(allowed) == 1:
        return allowed[0]
    weights = np.array([probs[v] for v in allowed], dtype=np.float64)
    total = weights.sum()
    if not np.isfinite(total) or total <= 0.0:
        return allowed[rng.integers(0, len(allowed))]
    cum = np.cumsum(weights / total)
    r = rng.random()
    idx = int(np.searchsorted(cum, r, side="right"))
    return allowed[min(idx, len(allowed) - 1)]


def _default_order(n: int, order, rng: np.random.Generator) -> np.ndarray:
    if order is None:
        return rng.permutation(n).astype(np.int64)
    order = np.asarray(order, dtype=np.int64)
    if sorted(order.tolist()) != list(range(n)):
        raise InvalidConfigError("node order must be a permutation of 0..N-1")
    return order


def _validate_distribution(P: np.ndarray, n: int, c: int) -> np.ndarray:
    P = np.asarray(P, dtype=np.float64)
    if P.shape != (n, c):
        raise InvalidConfigError(f"distribution matrix must be {n}x{c}, got {P.shape}")
    if (P < 0).any():
        raise InvalidConfigError("distribution entries must be nonnegative")
    if not np.allclose(P.sum(axis=1), 1.0, atol=1e-6):
        raise InvalidConfigError("distribution rows must sum to 1")
    return P


def uniform_distribution(n: int, c: int) -> np.ndarray:
    return np.full((n, c), 1.0 / c, dtype=np.float64)


def solve_sample(
    g: ComputationGraph,
    topo: ChipTopology,
    P: np.ndarray,
    rng: np.random.Generator,
    order=None,
    step_budget: Optional[int] = None,
    max_restarts: int = MAX_RESTARTS,
) -> Partition:
    """Build a valid partition by sampling each node's chip from ``P``.

    Nodes are visited in ``order`` (fresh random permutation by default);
    each node's chip is drawn from its distribution row restricted to the
    live domain.  Backtracking re-visits nodes whose decisions were undone.
    An attempt that exhausts its decision budget restarts with a fresh
    random order; chronological backtracking is highly order-sensitive, so
    a bounded number of restarts tames thrash on dependency-dense graphs.
    """
    n = g.num_nodes
    c = topo.num_chips
    P = _validate_distribution(P, n, c)
    budget = STEP_BUDGET_FACTOR * max(n, 1) if step_budget is None else step_budget
    for attempt in range(max(1, max_restarts)):
        solver = ConstraintSolver(g, topo)
        attempt_order = _default_order(n, order, rng)
        steps = 0
        i = 0
        failed = False
        while i < n:
            if steps >= budget:
                failed = True
                break
            steps += 1
            u = int(attempt_order[i])
            v = _sample_from_mask(P[u], solver.domain_mask(u), rng)
            i = solver.set_domain(u, (v,))
        if failed:
            continue
        part = Partition(solver.assignment(), source="sampled")
        _assert_valid(g, topo, part)
        return part
    raise StepBudgetError(f"exceeded {budget} decisions in each of {max_restarts} attempts while sampling")


def solve_fix(
    g: ComputationGraph,
    topo: ChipTopology,
    y,
    rng: np.random.Generator,
    order=None,
    step_budget: Optional[int] = None,
    max_restarts: int = MAX_RESTARTS,
) -> Partition:
    """Repair a candidate assignment into a valid partition.

    First pass keeps each candidate value that is still in its node's
    domain (others leave the domain untouched); second pass fixes every
    remaining node to a uniformly random value from its domain, traversing
    the same order.  Budget-exhausted attempts restart with a fresh random
    order, as in :func:`solve_sample`.
    """
    n = g.num_nodes
    c = topo.num_chips
    y = _checked_assignment(g, y, c, what="candidate")
    budget = STEP_BUDGET_FACTOR * max(n, 1) if step_budget is None else step_budget
    for attempt in range(max(1, max_restarts)):
        solver = ConstraintSolver(g, topo)
        attempt_order = _default_order(n, order, rng)
        steps = 0
        i = 0
        failed = False
        while i < 2 * n:
            if steps >= budget:
                failed = True
                break
            steps += 1
            u = int(attempt_order[i % n])
            mask = solver.domain_mask(u)
            if i < n:
                if mask & (1 << int(y[u])):
                    i = solver.set_domain(u, (int(y[u]),))
                else:
                    # candidate infeasible here: re-assert the domain and move on
                    i = solver.set_domain(u, mask_to_values(mask))
            else:
                allowed = mask_to_values(mask)
                v = allowed[rng.integers(0, len(allowed))]
                i = solver.set_domain(u, (v,))
        if failed:
            continue
        part = Partition(solver.assignment(), source="repaired")
        _assert_valid(g, topo, part)
        return part
    raise StepBudgetError(f"exceeded {budget} decisions in each of {max_restarts} attempts while repairing")


def _assert_valid(g: ComputationGraph, topo: ChipTopology, part: Partition) -> None:
    report = check_static(g, part, topo.num_chips)
    if not report.ok:  # pragma: no cover - guards solver soundness
        raise AssertionError(f"solver produced an invalid partition: {report.violation} {report.witness}")


def enumerate_valid(g: ComputationGraph, topo: ChipTopology, limit: int = 10_000_000) -> list[Partition]:
    """Exhaustively enumerate all valid partitions (brute-force oracle).

    Scans all ``C**N`` assignments in lexicographic order and filters with
    the independent static check; refuses to scan more than ``limit``.
    """
    n = g.num_nodes
    c = topo.num_chips
    total = c ** n
    if total > limit:
        raise LimitExceededError(f"{c}^{n} = {total} assignments exceeds limit {limit}")
    out = []
    if n == 0:
        return [Partition(np.empty(0, dtype=np.int64), source="brute-force")]
    for combo in itertools.product(range(c), repeat=n):
        assign = np.array(combo, dtype=np.int64)
        code, _, _ = check_static_kernel(assign, g.edge_src, g.edge_dst, c)
        if code == 0:
            out.append(Partition(assign, source="brute-force"))
    return out
