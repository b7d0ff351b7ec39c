"""Domain-propagating, backtracking solver over chip assignments.

The solver keeps one chip-id domain per node (bitmask), prunes domains to a
fixpoint after every decision, and undoes the most recent decision whenever
a domain empties (removing the failed value before retrying).  One
construction strategy sits on top: fail-first node order, each node's chip
drawn from a per-node row of weights restricted to its live domain, under
Luby restarts.  Sampling passes a distribution; repairing a candidate
passes the candidate's one-hot rows, so a node keeps its candidate chip
while that chip is live and otherwise draws uniformly from its domain.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import GraphFormatError, InfeasibleError, InvalidConfigError, LimitExceededError, StepBudgetError
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
    def from_json(cls, text) -> "Partition":
        """Parse a partition document (str or bytes); chip ids must be JSON integers."""
        try:
            doc = json.loads(text)
            raw = doc["assignment"]
            # bool is an int subclass, and a fraction must not be truncated to a chip
            if not isinstance(raw, list) or not all(type(v) is int for v in raw):
                raise ValueError("assignment must be a list of integer chip ids")
            assignment = np.asarray(raw, dtype=np.int64)
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise GraphFormatError(f"malformed partition document: {exc}") from exc
        return cls(assignment=assignment, source=doc.get("source", "sampled"), valid=bool(doc.get("valid", True)))


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
        # nodes, so no node can sit above chip n-1.  Equal full domains are
        # already a propagation fixpoint with no chip edges.
        init_mask = (1 << min(c, max(n, 1))) - 1
        self._dom = [init_mask] * n
        self._chip_edges = [0] * (3 * c)  # committed chip edges and look-ahead tables, kept by propagate
        self._trail: list[tuple[int, int, list, list]] = []

    @property
    def decided_count(self) -> int:
        return len(self._trail)

    def get_domain(self, u: int) -> tuple:
        """Current allowed chip ids for node ``u`` (no state mutation)."""
        return mask_to_values(self._dom[u])

    def set_domain(self, u: int, values: Iterable[int]) -> int:
        """Decide node ``u`` on the one chip in ``values``, propagate, and
        backtrack if a domain empties; an empty ``values`` fails the node
        outright and backtracks.

        Returns the new decision count: previous + 1 on success, lower if
        backtracking undid earlier decisions, and raises when backtracking
        exhausts the root alternatives.
        """
        mask = values_to_mask(values)
        if mask & (mask - 1):
            raise InvalidConfigError(f"a decision takes one chip, got {mask_to_values(mask)} for node {u}")
        cur = self._dom[u]
        new = cur & mask
        if mask and not new:
            raise InvalidConfigError(
                f"value {mask_to_values(mask)} not in current domain of node {u}"
            )
        if new == 0:
            return self._backtrack()
        self._trail.append((u, _lowest_bit(new), self._dom.copy(), self._chip_edges.copy()))
        if new != cur:
            self._dom[u] = new
            status = self._propagate(u)
            if status != 0:
                return self._backtrack()
        return len(self._trail)

    def _propagate(self, u: int) -> int:
        g = self.graph
        return propagate(self._dom, g.preds, g.succs, self.topo.num_chips, (u,), self._chip_edges)

    def _backtrack(self) -> int:
        while self._trail:
            node, value, dom, chip_edges = self._trail.pop()
            self._dom = dom
            self._chip_edges = chip_edges
            remaining = dom[node] & ~(1 << value)
            if remaining == 0:
                continue
            dom[node] = remaining
            status = self._propagate(node)
            if status == 0:
                return len(self._trail)
        raise InfeasibleError("backtracking exhausted the root domain")

    def assignment(self) -> np.ndarray:
        """Read the assignment once every domain is a singleton."""
        out = np.empty(self.graph.num_nodes, dtype=np.int64)
        for i, m in enumerate(self._dom):
            if m & (m - 1) != 0:
                raise InvalidConfigError(f"node {i} is still undecided")
            out[i] = _lowest_bit(m)
        return out


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _sample_from_mask(probs: list, mask: int, rng: np.random.Generator) -> int:
    """Draw a chip from ``probs`` renormalized over the domain ``mask``.

    Falls back to uniform over the domain when the distribution places no
    mass on any allowed value, so excluded values are never sampled.
    """
    allowed = mask_to_values(mask)
    if len(allowed) == 1:
        return allowed[0]
    weights = [probs[v] for v in allowed]
    total = sum(weights)
    if not 0.0 < total < float("inf"):
        return allowed[rng.integers(0, len(allowed))]
    r = rng.random() * total
    for v, w in zip(allowed, weights):
        r -= w
        if r < 0.0:
            return v
    return allowed[-1]


def _fail_first(dom: list, perm: list) -> int:
    """The undecided node with the fewest live chips, earliest in ``perm``
    among equals; -1 once every domain is a singleton."""
    best, fewest = -1, 64  # more chips than MAX_CHIPS
    for u in perm:
        x = dom[u]
        if x & (x - 1):
            k = x.bit_count()
            if k < fewest:
                best, fewest = u, k
                if k == 2:
                    break
    return best


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
    step_budget: Optional[int] = None,
    max_restarts: int = MAX_RESTARTS,
) -> Partition:
    """Build a valid partition by sampling each node's chip from its row of
    ``P`` restricted to its live domain (see :func:`_restarting_search`)."""
    rows = _validate_distribution(P, g.num_nodes, topo.num_chips).tolist()
    return _restarting_search(g, topo, rows, rng, step_budget, max_restarts, "sampled")


def solve_fix(
    g: ComputationGraph,
    topo: ChipTopology,
    y,
    rng: np.random.Generator,
    step_budget: Optional[int] = None,
    max_restarts: int = MAX_RESTARTS,
) -> Partition:
    """Repair a candidate assignment into a valid partition.

    Samples over the candidate's one-hot rows: a node keeps ``y[u]`` while
    that chip is in its live domain and otherwise draws uniformly from the
    domain.  Propagation never prunes a chip of a valid completion that
    agrees with the decisions so far, so a valid candidate comes back
    unchanged.
    """
    y = _checked_assignment(g, y, topo.num_chips, what="candidate")
    rows = np.eye(topo.num_chips)[y].tolist()
    return _restarting_search(g, topo, rows, rng, step_budget, max_restarts, "repaired")


def _restarting_search(g, topo, rows, rng, step_budget, max_restarts, source) -> Partition:
    """Fail-first sampling of every node's chip from ``rows``, with restarts.

    Each attempt builds a fresh solver and draws a fresh random order of the
    nodes.  Each decision takes the undecided node with the fewest live
    chips, ties broken by that order, and draws its chip from its row
    restricted to the live domain.  Chronological backtracking has
    heavy-tailed run times, so attempt k stops after ``ceil(N/2) * luby(k)``
    decisions, the universal restart schedule of Luby, Sinclair and
    Zuckerman (1993).  All attempts share one budget of
    ``step_budget * max_restarts`` decisions.
    """
    n = g.num_nodes
    total = (STEP_BUDGET_FACTOR * max(n, 1) if step_budget is None else step_budget) * max(1, max_restarts)
    unit = max((n + 1) // 2, 1)
    spent = 0
    attempt = 0
    while True:
        attempt += 1
        cap = min(unit * _luby(attempt), total - spent)
        solver = ConstraintSolver(g, topo)
        perm = rng.permutation(n).tolist()
        steps = 0
        while (u := _fail_first(solver._dom, perm)) >= 0:
            if steps == cap:
                break
            steps += 1
            solver.set_domain(u, (_sample_from_mask(rows[u], solver._dom[u], rng),))
        else:
            part = Partition(solver.assignment(), source=source)
            _assert_valid(g, topo, part)
            return part
        spent += steps
        if spent >= total:
            raise StepBudgetError(f"spent all {total} decisions in {attempt} attempts for a {source} partition")


def _luby(k: int) -> int:
    """Term ``k`` (1-based) of the Luby sequence 1, 1, 2, 1, 1, 2, 4, 1, ..."""
    while True:
        m = k.bit_length()
        if k == (1 << m) - 1:
            return 1 << (m - 1)
        k -= (1 << (m - 1)) - 1


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
