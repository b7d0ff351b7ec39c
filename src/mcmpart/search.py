"""Classical search over the valid-partition space.

All strategies drive the constraint solver, so every evaluated partition is
statically valid; traces record per-sample throughput and the running best.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidConfigError
from .evaluator import Evaluator, analytical_eval
from .graph import ChipTopology, ComputationGraph, topological_order
# solve_fix stays a name of this module: the benchmark's traced run wraps mcmpart.search.solve_fix
from .solver import Partition, check_static, solve_fix, solve_sample, uniform_distribution  # noqa: F401


@dataclass
class SearchBudget:
    max_samples: int
    seed: int = 0

    def __post_init__(self):
        if self.max_samples < 1:
            raise InvalidConfigError("max_samples must be >= 1")


@dataclass
class SaConfig:
    init_temp: float = 0.1
    cooling_rate: float = 0.995
    mutation_fraction: float = 0.05

    def __post_init__(self):
        if not (0.0 < self.mutation_fraction <= 1.0):
            raise InvalidConfigError("mutation_fraction must lie in (0, 1]")
        if not 0.0 <= self.init_temp < math.inf or not (0.0 < self.cooling_rate <= 1.0):
            raise InvalidConfigError("bad annealing schedule")


@dataclass
class SearchTrace:
    """Per-sample record of a search run; best-so-far is nondecreasing."""

    throughput: list[float] = field(default_factory=list)
    best: list[float] = field(default_factory=list)
    valid: list[bool] = field(default_factory=list)
    best_partition: Optional[Partition] = None

    def record(self, result, partition: Optional[Partition]) -> None:
        """Append one sample scored by ``result``: an EvalResult or a training Rollout."""
        t = result.throughput if result.valid else 0.0
        prev = self.best[-1] if self.best else 0.0
        self.throughput.append(t)
        self.valid.append(bool(result.valid))
        if t > prev:
            self.best.append(t)
            self.best_partition = partition
        else:
            self.best.append(prev)

    @property
    def num_samples(self) -> int:
        return len(self.throughput)

    @property
    def best_throughput(self) -> float:
        return self.best[-1] if self.best else 0.0

    def rows(self):
        """CSV rows (sample, throughput, best, valid); samples are 1-based."""
        for k in range(self.num_samples):
            yield k + 1, self.throughput[k], self.best[k], int(self.valid[k])


def greedy_heuristic(g: ComputationGraph, topo: ChipTopology) -> Partition:
    """Cost-balanced contiguous blocks in topological order.

    A single pass over ``k`` chips advances to the next chip whenever the
    running block cost would exceed the per-chip share of the total.  Block
    splits can clash with the chip-dependency rule on graphs with long skip
    edges, so the heuristic returns the split for the largest ``k`` up to
    the chip count that passes the static check; ``k = 1`` always does.
    """
    order = topological_order(g)
    for k in range(topo.num_chips, 0, -1):
        assign = _block_split(g, order, k)
        if k == 1 or check_static(g, assign, topo.num_chips).ok:
            return Partition(assign, source="heuristic")


def _block_split(g: ComputationGraph, order, k: int) -> np.ndarray:
    """Contiguous blocks of ``order`` on chips ``0..k-1``, each near ``1/k`` of the total cost."""
    assign = np.zeros(g.num_nodes, dtype=np.int64)
    total = float(g.compute_cost.sum())
    share = total / k if total > 0 else 0.0
    chip = 0
    acc = 0.0
    for u in order:
        cost = float(g.compute_cost[u])
        if share > 0 and chip < k - 1 and acc + cost > share and acc > 0:
            chip += 1
            acc = 0.0
        assign[u] = chip
        acc += cost
    return assign


def random_search(
    g: ComputationGraph,
    topo: ChipTopology,
    evaluator: Evaluator,
    budget: SearchBudget,
) -> SearchTrace:
    """Uniform per-node distribution, fresh random node order per sample."""
    rng = np.random.default_rng(budget.seed)
    P = uniform_distribution(g.num_nodes, topo.num_chips)
    trace = SearchTrace()
    for _ in range(budget.max_samples):
        part = solve_sample(g, topo, P, rng)
        trace.record(evaluator(g, topo, part), part)
    return trace


def simulated_annealing(
    g: ComputationGraph,
    topo: ChipTopology,
    evaluator: Evaluator,
    budget: SearchBudget,
    cfg: SaConfig = SaConfig(),
) -> SearchTrace:
    """Anneal over the per-node distribution matrix.

    Each step redraws a random subset of rows as fresh random distributions,
    samples a valid partition through the solver, and accepts by the
    Metropolis rule on heuristic-normalized throughput with geometric
    cooling.
    """
    rng = np.random.default_rng(budget.seed)
    n = g.num_nodes
    c = topo.num_chips
    scale = _baseline_throughput(g, topo, evaluator)
    P = uniform_distribution(n, c)
    trace = SearchTrace()

    part = solve_sample(g, topo, P, rng)
    result = evaluator(g, topo, part)
    trace.record(result, part)
    cur = (result.throughput if result.valid else 0.0) / scale
    temp = cfg.init_temp
    k = max(1, math.ceil(cfg.mutation_fraction * n)) if n else 0

    while trace.num_samples < budget.max_samples:
        cand = P.copy()
        if k:
            rows = rng.choice(n, size=k, replace=False)
            cand[rows] = rng.dirichlet(np.ones(c), size=k)
        part = solve_sample(g, topo, cand, rng)
        result = evaluator(g, topo, part)
        trace.record(result, part)
        new = (result.throughput if result.valid else 0.0) / scale
        if metropolis_accept(new - cur, temp, rng):
            P = cand
            cur = new
        temp *= cfg.cooling_rate
    return trace


def metropolis_accept(delta: float, temp: float, rng: np.random.Generator) -> bool:
    """Accept improving moves always; worsening moves with prob exp(delta/T).

    At temp == 0 only non-worsening moves pass.
    """
    if delta >= 0:
        return True
    if temp <= 0:
        return False
    return rng.random() < math.exp(delta / temp)


def _baseline_throughput(g: ComputationGraph, topo: ChipTopology, evaluator: Evaluator) -> float:
    """Greedy-heuristic throughput used to normalize rewards and traces.

    Falls back to the analytical model if the active evaluator rejects the
    heuristic partition (e.g. a tightened surrogate memory budget).
    """
    base = greedy_heuristic(g, topo)
    result = evaluator(g, topo, base)
    if result.valid and result.throughput > 0 and math.isfinite(result.throughput):
        return result.throughput
    result = analytical_eval(g, topo, base)
    if result.valid and result.throughput > 0 and math.isfinite(result.throughput):
        return result.throughput
    return 1.0
