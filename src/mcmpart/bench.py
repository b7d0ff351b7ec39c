"""Experiment harness: strategy comparisons, sample-efficiency tables,
valid-space sparsity probes, and cost-model calibration.  Emits plot-ready
CSV rows; sample indices are 1-based everywhere.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidConfigError
from .evaluator import Evaluator, SurrogateConfig, analytical_eval, make_surrogate
from .graph import ChipTopology, ComputationGraph, graph_to_json
from .policy import PolicyParams
from .search import SaConfig, SearchBudget, SearchTrace, greedy_heuristic, random_search, simulated_annealing
from .solver import check_static, enumerate_valid, solve_sample, uniform_distribution
from .training import ModelConfig, PpoConfig, train_from_scratch

STRATEGIES = ("random", "sa", "rl", "zeroshot", "finetune")


def run_strategy(
    name: str,
    g: ComputationGraph,
    topo: ChipTopology,
    evaluator: Evaluator,
    budget: SearchBudget,
    ppo: Optional[PpoConfig] = None,
    model_config: Optional[ModelConfig] = None,
    checkpoint: Optional[PolicyParams] = None,
    sa_cfg: Optional[SaConfig] = None,
) -> SearchTrace:
    """Dispatch one (strategy, graph, seed) cell to its runner."""
    if name == "random":
        return random_search(g, topo, evaluator, budget)
    if name == "sa":
        return simulated_annealing(g, topo, evaluator, budget, sa_cfg or SaConfig())
    if name == "rl":
        rng = np.random.default_rng(budget.seed)
        _, trace = train_from_scratch(g, topo, ppo or PpoConfig(), budget, evaluator, rng, model_config=model_config)
        return trace
    if name in ("zeroshot", "finetune"):
        if checkpoint is None:
            raise InvalidConfigError(f"strategy {name!r} needs a checkpoint")
        from .pipeline import fine_tune, zero_shot

        if name == "zeroshot":
            return zero_shot(checkpoint, g, topo, evaluator, budget.max_samples, seed=budget.seed, cfg=ppo)
        _, trace = fine_tune(checkpoint, g, topo, evaluator, budget, ppo or PpoConfig())
        return trace
    raise InvalidConfigError(f"unknown strategy {name!r}; choose from {STRATEGIES}")


def cell_seed(base_seed: int, strategy: str, graph: ComputationGraph) -> int:
    """Stable per-(strategy, graph, seed) seed so comparisons are paired.

    Keyed on graph content, not list position, which keeps aggregate curves
    invariant to graph ordering.
    """
    tag = zlib.crc32(strategy.encode("utf-8"))
    gkey = zlib.crc32(graph_to_json(graph).encode("utf-8"))
    return (base_seed * 1000003 + tag * 31 + gkey) & 0x7FFFFFFF


def compare_strategies(
    graphs: Sequence[ComputationGraph],
    topo: ChipTopology,
    strategies: Sequence[str],
    budget_samples: int,
    seeds: Sequence[int],
    evaluator: Evaluator,
    ppo: Optional[PpoConfig] = None,
    model_config: Optional[ModelConfig] = None,
    checkpoint: Optional[PolicyParams] = None,
) -> list[tuple]:
    """Geomean best-so-far improvement curves, mean/std over seeds.

    Per strategy and sample index: the geometric mean over graphs of
    best-so-far throughput normalized by the greedy heuristic, aggregated
    over seeds.  Rows: (strategy, sample, geomean_improvement, stddev).
    """
    if not graphs or not seeds:
        raise InvalidConfigError("need at least one graph and one seed")
    baselines = [analytical_eval(g, topo, greedy_heuristic(g, topo)).throughput for g in graphs]

    def curve(strategy, g, baseline, seed):
        budget = SearchBudget(max_samples=budget_samples, seed=cell_seed(seed, strategy, g))
        trace = run_strategy(strategy, g, topo, evaluator, budget,
                             ppo=ppo, model_config=model_config, checkpoint=checkpoint)
        best = np.array(trace.best, dtype=np.float64)
        if len(best) < budget_samples:  # pad stopped runs with their final best
            best = np.pad(best, (0, budget_samples - len(best)), mode="edge")
        return best / baseline

    rows = []
    for strategy in strategies:
        per_seed = []
        for seed in seeds:
            curves = np.stack([curve(strategy, g, base, seed) for g, base in zip(graphs, baselines)])
            with np.errstate(divide="ignore"):
                logs = np.where(curves > 0, np.log(np.maximum(curves, 1e-300)), -np.inf)
            geo = np.exp(logs.mean(axis=0))
            geo = np.where(np.isfinite(geo), geo, 0.0)
            per_seed.append(geo)
        stacked = np.stack(per_seed)
        mean = stacked.mean(axis=0)
        std = stacked.std(axis=0)
        for k in range(budget_samples):
            rows.append((strategy, k + 1, float(mean[k]), float(std[k])))
    return rows


def samples_to_target(best_so_far: Sequence[float], targets: Sequence[float]) -> list[Optional[int]]:
    """First 1-based sample index reaching each threshold, or None (N.A.)."""
    if list(targets) != sorted(targets):
        raise InvalidConfigError("targets must be sorted ascending")
    best = np.asarray(best_so_far, dtype=np.float64)
    out = []
    for t in targets:
        hits = np.nonzero(best >= t)[0]
        out.append(int(hits[0]) + 1 if len(hits) else None)
    return out


@dataclass
class SparsityResult:
    fraction: float
    ci_low: float
    ci_high: float
    num_valid: int
    num_samples: int
    exact: bool


def sparsity_probe(
    g: ComputationGraph,
    topo: ChipTopology,
    num_samples: int,
    rng: np.random.Generator,
    exhaustive: bool = False,
) -> SparsityResult:
    """Fraction of uniformly random total assignments that are statically valid.

    Monte-Carlo with a Wilson 95% interval, or exact enumeration when
    ``exhaustive`` is set (small instances only).
    """
    n = g.num_nodes
    c = topo.num_chips
    if exhaustive:
        total = c ** n
        valid = len(enumerate_valid(g, topo))
        frac = valid / total if total else 1.0
        return SparsityResult(frac, frac, frac, valid, total, exact=True)
    if num_samples < 1:
        raise InvalidConfigError("num_samples must be >= 1")
    valid = 0
    for _ in range(num_samples):
        assign = rng.integers(0, c, size=n)
        if check_static(g, assign, c).ok:
            valid += 1
    frac = valid / num_samples
    lo, hi = _wilson_interval(valid, num_samples)
    return SparsityResult(frac, lo, hi, valid, num_samples, exact=False)


def _wilson_interval(k: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    if n == 0:
        return 0.0, 1.0
    p = k / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class CalibrationResult:
    pearson_r: Optional[float]
    invalid_fraction: float
    num_joint_valid: int
    num_samples: int
    degenerate: bool
    rows: list  # (sample, predicted, measured, predicted_norm, measured_norm, surrogate_valid)


def calibration_study(
    g: ComputationGraph,
    topo: ChipTopology,
    num_samples: int,
    surrogate_cfg: SurrogateConfig,
    rng: np.random.Generator,
    include_comm: bool = True,
) -> CalibrationResult:
    """Predicted-vs-surrogate runtime agreement over sampled valid partitions.

    Draws statically valid partitions (uniform distribution through the
    solver), evaluates both models, normalizes runtimes to their respective
    minima over jointly valid samples, and reports the Pearson correlation
    plus the surrogate-invalid fraction.
    """
    if num_samples < 2:
        raise InvalidConfigError("num_samples must be >= 2")
    surrogate = make_surrogate(surrogate_cfg, include_comm=include_comm)
    P = uniform_distribution(g.num_nodes, topo.num_chips)
    preds = np.empty(num_samples)
    meas = np.empty(num_samples)
    ok_pred = np.zeros(num_samples, dtype=bool)
    ok_meas = np.zeros(num_samples, dtype=bool)
    for k in range(num_samples):
        part = solve_sample(g, topo, P, rng)
        a = analytical_eval(g, topo, part, include_comm=include_comm)
        s = surrogate(g, topo, part)
        preds[k] = a.runtime
        meas[k] = s.runtime
        ok_pred[k] = a.valid
        ok_meas[k] = s.valid

    invalid_fraction = float(1.0 - ok_meas.mean())
    joint = ok_pred & ok_meas
    nj = int(joint.sum())
    rows = []
    if nj:
        pmin = preds[joint].min()
        mmin = meas[joint].min()
    else:
        pmin = mmin = float("nan")
    for k in range(num_samples):
        pn = preds[k] / pmin if joint[k] and pmin > 0 else float("nan")
        mn = meas[k] / mmin if joint[k] and mmin > 0 else float("nan")
        rows.append((k + 1, float(preds[k]), float(meas[k]), pn, mn, bool(ok_meas[k])))

    if nj < 2:
        return CalibrationResult(None, invalid_fraction, nj, num_samples, degenerate=True, rows=rows)
    r = _pearson(preds[joint] / pmin, meas[joint] / mmin)
    degenerate = nj == 2 or r is None
    return CalibrationResult(r, invalid_fraction, nj, num_samples, degenerate=degenerate, rows=rows)


def _pearson(x: np.ndarray, y: np.ndarray) -> Optional[float]:
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        return None
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))
