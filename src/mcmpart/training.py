"""Rollouts and PPO training against solver-repaired rewards.

A rollout refines its action matrix for a small fixed number of steps, each
step conditioning on the previous step's actions, then hands the final
candidate to the constraint solver; the repaired partition's throughput
(normalized by the greedy baseline) is the reward.  Updates use the clipped
surrogate objective over per-node, per-step log-prob ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InfeasibleError, InvalidConfigError, StepBudgetError
from .evaluator import Evaluator
from .graph import ChipTopology, ComputationGraph
from .policy import (
    GraphFeatures,
    ModelConfig,
    PolicyParams,
    backward_policy,
    forward_policy,
    init_params,
    log_softmax,
    sample_rows,
)
from .search import SearchBudget, SearchTrace, _baseline_throughput
from .solver import Partition, solve_fix, solve_sample


@dataclass
class PpoConfig:
    num_rollouts: int = 20
    num_minibatches: int = 4
    num_epochs: int = 10
    clip_epsilon: float = 0.2
    learning_rate: float = 1e-4
    refinement_steps: int = 2
    entropy_bonus: float = 0.01
    solver_mode: str = "fix"  # "fix" | "sample"
    baseline_decay: float = 0.9
    value_coeff: float = 0.5

    def __post_init__(self):
        if min(self.num_rollouts, self.num_minibatches, self.num_epochs, self.refinement_steps) < 1:
            raise InvalidConfigError("PPO counts must be positive")
        if self.clip_epsilon <= 0 or self.learning_rate <= 0:
            raise InvalidConfigError("clip_epsilon and learning_rate must be positive")
        if self.solver_mode not in ("fix", "sample"):
            raise InvalidConfigError("solver_mode must be 'fix' or 'sample'")


@dataclass
class Rollout:
    actions: np.ndarray  # (T, N) sampled chip per node per refinement step
    old_logp: np.ndarray  # (T, N) log-prob of each sampled action
    reward: float
    partition: Optional[Partition]
    valid: bool
    infeasible: bool = False
    throughput: float = 0.0  # the evaluator's score of the partition; 0 unless valid


def rollout(
    g: ComputationGraph,
    topo: ChipTopology,
    params: PolicyParams,
    cfg: PpoConfig,
    rng: np.random.Generator,
    evaluator: Evaluator,
    feats: Optional[GraphFeatures] = None,
    baseline: Optional[float] = None,
    use_solver: bool = True,
) -> Rollout:
    """One sample: refine, repair through the solver, evaluate, score."""
    if topo.num_chips != params.config.num_chips:
        raise InvalidConfigError(
            f"model built for {params.config.num_chips} chips, topology has {topo.num_chips}"
        )
    feats = feats or GraphFeatures(g, params.config)
    if baseline is None:
        baseline = _baseline_throughput(g, topo, evaluator)
    n = g.num_nodes
    t_steps = cfg.refinement_steps
    actions = np.zeros((t_steps, n), dtype=np.int64)
    old_logp = np.zeros((t_steps, n))
    prev = None
    P = None
    for t in range(t_steps):
        x = feats.features(prev)
        logits, _, _ = forward_policy(params, feats, x)
        lp = log_softmax(logits)
        P = np.exp(lp)
        y = sample_rows(P, rng)
        actions[t] = y
        old_logp[t] = lp[np.arange(n), y] if n else np.zeros(0)
        prev = y

    y_final = actions[-1] if t_steps else np.zeros(n, dtype=np.int64)
    if use_solver:
        try:
            if cfg.solver_mode == "sample":
                part = solve_sample(g, topo, P, rng)
            else:
                part = solve_fix(g, topo, y_final, rng)
        except (InfeasibleError, StepBudgetError):
            return Rollout(actions, old_logp, 0.0, None, valid=False, infeasible=True)
    else:
        part = Partition(y_final.copy(), source="sampled", valid=False)

    result = evaluator(g, topo, part)
    part.valid = bool(result.valid)
    reward = result.throughput / baseline if result.valid and math.isfinite(result.throughput) else 0.0
    return Rollout(actions, old_logp, reward, part, valid=bool(result.valid), throughput=result.throughput)


def ppo_loss_and_grads(
    params: PolicyParams,
    rollouts: list[Rollout],
    advantages: np.ndarray,
    rewards: np.ndarray,
    cfg: PpoConfig,
    feats: GraphFeatures,
):
    """Clipped-surrogate loss (plus entropy bonus and optional value loss).

    Returns (loss, grads, stats); grads cover every weight array.  The
    replayed forwards condition on the stored actions, so the computation
    matches the rollout exactly.
    """
    w = params.weights
    grads = {k: np.zeros_like(v) for k, v in w.items()}
    n_elems = sum(r.actions.shape[0] * r.actions.shape[1] for r in rollouts)
    if n_elems == 0:
        return 0.0, grads, {"surrogate": 0.0, "entropy": 0.0, "value": 0.0}
    inv_m = 1.0 / n_elems
    eps = cfg.clip_epsilon
    use_value = params.config.use_value_head
    loss_sur = 0.0
    loss_ent = 0.0
    loss_val = 0.0

    for ridx, ro in enumerate(rollouts):
        adv = float(advantages[ridx])
        t_steps, n = ro.actions.shape
        prev = None
        for t in range(t_steps):
            x = feats.features(prev)
            logits, value, cache = forward_policy(params, feats, x, need_cache=True)
            lp = log_softmax(logits)
            p = np.exp(lp)
            y = ro.actions[t]
            rows = np.arange(n)
            new_lp = lp[rows, y]
            ratio = np.exp(new_lp - ro.old_logp[t])
            unclipped = ratio * adv
            clipped = np.clip(ratio, 1.0 - eps, 1.0 + eps) * adv
            surrogate = np.minimum(unclipped, clipped)
            ent = -(p * lp).sum(axis=1)
            loss_sur -= inv_m * surrogate.sum()
            loss_ent -= inv_m * cfg.entropy_bonus * ent.sum()

            use_unclipped = unclipped <= clipped
            inside = (ratio > 1.0 - eps) & (ratio < 1.0 + eps)
            dsdr = adv * np.where(use_unclipped, 1.0, inside.astype(np.float64))
            grad_lp = -inv_m * dsdr * ratio
            dlogits = grad_lp[:, None] * (-p)
            dlogits[rows, y] += grad_lp
            dlogits += inv_m * cfg.entropy_bonus * p * (lp + ent[:, None])

            dvalue = 0.0
            if use_value and t == 0:
                err = value - float(rewards[ridx])
                loss_val += cfg.value_coeff * err * err / len(rollouts)
                dvalue = 2.0 * cfg.value_coeff * err / len(rollouts)
            backward_policy(params, feats, cache, dlogits, dvalue, grads)
            prev = y
    loss = loss_sur + loss_ent + loss_val
    stats = {"surrogate": loss_sur, "entropy": loss_ent, "value": loss_val}
    return loss, grads, stats


def adam_step(params: PolicyParams, grads: dict, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    if not params.opt_m:
        params.opt_m = {k: np.zeros_like(v) for k, v in params.weights.items()}
        params.opt_v = {k: np.zeros_like(v) for k, v in params.weights.items()}
    params.opt_t += 1
    t = params.opt_t
    for k in sorted(params.weights):
        gr = grads[k]
        m = params.opt_m[k]
        v = params.opt_v[k]
        m *= beta1
        m += (1 - beta1) * gr
        v *= beta2
        v += (1 - beta2) * gr * gr
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        params.weights[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)


def ppo_update(
    params: PolicyParams,
    rollouts: list[Rollout],
    cfg: PpoConfig,
    feats: GraphFeatures,
    baseline_reward: float,
    rng: np.random.Generator,
) -> dict:
    """One PPO update: epochs x minibatches over a batch of rollouts.

    Advantages are rewards minus the running-baseline value (or the value
    head's prediction when enabled).  A non-finite loss aborts the update
    before any weight is touched in that minibatch.
    """
    rewards = np.array([r.reward for r in rollouts], dtype=np.float64)
    if params.config.use_value_head:
        # every rollout starts from the same step-0 features, so one forward serves all
        _, value, _ = forward_policy(params, feats, feats.features(None))
        advantages = rewards - value
    else:
        advantages = rewards - baseline_reward
    stats = {"loss": 0.0, "aborted": False, "mean_reward": float(rewards.mean()) if len(rewards) else 0.0}
    updates = 0
    for _ in range(cfg.num_epochs):
        perm = rng.permutation(len(rollouts))
        for chunk in np.array_split(perm, cfg.num_minibatches):
            if len(chunk) == 0:
                continue
            batch = [rollouts[i] for i in chunk]
            loss, grads, _ = ppo_loss_and_grads(params, batch, advantages[chunk], rewards[chunk], cfg, feats)
            if not math.isfinite(loss):
                stats["aborted"] = True
                return stats
            adam_step(params, grads, cfg.learning_rate)
            stats["loss"] = loss
            updates += 1
    stats["updates"] = updates
    return stats


def train(
    g: ComputationGraph,
    topo: ChipTopology,
    cfg: PpoConfig,
    budget: SearchBudget,
    evaluator: Evaluator,
    rng: np.random.Generator,
    params: Optional[PolicyParams] = None,
    model_config: Optional[ModelConfig] = None,
    use_solver: bool = True,
) -> tuple[PolicyParams, SearchTrace]:
    """Rollout/update loop; warm-starts from ``params`` when given."""
    if params is None:
        model_config = model_config or ModelConfig(num_chips=topo.num_chips)
        params = init_params(model_config, rng)
    feats = GraphFeatures(g, params.config)
    baseline = _baseline_throughput(g, topo, evaluator)
    trace = SearchTrace()
    ema = None
    samples = 0
    while samples < budget.max_samples:
        batch_size = min(cfg.num_rollouts, budget.max_samples - samples)
        batch = []
        for _ in range(batch_size):
            ro = rollout(g, topo, params, cfg, rng, evaluator, feats=feats, baseline=baseline, use_solver=use_solver)
            batch.append(ro)
            trace.record(ro, ro.partition)
        samples += batch_size
        if batch_size == cfg.num_rollouts:
            ema = np.mean([r.reward for r in batch]) if ema is None else ema
            ppo_update(params, batch, cfg, feats, float(ema), rng)
            ema = cfg.baseline_decay * ema + (1 - cfg.baseline_decay) * float(np.mean([r.reward for r in batch]))
    return params, trace


def train_from_scratch(
    g: ComputationGraph,
    topo: ChipTopology,
    cfg: PpoConfig,
    budget: SearchBudget,
    evaluator: Evaluator,
    rng: np.random.Generator,
    model_config: Optional[ModelConfig] = None,
    use_solver: bool = True,
) -> tuple[PolicyParams, SearchTrace]:
    return train(g, topo, cfg, budget, evaluator, rng, params=None, model_config=model_config, use_solver=use_solver)
