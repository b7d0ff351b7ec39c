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

    def __post_init__(self):
        if min(self.num_rollouts, self.num_minibatches, self.num_epochs, self.refinement_steps) < 1:
            raise InvalidConfigError("PPO counts must be positive")
        if not all(math.isfinite(v) for v in (self.clip_epsilon, self.learning_rate, self.entropy_bonus, self.baseline_decay)):
            raise InvalidConfigError("clip_epsilon, learning_rate, entropy_bonus and baseline_decay must be finite")
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


def step_logp(params: PolicyParams, feats: GraphFeatures, prev: Optional[np.ndarray] = None, need_cache: bool = False):
    """Per-node chip log-probs of one refinement step given the previous
    step's actions, and the forward cache (``None`` unless ``need_cache``).

    The rollout's draws and the PPO replay both come from here, so the
    replay recomputes exactly what the rollout sampled from.
    """
    logits, cache = forward_policy(params, feats, feats.features(prev), need_cache=need_cache)
    return log_softmax(logits), cache


def rollout(
    g: ComputationGraph,
    topo: ChipTopology,
    params: PolicyParams,
    cfg: PpoConfig,
    rng: np.random.Generator,
    evaluator: Evaluator,
    feats: GraphFeatures,
    baseline: float,
    first_logp: np.ndarray,
    use_solver: bool = True,
) -> Rollout:
    """One sample: refine, repair through the solver, evaluate, score.

    ``first_logp`` is step 0's ``step_logp(params, feats)``, which
    :func:`rollouts` computes once per batch; ``baseline`` is the greedy
    throughput that normalizes the reward.
    """
    if topo.num_chips != params.config.num_chips:
        raise InvalidConfigError(f"model built for {params.config.num_chips} chips, topology has {topo.num_chips}")
    n = g.num_nodes
    t_steps = cfg.refinement_steps
    actions = np.zeros((t_steps, n), dtype=np.int64)
    old_logp = np.zeros((t_steps, n))
    lp = first_logp
    for t in range(t_steps):
        if t:
            lp, _ = step_logp(params, feats, actions[t - 1])
        P = np.exp(lp)
        y = sample_rows(P, rng)
        actions[t] = y
        old_logp[t] = lp[np.arange(n), y]

    if use_solver:
        try:
            if cfg.solver_mode == "sample":
                part = solve_sample(g, topo, P, rng)
            else:
                part = solve_fix(g, topo, y, rng)
        except (InfeasibleError, StepBudgetError):
            return Rollout(actions, old_logp, 0.0, None, valid=False, infeasible=True)
    else:
        part = Partition(y, source="sampled", valid=False)

    result = evaluator(g, topo, part)
    part.valid = bool(result.valid)
    reward = result.throughput / baseline if result.valid and math.isfinite(result.throughput) else 0.0
    return Rollout(actions, old_logp, reward, part, valid=bool(result.valid), throughput=result.throughput)


def rollouts(
    g: ComputationGraph,
    topo: ChipTopology,
    params: PolicyParams,
    cfg: PpoConfig,
    rng: np.random.Generator,
    evaluator: Evaluator,
    feats: GraphFeatures,
    baseline: float,
    count: int,
    use_solver: bool = True,
) -> list[Rollout]:
    """``count`` rollouts under the same parameters.

    Step 0 sees the same features in every rollout, so its pass runs once
    for the whole batch; the draws are those of ``count`` separate passes.
    """
    first, _ = step_logp(params, feats)
    return [rollout(g, topo, params, cfg, rng, evaluator, feats, baseline, first, use_solver) for _ in range(count)]


def _clipped_step(lp: np.ndarray, y: np.ndarray, old_lp: np.ndarray, adv: float, inv_m: float, cfg: PpoConfig):
    """Surrogate and entropy sums of one refinement step, and the loss gradient w.r.t. its logits."""
    eps = cfg.clip_epsilon
    p = np.exp(lp)
    rows = np.arange(len(y))
    ratio = np.exp(lp[rows, y] - old_lp)
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - eps, 1.0 + eps) * adv
    surrogate = np.minimum(unclipped, clipped)
    ent = -(p * lp).sum(axis=1)

    use_unclipped = unclipped <= clipped
    inside = (ratio > 1.0 - eps) & (ratio < 1.0 + eps)
    dsdr = adv * np.where(use_unclipped, 1.0, inside.astype(np.float64))
    grad_lp = -inv_m * dsdr * ratio
    dlogits = grad_lp[:, None] * (-p)
    dlogits[rows, y] += grad_lp
    dlogits += inv_m * cfg.entropy_bonus * p * (lp + ent[:, None])
    return surrogate.sum(), ent.sum(), dlogits


def ppo_loss_and_grads(
    params: PolicyParams,
    rollouts: list[Rollout],
    advantages: np.ndarray,
    cfg: PpoConfig,
    feats: GraphFeatures,
):
    """Clipped-surrogate loss plus entropy bonus.

    Returns (loss, grads, stats): stats holds the surrogate and entropy
    terms of the loss, and grads cover every weight array.  The replay
    conditions on the stored actions through :func:`step_logp`, so it
    recomputes what the rollouts sampled from.  Each forward pass serves
    every rollout that shares its input: step 0 runs once for the whole
    minibatch, with the rollouts' gradients summed into one backward, and
    each later step runs once per rollout.
    """
    grads = {k: np.zeros_like(v) for k, v in params.weights.items()}
    n_elems = sum(r.actions.shape[0] * r.actions.shape[1] for r in rollouts)
    if n_elems == 0:
        return 0.0, grads, {"surrogate": 0.0, "entropy": 0.0}
    inv_m = 1.0 / n_elems
    loss_sur = 0.0
    loss_ent = 0.0
    # (previous actions, step, rollout indices) of every forward pass
    passes = [(None, 0, range(len(rollouts)))]
    passes += [(ro.actions[t - 1], t, (i,)) for i, ro in enumerate(rollouts) for t in range(1, ro.actions.shape[0])]
    for prev, t, members in passes:
        lp, cache = step_logp(params, feats, prev, need_cache=True)
        dlogits = np.zeros_like(lp)
        for i in members:
            ro = rollouts[i]
            sur, ent, d = _clipped_step(lp, ro.actions[t], ro.old_logp[t], float(advantages[i]), inv_m, cfg)
            loss_sur -= inv_m * sur
            loss_ent -= inv_m * cfg.entropy_bonus * ent
            dlogits += d
        backward_policy(params, feats, cache, dlogits, grads)
    return loss_sur + loss_ent, grads, {"surrogate": loss_sur, "entropy": loss_ent}


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

    Advantages are rewards minus ``baseline_reward``, the caller's reward
    baseline for this graph: a moving average in :func:`train`, the batch
    mean in ``pretrain``.  A non-finite loss aborts the update before any
    weight is touched in that minibatch.
    """
    rewards = np.array([r.reward for r in rollouts], dtype=np.float64)
    advantages = rewards - baseline_reward
    stats = {"loss": 0.0, "aborted": False, "mean_reward": float(rewards.mean()) if len(rewards) else 0.0}
    updates = 0
    for _ in range(cfg.num_epochs):
        perm = rng.permutation(len(rollouts))
        for chunk in np.array_split(perm, cfg.num_minibatches):
            if len(chunk) == 0:
                continue
            batch = [rollouts[i] for i in chunk]
            loss, grads, _ = ppo_loss_and_grads(params, batch, advantages[chunk], cfg, feats)
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
        batch = rollouts(g, topo, params, cfg, rng, evaluator, feats, baseline, batch_size, use_solver)
        for ro in batch:
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
