"""Rollouts and PPO training against solver-repaired rewards.

A rollout refines its action matrix for a small fixed number of steps, each
step conditioning on the previous step's actions, then hands the final
candidate to the constraint solver; the repaired partition's throughput
(normalized by the greedy baseline) is the reward.  Updates use the clipped
surrogate objective over per-node, per-step log-prob ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional

import numpy as np

from .errors import InfeasibleError, InvalidConfigError, StepBudgetError
from .evaluator import Evaluator
from .graph import ChipTopology, ComputationGraph
from .policy import (
    GraphFeatures,
    ModelConfig,
    NamedViews,
    PolicyParams,
    Workspace,
    backward_policy,
    forward_policy,
    init_params,
    log_softmax,
    sample_rows,
)
from .search import SearchBudget, SearchTrace, _baseline_throughput
from .solver import Partition, solve_fix, solve_sample

ADAM_CHUNK = 32768  # elements per pass of adam_step; its two scratch arrays are this long


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


@dataclass(eq=False)
class Task:
    """One graph to train or infer on, with what stays fixed about it.

    The greedy throughput that normalizes every reward is computed on first
    use, and the policy features are built once per model config, so a
    graph visited many times (by a corpus loop, or by every checkpoint a
    validation scores) pays for each only once.
    """

    g: ComputationGraph
    topo: ChipTopology
    evaluator: Evaluator
    _features: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def baseline(self) -> float:
        return _baseline_throughput(self.g, self.topo, self.evaluator)

    def features(self, config: ModelConfig) -> GraphFeatures:
        if config not in self._features:
            self._features[config] = GraphFeatures(self.g, config)
        return self._features[config]


def step_logp(params: PolicyParams, feats: GraphFeatures, prev: Optional[np.ndarray] = None, need_cache: bool = False,
              ws: Optional[Workspace] = None):
    """Per-node chip log-probs of one refinement step given the previous
    step's actions, and the forward cache (``None`` unless ``need_cache``).
    The pass runs in ``ws`` (see :func:`forward_policy`); the log-probs are
    a new array either way, so they stay valid after later passes.

    The rollout's draws and the PPO replay both come from here, so the
    replay recomputes exactly what the rollout sampled from.  The forward
    pass and its cache are in the config's compute dtype; the logits are
    upcast to float64 before the log-softmax, so the log-probs, the PPO
    ratio and everything after them are float64.  Callers running several
    steps under the same weights pass ``params.for_compute()``, so the
    weights are cast once, not once per step.
    """
    logits, cache = forward_policy(params, feats, feats.features(prev), need_cache=need_cache, ws=ws)
    return log_softmax(logits.astype(np.float64, copy=False)), cache


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
    ws: Optional[Workspace] = None,
) -> Rollout:
    """One sample: refine, repair through the solver, evaluate, score.

    ``first_logp`` is step 0's ``step_logp(params, feats)``, which
    :func:`rollouts` computes once per batch; ``baseline`` is the greedy
    throughput that normalizes the reward.  The later steps' passes run in
    ``ws``.
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
            lp, _ = step_logp(params, feats, actions[t - 1], ws=ws)
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


def rollouts(task: Task, params: PolicyParams, cfg: PpoConfig, rng: np.random.Generator, count: int,
             use_solver: bool = True) -> list[Rollout]:
    """``count`` rollouts on ``task`` under the same parameters.

    Step 0 sees the same features in every rollout, so its pass runs once
    for the whole batch; the draws are those of ``count`` separate passes.
    The weights are cast to the compute dtype once for the batch, and every
    pass runs in one workspace that is dropped when the batch is drawn.
    """
    params = params.for_compute()
    feats = task.features(params.config)
    ws = Workspace(params.config, feats.num_nodes)
    first, _ = step_logp(params, feats, ws=ws)
    return [rollout(task.g, task.topo, params, cfg, rng, task.evaluator, feats, task.baseline, first, use_solver, ws)
            for _ in range(count)]


def _clipped_step(lp: np.ndarray, y: np.ndarray, old_lp: np.ndarray, adv: np.ndarray, inv_m: float, cfg: PpoConfig):
    """Surrogate and entropy sums of one forward pass, and the loss gradient w.r.t. its logits.

    ``lp`` holds the pass's (N, C) log-probs; ``y`` and ``old_lp`` hold one
    (N,) row for each of the M rollouts that share the pass, shape (M, N),
    and ``adv`` their M advantages.  The entropy and its gradient depend on
    ``lp`` alone, so they are computed once and counted M times.
    """
    eps = cfg.clip_epsilon
    members, n = y.shape
    chips = lp.shape[1]
    p = np.exp(lp)
    rows = np.arange(n)
    ratio = np.exp(lp[rows, y] - old_lp)
    adv = adv[:, None]
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - eps, 1.0 + eps) * adv
    surrogate = np.minimum(unclipped, clipped)
    ent = -(p * lp).sum(axis=1)

    use_unclipped = unclipped <= clipped
    inside = (ratio > 1.0 - eps) & (ratio < 1.0 + eps)
    dsdr = adv * np.where(use_unclipped, 1.0, inside.astype(np.float64))
    grad_lp = -inv_m * dsdr * ratio
    dlogits = grad_lp.sum(axis=0)[:, None] * (-p)
    dlogits += np.bincount((rows * chips + y).ravel(), weights=grad_lp.ravel(), minlength=n * chips).reshape(n, chips)
    dlogits += (members * inv_m * cfg.entropy_bonus) * p * (lp + ent[:, None])
    return surrogate.sum(), members * ent.sum(), dlogits


def ppo_loss_and_grads(
    params: PolicyParams,
    rollouts: list[Rollout],
    advantages: np.ndarray,
    cfg: PpoConfig,
    feats: GraphFeatures,
    ws: Optional[Workspace] = None,
    grads: Optional[NamedViews] = None,
):
    """Clipped-surrogate loss plus entropy bonus.

    Returns (loss, grads, stats): stats holds the surrogate and entropy
    terms of the loss, and grads is a float64 gradient set named like the
    weights.  ``grads``, when given, is zeroed and filled in place; each
    pass runs in ``ws`` and its backward reads the cache before the next
    forward.  Both are made fresh when not given.  The
    replay conditions on the stored actions through :func:`step_logp`, so
    it recomputes what the rollouts sampled from.  Each forward pass serves
    every rollout that shares its input: step 0 runs once for the whole
    minibatch, with one :func:`_clipped_step` over all its rollouts and one
    backward, and each later step runs once per rollout.  The weights are
    cast to the compute dtype once for the minibatch.
    """
    if grads is None:
        grads = params.weights.zeros_like()
    else:
        grads.flat.fill(0.0)
    n_elems = sum(r.actions.shape[0] * r.actions.shape[1] for r in rollouts)
    if n_elems == 0:
        return 0.0, grads, {"surrogate": 0.0, "entropy": 0.0}
    inv_m = 1.0 / n_elems
    loss_sur = 0.0
    loss_ent = 0.0
    compute = params.for_compute()
    if ws is None:
        ws = Workspace(compute.config, feats.num_nodes)
    # every forward pass: its previous actions, then the actions, stored
    # log-probs and advantages of the rollouts that share it
    passes = [(None, np.stack([ro.actions[0] for ro in rollouts]), np.stack([ro.old_logp[0] for ro in rollouts]),
               advantages)]
    passes += [
        (ro.actions[t - 1], ro.actions[t : t + 1], ro.old_logp[t : t + 1], advantages[i : i + 1])
        for i, ro in enumerate(rollouts)
        for t in range(1, ro.actions.shape[0])
    ]
    for prev, y, old_lp, adv in passes:
        lp, cache = step_logp(compute, feats, prev, need_cache=True, ws=ws)
        sur, ent, dlogits = _clipped_step(lp, y, old_lp, adv, inv_m, cfg)
        loss_sur -= inv_m * sur
        loss_ent -= inv_m * cfg.entropy_bonus * ent
        backward_policy(compute, feats, cache, dlogits, grads)
    return loss_sur + loss_ent, grads, {"surrogate": loss_sur, "entropy": loss_ent}


def adam_step(params: PolicyParams, grads: NamedViews, lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8):
    """One in-place Adam step over the flat vectors, ``ADAM_CHUNK`` elements
    at a time.  Elementwise and in this order, with ``c1 = 1 - beta1**t``
    and ``c2 = 1 - beta2**t``: ``m = beta1*m + (1-beta1)*g``,
    ``v = beta2*v + ((1-beta2)*g)*g``, ``w -= (lr*(m/c1)) / (sqrt(v/c2) + eps)``.
    """
    if not params.opt_m:
        params.opt_m, params.opt_v = params.weights.zeros_like(), params.weights.zeros_like()
    params.opt_t += 1
    c1, c2 = 1 - beta1**params.opt_t, 1 - beta2**params.opt_t
    w, m, v, g = params.weights.flat, params.opt_m.flat, params.opt_v.flat, grads.flat
    scratch = np.empty((2, min(ADAM_CHUNK, w.size)))
    for start in range(0, w.size, ADAM_CHUNK):
        part = slice(start, start + ADAM_CHUNK)
        wc, mc, vc, gc = w[part], m[part], v[part], g[part]
        a, b = scratch[:, : gc.size]
        mc *= beta1
        mc += np.multiply(gc, 1 - beta1, out=a)
        vc *= beta2
        vc += np.multiply(np.multiply(gc, 1 - beta2, out=a), gc, out=a)
        np.sqrt(np.divide(vc, c2, out=a), out=a)
        a += eps
        np.multiply(np.divide(mc, c1, out=b), lr, out=b)
        wc -= np.divide(b, a, out=b)


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
    baseline for this graph (see :func:`train_batches`).  A non-finite loss
    aborts the update before any weight is touched in that minibatch.  Every
    minibatch's passes run in one workspace and fill one gradient set, both
    dropped on return.
    """
    rewards = np.array([r.reward for r in rollouts], dtype=np.float64)
    advantages = rewards - baseline_reward
    stats = {"loss": 0.0, "aborted": False, "mean_reward": float(rewards.mean()) if len(rewards) else 0.0}
    updates = 0
    ws = Workspace(params.config, feats.num_nodes)
    grads = params.weights.zeros_like()
    for _ in range(cfg.num_epochs):
        perm = rng.permutation(len(rollouts))
        for chunk in np.array_split(perm, cfg.num_minibatches):
            if len(chunk) == 0:
                continue
            batch = [rollouts[i] for i in chunk]
            loss, grads, _ = ppo_loss_and_grads(params, batch, advantages[chunk], cfg, feats, ws=ws, grads=grads)
            if not math.isfinite(loss):
                stats["aborted"] = True
                return stats
            adam_step(params, grads, cfg.learning_rate)
            stats["loss"] = loss
            updates += 1
    stats["updates"] = updates
    return stats


def train_batches(tasks: list[Task], params: PolicyParams, cfg: PpoConfig, total: int, rng: np.random.Generator,
                  use_solver: bool = True) -> Iterator[tuple[list[Rollout], int]]:
    """The rollout/update loop: ``total`` samples over ``tasks``, round robin.

    Each visit draws one batch of up to ``cfg.num_rollouts`` rollouts on its
    task; a full batch gets one :func:`ppo_update` of ``params`` in place.
    Its advantages are taken against that task's reward baseline, an
    exponential moving average (``cfg.baseline_decay``) of the task's batch
    means that starts at its first batch's mean.  Yields each batch after
    its update, with the number of samples drawn so far.
    """
    emas: list[Optional[float]] = [None] * len(tasks)
    samples = 0
    while samples < total:
        k = samples // cfg.num_rollouts % len(tasks)  # every batch but the last is full
        count = min(cfg.num_rollouts, total - samples)
        batch = rollouts(tasks[k], params, cfg, rng, count, use_solver)
        samples += count
        if count == cfg.num_rollouts:
            mean = float(np.mean([r.reward for r in batch]))
            ema = mean if emas[k] is None else emas[k]
            ppo_update(params, batch, cfg, tasks[k].features(params.config), ema, rng)
            emas[k] = cfg.baseline_decay * ema + (1 - cfg.baseline_decay) * mean
        yield batch, samples


def train(task: Task, params: PolicyParams, cfg: PpoConfig, budget: SearchBudget, rng: np.random.Generator,
          use_solver: bool = True) -> SearchTrace:
    """Train ``params`` in place on one task for ``budget.max_samples``
    samples, and return the trace of every sample drawn."""
    trace = SearchTrace()
    for batch, _ in train_batches([task], params, cfg, budget.max_samples, rng, use_solver):
        for ro in batch:
            trace.record(ro, ro.partition)
    return trace


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
    params = init_params(model_config or ModelConfig(num_chips=topo.num_chips), rng)
    return params, train(Task(g, topo, evaluator), params, cfg, budget, rng, use_solver)
