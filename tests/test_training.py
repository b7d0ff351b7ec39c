import numpy as np
import pytest

import mcmpart.training
from mcmpart import ChipTopology, GeneratorConfig, analytical_eval, enumerate_valid, generate_synthetic
from mcmpart.evaluator import make_analytical
from mcmpart.pipeline import Corpus, pretrain, zero_shot
from mcmpart.policy import (
    COMPUTE_DTYPES,
    GraphFeatures,
    ModelConfig,
    PolicyParams,
    Workspace,
    forward_policy,
    init_params,
    load_checkpoint,
    log_softmax,
    save_checkpoint,
)
from mcmpart.search import SearchBudget, greedy_heuristic
from mcmpart.training import (
    PpoConfig,
    Task,
    adam_step,
    ppo_loss_and_grads,
    ppo_update,
    rollout,
    rollouts,
    step_logp,
    train,
    train_from_scratch,
)

from conftest import reference_adam_step, reference_backward, reference_forward, relabeled, trained_like


def small_setup(seed=0, num_chips=2, n=5, compute_dtype="float32"):
    g = generate_synthetic(GeneratorConfig("random-dag", n, seed=2))
    topo = ChipTopology(num_chips=num_chips)
    cfg = ModelConfig.tiny(num_chips=num_chips, compute_dtype=compute_dtype)
    params = init_params(cfg, np.random.default_rng(seed))
    feats = GraphFeatures(g, cfg)
    return g, topo, params, feats


def collect_rollouts(g, topo, params, cfg, seed, count=4, use_solver=True):
    return rollouts(Task(g, topo, make_analytical()), params, cfg, np.random.default_rng(seed), count, use_solver)


def one_rollout(g, topo, params, cfg, seed, use_solver=True):
    return collect_rollouts(g, topo, params, cfg, seed, count=1, use_solver=use_solver)[0]


# ---- rollout ---------------------------------------------------------------


def test_rollout_single_chip_reward_is_one():
    g = generate_synthetic(GeneratorConfig("layered", 7, seed=1))
    topo = ChipTopology(num_chips=1)
    cfg = ModelConfig.tiny(num_chips=1)
    params = init_params(cfg, np.random.default_rng(0))
    ro = one_rollout(g, topo, params, PpoConfig(), 0)
    assert ro.valid
    assert ro.partition.assignment.tolist() == [0] * 7
    assert ro.reward == 1.0


def test_rollout_reward_matches_independent_recomputation():
    g, topo, params, _ = small_setup(n=8)
    ro = one_rollout(g, topo, params, PpoConfig(), 3)
    assert ro.valid
    ev = analytical_eval(g, topo, ro.partition)
    base = analytical_eval(g, topo, greedy_heuristic(g, topo))
    assert ro.reward == pytest.approx(ev.throughput / base.throughput, rel=1e-12)


def test_rollout_first_refinement_step_identical_across_T():
    g, topo, params, _ = small_setup()
    r1 = one_rollout(g, topo, params, PpoConfig(refinement_steps=1), 7)
    r2 = one_rollout(g, topo, params, PpoConfig(refinement_steps=2), 7)
    assert r1.actions.shape == (1, 5)
    assert r2.actions.shape == (2, 5)
    assert np.array_equal(r1.actions[0], r2.actions[0])


def test_rollout_solver_guarantees_valid_reward():
    g, topo, params, _ = small_setup(n=10)
    for seed in range(10):
        ro = one_rollout(g, topo, params, PpoConfig(), seed)
        assert ro.valid and ro.reward > 0


def test_rollout_without_solver_keeps_raw_actions():
    g, topo, params, _ = small_setup(n=10)
    ro = one_rollout(g, topo, params, PpoConfig(), 4, use_solver=False)
    assert np.array_equal(ro.partition.assignment, ro.actions[-1])
    if not ro.valid:
        assert ro.reward == 0.0


@pytest.mark.parametrize("solver_mode", ["fix", "sample"])
def test_rollout_with_shared_first_step_is_byte_identical(solver_mode):
    # rollouts runs step 0 once for the batch; recomputing it for every
    # rollout must draw the same bytes
    g, topo, params, feats = small_setup(n=12)
    cfg = PpoConfig(refinement_steps=3, solver_mode=solver_mode)
    task = Task(g, topo, make_analytical())
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    shared = rollouts(task, params, cfg, rng_b, 8)
    assert len(shared) == 8
    for b in shared:
        a = rollout(g, topo, params, cfg, rng_a, task.evaluator, feats, task.baseline, step_logp(params, feats)[0])
        assert a.actions.tobytes() == b.actions.tobytes()
        assert a.old_logp.tobytes() == b.old_logp.tobytes()
        assert a.partition.assignment.tobytes() == b.partition.assignment.tobytes()
        assert a.reward == b.reward
    assert rng_a.random() == rng_b.random()


def test_rollout_chip_count_mismatch_rejected():
    g, topo, params, _ = small_setup(num_chips=2)
    from mcmpart.errors import InvalidConfigError

    with pytest.raises(InvalidConfigError):
        one_rollout(g, ChipTopology(num_chips=3), params, PpoConfig(), 0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["clip_epsilon", "learning_rate", "entropy_bonus", "baseline_decay"])
def test_ppo_config_rejects_non_finite_rates(field, value):
    from mcmpart.errors import InvalidConfigError

    with pytest.raises(InvalidConfigError):
        PpoConfig(**{field: value})


# ---- loss and update -------------------------------------------------------


def reference_ppo_loss_and_grads(params, rollouts, advantages, cfg, feats):
    """The loss written out per rollout and per step: one dense reference
    forward and backward for every (rollout, step)."""
    grads = params.weights.zeros_like()
    n_elems = sum(r.actions.shape[0] * r.actions.shape[1] for r in rollouts)
    inv_m = 1.0 / n_elems
    eps = cfg.clip_epsilon
    loss = 0.0
    for ridx, ro in enumerate(rollouts):
        adv = float(advantages[ridx])
        t_steps, n = ro.actions.shape
        prev = None
        for t in range(t_steps):
            logits, cache = reference_forward(params, feats, feats.features(prev))
            lp = log_softmax(logits)
            p = np.exp(lp)
            y = ro.actions[t]
            rows = np.arange(n)
            ratio = np.exp(lp[rows, y] - ro.old_logp[t])
            unclipped = ratio * adv
            clipped = np.clip(ratio, 1.0 - eps, 1.0 + eps) * adv
            ent = -(p * lp).sum(axis=1)
            loss -= inv_m * np.minimum(unclipped, clipped).sum()
            loss -= inv_m * cfg.entropy_bonus * ent.sum()
            inside = (ratio > 1.0 - eps) & (ratio < 1.0 + eps)
            dsdr = adv * np.where(unclipped <= clipped, 1.0, inside.astype(np.float64))
            grad_lp = -inv_m * dsdr * ratio
            dlogits = grad_lp[:, None] * (-p)
            dlogits[rows, y] += grad_lp
            dlogits += inv_m * cfg.entropy_bonus * p * (lp + ent[:, None])
            reference_backward(params, feats, cache, dlogits, grads)
            prev = y
    return loss, grads


@pytest.mark.parametrize("t_steps", [1, 2, 3])
def test_shared_first_step_loss_matches_per_rollout_reference(t_steps):
    # float64 compute: the reference differs from the loss only in summation order
    g, topo, params, feats = small_setup(seed=1, n=9, compute_dtype="float64")
    cfg = PpoConfig(refinement_steps=t_steps, clip_epsilon=0.05)
    ros = collect_rollouts(g, topo, params, cfg, seed=4, count=5)
    rewards = np.array([r.reward for r in ros])
    adv = rewards - rewards.mean() + np.linspace(-0.3, 0.3, len(ros))
    rng = np.random.default_rng(2)
    for k in params.weights:  # move off the rollout's weights so ratios leave the clip band
        params.weights[k] += 0.05 * rng.standard_normal(params.weights[k].shape)

    loss, grads, _ = ppo_loss_and_grads(params, ros, adv, cfg, feats)
    ref_loss, ref_grads = reference_ppo_loss_and_grads(params, ros, adv, cfg, feats)
    assert abs(loss - ref_loss) <= 1e-12
    assert sorted(grads) == sorted(ref_grads)
    for k in grads:
        assert np.abs(grads[k] - ref_grads[k]).max() <= 1e-12, k
    assert any(np.abs(v).max() > 1e-6 for v in grads.values())


@pytest.mark.parametrize("compute_dtype", COMPUTE_DTYPES)
def test_ppo_passes_in_one_workspace_match_reference_pass_by_pass(monkeypatch, compute_dtype):
    # every pass of the loss runs in the caller's workspace and reads its
    # cache before the next forward overwrites it: each forward's logits and
    # each backward's gradient increment equal the dense reference pass on
    # the same input.  Local shuffles give the blocks ragged envelopes.
    perm = np.concatenate([lo + np.random.default_rng(lo).permutation(10) for lo in range(0, 90, 10)])
    g = relabeled(generate_synthetic(GeneratorConfig("layered", 90, seed=4)), perm)
    topo = ChipTopology(num_chips=3)
    model = ModelConfig(num_chips=3, num_layers=3, hidden_dim=16, compute_dtype=compute_dtype)
    params = init_params(model, np.random.default_rng(0))
    feats = GraphFeatures(g, model)
    assert feats.in_mean.blocks is not None and feats.out_mean_t.blocks is not None
    cfg = PpoConfig(refinement_steps=3, clip_epsilon=0.05)
    ros = collect_rollouts(g, topo, params, cfg, seed=2, count=4)
    adv = np.linspace(-0.5, 0.5, len(ros))
    rng = np.random.default_rng(1)
    for k in params.weights:  # move off the rollout's weights so ratios leave the clip band
        params.weights[k] += 0.05 * rng.standard_normal(params.weights[k].shape)

    ws = Workspace(model, g.num_nodes)
    tol = 1e3 * np.finfo(compute_dtype).eps
    real_forward, real_backward = mcmpart.training.forward_policy, mcmpart.training.backward_policy
    ref_caches = []

    def close(a, b):  # relative to the largest entry of the reference
        return np.abs(a - b).max() <= tol * np.abs(b).max()

    def forward(params, feats, x, need_cache=False, ws=None):
        logits, cache = real_forward(params, feats, x, need_cache, ws)
        ref_logits, ref_cache = reference_forward(params, feats, x)
        assert close(logits, ref_logits)
        ref_caches.append(ref_cache)
        return logits, cache

    def backward(params, feats, cache, dlogits, grads):
        assert cache.workspace is ws
        before = {k: v.copy() for k, v in grads.items()}
        real_backward(params, feats, cache, dlogits, grads)
        ref = {k: np.zeros_like(v) for k, v in grads.items()}
        reference_backward(params, feats, ref_caches[-1], dlogits, ref)
        for k in grads:
            assert close(grads[k] - before[k], ref[k]), k
        return grads

    monkeypatch.setattr(mcmpart.training, "forward_policy", forward)
    monkeypatch.setattr(mcmpart.training, "backward_policy", backward)
    held = params.weights.zeros_like()
    held.flat.fill(7.0)  # what a last minibatch left
    loss, grads, _ = ppo_loss_and_grads(params, ros, adv, cfg, feats, ws=ws, grads=held)
    assert grads is held and len(ref_caches) == 1 + len(ros) * (cfg.refinement_steps - 1)
    ref_loss, ref_grads = reference_ppo_loss_and_grads(params, ros, adv, cfg, feats)
    assert abs(loss - ref_loss) <= tol * abs(ref_loss)
    for k in ref_grads:
        assert close(grads[k], ref_grads[k]), k


def test_rollouts_store_copies_not_workspace_views(monkeypatch):
    # the rollouts' passes share one workspace; what they store must not
    # move when later passes run in it
    made = []

    class Recording(Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(mcmpart.training, "Workspace", Recording)
    g, topo, params, feats = small_setup(n=40)
    cfg = PpoConfig(refinement_steps=3)
    ros = collect_rollouts(g, topo, params, cfg, seed=3, count=5)
    (ws,) = made
    buffers = (*ws.z, *ws.h, ws.t1, ws.da, ws.dh, ws.dz, ws.dw)
    kept = [(ro.actions.copy(), ro.old_logp.copy()) for ro in ros]
    for ro in ros:
        assert not any(np.shares_memory(ro.old_logp, b) or np.shares_memory(ro.actions, b) for b in buffers)
    lp, _ = step_logp(params.for_compute(), feats, ros[0].actions[0], ws=ws)
    lp_kept = lp.copy()
    for ro in ros:  # more passes in the same workspace, as the replay makes
        step_logp(params.for_compute(), feats, ro.actions[-1], need_cache=True, ws=ws)
    assert np.array_equal(lp, lp_kept)
    for ro, (actions, old_logp) in zip(ros, kept):
        assert np.array_equal(ro.actions, actions) and np.array_equal(ro.old_logp, old_logp)


def test_ppo_update_makes_one_workspace_and_one_gradient_set(monkeypatch):
    made, grad_sets = [], set()

    class Recording(Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    real_adam = mcmpart.training.adam_step

    def adam(params, grads, lr):
        grad_sets.add(id(grads))
        real_adam(params, grads, lr)

    monkeypatch.setattr(mcmpart.training, "Workspace", Recording)
    monkeypatch.setattr(mcmpart.training, "adam_step", adam)
    g, topo, params, feats = small_setup(n=12)
    cfg = PpoConfig(num_rollouts=6, num_minibatches=3, num_epochs=2)
    batch = collect_rollouts(g, topo, params, cfg, seed=1, count=6)
    made.clear()
    stats = ppo_update(params, batch, cfg, feats, 0.5, np.random.default_rng(0))
    assert stats["updates"] == 6 and len(made) == 1 and len(grad_sets) == 1


@pytest.mark.parametrize("solver_mode", ["fix", "sample"])
@pytest.mark.parametrize("profile", ["tiny", "default"])
def test_first_minibatch_replays_a_fresh_batch_with_ratio_one(monkeypatch, profile, solver_mode):
    # at the default float32 compute dtype, the replay before the first Adam
    # step must recompute every log-prob the rollouts stored, bit for bit
    g = generate_synthetic(GeneratorConfig("layered", 16, seed=3))
    topo = ChipTopology(num_chips=3)
    model = ModelConfig.tiny(3) if profile == "tiny" else ModelConfig(num_chips=3)
    assert model.compute_dtype == "float32"
    params = init_params(model, np.random.default_rng(0))
    feats = GraphFeatures(g, model)
    cfg = PpoConfig(num_rollouts=8, num_minibatches=2, num_epochs=2, refinement_steps=3, solver_mode=solver_mode)
    batch = collect_rollouts(g, topo, params, cfg, seed=1, count=cfg.num_rollouts)

    replayed = []
    clipped_step = mcmpart.training._clipped_step

    def recording(lp, y, old_lp, *args):
        if params.opt_t == 0:
            rows = np.arange(y.shape[1])
            replayed.append(y.shape[0])
            assert lp[rows, y].tobytes() == old_lp.tobytes()
        return clipped_step(lp, y, old_lp, *args)

    monkeypatch.setattr(mcmpart.training, "_clipped_step", recording)
    ppo_update(params, batch, cfg, feats, 0.5, np.random.default_rng(2))
    # step 0 once for the minibatch's four rollouts, then each later step per rollout
    assert replayed == [4] + [1] * 4 * (cfg.refinement_steps - 1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_float32_loss_and_grads_match_float64(seed):
    # float32 GEMMs (unit roundoff 6e-8) through a tiny network: the loss and
    # each gradient array agree with float64 to 1e-5 of their size
    g = generate_synthetic(GeneratorConfig("layered", 12, seed=seed))
    topo = ChipTopology(num_chips=3)
    c64, c32 = ModelConfig.tiny(3, compute_dtype="float64"), ModelConfig.tiny(3)
    p64 = init_params(c64, np.random.default_rng(seed))
    p32 = PolicyParams(c32, p64.weights)
    f64, f32 = GraphFeatures(g, c64), GraphFeatures(g, c32)
    cfg = PpoConfig(refinement_steps=2)
    ros = collect_rollouts(g, topo, p64, cfg, seed=1, count=6)
    adv = np.linspace(-0.5, 0.5, len(ros))

    l64, g64, _ = ppo_loss_and_grads(p64, ros, adv, cfg, f64)
    l32, g32, _ = ppo_loss_and_grads(p32, ros, adv, cfg, f32)
    assert l32 == pytest.approx(l64, rel=1e-5)
    for k in g64:
        assert g32[k].dtype == np.float64
        assert np.abs(g32[k] - g64[k]).max() <= 1e-5 * np.abs(g64[k]).max(), k


@pytest.mark.parametrize("solver_mode", ["fix", "sample"])
def test_train_round_weights_match_per_rollout_reference(monkeypatch, solver_mode):
    g = generate_synthetic(GeneratorConfig("layered", 16, seed=3))
    topo = ChipTopology(num_chips=2)
    cfg = PpoConfig(num_rollouts=10, num_minibatches=2, num_epochs=3, solver_mode=solver_mode)
    model = ModelConfig.tiny(2, compute_dtype="float64")

    def run():
        return train_from_scratch(g, topo, cfg, SearchBudget(max_samples=20), make_analytical(),
                                  np.random.default_rng(8), model_config=model)

    params, trace = run()

    def reference(params, rollouts, advantages, cfg, feats, **_):
        loss, grads = reference_ppo_loss_and_grads(params, rollouts, advantages, cfg, feats)
        return loss, grads, {}

    monkeypatch.setattr(mcmpart.training, "ppo_loss_and_grads", reference)
    ref_params, ref_trace = run()
    assert trace.throughput == ref_trace.throughput
    for k in params.weights:
        assert np.abs(params.weights[k] - ref_params.weights[k]).max() <= 1e-12, k


def expected_policy_calls(cfg: PpoConfig) -> tuple[int, int]:
    """Forwards and backwards of one full rollout batch plus its PPO update:
    a shared step 0 per batch and per minibatch, one pass per rollout for
    each later step."""
    b, t, e = cfg.num_rollouts, cfg.refinement_steps, cfg.num_epochs
    m = e * cfg.num_minibatches
    return 1 + b * (t - 1) + m + e * b * (t - 1), m + e * b * (t - 1)


def test_expected_policy_calls_at_the_benchmark_config():
    assert expected_policy_calls(PpoConfig()) == (261, 240)


def counting(calls, name, fn):
    def wrapped(*args, **kw):
        calls[name] += 1
        return fn(*args, **kw)
    return wrapped


@pytest.mark.parametrize("entry", ["train", "pretrain"])
def test_one_round_policy_call_counts(monkeypatch, tmp_path, entry):
    # counts go through the module globals that the benchmark wraps
    calls = {"forward": 0, "backward": 0, "rollout": 0, "cast": 0}
    for_compute = PolicyParams.for_compute

    def counting_casts(self):
        out = for_compute(self)
        calls["cast"] += out is not self
        return out

    monkeypatch.setattr(PolicyParams, "for_compute", counting_casts)
    monkeypatch.setattr(mcmpart.training, "forward_policy", counting(calls, "forward", mcmpart.training.forward_policy))
    monkeypatch.setattr(mcmpart.training, "backward_policy",
                        counting(calls, "backward", mcmpart.training.backward_policy))
    # both entries draw their batches through training.rollouts
    monkeypatch.setattr(mcmpart.training, "rollout", counting(calls, "rollout", mcmpart.training.rollout))

    g = generate_synthetic(GeneratorConfig("layered", 12, seed=2))
    topo = ChipTopology(num_chips=2)
    cfg = PpoConfig(num_rollouts=6, num_minibatches=3, num_epochs=2, refinement_steps=3)
    if entry == "train":
        train_from_scratch(g, topo, cfg, SearchBudget(max_samples=6), make_analytical(),
                           np.random.default_rng(0), model_config=ModelConfig.tiny(2))
    else:
        corpus = Corpus(train=[("g", g)], validation=[], test=[])
        pretrain(corpus, topo, cfg, make_analytical(), total_samples=6, checkpoint_every=6,
                 out_dir=tmp_path, model_config=ModelConfig.tiny(2))
    assert calls["rollout"] == cfg.num_rollouts
    assert (calls["forward"], calls["backward"]) == expected_policy_calls(cfg)
    # the float32 weight copy is made once for the batch and once per minibatch
    assert calls["cast"] == 1 + cfg.num_epochs * cfg.num_minibatches


def test_zero_shot_runs_step_zero_once(monkeypatch):
    calls = {"forward": 0}
    monkeypatch.setattr(mcmpart.training, "forward_policy", counting(calls, "forward", mcmpart.training.forward_policy))
    g = generate_synthetic(GeneratorConfig("layered", 10, seed=1))
    params = init_params(ModelConfig.tiny(2), np.random.default_rng(0))
    cfg = PpoConfig(refinement_steps=3)
    zero_shot(params, Task(g, ChipTopology(num_chips=2), make_analytical()), samples=7, cfg=cfg)
    assert calls["forward"] == 1 + 7 * (cfg.refinement_steps - 1)


def test_gradients_match_finite_differences():
    # float64 compute: a 1e-6 step is below float32 resolution
    g, topo, params, feats = small_setup(seed=1, compute_dtype="float64")
    cfg = PpoConfig(refinement_steps=2, entropy_bonus=0.01)
    ros = collect_rollouts(g, topo, params, cfg, seed=5)
    rewards = np.array([r.reward for r in ros])
    adv = rewards - rewards.mean()
    rng = np.random.default_rng(0)
    for k in params.weights:
        params.weights[k] += 0.01 * rng.standard_normal(params.weights[k].shape)

    _, grads, _ = ppo_loss_and_grads(params, ros, adv, cfg, feats)
    h = 1e-6
    for k in sorted(params.weights):
        flat = params.weights[k].reshape(-1)
        for i in rng.choice(flat.size, size=min(6, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            lp, _, _ = ppo_loss_and_grads(params, ros, adv, cfg, feats)
            flat[i] = orig - h
            lm, _, _ = ppo_loss_and_grads(params, ros, adv, cfg, feats)
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            an = grads[k].reshape(-1)[i]
            assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-8)


def test_zero_advantage_leaves_only_entropy_gradient():
    g, topo, params, feats = small_setup(seed=2)
    cfg = PpoConfig(entropy_bonus=0.05)
    ros = collect_rollouts(g, topo, params, cfg, seed=6)
    zeros = np.zeros(len(ros))

    _, grads_zero_adv, _ = ppo_loss_and_grads(params, ros, zeros, cfg, feats)
    cfg_no_ent = PpoConfig(entropy_bonus=0.05, clip_epsilon=cfg.clip_epsilon)
    # with advantage 0 the surrogate term vanishes identically
    no_entropy = PpoConfig(entropy_bonus=1e-300)
    _, grads_no_terms, _ = ppo_loss_and_grads(params, ros, zeros, no_entropy, feats)
    for k in grads_zero_adv:
        assert np.allclose(grads_no_terms[k], 0.0, atol=1e-12)
        # entropy-only gradient is generally nonzero
    assert any(np.abs(grads_zero_adv[k]).max() > 0 for k in grads_zero_adv)


def test_huge_clip_equals_vanilla_policy_gradient():
    # float64 compute, for the 1e-12 comparison
    g, topo, params, feats = small_setup(seed=3, compute_dtype="float64")
    cfg = PpoConfig(clip_epsilon=1e9, entropy_bonus=0.0)
    ros = collect_rollouts(g, topo, params, cfg, seed=8)
    rewards = np.array([r.reward for r in ros])
    adv = rewards - rewards.mean()
    rng = np.random.default_rng(1)
    for k in params.weights:
        params.weights[k] += 0.02 * rng.standard_normal(params.weights[k].shape)
    loss, _, _ = ppo_loss_and_grads(params, ros, adv, cfg, feats)

    # vanilla surrogate: mean over elements of ratio * advantage
    from mcmpart.policy import forward_policy, log_softmax

    total = 0.0
    count = 0
    for ridx, ro in enumerate(ros):
        prev = None
        for t in range(ro.actions.shape[0]):
            x = feats.features(prev)
            logits, _ = forward_policy(params, feats, x)
            lp = log_softmax(logits)
            rows = np.arange(ro.actions.shape[1])
            ratio = np.exp(lp[rows, ro.actions[t]] - ro.old_logp[t])
            total += float((ratio * adv[ridx]).sum())
            count += ro.actions.shape[1]
            prev = ro.actions[t]
    assert loss == pytest.approx(-total / count, rel=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf weight is the point
def test_nonfinite_loss_aborts_without_touching_weights():
    g, topo, params, feats = small_setup(seed=4)
    cfg = PpoConfig()
    ros = collect_rollouts(g, topo, params, cfg, seed=9)
    params.weights["head_W2"][0, 0] = np.inf
    before = {k: v.copy() for k, v in params.weights.items()}
    stats = ppo_update(params, ros, cfg, feats, baseline_reward=0.0, rng=np.random.default_rng(0))
    assert stats["aborted"]
    for k, v in before.items():
        assert np.array_equal(params.weights[k], v, equal_nan=True)


def test_adam_step_moves_against_gradient():
    params = init_params(ModelConfig.tiny(num_chips=2), np.random.default_rng(0))
    grads = params.weights.zeros_like()
    grads.flat.fill(1.0)
    before = params.weights["head_W1"].copy()
    adam_step(params, grads, lr=0.01)
    after = params.weights["head_W1"]
    assert (after < before).all()
    assert params.opt_t == 1


@pytest.mark.parametrize("start", ["fresh", "checkpoint"])
@pytest.mark.parametrize("profile", ["tiny", "default"])
def test_adam_step_matches_per_name_reference_bitwise(tmp_path, profile, start):
    # the default profile's flat vector spans many ADAM_CHUNKs, the tiny one
    # fits in one; a fresh start makes the moments on the first step, a
    # loaded checkpoint brings its own
    model = ModelConfig.tiny(2) if profile == "tiny" else ModelConfig(num_chips=2)
    params = init_params(model, np.random.default_rng(0))
    assert (params.weights.flat.size > mcmpart.training.ADAM_CHUNK) == (profile == "default")
    if start == "checkpoint":
        save_checkpoint(tmp_path / "p.ckpt", trained_like(params, steps=3))
        params, _ = load_checkpoint(tmp_path / "p.ckpt")
    ref = params.copy()
    rng = np.random.default_rng(1)
    grads = params.weights.zeros_like()
    for _ in range(5):
        grads.flat[:] = rng.standard_normal(grads.flat.size)
        adam_step(params, grads, lr=1e-3)
        reference_adam_step(ref, grads, lr=1e-3)
    assert params.opt_t == ref.opt_t == (8 if start == "checkpoint" else 5)
    for table in ("weights", "opt_m", "opt_v"):
        for k, v in getattr(ref, table).items():
            assert getattr(params, table)[k].tobytes() == v.tobytes(), (table, k)


# ---- training loop ---------------------------------------------------------


def tiny_train_cfg(**kw):
    kw.setdefault("num_rollouts", 10)
    kw.setdefault("num_minibatches", 2)
    kw.setdefault("num_epochs", 2)
    kw.setdefault("learning_rate", 0.01)
    return PpoConfig(**kw)


def test_train_reaches_oracle_on_small_instance():
    g = generate_synthetic(GeneratorConfig("layered", 6, seed=21))
    topo = ChipTopology(num_chips=3)
    ev = make_analytical()
    best = max(ev(g, topo, p).throughput for p in enumerate_valid(g, topo) if ev(g, topo, p).valid)
    _, trace = train_from_scratch(
        g, topo, tiny_train_cfg(), SearchBudget(max_samples=600, seed=3), ev,
        np.random.default_rng(3), model_config=ModelConfig.tiny(3),
    )
    assert trace.best_throughput == pytest.approx(best, abs=1e-9)


def test_train_deterministic():
    g = generate_synthetic(GeneratorConfig("cnn-like", 10, seed=2))
    topo = ChipTopology(num_chips=2)
    ev = make_analytical()

    def run():
        return train_from_scratch(
            g, topo, tiny_train_cfg(), SearchBudget(max_samples=60, seed=11), ev,
            np.random.default_rng(11), model_config=ModelConfig.tiny(2),
        )

    p1, t1 = run()
    p2, t2 = run()
    assert t1.throughput == t2.throughput
    for k in p1.weights:
        assert np.array_equal(p1.weights[k], p2.weights[k])


def test_train_records_every_sample():
    g = generate_synthetic(GeneratorConfig("chain", 6, seed=1))
    topo = ChipTopology(num_chips=2)
    _, trace = train_from_scratch(
        g, topo, tiny_train_cfg(), SearchBudget(max_samples=37, seed=0), make_analytical(),
        np.random.default_rng(0), model_config=ModelConfig.tiny(2),
    )
    assert trace.num_samples == 37
    assert all(v for v in trace.valid)  # solver attached: every sample valid


def test_no_solver_ablation_rarely_valid_on_layered_graph():
    g = generate_synthetic(GeneratorConfig("layered", 20, seed=1))
    topo = ChipTopology(num_chips=4)
    _, tr_no = train_from_scratch(
        g, topo, tiny_train_cfg(), SearchBudget(max_samples=300, seed=2), make_analytical(),
        np.random.default_rng(2), model_config=ModelConfig.tiny(4), use_solver=False,
    )
    _, tr_yes = train_from_scratch(
        g, topo, tiny_train_cfg(), SearchBudget(max_samples=100, seed=2), make_analytical(),
        np.random.default_rng(2), model_config=ModelConfig.tiny(4), use_solver=True,
    )
    assert np.mean(tr_no.valid) < 0.05
    assert np.mean(tr_yes.valid) == 1.0
