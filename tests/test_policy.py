import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcmpart import ChipTopology, GeneratorConfig, generate_synthetic
from mcmpart.errors import CheckpointFormatError, DimensionMismatchError, InvalidConfigError
from mcmpart.evaluator import make_analytical
from mcmpart.generate import FAMILIES
from mcmpart.pipeline import fine_tune
from mcmpart.policy import (
    COMPUTE_DTYPES,
    ROW_BLOCK,
    GraphFeatures,
    ModelConfig,
    Workspace,
    backward_policy,
    forward_policy,
    init_params,
    load_checkpoint,
    log_softmax,
    sample_rows,
    save_checkpoint,
    weight_shapes,
)
from mcmpart.search import SearchBudget
from mcmpart.training import PpoConfig

from conftest import (
    edit_checkpoint,
    make_graph,
    reference_backward,
    reference_forward,
    relabeled,
    trained_like,
    with_config_entry,
    without_config_entry,
)


def tiny_params(num_chips=2, seed=0, compute_dtype="float32"):
    return init_params(ModelConfig.tiny(num_chips=num_chips, compute_dtype=compute_dtype), np.random.default_rng(seed))


def embeddings(g, params):
    """Per-node embeddings after all aggregation layers, at the first step."""
    feats = GraphFeatures(g, params.config)
    _, cache = forward_policy(params, feats, feats.features(None), need_cache=True)
    return cache.workspace.h[-1]


def distribution(g, params):
    """Row-stochastic chip distribution at the first step."""
    feats = GraphFeatures(g, params.config)
    logits, _ = forward_policy(params, feats, feats.features(None))
    return np.exp(log_softmax(logits))


def test_rows_are_stochastic():
    g = generate_synthetic(GeneratorConfig("layered", 14, seed=3))
    params = tiny_params(num_chips=4, seed=1)
    P = distribution(g, params)
    assert P.shape == (14, 4)
    assert (P >= 0).all()
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-6)


def test_zero_head_weights_give_uniform_rows():
    g = generate_synthetic(GeneratorConfig("chain", 6, seed=1))
    params = tiny_params(num_chips=3, seed=0)
    params.weights["head_W2"][:] = 0.0
    params.weights["head_b2"][:] = 0.0
    P = distribution(g, params)
    np.testing.assert_allclose(P, 1.0 / 3.0)


def test_softmax_shift_invariance():
    logits = np.random.default_rng(0).standard_normal((5, 3))
    shifted = logits + np.array([[10.0], [-3.0], [0.5], [100.0], [0.0]])
    np.testing.assert_allclose(np.exp(log_softmax(logits)), np.exp(log_softmax(shifted)), atol=1e-12)


def test_log_softmax_matches_softmax():
    logits = np.random.default_rng(1).standard_normal((4, 6)) * 30
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    np.testing.assert_allclose(np.exp(log_softmax(logits)), e / e.sum(axis=1, keepdims=True), atol=1e-12)


def test_edgeless_graph_embedding_uses_self_features_only():
    # identical features + empty neighborhoods -> identical embeddings
    g = make_graph(3, [], costs=[2.0, 2.0, 2.0])
    params = tiny_params(num_chips=2, compute_dtype="float64")  # for the 1e-12 tolerance
    h = embeddings(g, params)
    np.testing.assert_allclose(h[0], h[1], atol=1e-12)
    np.testing.assert_allclose(h[0], h[2], atol=1e-12)


def test_isomorphic_nodes_share_embeddings(diamond):
    # nodes 1 and 2 of the diamond have the same features and neighborhoods
    params = tiny_params(num_chips=2, compute_dtype="float64")  # for the 1e-12 tolerance
    h = embeddings(diamond, params)
    np.testing.assert_allclose(h[1], h[2], atol=1e-12)


def test_permutation_equivariance():
    g = generate_synthetic(GeneratorConfig("random-dag", 9, seed=7))
    params = tiny_params(num_chips=3, seed=2, compute_dtype="float64")  # for the 1e-10 tolerance
    P = distribution(g, params)

    perm = np.random.default_rng(3).permutation(9)
    P2 = distribution(relabeled(g, perm), params)
    np.testing.assert_allclose(P2, P[perm], atol=1e-10)


def test_prev_action_changes_features():
    g = generate_synthetic(GeneratorConfig("chain", 5, seed=1))
    cfg = ModelConfig.tiny(num_chips=2)
    feats = GraphFeatures(g, cfg)
    x0 = feats.features(None)
    x1 = feats.features(np.array([1, 0, 1, 0, 1]))
    assert not np.array_equal(x0, x1)
    assert np.array_equal(x0[:, : feats.prev_offset], x1[:, : feats.prev_offset])
    assert x0[:, feats.prev_offset :].sum() == 0
    assert x1[:, feats.prev_offset :].sum() == 5


def test_feature_normalizations_in_unit_interval():
    g = generate_synthetic(GeneratorConfig("cnn-like", 18, seed=5))
    feats = GraphFeatures(g, ModelConfig.tiny(num_chips=3))
    x = feats.features(np.zeros(18, dtype=np.int64))
    assert (x >= 0).all() and (x <= 1).all()


def test_unknown_op_kind_maps_to_extra_bucket():
    g = make_graph(2, [(0, 1)], ops=["matmul", "something-new"])
    cfg = ModelConfig.tiny(num_chips=2)
    feats = GraphFeatures(g, cfg)
    x = feats.features(None)
    unknown_col = len(cfg.op_vocab)
    assert x[1, unknown_col] == 1.0
    assert x[0, unknown_col] == 0.0


def test_sample_rows_follows_distribution():
    P = np.array([[0.9, 0.1], [0.1, 0.9]])
    rng = np.random.default_rng(0)
    draws = np.stack([sample_rows(P, rng) for _ in range(2000)])
    assert draws[:, 0].mean() == pytest.approx(0.1, abs=0.03)
    assert draws[:, 1].mean() == pytest.approx(0.9, abs=0.03)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    params = trained_like(tiny_params(num_chips=3, seed=4), steps=7)
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, params, meta={"note": "x"})
    loaded, meta = load_checkpoint(path)
    assert meta == {"note": "x"}
    assert loaded.config == params.config
    assert loaded.opt_t == 7
    for k, v in params.weights.items():
        assert np.array_equal(loaded.weights[k], v)
        assert np.array_equal(loaded.opt_m[k], params.opt_m[k])
        assert np.array_equal(loaded.opt_v[k], params.opt_v[k])

    g = generate_synthetic(GeneratorConfig("layered", 8, seed=2))
    before = distribution(g, params)
    after = distribution(g, loaded)
    assert np.array_equal(before, after)


def test_checkpoint_bytes_deterministic(tmp_path):
    params = tiny_params(num_chips=2, seed=9)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, params)
    save_checkpoint(b, params)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_without_value_head_from_older_header_loads(tmp_path):
    params = tiny_params(num_chips=3, seed=4)
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, params)
    assert b"use_value_head" not in path.read_bytes()
    with_config_entry(path, "use_value_head", False)
    loaded, _ = load_checkpoint(path)
    assert loaded.config == params.config
    g = generate_synthetic(GeneratorConfig("layered", 8, seed=2))
    assert np.array_equal(distribution(g, loaded), distribution(g, params))


@pytest.mark.parametrize("compute_dtype", ["float32", "float64"])
def test_features_and_passes_run_in_the_compute_dtype(compute_dtype):
    g = generate_synthetic(GeneratorConfig("layered", 10, seed=2))
    params = tiny_params(num_chips=2, compute_dtype=compute_dtype)
    feats = GraphFeatures(g, params.config)
    assert {feats.base.dtype, feats.a_in.dtype, feats.a_out.dtype} == {np.dtype(compute_dtype)}
    logits, cache = forward_policy(params, feats, feats.features(None), need_cache=True)
    assert logits.dtype == cache.workspace.h[-1].dtype == np.dtype(compute_dtype)
    compute = params.for_compute()
    assert compute.for_compute() is compute
    assert all(v.dtype == np.dtype(compute_dtype) for v in compute.weights.values())
    assert all(v.dtype == np.float64 for v in params.weights.values())  # the master weights stay float64
    assert (compute is params) == (compute_dtype == "float64")


def test_unknown_compute_dtype_rejected():
    with pytest.raises(InvalidConfigError):
        ModelConfig.tiny(num_chips=2, compute_dtype="float16")


@pytest.mark.parametrize("compute_dtype", ["float32", "float64"])
def test_checkpoint_keeps_compute_dtype_and_float64_arrays(tmp_path, compute_dtype):
    params = tiny_params(num_chips=3, seed=4, compute_dtype=compute_dtype)
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, params)
    loaded, _ = load_checkpoint(path)
    assert loaded.config.compute_dtype == compute_dtype
    assert all(v.dtype == np.float64 for v in loaded.weights.values())
    data = path.read_bytes()
    hlen = int.from_bytes(data[8:16], "little")
    payload = len(data) - 16 - hlen
    assert payload == 8 * sum(v.size for v in params.weights.values())  # one <f8 per weight
    for k, v in params.weights.items():
        assert np.array_equal(loaded.weights[k], v)


def test_checkpoint_from_header_without_compute_dtype_loads_with_default_and_fine_tunes(tmp_path):
    # a checkpoint written before the config had a compute dtype
    params = tiny_params(num_chips=2, seed=4, compute_dtype="float64")
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, params)
    without_config_entry(path, "compute_dtype")
    assert b"compute_dtype" not in path.read_bytes()
    loaded, _ = load_checkpoint(path)
    assert loaded.config.compute_dtype == ModelConfig.tiny(num_chips=2).compute_dtype == "float32"
    for k, v in params.weights.items():
        assert np.array_equal(loaded.weights[k], v)
    g = generate_synthetic(GeneratorConfig("layered", 10, seed=2))
    tuned, trace = fine_tune(loaded, g, ChipTopology(num_chips=2), make_analytical(),
                             SearchBudget(max_samples=20, seed=0), PpoConfig(num_rollouts=10, num_minibatches=2,
                                                                              num_epochs=1))
    assert trace.num_samples == 20 and all(trace.valid)
    assert tuned.opt_t == 4  # two batches of two minibatches
    assert all(v.dtype == np.float64 for v in tuned.weights.values())
    assert any(not np.array_equal(tuned.weights[k], v) for k, v in loaded.weights.items())


def test_checkpoint_with_unknown_compute_dtype_rejected(tmp_path):
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, tiny_params(num_chips=2))
    with_config_entry(path, "compute_dtype", "float16")
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


@pytest.mark.parametrize("damage", [
    lambda a: a.pop("sage1_b"),
    lambda a: a.update(sage2_W=np.zeros((3, 3))),  # a layer the config lacks
    lambda a: a.update(head_W2=a["head_W2"].T.copy()),
    lambda a: a.pop("adam_m.head_b1"),
    lambda a: a.update({"adam_v.head_b1": np.ones(5)}),
    lambda a: [a.pop(k) for k in list(a) if k.startswith("adam_v.")],
    lambda a: a["sage0_W"].__setitem__((0, 0), np.inf),
    lambda a: a["adam_m.head_b2"].__setitem__(1, np.nan),
], ids=["missing-weight", "extra-weight", "wrong-shape", "missing-moment", "moment-shape", "half-the-moments",
        "inf-weight", "nan-moment"])
def test_checkpoint_arrays_must_fit_the_config_and_be_finite(tmp_path, damage):
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, trained_like(tiny_params(num_chips=3, seed=4), steps=3))
    edit_checkpoint(path, lambda header, arrays: damage(arrays))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_checkpoint_with_and_without_moments_loads(tmp_path):
    path = tmp_path / "p.ckpt"
    for params in (tiny_params(num_chips=3, seed=4), trained_like(tiny_params(num_chips=3, seed=4), steps=3)):
        save_checkpoint(path, params)
        loaded, _ = load_checkpoint(path)
        assert loaded.opt_m.keys() == params.opt_m.keys() and loaded.opt_t == params.opt_t


def test_named_views_share_one_flat_vector_and_copies_share_none():
    params = trained_like(tiny_params(num_chips=3, seed=4))
    copy = params.copy()
    for table, copied in ((params.weights, copy.weights), (params.opt_m, copy.opt_m), (params.opt_v, copy.opt_v)):
        assert list(table) == list(weight_shapes(params.config))
        assert table.flat.size == sum(v.size for v in table.values())
        for name, view in table.items():
            assert np.shares_memory(view, table.flat) and view.base is table.flat
            assert not np.shares_memory(copied[name], table.flat) and np.array_equal(copied[name], view)
    view = params.weights["head_b1"]
    view += 1.0  # an in-place update writes through the view
    assert params.weights["head_b1"] is view
    with pytest.raises(TypeError):
        params.weights["head_b1"] = view + 1.0
    compute = params.for_compute()
    assert compute.weights.flat.dtype == np.float32 and compute.weights.layout is params.weights.layout


def test_checkpoint_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(p)


def test_checkpoint_cut_anywhere_rejected(tmp_path):
    params = tiny_params(num_chips=2, seed=9)
    whole = tmp_path / "whole.ckpt"
    save_checkpoint(whole, params)
    data = whole.read_bytes()
    hlen = int.from_bytes(data[8:16], "little")
    cut = tmp_path / "cut.ckpt"
    # after the magic, inside the length, inside the header, inside the payload
    for end in (8, 12, 16 + hlen // 2, 16 + hlen + 100, len(data) - 1):
        cut.write_bytes(data[:end])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(cut)


def test_feature_dim_mismatch_raises():
    g = generate_synthetic(GeneratorConfig("chain", 4, seed=1))
    params = tiny_params(num_chips=2)
    feats3 = GraphFeatures(g, ModelConfig.tiny(num_chips=3))
    with pytest.raises(DimensionMismatchError):
        forward_policy(params, feats3, feats3.features(None))


@pytest.mark.parametrize("field", ["num_chips", "num_layers", "hidden_dim"])
@pytest.mark.parametrize("value", [0, -1, True, 2.0, "8"])
def test_degenerate_model_config_rejected(field, value):
    kw = {"num_chips": 2, field: value}
    with pytest.raises(InvalidConfigError):
        ModelConfig(**kw)


def test_model_config_accepts_numpy_ints():
    assert ModelConfig(num_chips=np.int64(3), num_layers=np.int32(1)).num_layers == 1


# ---- the passes against the dense reference --------------------------------


@st.composite
def policy_cases(draw):
    """A generated graph with its node ids shuffled within windows of a drawn
    width (1 keeps the generator's topological order, N shuffles every id),
    a chip count, previous actions or none, a logit gradient and a seed.

    Local shuffles keep the blocks engaged with wide, ragged envelopes;
    global ones push most graphs onto the single-GEMM path.
    """
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(64, 120) | st.integers(2, 63))  # most cases span several blocks
    skip = draw(st.sampled_from((0.0, 0.25, 0.9)))
    g = generate_synthetic(GeneratorConfig(family, n, seed=draw(st.integers(0, 999)), skip_prob=skip))
    window = draw(st.sampled_from((1, 4, 16, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perm = np.concatenate([lo + rng.permutation(min(window, n - lo)) for lo in range(0, n, window)])
    chips = draw(st.integers(1, 4))
    prev = rng.integers(0, chips, size=n) if draw(st.booleans()) else None
    return relabeled(g, perm), chips, prev, rng.standard_normal((n, chips)), int(rng.integers(2**32))


def covered(mean):
    """Cells of the operator that its products multiply."""
    a = mean.a
    if mean.blocks is None:
        return np.ones(a.shape, dtype=bool)
    mask = np.zeros(a.shape, dtype=bool)
    rows = []
    for r0, r1, c0, c1, block in mean.blocks:
        rows.append((r0, r1))
        mask[r0:r1, c0:c1] = True
        assert (block is None) == (c0 == c1)
        assert block is None or np.shares_memory(block, a)
    n = a.shape[0]
    assert rows == [(r, min(r + ROW_BLOCK, n)) for r in range(0, n, ROW_BLOCK)]  # every row in one block
    return mask


def check_passes_against_reference(config, case):
    # the blocked, in-place passes against the dense ones they replaced;
    # every buffer starts as NaN, so a product that skips a row shows
    g, _, prev, dlogits, seed = case
    params = init_params(config, np.random.default_rng(seed))
    for v in params.weights.values():
        if v.ndim == 1:
            v += 0.1  # nonzero biases
    compute = params.for_compute()
    feats = GraphFeatures(g, config)
    for mean, a in ((feats.in_mean, feats.a_in), (feats.out_mean, feats.a_out),
                    (feats.in_mean_t, feats.a_in.T), (feats.out_mean_t, feats.a_out.T)):
        assert not a[~covered(mean)].any()  # every nonzero lies inside a block

    ws = Workspace(config, g.num_nodes)
    for buf in (*ws.z, *ws.h, ws.t1, ws.da, ws.dh, ws.dz, ws.dw):
        buf.fill(np.nan)
    x = feats.features(prev)
    logits, cache = forward_policy(compute, feats, x, need_cache=True, ws=ws)
    grads = backward_policy(compute, feats, cache, dlogits, params.weights.zeros_like())
    ref_logits, ref_cache = reference_forward(compute, feats, x)
    ref_grads = params.weights.zeros_like()
    reference_backward(compute, feats, ref_cache, dlogits, ref_grads)

    tol = 1e3 * np.finfo(config.compute_dtype).eps  # relative to each array's largest entry
    assert logits.dtype == np.dtype(config.compute_dtype)
    assert np.abs(logits - ref_logits).max() <= tol * np.abs(ref_logits).max()
    assert grads.keys() == ref_grads.keys()
    for k, ref in ref_grads.items():
        assert np.abs(grads[k] - ref).max() <= tol * np.abs(ref).max(), k


# the tiny profile is cheap, so it takes most examples
@pytest.mark.parametrize("compute_dtype", COMPUTE_DTYPES)
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(case=policy_cases())
def test_tiny_passes_match_dense_reference(compute_dtype, case):
    check_passes_against_reference(ModelConfig.tiny(case[1], compute_dtype=compute_dtype), case)


@pytest.mark.parametrize("compute_dtype", COMPUTE_DTYPES)
@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(case=policy_cases())
def test_default_passes_match_dense_reference(compute_dtype, case):
    check_passes_against_reference(ModelConfig(case[1], compute_dtype=compute_dtype), case)


def test_blocks_engage_on_long_layered_graphs_only():
    cfg = ModelConfig(num_chips=2)
    long = GraphFeatures(generate_synthetic(GeneratorConfig("layered", 200, seed=1)), cfg)
    short = GraphFeatures(generate_synthetic(GeneratorConfig("layered", 24, seed=1)), cfg)
    for mean in (long.in_mean, long.out_mean, long.in_mean_t, long.out_mean_t):
        assert mean.blocks is not None
        assert covered(mean).mean() < 0.2
    for mean in (short.in_mean, short.out_mean, short.in_mean_t, short.out_mean_t):
        assert mean.blocks is None


def test_stale_forward_cache_raises():
    # the cache is a view of the workspace, so a second forward on it makes
    # the first cache stale; backward refuses it instead of reading the
    # second pass's activations
    g = generate_synthetic(GeneratorConfig("layered", 40, seed=1))
    params = tiny_params(num_chips=2)
    feats = GraphFeatures(g, params.config)
    ws = Workspace(params.config, g.num_nodes)
    grads = params.weights.zeros_like()
    dlogits = np.ones((g.num_nodes, 2))
    first_logits, first = forward_policy(params, feats, feats.features(None), need_cache=True, ws=ws)
    kept = first_logits.copy()
    second_logits, second = forward_policy(params, feats, feats.features(np.ones(g.num_nodes, dtype=np.int64)),
                                           need_cache=True, ws=ws)
    assert np.array_equal(first_logits, kept)  # logits are new arrays, not workspace views
    assert not np.array_equal(first_logits, second_logits)
    with pytest.raises(ValueError, match="stale"):
        backward_policy(params, feats, first, dlogits, grads)
    assert not any(v.any() for v in grads.values())
    backward_policy(params, feats, second, dlogits, grads)
    assert any(v.any() for v in grads.values())


def test_workspace_must_fit_the_pass():
    g = generate_synthetic(GeneratorConfig("layered", 10, seed=1))
    params = tiny_params(num_chips=2)
    feats = GraphFeatures(g, params.config)
    with pytest.raises(DimensionMismatchError):
        forward_policy(params, feats, feats.features(None), ws=Workspace(params.config, 11))
    with pytest.raises(DimensionMismatchError):
        forward_policy(params, feats, feats.features(None), ws=Workspace(ModelConfig(num_chips=2), 10))
