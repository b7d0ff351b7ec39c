import numpy as np
import pytest

from mcmpart import ChipTopology, GeneratorConfig, generate_synthetic
from mcmpart.errors import CheckpointFormatError, DimensionMismatchError, InvalidConfigError
from mcmpart.evaluator import make_analytical
from mcmpart.pipeline import fine_tune
from mcmpart.policy import (
    GraphFeatures,
    ModelConfig,
    forward_policy,
    init_params,
    load_checkpoint,
    log_softmax,
    sample_rows,
    save_checkpoint,
)
from mcmpart.search import SearchBudget
from mcmpart.training import PpoConfig

from conftest import make_graph, with_config_entry, without_config_entry


def tiny_params(num_chips=2, seed=0, compute_dtype="float32"):
    return init_params(ModelConfig.tiny(num_chips=num_chips, compute_dtype=compute_dtype), np.random.default_rng(seed))


def embeddings(g, params):
    """Per-node embeddings after all aggregation layers, at the first step."""
    feats = GraphFeatures(g, params.config)
    _, cache = forward_policy(params, feats, feats.features(None), need_cache=True)
    return cache[0]


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
    inv = np.empty(9, dtype=np.int64)
    inv[perm] = np.arange(9)
    relabeled = make_graph(
        9,
        [(int(inv[e.src]), int(inv[e.dst])) for e in g.edges],
        costs=[float(g.compute_cost[perm[i]]) for i in range(9)],
        out_bytes=[int(g.output_bytes[perm[i]]) for i in range(9)],
        param_bytes=[int(g.param_bytes[perm[i]]) for i in range(9)],
        ops=[g.nodes[perm[i]].op_kind for i in range(9)],
    )
    P2 = distribution(relabeled, params)
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
    params = tiny_params(num_chips=3, seed=4)
    params.opt_m = {k: np.full_like(v, 0.25) for k, v in params.weights.items()}
    params.opt_v = {k: np.full_like(v, 0.5) for k, v in params.weights.items()}
    params.opt_t = 7
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, params, meta={"note": "x"})
    loaded, meta = load_checkpoint(path)
    assert meta == {"note": "x"}
    assert loaded.config == params.config
    assert loaded.opt_t == 7
    for k, v in params.weights.items():
        assert np.array_equal(loaded.weights[k], v)
        assert np.array_equal(loaded.opt_m[k], params.opt_m[k])

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
    assert logits.dtype == cache[0].dtype == np.dtype(compute_dtype)
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
