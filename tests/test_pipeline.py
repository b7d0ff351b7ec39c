import numpy as np
import pytest

import mcmpart.search
import mcmpart.training
from mcmpart import ChipTopology, GeneratorConfig, analytical_eval, generate_synthetic
from mcmpart.errors import InvalidConfigError
from mcmpart.evaluator import make_analytical
from mcmpart.pipeline import (
    CheckpointRecord,
    Corpus,
    fine_tune,
    load_manifest,
    pretrain,
    save_manifest,
    split_corpus,
    validate,
    zero_shot,
)
from mcmpart.policy import ModelConfig, init_params, load_checkpoint, save_checkpoint
from mcmpart.search import SearchBudget, greedy_heuristic
from mcmpart.training import PpoConfig, Task, train_from_scratch
from mcmpart.graph import graph_to_json


def make_corpus(count=6, seed=0, family="layered", nodes=8):
    graphs = [(f"g{i}", generate_synthetic(GeneratorConfig(family, nodes, seed=seed + i))) for i in range(count)]
    return graphs


def fast_cfg(**kw):
    kw.setdefault("num_rollouts", 10)
    kw.setdefault("num_minibatches", 2)
    kw.setdefault("num_epochs", 2)
    kw.setdefault("learning_rate", 0.01)
    return PpoConfig(**kw)


# ---- corpus ----------------------------------------------------------------


def test_split_deterministic_and_disjoint():
    graphs = make_corpus(10)
    a = split_corpus(graphs, (6, 2, 2), seed=5)
    b = split_corpus(graphs, (6, 2, 2), seed=5)
    names = lambda split: [n for n, _ in split]
    assert names(a.train) == names(b.train)
    assert names(a.validation) == names(b.validation)
    assert names(a.test) == names(b.test)
    all_names = names(a.train) + names(a.validation) + names(a.test)
    assert len(all_names) == len(set(all_names)) == 10
    c = split_corpus(graphs, (6, 2, 2), seed=6)
    assert names(a.train) != names(c.train)  # different seed shuffles differently


def test_split_size_validation():
    with pytest.raises(InvalidConfigError):
        split_corpus(make_corpus(4), (3, 1, 1), seed=0)


def test_manifest_roundtrip(tmp_path):
    corpus = split_corpus(make_corpus(5), (3, 1, 1), seed=2)
    manifest = tmp_path / "corpus.json"
    save_manifest(manifest, corpus, tmp_path / "graphs")
    loaded = load_manifest(manifest)
    assert [n for n, _ in loaded.train] == [n for n, _ in corpus.train]
    for (na, ga), (nb, gb) in zip(loaded.train, corpus.train):
        assert na == nb
        assert graph_to_json(ga) == graph_to_json(gb)
    assert loaded.split_seed == 2


# ---- pretrain --------------------------------------------------------------


def test_pretrain_checkpoint_count_single_graph(tmp_path):
    corpus = Corpus(train=make_corpus(1), validation=[], test=[])
    topo = ChipTopology(num_chips=2)
    recs = pretrain(corpus, topo, fast_cfg(), make_analytical(), total_samples=100,
                    checkpoint_every=50, out_dir=tmp_path, seed=0, model_config=ModelConfig.tiny(2))
    assert [r.sample_count for r in recs] == [50, 100]


def test_pretrain_checkpoint_count_scaled(tmp_path):
    corpus = Corpus(train=make_corpus(10), validation=[], test=[])
    topo = ChipTopology(num_chips=2)
    recs = pretrain(corpus, topo, fast_cfg(), make_analytical(), total_samples=2000,
                    checkpoint_every=100, out_dir=tmp_path, seed=1, model_config=ModelConfig.tiny(2))
    assert len(recs) == 20
    assert [r.sample_count for r in recs] == [100 * k for k in range(1, 21)]


def test_pretrain_deterministic_checkpoint_bytes(tmp_path):
    corpus = Corpus(train=make_corpus(3), validation=[], test=[])
    topo = ChipTopology(num_chips=2)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for d in (a_dir, b_dir):
        pretrain(corpus, topo, fast_cfg(), make_analytical(), total_samples=60,
                 checkpoint_every=30, out_dir=d, seed=7, model_config=ModelConfig.tiny(2))
    assert (a_dir / "30.ckpt").read_bytes() == (b_dir / "30.ckpt").read_bytes()
    assert (a_dir / "60.ckpt").read_bytes() == (b_dir / "60.ckpt").read_bytes()


def test_pretrain_with_duplicate_train_names(tmp_path):
    # entries are tasks of their own, whatever their names
    g1 = generate_synthetic(GeneratorConfig("layered", 12, seed=1))
    g2 = generate_synthetic(GeneratorConfig("chain", 20, seed=1))
    corpus = Corpus(train=[("x", g1), ("x", g2)], validation=[], test=[])
    recs = pretrain(corpus, ChipTopology(num_chips=2), fast_cfg(), make_analytical(), total_samples=40,
                    checkpoint_every=20, out_dir=tmp_path, seed=0, model_config=ModelConfig.tiny(2))
    assert [r.sample_count for r in recs] == [20, 40]


def test_pretrain_on_one_graph_equals_train_from_scratch(tmp_path):
    # one loop: over three updates on one graph, pretrain's final weights
    # are those of train_from_scratch at the same seed
    g = generate_synthetic(GeneratorConfig("layered", 8, seed=4))
    topo = ChipTopology(num_chips=2)
    cfg = fast_cfg()
    total = 3 * cfg.num_rollouts
    recs = pretrain(Corpus(train=[("g", g)], validation=[], test=[]), topo, cfg, make_analytical(),
                    total_samples=total, checkpoint_every=total, out_dir=tmp_path, seed=5,
                    model_config=ModelConfig.tiny(2))
    params, _ = train_from_scratch(g, topo, cfg, SearchBudget(max_samples=total), make_analytical(),
                                   np.random.default_rng(5), model_config=ModelConfig.tiny(2))
    saved, _ = load_checkpoint(recs[-1].path)
    assert saved.weights.flat.tobytes() == params.weights.flat.tobytes()


def test_pretrain_needs_training_graphs(tmp_path):
    with pytest.raises(InvalidConfigError):
        pretrain(Corpus(train=[], validation=[], test=[]), ChipTopology(num_chips=2),
                 fast_cfg(), make_analytical(), 10, 5, tmp_path)


# ---- zero-shot / fine-tune -------------------------------------------------


def test_zero_shot_does_not_mutate_params():
    g = generate_synthetic(GeneratorConfig("layered", 7, seed=3))
    topo = ChipTopology(num_chips=2)
    params = init_params(ModelConfig.tiny(2), np.random.default_rng(0))
    before = params.copy()
    trace = zero_shot(params, Task(g, topo, make_analytical()), samples=25, seed=1)
    for k, v in before.weights.items():
        assert np.array_equal(params.weights[k], v)
    assert trace.num_samples == 25


def _count_solver_calls(monkeypatch):
    calls = {"solve_sample": 0, "solve_fix": 0}
    for name in calls:
        fn = getattr(mcmpart.training, name)

        def wrapped(*args, _name=name, _fn=fn, **kw):
            calls[_name] += 1
            return _fn(*args, **kw)

        monkeypatch.setattr(mcmpart.training, name, wrapped)
    return calls


def test_zero_shot_honours_solver_mode(monkeypatch):
    calls = _count_solver_calls(monkeypatch)
    g = generate_synthetic(GeneratorConfig("layered", 7, seed=3))
    params = init_params(ModelConfig.tiny(2), np.random.default_rng(0))
    trace = zero_shot(params, Task(g, ChipTopology(num_chips=2), make_analytical()), samples=6, seed=1,
                      cfg=PpoConfig(solver_mode="sample"))
    assert trace.num_samples == 6
    assert calls == {"solve_sample": 6, "solve_fix": 0}


def test_validate_scores_zero_shot_with_its_config(monkeypatch, tmp_path):
    calls = _count_solver_calls(monkeypatch)
    p = tmp_path / "10.ckpt"
    save_checkpoint(p, init_params(ModelConfig.tiny(2), np.random.default_rng(0)))
    g = generate_synthetic(GeneratorConfig("chain", 5, seed=1))
    validate([CheckpointRecord(10, str(p))], [("v", g)], ChipTopology(num_chips=2), make_analytical(),
             finetune_budget=10, zeroshot_samples=5, cfg=fast_cfg(solver_mode="sample"))
    assert calls == {"solve_sample": 15, "solve_fix": 0}


def test_zero_shot_without_samples_rejected():
    # an empty trace scores 0 whatever the weights, so validate would pick
    # its first checkpoint blindly
    g = generate_synthetic(GeneratorConfig("chain", 4, seed=1))
    params = init_params(ModelConfig.tiny(2), np.random.default_rng(0))
    for samples in (0, -1):
        with pytest.raises(InvalidConfigError):
            zero_shot(params, Task(g, ChipTopology(num_chips=2), make_analytical()), samples=samples, seed=0)


def test_fine_tune_from_fresh_init_equals_training_from_scratch():
    g = generate_synthetic(GeneratorConfig("layered", 8, seed=4))
    topo = ChipTopology(num_chips=2)
    ev = make_analytical()
    cfg = fast_cfg()

    rng_a = np.random.default_rng(42)
    params_a, trace_a = train_from_scratch(g, topo, cfg, SearchBudget(max_samples=50), ev, rng_a,
                                           model_config=ModelConfig.tiny(2))

    rng_b = np.random.default_rng(42)
    init_b = init_params(ModelConfig.tiny(2), rng_b)  # same draws as scratch init
    params_b, trace_b = fine_tune(init_b, g, topo, ev, SearchBudget(max_samples=50), cfg, rng=rng_b)

    assert trace_a.throughput == trace_b.throughput
    for k in params_a.weights:
        assert np.array_equal(params_a.weights[k], params_b.weights[k])


def test_fine_tune_leaves_checkpoint_params_untouched():
    g = generate_synthetic(GeneratorConfig("layered", 7, seed=5))
    topo = ChipTopology(num_chips=2)
    params = init_params(ModelConfig.tiny(2), np.random.default_rng(3))
    before = params.copy()
    fine_tune(params, g, topo, make_analytical(), SearchBudget(max_samples=30, seed=0), fast_cfg())
    for k, v in before.weights.items():
        assert np.array_equal(params.weights[k], v)


# ---- validate --------------------------------------------------------------


def _validation_fixture(tmp_path):
    """Checkpoint A is trained to the optimum of the validation graph;
    checkpoint B is a random init."""
    ev = make_analytical()
    topo = ChipTopology(num_chips=3)
    gval = generate_synthetic(GeneratorConfig("layered", 6, seed=21))
    cfg = PpoConfig(num_rollouts=10, num_minibatches=2, num_epochs=4, learning_rate=0.05, entropy_bonus=0.001)
    trained, _ = train_from_scratch(gval, topo, cfg, SearchBudget(max_samples=400, seed=1), ev,
                                    np.random.default_rng(1), model_config=ModelConfig.tiny(3))
    fresh = init_params(ModelConfig.tiny(3), np.random.default_rng(99))
    return ev, topo, gval, trained, fresh


def test_validate_prefers_trained_checkpoint(tmp_path):
    ev, topo, gval, trained, fresh = _validation_fixture(tmp_path)
    pa, pb = tmp_path / "100.ckpt", tmp_path / "200.ckpt"
    save_checkpoint(pa, fresh)
    save_checkpoint(pb, trained)
    records = [CheckpointRecord(100, str(pa)), CheckpointRecord(200, str(pb))]
    best = validate(records, [("val", gval)], topo, ev, finetune_budget=30,
                    zeroshot_samples=10, criterion="zeroshot", seed=7, cfg=fast_cfg())
    assert best.sample_count == 200
    assert best.zeroshot_score == max(r.zeroshot_score for r in records)


def test_validate_criterion_switch_changes_selection(tmp_path):
    # zero-shot separates the checkpoints; a generous fine-tuning budget
    # drives both to the exact optimum, so that criterion ties and falls
    # back to the earlier checkpoint
    ev, topo, gval, trained, fresh = _validation_fixture(tmp_path)
    pa, pb = tmp_path / "100.ckpt", tmp_path / "200.ckpt"
    save_checkpoint(pa, fresh)
    save_checkpoint(pb, trained)

    def run(criterion):
        records = [CheckpointRecord(100, str(pa)), CheckpointRecord(200, str(pb))]
        return validate(records, [("val", gval)], topo, ev, finetune_budget=300,
                        zeroshot_samples=10, criterion=criterion, seed=7, cfg=fast_cfg()), records

    best_zs, recs_zs = run("zeroshot")
    best_ft, recs_ft = run("finetune")
    assert best_zs.sample_count == 200  # trained wins zero-shot outright
    assert recs_ft[0].finetune_score == recs_ft[1].finetune_score  # both reach the optimum
    assert best_ft.sample_count == 100  # tie resolved to the earlier checkpoint


def test_validate_runs_greedy_once_per_graph(monkeypatch, tmp_path):
    calls = []
    greedy = mcmpart.search.greedy_heuristic

    def counting(g, topo):
        calls.append(g)
        return greedy(g, topo)

    monkeypatch.setattr(mcmpart.search, "greedy_heuristic", counting)
    records = []
    for seed in (0, 1):
        p = tmp_path / f"{seed + 1}.ckpt"
        save_checkpoint(p, init_params(ModelConfig.tiny(2), np.random.default_rng(seed)))
        records.append(CheckpointRecord(seed + 1, str(p)))
    graphs = [(f"v{i}", generate_synthetic(GeneratorConfig("chain", 5, seed=i))) for i in (1, 2)]
    validate(records, graphs, ChipTopology(num_chips=2), make_analytical(), finetune_budget=10,
             zeroshot_samples=5, cfg=fast_cfg())
    assert len(calls) == 2


def test_validate_single_checkpoint_trivial(tmp_path):
    params = init_params(ModelConfig.tiny(2), np.random.default_rng(0))
    p = tmp_path / "10.ckpt"
    save_checkpoint(p, params)
    g = generate_synthetic(GeneratorConfig("chain", 5, seed=1))
    best = validate([CheckpointRecord(10, str(p))], [("v", g)], ChipTopology(num_chips=2),
                    make_analytical(), finetune_budget=10, zeroshot_samples=5, cfg=fast_cfg())
    assert best.sample_count == 10


def test_validate_requires_inputs():
    with pytest.raises(InvalidConfigError):
        validate([], [], ChipTopology(num_chips=2), make_analytical())
