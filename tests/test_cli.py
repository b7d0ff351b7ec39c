import json

import numpy as np
import pytest

import mcmpart.training
from mcmpart.cli import main
from mcmpart.policy import CHECKPOINT_MAGIC, ModelConfig, init_params, save_checkpoint
from mcmpart.solver import Partition

from conftest import edit_checkpoint, trained_like, with_config_entry


def run(argv):
    return main([str(a) for a in argv])


def test_gen_partition_eval_smoke(tmp_path):
    g = tmp_path / "g.json"
    p = tmp_path / "p.json"
    assert run(["gen", "--family", "chain", "--nodes", 5, "--seed", 1, "--out", g]) == 0
    assert run(["partition", "--graph", g, "--chips", 2, "--mode", "sample", "--seed", 1, "--out", p]) == 0
    doc = json.loads(p.read_text())
    assert doc["valid"] is True
    assert doc["source"] == "sampled"
    assert len(doc["assignment"]) == 5
    out = tmp_path / "r.json"
    assert run(["eval", "--graph", g, "--partition", p, "--chips", 2, "--out", out]) == 0
    result = json.loads(out.read_text())
    assert result["valid"] is True
    assert result["throughput"] > 0


def test_eval_invalid_partition_is_not_an_error(tmp_path):
    g = tmp_path / "g.json"
    run(["gen", "--family", "chain", "--nodes", 2, "--seed", 1, "--out", g])
    bad = tmp_path / "bad.json"
    bad.write_text(Partition(np.array([1, 0]), source="sampled").to_json())
    out = tmp_path / "r.json"
    assert run(["eval", "--graph", g, "--partition", bad, "--chips", 2, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["valid"] is False
    assert doc["throughput"] == 0.0


@pytest.mark.parametrize("assignment", [[0, 2], [-1, 0], [0]])
def test_eval_bad_assignment_is_a_config_error(tmp_path, capsys, assignment):
    g = tmp_path / "g.json"
    run(["gen", "--family", "chain", "--nodes", 2, "--seed", 1, "--out", g])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"assignment": assignment}))
    for evaluator in ("analytical", "surrogate"):
        code = run(["eval", "--graph", g, "--partition", bad, "--chips", 2, "--evaluator", evaluator])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-config:") and err.count("\n") == 1


def _one_line_error(capsys, code):
    err = capsys.readouterr().err
    assert err.startswith(f"error: {code}:") and err.count("\n") == 1, err


def test_missing_graph_file_is_an_io_error(tmp_path, capsys):
    p = tmp_path / "p.json"
    p.write_text(Partition(np.array([0, 0]), source="sampled").to_json())
    assert run(["eval", "--graph", tmp_path / "missing.json", "--partition", p, "--chips", 2]) == 1
    _one_line_error(capsys, "io-error")


def test_non_json_partition_is_a_parse_error(tmp_path, capsys):
    g = tmp_path / "g.json"
    run(["gen", "--family", "chain", "--nodes", 2, "--seed", 1, "--out", g])
    bad = tmp_path / "bad.json"
    bad.write_text("assignment: [0, 1]\n")
    assert run(["eval", "--graph", g, "--partition", bad, "--chips", 2]) == 1
    _one_line_error(capsys, "parse-error")


def test_truncated_checkpoint_is_a_format_error(tmp_path, capsys):
    g = tmp_path / "g.json"
    run(["gen", "--family", "chain", "--nodes", 4, "--seed", 1, "--out", g])
    ckpt = tmp_path / "cut.ckpt"
    ckpt.write_bytes(CHECKPOINT_MAGIC + b"\x01\x02\x03")
    assert run(["zeroshot", "--graph", g, "--checkpoint", ckpt, "--chips", 2, "--samples", 1,
                "--out", tmp_path / "zs.csv"]) == 1
    _one_line_error(capsys, "checkpoint-format")


def test_value_head_checkpoint_is_a_format_error(tmp_path, capsys):
    g = tmp_path / "g.json"
    run(["gen", "--family", "chain", "--nodes", 4, "--seed", 1, "--out", g])
    ckpt = tmp_path / "value.ckpt"
    save_checkpoint(ckpt, init_params(ModelConfig.tiny(2), np.random.default_rng(0)))
    with_config_entry(ckpt, "use_value_head", True)
    out = tmp_path / "zs.csv"
    assert run(["zeroshot", "--graph", g, "--checkpoint", ckpt, "--chips", 2, "--samples", 1, "--out", out]) == 1
    _one_line_error(capsys, "checkpoint-format")
    assert not out.exists()


def test_layerless_checkpoint_is_a_format_error(tmp_path, capsys):
    # the arrays of a policy with no aggregation layer, under a header that
    # says so: it used to load, and zeroshot then died in the head's first
    # product with a multi-line traceback
    g = tmp_path / "g.json"
    run(["gen", "--family", "chain", "--nodes", 4, "--seed", 1, "--out", g])
    ckpt = tmp_path / "layerless.ckpt"
    save_checkpoint(ckpt, init_params(ModelConfig.tiny(2), np.random.default_rng(0)))

    def layerless(header, arrays):
        header["config"]["num_layers"] = 0
        for name in [k for k in arrays if not k.startswith("head_")]:
            del arrays[name]

    edit_checkpoint(ckpt, layerless)
    out = tmp_path / "zs.csv"
    assert run(["zeroshot", "--graph", g, "--checkpoint", ckpt, "--chips", 2, "--samples", 1, "--out", out]) == 1
    _one_line_error(capsys, "checkpoint-format")
    assert not out.exists()


def _break_head_W2(header, arrays):
    del arrays["head_W2"]


def _cut_head_W1(header, arrays):
    arrays["head_W1"] = arrays["head_W1"][:, :-1]


def _nan_head_b2(header, arrays):
    arrays["head_b2"][0] = np.nan


def _adam_t(value):
    return lambda header, arrays: header.update(adam_t=value)


def _drop_moments(header, arrays):
    for name in [k for k in arrays if k.startswith("adam_")]:
        del arrays[name]


@pytest.mark.parametrize("damage", [
    _break_head_W2, _cut_head_W1, _nan_head_b2,
    # adam_t -1 used to load: finetune divided by a zero bias correction and
    # wrote a checkpoint of NaN weights
    _adam_t(-1), _adam_t(2.7), _adam_t("5"), _adam_t(True), _adam_t(0), _drop_moments,
], ids=["no-head_W2", "short-head_W1", "nan-head_b2", "adam_t-negative", "adam_t-float", "adam_t-string",
        "adam_t-bool", "moments-at-adam_t-0", "adam_t-without-moments"])
def test_checkpoint_that_does_not_fit_its_config_is_a_format_error(tmp_path, capsys, damage):
    # a checkpoint as training leaves it, Adam moments included, with one
    # weight or its optimizer state damaged: neither command may run on it,
    # and finetune writes no checkpoint
    g = tmp_path / "g.json"
    run(["gen", "--family", "chain", "--nodes", 4, "--seed", 1, "--out", g])
    ckpt = tmp_path / "bad.ckpt"
    save_checkpoint(ckpt, trained_like(init_params(ModelConfig.tiny(2), np.random.default_rng(0))))
    edit_checkpoint(ckpt, damage)
    out = tmp_path / "zs.csv"
    assert run(["zeroshot", "--graph", g, "--checkpoint", ckpt, "--chips", 2, "--samples", 1, "--out", out]) == 1
    _one_line_error(capsys, "checkpoint-format")
    assert not out.exists()
    tuned = tmp_path / "tuned.ckpt"
    assert run(["finetune", "--graph", g, "--checkpoint", ckpt, "--chips", 2, "--samples", 2, "--out", out,
                "--checkpoint-out", tuned]) == 1
    _one_line_error(capsys, "checkpoint-format")
    assert not out.exists() and not tuned.exists()


def test_nan_cost_graph_is_a_parse_error(tmp_path, capsys):
    g = tmp_path / "g.json"
    run(["gen", "--family", "chain", "--nodes", 2, "--seed", 1, "--out", g])
    doc = json.loads(g.read_text())
    doc["nodes"][0]["cost"] = float("nan")
    g.write_text(json.dumps(doc))  # json writes the bare NaN token
    p = tmp_path / "p.json"
    p.write_text(Partition(np.array([0, 1]), source="sampled").to_json())
    assert run(["eval", "--graph", g, "--partition", p, "--chips", 2]) == 1
    _one_line_error(capsys, "parse-error")


@pytest.mark.parametrize("assignment", [[0.9, 1.7, 1, 1], [False, True, True, True], [0, "1", 1, 1], [0, 0, 0, 1.0]])
def test_eval_non_integer_chip_id_is_a_parse_error(tmp_path, capsys, assignment):
    g = tmp_path / "g.json"
    run(["gen", "--family", "chain", "--nodes", 4, "--seed", 1, "--out", g])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"assignment": assignment}))
    assert run(["eval", "--graph", g, "--partition", bad, "--chips", 2]) == 1
    _one_line_error(capsys, "parse-error")


@pytest.mark.parametrize("text", ["noise_scale: 0.1\n", "[0.1]", '{"noise_scale": "abc"}', '{"seed": 1.5}'])
def test_malformed_surrogate_config_is_a_parse_error(tmp_path, capsys, text):
    g = tmp_path / "g.json"
    run(["gen", "--family", "chain", "--nodes", 2, "--seed", 1, "--out", g])
    p = tmp_path / "p.json"
    p.write_text(Partition(np.array([0, 1]), source="sampled").to_json())
    cfg = tmp_path / "surrogate.json"
    cfg.write_text(text)
    assert run(["eval", "--graph", g, "--partition", p, "--chips", 2, "--evaluator", "surrogate",
                "--surrogate-config", cfg]) == 1
    _one_line_error(capsys, "parse-error")


@pytest.mark.parametrize("text", ["train: [g0.json]\n", '{"train": [5]}', '{"train": "g0.json"}',
                                  '{"split_seed": "abc"}'])
def test_malformed_corpus_manifest_is_a_parse_error(tmp_path, capsys, text):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(text)
    assert run(["pretrain", "--corpus", manifest, "--chips", 2, "--samples", 10,
                "--checkpoint-out", tmp_path / "ck"]) == 1
    _one_line_error(capsys, "parse-error")


def test_non_utf8_config_file_is_a_parse_error(tmp_path, capsys):
    g = tmp_path / "g.json"
    run(["gen", "--family", "chain", "--nodes", 2, "--seed", 1, "--out", g])
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"chips=\xff\xfe2\n")
    assert run(["partition", "--graph", g, "--config", cfg, "--seed", 1, "--out", tmp_path / "p.json"]) == 1
    _one_line_error(capsys, "parse-error")


@pytest.mark.parametrize("which", ["graph", "partition"])
def test_non_utf8_input_document_is_a_parse_error(tmp_path, capsys, which):
    g = tmp_path / "g.json"
    run(["gen", "--family", "chain", "--nodes", 2, "--seed", 1, "--out", g])
    p = tmp_path / "p.json"
    p.write_text(Partition(np.array([0, 1]), source="sampled").to_json())
    (g if which == "graph" else p).write_bytes(b'{"assignment": [0, 1], "x": "\xff"}')
    assert run(["eval", "--graph", g, "--partition", p, "--chips", 2]) == 1
    _one_line_error(capsys, "parse-error")


@pytest.mark.parametrize("source", ["env", "config"])
def test_bad_setting_cast_is_a_config_error(tmp_path, capsys, monkeypatch, source):
    g = tmp_path / "g.json"
    run(["gen", "--family", "chain", "--nodes", 2, "--seed", 1, "--out", g])
    argv = ["partition", "--graph", g, "--seed", 1, "--out", tmp_path / "p.json"]
    if source == "env":
        monkeypatch.setenv("MCMPART_CHIPS", "abc")
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("chips=abc\n")
        argv += ["--config", cfg]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-config: chips='abc' from ") and err.count("\n") == 1, err
    assert ("MCMPART_CHIPS" in err) if source == "env" else ("run.cfg" in err)


def test_zeroshot_command_honours_solver_mode(tmp_path, monkeypatch):
    g = tmp_path / "g.json"
    run(["gen", "--family", "layered", "--nodes", 8, "--seed", 4, "--out", g])
    ckpt = tmp_path / "init.ckpt"
    save_checkpoint(ckpt, init_params(ModelConfig.tiny(2), np.random.default_rng(0)))

    def no_repair(*args, **kw):
        raise AssertionError("sample mode must not repair candidates")

    monkeypatch.setattr(mcmpart.training, "solve_fix", no_repair)
    monkeypatch.setenv("MCMPART_SOLVER_MODE", "sample")
    assert run(["zeroshot", "--graph", g, "--checkpoint", ckpt, "--chips", 2, "--samples", 4,
                "--seed", 2, "--out", tmp_path / "zs.csv"]) == 0


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["gen", "--unknown-flag", "1"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2


def test_domain_error_exit_1(tmp_path, capsys):
    g = tmp_path / "g.json"
    code = run(["gen", "--family", "chain", "--nodes", 0, "--seed", 1, "--out", g])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-config:")


def test_partition_fix_mode_with_candidate(tmp_path):
    g = tmp_path / "g.json"
    run(["gen", "--family", "layered", "--nodes", 10, "--seed", 2, "--out", g])
    cand = tmp_path / "cand.json"
    cand.write_text(Partition(np.random.default_rng(0).integers(0, 3, 10), source="sampled").to_json())
    p = tmp_path / "p.json"
    assert run(["partition", "--graph", g, "--chips", 3, "--mode", "fix", "--candidate", cand, "--seed", 5, "--out", p]) == 0
    doc = json.loads(p.read_text())
    assert doc["valid"] is True
    assert doc["source"] == "repaired"


def test_search_and_s2t_roundtrip(tmp_path):
    g = tmp_path / "g.json"
    run(["gen", "--family", "layered", "--nodes", 12, "--seed", 3, "--out", g])
    trace = tmp_path / "t.csv"
    assert run(["search", "--strategy", "sa", "--graph", g, "--chips", 3, "--budget", 30, "--seed", 2, "--out", trace]) == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "sample,throughput,best,valid"
    assert len(lines) == 31
    s2t = tmp_path / "s2t.csv"
    assert run(["bench", "s2t", "--trace", trace, "--targets", "0.0001,9.9", "--seed", 0, "--out", s2t]) == 0
    rows = s2t.read_text().splitlines()
    assert rows[0] == "target,samples"
    assert rows[1].split(",") == ["0.0001", "1"]
    assert rows[2].split(",")[1] == "N.A."


@pytest.mark.parametrize("argv", [
    pytest.param(["gen", "--count", 4, "--out-dir", "d", "--manifest", "m.json"], id="gen-no-splits"),
    pytest.param(["gen", "--count", 4, "--out-dir", "d", "--manifest", "m.json", "--splits", "1,1,x"], id="gen-bad-splits"),
    pytest.param(["gen", "--count", 4, "--out-dir", "d", "--manifest", "m.json", "--splits", "1,-1,1"],
                 id="gen-negative-splits"),
    pytest.param(["bench", "compare", "--out", "o.csv"], id="compare-no-graphs"),
    pytest.param(["bench", "sparsity", "--out", "o.csv"], id="sparsity-no-graph"),
    pytest.param(["bench", "calibrate", "--out", "o.csv"], id="calibrate-no-graph"),
    pytest.param(["bench", "s2t", "--out", "o.csv"], id="s2t-no-trace"),
    pytest.param(["bench", "s2t", "--trace", "t.csv", "--targets", "1.1,abc", "--out", "o.csv"], id="s2t-bad-target"),
    pytest.param(["bench", "s2t", "--trace", "t.csv", "--targets", "nan", "--out", "o.csv"], id="s2t-nan-target"),
    pytest.param(["gen", "--count", 2, "--nodes", 2, "--out-dir", "d", "--manifest", "m.json", "--splits", "1,1,0"],
                 id="gen-corpus-too-few-nodes"),
    pytest.param(["pretrain", "--corpus", "corpus.json", "--chips", 2, "--samples", 4, "--checkpoint-every", 0,
                  "--checkpoint-out", "ck"], id="pretrain-zero-checkpoint-every"),
    pytest.param(["pretrain", "--corpus", "corpus.json", "--chips", 2, "--samples", 4, "--checkpoint-every", -1,
                  "--checkpoint-out", "ck"], id="pretrain-negative-checkpoint-every"),
    pytest.param(["pretrain", "--corpus", "corpus.json", "--chips", 2, "--samples", 0, "--checkpoint-every", 2,
                  "--checkpoint-out", "ck"], id="pretrain-zero-samples"),
    pytest.param(["validate", "--corpus", "corpus.json", "--checkpoints", "named", "--chips", 2, "--out", "o.csv"],
                 id="validate-non-integer-checkpoint-name"),
    pytest.param(["train", "--graph", "g.json", "--chips", 2, "--samples", 4, "--config", "lr.cfg",
                  "--checkpoint-out", "ck", "--trace-out", "o.csv"], id="train-nan-learning-rate"),
    pytest.param(["train", "--graph", "g.json", "--chips", 2, "--samples", 4, "--config", "ent.cfg",
                  "--checkpoint-out", "ck", "--trace-out", "o.csv"], id="train-infinite-entropy-bonus"),
    pytest.param(["search", "--strategy", "sa", "--graph", "g.json", "--chips", 2, "--budget", 4, "--config", "temp.cfg",
                  "--out", "o.csv"], id="sa-nan-init-temp"),
    pytest.param(["eval", "--graph", "g.json", "--partition", "p.json", "--chips", 2, "--evaluator", "surrogate",
                  "--surrogate-config", "noise.json", "--out", "o.csv"], id="surrogate-overflowing-noise"),
    pytest.param(["validate", "--corpus", "corpus.json", "--checkpoints", "cks", "--chips", 2, "--zeroshot-samples", 0,
                  "--finetune-budget", 2, "--criterion", "zeroshot", "--out", "o.csv"],
                 id="validate-zero-zeroshot-samples"),
    pytest.param(["zeroshot", "--graph", "g.json", "--checkpoint", "cks/4.ckpt", "--chips", 2, "--samples", 0,
                  "--out", "o.csv"], id="zeroshot-zero-samples"),
])
def test_missing_or_malformed_argument_is_a_config_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.csv").write_text("sample,throughput,best,valid\n1,0.5,0.5,1\n")
    assert run(["gen", "--family", "chain", "--nodes", 4, "--seed", 1, "--out", "g.json"]) == 0
    (tmp_path / "p.json").write_text(Partition(np.array([0, 0, 1, 1]), source="sampled").to_json())
    assert run(["gen", "--nodes", 6, "--count", 2, "--seed", 1, "--out-dir", "graphs", "--manifest", "corpus.json",
                "--splits", "1,1,0"]) == 0
    for name in ("named/best.ckpt", "cks/4.ckpt"):
        (tmp_path / name).parent.mkdir()
        save_checkpoint(tmp_path / name, init_params(ModelConfig.tiny(2), np.random.default_rng(0)))
    for name, text in [("lr.cfg", "lr=nan"), ("ent.cfg", "entropy-bonus=inf"), ("temp.cfg", "init-temp=nan"),
                       ("noise.json", '{"noise_scale": 1000}')]:
        (tmp_path / name).write_text(text + "\n")
    capsys.readouterr()
    assert run(argv) == 1
    _one_line_error(capsys, "invalid-config")
    assert not any((tmp_path / f).exists() for f in ("o.csv", "m.json", "ck"))


@pytest.mark.parametrize("argv", [
    ["eval", "--graph", "g.json", "--partition", "p.json", "--chips", 2, "--out", "o.csv"],
    ["search", "--strategy", "random", "--graph", "g.json", "--chips", 2, "--budget", 4, "--out", "o.csv"],
    ["train", "--graph", "g.json", "--chips", 2, "--samples", 4, "--trace-out", "o.csv"],
], ids=["eval", "search", "train"])
def test_graph_without_positive_cost_is_a_parse_error(tmp_path, capsys, monkeypatch, argv):
    # every chip latency would be 0, so the throughput would be infinite
    monkeypatch.chdir(tmp_path)
    run(["gen", "--family", "chain", "--nodes", 4, "--seed", 1, "--out", "g.json"])
    doc = json.loads((tmp_path / "g.json").read_text())
    for node in doc["nodes"]:
        node["cost"] = 0.0
    (tmp_path / "g.json").write_text(json.dumps(doc))
    (tmp_path / "p.json").write_text(Partition(np.array([0, 0, 1, 1]), source="sampled").to_json())
    assert run(argv) == 1
    _one_line_error(capsys, "parse-error")
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("text", ["sample,throughput,best,valid\n1,abc,x,1\n", "sample,throughput,valid\n1,0.5,1\n",
                                  "sample,throughput,best,valid\n1,0.5,0.5,1\n2,0.5\n"])
def test_malformed_trace_is_a_parse_error(tmp_path, capsys, text):
    trace = tmp_path / "t.csv"
    trace.write_text(text)
    assert run(["bench", "s2t", "--trace", trace, "--targets", "0.1", "--out", tmp_path / "s2t.csv"]) == 1
    _one_line_error(capsys, "parse-error")


def test_greedy_search_strategy(tmp_path):
    g = tmp_path / "g.json"
    run(["gen", "--family", "chain", "--nodes", 8, "--seed", 1, "--out", g])
    trace = tmp_path / "t.csv"
    assert run(["search", "--strategy", "greedy", "--graph", g, "--chips", 2, "--seed", 0, "--out", trace]) == 0
    lines = trace.read_text().splitlines()
    assert len(lines) == 2  # header plus the single heuristic row


def test_train_zeroshot_finetune_flow(tmp_path):
    g = tmp_path / "g.json"
    run(["gen", "--family", "layered", "--nodes", 8, "--seed", 4, "--out", g])
    ck = tmp_path / "ck"
    assert run(["train", "--graph", g, "--chips", 2, "--samples", 40, "--seed", 1,
                "--checkpoint-out", ck, "--trace-out", tmp_path / "train.csv"]) == 0
    ckpt = ck / "40.ckpt"
    assert ckpt.exists()
    assert run(["zeroshot", "--graph", g, "--checkpoint", ckpt, "--chips", 2, "--samples", 10,
                "--seed", 2, "--out", tmp_path / "zs.csv"]) == 0
    assert run(["finetune", "--graph", g, "--checkpoint", ckpt, "--chips", 2, "--samples", 20,
                "--seed", 3, "--out", tmp_path / "ft.csv", "--checkpoint-out", tmp_path / "tuned.ckpt"]) == 0
    assert (tmp_path / "tuned.ckpt").exists()


def test_corpus_pretrain_validate_flow(tmp_path, capsys):
    manifest = tmp_path / "corpus" / "manifest.json"
    assert run(["gen", "--family", "layered", "--nodes", 8, "--count", 5, "--seed", 9,
                "--out-dir", tmp_path / "corpus" / "graphs", "--manifest", manifest, "--splits", "3,1,1"]) == 0
    assert manifest.exists()
    ck = tmp_path / "ck"
    assert run(["pretrain", "--corpus", manifest, "--chips", 2, "--samples", 60,
                "--checkpoint-every", 30, "--checkpoint-out", ck, "--seed", 1]) == 0
    out = capsys.readouterr().out
    assert out.count("checkpoint,") == 2
    report = tmp_path / "report.csv"
    assert run(["validate", "--corpus", manifest, "--checkpoints", ck, "--chips", 2,
                "--finetune-budget", 10, "--zeroshot-samples", 5, "--seed", 0, "--out", report]) == 0
    out = capsys.readouterr().out
    assert out.startswith("best_checkpoint,")
    lines = report.read_text().splitlines()
    assert lines[0] == "checkpoint,zeroshot_score,finetune_score"
    assert len(lines) == 3


def test_pretrain_manifest_with_one_file_stem_twice(tmp_path, capsys):
    # a/x.json and b/x.json both load under the name "x"
    for sub, family, nodes in (("a", "layered", 12), ("b", "chain", 20)):
        (tmp_path / sub).mkdir()
        assert run(["gen", "--family", family, "--nodes", nodes, "--seed", 1, "--out", tmp_path / sub / "x.json"]) == 0
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"split_seed": 0, "train": ["a/x.json", "b/x.json"], "validation": [], "test": []}))
    assert run(["pretrain", "--corpus", manifest, "--chips", 2, "--samples", 40, "--checkpoint-every", 40,
                "--checkpoint-out", tmp_path / "ck", "--seed", 1]) == 0
    assert capsys.readouterr().out.count("checkpoint,") == 1


def test_bench_compare_and_sparsity_and_calibrate(tmp_path, capsys):
    gdir = tmp_path / "graphs"
    gdir.mkdir()
    for i in range(2):
        run(["gen", "--family", "layered", "--nodes", 8, "--seed", i, "--out", gdir / f"g{i}.json"])
    out = tmp_path / "cmp.csv"
    assert run(["bench", "compare", "--graphs", gdir, "--strategies", "random,sa", "--budget", 10,
                "--num-seeds", 2, "--chips", 2, "--seed", 0, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "strategy,sample,geomean_improvement,stddev"
    assert len(lines) == 1 + 2 * 10

    sp = tmp_path / "sp.csv"
    assert run(["bench", "sparsity", "--graph", gdir / "g0.json", "--chips", 2, "--samples", 500,
                "--seed", 1, "--out", sp]) == 0
    assert sp.read_text().splitlines()[0] == "fraction,ci_low,ci_high,num_valid,num_samples,exact"

    cal = tmp_path / "cal.csv"
    assert run(["bench", "calibrate", "--graph", gdir / "g0.json", "--chips", 2, "--samples", 50,
                "--noise", "0.05", "--headroom", "1.0", "--seed", 2, "--out", cal]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["num_samples"] == 50
    assert summary["pearson_r"] is None or summary["pearson_r"] > 0.5


def _calibrate_r(capsys, g, out, *extra):
    assert run(["bench", "calibrate", "--graph", g, "--chips", 3, "--samples", 40, "--seed", 1, "--out", out, *extra]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])["pearson_r"]


def test_bench_calibrate_reads_surrogate_knobs_from_env_and_config(tmp_path, capsys, monkeypatch):
    g = tmp_path / "g.json"
    run(["gen", "--family", "layered", "--nodes", 12, "--seed", 0, "--out", g])
    out = tmp_path / "cal.csv"
    noisy = _calibrate_r(capsys, g, out)  # bench's default noise of 0.1
    assert noisy < 0.999
    assert _calibrate_r(capsys, g, out, "--noise", "0.0") == pytest.approx(1.0)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("noise=0.0\n")
    assert _calibrate_r(capsys, g, out, "--config", cfg) == pytest.approx(1.0)
    monkeypatch.setenv("MCMPART_NOISE", "0.0")
    assert _calibrate_r(capsys, g, out) == pytest.approx(1.0)
    assert _calibrate_r(capsys, g, out, "--noise", "0.1") == noisy  # the flag beats the environment


def test_bench_compare_surrogate_reads_noise_from_env(tmp_path, monkeypatch):
    g = tmp_path / "g.json"
    run(["gen", "--family", "layered", "--nodes", 10, "--seed", 0, "--out", g])

    def compare(name):
        out = tmp_path / name
        assert run(["bench", "compare", "--graphs", g, "--strategies", "random", "--budget", 8, "--num-seeds", 1,
                    "--chips", 3, "--evaluator", "surrogate", "--out", out]) == 0
        return out.read_bytes()

    default = compare("default.csv")
    monkeypatch.setenv("MCMPART_NOISE", "0.1")
    assert compare("same.csv") == default
    monkeypatch.setenv("MCMPART_NOISE", "0.5")
    assert compare("noisy.csv") != default


def test_config_file_and_env_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("chips=3\n# comment line\nsram=999999999\n")
    g = tmp_path / "g.json"
    run(["gen", "--family", "layered", "--nodes", 9, "--seed", 0, "--out", g])
    p = tmp_path / "p.json"
    # config supplies chips=3
    assert run(["partition", "--graph", g, "--config", cfg, "--mode", "sample", "--seed", 1, "--out", p]) == 0
    doc = json.loads(p.read_text())
    assert max(doc["assignment"]) <= 2
    assert doc["provenance"]["config"]["chips"] == "3"
    # env overrides the file
    monkeypatch.setenv("MCMPART_CHIPS", "1")
    assert run(["partition", "--graph", g, "--config", cfg, "--mode", "sample", "--seed", 1, "--out", p]) == 0
    doc = json.loads(p.read_text())
    assert set(doc["assignment"]) == {0}
    # explicit flag beats both
    assert run(["partition", "--graph", g, "--config", cfg, "--chips", 2, "--mode", "sample", "--seed", 1, "--out", p]) == 0
    doc = json.loads(p.read_text())
    assert max(doc["assignment"]) <= 1


def test_artifacts_bytewise_reproducible(tmp_path):
    for d in ("a", "b"):
        base = tmp_path / d
        base.mkdir()
        run(["gen", "--family", "cnn-like", "--nodes", 14, "--seed", 5, "--out", base / "g.json"])
        run(["partition", "--graph", base / "g.json", "--chips", 3, "--mode", "sample", "--seed", 7, "--out", base / "p.json"])
        run(["search", "--strategy", "random", "--graph", base / "g.json", "--chips", 3,
             "--budget", 15, "--seed", 2, "--out", base / "t.csv"])
    for name in ("g.json", "p.json", "t.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
