"""Pretraining workflow: corpus splits, training worker, checkpoint selection.

The training worker iterates the training graphs round-robin (one rollout
batch per visit) and periodically snapshots weights; a validation worker
scores each snapshot on the validation graphs, zero-shot and after a small
fine-tuning budget, and the best snapshot warm-starts deployment on unseen
graphs.  Workers communicate only through checkpoint files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import GraphFormatError, InvalidConfigError
from .evaluator import Evaluator
from .graph import ChipTopology, ComputationGraph, load_graph_file, save_graph
from .policy import GraphFeatures, ModelConfig, PolicyParams, init_params, load_checkpoint, save_checkpoint
from .search import SearchBudget, SearchTrace, _baseline_throughput
# rollout stays a name of this module: the benchmark's traced run wraps mcmpart.pipeline.rollout
from .training import PpoConfig, ppo_update, rollout, rollouts, train  # noqa: F401


@dataclass
class Corpus:
    train: list[tuple[str, ComputationGraph]]
    validation: list[tuple[str, ComputationGraph]]
    test: list[tuple[str, ComputationGraph]]
    split_seed: int = 0


def split_corpus(named_graphs, sizes: tuple[int, int, int], seed: int) -> Corpus:
    """Deterministic, disjoint shuffle-split into train/validation/test."""
    n_train, n_val, n_test = sizes
    if n_train + n_val + n_test > len(named_graphs):
        raise InvalidConfigError(
            f"split sizes {sizes} exceed corpus size {len(named_graphs)}"
        )
    order = np.random.default_rng(seed).permutation(len(named_graphs))
    picks = [named_graphs[i] for i in order]
    return Corpus(
        train=picks[:n_train],
        validation=picks[n_train : n_train + n_val],
        test=picks[n_train + n_val : n_train + n_val + n_test],
        split_seed=seed,
    )


def save_manifest(path, corpus: Corpus, graph_dir) -> None:
    """Write graph files plus a manifest listing files per split.

    Recorded paths are relative to the manifest's own directory so the
    corpus stays relocatable.
    """
    path = Path(path)
    graph_dir = Path(graph_dir)
    graph_dir.mkdir(parents=True, exist_ok=True)
    doc = {"split_seed": corpus.split_seed}
    for split in ("train", "validation", "test"):
        files = []
        for name, g in getattr(corpus, split):
            fpath = graph_dir / f"{name}.json"
            save_graph(g, fpath)
            files.append(os.path.relpath(fpath, start=path.parent))
        doc[split] = files
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_manifest(path) -> Corpus:
    path = Path(path)
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data)
    except ValueError as exc:
        raise GraphFormatError(f"corpus manifest {path} is not JSON: {exc}") from exc
    if not isinstance(doc, dict) or type(doc.get("split_seed", 0)) is not int:
        raise GraphFormatError(f"corpus manifest {path} must be a JSON object with an integer split_seed")
    base = path.parent

    def load_split(names):
        files = doc.get(names, [])
        if not isinstance(files, list) or not all(isinstance(f, str) for f in files):
            raise GraphFormatError(f"corpus manifest {path}: {names!r} must be a list of file names")
        return [(Path(f).stem, load_graph_file(base / f)) for f in files]

    return Corpus(
        train=load_split("train"),
        validation=load_split("validation"),
        test=load_split("test"),
        split_seed=int(doc.get("split_seed", 0)),
    )


@dataclass
class CheckpointRecord:
    sample_count: int
    path: str
    zeroshot_score: Optional[float] = None
    finetune_score: Optional[float] = None


def pretrain(
    corpus: Corpus,
    topo: ChipTopology,
    cfg: PpoConfig,
    evaluator: Evaluator,
    total_samples: int,
    checkpoint_every: int,
    out_dir,
    seed: int = 0,
    model_config: Optional[ModelConfig] = None,
) -> list[CheckpointRecord]:
    """Shared-weights training over the train split, snapshotting regularly.

    Graphs are visited round-robin, one rollout batch (and PPO update) per
    visit; a checkpoint lands every ``checkpoint_every`` consumed samples.
    """
    if not corpus.train:
        raise InvalidConfigError("pretraining needs a nonempty train split")
    if total_samples < 1 or checkpoint_every < 1:
        raise InvalidConfigError(
            f"pretraining needs positive sample and checkpoint counts, got {total_samples} and {checkpoint_every}"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    model_config = model_config or ModelConfig(num_chips=topo.num_chips)
    params = init_params(model_config, rng)

    feats = {}
    baselines = {}
    records = []
    samples = 0
    saved_marks = 0
    gi = 0
    while samples < total_samples:
        name, g = corpus.train[gi % len(corpus.train)]
        gi += 1
        if name not in feats:
            feats[name] = GraphFeatures(g, model_config)
            baselines[name] = _baseline_throughput(g, topo, evaluator)
        batch_size = min(cfg.num_rollouts, total_samples - samples)
        batch = rollouts(g, topo, params, cfg, rng, evaluator, feats[name], baselines[name], batch_size)
        samples += batch_size
        if batch_size == cfg.num_rollouts:
            rewards = [r.reward for r in batch]
            ppo_update(params, batch, cfg, feats[name], float(np.mean(rewards)), rng)
        while (saved_marks + 1) * checkpoint_every <= samples:
            saved_marks += 1
            count = saved_marks * checkpoint_every
            path = out_dir / f"{count}.ckpt"
            save_checkpoint(path, params, meta={"sample_count": count})
            records.append(CheckpointRecord(sample_count=count, path=str(path)))
    return records


def zero_shot(
    params: PolicyParams,
    g: ComputationGraph,
    topo: ChipTopology,
    evaluator: Evaluator,
    samples: int,
    seed: int = 0,
    cfg: Optional[PpoConfig] = None,
) -> SearchTrace:
    """Inference-only rollouts with frozen parameters; no updates.

    ``cfg`` supplies the refinement steps and the solver mode.  An empty
    trace would score 0 whatever the weights, so ``samples`` must be
    positive.
    """
    if samples < 1:
        raise InvalidConfigError(f"zero-shot inference needs at least one sample, got {samples}")
    rng = np.random.default_rng(seed)
    cfg = cfg or PpoConfig()
    feats = GraphFeatures(g, params.config)
    baseline = _baseline_throughput(g, topo, evaluator)
    trace = SearchTrace()
    for ro in rollouts(g, topo, params, cfg, rng, evaluator, feats, baseline, samples):
        trace.record(ro, ro.partition)
    return trace


def fine_tune(
    params: PolicyParams,
    g: ComputationGraph,
    topo: ChipTopology,
    evaluator: Evaluator,
    budget: SearchBudget,
    cfg: PpoConfig,
    rng: Optional[np.random.Generator] = None,
) -> tuple[PolicyParams, SearchTrace]:
    """Continue training from a pretrained snapshot on one target graph."""
    rng = rng if rng is not None else np.random.default_rng(budget.seed)
    warm = params.copy()
    return train(g, topo, cfg, budget, evaluator, rng, params=warm)


def validate(
    records: list[CheckpointRecord],
    validation,
    topo: ChipTopology,
    evaluator: Evaluator,
    finetune_budget: int = 100,
    zeroshot_samples: int = 50,
    criterion: str = "finetune",
    seed: int = 0,
    cfg: Optional[PpoConfig] = None,
) -> CheckpointRecord:
    """Score every checkpoint on the validation split and pick the best.

    Zero-shot score: mean (over graphs) best normalized reward from
    inference-only rollouts.  Fine-tune score: the same after a small
    training budget per graph.  Ties go to the earlier checkpoint.
    """
    if not records or not validation:
        raise InvalidConfigError("validate needs checkpoints and validation graphs")
    if criterion not in ("zeroshot", "finetune"):
        raise InvalidConfigError("criterion must be 'zeroshot' or 'finetune'")
    cfg = cfg or PpoConfig()
    for rec in records:
        params, _ = load_checkpoint(rec.path)
        zs_scores = []
        ft_scores = []
        for k, (name, g) in enumerate(validation):
            base = _baseline_throughput(g, topo, evaluator)
            zs_seed = _mix(seed, rec.sample_count, k, 0)
            tr = zero_shot(params, g, topo, evaluator, zeroshot_samples, seed=zs_seed, cfg=cfg)
            zs_scores.append(tr.best_throughput / base if base > 0 else 0.0)
            rng = np.random.default_rng(_mix(seed, rec.sample_count, k, 1))
            _, ftr = fine_tune(params, g, topo, evaluator, SearchBudget(max_samples=finetune_budget), cfg, rng=rng)
            ft_scores.append(ftr.best_throughput / base if base > 0 else 0.0)
        rec.zeroshot_score = float(np.mean(zs_scores))
        rec.finetune_score = float(np.mean(ft_scores))
    key = (lambda r: r.zeroshot_score) if criterion == "zeroshot" else (lambda r: r.finetune_score)
    best = records[0]
    for rec in records[1:]:
        if key(rec) > key(best):
            best = rec
    return best


def validation_report_rows(records: list[CheckpointRecord]):
    """CSV rows: checkpoint, zeroshot_score, finetune_score."""
    for rec in records:
        yield rec.sample_count, rec.zeroshot_score, rec.finetune_score


def _mix(*parts) -> int:
    acc = 0
    for p in parts:
        acc = (acc * 1000003 + int(p) + 0x9E3779B9) & 0x7FFFFFFF
    return acc
