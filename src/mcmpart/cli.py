"""Command-line entry point.

Subcommands: gen, partition, eval, search, train, pretrain, validate,
zeroshot, finetune, bench.  Every command that uses randomness takes
``--seed`` and reproduces bytewise-identical artifacts for identical
arguments.  ``--config`` points at a ``key=value`` file whose entries act
as flag defaults (environment variables ``MCMPART_<KEY>`` take precedence
over the file); the parsed config is echoed into output artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import GraphFormatError, InvalidConfigError, McmPartError
from .evaluator import SurrogateConfig, make_analytical, make_surrogate
from .generate import FAMILIES, GeneratorConfig, generate_synthetic
from .graph import ChipTopology, load_graph_file, graph_to_json
from .policy import ModelConfig, load_checkpoint, save_checkpoint
from .search import SaConfig, SearchBudget, greedy_heuristic, random_search, simulated_annealing
from .solver import Partition, check_static, solve_fix, solve_sample, uniform_distribution
from .training import PpoConfig, Task, train_from_scratch
from . import bench as bench_mod
from . import pipeline as pipeline_mod

ENV_PREFIX = "MCMPART_"


def _load_config_file(path) -> dict:
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"config file {path} is not UTF-8 text: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidConfigError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


class Settings:
    """Flag resolution: CLI > environment > config file > default."""

    def __init__(self, args):
        self.config = _load_config_file(args.config) if getattr(args, "config", None) else {}
        self.args = args

    def get(self, name, default, cast=str):
        attr = name.replace("-", "_")
        v = getattr(self.args, attr, None)
        if v is not None:
            return v
        env = os.environ.get(ENV_PREFIX + attr.upper())
        if env is not None:
            return _cast(cast, name, env, f"environment variable {ENV_PREFIX}{attr.upper()}")
        if name in self.config:
            return _cast(cast, name, self.config[name], f"config file {self.args.config}")
        return default

    def provenance(self, command: str, seed) -> dict | None:
        if not self.config:
            return None
        return {"command": command, "seed": seed, "config": dict(sorted(self.config.items()))}


def _cast(cast, name: str, value: str, source: str):
    try:
        return cast(value)
    except ValueError as exc:
        raise InvalidConfigError(f"{name}={value!r} from {source} is not a valid {cast.__name__}") from exc


def _provenance_lines(prov) -> list[str]:
    if not prov:
        return []
    lines = [f"# command={prov['command']}", f"# seed={prov['seed']}"]
    lines += [f"# {k}={v}" for k, v in prov["config"].items()]
    return lines


def _write_json(path, text: str, prov) -> None:
    if prov:
        doc = json.loads(text)
        doc["provenance"] = prov
        text = json.dumps(doc, separators=(",", ":"), sort_keys=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_csv(path, header: str, rows, prov) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in _provenance_lines(prov):
            fh.write(line + "\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return "N.A."
    return str(v)


def _numbers(spec: str, cast, flag: str) -> list:
    """The comma-separated numbers of ``flag``; a malformed or non-finite entry is a config error."""
    try:
        values = [cast(x) for x in spec.split(",")]
    except ValueError as exc:
        raise InvalidConfigError(f"{flag} {spec!r}: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise InvalidConfigError(f"{flag} {spec!r} holds a non-finite number")
    return values


def _topology(settings) -> ChipTopology:
    return ChipTopology(
        num_chips=int(settings.get("chips", 4, int)),
        sram_bytes_per_chip=int(settings.get("sram", 64 * 1024 * 1024, int)),
        link_bandwidth_bytes_per_time=float(settings.get("bandwidth", 1024 * 1024, float)),
    )


def _surrogate_config(settings, noise=0.0, headroom=1.0, failure_rate=0.0, seed=0) -> SurrogateConfig:
    """The surrogate knobs from ``--surrogate-config``, else from the single knobs over the given defaults."""
    cfg_path = settings.get("surrogate-config", None)
    if cfg_path:
        with open(cfg_path, "rb") as fh:
            return SurrogateConfig.from_json(fh.read())
    return SurrogateConfig(
        noise_scale=float(settings.get("noise", noise, float)),
        extra_failure_rate=float(settings.get("failure-rate", failure_rate, float)),
        memory_headroom=float(settings.get("headroom", headroom, float)),
        seed=int(settings.get("surrogate-seed", seed, int)),
    )


def _evaluator(settings, **surrogate_defaults):
    kind = settings.get("evaluator", "analytical")
    include_comm = not bool(int(settings.get("no-comm", 0, int)))
    if kind == "analytical":
        return make_analytical(include_comm=include_comm)
    if kind == "surrogate":
        return make_surrogate(_surrogate_config(settings, **surrogate_defaults), include_comm=include_comm)
    raise InvalidConfigError(f"unknown evaluator {kind!r}")


def _ppo(settings, num_chips) -> tuple[PpoConfig, ModelConfig]:
    profile = settings.get("profile", "tiny")
    if profile == "tiny":
        model = ModelConfig.tiny(num_chips)
    elif profile == "default":
        model = ModelConfig(num_chips=num_chips)
    else:
        raise InvalidConfigError(f"unknown profile {profile!r}")
    ppo = PpoConfig(
        num_rollouts=int(settings.get("rollouts", 20, int)),
        num_minibatches=int(settings.get("minibatches", 4, int)),
        num_epochs=int(settings.get("epochs", 10, int)),
        learning_rate=float(settings.get("lr", 1e-4, float)),
        refinement_steps=int(settings.get("refine-steps", 2, int)),
        entropy_bonus=float(settings.get("entropy-bonus", 0.01, float)),
        solver_mode=settings.get("solver-mode", "fix"),
    )
    return ppo, model


def cmd_gen(args) -> int:
    settings = Settings(args)
    seed = args.seed
    if args.count is None:
        if not args.out:
            raise InvalidConfigError("gen needs --out (or --count for corpus mode)")
        if args.family == "mixed":
            raise InvalidConfigError("--family mixed is only valid in corpus mode")
        cfg = GeneratorConfig(family=args.family, num_nodes=args.nodes, seed=seed)
        g = generate_synthetic(cfg)
        _write_json(args.out, graph_to_json(g), settings.provenance("gen", seed))
        return 0
    # corpus mode: several graphs plus a split manifest
    if not args.out_dir or not args.manifest or not args.splits:
        raise InvalidConfigError("corpus mode needs --out-dir, --manifest and --splits")
    sizes = tuple(_numbers(args.splits, int, "--splits"))
    if len(sizes) != 3 or min(sizes) < 0:
        raise InvalidConfigError("--splits must be train,validation,test sizes")
    if args.nodes < 4:
        raise InvalidConfigError(f"corpus mode draws 4 to --nodes nodes per graph, got --nodes {args.nodes}")
    rng = np.random.default_rng(seed)
    families = FAMILIES if args.family == "mixed" else (args.family,)
    named = []
    for i in range(args.count):
        fam = families[i % len(families)]
        nodes = int(rng.integers(max(4, args.nodes // 2), args.nodes + 1))
        named.append((f"{fam}-{i:03d}", generate_synthetic(GeneratorConfig(fam, nodes, seed=int(rng.integers(1 << 31))))))
    corpus = pipeline_mod.split_corpus(named, sizes, seed)
    pipeline_mod.save_manifest(args.manifest, corpus, args.out_dir)
    return 0


def cmd_partition(args) -> int:
    settings = Settings(args)
    g = load_graph_file(args.graph)
    topo = _topology(settings)
    rng = np.random.default_rng(args.seed)
    if args.mode == "sample":
        part = solve_sample(g, topo, uniform_distribution(g.num_nodes, topo.num_chips), rng)
    else:
        if args.candidate:
            with open(args.candidate, "rb") as fh:
                y = Partition.from_json(fh.read()).assignment
        else:
            y = rng.integers(0, topo.num_chips, size=g.num_nodes)
        part = solve_fix(g, topo, y, rng)
    part.valid = check_static(g, part, topo.num_chips).ok
    _write_json(args.out, part.to_json(), settings.provenance("partition", args.seed))
    return 0


def cmd_eval(args) -> int:
    settings = Settings(args)
    g = load_graph_file(args.graph)
    topo = _topology(settings)
    with open(args.partition, "rb") as fh:
        part = Partition.from_json(fh.read())
    evaluator = _evaluator(settings)
    result = evaluator(g, topo, part)
    text = result.to_json()
    if args.out:
        _write_json(args.out, text, settings.provenance("eval", args.seed))
    else:
        sys.stdout.write(text)
    return 0


def cmd_search(args) -> int:
    settings = Settings(args)
    g = load_graph_file(args.graph)
    topo = _topology(settings)
    evaluator = _evaluator(settings)
    prov = settings.provenance("search", args.seed)
    if args.strategy == "greedy":
        part = greedy_heuristic(g, topo)
        result = evaluator(g, topo, part)
        rows = [(1, result.throughput if result.valid else 0.0, result.throughput if result.valid else 0.0, int(result.valid))]
        _write_csv(args.out, "sample,throughput,best,valid", rows, prov)
        return 0
    budget = SearchBudget(max_samples=args.budget, seed=args.seed)
    if args.strategy == "random":
        trace = random_search(g, topo, evaluator, budget)
    else:
        sa_cfg = SaConfig(
            init_temp=float(settings.get("init-temp", 0.1, float)),
            cooling_rate=float(settings.get("cooling", 0.995, float)),
            mutation_fraction=float(settings.get("mutation-fraction", 0.05, float)),
        )
        trace = simulated_annealing(g, topo, evaluator, budget, sa_cfg)
    _write_csv(args.out, "sample,throughput,best,valid", trace.rows(), prov)
    return 0


def cmd_train(args) -> int:
    settings = Settings(args)
    g = load_graph_file(args.graph)
    topo = _topology(settings)
    evaluator = _evaluator(settings)
    ppo, model = _ppo(settings, topo.num_chips)
    budget = SearchBudget(max_samples=args.samples, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    params, trace = train_from_scratch(g, topo, ppo, budget, evaluator, rng, model_config=model)
    if args.checkpoint_out:
        out_dir = Path(args.checkpoint_out)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(out_dir / f"{args.samples}.ckpt", params, meta={"sample_count": args.samples})
    if args.trace_out:
        _write_csv(args.trace_out, "sample,throughput,best,valid", trace.rows(), settings.provenance("train", args.seed))
    return 0


def cmd_pretrain(args) -> int:
    settings = Settings(args)
    corpus = pipeline_mod.load_manifest(args.corpus)
    topo = _topology(settings)
    evaluator = _evaluator(settings)
    ppo, model = _ppo(settings, topo.num_chips)
    records = pipeline_mod.pretrain(
        corpus, topo, ppo, evaluator,
        total_samples=args.samples,
        checkpoint_every=args.checkpoint_every,
        out_dir=args.checkpoint_out,
        seed=args.seed,
        model_config=model,
    )
    for rec in records:
        sys.stdout.write(f"checkpoint,{rec.sample_count},{rec.path}\n")
    return 0


def _discover_checkpoints(path) -> list[pipeline_mod.CheckpointRecord]:
    path = Path(path)
    records = []
    for p in path.glob("*.ckpt"):
        try:
            records.append(pipeline_mod.CheckpointRecord(sample_count=int(p.stem), path=str(p)))
        except ValueError:
            raise InvalidConfigError(f"checkpoint {p} is not named <sample count>.ckpt") from None
    if not records:
        raise InvalidConfigError(f"no checkpoints found under {path}")
    return sorted(records, key=lambda r: r.sample_count)


def cmd_validate(args) -> int:
    settings = Settings(args)
    corpus = pipeline_mod.load_manifest(args.corpus)
    topo = _topology(settings)
    evaluator = _evaluator(settings)
    ppo, _ = _ppo(settings, topo.num_chips)
    records = _discover_checkpoints(args.checkpoints)
    best = pipeline_mod.validate(
        records, corpus.validation, topo, evaluator,
        finetune_budget=args.finetune_budget,
        zeroshot_samples=args.zeroshot_samples,
        criterion=args.criterion,
        seed=args.seed,
        cfg=ppo,
    )
    if args.out:
        _write_csv(
            args.out,
            "checkpoint,zeroshot_score,finetune_score",
            pipeline_mod.validation_report_rows(records),
            settings.provenance("validate", args.seed),
        )
    sys.stdout.write(f"best_checkpoint,{best.sample_count},{best.path}\n")
    return 0


def cmd_zeroshot(args) -> int:
    settings = Settings(args)
    g = load_graph_file(args.graph)
    topo = _topology(settings)
    evaluator = _evaluator(settings)
    params, _ = load_checkpoint(args.checkpoint)
    ppo, _ = _ppo(settings, topo.num_chips)
    trace = pipeline_mod.zero_shot(params, Task(g, topo, evaluator), samples=args.samples, seed=args.seed, cfg=ppo)
    _write_csv(args.out, "sample,throughput,best,valid", trace.rows(), settings.provenance("zeroshot", args.seed))
    return 0


def cmd_finetune(args) -> int:
    settings = Settings(args)
    g = load_graph_file(args.graph)
    topo = _topology(settings)
    evaluator = _evaluator(settings)
    params, _ = load_checkpoint(args.checkpoint)
    ppo, _ = _ppo(settings, topo.num_chips)
    budget = SearchBudget(max_samples=args.samples, seed=args.seed)
    tuned, trace = pipeline_mod.fine_tune(params, g, topo, evaluator, budget, ppo)
    _write_csv(args.out, "sample,throughput,best,valid", trace.rows(), settings.provenance("finetune", args.seed))
    if args.checkpoint_out:
        save_checkpoint(args.checkpoint_out, tuned, meta={"fine_tuned": True})
    return 0


def _graph_paths(spec: str) -> list[Path]:
    p = Path(spec)
    if p.is_dir():
        return sorted(p.glob("*.json"))
    return [Path(s) for s in spec.split(",")]


# bench's own surrogate defaults: a noisier, tighter stand-in for hardware
BENCH_SURROGATE = {"noise": 0.1, "headroom": 0.85, "failure_rate": 0.0, "seed": 0}
# the input flag each bench command cannot run without
BENCH_INPUT = {"compare": "graphs", "sparsity": "graph", "calibrate": "graph", "s2t": "trace"}


def cmd_bench(args) -> int:
    flag = BENCH_INPUT.get(args.bench_cmd)
    if flag and getattr(args, flag) is None:
        raise InvalidConfigError(f"bench {args.bench_cmd} needs --{flag}")
    settings = Settings(args)
    topo = _topology(settings)
    evaluator = _evaluator(settings, **BENCH_SURROGATE)
    prov = settings.provenance(f"bench-{args.bench_cmd}", args.seed)
    if args.bench_cmd == "compare":
        graphs = [load_graph_file(p) for p in _graph_paths(args.graphs)]
        strategies = args.strategies.split(",")
        checkpoint = None
        if args.checkpoint:
            checkpoint, _ = load_checkpoint(args.checkpoint)
        ppo, model = _ppo(settings, topo.num_chips)
        rows = bench_mod.compare_strategies(
            graphs, topo, strategies, args.budget,
            seeds=list(range(args.seed, args.seed + args.num_seeds)),
            evaluator=evaluator, ppo=ppo, model_config=model,
            checkpoint=checkpoint,
        )
        _write_csv(args.out, "strategy,sample,geomean_improvement,stddev", rows, prov)
        return 0
    if args.bench_cmd == "sparsity":
        g = load_graph_file(args.graph)
        res = bench_mod.sparsity_probe(g, topo, args.samples, np.random.default_rng(args.seed), exhaustive=args.exhaustive)
        rows = [(res.fraction, res.ci_low, res.ci_high, res.num_valid, res.num_samples, int(res.exact))]
        _write_csv(args.out, "fraction,ci_low,ci_high,num_valid,num_samples,exact", rows, prov)
        return 0
    if args.bench_cmd == "calibrate":
        g = load_graph_file(args.graph)
        cfg = _surrogate_config(settings, **BENCH_SURROGATE)
        res = bench_mod.calibration_study(g, topo, args.samples, cfg, np.random.default_rng(args.seed))
        _write_csv(
            args.out,
            "sample,predicted_runtime,measured_runtime,predicted_norm,measured_norm,valid",
            res.rows,
            prov,
        )
        summary = {
            "pearson_r": res.pearson_r,
            "invalid_fraction": res.invalid_fraction,
            "num_joint_valid": res.num_joint_valid,
            "num_samples": res.num_samples,
            "degenerate": res.degenerate,
        }
        sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
        return 0
    if args.bench_cmd == "s2t":
        best = _read_trace_best(args.trace)
        targets = _numbers(args.targets, float, "--targets")
        counts = bench_mod.samples_to_target(best, targets)
        rows = [(t, c) for t, c in zip(targets, counts)]
        _write_csv(args.out, "target,samples", rows, prov)
        return 0
    raise InvalidConfigError(f"unknown bench command {args.bench_cmd!r}")


def _read_trace_best(path) -> list[float]:
    """The ``best`` column of a search trace CSV; any malformed row is a parse error."""
    best = []
    header = None
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = list(fh)
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"trace {path} is not UTF-8 text: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if header is None:
            if "best" not in parts:
                raise GraphFormatError(f"{path}:{lineno}: trace header has no best column")
            header, col = parts, parts.index("best")
            continue
        if len(parts) != len(header):
            raise GraphFormatError(f"{path}:{lineno}: expected {len(header)} fields, got {len(parts)}")
        try:
            value = float(parts[col])
            if not np.isfinite(value):
                raise ValueError
        except ValueError:
            raise GraphFormatError(f"{path}:{lineno}: best value {parts[col]!r} is not a finite number") from None
        best.append(value)
    return best


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mcmpart", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mcmpart {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_default=0):
        p.add_argument("--seed", type=int, default=seed_default)
        p.add_argument("--config", default=None, help="key=value config file echoed into artifacts")
        p.add_argument("--chips", type=int, default=None)
        p.add_argument("--sram", type=int, default=None, help="per-chip SRAM bytes")
        p.add_argument("--bandwidth", type=float, default=None, help="link bandwidth, bytes per time unit")

    def evalopts(p):
        p.add_argument("--evaluator", choices=("analytical", "surrogate"), default=None)
        p.add_argument("--surrogate-config", default=None, help="JSON file with surrogate knobs")
        p.add_argument("--no-comm", type=int, default=None, help="1 disables the cross-chip transfer term")

    p = sub.add_parser("gen", help="generate a synthetic graph (or a corpus with --count)")
    common(p)
    p.add_argument("--family", default="layered", choices=FAMILIES + ("mixed",))
    p.add_argument("--nodes", type=int, default=32)
    p.add_argument("--out", default=None)
    p.add_argument("--count", type=int, default=None, help="corpus mode: number of graphs")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--manifest", default=None)
    p.add_argument("--splits", default=None, help="corpus mode: train,validation,test sizes")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("partition", help="produce a valid partition via the solver")
    common(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--mode", choices=("sample", "fix"), default="sample")
    p.add_argument("--candidate", default=None, help="fix mode: candidate partition JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("eval", help="score a partition")
    common(p)
    evalopts(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("search", help="random / simulated-annealing / greedy search")
    common(p)
    evalopts(p)
    p.add_argument("--strategy", choices=("random", "sa", "greedy"), required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("train", help="train the policy from scratch on one graph")
    common(p)
    evalopts(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--profile", choices=("tiny", "default"), default=None)
    p.add_argument("--checkpoint-out", default=None)
    p.add_argument("--trace-out", default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("pretrain", help="pretrain across a corpus, dropping checkpoints")
    common(p)
    evalopts(p)
    p.add_argument("--corpus", required=True, help="corpus manifest JSON")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--checkpoint-every", type=int, default=100)
    p.add_argument("--checkpoint-out", required=True)
    p.add_argument("--profile", choices=("tiny", "default"), default=None)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("validate", help="score checkpoints on the validation split")
    common(p)
    evalopts(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoints", required=True, help="checkpoint directory")
    p.add_argument("--criterion", choices=("zeroshot", "finetune"), default="finetune")
    p.add_argument("--finetune-budget", type=int, default=100)
    p.add_argument("--zeroshot-samples", type=int, default=50)
    p.add_argument("--profile", choices=("tiny", "default"), default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("zeroshot", help="frozen-policy inference on a new graph")
    common(p)
    evalopts(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_zeroshot)

    p = sub.add_parser("finetune", help="continue training from a checkpoint on a new graph")
    common(p)
    evalopts(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--profile", choices=("tiny", "default"), default=None)
    p.add_argument("--checkpoint-out", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("bench", help="experiment harness emitting CSV")
    common(p)
    evalopts(p)
    p.add_argument("bench_cmd", choices=("compare", "sparsity", "calibrate", "s2t"))
    p.add_argument("--graphs", default=None, help="compare: dir or comma-separated files")
    p.add_argument("--graph", default=None)
    p.add_argument("--strategies", default="random,sa")
    p.add_argument("--budget", type=int, default=500)
    p.add_argument("--num-seeds", type=int, default=5)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--headroom", type=float, default=None)
    p.add_argument("--failure-rate", type=float, default=None)
    p.add_argument("--surrogate-seed", type=int, default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--profile", choices=("tiny", "default"), default=None)
    p.add_argument("--trace", default=None, help="s2t: input trace CSV")
    p.add_argument("--targets", default="1.1,1.2,1.3")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except McmPartError as exc:
        sys.stderr.write(f"error: {exc.code}: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: io-error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
