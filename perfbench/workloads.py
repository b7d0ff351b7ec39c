"""The benchmark's three workloads and the layer sites its traced run wraps.

Every workload splits into a set-up (inputs only) and rounds of fixed work.
Round ``k`` of a run with workload seed ``s`` draws all of its randomness
from ``(s, k)``, so the same seed gives the same inputs and outputs.

* ``search``: one ``random_search`` sample plus the ``greedy_heuristic``
  baseline per case of a fixed mixed-family suite, each case under a wall
  cap.  The solver in sample mode and ``kernels.propagate`` do nearly all
  the work and the policy none, so solver speed-ups show here and policy
  changes must not move anything.  One sample per case and round keeps the
  round median clear of the solver's heavy tail.
* ``train``: ``train_from_scratch`` with the ``default`` profile and the
  default ``PpoConfig`` on layered-200 with 2 chips.  The only workload
  where the policy dominates; it reaches the solver through ``solve_fix``.
* ``pipeline``: ``pretrain`` -> ``validate`` -> ``fine_tune`` on a small
  fixed mixed-family corpus written by ``mcmpart gen --count``.  Exercises
  checkpoint I/O, per-checkpoint x per-graph validation, repeated greedy
  baselines and fix-mode repair over many small graphs.  It is not listed
  in ``BENCHMARK.json``: fix-mode repair thrashes on the corpus's
  random-dag graphs, so one pass takes 4 to 17 s depending on the seed
  (2 cores, numpy 2.4, no numba), too unsteady to gate a change on.  Run it
  by name for its per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from mcmpart import cli, pipeline, search, training
from mcmpart import evaluator as evaluator_mod
from mcmpart import solver as solver_mod
from mcmpart.errors import InfeasibleError, StepBudgetError
from mcmpart.generate import GeneratorConfig, generate_synthetic
from mcmpart.graph import ChipTopology
from mcmpart.policy import ModelConfig
from mcmpart.search import SearchBudget
from mcmpart.training import PpoConfig

from caps import run_capped
from spans import MeasurementError, Site, Tracer
from summary import geomean

# The oracle and the reference scorer, captured before any site is wrapped.
CHECK_STATIC = solver_mod.check_static
ANALYTICAL_EVAL = evaluator_mod.analytical_eval

SETUP_REPS = 3


def derive(*parts) -> int:
    """A 32-bit seed drawn from the tuple ``parts`` (stable across runs)."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


# --- hooks: counters kept where the work happens -------------------------

def _keep_partition(tracer, part, args):
    tracer.keep("partitions", (args[0], args[1], part))


def _keep_solved(tracer, part, args):
    _keep_partition(tracer, part, args)
    tracer.count("solver.partition_nodes", len(part))


def _solver_error(tracer, exc):
    if isinstance(exc, StepBudgetError):
        tracer.count("solver.budget_errors")
    elif isinstance(exc, InfeasibleError):
        tracer.count("solver.infeasible_errors")


def _keep_rollout(tracer, ro, args):
    tracer.keep("rollouts", (args[0], args[1], ro))


def _eval_result(tracer, result, args):
    if not result.valid:
        tracer.count("evaluator.invalid")


def _solve(module, attr):
    return Site(module, attr, f"solver.{attr}", on_result=_keep_solved, on_error=_solver_error)


# Every import site the traced run wraps.  A site names the module whose
# global the caller resolves at call time, so ``mcmpart.search.solve_sample``
# catches random_search's calls and ``mcmpart.training.solve_fix`` the
# rollouts' repairs.
LAYER_SITES = (
    Site("mcmpart.solver", "propagate", "kernels.propagate"),
    Site("mcmpart.solver", "check_static_kernel", "kernels.check_static"),
    Site("mcmpart.evaluator", "chip_latency", "kernels.chip_latency"),
    Site("mcmpart.evaluator", "chip_memory", "kernels.chip_memory"),
    Site("mcmpart.solver", "ConstraintSolver.__init__", "solver.attempt"),
    Site("mcmpart.solver", "ConstraintSolver.set_domain", "solver.set_domain"),
    Site("mcmpart.solver", "ConstraintSolver._backtrack", "solver.backtrack"),
    _solve("mcmpart.search", "solve_sample"),
    _solve("mcmpart.training", "solve_sample"),
    _solve("mcmpart.search", "solve_fix"),
    _solve("mcmpart.training", "solve_fix"),
    Site("mcmpart.evaluator", "analytical_eval", "evaluator", on_result=_eval_result),
    Site("mcmpart.search", "analytical_eval", "evaluator", on_result=_eval_result),
    Site("mcmpart.search", "greedy_heuristic", "search.greedy", on_result=_keep_partition),
    Site("mcmpart.search", "random_search", "search.random_search"),
    Site("mcmpart.policy", "GraphFeatures.__init__", "policy.features"),
    Site("mcmpart.policy", "GraphFeatures.features", "policy.features"),
    Site("mcmpart.training", "forward_policy", "policy.forward"),
    Site("mcmpart.training", "backward_policy", "policy.backward"),
    Site("mcmpart.training", "rollout", "training.rollout", on_result=_keep_rollout),
    Site("mcmpart.pipeline", "rollout", "training.rollout", on_result=_keep_rollout),
    Site("mcmpart.training", "ppo_update", "training.ppo_update"),
    Site("mcmpart.pipeline", "ppo_update", "training.ppo_update"),
    Site("mcmpart.training", "adam_step", "training.adam"),
    Site("mcmpart.pipeline", "pretrain", "pipeline.pretrain"),
    Site("mcmpart.pipeline", "validate", "pipeline.validate"),
    Site("mcmpart.pipeline", "fine_tune", "pipeline.fine_tune"),
    Site("mcmpart.pipeline", "save_checkpoint", "pipeline.checkpoint_io"),
    Site("mcmpart.pipeline", "load_checkpoint", "pipeline.checkpoint_io"),
)


@dataclass
class RoundOutput:
    """What one round produced, besides its spans."""

    attempted: int = 0
    failed: int = 0
    ratios: dict = field(default_factory=dict)  # key -> best / greedy throughput
    digest: bytes = b""
    cases: list = field(default_factory=list)  # per-case outcome (search)
    graphs: int = 0  # graphs whose work the per-layer counters include
    traces: list = field(default_factory=list)  # (graph, topo, SearchTrace, label) to re-score
    skipped: int = 0  # graphs the pipeline skipped
    problems: list = field(default_factory=list)
    # filled in by measure_round
    wall: float = 0.0
    samples: dict = field(default_factory=dict)  # group -> seconds per sample
    updates: list = field(default_factory=list)  # seconds per PPO update
    tracer: Optional[Tracer] = None  # kept for traced rounds only


class Workload:
    name = ""
    sample_name = ""  # span that is one sample
    update_name = "training.ppo_update"
    min_rounds = 1  # every run makes these; fixed-seed outputs are compared over them
    traced_rounds = 1  # rounds the traced run repeats with every site wrapped
    required_layers: tuple = ()

    def sites(self, traced: bool):
        """Sites to wrap: all layers when traced, else only the sample clock."""
        chosen = LAYER_SITES if traced else [s for s in LAYER_SITES if s.name in self.clock_names()]
        return [dataclasses.replace(s, sample=s.name == self.sample_name) for s in chosen]

    def clock_names(self):
        # greedy is clocked too so that its partitions are checked
        return {self.sample_name, self.update_name, "search.greedy"}

    def sample_key(self, out: RoundOutput, span_index: int):
        """Group a sample belongs to for the per-sample metrics, or None."""
        return "all"

    def build_inputs(self, work_dir: Path):
        raise NotImplementedError

    def prepare(self, inputs, work_dir: Path) -> None:
        """Keep the inputs and compute reference values outside any timing."""
        self.inputs = inputs
        self.work_dir = work_dir

    def run_round(self, k: int, seed: int, tracer) -> RoundOutput:
        raise NotImplementedError

    def best_vs_greedy(self, outputs) -> float:
        """Geometric mean of best/greedy over the rounds every run makes."""
        ratios = [v for out in outputs[: self.min_rounds] for v in out.ratios.values()]
        if not ratios:
            raise MeasurementError(f"{self.name}: no finished run to score against greedy")
        return geomean(ratios)


def measure_setup(workload: Workload, src_dir: Path, work_dir: Path):
    """Median over repetitions of import time (fresh interpreter) + input build.

    Returns ``(setup_s, inputs)`` with the inputs of the last repetition.
    """
    code = (
        "import time; t = time.perf_counter(); import mcmpart, mcmpart.cli; "
        "print(repr(time.perf_counter() - t))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir)
    totals = []
    inputs = None
    for rep in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        import_s = float(proc.stdout.strip().splitlines()[-1])
        rep_dir = work_dir / f"setup-{rep}"
        rep_dir.mkdir()
        start = time.perf_counter()
        inputs = workload.build_inputs(rep_dir)
        totals.append(import_s + time.perf_counter() - start)
    totals.sort()
    return totals[len(totals) // 2], inputs


def measure_round(workload: Workload, k: int, seed: int, traced: bool) -> RoundOutput:
    """Run round ``k`` with the workload's sites wrapped, then check its outputs."""
    tracer = Tracer()
    tracer.install(workload.sites(traced))
    try:
        start = time.perf_counter()
        out = workload.run_round(k, seed, tracer)
        out.wall = time.perf_counter() - start
    finally:
        tracer.restore()
    out.problems += check_outputs(tracer, out)
    out.traces = []
    for i, span in enumerate(tracer.spans):
        if span.name == workload.sample_name and span.ok:
            key = workload.sample_key(out, i)
            if key is not None:
                out.samples.setdefault(key, []).append(span.end - span.start)
    out.updates = [s.end - s.start for s in tracer.spans if s.name == workload.update_name and s.ok]
    if traced:
        out.tracer = tracer
    return out


def check_outputs(tracer, out: RoundOutput) -> list[str]:
    """Re-check every partition the round returned with the static oracle,
    and re-score each trace's best partition with the reference scorer.

    Runs after the sites are restored, so none of it is traced or timed.
    """
    problems = []
    for g, topo, trace, label in out.traces:
        if trace.best_partition is None:
            continue
        again = ANALYTICAL_EVAL(g, topo, trace.best_partition).throughput
        if not math.isclose(again, trace.best_throughput, rel_tol=1e-9):
            problems.append(f"{label}: best throughput {trace.best_throughput!r} re-scores as {again!r}")
    kept = {id(part): (g, topo, part) for g, topo, part in tracer.results.get("partitions", ())}
    for g, topo, ro in tracer.results.get("rollouts", ()):
        if ro.partition is not None:
            kept[id(ro.partition)] = (g, topo, ro.partition)
    for g, topo, part in kept.values():
        report = CHECK_STATIC(g, part, topo.num_chips)
        if not report.ok:
            problems.append(f"partition fails check_static: {report.violation} {report.witness}")
    return problems


def _assignment_bytes(part) -> bytes:
    return np.asarray(part.assignment, dtype="<i8").tobytes()


def _float_bytes(values) -> bytes:
    return ",".join(repr(float(v)) for v in values).encode()


# --- search ---------------------------------------------------------------

@dataclass(frozen=True)
class Case:
    family: str
    nodes: int
    chips: int
    cap_s: float
    skip_prob: float = 0.25
    expect: str = "finish"  # outcome when the suite was fixed; "timeout" for thrash cases

    @property
    def name(self) -> str:
        tag = f"{self.family}-{self.nodes}/{self.chips}"
        return tag if self.skip_prob == 0.25 else f"{tag}-skip{self.skip_prob}"


GRAPH_SEED = 1
SEARCH_BUDGET = 10  # samples per case in one random search (a block of rounds)
SEARCH_CASES = (
    Case("chain", 60, 8, cap_s=20.0),
    Case("layered", 50, 4, cap_s=20.0),
    Case("cnn-like", 40, 4, cap_s=20.0),
    Case("rnn-like", 30, 4, cap_s=20.0),
    # Thrash cases.  When the suite was fixed, greedy alone took 6 s on
    # cnn-like-26/5 and 22 s on random-dag-40/6, and no layered-200/8
    # sample finished in under 0.4 s, so each cap sits far below the time
    # the case needs and the outcome cannot flip from run to run.  The
    # other caps sit far above the few seconds a light case's worst sample
    # took.
    Case("cnn-like", 26, 5, cap_s=0.1, skip_prob=0.9, expect="timeout"),
    Case("random-dag", 40, 6, cap_s=0.1, expect="timeout"),
    Case("layered", 200, 8, cap_s=0.1, expect="timeout"),
)


class SearchWorkload(Workload):
    name = "search"
    sample_name = "solver.solve_sample"
    min_rounds = 40
    traced_rounds = 20
    required_layers = (
        "kernels.propagate", "kernels.check_static", "kernels.chip_latency", "kernels.chip_memory",
        "solver.set_domain", "solver.attempt", "solver.solve_sample", "evaluator", "search.greedy",
        "search.random_search",
    )

    def build_inputs(self, work_dir):
        out = []
        for case in SEARCH_CASES:
            cfg = GeneratorConfig(case.family, case.nodes, seed=GRAPH_SEED, skip_prob=case.skip_prob)
            out.append((case, generate_synthetic(cfg), ChipTopology(num_chips=case.chips)))
        return out

    def prepare(self, inputs, work_dir):
        super().prepare(inputs, work_dir)
        self.evaluator = evaluator_mod.make_analytical()

    def _case(self, g, topo, seed):
        greedy = search.greedy_heuristic(g, topo)
        g_res = self.evaluator(g, topo, greedy)
        trace = search.random_search(g, topo, self.evaluator, SearchBudget(max_samples=1, seed=seed))
        return greedy, g_res, trace

    def run_round(self, k, seed, tracer):
        out = RoundOutput()
        h = hashlib.sha256()
        for i, (case, g, topo) in enumerate(self.inputs):
            depth = tracer.depth
            first = len(tracer.spans)
            counts = dict(tracer.counts)
            start = time.perf_counter()
            try:
                status, value, _ = run_capped(lambda: self._case(g, topo, derive(seed, k, i)), case.cap_s)
            except (StepBudgetError, InfeasibleError) as exc:
                status, value = f"error:{exc.code}", None
            secs = time.perf_counter() - start
            tracer.unwind(depth)
            if status == "timeout":
                # work cut off by the clock does not repeat; keep it out of the counters
                tracer.counts = counts
            else:
                out.graphs += 1
            out.attempted += 1
            out.cases.append({
                "case": case.name, "expect": case.expect, "outcome": status, "seconds": secs,
                "spans": (first, len(tracer.spans)),
            })
            h.update(f"{case.name}:{status};".encode())
            if status != "ok":
                out.failed += 1
                continue
            greedy, g_res, trace = value
            out.traces.append((g, topo, trace, case.name))
            h.update(_assignment_bytes(greedy) + _float_bytes(trace.throughput))
            if trace.best_partition is not None:
                h.update(_assignment_bytes(trace.best_partition))
            if case.expect == "finish" and g_res.valid and trace.best_throughput > 0:
                out.ratios[case.name] = trace.best_throughput / g_res.throughput
        out.digest = h.digest()
        return out

    def sample_key(self, out, span_index):
        """Samples of the cases expected to finish, grouped by case."""
        for case in out.cases:
            lo, hi = case["spans"]
            if lo <= span_index < hi:
                return case["case"] if case["expect"] == "finish" else None
        return None

    def best_vs_greedy(self, outputs):
        """Best of each block of SEARCH_BUDGET rounds vs greedy, per case.

        One sample per case and round makes each block of rounds one
        random search with a budget of SEARCH_BUDGET samples; the geometric
        mean runs over every (case, block) of the guaranteed rounds.
        """
        best = {}
        for k, out in enumerate(outputs[: self.min_rounds]):
            for name, ratio in out.ratios.items():
                key = (name, k // SEARCH_BUDGET)
                best[key] = max(best.get(key, 0.0), ratio)
        if not best:
            raise MeasurementError("search: no finished case to score against greedy")
        return geomean(best.values())


# --- train ----------------------------------------------------------------

TRAIN_GRAPH = GeneratorConfig("layered", 200, seed=GRAPH_SEED)
TRAIN_CHIPS = 2


class TrainWorkload(Workload):
    name = "train"
    sample_name = "training.rollout"
    min_rounds = 3
    required_layers = (
        "kernels.propagate", "solver.set_domain", "solver.solve_fix", "evaluator", "search.greedy",
        "policy.features", "policy.forward", "policy.backward", "training.rollout",
        "training.ppo_update", "training.adam",
    )

    def build_inputs(self, work_dir):
        return generate_synthetic(TRAIN_GRAPH), ChipTopology(num_chips=TRAIN_CHIPS)

    def prepare(self, inputs, work_dir):
        super().prepare(inputs, work_dir)
        g, topo = inputs
        self.evaluator = evaluator_mod.make_analytical()
        self.cfg = PpoConfig()
        self.greedy_tp = self.evaluator(g, topo, search.greedy_heuristic(g, topo)).throughput

    def run_round(self, k, seed, tracer):
        g, topo = self.inputs
        out = RoundOutput(graphs=1)
        rng = np.random.default_rng(derive(seed, k))
        params, trace = training.train_from_scratch(
            g, topo, self.cfg, SearchBudget(max_samples=self.cfg.num_rollouts), self.evaluator, rng,
            model_config=ModelConfig(num_chips=topo.num_chips),
        )
        rollouts = [ro for _, _, ro in tracer.results.get("rollouts", ())]
        out.attempted = len(rollouts)
        out.failed = sum(1 for ro in rollouts if ro.infeasible)
        out.traces.append((g, topo, trace, "train"))
        if trace.best_throughput > 0:
            out.ratios["train"] = trace.best_throughput / self.greedy_tp
        h = hashlib.sha256(_float_bytes(trace.throughput))
        for name in sorted(params.weights):
            h.update(params.weights[name].tobytes())
        out.digest = h.digest()
        return out


# --- pipeline -------------------------------------------------------------

CORPUS_SEED = 2112  # chosen once, before any timing
CORPUS_ARGS = ("--count", "8", "--family", "mixed", "--nodes", "24", "--splits", "4,2,2")
PIPELINE_CHIPS = 4
PRETRAIN_SAMPLES = 40
CHECKPOINT_EVERY = 20
ZEROSHOT_SAMPLES = 10
FINETUNE_BUDGET = 20


class _SkipCounter(logging.Handler):
    """Counts the pipeline's "skipping graph" warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.skipped = 0

    def emit(self, record):
        if record.getMessage().startswith("skipping graph"):
            self.skipped += 1


class PipelineWorkload(Workload):
    name = "pipeline"
    sample_name = "training.rollout"
    min_rounds = 3
    required_layers = (
        "kernels.propagate", "solver.solve_fix", "evaluator", "search.greedy", "policy.forward",
        "policy.backward", "training.rollout", "training.ppo_update", "pipeline.pretrain",
        "pipeline.validate", "pipeline.fine_tune", "pipeline.checkpoint_io",
    )

    def build_inputs(self, work_dir):
        manifest = work_dir / "manifest.json"
        argv = ["gen", *CORPUS_ARGS, "--seed", str(CORPUS_SEED),
                "--out-dir", str(work_dir / "graphs"), "--manifest", str(manifest)]
        if cli.main(argv) != 0:
            raise MeasurementError("mcmpart gen failed to write the corpus")
        return pipeline.load_manifest(manifest)

    def prepare(self, inputs, work_dir):
        super().prepare(inputs, work_dir)
        self.topo = ChipTopology(num_chips=PIPELINE_CHIPS)
        self.evaluator = evaluator_mod.make_analytical()
        self.cfg = PpoConfig()
        self.greedy_tp = {
            name: self.evaluator(g, self.topo, search.greedy_heuristic(g, self.topo)).throughput
            for name, g in inputs.test
        }
        self.skips = _SkipCounter()
        logging.getLogger("mcmpart.pipeline").addHandler(self.skips)

    def run_round(self, k, seed, tracer):
        corpus, topo = self.inputs, self.topo
        out = RoundOutput(graphs=len(corpus.train) + len(corpus.validation) + len(corpus.test))
        ckpt_dir = Path(tempfile.mkdtemp(dir=self.work_dir))
        self.skips.skipped = 0
        try:
            records = pipeline.pretrain(
                corpus, topo, self.cfg, self.evaluator, PRETRAIN_SAMPLES, CHECKPOINT_EVERY, ckpt_dir,
                seed=derive(seed, k, 0), model_config=ModelConfig.tiny(PIPELINE_CHIPS),
            )
            best = pipeline.validate(
                records, corpus.validation, topo, self.evaluator, finetune_budget=FINETUNE_BUDGET,
                zeroshot_samples=ZEROSHOT_SAMPLES, seed=derive(seed, k, 1), cfg=self.cfg,
            )
            h = hashlib.sha256()
            for rec in records:
                h.update(Path(rec.path).read_bytes())
                h.update(_float_bytes([rec.zeroshot_score, rec.finetune_score]))
            params, _ = pipeline.load_checkpoint(best.path)
            for j, (name, g) in enumerate(corpus.test):
                rng = np.random.default_rng(derive(seed, k, 2, j))
                _, trace = pipeline.fine_tune(
                    params, g, topo, self.evaluator, SearchBudget(max_samples=FINETUNE_BUDGET), self.cfg, rng=rng
                )
                out.traces.append((g, topo, trace, f"fine_tune {name}"))
                h.update(_float_bytes(trace.throughput))
                if trace.best_throughput > 0:
                    out.ratios[name] = trace.best_throughput / self.greedy_tp[name]
        finally:
            shutil.rmtree(ckpt_dir)
        rollouts = [ro for _, _, ro in tracer.results.get("rollouts", ())]
        out.skipped = self.skips.skipped
        out.attempted = len(rollouts) + out.skipped
        out.failed = sum(1 for ro in rollouts if ro.infeasible) + out.skipped
        out.digest = h.digest()
        return out


WORKLOADS = {w.name: w for w in (SearchWorkload, TrainWorkload, PipelineWorkload)}
