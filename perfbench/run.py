"""Layered benchmark for mcmpart: end-to-end metrics, or per-layer spans.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload search --seed 1 --seconds 45 --trace 0

``--workload`` is ``search``, ``train`` or ``pipeline`` (see
``workloads.py``).  With ``--trace 0`` the run repeats rounds of fixed work
for about ``--seconds`` seconds (at least the workload's minimum number of
rounds) and reports the end-to-end metrics named in ``BENCHMARK.json``;
only the call that makes one sample, the PPO update and the greedy
baseline are clocked.  With ``--trace 1`` the run makes one warm-up round,
the workload's traced rounds untraced, the same rounds again with every
layer site wrapped, and round 0 a third time; it reports the per-layer
metrics and the tracing overhead (traced minus untraced median round time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
records the environment, the per-round times, the median and tail sample
times, the per-case outcomes and a digest of the fixed-seed outputs.  The
package is imported from ``src/`` of the current directory; without it the
run exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import MeasurementError, self_times
from summary import geomean, median, percentile, tail_percentile

# One BLAS thread (never more than the cores present) keeps timings steady
# on a shared machine; it must be set before numpy is imported.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Solver counters that must repeat exactly under a fixed seed.
SOLVER_COUNTERS = ("solver.set_domain", "solver.backtrack", "solver.attempt")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("search", "train", "pipeline"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "mcmpart" / "__init__.py").is_file():
        sys.stderr.write("error: src/mcmpart not found; run from the root of an mcmpart checkout\n")
        return 2
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import mcmpart

    if not Path(mcmpart.__file__).resolve().is_relative_to(src.resolve()):
        sys.stderr.write(f"error: mcmpart was imported from {mcmpart.__file__}, not from src/\n")
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        setup_s, inputs = workloads.measure_setup(workload, src, work_dir)
        workload.prepare(inputs, work_dir)
        if args.trace:
            detail, result = traced_run(workload, args.seed, spec["per_layer"])
        else:
            detail, result = plain_run(workload, args.seed, args.seconds, setup_s, spec["end_to_end"])
    except MeasurementError as exc:
        sys.stderr.write(f"error: cannot measure: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    detail["env"] = environment(root, src, args)
    bad = [k for k, v in result["metrics"].items() if not math.isfinite(v["value"])]
    if bad:
        sys.stderr.write(f"error: non-finite metrics: {', '.join(bad)}\n")
        return 1
    print(json.dumps(detail, sort_keys=True, allow_nan=False))
    print(json.dumps(result, allow_nan=False))
    return 0


def plain_run(workload, seed, seconds, setup_s, declared):
    from workloads import measure_round

    outs = []
    start = time.perf_counter()
    while True:
        outs.append(measure_round(workload, len(outs), seed, traced=False))
        elapsed = time.perf_counter() - start
        if len(outs) >= workload.min_rounds and elapsed + median([o.wall for o in outs]) > seconds:
            break
    groups = {}
    for o in outs:
        for key, xs in o.samples.items():
            groups.setdefault(key, []).extend(xs)
    samples = [x for xs in groups.values() for x in xs]
    if not samples:
        raise MeasurementError(f"{workload.name}: no sample finished")
    guaranteed = sum(len(xs) for o in outs[: workload.min_rounds] for xs in o.samples.values())
    tail_q = tail_percentile(guaranteed)
    attempted = sum(o.attempted for o in outs)
    failed = sum(o.failed for o in outs)
    metrics = {
        "setup_s": setup_s,
        "wall_s": median([o.wall for o in outs]),
        "samples_per_s": median([sum(map(len, o.samples.values())) / o.wall for o in outs]),
        "success_frac": 1.0 - failed / attempted,
        "best_vs_greedy": workload.best_vs_greedy(outs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    updates = [x for o in outs for x in o.updates]
    detail = {
        "workload": workload.name,
        "rounds": len(outs),
        "round_wall_s": [o.wall for o in outs],
        "sample_p50_ms": 1e3 * geomean(median(xs) for xs in groups.values()),
        "sample_tail_ms": 1e3 * percentile(samples, tail_q),
        "tail": {"percentile": tail_q, "samples": len(samples), "guaranteed_samples": guaranteed},
        "sample_p50_ms_by_case": {k: 1e3 * median(xs) for k, xs in sorted(groups.items())},
        "fail_frac": failed / attempted,
        "update_p50_s": median(updates) if updates else None,
        "digest": digest(outs[: workload.min_rounds]),
        "cases": case_summary(outs),
        "problems": problems(outs),
    }
    return detail, result_line(outs, metrics, declared)


def traced_run(workload, seed, declared):
    from workloads import measure_round

    k_rounds = workload.traced_rounds
    warm = measure_round(workload, 0, seed, traced=False)  # so neither pass pays first-call costs
    plain = [measure_round(workload, k, seed, traced=False) for k in range(k_rounds)]
    traced = [measure_round(workload, k, seed, traced=True) for k in range(k_rounds)]
    again = measure_round(workload, 0, seed, traced=True)
    for k in range(k_rounds):
        if plain[k].digest != traced[k].digest:
            raise MeasurementError(f"round {k}: traced outputs differ from untraced ones")
    if again.digest != traced[0].digest:
        raise MeasurementError("round 0: two traced runs gave different outputs")
    check_solver_counts(traced[0], again)
    stats = span_stats(traced)
    for layer in workload.required_layers:
        if not stats.calls.get(layer):
            raise MeasurementError(f"{workload.name}: layer {layer} recorded no calls")
    metrics = layer_metrics(workload, traced, stats)
    overhead = median([o.wall for o in traced]) - median([o.wall for o in plain])
    metrics["trace.overhead_s"] = overhead
    detail = {
        "workload": workload.name,
        "rounds": k_rounds,
        "self_s": {name: stats.self_s[name] for name in sorted(stats.self_s)},
        "update_p50_s": median(stats.durations["training.ppo_update"]) if "training.ppo_update" in stats.durations else None,
        "untraced_wall_s": [o.wall for o in plain],
        "traced_wall_s": [o.wall for o in traced],
        "overhead_frac": overhead / median([o.wall for o in plain]),
        "digest": digest(traced),
        "cases": case_summary(traced),
        "problems": problems([warm, *plain, *traced, again]),
    }
    return detail, result_line([warm, *plain, *traced, again], metrics, declared, counted=traced)


def _counter_slices(out):
    """Solver counters per case (search) or for the whole round."""
    spans = out.tracer.spans
    if out.cases:
        slices = [(c["case"], c["outcome"], *c["spans"]) for c in out.cases]
    else:
        slices = [("round", "ok", 0, len(spans))]
    table = {}
    for name, outcome, lo, hi in slices:
        if outcome != "ok":
            continue
        counts = dict.fromkeys(SOLVER_COUNTERS, 0)
        for s in spans[lo:hi]:
            if s.name in counts:
                counts[s.name] += 1
        table[name] = counts
    return table


def check_solver_counts(first, second):
    a, b = _counter_slices(first), _counter_slices(second)
    for case in sorted(a.keys() & b.keys()):
        if a[case] != b[case]:
            raise MeasurementError(f"{case}: solver counts differ between traced runs: {a[case]} vs {b[case]}")


@dataclass
class SpanStats:
    """Per span name: calls, self and inclusive seconds, durations; plus counters."""

    wall: float = 0.0  # seconds the counted work took
    calls: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    incl: dict = field(default_factory=dict)
    durations: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


def span_stats(outs) -> SpanStats:
    """Stats over the traced rounds, leaving out cases cut off by their cap.

    A capped case stops at a wall-clock time, so its partial work differs
    from run to run; everything else here repeats exactly under a seed.
    """
    st = SpanStats()
    for out in outs:
        spans = out.tracer.spans
        cut = [c["spans"] for c in out.cases if c["outcome"] == "timeout"]
        st.wall += out.wall - sum(c["seconds"] for c in out.cases if c["outcome"] == "timeout")
        for i, (span, own) in enumerate(zip(spans, self_times(spans))):
            if any(lo <= i < hi for lo, hi in cut):
                continue
            dur = span.end - span.start
            st.calls[span.name] = st.calls.get(span.name, 0) + 1
            st.self_s[span.name] = st.self_s.get(span.name, 0.0) + own
            st.incl[span.name] = st.incl.get(span.name, 0.0) + dur
            st.durations.setdefault(span.name, []).append(dur)
        for key, value in out.tracer.counts.items():
            st.counts[key] = st.counts.get(key, 0) + value
    return st


def layer_metrics(workload, outs, st: SpanStats):
    """Per-layer metrics over the traced rounds.

    Times are shares of the counted wall time, so a layer a workload never
    calls reads 0 as a ratio rather than as a constant time.
    """
    counts = st.counts

    def n(name):
        return st.calls.get(name, 0)

    def share(*names, of=st.self_s):
        return sum(of.get(x, 0.0) for x in names) / st.wall

    def p50_us(name):
        d = st.durations.get(name)
        return 1e6 * median(d) if d else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    rollouts = [ro for o in outs for _, _, ro in o.tracer.results.get("rollouts", ())]
    solves = n("solver.solve_sample") + n("solver.solve_fix")
    return {
        "kernels.propagate.calls": n("kernels.propagate"),
        "kernels.propagate.self_share": share("kernels.propagate"),
        "kernels.propagate.p50_us": p50_us("kernels.propagate"),
        "kernels.check_static.calls": n("kernels.check_static"),
        "kernels.check_static.self_share": share("kernels.check_static"),
        "kernels.check_static.p50_us": p50_us("kernels.check_static"),
        "kernels.chip_latency.p50_us": p50_us("kernels.chip_latency"),
        "kernels.chip_memory.p50_us": p50_us("kernels.chip_memory"),
        "kernels.chip_sums.self_share": share("kernels.chip_latency", "kernels.chip_memory"),
        "solver.decisions": n("solver.set_domain"),
        "solver.backtracks": n("solver.backtrack"),
        "solver.restarts": max(0, n("solver.attempt") - solves),
        "solver.budget_errors": counts.get("solver.budget_errors", 0),
        "solver.useful_decision_ratio": ratio(counts.get("solver.partition_nodes", 0), n("solver.set_domain")),
        "solver.checks_per_partition": ratio(n("kernels.check_static"), n("evaluator")),
        "solver.solve_sample.calls": n("solver.solve_sample"),
        "solver.solve_sample.self_share": share("solver.solve_sample"),
        "solver.solve_fix.calls": n("solver.solve_fix"),
        "solver.solve_fix.self_share": share("solver.solve_fix"),
        "evaluator.calls": n("evaluator"),
        "evaluator.self_share": share("evaluator"),
        "evaluator.invalid_frac": ratio(counts.get("evaluator.invalid", 0), n("evaluator")),
        "search.greedy.calls": n("search.greedy"),
        "search.greedy.self_share": share("search.greedy"),
        "search.greedy.calls_per_graph": ratio(n("search.greedy"), sum(o.graphs for o in outs)),
        "policy.features.self_share": share("policy.features"),
        "policy.forward.calls": n("policy.forward"),
        "policy.forward.self_share": share("policy.forward"),
        "policy.backward.calls": n("policy.backward"),
        "policy.backward.self_share": share("policy.backward"),
        "training.rollout.calls": n("training.rollout"),
        "training.rollout.self_share": share("training.rollout"),
        "training.ppo_update.calls": n("training.ppo_update"),
        "training.ppo_update.self_share": share("training.ppo_update"),
        "training.adam.self_share": share("training.adam"),
        "training.infeasible_frac": ratio(sum(1 for ro in rollouts if ro.infeasible), len(rollouts)),
        "pipeline.pretrain.share": share("pipeline.pretrain", of=st.incl),
        "pipeline.validate.share": share("pipeline.validate", of=st.incl),
        "pipeline.fine_tune.share": share("pipeline.fine_tune", of=st.incl),
        "pipeline.checkpoint_io.share": share("pipeline.checkpoint_io", of=st.incl),
        "pipeline.skipped_graphs": sum(o.skipped for o in outs),
        "trace.spans": sum(st.calls.values()),
    }


def result_line(outs, values, declared, counted=None):
    """The contract's last line: every declared metric, nothing else.

    ``correct`` covers every round in ``outs``; attempts are counted over
    ``counted`` (default: the same rounds).
    """
    counted = outs if counted is None else counted
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        raise MeasurementError(
            f"measured metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(values))}, "
            f"undeclared {sorted(set(values) - set(units))}"
        )
    return {
        "correct": not problems(outs),
        "attempted": sum(o.attempted for o in counted),
        "failed": sum(o.failed for o in counted),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }


def problems(outs):
    return [p for o in outs for p in o.problems]


def digest(outs) -> str:
    h = hashlib.sha256()
    for out in outs:
        h.update(out.digest)
    return h.hexdigest()


def case_summary(outs):
    """Per search case: how each round ended and its median time."""
    table = {}
    for out in outs:
        for case in out.cases:
            row = table.setdefault(case["case"], {"ok": 0, "timeout": 0, "error": 0, "seconds": []})
            kind = case["outcome"].split(":")[0]
            row[kind] += 1
            row["seconds"].append(case["seconds"])
    for row in table.values():
        row["median_s"] = median(row.pop("seconds"))
    return table


def environment(root: Path, src: Path, args) -> dict:
    import numpy as np

    h = hashlib.sha256()
    for path in sorted((src / "mcmpart").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_sha": git_sha(root),
        "src_sha256": h.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_sha(root: Path):
    """HEAD's commit id read from ``.git``, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


if __name__ == "__main__":
    sys.exit(main())
