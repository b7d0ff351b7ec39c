"""Partition scoring: analytical pipelined-throughput model and a surrogate.

The analytical model sums node costs per chip (plus, by default, outbound
cross-chip transfer time) and reports the reciprocal of the worst chip
latency as throughput; memory is the static sum of parameter and output
bytes per chip.  The surrogate layers deterministic multiplicative noise,
a tightened memory headroom, and hash-seeded extra failures on top of the
analytical model to emulate the gap to real hardware.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidConfigError
from .graph import ChipTopology, ComputationGraph
from .kernels import chip_latency, chip_memory
from .solver import check_static, _checked_assignment

Evaluator = Callable[[ComputationGraph, ChipTopology, object], "EvalResult"]


@dataclass
class EvalResult:
    valid: bool
    throughput: float
    per_chip_latency: np.ndarray
    per_chip_memory: np.ndarray
    failure_reason: Optional[str] = None

    @property
    def runtime(self) -> float:
        """Worst per-chip latency; the reciprocal of throughput when valid."""
        return float(self.per_chip_latency.max()) if len(self.per_chip_latency) else 0.0

    def to_json(self) -> str:
        doc = {
            "valid": bool(self.valid),
            "throughput": float(self.throughput),
            "per_chip_latency": [float(x) for x in self.per_chip_latency],
            "per_chip_memory": [int(x) for x in self.per_chip_memory],
            "failure_reason": self.failure_reason,
        }
        return json.dumps(doc, separators=(",", ":")) + "\n"


@dataclass
class SurrogateConfig:
    """Knobs emulating the analytical-model-to-hardware gap."""

    noise_scale: float = 0.0
    extra_failure_rate: float = 0.0
    memory_headroom: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.noise_scale < 0:
            raise InvalidConfigError("noise_scale must be >= 0")
        if not (0.0 <= self.extra_failure_rate < 1.0):
            raise InvalidConfigError("extra_failure_rate must lie in [0, 1)")
        if not (0.0 < self.memory_headroom <= 1.0):
            raise InvalidConfigError("memory_headroom must lie in (0, 1]")

    @classmethod
    def from_json(cls, text: str) -> "SurrogateConfig":
        doc = json.loads(text)
        return cls(**{k: doc[k] for k in ("noise_scale", "extra_failure_rate", "memory_headroom", "seed") if k in doc})


def memory_check(g: ComputationGraph, topo: ChipTopology, p, headroom: float = 1.0):
    """Per-chip resident bytes and whether every chip fits its SRAM budget."""
    assign = _checked_assignment(g, p, topo.num_chips)
    mem = chip_memory(assign, g.param_bytes + g.output_bytes, topo.num_chips)
    budget = topo.sram_bytes_per_chip * headroom
    return bool((mem <= budget).all()), mem


def analytical_eval(g: ComputationGraph, topo: ChipTopology, p, include_comm: bool = True) -> EvalResult:
    """Throughput under the analytical model; invalid partitions score 0."""
    assign = _checked_assignment(g, p, topo.num_chips)
    lat = chip_latency(
        assign, g.compute_cost, g.edge_src, g.edge_dst, g.edge_bytes,
        float(topo.link_bandwidth_bytes_per_time), topo.num_chips, include_comm,
    )
    mem_ok, mem = memory_check(g, topo, assign)
    static = check_static(g, assign, topo.num_chips)
    if not static.ok:
        return EvalResult(False, 0.0, lat, mem, failure_reason="static")
    if not mem_ok:
        return EvalResult(False, 0.0, lat, mem, failure_reason="memory")
    worst = float(lat.max()) if len(lat) else 0.0
    throughput = 1.0 / worst if worst > 0 else float("inf")
    return EvalResult(True, throughput, lat, mem)


def _partition_rng(assign: np.ndarray, seed: int) -> np.random.Generator:
    # Deterministic per (partition, seed): hash the assignment bytes into
    # the seed sequence so repeated evaluations agree exactly.
    digest = zlib.crc32(assign.tobytes())
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, digest, len(assign)]))


def surrogate_eval(
    g: ComputationGraph,
    topo: ChipTopology,
    p,
    cfg: SurrogateConfig,
    include_comm: bool = True,
) -> EvalResult:
    """Analytical model with noise, tighter memory, and injected failures."""
    assign = _checked_assignment(g, p, topo.num_chips)
    lat = chip_latency(
        assign, g.compute_cost, g.edge_src, g.edge_dst, g.edge_bytes,
        float(topo.link_bandwidth_bytes_per_time), topo.num_chips, include_comm,
    )
    rng = _partition_rng(assign, cfg.seed)
    if cfg.noise_scale > 0:
        lat = lat * np.exp(cfg.noise_scale * rng.standard_normal(topo.num_chips))
    else:
        rng.standard_normal(topo.num_chips)  # keep the draw order fixed
    mem_ok, mem = memory_check(g, topo, assign, headroom=cfg.memory_headroom)
    static = check_static(g, assign, topo.num_chips)
    if not static.ok:
        return EvalResult(False, 0.0, lat, mem, failure_reason="static")
    if not mem_ok:
        return EvalResult(False, 0.0, lat, mem, failure_reason="memory")
    if cfg.extra_failure_rate > 0 and rng.random() < cfg.extra_failure_rate:
        return EvalResult(False, 0.0, lat, mem, failure_reason="dynamic")
    worst = float(lat.max()) if len(lat) else 0.0
    throughput = 1.0 / worst if worst > 0 else float("inf")
    return EvalResult(True, throughput, lat, mem)


class AnalyticalEvaluator:
    """Picklable callable wrapper around :func:`analytical_eval`."""

    def __init__(self, include_comm: bool = True):
        self.include_comm = include_comm

    def __call__(self, g, topo, p) -> EvalResult:
        return analytical_eval(g, topo, p, include_comm=self.include_comm)


class SurrogateEvaluator:
    """Picklable callable wrapper around :func:`surrogate_eval`."""

    def __init__(self, cfg: SurrogateConfig, include_comm: bool = True):
        self.cfg = cfg
        self.include_comm = include_comm

    def __call__(self, g, topo, p) -> EvalResult:
        return surrogate_eval(g, topo, p, self.cfg, include_comm=self.include_comm)


def make_analytical(include_comm: bool = True) -> Evaluator:
    return AnalyticalEvaluator(include_comm=include_comm)


def make_surrogate(cfg: SurrogateConfig, include_comm: bool = True) -> Evaluator:
    return SurrogateEvaluator(cfg, include_comm=include_comm)
