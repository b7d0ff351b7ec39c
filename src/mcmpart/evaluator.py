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
import math
import zlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GraphFormatError, InvalidConfigError
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
        if not all(math.isfinite(v) for v in (self.noise_scale, self.extra_failure_rate, self.memory_headroom)):
            raise InvalidConfigError("surrogate knobs must be finite")
        if self.noise_scale < 0:
            raise InvalidConfigError("noise_scale must be >= 0")
        if not (0.0 <= self.extra_failure_rate < 1.0):
            raise InvalidConfigError("extra_failure_rate must lie in [0, 1)")
        if not (0.0 < self.memory_headroom <= 1.0):
            raise InvalidConfigError("memory_headroom must lie in (0, 1]")

    @classmethod
    def from_json(cls, text) -> "SurrogateConfig":
        """Parse the knobs from a JSON object (str or bytes); absent knobs keep their defaults."""
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise GraphFormatError(f"surrogate config is not JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise GraphFormatError("surrogate config must be a JSON object")
        knobs = {k: doc[k] for k in ("noise_scale", "extra_failure_rate", "memory_headroom", "seed") if k in doc}
        if any(type(v) not in (int, float) for v in knobs.values()) or type(knobs.get("seed", 0)) is not int:
            raise GraphFormatError("surrogate knobs must be numbers and the seed an integer")
        return cls(**knobs)


def memory_check(g: ComputationGraph, topo: ChipTopology, p, headroom: float = 1.0):
    """Per-chip resident bytes and whether every chip fits its SRAM budget."""
    assign = _checked_assignment(g, p, topo.num_chips)
    mem = chip_memory(assign, g.param_bytes + g.output_bytes, topo.num_chips)
    budget = topo.sram_bytes_per_chip * headroom
    return bool((mem <= budget).all()), mem


def analytical_eval(g: ComputationGraph, topo: ChipTopology, p, include_comm: bool = True) -> EvalResult:
    """Throughput under the analytical model; invalid partitions score 0."""
    return _score(g, topo, p, include_comm)


def surrogate_eval(
    g: ComputationGraph,
    topo: ChipTopology,
    p,
    cfg: SurrogateConfig,
    include_comm: bool = True,
) -> EvalResult:
    """Analytical model with noise, tighter memory, and injected failures."""
    return _score(g, topo, p, include_comm, cfg)


def _partition_rng(assign: np.ndarray, seed: int) -> np.random.Generator:
    # Deterministic per (partition, seed): hash the assignment bytes into
    # the seed sequence so repeated evaluations agree exactly.
    digest = zlib.crc32(assign.tobytes())
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, digest, len(assign)]))


def _score(g, topo, p, include_comm: bool, cfg: Optional[SurrogateConfig] = None) -> EvalResult:
    """The analytical model, with the surrogate's perturbations when ``cfg`` is given."""
    assign = _checked_assignment(g, p, topo.num_chips)
    lat = chip_latency(
        assign, g.compute_cost, g.edge_src, g.edge_dst, g.edge_bytes,
        float(topo.link_bandwidth_bytes_per_time), topo.num_chips, include_comm,
    )
    headroom = 1.0
    if cfg is not None:
        rng = _partition_rng(assign, cfg.seed)
        noise = rng.standard_normal(topo.num_chips)  # drawn even at zero scale: fixed draw order
        if cfg.noise_scale > 0:
            with np.errstate(over="ignore", invalid="ignore"):
                noisy = lat * np.exp(cfg.noise_scale * noise)
            if not np.isfinite(noisy).all() or ((noisy == 0) & (lat > 0)).any():
                raise InvalidConfigError(f"noise_scale {cfg.noise_scale} overflows or zeroes a chip latency")
            lat = noisy
        headroom = cfg.memory_headroom
    mem_ok, mem = memory_check(g, topo, assign, headroom=headroom)
    static = check_static(g, assign, topo.num_chips)
    if not static.ok:
        return EvalResult(False, 0.0, lat, mem, failure_reason="static")
    if not mem_ok:
        return EvalResult(False, 0.0, lat, mem, failure_reason="memory")
    if cfg is not None and cfg.extra_failure_rate > 0 and rng.random() < cfg.extra_failure_rate:
        return EvalResult(False, 0.0, lat, mem, failure_reason="dynamic")
    worst = float(lat.max()) if len(lat) else 0.0
    throughput = 1.0 / worst if worst > 0 else float("inf")
    return EvalResult(True, throughput, lat, mem)


def make_analytical(include_comm: bool = True) -> Evaluator:
    # analytical_eval is looked up at call time, so a wrapper installed on
    # this module's global after the evaluator was built still sees its calls
    return lambda g, topo, p: analytical_eval(g, topo, p, include_comm=include_comm)


def make_surrogate(cfg: SurrogateConfig, include_comm: bool = True) -> Evaluator:
    return lambda g, topo, p: surrogate_eval(g, topo, p, cfg, include_comm=include_comm)
