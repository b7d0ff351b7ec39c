"""Policy network: message-passing node embeddings and a per-node chip head.

Everything is plain numpy with hand-written backprop, so gradients can be
verified against finite differences.  Node features combine op kind,
normalized cost/byte stats, degrees, depth, and a one-hot of the previous
refinement step's actions; K aggregation layers transform
``concat(self, mean_in, mean_out)`` through affine maps with tanh, and a
two-layer head emits one chip distribution per node.

Precision follows mixed-precision training (Micikevicius et al. 2018): the
forward and backward GEMMs run in ``ModelConfig.compute_dtype`` (float32
by default), on the features and neighbor-mean operators of
:class:`GraphFeatures` and on a copy of the weights from
:meth:`PolicyParams.for_compute`.  The master weights, the Adam moments
and the gradients they accumulate stay float64, as do the log-softmax and
everything the PPO loss computes from it, so small updates are not lost
to float32 rounding and checkpoints keep their float64 layout.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, asdict

import numpy as np

from .errors import CheckpointFormatError, DimensionMismatchError, InvalidConfigError
from .generate import OP_VOCAB
from .graph import ComputationGraph

CHECKPOINT_MAGIC = b"MCMPCKPT"
CHECKPOINT_VERSION = 1
COMPUTE_DTYPES = ("float32", "float64")


@dataclass(frozen=True)
class ModelConfig:
    """Model shape and the dtype its forward and backward passes run in.

    ``compute_dtype`` sets the features, the neighbor-mean operators, the
    activations and the weight copies the GEMMs use.  The master weights,
    their gradients and the optimizer state are float64 whatever it is.
    float32 about halves the time of a pass; float64 reproduces the loss and
    gradients to rounding, which the reference and finite-difference tests
    rely on.
    """

    num_chips: int
    op_vocab: tuple = OP_VOCAB
    num_layers: int = 8
    hidden_dim: int = 128
    compute_dtype: str = "float32"

    def __post_init__(self):
        if self.compute_dtype not in COMPUTE_DTYPES:
            raise InvalidConfigError(f"compute_dtype must be one of {COMPUTE_DTYPES}, got {self.compute_dtype!r}")

    @property
    def feature_dim(self) -> int:
        # op one-hot (+unknown bucket), cost/out/param norms, in/out degree,
        # depth fraction, previous-action one-hot
        return len(self.op_vocab) + 1 + 6 + self.num_chips

    @classmethod
    def tiny(cls, num_chips: int, **kw) -> "ModelConfig":
        """Small profile for fast tests and gradient checks."""
        kw.setdefault("num_layers", 2)
        kw.setdefault("hidden_dim", 16)
        return cls(num_chips=num_chips, **kw)


class PolicyParams:
    """Named float64 master weights plus optimizer state; bit-exact round-trippable."""

    def __init__(self, config: ModelConfig, weights: dict):
        self.config = config
        self.weights = weights
        self.opt_m: dict = {}
        self.opt_v: dict = {}
        self.opt_t: int = 0

    def copy(self) -> "PolicyParams":
        out = PolicyParams(self.config, {k: v.copy() for k, v in self.weights.items()})
        out.opt_m = {k: v.copy() for k, v in self.opt_m.items()}
        out.opt_v = {k: v.copy() for k, v in self.opt_v.items()}
        out.opt_t = self.opt_t
        return out

    def for_compute(self) -> "PolicyParams":
        """The weights in the config's compute dtype, without optimizer state.

        Returns ``self`` when they already are, so a caller casts once and
        hands the result to every pass under the same weights.
        """
        dtype = np.dtype(self.config.compute_dtype)
        if all(v.dtype == dtype for v in self.weights.values()):
            return self
        return PolicyParams(self.config, {k: v.astype(dtype) for k, v in self.weights.items()})


def weight_shapes(config: ModelConfig) -> dict:
    """Name and shape of every weight of a policy with this config, in the
    order :func:`init_params` draws them."""
    shapes = {}
    d_in = config.feature_dim
    for l in range(config.num_layers):
        shapes[f"sage{l}_W"] = (3 * d_in, config.hidden_dim)
        shapes[f"sage{l}_b"] = (config.hidden_dim,)
        d_in = config.hidden_dim
    h = config.hidden_dim
    shapes["head_W1"] = (h, h)
    shapes["head_b1"] = (h,)
    shapes["head_W2"] = (h, config.num_chips)
    shapes["head_b2"] = (config.num_chips,)
    return shapes


def init_params(config: ModelConfig, rng: np.random.Generator) -> PolicyParams:
    """Glorot-uniform weights, zero biases."""
    weights = {}
    for name, shape in weight_shapes(config).items():
        if len(shape) == 2:
            lim = np.sqrt(6.0 / (shape[0] + shape[1]))
            weights[name] = rng.uniform(-lim, lim, size=shape)
        else:
            weights[name] = np.zeros(shape)
    return PolicyParams(config, weights)


class GraphFeatures:
    """Per-graph feature matrix and row-normalized neighbor-mean operators,
    in the config's compute dtype."""

    def __init__(self, g: ComputationGraph, config: ModelConfig):
        self.config = config
        dtype = np.dtype(config.compute_dtype)
        n = g.num_nodes
        vocab = {op: i for i, op in enumerate(config.op_vocab)}
        unknown = len(config.op_vocab)
        base = np.zeros((n, config.feature_dim), dtype=dtype)
        for i, node in enumerate(g.nodes):
            base[i, vocab.get(node.op_kind, unknown)] = 1.0
        off = unknown + 1

        def norm(arr):
            arr = np.asarray(arr, dtype=np.float64)
            top = arr.max() if len(arr) else 0.0
            return arr / top if top > 0 else np.zeros_like(arr)

        indeg = np.zeros(n)
        outdeg = np.zeros(n)
        for e in g.edges:
            outdeg[e.src] += 1
            indeg[e.dst] += 1
        depth = g.node_depths().astype(np.float64) if n else np.zeros(0)
        base[:, off + 0] = norm(g.compute_cost)
        base[:, off + 1] = norm(g.output_bytes)
        base[:, off + 2] = norm(g.param_bytes)
        base[:, off + 3] = norm(indeg)
        base[:, off + 4] = norm(outdeg)
        base[:, off + 5] = depth / depth.max() if n and depth.max() > 0 else 0.0
        self.base = base
        self.prev_offset = off + 6

        a_in = np.zeros((n, n), dtype=dtype)
        a_out = np.zeros((n, n), dtype=dtype)
        for e in g.edges:
            a_in[e.dst, e.src] = 1.0
            a_out[e.src, e.dst] = 1.0
        # mean over an empty neighborhood stays the zero vector
        in_cnt = a_in.sum(axis=1, keepdims=True)
        out_cnt = a_out.sum(axis=1, keepdims=True)
        self.a_in = np.divide(a_in, in_cnt, out=a_in, where=in_cnt > 0)
        self.a_out = np.divide(a_out, out_cnt, out=a_out, where=out_cnt > 0)

    def features(self, prev_actions=None) -> np.ndarray:
        """Feature matrix with the previous-action block filled (zeros at t=1)."""
        x = self.base.copy()
        if prev_actions is not None:
            pa = np.asarray(prev_actions, dtype=np.int64)
            x[np.arange(len(pa)), self.prev_offset + pa] = 1.0
        return x


def forward_policy(params: PolicyParams, feats: GraphFeatures, x: np.ndarray, need_cache: bool = False):
    """Run embedding layers and head; returns (logits, cache), both in the
    compute dtype.  Pass ``params.for_compute()`` to skip the weight cast."""
    cfg = params.config
    w = params.for_compute().weights
    if x.shape[1] != cfg.feature_dim:
        raise DimensionMismatchError(f"feature dim {x.shape[1]} != model feature dim {cfg.feature_dim}")
    h = x
    layer_cache = []
    for l in range(cfg.num_layers):
        z = np.concatenate([h, feats.a_in @ h, feats.a_out @ h], axis=1)
        h_new = np.tanh(z @ w[f"sage{l}_W"] + w[f"sage{l}_b"])
        if need_cache:
            layer_cache.append((z, h_new))
        h = h_new
    t1 = np.tanh(h @ w["head_W1"] + w["head_b1"])
    logits = t1 @ w["head_W2"] + w["head_b2"]
    cache = (h, t1, layer_cache) if need_cache else None
    return logits, cache


def backward_policy(params: PolicyParams, feats: GraphFeatures, cache, dlogits: np.ndarray, grads: dict):
    """Accumulate loss gradients for one forward pass into ``grads``.

    The backward GEMMs run in the compute dtype, ``dlogits`` included; each
    product is added into the float64 ``grads``.
    """
    cfg = params.config
    w = params.for_compute().weights
    h, t1, layer_cache = cache
    dlogits = dlogits.astype(t1.dtype, copy=False)

    grads["head_W2"] += t1.T @ dlogits
    grads["head_b2"] += dlogits.sum(axis=0)
    dt1 = dlogits @ w["head_W2"].T
    da1 = dt1 * (1.0 - t1 * t1)
    grads["head_W1"] += h.T @ da1
    grads["head_b1"] += da1.sum(axis=0)
    dh = da1 @ w["head_W1"].T

    for l in range(cfg.num_layers - 1, -1, -1):
        z, h_new = layer_cache[l]
        da = dh * (1.0 - h_new * h_new)
        grads[f"sage{l}_W"] += z.T @ da
        grads[f"sage{l}_b"] += da.sum(axis=0)
        if l == 0:
            break  # the input features need no gradient
        dz = da @ w[f"sage{l}_W"].T
        d_in = z.shape[1] // 3
        dh = dz[:, :d_in] + feats.a_in.T @ dz[:, d_in : 2 * d_in] + feats.a_out.T @ dz[:, 2 * d_in :]
    return grads


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def sample_rows(P: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One categorical draw per row."""
    cum = np.cumsum(P, axis=1)
    r = rng.random(P.shape[0])
    idx = (r[:, None] >= cum).sum(axis=1)
    return np.minimum(idx, P.shape[1] - 1).astype(np.int64)


def save_checkpoint(path, params: PolicyParams, meta: dict | None = None) -> None:
    """Write a versioned, deterministic binary checkpoint.

    Layout: magic, header length (LE uint64), JSON header (config echo,
    array table, optimizer step), then raw little-endian float64 buffers in
    header order.  The buffers are the float64 master weights and Adam
    moments, whatever the compute dtype: a float32 copy is made for each
    batch of passes and never stored, so the layout is the same as before
    the config had a ``compute_dtype`` (which the header echoes; a header
    without it loads with the default).
    """
    arrays = []
    payload = bytearray()
    named = dict(params.weights)
    for k in sorted(params.opt_m):
        named[f"adam_m.{k}"] = params.opt_m[k]
    for k in sorted(params.opt_v):
        named[f"adam_v.{k}"] = params.opt_v[k]
    for name in sorted(named):
        arr = np.ascontiguousarray(named[name], dtype="<f8")
        arrays.append({"name": name, "shape": list(arr.shape)})
        payload += arr.tobytes()
    cfg = asdict(params.config)
    cfg["op_vocab"] = list(params.config.op_vocab)
    header = {
        "version": CHECKPOINT_VERSION,
        "config": cfg,
        "arrays": arrays,
        "adam_t": params.opt_t,
        "meta": meta or {},
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(payload)


def load_checkpoint(path) -> tuple[PolicyParams, dict]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Any file that does not decode as one raises :class:`CheckpointFormatError`,
    and so does one whose weights are not exactly those of
    :func:`weight_shapes` for its config, whose Adam moments are not one per
    weight of the same shape, or that holds a NaN or infinity.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(CHECKPOINT_MAGIC):
        raise CheckpointFormatError(f"bad magic in {path}")
    try:
        pos = len(CHECKPOINT_MAGIC) + 8
        (hlen,) = struct.unpack_from("<Q", data, pos - 8)
        header = json.loads(data[pos : pos + hlen].decode("utf-8"))
        pos += hlen
        if header.get("version") != CHECKPOINT_VERSION:
            raise CheckpointFormatError(f"unsupported checkpoint version {header.get('version')}")
        cfg_doc = dict(header["config"])
        cfg_doc["op_vocab"] = tuple(cfg_doc["op_vocab"])
        if cfg_doc.pop("use_value_head", False):  # older headers carry the flag; only false loads
            raise CheckpointFormatError(f"{path} holds a value head, which the policy no longer has")
        try:
            config = ModelConfig(**cfg_doc)
        except InvalidConfigError as exc:
            raise CheckpointFormatError(f"{path}: {exc}") from exc
        arrays = {}
        for entry in header["arrays"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            if pos + count * 8 > len(data):
                raise CheckpointFormatError("truncated checkpoint payload")
            arrays[entry["name"]] = np.frombuffer(data, "<f8", count, pos).astype(np.float64).reshape(shape)
            pos += count * 8
        opt_t = int(header.get("adam_t", 0))
    except (struct.error, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CheckpointFormatError(f"corrupt checkpoint {path}: {exc}") from exc

    def section(prefix):
        return {k[len(prefix) :]: v for k, v in arrays.items() if k.startswith(prefix)}

    params = PolicyParams(config, {k: v for k, v in arrays.items() if not k.startswith(("adam_m.", "adam_v."))})
    params.opt_m = section("adam_m.")
    params.opt_v = section("adam_v.")
    params.opt_t = opt_t
    _check_arrays(path, params)
    return params, header.get("meta", {})


def _check_arrays(path, params: PolicyParams) -> None:
    """Raise CheckpointFormatError unless the arrays fit the config and are finite."""
    want = weight_shapes(params.config)
    tables = {"weights": params.weights}
    if params.opt_m or params.opt_v:  # Adam makes both on its first step
        tables.update(adam_m=params.opt_m, adam_v=params.opt_v)
    for what, table in tables.items():
        problems = [f"missing {k}" for k in want if k not in table]
        problems += [f"unexpected {k}" for k in sorted(table) if k not in want]
        problems += [f"{k} has shape {table[k].shape}, not {want[k]}"
                     for k in want if k in table and table[k].shape != want[k]]
        problems += [f"{k} holds a NaN or infinity" for k in sorted(table) if not np.isfinite(table[k]).all()]
        if problems:
            raise CheckpointFormatError(f"{path}: bad {what}: {'; '.join(problems)}")
