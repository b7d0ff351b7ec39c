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

The neighbor means are dense GEMMs over dense operators, but a product
skips the all-zero column ranges of the operator: :class:`GraphFeatures`
records, for each block of :data:`ROW_BLOCK` rows, the first and last
column holding a nonzero, and multiplies only that envelope (see
:class:`NeighborMean`).  The generator numbers nodes in topological order
and most edges are short, so on layered-200 the blocks cover a sixth of
the matrix.  Layer 0's forward products, on the raw features, stay single
GEMMs: at that width a dense product costs microseconds, and OpenBLAS
rounds some narrow odd widths differently when the inner dimension is cut,
so blocking there would move fixed-seed outputs for no gain.  The backward
pass never multiplies at that width, because layer 0 computes no input
gradient.

A pass writes its activations and scratch into a :class:`Workspace`
sized from the graph and the config, so a training batch does not
allocate (and page-fault in) fresh arrays for every pass.  The forward
cache refers into the workspace: it is valid until the next forward on
the same workspace, and :func:`backward_policy` raises on a stale one.

Only this module knows the parameter layout: the weights, each Adam moment
and each gradient set are one flat vector apiece, named by
:class:`NamedViews`.  A cast, a copy or an Adam step is one operation on a
vector; the checkpoint keeps one ``<f8`` array per name.
"""

from __future__ import annotations

import json
import math
import struct
from collections.abc import Mapping
from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np

from .errors import CheckpointFormatError, DimensionMismatchError, InvalidConfigError
from .generate import OP_VOCAB
from .graph import ComputationGraph

CHECKPOINT_MAGIC = b"MCMPCKPT"
CHECKPOINT_VERSION = 1
COMPUTE_DTYPES = ("float32", "float64")
ROW_BLOCK = 32  # rows per block of a neighbor-mean product


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
        for name in ("num_chips", "num_layers", "hidden_dim"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise InvalidConfigError(f"{name} must be a positive integer, got {value!r}")
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


class NamedViews(Mapping):
    """Named arrays that are views of one flat vector, ``flat``, laid out by
    ``layout``: ``(name, start, stop, shape)`` per array.  Rebinding a name
    raises, but ``views[name] += x`` writes into the view and passes, so
    every write reaches ``flat``."""

    def __init__(self, layout: tuple, flat: np.ndarray):
        self.layout, self.flat = layout, flat
        self._views = {name: flat[start:stop].reshape(shape) for name, start, stop, shape in layout}

    @classmethod
    def zeros(cls, config: ModelConfig) -> "NamedViews":
        """Float64 zeros for the weights of :func:`weight_shapes`, in its order."""
        layout, size = [], 0
        for name, shape in weight_shapes(config).items():
            layout.append((name, size, size + math.prod(shape), shape))
            size += math.prod(shape)
        return cls(tuple(layout), np.zeros(size))

    def copy(self) -> "NamedViews":
        return NamedViews(self.layout, self.flat.copy())

    def zeros_like(self) -> "NamedViews":
        """Zeros with the same names and dtype: for the master weights, a gradient set or an Adam moment."""
        return NamedViews(self.layout, np.zeros_like(self.flat))

    def __getitem__(self, name):
        return self._views[name]

    def __iter__(self):
        return iter(self._views)

    def __len__(self):
        return len(self._views)

    def __setitem__(self, name, value):
        if value is not self._views[name]:
            raise TypeError(f"{name} is a view of a flat vector: write into it instead")


class PolicyParams:
    """Float64 master weights plus Adam state, each a read-only
    :class:`NamedViews` over one flat vector; bit-exact round-trippable.
    The moments are empty before Adam's first step."""

    def __init__(self, config: ModelConfig, weights: NamedViews | None = None):
        self.config = config
        self.weights = NamedViews.zeros(config) if weights is None else weights
        self.opt_m = self.opt_v = NamedViews((), np.zeros(0))
        self.opt_t = 0

    def copy(self) -> "PolicyParams":
        out = PolicyParams(self.config, self.weights.copy())
        out.opt_m, out.opt_v, out.opt_t = self.opt_m.copy(), self.opt_v.copy(), self.opt_t
        return out

    def for_compute(self) -> "PolicyParams":
        """The weights in the config's compute dtype, without optimizer state.

        Returns ``self`` when they already are, so a caller casts once and
        hands the result to every pass under the same weights.
        """
        dtype = np.dtype(self.config.compute_dtype)
        if self.weights.flat.dtype == dtype:
            return self
        return PolicyParams(self.config, NamedViews(self.weights.layout, self.weights.flat.astype(dtype)))


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
    params = PolicyParams(config)
    for w in params.weights.values():
        if w.ndim == 2:
            lim = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
            w[...] = rng.uniform(-lim, lim, size=w.shape)
    return params


def _envelope(rows: np.ndarray, cols: np.ndarray, n: int) -> list:
    """``(r0, r1, c0, c1)`` per block of ``ROW_BLOCK`` rows of an n x n matrix
    whose nonzeros sit at ``(rows, cols)``: columns c0 to c1 - 1 hold every
    nonzero of rows r0 to r1 - 1, and c0 == c1 when those rows hold none."""
    count = -(-n // ROW_BLOCK)
    lo = np.full(count, n, dtype=np.int64)
    hi = np.zeros(count, dtype=np.int64)
    np.minimum.at(lo, rows // ROW_BLOCK, cols)
    np.maximum.at(hi, rows // ROW_BLOCK, cols + 1)
    return [(b * ROW_BLOCK, min((b + 1) * ROW_BLOCK, n), int(min(lo[b], hi[b])), int(hi[b])) for b in range(count)]


class NeighborMean:
    """The product ``a @ x`` with one fixed n x n neighbor-mean operator ``a``.

    ``blocks`` holds ``(r0, r1, c0, c1, a[r0:r1, c0:c1])`` for each block of
    ``envelope``, with ``None`` for the view of a block that holds no
    nonzero; such rows of the product are zero.  Any node order gives the
    right product, but only short edges make the blocks small.  When they
    cover more than half of the matrix, ``blocks`` is ``None`` and the
    product is one GEMM, as it is for the 24-node graphs of a small corpus.
    """

    __slots__ = ("a", "blocks")

    def __init__(self, a: np.ndarray, envelope: list):
        self.a = a
        covered = sum((r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in envelope)
        if 2 * covered > a.shape[0] * a.shape[1]:
            self.blocks = None
        else:
            self.blocks = [(r0, r1, c0, c1, a[r0:r1, c0:c1] if c1 > c0 else None) for r0, r1, c0, c1 in envelope]

    def into(self, x: np.ndarray, out: np.ndarray) -> None:
        """Write ``a @ x`` into ``out``."""
        if self.blocks is None:
            np.matmul(self.a, x, out=out)
            return
        for r0, r1, c0, c1, block in self.blocks:
            if block is None:
                out[r0:r1] = 0.0
            else:
                np.matmul(block, x[c0:c1], out=out[r0:r1])


class GraphFeatures:
    """Per-graph feature matrix and row-normalized neighbor-mean operators,
    in the config's compute dtype.

    ``a_in`` and ``a_out`` are dense.  The four products a pass makes with
    them skip each row block's all-zero columns: ``in_mean`` and
    ``out_mean`` give ``a_in @ h`` and ``a_out @ h``, ``in_mean_t`` and
    ``out_mean_t`` give ``a_in.T @ dz`` and ``a_out.T @ dz``.  ``a_in.T``
    has the nonzero pattern of ``a_out``, so each envelope serves two of
    them.  The blocks are views of ``a_in`` and ``a_out``; a pass's buffers
    live in a :class:`Workspace`, not here, so keeping one instance per
    graph of a corpus keeps no activations.
    """

    def __init__(self, g: ComputationGraph, config: ModelConfig):
        self.config = config
        dtype = np.dtype(config.compute_dtype)
        n = g.num_nodes
        self.num_nodes = n
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
        env_in = _envelope(g.edge_dst, g.edge_src, n)
        env_out = _envelope(g.edge_src, g.edge_dst, n)
        self.in_mean = NeighborMean(self.a_in, env_in)
        self.out_mean = NeighborMean(self.a_out, env_out)
        self.in_mean_t = NeighborMean(self.a_in.T, env_out)
        self.out_mean_t = NeighborMean(self.a_out.T, env_in)

    def features(self, prev_actions=None) -> np.ndarray:
        """Feature matrix with the previous-action block filled (zeros at t=1)."""
        x = self.base.copy()
        if prev_actions is not None:
            pa = np.asarray(prev_actions, dtype=np.int64)
            x[np.arange(len(pa)), self.prev_offset + pa] = 1.0
        return x


class Workspace:
    """The buffers of forward and backward passes of one config over graphs
    of ``num_nodes`` nodes, in the config's compute dtype.

    ``z[l]`` holds layer l's ``concat(h, mean_in, mean_out)`` and ``h[l]``
    its output; ``t1`` holds the head's hidden activations.  Backward's
    scratch is ``da`` and ``dh`` (N x hidden), ``dz`` (N x 3 hidden) and
    ``dw``, a weight-gradient product before it is added into the float64
    gradients.  ``generation`` counts the forward passes run here.

    A caller makes one for a batch of passes and drops it when the batch
    ends (see ``training.rollouts`` and ``training.ppo_update``), so no
    workspace outlives its batch, whatever the number of graphs.
    """

    def __init__(self, config: ModelConfig, num_nodes: int):
        dtype = np.dtype(config.compute_dtype)
        n, hid = num_nodes, config.hidden_dim
        widths = [config.feature_dim] + [hid] * (config.num_layers - 1)
        self.config = config
        self.num_nodes = n
        self.names = [(f"sage{l}_W", f"sage{l}_b") for l in range(config.num_layers)]
        self.z = [np.empty((n, 3 * d), dtype) for d in widths]
        self.h = [np.empty((n, hid), dtype) for _ in widths]
        self.t1 = np.empty((n, hid), dtype)
        self.da = np.empty((n, hid), dtype)
        self.dh = np.empty((n, hid), dtype)
        self.dz = np.empty((n, 3 * hid), dtype)
        self.dw = np.empty((3 * max(widths), hid), dtype)
        self.generation = 0


class ForwardCache(NamedTuple):
    """What :func:`backward_policy` reads of one forward pass: views into
    ``workspace``, valid while its generation is still ``generation``."""

    workspace: Workspace
    generation: int


def forward_policy(params: PolicyParams, feats: GraphFeatures, x: np.ndarray, need_cache: bool = False,
                   ws: Workspace | None = None):
    """Run embedding layers and head; returns (logits, cache), both in the
    compute dtype.  Pass ``params.for_compute()`` to skip the weight cast.

    The activations go into ``ws``, a fresh workspace when it is ``None``.
    The logits are a new array, but the cache is a view of ``ws``: the next
    forward on ``ws`` overwrites it, and :func:`backward_policy` then
    refuses it.
    """
    cfg = params.config
    w = params.for_compute().weights
    if x.shape[1] != cfg.feature_dim:
        raise DimensionMismatchError(f"feature dim {x.shape[1]} != model feature dim {cfg.feature_dim}")
    if ws is None:
        ws = Workspace(cfg, x.shape[0])
    elif ws.num_nodes != x.shape[0] or (ws.config is not cfg and ws.config != cfg):
        raise DimensionMismatchError(f"workspace for {ws.num_nodes} nodes does not fit this pass")
    ws.generation += 1
    h = x
    for l, (z, h_new, (w_name, b_name)) in enumerate(zip(ws.z, ws.h, ws.names)):
        d = h.shape[1]
        z[:, :d] = h
        if l:
            feats.in_mean.into(h, z[:, d : 2 * d])
            feats.out_mean.into(h, z[:, 2 * d :])
        else:  # the raw features: single GEMMs (see the module docstring)
            np.matmul(feats.a_in, h, out=z[:, d : 2 * d])
            np.matmul(feats.a_out, h, out=z[:, 2 * d :])
        np.matmul(z, w[w_name], out=h_new)
        h_new += w[b_name]
        np.tanh(h_new, out=h_new)
        h = h_new
    t1 = ws.t1
    np.matmul(h, w["head_W1"], out=t1)
    t1 += w["head_b1"]
    np.tanh(t1, out=t1)
    logits = t1 @ w["head_W2"] + w["head_b2"]
    return logits, ForwardCache(ws, ws.generation) if need_cache else None


def backward_policy(params: PolicyParams, feats: GraphFeatures, cache: ForwardCache, dlogits: np.ndarray, grads: dict):
    """Accumulate loss gradients for one forward pass into ``grads``.

    The backward GEMMs run in the compute dtype, ``dlogits`` included; each
    product is added into the float64 ``grads``.  Raises ``ValueError`` if
    another forward has run on the cache's workspace since.
    """
    ws, generation = cache
    if generation != ws.generation:
        raise ValueError(f"stale forward cache: generation {generation}, workspace at {ws.generation}")
    w = params.for_compute().weights
    t1, da, dh, dz, dw = ws.t1, ws.da, ws.dh, ws.dz, ws.dw
    h = ws.h[-1]
    hid = h.shape[1]
    dlogits = dlogits.astype(t1.dtype, copy=False)

    grads["head_W2"] += t1.T @ dlogits
    grads["head_b2"] += dlogits.sum(axis=0)
    np.matmul(dlogits, w["head_W2"].T, out=dh)  # the gradient of t1, until da holds that of its pre-activation
    np.multiply(t1, t1, out=da)
    np.subtract(1.0, da, out=da)
    da *= dh
    np.matmul(h.T, da, out=dw[:hid])
    grads["head_W1"] += dw[:hid]
    grads["head_b1"] += da.sum(axis=0)
    np.matmul(da, w["head_W1"].T, out=dh)

    for l in range(len(ws.z) - 1, -1, -1):
        z, h_new = ws.z[l], ws.h[l]
        w_name, b_name = ws.names[l]
        np.multiply(h_new, h_new, out=da)
        np.subtract(1.0, da, out=da)
        da *= dh
        gw = dw[: z.shape[1]]
        np.matmul(z.T, da, out=gw)
        grads[w_name] += gw
        grads[b_name] += da.sum(axis=0)
        if l == 0:
            break  # the input features need no gradient
        np.matmul(da, w[w_name].T, out=dz)
        # dh = dz_self + a_in.T @ dz_in + a_out.T @ dz_out, summed in that order
        feats.in_mean_t.into(dz[:, hid : 2 * hid], dh)
        dh += dz[:, :hid]
        feats.out_mean_t.into(dz[:, 2 * hid :], da)
        dh += da
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
    named.update((f"adam_m.{k}", v) for k, v in params.opt_m.items())
    named.update((f"adam_v.{k}", v) for k, v in params.opt_v.items())
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
    weight of the same shape exactly when ``adam_t`` is at least 1, or that
    holds a NaN or infinity.  The arrays are checked before they are copied.
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
            arrays[entry["name"]] = np.frombuffer(data, "<f8", count, pos).reshape(shape)
            pos += count * 8
        opt_t = header.get("adam_t", 0)
    except (struct.error, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CheckpointFormatError(f"corrupt checkpoint {path}: {exc}") from exc
    _check_arrays(path, config, arrays, opt_t)

    params = PolicyParams(config)
    params.opt_t = opt_t
    if opt_t:
        params.opt_m, params.opt_v = params.weights.zeros_like(), params.weights.zeros_like()
    for prefix, table in (("", params.weights), ("adam_m.", params.opt_m), ("adam_v.", params.opt_v)):
        for name, view in table.items():
            view[...] = arrays[prefix + name]
    return params, header.get("meta", {})


def _check_arrays(path, config: ModelConfig, arrays: dict, opt_t) -> None:
    """Raise CheckpointFormatError unless ``opt_t`` is an integer of at least 0
    and a file's ``arrays`` fit the config, with moments exactly when it is not 0."""
    if isinstance(opt_t, bool) or not isinstance(opt_t, int) or opt_t < 0:
        raise CheckpointFormatError(f"{path}: adam_t must be an integer of at least 0, not {opt_t!r}")

    def section(prefix):
        return {k[len(prefix) :]: v for k, v in arrays.items() if k.startswith(prefix)}

    want = weight_shapes(config)
    tables = {"weights": {k: v for k, v in arrays.items() if not k.startswith(("adam_m.", "adam_v."))}}
    moments = {"adam_m": section("adam_m."), "adam_v": section("adam_v.")}
    if opt_t:  # Adam makes both on its first step
        tables.update(moments)
    elif any(moments.values()):
        raise CheckpointFormatError(f"{path}: Adam moments with adam_t 0")
    for what, table in tables.items():
        problems = [f"missing {k}" for k in want if k not in table]
        problems += [f"unexpected {k}" for k in sorted(table) if k not in want]
        problems += [f"{k} has shape {table[k].shape}, not {want[k]}"
                     for k in want if k in table and table[k].shape != want[k]]
        problems += [f"{k} holds a NaN or infinity" for k in sorted(table) if not np.isfinite(table[k]).all()]
        if problems:
            raise CheckpointFormatError(f"{path}: bad {what}: {'; '.join(problems)}")
