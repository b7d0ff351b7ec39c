import json
import math

import numpy as np
import pytest

from mcmpart import ChipTopology, ComputationGraph, DataEdge, OpNode
from mcmpart.training import adam_step


def make_graph(num_nodes, edges, costs=None, out_bytes=None, param_bytes=None, ops=None):
    """Hand-built graph helper for tests."""
    costs = costs if costs is not None else [1.0] * num_nodes
    out_bytes = out_bytes if out_bytes is not None else [8] * num_nodes
    param_bytes = param_bytes if param_bytes is not None else [8] * num_nodes
    ops = ops if ops is not None else ["matmul"] * num_nodes
    nodes = [
        OpNode(id=i, op_kind=ops[i], compute_cost=costs[i], output_bytes=out_bytes[i], param_bytes=param_bytes[i])
        for i in range(num_nodes)
    ]
    data_edges = [DataEdge(src=u, dst=v, transfer_bytes=out_bytes[u]) for u, v in edges]
    return ComputationGraph(nodes, data_edges)


def relabeled(g, perm):
    """``g`` with node ``perm[i]`` renamed ``i``."""
    inv = np.empty(len(perm), dtype=np.int64)
    inv[perm] = np.arange(len(perm))
    return make_graph(
        g.num_nodes,
        [(int(inv[e.src]), int(inv[e.dst])) for e in g.edges],
        costs=[float(g.compute_cost[p]) for p in perm],
        out_bytes=[int(g.output_bytes[p]) for p in perm],
        param_bytes=[int(g.param_bytes[p]) for p in perm],
        ops=[g.nodes[p].op_kind for p in perm],
    )


def reference_forward(params, feats, x):
    """The policy's forward pass written with one dense GEMM per neighbor
    mean and fresh arrays throughout; returns (logits, cache)."""
    cfg = params.config
    w = params.for_compute().weights
    h = x
    layer_cache = []
    for l in range(cfg.num_layers):
        z = np.concatenate([h, feats.a_in @ h, feats.a_out @ h], axis=1)
        h_new = np.tanh(z @ w[f"sage{l}_W"] + w[f"sage{l}_b"])
        layer_cache.append((z, h_new))
        h = h_new
    t1 = np.tanh(h @ w["head_W1"] + w["head_b1"])
    logits = t1 @ w["head_W2"] + w["head_b2"]
    return logits, (h, t1, layer_cache)


def reference_backward(params, feats, cache, dlogits, grads):
    """The backward pass of :func:`reference_forward`, accumulated into ``grads``."""
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
    for l in range(params.config.num_layers - 1, -1, -1):
        z, h_new = layer_cache[l]
        da = dh * (1.0 - h_new * h_new)
        grads[f"sage{l}_W"] += z.T @ da
        grads[f"sage{l}_b"] += da.sum(axis=0)
        if l == 0:
            break
        dz = da @ w[f"sage{l}_W"].T
        d_in = z.shape[1] // 3
        dh = dz[:, :d_in] + feats.a_in.T @ dz[:, d_in : 2 * d_in] + feats.a_out.T @ dz[:, 2 * d_in :]
    return grads


def reference_adam_step(params, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as the policy had it before its weights were one flat vector:
    fresh temporaries per weight array, in sorted name order."""
    if not params.opt_m:
        params.opt_m = {k: np.zeros_like(v) for k, v in params.weights.items()}
        params.opt_v = {k: np.zeros_like(v) for k, v in params.weights.items()}
    params.opt_t += 1
    t = params.opt_t
    for k in sorted(params.weights):
        gr = grads[k]
        m = params.opt_m[k]
        v = params.opt_v[k]
        m *= beta1
        m += (1 - beta1) * gr
        v *= beta2
        v += (1 - beta2) * gr * gr
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        params.weights[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)


def trained_like(params, steps=2):
    """``params`` after ``steps`` Adam steps on standard-normal gradients, so
    it carries moments and an ``opt_t`` as training leaves them."""
    rng = np.random.default_rng(0)
    grads = params.weights.zeros_like()
    for _ in range(steps):
        grads.flat[:] = rng.standard_normal(grads.flat.size)
        adam_step(params, grads, lr=1e-3)
    return params


def edit_checkpoint(path, edit):
    """Rewrite a checkpoint file after ``edit(header, arrays)`` changed its
    JSON header or its arrays: a dict from each name of the file's array
    table (``adam_m.`` and ``adam_v.`` prefix the moments) to a writable
    float64 copy.  The header's array table and the payload are rebuilt from
    ``arrays`` in its order, so an edit that changes nothing gives the same
    bytes."""
    data = path.read_bytes()
    hlen = int.from_bytes(data[8:16], "little")
    header = json.loads(data[16:16 + hlen])
    arrays, pos = {}, 16 + hlen
    for entry in header["arrays"]:
        count = math.prod(entry["shape"])
        arrays[entry["name"]] = np.frombuffer(data, "<f8", count, pos).reshape(entry["shape"]).copy()
        pos += 8 * count
    edit(header, arrays)
    header["arrays"] = [{"name": k, "shape": list(v.shape)} for k, v in arrays.items()]
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = b"".join(np.ascontiguousarray(v, "<f8").tobytes() for v in arrays.values())
    path.write_bytes(data[:8] + len(blob).to_bytes(8, "little") + blob + payload)


def with_config_entry(path, key, value):
    """Rewrite a checkpoint's header with one more config entry."""
    edit_checkpoint(path, lambda header, arrays: header["config"].update({key: value}))


def without_config_entry(path, key):
    """Rewrite a checkpoint's header without one config entry, as a writer
    whose config lacked it would have written it."""
    edit_checkpoint(path, lambda header, arrays: header["config"].pop(key))


@pytest.fixture
def chain3():
    return make_graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def chain4():
    return make_graph(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def diamond():
    # 0 -> {1, 2} -> 3
    return make_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


@pytest.fixture
def topo2():
    return ChipTopology(num_chips=2)


@pytest.fixture
def topo3():
    return ChipTopology(num_chips=3)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
