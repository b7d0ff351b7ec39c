import json

import numpy as np
import pytest

from mcmpart import ChipTopology, ComputationGraph, DataEdge, OpNode


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


def _edit_config(path, edit):
    """Rewrite a checkpoint's header after ``edit`` changed its config, laid
    out as a writer whose config was the edited one would have written it."""
    data = path.read_bytes()
    hlen = int.from_bytes(data[8:16], "little")
    header = json.loads(data[16:16 + hlen])
    edit(header["config"])
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(data[:8] + len(blob).to_bytes(8, "little") + blob + data[16 + hlen:])


def with_config_entry(path, key, value):
    """Rewrite a checkpoint's header with one more config entry."""
    _edit_config(path, lambda cfg: cfg.update({key: value}))


def without_config_entry(path, key):
    """Rewrite a checkpoint's header without one config entry, as a writer
    whose config lacked it would have written it."""
    _edit_config(path, lambda cfg: cfg.pop(key))


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
