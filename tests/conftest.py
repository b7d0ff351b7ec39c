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
