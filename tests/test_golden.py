"""Fixed-seed outputs pinned by digest.

The solver's propagation must reach the same fixpoint after every decision,
so the same seeds give byte-identical partitions.  These digests were
recorded with the edge-sweep propagation that the two-pass version
replaced; any change to propagation, node order or backtracking that moves
a single decision shows up here.
"""

import hashlib

import numpy as np

from mcmpart import ChipTopology, GeneratorConfig, generate_synthetic
from mcmpart.evaluator import analytical_eval
from mcmpart.search import SearchBudget, greedy_heuristic, random_search
from mcmpart.solver import solve_fix

# (family, nodes, chips, skip_prob): the benchmark's light search cases
FINISHING = (
    ("chain", 60, 8, 0.25),
    ("layered", 50, 4, 0.25),
    ("cnn-like", 40, 4, 0.25),
    ("rnn-like", 30, 4, 0.25),
)
SKIP_HEAVY = ("cnn-like", 26, 5, 0.9)

GOLDEN = {
    'greedy:chain-60/8': '45f8a1e87909a7340f2349a2db4e34435701d3d7e1dac70981c44766e23b32da',
    'greedy:layered-50/4': '5860aca84bfe292ed525a594252066c5be521cd951002081fd027bb1735dd00b',
    'greedy:cnn-like-40/4': '345ed6a1b8820baeb3e9c3b804d85b1db75d5b713c79a8f5ddf35dec50ad61dc',
    'greedy:rnn-like-30/4': 'b156116daf194cd7fb04fc361ca6d3ec25b5ce965b295c25c7b8736c993cab71',
    'greedy:cnn-like-26/5-skip0.9': '8090ebd18fb7348b0b3e8c7077dd8bd5e405870255c6a62a61a9531a88a716f7',
    'random_search:chain-60/8': '9e01caca2274f659b71c43939c2b2787193bba38c0eeeefda959507f6b349e36',
    'random_search:layered-50/4': '8e7de6783aa2bb9954d5cfb0594546cce62c30c7c0a0316acccf2ff55d3d25e9',
    'random_search:cnn-like-40/4': '274f11d02760f14d8bc9ea4e2044ebfb82554e5cc5259fd0bd0dc6fc38610a80',
    'random_search:rnn-like-30/4': 'b2f3592d813484d97c1d378a0d463705528914f5a6726b6e151b9c7eb862e266',
    'solve_fix:chain-60/8': '7bb68c0648234f331c2fe0f786cd6b634f0a1cb73973cc6d1639038ee48a1b7b',
    'solve_fix:layered-50/4': '5bf43584ecae25a79696c51f9559a0796aa8822aca06d86c8eafb81f5f71e445',
    'solve_fix:cnn-like-40/4': 'b7de6fde8691966445747d70320b5936af2d2e4dd7a697e7932a9f197e361dcd',
    'solve_fix:rnn-like-30/4': '68dd1a4dc1950e465dbbcb58f76f087df1b2cce3b2db230ae2c28bdd0d949a54',
}


def _case(family, nodes, chips, skip_prob):
    g = generate_synthetic(GeneratorConfig(family, nodes, seed=1, skip_prob=skip_prob))
    return g, ChipTopology(num_chips=chips)


def _name(family, nodes, chips, skip_prob):
    tag = f"{family}-{nodes}/{chips}"
    return tag if skip_prob == 0.25 else f"{tag}-skip{skip_prob}"


def _bytes(assignment) -> bytes:
    return np.asarray(assignment, dtype="<i8").tobytes()


def golden_digests() -> dict:
    out = {}
    for case in FINISHING + (SKIP_HEAVY,):
        g, topo = _case(*case)
        out[f"greedy:{_name(*case)}"] = hashlib.sha256(_bytes(greedy_heuristic(g, topo).assignment)).hexdigest()
    for case in FINISHING:
        g, topo = _case(*case)
        h = hashlib.sha256()

        def recording_eval(g, topo, part):
            result = analytical_eval(g, topo, part)
            h.update(_bytes(part.assignment) + repr(result.throughput).encode())
            return result

        for seed in range(5):
            random_search(g, topo, recording_eval, SearchBudget(max_samples=10, seed=seed))
        out[f"random_search:{_name(*case)}"] = h.hexdigest()
    for case in FINISHING:
        g, topo = _case(*case)
        y = np.random.default_rng(0).integers(0, topo.num_chips, size=g.num_nodes)
        part = solve_fix(g, topo, y, np.random.default_rng(1))
        out[f"solve_fix:{_name(*case)}"] = hashlib.sha256(_bytes(part.assignment)).hexdigest()
    return out


def test_fixed_seed_outputs_match_golden_digests():
    assert golden_digests() == GOLDEN


if __name__ == "__main__":
    for key, value in golden_digests().items():
        print(f"    {key!r}: {value!r},")
