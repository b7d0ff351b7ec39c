"""Fixed-seed outputs pinned by digest.

The solver's propagation must reach the same fixpoint after every decision,
so the same seeds give byte-identical partitions.  These digests were
recorded with the edge-sweep propagation that the two-pass and then the
seeded worklist versions replaced; any change to propagation, node order or
backtracking that moves a single decision shows up here.  Six were
re-recorded when sampling moved to fail-first node order under Luby restart
caps and greedy stopped calling the solver: the four ``random_search``
digests (fail-first visits nodes in another order), the skip-heavy greedy
digest (the heuristic now shrinks the block split instead of repairing it)
and ``solve_fix:cnn-like-40/4`` (its first repair attempt backtracked
through 558 decisions, past the 4N cap of an attempt, so it restarts).

The evaluator digests pin every field of ``analytical_eval`` and
``surrogate_eval`` results (their ``to_json()``) on stored partitions, plus
uniformly random (mostly invalid) assignments, under the default SRAM and
under an SRAM budget tight enough that some partitions fail on memory.
They were recorded while the two evaluators still had separate bodies.
The stored partitions (``data/golden_partitions.json``, one digit string
per partition) are the ``random_search`` samples of the same seeds under
the random-order solver, so the evaluator pin does not move when the
solver's search order does.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from mcmpart import ChipTopology, GeneratorConfig, generate_synthetic
from mcmpart.evaluator import SurrogateConfig, analytical_eval, surrogate_eval
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
    'greedy:cnn-like-26/5-skip0.9': 'f666637f23ba1e11591848383958911c273dd1737dd24b6ca337cb57ce862a5c',
    'random_search:chain-60/8': 'c881226d27160daf3fe009ab2438e3b1ae49a6d4e6861c959376b3a533dfc49d',
    'random_search:layered-50/4': 'acef78d42af1cdd224903a6008ad8b3b03bb323d6c93ee69592e08fff442f5d4',
    'random_search:cnn-like-40/4': '445997489a45ed93b4539f052142b59e1ccfb231b015fa1fb0a0720ecbad34b1',
    'random_search:rnn-like-30/4': '504a512d30361619dab539deae443fc6fb76860c77d2324955d9e26243110de8',
    'solve_fix:chain-60/8': '7bb68c0648234f331c2fe0f786cd6b634f0a1cb73973cc6d1639038ee48a1b7b',
    'solve_fix:layered-50/4': '5bf43584ecae25a79696c51f9559a0796aa8822aca06d86c8eafb81f5f71e445',
    'solve_fix:cnn-like-40/4': '0d45fce81fc67555e9ec981817bbcbad51dc6643f1285d9103a4609b0b49c928',
    'solve_fix:rnn-like-30/4': '68dd1a4dc1950e465dbbcb58f76f087df1b2cce3b2db230ae2c28bdd0d949a54',
}

SURROGATES = {
    "noise0.2": SurrogateConfig(noise_scale=0.2),
    "fail0.3-headroom0.85": SurrogateConfig(extra_failure_rate=0.3, memory_headroom=0.85),
}

EVAL_GOLDEN = {
    'analytical:chain-60/8': 'f5c42773926a4d4d06324c2a4977c1eb621c87b48b1eb69a251f8754a77fdea3',
    'surrogate-noise0.2:chain-60/8': 'a02c2e12b6d0946a687bdb4df14c68c2a4c01eca48f74d096626e67d2242f0eb',
    'surrogate-fail0.3-headroom0.85:chain-60/8': 'e4b3ca1a2d906215bc4edb0cd8a26c608237128c03d31964853b8c5cec4ea151',
    'analytical-tight:chain-60/8': 'fc9f653fa3624486961130b819bb15480eedbdf9fc3a4e6943e061fb98cca763',
    'surrogate-noise0.2-tight:chain-60/8': '3d38bccf8569ced056484c92ee6c9325a1542afd8204ce6ea4bcfe3722f1d2c8',
    'surrogate-fail0.3-headroom0.85-tight:chain-60/8': '0795785d2210da4b459e0eff452a9220fd44b576fa25e0f1c7b33e100bb90212',
    'analytical:layered-50/4': '503f57f9531adccc4c91bc0d4109c121684dd94269e1cd15a38e7c205814a1cf',
    'surrogate-noise0.2:layered-50/4': 'edf250365c035dc49ad5066399a8fd38875ef2a4f08a75439945f6f802bf2968',
    'surrogate-fail0.3-headroom0.85:layered-50/4': '450cd52afa71f7e4a7159f8e5fe52f38634343eb70275a7e3b09a143ddbae7d6',
    'analytical-tight:layered-50/4': 'f44721f1b29166f5859cf202238620fe8ddde0089fdf9cd1672ed6997c89b068',
    'surrogate-noise0.2-tight:layered-50/4': '1ae047d152bf2e0200b47e7fdbaa5dfce0476631a564c5a3fb695cd7bc61b298',
    'surrogate-fail0.3-headroom0.85-tight:layered-50/4': '9e3a5bdcd7e6a3099fa487c63ed37e2cee7c3da57b711a126786cb708c23addd',
    'analytical:cnn-like-40/4': '28c64c6529c328e0e7900070f72a7200976b1b25e8a8c9babb1615f13f4522e5',
    'surrogate-noise0.2:cnn-like-40/4': '3d5b5195a3d344a5f802bdedf05ee3f13a8c8179abef9818dd87c46e43064d32',
    'surrogate-fail0.3-headroom0.85:cnn-like-40/4': 'cbbcf6671475f338fb22c1e20b4721de7cadfbef6640ba970c336d713435521e',
    'analytical-tight:cnn-like-40/4': 'dbf6e06fc76b2dcb2f63e83e71eab514f5d7267a2826b87c2a4d154b6a228da7',
    'surrogate-noise0.2-tight:cnn-like-40/4': '89290ff9ddecbb483f263e2985db26fc1241ac646fa3eeca3a44da67e93b7602',
    'surrogate-fail0.3-headroom0.85-tight:cnn-like-40/4': '78aa15513180327941fcb38db65f0fb7b8ab8a7cec633ac83e94f302fdb1c721',
    'analytical:rnn-like-30/4': '19524ded1027f3191de3745d95772e28da667c4ae7825b29739e88d7957fcc0c',
    'surrogate-noise0.2:rnn-like-30/4': 'c76c336de59c451aa821fb4c9ceb6541e27b86f912210436d7e5d81b0c79969b',
    'surrogate-fail0.3-headroom0.85:rnn-like-30/4': 'eb30862e91bbc872ff25232c704ae04a9cad72585f72da8516b0a4e3dedd2646',
    'analytical-tight:rnn-like-30/4': '9e9050c825fcc09d6bf8d867eec1ee03e293cddcaff9434a24f13dada34b8612',
    'surrogate-noise0.2-tight:rnn-like-30/4': '80e0c4cd26af9ed7c9eebf6b57e01ce6fb122ea8287f8a794d7010a32e3ffc41',
    'surrogate-fail0.3-headroom0.85-tight:rnn-like-30/4': '445c47b94070c4cb572a0eadaa7ad0ed0345989e99e6e067d064c40f3b9bfd99',
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


STORED_PARTITIONS = Path(__file__).parent / "data" / "golden_partitions.json"


def _scored_partitions(g, topo, name):
    """The stored partitions of case ``name`` plus random assignments."""
    stored = json.loads(STORED_PARTITIONS.read_text())[name]
    parts = [np.array([int(ch) for ch in digits], dtype=np.int64) for digits in stored]
    rng = np.random.default_rng(0)
    parts += [rng.integers(0, topo.num_chips, size=g.num_nodes) for _ in range(10)]
    return parts


def evaluator_digests() -> dict:
    out = {}
    for case in FINISHING:
        g, topo = _case(*case)
        parts = _scored_partitions(g, topo, _name(*case))
        # three times a chip's even share of the resident bytes: some partitions fit, some overflow
        share = int((g.param_bytes + g.output_bytes).sum()) // topo.num_chips
        tight = ChipTopology(num_chips=topo.num_chips, sram_bytes_per_chip=3 * share)
        for sram, t in (("", topo), ("-tight", tight)):
            scorers = {"analytical": lambda a: analytical_eval(g, t, a)}
            for name, cfg in SURROGATES.items():
                scorers[f"surrogate-{name}"] = lambda a, cfg=cfg: surrogate_eval(g, t, a, cfg)
            for name, score in scorers.items():
                h = hashlib.sha256()
                for a in parts:
                    h.update(score(a).to_json().encode())
                out[f"{name}{sram}:{_name(*case)}"] = h.hexdigest()
    return out


def test_fixed_seed_outputs_match_golden_digests():
    assert golden_digests() == GOLDEN


def test_evaluator_outputs_match_golden_digests():
    assert evaluator_digests() == EVAL_GOLDEN


if __name__ == "__main__":
    for key, value in golden_digests().items():
        print(f"    {key!r}: {value!r},")
    print()
    for key, value in evaluator_digests().items():
        print(f"    {key!r}: {value!r},")
