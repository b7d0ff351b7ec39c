"""Every import site the layered benchmark wraps must exist in the program.

``perfbench/run.py --trace 1`` wraps each ``workloads.LAYER_SITES`` entry
and exits 1 on a missing one; this test makes a refactor that drops or
renames a site fail here instead.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from spans import _resolve  # noqa: E402


@pytest.mark.parametrize("site", workloads.LAYER_SITES, ids=lambda s: f"{s.module}.{s.attr}")
def test_layer_site_resolves(site):
    owner, leaf = _resolve(site.module, site.attr)
    assert callable(owner.__dict__[leaf])


def test_evaluator_built_before_the_wrap_reaches_it(monkeypatch):
    # The benchmark builds its evaluator first and then wraps
    # mcmpart.evaluator.analytical_eval; the evaluator must resolve the name
    # at call time or the "evaluator" layer stays empty.
    from mcmpart import ChipTopology, GeneratorConfig, evaluator, generate_synthetic
    from mcmpart.search import greedy_heuristic

    ev = evaluator.make_analytical()
    calls = []
    real = evaluator.analytical_eval

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluator, "analytical_eval", counted)
    g = generate_synthetic(GeneratorConfig("chain", 6, seed=0))
    topo = ChipTopology(num_chips=2)
    assert ev(g, topo, greedy_heuristic(g, topo)).valid
    assert len(calls) == 1
