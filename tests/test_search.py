import numpy as np
import pytest

import mcmpart.search
import mcmpart.solver
from mcmpart import ChipTopology, GeneratorConfig, analytical_eval, check_static, enumerate_valid, generate_synthetic
from mcmpart.errors import InvalidConfigError
from mcmpart.evaluator import make_analytical
from mcmpart.generate import FAMILIES
from mcmpart.search import (
    SaConfig,
    SearchBudget,
    greedy_heuristic,
    metropolis_accept,
    random_search,
    simulated_annealing,
)

from conftest import make_graph


def oracle_best(g, topo):
    ev = make_analytical()
    return max(
        (ev(g, topo, p).throughput for p in enumerate_valid(g, topo) if ev(g, topo, p).valid),
        default=0.0,
    )


# ---- greedy ----------------------------------------------------------------


def test_greedy_balanced_chain():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)], costs=[1.0, 1.0, 1.0, 1.0])
    p = greedy_heuristic(g, ChipTopology(num_chips=2))
    assert p.assignment.tolist() == [0, 0, 1, 1]
    assert p.source == "heuristic"


def test_greedy_single_chip():
    g = generate_synthetic(GeneratorConfig("layered", 9, seed=0))
    p = greedy_heuristic(g, ChipTopology(num_chips=1))
    assert p.assignment.tolist() == [0] * 9


def test_greedy_single_node_many_chips():
    g = make_graph(1, [])
    p = greedy_heuristic(g, ChipTopology(num_chips=4))
    assert p.assignment.tolist() == [0]


def test_greedy_always_valid_including_skip_heavy_graphs():
    # cnn-like graphs carry long skip edges that can break naive block
    # splits; the heuristic must still return a valid partition
    for seed in range(12):
        g = generate_synthetic(GeneratorConfig("cnn-like", 26, seed=seed, skip_prob=0.9))
        topo = ChipTopology(num_chips=5)
        p = greedy_heuristic(g, topo)
        assert check_static(g, p, 5).ok


@pytest.mark.parametrize("skip_prob", [0.25, 0.9])
def test_greedy_is_valid_without_the_solver(monkeypatch, skip_prob):
    def no_solver(*args, **kwargs):
        raise AssertionError("greedy called the solver")

    for name in ("solve_fix", "solve_sample"):
        monkeypatch.setattr(mcmpart.search, name, no_solver)
    monkeypatch.setattr(mcmpart.solver.ConstraintSolver, "__init__", no_solver)
    for seed, family in enumerate(FAMILIES * 4):
        g = generate_synthetic(GeneratorConfig(family, 10 + 3 * seed, seed=seed, skip_prob=skip_prob))
        c = 2 + seed % 7
        p = greedy_heuristic(g, ChipTopology(num_chips=c))
        assert p.source == "heuristic"
        assert check_static(g, p, c).ok


def test_greedy_deterministic():
    g = generate_synthetic(GeneratorConfig("cnn-like", 30, seed=3, skip_prob=0.8))
    topo = ChipTopology(num_chips=4)
    a = greedy_heuristic(g, topo)
    b = greedy_heuristic(g, topo)
    assert a.assignment.tolist() == b.assignment.tolist()


# ---- random search ---------------------------------------------------------


def test_random_search_single_chip_budget_one():
    g = generate_synthetic(GeneratorConfig("chain", 5, seed=1))
    trace = random_search(g, ChipTopology(num_chips=1), make_analytical(), SearchBudget(max_samples=1, seed=0))
    assert trace.num_samples == 1
    assert trace.best_partition.assignment.tolist() == [0] * 5


def test_random_search_reaches_oracle_optimum():
    g = generate_synthetic(GeneratorConfig("layered", 6, seed=21))
    topo = ChipTopology(num_chips=3)
    best = oracle_best(g, topo)
    trace = random_search(g, topo, make_analytical(), SearchBudget(max_samples=800, seed=3))
    assert trace.best_throughput == pytest.approx(best, abs=1e-9)


def test_random_search_deterministic():
    g = generate_synthetic(GeneratorConfig("random-dag", 10, seed=2))
    topo = ChipTopology(num_chips=3)
    a = random_search(g, topo, make_analytical(), SearchBudget(max_samples=50, seed=9))
    b = random_search(g, topo, make_analytical(), SearchBudget(max_samples=50, seed=9))
    assert a.throughput == b.throughput
    assert a.best == b.best
    assert a.best_partition.assignment.tolist() == b.best_partition.assignment.tolist()


# ---- simulated annealing ---------------------------------------------------


def test_metropolis_zero_temperature_accepts_only_improvements():
    rng = np.random.default_rng(0)
    assert metropolis_accept(0.0, 0.0, rng)
    assert metropolis_accept(0.5, 0.0, rng)
    assert not any(metropolis_accept(-1e-9, 0.0, rng) for _ in range(100))


def test_metropolis_accept_rate_matches_boltzmann():
    rng = np.random.default_rng(1)
    hits = sum(metropolis_accept(-0.5, 1.0, rng) for _ in range(4000))
    assert hits / 4000 == pytest.approx(np.exp(-0.5), abs=0.03)


def test_sa_reaches_oracle_optimum():
    g = generate_synthetic(GeneratorConfig("layered", 6, seed=21))
    topo = ChipTopology(num_chips=3)
    best = oracle_best(g, topo)
    trace = simulated_annealing(g, topo, make_analytical(), SearchBudget(max_samples=800, seed=4))
    assert trace.best_throughput == pytest.approx(best, abs=1e-9)


def test_sa_deterministic():
    g = generate_synthetic(GeneratorConfig("cnn-like", 12, seed=5))
    topo = ChipTopology(num_chips=3)
    a = simulated_annealing(g, topo, make_analytical(), SearchBudget(max_samples=40, seed=6))
    b = simulated_annealing(g, topo, make_analytical(), SearchBudget(max_samples=40, seed=6))
    assert a.throughput == b.throughput


def test_sa_full_mutation_always_accept_matches_random_search_distribution():
    # redrawing every row each step with acceptance forced on samples
    # partitions with the same law as uniform random search: compare the
    # per-sample throughput distributions of the two traces
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)], costs=[1.0, 2.0, 3.0, 4.0])
    topo = ChipTopology(num_chips=2)
    ev = make_analytical()
    n_samples = 4000

    rs = random_search(g, topo, ev, SearchBudget(max_samples=n_samples, seed=11))
    cfg = SaConfig(init_temp=1e9, cooling_rate=1.0, mutation_fraction=1.0)
    sa = simulated_annealing(g, topo, ev, SearchBudget(max_samples=n_samples, seed=12), cfg)

    values = sorted(set(rs.throughput) | set(sa.throughput))
    rs_hist = np.array([rs.throughput.count(v) for v in values]) / n_samples
    sa_hist = np.array([sa.throughput.count(v) for v in values]) / n_samples
    tv = 0.5 * np.abs(rs_hist - sa_hist).sum()
    assert tv < 0.05


def test_sa_mutation_fraction_validation():
    with pytest.raises(InvalidConfigError):
        SaConfig(mutation_fraction=0.0)
    with pytest.raises(InvalidConfigError):
        SaConfig(mutation_fraction=1.5)


# ---- trace invariants ------------------------------------------------------


def test_trace_best_monotone_and_consistent():
    g = generate_synthetic(GeneratorConfig("random-dag", 12, seed=8))
    topo = ChipTopology(num_chips=4)
    trace = simulated_annealing(g, topo, make_analytical(), SearchBudget(max_samples=120, seed=0))
    assert all(b2 >= b1 for b1, b2 in zip(trace.best, trace.best[1:]))
    assert trace.best[-1] == max(trace.throughput)
    ev = make_analytical()
    assert ev(g, topo, trace.best_partition).throughput == pytest.approx(trace.best[-1])


def test_trace_rows_one_based():
    g = generate_synthetic(GeneratorConfig("chain", 4, seed=1))
    trace = random_search(g, ChipTopology(num_chips=2), make_analytical(), SearchBudget(max_samples=3, seed=0))
    rows = list(trace.rows())
    assert [r[0] for r in rows] == [1, 2, 3]
    assert all(r[3] in (0, 1) for r in rows)


def test_search_budget_validation():
    with pytest.raises(InvalidConfigError):
        SearchBudget(max_samples=0)
