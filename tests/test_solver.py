import itertools

import numpy as np
import pytest

from mcmpart import (
    ChipTopology,
    ConstraintSolver,
    GeneratorConfig,
    Partition,
    check_static,
    enumerate_valid,
    generate_synthetic,
    solve_fix,
    solve_sample,
    uniform_distribution,
)
from mcmpart.errors import InfeasibleError, InvalidConfigError, LimitExceededError, StepBudgetError
from mcmpart.generate import FAMILIES
from mcmpart.solver import MAX_RESTARTS, STEP_BUDGET_FACTOR, _luby

from conftest import make_graph


def brute_force_completions(g, c, fixed):
    """Chip sets achievable per node over all valid completions of ``fixed``."""
    n = g.num_nodes
    comp = {u: set() for u in range(n)}
    for combo in itertools.product(range(c), repeat=n):
        if any(combo[u] != v for u, v in fixed.items()):
            continue
        if check_static(g, np.array(combo, dtype=np.int64), c).ok:
            for u in range(n):
                comp[u].add(combo[u])
    return comp


# ---- init_solver -----------------------------------------------------------


def test_init_full_domains_chain(chain3, topo2):
    s = ConstraintSolver(chain3, topo2)
    assert all(s.get_domain(u) == (0, 1) for u in range(3))
    assert s.decided_count == 0


def test_init_single_chip(diamond):
    s = ConstraintSolver(diamond, ChipTopology(num_chips=1))
    assert all(s.get_domain(u) == (0,) for u in range(4))


def test_init_empty_graph():
    g = make_graph(0, [])
    s = ConstraintSolver(g, ChipTopology(num_chips=3))
    assert s.decided_count == 0


def test_init_caps_domains_at_node_count():
    # a node on chip v needs v earlier chips occupied, so v < N always
    g = make_graph(2, [(0, 1)])
    s = ConstraintSolver(g, ChipTopology(num_chips=6))
    assert s.get_domain(0) == (0, 1)
    assert s.get_domain(1) == (0, 1)


# ---- get_domain / set_domain ----------------------------------------------


def test_get_domain_fresh():
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    s = ConstraintSolver(g, ChipTopology(num_chips=4))
    assert s.get_domain(2) == (0, 1, 2, 3)


def test_get_domain_after_singleton():
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    s = ConstraintSolver(g, ChipTopology(num_chips=4))
    s.set_domain(2, (2,))
    assert s.get_domain(2) == (2,)


def test_chain_upper_bound_propagates(topo2):
    # edge 0 -> 1 and chip(1) = 0 force chip(0) = 0
    g = make_graph(2, [(0, 1)])
    s = ConstraintSolver(g, topo2)
    s.set_domain(1, (0,))
    assert s.get_domain(0) == (0,)


def test_chain_decision_with_no_completion_backtracks(topo3):
    # chain 0 -> 1 -> 2 with chip(0) = 1: every later node sits >= 1, leaving
    # chip 0 permanently empty, so there is no valid completion at all.
    g = make_graph(3, [(0, 1), (1, 2)])
    assert brute_force_completions(g, 3, {0: 1})[0] == set()
    s = ConstraintSolver(g, topo3)
    i = s.set_domain(0, (1,))
    assert i == 0  # decision undone
    assert 1 not in s.get_domain(0)
    # the surviving state still covers every truly achievable value
    comp = brute_force_completions(g, 3, {})
    for u in range(3):
        assert comp[u] <= set(s.get_domain(u))


def test_diamond_propagation_matches_brute_force(diamond, topo3):
    s = ConstraintSolver(diamond, topo3)
    i = s.set_domain(1, (0,))
    assert i == 1
    assert s.get_domain(0) == (0,)  # 0 -> 1 forces chip(0) <= 0
    i = s.set_domain(2, (2,))
    # placing node 2 on chip 2 leaves chip 1 uncoverable: brute force agrees
    assert brute_force_completions(diamond, 3, {1: 0, 2: 2})[0] == set()
    comp = brute_force_completions(diamond, 3, {1: 0})
    for u in range(4):
        assert comp[u] <= set(s.get_domain(u))


def test_set_domain_empty_values_backtracks(topo2):
    g = make_graph(2, [])  # independent nodes keep an alternative open
    s = ConstraintSolver(g, topo2)
    i = s.set_domain(0, (0,))
    assert i == 1
    i = s.set_domain(1, ())
    assert i == 0
    assert s.get_domain(0) == (1,)  # failed value removed, alternative kept


def test_set_domain_empty_exhausts_root(chain3, topo2):
    # chip(node0) = 0 is forced on a chain, so failing its only value proves
    # the branch unrecoverable
    s = ConstraintSolver(chain3, topo2)
    s.set_domain(0, (0,))
    with pytest.raises(InfeasibleError):
        s.set_domain(1, ())


def test_set_domain_empty_at_root_is_infeasible(chain3, topo2):
    s = ConstraintSolver(chain3, topo2)
    with pytest.raises(InfeasibleError):
        s.set_domain(0, ())


def test_set_domain_singleton_outside_domain_rejected(chain3, topo2):
    s = ConstraintSolver(chain3, topo2)
    s.set_domain(2, (0,))  # forces everything to chip 0
    with pytest.raises(InvalidConfigError):
        s.set_domain(0, (1,))


def test_set_domain_several_values_rejected(chain3, topo2):
    # a decision fixes one chip; narrowing a node to a set is not a decision
    s = ConstraintSolver(chain3, topo2)
    with pytest.raises(InvalidConfigError):
        s.set_domain(1, (0, 1))
    assert s.decided_count == 0 and s.get_domain(1) == (0, 1)


def test_decided_count_tracks_trail(chain4, topo2):
    s = ConstraintSolver(chain4, topo2)
    assert s.set_domain(0, (0,)) == 1
    assert s.set_domain(1, (0,)) == 2
    assert s.set_domain(2, (1,)) == 3


# ---- check_static ----------------------------------------------------------


def test_check_backward_edge_violation(topo2):
    # data flowing from chip 1 back to chip 0
    g = make_graph(2, [(0, 1)])
    report = check_static(g, np.array([1, 0]), 2)
    assert not report.ok and report.violation == "backward-edge"
    assert report.witness == (0, 1)


def test_check_skipped_chip_violation():
    # chips {0, 2} used while chip 1 stays empty
    g = make_graph(2, [(0, 1)])
    report = check_static(g, np.array([0, 2]), 3)
    assert not report.ok and report.violation == "skipped-chip"
    assert report.witness == (1,)


def test_check_triangle_violation():
    # direct chip edge 0 -> 2 coexisting with the path 0 -> 1 -> 2
    g = make_graph(4, [(0, 1), (1, 2), (0, 3), (3, 2)])
    assign = np.array([0, 0, 2, 1])  # edge 0->2? node2 on chip2; 0->3 chip0->1; 3->2 chip1->2; 1->2 chip0->2
    report = check_static(g, assign, 3)
    assert not report.ok and report.violation == "chip-dependency"


def test_check_unused_tail_chips_allowed():
    g = make_graph(2, [(0, 1)])
    assert check_static(g, np.array([0, 0]), 4).ok


def test_check_rejects_out_of_range_values():
    g = make_graph(2, [(0, 1)])
    with pytest.raises(InvalidConfigError):
        check_static(g, np.array([0, 5]), 2)


# ---- enumerate_valid -------------------------------------------------------


def test_enumerate_single_node():
    g = make_graph(1, [])
    parts = enumerate_valid(g, ChipTopology(num_chips=3))
    assert [p.assignment.tolist() for p in parts] == [[0]]


def test_enumerate_chain_two(topo2):
    g = make_graph(2, [(0, 1)])
    parts = enumerate_valid(g, topo2)
    assert sorted(p.assignment.tolist() for p in parts) == [[0, 0], [0, 1]]


def test_enumerate_empty_graph(topo2):
    g = make_graph(0, [])
    parts = enumerate_valid(g, topo2)
    assert len(parts) == 1 and parts[0].assignment.tolist() == []


def test_enumerate_limit():
    g = make_graph(10, [])
    with pytest.raises(LimitExceededError):
        enumerate_valid(g, ChipTopology(num_chips=4), limit=1000)


# ---- solve_sample ----------------------------------------------------------


def test_sample_single_chip_forced(diamond):
    topo = ChipTopology(num_chips=1)
    p = solve_sample(diamond, topo, uniform_distribution(4, 1), np.random.default_rng(0))
    assert p.assignment.tolist() == [0, 0, 0, 0]


def test_sample_support_matches_brute_force(chain4, topo2):
    valid = {tuple(p.assignment.tolist()) for p in enumerate_valid(chain4, topo2)}
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(5000):
        p = solve_sample(chain4, topo2, uniform_distribution(4, 2), rng)
        key = tuple(p.assignment.tolist())
        assert key in valid
        seen.add(key)
    assert seen == valid


def test_sample_concentrated_on_invalid_still_valid(chain4, topo2):
    P = np.zeros((4, 2))
    P[:, 1] = 1.0  # probability 1 on the all-ones assignment, which skips chip 0
    p = solve_sample(chain4, topo2, P, np.random.default_rng(5))
    assert check_static(chain4, p, 2).ok


def test_sample_rejects_bad_distribution(chain4, topo2):
    with pytest.raises(InvalidConfigError):
        solve_sample(chain4, topo2, np.ones((4, 2)), np.random.default_rng(0))


def test_sample_step_budget(chain4, topo2):
    with pytest.raises(StepBudgetError):
        solve_sample(chain4, topo2, uniform_distribution(4, 2), np.random.default_rng(0), step_budget=0)


def _stall_every_decision(monkeypatch):
    """Make every decision a no-op, so that no attempt can finish; returns
    the decisions each solver built was asked for, one entry per attempt."""
    per_attempt = []
    init = ConstraintSolver.__init__

    def counting_init(self, *args):
        per_attempt.append(0)
        init(self, *args)

    def stalled_set_domain(self, u, values):
        per_attempt[-1] += 1
        return 0

    monkeypatch.setattr(ConstraintSolver, "__init__", counting_init)
    monkeypatch.setattr(ConstraintSolver, "set_domain", stalled_set_domain)
    return per_attempt


def _luby_caps(unit, total):
    """Attempt k may spend unit * luby(k) decisions of what is left of ``total``."""
    caps = [min(unit, total)]
    while sum(caps) < total:
        caps.append(min(unit * _luby(len(caps) + 1), total - sum(caps)))
    return caps


# (solver, target, source tag) on chain4
SOLVERS = [
    (solve_sample, uniform_distribution(4, 2), "sampled"),
    (solve_fix, np.array([0, 0, 1, 1]), "repaired"),
]
UNIT = 2  # decisions in a unit of the restart schedule: ceil(N/2) on chain4


def test_luby_sequence():
    assert [_luby(k) for k in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


@pytest.mark.parametrize("step_budget", [0, 3])
@pytest.mark.parametrize("solve, target, tag", SOLVERS)
def test_budget_runs_out_in_every_restart(monkeypatch, chain4, topo2, solve, target, tag, step_budget):
    # the attempts share step_budget * max_restarts decisions, each up to its Luby cap
    per_attempt = _stall_every_decision(monkeypatch)
    total = 5 * step_budget
    with pytest.raises(StepBudgetError, match=f"spent all {total} decisions in .* for a {tag} partition"):
        solve(chain4, topo2, target, np.random.default_rng(0), step_budget=step_budget, max_restarts=5)
    assert per_attempt == _luby_caps(UNIT, total)


@pytest.mark.parametrize("solve, target, tag", SOLVERS)
def test_default_budget_totals_1024_decisions_per_node(monkeypatch, chain4, topo2, solve, target, tag):
    per_attempt = _stall_every_decision(monkeypatch)
    attempts = len(_luby_caps(UNIT, 4096))
    with pytest.raises(StepBudgetError, match=f"spent all 4096 decisions in {attempts} attempts for a {tag} partition"):
        solve(chain4, topo2, target, np.random.default_rng(0))
    assert STEP_BUDGET_FACTOR * MAX_RESTARTS == 1024
    assert per_attempt == _luby_caps(UNIT, 1024 * 4)


# ---- solve_fix -------------------------------------------------------------


def test_fix_identity_on_valid_inputs(rng):
    # Under any node order a valid candidate survives: propagation never
    # prunes a chip of a valid completion that agrees with the decisions so
    # far, so every node finds its candidate chip live.
    for family, skip, c in itertools.product(FAMILIES, (0.25, 0.9), range(1, 5)):
        g = generate_synthetic(GeneratorConfig(family, 5, seed=c, skip_prob=skip))
        topo = ChipTopology(num_chips=c)
        for p in enumerate_valid(g, topo):
            for _ in range(3):
                out = solve_fix(g, topo, p.assignment, rng)
                assert out.assignment.tolist() == p.assignment.tolist(), (family, skip, c)


def test_fix_chain_two_flips_one_coordinate(topo2):
    # candidate [1, 0] breaks the edge rule; [0, 0] is the only valid repair
    # at Hamming distance 1 ([1, 1] would leave chip 0 empty)
    g = make_graph(2, [(0, 1)])
    outcomes = set()
    for seed in range(40):
        out = solve_fix(g, topo2, np.array([1, 0]), np.random.default_rng(seed))
        assert check_static(g, out, 2).ok
        assert out.assignment[0] <= out.assignment[1]
        changed = int(out.assignment[0] != 1) + int(out.assignment[1] != 0)
        assert changed == 1
        outcomes.add(tuple(out.assignment.tolist()))
    assert outcomes == {(0, 0)}


def test_fix_single_chip(diamond):
    topo = ChipTopology(num_chips=1)
    out = solve_fix(diamond, topo, np.zeros(4, dtype=np.int64), np.random.default_rng(0))
    assert out.assignment.tolist() == [0, 0, 0, 0]


def test_fix_rejects_out_of_range_candidate(chain4, topo2):
    with pytest.raises(InvalidConfigError):
        solve_fix(chain4, topo2, np.array([0, 0, 0, 9]), np.random.default_rng(0))


# ---- cross-checks ----------------------------------------------------------


def test_solver_outputs_always_pass_independent_check(rng):
    fams = ["chain", "layered", "random-dag", "cnn-like", "rnn-like"]
    for k in range(60):
        g = generate_synthetic(GeneratorConfig(fams[k % 5], int(rng.integers(2, 15)), seed=k))
        c = int(rng.integers(1, 5))
        topo = ChipTopology(num_chips=c)
        p = solve_sample(g, topo, uniform_distribution(g.num_nodes, c), rng)
        assert check_static(g, p, c).ok
        q = solve_fix(g, topo, rng.integers(0, c, g.num_nodes), rng)
        assert check_static(g, q, c).ok


def test_propagation_never_prunes_reachable_values(rng):
    # after every decision, each domain covers that node's brute-force
    # completion set for the surviving decision prefix
    fams = ["chain", "layered", "random-dag", "cnn-like", "rnn-like"]
    for k in range(10):
        n = int(rng.integers(3, 6))
        c = int(rng.integers(2, 4))
        g = generate_synthetic(GeneratorConfig(fams[k % 5], n, seed=100 + k))
        solver = ConstraintSolver(g, ChipTopology(num_chips=c))
        order = rng.permutation(n)
        i = 0
        guard = 0
        while i < n and guard < 64 * n:
            guard += 1
            u = int(order[i])
            dom = solver.get_domain(u)
            i = solver.set_domain(u, (dom[rng.integers(0, len(dom))],))
            fixed = {int(order[j]): solver.get_domain(int(order[j]))[0] for j in range(i)}
            comp = brute_force_completions(g, c, fixed)
            for node in range(n):
                assert comp[node] <= set(solver.get_domain(node))


def test_partition_json_roundtrip():
    p = Partition(np.array([0, 0, 1]), source="repaired", valid=True)
    q = Partition.from_json(p.to_json())
    assert q.assignment.tolist() == [0, 0, 1]
    assert q.source == "repaired"
    assert q.valid is True
