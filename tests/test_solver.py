import copy
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
from mcmpart import solver as solver_mod
from mcmpart.kernels import clash_free, mask_to_values, propagate
from mcmpart.solver import RESTART_FAILURES, _luby, _sample_from_mask

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
    s.set_domain(2, 2)
    assert s.get_domain(2) == (2,)


def test_chain_upper_bound_propagates(topo2):
    # edge 0 -> 1 and chip(1) = 0 force chip(0) = 0
    g = make_graph(2, [(0, 1)])
    s = ConstraintSolver(g, topo2)
    s.set_domain(1, 0)
    assert s.get_domain(0) == (0,)


def test_chain_decision_with_no_completion_backtracks(topo3):
    # chain 0 -> 1 -> 2 with chip(0) = 1: every later node sits >= 1, leaving
    # chip 0 permanently empty, so there is no valid completion at all.
    g = make_graph(3, [(0, 1), (1, 2)])
    assert brute_force_completions(g, 3, {0: 1})[0] == set()
    s = ConstraintSolver(g, topo3)
    i = s.set_domain(0, 1)
    assert i == 0  # decision undone
    assert 1 not in s.get_domain(0)
    # the surviving state still covers every truly achievable value
    comp = brute_force_completions(g, 3, {})
    for u in range(3):
        assert comp[u] <= set(s.get_domain(u))


def test_diamond_propagation_matches_brute_force(diamond, topo3):
    s = ConstraintSolver(diamond, topo3)
    i = s.set_domain(1, 0)
    assert i == 1
    assert s.get_domain(0) == (0,)  # 0 -> 1 forces chip(0) <= 0
    i = s.set_domain(2, 2)
    # placing node 2 on chip 2 leaves chip 1 uncoverable: brute force agrees
    assert brute_force_completions(diamond, 3, {1: 0, 2: 2})[0] == set()
    comp = brute_force_completions(diamond, 3, {1: 0})
    for u in range(4):
        assert comp[u] <= set(s.get_domain(u))


def test_set_domain_singleton_outside_domain_rejected(chain3, topo2):
    s = ConstraintSolver(chain3, topo2)
    s.set_domain(2, 0)  # forces everything to chip 0
    with pytest.raises(InvalidConfigError):
        s.set_domain(0, 1)


def test_failed_decision_is_undone_by_its_trail_entry(rng):
    # propagate prunes in place and leaves a wiped-out state half pruned, so
    # a failed decision is undone from the copies on its trail entry alone:
    # the state after it equals the state before it with the failed chip
    # pruned
    undone = 0
    for k in range(40):
        g = generate_synthetic(GeneratorConfig(FAMILIES[k % 5], int(rng.integers(4, 16)), seed=k, skip_prob=0.9))
        c = int(rng.integers(2, 6))
        s = ConstraintSolver(g, ChipTopology(num_chips=c))
        while (live := [u for u in range(g.num_nodes) if len(s.get_domain(u)) > 1]):
            u = live[rng.integers(0, len(live))]
            chip = s.get_domain(u)[rng.integers(0, len(s.get_domain(u)))]
            dom, chip_edges, count = s._dom.copy(), s._chip_edges.copy(), s.decided_count
            try:
                got = s.set_domain(u, chip)
            except InfeasibleError:
                break
            if got == count:  # this decision failed and its alternative held
                dom[u] &= ~(1 << chip)
                assert propagate(dom, g.preds, g.succs, c, (u,), chip_edges) == 0
                assert (s._dom, s._chip_edges) == (dom, chip_edges), (k, u, chip)
                undone += 1
    assert undone >= 20, undone


def test_decided_count_tracks_trail(chain4, topo2):
    s = ConstraintSolver(chain4, topo2)
    assert s.set_domain(0, 0) == 1
    assert s.set_domain(1, 0) == 2
    assert s.set_domain(2, 1) == 3


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
        solve_sample(chain4, topo2, uniform_distribution(4, 2), np.random.default_rng(0), max_decisions=0)


def tuple_sample_from_mask(probs, mask, rng):
    """The draw as it stood when it built the allowed chips and their
    weights as sequences: the reference for the bit walk."""
    allowed = mask_to_values(mask)
    if len(allowed) == 1:
        return allowed[0]
    weights = [probs[v] for v in allowed]
    total = sum(weights)
    if not 0.0 < total < float("inf"):
        return allowed[rng.integers(0, len(allowed))]
    r = rng.random() * total
    for v, w in zip(allowed, weights):
        r -= w
        if r < 0.0:
            return v
    return allowed[-1]


def test_sample_from_mask_matches_tuple_draw():
    # Same chip and same generator state after every draw, for every mask
    # of up to six chips, on uniform, peaked, zero-mass and infinite-mass
    # rows and on rows whose weights do not sum to 1 in floating point.
    draws = 0
    for c in range(1, 7):
        gen = np.random.default_rng(c)
        rows = [[1.0 / c] * c, [0.0] * c, [float("inf")] + [1.0 / c] * (c - 1), [0.1] * c]
        rows += [np.eye(c)[k].tolist() for k in range(c)]
        rows += [[1.0 - 1e-9 * (c - 1)] + [1e-9] * (c - 1), gen.dirichlet([0.2] * c).tolist()]
        for probs, mask in itertools.product(rows, range(1, 1 << c)):
            old, new = np.random.default_rng(mask), np.random.default_rng(mask)
            for _ in range(8):
                assert _sample_from_mask(probs, mask, new) == tuple_sample_from_mask(probs, mask, old), (probs, mask)
                assert new.bit_generator.state == old.bit_generator.state, (probs, mask)
                draws += 1
    assert draws > 10_000, draws


def _stall_every_decision(monkeypatch):
    """Make every decision a no-op that reports a backtrack, so that every
    decision fails and no attempt can finish; returns the decisions each
    solver built was asked for, one entry per attempt."""
    per_attempt = []
    init = ConstraintSolver.__init__

    def counting_init(self, *args):
        per_attempt.append(0)
        init(self, *args)

    def stalled_set_domain(self, u, chip):
        per_attempt[-1] += 1
        return 0

    monkeypatch.setattr(ConstraintSolver, "__init__", counting_init)
    monkeypatch.setattr(ConstraintSolver, "set_domain", stalled_set_domain)
    return per_attempt


def _luby_caps(unit, total):
    """Attempt k may spend unit * luby(k) failed decisions, within what is
    left of ``total`` decisions; a stalled decision always fails."""
    caps = [min(unit, total)]
    while sum(caps) < total:
        caps.append(min(unit * _luby(len(caps) + 1), total - sum(caps)))
    return caps


def _record_failures(monkeypatch):
    """Record, per attempt, how many of its decisions backtracked."""
    per_attempt = []
    init, set_domain = ConstraintSolver.__init__, ConstraintSolver.set_domain

    def counting_init(self, *args):
        per_attempt.append(0)
        init(self, *args)

    def counting_set_domain(self, u, chip):
        before = self.decided_count
        got = set_domain(self, u, chip)
        per_attempt[-1] += got <= before
        return got

    monkeypatch.setattr(ConstraintSolver, "__init__", counting_init)
    monkeypatch.setattr(ConstraintSolver, "set_domain", counting_set_domain)
    return per_attempt


def _suite_case(family, nodes, chips, skip_prob=0.25):
    g = generate_synthetic(GeneratorConfig(family, nodes, seed=1, skip_prob=skip_prob))
    return g, ChipTopology(num_chips=chips)


# (solver, target, source tag) on chain4
SOLVERS = [
    (solve_sample, uniform_distribution(4, 2), "sampled"),
    (solve_fix, np.array([0, 0, 1, 1]), "repaired"),
]


def test_luby_sequence():
    assert [_luby(k) for k in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


@pytest.mark.parametrize("max_decisions", [0, 3, 15, 40])
@pytest.mark.parametrize("solve, target, tag", SOLVERS)
def test_budget_runs_out_in_every_restart(monkeypatch, chain4, topo2, solve, target, tag, max_decisions):
    # the attempts share max_decisions decisions, each up to its Luby cap
    # of failed decisions
    per_attempt = _stall_every_decision(monkeypatch)
    with pytest.raises(StepBudgetError, match=f"spent all {max_decisions} decisions in .* for a {tag} partition"):
        solve(chain4, topo2, target, np.random.default_rng(0), max_decisions=max_decisions)
    assert per_attempt == _luby_caps(RESTART_FAILURES, max_decisions)


@pytest.mark.parametrize("solve, target, tag", SOLVERS)
def test_default_budget_totals_1024_decisions_per_node(monkeypatch, chain4, topo2, solve, target, tag):
    per_attempt = _stall_every_decision(monkeypatch)
    attempts = len(_luby_caps(RESTART_FAILURES, 4096))
    with pytest.raises(StepBudgetError, match=f"spent all 4096 decisions in {attempts} attempts for a {tag} partition"):
        solve(chain4, topo2, target, np.random.default_rng(0))
    assert per_attempt == _luby_caps(RESTART_FAILURES, 1024 * 4)


@pytest.mark.parametrize("max_decisions", [-1, 2.5, True, np.True_, "3", 4.0])
@pytest.mark.parametrize("solve, target, tag", SOLVERS)
def test_bad_max_decisions_rejected(chain4, topo2, solve, target, tag, max_decisions):
    with pytest.raises(InvalidConfigError, match="max_decisions"):
        solve(chain4, topo2, target, np.random.default_rng(0), max_decisions=max_decisions)


@pytest.mark.parametrize("solve, target, tag", SOLVERS)
def test_numpy_integer_max_decisions_accepted(chain4, topo2, solve, target, tag):
    assert check_static(chain4, solve(chain4, topo2, target, np.random.default_rng(0), max_decisions=np.int64(64)), 2).ok


def test_attempt_that_never_backtracks_is_not_cut(monkeypatch):
    # Decisions on rnn-like-30/4 almost never backtrack, so each sample
    # finishes in its first attempt however many decisions it takes.  A cap
    # of ceil(N/2) decisions per unit made 2.34 attempts per sample here.
    g, topo = _suite_case("rnn-like", 30, 4)
    per_attempt = _record_failures(monkeypatch)
    for seed in range(50):
        per_attempt.clear()
        solve_sample(g, topo, uniform_distribution(30, 4), np.random.default_rng(seed))
        assert len(per_attempt) == 1 and per_attempt[0] < RESTART_FAILURES, (seed, per_attempt)


def test_abandoned_attempts_end_at_their_failure_cap(monkeypatch):
    # every attempt but the last ends at exactly RESTART_FAILURES * luby(k)
    # failed decisions; the last one returns a partition or spends what is
    # left of the budget
    g, topo = _suite_case("random-dag", 40, 6)
    P = uniform_distribution(40, 6)
    per_attempt = _record_failures(monkeypatch)
    restarts = budget_errors = 0
    for seed in range(30):
        per_attempt.clear()
        try:
            solve_sample(g, topo, P, np.random.default_rng(seed), max_decisions=None if seed % 3 else 60)
        except StepBudgetError:
            budget_errors += 1
            assert per_attempt[-1] <= RESTART_FAILURES * _luby(len(per_attempt)), seed
        else:
            assert per_attempt[-1] < RESTART_FAILURES * _luby(len(per_attempt)), seed
        assert per_attempt[:-1] == [RESTART_FAILURES * _luby(k) for k in range(1, len(per_attempt))], seed
        restarts += len(per_attempt) - 1
    assert restarts >= 20 and budget_errors >= 3, (restarts, budget_errors)


def test_clash_free_sees_a_clash_that_two_new_edges_form(topo3):
    # a on chip 0 feeds b on chip 2 directly and through u; node w can
    # cover chip 1.  u on chip 1 adds the chip edges 0 -> 1 and 1 -> 2,
    # neither of which clashes alone, but together they run a path beside
    # the direct edge 0 -> 2.
    a, b, u, w = range(4)
    g = make_graph(4, [(a, b), (a, u), (u, b)])
    s = ConstraintSolver(g, topo3)
    s.set_domain(a, 0)
    s.set_domain(b, 2)
    assert s.get_domain(u) == (0, 1, 2) and s.get_domain(w) == (0, 1, 2)
    assert mask_to_values(s.draw_mask(u)) == (0, 2)
    assert mask_to_values(s.draw_mask(w)) == (0, 1, 2)
    assert s.set_domain(u, 1) == 2 and s.get_domain(u) == (0, 2)


def test_draw_mask_falls_back_to_the_domain(monkeypatch, chain4, topo2):
    # when every chip would be dropped, the node draws from its whole
    # domain, so the refutation and backtrack happen as without the test
    monkeypatch.setattr(solver_mod, "clash_free", lambda *args: 0)
    s = ConstraintSolver(chain4, topo2)
    assert [s.draw_mask(u) for u in range(4)] == s._dom


def test_clash_free_drops_only_refuted_chips(rng):
    # Every chip that the joint rule-3 test drops from a node's draw mask
    # makes set_domain backtrack when it is decided, in every state a run
    # of random decisions reaches on small graphs.
    dropped = 0
    for k in range(40):
        g = generate_synthetic(GeneratorConfig(FAMILIES[k % 5], int(rng.integers(6, 16)), seed=k, skip_prob=(0.25, 0.9)[k // 5 % 2]))
        c = int(rng.integers(3, 7))
        s = ConstraintSolver(g, ChipTopology(num_chips=c))
        while (live := [u for u in range(g.num_nodes) if len(s.get_domain(u)) > 1]):
            for u in live:
                keep = clash_free(s._dom, g.preds, g.succs, c, u, s._chip_edges)
                assert keep | s._dom[u] == s._dom[u]
                for chip in mask_to_values(s._dom[u] & ~keep):
                    trial = copy.deepcopy(s, {id(g): g, id(s.topo): s.topo})
                    before = trial.decided_count
                    try:
                        assert trial.set_domain(u, chip) <= before, (k, u, chip)
                    except InfeasibleError:
                        pass
                    dropped += 1
            u = live[rng.integers(0, len(live))]
            chips = s.get_domain(u)
            try:
                s.set_domain(u, chips[rng.integers(0, len(chips))])
            except InfeasibleError:
                break
    assert dropped >= 100, dropped


# Total decisions of solve_sample over seeds 0-19 (uniform P, seed-1 suite
# graphs).  Counts, not times, so wasted work shows on any machine: with
# restarts after ceil(N/2) * luby(k) decisions, rnn-like-30/4 made 691 and
# random-dag-40/6 2,288; without the draw mask, random-dag-40/6 made 4,922
# (5,138 without either).
WORK_GUARD = {("random-dag", 40, 6): 1857, ("rnn-like", 30, 4): 331}


@pytest.mark.parametrize("case", sorted(WORK_GUARD))
def test_sample_decisions_pinned(monkeypatch, case):
    g, topo = _suite_case(*case)
    decisions = [0]
    set_domain = ConstraintSolver.set_domain

    def counting_set_domain(self, u, chip):
        decisions[0] += 1
        return set_domain(self, u, chip)

    monkeypatch.setattr(ConstraintSolver, "set_domain", counting_set_domain)
    P = uniform_distribution(g.num_nodes, topo.num_chips)
    for seed in range(20):
        solve_sample(g, topo, P, np.random.default_rng(seed))
    assert decisions[0] == WORK_GUARD[case]


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
            i = solver.set_domain(u, dom[rng.integers(0, len(dom))])
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
