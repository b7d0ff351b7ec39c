import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcmpart import (
    ChipTopology, ComputationGraph, DataEdge, GeneratorConfig, OpNode,
    generate_synthetic, solve_fix, solve_sample, uniform_distribution,
)
from mcmpart import kernels as kern
from mcmpart import solver as solver_mod
from mcmpart.errors import InfeasibleError, InvalidConfigError, StepBudgetError
from mcmpart.generate import FAMILIES


def _dom_min(mask):
    b = 0
    while (mask >> b) & 1 == 0:
        b += 1
    return b


def _dom_max(mask):
    b = kern.MAX_CHIPS
    while (mask >> b) & 1 == 0:
        b -= 1
    return b


def reference_propagate(dom, edge_src, edge_dst, num_chips):
    """Slow reference fixpoint: sweep the rules in edge order until stable.

    The propagation kernel as it stood before the two-pass rewrite: same
    rules and return codes, applied one edge and one chip at a time, with
    the chip dependency closure as an explicit longest-path table.
    """
    n = dom.shape[0]
    ne = edge_src.shape[0]
    while True:
        changed = False

        # Every edge (u, v) forces min(dom[v]) >= min(dom[u]) and
        # max(dom[u]) <= max(dom[v]); sweep edges until stable.
        sweep = True
        while sweep:
            sweep = False
            for e in range(ne):
                u = edge_src[e]
                v = edge_dst[e]
                du = dom[u]
                dv = dom[v]
                lo = _dom_min(du)
                ndv = dv & ~((1 << lo) - 1)
                if ndv != dv:
                    if ndv == 0:
                        return 1
                    dom[v] = ndv
                    dv = ndv
                    sweep = True
                hi = _dom_max(dv)
                ndu = du & ((1 << (hi + 1)) - 1)
                if ndu != du:
                    if ndu == 0:
                        return 1
                    dom[u] = ndu
                    sweep = True

        # Some node is forced onto a chip >= m_bound, so every chip below
        # m_bound must stay coverable; a unique coverer is forced onto it.
        m_bound = 0
        for i in range(n):
            lo = _dom_min(dom[i])
            if lo > m_bound:
                m_bound = lo
        for c in range(m_bound):
            bit = 1 << c
            cnt = 0
            last = -1
            for i in range(n):
                if dom[i] & bit:
                    cnt += 1
                    last = i
                    if cnt > 1:
                        break
            if cnt == 0:
                return 1
            if cnt == 1 and dom[last] != bit:
                dom[last] = bit
                changed = True

        if changed:
            continue

        # Chip dependency graph over committed nodes (singleton domains).
        direct = np.zeros((num_chips, num_chips), np.bool_)
        ndirect = 0
        for e in range(ne):
            du = dom[edge_src[e]]
            dv = dom[edge_dst[e]]
            if du & (du - 1) == 0 and dv & (dv - 1) == 0:
                a = _dom_min(du)
                c = _dom_min(dv)
                if a != c and not direct[a, c]:
                    direct[a, c] = True
                    ndirect += 1

        if ndirect > 0:
            # Longest committed path between chips; chip edges only go
            # low -> high here, so a per-source forward scan suffices.
            delta = np.full((num_chips, num_chips), -1, np.int64)
            for a in range(num_chips):
                delta[a, a] = 0
                for x in range(a + 1, num_chips):
                    best = -1
                    for y in range(a, x):
                        if direct[y, x] and delta[a, y] >= 0:
                            if delta[a, y] + 1 > best:
                                best = delta[a, y] + 1
                    delta[a, x] = best

            # A committed direct edge shadowed by a longer committed path is
            # already unrecoverable.
            for a in range(num_chips):
                for c in range(a + 1, num_chips):
                    if direct[a, c] and delta[a, c] >= 2:
                        return 1

            # Direct chip edges as flat lists for the look-ahead below.
            dxs = np.empty(ndirect, np.int64)
            dys = np.empty(ndirect, np.int64)
            k = 0
            for a in range(num_chips):
                for c in range(a + 1, num_chips):
                    if direct[a, c]:
                        dxs[k] = a
                        dys[k] = c
                        k += 1

            # bad[p, q]: adding direct chip edge (p, q) would stretch some
            # existing direct edge (x, y) into a >= 2 path x..p -> q..y.
            bad = np.zeros((num_chips, num_chips), np.bool_)
            for p in range(num_chips):
                for q in range(num_chips):
                    if p == q:
                        continue
                    for d in range(ndirect):
                        x = dxs[d]
                        y = dys[d]
                        if delta[x, p] >= 0 and delta[q, y] >= 0 and delta[x, p] + 1 + delta[q, y] >= 2:
                            bad[p, q] = True
                            break

            # Look-ahead on edges with exactly one committed endpoint: a
            # candidate chip that provably breaks the rule is dropped.
            for e in range(ne):
                u = edge_src[e]
                v = edge_dst[e]
                du = dom[u]
                dv = dom[v]
                su = du & (du - 1) == 0
                sv = dv & (dv - 1) == 0
                if su and not sv:
                    a = _dom_min(du)
                    nd = dv
                    for w in range(num_chips):
                        if (dv >> w) & 1 and w != a:
                            if delta[a, w] >= 2 or bad[a, w]:
                                nd &= ~(1 << w)
                    if nd != dv:
                        if nd == 0:
                            return 1
                        dom[v] = nd
                        changed = True
                elif sv and not su:
                    c = _dom_min(dv)
                    nd = du
                    for w in range(num_chips):
                        if (du >> w) & 1 and w != c:
                            if delta[w, c] >= 2 or bad[w, c]:
                                nd &= ~(1 << w)
                    if nd != du:
                        if nd == 0:
                            return 1
                        dom[u] = nd
                        changed = True

        if not changed:
            return 0


def reference_check_static(assign, edge_src, edge_dst, num_chips):
    """Slow reference oracle: the three static rules as plain loops.

    The static check as it stood before vectorisation: same return codes and
    witnesses, one edge and one chip at a time, with the chip dependency
    closure as an explicit longest-path table.
    """
    n = assign.shape[0]
    ne = edge_src.shape[0]

    for e in range(ne):
        u = edge_src[e]
        v = edge_dst[e]
        if assign[u] > assign[v]:
            return 1, u, v

    hi = -1
    used = np.zeros(num_chips, np.bool_)
    for i in range(n):
        a = assign[i]
        used[a] = True
        if a > hi:
            hi = a
    for c in range(hi + 1):
        if not used[c]:
            return 2, c, -1

    direct = np.zeros((num_chips, num_chips), np.bool_)
    any_cross = False
    for e in range(ne):
        a = assign[edge_src[e]]
        c = assign[edge_dst[e]]
        if a != c:
            direct[a, c] = True
            any_cross = True
    if any_cross:
        # max-plus closure: longest path between chips (edges are acyclic
        # here because the backward-edge check above already passed)
        neg = -(num_chips + 1)
        delta = np.full((num_chips, num_chips), neg, np.int64)
        for a in range(num_chips):
            for c in range(num_chips):
                if direct[a, c]:
                    delta[a, c] = 1
        for b in range(num_chips):
            for a in range(num_chips):
                if delta[a, b] > 0:
                    for c in range(num_chips):
                        if delta[b, c] > 0 and delta[a, b] + delta[b, c] > delta[a, c]:
                            delta[a, c] = delta[a, b] + delta[b, c]
        for e in range(ne):
            a = assign[edge_src[e]]
            c = assign[edge_dst[e]]
            if a != c and delta[a, c] != 1:
                return 3, edge_src[e], edge_dst[e]

    return 0, -1, -1


def random_partial_domains(g, c, rng):
    """Full domains with a random share committed and some others narrowed."""
    n = g.num_nodes
    full = (1 << min(c, n)) - 1
    dom = np.full(n, full, dtype=np.int64)
    commit, narrow = rng.uniform(0.05, 0.6), rng.uniform(0.0, 0.3)
    for u in range(n):
        r = rng.random()
        if r < commit:
            dom[u] = 1 << int(rng.integers(0, min(c, n)))
        elif r < commit + narrow:
            dom[u] = int(rng.integers(1, full + 1))
    return dom


def full_sweep(dom, preds, succs, num_chips, kept=None):
    """Propagate from every node, with no state kept from a fixpoint.

    The zeroed list holds no chip edges, no coverers, no placed chip and no
    chip below m_bound; seeding every node rebuilds the last three.  Pass
    ``kept`` to read the state the sweep writes back on success.
    """
    kept = [0] * (4 * num_chips + 2) if kept is None else kept
    return kern.propagate(dom, preds, succs, num_chips, range(len(dom)), kept)


def recounted_coverage(dom, num_chips):
    """The coverage part of the kept state, recounted from ``dom``: each
    chip's coverer set (bit v when chip c is in dom[v]), the chips that a
    singleton domain sits on, and the chips below m_bound, the largest
    lowest domain bit."""
    cover = [sum(1 << v for v in range(len(dom)) if dom[v] >> c & 1) for c in range(num_chips)]
    placed = 0
    for d in dom:
        if bin(d).count("1") == 1:
            placed |= d
    m_bound = max((_dom_min(d) for d in dom), default=0)
    return cover + [placed, (1 << m_bound) - 1]


def test_propagate_matches_reference_fixpoint():
    statuses = []
    for seed in range(2000):
        rng = np.random.default_rng(seed)
        family = FAMILIES[seed % len(FAMILIES)]
        skip = (0.25, 0.9)[(seed // len(FAMILIES)) % 2]
        cfg = GeneratorConfig(family, int(rng.integers(2, 25)), seed=seed, skip_prob=skip)
        g = generate_synthetic(cfg)
        c = int(rng.integers(1, 9))
        dom = random_partial_domains(g, c, rng)
        fast, slow = dom.tolist(), dom.copy()
        want = reference_propagate(slow, g.edge_src, g.edge_dst, c)
        got = full_sweep(fast, g.preds, g.succs, c)
        assert got == want, (seed, cfg, c, dom.tolist())
        if want == 0:
            assert fast == slow.tolist(), (seed, cfg, c, dom.tolist())
        statuses.append(want)
    # both outcomes well represented
    assert 200 < sum(statuses) < 1800
    empty = ComputationGraph([], [])
    for c in (1, 3):
        assert reference_propagate(np.zeros(0, np.int64), empty.edge_src, empty.edge_dst, c) == 0
        assert full_sweep([], empty.preds, empty.succs, c) == 0  # nothing to cover, so no wipe-out


@st.composite
def propagation_cases(draw):
    """A generated graph, a chip count, partial domains over it and a
    further narrowing to apply after the first fixpoint.

    Each domain is drawn as one int: 0 keeps every live chip, -k - 1 is the
    singleton {k}, anything else is that subset; so examples shrink toward
    full domains.  The narrowing is a pair of ints that pick, after the
    fixpoint is known, an undecided node and one of its chips to drop.
    """
    family = draw(st.sampled_from(FAMILIES))
    skip = draw(st.sampled_from((0.0, 0.25, 0.9, 1.0)))
    g = generate_synthetic(GeneratorConfig(family, draw(st.integers(2, 24)), seed=draw(st.integers(0, 999)), skip_prob=skip))
    c = draw(st.integers(1, 8))
    full = (1 << min(c, g.num_nodes)) - 1
    raw = draw(st.lists(st.integers(-full.bit_length(), full), min_size=g.num_nodes, max_size=g.num_nodes))
    dom = [1 << (-x - 1) if x < 0 else x or full for x in raw]
    return g, c, dom, draw(st.integers(0, 63)), draw(st.integers(0, 63))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(propagation_cases())
def test_propagate_property_against_reference(case):
    # A full sweep reaches the reference's status and fixpoint and keeps
    # the coverage state of that fixpoint.  Then one chip of an undecided
    # node is dropped and propagated from the kept state alone, seeded with
    # that node; the reference must again agree, and the state still match.
    g, c, dom, pick, drop = case
    fast, slow = list(dom), np.array(dom, dtype=np.int64)
    kept = [0] * (4 * c + 2)
    for seeds in (range(len(fast)), None):
        if seeds is None:
            live = [u for u, d in enumerate(fast) if d & (d - 1)]
            if not live:
                return
            u = live[pick % len(live)]
            seeds = (u,)
            fast[u] &= ~(1 << kern.mask_to_values(fast[u])[drop % bin(fast[u]).count("1")])
            slow[u] = fast[u]
        want = reference_propagate(slow, g.edge_src, g.edge_dst, c)
        assert kern.propagate(fast, g.preds, g.succs, c, seeds, kept) == want, seeds
        if want:
            return
        assert fast == slow.tolist(), seeds
        assert kept[:c] == committed_chip_edges(fast, g.succs, c), seeds
        assert kept[3 * c:] == recounted_coverage(fast, c), seeds


def committed_chip_edges(dom, succs, num_chips):
    """Bit c of entry a: some edge runs from a node on chip a to one on chip c."""
    out = [0] * num_chips
    for u, s in enumerate(succs):
        for v in s:
            du, dv = dom[u], dom[v]
            if du != dv and du & (du - 1) == 0 and dv & (dv - 1) == 0:
                out[_dom_min(du)] |= dv
    return out


def test_seeded_propagate_matches_full_sweep_along_solver_trails(monkeypatch):
    # The solver seeds each call with the node it just narrowed and the
    # state it keeps on its trail; a full sweep from the same domains must
    # reach the same status, and on success the same fixpoint, with kept
    # chip edges that match the ones the fixpoint commits and coverer sets,
    # placed chips and m_bound that match a recount.  After a wipe-out the
    # solver discards the domains, so they are not compared.
    seen = {"seeded": 0, "wipeouts": 0}
    seeded_sweep = kern.propagate

    def shadowed(dom, preds, succs, num_chips, seeds, chip_edges):
        full = dom.copy()
        want = full_sweep(full, preds, succs, num_chips)
        before = dom.copy()
        got = seeded_sweep(dom, preds, succs, num_chips, seeds, chip_edges)
        assert got == want, (before, seeds)
        if want == 0:
            assert dom == full, (before, seeds)
            assert chip_edges[:num_chips] == committed_chip_edges(dom, succs, num_chips), (before, seeds)
            assert chip_edges[3 * num_chips:] == recounted_coverage(dom, num_chips), (before, seeds)
        seen["seeded"] += 1
        seen["wipeouts"] += want
        return got

    monkeypatch.setattr(solver_mod, "propagate", shadowed)
    for seed in range(80):  # every (family, skip_prob, chip count) pairing once
        rng = np.random.default_rng(seed)
        skip = (0.25, 0.9)[seed // 40 % 2]
        g = generate_synthetic(GeneratorConfig(FAMILIES[seed % 5], int(rng.integers(2, 40)), seed=seed, skip_prob=skip))
        c = 1 + seed % 8
        topo = ChipTopology(num_chips=c)
        n = g.num_nodes
        for solve, target in ((solve_sample, uniform_distribution(n, c)), (solve_fix, rng.integers(0, c, n))):
            try:
                solve(g, topo, target, rng, max_decisions=4 * n)
            except (StepBudgetError, InfeasibleError):
                pass
    assert seen["seeded"] > 2000 and seen["wipeouts"] > 200, seen


@pytest.mark.parametrize("family", FAMILIES)
def test_initial_domains_are_a_fixpoint(family):
    # The solver runs no propagation before its first decision, so a full
    # sweep from its initial domains must prune nothing and commit no chip
    # edge, and the state it rebuilds must be the one the solver starts
    # from.
    for skip, c in itertools.product((0.25, 0.9), range(1, 9)):
        rng = np.random.default_rng(c)
        g = generate_synthetic(GeneratorConfig(family, int(rng.integers(2, 40)), seed=c, skip_prob=skip))
        solver = solver_mod.ConstraintSolver(g, ChipTopology(num_chips=c))
        dom = solver._dom.copy()
        kept = [0] * (4 * c + 2)
        assert full_sweep(dom, g.preds, g.succs, c, kept) == 0, (skip, c)
        assert dom == solver._dom and kept[:3 * c] == [0] * (3 * c), (skip, c)
        assert kept == solver._chip_edges == [0] * (3 * c) + recounted_coverage(dom, c), (skip, c)


def test_check_static_matches_reference_oracle():
    # Uniform draws mostly break rule 1, solver outputs pass, and a solver
    # output with one node moved lands on every code, rule 3 included.
    codes = [0, 0, 0, 0]

    def agree(g, assign, c, ctx):
        want = reference_check_static(assign, g.edge_src, g.edge_dst, c)
        got = kern.check_static_kernel(assign, g.edge_src, g.edge_dst, c)
        assert tuple(int(x) for x in got) == tuple(int(x) for x in want), (ctx, c, assign.tolist())
        codes[int(want[0])] += 1

    for seed in range(400):  # every (family, skip_prob, chip count) pairing
        rng = np.random.default_rng(seed)
        skip = (0.25, 0.9)[seed // 40 % 2]
        g = generate_synthetic(GeneratorConfig(FAMILIES[seed % 5], int(rng.integers(2, 30)), seed=seed, skip_prob=skip))
        c = 1 + seed % 8
        n = g.num_nodes
        topo = ChipTopology(num_chips=c)
        for _ in range(10):
            agree(g, rng.integers(0, c, n), c, (seed, "uniform"))
        for _ in range(3):
            part = solve_sample(g, topo, uniform_distribution(n, c), rng)
            agree(g, part.assignment, c, (seed, "solver"))
            for _ in range(4):
                moved = part.assignment.copy()
                moved[rng.integers(0, n)] = rng.integers(0, c)
                agree(g, moved, c, (seed, "moved"))
    assert sum(codes) >= 10_000 and min(codes) > 0 and codes[3] >= 100, codes

    empty = ComputationGraph([], [])
    no_edges = ComputationGraph([OpNode(i, "op", 1.0, 0, 0) for i in range(4)], [])
    for g in (empty, no_edges):
        for c in (1, 3):
            for assign in itertools.product(range(c), repeat=g.num_nodes):
                agree(g, np.array(assign, dtype=np.int64), c, "edge-free")

    # One node per chip along a chain, plus a skip edge from the first to
    # the last: the clash needs the closure to span the longest chip path.
    for c in range(1, 9):
        edges = [DataEdge(i, i + 1, 1) for i in range(c - 1)] + ([DataEdge(0, c - 1, 1)] if c > 2 else [])
        g = ComputationGraph([OpNode(i, "op", 1.0, 0, 0) for i in range(c)], edges)
        agree(g, np.arange(c, dtype=np.int64), c, "longest path")
        assert kern.check_static_kernel(np.arange(c), g.edge_src, g.edge_dst, c)[0] == (3 if c > 2 else 0)


def test_mask_helpers_roundtrip():
    assert kern.mask_to_values(0) == ()
    assert kern.mask_to_values(0b1011) == (0, 1, 3)
    for mask in (1, 7, 42, (1 << 40) | 5):
        assert sum(1 << c for c in kern.mask_to_values(mask)) == mask


def test_chip_count_cap_enforced():
    with pytest.raises(InvalidConfigError):
        ChipTopology(num_chips=kern.MAX_CHIPS + 1)
    ChipTopology(num_chips=kern.MAX_CHIPS)  # boundary is allowed
