import numpy as np
import pytest

from mcmpart import ChipTopology, GeneratorConfig, generate_synthetic, solve_fix, solve_sample, uniform_distribution
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
        fast, slow = dom.copy(), dom.copy()
        want = reference_propagate(slow, g.edge_src, g.edge_dst, c)
        got = kern.propagate(fast, g.topo_nodes, g.preds, g.succs, c)
        assert got == want, (seed, cfg, c, dom.tolist())
        if want == 0:
            assert fast.tolist() == slow.tolist(), (seed, cfg, c, dom.tolist())
        statuses.append(want)
    # both outcomes well represented
    assert 200 < sum(statuses) < 1800


def committed_chip_edges(dom, succs, num_chips):
    """Bit c of entry a: some edge runs from a node on chip a to one on chip c."""
    out = [0] * num_chips
    for u, s in enumerate(succs):
        for v in s:
            du, dv = int(dom[u]), int(dom[v])
            if du != dv and du & (du - 1) == 0 and dv & (dv - 1) == 0:
                out[_dom_min(du)] |= dv
    return out


def test_seeded_propagate_matches_full_sweep_along_solver_trails(monkeypatch):
    # The solver seeds each call with the node it just narrowed and the chip
    # edges it keeps on its trail; a full sweep from the same domains must
    # reach the same status and fixpoint, and the kept chip edges must match
    # the ones the fixpoint commits.
    seen = {"seeded": 0, "wipeouts": 0}
    full_sweep = kern.propagate

    def shadowed(dom, order, preds, succs, num_chips, seeds=None, chip_edges=None):
        full = dom.copy()
        want = full_sweep(full, order, preds, succs, num_chips)
        before = dom.tolist()
        got = full_sweep(dom, order, preds, succs, num_chips, seeds, chip_edges)
        assert got == want, (before, seeds)
        assert dom.tolist() == (full.tolist() if want == 0 else before), (before, seeds)
        if want == 0 and chip_edges is not None:
            assert chip_edges[:num_chips] == committed_chip_edges(dom, succs, num_chips), (before, seeds)
        seen["seeded"] += seeds is not None
        seen["wipeouts"] += want
        return got

    monkeypatch.setattr(solver_mod, "propagate", shadowed)
    for seed in range(80):  # every (family, skip_prob, chip count) pairing once
        rng = np.random.default_rng(seed)
        skip = (0.25, 0.9)[seed % 2]
        g = generate_synthetic(GeneratorConfig(FAMILIES[seed % 5], int(rng.integers(2, 40)), seed=seed, skip_prob=skip))
        c = 1 + seed % 8
        topo = ChipTopology(num_chips=c)
        n = g.num_nodes
        for solve, target in ((solve_sample, uniform_distribution(n, c)), (solve_fix, rng.integers(0, c, n))):
            try:
                solve(g, topo, target, rng, step_budget=2 * n, max_restarts=2)
            except (StepBudgetError, InfeasibleError):
                pass
    assert seen["seeded"] > 2000 and seen["wipeouts"] > 200, seen


def test_propagate_leaves_domains_untouched_on_wipeout():
    g = generate_synthetic(GeneratorConfig("chain", 3, seed=0))
    dom = np.array([2, 1, 3], dtype=np.int64)  # 0 -> 1 would need chip 1 -> chip 0
    assert kern.propagate(dom, g.topo_nodes, g.preds, g.succs, 2) == 1
    assert dom.tolist() == [2, 1, 3]


def test_mask_helpers_roundtrip():
    assert kern.mask_to_values(0) == ()
    assert kern.mask_to_values(0b1011) == (0, 1, 3)
    assert kern.values_to_mask((0, 1, 3)) == 0b1011
    assert kern.values_to_mask(()) == 0
    for mask in (1, 7, 42, (1 << 40) | 5):
        assert kern.values_to_mask(kern.mask_to_values(mask)) == mask


def test_chip_count_cap_enforced():
    with pytest.raises(InvalidConfigError):
        ChipTopology(num_chips=kern.MAX_CHIPS + 1)
    ChipTopology(num_chips=kern.MAX_CHIPS)  # boundary is allowed
