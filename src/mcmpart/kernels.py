"""Hot numeric kernels: domain propagation, validity checking, per-chip sums.

Chip-id domains are encoded as bitmasks (bit ``c`` set means chip ``c`` is
still allowed), stored as int64, which caps the chip count at 62.
Propagation works on the domains as Python ints and on per-graph adjacency
lists.  The static check and the per-chip sums are numpy array operations
over the assignment and the edge endpoints, with no loop over nodes or
edges.
"""

from __future__ import annotations

import numpy as np

MAX_CHIPS = 62


def propagate(dom, order, preds, succs, num_chips, seeds=None, chip_edges=None):
    """Prune ``dom`` (int64 bitmasks, in place) to a fixpoint.

    ``order`` is a topological order of the nodes, ``preds[v]`` and
    ``succs[u]`` their adjacency lists.  Enforces, conservatively, the three
    static placement rules: edge-monotone chip ids, contiguous chip usage,
    and the no-coexisting direct/indirect chip dependency rule over chips
    committed so far (singleton domains).  Every rule only removes values
    and removes more from smaller domains, so the fixpoint does not depend
    on the order the rules run in.  Returns 0 on success, 1 if some domain
    emptied; ``dom`` and ``chip_edges`` are written only on success.

    ``seeds`` names the nodes whose domains changed since the last
    fixpoint; every other domain must already be at it.  ``chip_edges`` is
    a list of ``3 * num_chips`` ints that holds the committed chip edges of
    that fixpoint (bit c of entry a is set when an edge runs from a node
    committed to chip a to one committed to chip c), then the two look-ahead
    tables derived from them.  With both given, the look-ahead visits only
    the edges next to changed nodes until a new chip edge appears.
    ``seeds=None`` means every node; ``chip_edges=None`` rebuilds the chip
    edges from ``dom`` and writes nothing back.
    """
    d = dom.tolist()
    fresh = seeds is None or chip_edges is None
    seeds = order if seeds is None else seeds
    changed = list(order) if fresh else list(seeds)  # nodes whose edges the look-ahead must see
    if fresh:
        chips, ahead, behind = [0] * num_chips, [0] * num_chips, [0] * num_chips
    else:
        chips, ahead, behind = (chip_edges[i * num_chips:(i + 1) * num_chips] for i in range(3))
    while True:
        # Every edge (u, v) forces min(dom[v]) >= min(dom[u]) and
        # max(dom[u]) <= max(dom[v]).  Minimums flow forward from the seeds
        # and maximums backward.  Trimming one end of a domain never moves
        # its other end unless the domain empties, so the two worklists do
        # not feed each other.
        stack = list(seeds)
        while stack:
            u = stack.pop()
            du = d[u]
            low = du & -du
            for v in succs[u]:
                dv = d[v]
                if dv & -dv < low:
                    dv &= -low
                    if not dv:
                        return 1
                    d[v] = dv
                    stack.append(v)
                    changed.append(v)
        stack = list(seeds)
        while stack:
            v = stack.pop()
            top = d[v].bit_length()
            for u in preds[v]:
                du = d[u]
                if du.bit_length() > top:
                    du &= (1 << top) - 1
                    if not du:
                        return 1
                    d[u] = du
                    stack.append(u)
                    changed.append(u)

        # Some node is forced onto a chip >= m_bound, so every chip below
        # m_bound must stay coverable; a unique coverer is forced onto it.
        once = twice = placed = 0
        for x in d:
            twice |= once & x
            once |= x
            if x & (x - 1) == 0:
                placed |= x
        below = max([x & -x for x in d], default=0) - 1  # chips < m_bound
        if below & ~once:
            return 1
        force = below & ~twice & ~placed
        if force:
            seeds = []
            for i, x in enumerate(d):
                hit = x & force
                if hit:
                    if hit & (hit - 1):
                        return 1  # sole coverer of two chips
                    d[i] = hit
                    seeds.append(i)
            changed += seeds
            continue

        # Chip dependency graph over committed nodes.  Domains only shrink,
        # so it only gains the edges of nodes committed since it was built.
        # The edge rule above makes every chip edge go from a lower to a
        # higher chip.
        grew = False
        for u in changed:
            du = d[u]
            if du & (du - 1) == 0:
                a = du.bit_length() - 1
                for v in succs[u]:
                    dv = d[v]
                    if dv != du and dv & (dv - 1) == 0 and not chips[a] & dv:
                        chips[a] |= dv
                        grew = True
                for w in preds[u]:
                    dw = d[w]
                    if dw != du and dw & (dw - 1) == 0 and not chips[dw.bit_length() - 1] & du:
                        chips[dw.bit_length() - 1] |= du
                        grew = True
        if not any(chips):
            break

        if grew or not any(ahead):  # any chip edge x -> y puts x in ahead[y]
            # reach[a]: chips reachable from a by committed chip edges (a
            # included); longer[a]: those reachable by a path of >= 2 edges.
            # A direct edge shadowed by a longer path is already
            # unrecoverable.
            reach = [0] * num_chips
            longer = [0] * num_chips
            for a in range(num_chips - 1, -1, -1):
                r = 1 << a
                ln = 0
                for c, b in _bits(chips[a]):
                    r |= reach[c]
                    ln |= reach[c] ^ b
                if chips[a] & ln:
                    return 1
                reach[a] = r
                longer[a] = ln
            anc = [0] * num_chips  # anc[c]: chips that reach c
            for a, r in enumerate(reach):
                for c, _ in _bits(r):
                    anc[c] |= 1 << a

            # ahead[p] bit q: a new direct chip edge p -> q would create a
            # path of >= 2 edges alongside some direct edge (x, y), via
            # x..p -> q..y, or alongside itself.
            ahead = longer[:]
            for x, m in enumerate(chips):
                for y, b in _bits(m):
                    for p, _ in _bits(reach[x]):
                        ahead[p] |= anc[y] if p != x else anc[y] ^ b
            behind = [0] * num_chips  # behind[q] bit p: ahead[p] bit q
            for p in range(num_chips):
                ahead[p] &= ~(1 << p)
                for q, _ in _bits(ahead[p]):
                    behind[q] |= 1 << p

        # Look-ahead on edges with exactly one committed endpoint: a
        # candidate chip that provably breaks the rule is dropped.  Under
        # the chip edges the last fixpoint saw, only edges next to a changed
        # node can have moved.
        if grew:
            edges = [(u, v) for u, s in enumerate(succs) for v in s]
        else:
            edges = [(u, v) for u in changed for v in succs[u]] + [(w, u) for u in changed for w in preds[u]]
        seeds = []
        for u, v in edges:
            du = d[u]
            dv = d[v]
            if du & (du - 1) == 0:
                if dv & (dv - 1):
                    nd = dv & ~ahead[du.bit_length() - 1]
                    if nd != dv:
                        if not nd:
                            return 1
                        d[v] = nd
                        seeds.append(v)
            elif dv & (dv - 1) == 0:
                nd = du & ~behind[dv.bit_length() - 1]
                if nd != du:
                    if not nd:
                        return 1
                    d[u] = nd
                    seeds.append(u)
        if not seeds:
            break
        changed = list(seeds)
    dom[:] = d
    if chip_edges is not None:
        chip_edges[:] = chips + ahead + behind
    return 0


def check_static_kernel(assign, edge_src, edge_dst, num_chips):
    """Direct evaluation of the three static rules on a total assignment.

    Returns ``(code, w0, w1)`` with code 0 = ok, 1 = backward edge (witness
    edge endpoints), 2 = skipped chip (witness chip id), 3 = direct/indirect
    chip dependency clash (witness edge endpoints).  Each witness is the
    first violation: the first edge in edge order, or the lowest chip.

    Rule 3 reads the chip graph: a cross-chip edge ``a -> c`` clashes when
    a chip path of two or more edges also runs from ``a`` to ``c``.  The
    transitive closure ``reach`` of the direct chip edges comes from
    repeated boolean squaring; ``C.bit_length()`` rounds cover paths of up
    to ``C - 1`` edges, the longest the chip graph can hold once rule 1 has
    made it acyclic.  A clash is then a direct edge with ``(direct @
    reach)[a, c]`` set.

    This is the oracle for solver outputs, so it shares no code with the
    solver: no domains and no propagation, only the assignment and the
    edge list.
    """
    a = assign[edge_src]
    c = assign[edge_dst]
    back = np.flatnonzero(a > c)
    if back.size:
        return 1, edge_src[back[0]], edge_dst[back[0]]

    if assign.size:
        skipped = np.flatnonzero(np.bincount(assign, minlength=num_chips)[:assign.max()] == 0)
        if skipped.size:
            return 2, skipped[0], -1

    cross = a != c
    if cross.any():
        direct = np.zeros((num_chips, num_chips), np.bool_)
        direct[a[cross], c[cross]] = True
        reach = direct.copy()
        for _ in range(num_chips.bit_length()):
            reach |= reach @ reach
        clash = np.flatnonzero(cross & (direct @ reach)[a, c])
        if clash.size:
            return 3, edge_src[clash[0]], edge_dst[clash[0]]

    return 0, -1, -1


def chip_latency(assign, cost, edge_src, edge_dst, edge_bytes, bandwidth, num_chips, include_comm):
    """Per-chip latency: node costs plus (optionally) outbound transfer time.

    Both sums run in node and then edge order, one addition at a time, so
    every bit matches a plain loop.
    """
    lat = np.bincount(assign, weights=cost, minlength=num_chips)
    if include_comm:
        src = assign[edge_src]
        cross = src != assign[edge_dst]
        np.add.at(lat, src[cross], edge_bytes[cross] / bandwidth)
    return lat


def chip_memory(assign, node_bytes, num_chips):
    """Per-chip resident bytes (parameters + outputs of the nodes placed there)."""
    return np.bincount(assign, weights=node_bytes, minlength=num_chips).astype(np.int64)


def _bits(mask):
    """The set bits of ``mask`` as ``(index, bit)`` pairs, lowest first."""
    while mask:
        bit = mask & -mask
        mask ^= bit
        yield bit.bit_length() - 1, bit


def mask_to_values(mask):
    """Decode a domain bitmask into a sorted tuple of chip ids."""
    return tuple(c for c, _ in _bits(int(mask)))


def values_to_mask(values):
    """Encode an iterable of chip ids into a domain bitmask."""
    m = 0
    for v in values:
        m |= 1 << int(v)
    return m
