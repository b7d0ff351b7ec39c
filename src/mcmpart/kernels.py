"""Hot numeric kernels: domain propagation, validity checking, per-chip sums.

Chip-id domains are bitmasks (bit ``c`` set means chip ``c`` is still
allowed), one Python int per node in a plain list.  Propagation works on
that list and on per-graph adjacency lists, and keeps what it derived at
the last fixpoint (the committed chip edges, and which nodes can still
cover each chip) in a second flat int list that the solver's trail copies
with the domains, so a call does work in proportion to what changed rather
than to the node count.  ``ChipTopology`` caps the chip count at
``MAX_CHIPS``.  The static check and the per-chip sums are numpy
array operations over the assignment and the edge endpoints, with no loop
over nodes or edges.
"""

from __future__ import annotations

import numpy as np

MAX_CHIPS = 62


def propagate(dom, preds, succs, num_chips, seeds, chip_edges):
    """Prune ``dom`` (a list of int bitmasks, in place) to a fixpoint.

    ``preds[v]`` and ``succs[u]`` are the nodes' adjacency lists.  Enforces,
    conservatively, the three static placement rules: edge-monotone chip
    ids, contiguous chip usage, and the no-coexisting direct/indirect chip
    dependency rule over chips committed so far (singleton domains).
    Every rule only removes values and removes more from smaller domains,
    so the fixpoint does not depend on the order the rules run in.  Returns
    0 on success, 1 if some domain emptied.  After a wipe-out ``dom`` holds
    a partial pruning and must be discarded; ``chip_edges`` is written only
    on success, so a caller that keeps copies of both undoes a failed call
    by restoring them.

    ``chip_edges`` is the state kept from the last fixpoint, a list of
    ``4 * num_chips + 2`` ints:

    - the committed chip edges (bit c of entry a is set when an edge runs
      from a node committed to chip a to one committed to chip c), then
      the two look-ahead tables derived from them;
    - one coverer set per chip: bit v of entry c is set while chip c is in
      ``dom[v]``;
    - ``placed``, the chips that some singleton domain sits on;
    - the chips below ``m_bound``, the largest lowest bit over all domains,
      as the mask ``m_bound - 1``.

    ``seeds`` names the nodes whose domains the caller narrowed since that
    fixpoint; every other domain must still be at it.  On entry each seed's
    coverer bits, ``placed`` and ``m_bound`` are reconciled with its domain,
    at O(num_chips) per seed; every write here keeps them current.  The
    look-ahead visits only the edges next to changed nodes until a new chip
    edge appears.  A full sweep passes every node as a seed and
    ``[0] * (4 * num_chips + 2)``, from which the seeds rebuild the
    coverage state.
    """
    changed = list(seeds)  # nodes whose edges the look-ahead must see
    chips, ahead, behind, cover = (chip_edges[i * num_chips:(i + 1) * num_chips] for i in range(4))
    placed, below = chip_edges[4 * num_chips:]
    for u in changed:
        du = dom[u]
        bit = 1 << u
        for c in range(num_chips):
            if du >> c & 1:
                cover[c] |= bit
            else:
                cover[c] &= ~bit
        low = du & -du
        below |= low - 1
        if du == low:
            placed |= du
    while True:
        # Every edge (u, v) forces min(dom[v]) >= min(dom[u]) and
        # max(dom[u]) <= max(dom[v]).  Minimums flow forward from the seeds
        # and maximums backward.  Trimming one end of a domain never moves
        # its other end unless the domain empties, so the two worklists do
        # not feed each other, and only the forward one moves m_bound.
        stack = list(seeds)
        while stack:
            u = stack.pop()
            du = dom[u]
            low = du & -du
            for v in succs[u]:
                dv = dom[v]
                if dv & -dv < low:
                    nd = dv & -low
                    if not nd:
                        return 1
                    dom[v] = nd
                    stack.append(v)
                    changed.append(v)
                    _uncover(cover, v, dv ^ nd)
                    low_v = nd & -nd
                    below |= low_v - 1
                    if nd == low_v:
                        placed |= nd
        stack = list(seeds)
        while stack:
            v = stack.pop()
            top = dom[v].bit_length()
            for u in preds[v]:
                du = dom[u]
                if du.bit_length() > top:
                    nd = du & (1 << top) - 1
                    if not nd:
                        return 1
                    dom[u] = nd
                    stack.append(u)
                    changed.append(u)
                    _uncover(cover, u, du ^ nd)
                    if nd & (nd - 1) == 0:
                        placed |= nd

        # Some node is forced onto a chip >= m_bound, so every chip below
        # m_bound must stay coverable; a sole coverer is forced onto it.
        # Forcing a node drops it from its other chips' coverer sets, so a
        # node that is the sole coverer of two such chips empties the set
        # of the second.  A forced chip lies below m_bound, which stays put.
        seeds = []
        need = below & ~placed
        while need:
            bit = need & -need
            need ^= bit
            who = cover[bit.bit_length() - 1]
            if not who:
                return 1
            if who & (who - 1) == 0:
                v = who.bit_length() - 1
                _uncover(cover, v, dom[v] ^ bit)
                dom[v] = bit
                placed |= bit
                seeds.append(v)
        if seeds:
            changed += seeds
            continue

        # Chip dependency graph over committed nodes.  Domains only shrink,
        # so it only gains the edges of nodes committed since it was built.
        # The edge rule above makes every chip edge go from a lower to a
        # higher chip.
        grew = False
        for u in changed:
            du = dom[u]
            if du & (du - 1) == 0:
                a = du.bit_length() - 1
                for v in succs[u]:
                    dv = dom[v]
                    if dv != du and dv & (dv - 1) == 0 and not chips[a] & dv:
                        chips[a] |= dv
                        grew = True
                for w in preds[u]:
                    dw = dom[w]
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
            du = dom[u]
            dv = dom[v]
            if du & (du - 1) == 0:
                if dv & (dv - 1):
                    nd = dv & ~ahead[du.bit_length() - 1]
                    if nd != dv:
                        if not nd:
                            return 1
                        dom[v] = nd
                        seeds.append(v)
                        _uncover(cover, v, dv ^ nd)
                        low_v = nd & -nd
                        below |= low_v - 1
                        if nd == low_v:
                            placed |= nd
            elif dv & (dv - 1) == 0:
                nd = du & ~behind[dv.bit_length() - 1]
                if nd != du:
                    if not nd:
                        return 1
                    dom[u] = nd
                    seeds.append(u)
                    _uncover(cover, u, du ^ nd)
                    low_u = nd & -nd
                    below |= low_u - 1
                    if nd == low_u:
                        placed |= nd
        if not seeds:
            break
        changed = list(seeds)
    chip_edges[:] = chips + ahead + behind + cover + [placed, below]
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


def _uncover(cover, v, gone):
    """Clear node ``v`` from the coverer sets of the chips in ``gone``."""
    keep = ~(1 << v)
    while gone:
        b = gone & -gone
        cover[b.bit_length() - 1] &= keep
        gone ^= b


def _bits(mask):
    """The set bits of ``mask`` as ``(index, bit)`` pairs, lowest first."""
    while mask:
        bit = mask & -mask
        mask ^= bit
        yield bit.bit_length() - 1, bit


def mask_to_values(mask):
    """Decode a domain bitmask into a sorted tuple of chip ids."""
    return tuple(c for c, _ in _bits(int(mask)))
