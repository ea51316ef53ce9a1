"""Exact identifiable sets from a few paths, before full enumeration.

Two facts settle most monitored graphs that the structural engine
hands to the oracle, with a handful of paths in place of all of them:

  * the ceiling: 1_star(m1) - 1_star(m2), the links at m1 counted +1
    and the links at m2 counted -1, has dot product 0 with every
    simple m1-m2 path row, since such a path leaves m1 once and
    enters m2 once (the direct m1-m2 link, if any, counts 0). So no
    link at a monitor is identifiable, except the direct link;
  * the switch: for an interior link e = uv, four paths Pa: m1->u,
    Pb: v->m2, Qa: m1->v, Qb: u->m2, with Pa, Pb disjoint, Qa, Qb
    disjoint, Pa and Qb meeting only at u and Qa and Pb only at v,
    give four simple paths whose signed sum is twice e:
    (Pa.e.Pb) + (Qa.e.Qb) - (Pa.Qb) - (Qa.Pb) = 2e.

certified_identifiable feeds short genuine simple paths (glued from
two breadth-first trees, then switch paths for each link still
unsettled) into one IntegerEchelon, and stops once every column some
nullspace vector touches lies in the ceiling. The identifiable set is
then exactly the links outside the ceiling: the rows are real path
rows, and the ceiling carries its null vector. When the seeds run out
first it returns None, and the caller enumerates.
"""

from __future__ import annotations

from .linalg import IntegerEchelon
from .oracle import _indexed_adjacency


def _bfs(adj, s, blocked, t=None):
    """Breadth-first tree from node s that enters no node of the
    blocked bitmask, stopping once t is reached.

    adj is as built by oracle._indexed_adjacency. Returns
    {node: (node mask, link mask)} of each reached node's tree path
    from s.
    """
    tree = {s: (1 << s, 0)}
    queue = [s]
    for v in queue:
        nodes, links = tree[v]
        for w, eid in adj[v]:
            if w not in tree and not blocked & 1 << w:
                tree[w] = (nodes | 1 << w, links | 1 << eid)
                if w == t:
                    return tree
                queue.append(w)
    return tree


def _tree_seeds(adj, s, t):
    """Link masks of simple s-t paths, one per link uv: the path to u
    in a tree from s that avoids t, then uv, then the path from v in a
    tree from t that avoids s, kept when the two halves share no node.
    A path through node w comes out twice, across w's link in each
    tree, so each mask is yielded only the first time.
    """
    near = _bfs(adj, s, 1 << t)
    far = _bfs(adj, t, 1 << s)
    seen = set()
    for u, (nu, lu) in near.items():
        for v, eid in adj[u]:
            half = far.get(v)
            if half is not None and not nu & half[0]:
                mask = lu | 1 << eid | half[1]
                if mask not in seen:
                    seen.add(mask)
                    yield mask


def _switch_seeds(adj, s, t, eid, a, b):
    """Link masks of the four switch paths of link eid = ab, whose
    signed sum is twice eid; nothing when no blocked search finds them.

    A link at s or t has no switch certificate (the ceiling says it is
    not identifiable), so it yields nothing.
    """
    if {a, b} & {s, t}:
        return
    e = 1 << eid
    for u, v in ((a, b), (b, a)):
        pa = _bfs(adj, s, 1 << v | 1 << t, u).get(u)
        if pa is None:
            continue
        pb = _bfs(adj, v, pa[0], t).get(t)
        if pb is None:
            continue
        qa = _bfs(adj, s, pb[0] ^ 1 << v | 1 << u, v).get(v)
        if qa is None:
            continue
        qb = _bfs(adj, u, qa[0] | pa[0] ^ 1 << u, t).get(t)
        if qb is None:
            continue
        yield pa[1] | e | pb[1]
        yield qa[1] | e | qb[1]
        yield pa[1] | qb[1]
        yield qa[1] | pb[1]
        return


def certified_identifiable(sub):
    """Exact set of identifiable link ids of sub between its monitors,
    or None when the certificates do not settle it.

    A set returned equals identifiable_links_bruteforce(sub). None also
    covers monitors that no path joins, so that the oracle raises
    NoPath for them.
    """
    m1, m2 = sub.require_monitors()
    idx, adj = _indexed_adjacency(sub)
    s, t = idx[m1], idx[m2]
    direct = sub.link_between(m1, m2)
    ceiling = {eid for _, eid in adj[s]} | {eid for _, eid in adj[t]}
    ceiling.discard(direct)
    rest = set(range(sub.m)) - ceiling
    if rest <= {direct}:
        # every path is the direct link or two links through a common
        # neighbour, and the direct link is a path row on its own
        if direct is None and not ({w for w, _ in adj[s]}
                                   & {w for w, _ in adj[t]}):
            return None
        return rest

    ech = IntegerEchelon(sub.m)
    row = [0] * sub.m
    last = 0
    support = set(range(sub.m))

    def settled(mask):
        """Feed one path; True once the support lies in the ceiling."""
        nonlocal last, support
        flips = mask ^ last
        last = mask
        while flips:
            low = flips & -flips
            row[low.bit_length() - 1] ^= 1
            flips ^= low
        if not ech.add(row):
            return False
        support = set().union(*ech.null)
        return support <= ceiling

    if any(settled(mask) for mask in _tree_seeds(adj, s, t)):
        return rest
    for eid in sorted(rest):
        if eid in support:
            u, v = sub.links[eid]
            if any(settled(mask) for mask in
                   _switch_seeds(adj, s, t, eid, idx[u], idx[v])):
                return rest
    return None
