"""Exact identifiable sets from a few paths, before full enumeration.

The question is which links a measurement between the two monitors
identifies, that is, which unit vectors lie in the row space of all
simple m1-m2 path rows. Certificates settle most monitored graphs that
the structural engine hands to the oracle, with a handful of paths in
place of all of them.

Positive side, a link is identifiable:

  * the switch: for an interior link e = uv, four paths Pa: m1->u,
    Pb: v->m2, Qa: m1->v, Qb: u->m2, with Pa, Pb disjoint, Qa, Qb
    disjoint, Pa and Qb meeting only at u and Qa and Pb only at v,
    give four simple paths whose signed sum is twice e:
    (Pa.e.Pb) + (Qa.e.Qb) - (Pa.Qb) - (Qa.Pb) = 2e.
    A link that has them is identifiable outright, with no elimination;
  * the direct m1-m2 link, if any, is a path on its own.

Negative side, certified null vectors, each with dot product 0 with
every simple m1-m2 path row:

  * the ceiling 1_star(m1) - 1_star(m2), the links at m1 counted +1
    and the links at m2 counted -1 (the direct link counts 0), since a
    path leaves m1 once and enters m2 once. So no link at a monitor is
    identifiable, except the direct link;
  * e_a - e_b for each node other than the monitors that has exactly
    two links a and b, since every path through that node uses both.

certified_identifiable first asks the switch of every link outside the
ceiling. When that does not settle everything, it puts a unit row for
each settled link into one IntegerEchelon and feeds short genuine
simple paths, glued from two breadth-first trees, then the switch
paths themselves. Every row lies in the row space of the real paths,
so null(all paths) lies in the nullspace the echelon keeps. It stops
once that nullspace is exact: either every column it touches lies in
the ceiling, or its dimension equals the rank of the certified null
vectors, which lie in null(all paths). The identifiable set is then
the links no nullspace vector touches, and every other link, interior
links included, is proven unidentifiable. When the seeds run out
first it returns None, and the caller enumerates.
"""

from __future__ import annotations

from itertools import chain

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
    signed sum is twice eid, as a tuple; () when no blocked search
    finds them.

    A link at s or t has no switch certificate (the ceiling says it is
    not identifiable), so it gets ().
    """
    if {a, b} & {s, t}:
        return ()
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
        return (pa[1] | e | pb[1], qa[1] | e | qb[1],
                pa[1] | qb[1], qa[1] | pb[1])
    return ()


def _degree_two_links(adj, s, t):
    """(a, b) for each node other than s and t with exactly two links
    a and b: e_a - e_b is a null vector of every s-t path."""
    for w, nbrs in enumerate(adj):
        if len(nbrs) == 2 and w != s and w != t:
            yield nbrs[0][1], nbrs[1][1]


def _null_rank(m, pairs, coef):
    """Rank of the vectors e_a - e_b, (a, b) in pairs, together with
    the vector coef ({column: int}) over m columns.

    The differences span the vectors that sum to 0 over each class of
    columns they join (a forest count gives their rank), so coef adds
    one to the rank exactly when some class does not sum to 0.
    """
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    rank = 0
    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            rank += 1
    sums = {}
    for j, c in coef.items():
        r = find(j)
        sums[r] = sums.get(r, 0) + c
    return rank + any(sums.values())


def certified_identifiable(sub):
    """Exact set of identifiable link ids of sub between its monitors,
    or None when the certificates do not settle it.

    A set returned equals identifiable_links_bruteforce(sub). None also
    covers monitors that no path joins, so that the oracle raises
    NoPath for them: the settling test runs only after a seed path.
    """
    m1, m2 = sub.require_monitors()
    idx, adj = _indexed_adjacency(sub)
    s, t = idx[m1], idx[m2]
    direct = sub.link_between(m1, m2)
    ceiling = {eid: 1 for _, eid in adj[s]}     # the ceiling vector
    ceiling.update((eid, -1) for _, eid in adj[t])
    ceiling.pop(direct, None)
    rest = set(range(sub.m)) - ceiling.keys()
    if rest <= {direct}:
        # every path is the direct link or two links through a common
        # neighbour, and the direct link is a path row on its own
        if direct is None and not ({w for w, _ in adj[s]}
                                   & {w for w, _ in adj[t]}):
            return None
        return rest

    known = {direct} if direct is not None else set()
    switches = []
    for eid in sorted(rest - known):
        u, v = sub.links[eid]
        masks = _switch_seeds(adj, s, t, eid, idx[u], idx[v])
        if masks:
            known.add(eid)
            switches.extend(masks)
    if known == rest:
        return rest

    ech = IntegerEchelon(sub.m)
    row = [0] * sub.m
    for eid in sorted(known):
        row[eid] = 1
        ech.add(row)
        row[eid] = 0
    certified_rank = _null_rank(sub.m, _degree_two_links(adj, s, t),
                                ceiling)
    last = 0
    support = ech.to_reduced()

    def settles(mask):
        """Feed one path; True once the echelon's nullspace is exact."""
        nonlocal last, support
        flips = mask ^ last
        last = mask
        while flips:
            low = flips & -flips
            row[low.bit_length() - 1] ^= 1
            flips ^= low
        if ech.add(row):
            support = ech.to_reduced()
        return len(ech.null) == certified_rank or support <= ceiling.keys()

    # the switch paths span more than their unit rows, so they follow
    # the tree seeds; they exist only when a tree seed does
    if any(settles(mask) for mask in chain(_tree_seeds(adj, s, t), switches)):
        return set(range(sub.m)) - support
    return None
