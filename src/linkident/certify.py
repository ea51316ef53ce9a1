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
ceiling. When that does not settle everything, it feeds one
IntegerEchelon, as masks in one loop, a unit row for each settled
link, then short genuine simple paths, glued from two breadth-first
trees, then the switch paths themselves. Every row lies in the row
space of the real paths, so null(all paths) lies in the nullspace the
echelon keeps. The certified null vectors go as rows into a second
IntegerEchelon, whose rank is the dimension they span inside
null(all paths). That rank is at most the number of vectors, so the
second echelon is built only once the first nullspace's dimension has
fallen that far. The feed stops once the first nullspace is exact:
either every column it touches lies in the ceiling, or its dimension
equals that rank. The identifiable set is then the links no nullspace
vector touches, and every other link, interior links included, is
proven unidentifiable. When the seeds run out first it returns None,
and the caller enumerates.

Monitors that no path joins also get None, so that the oracle raises
NoPath for them, although the test runs from the first row on. A unit
row is fed only for the direct link, a path on its own, or for a
switch-proven link, whose four switch paths are paths; so any row fed
means a path exists.
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


def _null_vectors(adj, s, t, ceiling, m):
    """Integer rows over m links of the certified null vectors of every
    s-t path: the ceiling ({link id: coefficient}) first, then e_a - e_b
    for each node other than s and t with exactly two links a and b."""
    row = [0] * m
    for eid, c in ceiling.items():
        row[eid] = c
    yield row
    for w, nbrs in enumerate(adj):
        if len(nbrs) == 2 and w != s and w != t:
            row = [0] * m
            row[nbrs[0][1]], row[nbrs[1][1]] = 1, -1
            yield row


def certified_identifiable(sub):
    """Exact set of identifiable link ids of sub between its monitors,
    or None when the certificates do not settle it.

    A set returned equals identifiable_links_bruteforce(sub). None also
    covers monitors that no path joins, so that the oracle raises
    NoPath for them: a row is fed only when a path exists.
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

    vectors = list(_null_vectors(adj, s, t, ceiling, sub.m))
    certified = None
    ech = IntegerEchelon(sub.m)
    row = [0] * sub.m
    last = 0
    # the switch paths span more than their unit rows, so they follow
    # the tree seeds; they exist only when a tree seed does
    for mask in chain((1 << eid for eid in sorted(known)),
                      _tree_seeds(adj, s, t), switches):
        flips = mask ^ last
        last = mask
        while flips:
            low = flips & -flips
            row[low.bit_length() - 1] ^= 1
            flips ^= low
        # a row that adds nothing leaves the nullspace, and so the
        # test, as it was
        if not ech.add(row):
            continue
        nullity = len(ech.null)
        # the certified rank is at most len(vectors), and the nullity
        # only falls, so the certified echelon waits until it is there
        if certified is None and nullity <= len(vectors):
            certified = IntegerEchelon(sub.m)
            for vec in vectors:
                certified.add(vec)
        # independent vectors within the ceiling's columns number at
        # most len(ceiling)
        if ((certified is not None and nullity == certified.rank)
                or (nullity <= len(ceiling)
                    and ech.to_reduced() <= ceiling.keys())):
            return set(range(sub.m)) - ech.to_reduced()
    return None
