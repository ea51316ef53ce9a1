"""Connectivity predicates over graphs and multigraphs.

Cut nodes and bridges come from graph.lowpoint, one iterative
depth-first pass over an integer-indexed adjacency, which each test
builds once and runs all of its passes on. A graph is
2-vertex-connected when one pass reaches every node and finds no cut
node, and 3-vertex-connected when, for every node a, the pass without
a reaches the rest and finds no cut node: n passes, O(n*(n+m)). The
fan test takes one pass plus one per cut node. Plain reachability goes
through graph.reachable.
"""

from __future__ import annotations

from itertools import combinations

from .errors import MonitorsUnset, TooSmall
from .graph import (
    MultiGraph,
    indexed_link_adjacency,
    lowpoint,
    node_adjacency,
    reachable,
)
from .oracle import DEFAULT_PATH_CAP, _walk_paths


def k_vertex_connected(g, k):
    """No deletion of any (k-1) nodes disconnects g. k in {1, 2, 3}.

    Parallel links do not matter here. The size is checked first:
    whenever the graph has k or fewer nodes, where the notion
    degenerates, this raises TooSmall, whatever k is. Only a graph with
    more than k nodes gets the range check, which raises ValueError for
    k outside {1, 2, 3}. k = 1 and k = 2 take one lowpoint pass, k = 3
    one pass per node.
    """
    nodes = sorted(set(g.nodes))
    if len(nodes) <= k:
        raise TooSmall(f"need more than {k} nodes, have {len(nodes)}")
    if k not in (1, 2, 3):
        raise ValueError(f"k must be 1, 2 or 3, got {k}")
    adj = indexed_link_adjacency(nodes, g.links.items())
    if k < 3:
        reached, cuts, _ = lowpoint(adj)
        return len(reached) == len(nodes) and (k == 1 or not cuts)
    for a in range(len(nodes)):
        reached, cuts, _ = lowpoint(adj, a)
        if cuts or len(reached) != len(nodes) - 1:
            return False
    return True


def _monitor_lobes(g, m1, m2):
    """Connected components of g minus both monitors, as node sets."""
    adj = node_adjacency(g.nodes, g.links.values())
    seen = {m1, m2}
    out = []
    for v in g.nodes:
        if v not in seen:
            comp = reachable(adj, (v,), {m1, m2})
            seen |= comp
            out.append(comp)
    return out


def _once_crossed_cut_hits_interior(links, interior, m1, m2, lobe):
    """Is some interior link in a cut that every monitor path crosses
    exactly once?

    Cuts are enumerated as node bipartitions: m1 plus any subset of the
    lobe on one side, m2 and the rest on the other. Cuts, interior and
    paths are link bitmasks. Path masks come from the oracle's path
    walk, bounded by DEFAULT_PATH_CAP, and are only produced for the
    first cut that touches an interior link; cuts entirely through
    monitor links cannot condemn anything and are skipped. The virtual
    bypass link would cross every enumerated cut exactly once, so
    leaving it out of both the cuts and the paths changes no answer.
    """
    paths = None
    members = sorted(lobe)
    for r in range(len(members) + 1):
        for extra in combinations(members, r):
            side = {m1, *extra}
            cut = sum(1 << eid for eid, (u, v) in links.items()
                      if (u in side) != (v in side))
            if not cut & interior:
                continue
            if paths is None:
                paths = []
                _walk_paths(MultiGraph(lobe | {m1, m2}, links), m1, m2,
                            DEFAULT_PATH_CAP,
                            lambda mask, seq: paths.append(mask))
            if all((p & cut).bit_count() == 1 for p in paths):
                return True
    return False


def interior_identifiability_predicate(g):
    """Are all links away from the monitors guaranteed identifiable?

    A simple monitor-to-monitor path never revisits a monitor, so each
    measurement stays inside one lobe: a connected component of the
    graph minus both monitors, taken together with its links up to the
    monitors. Measurements therefore split cleanly over lobes, and the
    predicate is the conjunction of three conditions per lobe, each
    tested on the lobe plus a virtual bypass link joining the monitors
    (standing in for the direct link and for every other lobe):

      * 3-edge-connected;
      * 3-vertex-connected, which implies the first, since the lobe
        plus its bypass has at least four nodes and vertex connectivity
        never exceeds edge connectivity (Whitney 1932); only this one
        is tested;
      * no interior link lies in a once-crossed cut: a link set that
        every simple monitor path crosses exactly once. Raising all
        links of such a cut by t while lowering all links of another
        one by t changes no path sum (the cut of all monitor links at
        one monitor always serves as the other one), so every link of
        such a cut is condemned together. The triangular prism measured
        across one rung is the smallest graph where this condition
        bites while both connectivity conditions hold: the other two
        rungs form a once-crossed cut with that monitor's links.

    Lobes of a single node carry monitor links only, so they have no
    say about interior links and are skipped. When no lobe has two or
    more nodes the graph has no interior links at all and the answer
    is False, matching what the connectivity conditions say about any
    such graph once its single-node lobes are dropped: what remains of
    a bare monitor-to-monitor bridge, or of a parallel pair of them,
    never reaches minimum degree three.
    """
    if g.monitors is None:
        raise MonitorsUnset("predicate needs monitors")
    m1, m2 = g.monitors
    big = [lobe for lobe in _monitor_lobes(g, m1, m2) if len(lobe) >= 2]
    if not big:
        return False
    vid = (max(g.links) + 1) if g.links else 0
    for lobe in big:
        links = {eid: pair for eid, pair in g.links.items()
                 if pair[0] in lobe or pair[1] in lobe}
        interior = sum(1 << eid for eid, (u, v) in links.items()
                       if u in lobe and v in lobe)
        aug = MultiGraph(lobe | {m1, m2}, {**links, vid: (m1, m2)})
        if not k_vertex_connected(aug, 3):
            return False
        if _once_crossed_cut_hits_interior(links, interior, m1, m2, lobe):
            return False
    return True


def has_disjoint_fan(nodes, pairs, sources, targets):
    """Two fully vertex-disjoint paths from {s1, s2} to {t1, t2}?

    nodes/pairs describe the graph; sources and targets are disjoint
    2-sets of its nodes. Join a new node S to both sources and a new
    node T to both targets: the two paths are two S-T paths disjoint
    but for S and T, so by Menger's theorem they exist iff T is
    reached from S and no single node separates them. Such a node is
    a cut node of the joined graph, so one lowpoint pass finds the
    candidates, and one more pass without each (usually none) decides.
    S is index 0 of the joined graph, so that every pass starts there,
    and T the last index.
    """
    S, T = object(), object()
    links = list(enumerate(pairs))
    links += [(len(links) + i, (S, x)) for i, x in enumerate(sources)]
    links += [(len(links) + i, (x, T)) for i, x in enumerate(targets)]
    adj = indexed_link_adjacency([S, *nodes, T], links)
    t = len(adj) - 1
    reached, cuts, _ = lowpoint(adj)
    if t not in reached:
        return False
    return all(t in lowpoint(adj, x)[0] for x in cuts - {0, t})
