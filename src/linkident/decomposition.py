"""Structural decomposition: blocks and triconnected components.

Two classical layers:

  * biconnected components (blocks) with cut vertices, arranged in the
    block-cut tree; bridges are single-link blocks. One depth-first
    search pops each block off its link stack with the node it hangs
    from, and one loop over the popped blocks assembles the blocks,
    the tree edges and the maps from links and nodes to blocks;
  * the canonical split of each block into triconnected components
    (polygons, bonds, rigid pieces) joined by paired virtual links at
    its separation pairs.

The triconnected split repeatedly cuts a piece at its first separation
pair, found with one graph.lowpoint pass per removed node (Tarjan 1972;
Hopcroft & Tarjan 1973), so one search costs O(n*(n+m)). Every pass of
a search runs on one integer-indexed adjacency of the piece. Canonical
merging follows (adjacent polygons merge, adjacent bonds merge), which
lands on the same unique decomposition as the linear time algorithms
at a fraction of the code.

Within a decomposition, real links keep their input ids and virtual
link ids continue past the largest real id. Every virtual id appears
in exactly two components with the same endpoints.

A real link parallel to a split pair sits in the one bond at that
pair, and it is the block's own link between the pair's two nodes, so
callers read it from their graph (Graph.link_between) rather than
from the decomposition.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field

from .connectivity import k_vertex_connected
from .errors import (
    BrokenPairing,
    Disconnected,
    NotBiconnected,
    UnknownBlock,
)
from .graph import (
    Graph,
    indexed_link_adjacency,
    lowpoint,
    node_adjacency,
    reachable,
)

POLYGON = "polygon"
BOND = "bond"
RIGID = "rigid"


# -- blocks ------------------------------------------------------------


@dataclass(frozen=True)
class Block:
    """One biconnected component: its links and the nodes they span."""

    bid: int
    links: tuple
    nodes: tuple


@dataclass
class BlockCutTree:
    """Blocks, cut vertices, and their bipartite tree incidence.

    The tree is rooted at the node its DFS started from. head[bid] is
    the node through which block bid hangs from the rest of the tree
    (the root for a block at the root), and up maps every other node
    to the one block in which it is not the head: the block of the
    DFS tree link into it. nodes and links are those of the graph the
    tree was built from, and link_block maps each link id to the id
    of its block.
    """

    blocks: list
    cut_vertices: frozenset
    edges: tuple                    # (block id, cut vertex) pairs
    nodes: tuple = field(repr=False)
    links: dict = field(repr=False)
    link_block: dict = field(repr=False)
    head: list = field(repr=False)
    up: dict = field(repr=False)

    def block(self, bid):
        try:
            return self.blocks[bid]
        except IndexError:
            raise UnknownBlock(f"no block {bid}") from None


def biconnected_components(g):
    """Block-cut tree of a connected graph, assembled from one DFS.

    The DFS pops each block's links off its link stack together with
    the block's head (the node it hangs from) and its smallest link
    id, so sorting the popped tuples orders the blocks by smallest
    link. One loop over them then builds every block's nodes, its
    share of link_block and up, and its tree edges, which come out in
    order. Raises Disconnected when the DFS from the first node misses
    a node.
    """
    links = g.links
    disc = {}
    low = {}
    stack = []
    popped = []                     # (smallest link id, link ids, head)
    cuts = set()

    def dfs(v, parent_link):
        disc[v] = low[v] = len(disc)
        children = 0
        for w, eid in g.neighbors(v):
            if eid == parent_link:
                continue
            if w not in disc:
                pos = len(stack)
                stack.append(eid)
                children += 1
                dfs(w, eid)
                if low[w] < low[v]:
                    low[v] = low[w]
                if low[w] >= disc[v]:
                    if parent_link is not None or children > 1:
                        cuts.add(v)
                    # every link pushed since the tree link into w
                    blk = stack[pos:]
                    del stack[pos:]
                    popped.append((min(blk), blk, v))
            elif disc[w] < disc[v]:
                stack.append(eid)
                if disc[w] < low[v]:
                    low[v] = disc[w]

    if g.nodes:
        dfs(g.nodes[0], None)
    if len(disc) < g.n:
        raise Disconnected("graph is not connected")

    popped.sort()
    blocks = []
    head = []
    link_block = {}
    up = {}
    edges = []
    for bid, (_, linkids, v) in enumerate(popped):
        linkids.sort()
        nodes = sorted({x for eid in linkids for x in links[eid]})
        # one update in place of the generated frozen __init__'s three
        # object.__setattr__ calls
        block = object.__new__(Block)
        block.__dict__.update(bid=bid, links=tuple(linkids),
                              nodes=tuple(nodes))
        blocks.append(block)
        head.append(v)
        link_block.update(dict.fromkeys(linkids, bid))
        for x in nodes:
            # the block holds the tree link into each of its nodes but
            # its head
            if x != v:
                up[x] = bid
            if x in cuts:
                edges.append((bid, x))
    return BlockCutTree(blocks=blocks, cut_vertices=frozenset(cuts),
                        edges=tuple(edges), nodes=g.nodes, links=links,
                        link_block=link_block, head=head, up=up)


# -- triconnected split ------------------------------------------------


def _endpoints(links):
    return {x for pair in links.values() for x in pair}


def _kind_of(links, nodes):
    """Kind of a piece from its link and node counts alone. Every
    piece is 2-connected, so every node has degree 2 or more, and a
    piece on 3 or more nodes is a polygon exactly when no degree
    exceeds 2, that is, when it has as many links as nodes."""
    if len(nodes) == 2:
        return BOND
    if len(links) == len(nodes):
        return POLYGON
    return RIGID


def _find_split_pair(links, nodes, start):
    """First qualifying separation pair (a, b) with a >= start.

    Returns (a, b) with a < b, or None when no such pair qualifies.
    The classes of a pair {a, b} are the components of the piece minus
    {a, b}, each with its links into a and b, plus one single-link
    class per direct a-b link. A pair qualifies when its classes can
    be divided into two sides of at least two links each: at least two
    classes, excluding the case of exactly two classes where one is a
    lone direct link. Pairs are tried in ascending (a, b) order; nodes
    must be the sorted endpoints of links. Callers pass a start below
    which no pair can qualify (see _split).

    Only candidate pairs are tried. In a 2-connected piece, {a, b}
    qualifies only if removing both leaves two or more components (so
    b cuts the piece without a) or leaves one component and a, b are
    joined by two or more parallel links. Each a therefore needs one
    lowpoint pass without a plus its parallel links. A split piece has
    three or more nodes, and there every candidate qualifies: each
    component class holds a link into a and one into b, so only a
    direct link can form a one-link class, and a candidate has either
    two component classes or two direct links beside a component
    class. The smallest candidate above the first a that has one is
    the first qualifying pair of all, so a search makes at most one
    pass per node from start on: O(n*(n+m)).

    Every pass runs on one indexed adjacency of the piece. nodes are
    sorted, so index order is node order, and only the pair found is
    mapped back to nodes.
    """
    adj = indexed_link_adjacency(nodes, links.items())
    for a in range(bisect_left(nodes, start), len(nodes)):
        direct = Counter(w for w, _ in adj[a])
        candidates = lowpoint(adj, a)[1]
        candidates.update(w for w, k in direct.items() if k >= 2)
        above = [w for w in candidates if w > a]
        if above:
            return nodes[a], nodes[min(above)]
    return None


def _split_side(links, nodes, a, b):
    """The side a split at {a, b} cuts off: the component of the piece
    minus {a, b} that holds its smallest other node, with that
    component's links into a and b, in link id order. In a 2-connected
    piece every component links into both a and b, so this side has
    two or more links and is the first such class of the pair."""
    first = next(v for v in nodes if v != a and v != b)
    side = reachable(node_adjacency(nodes, links.values()), (first,),
                     (a, b))
    return {eid: (u, v) for eid, (u, v) in sorted(links.items())
            if u in side or v in side}


def _split(block_links):
    """Split into raw (unmerged) triconnected parts.

    Returns (list of (link dict, kind, sorted nodes) pieces, virtual
    id -> endpoint pair). A piece with a qualifying pair (a, b) is cut
    into _split_side and the rest, each side getting one copy of a new
    virtual link a-b.

    Each piece's search starts at the smaller node a of the pair that
    cut its parent. That skips no qualifying pair: a pair (x, y) with
    x < a that qualifies in a piece would also qualify in the parent,
    because the new virtual link's class only grows back into the
    other side, and the parent's ascending scan already rejected every
    such pair. So pairs below a never qualify again, and a
    decomposition makes far fewer lowpoint passes than one pass per
    node per piece (82 against 218 on grid(9, 9)).
    """
    vpairs = {}
    vnext = max(block_links) + 1
    out = []
    work = [(dict(block_links), None)]
    while work:
        links, start = work.pop()
        nodes = sorted(_endpoints(links))
        kind = _kind_of(links, nodes)
        if kind != RIGID:
            out.append((links, kind, nodes))
            continue
        pair = _find_split_pair(
            links, nodes, nodes[0] if start is None else start)
        if pair is None:
            out.append((links, RIGID, nodes))
            continue
        a, b = pair
        side1 = _split_side(links, nodes, a, b)
        side2 = {eid: p for eid, p in links.items() if eid not in side1}
        vid = vnext
        vnext += 1
        vpairs[vid] = side1[vid] = side2[vid] = pair
        work.append((side1, a))
        work.append((side2, a))
    return out, vpairs


def _merge_same_kind(comps, vpairs):
    """Canonical merging: collapse polygon-polygon and bond-bond pairs
    sharing a virtual link, until none remain. A merged piece keeps the
    kind of its parts."""
    changed = True
    while changed:
        changed = False
        holders = {}
        for i, c in enumerate(comps):
            for eid in c[0]:
                if eid in vpairs:
                    holders.setdefault(eid, []).append(i)
        for vid in sorted(holders):
            i, j = holders[vid]
            (li, ki, ni), (lj, kj, nj) = comps[i], comps[j]
            if ki != RIGID and ki == kj:
                merged = {**li, **lj}
                del merged[vid]
                del vpairs[vid]
                comps = [c for k, c in enumerate(comps) if k not in (i, j)]
                comps.append((merged, ki, sorted({*ni, *nj})))
                changed = True
                break
    return comps, vpairs


# -- decomposition result ----------------------------------------------


@dataclass(frozen=True)
class TriComponent:
    """One triconnected component of a block: its sorted nodes, its
    links (id -> (u, v), u < v, real and virtual) and the ids of its
    virtual links."""

    cid: int
    kind: str
    nodes: tuple
    links: dict = field(hash=False)
    virtuals: frozenset


@dataclass
class TriconnectedDecomposition:
    """Canonical triconnected components of one biconnected block."""

    components: list                 # TriComponent, by cid
    virtual_pairing: dict            # virtual id -> (cid, cid)
    split_pairs: dict                # cid -> sorted unique node pairs
    pair_nodes: dict                 # virtual id -> (a, b)

    def component(self, cid):
        if 0 <= cid < len(self.components):
            return self.components[cid]
        raise UnknownBlock(f"no component {cid}")

    def partner(self, cid, vid):
        x, y = self.virtual_pairing[vid]
        return y if cid == x else x

    def to_json(self):
        """Plain-dict mirror of the decomposition, ready for json.dump."""
        return {
            "components": [
                {
                    "cid": c.cid,
                    "kind": c.kind,
                    "nodes": list(c.nodes),
                    "links": {str(eid): list(pair)
                              for eid, pair in sorted(c.links.items())},
                    "virtuals": sorted(c.virtuals),
                }
                for c in self.components
            ],
            "virtual_pairing": {str(vid): list(cids)
                                for vid, cids in sorted(self.virtual_pairing.items())},
            "split_pairs": {str(cid): [list(p) for p in pairs]
                            for cid, pairs in sorted(self.split_pairs.items())},
            "pair_nodes": {str(vid): list(pair)
                           for vid, pair in sorted(self.pair_nodes.items())},
        }


def decompose_links(block_links):
    """Canonical decomposition of a biconnected link dict (id -> pair).

    Core of triconnected_components that preserves the caller's link
    ids, for decomposing one block of a larger graph in place. The
    links must form a biconnected graph; this is not re-checked here.
    """
    comps, vpairs = _split(block_links)
    comps, vpairs = _merge_same_kind(comps, vpairs)

    # renumber surviving virtual ids compactly above the real ids,
    # in creation order (deterministic given the deterministic split)
    base = max(block_links) + 1
    remap = {old: base + i for i, old in enumerate(sorted(vpairs))}
    comps = [({remap.get(eid, eid): pair for eid, pair in c.items()},
              kind, nodes) for c, kind, nodes in comps]
    vpairs = {remap[old]: pair for old, pair in vpairs.items()}

    def comp_key(piece):
        c, _, nodes = piece
        reals = sorted(eid for eid in c if eid not in vpairs)
        if reals:
            return (0, reals[0])
        return (1, tuple(nodes))

    comps.sort(key=comp_key)

    components = []
    pairing = {}
    split_pairs = {}
    for cid, (links, kind, nodes) in enumerate(comps):
        virtual = frozenset(eid for eid in links if eid in vpairs)
        components.append(TriComponent(
            cid=cid, kind=kind, nodes=tuple(nodes), links=links,
            virtuals=virtual))
        for vid in virtual:
            pairing.setdefault(vid, []).append(cid)
        split_pairs[cid] = sorted({vpairs[vid] for vid in virtual})
    pairing = {vid: tuple(sorted(cids)) for vid, cids in pairing.items()}
    return TriconnectedDecomposition(
        components=components,
        virtual_pairing=pairing,
        split_pairs=split_pairs,
        pair_nodes=dict(vpairs),
    )


def triconnected_components(block):
    """Canonical decomposition of a biconnected graph.

    The input must be simple, connected, free of cut vertices, and
    have at least 3 nodes, else NotBiconnected or TooSmall is raised
    (single links and node pairs are handled at the block level).
    """
    if not isinstance(block, Graph):
        raise TypeError("triconnected_components expects a Graph")
    if not k_vertex_connected(block, 2):
        raise NotBiconnected("input is not 2-connected")
    return decompose_links(block.links)


def reassemble(d):
    """Undo a decomposition: glue at virtual links, keep real links.

    Validates the pairing (every virtual id in exactly two components
    with identical endpoints, every real id in exactly one) and
    returns the block as a Graph. Link ids become positional in
    ascending original-id order, so a block whose ids were already
    0..m-1 comes back identical.
    """
    seen_virtual = {}
    real = {}
    for comp in d.components:
        for eid, pair in comp.links.items():
            if eid in comp.virtuals:
                seen_virtual.setdefault(eid, []).append(pair)
            else:
                if eid in real:
                    raise BrokenPairing(f"real link {eid} in two"
                                        " components")
                real[eid] = pair
    for vid, pairs in seen_virtual.items():
        if len(pairs) != 2 or pairs[0] != pairs[1]:
            raise BrokenPairing(f"virtual link {vid} is not properly"
                                " paired")
        if vid not in d.pair_nodes or d.pair_nodes[vid] != pairs[0]:
            raise BrokenPairing(f"virtual link {vid} endpoints disagree"
                                " with the pairing table")
    for vid in d.pair_nodes:
        if vid not in seen_virtual:
            raise BrokenPairing(f"virtual link {vid} missing from"
                                " components")
    nodes = sorted({x for pair in real.values() for x in pair})
    edges = [real[eid] for eid in sorted(real)]
    return Graph(nodes, edges)
