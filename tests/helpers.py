"""Shared test fixtures-as-functions: small named graphs, an
independent max-flow implementation, brute-force connectivity tests
and a row-folding echelon.

The connectivity cross-checks here deliberately reimplement Menger
counting with augmenting paths instead of reusing the library code, so
that the two sides of every comparison share nothing but the inputs.
The brute-force k_vertex_connected and k_edge_connected delete every
node or link subset and search what is left with graph.reachable,
where the library's tests run lowpoint passes. Likewise
ReferenceEchelon keeps echelon rows, where the library's
IntegerEchelon keeps a nullspace basis, and reference_recovery sums
Fraction metrics per path and builds dense witnesses, where the oracle
feeds integer sums through one live row and builds sparse ones.
previous_certified_identifiable, previous_analyze_block,
previous_biconnected_components and previous_lowpoint keep earlier
versions of library steps as references for the current ones.
"""

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from math import gcd

from linkident import (
    Graph,
    InconsistentSystem,
    TooSmall,
    enumerate_simple_paths,
)
from linkident.certify import _switch_seeds, _tree_seeds
from linkident.decomposition import BOND, Block, BlockCutTree
from linkident.errors import Disconnected
from linkident.graph import node_adjacency, reachable
from linkident.linalg import IntegerEchelon
from linkident.oracle import _indexed_adjacency, build_measurement_matrix
from linkident.structural import (
    RULE_DEFERRED,
    RULE_DIRECT,
    RULE_FALLBACK,
    RULE_TOO_FEW,
    Category,
    _mark,
    classify_component,
)


# -- small named graphs --------------------------------------------------

PRISM_EDGES = [(0, 3), (0, 4), (0, 5), (1, 2), (1, 4), (1, 5), (2, 3),
               (2, 5), (3, 4)]


def triangle(monitors=(0, 1)):
    return Graph(range(3), [(0, 1), (0, 2), (1, 2)], monitors=monitors)


def k4(monitors=None):
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    return Graph(range(4), edges, monitors=monitors)


def c5(monitors=None):
    return Graph(range(5), [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
                 monitors=monitors)


def path_graph(k, monitors=None):
    """Path on k+1 nodes 0..k, links (i, i+1)."""
    return Graph(range(k + 1), [(i, i + 1) for i in range(k)],
                 monitors=monitors)


def prism(monitors=(0, 5)):
    """Triangular prism; with monitors (0, 5) on a rung, the other two
    rungs (1, 4) and (2, 3) are unidentifiable despite the graph being
    3-vertex-connected."""
    return Graph(range(6), PRISM_EDGES, monitors=monitors)


def bowtie_on_edge(monitors=None):
    """Two triangles glued on the edge (0, 1), which is present: the
    smallest graph whose decomposition has a bond, with links
    0:(0,1) 1:(0,2) 2:(1,2) 3:(0,3) 4:(1,3)."""
    return Graph(range(4), [(0, 1), (0, 2), (2, 1), (0, 3), (3, 1)],
                 monitors=monitors)


def two_triangles(monitors=None):
    """Triangles {0,1,2} and {2,3,4} sharing the cut vertex 2."""
    return Graph(range(5), [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)],
                 monitors=monitors)


def triangle_chain(blocks):
    """Triangles (2i, 2i+1, 2i+2) glued at their even nodes."""
    edges = []
    for i in range(blocks):
        edges += [(2 * i, 2 * i + 1), (2 * i + 1, 2 * i + 2),
                  (2 * i, 2 * i + 2)]
    return Graph(range(2 * blocks + 1), edges)


def k4_chain(blocks):
    """Complete graphs on (3i, ..., 3i+3) glued at nodes 3i: a chain
    of rigid blocks, none of them a cycle."""
    edges = []
    for i in range(blocks):
        edges += list(combinations(range(3 * i, 3 * i + 4), 2))
    return Graph(range(3 * blocks + 1), edges)


def cycle(k):
    """The cycle 0, 1, ..., k-1."""
    return Graph(range(k), [(i, (i + 1) % k) for i in range(k)])


def k23(monitors=None):
    """Complete bipartite graph on parts {0, 1} and {2, 3, 4}."""
    return Graph(range(5), [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)],
                 monitors=monitors)


# -- independent Menger counters ------------------------------------------

def edge_disjoint_paths(nodes, pairs, s, t):
    """Maximum number of pairwise edge-disjoint s-t paths.

    Unit-capacity max flow with BFS augmenting paths; undirected links
    become one unit of capacity in each direction.
    """
    cap = {}
    for u, v in pairs:
        cap[(u, v)] = cap.get((u, v), 0) + 1
        cap[(v, u)] = cap.get((v, u), 0) + 1
    flow = 0
    while True:
        prev = {s: None}
        queue = [s]
        while queue and t not in prev:
            v = queue.pop(0)
            for w in nodes:
                if w not in prev and cap.get((v, w), 0) > 0:
                    prev[w] = v
                    queue.append(w)
        if t not in prev:
            return flow
        v = t
        while prev[v] is not None:
            u = prev[v]
            cap[(u, v)] -= 1
            cap[(v, u)] = cap.get((v, u), 0) + 1
            v = u
        flow += 1


def vertex_disjoint_paths(nodes, pairs, s, t):
    """Maximum number of internally vertex-disjoint s-t paths.

    Standard node splitting: v becomes (v, in) -> (v, out) with
    capacity 1 (unbounded at s and t), links get unbounded capacity.
    """
    big = len(pairs) + 1
    cap = {}
    for v in nodes:
        cap[((v, "i"), (v, "o"))] = big if v in (s, t) else 1
    for u, v in pairs:
        cap[((u, "o"), (v, "i"))] = big
        cap[((v, "o"), (u, "i"))] = big
    source, sink = (s, "o"), (t, "i")
    verts = [(v, side) for v in nodes for side in ("i", "o")]
    flow = 0
    while True:
        prev = {source: None}
        queue = [source]
        while queue and sink not in prev:
            a = queue.pop(0)
            for b in verts:
                if b not in prev and cap.get((a, b), 0) > 0:
                    prev[b] = a
                    queue.append(b)
        if sink not in prev:
            return flow
        b = sink
        while prev[b] is not None:
            a = prev[b]
            cap[(a, b)] -= 1
            cap[(b, a)] = cap.get((b, a), 0) + 1
            b = a
        flow += 1


def vertex_connectivity(g):
    """Exact vertex connectivity; n - 1 for complete graphs."""
    nodes = list(g.nodes)
    pairs = list(g.links.values())
    present = {frozenset(p) for p in pairs}
    nonadj = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]
              if frozenset((u, v)) not in present]
    if not nonadj:
        return len(nodes) - 1
    return min(vertex_disjoint_paths(nodes, pairs, u, v)
               for u, v in nonadj)


def edge_connectivity(g):
    """Exact edge connectivity (0 for disconnected graphs)."""
    nodes = list(g.nodes)
    pairs = list(g.links.values())
    s = nodes[0]
    return min(edge_disjoint_paths(nodes, pairs, s, t)
               for t in nodes[1:])


# -- brute-force connectivity ----------------------------------------------

def _connected(nodes, pairs):
    """Connectivity of an explicit node set / edge pair list."""
    if not nodes:
        return True
    first = next(iter(nodes))
    return len(reachable(node_adjacency(nodes, pairs), (first,))) \
        == len(nodes)


def k_vertex_connected(g, k):
    """No deletion of any (k-1) nodes disconnects g. k in {1, 2, 3}.

    Parallel links do not matter here. The size is checked first:
    whenever the graph has k or fewer nodes, where the notion
    degenerates, this raises TooSmall, whatever k is. Only a graph with
    more than k nodes gets the range check, which raises ValueError for
    k outside {1, 2, 3}.
    """
    nodes = sorted(set(g.nodes))
    if len(nodes) <= k:
        raise TooSmall(f"need more than {k} nodes, have {len(nodes)}")
    if k not in (1, 2, 3):
        raise ValueError(f"k must be 1, 2 or 3, got {k}")
    adj = node_adjacency(nodes, g.links.values())
    for cut in combinations(nodes, k - 1):
        gone = set(cut)
        start = next(v for v in nodes if v not in gone)
        if len(reachable(adj, (start,), gone)) != len(nodes) - len(gone):
            return False
    return True


def k_edge_connected(g, k):
    """No deletion of any (k-1) links disconnects g. k in {1, 2, 3}.

    Parallel links count individually. A quick minimum-degree reject
    (counting multiplicity) covers most failures before the subset
    scan.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"k must be 1, 2 or 3, got {k}")
    nodes = set(g.nodes)
    pairs = list(g.links.values())
    if len(nodes) <= 1:
        return True
    if k > 1:
        deg = {v: 0 for v in nodes}
        for u, w in pairs:
            deg[u] += 1
            deg[w] += 1
        if min(deg.values()) < k:
            return False
    for cut in combinations(range(len(pairs)), k - 1):
        gone = set(cut)
        kept = [p for i, p in enumerate(pairs) if i not in gone]
        if not _connected(nodes, kept):
            return False
    return True


# -- measurement arithmetic ------------------------------------------------

def path_sum(g, path_nodes, values):
    """Sum of the given per-link values along a node-sequence path."""
    total = Fraction(0)
    for a, b in zip(path_nodes, path_nodes[1:]):
        total += values[g.link_between(a, b)]
    return total


# -- reference echelon -----------------------------------------------------

def _squeeze_row(row):
    """Divide out the gcd and make the leading entry positive.

    Returns (row, divisor) where divisor is the signed integer the row
    was divided by, or (None, 0) for a zero row.
    """
    g = 0
    lead = -1
    for j, x in enumerate(row):
        if x:
            if lead < 0:
                lead = j
            g = gcd(g, x)
    if lead < 0:
        return None, 0
    if row[lead] < 0:
        g = -g
    if g != 1:
        row = [x // g for x in row]
    return row, g


class ReferenceEchelon:
    """Exact row reduction by folding, with the API of IntegerEchelon.

    Each row is folded against every echelon row (fraction-free
    cross-multiplication, then a gcd squeeze) and kept sorted by its
    pivot column; right-hand sides are Fractions dragged through the
    same steps. Queries back-eliminate to reduced row echelon form
    first. Slow, plain, and independent of the library's nullspace
    tracking.
    """

    def __init__(self, ncols, carry_rhs=False):
        self.ncols = ncols
        self.rows = []          # echelon rows, parallel to cols
        self.cols = []          # sorted pivot column of each row
        self.rhs = [] if carry_rhs else None
        self.carry_rhs = carry_rhs
        self.inconsistent = False
        self._rref_done = True

    @property
    def rank(self):
        return len(self.rows)

    @property
    def full_column_rank(self):
        return len(self.rows) == self.ncols

    def _fold(self, row, rhs):
        """Reduce row against the current basis. Returns (row, rhs,
        lead) with lead -1 for a fully reduced (zero) row."""
        for i, c in enumerate(self.cols):
            a = row[c]
            if a:
                p = self.rows[i]
                pc = p[c]
                row = [pc * x - a * y for x, y in zip(row, p)]
                if rhs is not None:
                    rhs = pc * rhs - a * self.rhs[i]
        row, g = _squeeze_row(row)
        if row is None:
            return None, rhs, -1
        if rhs is not None:
            rhs = rhs / g
        return row, rhs, next(j for j, x in enumerate(row) if x)

    def add(self, row, rhs=None):
        if self.carry_rhs:
            rhs = Fraction(rhs if rhs is not None else 0)
        else:
            rhs = None
        row, rhs, lead = self._fold(list(row), rhs)
        if lead < 0:
            if rhs is not None and rhs != 0:
                self.inconsistent = True
            return False
        at = bisect_left(self.cols, lead)
        self.cols.insert(at, lead)
        self.rows.insert(at, row)
        if self.rhs is not None:
            self.rhs.insert(at, rhs)
        self._rref_done = False
        return True

    def in_span(self, vec):
        rhs = Fraction(0) if self.carry_rhs else None
        _, _, lead = self._fold(list(vec), rhs)
        return lead < 0

    def to_reduced(self):
        """Back-eliminate so every pivot column is zero in other rows."""
        if self._rref_done:
            return
        rows, cols, rhss = self.rows, self.cols, self.rhs
        for i in range(len(rows) - 1, 0, -1):
            c = cols[i]
            p = rows[i]
            pc = p[c]
            for j in range(i):
                a = rows[j][c]
                if a:
                    q = [pc * x - a * y for x, y in zip(rows[j], p)]
                    q, g = _squeeze_row(q)
                    rows[j] = q
                    if rhss is not None:
                        rhss[j] = (pc * rhss[j] - a * rhss[i]) / g
        self._rref_done = True

    def unit_in_span(self, col):
        self.to_reduced()
        at = bisect_left(self.cols, col)
        if at == len(self.cols) or self.cols[at] != col:
            return False
        row = self.rows[at]
        return all(x == 0 for j, x in enumerate(row) if j != col)

    def unit_value(self, col):
        if self.inconsistent:
            raise InconsistentSystem("system has no exact solution")
        self.to_reduced()
        at = bisect_left(self.cols, col)
        return self.rhs[at] / self.rows[at][col]

    def particular_solution(self):
        if self.inconsistent:
            raise InconsistentSystem("system has no exact solution")
        self.to_reduced()
        x = [Fraction(0)] * self.ncols
        for i, c in enumerate(self.cols):
            x[c] = self.rhs[i] / self.rows[i][c]
        return x

    def nullspace_basis(self):
        self.to_reduced()
        pivot = set(self.cols)
        basis = []
        for f in range(self.ncols):
            if f in pivot:
                continue
            x = [Fraction(0)] * self.ncols
            x[f] = Fraction(1)
            for i, c in enumerate(self.cols):
                a = self.rows[i][f]
                if a:
                    x[c] = Fraction(-a, self.rows[i][c])
            basis.append(x)
        return basis


# -- reference values and witnesses ----------------------------------------

def dense_positive_alternative(base, delta):
    """base + eps*delta with eps > 0 small enough to stay positive."""
    eps = None
    for b, d in zip(base, delta):
        if d < 0:
            cand = Fraction(b, -2 * d)
            if eps is None or cand < eps:
                eps = cand
    if eps is None:
        eps = Fraction(1)
    return tuple(b + eps * d for b, d in zip(base, delta))


def reference_recovery(g):
    """(recovered, witnesses, exact) as verify_metric_recovery defines
    them, from the Fraction path sums of build_measurement_matrix fed
    into ReferenceEchelon, with every witness built densely."""
    system = build_measurement_matrix(enumerate_simple_paths(g), g)
    ref = ReferenceEchelon(g.m, carry_rhs=True)
    for row, rhs in zip(system.matrix, system.rhs):
        ref.add(row, rhs)
    truth = tuple(g.metrics[j] for j in range(g.m))
    recovered = {j: ref.unit_value(j) for j in range(g.m)
                 if ref.unit_in_span(j)}
    exact = all(value == truth[j] for j, value in recovered.items())
    basis = ref.nullspace_basis()
    witnesses = {}
    for j in range(g.m):
        if j not in recovered:
            delta = next(d for d in basis if d[j] != 0)
            witnesses[j] = (truth, dense_positive_alternative(truth, delta))
    return recovered, witnesses, exact


# -- the certificate rung before per-link switch certificates --------------
# Kept verbatim as the reference the current rung must settle a superset
# of: tree seeds first, then the switch paths of each link still in the
# support, and only the ceiling as a certified null vector.


def previous_certified_identifiable(sub):
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


# -- the block step before cycle blocks settled from their size ------------
# Kept verbatim as the reference for the current step: every block with
# two distinct agents, cycles included, goes through the triconnected
# split, classification and marking.


def previous_analyze_block(st, block, agents, monitors, path_cap, claims,
                           categories, fallback_blocks):
    a1, a2 = agents
    if a1 == a2:
        for eid in block.links:
            claims.claim(eid, False, RULE_TOO_FEW)
        categories[block.bid] = ()
        return

    direct = st.g.link_between(a1, a2)
    if direct is not None:
        both_monitors = {a1, a2} == set(monitors)
        claims.claim(direct, both_monitors, RULE_DIRECT)

    if len(block.links) == 1:
        # a bridge between distinct agents is exactly the direct link
        assert direct == block.links[0]
        categories[block.bid] = ((None, Category.SINGLE_LINK),)
        return

    d = st.tri(block.bid)
    classified = []
    for comp in d.components:
        if comp.kind == BOND:
            continue
        cls = classify_component(st, block.bid, comp.cid, agents,
                                 path_cap)
        classified.append((comp, cls))
    categories[block.bid] = tuple((comp.cid, cls.category)
                                  for comp, cls in classified)

    if any(cls.category is Category.FALLBACK for _, cls in classified):
        fallback_blocks.add(block.bid)
        ident = st.block_oracle(block.bid, agents, path_cap)
        for eid in block.links:
            if eid == direct:
                continue
            claims.claim(eid, eid in ident, RULE_FALLBACK)
        return

    deferred = set()
    for comp, cls in classified:
        _mark(st.g, d, comp, cls, agents, direct, claims, deferred)

    unresolved = sorted(eid for eid in deferred if eid not in claims)
    if unresolved:
        ident = st.block_oracle(block.bid, agents, path_cap)
        for eid in unresolved:
            claims.claim(eid, eid in ident, RULE_DEFERRED)

    missing = [eid for eid in block.links if eid not in claims]
    assert not missing, f"links {missing} of block {block.bid} unmarked"


# Kept verbatim as the references for the one-pass block-cut tree and
# the indexed lowpoint pass: a block-cut tree assembled after its DFS,
# and a lowpoint pass over a node-keyed link adjacency.


def previous_biconnected_components(g):
    """Block-cut tree of a connected graph.

    Raises Disconnected when the DFS from the first node misses a node.
    """
    disc = {}
    low = {}
    stack = []
    raw_blocks = []                 # (link ids, head) as popped
    tree_link = {}                  # node -> DFS tree link into it
    cuts = set()
    counter = [0]

    def dfs(v, parent_link):
        disc[v] = low[v] = counter[0]
        counter[0] += 1
        children = 0
        for w, eid in g.neighbors(v):
            if eid == parent_link:
                continue
            if w not in disc:
                stack.append(eid)
                tree_link[w] = eid
                children += 1
                dfs(w, eid)
                low[v] = min(low[v], low[w])
                if low[w] >= disc[v]:
                    if parent_link is not None or children > 1:
                        cuts.add(v)
                    blk = []
                    while True:
                        e = stack.pop()
                        blk.append(e)
                        if e == eid:
                            break
                    raw_blocks.append((blk, v))
            elif disc[w] < disc[v]:
                stack.append(eid)
                low[v] = min(low[v], disc[w])

    if g.nodes:
        dfs(g.nodes[0], None)
    if len(disc) < g.n:
        raise Disconnected("graph is not connected")

    raw_blocks.sort(key=lambda raw: min(raw[0]))
    blocks = []
    head = []
    link_block = {}
    for bid, (linkids, v) in enumerate(raw_blocks):
        linkids.sort()
        nodes = sorted({x for eid in linkids for x in g.links[eid]})
        blocks.append(Block(bid=bid, links=tuple(linkids),
                            nodes=tuple(nodes)))
        head.append(v)
        link_block.update(dict.fromkeys(linkids, bid))
    # a block holds the tree link into each of its nodes but its head
    up = {x: link_block[eid] for x, eid in tree_link.items()}
    edges = tuple(sorted((b.bid, v) for b in blocks for v in b.nodes
                         if v in cuts))
    return BlockCutTree(blocks=blocks, cut_vertices=frozenset(cuts),
                        edges=edges, nodes=g.nodes, links=g.links,
                        link_block=link_block, head=head, up=up)


def previous_lowpoint(adj, removed=None):
    """One lowpoint pass (Tarjan 1972) over a link adjacency.

    adj is as built by link_adjacency. The depth-first search starts
    at the first node of adj other than removed and never enters
    removed. Returns (reached, cuts, bridge): the nodes reached, in
    discovery order, the cut nodes of what was reached, and whether
    some link of it is a bridge. A non-root node v cuts when some DFS
    child w has low[w] >= disc[v], the root when it has two or more
    children; the tree link into w is a bridge when low[w] > disc[v].
    The parent link is skipped by id, not by node, so parallel links
    shield each other. The search keeps its own stack, in O(n + m).
    """
    root = next(v for v in adj if v != removed)
    disc = {root: 0}
    low = {root: 0}
    cuts = set()
    bridge = False
    root_children = 0
    stack = [(root, None, iter(adj[root]))]
    while stack:
        v, via, todo = stack[-1]
        for w, eid in todo:
            if w == removed or eid == via:
                continue
            if w in disc:
                if disc[w] < low[v]:
                    low[v] = disc[w]
                continue
            disc[w] = low[w] = len(disc)
            stack.append((w, eid, iter(adj[w])))
            break
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    if len(stack) > 1:
                        cuts.add(u)
                    else:
                        root_children += 1
                    if low[v] > disc[u]:
                        bridge = True
    if root_children > 1:
        cuts.add(root)
    return disc, cuts, bridge
