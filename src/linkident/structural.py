"""Structural identifiability analysis.

Decides, for every link, whether its metric is recoverable from
additive end-to-end measurements over simple paths between the two
monitors, without enumerating those paths. The decision runs block by
block:

  * a block whose two agents coincide is never crossed by any
    monitor-to-monitor path: all of its links are unidentifiable;
  * a link joining the two agents directly is identifiable exactly
    when both agents are the monitors themselves;
  * any other block is split into triconnected components, and each
    component is classified by where the agents sit relative to it.
    The classification dictates the verdict of every link in the
    component, plus any parallel real link it adopts from a bond at
    one of its split pairs. That link is the graph's own link between
    the pair's two nodes, so the engine asks the graph for it
    (Graph.link_between); the decomposition only supplies the pairs.

Four shapes cover rigid components and triangles, and the shapes are
exhaustive: an agent outside a component is beyond exactly one of its
split pairs. A crossed triangle's third side, the shortcut, is always
identifiable: a lone polygon at a crossing pair would have merged with
the triangle into a polygon on 4 or more nodes. Larger polygons do
not admit a sound local rule (a long cycle with adjacent monitors is
the minimal counterexample), so a block containing one falls back to
the exact oracle, run on the block alone with its agents as monitors.
A rigid component holding both effective monitors is not trusted on
shape alone either: a triangular prism measured across one rung leaves
the other two rungs unidentifiable despite being three-connected, so
such components only keep their category after an exact check of their
own links, and fall back otherwise. The oracle verdict is never used
for a direct agent-to-agent link, whose status depends on the monitors
being real rather than effective.

Both exact questions, the rigid check and the block oracle, are first
put to certify.certified_identifiable; the oracle enumerates paths only
where those certificates do not settle the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .agents import locate_agents
from .certify import certified_identifiable
# unused here; perfbench/spans.py wraps structural.has_disjoint_fan
from .connectivity import has_disjoint_fan  # noqa: F401
from .decomposition import (
    BOND,
    POLYGON,
    RIGID,
    biconnected_components,
    decompose_links,
)
from .errors import WrongAgentCount
from .graph import Graph, reachable
from .oracle import DEFAULT_PATH_CAP, identifiable_links_bruteforce

RULE_DIRECT = "direct-agent-link"
RULE_INNER_EXTERIOR = "inner-agent-exterior"
RULE_INNER_INTERIOR = "inner-agent-interior"
RULE_PAIR_EXTERIOR = "agent-pair-exterior"
RULE_PAIR_INTERIOR = "agent-pair-interior"
RULE_DEFERRED = "pair-link-deferred-resolved"
RULE_TRANSIT = "transit-rigid"
RULE_CROSSLINK = "transit-triangle-crosslink"
RULE_SHORTCUT = "transit-triangle-shortcut"
RULE_TOO_FEW = "too-few-agents"
RULE_FALLBACK = "oracle-fallback"

ALL_RULES = (
    RULE_DIRECT,
    RULE_INNER_EXTERIOR,
    RULE_INNER_INTERIOR,
    RULE_PAIR_EXTERIOR,
    RULE_PAIR_INTERIOR,
    RULE_DEFERRED,
    RULE_TRANSIT,
    RULE_CROSSLINK,
    RULE_SHORTCUT,
    RULE_TOO_FEW,
    RULE_FALLBACK,
)


class Category(Enum):
    """Shape classes a triconnected component can fall into."""

    INNER_AGENT = "inner-agent"
    AGENT_PAIR = "agent-pair"
    TRANSIT_RIGID = "transit-rigid"
    TRANSIT_TRIANGLE = "transit-triangle"
    SINGLE_LINK = "single-link"
    FALLBACK = "fallback"


@dataclass(frozen=True)
class Classification:
    """Outcome of classifying one component against the two agents."""

    category: Category
    effective_pair: tuple | None = None    # AGENT_PAIR: stand-in monitors
    inner_agent: int | None = None         # INNER_AGENT: the agent inside
    toward_pair: tuple | None = None       # INNER_AGENT: pair hiding the other
    det_pairs: tuple | None = None         # TRANSIT_*: the two crossing pairs


class Structure:
    """Monitor-independent decomposition state of one graph.

    Caches the block-cut tree, per-block triconnected decompositions,
    far-side node sets per virtual link, per-block oracle runs and
    rigid-component checks, so that repeated analyses of the same
    topology under different monitor placements share all the heavy
    work. Monitors on the held graph are ignored; analyze() accepts a
    Structure built from any graph with identical nodes and links.
    """

    def __init__(self, g):
        self.g = g
        self.bct = biconnected_components(g)
        self._tri = {}
        self._far = {}
        self._block_oracle = {}
        self._pair_ok = {}

    def tri(self, bid):
        """Triconnected decomposition of a block, by block id.

        Real links keep their graph-wide ids. Blocks on fewer than 3
        nodes (bridges) have no decomposition and are not accepted.
        """
        if bid not in self._tri:
            block = self.bct.block(bid)
            self._tri[bid] = decompose_links(
                {eid: self.g.links[eid] for eid in block.links})
        return self._tri[bid]

    def far_nodes(self, bid, cid, vid):
        """Nodes strictly beyond virtual link vid, seen from component
        cid: everything in the component subtree on the other side,
        minus the split pair itself."""
        key = (bid, cid, vid)
        if key not in self._far:
            d = self.tri(bid)
            tree = {c.cid: [d.partner(c.cid, v) for v in c.virtuals]
                    for c in d.components}
            nodes = set()
            for c in reachable(tree, (d.partner(cid, vid),), {cid}):
                nodes.update(d.components[c].nodes)
            nodes.difference_update(d.pair_nodes[vid])
            self._far[key] = frozenset(nodes)
        return self._far[key]

    def block_oracle(self, bid, agents, path_cap=DEFAULT_PATH_CAP):
        """Exact identifiable set of one block, measured between its
        agents. Returns original link ids."""
        key = (bid, tuple(sorted(agents)))
        if key not in self._block_oracle:
            block = self.bct.block(bid)
            self._block_oracle[key] = _identifiable(
                block.nodes, {eid: self.g.links[eid] for eid in block.links},
                key[1], path_cap)
        return self._block_oracle[key]

    def rigid_pair_ok(self, bid, cid, pair, path_cap=DEFAULT_PATH_CAP):
        """Does measuring rigid component cid between the two pair
        nodes identify every component link that avoids both?

        Virtual links count as ordinary measurable links here: each
        stands for a fixed detour of real links on its far side, so a
        combination isolating a component link expands, detour by
        detour, into a combination of real measurements isolating the
        same link. The check exists because three-connectedness alone
        does not deliver the interior: in a triangular prism measured
        across one rung, the other two rungs stay unidentifiable, so a
        rigid component may not promise its interior unchecked.
        """
        key = (bid, cid, tuple(sorted(pair)))
        if key not in self._pair_ok:
            comp = self.tri(bid).component(cid)
            x, y = key[2]
            ident = _identifiable(comp.nodes, comp.links, key[2], path_cap)
            self._pair_ok[key] = all(
                eid in ident for eid, (u, v) in comp.links.items()
                if u != x and u != y and v != x and v != y)
        return self._pair_ok[key]


def _identifiable(nodes, links, monitors, path_cap):
    """Exact identifiable ids among links (id -> pair) measured between
    monitors: certified when the certificates settle it, enumerated by
    the oracle otherwise."""
    ids = sorted(links)
    sub = Graph(sorted(nodes), [links[eid] for eid in ids],
                monitors=monitors)
    pos = certified_identifiable(sub)
    if pos is None:
        pos = identifiable_links_bruteforce(sub, path_cap=path_cap)
    return frozenset(ids[i] for i in pos)


def _require_two_agents(agents):
    distinct = set(agents)
    if len(distinct) != 2:
        raise WrongAgentCount(
            f"need two distinct agents, got {tuple(agents)!r}")
    return distinct


def _pair_beyond(st, bid, comp, agent):
    """The one split pair of comp with agent strictly beyond it."""
    for vid in comp.virtuals:
        if agent in st.far_nodes(bid, comp.cid, vid):
            return st.tri(bid).pair_nodes[vid]
    raise AssertionError(f"agent {agent} beyond no pair of {comp.cid}")


def classify_component(st, bid, cid, agents, path_cap=DEFAULT_PATH_CAP):
    """Classify one non-bond component against the block's two agents.

    Polygons on 4 or more nodes never classify: no local rule is
    sound for them, so they force the fallback. The remaining shapes
    resolve by how many agents the component contains:

      2: the agents themselves are the effective monitor pair;
      1: the other agent hides beyond exactly one split pair; if the
         inside agent sits on that pair the pair is effective,
         otherwise the agent is interior;
      0: both agents hide beyond split pairs; the same pair for both
         makes that pair effective, two different pairs make the
         component a crossing (transit) piece. A shared pair needs no
         check that the agents reach it by disjoint routes: in a
         2-connected block no single node separates two 2-sets
         (Menger), so those routes always exist.

    The cases are exhaustive because an agent outside the component is
    beyond exactly one split pair: the components holding a node form a
    connected subtree of the component tree, and a canonical non-bond
    component has one virtual link per split pair. A transit triangle
    needs no check that its shortcut can be bypassed: the neighbour at
    each crossing pair is a bond of three or more links or a rigid
    component, since a lone polygon there would have merged with the
    triangle into a polygon on 4 or more nodes, which falls back.

    A rigid component with an effective pair must also pass the exact
    per-component check rigid_pair_ok before it keeps the AGENT_PAIR
    category: being three-connected does not by itself make all links
    away from the pair identifiable (the triangular prism measured
    across a rung is the smallest counterexample), and a component
    that fails the check falls back rather than over-promise.
    """
    distinct = _require_two_agents(agents)
    comp = st.tri(bid).component(cid)
    if comp.kind == BOND:
        raise ValueError("bond components are not classified; their"
                         " links are adopted by their neighbors")
    if comp.kind == POLYGON and len(comp.nodes) >= 4:
        return Classification(category=Category.FALLBACK)

    def agent_pair(pair):
        if (comp.kind == RIGID
                and not st.rigid_pair_ok(bid, cid, pair, path_cap)):
            return Classification(category=Category.FALLBACK)
        return Classification(category=Category.AGENT_PAIR,
                              effective_pair=tuple(pair))

    inside = sorted(distinct & set(comp.nodes))
    if len(inside) == 2:
        return agent_pair(tuple(inside))
    if len(inside) == 1:
        m = inside[0]
        (other,) = distinct - {m}
        p = _pair_beyond(st, bid, comp, other)
        if m in p:
            return agent_pair(p)
        return Classification(category=Category.INNER_AGENT,
                              inner_agent=m, toward_pair=p)
    a1, a2 = sorted(distinct)
    p1 = _pair_beyond(st, bid, comp, a1)
    p2 = _pair_beyond(st, bid, comp, a2)
    if p1 == p2:
        return agent_pair(p1)
    det = tuple(sorted((p1, p2)))
    if comp.kind == RIGID:
        return Classification(category=Category.TRANSIT_RIGID,
                              det_pairs=det)
    return Classification(category=Category.TRANSIT_TRIANGLE,
                          det_pairs=det)


# -- verdict assembly ---------------------------------------------------


@dataclass(frozen=True)
class LinkVerdict:
    """Verdict for one link: identifiable or not, and the rule that
    decided it."""

    link: int
    endpoints: tuple
    identifiable: bool
    rule: str
    block: int


@dataclass
class IdentifiabilityReport:
    """Full per-link analysis of one monitored graph."""

    graph: Graph
    monitors: tuple
    verdicts: dict                   # link id -> LinkVerdict
    categories: dict                 # block id -> ((cid, Category), ...)
    fallback_blocks: frozenset

    def identifiable(self):
        """Ids of the links judged identifiable."""
        return {eid for eid, v in self.verdicts.items() if v.identifiable}

    def to_json(self):
        links = []
        for eid in sorted(self.verdicts):
            v = self.verdicts[eid]
            links.append({
                "edge": list(v.endpoints),
                "verdict": ("identifiable" if v.identifiable
                            else "unidentifiable"),
                "rule": v.rule,
            })
        k = sum(1 for v in self.verdicts.values() if v.identifiable)
        return {"links": links,
                "summary": {"identifiable": k, "total": len(self.verdicts)}}


class _Claims:
    """Verdict accumulator with agreement checking.

    A link may be claimed by several components (a parallel link in a
    bond is adopted by every neighbor of that bond); they must agree
    on the verdict. The first claim's rule is kept. Disagreement means
    a bug in the marking rules, not bad input, hence the hard error.
    """

    def __init__(self):
        self.verdicts = {}
        self.rules = {}

    def claim(self, eid, verdict, rule):
        if eid in self.verdicts:
            if self.verdicts[eid] != verdict:
                raise AssertionError(
                    f"conflicting verdicts for link {eid}:"
                    f" {self.rules[eid]} says {self.verdicts[eid]},"
                    f" {rule} says {verdict}")
            return
        self.verdicts[eid] = verdict
        self.rules[eid] = rule

    def __contains__(self, eid):
        return eid in self.verdicts


def _spoken_links(g, d, comp, direct):
    """(id, endpoints) of the real links comp speaks for: its own in id
    order, then the real link parallel at each of its split pairs (it
    lives in the bond there, and is g's own link between the pair's
    nodes). The direct agent link is marked apart and left out."""
    out = [(eid, pair) for eid, pair in sorted(comp.links.items())
           if eid not in comp.virtuals and eid != direct]
    for pair in d.split_pairs[comp.cid]:
        eid = g.link_between(*pair)
        if eid is not None and eid != direct:
            out.append((eid, pair))
    return out


def _mark(g, d, comp, cls, agents, direct, claims, deferred):
    """Claim every link comp speaks for by its category's rule."""
    cat = cls.category
    links = _spoken_links(g, d, comp, direct)
    if cat is Category.INNER_AGENT:
        m = cls.inner_agent
        for eid, (u, v) in links:
            if u == m or v == m:
                claims.claim(eid, False, RULE_INNER_EXTERIOR)
            else:
                claims.claim(eid, True, RULE_INNER_INTERIOR)
    elif cat is Category.AGENT_PAIR:
        x, y = cls.effective_pair
        for eid, (u, v) in links:
            if u == x and v == y:
                # a link joining the effective pair end to end
                n_agents = (x in agents) + (y in agents)
                assert n_agents < 2, "only the direct link joins the agents"
                if n_agents:
                    claims.claim(eid, False, RULE_PAIR_EXTERIOR)
                else:
                    deferred.add(eid)
            elif u == x or u == y or v == x or v == y:
                claims.claim(eid, False, RULE_PAIR_EXTERIOR)
            else:
                claims.claim(eid, True, RULE_PAIR_INTERIOR)
    elif cat is Category.TRANSIT_RIGID:
        # a rigid component has no real link at a split pair; parallels
        # at the other pairs belong to the subtrees hanging there
        hanging = [p for p in d.split_pairs[comp.cid]
                   if p not in cls.det_pairs]
        for eid, pair in links:
            if pair not in hanging:
                claims.claim(eid, True, RULE_TRANSIT)
    else:
        # the third side is the shortcut, never blocked (module docstring)
        for eid, pair in links:
            rule = RULE_CROSSLINK if pair in cls.det_pairs else RULE_SHORTCUT
            claims.claim(eid, True, rule)


def _analyze_block(st, block, agents, monitors, path_cap, claims,
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


def analyze(g, path_cap=DEFAULT_PATH_CAP, structure=None):
    """Structural identifiability verdict for every link of g.

    structure may be a Structure built from a graph with the same nodes
    and links, to share decomposition work across monitor placements.
    """
    m1, m2 = g.require_monitors()
    if structure is None:
        structure = Structure(g)
    elif structure.g.nodes != g.nodes or structure.g.links != g.links:
        raise ValueError("structure was built for a different graph")
    claims = _Claims()
    categories = {}
    fallback_blocks = set()
    assignments = locate_agents(g, structure.bct)
    for block in structure.bct.blocks:
        _analyze_block(structure, block, assignments[block.bid].agents,
                       (m1, m2), path_cap, claims, categories,
                       fallback_blocks)
    home = {eid: b.bid for b in structure.bct.blocks for eid in b.links}
    verdicts = {}
    for eid, pair in g.links.items():
        verdicts[eid] = LinkVerdict(link=eid, endpoints=pair,
                                    identifiable=claims.verdicts[eid],
                                    rule=claims.rules[eid], block=home[eid])
    return IdentifiabilityReport(graph=g, monitors=(m1, m2),
                                 verdicts=verdicts,
                                 categories=categories,
                                 fallback_blocks=frozenset(fallback_blocks))
