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
    one of its split pairs.

Four shapes cover rigid components and triangles. Larger polygons do
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
from .connectivity import has_disjoint_fan
from .decomposition import (
    BOND,
    POLYGON,
    RIGID,
    biconnected_components,
    decompose_links,
)
from .errors import UnknownPair, WrongAgentCount
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
RULE_BLOCKED = "transit-triangle-blocked"
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
    RULE_BLOCKED,
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
    far-side node sets per virtual link, and per-block oracle runs, so
    that repeated analyses of the same topology under different
    monitor placements share all the heavy work. Monitors on the held
    graph are ignored; analyze() accepts a Structure built from any
    graph with identical nodes and links.
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
            ids = sorted(block.links)
            sub = Graph(sorted(block.nodes),
                        [self.g.links[eid] for eid in ids],
                        monitors=tuple(sorted(agents)))
            pos = _identifiable(sub, path_cap)
            self._block_oracle[key] = frozenset(ids[i] for i in pos)
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
            ids = sorted(comp.links)
            sub = Graph(sorted(comp.nodes),
                        [comp.links[eid] for eid in ids],
                        monitors=key[2])
            ident = _identifiable(sub, path_cap)
            eff = set(pair)
            self._pair_ok[key] = all(
                pos in ident for pos, eid in enumerate(ids)
                if not eff & set(comp.links[eid]))
        return self._pair_ok[key]


def _identifiable(sub, path_cap):
    """Exact identifiable set of sub: certified when the certificates
    settle it, enumerated by the oracle otherwise."""
    ident = certified_identifiable(sub)
    if ident is None:
        ident = identifiable_links_bruteforce(sub, path_cap=path_cap)
    return ident


def _require_two_agents(agents):
    distinct = set(agents)
    if len(distinct) != 2:
        raise WrongAgentCount(
            f"need two distinct agents, got {tuple(agents)!r}")
    return distinct


def _pairs_beyond(st, bid, comp, agent):
    """Split pairs of comp with the given agent strictly beyond them."""
    d = st.tri(bid)
    out = []
    for vid in sorted(comp.virtuals):
        if agent in st.far_nodes(bid, comp.cid, vid):
            pair = d.pair_nodes[vid]
            if pair not in out:
                out.append(pair)
    return out


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
         component a crossing (transit) piece.

    A rigid component with an effective pair must also pass the exact
    per-component check rigid_pair_ok before it keeps the AGENT_PAIR
    category: being three-connected does not by itself make all links
    away from the pair identifiable (the triangular prism measured
    across a rung is the smallest counterexample), and a component
    that fails the check falls back rather than over-promise.

    Situations outside these shapes are structural impossibilities;
    they classify as FALLBACK defensively rather than guess.
    """
    distinct = _require_two_agents(agents)
    d = st.tri(bid)
    comp = d.component(cid)
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
        ps = _pairs_beyond(st, bid, comp, other)
        if len(ps) != 1:
            return Classification(category=Category.FALLBACK)
        p = ps[0]
        if m in p:
            return agent_pair(p)
        return Classification(category=Category.INNER_AGENT,
                              inner_agent=m, toward_pair=p)
    a1, a2 = sorted(distinct)
    ps1 = _pairs_beyond(st, bid, comp, a1)
    ps2 = _pairs_beyond(st, bid, comp, a2)
    if len(ps1) != 1 or len(ps2) != 1:
        return Classification(category=Category.FALLBACK)
    p1, p2 = ps1[0], ps2[0]
    if p1 == p2:
        block = st.bct.block(bid)
        pairs = [st.g.links[eid] for eid in block.links]
        if not has_disjoint_fan(block.nodes, pairs, distinct, set(p1)):
            return Classification(category=Category.FALLBACK)
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


def _parallel_real(d, cid, pair):
    """Id of a real link joining this split pair in parallel (it lives
    in the bond there), or None."""
    try:
        return d.neighboring_components(cid, pair).real_link
    except UnknownPair:
        return None


def _side_has_choices(d, cid, pair):
    """Whether the far side of a split pair offers more than one way
    through: a parallel real link, several attached components, or a
    rigid one."""
    comp = d.component(cid)
    for eid, (a, b) in comp.links.items():
        if {a, b} == set(pair) and eid not in comp.virtuals:
            return True
    ns = d.neighboring_components(cid, pair)
    if ns.real_link is not None:
        return True
    if len(ns.components) >= 2:
        return True
    return any(d.component(c).kind == RIGID for c in ns.components)


def _mark_inner_agent(d, comp, cls, direct, claims):
    m = cls.inner_agent
    for eid, (u, v) in sorted(comp.links.items()):
        if eid in comp.virtuals or eid == direct:
            continue
        if m in (u, v):
            claims.claim(eid, False, RULE_INNER_EXTERIOR)
        else:
            claims.claim(eid, True, RULE_INNER_INTERIOR)
    for pair in d.split_pairs[comp.cid]:
        pr = _parallel_real(d, comp.cid, pair)
        if pr is None or pr == direct:
            continue
        if m in pair:
            claims.claim(pr, False, RULE_INNER_EXTERIOR)
        else:
            claims.claim(pr, True, RULE_INNER_INTERIOR)


def _mark_agent_pair(d, comp, cls, agents, direct, claims, deferred):
    x, y = cls.effective_pair
    eff = {x, y}

    def pair_link(eid):
        # a link joining the effective pair end to end
        n_agents = len(eff & set(agents))
        if n_agents == 2:
            assert eid == direct
        elif n_agents == 1:
            claims.claim(eid, False, RULE_PAIR_EXTERIOR)
        else:
            deferred.add(eid)

    for eid, (u, v) in sorted(comp.links.items()):
        if eid in comp.virtuals or eid == direct:
            continue
        if {u, v} == eff:
            pair_link(eid)
        elif u in eff or v in eff:
            claims.claim(eid, False, RULE_PAIR_EXTERIOR)
        else:
            claims.claim(eid, True, RULE_PAIR_INTERIOR)
    for pair in d.split_pairs[comp.cid]:
        pr = _parallel_real(d, comp.cid, pair)
        if pr is None or pr == direct:
            continue
        if set(pair) == eff:
            pair_link(pr)
        elif eff & set(pair):
            claims.claim(pr, False, RULE_PAIR_EXTERIOR)
        else:
            claims.claim(pr, True, RULE_PAIR_INTERIOR)


def _mark_transit_rigid(d, comp, cls, claims):
    for eid in sorted(comp.real_links()):
        claims.claim(eid, True, RULE_TRANSIT)
    for pair in cls.det_pairs:
        pr = _parallel_real(d, comp.cid, pair)
        if pr is not None:
            claims.claim(pr, True, RULE_TRANSIT)
    # parallels at the remaining pairs belong to hanging subtrees; the
    # components hanging there speak for them


def _mark_transit_triangle(d, comp, cls, claims):
    p1, p2 = cls.det_pairs
    shared = set(p1) & set(p2)
    assert len(shared) == 1
    shortcut = tuple(sorted((set(p1) | set(p2)) - shared))
    for eid, (u, v) in sorted(comp.links.items()):
        if eid in comp.virtuals:
            continue
        if {u, v} in ({*p1}, {*p2}):
            claims.claim(eid, True, RULE_CROSSLINK)
    for pair in (p1, p2):
        pr = _parallel_real(d, comp.cid, pair)
        if pr is not None:
            claims.claim(pr, True, RULE_CROSSLINK)
    sc_real = None
    for eid, (u, v) in comp.links.items():
        if {u, v} == set(shortcut) and eid not in comp.virtuals:
            sc_real = eid
    if sc_real is None:
        sc_real = _parallel_real(d, comp.cid, shortcut)
    if sc_real is not None:
        ok = (_side_has_choices(d, comp.cid, p1)
              and _side_has_choices(d, comp.cid, p2))
        claims.claim(sc_real, ok, RULE_SHORTCUT if ok else RULE_BLOCKED)


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
        if cls.category is Category.INNER_AGENT:
            _mark_inner_agent(d, comp, cls, direct, claims)
        elif cls.category is Category.AGENT_PAIR:
            _mark_agent_pair(d, comp, cls, agents, direct, claims,
                             deferred)
        elif cls.category is Category.TRANSIT_RIGID:
            _mark_transit_rigid(d, comp, cls, claims)
        else:
            _mark_transit_triangle(d, comp, cls, claims)

    unresolved = sorted(eid for eid in deferred if eid not in claims)
    if unresolved:
        ident = st.block_oracle(block.bid, agents, path_cap)
        for eid in unresolved:
            claims.claim(eid, eid in ident, RULE_DEFERRED)

    missing = [eid for eid in block.links if eid not in claims]
    assert not missing, f"links {missing} of block {block.bid} unmarked"


def analyze(g, monitors=None, path_cap=DEFAULT_PATH_CAP, structure=None):
    """Structural identifiability verdict for every link of g.

    monitors overrides the pair stored on the graph. structure may be
    a Structure built from a graph with the same nodes and links, to
    share decomposition work across monitor placements.
    """
    if monitors is not None:
        g = g.with_monitors(*monitors)
    m1, m2 = g.require_monitors()
    if structure is None:
        structure = Structure(g)
    elif structure.g.links != g.links:
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
