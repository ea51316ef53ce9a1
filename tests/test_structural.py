"""Structural classification engine: categories, marking rules, and
agreement with the exact oracle on pinned instances."""

import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from linkident import (
    ALL_RULES,
    Category,
    Disconnected,
    Graph,
    Structure,
    UnknownNode,
    WrongAgentCount,
    analyze,
    classify_component,
    diff_instance,
    enumerate_all_connected_graphs,
    gnp_connected,
    grid,
    has_disjoint_fan,
    identifiable_links_bruteforce,
    random_biconnected,
)
from linkident import structural
from linkident.graph import link_adjacency, reachable
from linkident.structural import _Claims

from helpers import bowtie_on_edge, cycle, k4_chain, path_graph, prism, \
    previous_analyze_block, triangle, triangle_chain, two_triangles


def rules_of(report):
    return {eid: (v.identifiable, v.rule)
            for eid, v in report.verdicts.items()}


def transit_rigid_instance():
    """Rigid core crossed between two split pairs: a complete graph on
    {2,3,4,5} entered through carrier paths 2-6-3 and 4-7-5."""
    core = [(2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]
    carriers = [(2, 6), (6, 3), (4, 7), (7, 5)]
    return Graph(range(2, 8), core + carriers, monitors=(6, 7))


def transit_triangle_instance():
    """Triangle {1,2,3} crossed between pairs (1,2) and (1,3), each
    side doubled by a two-hop detour so the triangle survives the
    canonical merge."""
    edges = [(1, 2), (1, 3), (2, 3), (1, 4), (4, 2), (1, 5), (5, 3)]
    return Graph(range(1, 6), edges, monitors=(4, 5))


def hanging_component_instance():
    """The transit-rigid instance with an extra diamond hanging off
    the core pair (2,4), whose parallel real link no local rule can
    decide."""
    core = [(2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]
    carriers = [(2, 6), (6, 3), (4, 7), (7, 5)]
    hang = [(2, 8), (8, 4), (2, 9), (9, 4), (8, 9)]
    return Graph(range(2, 10), core + carriers + hang, monitors=(6, 7))


# -- analyze on pinned graphs ------------------------------------------


def test_triangle_report():
    rep = analyze(triangle(monitors=(0, 1)))
    assert rep.to_json() == {
        "links": [
            {"edge": [0, 1], "verdict": "identifiable",
             "rule": "direct-agent-link"},
            {"edge": [0, 2], "verdict": "unidentifiable",
             "rule": "agent-pair-exterior"},
            {"edge": [1, 2], "verdict": "unidentifiable",
             "rule": "agent-pair-exterior"},
        ],
        "summary": {"identifiable": 1, "total": 3},
    }
    assert rep.categories == {0: ((0, Category.AGENT_PAIR),)}
    assert rep.fallback_blocks == frozenset()
    assert rep.identifiable() == {0}


def test_square_falls_back_to_the_oracle():
    c4 = Graph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)],
               monitors=(0, 2))
    rep = analyze(c4)
    assert rep.fallback_blocks == {0}
    assert all(v.rule == "oracle-fallback" and not v.identifiable
               for v in rep.verdicts.values())


def test_bridge_chain_rules():
    rep = analyze(path_graph(2, monitors=(0, 2)))
    assert rules_of(rep) == {0: (False, "direct-agent-link"),
                             1: (False, "direct-agent-link")}
    assert rep.categories == {0: ((None, Category.SINGLE_LINK),),
                              1: ((None, Category.SINGLE_LINK),)}

    lone = analyze(Graph([0, 1], [(0, 1)], monitors=(0, 1)))
    assert rules_of(lone) == {0: (True, "direct-agent-link")}


def test_prism_demotes_to_fallback_and_matches_the_oracle():
    g = prism(monitors=(0, 5))
    rep = analyze(g)
    assert rep.fallback_blocks == {0}
    assert rep.categories == {0: ((0, Category.FALLBACK),)}
    assert rep.identifiable() == identifiable_links_bruteforce(g)
    direct = rep.verdicts[g.link_between(0, 5)]
    assert direct.identifiable and direct.rule == "direct-agent-link"


def test_bowtie_reports_under_three_monitor_placements():
    b = bowtie_on_edge()
    rep = analyze(b.with_monitors(0, 1))
    assert rules_of(rep) == {
        0: (True, "direct-agent-link"),
        1: (False, "agent-pair-exterior"),
        2: (False, "agent-pair-exterior"),
        3: (False, "agent-pair-exterior"),
        4: (False, "agent-pair-exterior"),
    }
    rep = analyze(b.with_monitors(2, 3))
    assert rules_of(rep) == {
        0: (True, "inner-agent-interior"),
        1: (False, "inner-agent-exterior"),
        2: (False, "inner-agent-exterior"),
        3: (False, "inner-agent-exterior"),
        4: (False, "inner-agent-exterior"),
    }
    assert rep.categories == {0: ((1, Category.INNER_AGENT),
                                  (2, Category.INNER_AGENT))}
    rep = analyze(b.with_monitors(0, 3))
    assert rules_of(rep) == {
        0: (False, "agent-pair-exterior"),
        1: (False, "agent-pair-exterior"),
        2: (False, "agent-pair-exterior"),
        3: (True, "direct-agent-link"),
        4: (False, "agent-pair-exterior"),
    }
    for monitors in [(0, 1), (2, 3), (0, 3)]:
        g = b.with_monitors(*monitors)
        assert analyze(g).identifiable() == \
            identifiable_links_bruteforce(g)


def test_transit_rigid_instance_rules():
    g = transit_rigid_instance()
    rep = analyze(g)
    assert rep.fallback_blocks == frozenset()
    got = rules_of(rep)
    for eid in range(6):
        assert got[eid] == (True, "transit-rigid")
    for eid in range(6, 10):
        assert got[eid] == (False, "inner-agent-exterior")
    cats = dict(rep.categories[0])
    assert cats[1] is Category.TRANSIT_RIGID
    assert rep.identifiable() == identifiable_links_bruteforce(g)


def test_transit_triangle_instance_rules():
    g = transit_triangle_instance()
    rep = analyze(g)
    assert rep.fallback_blocks == frozenset()
    got = rules_of(rep)
    assert got[0] == (True, "transit-triangle-crosslink")    # (1,2)
    assert got[1] == (True, "transit-triangle-crosslink")    # (1,3)
    assert got[2] == (True, "transit-triangle-shortcut")     # (2,3)
    for eid in range(3, 7):
        assert got[eid] == (False, "inner-agent-exterior")
    assert Category.TRANSIT_TRIANGLE in dict(rep.categories[0]).values()
    assert rep.identifiable() == identifiable_links_bruteforce(g)


def test_lone_polygon_side_merges_the_triangle_into_a_fallback():
    """The transit-triangle instance with side (1,3) reduced to one
    two-hop detour: that polygon merges with the triangle into a square
    1-2-3-5, so the far link (2,3) falls back to the oracle."""
    g = Graph(range(1, 6), [(1, 2), (2, 3), (1, 4), (4, 2), (1, 5),
                            (5, 3)], monitors=(4, 5))
    far = g.link_between(2, 3)
    rep = analyze(g)
    assert rep.verdicts[far].rule == "oracle-fallback"
    assert far not in identifiable_links_bruteforce(g)
    assert rep.identifiable() == identifiable_links_bruteforce(g)


def test_hanging_component_defers_its_pair_link_to_the_oracle():
    g = hanging_component_instance()
    rep = analyze(g)
    assert rep.fallback_blocks == frozenset()
    got = rules_of(rep)
    assert got[1] == (True, "pair-link-deferred-resolved")   # (2,4)
    assert got[14] == (True, "agent-pair-interior")          # (8,9)
    assert got[10] == (False, "agent-pair-exterior")
    assert rep.identifiable() == identifiable_links_bruteforce(g)


def test_single_agent_block_gets_too_few_agents():
    g = two_triangles().with_monitors(0, 1)
    rep = analyze(g)
    assert rules_of(rep) == {
        0: (True, "direct-agent-link"),
        1: (False, "agent-pair-exterior"),
        2: (False, "agent-pair-exterior"),
        3: (False, "too-few-agents"),
        4: (False, "too-few-agents"),
        5: (False, "too-few-agents"),
    }
    assert rep.identifiable() == identifiable_links_bruteforce(g)


# -- classification primitives -----------------------------------------


def test_rigid_pair_ok_pins():
    k4 = Graph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                          (2, 3)])
    assert Structure(k4).rigid_pair_ok(0, 0, (0, 1))
    st = Structure(prism())
    assert not st.rigid_pair_ok(0, 0, (0, 5))
    assert st.rigid_pair_ok(0, 0, (0, 4))


def test_classify_component_pins():
    k4 = Graph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                          (2, 3)])
    cls = classify_component(Structure(k4), 0, 0, (0, 1))
    assert cls.category is Category.AGENT_PAIR
    assert cls.effective_pair == (0, 1)

    cls = classify_component(Structure(prism()), 0, 0, (0, 5))
    assert cls.category is Category.FALLBACK

    stb = Structure(bowtie_on_edge())
    cls = classify_component(stb, 0, 1, (0, 3))
    assert cls.category is Category.AGENT_PAIR
    assert cls.effective_pair == (0, 1)
    cls = classify_component(stb, 0, 1, (2, 3))
    assert cls.category is Category.INNER_AGENT
    assert cls.inner_agent == 2 and cls.toward_pair == (0, 1)
    with pytest.raises(ValueError):
        classify_component(stb, 0, 0, (2, 3))
    with pytest.raises(WrongAgentCount):
        classify_component(stb, 0, 1, (2, 2))
    with pytest.raises(UnknownNode):
        classify_component(Structure(grid(3, 3)), 0, 1, (0, 99))

    st8 = Structure(transit_rigid_instance())
    cls = classify_component(st8, 0, 1, (6, 7))
    assert cls.category is Category.TRANSIT_RIGID
    assert cls.det_pairs == ((2, 3), (4, 5))

    stc = Structure(transit_triangle_instance())
    cls = classify_component(stc, 0, 2, (4, 5))
    assert cls.category is Category.TRANSIT_TRIANGLE
    assert cls.det_pairs == ((1, 2), (1, 3))


# -- facts of the canonical split the marking rules rest on ---------


def _split_blocks():
    """(Structure, decomposition, block) for every block on 3 or more
    nodes of every connected graph on 3..5 nodes, 100 seeded random
    2-connected graphs on 6..14 nodes, and grids 3..6."""
    graphs = [g for n in range(3, 6)
              for g in enumerate_all_connected_graphs(n)]
    rng = random.Random(1212)
    graphs += [random_biconnected(rng.randint(6, 14), rng)
               for _ in range(100)]
    graphs += [grid(k, k) for k in range(3, 7)]
    for g in graphs:
        st = Structure(g)
        for block in st.bct.blocks:
            if len(block.nodes) >= 3:
                yield st, st.tri(block.bid), block


def test_an_outside_node_is_beyond_exactly_one_split_pair():
    """Checked by graph search: of a component's split pairs, exactly
    one cuts an outside node v off from the component's other nodes
    when removed from the block, and it is the pair Structure.toward
    names for v."""
    for st, d, block in _split_blocks():
        adj = link_adjacency(block.nodes,
                             [(eid, st.g.links[eid]) for eid in block.links])
        for comp in d.components:
            if comp.kind == "bond":
                continue
            for v in set(block.nodes) - set(comp.nodes):
                cutting = [pair for pair in d.split_pairs[comp.cid]
                           if not reachable(adj, (v,), pair)
                           & (set(comp.nodes) - set(pair))]
                facing = d.pair_nodes[st.toward(block.bid, v)[comp.cid]]
                assert cutting == [facing], (block, comp.cid, v)


def test_a_split_pairs_parallel_link_lives_in_the_bond_there():
    """The engine reads the real link parallel to a split pair from the
    graph: it must be a real link of the bond across that pair."""
    for st, d, block in _split_blocks():
        for comp in d.components:
            if comp.kind == "bond":
                continue
            for pair in d.split_pairs[comp.cid]:
                (vid,) = [v for v in comp.virtuals
                          if d.pair_nodes[v] == pair]
                eid = st.g.link_between(*pair)
                if eid is None:
                    continue
                across = d.component(d.partner(comp.cid, vid))
                assert across.kind == "bond", (block, comp.cid, pair)
                assert eid in set(across.links) - across.virtuals, \
                    (block, comp.cid, pair)


def test_a_triangle_has_a_second_way_through_every_split_pair():
    for _, d, block in _split_blocks():
        for comp in d.components:
            if comp.kind != "polygon" or len(comp.nodes) != 3:
                continue
            for vid in comp.virtuals:
                across = d.component(d.partner(comp.cid, vid))
                assert (across.kind == "rigid"
                        or across.kind == "bond"
                        and len(across.links) >= 3), (block, vid)


def test_two_nodes_beyond_a_split_pair_reach_it_disjointly():
    """Why a shared pair needs no fan check: in a 2-connected block no
    single node separates two 2-sets (Menger), so two agents beyond
    one split pair always have disjoint paths onto it."""
    for st, d, block in _split_blocks():
        links = [st.g.links[eid] for eid in block.links]
        for comp in d.components:
            if comp.kind == "bond":
                continue
            beyond = {}
            for v in set(block.nodes) - set(comp.nodes):
                vid = st.toward(block.bid, v)[comp.cid]
                beyond.setdefault(vid, []).append(v)
            for vid, far in beyond.items():
                for agents in combinations(sorted(far), 2):
                    assert has_disjoint_fan(block.nodes, links, agents,
                                            d.pair_nodes[vid]), \
                        (block, comp.cid, vid, agents)


def test_a_rigid_component_has_no_parallel_links():
    for _, d, block in _split_blocks():
        for comp in d.components:
            if comp.kind == "rigid":
                pairs = list(comp.links.values())
                assert len(set(pairs)) == len(pairs), (block, comp.cid)


# -- engine plumbing ----------------------------------------------------


def test_monitor_order_does_not_matter():
    g = prism()
    assert analyze(g.with_monitors(0, 5)).to_json() == \
        analyze(g.with_monitors(5, 0)).to_json()


def test_a_shared_structure_gives_the_same_report():
    g = prism()
    st = Structure(g)
    base = analyze(g.with_monitors(0, 5)).to_json()
    assert analyze(g.with_monitors(0, 5), structure=st).to_json() == base
    with pytest.raises(ValueError):
        analyze(bowtie_on_edge().with_monitors(0, 1), structure=st)


def test_a_structure_built_for_other_nodes_is_rejected():
    tri = triangle()
    g = Graph(range(4), [tri.links[eid] for eid in sorted(tri.links)],
              monitors=(0, 1))
    assert g.links == tri.links
    with pytest.raises(Disconnected):
        analyze(g)
    with pytest.raises(ValueError):
        analyze(g, structure=Structure(tri))


def test_analyze_asks_no_fan_question(monkeypatch):
    def fan(*args):
        raise AssertionError("analyze asked for a disjoint fan")

    monkeypatch.setattr(structural, "has_disjoint_fan", fan)
    g = random_biconnected(8, random.Random(1))
    instances = [g.with_monitors(*pair)
                 for pair in permutations(g.nodes, 2)]
    st = Structure(g)
    fresh = [analyze(inst).to_json() for inst in instances]
    shared = [analyze(inst, structure=st).to_json() for inst in instances]
    assert shared == fresh


def _count_calls(monkeypatch, owner, names):
    """Counter of calls to each named attribute of owner, patched to
    count for the rest of the test."""
    calls = Counter()

    def counting(name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(owner, name, counting(name))
    return calls


def test_analyze_reaches_each_layer_through_its_structural_name(
        monkeypatch):
    """analyze calls the block-cut tree, the triconnected split and
    the agent search through the names structural binds: once, once
    per K4 and once on a chain of 10 K4s. perfbench's
    decomposition.bct, decomposition.tri_split and agents.locate
    spans wrap exactly these names, so this keeps its layer figures
    attributed to the right layer."""
    calls = _count_calls(monkeypatch, structural, (
        "biconnected_components", "decompose_links", "locate_agents"))
    analyze(k4_chain(10).with_monitors(0, 30))
    assert calls == {"biconnected_components": 1, "decompose_links": 10,
                     "locate_agents": 1}


def test_cycle_blocks_are_settled_without_a_split(monkeypatch):
    """A triangle block takes no triconnected split and no
    classification; a longer cycle goes straight to one block oracle
    call under a single fallback category."""
    calls = _count_calls(monkeypatch, structural, (
        "decompose_links", "classify_component"))
    oracle_calls = _count_calls(monkeypatch, Structure, ("block_oracle",))
    rep = analyze(triangle_chain(300).with_monitors(0, 600))
    assert calls == {}
    assert all(cats == ((0, Category.AGENT_PAIR),)
               for cats in rep.categories.values())
    rep = analyze(cycle(6).with_monitors(0, 3))
    assert calls == {}
    assert oracle_calls == {"block_oracle": 1}
    assert rep.categories == {0: ((0, Category.FALLBACK),)}
    assert rep.fallback_blocks == {0}


def _block_outcomes(groups):
    """(verdicts, categories, fallback blocks) of analyze on every
    (graph, placements) pair of groups, each placement twice: with a
    fresh Structure and with one shared by the graph's placements."""
    out = []
    for g, placements in groups:
        shared = Structure(g)
        for m1, m2 in placements:
            inst = g.with_monitors(m1, m2)
            for st in (None, shared):
                rep = analyze(inst, structure=st)
                out.append(((g.links, m1, m2, st is None), rep.verdicts,
                            rep.categories, rep.fallback_blocks))
    return out


def test_cycle_blocks_settle_as_the_split_settled_them(monkeypatch):
    """Verdicts, categories and fallback blocks match the block step
    that split, classified and marked every block, cycles included:
    on every placement of every connected graph on 2..5 nodes,
    triangle chains with monitors at the ends, at cut vertices and at
    apexes, cycles on 4..8 nodes, and a K4, a bridge, a C5 and a
    triangle in a row."""
    def every_pair(g):
        return (g, list(permutations(g.nodes, 2)))

    mixed = Graph(range(11), [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),     # K4
        (3, 4),                                             # bridge
        (4, 5), (5, 6), (6, 7), (7, 8), (4, 8),             # C5
        (8, 9), (9, 10), (8, 10)])                          # triangle
    groups = [every_pair(g) for n in range(2, 6)
              for g in enumerate_all_connected_graphs(n)]
    groups += [every_pair(triangle_chain(k)) for k in (2, 3, 6)]
    groups.append((triangle_chain(40),
                   [(0, 80), (80, 0), (2, 78), (1, 79), (1, 2), (41, 40)]))
    groups += [every_pair(cycle(k)) for k in range(4, 9)]
    groups.append(every_pair(mixed))

    now = _block_outcomes(groups)
    monkeypatch.setattr(structural, "_analyze_block", previous_analyze_block)
    before = _block_outcomes(groups)
    assert len(now) == len(before) > 2 * 15042
    differ = [a[0] for a, b in zip(now, before) if a != b]
    assert not differ, differ[:5]


def test_link_verdicts_are_named_tuples():
    """A verdict reads by field name, compares and hashes as a tuple,
    and keeps the repr it had as a frozen dataclass."""
    rep = analyze(triangle(monitors=(0, 1)))
    v = rep.verdicts[0]
    assert v == (0, (0, 1), True, "direct-agent-link", 0)
    assert (v.link, v.endpoints, v.identifiable, v.rule, v.block) == v
    assert repr(v) == ("LinkVerdict(link=0, endpoints=(0, 1),"
                       " identifiable=True, rule='direct-agent-link',"
                       " block=0)")
    assert len({v, rep.verdicts[0]}) == 1
    with pytest.raises(AttributeError):
        v.rule = "other"


def test_claims_keep_the_first_rule_and_reject_conflicts():
    claims = _Claims()
    claims.claim(3, True, "a")
    claims.claim(3, True, "b")
    assert claims.rules[3] == "a"
    assert 3 in claims and 4 not in claims
    with pytest.raises(AssertionError):
        claims.claim(3, False, "c")


def test_every_link_gets_a_verdict_with_a_known_rule():
    for i in range(60):
        rng = random.Random(8300 + i)
        g = gnp_connected(rng.randint(2, 8), 0.45, rng)
        m1, m2 = rng.sample(g.nodes, 2)
        g = g.with_monitors(m1, m2)
        rep = analyze(g)
        assert set(rep.verdicts) == set(g.links)
        homes = {b.bid: set(b.links)
                 for b in Structure(g).bct.blocks}
        for eid, v in rep.verdicts.items():
            assert v.link == eid
            assert v.endpoints == g.links[eid]
            assert v.rule in ALL_RULES
            assert eid in homes[v.block]
        assert not diff_instance(g).mismatch
