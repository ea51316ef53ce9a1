"""Per-block agents: where monitor traffic enters each block."""

import random
from collections import deque

import pytest

from linkident import (
    Graph,
    MonitorsUnset,
    UnknownBlock,
    analyze,
    biconnected_components,
    enumerate_all_connected_graphs,
    gnp_connected,
    grid,
    identifiable_links_bruteforce,
    locate_agents,
)
from linkident import agents as agents_module

from helpers import c5, path_graph, triangle, triangle_chain, \
    two_triangles


def test_agents_of_two_triangles_with_far_monitors():
    g = two_triangles().with_monitors(0, 3)
    agents = locate_agents(g)
    assert set(agents) == {0, 1}
    a0, a1 = agents[0], agents[1]
    assert a0.monitors == a1.monitors == (0, 3)
    assert a0.agents == (0, 2)
    assert a0.connecting_paths == ((0,), (3, 2))
    assert a1.agents == (2, 3)
    assert a1.connecting_paths == ((0, 2), (3,))
    assert len(set(a0.agents)) == len(set(a1.agents)) == 2


def test_monitors_inside_the_block_are_their_own_agents():
    agents = locate_agents(c5().with_monitors(0, 2))
    assert agents[0].agents == (0, 2)
    assert agents[0].connecting_paths == ((0,), (2,))


def test_agents_along_a_bridge_path():
    agents = locate_agents(path_graph(3, monitors=(0, 3)))
    assert [agents[b].agents for b in sorted(agents)] == [
        (0, 1), (1, 2), (2, 3)]
    assert agents[0].connecting_paths == ((0,), (3, 2, 1))
    assert agents[2].connecting_paths == ((0, 1, 2), (3,))


def test_leaf_block_behind_one_cut_has_a_single_agent():
    g = two_triangles().with_monitors(0, 1)
    agents = locate_agents(g)
    assert agents[1].agents == (2, 2)
    assert agents[1].connecting_paths == ((0, 2), (1, 2))
    assert len(set(agents[0].agents)) == 2
    assert len(set(agents[1].agents)) == 1


def test_unknown_block_and_missing_monitors():
    with pytest.raises(UnknownBlock):
        biconnected_components(two_triangles()).block(7)
    with pytest.raises(MonitorsUnset):
        locate_agents(two_triangles())


def test_precomputed_tree_gives_the_same_answer():
    g = two_triangles().with_monitors(0, 3)
    bct = biconnected_components(g)
    assert locate_agents(g, bct) == locate_agents(g)


def test_witness_paths_are_simple_and_stop_at_the_block():
    for i in range(40):
        rng = random.Random(7100 + i)
        g = gnp_connected(rng.randint(3, 8), 0.4, rng)
        m1, m2 = rng.sample(g.nodes, 2)
        g = g.with_monitors(m1, m2)
        bct = biconnected_components(g)
        agents = locate_agents(g, bct)
        for b in bct.blocks:
            a = agents[b.bid]
            for m, agent, path in zip(a.monitors, a.agents,
                                      a.connecting_paths):
                assert path[0] == m and path[-1] == agent
                assert agent in b.nodes
                assert len(set(path)) == len(path)
                assert all(x not in b.nodes for x in path[:-1])
                for u, v in zip(path, path[1:]):
                    assert g.link_between(u, v) is not None


def test_single_agent_blocks_carry_no_usable_measurements():
    """A block whose two agents coincide is never crossed by a simple
    monitor-to-monitor path, so the oracle sees none of its links."""
    checked = 0
    for i in range(60):
        rng = random.Random(7700 + i)
        g = gnp_connected(rng.randint(4, 7), 0.35, rng)
        m1, m2 = rng.sample(g.nodes, 2)
        g = g.with_monitors(m1, m2)
        bct = biconnected_components(g)
        agents = locate_agents(g, bct)
        solo = [b for b in bct.blocks
                if len(set(agents[b.bid].agents)) == 1]
        if not solo:
            continue
        identifiable = identifiable_links_bruteforce(g)
        for b in solo:
            assert not identifiable & set(b.links)
            checked += 1
    assert checked > 5


# -- agents off the block-cut tree against the per-block reference ------


def entry_by_block_bfs(g, m, block_nodes):
    """Reference: a BFS from m that stops at the block's first node."""
    if m in block_nodes:
        return m, (m,)
    prev = {m: None}
    queue = deque([m])
    while queue:
        v = queue.popleft()
        for w, _ in g.neighbors(v):
            if w in prev:
                continue
            prev[w] = v
            if w in block_nodes:
                path = [w]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                return w, tuple(reversed(path))
            queue.append(w)
    raise AssertionError("block unreachable")


def assert_matches_per_block_search(g):
    bct = biconnected_components(g)
    agents = locate_agents(g, bct)
    assert sorted(agents) == [b.bid for b in bct.blocks]
    for b in bct.blocks:
        ends = [entry_by_block_bfs(g, m, set(b.nodes)) for m in g.monitors]
        assert agents[b.bid].agents == tuple(a for a, _ in ends)
        assert agents[b.bid].connecting_paths == tuple(p for _, p in ends)


def test_agents_match_per_block_search_on_triangle_chains():
    for blocks in (1, 2, 5, 12):
        end = 2 * blocks
        q1, q3 = 2 * (blocks // 4), 2 * (3 * blocks // 4)
        for pair in [(0, end), (end, 0), (q1, q3), (q1 + 1, q3 + 1),
                     (1, end - 1), (end // 2, 1)]:
            if pair[0] != pair[1]:
                assert_matches_per_block_search(
                    triangle_chain(blocks).with_monitors(*pair))


def test_agents_match_per_block_search_on_every_small_placement():
    """Every ordered monitor pair of every connected graph on 2..5
    nodes: the 15,042 instances of the exhaustive sweep."""
    count = 0
    for n in range(2, 6):
        for g in enumerate_all_connected_graphs(n):
            for m1 in g.nodes:
                for m2 in g.nodes:
                    if m1 != m2:
                        assert_matches_per_block_search(
                            g.with_monitors(m1, m2))
                        count += 1
    assert count == 15042


def test_agents_match_per_block_search_on_random_graphs():
    for i in range(60):
        rng = random.Random(7900 + i)
        g = gnp_connected(rng.randint(3, 14), 0.3, rng)
        assert_matches_per_block_search(
            g.with_monitors(*rng.sample(g.nodes, 2)))


def test_tree_of_another_graph_raises_unknown_block():
    """Blocks the monitors cannot reach raise UnknownBlock, never a
    lookup error from inside the search."""
    far = Graph(range(3, 6), [(3, 4), (3, 5), (4, 5)])
    with pytest.raises(UnknownBlock):
        locate_agents(triangle(), biconnected_components(far))
    with pytest.raises(UnknownBlock):
        locate_agents(two_triangles().with_monitors(0, 1),
                      biconnected_components(path_graph(6)))


def test_tree_of_a_graph_with_other_nodes_raises_unknown_block():
    """Equal links do not make the same graph: a monitor on a node the
    tree never saw has no walk up the tree."""
    tri = triangle()
    g = Graph(range(4), [tri.links[eid] for eid in sorted(tri.links)],
              monitors=(0, 3))
    assert g.links == tri.links
    with pytest.raises(UnknownBlock):
        locate_agents(g, biconnected_components(tri))


def test_one_search_per_monitor_on_a_long_chain(monkeypatch):
    """The agents come off the block-cut tree with no graph search;
    reading every block's witness paths then runs one BFS per
    monitor, shared by all blocks."""
    g = triangle_chain(300).with_monitors(0, 600)
    bct = biconnected_components(g)
    expected = locate_agents(g, bct)
    expected_paths = [expected[b.bid].connecting_paths for b in bct.blocks]
    calls = []
    original = Graph.neighbors

    def counted(self, v):
        calls.append(v)
        return original(self, v)

    monkeypatch.setattr(Graph, "neighbors", counted)
    agents = locate_agents(g, bct)
    assert agents == expected
    assert calls == []
    paths = [agents[b.bid].connecting_paths for b in bct.blocks]
    assert paths == expected_paths
    assert 0 < len(calls) <= 2 * (g.n + 1)
    # monitors inside the only block need no search at all
    ring = c5().with_monitors(0, 2)
    ring_bct = biconnected_components(ring)
    calls.clear()
    assert locate_agents(ring, ring_bct)[0].connecting_paths == ((0,), (2,))
    assert calls == []


def test_analyze_builds_no_witness_path(monkeypatch):
    """analyze reads only the agents, so no prev chain is walked."""
    def refuse(prev, v):
        raise AssertionError("witness path built")

    monkeypatch.setattr(agents_module, "_witness", refuse)
    for g in (triangle_chain(300).with_monitors(0, 600),
              grid(7, 7).with_monitors(0, 48)):
        analyze(g)
        with pytest.raises(AssertionError, match="witness path built"):
            locate_agents(g)[0].connecting_paths
