"""Connectivity predicates against pinned cases and an independent
max-flow implementation, plus the interior identifiability predicate."""

import random
from itertools import combinations

import pytest

from linkident import (
    Graph,
    MonitorsUnset,
    PathExplosion,
    TooSmall,
    enumerate_all_connected_graphs,
    gnp_connected,
    has_disjoint_fan,
    identifiable_links_bruteforce,
    interior_identifiability_predicate,
    k_vertex_connected,
)
from linkident import connectivity
from linkident.decomposition import _split_side

import helpers
from helpers import (
    c5,
    edge_connectivity,
    k4,
    k23,
    k_edge_connected,
    path_graph,
    prism,
    triangle,
    vertex_connectivity,
    vertex_disjoint_paths,
)


def test_vertex_connectivity_pinned_cases():
    assert k_vertex_connected(k4(), 3)
    assert k_vertex_connected(c5(), 2)
    assert not k_vertex_connected(c5(), 3)
    assert not k_vertex_connected(path_graph(2), 2)
    pendant = Graph(range(4), [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert not k_vertex_connected(pendant, 2)
    assert k_vertex_connected(pendant, 1)


def test_vertex_connectivity_needs_enough_nodes():
    with pytest.raises(TooSmall):
        k_vertex_connected(triangle(), 3)
    with pytest.raises(TooSmall):
        k_vertex_connected(k4(), 4)


def test_vertex_connectivity_rejects_k_outside_range_on_large_graphs():
    with pytest.raises(ValueError):
        k_vertex_connected(c5(), 4)
    with pytest.raises(ValueError):
        k_vertex_connected(triangle(), 0)


def predicate_multigraphs(max_nodes, monkeypatch):
    """Every lobe-plus-bypass adjacency the interior predicate tests
    for 3-vertex-connectivity on connected graphs of 2..max_nodes
    nodes, all monitor pairs, rebuilt as a Graph over its positions
    with its link ids."""
    built = []
    original = connectivity._three_connected

    def record(adj):
        ends = {eid: (i, j) for i, pairs in enumerate(adj)
                for j, eid in pairs}
        built.append(Graph(range(len(adj)),
                           [ends[eid] for eid in sorted(ends)]))
        return original(adj)

    with monkeypatch.context() as patch:
        patch.setattr(connectivity, "_three_connected", record)
        for n in range(2, max_nodes + 1):
            for g in enumerate_all_connected_graphs(n):
                for m1, m2 in combinations(g.nodes, 2):
                    interior_identifiability_predicate(
                        g.with_monitors(m1, m2))
    return built


def test_vertex_connectivity_matches_brute_force_reference(monkeypatch):
    """The lowpoint passes against deleting every node set, on every
    connected graph of 4..6 nodes and on the predicate's multigraphs.
    On each multigraph 3-vertex-connectivity also implies
    3-edge-connectivity, which is why the predicate tests only the
    first."""
    graphs = [g for n in range(4, 7)
              for g in enumerate_all_connected_graphs(n)]
    multigraphs = predicate_multigraphs(5, monkeypatch)
    assert len(graphs) == 38 + 728 + 26704
    assert len(multigraphs) == 6964
    for g in graphs + multigraphs:
        for k in (2, 3):
            assert k_vertex_connected(g, k) == \
                helpers.k_vertex_connected(g, k)
    for aug in multigraphs:
        if k_vertex_connected(aug, 3):
            assert k_edge_connected(aug, 3)


def circular_ladder(k):
    """C_k x K2: rails 0..k-1 and k..2k-1, rung i joins i and k+i."""
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(k + i, k + (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)]
    return Graph(range(2 * k), edges)


def test_three_vertex_test_makes_one_pass_per_node(monkeypatch):
    """On a 400-node circular ladder, 3-vertex-connectivity takes at
    most one lowpoint pass per node and no plain search; deleting
    every node pair would take 79,800 searches."""
    g = circular_ladder(200)
    passes = []
    searches = []

    def counted(calls, f):
        def wrapper(*args):
            calls.append(args)
            return f(*args)
        return wrapper

    monkeypatch.setattr(connectivity, "lowpoint",
                        counted(passes, connectivity.lowpoint))
    monkeypatch.setattr(connectivity, "reachable",
                        counted(searches, connectivity.reachable))
    assert k_vertex_connected(g, 3)
    assert 0 < len(passes) <= g.n
    assert not searches


def test_edge_connectivity_pinned_cases():
    assert k_edge_connected(k4(), 3)
    assert k_edge_connected(c5(), 2)
    assert not k_edge_connected(c5(), 3)
    diamond = Graph(range(4), [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert k_edge_connected(diamond, 2)
    assert not k_edge_connected(diamond, 3)
    bridge = Graph(range(4), [(0, 1), (1, 2), (1, 3), (2, 3)])
    assert k_edge_connected(bridge, 1)
    assert not k_edge_connected(bridge, 2)


def test_connectivity_matches_max_flow_on_200_random_graphs():
    """Cross-check both predicates against an independent Menger count
    on seeded random graphs of up to 10 nodes."""
    for i in range(200):
        rng = random.Random(31_000 + i)
        n = rng.randint(2, 10)
        g = gnp_connected(n, rng.uniform(0.25, 0.8), rng)
        kappa = vertex_connectivity(g)
        lam = edge_connectivity(g)
        assert lam >= kappa
        for k in range(1, min(4, n)):
            assert k_vertex_connected(g, k) == (kappa >= k)
        for k in range(1, 4):
            assert k_edge_connected(g, k) == (lam >= k)
        # k-vertex-connected implies k-edge-connected
        for k in range(1, min(4, n)):
            if k_vertex_connected(g, k):
                assert k_edge_connected(g, k)


def test_interior_predicate_pinned_cases():
    for m1 in range(4):
        for m2 in range(4):
            if m1 != m2:
                assert interior_identifiability_predicate(
                    k4(monitors=(m1, m2)))
    assert not interior_identifiability_predicate(path_graph(2,
                                                             monitors=(0, 2)))
    assert not interior_identifiability_predicate(c5(monitors=(0, 1)))
    # one rung of a prism as the monitor pair: 3-vertex-connected, yet
    # the other two rungs are invisible to every path sum
    assert not interior_identifiability_predicate(prism(monitors=(0, 5)))
    # monitors inside one part: the far part is a pinched island
    assert not interior_identifiability_predicate(k23(monitors=(2, 3)))
    # a chorded bipartite core where everything interior is pinned down
    chord = Graph(range(5),
                  [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)],
                  monitors=(0, 1))
    assert interior_identifiability_predicate(chord)


def test_interior_predicate_false_without_interior_links():
    assert not interior_identifiability_predicate(triangle(monitors=(0, 1)))
    with pytest.raises(MonitorsUnset):
        interior_identifiability_predicate(triangle(monitors=None))


def test_interior_predicate_matches_oracle_on_four_node_graphs():
    """On every 4-node instance with interior links, the predicate must
    equal "every interior link is identifiable" per the oracle."""
    checked = 0
    for g0 in enumerate_all_connected_graphs(4):
        nodes = g0.nodes
        for i, m1 in enumerate(nodes):
            for m2 in nodes[i + 1:]:
                g = g0.with_monitors(m1, m2)
                interior = g.interior_links()
                if not interior:
                    continue
                oracle = identifiable_links_bruteforce(g)
                expected = all(eid in oracle for eid in interior)
                assert interior_identifiability_predicate(g) == expected
                checked += 1
    assert checked > 50


def test_has_disjoint_fan():
    y = [(0, 2), (1, 2), (2, 3), (2, 4)]
    assert not has_disjoint_fan([0, 1, 2, 3, 4], y, (0, 1), (3, 4))
    p = [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert has_disjoint_fan([0, 1, 2, 3, 4], p, (0, 4), (1, 3))
    bw = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]
    assert has_disjoint_fan([0, 1, 2, 3], bw, (2, 3), (0, 1))


def fan_by_max_flow(nodes, pairs, sources, targets):
    """Reference: a super-source joined to both sources and a super-sink
    joined to both targets carry two vertex-disjoint paths."""
    s, t = "S", "T"
    extra = [(s, x) for x in sources] + [(t, y) for y in targets]
    return vertex_disjoint_paths(list(nodes) + [s, t], list(pairs) + extra,
                                 s, t) >= 2


def fan_cases(g):
    for sources in combinations(g.nodes, 2):
        rest = [v for v in g.nodes if v not in sources]
        for targets in combinations(rest, 2):
            yield sources, targets


def test_has_disjoint_fan_matches_max_flow_on_small_graphs():
    checked = 0
    for n in range(4, 6):
        for g in enumerate_all_connected_graphs(n):
            pairs = list(g.links.values())
            for sources, targets in fan_cases(g):
                assert has_disjoint_fan(g.nodes, pairs, sources, targets) \
                    == fan_by_max_flow(g.nodes, pairs, sources, targets)
                checked += 1
    assert checked == 38 * 6 + 728 * 30


def test_has_disjoint_fan_matches_max_flow_on_random_graphs():
    for i in range(50):
        rng = random.Random(52_000 + i)
        g = gnp_connected(rng.randint(4, 12), rng.uniform(0.2, 0.6), rng)
        pairs = list(g.links.values())
        for _ in range(5):
            picked = rng.sample(g.nodes, 4)
            sources, targets = picked[:2], picked[2:]
            assert has_disjoint_fan(g.nodes, pairs, sources, targets) \
                == fan_by_max_flow(g.nodes, pairs, sources, targets)


def test_searches_run_on_a_path_of_5000_nodes():
    g = path_graph(4999)
    assert g.is_connected()
    assert k_vertex_connected(g, 1)
    assert not k_vertex_connected(g, 2)
    side = _split_side(g.links, g.nodes, 0, 4999)
    assert sorted(side) == sorted(g.links)


def test_interior_predicate_path_walk_is_bounded(monkeypatch):
    monkeypatch.setattr(connectivity, "DEFAULT_PATH_CAP", 1)
    with pytest.raises(PathExplosion):
        interior_identifiability_predicate(k4(monitors=(0, 1)))
