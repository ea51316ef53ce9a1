"""Certificate rung in front of the structural engine's oracle calls."""

import random

import pytest

from linkident import (
    Graph,
    analyze,
    enumerate_all_connected_graphs,
    identifiable_links_bruteforce,
    random_biconnected,
    structural,
)
from linkident.certify import (
    _null_vectors,
    _switch_seeds,
    _tree_seeds,
    certified_identifiable,
)
from linkident.graph import indexed_link_adjacency
from linkident.oracle import DEFAULT_PATH_CAP, _walk_paths

from helpers import previous_certified_identifiable


def monitored_instances():
    """Every connected graph on 2..5 nodes and 40 seeded random
    2-connected graphs on 6..9 nodes, under every ordered monitor pair."""
    graphs = [g for n in range(2, 6)
              for g in enumerate_all_connected_graphs(n)]
    rng = random.Random(2013)
    graphs += [random_biconnected(rng.randint(6, 9), rng)
               for _ in range(40)]
    for g in graphs:
        for m1 in g.nodes:
            for m2 in g.nodes:
                if m1 != m2:
                    yield g.with_monitors(m1, m2)


def test_seeds_are_paths_and_the_ceiling_is_a_null_vector():
    checked = 0
    for g in monitored_instances():
        m1, m2 = g.monitors
        paths = set()
        _walk_paths(g, m1, m2, DEFAULT_PATH_CAP,
                    lambda mask, seq: paths.add(mask))
        idx, adj = indexed_link_adjacency(g.nodes, g.links.items())
        s, t = idx[m1], idx[m2]
        for mask in _tree_seeds(adj, s, t):
            assert mask in paths
        # every link, those at a monitor included: a switch built on a
        # monitor link is not a path (in the triangle measured across
        # link 01 it would be the link set {01, 02})
        for eid, (u, v) in g.links.items():
            for mask in _switch_seeds(adj, s, t, eid, idx[u], idx[v]):
                assert mask in paths, (g, eid)
        ceiling = {eid: 1 for _, eid in adj[s]}
        ceiling.update((eid, -1) for _, eid in adj[t])
        ceiling.pop(g.link_between(m1, m2), None)
        vectors = [[(j, x) for j, x in enumerate(vec) if x]
                   for vec in _null_vectors(adj, s, t, ceiling, g.m)]
        for mask in paths:
            for vec in vectors:
                assert sum(x for j, x in vec if mask >> j & 1) == 0, (g, vec)
        checked += 1
    assert checked == 17072


def test_certified_sets_equal_the_oracle():
    certified = previous = 0
    for g in monitored_instances():
        ident = certified_identifiable(g)
        if ident is not None:
            assert ident == identifiable_links_bruteforce(g), g
            certified += 1
        if previous_certified_identifiable(g) is not None:
            assert ident is not None, g
            previous += 1
    assert previous >= 3000
    assert certified >= 9503


def test_switch_paths_of_a_link_sum_to_twice_it():
    g = random_biconnected(12, random.Random(5))
    g = g.with_monitors(g.nodes[0], g.nodes[-1])
    idx, adj = indexed_link_adjacency(g.nodes, g.links.items())
    s, t = idx[g.nodes[0]], idx[g.nodes[-1]]
    found = 0
    for eid, (u, v) in g.links.items():
        masks = list(_switch_seeds(adj, s, t, eid, idx[u], idx[v]))
        if not masks:
            continue
        assert len(masks) == 4
        found += 1
        total = [0] * g.m
        for sign, mask in zip((1, 1, -1, -1), masks):
            for j in range(g.m):
                total[j] += sign * (mask >> j & 1)
        assert total == [2 if j == eid else 0 for j in range(g.m)]
    assert found > 0


def test_analyze_settles_random_biconnected_20():
    g = random_biconnected(20, random.Random(1))
    report = analyze(g.with_monitors(g.nodes[0], g.nodes[-1]))
    assert len(report.verdicts) == g.m


def test_certified_verdicts_equal_enumerated_ones(monkeypatch):
    g = random_biconnected(16, random.Random(1))
    g = g.with_monitors(g.nodes[0], g.nodes[-1])
    fast = analyze(g)
    monkeypatch.setattr(structural, "certified_identifiable",
                        lambda sub: None)
    slow = analyze(g)
    assert fast.to_json() == slow.to_json()
    assert fast.fallback_blocks == slow.fallback_blocks


def test_analyze_settles_a_long_cycle_without_enumerating(monkeypatch):
    def enumerate_paths(*args, **kwargs):
        raise AssertionError("the oracle enumerated paths")

    monkeypatch.setattr(structural, "identifiable_links_bruteforce",
                        enumerate_paths)
    g = Graph(range(8), [(i, (i + 1) % 8) for i in range(8)],
              monitors=(0, 1))
    report = analyze(g)
    assert report.identifiable() == {g.link_between(0, 1)}


@pytest.mark.parametrize("links", [[], [(0, 2), (1, 3)],
                                   [(0, 2), (2, 4)],
                                   [(0, 2), (2, 4), (1, 3)]])
def test_unjoined_monitors_fall_through(links):
    g = Graph(range(5), links, monitors=(0, 1))
    assert certified_identifiable(g) is None
