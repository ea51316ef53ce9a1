"""Graph generation and exhaustive enumeration."""

import random
from itertools import permutations

import pytest

from linkident import (
    GenerationFailed,
    SweepConfig,
    TooLarge,
    barbell,
    enumerate_all_connected_graphs,
    generate_graph,
    gnp_connected,
    grid,
    k_vertex_connected,
    random_biconnected,
)


def canonical_form(g):
    links = [g.links[i] for i in sorted(g.links)]
    best = None
    for perm in permutations(range(len(g.nodes))):
        key = tuple(sorted(tuple(sorted((perm[u], perm[v])))
                           for u, v in links))
        if best is None or key < best:
            best = key
    return best


def test_labeled_enumeration_counts():
    assert [sum(1 for _ in enumerate_all_connected_graphs(n))
            for n in range(1, 7)] == [1, 1, 4, 38, 728, 26704]


def test_enumeration_bounds():
    with pytest.raises(TooLarge):
        list(enumerate_all_connected_graphs(0))
    with pytest.raises(TooLarge):
        list(enumerate_all_connected_graphs(8))


def test_seven_nodes_yields_one_graph_per_isomorphism_class():
    assert sum(1 for _ in enumerate_all_connected_graphs(7)) == 853


def test_four_node_enumeration_covers_all_six_classes():
    classes = {canonical_form(g)
               for g in enumerate_all_connected_graphs(4)}
    assert len(classes) == 6


def test_enumerated_graphs_are_connected_and_distinct():
    seen = set()
    for g in enumerate_all_connected_graphs(5):
        key = tuple(sorted(g.links[i] for i in sorted(g.links)))
        assert key not in seen
        seen.add(key)
        assert g.is_connected()
    assert len(seen) == 728


def test_generation_is_deterministic_in_config_and_index():
    config = SweepConfig(generator="erdos-renyi", nodes=(6, 6), seed=7,
                         edge_prob=0.5)
    first = generate_graph(config, 3)
    assert first == generate_graph(config, 3)
    assert first.monitors is not None
    assert generate_graph(config, 4) != first


def test_all_pairs_policy_leaves_monitors_unset():
    config = SweepConfig(monitor_policy="all-pairs", nodes=(4, 4))
    assert generate_graph(config, 0).monitors is None


def test_barbell_shape():
    b = barbell(3, 3)
    assert b.m == 7
    assert sorted(b.links.values()) == [
        (0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]


def test_grid_shape():
    g = grid(2, 3)
    assert g.m == 7
    assert sorted(g.links.values()) == [
        (0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (4, 5)]


def test_random_biconnected_is_biconnected():
    for seed in range(10):
        g = random_biconnected(8, random.Random(seed))
        assert g.n == 8
        assert k_vertex_connected(g, 2)


def test_gnp_connected_samples_are_connected():
    for seed in range(10):
        g = gnp_connected(6, 0.4, random.Random(seed))
        assert g.is_connected()


def test_generation_failure_modes():
    rng = random.Random(1)
    with pytest.raises(GenerationFailed):
        gnp_connected(0, 0.5, rng)
    with pytest.raises(GenerationFailed):
        gnp_connected(9, 0.0001, rng)
    with pytest.raises(GenerationFailed):
        random_biconnected(2, rng)
    with pytest.raises(GenerationFailed):
        barbell(0, 2)
    with pytest.raises(GenerationFailed):
        grid(0, 3)
    with pytest.raises(GenerationFailed):
        generate_graph(SweepConfig(generator="zzz"), 0)
    with pytest.raises(GenerationFailed):
        generate_graph(SweepConfig(monitor_policy="zzz"), 0)


def test_sweep_config_defaults():
    config = SweepConfig()
    assert config.generator == "erdos-renyi"
    assert config.nodes == (6, 6)
    assert config.instances == 100
    assert config.seed == 0
    assert config.monitor_policy == "sampled"
    assert config.path_cap == 200000
    assert config.edge_prob == 0.5
