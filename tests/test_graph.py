"""Graph construction, validation, derivation, and JSON round trips."""

import random
from fractions import Fraction

import pytest

from linkident import (
    DuplicateEdge,
    Graph,
    GraphError,
    MonitorNotInGraph,
    MonitorsNotDistinct,
    MonitorsUnset,
    MultiGraph,
    ParseError,
    SelfLoop,
    UnknownNode,
)
from linkident.graph import link_adjacency, lowpoint, node_adjacency, \
    reachable

from helpers import k23, triangle


def test_links_are_numbered_in_construction_order_and_normalized():
    g = Graph([3, 1, 2], [(3, 1), (2, 3)])
    assert g.nodes == (1, 2, 3)
    assert g.links == {0: (1, 3), 1: (2, 3)}
    assert g.n == 3 and g.m == 2


def test_neighbors_sorted_and_degree():
    g = triangle()
    assert g.neighbors(0) == ((1, 0), (2, 1))
    assert len(g.neighbors(2)) == 2
    with pytest.raises(UnknownNode):
        g.neighbors(9)


def test_link_between_ignores_order():
    g = triangle()
    assert g.link_between(2, 1) == g.link_between(1, 2) == 2
    assert g.link_between(0, 0) is None


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        Graph([0, 1], [(0, 0)])


def test_duplicate_edge_rejected_either_orientation():
    with pytest.raises(DuplicateEdge):
        Graph([0, 1], [(0, 1), (1, 0)])


def test_unknown_endpoint_rejected():
    with pytest.raises(UnknownNode):
        Graph([0, 1], [(0, 2)])


def test_duplicate_node_rejected():
    with pytest.raises(GraphError):
        Graph([0, 0, 1], [])


def test_monitor_validation():
    with pytest.raises(MonitorsNotDistinct):
        Graph([0, 1], [(0, 1)], monitors=(1, 1))
    with pytest.raises(MonitorNotInGraph):
        Graph([0, 1], [(0, 1)], monitors=(0, 5))
    with pytest.raises(MonitorsUnset):
        Graph([0, 1], [(0, 1)]).require_monitors()


def test_metrics_must_cover_every_link():
    with pytest.raises(GraphError):
        Graph([0, 1, 2], [(0, 1), (1, 2)], metrics={0: 1})
    with pytest.raises(GraphError):
        Graph([0, 1], [(0, 1)], metrics={7: 1})
    g = Graph([0, 1], [(0, 1)], metrics={0: "3/4"})
    assert g.metrics == {0: Fraction(3, 4)}


def test_graph_is_immutable():
    g = triangle()
    with pytest.raises(AttributeError):
        g.nodes = ()


def test_with_monitors_and_with_metrics_leave_original_alone():
    g = Graph([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    h = g.with_monitors(2, 0).with_metrics({0: 1, 1: 2, 2: "1/3"})
    assert g.monitors is None and g.metrics is None
    assert h.monitors == (2, 0)
    assert h.metrics[2] == Fraction(1, 3)
    assert h.links == g.links
    with pytest.raises(MonitorsNotDistinct):
        g.with_monitors(1, 1)
    with pytest.raises(GraphError):
        h.with_metrics({0: 1})


def test_interior_links_excludes_monitor_incident():
    g = k23(monitors=(0, 1))
    assert g.interior_links() == []
    h = triangle(monitors=(0, 1))
    assert h.interior_links() == []
    p = Graph(range(4), [(0, 1), (1, 2), (2, 3)], monitors=(0, 3))
    assert p.interior_links() == [1]


def test_json_round_trip_with_monitors_and_metrics():
    g = Graph([0, 1, 2], [(0, 1), (1, 2), (0, 2)], monitors=(0, 2),
              metrics={0: 1, 1: "1/2", 2: "5/3"})
    data = g.to_json()
    assert data["edges"] == [[0, 1], [1, 2], [0, 2]]
    assert data["monitors"] == [0, 2]
    assert data["metrics"]["1"] == "1/2"
    assert Graph.from_json(data) == g


def test_json_round_trip_minimal():
    g = Graph([0, 1], [(0, 1)])
    data = g.to_json()
    assert "monitors" not in data and "metrics" not in data
    assert Graph.from_json(data) == g


@pytest.mark.parametrize("data", [
    [1, 2],
    {"nodes": [0, 1]},
    {"nodes": [0, True], "edges": []},
    {"nodes": "01", "edges": []},
    {"nodes": [0, 1], "edges": [[0]]},
    {"nodes": [0, 1], "edges": [[0, 1.5]]},
    {"nodes": [0, 1], "edges": [[0, 1]], "monitors": [0]},
    {"nodes": [0, 1], "edges": [[0, 1]], "monitors": [0, "1"]},
    {"nodes": [0, 1], "edges": [[0, 1]], "metrics": ["1"]},
    {"nodes": [0, 1], "edges": [[0, 1]], "metrics": {"0": "x/y"}},
    {"nodes": [0, 1], "edges": [[0, 1]], "metrics": {"0": "1/0"}},
])
def test_from_json_rejects_malformed_input(data):
    with pytest.raises(ParseError):
        Graph.from_json(data)


def test_from_json_keeps_graph_errors():
    with pytest.raises(SelfLoop):
        Graph.from_json({"nodes": [0], "edges": [[0, 0]]})


def test_equality_and_hash():
    a = triangle()
    b = triangle()
    assert a == b and hash(a) == hash(b)
    assert a != triangle(monitors=(1, 2))
    assert a.__eq__(7) is NotImplemented


def test_is_connected():
    assert triangle().is_connected()
    assert not Graph([0, 1, 2, 3], [(0, 1), (2, 3)]).is_connected()
    assert Graph([], []).is_connected()


def test_multigraph_parallel_links_and_virtual_bookkeeping():
    # a bypass link (id 7) parallel to link 0 keeps its own id, the way
    # the interior predicate adds one past the graph's largest link id
    mg = MultiGraph([2, 0, 1], {0: (0, 1), 2: (2, 1), 7: (1, 0)})
    assert mg.nodes == (0, 1, 2)
    assert mg.links == {0: (0, 1), 2: (1, 2), 7: (0, 1)}


def lowpoint_by_deletion(nodes, links, removed):
    """Reference for lowpoint: delete each node and each link in turn
    and search what is left of the part the pass reaches."""
    root = next(v for v in nodes if v != removed)
    adj = node_adjacency(nodes, (p for _, p in links))
    reached = reachable(adj, (root,), {removed})
    cuts = set()
    for v in reached:
        rest = reached - {v}
        if rest and len(reachable(adj, (min(rest),), {removed, v})) \
                < len(rest):
            cuts.add(v)
    bridge = False
    for eid, (u, w) in links:
        if u in reached and w in reached:
            kept = node_adjacency(nodes, (p for i, p in links if i != eid))
            if len(reachable(kept, (root,), {removed})) < len(reached):
                bridge = True
    return reached, cuts, bridge


def test_lowpoint_matches_deletion_on_random_multigraphs():
    """Parallel links, several parts and a removed node, against
    deleting each node and each link in turn."""
    for case in range(300):
        rng = random.Random(7100 + case)
        n = rng.randint(2, 8)
        links = [(eid, (rng.randrange(n), rng.randrange(n)))
                 for eid in range(rng.randint(0, 14))]
        links = [(eid, (u, w)) for eid, (u, w) in links if u != w]
        removed = rng.choice([None, rng.randrange(n)])
        nodes = range(n)
        reached, cuts, bridge = lowpoint(link_adjacency(nodes, links),
                                         removed)
        assert (set(reached), cuts, bridge) \
            == lowpoint_by_deletion(nodes, links, removed)


def test_parallel_links_shield_each_other_in_lowpoint():
    single = link_adjacency(range(3), [(0, (0, 1)), (1, (1, 2))])
    double = link_adjacency(range(3), [(0, (0, 1)), (1, (1, 2)),
                                       (2, (1, 2))])
    assert lowpoint(single, 0)[1:] == (set(), True)
    assert lowpoint(double, 0)[1:] == (set(), False)


def test_lowpoint_runs_on_a_path_of_5000_nodes():
    nodes = range(5000)
    adj = link_adjacency(nodes, [(i, (i, i + 1)) for i in range(4999)])
    reached, cuts, bridge = lowpoint(adj)
    assert list(reached) == list(nodes)
    assert cuts == set(range(1, 4999)) and bridge
