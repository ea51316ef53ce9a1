"""Graph construction, validation, derivation, and JSON round trips."""

import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from linkident import (
    DuplicateEdge,
    Graph,
    GraphError,
    MonitorNotInGraph,
    MonitorsNotDistinct,
    MonitorsUnset,
    ParseError,
    SelfLoop,
    UnknownNode,
    enumerate_all_connected_graphs,
)
from linkident.graph import indexed_link_adjacency, link_adjacency, \
    lowpoint, reachable

from helpers import k23, previous_lowpoint, triangle


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


def test_bad_metric_values_are_graph_errors():
    """Values Fraction cannot read, and booleans, fail as GraphError in
    the constructor and in with_metrics, not as Fraction's own
    errors; from_json keeps its ParseError for them."""
    g = Graph([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    for bad in (float("inf"), float("-inf"), float("nan"), "x", "1/0",
                None, True, False, [1]):
        metrics = {0: bad, 1: 1, 2: 2}
        with pytest.raises(GraphError, match="bad metric for link 0"):
            g.with_metrics(metrics)
        with pytest.raises(GraphError, match="bad metric for link 0"):
            Graph(g.nodes, [g.links[e] for e in sorted(g.links)],
                  metrics=metrics)
    with pytest.raises(ParseError):
        Graph.from_json({"nodes": [0, 1], "edges": [[0, 1]],
                         "metrics": {"0": True}})
    assert g.with_metrics({0: 1.5, 1: "2/3", 2: Fraction(5)}).metrics == {
        0: Fraction(3, 2), 1: Fraction(2, 3), 2: Fraction(5)}


def test_metric_exponents_beyond_the_digit_limit_are_rejected():
    """A metric string or Decimal whose exponent exceeds
    sys.get_int_max_str_digits() in size is refused before Fraction
    builds 10**exponent: GraphError from the constructor and
    with_metrics, ParseError from from_json. Without the check each
    value before the last parses in well under a millisecond, so the
    test fails on it before it reaches the last, which would build an
    integer of about 400 MB."""
    limit = sys.get_int_max_str_digits()
    g = Graph([0, 1], [(0, 1)])
    for bad in (f"1e{limit + 1}", f"-7E-{limit + 1}",
                f" 2.5e+{limit + 1} ", Decimal(f"1e{limit + 1}"),
                Decimal(f"-7E-{limit + 1}"), "1e999999999"):
        with pytest.raises(GraphError, match="exponent"):
            g.with_metrics({0: bad})
        with pytest.raises(GraphError, match="exponent"):
            Graph([0, 1], [(0, 1)], metrics={0: bad})
        with pytest.raises(ParseError, match="exponent"):
            Graph.from_json({"nodes": [0, 1], "edges": [[0, 1]],
                             "metrics": {"0": bad}})
    assert g.with_metrics({0: "1e300"}).metrics == {0: Fraction(10) ** 300}
    assert g.with_metrics({0: Decimal(f"1e-{limit}")}).metrics == {
        0: Fraction(1, 10 ** limit)}
    assert Graph.from_json({"nodes": [0, 1], "edges": [[0, 1]],
                            "metrics": {"0": f"1e-{limit}"}}).metrics == {
        0: Fraction(1, 10 ** limit)}


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


def test_from_json_metric_keys_are_plain_link_ids():
    """A metric key must read as to_json writes it: int() also takes
    "00", "+1", " 1 " and "1_0", which would let a second key
    overwrite a link's metric or name another link."""
    base = {"nodes": list(range(12)),
            "edges": [[i, i + 1] for i in range(11)]}
    plain = {str(i): str(i + 1) for i in range(11)}
    assert Graph.from_json({**base, "metrics": plain}).metrics[10] == 11
    for key in ("00", "+0", " 0 ", "-0"):
        with pytest.raises(ParseError, match="link id"):
            Graph.from_json({**base, "metrics": {**plain, key: "99"}})
    aliased = {("1_0" if key == "10" else key): value
               for key, value in plain.items()}
    with pytest.raises(ParseError, match="link id"):
        Graph.from_json({**base, "metrics": aliased})


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


def test_reachable_reads_link_pairs_keyed_by_node_or_by_position():
    links = [(0, (10, 12)), (1, (12, 11)), (2, (11, 13)), (3, (13, 14)),
             (4, (10, 14))]
    keyed = link_adjacency([10, 11, 12, 13, 14], links)
    assert reachable(keyed, (10,)) == {10, 11, 12, 13, 14}
    assert reachable(keyed, (12,), {10, 13}) == {11, 12}
    index, adj = indexed_link_adjacency([10, 11, 12, 13, 14], links)
    assert reachable(adj, (index[12],), {index[10], index[13]}) \
        == {index[11], index[12]}
    assert reachable(adj, (0, 3), {4}) == {0, 1, 2, 3}


def test_indexed_adjacency_sorts_each_list_and_keeps_parallel_links():
    """The inputs of the parallel-link lowpoint test below, relabelled
    so that no position equals its node."""
    label = {0: 7, 1: 5, 2: 9}
    links = [(2, (1, 2)), (0, (0, 1)), (1, (1, 2))]
    index, adj = indexed_link_adjacency(
        sorted(label.values()),
        [(eid, (label[u], label[v])) for eid, (u, v) in links])
    assert index == {5: 0, 7: 1, 9: 2}
    assert adj == [[(1, 0), (2, 1), (2, 2)], [(0, 0)], [(0, 1), (0, 2)]]
    assert lowpoint(adj, 1)[1:] == (set(), False)


def lowpoint_by_deletion(nodes, links, removed):
    """Reference for lowpoint: delete each node and each link in turn
    and search what is left of the part the pass reaches."""
    root = next(v for v in nodes if v != removed)
    adj = link_adjacency(nodes, links)
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
            kept = link_adjacency(nodes, [x for x in links if x[0] != eid])
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


def test_indexed_lowpoint_matches_the_node_keyed_pass():
    """Same reached nodes in the same order, cut nodes and bridge flag
    as the node-keyed pass, on every connected graph on 2..6 nodes
    under every removed node and none. Nodes are relabelled out of
    order, so that no index equals its node."""
    checked = 0
    for n in range(2, 7):
        for g in enumerate_all_connected_graphs(n):
            label = [(5 * v + 2) % 7 + 10 for v in g.nodes]
            g = Graph(label, [(label[u], label[v])
                              for u, v in g.links.values()])
            keyed = {v: sorted(pairs) for v, pairs in
                     link_adjacency(g.nodes, g.links.items()).items()}
            index, adj = indexed_link_adjacency(g.nodes, g.links.items())
            for removed in (None, *g.nodes):
                reached, cuts, bridge = lowpoint(
                    adj, None if removed is None else index[removed])
                want = previous_lowpoint(keyed, removed)
                assert [g.nodes[i] for i in reached] == list(want[0])
                assert {g.nodes[i] for i in cuts} == want[1]
                assert bridge == want[2]
                checked += 1
    assert checked == 1 * 3 + 4 * 4 + 38 * 5 + 728 * 6 + 26704 * 7


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
