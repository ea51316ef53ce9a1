"""Blocks, cut vertices, and canonical triconnected components."""

import dataclasses
import random
from itertools import combinations

import pytest

from linkident import (
    BrokenPairing,
    Disconnected,
    Graph,
    NotBiconnected,
    TooSmall,
    UnknownBlock,
    biconnected_components,
    decompose_links,
    enumerate_all_connected_graphs,
    grid,
    random_biconnected,
    reassemble,
    triconnected_components,
)
from linkident import decomposition
from linkident.graph import link_adjacency, lowpoint, reachable

from helpers import bowtie_on_edge, c5, k4, k_vertex_connected, path_graph, \
    previous_biconnected_components, prism, triangle, triangle_chain, \
    two_triangles


def rebuilt(g):
    """g without monitors/metrics, for comparing against reassemble."""
    return Graph(g.nodes, [g.links[i] for i in sorted(g.links)])


# -- blocks ------------------------------------------------------------


def test_blocks_of_two_triangles():
    bct = biconnected_components(two_triangles())
    assert bct.cut_vertices == frozenset({2})
    assert [(b.bid, b.links, b.nodes) for b in bct.blocks] == [
        (0, (0, 1, 2), (0, 1, 2)),
        (1, (3, 4, 5), (2, 3, 4)),
    ]
    assert bct.edges == ((0, 2), (1, 2))
    # rooted at node 0: block 1 hangs from block 0 at the cut vertex 2
    assert bct.head == [0, 2]
    assert bct.up == {1: 0, 2: 0, 3: 1, 4: 1}
    assert bct.link_block == {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
    assert bct.block(0).bid == 0
    with pytest.raises(UnknownBlock):
        bct.block(5)


def test_bridges_become_single_link_blocks():
    bct = biconnected_components(path_graph(3))
    assert [(b.bid, b.links) for b in bct.blocks] == [
        (0, (0,)), (1, (1,)), (2, (2,))]
    assert sorted(bct.cut_vertices) == [1, 2]
    assert bct.edges == ((0, 1), (1, 1), (1, 2), (2, 2))


def test_biconnected_graph_is_one_block():
    bct = biconnected_components(c5())
    assert len(bct.blocks) == 1
    assert bct.blocks[0].links == (0, 1, 2, 3, 4)
    assert bct.cut_vertices == frozenset()


def test_blocks_need_a_connected_graph(monkeypatch):
    # the DFS itself finds the missed nodes, with no search before it
    monkeypatch.setattr(Graph, "is_connected", None)
    for g in [Graph(range(4), [(0, 1), (2, 3)]),
              Graph(range(4), [(0, 1), (1, 2), (0, 2)]),
              Graph(range(2), [])]:
        with pytest.raises(Disconnected):
            biconnected_components(g)


def test_a_single_node_has_no_blocks():
    bct = biconnected_components(Graph([0], []))
    assert bct.blocks == [] and bct.edges == ()
    assert bct.cut_vertices == frozenset()
    assert bct.head == [] and bct.up == {} and bct.link_block == {}


def test_block_links_partition_the_graph():
    for g in [two_triangles(), path_graph(4), bowtie_on_edge(), prism()]:
        bct = biconnected_components(g)
        seen = [eid for b in bct.blocks for eid in b.links]
        assert sorted(seen) == sorted(g.links)


def test_one_pass_tree_equals_the_previous_assembly():
    """Every field of the block-cut tree, and its repr, equal those
    of the tree assembled after its DFS."""
    graphs = [g for n in range(2, 7)
              for g in enumerate_all_connected_graphs(n)]
    graphs += [triangle_chain(b) for b in (1, 2, 40, 300)]
    graphs += [grid(k, k) for k in range(3, 12)]
    rng = random.Random(2305)
    graphs += [random_biconnected(rng.randint(5, 30), rng)
               for _ in range(50)]
    for g in graphs:
        new = biconnected_components(g)
        old = previous_biconnected_components(g)
        for f in dataclasses.fields(new):
            assert getattr(new, f.name) == getattr(old, f.name), f.name
        assert repr(new) == repr(old)
        assert [repr(b) for b in new.blocks] == \
            [repr(b) for b in old.blocks]


# -- triconnected components -------------------------------------------


def test_k4_is_one_rigid_component():
    tri = triconnected_components(k4())
    assert [c.kind for c in tri.components] == ["rigid"]
    assert tri.components[0].virtuals == frozenset()
    assert tri.virtual_pairing == {}


def test_cycle_is_one_polygon():
    tri = triconnected_components(c5())
    assert [c.kind for c in tri.components] == ["polygon"]
    assert tri.components[0].virtuals == frozenset()
    assert sorted(tri.components[0].links) == [0, 1, 2, 3, 4]


def test_a_3000_node_cycle_is_one_polygon():
    """The 2-connectivity check keeps its own stack, so no cycle is too
    long for the recursion limit."""
    cycle = Graph(range(3000), [(i, (i + 1) % 3000) for i in range(3000)])
    tri = triconnected_components(cycle)
    assert [c.kind for c in tri.components] == ["polygon"]


def test_triangle_is_one_polygon():
    kinds = [c.kind for c in triconnected_components(triangle()).components]
    assert kinds == ["polygon"]


def test_wheel_is_one_rigid_component():
    rim = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    w5 = Graph(range(6), [(0, i) for i in range(1, 6)] + rim)
    tri = triconnected_components(w5)
    assert [c.kind for c in tri.components] == ["rigid"]
    assert tri.components[0].virtuals == frozenset()


def test_theta_graph_splits_into_bond_plus_polygons():
    theta = Graph(range(5), [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])
    kinds = sorted(c.kind for c in
                   triconnected_components(theta).components)
    assert kinds == ["bond", "polygon", "polygon", "polygon"]


def test_bowtie_full_decomposition():
    tri = triconnected_components(bowtie_on_edge())
    assert tri.to_json() == {
        "components": [
            {"cid": 0, "kind": "bond", "nodes": [0, 1],
             "links": {"0": [0, 1], "5": [0, 1], "6": [0, 1]},
             "virtuals": [5, 6]},
            {"cid": 1, "kind": "polygon", "nodes": [0, 1, 2],
             "links": {"1": [0, 2], "2": [1, 2], "5": [0, 1]},
             "virtuals": [5]},
            {"cid": 2, "kind": "polygon", "nodes": [0, 1, 3],
             "links": {"3": [0, 3], "4": [1, 3], "6": [0, 1]},
             "virtuals": [6]},
        ],
        "virtual_pairing": {"5": [0, 1], "6": [0, 2]},
        "split_pairs": {"0": [[0, 1]], "1": [[0, 1]], "2": [[0, 1]]},
        "pair_nodes": {"5": [0, 1], "6": [0, 1]},
    }


def test_component_accessors():
    tri = triconnected_components(bowtie_on_edge())
    c1 = tri.component(1)
    assert (c1.cid, c1.kind) == (1, "polygon")
    assert sorted(c1.links) == [1, 2, 5]
    assert c1.virtuals == frozenset({5})
    assert c1.nodes == (0, 1, 2)
    assert sorted(set(c1.links) - c1.virtuals) == [1, 2]
    assert hash(c1) == hash(tri.component(1))
    assert tri.partner(0, 5) == 1
    assert tri.partner(1, 5) == 0
    with pytest.raises(UnknownBlock):
        tri.component(9)


def test_requires_biconnected_input():
    with pytest.raises(NotBiconnected):
        triconnected_components(two_triangles())
    with pytest.raises(NotBiconnected):
        triconnected_components(Graph(range(6), [(0, 1), (1, 2), (0, 2),
                                                 (3, 4), (4, 5), (3, 5)]))
    with pytest.raises(TooSmall):
        triconnected_components(Graph([0, 1], [(0, 1)]))
    with pytest.raises(TooSmall):
        triconnected_components(Graph([0], []))


def test_decompose_links_keeps_caller_ids():
    tt = two_triangles()
    blk = biconnected_components(tt).block(1)
    dec = decompose_links({eid: tt.links[eid] for eid in blk.links})
    assert [(c.cid, c.kind, sorted(c.links)) for c in dec.components] == [
        (0, "polygon", [3, 4, 5])]


def test_reassemble_round_trips_pinned_graphs():
    for g in [bowtie_on_edge(), c5(), prism(), k4(), triangle()]:
        assert reassemble(triconnected_components(g)) == rebuilt(g)


def test_reassemble_round_trips_every_small_biconnected_graph():
    count = 0
    for n in range(3, 6):
        for g in enumerate_all_connected_graphs(n):
            if k_vertex_connected(g, 2):
                tri = triconnected_components(g)
                assert reassemble(tri) == rebuilt(g)
                count += 1
    assert count == 249


def test_reassemble_rejects_tampered_decompositions():
    tri = triconnected_components(bowtie_on_edge())
    endpoints = dataclasses.replace(
        tri, pair_nodes={**tri.pair_nodes, 5: (0, 2)})
    dropped = dataclasses.replace(tri, components=tri.components[:-1])
    phantom = dataclasses.replace(
        tri, pair_nodes={**tri.pair_nodes, 99: (0, 1)})
    for bad in [endpoints, dropped, phantom]:
        with pytest.raises(BrokenPairing):
            reassemble(bad)


def test_component_kinds_survive_relabeling():
    rng = random.Random(4)
    for g in [bowtie_on_edge(), prism(), k4(), c5()]:
        kinds0 = sorted(c.kind for c in
                        triconnected_components(g).components)
        names = rng.sample(range(100, 100 + len(g.nodes)), len(g.nodes))
        perm = dict(zip(g.nodes, names))
        h = Graph(sorted(perm.values()),
                  [(perm[g.links[i][0]], perm[g.links[i][1]])
                   for i in sorted(g.links)])
        kinds1 = sorted(c.kind for c in
                        triconnected_components(h).components)
        assert kinds0 == kinds1


def test_structural_invariants_of_component_kinds():
    """Rigid pieces are 3-connected after gluing, polygons are cycles,
    bonds are parallel bundles of at least three links."""
    for n in range(4, 6):
        for g in enumerate_all_connected_graphs(n):
            if not k_vertex_connected(g, 2):
                continue
            tri = triconnected_components(g)
            for c in tri.components:
                degs = {}
                for u, v in c.links.values():
                    degs[u] = degs.get(u, 0) + 1
                    degs[v] = degs.get(v, 0) + 1
                if c.kind == "polygon":
                    assert len(c.links) == len(c.nodes) >= 3
                    assert set(degs.values()) == {2}
                elif c.kind == "bond":
                    assert len(c.nodes) == 2 and len(c.links) >= 3
                else:
                    assert c.kind == "rigid"
                    assert len(c.nodes) >= 4
                    merged = Graph(
                        c.nodes,
                        [tuple(p) for p in c.links.values()])
                    assert k_vertex_connected(merged, 3)


def test_real_links_partition_across_components():
    for g in [bowtie_on_edge(), prism(), k4(), c5()]:
        tri = triconnected_components(g)
        seen = [eid for c in tri.components for eid in c.links
                if eid not in c.virtuals]
        assert sorted(seen) == sorted(g.links)


def test_every_virtual_id_lives_in_exactly_two_components():
    tri = triconnected_components(bowtie_on_edge())
    where = {}
    for c in tri.components:
        for vid in c.virtuals:
            where.setdefault(vid, []).append(c.cid)
    assert {vid: tuple(cids) for vid, cids in where.items()} == \
        {vid: pair for vid, pair in tri.virtual_pairing.items()}


# -- split-pair search against the all-pairs reference ------------------


def separation_classes(links, a, b):
    """Partition of links at the node pair {a, b}.

    One class per component of the link set minus {a, b} (the
    component's links plus its links into a and b), plus one singleton
    class per direct a-b link. Classes come out in deterministic
    order: components by smallest contained node, then direct links by
    id.
    """
    others = sorted(decomposition._endpoints(links) - {a, b})
    adj = link_adjacency(others, [(eid, p) for eid, p in links.items()
                                  if a not in p and b not in p])
    comp_of = {}
    count = 0
    for start in others:
        if start not in comp_of:
            comp_of.update(dict.fromkeys(reachable(adj, (start,)), count))
            count += 1
    classes = [{} for _ in range(count)]
    directs = []
    for eid, (u, v) in sorted(links.items()):
        if {u, v} == {a, b}:
            directs.append({eid: (u, v)})
        elif u in (a, b):
            classes[comp_of[v]][eid] = (u, v)
        else:
            classes[comp_of[u]][eid] = (u, v)
    return classes + directs


def scan_all_pairs(links, nodes, start=None):
    """Reference split-pair search: every node pair in ascending order,
    qualified by the full partition of separation_classes. It ignores
    start, so matching it proves that the library's start bound skips
    no qualifying pair."""
    for a, b in combinations(nodes, 2):
        classes = separation_classes(links, a, b)
        if len(classes) < 2:
            continue
        if len(classes) == 2 and (len(classes[0]) == 1
                                  or len(classes[1]) == 1):
            continue
        return a, b
    return None


def decomposed_both_ways(links, monkeypatch):
    fast = decompose_links(links).to_json()
    with monkeypatch.context() as patch:
        patch.setattr(decomposition, "_find_split_pair", scan_all_pairs)
        slow = decompose_links(links).to_json()
    return fast, slow


def small_blocks():
    """Link dicts of every block of every connected graph on 2..5
    nodes."""
    for n in range(2, 6):
        for g in enumerate_all_connected_graphs(n):
            for b in biconnected_components(g).blocks:
                yield {eid: g.links[eid] for eid in b.links}


def larger_blocks():
    """Link dicts of grids 3..6 and 100 seeded 2-connected graphs on
    8..14 nodes."""
    graphs = [grid(k, k) for k in range(3, 7)]
    for i in range(100):
        rng = random.Random(9300 + i)
        graphs.append(random_biconnected(rng.randint(8, 14), rng,
                                         chord_prob=rng.choice((0.1, 0.3))))
    return [g.links for g in graphs]


def test_split_search_matches_all_pairs_scan_on_small_graphs(monkeypatch):
    count = 0
    for links in small_blocks():
        fast, slow = decomposed_both_ways(links, monkeypatch)
        assert fast == slow
        count += 1
    assert count > 100


def test_split_search_matches_all_pairs_scan_on_larger_blocks(monkeypatch):
    for links in larger_blocks():
        fast, slow = decomposed_both_ways(links, monkeypatch)
        assert fast == slow


def test_each_split_side_is_the_first_class_of_two_or_more_links(
        monkeypatch):
    """At every split of both corpora above, the side _split_side cuts
    off is the first class of two or more links in the full partition
    at the split pair."""
    splits = []
    original = decomposition._split_side

    def checked(links, nodes, a, b):
        side = original(links, nodes, a, b)
        expected = next(c for c in separation_classes(links, a, b)
                        if len(c) >= 2)
        assert list(side.items()) == list(expected.items()), (links, a, b)
        splits.append((a, b))
        return side

    monkeypatch.setattr(decomposition, "_split_side", checked)
    for links in [*small_blocks(), *larger_blocks()]:
        decompose_links(links)
    assert len(splits) > 500


def degree_kind(links, nodes):
    """Reference kind of a piece from its node degrees: a bond on two
    nodes, a polygon when every degree is 2, rigid otherwise."""
    if len(nodes) == 2:
        return "bond"
    degree = dict.fromkeys(nodes, 0)
    for u, v in links.values():
        degree[u] += 1
        degree[v] += 1
    return "polygon" if set(degree.values()) == {2} else "rigid"


def test_kind_from_counts_matches_the_degree_rule(monkeypatch):
    """_kind_of reads only the link and node counts; on every piece
    the split builds from both corpora above it agrees with the
    degrees."""
    pieces = []
    original = decomposition._kind_of

    def checked(links, nodes):
        kind = original(links, nodes)
        assert kind == degree_kind(links, nodes), (links, nodes)
        pieces.append(kind)
        return kind

    monkeypatch.setattr(decomposition, "_kind_of", checked)
    for links in [*small_blocks(), *larger_blocks()]:
        decompose_links(links)
    assert {"bond", "polygon", "rigid"} <= set(pieces)
    assert len(pieces) > 2000


def test_split_search_finds_a_pair_through_parallel_links(monkeypatch):
    """A real link 0 parallel to a virtual link 5, as left behind when
    the bowtie splits at (0, 1): no node cuts the piece without node 0,
    so only the parallel links make (0, 1) a candidate."""
    piece = {0: (0, 1), 3: (0, 3), 4: (1, 3), 5: (0, 1)}
    # nodes 0, 1, 3 at indices 0, 1, 2
    adj = [[(1, 0), (2, 3), (1, 5)], [(0, 0), (2, 4), (0, 5)],
           [(0, 3), (1, 4)]]
    assert lowpoint(adj, 0)[1] == set()
    pair = decomposition._find_split_pair(piece, [0, 1, 3], 0)
    assert pair == (0, 1) == scan_all_pairs(piece, [0, 1, 3])
    fast, slow = decomposed_both_ways(piece, monkeypatch)
    assert fast == slow
    assert [c["kind"] for c in fast["components"]] == ["bond", "polygon"]


def test_split_search_tests_few_pairs_on_a_grid(monkeypatch):
    """One _split_side call per split."""
    calls = []
    original = decomposition._split_side

    def counted(links, nodes, a, b):
        calls.append((a, b))
        return original(links, nodes, a, b)

    monkeypatch.setattr(decomposition, "_split_side", counted)
    decompose_links(grid(9, 9).links)
    assert 0 < len(calls) < 20


def test_split_search_resumes_at_the_split_node(monkeypatch):
    """Each piece's search starts at the smaller node of the pair that
    cut its parent: 82 lowpoint passes on grid(9, 9), where restarting
    at every piece's smallest node takes 218."""
    calls = []
    original = decomposition.lowpoint

    def counted(adj, *args):
        calls.append(args)
        return original(adj, *args)

    monkeypatch.setattr(decomposition, "lowpoint", counted)
    decompose_links(grid(9, 9).links)
    assert 0 < len(calls) <= 82
