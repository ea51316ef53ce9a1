"""Ground-truth engine: path enumeration, measurement systems, exact
identifiability and value recovery."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from linkident import (
    Graph,
    GraphError,
    MonitorsUnset,
    NoPath,
    PathExplosion,
    enumerate_all_connected_graphs,
    enumerate_simple_paths,
    gnp_connected,
    grid,
    identifiable_links_bruteforce,
    oracle_analysis,
    random_biconnected,
    verify_metric_recovery,
)
from linkident import oracle
from linkident.oracle import build_measurement_matrix

from helpers import (
    k4,
    path_graph,
    path_sum,
    prism,
    reference_recovery,
    triangle,
)


def test_paths_triangle_adjacent_monitors():
    assert enumerate_simple_paths(triangle(monitors=(0, 1))) == [
        (0, 1), (0, 2, 1)]


def test_paths_single_interior_node():
    assert enumerate_simple_paths(path_graph(2, monitors=(0, 2))) == [
        (0, 1, 2)]


def test_paths_k4_any_pair_gives_five():
    g = k4()
    for m1 in range(4):
        for m2 in range(4):
            if m1 != m2:
                paths = enumerate_simple_paths(g.with_monitors(m1, m2))
                assert len(paths) == 5
                assert paths == sorted(paths)
                for p in paths:
                    assert p[0] == m1 and p[-1] == m2
                    assert len(set(p)) == len(p)


def test_paths_need_monitors():
    with pytest.raises(MonitorsUnset):
        enumerate_simple_paths(triangle(monitors=None))


def test_path_cap_is_a_hard_error():
    with pytest.raises(PathExplosion):
        enumerate_simple_paths(k4(monitors=(0, 1)), cap=3)


def test_measurement_matrix_triangle():
    g = triangle(monitors=(0, 1))
    system = build_measurement_matrix(enumerate_simple_paths(g), g)
    assert system.matrix == [[1, 0, 0], [0, 1, 1]]
    assert system.rhs is None
    assert system.ncols == 3
    csv = system.to_csv()
    assert csv.splitlines()[0] == "path,link0,link1,link2"
    assert "0-2-1,0,1,1" in csv


def test_measurement_matrix_exact_sums():
    g = triangle(monitors=(0, 1)).with_metrics({0: 1, 1: "1/2", 2: "1/3"})
    system = build_measurement_matrix(enumerate_simple_paths(g), g)
    assert system.rhs == [Fraction(1), Fraction(5, 6)]


def test_bruteforce_triangle_identifies_only_the_direct_link():
    assert identifiable_links_bruteforce(triangle(monitors=(0, 1))) == {0}


def test_bruteforce_single_link():
    g = Graph([0, 1], [(0, 1)], monitors=(0, 1))
    assert identifiable_links_bruteforce(g) == {0}


def test_bruteforce_two_link_path_identifies_nothing():
    assert identifiable_links_bruteforce(path_graph(2, monitors=(0, 2))) \
        == set()


def test_bruteforce_no_path_is_an_error():
    g = Graph(range(4), [(0, 1), (2, 3)], monitors=(0, 2))
    with pytest.raises(NoPath):
        identifiable_links_bruteforce(g)
    with pytest.raises(NoPath):
        oracle_analysis(g)


def test_oracle_analysis_reports_counts_and_rank():
    res = oracle_analysis(k4(monitors=(0, 1)))
    assert res.path_count == 5
    assert res.rank == 5
    assert res.identifiable == {0, 5}
    assert 0 in res.identifiable and 2 not in res.identifiable
    assert res.values is None

    line = oracle_analysis(path_graph(2, monitors=(0, 2)))
    assert line.path_count == 1 and line.rank == 1
    assert line.identifiable == set()


def test_oracle_analysis_values_match_metrics_on_identifiable_links():
    g = triangle(monitors=(0, 1)).with_metrics({0: 2, 1: 3, 2: 5})
    res = oracle_analysis(g)
    assert res.values == {0: Fraction(2)}


def test_identifiable_set_ignores_metric_scaling():
    base = {0: 2, 1: 3, 2: 5}
    g = triangle(monitors=(0, 1))
    plain = identifiable_links_bruteforce(g.with_metrics(base))
    scaled = identifiable_links_bruteforce(
        g.with_metrics({k: Fraction(v, 7) for k, v in base.items()}))
    assert plain == scaled == identifiable_links_bruteforce(g)


def test_prefix_identifiable_sets_grow_monotonically():
    """Any subset of the measurements identifies a subset of what the
    full system identifies."""
    g = k4(monitors=(0, 1))
    paths = enumerate_simple_paths(g)
    system = build_measurement_matrix(paths, g)
    from linkident import IntegerEchelon
    full = identifiable_links_bruteforce(g)
    ech = IntegerEchelon(g.m)
    for row in system.matrix:
        ech.add(row)
        partial = {j for j in range(g.m) if ech.unit_in_span(j)}
        assert partial <= full


def test_metric_recovery_triangle():
    g = triangle(monitors=(0, 1)).with_metrics({0: 2, 1: 3, 2: 5})
    rec = verify_metric_recovery(g)
    assert rec.exact
    assert rec.recovered == {0: Fraction(2)}
    assert set(rec.witnesses) == {1, 2}
    paths = enumerate_simple_paths(g)
    for eid, (base, alt) in rec.witnesses.items():
        assert base[eid] != alt[eid]
        assert all(v > 0 for v in base) and all(v > 0 for v in alt)
        for p in paths:
            assert path_sum(g, p, base) == path_sum(g, p, alt)


def test_metric_recovery_single_path_instance():
    g = path_graph(2, monitors=(0, 2)).with_metrics({0: 1, 1: "7/3"})
    rec = verify_metric_recovery(g)
    assert rec.exact and rec.recovered == {}
    assert set(rec.witnesses) == {0, 1}


def test_metric_recovery_requires_metrics():
    with pytest.raises(GraphError):
        verify_metric_recovery(triangle(monitors=(0, 1)))


def test_metric_recovery_requires_positive_metrics():
    """A zero metric would make every witness equal to its base, a
    negative one an alternative with entries <= 0. oracle_analysis
    still takes any rational."""
    g = k4(monitors=(0, 1))
    for bad in (0, -1, Fraction(-1, 2)):
        h = g.with_metrics({eid: bad if eid == 1 else 1 for eid in g.links})
        with pytest.raises(GraphError):
            verify_metric_recovery(h)
        assert oracle_analysis(h).values == {0: 1, 5: 1}


def test_metric_recovery_on_seeded_random_instances():
    for i in range(30):
        rng = random.Random(5400 + i)
        g = gnp_connected(rng.randint(3, 6), 0.55, rng)
        m1, m2 = rng.sample(g.nodes, 2)
        metrics = {eid: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                   for eid in g.links}
        g = g.with_monitors(m1, m2).with_metrics(metrics)
        rec = verify_metric_recovery(g)
        assert rec.exact
        assert rec.identifiable == identifiable_links_bruteforce(g)
        assert set(rec.witnesses) == set(g.links) - rec.identifiable
        for eid, value in rec.recovered.items():
            assert value == metrics[eid]


def test_prism_interior_rungs_are_invisible():
    """Measured across rung (0, 5), the prism has nine paths of rank
    seven; the other two rungs stay unidentifiable."""
    res = oracle_analysis(prism(monitors=(0, 5)))
    assert res.path_count == 9
    assert res.rank == 7
    g = prism()
    rungs = {g.link_between(1, 4), g.link_between(2, 3)}
    assert res.identifiable == {g.link_between(0, 5),
                                g.link_between(1, 2),
                                g.link_between(3, 4)}
    assert not rungs & res.identifiable


def _assert_matches_reference(inst):
    """The oracle's values and verify_metric_recovery's values,
    witnesses and exactness equal reference_recovery's, by value and by
    repr; returns the oracle's result and the recovery."""
    recovered, witnesses, exact = reference_recovery(inst)
    res = oracle_analysis(inst)
    values = res.values
    rec = verify_metric_recovery(inst)
    assert values == rec.recovered == recovered
    assert rec.witnesses == witnesses
    assert rec.exact == exact
    assert repr(values) == repr(rec.recovered) == repr(recovered)
    assert repr(rec.witnesses) == repr(witnesses)
    return res, rec


def _mixed_metrics(g, rng):
    return g.with_metrics({
        eid: rng.choice((rng.randint(1, 9),
                         Fraction(rng.randint(1, 9), rng.randint(1, 12))))
        for eid in g.links})


def test_values_and_witnesses_match_the_reference_on_small_graphs():
    """Every connected graph on 2..5 nodes, every ordered monitor pair,
    seeded metrics mixing ints and Fractions: the oracle's values, and
    verify_metric_recovery's values, witnesses and exactness, equal the
    Fraction-summing dense reference, down to the repr of each entry.
    No system but a single link reaches full column rank (the ceiling
    theorem), and identifiable_links_bruteforce agrees with the full
    analysis."""
    systems = 0
    for n in range(2, 6):
        for index, g in enumerate(enumerate_all_connected_graphs(n)):
            g = _mixed_metrics(g, random.Random(n * 10_000 + index))
            for m1, m2 in permutations(g.nodes, 2):
                inst = g.with_monitors(m1, m2)
                res, rec = _assert_matches_reference(inst)
                assert res.rank < g.m or g.m == 1
                assert identifiable_links_bruteforce(inst) \
                    == res.identifiable == rec.identifiable
                systems += 1
    assert systems == 2 + 6 * 4 + 12 * 38 + 20 * 728


def test_values_and_witnesses_match_the_reference_on_larger_graphs():
    """30 seeded random 2-connected graphs on 6..8 nodes, every ordered
    monitor pair, mixed int and Fraction metrics: longer nullspace
    vectors than on 5 nodes, with both signs. One more graph carries a
    pendant link, which no monitor path away from it uses, so its unit
    vector is a nullspace vector of one sign and the witness moves it
    by exactly 1."""
    graphs = []
    for i in range(30):
        rng = random.Random(7300 + i)
        graphs.append(_mixed_metrics(
            random_biconnected(rng.randint(6, 8), rng), rng))
    rng = random.Random(7399)
    core = random_biconnected(7, rng)
    pendant = Graph(range(8), sorted(core.links.values()) + [(0, 7)])
    graphs.append(_mixed_metrics(pendant, rng))
    tail = pendant.link_between(0, 7)
    moved_by_one = 0
    for g in graphs:
        for m1, m2 in permutations(g.nodes, 2):
            _, rec = _assert_matches_reference(g.with_monitors(m1, m2))
            if g is graphs[-1] and 7 not in (m1, m2):
                base, alt = rec.witnesses[tail]
                assert alt[tail] == base[tail] + 1
                moved_by_one += 1
    assert moved_by_one == 7 * 6


def test_oracle_sums_paths_without_fraction_additions(monkeypatch):
    """grid(4, 4) between opposite corners has 184 paths over 24 links.
    Path sums are integers over one common denominator, so the oracle
    makes at most one Fraction addition per link, where summing the
    Fraction metrics along every path would make 1,912."""
    g = grid(4, 4).with_monitors(0, 15)
    g = g.with_metrics({eid: Fraction(eid + 1, eid % 5 + 2)
                        for eid in g.links})
    calls = 0
    add = Fraction.__add__

    def counted(a, b):
        nonlocal calls
        calls += 1
        return add(a, b)

    monkeypatch.setattr(Fraction, "__add__", counted)
    res = oracle_analysis(g)
    monkeypatch.undo()
    assert calls <= g.m
    assert (res.path_count, g.m) == (184, 24)
    assert res.values == {j: g.metrics[j] for j in res.identifiable}


def test_recovery_builds_witnesses_without_fraction_arithmetic(
        monkeypatch):
    """On grid(4, 4) between opposite corners, verify_metric_recovery
    reads values and witnesses off the echelon's integers: no Fraction
    arithmetic or ordering, and one Fraction per recovered value plus
    one per entry that each distinct witness moves. The 8 unidentifiable
    links share 3 nullspace vectors, and so 3 alternatives."""
    g = grid(4, 4).with_monitors(0, 15)
    g = g.with_metrics({eid: Fraction(eid + 1, eid % 5 + 2)
                        for eid in g.links})
    operators = 0
    made = 0
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return new(cls, *args, **kwargs)

    def counting(op):
        def wrapped(*args):
            nonlocal operators
            operators += 1
            return op(*args)
        return wrapped

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                 "__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, name,
                            counting(getattr(Fraction, name)))
    rec = verify_metric_recovery(g)
    monkeypatch.undo()
    base = tuple(g.metrics[j] for j in range(g.m))
    alts = {id(alt): alt for _, alt in rec.witnesses.values()}
    moved = sum(a is not b for alt in alts.values()
                for a, b in zip(alt, base))
    assert operators == 0
    assert made <= len(rec.recovered) + moved
    assert (len(rec.witnesses), len(alts)) == (8, 3)
    assert rec.exact


def _counted_walks(monkeypatch):
    """List that grows by one graph per path walk the oracle makes."""
    walks = []
    walk = oracle._walk_paths

    def counted(g, *args):
        walks.append(g)
        return walk(g, *args)

    monkeypatch.setattr(oracle, "_walk_paths", counted)
    return walks


def _k4_with_metrics():
    g = k4(monitors=(0, 1))
    return g.with_metrics({eid: Fraction(eid + 2, 3) for eid in g.links})


def test_analysis_then_recovery_walk_the_paths_once(monkeypatch):
    """oracle_analysis then verify_metric_recovery on one Graph object
    walk its paths once. An equal but distinct graph or another path
    cap each walk again, with the same answers; whether right-hand
    sides are carried follows from the graph, so
    identifiable_links_bruteforce on the same graph and cap, or a
    repeat of it, does not."""
    walks = _counted_walks(monkeypatch)
    g = _k4_with_metrics()
    res = oracle_analysis(g)
    rec = verify_metric_recovery(g)
    assert len(walks) == 1
    assert (res.path_count, res.rank, res.identifiable) == (5, 5, {0, 5})
    assert rec.recovered == res.values == {j: g.metrics[j] for j in (0, 5)}
    assert rec.exact and set(rec.witnesses) == {1, 2, 3, 4}

    twin = g.with_monitors(*g.monitors)
    assert verify_metric_recovery(twin) == rec
    assert oracle_analysis(twin, path_cap=5) == res
    assert identifiable_links_bruteforce(twin, path_cap=5) == {0, 5}
    assert walks == [g, twin, twin]
    assert identifiable_links_bruteforce(twin, path_cap=5) == {0, 5}
    assert len(walks) == 3


def test_the_shared_walk_holds_one_graph(monkeypatch):
    """Both calls on A, then on B, then on A again walk three times:
    B's walk replaces A's, so nothing is kept beyond the last graph."""
    walks = _counted_walks(monkeypatch)
    a = _k4_with_metrics()
    b = prism(monitors=(0, 5))
    b = b.with_metrics({eid: eid + 1 for eid in b.links})
    outs = [(oracle_analysis(g), verify_metric_recovery(g))
            for g in (a, b, a)]
    assert walks == [a, b, a]
    assert outs[0] == outs[2] != outs[1]
    assert (outs[1][0].path_count, outs[1][0].rank) == (9, 7)


def test_a_failed_walk_leaves_the_shared_one_alone(monkeypatch):
    """A smaller cap on a graph whose walk is kept still raises
    PathExplosion, and the kept walk still serves the default cap.
    After PathExplosion or NoPath, another graph gets its own answer."""
    walks = _counted_walks(monkeypatch)
    g = k4(monitors=(0, 1))
    res = oracle_analysis(g)
    with pytest.raises(PathExplosion):
        oracle_analysis(g, path_cap=1)
    assert oracle_analysis(g) == res
    assert len(walks) == 2

    other = prism(monitors=(0, 5))
    assert identifiable_links_bruteforce(other) == {
        other.link_between(0, 5), other.link_between(1, 2),
        other.link_between(3, 4)}
    split = Graph(range(4), [(0, 1), (2, 3)], monitors=(0, 2))
    for _ in range(2):
        with pytest.raises(NoPath):
            oracle_analysis(split)
    line = oracle_analysis(path_graph(2, monitors=(0, 2)))
    assert (line.path_count, line.rank, line.identifiable) == (1, 1, set())
