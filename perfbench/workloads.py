"""The four workloads: seeded inputs, the queries over them, and checks.

Each workload draws its inputs from a fixed catalogue of instances whose
expected outputs are recorded in expected.json (see record.py). The
seed chooses among catalogue placements and relabels nodes and links,
and draws link metrics; it never changes how large the inputs are, so
runs with different seeds do comparable work.

Names called from queries (analyze, Structure, exhaustive_sweep,
oracle_analysis, verify_metric_recovery) are looked up in this module
at call time, so that the traced run can wrap them here.
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from time import perf_counter

from linkident import (
    Graph,
    Structure,
    analyze,
    exhaustive_sweep,
    grid,
    oracle_analysis,
    random_biconnected,
    verify_metric_recovery,
)
from linkident import sweep as sweep_module

from measure import Query
from spans import patched

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# analyze-sparse: grids monitored at opposite corners, triangle chains
# monitored end to end and mid-chain, and one chain deep enough that
# the recursive block search overflows Python's default recursion limit
GRID_SIZES = (6, 7, 8, 9)
# corner pairs per grid size in one pass: all four of the small grids,
# fewer of the costly ones, so that the 90th percentile falls inside
# the many 7x7 samples rather than on one or two large grids
GRID_CORNERS = {6: 4, 7: 4, 8: 2, 9: 1}
CHAIN_BLOCKS = tuple(range(100, 301, 20))
LONG_CHAIN_BLOCKS = 600

# placement-allpairs and oracle-recovery: random 2-connected topologies
# named by (nodes, index), plus a 4x4 grid; sized so one pass over
# either workload takes a few seconds on one core
PLACEMENT_TOPOLOGIES = ((10, 7), (10, 0), (11, 1), (11, 6), (12, 5),
                        (12, 7), "grid")
RECOVERY_TOPOLOGIES = ((7, 0), (7, 2), (8, 0), (8, 2), (9, 1), (9, 2),
                       (10, 1), "grid")


@dataclass
class Workload:
    """Queries of one pass, plus what the runner needs around them."""

    queries: list
    deadline_s: float
    warm_up: object
    context: object = nullcontext


def load_expected():
    with open(EXPECTED_PATH) as f:
        return json.load(f)


def short_digest(obj):
    data = json.dumps(obj, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def verdict_digest(report, endpoints):
    """Digest of verdict and rule per link, with each link named by
    its catalogue endpoints (endpoints maps output link id to them)."""
    rows = sorted([*endpoints[eid], v.identifiable, v.rule]
                  for eid, v in report.verdicts.items())
    return short_digest(rows)


def pair_key(a, b):
    return f"{a},{b}"


# -- catalogue ---------------------------------------------------------


def triangle_chain(blocks):
    """Triangles (2i, 2i+1, 2i+2) glued at their even nodes."""
    edges = []
    for i in range(blocks):
        a, b, c = 2 * i, 2 * i + 1, 2 * i + 2
        edges += [(a, b), (b, c), (a, c)]
    return Graph(range(2 * blocks + 1), edges)


def grid_corners(k):
    last = k * k - 1
    return [(0, last), (last, 0), (k - 1, k * (k - 1)), (k * (k - 1), k - 1)]


def chain_placements(blocks):
    """End to end both ways, then two mid-chain placements: at cut
    vertices a quarter and three quarters along, and at the apexes
    next to them."""
    end = 2 * blocks
    q1, q3 = 2 * (blocks // 4), 2 * (3 * blocks // 4)
    return [(0, end), (end, 0), (q1, q3), (q1 + 1, q3 + 1)]


def topology_key(topo):
    return "grid/4x4" if topo == "grid" else "random-biconnected/%d/%d" % topo


def topology(topo):
    if topo == "grid":
        return grid(4, 4)
    n, index = topo
    return random_biconnected(n, random.Random(f"catalogue/{n}/{index}"))


def recovery_pairs(topo, g):
    """Unordered monitor pairs measured on a recovery topology: every
    pair on the random ones, corner 0 against every node on the grid."""
    if topo == "grid":
        return [(0, v) for v in g.nodes[1:]]
    return [(a, b) for a, b in permutations(g.nodes, 2) if a < b]


class Relabeled:
    """A catalogue graph under a node permutation and a new link order.

    With rng None both are the identity. node maps catalogue node to
    new node, back inverts it; endpoints maps new link id to the
    catalogue endpoints of that link.
    """

    def __init__(self, g, rng=None):
        labels = list(g.nodes)
        order = sorted(g.links)
        if rng is not None:
            rng.shuffle(labels)
            rng.shuffle(order)
        self.node = dict(zip(g.nodes, labels))
        self.back = {new: old for old, new in self.node.items()}
        self.link = order
        self.endpoints = [g.links[c] for c in order]
        self.graph = Graph(sorted(labels),
                           [(self.node[u], self.node[v])
                            for u, v in self.endpoints])


# -- sweep-exhaustive --------------------------------------------------


class GraphClock:
    """Timestamps each graph the exhaustive sweep draws, so that one
    sweep yields one latency sample per graph (all its ordered monitor
    pairs)."""

    def __init__(self):
        self.marks = []

    def installed(self):
        inner = sweep_module.enumerate_all_connected_graphs

        def clocked(n):
            for g in inner(n):
                self.marks.append(perf_counter())
                yield g

        return patched(sweep_module, "enumerate_all_connected_graphs",
                       clocked)

    def start(self):
        self.marks = [perf_counter()]

    def samples(self, seconds):
        """Per-graph durations; the first also holds the sweep's set-up
        and they add up to the whole call."""
        bounds = [self.marks[0]] + self.marks[2:]
        bounds.append(self.marks[0] + seconds)
        return [b - a for a, b in zip(bounds, bounds[1:])]


def sweep_exhaustive(seed, expected, small=False):
    """exhaustive_sweep over every connected graph on 2..5 nodes. The
    input is the whole space, so the seed changes nothing."""
    max_nodes = 4 if small else 5
    exp = expected["sweep-exhaustive"][str(max_nodes)]
    clock = GraphClock()

    def call():
        clock.start()
        return exhaustive_sweep(max_nodes)

    def check(summary):
        extra = summary.extra
        return (summary.records_digest == exp["digest"]
                and summary.instances == exp["instances"]
                and summary.mismatches == 0
                and extra["graphs"] == exp["graphs"]
                and not extra["exterior_violations"]
                and not extra["predicate_violations"])

    query = Query(label=f"exhaustive_sweep({max_nodes})", call=call,
                  check=check, instances=exp["instances"],
                  samples=clock.samples, sample_count=exp["graphs"])
    return Workload(queries=[query], deadline_s=60.0,
                    warm_up=lambda: exhaustive_sweep(max_nodes - 1),
                    context=clock.installed)


# -- analyze-sparse ----------------------------------------------------


def analyze_sparse_catalogue(small=False):
    """(kind, count, entries) for every group of instances analyze-sparse
    draws from: a pass takes count of the group's (key, monitored
    graph) entries, chosen by the seed."""
    groups = []
    for k in GRID_SIZES[:1] if small else GRID_SIZES:
        g = grid(k, k)
        groups.append(("grid", GRID_CORNERS[k],
                       [(f"grid/{k}/{pair_key(*m)}", g.with_monitors(*m))
                        for m in grid_corners(k)]))
    for b in CHAIN_BLOCKS[:1] if small else CHAIN_BLOCKS:
        g = triangle_chain(b)
        placements = chain_placements(b)
        groups.append(("chain", len(placements),
                       [(f"chain/{b}/{pair_key(*m)}", g.with_monitors(*m))
                        for m in placements]))
    long_chain = triangle_chain(LONG_CHAIN_BLOCKS)
    end = 2 * LONG_CHAIN_BLOCKS
    groups.append(("long", 1,
                   [(f"chain/{LONG_CHAIN_BLOCKS}/{pair_key(0, end)}",
                     long_chain.with_monitors(0, end))]))
    return groups


def analyze_sparse(seed, expected, small=False):
    """analyze with a fresh Structure per query: GRID_CORNERS corner
    pairs per grid size, every placement of every chain length, and
    the long chain. The seed picks the corners and the order."""
    exp = expected["analyze-sparse"]
    rng = random.Random(f"analyze-sparse/{seed}")
    picked = []
    for kind, count, entries in analyze_sparse_catalogue(small):
        picked += [(kind, key, g) for key, g in rng.sample(entries, count)]
    rng.shuffle(picked)

    def query(kind, key, g):
        return Query(
            label=key, call=lambda: analyze(g),
            check=lambda rep: verdict_digest(rep, g.links) == exp[key],
            known_failure="RecursionError" if kind == "long" else None)

    def warm_up():
        analyze(grid(5, 5).with_monitors(0, 24))
        analyze(triangle_chain(50).with_monitors(0, 100))

    return Workload(queries=[query(*p) for p in picked],
                    deadline_s=10.0, warm_up=warm_up)


# -- placement-allpairs ------------------------------------------------


class _Shared:
    """The Structure one topology's queries share within a pass."""

    structure = None


def placement_allpairs(seed, expected, small=False):
    """analyze under every ordered monitor pair of each topology, all
    pairs sharing one Structure. The first query of a topology builds
    it, so each pass pays for the decomposition and the oracle runs
    the Structure caches."""
    exp = expected["placement-allpairs"]
    rng = random.Random(f"placement-allpairs/{seed}")
    queries = []
    for topo in PLACEMENT_TOPOLOGIES[:1] if small else PLACEMENT_TOPOLOGIES:
        key = topology_key(topo)
        rel = Relabeled(topology(topo), rng)
        g = rel.graph
        shared = _Shared()
        for i, (a, b) in enumerate(permutations(g.nodes, 2)):
            inst = g.with_monitors(a, b)
            if i == 0:
                def call(inst=inst, shared=shared, g=g):
                    shared.structure = Structure(g)
                    return analyze(inst, structure=shared.structure)
            else:
                def call(inst=inst, shared=shared):
                    return analyze(inst, structure=shared.structure)
            want = exp[key][pair_key(rel.back[a], rel.back[b])]
            queries.append(Query(
                label=f"{key}/{pair_key(a, b)}", call=call,
                check=lambda rep, rel=rel, want=want:
                    verdict_digest(rep, rel.endpoints) == want))

    def warm_up():
        g = random_biconnected(7, random.Random("warm-up"))
        st = Structure(g)
        for a, b in permutations(g.nodes, 2):
            analyze(g.with_monitors(a, b), structure=st)

    return Workload(queries=queries, deadline_s=10.0, warm_up=warm_up)


# -- oracle-recovery ---------------------------------------------------


def recovery_expected(res, rel):
    """What the recorded expectation holds for one oracle result:
    identifiable links by catalogue id, path count and rank."""
    return [sorted(rel.link[j] for j in res.identifiable),
            res.path_count, res.rank]


def recovery_ok(res, rec, g, rel, want):
    """Oracle output against the record, and recovery against the true
    metrics: every identifiable value exact, every other link with a
    positive witness that differs on it."""
    if recovery_expected(res, rel) != want:
        return False
    truth = g.metrics
    if res.values != {j: truth[j] for j in res.identifiable}:
        return False
    if rec.recovered != res.values or not rec.exact:
        return False
    if set(rec.witnesses) != set(g.links) - res.identifiable:
        return False
    base = tuple(truth[j] for j in range(g.m))
    for j, (b, alt) in rec.witnesses.items():
        if b != base or alt[j] == base[j] or min(alt) <= 0:
            return False
    return True


def oracle_recovery(seed, expected, small=False):
    """oracle_analysis plus verify_metric_recovery per monitor pair, on
    graphs carrying seeded positive rational metrics."""
    exp = expected["oracle-recovery"]
    rng = random.Random(f"oracle-recovery/{seed}")
    queries = []
    for topo in RECOVERY_TOPOLOGIES[:1] if small else RECOVERY_TOPOLOGIES:
        key = topology_key(topo)
        cat = topology(topo)
        rel = Relabeled(cat, rng)
        g = rel.graph.with_metrics(
            {eid: Fraction(rng.randint(1, 99), rng.randint(1, 9))
             for eid in rel.graph.links})
        for a, b in recovery_pairs(topo, cat):
            want = exp[key][pair_key(a, b)]
            if rng.random() < 0.5:
                a, b = b, a
            inst = g.with_monitors(rel.node[a], rel.node[b])
            queries.append(Query(
                label=f"{key}/{pair_key(a, b)}",
                call=lambda inst=inst: (oracle_analysis(inst),
                                        verify_metric_recovery(inst)),
                check=lambda out, inst=inst, rel=rel, want=want:
                    recovery_ok(*out, inst, rel, want)))

    def warm_up():
        rng = random.Random("warm-up")
        g = random_biconnected(6, rng)
        g = g.with_metrics({eid: rng.randint(1, 9) for eid in g.links})
        for a, b in permutations(g.nodes, 2):
            inst = g.with_monitors(a, b)
            oracle_analysis(inst)
            verify_metric_recovery(inst)

    return Workload(queries=queries, deadline_s=10.0, warm_up=warm_up)


BY_NAME = {
    "sweep-exhaustive": sweep_exhaustive,
    "analyze-sparse": analyze_sparse,
    "placement-allpairs": placement_allpairs,
    "oracle-recovery": oracle_recovery,
}


def build(name, seed, expected, small=False):
    """Inputs, queries and warm-up of one workload for one seed."""
    return BY_NAME[name](seed, expected, small)
