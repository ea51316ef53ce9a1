"""Release gate: the eight numbered acceptance checks, one test each.

Every test reports a single "criterion N PASS/FAIL" line through
conftest.record_acceptance so the outcome of each numbered check is
readable in one terminal block at the end of the run.  Checks 1, 3 and
4 share a module-scoped exhaustive sweep over every connected labeled
graph on 2 to 6 nodes with every ordered monitor pair; the seeded
families used by checks 2, 5 and 7 are re-run by check 8 and compared
byte for byte.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from conftest import record_acceptance
from helpers import k_vertex_connected, path_sum

from linkident import (
    Graph,
    analyze,
    diff_instance,
    enumerate_all_connected_graphs,
    enumerate_simple_paths,
    exhaustive_sweep,
    gnp_connected,
    identifiable_links_bruteforce,
    random_biconnected,
    reassemble,
    triconnected_components,
    verify_metric_recovery,
)

SWEEP6_DIGEST = \
    "24ed2ad3725269cbcf70679f7656848a8b5229287a37a01c35182024b36daca3"
SWEEP5_DIGEST = \
    "42b64f7ea0330daa98f9da683d99ffd453923f59b642c4a9920c0c7ff766293a"
SWEEP6_INSTANCES = 816162
SWEEP6_PREDICATE_CHECKED = 405334
SWEEP6_BUDGET_SECONDS = 600.0

_blobs = {}


@pytest.fixture(scope="module")
def sweep6():
    """The full 2..6-node sweep, run once and shared by three checks."""
    started = time.monotonic()
    summary = exhaustive_sweep(6)
    return summary, time.monotonic() - started


# -- check 2: a direct agent-to-agent link and monitor tails -----------


TAIL_VARIANTS = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2))


def _agent_link_base(i):
    """Seeded graph with one designated agent-to-agent link: for even i
    a random edge inside one connected graph, for odd i a bridge joining
    two independently drawn connected graphs."""
    rng = random.Random(20000 + i)
    n = rng.randint(3, 6)
    core = gnp_connected(n, 0.55, rng)
    edges = [core.links[j] for j in sorted(core.links)]
    if i % 2 == 0:
        eid = rng.choice(sorted(core.links))
        u, v = core.links[eid]
        nodes = list(core.nodes)
    else:
        n2 = rng.randint(3, 6)
        other = gnp_connected(n2, 0.55, rng)
        nodes = list(range(n + n2))
        edges += [(a + n, b + n)
                  for a, b in (other.links[j] for j in sorted(other.links))]
        u = rng.randrange(n)
        v = n + rng.randrange(n2)
        edges.append((u, v))
    return nodes, edges, u, v


def _with_tails(nodes, edges, u, v, t1, t2):
    """Attach a path of t1 fresh nodes at u and t2 at v; the monitors
    sit at the far ends (at u and v themselves when the length is 0)."""
    nodes = list(nodes)
    edges = list(edges)
    nxt = max(nodes) + 1
    m1 = u
    for _ in range(t1):
        nodes.append(nxt)
        edges.append((m1, nxt))
        m1 = nxt
        nxt += 1
    m2 = v
    for _ in range(t2):
        nodes.append(nxt)
        edges.append((m2, nxt))
        m2 = nxt
        nxt += 1
    return Graph(nodes, edges, monitors=(m1, m2))


def _run_agent_link_family():
    records = []
    failures = []
    for i in range(200):
        nodes, edges, u, v = _agent_link_base(i)
        base_ids = set(range(len(edges)))
        rest = {}
        row = {}
        for t1, t2 in TAIL_VARIANTS:
            g = _with_tails(nodes, edges, u, v, t1, t2)
            direct = g.link_between(u, v)
            ident = identifiable_links_bruteforce(g)
            if (direct in ident) != ((t1, t2) == (0, 0)):
                failures.append((i, t1, t2, "direct link verdict"))
            rest[(t1, t2)] = frozenset(
                e for e in ident if e in base_ids and e != direct)
            row["%d+%d" % (t1, t2)] = sorted(ident)
        if len(set(rest.values())) != 1:
            failures.append((i, "tail invariance"))
        records.append(
            {"instance": i, "agents": [u, v], "identifiable": row})
    return json.dumps(records, sort_keys=True), failures


# -- check 5: the attached-triangle crossing condition -----------------


CONDITION_KINDS = ("real", "two", "rigid")
NEGATIVE_KINDS = ("poly3", "poly4")


def _attached_triangle_instance(kind12, kind13):
    """Triangle {1,2,3} crossed between its sides (1,2) and (1,3), with
    each side built to satisfy exactly one arm of the crossing
    condition ("real" parallel link, "two" separate components, "rigid"
    neighbor) or to defeat all three with a lone polygon neighbor."""
    nodes = [1, 2, 3]
    edges = [(2, 3)]
    nxt = [4]

    def build_side(a, b, kind):
        def fresh():
            w = nxt[0]
            nxt[0] += 1
            nodes.append(w)
            return w

        if kind == "real":
            edges.append((a, b))
            x = fresh()
            edges.extend([(a, x), (x, b)])
            return x
        if kind == "two":
            x = fresh()
            edges.extend([(a, x), (x, b)])
            y = fresh()
            edges.extend([(a, y), (y, b)])
            return x
        if kind == "rigid":
            c = fresh()
            d = fresh()
            edges.extend([(a, c), (a, d), (b, c), (b, d), (c, d)])
            return c
        if kind == "poly3":
            x = fresh()
            edges.extend([(a, x), (x, b)])
            return x
        if kind == "poly4":
            x = fresh()
            y = fresh()
            edges.extend([(a, x), (x, y), (y, b)])
            return x
        raise ValueError(kind)

    m1 = build_side(1, 2, kind12)
    m2 = build_side(1, 3, kind13)
    return Graph(sorted(nodes), edges, monitors=(m1, m2))


def _run_attached_triangle_grid():
    records = []
    failures = []
    for k12 in CONDITION_KINDS + NEGATIVE_KINDS:
        for k13 in CONDITION_KINDS + NEGATIVE_KINDS:
            g = _attached_triangle_instance(k12, k13)
            expected = k12 in CONDITION_KINDS and k13 in CONDITION_KINDS
            far = g.link_between(2, 3)
            verdict = far in identifiable_links_bruteforce(g)
            rule = analyze(g).verdicts[far].rule
            if verdict != expected or diff_instance(g).mismatch:
                failures.append((k12, k13, "oracle disagreement"))
            if expected and rule != "transit-triangle-shortcut":
                failures.append((k12, k13, rule))
            records.append({"sides": [k12, k13], "expected": expected,
                            "verdict": verdict, "rule": rule})
    return json.dumps(records, sort_keys=True), failures


# -- check 7: exact recovery plus two-solution witnesses ---------------


def _run_metric_recovery_family():
    records = []
    failures = []
    for i in range(200):
        rng = random.Random(26000 + i)
        g = gnp_connected(rng.randint(3, 7), 0.5, rng)
        m1, m2 = rng.sample(g.nodes, 2)
        truth = {eid: Fraction(rng.randint(1, 12), rng.randint(1, 12))
                 for eid in g.links}
        g = g.with_monitors(m1, m2).with_metrics(truth)
        rec = verify_metric_recovery(g)
        ident = identifiable_links_bruteforce(g)
        ok = (rec.exact
              and rec.identifiable == ident
              and set(rec.recovered) == ident
              and all(rec.recovered[e] == truth[e] for e in ident)
              and set(rec.witnesses) == set(g.links) - ident)
        if ok:
            paths = enumerate_simple_paths(g)
            for eid, (one, two) in rec.witnesses.items():
                if one[eid] == two[eid]:
                    ok = False
                if not all(x > 0 for x in one + two):
                    ok = False
                for p in paths:
                    s = path_sum(g, p, truth)
                    if path_sum(g, p, one) != s or path_sum(g, p, two) != s:
                        ok = False
        if not ok:
            failures.append(i)
        records.append({
            "instance": i,
            "recovered": {str(e): str(x)
                          for e, x in sorted(rec.recovered.items())},
            "witnesses": {str(e): [[str(x) for x in one],
                                   [str(x) for x in two]]
                          for e, (one, two) in sorted(rec.witnesses.items())},
        })
    return json.dumps(records, sort_keys=True), failures


# -- check 6 helpers ----------------------------------------------------


def _rebuilt(g):
    return Graph(g.nodes, [g.links[i] for i in sorted(g.links)])


def _decomposition_violations(g):
    """Reassembly identity, link partition, and rigid connectivity for
    one biconnected graph; returns (violations, rigid component count)."""
    out = []
    tri = triconnected_components(g)
    if _rebuilt(reassemble(tri)).to_json() != _rebuilt(g).to_json():
        out.append("reassembly")
    seen = sorted(eid for c in tri.components for eid in c.links
                  if eid not in c.virtuals)
    if seen != sorted(g.links):
        out.append("link partition")
    rigid = 0
    for c in tri.components:
        if c.kind == "rigid":
            merged = Graph(c.nodes, [tuple(p) for p in c.links.values()])
            if not k_vertex_connected(merged, 3):
                out.append("rigid connectivity")
            rigid += 1
    return out, rigid


# -- the eight checks ---------------------------------------------------


def test_small_graph_sweep_agrees_with_oracle_everywhere(sweep6):
    summary, elapsed = sweep6
    rate = summary.fallback_instances / summary.instances
    ok = (summary.mismatches == 0
          and summary.instances == SWEEP6_INSTANCES
          and summary.records_digest == SWEEP6_DIGEST
          and elapsed < SWEEP6_BUDGET_SECONDS)
    record_acceptance(
        "criterion 1 %s: %d instances over %d graphs, %d mismatches, "
        "fallback rate %.2f%%, %.1fs"
        % ("PASS" if ok else "FAIL", summary.instances,
           summary.extra["graphs"], summary.mismatches, 100 * rate,
           elapsed))
    assert ok, (summary.to_json(), elapsed)


def test_agent_link_needs_monitors_at_both_ends():
    blob, failures = _run_agent_link_family()
    _blobs["agent-link"] = blob
    ok = not failures
    record_acceptance(
        "criterion 2 %s: 200 seeded graphs x %d monitor placements, "
        "agent-to-agent link identifiable only with monitors at both "
        "ends, other verdicts unchanged by tails (%d violations)"
        % ("PASS" if ok else "FAIL", len(TAIL_VARIANTS), len(failures)))
    assert ok, failures[:5]


def test_monitor_incident_links_are_never_identifiable(sweep6):
    summary, _ = sweep6
    bad = summary.extra["exterior_violations"]
    ok = bad == []
    record_acceptance(
        "criterion 3 %s: across %d instances no oracle-identifiable "
        "link touches a monitor except a direct monitor-to-monitor "
        "link (%d violations)"
        % ("PASS" if ok else "FAIL", summary.instances, len(bad)))
    assert ok, bad[:5]


def test_interior_identifiability_predicate_matches_oracle(sweep6):
    summary, _ = sweep6
    bad = summary.extra["predicate_violations"]
    checked = summary.extra["predicate_checked"]
    ok = bad == [] and checked == SWEEP6_PREDICATE_CHECKED
    record_acceptance(
        "criterion 4 %s: interior predicate agreed with the oracle on "
        "%d instances (%d vacuously true, %d violations)"
        % ("PASS" if ok else "FAIL", checked,
           summary.extra["predicate_vacuous"], len(bad)))
    assert ok, (checked, bad[:5])


def test_attached_triangle_condition_grid():
    blob, failures = _run_attached_triangle_grid()
    _blobs["triangle"] = blob
    count = len(json.loads(blob))
    ok = not failures and count >= 20
    record_acceptance(
        "criterion 5 %s: %d attached-triangle instances covering every "
        "side-kind pair, oracle verdict equals the condition's truth "
        "in each (%d disagreements)"
        % ("PASS" if ok else "FAIL", count, len(failures)))
    assert ok, failures


def test_decomposition_reassembles_and_components_are_well_formed():
    violations = []
    graphs = 0
    rigid = 0
    for n in range(3, 7):
        for g in enumerate_all_connected_graphs(n):
            if not k_vertex_connected(g, 2):
                continue
            out, r = _decomposition_violations(g)
            violations += [(n, v) for v in out]
            graphs += 1
            rigid += r
    for i in range(500):
        rng = random.Random(31000 + i)
        g = random_biconnected(rng.randint(3, 12), rng)
        out, r = _decomposition_violations(g)
        violations += [(i, v) for v in out]
        graphs += 1
        rigid += r
    ok = not violations
    record_acceptance(
        "criterion 6 %s: %d biconnected graphs reassembled exactly, "
        "%d rigid components 3-vertex-connected, link partitions "
        "complete (%d violations)"
        % ("PASS" if ok else "FAIL", graphs, rigid, len(violations)))
    assert ok, violations[:5]


def test_metrics_recovered_exactly_with_witnesses_for_the_rest():
    blob, failures = _run_metric_recovery_family()
    _blobs["recovery"] = blob
    ok = not failures
    record_acceptance(
        "criterion 7 %s: 200 seeded instances, identifiable metrics "
        "recovered with exact rational equality, every other link has "
        "a positive two-solution witness (%d violations)"
        % ("PASS" if ok else "FAIL", len(failures)))
    assert ok, failures[:5]


def test_repeated_runs_are_byte_identical():
    runners = {
        "agent-link": _run_agent_link_family,
        "triangle": _run_attached_triangle_grid,
        "recovery": _run_metric_recovery_family,
    }
    drift = []
    for name, runner in runners.items():
        first = _blobs.get(name)
        if first is None:
            first = runner()[0]
        if runner()[0] != first:
            drift.append(name)
    a = exhaustive_sweep(5)
    b = exhaustive_sweep(5)
    if not (a.records_digest == b.records_digest == SWEEP5_DIGEST):
        drift.append("sweep records")
    if a.to_json() != b.to_json():
        drift.append("sweep summary")
    ok = not drift
    record_acceptance(
        "criterion 8 %s: reruns of checks 2, 5 and 7 plus a repeated "
        "2..5-node sweep were byte-identical (%s)"
        % ("PASS" if ok else "FAIL", ", ".join(drift) or "no drift"))
    assert ok, drift
