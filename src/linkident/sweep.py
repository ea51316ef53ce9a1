"""Cross-validation sweeps: structural engine vs exact oracle.

A sweep either generates seeded random instances from a SweepConfig or
exhaustively enumerates all connected graphs up to a node budget, runs
both engines on every (graph, monitor pair) instance, and records
disagreements. Records stream as JSON lines so arbitrarily long sweeps
hold nothing per-instance in memory; summaries are deterministic
functions of the config, so equal seeds give byte-identical output.

Verdicts produced by the oracle itself (fallback blocks and deferred
pair links) cannot disagree with the oracle and are the only verdicts
excluded from the mismatch flag: any other disagreement is a bug in
the structural rules and makes the sweep fail loudly.

The exhaustive sweep doubles as the measurement for two side
properties checked instance by instance along the way:

  * no identifiable link touches a monitor, except a link joining the
    two monitors directly;
  * the interior-identifiability predicate holds exactly when every
    link away from both monitors is identifiable (checked on instances
    that have at least one such link; the rest are counted as vacuous).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import permutations
from json.encoder import encode_basestring_ascii

from .connectivity import interior_identifiability_predicate
from .generators import enumerate_all_connected_graphs, generate_graph
from .oracle import DEFAULT_PATH_CAP, identifiable_links_bruteforce
from .structural import RULE_DEFERRED, RULE_FALLBACK, Structure, analyze

ORACLE_BACKED_RULES = frozenset({RULE_FALLBACK, RULE_DEFERRED})
_BOOL = {True: "true", False: "false"}


@dataclass(frozen=True)
class DiffRecord:
    """Both engines' verdicts on one (graph, monitor pair) instance.

    links holds one row per link id, in id order:
    (link id, structural verdict, oracle verdict, rule tag).
    mismatch is True iff the verdicts differ on some link whose rule
    is structural (not itself oracle-backed).
    """

    fingerprint: tuple
    monitors: tuple
    links: tuple
    mismatch: bool

    def to_json(self):
        return {
            "graph": [list(pair) for pair in self.fingerprint],
            "monitors": list(self.monitors),
            "links": [
                {"link": eid, "structural": s, "oracle": o, "rule": rule}
                for eid, s, o, rule in self.links
            ],
            "mismatch": self.mismatch,
        }

    def to_line(self):
        """to_json() as one line of JSON with sorted keys and no spaces,
        written straight from the tuples: the bytes of json.dumps(
        self.to_json(), sort_keys=True, separators=(",", ":"))."""
        graph = ",".join(f"[{u},{v}]" for u, v in self.fingerprint)
        links = ",".join(
            f'{{"link":{eid},"oracle":{_BOOL[o]},'
            f'"rule":{encode_basestring_ascii(rule)},'
            f'"structural":{_BOOL[s]}}}'
            for eid, s, o, rule in self.links)
        m1, m2 = self.monitors
        return (f'{{"graph":[{graph}],"links":[{links}],'
                f'"mismatch":{_BOOL[self.mismatch]},"monitors":[{m1},{m2}]}}')


def fingerprint(g):
    """Canonical edge list naming a graph independent of link ids."""
    return tuple(sorted(g.links.values()))


def diff_instance(g, path_cap=DEFAULT_PATH_CAP, oracle_set=None,
                  report=None):
    """Run both engines on one monitored graph.

    oracle_set may carry a precomputed oracle verdict set (the oracle
    does not depend on monitor order, so sweeps share it between the
    two orders of a pair); report may carry the structural analysis if
    the caller already ran it.
    """
    if report is None:
        report = analyze(g, path_cap=path_cap)
    if oracle_set is None:
        oracle_set = identifiable_links_bruteforce(g, path_cap=path_cap)
    rows = []
    mismatch = False
    for eid in sorted(g.links):
        v = report.verdicts[eid]
        o = eid in oracle_set
        if v.identifiable != o and v.rule not in ORACLE_BACKED_RULES:
            mismatch = True
        rows.append((eid, v.identifiable, o, v.rule))
    return DiffRecord(fingerprint=fingerprint(g), monitors=g.monitors,
                      links=tuple(rows), mismatch=mismatch)


class _Tally:
    """Shared accumulation for both sweep drivers."""

    def __init__(self, jsonl_path):
        self.instances = 0
        self.mismatches = 0
        self.mismatch_samples = []
        self.rule_counts = {}
        self.category_counts = {}
        self.fallback_instances = 0
        self._hash = hashlib.sha256()
        self._out = open(jsonl_path, "w") if jsonl_path else None

    def add(self, record, report):
        self.instances += 1
        line = record.to_line()
        self._hash.update(line.encode())
        self._hash.update(b"\n")
        if self._out:
            self._out.write(line + "\n")
        if record.mismatch:
            self.mismatches += 1
            if len(self.mismatch_samples) < 20:
                self.mismatch_samples.append(record.to_json())
        for _, _, _, rule in record.links:
            self.rule_counts[rule] = self.rule_counts.get(rule, 0) + 1
        for cats in report.categories.values():
            for _, cat in cats:
                key = cat.value
                self.category_counts[key] = (
                    self.category_counts.get(key, 0) + 1)
        if report.fallback_blocks:
            self.fallback_instances += 1

    def close(self):
        if self._out:
            self._out.close()
            self._out = None

    def summary(self, **extra):
        return SweepSummary(
            instances=self.instances,
            mismatches=self.mismatches,
            fallback_instances=self.fallback_instances,
            rule_counts=self.rule_counts,
            category_counts=self.category_counts,
            records_digest=self._hash.hexdigest(),
            mismatch_samples=self.mismatch_samples,
            extra=extra,
        )


@dataclass
class SweepSummary:
    """Deterministic outcome of a sweep run."""

    instances: int
    mismatches: int
    fallback_instances: int
    rule_counts: dict
    category_counts: dict
    records_digest: str
    mismatch_samples: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def clean(self):
        return self.mismatches == 0

    def to_json(self):
        out = {
            "instances": self.instances,
            "mismatches": self.mismatches,
            "fallback_instances": self.fallback_instances,
            "rule_counts": dict(sorted(self.rule_counts.items())),
            "category_counts": dict(sorted(self.category_counts.items())),
            "records_digest": self.records_digest,
        }
        if self.mismatch_samples:
            out["mismatch_samples"] = self.mismatch_samples
        out.update(self.extra)
        return out


def _diff_pairs(g, pairs, path_cap, tally):
    """Diff both engines on g under each monitor pair in turn, adding
    each record to tally, and yield (instance, oracle set, first
    order) after each.

    One Structure serves every pair, and the oracle runs once per
    unordered pair: first order is True when it ran for this one.
    """
    structure = Structure(g)
    oracle_cache = {}
    for m1, m2 in pairs:
        inst = g.with_monitors(m1, m2)
        key = (m1, m2) if m1 < m2 else (m2, m1)
        first_order = key not in oracle_cache
        if first_order:
            oracle_cache[key] = identifiable_links_bruteforce(
                inst, path_cap=path_cap)
        oracle_set = oracle_cache[key]
        report = analyze(inst, path_cap=path_cap, structure=structure)
        tally.add(diff_instance(inst, oracle_set=oracle_set, report=report),
                  report)
        yield inst, oracle_set, first_order


def run_sweep(config, jsonl_path=None):
    """Generate config.instances graphs and diff both engines on each.

    With monitor_policy "sampled" each instance is one monitor pair;
    with "all-pairs" every ordered pair of each graph is an instance.
    """
    tally = _Tally(jsonl_path)
    try:
        for index in range(config.instances):
            g = generate_graph(config, index)
            pairs = ([g.monitors] if config.monitor_policy == "sampled"
                     else permutations(g.nodes, 2))
            for _ in _diff_pairs(g, pairs, config.path_cap, tally):
                pass
    finally:
        tally.close()
    return tally.summary()


def exhaustive_sweep(max_nodes=6, path_cap=DEFAULT_PATH_CAP,
                     jsonl_path=None):
    """Diff both engines on every connected graph up to max_nodes
    nodes (labeled up to 6, canonical representatives at 7) under
    every ordered monitor pair, and check the two side properties.

    The oracle runs once per unordered pair (its verdict provably
    ignores monitor order); the structural engine runs per ordered
    pair, since its order independence is part of what is under test.
    """
    if not 2 <= max_nodes <= 7:
        raise ValueError("max_nodes must be between 2 and 7")
    tally = _Tally(jsonl_path)
    graphs = 0
    exterior_violations = []
    predicate_violations = []
    predicate_checked = 0
    predicate_vacuous = 0
    per_nodes = {}
    try:
        for n in range(2, max_nodes + 1):
            for g0 in enumerate_all_connected_graphs(n):
                graphs += 1
                for inst, oracle_set, first_order in _diff_pairs(
                        g0, permutations(g0.nodes, 2), path_cap, tally):
                    per_nodes[n] = per_nodes.get(n, 0) + 1
                    m1, m2 = inst.monitors

                    direct = g0.link_between(m1, m2)
                    for eid in oracle_set:
                        u, v = g0.links[eid]
                        if (m1 in (u, v) or m2 in (u, v)) and eid != direct:
                            exterior_violations.append(
                                {"graph": [list(p) for p in
                                           fingerprint(g0)],
                                 "monitors": [m1, m2], "link": eid})

                    if first_order:
                        interior = inst.interior_links()
                        if not interior:
                            predicate_vacuous += 1
                        else:
                            predicate_checked += 1
                            predicted = interior_identifiability_predicate(
                                inst)
                            actual = all(eid in oracle_set
                                         for eid in interior)
                            if predicted != actual:
                                predicate_violations.append(
                                    {"graph": [list(p) for p in
                                               fingerprint(g0)],
                                     "monitors": [m1, m2],
                                     "predicted": predicted,
                                     "actual": actual})
    finally:
        tally.close()
    return tally.summary(
        graphs=graphs,
        instances_per_node_count=dict(sorted(per_nodes.items())),
        exterior_violations=exterior_violations,
        predicate_violations=predicate_violations,
        predicate_checked=predicate_checked,
        predicate_vacuous=predicate_vacuous,
    )
