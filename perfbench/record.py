"""Record the expected output of every catalogue instance.

    python3 perfbench/record.py

Writes perfbench/expected.json from the library under ./src. The file
is the reference the benchmark checks every output against, so it is
regenerated only when a change is meant to alter verdicts, and the
digests pinned by the acceptance tests must agree with it.
"""

from __future__ import annotations

import json
import sys
from itertools import permutations

from run import use_source_tree

# the long chain recurses about 1,200 frames deep; its output is
# recorded so that a later iterative traversal is checked against it
RECORD_RECURSION_LIMIT = 10_000


def record():
    from linkident import Structure, analyze, exhaustive_sweep, oracle_analysis
    import workloads as w

    out = {"sweep-exhaustive": {}, "analyze-sparse": {},
           "placement-allpairs": {}, "oracle-recovery": {}}

    for max_nodes in (4, 5):
        s = exhaustive_sweep(max_nodes)
        extra = s.extra
        if (s.mismatches or extra["exterior_violations"]
                or extra["predicate_violations"]):
            raise SystemExit(f"exhaustive_sweep({max_nodes}) is not clean")
        out["sweep-exhaustive"][str(max_nodes)] = {
            "digest": s.records_digest, "instances": s.instances,
            "graphs": extra["graphs"]}

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(RECORD_RECURSION_LIMIT)
    try:
        for _, _, entries in w.analyze_sparse_catalogue():
            for key, g in entries:
                out["analyze-sparse"][key] = w.verdict_digest(analyze(g),
                                                              g.links)
    finally:
        sys.setrecursionlimit(limit)

    for topo in w.PLACEMENT_TOPOLOGIES:
        rel = w.Relabeled(w.topology(topo))
        st = Structure(rel.graph)
        out["placement-allpairs"][w.topology_key(topo)] = {
            w.pair_key(a, b): w.verdict_digest(
                analyze(rel.graph.with_monitors(a, b), structure=st),
                rel.endpoints)
            for a, b in permutations(rel.graph.nodes, 2)}

    for topo in w.RECOVERY_TOPOLOGIES:
        g = w.topology(topo)
        rel = w.Relabeled(g)
        out["oracle-recovery"][w.topology_key(topo)] = {
            w.pair_key(a, b): w.recovery_expected(
                oracle_analysis(g.with_monitors(a, b)), rel)
            for a, b in w.recovery_pairs(topo, g)}
    return out


def main():
    if not use_source_tree():
        raise SystemExit("no linkident sources under ./src")
    import workloads
    data = record()
    with open(workloads.EXPECTED_PATH, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
