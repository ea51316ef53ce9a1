"""Cross-validation sweep machinery."""

import hashlib
import json

import pytest

from linkident import (
    Graph,
    SweepConfig,
    diff_instance,
    exhaustive_sweep,
    fingerprint,
    identifiable_links_bruteforce,
    run_sweep,
)

from helpers import prism, triangle

FROZEN_DIGEST_3 = ("52f21b8ec1da46d54381bd789739f9c1"
                   "289f012cf4b76e1ef9b785d4dbedb788")


def test_fingerprint_ignores_link_order_and_orientation():
    g1 = Graph(range(3), [(0, 1), (1, 2), (0, 2)])
    g2 = Graph(range(3), [(2, 1), (0, 2), (1, 0)])
    assert fingerprint(g1) == fingerprint(g2) == \
        ((0, 1), (0, 2), (1, 2))


def test_diff_instance_on_the_triangle():
    d = diff_instance(triangle(monitors=(0, 1)))
    assert not d.mismatch
    assert d.monitors == (0, 1)
    assert d.to_json() == {
        "graph": [[0, 1], [0, 2], [1, 2]],
        "monitors": [0, 1],
        "links": [
            {"link": 0, "structural": True, "oracle": True,
             "rule": "direct-agent-link"},
            {"link": 1, "structural": False, "oracle": False,
             "rule": "agent-pair-exterior"},
            {"link": 2, "structural": False, "oracle": False,
             "rule": "agent-pair-exterior"},
        ],
        "mismatch": False,
    }


def test_diff_flags_disagreement_on_structural_rules():
    d = diff_instance(triangle(monitors=(0, 1)), oracle_set={0, 1})
    assert d.mismatch


def test_diff_never_flags_oracle_backed_rules():
    """Links ruled by the oracle itself cannot count as mismatches;
    links ruled structurally can."""
    g = prism(monitors=(0, 5))
    real = identifiable_links_bruteforce(g)
    flipped_fallback = set(real) ^ {g.link_between(1, 2)}
    assert not diff_instance(g, oracle_set=flipped_fallback).mismatch
    flipped_direct = set(real) ^ {g.link_between(0, 5)}
    assert diff_instance(g, oracle_set=flipped_direct).mismatch


def test_run_sweep_is_deterministic_and_streams_jsonl(tmp_path):
    config = SweepConfig(generator="erdos-renyi", nodes=(4, 6),
                         instances=20, seed=11)
    s1 = run_sweep(config)
    path = tmp_path / "records.jsonl"
    s2 = run_sweep(config, jsonl_path=str(path))
    assert s1.to_json() == s2.to_json()
    assert s1.clean and s1.instances == 20

    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == s2.records_digest
    lines = data.splitlines()
    assert len(lines) == 20
    for line in lines:
        row = json.loads(line)
        assert line.decode() == json.dumps(row, sort_keys=True,
                                           separators=(",", ":"))
        assert set(row) == {"graph", "monitors", "links", "mismatch"}
        assert not row["mismatch"]


def test_run_sweep_all_pairs_policy_multiplies_instances():
    config = SweepConfig(generator="erdos-renyi", nodes=(4, 4),
                         instances=2, seed=3,
                         monitor_policy="all-pairs")
    summary = run_sweep(config)
    assert summary.instances == 24          # 2 graphs x 4*3 ordered pairs
    assert summary.clean


def test_exhaustive_sweep_smallest_budget():
    summary = exhaustive_sweep(2)
    assert summary.instances == 2
    assert summary.extra["graphs"] == 1
    assert summary.clean


def test_exhaustive_sweep_three_nodes_is_frozen():
    summary = exhaustive_sweep(3)
    assert summary.instances == 26
    assert summary.extra["graphs"] == 5
    assert summary.records_digest == FROZEN_DIGEST_3
    assert summary.extra["instances_per_node_count"] == {2: 2, 3: 24}
    assert summary.extra["exterior_violations"] == []
    assert summary.extra["predicate_violations"] == []
    assert summary.extra["predicate_checked"] == 0
    assert summary.extra["predicate_vacuous"] == 13
    assert summary.clean


def test_exhaustive_sweep_writes_matching_jsonl(tmp_path):
    path = tmp_path / "exhaustive.jsonl"
    summary = exhaustive_sweep(3, jsonl_path=str(path))
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == summary.records_digest
    assert len(data.splitlines()) == 26


def test_exhaustive_sweep_rejects_silly_budgets():
    with pytest.raises(ValueError):
        exhaustive_sweep(1)
    with pytest.raises(ValueError):
        exhaustive_sweep(8)


def test_summary_serialization_shape():
    summary = exhaustive_sweep(2)
    out = summary.to_json()
    assert out["instances"] == 2
    assert out["mismatches"] == 0
    assert "records_digest" in out and "rule_counts" in out
    assert "mismatch_samples" not in out
