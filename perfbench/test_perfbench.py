"""Tests of the benchmark's own arithmetic and a reduced run of each
workload. Run with: python3 -m pytest perfbench
"""

import json
import math
import re
from pathlib import Path
from time import perf_counter

import pytest

import run

run.use_source_tree()

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from linkident import LinkIdentError  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


# -- percentiles and failures -------------------------------------------


def test_percentile_is_nearest_rank():
    xs = list(range(1, 101))
    assert measure.percentile(xs, 50) == 50
    assert measure.percentile(xs, 90) == 90
    assert measure.percentile(xs, 100) == 100
    assert measure.percentile([3.0], 90) == 3.0
    assert measure.percentile([4, 1, 3, 2], 50) == 2
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_failures_rank_above_every_latency_and_read_as_deadline():
    tally = measure.Tally(attempted=20, failed=2, busy_s=2.0)
    tally.latencies = [0.001 * i for i in range(1, 19)] + [math.inf] * 2
    m = measure.end_to_end(tally, setup_s=0.5, peak_rss_mb=10.0,
                           deadline_s=7.0)
    assert m["latency_p50_ms"][0] == pytest.approx(10.0)
    assert m["latency_p90_ms"][0] == pytest.approx(18.0)
    tally.latencies[-3] = math.inf       # 3 of 20 infinite: p90 lands on one
    m = measure.end_to_end(tally, 0.5, 10.0, 7.0)
    assert m["latency_p90_ms"][0] == 7000.0
    assert m["ok_ratio"][0] == pytest.approx(18 / 20)
    assert m["instances_per_s"][0] == pytest.approx(9.0)


def _raise(exc):
    def call():
        raise exc
    return call


def _spin(seconds):
    t0 = perf_counter()
    while perf_counter() - t0 < seconds:
        pass
    return "finished"


def test_each_failure_is_counted_and_typed():
    tally = measure.Tally()
    queries = [
        measure.Query("ok", lambda: 1, lambda out: out == 1),
        measure.Query("wrong", lambda: 2, lambda out: out == 1),
        measure.Query("lib", _raise(LinkIdentError("x")), None),
        measure.Query("deep", _raise(RecursionError()), None,
                      known_failure="RecursionError"),
        measure.Query("slow", lambda: _spin(5.0), lambda out: True),
        measure.Query("many", lambda: 1, lambda out: True, instances=3,
                      samples=lambda s: [s / 2, s / 2], sample_count=2),
    ]
    with measure.Deadline(0.05) as deadline:
        for q in queries:
            measure.run_query(q, deadline, tally)
    assert tally.queries == 6
    assert tally.attempted == 8
    assert tally.failed == 4
    assert tally.errors == {"WrongOutput": 1, "LinkIdentError": 1,
                            "RecursionError": 1, "DeadlineExceeded": 1}
    assert tally.unexpected == ["wrong: WrongOutput",
                                "lib: LinkIdentError",
                                "slow: DeadlineExceeded"]
    assert not tally.correct
    assert len(tally.latencies) == 7
    assert sum(math.isinf(x) for x in tally.latencies) == 4


def test_known_failure_alone_keeps_the_run_correct():
    tally = measure.Tally()
    q = measure.Query("deep", _raise(RecursionError()), None,
                      known_failure="RecursionError")
    with measure.Deadline(1.0) as deadline:
        measure.run_query(q, deadline, tally)
    assert tally.correct and tally.failed == 1


def test_repeat_makes_whole_passes_until_enough():
    count = []

    def one_pass():
        count.append(1)
        return True

    assert measure.repeat(one_pass, 0.0, math.inf) == 1
    n = measure.repeat(one_pass, 0.0, math.inf,
                       enough=lambda: len(count) >= 5)
    assert n == 4 and len(count) == 5


# -- self time ------------------------------------------------------------


def _synthetic(tracer, spans_list):
    """Load (name, parent, start, end) rows straight into the arrays."""
    ids = {name: i for i, name in enumerate(tracer.names)}
    for name, parent, start, end in spans_list:
        tracer.name.append(ids[name])
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)


def test_self_time_subtracts_direct_children_only():
    t = spans.Tracer()
    _synthetic(t, [
        ("structural.analyze", -1, 0.0, 10.0),      # 0
        ("decomposition.tri_split", 0, 1.0, 4.0),   # 1
        ("structural.rigid_check", 0, 5.0, 9.0),    # 2
        ("structural.oracle", 2, 5.5, 8.5),         # 3
        ("linalg.add", 3, 6.0, 7.0),                # 4
        ("structural.rigid_check", 0, 9.0, 9.5),    # 5: a cache hit
    ])
    per, with_oracle = t.summary()
    assert per["structural.analyze"] == [1, 10.0, 2.5]
    assert per["decomposition.tri_split"] == [1, 3.0, 3.0]
    assert per["structural.rigid_check"] == [2, 4.5, 1.5]
    assert per["structural.oracle"] == [1, 3.0, 2.0]
    assert per["linalg.add"] == [1, 1.0, 1.0]
    assert with_oracle == {2}
    assert t.hit_ratio("structural.rigid_check", with_oracle) == 0.5
    m = spans.layer_metrics(t, passes=2, overhead_ratio=1.1)
    assert m["structural.self_s"][0] == pytest.approx((2.5 + 1.5) / 2)
    assert m["structural.oracle_s"][0] == pytest.approx(1.5)
    assert m["oracle.walk_s"][0] == pytest.approx(1.0)
    assert m["decomposition.tri_split_calls"][0] == 0.5


def test_live_spans_nest_and_close_on_errors():
    t = spans.Tracer()
    inner = t.wrap(_raise(RecursionError()), "decomposition.bct")
    outer = t.wrap(lambda: inner(), "structural.analyze")
    with pytest.raises(RecursionError):
        outer()
    assert list(t.parent) == [-1, 0]
    assert all(e >= s for s, e in zip(t.start, t.end))
    assert t._stack == []


# -- the workloads, reduced -------------------------------------------------


def _names(section):
    return [m["name"] for m in BENCHMARK[section]]


def test_sweep_reference_is_the_acceptance_digest():
    text = (run.ROOT / "tests" / "test_acceptance.py").read_text()
    pinned = re.search(r'SWEEP5_DIGEST = \\\s*"([0-9a-f]+)"', text).group(1)
    expected = workloads.load_expected()
    assert expected["sweep-exhaustive"]["5"]["digest"] == pinned


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_reduced_workload_runs_clean_traced_and_untraced(name):
    assert name in run.WORKLOADS
    expected = workloads.load_expected()
    for seed in (1, 2):
        work = workloads.build(name, seed, expected, small=True)
        work.warm_up()
        tracer = spans.Tracer()
        plain, traced = measure.Tally(), measure.Tally()
        with measure.Deadline(work.deadline_s) as deadline, work.context():
            assert measure.run_pass(work.queries, deadline, plain,
                                    math.inf)
            with spans.instrument(tracer, workloads):
                measure.run_pass(work.queries, deadline, traced, math.inf)
        for tally in (plain, traced):
            assert tally.correct, tally.unexpected
            if name == "analyze-sparse":
                assert tally.errors == {"RecursionError": 1}
            else:
                assert tally.failed == 0
        e2e = measure.end_to_end(plain, 0.1, 1.0, work.deadline_s)
        assert list(e2e) == _names("end_to_end")
        per = spans.layer_metrics(tracer, 1, 1.0)
        assert list(per) == _names("per_layer")
    assert workloads.Structure is spans.structural.Structure


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", Path(tmp_path) / "src")
    code = run.main(["--workload", "analyze-sparse", "--seed", "1",
                     "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
