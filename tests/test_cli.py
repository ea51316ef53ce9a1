"""Command line interface, driven in process through main(argv)."""

import json
import sys

import pytest

from linkident.cli import main

TRIANGLE = {"nodes": [0, 1, 2], "edges": [[0, 1], [0, 2], [1, 2]],
            "monitors": [0, 1]}
K4 = {"nodes": [0, 1, 2, 3],
      "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
      "monitors": [0, 1]}


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(TRIANGLE))
    return str(path)


def test_analyze_reports_summary(triangle_file, capsys):
    assert main(["analyze", "--input", triangle_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["summary"] == {"identifiable": 1, "total": 3}
    assert data["links"][0] == {"edge": [0, 1],
                                "verdict": "identifiable",
                                "rule": "direct-agent-link"}
    assert {row["verdict"] for row in data["links"][1:]} == \
        {"unidentifiable"}


def test_analyze_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": [0,')
    assert main(["analyze", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error: ParseError:" in err
    assert "line 1" in err and "column" in err


def test_analyze_needs_monitors(tmp_path, capsys):
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"nodes": [0, 1, 2],
                                "edges": [[0, 1], [0, 2], [1, 2]]}))
    assert main(["analyze", "--input", str(bare)]) == 2
    assert "MonitorsUnset" in capsys.readouterr().err

    assert main(["analyze", "--input", str(bare),
                 "--monitors", "0,2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["summary"] == {"identifiable": 1, "total": 3}
    assert data["links"][1]["verdict"] == "identifiable"


def test_analyze_missing_file(capsys, tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["analyze", "--input", missing]) == 2
    assert "ParseError" in capsys.readouterr().err


def test_input_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    """A byte that is not UTF-8 is reported as one ParseError line that
    names the file; a UTF-8 byte order mark is refused as before."""
    text = json.dumps(TRIANGLE).encode()
    path = tmp_path / "latin1.json"
    latin1 = text[:-1] + b', "note": "caf\xe9"}'
    for data in (latin1, b"\xef\xbb\xbf" + text):
        path.write_bytes(data)
        for command in ("analyze", "oracle", "dot"):
            assert main([command, "--input", str(path)]) == 2, command
            err = capsys.readouterr().err
            assert err.startswith(f"error: ParseError: {path}"), command
            assert err.count("\n") == 1, command


def test_unwritable_output_is_an_error_line(triangle_file, tmp_path,
                                            capsys):
    target = str(tmp_path / "missing" / "out")
    for argv in (["analyze", "--input", triangle_file, "--dot", target],
                 ["dot", "--input", triangle_file, "--dot", target],
                 ["gen", "--instances", "1", "--jsonl", target],
                 ["diff", "--nodes", "3", "--instances", "1",
                  "--jsonl", target],
                 ["exhaustive", "--nodes", "3", "--jsonl", target]):
        assert main(argv) == 2, argv[0]
        out, err = capsys.readouterr()
        assert out == "", argv[0]
        assert err.startswith("error: FileNotFoundError: "), argv[0]
        assert target in err and err.count("\n") == 1, argv[0]


def test_analyze_writes_verdict_dot(triangle_file, tmp_path, capsys):
    dot = tmp_path / "report.dot"
    assert main(["analyze", "--input", triangle_file,
                 "--dot", str(dot)]) == 0
    capsys.readouterr()
    text = dot.read_text()
    assert text.count("forestgreen") == 1
    assert text.count("crimson") == 2
    assert "direct-agent-link" in text


def test_oracle_counts_paths_and_rank(tmp_path, capsys):
    path = tmp_path / "k4.json"
    path.write_text(json.dumps(K4))
    assert main(["oracle", "--input", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["paths"] == 5
    assert data["rank"] == 5
    assert data["identifiable"] == [0, 5]
    assert data["links"][0]["verdict"] == "identifiable"
    assert data["links"][2]["verdict"] == "unidentifiable"
    assert "values" not in data


def test_oracle_on_a_two_hop_path(tmp_path, capsys):
    path = tmp_path / "p2.json"
    path.write_text(json.dumps({"nodes": [0, 1, 2],
                                "edges": [[0, 1], [1, 2]],
                                "monitors": [0, 2]}))
    assert main(["oracle", "--input", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["paths"] == 1 and data["rank"] == 1
    assert data["identifiable"] == []


def test_oracle_emits_recovered_values(tmp_path, capsys):
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(
        dict(TRIANGLE, metrics={"0": "2", "1": "3", "2": "5/1"})))
    assert main(["oracle", "--input", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["values"] == {"0": "2"}


def test_diff_is_deterministic_and_clean(capsys):
    argv = ["diff", "--seed", "5", "--nodes", "4,5",
            "--instances", "10"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    data = json.loads(first)
    assert data["instances"] == 10
    assert data["mismatches"] == 0


def test_gen_streams_deterministic_jsonl(tmp_path, capsys):
    argv = ["gen", "--seed", "9", "--nodes", "4,4", "--instances", "3"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == stdout
    lines = stdout.splitlines()
    assert len(lines) == 3
    for line in lines:
        row = json.loads(line)
        assert sorted(row) == ["edges", "monitors", "nodes"]

    out = tmp_path / "gen.jsonl"
    assert main(argv + ["--jsonl", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == stdout


def test_non_finite_or_boolean_metrics_are_input_errors(tmp_path, capsys):
    head = ('{"nodes": [0, 1, 2], "edges": [[0, 1], [0, 2], [1, 2]],'
            ' "monitors": [0, 1], "metrics": {"0": ')
    for raw in ("1e400", "Infinity", "-Infinity", "NaN", "true"):
        path = tmp_path / "metrics.json"
        path.write_text(head + raw + ', "1": 1, "2": 1}}')
        assert main(["oracle", "--input", str(path)]) == 2, raw
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError: bad metric '0'"), raw
        assert err.count("\n") == 1, raw


def test_integer_literals_beyond_the_digit_limit_are_input_errors(
        tmp_path, capsys):
    """json refuses an integer literal longer than
    sys.get_int_max_str_digits() with a plain ValueError, in nodes or
    in metrics alike; the commands report it as one ParseError line."""
    huge = "1" * (sys.get_int_max_str_digits() + 1)
    docs = ('{"nodes": [0, 1, ' + huge + '], "edges": [[0, 1]],'
            ' "monitors": [0, 1]}',
            '{"nodes": [0, 1], "edges": [[0, 1]], "monitors": [0, 1],'
            ' "metrics": {"0": ' + huge + '}}')
    path = tmp_path / "huge.json"
    for doc in docs:
        path.write_text(doc)
        for command in ("oracle", "analyze"):
            assert main([command, "--input", str(path)]) == 2, command
            err = capsys.readouterr().err
            assert err.startswith("error: ParseError: "), command
            assert err.count("\n") == 1, command


def test_exhaustive_three_nodes_is_clean(capsys):
    assert main(["exhaustive", "--nodes", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["instances"] == 26
    assert data["mismatches"] == 0


def test_exhaustive_rejects_a_range(capsys):
    assert main(["exhaustive", "--nodes", "3,4"]) == 2
    assert "single node count" in capsys.readouterr().err


def test_exhaustive_rejects_node_counts_outside_two_to_seven(capsys):
    for count in ("1", "9"):
        assert main(["exhaustive", "--nodes", count]) == 2
        assert "error: ParseError:" in capsys.readouterr().err


def test_reversed_node_range_is_an_input_error(capsys):
    for command in ("diff", "gen"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--nodes", "8,6"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --nodes: empty range: 8 > 6" in err
        assert "Traceback" not in err


def test_path_cap_must_be_positive(triangle_file, capsys):
    for command, cap in (("oracle", "-3"), ("analyze", "0"),
                         ("diff", "0"), ("exhaustive", "-1")):
        argv = [command, "--path-cap", cap]
        if command in ("oracle", "analyze"):
            argv += ["--input", triangle_file]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument --path-cap: must be positive, not {int(cap)}" \
            in capsys.readouterr().err


def test_sweep_flags_are_range_checked(capsys):
    for argv, message in (
            (["gen", "--instances", "-2"],
             "argument --instances: must be positive, not -2"),
            (["diff", "--edge-prob", "7"],
             "argument --edge-prob: must be in [0, 1], not 7"),
            (["diff", "--edge-prob", "nan"],
             "argument --edge-prob: must be in [0, 1], not nan")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


def test_recursion_error_maps_to_exit_two(tmp_path, capsys):
    n = 3000
    path = tmp_path / "long.json"
    path.write_text(json.dumps({
        "nodes": list(range(n)),
        "edges": [[i, i + 1] for i in range(n - 1)],
        "monitors": [0, n - 1]}))
    assert main(["oracle", "--input", str(path)]) == 2
    assert "error: RecursionError:" in capsys.readouterr().err


def test_dot_subcommand_writes_all_views(triangle_file, tmp_path,
                                         capsys):
    assert main(["dot", "--input", triangle_file]) == 0
    out = capsys.readouterr().out
    assert 'graph "input"' in out
    assert 'graph "blocks"' in out
    assert 'graph "block-0"' in out
    assert "subgraph cluster_0" in out

    target = tmp_path / "views.dot"
    assert main(["dot", "--input", triangle_file,
                 "--dot", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == out


def test_monitor_flag_must_be_a_pair(triangle_file, capsys):
    with pytest.raises(SystemExit):
        main(["analyze", "--input", triangle_file, "--monitors", "1"])
    capsys.readouterr()
