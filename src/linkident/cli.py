"""Command line front end.

Subcommands:
  analyze     structural identifiability report for one graph
  oracle      exact linear-algebra verdicts, path count, and rank
  diff        randomized structural-vs-oracle sweep
  gen         emit generated graphs as JSON
  exhaustive  all connected graphs up to a node budget, both engines
  dot         structural views of one graph (blocks, components)

Exit status: 0 on success, 1 when diff/exhaustive found a mismatch on
a rule the oracle does not back, 2 on any input or analysis error,
including an input file that is not UTF-8, a graph deep enough to
exhaust the recursion limit, and an output file (--dot, --jsonl) that
cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys

from .decomposition import biconnected_components, decompose_links
from .dotexport import (
    block_cut_tree_dot,
    decomposition_dot,
    graph_dot,
    report_dot,
)
from .errors import LinkIdentError, ParseError
from .generators import SweepConfig, generate_graph
from .graph import Graph
from .oracle import DEFAULT_PATH_CAP, oracle_analysis
from .structural import analyze
from .sweep import exhaustive_sweep, run_sweep


def _monitor_pair(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two ids: u,v")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a pair of ints: {text!r}")


def _node_range(text):
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise argparse.ArgumentTypeError("expected N or LO,HI")
    try:
        lo = int(parts[0])
        hi = int(parts[-1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an int range: {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range: {lo} > {hi}")
    return lo, hi


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an int: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, not {value}")
    return value


def _probability(text):
    try:
        p = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0 <= p <= 1:     # also false for nan
        raise argparse.ArgumentTypeError(f"must be in [0, 1], not {text}")
    return p


def _load_graph(path, monitors):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}:"
                         f" {exc.msg}")
    except ValueError as exc:
        # an integer literal longer than sys.get_int_max_str_digits()
        raise ParseError(f"{path}: {exc}")
    g = Graph.from_json(data)
    if monitors is not None:
        g = g.with_monitors(*monitors)
    return g


def _write(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def _emit_json(data):
    json.dump(data, sys.stdout, indent=1)
    sys.stdout.write("\n")


def _cmd_analyze(args):
    g = _load_graph(args.input, args.monitors)
    report = analyze(g, path_cap=args.path_cap)
    # the DOT file first, so that a path that cannot be written leaves
    # stdout empty
    if args.dot is not None:
        _write(args.dot, report_dot(report))
    _emit_json(report.to_json())
    return 0


def _cmd_oracle(args):
    g = _load_graph(args.input, args.monitors)
    result = oracle_analysis(g, path_cap=args.path_cap)
    out = {
        "identifiable": sorted(result.identifiable),
        "paths": result.path_count,
        "rank": result.rank,
        "links": [
            {"edge": list(g.links[eid]),
             "verdict": ("identifiable" if eid in result.identifiable
                         else "unidentifiable")}
            for eid in sorted(g.links)
        ],
    }
    if result.values is not None:
        out["values"] = {str(eid): str(val)
                         for eid, val in sorted(result.values.items())}
    _emit_json(out)
    return 0


def _sweep_config(args):
    return SweepConfig(
        generator=args.generator,
        nodes=args.nodes,
        instances=args.instances,
        seed=args.seed,
        monitor_policy=args.monitor_policy,
        path_cap=args.path_cap,
        edge_prob=args.edge_prob,
    )


def _cmd_diff(args):
    summary = run_sweep(_sweep_config(args), jsonl_path=args.jsonl)
    _emit_json(summary.to_json())
    return 0 if summary.clean else 1


def _cmd_gen(args):
    config = _sweep_config(args)
    lines = []
    for index in range(config.instances):
        g = generate_graph(config, index)
        lines.append(json.dumps(g.to_json(), separators=(",", ":")))
    _write(args.jsonl, "\n".join(lines) + "\n")
    return 0


def _cmd_exhaustive(args):
    lo, hi = args.nodes
    if lo != hi:
        raise ParseError("exhaustive takes a single node count, not a range")
    if not 2 <= hi <= 7:
        raise ParseError(f"exhaustive takes 2 to 7 nodes, not {hi}")
    summary = exhaustive_sweep(max_nodes=hi, path_cap=args.path_cap,
                               jsonl_path=args.jsonl)
    _emit_json(summary.to_json())
    return 0 if summary.clean else 1


def _cmd_dot(args):
    g = _load_graph(args.input, args.monitors)
    parts = [graph_dot(g, name="input")]
    bct = biconnected_components(g)
    parts.append(block_cut_tree_dot(bct))
    for block in bct.blocks:
        if len(block.nodes) < 3:
            continue
        d = decompose_links({eid: g.links[eid] for eid in block.links})
        parts.append(decomposition_dot(d, name=f"block-{block.bid}"))
    _write(args.dot, "".join(parts))
    return 0


def _add_input_flags(p):
    p.add_argument("--input", required=True, help="graph JSON file")
    p.add_argument("--monitors", type=_monitor_pair, default=None,
                   metavar="u,v", help="override the file's monitor pair")


def _add_sweep_flags(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nodes", type=_node_range, default=(6, 6),
                   metavar="LO[,HI]", help="node count range, inclusive")
    p.add_argument("--instances", type=_positive_int, default=100)
    p.add_argument("--generator", default="erdos-renyi",
                   choices=["erdos-renyi", "random-biconnected", "barbell",
                            "grid"])
    p.add_argument("--monitor-policy", default="sampled",
                   choices=["sampled", "all-pairs"])
    p.add_argument("--edge-prob", type=_probability, default=0.5)
    p.add_argument("--path-cap", type=_positive_int, default=DEFAULT_PATH_CAP)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="linkident",
        description="Which link metrics can two monitors pin down exactly?")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structural verdict for every link")
    _add_input_flags(p)
    p.add_argument("--dot", default=None, metavar="FILE",
                   help="also write a verdict-colored DOT file")
    p.add_argument("--path-cap", type=_positive_int, default=DEFAULT_PATH_CAP)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("oracle", help="exact verdicts from path algebra")
    _add_input_flags(p)
    p.add_argument("--path-cap", type=_positive_int, default=DEFAULT_PATH_CAP)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("diff", help="randomized structural-vs-oracle sweep")
    _add_sweep_flags(p)
    p.add_argument("--jsonl", default=None, metavar="FILE",
                   help="stream per-instance records here")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("gen", help="emit generated graphs as JSON lines")
    _add_sweep_flags(p)
    p.add_argument("--jsonl", default=None, metavar="FILE")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("exhaustive",
                       help="both engines on every connected graph up to N")
    p.add_argument("--nodes", type=_node_range, default=(6, 6), metavar="N")
    p.add_argument("--path-cap", type=_positive_int, default=DEFAULT_PATH_CAP)
    p.add_argument("--jsonl", default=None, metavar="FILE")
    p.set_defaults(func=_cmd_exhaustive)

    p = sub.add_parser("dot", help="structural DOT views of one graph")
    _add_input_flags(p)
    p.add_argument("--dot", default=None, metavar="FILE",
                   help="output file (default stdout)")
    p.set_defaults(func=_cmd_dot)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # an OSError here comes from an output file: _load_graph turns
    # input failures into ParseError
    except (LinkIdentError, RecursionError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
