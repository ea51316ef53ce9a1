"""Graphviz DOT text for graphs, verdicts, and decompositions.

Everything here returns a string; callers decide where it goes. The
exports are deterministic (links in id order, components in cid order)
so diffs of generated files are meaningful.
"""

from __future__ import annotations

IDENT_COLOR = "forestgreen"
UNIDENT_COLOR = "crimson"


def _esc(text):
    return str(text).replace("\\", "\\\\").replace('"', '\\"')


def _id(prefix, v):
    """DOT identifier for a node name: bare when the name is safe,
    quoted otherwise (quoted identifiers are valid wherever bare ones
    are)."""
    s = str(v)
    if s and all(c.isalnum() or c == "_" for c in s) and s.isascii():
        return f"{prefix}{s}"
    return f'"{prefix}{_esc(s)}"'


def _node_lines(g):
    m1, m2 = g.monitors if g.monitors is not None else (None, None)
    lines = []
    for v in g.nodes:
        shape = "doublecircle" if v in (m1, m2) else "circle"
        lines.append(f'  {_id("n", v)} [label="{_esc(v)}",'
                     f" shape={shape}];")
    return lines


def graph_dot(g, name="g"):
    """Plain rendering: monitors doubled, links labeled by id."""
    lines = [f'graph "{_esc(name)}" {{', "  node [fontsize=11];"]
    lines += _node_lines(g)
    for eid in sorted(g.links):
        u, v = g.links[eid]
        lines.append(f'  {_id("n", u)} -- {_id("n", v)}'
                     f' [label="{eid}", fontsize=9];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def report_dot(report, name="verdicts"):
    """Verdict rendering: identifiable links green, unidentifiable red,
    rule tags as edge labels."""
    g = report.graph
    lines = [f'graph "{_esc(name)}" {{', "  node [fontsize=11];"]
    lines += _node_lines(g)
    for eid in sorted(g.links):
        u, v = g.links[eid]
        verdict = report.verdicts[eid]
        color = IDENT_COLOR if verdict.identifiable else UNIDENT_COLOR
        lines.append(f'  {_id("n", u)} -- {_id("n", v)} [color={color}, '
                     f'label="{_esc(verdict.rule)}", fontsize=9];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def block_cut_tree_dot(bct, name="blocks"):
    """The bipartite tree of blocks and cut vertices."""
    lines = [f'graph "{_esc(name)}" {{']
    for block in bct.blocks:
        label = f"B{block.bid}\\nnodes {list(block.nodes)}"
        lines.append(f'  b{block.bid} [label="{label}", shape=box];')
    for v in sorted(bct.cut_vertices):
        lines.append(f'  {_id("c", v)} [label="{_esc(v)}",'
                     " shape=circle];")
    for bid, v in bct.edges:
        lines.append(f'  b{bid} -- {_id("c", v)};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def decomposition_dot(d, name="components"):
    """Every triconnected component as a cluster, virtual links dashed.

    Nodes are namespaced per component (the same graph node appears in
    every component whose split pairs contain it).
    """
    lines = [f'graph "{_esc(name)}" {{', "  node [fontsize=11, shape=circle];"]
    for comp in d.components:
        lines.append(f"  subgraph cluster_{comp.cid} {{")
        lines.append(f'    label="C{comp.cid} ({comp.kind})";')
        for v in comp.nodes:
            lines.append(f'    {_id(f"c{comp.cid}_", v)}'
                         f' [label="{_esc(v)}"];')
        for eid in sorted(comp.links):
            u, v = comp.links[eid]
            ends = (f'{_id(f"c{comp.cid}_", u)}'
                    f' -- {_id(f"c{comp.cid}_", v)}')
            if eid in comp.virtuals:
                lines.append(f'    {ends} [style=dashed, label="v{eid}",'
                             " fontsize=9];")
            else:
                lines.append(f'    {ends} [label="{eid}", fontsize=9];')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
