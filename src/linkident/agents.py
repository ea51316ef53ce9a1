"""Per-block measurement endpoints.

Every monitor-to-monitor path crosses a given block through two fixed
nodes: the monitor itself when it lies inside the block, otherwise
the unique cut vertex through which the block is reached from that
monitor. We call these two nodes the block's agents. All analysis of
a block only ever sees path segments between its agents, so they act
as stand-in monitors for the block (with one caveat around a direct
agent-to-agent link, handled by the classifier). One BFS from each
monitor finds the agents of all blocks at once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .decomposition import biconnected_components
from .errors import UnknownBlock


@dataclass(frozen=True)
class AgentAssignment:
    """The two agents of one block.

    agents[i] is where paths from monitors[i] enter the block;
    connecting_paths[i] is a shortest node path from monitors[i] to
    its agent as a witness (a single-node tuple when the monitor is
    in the block itself). The paths are computed on first access from
    prev, the two monitors' BFS prev maps, which every block of one
    locate_agents call shares; callers that read only the agents pay
    nothing for them. The two agents coincide exactly when both
    monitors reach the block through the same cut vertex.
    """

    block: int
    monitors: tuple
    agents: tuple
    prev: tuple = field(compare=False, repr=False)

    @cached_property
    def connecting_paths(self):
        return tuple(_witness(prev, a)
                     for prev, a in zip(self.prev, self.agents))


def _first_hits(g, m, bct):
    """First node of every block reached from monitor m, by one BFS.

    Returns (block id -> agent, the BFS prev map). The BFS runs from m
    in neighbour order. Every path from m into a block enters through
    the same node (m itself, or one cut vertex), which is strictly
    closer to m than any other node of the block, so it is the block's
    first discovered node. A BFS stopped at that node is a prefix of
    this one, so the prev links behind its witness path are the same
    too. The search ends once every block has its agent, and is
    skipped when m lies in all of them: O(n + m) per monitor. Blocks
    never reached are missing from the result.
    """
    agents = dict.fromkeys(bct.blocks_of_node(m), m)
    prev = {m: None}
    queue = deque([m])
    while queue and len(agents) < len(bct.blocks):
        v = queue.popleft()
        for w, _ in g.neighbors(v):
            if w in prev:
                continue
            prev[w] = v
            for bid in bct.blocks_of_node(w):
                agents.setdefault(bid, w)
            queue.append(w)
    return agents, prev


def _witness(prev, v):
    """Node path from the BFS root to v along prev."""
    path = []
    while v is not None:
        path.append(v)
        v = prev[v]
    return tuple(reversed(path))


def locate_agents(g, bct=None):
    """Agents of every block for the graph's two monitors.

    Returns a dict mapping block id to its AgentAssignment. Costs one
    BFS per monitor over the whole graph, not one per block; a
    block's witness paths are walked only when read. Raises
    UnknownBlock when a block of bct cannot be reached from a monitor
    (bct built from another graph).
    """
    m1, m2 = g.require_monitors()
    if bct is None:
        bct = biconnected_components(g)
    (first1, prev1), (first2, prev2) = (_first_hits(g, m, bct)
                                        for m in (m1, m2))
    out = {}
    for block in bct.blocks:
        for m, first in ((m1, first1), (m2, first2)):
            if block.bid not in first:
                raise UnknownBlock("block nodes are unreachable from"
                                   f" monitor {m!r}")
        a1, a2 = first1[block.bid], first2[block.bid]
        out[block.bid] = AgentAssignment(
            block=block.bid,
            monitors=(m1, m2),
            agents=(a1, a2),
            prev=(prev1, prev2),
        )
    return out
