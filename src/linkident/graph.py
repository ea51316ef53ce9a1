"""Undirected measurement graphs.

A Graph is a finite simple undirected graph whose links carry unknown
additive metrics. Two distinguished nodes, the monitors, can exchange
probes along simple paths; each probe reveals the sum of the metrics on
its path. Everything else in the library asks which individual link
metrics are pinned down by the full set of such path sums.

Nodes are integers. Links are numbered 0..m-1 in construction order and
stored as ordered pairs (u, v) with u < v. The numbering is part of the
public contract: reports, metric dictionaries and DOT exports all refer
to links by these ids.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction

from .errors import (
    DuplicateEdge,
    GraphError,
    MonitorNotInGraph,
    MonitorsNotDistinct,
    MonitorsUnset,
    ParseError,
    SelfLoop,
    UnknownNode,
)


def _normalize(u, v):
    return (u, v) if u < v else (v, u)


def _check_monitors(monitors, nodes):
    """The monitor pair as a tuple, checked to be two distinct nodes."""
    m1, m2 = monitors
    if m1 == m2:
        raise MonitorsNotDistinct(f"both monitors are node {m1}")
    for m in (m1, m2):
        if m not in nodes:
            raise MonitorNotInGraph(f"monitor {m} is not a node")
    return m1, m2


_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*\Z")


def _parse_metric(value):
    """Fraction of one metric value. A value that is not a finite
    rational (a boolean, None, nan, an infinity, a string Fraction
    cannot read) raises TypeError, ValueError, OverflowError or
    ZeroDivisionError. So does a string or a finite Decimal whose
    exponent exceeds sys.get_int_max_str_digits() in size, the bound
    json puts on integer literals: Fraction would build 10**exponent,
    an integer of about 400 MB for "1e999999999"."""
    if isinstance(value, bool):
        raise TypeError("a boolean is not a metric")
    exp = None
    if isinstance(value, str):
        match = _EXPONENT.search(value)
        exp = match and int(match.group(1))
    elif isinstance(value, Decimal) and value.is_finite():
        exp = value.as_tuple().exponent
    limit = sys.get_int_max_str_digits()
    if exp and limit and abs(exp) > limit:
        raise ValueError(f"exponent beyond {limit} in size")
    return Fraction(value)


_METRIC_ERRORS = (TypeError, ValueError, OverflowError, ZeroDivisionError)


def _clean_metrics(metrics, links):
    """Fraction per link id, or None for no metrics at all. A value
    _parse_metric rejects raises GraphError."""
    clean = {}
    for eid, value in metrics.items():
        if eid not in links:
            raise GraphError(f"metric for unknown link id {eid}")
        try:
            clean[eid] = _parse_metric(value)
        except _METRIC_ERRORS as exc:
            raise GraphError(f"bad metric for link {eid}: {value!r}"
                             f" ({exc})") from None
    if clean and len(clean) != len(links):
        raise GraphError("metrics must cover every link")
    return clean or None


def node_adjacency(nodes, pairs):
    """Neighbour lists of nodes for (u, v) pairs; parallel pairs
    repeat."""
    adj = {v: [] for v in nodes}
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def link_adjacency(nodes, links):
    """(neighbour, link id) lists of nodes for (link id, (u, v)) items;
    parallel links each get their own entry."""
    adj = {v: [] for v in nodes}
    for eid, (u, v) in links:
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    return adj


def indexed_link_adjacency(nodes, links):
    """lowpoint's adjacency: for the position of each of nodes, the
    (neighbour position, link id) pairs of (link id, (u, v)) items;
    parallel links each get their own entry."""
    index = {v: i for i, v in enumerate(nodes)}
    adj = [[] for _ in nodes]
    for eid, (u, v) in links:
        i, j = index[u], index[v]
        adj[i].append((j, eid))
        adj[j].append((i, eid))
    return adj


def reachable(adj, starts, blocked=()):
    """Set of nodes reached from starts without entering blocked ones.

    adj maps each node to its neighbours (a dict, or a list over
    nodes 0..n-1). Start nodes must not be blocked. The search keeps
    its own stack, so no depth of graph hits the recursion limit.
    """
    seen = set(starts)
    stack = list(seen)
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen and w not in blocked:
                seen.add(w)
                stack.append(w)
    return seen


def lowpoint(adj, removed=None):
    """One lowpoint pass (Tarjan 1972) over an indexed link adjacency.

    adj lists, for each node index 0..n-1, its (neighbour index, link
    id) pairs, so disc and low are plain lists; callers index a piece
    once per search and run every pass of that search on it. The
    depth-first search starts at index 0, or at 1 when 0 is removed,
    and never enters removed. Returns (reached, cuts, bridge): the
    indices reached, in discovery order, the cut indices of what was
    reached, and whether some link of it is a bridge. A non-root node
    v cuts when some DFS child w has low[w] >= disc[v], the root when
    it has two or more children; the tree link into w is a bridge when
    low[w] > disc[v]. The parent link is skipped by id, not by node,
    so parallel links shield each other. The search keeps its own
    stack, in O(n + m).
    """
    n = len(adj)
    root = 1 if removed == 0 else 0
    disc = [-1] * n
    low = [0] * n
    if removed is not None:
        disc[removed] = n           # seen, and never lowers a low
    disc[root] = 0
    reached = [root]
    cuts = set()
    bridge = False
    root_children = 0
    stack = [(root, None, iter(adj[root]))]
    while stack:
        v, via, todo = stack[-1]
        for w, eid in todo:
            if eid == via:
                continue
            d = disc[w]
            if d >= 0:
                if d < low[v]:
                    low[v] = d
                continue
            disc[w] = low[w] = len(reached)
            reached.append(w)
            stack.append((w, eid, iter(adj[w])))
            break
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                lv = low[v]
                if lv < low[u]:
                    low[u] = lv
                if lv >= disc[u]:
                    if u != root:
                        cuts.add(u)
                    else:
                        root_children += 1
                    if lv > disc[u]:
                        bridge = True
    if root_children > 1:
        cuts.add(root)
    return reached, cuts, bridge


class Graph:
    """Immutable simple graph with optional monitors and metrics.

    Parameters
    ----------
    nodes : iterable of int
    edges : iterable of (int, int)
        Unordered node pairs; duplicates and self loops are rejected.
    monitors : (int, int) or None
        The two probing nodes, if chosen.
    metrics : mapping link id -> Fraction, optional
        Ground-truth metric values, used by the oracle for value
        recovery and by the generators. May cover any subset of links
        only if empty; otherwise must cover all of them.
    """

    __slots__ = ("nodes", "links", "monitors", "metrics", "_adj", "_index")

    def __init__(self, nodes, edges, monitors=None, metrics=None):
        node_list = sorted(nodes)
        if len(set(node_list)) != len(node_list):
            raise GraphError("duplicate node id")
        node_set = set(node_list)

        links = {}
        index = {}
        for eid, (u, v) in enumerate(edges):
            if u == v:
                raise SelfLoop(f"link {eid} joins node {u} to itself")
            if u not in node_set or v not in node_set:
                raise UnknownNode(f"link {eid} endpoint not a node: ({u}, {v})")
            key = _normalize(u, v)
            if key in index:
                raise DuplicateEdge(f"link {key} given twice")
            index[key] = eid
            links[eid] = key

        if monitors is not None:
            monitors = _check_monitors(monitors, node_set)
        metrics = _clean_metrics(metrics or {}, links)

        adj = link_adjacency(node_list, links.items())
        for v in adj:
            adj[v].sort()

        object.__setattr__(self, "nodes", tuple(node_list))
        object.__setattr__(self, "links", links)
        object.__setattr__(self, "monitors", monitors)
        object.__setattr__(self, "metrics", metrics)
        object.__setattr__(self, "_adj", {v: tuple(a) for v, a in adj.items()})
        object.__setattr__(self, "_index", index)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    # -- basic queries -------------------------------------------------

    @property
    def n(self):
        return len(self.nodes)

    @property
    def m(self):
        return len(self.links)

    def neighbors(self, v):
        """Sorted tuple of (neighbor, link id) pairs at v."""
        try:
            return self._adj[v]
        except KeyError:
            raise UnknownNode(f"no node {v}") from None

    def link_between(self, u, v):
        """Link id joining u and v, or None."""
        return self._index.get(_normalize(u, v))

    def require_monitors(self):
        if self.monitors is None:
            raise MonitorsUnset("graph has no monitors set")
        return self.monitors

    def interior_links(self):
        """Ids of links not incident to either monitor."""
        m1, m2 = self.require_monitors()
        return [
            eid for eid, (u, v) in self.links.items()
            if m1 not in (u, v) and m2 not in (u, v)
        ]

    def is_connected(self):
        if not self.nodes:
            return True
        adj = {v: [w for w, _ in a] for v, a in self._adj.items()}
        return len(reachable(adj, self.nodes[:1])) == self.n

    # -- derivation ---------------------------------------------------

    def _shallow(self, monitors, metrics):
        # structure is immutable, so copies share every derived field
        twin = object.__new__(Graph)
        object.__setattr__(twin, "nodes", self.nodes)
        object.__setattr__(twin, "links", self.links)
        object.__setattr__(twin, "monitors", monitors)
        object.__setattr__(twin, "metrics", metrics)
        object.__setattr__(twin, "_adj", self._adj)
        object.__setattr__(twin, "_index", self._index)
        return twin

    def with_monitors(self, m1, m2):
        """Copy of this graph with the given monitors."""
        return self._shallow(_check_monitors((m1, m2), self._adj),
                             self.metrics)

    def with_metrics(self, metrics):
        """Copy of this graph with the given link metrics."""
        return self._shallow(self.monitors,
                             _clean_metrics(metrics, self.links))

    # -- serialization ------------------------------------------------

    @classmethod
    def from_json(cls, data):
        """Build a graph from the dict form of the JSON graph format.

        Expected keys: "nodes" (list of int), "edges" (list of [u, v]),
        optional "monitors" ([m1, m2]) and "metrics" (link id string ->
        rational string like "3/4"). A link id string is written as
        to_json writes it, str(link id); any other spelling raises
        ParseError, so that no two keys name one link.
        """
        if not isinstance(data, dict):
            raise ParseError("top level must be an object")
        try:
            nodes = data["nodes"]
            edges = data["edges"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"missing field: {exc}") from None
        if not isinstance(nodes, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in nodes):
            raise ParseError("nodes must be a list of integers")
        if not isinstance(edges, list):
            raise ParseError("edges must be a list of pairs")
        pairs = []
        for e in edges:
            if (not isinstance(e, (list, tuple)) or len(e) != 2
                    or not all(isinstance(x, int) and not isinstance(x, bool)
                               for x in e)):
                raise ParseError(f"bad edge entry: {e!r}")
            pairs.append((e[0], e[1]))
        monitors = data.get("monitors")
        if monitors is not None:
            if (not isinstance(monitors, (list, tuple)) or len(monitors) != 2
                    or not all(isinstance(x, int) and not isinstance(x, bool)
                               for x in monitors)):
                raise ParseError(f"bad monitors entry: {monitors!r}")
            monitors = tuple(monitors)
        metrics = data.get("metrics")
        if metrics is not None:
            if not isinstance(metrics, dict):
                raise ParseError("metrics must be an object")
            parsed = {}
            for key, raw in metrics.items():
                try:
                    eid = int(key)
                    if str(eid) != key:     # "00", "+1", " 1 ", "1_0"
                        raise ValueError("not a plain decimal link id")
                    parsed[eid] = _parse_metric(raw)
                except _METRIC_ERRORS as exc:
                    raise ParseError(f"bad metric {key!r}: {exc}") from None
            metrics = parsed
        try:
            return cls(nodes, pairs, monitors=monitors, metrics=metrics)
        except GraphError:
            raise
        except (TypeError, ValueError) as exc:
            raise ParseError(str(exc)) from None

    def to_json(self):
        """Dict form of the JSON graph format (inverse of from_json)."""
        data = {
            "nodes": list(self.nodes),
            "edges": [list(self.links[i]) for i in range(self.m)],
        }
        if self.monitors is not None:
            data["monitors"] = list(self.monitors)
        if self.metrics is not None:
            data["metrics"] = {str(i): str(self.metrics[i])
                               for i in range(self.m)}
        return data

    # -- dunder -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.nodes == other.nodes and self.links == other.links
                and self.monitors == other.monitors
                and self.metrics == other.metrics)

    def __hash__(self):
        return hash((self.nodes, tuple(sorted(self.links.items())),
                     self.monitors))

    def __repr__(self):
        mon = f", monitors={self.monitors}" if self.monitors else ""
        return f"Graph(n={self.n}, m={self.m}{mon})"


class MultiGraph:
    """Graph that allows parallel links, keeping the caller's link ids.

    The interior predicate builds one per lobe, with a bypass link
    parallel to any direct monitor link; input graphs are always
    simple. This class is deliberately loose and mutable: no adjacency
    cache, no strict validation, just the fields the path walk and the
    connectivity tests read.
    """

    __slots__ = ("nodes", "links")

    def __init__(self, nodes, links):
        self.nodes = tuple(sorted(nodes))
        self.links = {eid: _normalize(u, v) for eid, (u, v) in dict(links).items()}
