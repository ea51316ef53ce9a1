"""Ground-truth identifiability by path enumeration and exact algebra.

Each probe between the two monitors travels a simple path and reveals
the sum of its link metrics. Stacking one 0/1 incidence row per simple
path gives the measurement matrix M; a link metric is determined by
the measurements exactly when its unit vector lies in the row space of
M over the rationals. This module enumerates the full path universe
(with a hard cap), runs exact integer elimination, and answers

  * which links are identifiable,
  * the exact metric value forced onto each identifiable link,
  * for each unidentifiable link, two positive metric assignments that
    agree on every path sum but differ on that link.

The walk feeds the echelon one live 0/1 row, updated in place on the
links where each path differs from the one before it. Path sums are
plain integers: the metrics are scaled once to integers over their
common denominator, and recovered values are divided by it at the end.
No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import GraphError, NoPath, PathExplosion
from .linalg import IntegerEchelon

DEFAULT_PATH_CAP = 200_000


def _indexed_adjacency(g):
    """Adjacency over 0-based node indices, neighbor-sorted.

    Returns (index map, list of (neighbor index, link id) lists).
    Sorting by neighbor index makes DFS emit paths in lexicographic
    node-sequence order, since node indices follow node order.
    """
    idx = {v: i for i, v in enumerate(g.nodes)}
    adj = [[] for _ in g.nodes]
    for eid, (u, v) in g.links.items():
        adj[idx[u]].append((idx[v], eid))
        adj[idx[v]].append((idx[u], eid))
    for lst in adj:
        lst.sort()
    return idx, adj


def _walk_paths(g, m1, m2, cap, visit):
    """DFS over all simple m1-m2 paths in lexicographic order.

    visit(mask, nodes) is called once per path with the link bitmask
    and the node index sequence. Raises PathExplosion when the path
    count would exceed cap.
    """
    idx, adj = _indexed_adjacency(g)
    s, t = idx[m1], idx[m2]
    count = 0
    seq = [s]

    def go(v, seen, mask):
        nonlocal count
        if v == t:
            count += 1
            if count > cap:
                raise PathExplosion(
                    f"more than {cap} simple monitor paths")
            visit(mask, seq)
            return
        for w, eid in adj[v]:
            bit = 1 << w
            if not seen & bit:
                seq.append(w)
                go(w, seen | bit, mask | (1 << eid))
                seq.pop()

    go(s, 1 << s, 0)
    return count


def enumerate_simple_paths(g, cap=DEFAULT_PATH_CAP):
    """All simple paths between the monitors, as node tuples.

    Deterministic lexicographic order. With exactly two monitors a
    simple path can never pass through a monitor in transit.
    """
    m1, m2 = g.require_monitors()
    nodes = g.nodes
    out = []

    def visit(mask, seq):
        out.append(tuple(nodes[i] for i in seq))

    _walk_paths(g, m1, m2, cap, visit)
    return out


@dataclass
class MeasurementSystem:
    """Incidence matrix of a path set, with optional exact sums."""

    paths: list          # node tuples, one per row
    matrix: list         # rows of 0/1 ints, columns = link ids 0..m-1
    rhs: list | None     # Fraction per row when metrics are known
    ncols: int

    def to_csv(self):
        """One row per path: the node sequence, then the 0/1 columns."""
        header = ["path"] + [f"link{j}" for j in range(self.ncols)]
        lines = [",".join(header)]
        for p, row in zip(self.paths, self.matrix):
            cells = ["-".join(str(v) for v in p)]
            cells += [str(x) for x in row]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def build_measurement_matrix(paths, g):
    """Incidence rows for explicit node-sequence paths in g."""
    m = g.m
    rows = []
    rhs = [] if g.metrics is not None else None
    for p in paths:
        row = [0] * m
        total = Fraction(0)
        for a, b in zip(p, p[1:]):
            eid = g.link_between(a, b)
            if eid is None:
                raise GraphError(f"path step {a}-{b} is not a link")
            row[eid] = 1
            if rhs is not None:
                total += g.metrics[eid]
        rows.append(row)
        if rhs is not None:
            rhs.append(total)
    return MeasurementSystem(paths=list(paths), matrix=rows, rhs=rhs,
                             ncols=m)


def _feed_echelon(g, cap, carry_rhs=False):
    """Stream every path row between g's monitors into an echelon.

    Returns (echelon, path count, denominator); raises NoPath when no
    simple path joins the monitors m1, m2. A stop at full column rank
    would never save a path: 1_star(m1) - 1_star(m2) is orthogonal to
    every path row, so full rank forces every link at a monitor to be
    the direct link, which is then the only path. Every path is fed
    as the same live 0/1 list, which add does not keep, with only the
    links where the path differs from the one before flipped. With
    carry_rhs each right-hand side is the path's integer sum of the
    metrics times their common denominator, so the echelon's values are
    the true ones times that denominator.
    """
    m1, m2 = g.require_monitors()
    m = g.m
    ech = IntegerEchelon(m, carry_rhs=carry_rhs)
    add = ech.add
    row = [0] * m
    den = 1
    weight = [0] * m
    if carry_rhs:
        metrics = [g.metrics[j] for j in range(m)]
        den = lcm(*(x.denominator for x in metrics))
        weight = [x.numerator * (den // x.denominator) for x in metrics]
    last = 0
    total = 0

    def visit(mask, seq):
        nonlocal last, total
        flips = mask ^ last
        last = mask
        while flips:
            low = flips & -flips
            j = low.bit_length() - 1
            if mask & low:
                row[j] = 1
                total += weight[j]
            else:
                row[j] = 0
                total -= weight[j]
            flips ^= low
        add(row, total)

    count = _walk_paths(g, m1, m2, cap, visit)
    if count == 0:
        raise NoPath(f"no simple path joins {m1} and {m2}")
    return ech, count, den


def identifiable_links_bruteforce(g, path_cap=DEFAULT_PATH_CAP):
    """Set of link ids whose metric the full path set pins down.

    The exact row-space membership test: link l is identifiable iff
    e_l lies in the span of the path incidence rows. Raises NoPath
    when the monitors have no connecting path at all.
    """
    ech, _, _ = _feed_echelon(g, path_cap)
    return {j for j in range(g.m) if ech.unit_in_span(j)}


@dataclass
class OracleResult:
    """Full oracle output for one instance."""

    identifiable: set       # link ids
    path_count: int
    rank: int
    values: dict | None     # link id -> Fraction, when metrics known


def oracle_analysis(g, path_cap=DEFAULT_PATH_CAP):
    """Oracle verdicts plus exact path count, rank, and values.

    path_count and rank describe the complete measurement system.
    """
    carry = g.metrics is not None
    ech, count, den = _feed_echelon(g, path_cap, carry_rhs=carry)
    ident = {j for j in range(g.m) if ech.unit_in_span(j)}
    values = None
    if carry:
        values = {j: ech.unit_value(j) / den for j in sorted(ident)}
    return OracleResult(identifiable=ident, path_count=count,
                        rank=ech.rank, values=values)


@dataclass
class MetricRecovery:
    """Value recovery check for one instance with known metrics."""

    recovered: dict        # link id -> Fraction (identifiable links)
    witnesses: dict        # link id -> (metrics, alternative metrics)
    exact: bool            # every recovered value equals the truth

    @property
    def identifiable(self):
        return set(self.recovered)


def _positive_alternative(base, delta):
    """base + eps*delta with eps > 0 small enough to stay positive.

    Only the nonzero entries of delta are computed; the others are the
    base entries themselves.
    """
    moved = [(j, d) for j, d in enumerate(delta) if d]
    eps = None
    for j, d in moved:
        if d < 0:
            cand = Fraction(base[j], -2 * d)
            if eps is None or cand < eps:
                eps = cand
    if eps is None:
        eps = Fraction(1)
    alt = list(base)
    for j, d in moved:
        alt[j] += eps * d
    return tuple(alt)


def verify_metric_recovery(g, path_cap=DEFAULT_PATH_CAP):
    """Check exact value recovery against the graph's true metrics.

    For each identifiable link the unique consistent value must equal
    the true metric exactly. For each unidentifiable link a witness
    pair of positive assignments is built from a nullspace direction:
    both satisfy every path sum, and they differ on that link.
    """
    if g.metrics is None:
        raise GraphError("metric recovery needs metrics on the graph")
    ech, _, den = _feed_echelon(g, path_cap, carry_rhs=True)
    m = g.m
    truth = [g.metrics[i] for i in range(m)]
    recovered = {}
    exact = True
    for j in range(m):
        if ech.unit_in_span(j):
            recovered[j] = ech.unit_value(j) / den
            if recovered[j] != truth[j]:
                exact = False
    witnesses = {}
    basis = ech.nullspace_basis()
    base = tuple(truth)
    for j in range(m):
        if j in recovered:
            continue
        delta = next(d for d in basis if d[j] != 0)
        alt = _positive_alternative(base, delta)
        witnesses[j] = (base, alt)
    return MetricRecovery(recovered=recovered, witnesses=witnesses,
                          exact=exact)
