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

The walk, a depth-first search over graph.indexed_link_adjacency that
emits paths in lexicographic node order, feeds the echelon one live
0/1 row, updated in place on the links where each path differs from
the one before it. Path sums are
plain integers: the metrics are scaled once to integers over their
common denominator D. Each recovered value is one Fraction over the
echelon's denominator times D. Each witness is read off one of the
echelon's integer nullspace vectors, with one Fraction per entry it
moves. No floating point is used anywhere.

The most recent fed echelon is kept in a single slot, keyed by the
Graph object itself and the path cap. oracle_analysis followed by
verify_metric_recovery on one Graph object therefore walks its paths
once; any other graph or cap walks again and replaces the slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import GraphError, NoPath, PathExplosion
from .graph import indexed_link_adjacency
from .linalg import IntegerEchelon

DEFAULT_PATH_CAP = 200_000


def _walk_paths(g, m1, m2, cap, visit):
    """DFS over all simple m1-m2 paths in lexicographic order.

    visit(mask, nodes) is called once per path with the link bitmask
    and the node index sequence. Raises PathExplosion when the path
    count would exceed cap. The walk takes neighbours in the sorted
    order of graph.indexed_link_adjacency, and node indices follow
    node order, so paths come in lexicographic node-sequence order.
    """
    idx, adj = indexed_link_adjacency(g.nodes, g.links.items())
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


# (graph, cap, result) of the last _feed_echelon that returned;
# replaced in one assignment, so a reader sees a whole entry
_last_feed = None


def _feed_echelon(g, cap):
    """Stream every path row between g's monitors into an echelon.

    Returns (echelon, path count, denominator D, weights); raises
    NoPath when no simple path joins the monitors m1, m2. The echelon
    carries right-hand sides exactly when g has metrics. D is the
    common denominator of the metrics, and the weights are the metrics
    times D, as integers (D is 1 and the weights 0 without metrics).
    A stop at full column rank would never save a path:
    1_star(m1) - 1_star(m2) is orthogonal to every path row, so full
    rank forces every link at a monitor to be the direct link, which is
    then the only path. Every path is fed as the same live 0/1 list,
    which add does not keep, with only the links where the path differs
    from the one before flipped. With metrics each right-hand side is
    the path's sum of the weights, so the echelon's values are the true
    ones times D.

    The result is shared: a call with the same Graph object and cap as
    the last call that returned gets that call's result back without a
    walk. Graph is immutable, so the object is an exact key, and the
    slot's reference to it keeps its id from being reused. A call that
    raises leaves the slot as it was. Every caller
    (identifiable_links_bruteforce, oracle_analysis and
    verify_metric_recovery) only reads the echelon and the weights.
    """
    global _last_feed
    last = _last_feed
    if last is not None and last[0] is g and last[1] == cap:
        return last[2]
    m1, m2 = g.require_monitors()
    m = g.m
    ech = IntegerEchelon(m, carry_rhs=g.metrics is not None)
    add = ech.add
    row = [0] * m
    den = 1
    weight = [0] * m
    if g.metrics is not None:
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
    result = ech, count, den, weight
    _last_feed = (g, cap, result)
    return result


def identifiable_links_bruteforce(g, path_cap=DEFAULT_PATH_CAP):
    """Set of link ids whose metric the full path set pins down.

    The exact row-space membership test: link l is identifiable iff
    e_l lies in the span of the path incidence rows. Raises NoPath
    when the monitors have no connecting path at all.
    """
    ech, _, _, _ = _feed_echelon(g, path_cap)
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
    ech, count, den, _ = _feed_echelon(g, path_cap)
    ident = {j for j in range(g.m) if ech.unit_in_span(j)}
    values = None
    if g.metrics is not None:
        values = {j: ech.unit_value(j, den) for j in sorted(ident)}
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


def _witness_alternative(base, weight, den, vec, f):
    """base + eps * vec / vec[f], with eps > 0 small enough to keep it
    positive, as a tuple.

    weight is base times den, in integers. With c = vec[f], eps is the
    least base[k] * |c| / (2 |vec[k]|) over the entries k whose sign is
    opposite to c's, compared by cross-multiplication, or 1 when there
    are none. Each entry of vec gives one Fraction; the other entries
    are the base entries themselves.
    """
    c = vec[f]
    s = 1 if c > 0 else -1
    best_w = best_y = None
    for k, y in vec.items():
        a = -s * y
        if a > 0 and (best_y is None or weight[k] * best_y < best_w * a):
            best_w, best_y = weight[k], a
    if best_y is None:
        scale, shift = c, den
    else:
        scale, shift = 2 * best_y, s * best_w
    sden = scale * den
    alt = list(base)
    for j, y in vec.items():
        alt[j] = Fraction(scale * weight[j] + shift * y, sden)
    return tuple(alt)


def verify_metric_recovery(g, path_cap=DEFAULT_PATH_CAP):
    """Check exact value recovery against the graph's true metrics.

    For each identifiable link the unique consistent value must equal
    the true metric exactly. For each unidentifiable link a witness
    pair of positive assignments is built from the first nullspace
    vector that touches it: both satisfy every path sum, and they
    differ on that link. Links that pick the same vector share its
    alternative. The witnesses need a positive base, so every metric
    must be positive (its numerator is; oracle_analysis takes any).
    """
    if g.metrics is None:
        raise GraphError("metric recovery needs metrics on the graph")
    if any(x.numerator <= 0 for x in g.metrics.values()):
        raise GraphError("metric recovery needs positive metrics")
    ech, _, den, weight = _feed_echelon(g, path_cap)
    m = g.m
    base = tuple(g.metrics[i] for i in range(m))
    recovered = {}
    exact = True
    for j in range(m):
        if ech.unit_in_span(j):
            recovered[j] = ech.unit_value(j, den)
            if recovered[j] != base[j]:
                exact = False
    # each vector is the first to touch its own free column, so every
    # vector is picked by at least one link
    pick = {}
    for vec, f in zip(ech.null, ech.free):
        alt = _witness_alternative(base, weight, den, vec, f)
        for j in vec:
            pick.setdefault(j, alt)
    witnesses = {j: (base, pick[j]) for j in sorted(pick)}
    return MetricRecovery(recovered=recovered, witnesses=witnesses,
                          exact=exact)
