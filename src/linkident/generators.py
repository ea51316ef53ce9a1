"""Deterministic graph generation and enumeration.

All randomness flows through a random.Random seeded from
(config.seed, instance index), so a config plus an index names one
graph forever; reruns are byte-identical.

Enumeration is labeled for up to 6 nodes. At 7 nodes the labeled
space is out of reach, so one representative per isomorphism class is
produced instead: every connected 7-node graph arises from a
connected 6-node graph by adding one node (delete any non-cut vertex
to see this), so augmenting each canonical 6-node graph with a new
node wired to every possible neighbor subset, then canonicalizing,
covers all classes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations, product

from .errors import GenerationFailed, TooLarge
from .graph import Graph, reachable
from .oracle import DEFAULT_PATH_CAP

MAX_GENERATION_TRIES = 200


@dataclass(frozen=True)
class SweepConfig:
    """Everything that names a reproducible randomized sweep.

    nodes is an inclusive (low, high) range sampled per instance.
    monitor_policy is "sampled" (one random pair per instance, placed
    on the generated graph) or "all-pairs" (graphs come without
    monitors and the sweep driver analyzes every ordered pair).
    generator is one of erdos-renyi, random-biconnected, barbell,
    grid; edge_prob only affects erdos-renyi.
    """

    generator: str = "erdos-renyi"
    nodes: tuple = (6, 6)
    instances: int = 100
    seed: int = 0
    monitor_policy: str = "sampled"
    path_cap: int = DEFAULT_PATH_CAP
    edge_prob: float = 0.5


def gnp_connected(n, p, rng, max_tries=MAX_GENERATION_TRIES):
    """Connected Erdos-Renyi sample, by rejection."""
    if n < 1:
        raise GenerationFailed(f"cannot generate a graph on {n} nodes")
    nodes = list(range(n))
    for _ in range(max_tries):
        edges = [pair for pair in combinations(nodes, 2)
                 if rng.random() < p]
        g = Graph(nodes, edges)
        if g.is_connected():
            return g
    raise GenerationFailed(
        f"no connected sample in {max_tries} tries (n={n}, p={p})")


def random_biconnected(n, rng, chord_prob=0.3):
    """Random 2-connected graph: a random cycle plus random chords."""
    if n < 3:
        raise GenerationFailed(
            f"2-connected graphs need at least 3 nodes, asked for {n}")
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[(i + 1) % n])))
             for i in range(n)}
    for pair in combinations(range(n), 2):
        if pair not in edges and rng.random() < chord_prob:
            edges.add(pair)
    return Graph(range(n), sorted(edges))


def barbell(a, b):
    """Two cliques of sizes a and b joined by one bridge link."""
    if a < 1 or b < 1:
        raise GenerationFailed("barbell needs positive clique sizes")
    edges = list(combinations(range(a), 2))
    edges += list(combinations(range(a, a + b), 2))
    edges.append((a - 1, a))
    return Graph(range(a + b), edges)


def grid(rows, cols):
    """rows x cols grid graph."""
    if rows < 1 or cols < 1:
        raise GenerationFailed("grid needs positive dimensions")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(range(rows * cols), edges)


def generate_graph(config, index):
    """The index-th graph of a sweep, with monitors per policy."""
    rng = random.Random(config.seed * 1_000_003 + index)
    lo, hi = config.nodes
    n = rng.randint(lo, hi)
    if config.generator == "erdos-renyi":
        g = gnp_connected(n, config.edge_prob, rng)
    elif config.generator == "random-biconnected":
        g = random_biconnected(n, rng)
    elif config.generator == "barbell":
        g = barbell(max(1, n // 2), max(1, n - n // 2))
    elif config.generator == "grid":
        rows = max(1, int(n ** 0.5))
        g = grid(rows, max(1, n // rows))
    else:
        raise GenerationFailed(f"unknown generator {config.generator!r}")
    if config.monitor_policy == "sampled":
        if g.n < 2:
            raise GenerationFailed("cannot place two monitors on"
                                   f" {g.n} nodes")
        m1, m2 = rng.sample(g.nodes, 2)
        g = g.with_monitors(m1, m2)
    elif config.monitor_policy != "all-pairs":
        raise GenerationFailed(
            f"unknown monitor policy {config.monitor_policy!r}")
    return g


# -- exhaustive enumeration ---------------------------------------------


def _mask_connected(n, pairs, mask):
    if n <= 1:
        return True
    adj = [[] for _ in range(n)]
    for i, (u, v) in enumerate(pairs):
        if mask >> i & 1:
            adj[u].append(v)
            adj[v].append(u)
    return len(reachable(adj, (0,))) == n


def _wl_colors(n, adj):
    """Stable label-independent node coloring (iterated refinement by
    neighbor color multisets)."""
    colors = [len(adj[v]) for v in range(n)]
    while True:
        keys = [(colors[v], tuple(sorted(colors[w] for w in adj[v])))
                for v in range(n)]
        order = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [order[keys[v]] for v in range(n)]
        if new == colors:
            return colors
        colors = new


def _canonical_mask(n, pairs, mask):
    """Minimum adjacency bitmask over all relabelings.

    Candidate relabelings are restricted to those compatible with the
    refinement coloring, which prunes the search to nothing for most
    graphs while staying exact (the true minimum is always among the
    candidates because the coloring is label-independent).
    """
    adj = [[] for _ in range(n)]
    for i, (u, v) in enumerate(pairs):
        if mask >> i & 1:
            adj[u].append(v)
            adj[v].append(u)
    colors = _wl_colors(n, adj)
    classes = {}
    for v in range(n):
        classes.setdefault(colors[v], []).append(v)
    grouped = [classes[c] for c in sorted(classes)]
    pair_index = {pair: i for i, pair in enumerate(pairs)}
    best = None
    for perms in product(*(permutations(g) for g in grouped)):
        seq = [v for group in perms for v in group]
        pos = [0] * n
        for newpos, v in enumerate(seq):
            pos[v] = newpos
        out = 0
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                a, b = pos[u], pos[v]
                out |= 1 << pair_index[(a, b) if a < b else (b, a)]
        if best is None or out < best:
            best = out
    return best


def _labeled_connected_masks(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        if _mask_connected(n, pairs, mask):
            yield mask


def _mask_to_graph(n, pairs, mask):
    edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
    return Graph(range(n), edges)


def enumerate_all_connected_graphs(n):
    """Stream of connected simple graphs on n nodes.

    Labeled (every graph exactly once) for n <= 6; one canonical
    representative per isomorphism class at n = 7; TooLarge beyond.
    """
    if n > 7:
        raise TooLarge(f"enumeration tops out at 7 nodes, asked for {n}")
    if n < 1:
        raise TooLarge(f"need at least 1 node, asked for {n}")
    pairs = list(combinations(range(n), 2))
    if n <= 6:
        for mask in _labeled_connected_masks(n):
            yield _mask_to_graph(n, pairs, mask)
        return

    # n == 7: augment canonical 6-node graphs by one node
    six_pairs = list(combinations(range(6), 2))
    six_reps = sorted({_canonical_mask(6, six_pairs, mask)
                       for mask in _labeled_connected_masks(6)})
    pair_index = {pair: i for i, pair in enumerate(pairs)}
    seen = set()
    for rep in six_reps:
        base = 0
        for i, pair in enumerate(six_pairs):
            if rep >> i & 1:
                base |= 1 << pair_index[pair]
        for sub in range(1, 1 << 6):
            mask = base
            for v in range(6):
                if sub >> v & 1:
                    mask |= 1 << pair_index[(v, 6)]
            seen.add(_canonical_mask(7, pairs, mask))
    for mask in sorted(seen):
        yield _mask_to_graph(7, pairs, mask)
