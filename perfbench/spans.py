"""Spans around calls into each layer, and the per-layer metrics.

Tracing wraps names where they are looked up at call time: in the
modules that imported them (`structural` and `sweep` bind library
functions under their own names), on the classes whose methods are hot
(`Structure`, `IntegerEchelon`) and in the benchmark's own workloads
module. The library itself is not edited.

Spans are kept in memory as flat arrays (name, parent, start, end) and
reduced to per-layer figures once the traced passes are over.
"""

from __future__ import annotations

from array import array
from contextlib import ExitStack, contextmanager
from time import perf_counter

from linkident import linalg, structural, sweep

# span name -> layer whose self time it counts towards
LAYER = {
    "sweep.exhaustive": "sweep",
    "structural.analyze": "structural",
    "structural.structure": "structural",
    "structural.rigid_check": "structural",
    "structural.block_oracle": "structural",
    "decomposition.bct": "decomposition",
    "decomposition.tri_split": "decomposition",
    "agents.locate": "agents",
    "connectivity.fan": "connectivity",
    "connectivity.predicate": "connectivity",
    "structural.oracle": "oracle",
    "sweep.oracle": "oracle",
    "oracle.analysis": "oracle",
    "oracle.recovery": "oracle",
    "linalg.add": "linalg",
    "linalg.reduce": "linalg",
    "linalg.nullspace": "linalg",
    "generators.enumerate": "generators",
}


class Tracer:
    """Flat in-memory span store with a stack of open spans."""

    def __init__(self):
        self.names = list(LAYER)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.useful_rows = 0          # adds that raised the echelon's rank
        self._stack = []

    def enter(self, name):
        idx = len(self.start)
        self.name.append(self._ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def exit(self, idx):
        self.end[idx] = perf_counter()
        # an exception raised by the deadline between enter and the
        # wrapped call can leave inner spans open; close them here
        while self._stack and self._stack.pop() != idx:
            pass

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            idx = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(idx)
        return traced

    def wrap_add(self, fn):
        """IntegerEchelon.add, counting the rows that raised the rank."""
        def traced(*args, **kwargs):
            idx = self.enter("linalg.add")
            try:
                grew = fn(*args, **kwargs)
            finally:
                self.exit(idx)
            if grew:
                self.useful_rows += 1
            return grew
        return traced

    def wrap_generator(self, fn, name):
        """One span per item drawn, so the generator's own work counts
        towards its layer and not towards the caller."""
        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                idx = self.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.exit(idx)
                yield item
        return traced

    def summary(self):
        """Per span name: (calls, inclusive seconds, self seconds), plus
        the set of span indices that have a structural.oracle child."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        oracle_id = self._ids["structural.oracle"]
        with_oracle = set()
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                if self.name[i] == oracle_id:
                    with_oracle.add(p)
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return out, with_oracle

    def hit_ratio(self, name, with_oracle):
        """Share of spans of this name that ran no oracle: cache hits."""
        nid = self._ids[name]
        calls = hits = 0
        for i in range(len(self.start)):
            if self.name[i] == nid:
                calls += 1
                hits += i not in with_oracle
        return hits / calls if calls else 0.0


@contextmanager
def patched(target, attr, value):
    """Temporarily replace target.attr."""
    old = getattr(target, attr)
    setattr(target, attr, value)
    try:
        yield
    finally:
        setattr(target, attr, old)


@contextmanager
def instrument(tracer, workloads_module):
    """Wrap every traced name for the duration of the block."""
    plan = [
        (structural, "biconnected_components", "decomposition.bct"),
        (structural, "decompose_links", "decomposition.tri_split"),
        (structural, "locate_agents", "agents.locate"),
        (structural, "has_disjoint_fan", "connectivity.fan"),
        (structural, "identifiable_links_bruteforce", "structural.oracle"),
        (structural.Structure, "rigid_pair_ok", "structural.rigid_check"),
        (structural.Structure, "block_oracle", "structural.block_oracle"),
        (sweep, "analyze", "structural.analyze"),
        (sweep, "identifiable_links_bruteforce", "sweep.oracle"),
        (sweep, "interior_identifiability_predicate",
         "connectivity.predicate"),
        (linalg.IntegerEchelon, "to_reduced", "linalg.reduce"),
        (linalg.IntegerEchelon, "nullspace_basis", "linalg.nullspace"),
        (workloads_module, "analyze", "structural.analyze"),
        (workloads_module, "Structure", "structural.structure"),
        (workloads_module, "exhaustive_sweep", "sweep.exhaustive"),
        (workloads_module, "oracle_analysis", "oracle.analysis"),
        (workloads_module, "verify_metric_recovery", "oracle.recovery"),
    ]
    with ExitStack() as stack:
        for target, attr, name in plan:
            stack.enter_context(patched(
                target, attr, tracer.wrap(getattr(target, attr), name)))
        stack.enter_context(patched(
            linalg.IntegerEchelon, "add",
            tracer.wrap_add(linalg.IntegerEchelon.add)))
        stack.enter_context(patched(
            sweep, "enumerate_all_connected_graphs",
            tracer.wrap_generator(sweep.enumerate_all_connected_graphs,
                                  "generators.enumerate")))
        yield tracer


def layer_metrics(tracer, passes, overhead_ratio):
    """Per-layer metrics, each per pass over the workload's inputs."""
    per, with_oracle = tracer.summary()
    k = max(passes, 1)

    def calls(name):
        return per[name][0] / k

    def inclusive(name):
        return per[name][1] / k

    def self_time(*names):
        return sum(per[name][2] for name in names) / k

    def layer_self(layer):
        return self_time(*(n for n, lay in LAYER.items() if lay == layer))

    adds = per["linalg.add"][0]
    useful = tracer.useful_rows / adds if adds else 0.0
    return {
        "decomposition.bct_s": (self_time("decomposition.bct"), "s"),
        "decomposition.tri_split_s": (self_time("decomposition.tri_split"),
                                      "s"),
        "decomposition.tri_split_calls": (calls("decomposition.tri_split"),
                                          "count"),
        "agents.locate_s": (self_time("agents.locate"), "s"),
        "agents.locate_calls": (calls("agents.locate"), "count"),
        "structural.self_s": (layer_self("structural"), "s"),
        "structural.analyze_calls": (calls("structural.analyze"), "count"),
        "structural.oracle_s": (inclusive("structural.oracle"), "s"),
        "structural.oracle_calls": (calls("structural.oracle"), "count"),
        "structural.rigid_check_calls": (calls("structural.rigid_check"),
                                         "count"),
        "structural.rigid_check_hit_ratio": (
            tracer.hit_ratio("structural.rigid_check", with_oracle),
            "ratio"),
        "structural.block_oracle_calls": (calls("structural.block_oracle"),
                                          "count"),
        "structural.block_oracle_hit_ratio": (
            tracer.hit_ratio("structural.block_oracle", with_oracle),
            "ratio"),
        "oracle.walk_s": (layer_self("oracle"), "s"),
        "oracle.rows_fed": (adds / k, "count"),
        "linalg.add_s": (self_time("linalg.add"), "s"),
        "linalg.useful_row_ratio": (useful, "ratio"),
        "linalg.reduce_s": (self_time("linalg.reduce"), "s"),
        "linalg.nullspace_s": (self_time("linalg.nullspace"), "s"),
        "connectivity.predicate_s": (self_time("connectivity.predicate"),
                                     "s"),
        "connectivity.fan_s": (self_time("connectivity.fan"), "s"),
        "sweep.oracle_s": (inclusive("sweep.oracle"), "s"),
        "sweep.self_s": (self_time("sweep.exhaustive"), "s"),
        "generators.enumerate_s": (self_time("generators.enumerate"), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
