"""Closed-loop query runner, per-query deadline and end-to-end arithmetic.

One client, one thread: each query starts only after the previous one
has returned. A query is timed from the call into the library until it
returns; checking its output happens outside that interval. The
deadline is a SIGALRM timer set from this process, so no helper thread
or process is started.
"""

from __future__ import annotations

import math
import signal
from dataclasses import dataclass, field
from time import perf_counter

from linkident import LinkIdentError


class DeadlineExceeded(Exception):
    """A query ran past its deadline."""


class Deadline:
    """Interrupts a query that runs longer than the given seconds.

    The alarm raises only while a query is armed, so a signal that
    lands just after the query returned is ignored.
    """

    def __init__(self, seconds):
        self.seconds = seconds
        self.armed = False
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        return self

    def __exit__(self, *exc):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame):
        if self.armed:
            self.armed = False
            raise DeadlineExceeded(f"query exceeded {self.seconds} s")

    def call(self, fn):
        """Run fn() under the deadline. Returns (result, seconds)."""
        try:
            self.armed = True
            signal.setitimer(signal.ITIMER_REAL, self.seconds)
            t0 = perf_counter()
            out = fn()
            return out, perf_counter() - t0
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class Query:
    """One unit of closed-loop work.

    call() drives the public API and returns its output fully built;
    check(output) says whether that output is the expected one.
    instances is the number of (graph, monitor pair) instances the
    query answers. known_failure names the exception type the query
    is recorded to raise at the commit that defined the benchmark.
    samples, when set, turns the query's duration into sample_count
    latency samples (the exhaustive sweep reports one per graph).
    """

    label: str
    call: object
    check: object
    instances: int = 1
    known_failure: str | None = None
    samples: object = None
    sample_count: int = 1


@dataclass
class Tally:
    """Everything the end-to-end metrics are computed from."""

    attempted: int = 0            # instances
    failed: int = 0               # instances of failed queries
    queries: int = 0
    busy_s: float = 0.0           # summed query time
    latencies: list = field(default_factory=list)   # seconds; inf = failed
    errors: dict = field(default_factory=dict)      # error type -> count
    unexpected: list = field(default_factory=list)  # labels and reasons

    @property
    def correct(self):
        """No wrong output and no failure other than a known one."""
        return not self.unexpected

    def record_failure(self, query, kind):
        self.failed += query.instances
        self.errors[kind] = self.errors.get(kind, 0) + 1
        self.latencies.extend([math.inf] * query.sample_count)
        if kind != query.known_failure:
            self.unexpected.append(f"{query.label}: {kind}")


def run_query(query, deadline, tally):
    """Time one query, check its output and account for it."""
    tally.queries += 1
    tally.attempted += query.instances
    t0 = perf_counter()
    try:
        out, seconds = deadline.call(query.call)
    except (LinkIdentError, RecursionError, DeadlineExceeded) as exc:
        tally.busy_s += perf_counter() - t0
        tally.record_failure(query, type(exc).__name__)
        return
    tally.busy_s += seconds
    samples = query.samples(seconds) if query.samples else [seconds]
    if not query.check(out):
        tally.record_failure(query, "WrongOutput")
        return
    tally.latencies.extend(samples)


def run_pass(queries, deadline, tally, hard_stop):
    """One pass over queries; False if hard_stop (a perf_counter value)
    cut it short."""
    for q in queries:
        if perf_counter() > hard_stop:
            return False
        run_query(q, deadline, tally)
    return True


def repeat(one_pass, seconds, hard_stop, enough=None):
    """Call one_pass() for about the given seconds; returns the number
    of passes it completed.

    Runs are made of whole passes, so every run weighs each input
    equally. A further pass starts while enough() is false, or if it is
    expected to end nearer the target than stopping now would; at least
    one pass always runs.
    """
    start = perf_counter()
    passes = 0
    while one_pass():
        passes += 1
        now = perf_counter()
        if now > hard_stop:
            break
        elapsed = now - start
        if (elapsed + elapsed / passes / 2 >= seconds
                and (enough is None or enough())):
            break
    return passes


def percentile(samples, q):
    """Nearest-rank q-th percentile (0 < q <= 100) of a non-empty list."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def end_to_end(tally, setup_s, peak_rss_mb, deadline_s):
    """The end-to-end metrics of one untraced run.

    A failed query ranks above every completed one; when a percentile
    lands on a failure it reads as the deadline, the limit every
    failure is held to exceed.
    """
    ok = tally.attempted - tally.failed

    def ms(q):
        v = percentile(tally.latencies, q)
        return 1000.0 * (deadline_s if math.isinf(v) else v)

    return {
        "setup_s": (setup_s, "s"),
        "instances_per_s": (ok / tally.busy_s, "1/s"),
        "latency_p50_ms": (ms(50), "ms"),
        "latency_p90_ms": (ms(90), "ms"),
        "ok_ratio": (ok / tally.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
