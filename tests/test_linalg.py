"""Exact echelon arithmetic against hand cases, a plain Fraction
Gaussian elimination and the row-folding ReferenceEchelon."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from linkident import (
    InconsistentSystem,
    IntegerEchelon,
    enumerate_all_connected_graphs,
    enumerate_simple_paths,
    grid,
    linalg,
)
from linkident.oracle import build_measurement_matrix

from helpers import ReferenceEchelon


def fraction_rank(rows):
    """Reference rank by textbook Gaussian elimination over Fractions."""
    work = [[Fraction(x) for x in row] for row in rows if any(row)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while work and col < ncols:
        pivot = next((i for i in range(rank, len(work)) if work[i][col]),
                     None)
        if pivot is None:
            col += 1
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank][col]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col] / lead
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
        col += 1
    return rank


def test_triangle_measurement_rows():
    ech = IntegerEchelon(3)
    assert ech.add([1, 0, 0])
    assert ech.add([0, 1, 1])
    assert ech.rank == 2
    assert ech.unit_in_span(0)
    assert not ech.unit_in_span(1)
    assert not ech.unit_in_span(2)
    assert ech.in_span([1, 1, 1])
    assert not ech.in_span([0, 1, 0])


def test_redundant_row_changes_nothing():
    ech = IntegerEchelon(3)
    ech.add([1, 0, 0])
    ech.add([0, 1, 1])
    before = [ech.unit_in_span(j) for j in range(3)]
    assert not ech.add([1, 1, 1])
    assert ech.rank == 2
    assert [ech.unit_in_span(j) for j in range(3)] == before


def test_rhs_carry_and_unit_value():
    ech = IntegerEchelon(3, carry_rhs=True)
    ech.add([1, 0, 0], Fraction(1))
    ech.add([0, 1, 1], Fraction(5, 6))
    assert ech.unit_value(0) == 1
    x = ech.particular_solution()
    assert x[0] == 1 and x[1] + x[2] == Fraction(5, 6)


def test_inconsistent_system_detected():
    ech = IntegerEchelon(2, carry_rhs=True)
    ech.add([1, 0], 1)
    assert not ech.add([1, 0], 2)
    assert ech.inconsistent
    with pytest.raises(InconsistentSystem):
        ech.unit_value(0)
    with pytest.raises(InconsistentSystem):
        ech.particular_solution()


def test_nullspace_of_triangle_rows():
    ech = IntegerEchelon(3)
    ech.add([1, 0, 0])
    ech.add([0, 1, 1])
    basis = ech.nullspace_basis()
    assert len(basis) == 1
    (v,) = basis
    assert v[0] == 0 and v[1] == -v[2] != 0


def test_full_column_rank_identifies_everything():
    ech = IntegerEchelon(2)
    ech.add([1, 1])
    assert ech.rank == 1
    ech.add([0, 1])
    assert ech.rank == 2
    assert ech.unit_in_span(0) and ech.unit_in_span(1)
    assert ech.nullspace_basis() == []


def test_membership_via_in_span_matches_unit_query():
    ech = IntegerEchelon(4)
    for row in ([1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]):
        ech.add(row)
    for j in range(4):
        unit = [1 if i == j else 0 for i in range(4)]
        assert ech.unit_in_span(j) == ech.in_span(unit)


def assert_same_as_reference(ncols, rows, rhss=None, probes=(),
                             each_step=False, live=False):
    """Feed rows (and right-hand sides, when given) to IntegerEchelon and
    to ReferenceEchelon, and compare every answer the two give: after
    the last row, and with each_step also the span after each. With
    live, IntegerEchelon gets every row as one list overwritten in
    place, which is scrambled once the last row is in."""
    carry = rhss is not None
    ech = IntegerEchelon(ncols, carry_rhs=carry)
    ref = ReferenceEchelon(ncols, carry_rhs=carry)
    feed = [0] * ncols
    for k, row in enumerate(rows):
        rhs = rhss[k] if carry else None
        if live:
            feed[:] = row
        assert ech.add(feed if live else row, rhs) == ref.add(row, rhs)
        assert ech.rank == ref.rank
        assert ech.inconsistent == ref.inconsistent
        if each_step:
            assert ech.nullspace_basis() == ref.nullspace_basis()
            assert [ech.unit_in_span(j) for j in range(ncols)] \
                == [ref.unit_in_span(j) for j in range(ncols)]
    feed[:] = [7] * ncols
    units = [ech.unit_in_span(j) for j in range(ncols)]
    assert units == [ref.unit_in_span(j) for j in range(ncols)]
    for vec in list(rows) + list(probes):
        assert ech.in_span(vec) == ref.in_span(vec)
    assert ech.nullspace_basis() == ref.nullspace_basis()
    if carry:
        if ref.inconsistent:
            for query in (ech.particular_solution,
                          lambda: ech.unit_value(0)):
                with pytest.raises(InconsistentSystem):
                    query()
        else:
            assert ech.particular_solution() == ref.particular_solution()
            for j in range(ncols):
                if units[j]:
                    assert ech.unit_value(j) == ref.unit_value(j)


def test_against_fraction_gauss_on_random_matrices():
    for case in range(150):
        rng = random.Random(9200 + case)
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 7)
        rows = [[rng.randint(-2, 2) for _ in range(ncols)]
                for _ in range(nrows)]
        ech = IntegerEchelon(ncols)
        grew = sum(1 for row in rows if ech.add(row))
        want = fraction_rank(rows) if any(any(r) for r in rows) else 0
        assert ech.rank == want == grew
        # unit membership must match the rank test on the stacked matrix
        for j in range(ncols):
            unit = [1 if i == j else 0 for i in range(ncols)]
            stacked = rows + [unit]
            member = fraction_rank(stacked) == want if want else False
            assert ech.unit_in_span(j) == member
        # every nullspace vector annihilates every input row
        basis = ech.nullspace_basis()
        assert len(basis) == ncols - ech.rank
        for vec in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0
        # and every answer equals the row-folding reference's, without
        # right-hand sides, with consistent ones, and with random ones
        # (mostly inconsistent once a row repeats the span)
        units = [[1 if i == j else 0 for i in range(ncols)]
                 for j in range(ncols)]
        probes = units + [[rng.randint(-3, 3) for _ in range(ncols)]
                          for _ in range(5)]
        truth = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                 for _ in range(ncols)]
        sums = [sum(t * x for t, x in zip(truth, row)) for row in rows]
        noisy = [rng.choice((rng.randint(-5, 5), Fraction(1, 3)))
                 for _ in rows]
        assert_same_as_reference(ncols, rows, probes=probes, each_step=True)
        assert_same_as_reference(ncols, rows, sums, probes, each_step=True)
        assert_same_as_reference(ncols, rows, noisy, probes)


def wider_and_repeating_systems():
    """(ncols, rows, rhss) with wider rows, larger entries and rows
    repeated with a wrong right-hand side, so inconsistency strikes in
    mid-stream."""
    for case in range(200):
        rng = random.Random(4400 + case)
        ncols = rng.randint(1, 10)
        span = rng.choice((1, 5))
        lo = 0 if span == 1 else -span
        rows = [[rng.randint(lo, span) for _ in range(ncols)]
                for _ in range(rng.randint(1, 12))]
        for _ in range(rng.randint(0, 3)):
            a, b = rng.choice(rows), rng.choice(rows)
            rows.insert(rng.randint(0, len(rows)),
                        [x + 2 * y for x, y in zip(a, b)])
        truth = [Fraction(rng.randint(1, 20), rng.randint(1, 6))
                 for _ in range(ncols)]
        rhss = [sum(t * x for t, x in zip(truth, row)) for row in rows]
        if case % 3 == 0:
            at = rng.randrange(len(rhss))
            rhss[at] += Fraction(1, 7)
        yield ncols, rows, rhss


def test_matches_reference_on_wider_and_repeating_systems():
    for ncols, rows, rhss in wider_and_repeating_systems():
        assert_same_as_reference(ncols, rows, rhss)


def test_add_keeps_no_reference_to_the_row():
    """One list overwritten in place before every add, as the oracle
    feeds its live row, gives the answers of fresh rows at every step
    and after the list is scrambled."""
    for ncols, rows, rhss in wider_and_repeating_systems():
        assert_same_as_reference(ncols, rows, each_step=True, live=True)
        assert_same_as_reference(ncols, rows, rhss, each_step=True,
                                 live=True)


def test_matches_reference_on_every_small_path_matrix():
    """Path matrices of every connected graph on 2..5 nodes, for every
    ordered monitor pair, with seeded rational metrics."""
    systems = 0
    for n in range(2, 6):
        for index, g in enumerate(enumerate_all_connected_graphs(n)):
            rng = random.Random(n * 10_000 + index)
            g = g.with_metrics({eid: Fraction(rng.randint(1, 9),
                                              rng.randint(1, 9))
                                for eid in g.links})
            for m1, m2 in permutations(g.nodes, 2):
                inst = g.with_monitors(m1, m2)
                system = build_measurement_matrix(
                    enumerate_simple_paths(inst), inst)
                assert_same_as_reference(g.m, system.matrix, system.rhs)
                systems += 1
    assert systems == 2 + 6 * 4 + 12 * 38 + 20 * 728


def test_redundant_paths_cost_no_elimination(monkeypatch):
    """Every corner-to-corner path of the 5x5 grid: a row already in
    the span is settled by dot products alone, so the vector squeezes
    (one per elimination) stay within ncols**2 over all 8,512 rows."""
    g = grid(5, 5).with_monitors(0, 24)
    rows = build_measurement_matrix(enumerate_simple_paths(g), g).matrix
    assert (len(rows), g.m) == (8512, 40)
    calls = 0
    squeeze = linalg._squeeze

    def counted(*args):
        nonlocal calls
        calls += 1
        return squeeze(*args)

    monkeypatch.setattr(linalg, "_squeeze", counted)
    ech = IntegerEchelon(g.m)
    for row in rows:
        ech.add(row)
    assert calls <= g.m ** 2
    assert ech.rank == sum(map(ReferenceEchelon(g.m).add, rows))


def test_solution_respects_all_equations():
    rng = random.Random(77)
    for _ in range(40):
        ncols = rng.randint(1, 5)
        truth = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                 for _ in range(ncols)]
        ech = IntegerEchelon(ncols, carry_rhs=True)
        rows = []
        for _ in range(rng.randint(1, 6)):
            row = [rng.randint(0, 1) for _ in range(ncols)]
            rows.append(row)
            ech.add(row, sum(t for t, x in zip(truth, row) if x))
        assert not ech.inconsistent
        x = ech.particular_solution()
        for row in rows:
            want = sum(t for t, c in zip(truth, row) if c)
            assert sum(v for v, c in zip(x, row) if c) == want
