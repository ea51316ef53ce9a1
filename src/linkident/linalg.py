"""Exact integer linear algebra for the measurement system.

The oracle needs three exact questions answered about a 0/1 matrix M
whose rows are path incidence vectors:

  * is a unit vector e_l in the row space of M,
  * what value does a consistent system M x = c force onto x_l,
  * a nullspace vector witnessing that x_l is not forced.

Everything here is integer or Fraction arithmetic; no floats. Rows are
reduced incrementally (fraction-free cross-multiplication, then a gcd
squeeze per row) so intermediate entries stay near minor size, and a
reduced echelon pass at the end makes every unit-vector membership test
a constant-time row inspection.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd

from .errors import InconsistentSystem


def _squeeze(row):
    """Divide out the gcd and make the leading entry positive.

    Returns (row, divisor) where divisor is the signed integer the row
    was divided by, or (None, 0) for a zero row.
    """
    g = 0
    lead = -1
    for j, x in enumerate(row):
        if x:
            if lead < 0:
                lead = j
            g = gcd(g, x)
    if lead < 0:
        return None, 0
    if row[lead] < 0:
        g = -g
    if g != 1:
        row = [x // g for x in row]
    return row, g


class IntegerEchelon:
    """Streaming exact row reduction with optional right-hand sides.

    Rows are integer lists of a fixed width. add() folds each new row
    into an echelon basis and reports whether it enlarged the span.
    When carry_rhs is true, each row drags a Fraction right-hand side
    through the same operations, which is what makes exact value
    recovery and consistency checking possible.
    """

    __slots__ = ("ncols", "rows", "cols", "rhs", "carry_rhs",
                 "inconsistent", "_rref_done")

    def __init__(self, ncols, carry_rhs=False):
        self.ncols = ncols
        self.rows = []          # echelon rows, parallel to cols
        self.cols = []          # sorted pivot column of each row
        self.rhs = [] if carry_rhs else None
        self.carry_rhs = carry_rhs
        self.inconsistent = False
        self._rref_done = True

    @property
    def rank(self):
        return len(self.rows)

    @property
    def full_column_rank(self):
        return len(self.rows) == self.ncols

    def _fold(self, row, rhs):
        """Reduce row against the current basis. Returns (row, rhs,
        lead) with lead -1 for a fully reduced (zero) row."""
        cols = self.cols
        rows = self.rows
        rhss = self.rhs
        for i, c in enumerate(cols):
            a = row[c]
            if a:
                p = rows[i]
                pc = p[c]
                row = [pc * x - a * y for x, y in zip(row, p)]
                if rhs is not None:
                    rhs = pc * rhs - a * rhss[i]
        row, g = _squeeze(row)
        if row is None:
            return None, rhs, -1
        if rhs is not None:
            rhs = rhs / g
        return row, rhs, next(j for j, x in enumerate(row) if x)

    def add(self, row, rhs=None):
        """Fold one row (list of ints) into the basis.

        Returns True when the row increased the rank. A zero reduction
        with a nonzero right-hand side marks the system inconsistent.
        """
        if self.carry_rhs:
            rhs = Fraction(rhs if rhs is not None else 0)
        else:
            rhs = None
        row, rhs, lead = self._fold(list(row), rhs)
        if lead < 0:
            if rhs is not None and rhs != 0:
                self.inconsistent = True
            return False
        at = bisect_left(self.cols, lead)
        self.cols.insert(at, lead)
        self.rows.insert(at, row)
        if self.rhs is not None:
            self.rhs.insert(at, rhs)
        self._rref_done = False
        return True

    def in_span(self, vec):
        """Exact membership of an integer vector in the row space."""
        rhs = Fraction(0) if self.carry_rhs else None
        _, _, lead = self._fold(list(vec), rhs)
        return lead < 0

    # -- reduced form ---------------------------------------------------

    def to_reduced(self):
        """Back-eliminate so every pivot column is zero in other rows.

        Idempotent; unit membership and value reads require it.
        """
        if self._rref_done:
            return
        rows = self.rows
        cols = self.cols
        rhss = self.rhs
        for i in range(len(rows) - 1, 0, -1):
            c = cols[i]
            p = rows[i]
            pc = p[c]
            for j in range(i):
                a = rows[j][c]
                if a:
                    q = [pc * x - a * y for x, y in zip(rows[j], p)]
                    q, g = _squeeze(q)
                    rows[j] = q
                    if rhss is not None:
                        rhss[j] = (pc * rhss[j] - a * rhss[i]) / g
        self._rref_done = True

    def unit_in_span(self, col):
        """Is the unit vector for this column in the row space?"""
        self.to_reduced()
        at = bisect_left(self.cols, col)
        if at == len(self.cols) or self.cols[at] != col:
            return False
        row = self.rows[at]
        return all(x == 0 for j, x in enumerate(row) if j != col)

    def unit_value(self, col):
        """Value forced onto coordinate col by the carried system.

        Only meaningful when unit_in_span(col) holds and right-hand
        sides were carried.
        """
        if self.inconsistent:
            raise InconsistentSystem("system has no exact solution")
        self.to_reduced()
        at = bisect_left(self.cols, col)
        return self.rhs[at] / self.rows[at][col]

    def particular_solution(self):
        """One exact solution of the carried system (free coords 0)."""
        if self.inconsistent:
            raise InconsistentSystem("system has no exact solution")
        self.to_reduced()
        x = [Fraction(0)] * self.ncols
        for i, c in enumerate(self.cols):
            x[c] = self.rhs[i] / self.rows[i][c]
        return x

    def nullspace_basis(self):
        """Fraction vectors spanning {x : M x = 0}, one per free column."""
        self.to_reduced()
        pivot = set(self.cols)
        basis = []
        for f in range(self.ncols):
            if f in pivot:
                continue
            x = [Fraction(0)] * self.ncols
            x[f] = Fraction(1)
            for i, c in enumerate(self.cols):
                a = self.rows[i][f]
                if a:
                    x[c] = Fraction(-a, self.rows[i][c])
            basis.append(x)
        return basis
