"""Exact integer linear algebra for the measurement system.

The oracle needs three exact questions answered about a 0/1 matrix M
whose rows are path incidence vectors:

  * is a unit vector e_l in the row space of M,
  * what value does a consistent system M x = c force onto x_l,
  * a nullspace vector witnessing that x_l is not forced.

Everything here is integer or Fraction arithmetic; no floats. The
state is not the rows of M but an integer basis of its nullspace
{x : M x = 0}, as sparse vectors. A row lies in the row space exactly
when its dot product with every basis vector is 0, so a row that adds
nothing to the span (most path rows) costs one short dot product per
basis vector and changes nothing. Only a row that raises the rank
touches the basis: it is cleared from the later basis vectors by
fraction-free cross-multiplication and a gcd squeeze. The basis is
kept in a form that is canonical up to scale, so the reduced nullspace
basis is read off it without any elimination pass.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from .errors import InconsistentSystem


def _squeeze(vec):
    """Divide a {column: int} vector by the gcd of its entries."""
    g = gcd(*vec.values())
    if g != 1:
        vec = {j: x // g for j, x in vec.items()}
    return vec


def _dots(row, vecs):
    """Dot products of an integer row (a list) with sparse vectors."""
    # plain loops: before Python 3.12 a comprehension is a function
    # call, which costs more than the few entries most vectors hold
    dots = []
    for v in vecs:
        s = 0
        for j, x in v.items():
            s += x * row[j]
        dots.append(s)
    return dots


def _split(rhs):
    """(numerator, denominator) of a right-hand side; None counts as 0."""
    if rhs is None:
        return 0, 1
    if not isinstance(rhs, (int, Fraction)):
        rhs = Fraction(rhs)
    return rhs.numerator, rhs.denominator


class IntegerEchelon:
    """Streaming exact rank and span tests, with optional right-hand sides.

    Rows are integer lists of a fixed width. The state is a basis of
    the nullspace of the rows added so far: one sparse {column: int}
    vector per free column f, in order of f, starting from the
    identity. The vector of f is nonzero at f, zero at every other free
    column, and otherwise nonzero only at pivot columns below f.
    Divided by its entry at f, it is the nullspace vector that reduced
    row echelon form gives for f.

    add() reports whether a row enlarged the span. A row whose dot
    product with every vector is 0 is already in the span. Otherwise
    the first vector with a nonzero product is the pivot: its free
    column becomes a pivot column, it leaves the basis, and each later
    vector with a nonzero product b is replaced by a * vec - b * pivot
    (a the pivot's product), divided by the gcd of its entries. That
    keeps the layout above, since the pivot is zero at every later free
    column and its other entries lie below them.

    When carry_rhs is true, the echelon also keeps the one solution of
    the rows so far that is 0 on every free column, as integer
    numerators over one common denominator. A row that raises the rank
    moves it along the pivot vector until it meets that row too; a row
    already in the span must agree with it, or the system is marked
    inconsistent.
    """

    __slots__ = ("ncols", "null", "free", "carry_rhs", "num", "den",
                 "inconsistent", "_support")

    def __init__(self, ncols, carry_rhs=False):
        self.ncols = ncols
        self.null = [{j: 1} for j in range(ncols)]
        self.free = list(range(ncols))   # free column of each vector
        self.carry_rhs = carry_rhs
        self.num = [0] * ncols if carry_rhs else None
        self.den = 1
        self.inconsistent = False
        self._support = None    # columns some vector touches, cached

    @property
    def rank(self):
        return self.ncols - len(self.null)

    def add(self, row, rhs=None):
        """Add one row (list of ints) to the system.

        Returns True when the row increased the rank. A row in the span
        whose right-hand side disagrees with the rows before it marks
        the system inconsistent. The row is only read, never kept, so a
        caller may change the same list in place and add it again.
        """
        null = self.null
        dots = _dots(row, null)
        for i, a in enumerate(dots):
            if a:
                break
        else:
            if self.carry_rhs and not self.inconsistent:
                rn, rd = _split(rhs)
                if self._value(row) * rd != rn * self.den:
                    self.inconsistent = True
            return False
        pivot = null[i]
        for k in range(i + 1, len(dots)):
            b = dots[k]
            if b:
                vec = null[k].copy()
                for j in vec:
                    vec[j] *= a
                for j, y in pivot.items():
                    z = vec.get(j, 0) - b * y
                    if z:
                        vec[j] = z
                    else:
                        del vec[j]
                null[k] = _squeeze(vec)
        del null[i], self.free[i]
        if self.carry_rhs:
            self._meet(row, rhs, a, pivot)
        self._support = None
        return True

    def _value(self, row):
        """row . num, the row's value at the carried solution times den."""
        return sum(map(mul, row, self.num))

    def _meet(self, row, rhs, a, pivot):
        """Move the carried solution along pivot until it meets row.

        pivot is orthogonal to every earlier row and zero at every
        remaining free column, so the earlier rows stay met and the
        solution stays 0 on the free columns.
        """
        rn, rd = _split(rhs)
        den = self.den
        gap = rn * den - self._value(row) * rd
        if not gap:
            return
        # num/den + gap / (den * rd * a) * pivot, where row . pivot = a
        scale = rd * a
        num = [scale * x for x in self.num]
        for j, y in pivot.items():
            num[j] += gap * y
        den *= scale
        g = gcd(den, *num)
        if g != 1:
            den //= g
            num = [x // g for x in num]
        self.num, self.den = num, den

    def in_span(self, vec):
        """Exact membership of an integer vector in the row space."""
        return not any(_dots(vec, self.null))

    def unit_in_span(self, col):
        """Is the unit vector for this column in the row space?"""
        if self._support is None:
            self.to_reduced()
        return col not in self._support

    # -- reduced form ---------------------------------------------------

    def to_reduced(self):
        """Collect and return the columns some nullspace vector touches.

        e_col is in the row space exactly when no vector touches col.
        unit_in_span calls it when no set is cached: before the first
        query and after each row that raises the rank. The set is the
        cache itself, so callers must not change it.
        """
        self._support = set().union(*self.null)
        return self._support

    def unit_value(self, col, scale=1):
        """Value forced onto coordinate col by the carried system,
        divided by scale, as one Fraction.

        Only meaningful when unit_in_span(col) holds and right-hand
        sides were carried.
        """
        if self.inconsistent:
            raise InconsistentSystem("system has no exact solution")
        return Fraction(self.num[col], self.den * scale)

    def particular_solution(self):
        """One exact solution of the carried system (free coords 0)."""
        if self.inconsistent:
            raise InconsistentSystem("system has no exact solution")
        return [Fraction(x, self.den) for x in self.num]

    def nullspace_basis(self):
        """The canonical basis of {x : M x = 0}, as Fraction vectors.

        One vector per free column f, in order of f: 1 at f and 0 at
        every other free column. It is unique for a given row space;
        each is a tracked vector divided by its entry at f.
        """
        zero = Fraction(0)
        basis = []
        for f, vec in zip(self.free, self.null):
            x = [zero] * self.ncols
            for j, y in vec.items():
                x[j] = Fraction(y, vec[f])
            basis.append(x)
        return basis
