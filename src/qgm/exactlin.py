"""Exact linear algebra over the rationals and the integers.

Everything in this module is exact: entries are Python ints or
``fractions.Fraction`` and no floating point is used anywhere.  It
provides the primitives the rest of the package is built on: rank,
unique solving, integer kernel lattices, and nonnegative-combination
(conic) feasibility.  Rank and unique solving reduce integer-scaled
rows fraction-free (``_int_row_reduce``); integer kernels are read off
the Hermite form (``_hermite_rows``); Smith normal form is only the
tests' reference route.  Conic feasibility is a two-phase simplex with
Bland's anti-cycling rule whose tableau rows are positive integer
multiples of the rational rows, so it takes the pivots of the rational
simplex and returns the same certificates.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm


class DimensionMismatch(ValueError):
    """Operands have incompatible dimensions."""


class ColumnRankDeficient(ValueError):
    """solve_unique was given a matrix whose columns are dependent."""


# The one syntax of rationals in text; the groups are the digit strings.
_INTEGER = re.compile(r"[-+]?([0-9]+)")
_RATIONAL = re.compile(_INTEGER.pattern + r"(?:/([0-9]+))?")


def _rat(x) -> Fraction:
    """The one reader of outside rationals: ints, Fractions and strings
    "n" or "p/q" of ASCII digits with an optional sign (_RATIONAL).
    Floats, bools, other types and every other string (decimals,
    exponents, blanks, underscores) are refused."""
    if isinstance(x, str):
        if not _RATIONAL.fullmatch(x):
            raise ValueError(f"exact rational expected, got {x!r}: not n or p/q")
    elif isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"exact rational expected, got {x!r}")
    return Fraction(x)


def _check_int(x) -> int:
    """The one reader of outside integers: never truncates, refuses bools."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"integer entry expected, got {x!r}")
    return x


class _Matrix:
    """Immutable dense matrix; a subclass fixes the entry reader."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        read = self._read
        data = tuple(tuple(read(x) for x in row) for row in entries)
        if data and any(len(r) != len(data[0]) for r in data):
            raise DimensionMismatch("ragged rows")
        self.entries = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0

    def row(self, i):
        return self.entries[i]

    def entry(self, i, j):
        return self.entries[i][j]

    def transpose(self):
        return type(self)(zip(*self.entries))

    def __eq__(self, other):
        return type(other) is type(self) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"{type(self).__name__}({self.rows}x{self.cols})"


class RatMatrix(_Matrix):
    """Immutable dense matrix with exact rational entries."""

    __slots__ = ()
    _read = staticmethod(_rat)


class IntMatrix(_Matrix):
    """Immutable dense matrix with arbitrary-precision integer entries."""

    __slots__ = ()
    _read = staticmethod(_check_int)


# ---------------------------------------------------------------------------
# rank and span tests (fraction-free integer elimination)

def _strip_content(row):
    g = gcd(*row)
    if g > 1:
        return [v // g for v in row]
    return row


def _int_row_reduce(rows):
    """Fraction-free row reduction of integer rows.

    Returns ``(rank, pivot_rows, pivot_cols)``.  Pivot selection:
    smallest absolute value, then lowest row index.  Pivot rows are
    divided by their content to curb coefficient growth; only exact
    integer operations are used.
    """
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    piv_rows, piv_cols = [], []
    r = 0
    for c in range(ncols):
        best = None
        bi = None
        for i in range(r, len(rows)):
            v = rows[i][c]
            if v:
                a = -v if v < 0 else v
                if best is None or a < best:
                    best, bi = a, i
        if bi is None:
            continue
        rows[r], rows[bi] = rows[bi], rows[r]
        prow = _strip_content(rows[r])
        rows[r] = prow
        p = prow[c]
        for i in range(r + 1, len(rows)):
            v = rows[i][c]
            if v:
                ri = rows[i]
                rows[i] = [p * a - v * b for a, b in zip(ri, prow)]
        piv_rows.append(prow)
        piv_cols.append(c)
        r += 1
    return r, piv_rows, piv_cols


def _reduce_against_pivots(vec, piv_rows, piv_cols):
    """Reduce an integer vector against pivot rows.

    The result is zero exactly when the vector lies in the rational row
    span of the pivots (each step rescales by the nonzero pivot, which
    preserves that property).
    """
    v = list(vec)
    for prow, c in zip(piv_rows, piv_cols):
        a = v[c]
        if a:
            p = prow[c]
            v = [p * x - a * y for x, y in zip(v, prow)]
    return v


def rank(m) -> int:
    """Rank over Q, computed by exact fraction-free elimination."""
    if isinstance(m, IntMatrix):
        return _int_row_reduce(m.entries)[0]
    if isinstance(m, RatMatrix):
        return _int_row_reduce([_int_row(row)[1] for row in m.entries])[0]
    raise TypeError("rank expects RatMatrix or IntMatrix")


# ---------------------------------------------------------------------------
# solving

def solve_unique(m, b):
    """Solve m*x = b for a matrix of full column rank.

    Returns the unique solution as a list of Fractions, or None when the
    system is inconsistent.  Raises ColumnRankDeficient when the columns
    are dependent (detected before consistency is decided).  The
    integer-scaled rows of [m | b] are reduced fraction-free; only the
    back-substitution divides.
    """
    if len(b) != m.rows:
        raise DimensionMismatch("right-hand side has wrong length")
    n = m.cols
    _r, piv_rows, piv_cols = _int_row_reduce(
        [_int_row(_exact_row(row + (v,)))[1] for row, v in zip(m.entries, b)])
    for c in range(n):
        if c not in piv_cols:
            raise ColumnRankDeficient(f"column {c} is dependent on earlier columns")
    if len(piv_cols) > n:  # a pivot in the right-hand side column
        return None
    x = [Fraction(0)] * n
    for c in reversed(range(n)):
        row = piv_rows[c]
        x[c] = (row[n] - sum(row[j] * x[j] for j in range(c + 1, n))) / Fraction(row[c])
    return x


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms

def _hermite_rows(rows):
    """Canonical row Hermite form of an integer row lattice.

    Pivots are positive, entries above a pivot are reduced into
    [0, pivot).  The output is the unique canonical basis of the lattice
    spanned by the input rows.
    """
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    n = len(rows[0])
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            while rows[i][c]:
                if abs(rows[i][c]) < abs(rows[r][c]):
                    rows[r], rows[i] = rows[i], rows[r]
                q = rows[i][c] // rows[r][c]
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
                else:
                    rows[r], rows[i] = rows[i], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-a for a in rows[r]]
        for j in range(r):
            q = rows[j][c] // rows[r][c]
            if q:
                rows[j] = [a - q * b for a, b in zip(rows[j], rows[r])]
        r += 1
    return rows[:r]


def smith_normal_form(m: IntMatrix):
    """Smith normal form with transforms: U*m*V = D.

    D is diagonal with a divisibility chain d1 | d2 | ..., and U, V are
    unimodular.  Pivot selection: smallest absolute value, then lowest
    (row, column) index.
    """
    if not isinstance(m, IntMatrix):
        raise TypeError("Smith normal form expects IntMatrix")
    nr, nc = m.rows, m.cols
    A = [list(row) for row in m.entries]
    U = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    V = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_sub(i, j, q):  # row_i -= q * row_j
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_sub(j, k, q):  # col_j -= q * col_k
        for row in A:
            row[j] -= q * row[k]
        for row in V:
            row[j] -= q * row[k]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(j, k):
        for row in A:
            row[j], row[k] = row[k], row[j]
        for row in V:
            row[j], row[k] = row[k], row[j]

    def row_neg(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    def move_block_min(t):
        # smallest nonzero |entry| of A[t:, t:] into position (t, t)
        best = None
        loc = None
        for i in range(t, nr):
            row = A[i]
            for j in range(t, nc):
                v = row[j]
                if v:
                    a = -v if v < 0 else v
                    if best is None or a < best:
                        best, loc = a, (i, j)
        if loc is None:
            return False
        if loc[0] != t:
            row_swap(t, loc[0])
        if loc[1] != t:
            col_swap(t, loc[1])
        if A[t][t] < 0:
            row_neg(t)
        return True

    def move_edge_min(t):
        # smallest nonzero |entry| of row t / column t beyond the pivot,
        # swapped into (t, t); False when the edging is already clear
        best = None
        loc = None
        for i in range(t + 1, nr):
            v = A[i][t]
            if v:
                a = -v if v < 0 else v
                if best is None or a < best:
                    best, loc = a, ("r", i)
        for j in range(t + 1, nc):
            v = A[t][j]
            if v:
                a = -v if v < 0 else v
                if best is None or a < best:
                    best, loc = a, ("c", j)
        if loc is None:
            return False
        if best < abs(A[t][t]):
            if loc[0] == "r":
                row_swap(t, loc[1])
            else:
                col_swap(t, loc[1])
            if A[t][t] < 0:
                row_neg(t)
        return True

    t = 0
    while t < min(nr, nc):
        if not move_block_min(t):
            break
        while True:
            # one balanced-quotient reduction pass over the edging; the
            # smallest surviving entry becomes the next pivot, so the
            # pivot strictly shrinks and the loop terminates
            p = A[t][t]
            half = p >> 1
            for i in range(t + 1, nr):
                if A[i][t]:
                    q = (A[i][t] + half) // p
                    if q:
                        row_sub(i, t, q)
            for j in range(t + 1, nc):
                if A[t][j]:
                    q = (A[t][j] + half) // p
                    if q:
                        col_sub(j, t, q)
            if not move_edge_min(t):
                p = A[t][t]
                offender = None
                for i in range(t + 1, nr):
                    row = A[i]
                    for j in range(t + 1, nc):
                        if row[j] % p:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                row_sub(t, offender, -1)  # row_t += row_offender
        t += 1
    return IntMatrix(U), IntMatrix(A), IntMatrix(V)


def integer_kernel_basis(m: IntMatrix):
    """Basis of the integer kernel lattice { v : m*v = 0 }.

    The rows (0 | v) of the Hermite form of [m^T | I] are the canonical
    Hermite basis of the kernel (Cohen, GTM 138, section 2.4), which is
    saturated (the quotient of Z^cols by it is torsion-free) and has
    primitive rows; the output is deterministic.
    """
    if not isinstance(m, IntMatrix):
        raise TypeError("integer_kernel_basis expects IntMatrix")
    n, r = m.cols, m.rows
    aug = [list(col) + [int(i == j) for j in range(n)]
           for i, col in enumerate(zip(*m.entries))]
    return [tuple(row[r:]) for row in _hermite_rows(aug) if not any(row[:r])]


# ---------------------------------------------------------------------------
# conic feasibility (fraction-free two-phase simplex, Bland's rule)
#
# The tableau holds integers only.  Row i is s_i times the row of the
# rational tableau the textbook simplex would hold, for some s_i > 0, and
# is kept divided by its content; its basic variable therefore has the
# coefficient s_i > 0, and its basic value is T[i][-1] / T[i][basis[i]].
# Signs, ratio comparisons and hence every pivot choice are those of the
# rational simplex, so the basis and the certificate are the same.

def _pivot(T, basis, r, c):
    prow = T[r]
    p = prow[c]
    if p < 0:
        prow = [-v for v in prow]
        p = -p
        T[r] = prow
    for i, row in enumerate(T):
        f = row[c]
        if f and i != r:
            T[i] = _strip_content([p * a - f * b for a, b in zip(row, prow)])
    basis[r] = c


def _bland_minimize(T, basis, ncols):
    """Run the simplex on a tableau whose last row holds reduced costs.

    Entering variable: lowest column index with negative reduced cost.
    Leaving variable: among the minimum-ratio rows, the one whose basic
    variable has the lowest index; ratios are compared by
    cross-multiplication.  Bland's rule guarantees termination.
    """
    m = len(T) - 1
    while True:
        obj = T[-1]
        e = next((j for j in range(ncols) if obj[j] < 0), None)
        if e is None:
            return
        leave = None
        for i in range(m):
            a = T[i][e]
            if a > 0:
                rhs = T[i][-1]
                if leave is None:
                    best_rhs, best_a, leave = rhs, a, i
                else:
                    lhs, cur = rhs * best_a, best_rhs * a
                    if lhs < cur or (lhs == cur and basis[i] < basis[leave]):
                        best_rhs, best_a, leave = rhs, a, i
        if leave is None:
            raise ArithmeticError("unbounded linear program")
        _pivot(T, basis, leave, e)


def _phase_one(rows, n):
    """Find a basic feasible solution of Ax = b, x >= 0.

    ``rows`` holds one ``(scale, [a_1, ..., a_n, b])`` pair per equation,
    the integer row being ``scale`` times the rational one (see
    ``_int_row``).  Returns (T, basis, n) restricted to the n original
    columns, or None when the system is infeasible.
    """
    m = len(rows)
    ncols = n + m
    T = []
    scale_lcm = 1
    for i, (s, row) in enumerate(rows):
        if row[-1] < 0:
            row = [-v for v in row]
        # the artificial variable of row i has the rational coefficient 1,
        # so its integer coefficient is the row's scale
        art = [0] * m
        art[i] = s
        T.append(row[:n] + art + [row[-1]])
        scale_lcm = lcm(scale_lcm, s)
    basis = list(range(n, ncols))
    # reduced costs of "minimize the sum of artificials", times scale_lcm
    obj = [0] * n + [scale_lcm] * m + [0]
    for (s, _row), trow in zip(rows, T):
        k = scale_lcm // s
        obj = [a - k * b for a, b in zip(obj, trow)]
    T.append(_strip_content(obj))
    _bland_minimize(T, basis, ncols)
    if T[-1][-1] != 0:  # optimum of sum of artificials is -T[-1][-1] / scale
        return None
    T.pop()
    # drive artificial variables out of the basis, dropping redundant rows
    i = 0
    while i < len(T):
        if basis[i] >= n:
            c = next((j for j in range(n) if T[i][j] != 0), None)
            if c is None:
                T.pop(i)
                basis.pop(i)
                continue
            _pivot(T, basis, i, c)
        i += 1
    T = [_strip_content(row[:n] + [row[-1]]) for row in T]
    return T, basis, n


def _exact_row(row):
    """The entries of row, kept as ints when they all are, else as
    Fractions (floats are rejected)."""
    row = tuple(row)
    if set(map(type, row)) <= {int}:
        return row
    return tuple(_rat(v) for v in row)


def _int_row(vals):
    """``(s, ints)`` with ``ints == s * vals`` and ``s`` the least common
    denominator of the exact (int or Fraction) entries of vals."""
    if set(map(type, vals)) <= {int}:
        return 1, list(vals)
    s = lcm(*(v.denominator for v in vals))
    return s, [v.numerator * (s // v.denominator) for v in vals]


def _checked_input(generators, target):
    target = _exact_row(target)
    gens = [_exact_row(g) for g in generators]
    d = len(target)
    for g in gens:
        if len(g) != d:
            raise DimensionMismatch("generator/target dimension mismatch")
    return gens, target


def conic_feasible(generators, target):
    """Nonnegative rational coefficients writing target over the generators.

    Returns a list of Fraction coefficients c with
    sum(c_i * gen_i) == target, or None when target is outside the cone.
    Exact rational feasibility with a deterministic anti-cycling pivot
    rule; always terminates.
    """
    gens, target = _checked_input(generators, target)
    n = len(gens)
    rows = [_int_row([g[i] for g in gens] + [t]) for i, t in enumerate(target)]
    res = _phase_one(rows, n)
    if res is None:
        return None
    T, basis, _n = res
    x = [Fraction(0)] * n
    for row, bv in zip(T, basis):
        x[bv] = Fraction(row[-1], row[bv])
    # re-verify the certificate by multiplication, over its common
    # denominator
    den = lcm(*(v.denominator for v in x))
    scaled = [(g, v.numerator * (den // v.denominator)) for g, v in zip(gens, x) if v]
    for i, t in enumerate(target):
        if sum(k * g[i] for g, k in scaled) != den * t:
            raise ArithmeticError("simplex returned an invalid certificate")
    return x


def strictly_conic_feasible(generators, target, ambient_rank=None):
    """Interior test for the cone of the generators.

    True exactly when target admits a representation with all
    coefficients strictly positive and the generators span the ambient
    space.  The ambient dimension defaults to the length of target; a
    caller holding the weights of a fixed torus action passes the rank
    of the full weight matrix instead.
    """
    gens, target = _checked_input(generators, target)
    if ambient_rank is None:
        ambient_rank = len(target)
    if _int_row_reduce([_int_row(g)[1] for g in gens])[0] != ambient_rank:
        return False
    n = len(gens)
    # maximize eps subject to  G d + eps * ssum = target,  eps <= 1
    rows = []
    for i, t in enumerate(target):
        col = [g[i] for g in gens]
        rows.append(_int_row(col + [sum(col), 0, t]))
    rows.append((1, [0] * n + [1, 1, 1]))
    res = _phase_one(rows, n + 2)
    if res is None:
        return False
    T, basis, ncols = res
    obj = [0] * (ncols + 1)
    obj[n] = -1  # maximize eps == minimize -eps
    for row, bv in zip(T, basis):
        f = obj[bv]
        if f:
            s = row[bv]
            obj = _strip_content([s * a - f * b for a, b in zip(obj, row)])
    T.append(obj)
    _bland_minimize(T, basis, ncols)
    T.pop()
    return any(bv == n and row[-1] > 0 for row, bv in zip(T, basis))
