"""Test-only oracle: the two-phase simplex over a Fraction tableau.

This is the rational simplex that ``qgm.exactlin`` ran before it moved
to a fraction-free integer tableau.  It pivots the same way (Bland's
rule, the same phase-one set-up, the same artificial drive-out), so the
integer simplex must return exactly its certificates and verdicts.  It
is slow and lives here only to check ``exactlin`` against it.
"""

from fractions import Fraction

from qgm.exactlin import DimensionMismatch, RatMatrix, _rat, rank


def _pivot(T, basis, r, c):
    piv = T[r][c]
    T[r] = [v / piv for v in T[r]]
    prow = T[r]
    for i in range(len(T)):
        if i != r and T[i][c]:
            f = T[i][c]
            T[i] = [a - f * b for a, b in zip(T[i], prow)]
    basis[r] = c


def _bland_minimize(T, basis, ncols):
    m = len(T) - 1
    while True:
        obj = T[-1]
        e = next((j for j in range(ncols) if obj[j] < 0), None)
        if e is None:
            return
        best = None
        leave = None
        for i in range(m):
            a = T[i][e]
            if a > 0:
                ratio = T[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise ArithmeticError("unbounded linear program")
        _pivot(T, basis, leave, e)


def _phase_one(arows, b):
    m = len(arows)
    n = len(arows[0]) if m else 0
    T = []
    for i in range(m):
        row = [_rat(v) for v in arows[i]]
        rhs = _rat(b[i])
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        T.append(row + art + [rhs])
    ncols = n + m
    basis = list(range(n, ncols))
    obj = [Fraction(0)] * (ncols + 1)
    for j in range(n, ncols):
        obj[j] = Fraction(1)
    for i in range(m):
        obj = [a - b2 for a, b2 in zip(obj, T[i])]
    T.append(obj)
    _bland_minimize(T, basis, ncols)
    if T[-1][-1] != 0:
        return None
    T.pop()
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
    T = [row[:n] + [row[-1]] for row in T]
    return T, basis, n


def conic_feasible(generators, target):
    target = tuple(_rat(x) for x in target)
    d = len(target)
    gens = [tuple(_rat(x) for x in g) for g in generators]
    for g in gens:
        if len(g) != d:
            raise DimensionMismatch("generator/target dimension mismatch")
    n = len(gens)
    arows = [[gens[j][i] for j in range(n)] for i in range(d)]
    res = _phase_one(arows, target)
    if res is None:
        return None
    T, basis, _n = res
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        x[bv] = T[i][-1]
    return x


def strictly_conic_feasible(generators, target, ambient_rank=None):
    target = tuple(_rat(x) for x in target)
    d = len(target)
    gens = [tuple(_rat(x) for x in g) for g in generators]
    for g in gens:
        if len(g) != d:
            raise DimensionMismatch("generator/target dimension mismatch")
    if ambient_rank is None:
        ambient_rank = d
    if rank(RatMatrix(gens) if gens else RatMatrix([])) != ambient_rank:
        return False
    n = len(gens)
    ssum = [sum(g[i] for g in gens) for i in range(d)] if gens else [Fraction(0)] * d
    arows = [[gens[j][i] for j in range(n)] + [ssum[i], Fraction(0)] for i in range(d)]
    arows.append([Fraction(0)] * n + [Fraction(1), Fraction(1)])
    b = list(target) + [Fraction(1)]
    res = _phase_one(arows, b)
    if res is None:
        return False
    T, basis, ncols = res
    obj = [Fraction(0)] * (ncols + 1)
    obj[n] = Fraction(-1)
    for i, bv in enumerate(basis):
        if obj[bv]:
            f = obj[bv]
            obj = [a - f * bb for a, bb in zip(obj, T[i])]
    T.append(obj)
    _bland_minimize(T, basis, ncols)
    T.pop()
    eps = Fraction(0)
    for i, bv in enumerate(basis):
        if bv == n:
            eps = T[i][-1]
    return eps > 0
