"""Shared fixtures: frozen reference data and deterministic random generators."""

import random
from fractions import Fraction
from itertools import combinations

# The canonical 18x9 weight matrix of the arrow-rescaling action, one
# row per arrow (-1 at the source vertex, +1 at the target vertex),
# frozen as reference data.
CANONICAL_WEIGHT_ROWS = [
    [-1, 0, 0, 1, 0, 0, 0, 0, 0], [-1, 0, 0, 0, 1, 0, 0, 0, 0], [-1, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, -1, 0, 0, 1, 0, 0, 0, 0], [0, -1, 0, 0, 0, 1, 0, 0, 0], [0, -1, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, -1, 0, 0, 1, 0, 0, 0], [0, 0, -1, 1, 0, 0, 0, 0, 0], [0, 0, -1, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, -1, 0, 0, 1, 0, 0], [0, 0, 0, -1, 0, 0, 0, 1, 0], [0, 0, 0, -1, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, -1, 0, 0, 1, 0], [0, 0, 0, 0, -1, 0, 0, 0, 1], [0, 0, 0, 0, -1, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, -1, 0, 0, 1], [0, 0, 0, 0, 0, -1, 1, 0, 0], [0, 0, 0, 0, 0, -1, 0, 1, 0],
]

# The nine disjoint generator pairs of the distinguished monomial
# relation ideal, as (first arrow, second arrow) coordinate indices.
TORIC_PAIRS = [(0, 9), (1, 12), (2, 15), (3, 14), (4, 17), (5, 11), (6, 16), (7, 10), (8, 13)]

SPECIAL_THETA = (-11, -11, -11, 3, 3, 6, 7, 7, 7)


def nonzero_rational(rng: random.Random, span: int = 9) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-span, span)
    return Fraction(num, rng.randint(1, span))


def rational(rng: random.Random, span: int = 9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_point_values(rng: random.Random, zero_prob_thirds: int = 1):
    """18 coordinates, each zero with probability 1/3."""
    vals = []
    for _ in range(18):
        if rng.randrange(3) < zero_prob_thirds:
            vals.append(Fraction(0))
        else:
            vals.append(nonzero_rational(rng))
    return vals


def det_fraction(rows):
    """Determinant by exact rational elimination (test-local oracle)."""
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def general_position_params(rng: random.Random):
    """Draw (a, b, c, d) until the configuration is in general position."""
    from qgm import cubicrel

    while True:
        params = tuple(nonzero_rational(rng, 7) for _ in range(4))
        cfg = cubicrel.PointConfiguration(*params)
        if cubicrel.general_position_check(cfg):
            return cfg


def fraction_solve_unique(rows, b):
    """Unique solution of rows * x = b by plain Fraction elimination, or
    None when inconsistent (test-local oracle for exactlin.solve_unique).
    Raises exactlin's errors with its messages, in its order."""
    from qgm.exactlin import ColumnRankDeficient, DimensionMismatch

    if len(b) != len(rows):
        raise DimensionMismatch("right-hand side has wrong length")
    aug = [[Fraction(v) for v in row] + [Fraction(bi)] for row, bi in zip(rows, b)]
    n = len(rows[0]) if rows else 0
    piv_of_col = {}
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if piv is None:
            raise ColumnRankDeficient(f"column {c} is dependent on earlier columns")
        aug[r], aug[piv] = aug[piv], aug[r]
        for i in range(r + 1, len(aug)):
            f = aug[i][c] / aug[r][c]
            if f:
                aug[i] = [a - f * bb for a, bb in zip(aug[i], aug[r])]
        piv_of_col[c] = r
        r += 1
    if any(aug[i][n] != 0 for i in range(r, len(aug))):
        return None
    x = [Fraction(0)] * n
    for c in range(n - 1, -1, -1):
        i = piv_of_col[c]
        s = aug[i][n] - sum(aug[i][j] * x[j] for j in range(c + 1, n))
        x[c] = s / aug[i][c]
    return x


def elimination_scan(action, theta):
    """(full_rank_count, relevant) of toricgit.scan_full_rank_subsets by
    the general route, on any weight action: every size-ambient_rank
    subset of the rows gets exact elimination and, at full rank, a
    unique solve for its cone coefficients (test-local oracle)."""
    from qgm.exactlin import IntMatrix, _int_row_reduce, solve_unique

    r, rows = action.ambient_rank, [list(row) for row in action.weights.entries]
    full_rank, relevant = 0, []
    for subset in combinations(range(len(rows)), r):
        sub = [rows[i] for i in subset]
        if _int_row_reduce(sub)[0] != r:
            continue
        full_rank += 1
        x = solve_unique(IntMatrix([[row[j] for row in sub] for j in range(len(theta))]),
                         theta)
        if x is not None and all(v >= 0 for v in x):
            relevant.append(subset)
    return full_rank, relevant


def _cut_values_nonnegative(adj, theta) -> bool:
    """Cone containment on a maximal spanning forest, adj[v] listing (w, +1)
    per edge v -> w and (w, -1) per w -> v.  An edge's coefficient is its
    cut value, the theta-sum of the subtree on its head side; these must
    be nonnegative, and theta must sum to zero on every component."""
    sub = list(theta)
    seen = [False] * len(theta)
    for root in range(len(theta)):
        if seen[root]:
            continue
        seen[root] = True
        order = [(root, root, 0)]  # (vertex, parent, sign), breadth-first
        for v, _parent, _sign in order:
            for w, sign in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    order.append((w, v, sign))
        for v, parent, sign in reversed(order[1:]):
            # parent -> v carries sub[v], v -> parent -sub[v] (zero-sum component)
            if sign * sub[v] < 0:
                return False
            sub[parent] += sub[v]
        if sub[root]:
            return False
    return True


def forest_scan(q, theta):
    """(full_rank_count, relevant) of toricgit.scan_full_rank_subsets by
    a full forest scan per character: the same include/exclude recursion
    over the arrows, with the cut values of each forest summed from its
    subtrees by a breadth-first walk (test-local oracle)."""
    from qgm.toricgit import UnionFind

    nverts = len(q.vertices)
    edges = [(s, t) for _label, s, t in q.arrows]
    rank_uf = UnionFind(nverts)
    size = sum(rank_uf.union(s, t) is not None for s, t in edges)
    m, uf, adj = len(edges), UnionFind(nverts), [[] for _ in range(nverts)]
    reach = [-1] * nverts  # per root: the last edge index touching its set
    for i, (s, t) in enumerate(edges):
        reach[s] = reach[t] = i
    chosen, relevant, trees = [], [], 0

    def rec(i):
        nonlocal trees
        if len(chosen) == size:
            trees += 1
            if _cut_values_nonnegative(adj, theta):
                relevant.append(tuple(chosen))
            return
        if m - i < size - len(chosen):
            return
        s, t = edges[i]
        rs, rt = uf.find(s), uf.find(t)
        if rs == rt:
            return rec(i + 1)
        joined = uf.union(rs, rt)
        reach_before, reach[joined] = reach[joined], max(reach[rs], reach[rt])
        chosen.append(i)
        adj[s].append((t, 1))
        adj[t].append((s, -1))
        rec(i + 1)
        adj[s].pop()
        adj[t].pop()
        chosen.pop()
        reach[joined] = reach_before
        uf.undo()
        if reach[rs] > i and reach[rt] > i:
            rec(i + 1)

    rec(0)
    return trees, relevant


def exhaustive_irrelevant_supports(action, theta):
    """The inclusion-minimal coordinate subsets whose weight cone holds
    theta, found over all subsets with no genericity assumption
    (test-local oracle; exponential, for small actions)."""
    from qgm.exactlin import conic_feasible

    hits = []
    for size in range(action.coordinates + 1):
        for subset in combinations(range(action.coordinates), size):
            if any(set(h) <= set(subset) for h in hits):
                continue
            if conic_feasible(action.rows_for(subset), theta) is not None:
                hits.append(subset)
    return hits
