"""Torus actions on coordinate spaces: stability, genericity, the
irrelevant ideal, and character-lattice bookkeeping.

A WeightAction records one integer weight row per coordinate.  A point
is semistable for a character exactly when the character lies in the
cone spanned by the weights of its nonzero coordinates, and stable when
it lies in the interior of that cone taken inside the span of the full
weight matrix.  For the signed-incidence action coming from a quiver,
the same verdicts are reproduced module-free from submodule supports
(king_stable / king_semistable below), and the irrelevant ideal is read
off the quiver's own arrows: its generators are the maximal spanning
forests whose cut values are nonnegative (scan_full_rank_subsets).  The
forests do not depend on the character, so they are enumerated once per
quiver and process into an index (_forest_index) that keeps each forest
with the bit set of its cut sets; a character then costs one sum per
distinct cut set and one AND per forest.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache

from . import cubicrel
from . import quiver as quiver_mod
from .exactlin import (
    DimensionMismatch,
    IntMatrix,
    _check_int,
    _rat,
    _reduce_against_pivots,
    _strip_content,
    conic_feasible,
    rank,
    strictly_conic_feasible,
)
from .monomial import _members


class WeightAction:
    """Integer weight matrix of a torus action, one row per coordinate.

    The rank of the row span is fixed at construction and defines the
    ambient dimension for all interior (stability) tests.
    """

    __slots__ = ("weights", "ambient_rank")

    def __init__(self, weights: IntMatrix):
        if not isinstance(weights, IntMatrix):
            weights = IntMatrix(weights)
        self.weights = weights
        self.ambient_rank = rank(weights)

    @property
    def coordinates(self) -> int:
        return self.weights.rows

    def rows_for(self, support):
        return [self.weights.row(i) for i in sorted(support)]

    @classmethod
    def from_quiver(cls, q: quiver_mod.QuiverPresentation) -> "WeightAction":
        return cls(quiver_mod.incidence_weight_rows(q))


class StabilityCharacter:
    """An integer character of the acting torus."""

    __slots__ = ("theta",)

    def __init__(self, theta):
        self.theta = tuple(_check_int(v) for v in theta)

    def __eq__(self, other):
        return isinstance(other, StabilityCharacter) and self.theta == other.theta

    def __repr__(self):
        return f"StabilityCharacter{self.theta}"


SPECIAL_THETA = StabilityCharacter((-11, -11, -11, 3, 3, 6, 7, 7, 7))


class CoordinatePoint:
    """A point of the coordinate space, known by its support: every
    verdict depends on which coordinates are nonzero, not on their
    values."""

    __slots__ = ("dim", "support")

    def __init__(self, dim: int, support):
        self.dim = _check_int(dim)
        self.support = frozenset(_check_int(i) for i in support)
        if any(i < 0 or i >= dim for i in self.support):
            raise ValueError("support index out of range")

    @classmethod
    def from_values(cls, values) -> "CoordinatePoint":
        """The support of exact values, each read through _rat."""
        values = [_rat(v) for v in values]
        return cls(len(values), [i for i, v in enumerate(values) if v])

    def __repr__(self):
        return f"CoordinatePoint(dim={self.dim}, support={sorted(self.support)})"


def _theta_of(chi):
    if isinstance(chi, StabilityCharacter):
        return chi.theta
    return tuple(_check_int(v) for v in chi)


# ---------------------------------------------------------------------------
# Hilbert-Mumford style tests (the cone of the supported weights)

def hm_semistable(w: WeightAction, chi, p: CoordinatePoint) -> bool:
    theta = _theta_of(chi)
    if len(theta) != w.weights.cols or p.dim != w.coordinates:
        raise DimensionMismatch("weight action, character, and point disagree")
    return conic_feasible(w.rows_for(p.support), theta) is not None


def hm_stable(w: WeightAction, chi, p: CoordinatePoint) -> bool:
    theta = _theta_of(chi)
    if len(theta) != w.weights.cols or p.dim != w.coordinates:
        raise DimensionMismatch("weight action, character, and point disagree")
    return strictly_conic_feasible(w.rows_for(p.support), theta,
                                   ambient_rank=w.ambient_rank)


# ---------------------------------------------------------------------------
# submodule-based tests for quiver points of dimension vector (1,...,1)

def _closed_subset_sums(q: quiver_mod.QuiverPresentation, theta, support):
    """Yield (theta-sum, is_full) for the nonempty vertex subsets closed
    under the arrows in support, in increasing bit-mask order.

    A subset S is closed when every arrow of support with source in S
    has its target in S; for the arrows nonzero at a point these are
    exactly the supports of submodules of the associated representation
    with one-dimensional vertex spaces.  With no arrows every subset is
    closed.
    """
    n = len(q.vertices)
    if n > 20:
        raise ValueError("subset enumeration is limited to small quivers")
    out_mask = [0] * n
    for idx in support:
        _label, s, t = q.arrows[idx]
        out_mask[s] |= 1 << t
    full = (1 << n) - 1
    reach = [0] * (1 << n)  # union of out-neighborhoods over the subset
    sums = [0] * (1 << n)
    for s_mask in range(1, full + 1):
        low = s_mask & -s_mask
        v = low.bit_length() - 1
        rest = s_mask & (s_mask - 1)
        reach[s_mask] = reach[rest] | out_mask[v]
        sums[s_mask] = sums[rest] + theta[v]
        if not reach[s_mask] & ~s_mask:
            yield sums[s_mask], s_mask == full


def _submodule_sums(q: quiver_mod.QuiverPresentation, chi, p: CoordinatePoint):
    """The closed-subset sums of the point, after checking the shapes
    and that the character sums to zero over the vertices."""
    theta = _theta_of(chi)
    if len(theta) != len(q.vertices) or p.dim != len(q.arrows):
        raise DimensionMismatch("quiver, character, and point disagree")
    if sum(theta) != 0:
        raise ValueError("the character must sum to zero over the vertices")
    return _closed_subset_sums(q, theta, p.support)


def king_stable(q: quiver_mod.QuiverPresentation, chi, p: CoordinatePoint) -> bool:
    """Positivity of the character on every nonzero proper submodule.

    The full representation is excluded since the character sums to
    zero on it.
    """
    return all(s > 0 or is_full for s, is_full in _submodule_sums(q, chi, p))


def king_semistable(q: quiver_mod.QuiverPresentation, chi, p: CoordinatePoint) -> bool:
    return all(s >= 0 for s, _is_full in _submodule_sums(q, chi, p))


def theta_generic_quiver(q: quiver_mod.QuiverPresentation, chi) -> bool:
    """True when every nonempty proper vertex subset has nonzero sum.
    The subsets are those closed under no arrows, so like the King tests
    this is limited to quivers of at most 20 vertices.

    On the signed-incidence action of the quiver this implies
    caratheodory_genericity, so callers that check it need not run that
    scan.  Proof: the span of the incidence rows of an arrow set A is the
    set of vectors summing to zero on each connected component of the
    graph (vertices, A), of dimension n - c(A) for n vertices and c(A)
    components (loop arrows have zero rows and change neither side).
    The ambient rank is n - c, with c the number of components of the
    whole quiver.  Fewer than n - c rows have rank below n - c, so they
    leave c(A) >= c + 1 >= 2 components, and a character in their span
    sums to zero on each of them, each a nonempty proper vertex subset.
    (At ambient rank 0, caratheodory_genericity holds for every
    character.)
    """
    theta = _theta_of(chi)
    if len(theta) != len(q.vertices):
        raise DimensionMismatch("character has wrong length")
    if sum(theta) != 0:
        return False
    return all(s or is_full for s, is_full in _closed_subset_sums(q, theta, ()))


# ---------------------------------------------------------------------------
# genericity of the character relative to the weights

def caratheodory_genericity(w: WeightAction, chi) -> bool:
    """True when the character lies in the span of no (ambient_rank - 1)
    weight rows.  For the incidence action of a quiver this follows from
    theta_generic_quiver (see there); the scan serves other actions.

    This guarantees that every semistable support contains a full-rank
    subset of size ambient_rank whose cone already holds the character,
    so the irrelevant ideal can be generated in that size alone.  The
    subsets are scanned depth-first so that elimination work on shared
    prefixes is done once; each leaf is still an exact rank test.
    """
    theta = _theta_of(chi)
    if len(theta) != w.weights.cols:
        raise DimensionMismatch("character has wrong length")
    size = w.ambient_rank - 1
    rows = [list(r) for r in w.weights.entries]
    n = len(rows)
    if size < 0:
        return True

    def spans_theta(piv_rows, piv_cols):
        return not any(_reduce_against_pivots(theta, piv_rows, piv_cols))

    if size == 0:
        return not spans_theta([], [])
    found = []

    def rec(start, depth, piv_rows, piv_cols):
        if found:
            return
        if depth == size:
            if spans_theta(piv_rows, piv_cols):
                found.append(True)
            return
        for idx in range(start, n - (size - depth - 1)):
            red = _reduce_against_pivots(rows[idx], piv_rows, piv_cols)
            if any(red):
                c = next(i for i, v in enumerate(red) if v)
                rec(idx + 1, depth + 1,
                    piv_rows + [_strip_content(red)], piv_cols + [c])
            else:
                rec(idx + 1, depth + 1, piv_rows, piv_cols)

    rec(0, 0, [], [])
    return not found


# ---------------------------------------------------------------------------
# irrelevant ideal

class UnionFind:
    """Disjoint sets of 0..n-1, joined by size and never path-compressed,
    so that unions (merges: the absorbed roots) can be undone in reverse
    order; union returns the surviving root, or None for one set."""

    __slots__ = ("parent", "size", "merges")

    def __init__(self, n: int):
        self.parent, self.size, self.merges = list(range(n)), [1] * n, []

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.merges.append(rb)
        return ra

    def undo(self):
        rb = self.merges.pop()
        self.size[self.parent[rb]] -= self.size[rb]
        self.parent[rb] = rb


@lru_cache(maxsize=4)
def _forest_index(nverts: int, edges: tuple):
    """The character-free part of scan_full_rank_subsets, built once per
    quiver: (components, sides, forests).

    components lists the vertices of each connected component of the
    quiver, sides the vertices of each distinct head side (the key of
    bit k), and forests holds one int per maximal spanning forest, in
    lexicographic order: its head-side key bits shifted above the
    len(edges)-bit mask of its arrows.  The head side of a forest arrow
    is the vertex set on its head's side once the arrow is cut.  It
    grows with the forest: an arrow joining the sets of s and t adds the
    set of t to each head side holding s, and the set of s to each one
    holding t; its own head side is the set of t.
    """
    rank_uf = UnionFind(nverts)
    size = sum(rank_uf.union(s, t) is not None for s, t in edges)
    by_root = {}
    for v in range(nverts):
        by_root.setdefault(rank_uf.find(v), []).append(v)
    components = tuple(map(tuple, by_root.values()))
    m, uf = len(edges), UnionFind(nverts)
    find, union, undo = uf.find, uf.union, uf.undo
    reach = [-1] * nverts  # per root: the last edge index touching its set
    for i, (s, t) in enumerate(edges):
        reach[s] = reach[t] = i
    bits = [1 << v for v in range(nverts)]  # per root: the vertices of its set
    arrows = [(s, t, 1 << s, 1 << t, 1 << i) for i, (s, t) in enumerate(edges)]
    ids = defaultdict(lambda: 1 << len(ids))  # head side -> key bit, by first sight
    forests = []

    def rec(i, depth, mask, sides):
        # arrows i, i + 1, ... in turn: each one joining two sets is taken,
        # then left out only while both sets touch a later arrow
        while m - i >= size - depth:
            s, t, sbit, tbit, arrow = arrows[i]
            i += 1
            rs, rt = find(s), find(t)
            if rs == rt:
                continue
            bs, bt = bits[rs], bits[rt]
            grown = [side | bt if side & sbit else side | bs if side & tbit else side
                     for side in sides]
            grown.append(bt)
            if depth + 1 == size:
                key = sum(map(ids.__getitem__, grown))
                forests.append(key << m | mask | arrow)
            else:
                joined = union(rs, rt)
                reach_before, reach[joined] = reach[joined], max(reach[rs], reach[rt])
                bits_before, bits[joined] = bits[joined], bs | bt
                rec(i, depth + 1, mask | arrow, grown)
                bits[joined] = bits_before
                reach[joined] = reach_before
                undo()
            if reach[rs] < i or reach[rt] < i:
                return

    if size:
        rec(0, 0, 0, [])
    else:
        forests.append(0)  # no arrow joins two vertices: the empty forest
    return components, tuple(map(_members, ids)), tuple(forests)


def scan_full_rank_subsets(q: quiver_mod.QuiverPresentation, chi):
    """One pass over the arrow subsets whose incidence rows have full
    ambient rank: the maximal spanning forests of the quiver.

    Returns (full_rank_count, relevant), where relevant lists the forests
    whose cone contains the character, in lexicographic order: the
    generators of the irrelevant ideal when the character is generic.
    The ambient rank is the number of unions that join two sets in one
    union-find pass over the arrows.  The forests are enumerated once per
    quiver (_forest_index) by include/exclude recursion over the arrows
    with an undoable union-find (Read and Tarjan, Networks 5, 1975); an
    arrow joining two sets is left out only while both touch a later
    arrow, else one could never grow.

    Cone containment is read off the cut values.  The character must sum
    to zero on every component; then a forest arrow's coefficient is the
    character sum over its head side, so a forest holds the character
    exactly when none of its head sides has a negative sum.  Per
    character this is one sum per distinct head side and one AND per
    forest.
    """
    theta = _theta_of(chi)
    nverts = len(q.vertices)
    if len(theta) != nverts:
        raise DimensionMismatch("character has wrong length")
    m = len(q.arrows)
    components, sides, forests = _forest_index(
        nverts, tuple((s, t) for _label, s, t in q.arrows))
    if any(sum(theta[v] for v in comp) for comp in components):
        return len(forests), []
    bad = sum(1 << k for k, side in enumerate(sides)
              if sum(map(theta.__getitem__, side)) < 0) << m
    arrows = (1 << m) - 1
    return len(forests), [_members(f & arrows) for f in forests if not f & bad]


# ---------------------------------------------------------------------------
# lattice bookkeeping

def lattice_report(q: quiver_mod.QuiverPresentation) -> dict:
    """The `qgm lattice` report of one of the two canonical quivers.

    The rescaling torus acts through the signed incidence matrix, so on Q
    rankK = vertices - 1 and rankT = arrows - vertices + 1.  On the
    rolled-up quiver it acts on the 27 cycle coordinates: rankK is the
    rank of the cycle/arrow matrix, and rankM = 27 - rankK is
    counted on the invariant characters mBasis, an independent route.
    """
    if q == quiver_mod.rolled_up_quiver():
        kind, k = "Qtilde", rank(quiver_mod.rho_weight_matrix())
    elif q == quiver_mod.canonical_quiver():
        kind, k = "Q", rank(quiver_mod.incidence_weight_rows(q))
    else:
        raise ValueError("lattice_report expects one of the two canonical quivers")
    n_arrows = len(q.arrows)
    report = {
        "quiver": kind,
        "rankK": k,
        "rankT": n_arrows - k,
        "rankL": k,
        "rankN": n_arrows - k,
        "rankM": n_arrows - k,
        "canonicalTriviality": canonical_triviality_check(quiver_mod.canonical_quiver()),
    }
    if kind == "Qtilde":
        basis = cubicrel.moduli_torus_basis()
        report.update(rankM=len(basis), strongConvexity=strong_convexity_check(),
                      mBasis=[list(v) for v in basis])
    return report


def strong_convexity_pairings():
    """Pairing of the pushed-forward all-ones cocharacter with each cycle
    coordinate class: the row sums of the cycle/arrow matrix."""
    return [sum(row) for row in quiver_mod.rho_weight_matrix().entries]


def strong_convexity_check() -> bool:
    """All 27 pairings equal 3, so the effective cone is strongly convex
    and the quotients it produces are projective."""
    return all(v == 3 for v in strong_convexity_pairings())


def canonical_triviality_check(q: quiver_mod.QuiverPresentation) -> bool:
    """Evaluates -sum_a (e_t(a) - e_s(a)) + sum_{i,j} (e_(j,2) - e_(i,0))
    in Z^9 and reports whether it is exactly zero."""
    total = [0] * len(q.vertices)
    for _label, s, t in q.arrows:
        total[t] -= 1
        total[s] += 1
    for i in range(3):
        for j in range(3):
            total[q.vertex_index(f"{j},2")] += 1
            total[q.vertex_index(f"{i},0")] -= 1
    return not any(total)
