"""From a marked cubic surface to the 27 relation coefficients of its
quiver, and on to the gauge-invariant point of the dense moduli torus.

A configuration of six plane points in general position is normalized
so that four of them are the standard simplex points; the two remaining
points contribute four nonzero parameters a, b, c, d.  For each pair of
a left column vertex (i,0) and a right column vertex (j,2) the three
length-two paths between them satisfy one linear dependence; the
dependence coefficients are computed exactly and verified by expanding
the corresponding polynomial identity to zero.  Every identity is
multilinear in the six point columns, so this runs on the columns scaled
to integers and scales the coefficients back exactly at the end.  All
27 coefficients are
nonzero in general position, and rescaling the arrows changes them by
the cycle-coordinate torus action, so evaluating the invariant
characters of that action gives a well-defined point of an eight-torus.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, prod
from operator import mul

from . import quiver as quiver_mod
from .exactlin import _int_row, _int_row_reduce, _rat, integer_kernel_basis
from .multipoly import TriPoly, monomials_of_degree


class DegenerateConfiguration(ValueError):
    pass


class ZeroCoefficient(ValueError):
    pass


class IndexOutOfRange(IndexError):
    pass


class _Points:
    """Six plane points, the 1-based columns of a 3x6 matrix over any exact ring."""

    __slots__ = ("columns",)

    def __init__(self, columns):
        self.columns = tuple(columns)

    def column(self, i: int):
        """1-based column of the point matrix."""
        if not 1 <= i <= 6:
            raise IndexOutOfRange(f"column {i} out of range")
        return self.columns[i - 1]

    def entry(self, row: int, col: int):
        """1-based entry of the point matrix."""
        if not 1 <= row <= 3:
            raise IndexOutOfRange(f"row {row} out of range")
        return self.column(col)[row - 1]


_SIMPLEX = ((1, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1))


class PointConfiguration(_Points):
    """Six points on the plane: columns (1,a,b), (1,c,d), (1,1,1),
    (1,0,0), (0,1,0), (0,0,1) of a 3x6 matrix, with a, b, c, d nonzero."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = (_rat(v) for v in (a, b, c, d))
        if 0 in (self.a, self.b, self.c, self.d):
            raise DegenerateConfiguration("parameters must be nonzero")
        super().__init__(((1, self.a, self.b), (1, self.c, self.d)) + _SIMPLEX)

    def __eq__(self, other):
        return isinstance(other, PointConfiguration) and \
            (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __repr__(self):
        return f"PointConfiguration(a={self.a}, b={self.b}, c={self.c}, d={self.d})"


def _integer_points(cfg: PointConfiguration):
    """``(d1, d2, points)``: column 1 scaled by d1 = lcm(den a, den b) and
    column 2 by d2 = lcm(den c, den d), so that every entry is an integer."""
    (d1, col1), (d2, col2) = (_int_row(col) for col in cfg.columns[:2])
    return d1, d2, _Points((col1, col2) + _SIMPLEX)


def _det3(c1, c2, c3):
    return (c1[0] * (c2[1] * c3[2] - c2[2] * c3[1])
            - c1[1] * (c2[0] * c3[2] - c2[2] * c3[0])
            + c1[2] * (c2[0] * c3[1] - c2[1] * c3[0]))


def general_position_check(cfg: PointConfiguration) -> bool:
    """No three of the six points collinear and no conic through all six
    (tested on the integer points: scaling a point changes neither)."""
    columns = _integer_points(cfg)[2].columns
    if any(_det3(*triple) == 0 for triple in combinations(columns, 3)):
        return False
    # conic monomial evaluations x^2, y^2, z^2, xy, xz, yz at the six
    # points: full rank iff no conic passes through all six
    conic_rows = [[x * x, y * y, z * z, x * y, x * z, y * z] for (x, y, z) in columns]
    return _int_row_reduce(conic_rows)[0] == 6


def line_form(cfg: _Points, i: int, j: int) -> TriPoly:
    """Linear form vanishing on the line through points i and j: the
    determinant with their columns and the coordinate vector."""
    if i == j:
        raise IndexOutOfRange("line through a repeated point")
    pi, pj = cfg.column(i), cfg.column(j)
    cx = pi[1] * pj[2] - pi[2] * pj[1]
    cy = pi[2] * pj[0] - pi[0] * pj[2]
    cz = pi[0] * pj[1] - pi[1] * pj[0]
    return TriPoly._sorted({(1, 0, 0): cx, (0, 1, 0): cy, (0, 0, 1): cz})


def _mod3_123(i: int) -> int:
    """Map an index to its representative in {1, 2, 3} modulo 3."""
    return ((i - 1) % 3) + 1


def conic_form(cfg: _Points, i: int) -> TriPoly:
    """Quadric through the five points other than point i (i in 1..3).

    The form has only xy, yz, zx terms so it passes through the three
    simplex points automatically; the displayed two-by-two determinant
    coefficients make it vanish at the other two of the first three
    points.
    """
    if i not in (1, 2, 3):
        raise IndexOutOfRange("conic index must be 1, 2, or 3")
    i1, i2 = _mod3_123(i + 1), _mod3_123(i + 2)
    p = cfg.entry
    cxy = p(3, i1) * p(3, i2) * (p(2, i1) * p(1, i2) - p(2, i2) * p(1, i1))
    cyz = p(1, i1) * p(1, i2) * (p(3, i1) * p(2, i2) - p(3, i2) * p(2, i1))
    czx = p(2, i1) * p(2, i2) * (p(1, i1) * p(3, i2) - p(1, i2) * p(3, i1))
    return TriPoly._sorted({(1, 1, 0): cxy, (0, 1, 1): cyz, (1, 0, 1): czx})


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _kernel_triple(forms):
    """The one-dimensional left kernel of three equal-degree forms.

    Returns the primitive integer (s, t, u) with s*F1 + t*F2 + u*F3 = 0,
    or None when the kernel is not one-dimensional.  With one row per
    monomial, scaled to integers, and one column per form, rank two
    means that some row is independent of the first nonzero one, their
    cross product then spans the kernel, and every row is orthogonal to
    it.
    """
    degrees = {f.is_homogeneous() for f in forms} - {None}
    if not degrees:
        return None
    rows = [_int_row([f.coefficient(m) for f in forms])[1]
            for m in monomials_of_degree(max(degrees))]
    first = next((row for row in rows if any(row)), None)
    if first is None:
        return None
    kernel = next((k for k in (_cross(first, row) for row in rows) if any(k)), None)
    if kernel is None or any(sum(map(mul, row, kernel)) for row in rows):
        return None  # rank one, or rank three
    return _primitive(kernel)


def _primitive(v):
    """The nonzero integer vector v divided by its content, with its
    first nonzero entry made positive."""
    g = gcd(*v)
    if next(x for x in v if x) < 0:
        g = -g
    return tuple(x // g for x in v)


class RelationCoefficients:
    """The nine dependence triples and their flattened 27-vector.

    The flattening places each coefficient on the length-two path it
    multiplies; the cycle coordinate of the path from (i,0) through
    (m,1) to (j,2) is cycle_position(i, m-i, j-m).
    """

    __slots__ = ("vector27", "triples", "transcript")

    def __init__(self, vector27, triples, transcript=None):
        self.vector27 = tuple(_rat(v) for v in vector27)
        if len(self.vector27) != 27:
            raise ValueError("expected 27 coefficients")
        self.triples = dict(triples)
        self.transcript = dict(transcript or {})

    def triple(self, i: int, j: int):
        return self.triples[(i, j)]

    def __eq__(self, other):
        return isinstance(other, RelationCoefficients) and self.vector27 == other.vector27

    def __repr__(self):
        return f"RelationCoefficients({len(self.vector27)} coefficients)"


def _middle_vertices(i_src: int):
    """Middle vertices multiplied by (s, t, u) for source row i: the
    dependence displays list the terms in the order (i-1, i, i+1) mod 3."""
    return ((i_src + 2) % 3, i_src % 3, (i_src + 1) % 3)


def _place(vec, i_src, j_tgt, triple):
    for (m, coeff) in zip(_middle_vertices(i_src), triple):
        vec[quiver_mod.cycle_position(i_src, m - i_src, j_tgt - m)] = coeff


def relation_coefficients(cfg: PointConfiguration) -> RelationCoefficients:
    """The 27 exact relation coefficients of a general-position
    configuration, each family verified by exact polynomial expansion.

    Source (0,0): the three lines through the point j+4 are dependent
    with determinant coefficients.  Source (2,0): the quadric products
    are dependent with coefficients (1,1,1).  Source (1,0): the cubic
    products line x conic admit a one-dimensional kernel; the closed
    form that matches it is row j+1 of the point matrix restricted to
    columns 1..3 (the column-indexed variant of the closed form picks up
    zero entries and fails the dependence identity, so the kernel solve
    is authoritative and the comparison is recorded in the transcript).
    """
    if not general_position_check(cfg):
        raise DegenerateConfiguration("points are not in general position")
    d1, d2, pts = _integer_points(cfg)
    dets, kernels = [], []

    def check_zero(parts, what):
        if not sum((form.scale(c) for c, form in parts), TriPoly.zero()).is_zero():
            raise DegenerateConfiguration(f"dependence identity failed for {what}")

    for j in range(3):
        jp = j + 4

        # source (0,0): s*l_{3,j+4} + t*l_{1,j+4} + u*l_{2,j+4} = 0
        s = _det3(pts.column(1), pts.column(jp), pts.column(2))
        t = _det3(pts.column(2), pts.column(jp), pts.column(3))
        u = _det3(pts.column(3), pts.column(jp), pts.column(1))
        forms = (line_form(pts, 3, jp), line_form(pts, 1, jp), line_form(pts, 2, jp))
        check_zero(zip((s, t, u), forms), f"source (0,0), target ({j},2)")
        dets.append((s, t, u))

        # source (1,0): kernel of the three cubics l_{m,j+4} * q_m
        cubics = tuple(line_form(pts, m, jp) * conic_form(pts, m) for m in (1, 2, 3))
        kernel = _kernel_triple(cubics)
        if kernel is None:
            raise DegenerateConfiguration(
                f"cubic dependence is not one-dimensional for target ({j},2)")
        check_zero(zip(kernel, cubics), f"source (1,0), target ({j},2)")
        kernels.append(kernel)

        # source (2,0): l_{2,j+4}*l_{3,1} + l_{3,j+4}*l_{1,2} + l_{1,j+4}*l_{2,3} = 0
        quads = (line_form(pts, 2, jp) * line_form(pts, 3, 1),
                 line_form(pts, 3, jp) * line_form(pts, 1, 2),
                 line_form(pts, 1, jp) * line_form(pts, 2, 3))
        check_zero(zip((1, 1, 1), quads), f"source (2,0), target ({j},2)")

    # Scale back.  Scaling column 1 by d1 and column 2 by d2 multiplies
    # the determinants (s, t, u) by (d1*d2, d2, d1), the cubics by
    # (d1*d2^2, d1^2*d2, d1^2*d2^2) and each quadric product by d1*d2.
    vec = [None] * 27
    triples = {}
    transcript = {"family10": []}
    for j, ((s, t, u), (k0, k1, k2)) in enumerate(zip(dets, kernels)):
        triple = tuple(map(Fraction, _primitive((k0 * d2, k1 * d1, k2 * d1 * d2))))
        row_rule = tuple(cfg.entry(j + 1, m) for m in (1, 2, 3))
        column_rule = tuple(cfg.entry(m, j + 4) for m in (1, 2, 3))
        transcript["family10"].append({
            "target": j,
            "kernel": tuple(str(v) for v in triple),
            "rowRule": tuple(str(v) for v in row_rule),
            "columnRule": tuple(str(v) for v in column_rule),
            "kernelMatchesRowRule": _proportional(triple, row_rule),
            "kernelMatchesColumnRule": _proportional(triple, column_rule),
        })
        triples[(0, j)] = (Fraction(s, d1 * d2), Fraction(t, d2), Fraction(u, d1))
        triples[(1, j)] = triple
        triples[(2, j)] = (Fraction(1),) * 3
    for (i, j), triple in triples.items():
        _place(vec, i, j, triple)

    if any(v is None for v in vec):
        raise RuntimeError("cycle coordinate left unassigned")
    if any(v == 0 for v in vec):
        raise DegenerateConfiguration("a relation coefficient vanished")
    transcript["resolvedByKernelSearch"] = True
    return RelationCoefficients(vec, triples, transcript)


def _proportional(u, v) -> bool:
    """Two nonzero triples are proportional when their cross product vanishes."""
    return any(u) and any(v) and not any(_cross(u, v))


@lru_cache(maxsize=1)
def moduli_torus_basis():
    """Basis of the invariant characters of the cycle-coordinate action:
    the integer kernel of the transposed cycle/arrow matrix."""
    return tuple(integer_kernel_basis(quiver_mod.rho_weight_matrix().transpose()))


def to_moduli_point(rc: RelationCoefficients):
    """Evaluate the invariant characters of moduli_torus_basis on the 27
    coefficients.

    Each basis character m gives the product of coeff_c ** m_c; the
    result is an eight-tuple of nonzero rationals, unchanged under
    arrow rescaling.
    """
    if any(v == 0 for v in rc.vector27):
        raise ZeroCoefficient("moduli point needs all 27 coefficients nonzero")
    point = []
    for m in moduli_torus_basis():
        num = den = 1
        for c, e in zip(rc.vector27, m):
            if e > 0:
                num, den = num * c.numerator ** e, den * c.denominator ** e
            elif e < 0:
                num, den = num * c.denominator ** -e, den * c.numerator ** -e
        point.append(Fraction(num, den))
    return tuple(point)


def gauge_rescale(rc: RelationCoefficients, alpha) -> RelationCoefficients:
    """Act on the coefficients by arrow rescalings: the coefficient of a
    cycle is multiplied by the product of the alpha values on its three
    arrows."""
    alpha = [_rat(v) for v in alpha]
    if len(alpha) != 27:
        raise ValueError("expected one scale per rolled-up arrow")
    if any(v == 0 for v in alpha):
        raise ValueError("arrow scales must be nonzero")
    cycles = quiver_mod.canonical_cycles()
    vec = [coeff * prod(alpha[arrow] for arrow in word)
           for coeff, word in zip(rc.vector27, cycles)]
    triples = {}
    for (i, j), _old in rc.triples.items():
        mids = _middle_vertices(i)
        triples[(i, j)] = tuple(
            vec[quiver_mod.cycle_position(i, m - i, j - m)] for m in mids)
    return RelationCoefficients(vec, triples, rc.transcript)


def relation_set_from_coefficients(rc: RelationCoefficients) -> quiver_mod.RelationSet:
    """The coefficients as an honest relation set on the base quiver."""
    q = quiver_mod.canonical_quiver()
    rels = {}
    for i in range(3):
        for j in range(3):
            combo = []
            for m in _middle_vertices(i):
                first = q.arrow_index(quiver_mod.arrow_label(i, 0, m - i))
                second = q.arrow_index(quiver_mod.arrow_label(m, 1, j - m))
                path = quiver_mod.Path(q, (second, first))
                coeff = rc.vector27[quiver_mod.cycle_position(i, m - i, j - m)]
                combo.append((coeff, path))
            rels[(quiver_mod.vertex_id(i, 0), quiver_mod.vertex_id(j, 2))] = [combo]
    return quiver_mod.RelationSet(q, rels)
