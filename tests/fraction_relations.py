"""Test-only oracle: the relation coefficients over the rational columns.

This is the route ``qgm.cubicrel`` took before it moved to integer point
columns with an exact scale-back: every determinant, line and conic
form, cubic kernel and dependence identity is computed on the rational
points, the conic test builds a ``RatMatrix``, and the torus point is a
running product of Fractions.  It shares only the generic formulas of
``cubicrel`` (``line_form``, ``conic_form``, ``_det3``, ``_kernel_triple``),
so the integer route must return exactly its coefficients, transcript,
torus point and error messages.  It is slow and lives here only to
check ``cubicrel`` against it.
"""

from fractions import Fraction
from itertools import combinations

from qgm.cubicrel import (
    DegenerateConfiguration,
    RelationCoefficients,
    _det3,
    _kernel_triple,
    _place,
    _proportional,
    conic_form,
    line_form,
    moduli_torus_basis,
)
from qgm.exactlin import RatMatrix, rank
from qgm.multipoly import TriPoly


def general_position_check(cfg):
    """No three of the six points collinear and no conic through all six."""
    if any(_det3(*triple) == 0 for triple in combinations(cfg.columns, 3)):
        return False
    conic_rows = [[x * x, y * y, z * z, x * y, x * z, y * z] for (x, y, z) in cfg.columns]
    return rank(RatMatrix(conic_rows)) == 6


def relation_coefficients(cfg):
    if not general_position_check(cfg):
        raise DegenerateConfiguration("points are not in general position")
    vec = [None] * 27
    triples = {}
    transcript = {"family10": []}

    def check_zero(parts, what):
        total = TriPoly.zero()
        for coeff, form in parts:
            total = total + form.scale(coeff)
        if not total.is_zero():
            raise DegenerateConfiguration(f"dependence identity failed for {what}")

    for j in range(3):
        jp = j + 4

        s = _det3(cfg.column(1), cfg.column(jp), cfg.column(2))
        t = _det3(cfg.column(2), cfg.column(jp), cfg.column(3))
        u = _det3(cfg.column(3), cfg.column(jp), cfg.column(1))
        forms = (line_form(cfg, 3, jp), line_form(cfg, 1, jp), line_form(cfg, 2, jp))
        check_zero(zip((s, t, u), forms), f"source (0,0), target ({j},2)")
        triples[(0, j)] = (s, t, u)
        _place(vec, 0, j, (s, t, u))

        cubics = tuple(line_form(cfg, m, jp) * conic_form(cfg, m) for m in (1, 2, 3))
        kernel = _kernel_triple(cubics)
        if kernel is None:
            raise DegenerateConfiguration(
                f"cubic dependence is not one-dimensional for target ({j},2)")
        triple = tuple(map(Fraction, kernel))
        check_zero(zip(triple, cubics), f"source (1,0), target ({j},2)")
        row_rule = tuple(cfg.entry(j + 1, m) for m in (1, 2, 3))
        column_rule = tuple(cfg.entry(m, jp) for m in (1, 2, 3))
        transcript["family10"].append({
            "target": j,
            "kernel": tuple(str(v) for v in triple),
            "rowRule": tuple(str(v) for v in row_rule),
            "columnRule": tuple(str(v) for v in column_rule),
            "kernelMatchesRowRule": _proportional(triple, row_rule),
            "kernelMatchesColumnRule": _proportional(triple, column_rule),
        })
        triples[(1, j)] = triple
        _place(vec, 1, j, triple)

        quads = (line_form(cfg, 2, jp) * line_form(cfg, 3, 1),
                 line_form(cfg, 3, jp) * line_form(cfg, 1, 2),
                 line_form(cfg, 1, jp) * line_form(cfg, 2, 3))
        one = Fraction(1)
        check_zero(zip((one, one, one), quads), f"source (2,0), target ({j},2)")
        triples[(2, j)] = (one, one, one)
        _place(vec, 2, j, (one, one, one))

    if any(v == 0 for v in vec):
        raise DegenerateConfiguration("a relation coefficient vanished")
    transcript["resolvedByKernelSearch"] = True
    return RelationCoefficients(vec, triples, transcript)


def to_moduli_point(rc):
    point = []
    for m in moduli_torus_basis():
        val = Fraction(1)
        for c, e in zip(rc.vector27, m):
            if e > 0:
                val *= c ** e
            elif e < 0:
                val /= c ** (-e)
        point.append(val)
    return tuple(point)
