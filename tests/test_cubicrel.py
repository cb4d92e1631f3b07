import random
from fractions import Fraction
from math import lcm

import pytest

from qgm import cubicrel, quiver
from qgm.cubicrel import (
    DegenerateConfiguration,
    IndexOutOfRange,
    PointConfiguration,
    ZeroCoefficient,
    conic_form,
    gauge_rescale,
    general_position_check,
    line_form,
    moduli_torus_basis,
    relation_coefficients,
    relation_set_from_coefficients,
    to_moduli_point,
)
from qgm.exactlin import IntMatrix, integer_kernel_basis
from qgm.multipoly import TriPoly, monomials_of_degree

from helpers import general_position_params, nonzero_rational

CFG = PointConfiguration(2, 3, 5, 7)


def test_configuration_validation():
    with pytest.raises(DegenerateConfiguration):
        PointConfiguration(0, 1, 1, 2)
    with pytest.raises(TypeError):
        PointConfiguration(0.5, 1, 1, 2)
    cfg = PointConfiguration(Fraction(1, 2), 3, "4/3", 7)
    assert cfg.entry(2, 1) == Fraction(1, 2)
    assert cfg.entry(3, 2) == 7
    with pytest.raises(IndexOutOfRange):
        cfg.column(7)


def test_general_position_examples():
    assert general_position_check(CFG)
    # repeated point: columns 1 and 2 equal
    assert not general_position_check(PointConfiguration(2, 3, 2, 3))
    # column 1 equal to column 3
    assert not general_position_check(PointConfiguration(1, 1, 5, 7))


def test_collinearity_fails_through_the_matching_determinant():
    # points 1, 2, 4 are collinear exactly when a*d == b*c, and for this
    # choice that is the single degenerate triple
    cfg = PointConfiguration(2, 3, 4, 6)
    assert not general_position_check(cfg)
    from itertools import combinations

    for i, j, k in combinations(range(1, 7), 3):
        d = cubicrel._det3(cfg.column(i), cfg.column(j), cfg.column(k))
        if {i, j, k} == {1, 2, 4}:
            assert d == 0
        else:
            assert d != 0


def test_line_forms():
    z = TriPoly.variable("z")
    x = TriPoly.variable("x")
    assert line_form(CFG, 4, 5) == z
    assert line_form(CFG, 5, 6) == x
    assert line_form(CFG, 5, 6).eval_at((1, 0, 0)) == 1
    for i in range(1, 7):
        for j in range(1, 7):
            if i == j:
                continue
            form = line_form(CFG, i, j)
            assert form.eval_at(CFG.column(i)) == 0
            assert form.eval_at(CFG.column(j)) == 0
    with pytest.raises(IndexOutOfRange):
        line_form(CFG, 1, 1)


def test_conic_forms():
    for i in (1, 2, 3):
        q = conic_form(CFG, i)
        for k in range(1, 7):
            value = q.eval_at(CFG.column(k))
            if k == i:
                assert value != 0
            else:
                assert value == 0
        for square in ((2, 0, 0), (0, 2, 0), (0, 0, 2)):
            assert q.coefficient(square) == 0
    with pytest.raises(IndexOutOfRange):
        conic_form(CFG, 4)


def test_relation_coefficients_canonical_values():
    rc = relation_coefficients(CFG)
    one = Fraction(1)
    for j in range(3):
        assert rc.triple(2, j) == (one, one, one)
    assert rc.triple(1, 0) == (1, 1, 1)
    assert rc.triple(1, 1) == (CFG.a, CFG.c, 1)
    assert rc.triple(1, 2) == (CFG.b, CFG.d, 1)
    assert all(v != 0 for v in rc.vector27)
    # the dependence triples for the leftmost source are the stated determinants
    for j in range(3):
        jp = j + 4
        s = cubicrel._det3(CFG.column(1), CFG.column(jp), CFG.column(2))
        t = cubicrel._det3(CFG.column(2), CFG.column(jp), CFG.column(3))
        u = cubicrel._det3(CFG.column(3), CFG.column(jp), CFG.column(1))
        assert rc.triple(0, j) == (s, t, u)


def test_relation_identities_hold_for_random_configurations():
    rng = random.Random(19)
    for _ in range(20):
        cfg = general_position_params(rng)
        rc = relation_coefficients(cfg)  # raises if any identity fails
        assert all(v != 0 for v in rc.vector27)
        for entry in rc.transcript["family10"]:
            assert entry["kernelMatchesRowRule"] is True
            assert entry["kernelMatchesColumnRule"] is False


def test_middle_vertex_placement_matches_the_identity_forms():
    # the coefficient stored on the path through (m,1) must multiply the
    # form attached to that path, so re-expanding from the flat vector
    # must give zero for each relation
    rc = relation_coefficients(CFG)
    for i in range(3):
        for j in range(3):
            jp = j + 4
            total = TriPoly.zero()
            for m in range(3):
                coeff = rc.vector27[quiver.cycle_position(i, m - i, j - m)]
                mm = m + 1  # 1-based line/conic index of the middle vertex
                if i == 0:
                    form = line_form(CFG, mm, jp)
                elif i == 1:
                    form = line_form(CFG, mm, jp) * conic_form(CFG, mm)
                else:
                    second = line_form(CFG, (mm % 3) + 1, ((mm + 1) % 3) + 1)
                    form = line_form(CFG, mm, jp) * second
                total = total + form.scale(coeff)
            assert total.is_zero()


def _kernel_by_integer_basis(forms):
    """The integer kernel of the monomial-by-form coefficient matrix, its
    rows scaled to integers, as a generic oracle for _kernel_triple."""
    rows = []
    for m in monomials_of_degree(3):
        vals = [f.coefficient(m) for f in forms]
        den = lcm(*(v.denominator for v in vals))
        rows.append([v.numerator * (den // v.denominator) for v in vals])
    return integer_kernel_basis(IntMatrix(rows))


def test_kernel_triple_matches_the_integer_kernel_basis():
    rng = random.Random(23)
    for _ in range(15):
        cfg = general_position_params(rng)
        for j in range(3):
            jp = j + 4
            cubics = tuple(line_form(cfg, m, jp) * conic_form(cfg, m) for m in (1, 2, 3))
            (expected,) = _kernel_by_integer_basis(cubics)
            assert cubicrel._kernel_triple(cubics) == tuple(Fraction(v) for v in expected)


def test_kernel_triple_is_none_unless_the_kernel_is_a_line():
    x, y, z = (TriPoly.variable(v) for v in "xyz")
    assert cubicrel._kernel_triple((TriPoly.zero(),) * 3) is None
    assert cubicrel._kernel_triple((x, x, x)) is None  # rank one
    assert cubicrel._kernel_triple((x, y, z)) is None  # rank three
    assert cubicrel._kernel_triple((x, y, x - y)) == (1, -1, -1)


def test_degenerate_configuration_raises():
    with pytest.raises(DegenerateConfiguration):
        relation_coefficients(PointConfiguration(2, 3, 2, 3))


def test_moduli_point_basics():
    basis = moduli_torus_basis()
    assert len(basis) == 8
    # the cached basis and the lattice report expose the same characters
    from qgm import toricgit

    rep = toricgit.lattice_report(quiver.rolled_up_quiver())
    assert tuple(tuple(v) for v in rep["mBasis"]) == basis
    ones = cubicrel.RelationCoefficients([1] * 27, {})
    assert to_moduli_point(ones) == (Fraction(1),) * 8
    rc = relation_coefficients(CFG)
    point = to_moduli_point(rc)
    assert len(point) == 8
    assert all(v != 0 for v in point)
    broken = cubicrel.RelationCoefficients([1] * 26 + [0], {})
    with pytest.raises(ZeroCoefficient):
        to_moduli_point(broken)


def test_gauge_invariance_and_composition():
    rng = random.Random(20)
    rc = relation_coefficients(CFG)
    point = to_moduli_point(rc)
    for _ in range(30):
        alpha = [nonzero_rational(rng) for _ in range(27)]
        beta = [nonzero_rational(rng) for _ in range(27)]
        assert to_moduli_point(gauge_rescale(rc, alpha)) == point
        ab = [x * y for x, y in zip(alpha, beta)]
        assert gauge_rescale(gauge_rescale(rc, alpha), beta).vector27 == \
            gauge_rescale(rc, ab).vector27
    identity = gauge_rescale(rc, [1] * 27)
    assert identity.vector27 == rc.vector27


def test_per_relation_rescaling_is_a_gauge_transformation():
    # scaling one back arrow scales exactly the three coefficients of
    # the relation it reverses, leaving the torus point unchanged
    rc = relation_coefficients(CFG)
    point = to_moduli_point(rc)
    qt = quiver.rolled_up_quiver()
    alpha = [Fraction(1)] * 27
    alpha[qt.arrow_index("x_0_2_1")] = Fraction(5)
    scaled = gauge_rescale(rc, alpha)
    changed = [i for i in range(27) if scaled.vector27[i] != rc.vector27[i]]
    assert len(changed) == 3
    assert to_moduli_point(scaled) == point


def test_distinct_configurations_give_distinct_points():
    rng = random.Random(21)
    seen = {}
    for _ in range(25):
        cfg = general_position_params(rng)
        key = (cfg.a, cfg.b, cfg.c, cfg.d)
        if key in seen:
            continue
        point = to_moduli_point(relation_coefficients(cfg))
        assert point not in seen.values(), f"collision for {key}"
        seen[key] = point


def test_relation_set_roundtrip_preserves_projective_triples():
    rc = relation_coefficients(CFG)
    rs = relation_set_from_coefficients(rc)
    phi = quiver.potential_from_relations(rs, quiver.canonical_back_arrow_pairing())
    back = quiver.relations_from_potential(phi, quiver.back_arrow_labels())
    assert quiver.proportional_relations(back, rs)
    assert back == rs
