import random
from decimal import Decimal
from fractions import Fraction

import pytest

from qgm.exactlin import (
    ColumnRankDeficient,
    DimensionMismatch,
    IntMatrix,
    RatMatrix,
    _rat,
    conic_feasible,
    integer_kernel_basis,
    rank,
    smith_normal_form,
    solve_unique,
    strictly_conic_feasible,
)
from qgm import cubicrel, picard, quiver, toricgit
from qgm.multipoly import TriPoly

from helpers import CANONICAL_WEIGHT_ROWS, det_fraction, rational


def test_matrices_reject_floats_and_ragged_rows():
    with pytest.raises(TypeError):
        RatMatrix([[0.5]])
    with pytest.raises(TypeError):
        IntMatrix([[Fraction(1, 2)]])
    with pytest.raises(DimensionMismatch):
        IntMatrix([[1, 2], [3]])


def test_matrix_types_share_a_body_but_not_equality():
    ints, rats = IntMatrix([[1, 2]]), RatMatrix([[1, 2]])
    assert ints.entries == rats.entries and ints != rats and rats == RatMatrix(ints.entries)
    assert isinstance(ints.transpose(), IntMatrix) and ints.transpose().rows == 2
    assert isinstance(rats.transpose(), RatMatrix)
    assert repr(ints.transpose()) == "IntMatrix(2x1)"


def _relation_set_with_bool(field):
    q = quiver.canonical_quiver()
    path = quiver.Path(q, quiver.toric_relation_arrow_pairs()[0][::-1])
    if field == "coeff":
        return quiver.RelationSet(q, {(path.source, path.target): [[(True, path)]]})
    return quiver.RelationSet(q, {(True, path.target): [[(1, path)]]})


# Every reader of outside numbers goes through exactlin._rat or
# exactlin._check_int: no float is taken and no bool is read as 0 or 1.
INEXACT_INPUTS = {
    "point-configuration-bool": lambda: cubicrel.PointConfiguration(True, 3, 5, 7),
    "relation-json-bool-coeff": lambda: _relation_set_with_bool("coeff"),
    "relation-json-bool-source": lambda: _relation_set_with_bool("source"),
    "potential-bool-coeff": lambda: quiver.Potential(
        quiver.rolled_up_quiver(), [(True, quiver.canonical_cycles()[0])]),
    "vertex-index-bool": lambda: quiver.canonical_quiver().vertex_index(True),
    "arrow-index-bool": lambda: quiver.canonical_quiver().arrow_index(False),
    "path-bool-arrow": lambda: quiver.Path(quiver.canonical_quiver(), [True]),
    "tripoly-float-exponent": lambda: TriPoly([((1.5, 0, 0), 1)]),
    "tripoly-bool-coeff": lambda: TriPoly([((1, 0, 0), True)]),
    "kclass-float-rank": lambda: picard.KClass(1.9, (0,) * 7, 0),
    "line-bundle-float": lambda: picard.line_bundle((1.7, 0, 0, 0, 0, 0, 0)),
    "gauge-float-alpha": lambda: cubicrel.gauge_rescale(
        cubicrel.RelationCoefficients(range(1, 28), {}), [0.5] * 27),
    "relation-coefficients-float": lambda: cubicrel.RelationCoefficients(
        [1] * 26 + [0.5], {}),
    "coordinate-point-bool-value": lambda: toricgit.CoordinatePoint.from_values([True]),
    "rat-matrix-bool": lambda: RatMatrix([[True]]),
}


@pytest.mark.parametrize("build", INEXACT_INPUTS.values(), ids=INEXACT_INPUTS)
def test_validators_refuse_floats_and_bools(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("text", ["1.5", "1e3", "1e1000000000", " 2", "1_0", "\u0663"])
def test_rationals_in_text_are_n_or_p_over_q(text):
    with pytest.raises(ValueError, match="not n or p/q"):
        _rat(text)
    with pytest.raises(ValueError, match="not n or p/q"):
        cubicrel.PointConfiguration(text, 3, 5, 7)


def test_rat_reads_ints_fractions_and_p_over_q():
    assert [_rat(v) for v in (3, Fraction(3, 4), "-3/4", "+7", "007/014")] == \
        [3, Fraction(3, 4), Fraction(-3, 4), 7, Fraction(1, 2)]
    with pytest.raises(ZeroDivisionError):
        _rat("1/0")
    with pytest.raises(TypeError):
        _rat(Decimal("1.5"))


def test_rank_identity_and_zero():
    assert rank(RatMatrix([[1, 0], [0, 1]])) == 2
    assert rank(IntMatrix([[0, 0], [0, 0]])) == 0
    assert rank(RatMatrix([])) == 0


def test_rank_of_canonical_weight_matrix_is_eight():
    # rows sum to zero, so the rank is at most 8; elimination gives exactly 8
    m = IntMatrix(CANONICAL_WEIGHT_ROWS)
    assert all(sum(row) == 0 for row in m.entries)
    assert rank(m) == 8


def test_rank_equals_rank_of_transpose_on_random_matrices():
    rng = random.Random(1)
    for _ in range(40):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = RatMatrix([[rational(rng, 4) for _ in range(nc)] for _ in range(nr)])
        assert rank(m) == rank(m.transpose())


def test_solve_unique_examples():
    assert solve_unique(RatMatrix([[1, 0], [0, 1]]), [2, 3]) == [2, 3]
    m = RatMatrix([[1, 1], [0, -1]])  # columns (1,0) and (1,-1)
    sol = solve_unique(m, [2, 3])
    assert [m.entry(i, 0) * sol[0] + m.entry(i, 1) * sol[1] for i in range(2)] == [2, 3]
    # overdetermined inconsistent: columns (1,1) and (1,-1) extended by a bad row
    m = RatMatrix([[1, 1], [1, -1], [0, 0]])
    assert solve_unique(m, [2, 0, 5]) is None
    with pytest.raises(ColumnRankDeficient):
        solve_unique(RatMatrix([[1, 2], [2, 4]]), [1, 2])


def test_integer_kernel_small_examples():
    assert integer_kernel_basis(IntMatrix([[1, 1]])) == [(1, -1)]
    assert integer_kernel_basis(IntMatrix([[1, 0], [0, 1]])) == []


def test_integer_kernel_of_transposed_cycle_matrix():
    rho_t = quiver.rho_weight_matrix().transpose()
    assert rank(quiver.rho_weight_matrix()) == 19
    basis = integer_kernel_basis(rho_t)
    assert len(basis) == 27 - 19
    for v in basis:
        prod = [sum(rho_t.entry(i, j) * v[j] for j in range(27)) for i in range(27)]
        assert not any(prod)
    # saturation: the basis matrix has unit invariant factors
    _u, d, _v = smith_normal_form(IntMatrix([list(v) for v in basis]))
    divisors = [d.entry(i, i) for i in range(min(d.rows, d.cols))]
    assert divisors == [1] * len(basis)
    # primitivity and determinism
    from math import gcd
    for v in basis:
        g = 0
        for x in v:
            g = gcd(g, x)
        assert g == 1
    assert basis == integer_kernel_basis(rho_t)


def test_smith_normal_form_examples():
    _u, d, _v = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    assert [d.entry(0, 0), d.entry(1, 1)] == [1, 6]
    _u, d, _v = smith_normal_form(IntMatrix([[1, 0], [0, 1]]))
    assert [d.entry(0, 0), d.entry(1, 1)] == [1, 1]
    _u, d, _v = smith_normal_form(IntMatrix([[0, 0], [0, 0]]))
    assert d.entries == ((0, 0), (0, 0))
    _u, d, _v = smith_normal_form(IntMatrix([[4, 6, 10]]))
    assert d.entry(0, 0) == 2
    _u, d, _v = smith_normal_form(IntMatrix([[6], [10], [15]]))
    assert d.entry(0, 0) == 1


def test_integer_kernel_random_properties():
    rng = random.Random(29)
    for _ in range(30):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = IntMatrix([[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)])
        basis = integer_kernel_basis(m)
        assert len(basis) == nc - rank(m)
        for v in basis:
            assert not any(sum(m.entry(i, j) * v[j] for j in range(nc))
                           for i in range(nr))
        if basis:
            _u, d, _v = smith_normal_form(IntMatrix([list(v) for v in basis]))
            diag = [d.entry(i, i) for i in range(min(d.rows, d.cols))]
            assert diag == [1] * len(basis)  # saturated lattice
        assert basis == integer_kernel_basis(m)  # deterministic


def test_smith_normal_form_random_properties():
    rng = random.Random(2)
    for _ in range(30):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = IntMatrix([[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)])
        u, d, v = smith_normal_form(m)
        # U m V == D
        um = [[sum(u.entry(i, k) * m.entry(k, j) for k in range(nr)) for j in range(nc)]
              for i in range(nr)]
        umv = [[sum(um[i][k] * v.entry(k, j) for k in range(nc)) for j in range(nc)]
               for i in range(nr)]
        for i in range(nr):
            for j in range(nc):
                assert umv[i][j] == (d.entry(i, j) if i == j else 0)
        # divisibility chain, rank, unimodularity
        diag = [d.entry(i, i) for i in range(min(nr, nc))]
        nonzero = [x for x in diag if x]
        assert diag[: len(nonzero)] == nonzero  # zeros come last
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        assert len(nonzero) == rank(m)
        assert abs(det_fraction(u.entries)) == 1
        assert abs(det_fraction(v.entries)) == 1


def test_smith_invariant_factors_match_independent_oracle():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(30)
    for _ in range(15):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-7, 7) for _ in range(nc)] for _ in range(nr)]
        _u, d, _v = smith_normal_form(IntMatrix(rows))
        ours = [abs(d.entry(i, i)) for i in range(min(nr, nc)) if d.entry(i, i)]
        theirs_m = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
        theirs = [abs(theirs_m[i, i]) for i in range(min(nr, nc)) if theirs_m[i, i] != 0]
        assert ours == sorted(theirs)


def test_incidence_cokernel_of_rolled_up_quiver_is_free_of_rank_19():
    # the incidence matrix maps the 9 vertex cocharacters into the 27
    # arrow cocharacters; its cokernel must be free of rank 19
    inc = quiver.incidence_weight_rows(quiver.rolled_up_quiver())
    _u, d, _v = smith_normal_form(inc)
    diag = [d.entry(i, i) for i in range(min(d.rows, d.cols))]
    nonzero = [x for x in diag if x]
    assert nonzero == [1] * 8
    assert inc.rows - len(nonzero) == 19  # cokernel is free of rank 19


def test_conic_feasible_examples():
    assert conic_feasible([(1, 0), (0, 1)], (2, 3)) == [2, 3]
    assert conic_feasible([(1, 0)], (0, 1)) is None
    assert conic_feasible([(1, 1), (1, -1)], (1, 0)) == [Fraction(1, 2), Fraction(1, 2)]
    with pytest.raises(DimensionMismatch):
        conic_feasible([(1, 0, 0)], (1, 0))


def test_conic_feasible_certificates_verify_on_random_cones():
    rng = random.Random(3)
    for _ in range(60):
        d = rng.randint(1, 4)
        gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(0, 6))]
        target = tuple(rng.randint(-3, 3) for _ in range(d))
        coeffs = conic_feasible(gens, target)
        if coeffs is not None:
            assert all(c >= 0 for c in coeffs)
            for i in range(d):
                assert sum(c * g[i] for c, g in zip(coeffs, gens)) == target[i]
        else:
            # reference check on a coarse grid of nonnegative combinations
            pass


def test_strictly_conic_feasible_examples():
    assert strictly_conic_feasible([(1, 0), (0, 1)], (1, 1)) is True
    assert strictly_conic_feasible([(1, 0), (0, 1)], (1, 0)) is False  # boundary
    assert strictly_conic_feasible([(1, 0)], (1, 0)) is False  # not full-dimensional
    # interior membership implies membership
    rng = random.Random(4)
    for _ in range(40):
        d = rng.randint(1, 3)
        gens = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(1, 5))]
        target = tuple(rng.randint(-2, 2) for _ in range(d))
        if strictly_conic_feasible(gens, target):
            assert conic_feasible(gens, target) is not None


def test_strictly_conic_feasible_respects_ambient_rank():
    # two copies of the same ray: strictly positive combinations exist,
    # but the cone is full-dimensional only in its own span
    gens = [(1, 0), (2, 0)]
    assert strictly_conic_feasible(gens, (1, 0)) is False
    assert strictly_conic_feasible(gens, (1, 0), ambient_rank=1) is True


def test_determinism_repeated_runs():
    gens = [(1, 1), (1, -1), (0, 1)]
    runs = [conic_feasible(gens, (3, 1)) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
