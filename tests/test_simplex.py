"""Property tests (hypothesis) for the fraction-free simplex of
``qgm.exactlin`` against the rational simplex kept in
``fraction_simplex``: the same certificates, the same interior verdicts,
and no floats accepted."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import fraction_simplex as oracle  # noqa: E402
from qgm.exactlin import conic_feasible, strictly_conic_feasible  # noqa: E402

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

ENTRIES = st.one_of(st.integers(-4, 4),
                    st.fractions(min_value=-4, max_value=4, max_denominator=6))


@st.composite
def linear_programs(draw):
    """(generators, target, ambient_rank) with up to four coordinates and
    seven generators.  Coordinates may be zero in every generator and the
    target, or repeat a sum of two others (redundant rows); targets are
    often nonnegative combinations of the generators, so that feasible,
    degenerate programs are common; ambient_rank is None or at most the
    number of coordinates."""
    d = draw(st.integers(0, 4))
    n = draw(st.integers(0, 7))
    gens = [draw(st.lists(ENTRIES, min_size=d, max_size=d)) for _ in range(n)]
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        target = [sum((c * g[i] for c, g in zip(coeffs, gens)), 0) for i in range(d)]
    else:
        target = draw(st.lists(ENTRIES, min_size=d, max_size=d))
    vectors = gens + [target]
    if d and draw(st.booleans()):
        i = draw(st.integers(0, d - 1))
        for v in vectors:
            v[i] = 0
    if d >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
        for v in vectors:
            v.append(v[i] + v[j])
    ambient = draw(st.one_of(st.none(), st.integers(0, len(target))))
    return [tuple(g) for g in gens], tuple(target), ambient


# Programs on which a tableau whose artificial columns are 1 instead of
# the row scale takes other pivots, and so returns another certificate.
F = Fraction
SCALED_ARTIFICIALS = [
    ([(F(2, 3), F(-3, 2), F(-1, 5)), (-3, 4, 0), (0, F(-3, 2), -1), (2, 0, 0),
      (4, -4, 2), (F(4, 5), F(1, 3), -4), (2, F(-3, 4), F(3, 5))],
     (F(124, 15), F(-4, 3), -7), None),
    ([(0, F(-4, 3), -2), (1, -1, -1), (-1, -1, -3), (-3, 0, -3), (-4, -2, F(2, 5)),
      (4, 3, 4), (0, F(-4, 3), -2)],
     (-6, F(-20, 3), F(-48, 5)), None),
]


def _with_examples(cases):
    def decorate(test):
        for case in cases:
            test = example(lp=case)(test)
        return test
    return decorate


@PROPERTY
@_with_examples(SCALED_ARTIFICIALS)
@given(lp=linear_programs())
def test_conic_certificates_equal_the_rational_simplex(lp):
    gens, target, _ambient = lp
    got = conic_feasible(gens, target)
    assert got == oracle.conic_feasible(gens, target)
    if got is not None:
        assert all(type(v) is Fraction and v >= 0 for v in got)
        assert len(got) == len(gens)


@PROPERTY
@given(lp=linear_programs())
def test_interior_verdicts_equal_the_rational_simplex(lp):
    gens, target, ambient = lp
    assert (strictly_conic_feasible(gens, target, ambient)
            == oracle.strictly_conic_feasible(gens, target, ambient))


@settings(PROPERTY, max_examples=100)
@given(lp=linear_programs(), data=st.data())
def test_floats_are_rejected(lp, data):
    gens, target, ambient = lp
    vectors = [list(g) for g in gens] + [list(target)]
    k = data.draw(st.integers(0, len(vectors) - 1))
    if not vectors[k]:
        vectors[k].append(0)
    i = data.draw(st.integers(0, len(vectors[k]) - 1))
    vectors[k][i] = float(vectors[k][i])
    gens, target = vectors[:-1], vectors[-1]
    with pytest.raises(TypeError):
        conic_feasible(gens, target)
    with pytest.raises(TypeError):
        strictly_conic_feasible(gens, target, ambient)
