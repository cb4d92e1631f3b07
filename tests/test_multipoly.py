import random
from fractions import Fraction

import pytest

from qgm.multipoly import TriPoly, monomials_of_degree

from helpers import rational

X = TriPoly.variable("x")
Y = TriPoly.variable("y")
Z = TriPoly.variable("z")


def test_basic_ring_ops():
    assert (X * Y).coeffs == {(1, 1, 0): 1}
    p = X + Y
    assert (p + p.scale(-1)).is_zero()
    sq = (X + Y) * (X + Y)
    assert sq.coeffs == {(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1}


def test_eval():
    assert X.eval_at((1, 2, 3)) == 1
    p = X * X + Y * Z
    assert p.eval_at((0, 0, 0)) == 0
    assert p.eval_at((Fraction(1, 2), 2, 3)) == Fraction(1, 4) + 6


def test_is_zero():
    assert TriPoly.zero().is_zero()
    assert (X - X).is_zero()
    assert not (X - Y).is_zero()


def test_rejects_floats():
    with pytest.raises(TypeError):
        TriPoly([((1, 0, 0), 0.5)])
    with pytest.raises(TypeError):
        X.scale(0.5)


def _random_terms(rng, integers):
    terms = []
    for _ in range(rng.randint(0, 5)):
        d = rng.randint(0, 2)
        a = rng.randint(0, d)
        c = rng.randint(-2, 2) if integers else rational(rng, 2)
        terms.append(((a, d - a, 0), c))
    return terms


def test_results_are_in_canonical_form():
    # sorted keys and no zero coefficients, as the public constructor
    # makes them; small coefficients so that terms often cancel
    rng = random.Random(13)
    for trial in range(300):
        integers = trial % 2 == 0
        p, q = (TriPoly(_random_terms(rng, integers)) for _ in range(2))
        c = rng.randint(-2, 2) if integers else rational(rng, 2)
        for result in (p + q, p * q, p.scale(c), -p, p - q):
            canonical = TriPoly(result.coeffs)
            assert list(result.coeffs.items()) == list(canonical.coeffs.items())
            assert list(result.coeffs) == sorted(result.coeffs)
            assert all(result.coeffs.values())
            if integers:
                assert all(type(v) is int for v in result.coeffs.values())


def test_homogeneity():
    assert (X * Y + Z * Z).is_homogeneous() == 2
    assert (X + X * Y).is_homogeneous() is None
    assert TriPoly.zero().is_homogeneous() is None
    assert (X * Y).is_homogeneous() == 2


def _random_poly(rng, max_deg=3, terms=4):
    items = []
    for _ in range(terms):
        d = rng.randint(0, max_deg)
        a = rng.randint(0, d)
        b = rng.randint(0, d - a)
        items.append(((a, b, d - a - b), rational(rng, 5)))
    return TriPoly(items)


def test_ring_axioms_on_random_polynomials():
    rng = random.Random(10)
    for _ in range(40):
        p, q, r = (_random_poly(rng) for _ in range(3))
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)


def test_product_of_homogeneous_is_homogeneous():
    rng = random.Random(11)
    for _ in range(30):
        da, db = rng.randint(1, 2), rng.randint(1, 2)
        pa = TriPoly([(m, rational(rng, 3)) for m in monomials_of_degree(da)])
        pb = TriPoly([(m, rational(rng, 3)) for m in monomials_of_degree(db)])
        prod = pa * pb
        if not pa.is_zero() and not pb.is_zero():
            assert prod.is_homogeneous() == da + db


def test_randomized_line_zero_test_agrees_with_is_zero():
    # a nonzero homogeneous cubic restricted to a line is a univariate
    # polynomial of degree at most 3, so it cannot vanish at four points
    # of a line unless the line lies in its zero locus; with this seed
    # no degenerate line occurs, and the sampled verdict agrees with the
    # exact one on every trial
    rng = random.Random(12)
    for _ in range(1000):
        if rng.randrange(2):
            p = TriPoly([(m, rational(rng, 4)) for m in monomials_of_degree(3)])
        else:
            q = _random_poly(rng)
            p = q - q  # exactly zero
        base = tuple(rational(rng, 5) for _ in range(3))
        direction = tuple(rational(rng, 5) for _ in range(3))
        samples = [p.eval_at(tuple(b + t * d for b, d in zip(base, direction)))
                   for t in range(4)]
        assert (not any(samples)) == p.is_zero()


def test_monomials_of_degree():
    assert monomials_of_degree(1) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert len(monomials_of_degree(3)) == 10
