import random
from itertools import combinations

import pytest

from qgm.exactlin import DimensionMismatch
from qgm.monomial import (
    MonomialPrime,
    SquarefreeIdeal,
    contains_ideal,
    minimal_primes,
    sum_prime,
)

from helpers import TORIC_PAIRS


def test_minimalize():
    ideal = SquarefreeIdeal(3, [{0}, {0, 1}])
    assert ideal.generators == ((0,),)
    assert SquarefreeIdeal(3, []).is_zero()
    same_size = SquarefreeIdeal(6, [{0, 1, 2}, {3, 4, 5}, {0, 1, 2}])
    assert same_size.generators == ((0, 1, 2), (3, 4, 5))


def test_minimal_primes_examples():
    i0 = SquarefreeIdeal(18, TORIC_PAIRS)
    primes = minimal_primes(i0)
    assert len(primes) == 512
    for p in primes:
        assert len(p.variables) == 9
        for pair in TORIC_PAIRS:
            assert len(set(pair) & set(p.variables)) == 1

    small = SquarefreeIdeal(4, [(0, 1), (2, 3)])
    assert [p.variables for p in minimal_primes(small)] == \
        [(0, 2), (0, 3), (1, 2), (1, 3)]

    single = SquarefreeIdeal(1, [(0,)])
    assert [p.variables for p in minimal_primes(single)] == [(0,)]


def test_minimal_primes_of_zero_and_unit_ideals():
    zero = SquarefreeIdeal(4, [])
    assert [p.variables for p in minimal_primes(zero)] == [()]
    unit = SquarefreeIdeal(4, [()])
    assert minimal_primes(unit) == []


def _brute_force_minimal_hitting_sets(num_vars, gens):
    hits = []
    for size in range(num_vars + 1):
        for cand in combinations(range(num_vars), size):
            cs = set(cand)
            if all(cs & set(g) for g in gens):
                if not any(set(h) <= cs for h in hits):
                    hits.append(cand)
    return sorted(hits)


def test_minimal_primes_against_brute_force():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(1, 9)
        gens = []
        for _ in range(rng.randint(1, 6)):
            size = rng.randint(1, min(3, n))
            gens.append(tuple(sorted(rng.sample(range(n), size))))
        ideal = SquarefreeIdeal(n, gens)
        got = sorted(p.variables for p in minimal_primes(ideal))
        want = _brute_force_minimal_hitting_sets(n, ideal.generators)
        assert got == want
        # antichain property
        for a, b in combinations(got, 2):
            assert not set(a) <= set(b) and not set(b) <= set(a)
        # every hitting set contains an output element
        for size in range(n + 1):
            for cand in combinations(range(n), size):
                cs = set(cand)
                if all(cs & set(g) for g in ideal.generators):
                    assert any(set(m) <= cs for m in got)
                    break  # one witness per size keeps this affordable


def test_disjoint_blocks_count():
    # k pairwise-disjoint d-subsets have d^k minimal primes
    for d, k in [(2, 3), (3, 2), (2, 4)]:
        gens = [tuple(range(i * d, (i + 1) * d)) for i in range(k)]
        ideal = SquarefreeIdeal(d * k, gens)
        assert len(minimal_primes(ideal)) == d ** k


def test_contains_ideal():
    ideal = SquarefreeIdeal(4, [(0, 1), (2, 3)])
    assert contains_ideal(MonomialPrime(4, (0, 1, 2, 3)), ideal)
    assert not contains_ideal(MonomialPrime(4, ()), ideal)
    assert contains_ideal(MonomialPrime(4, (1, 2)), ideal)
    assert not contains_ideal(MonomialPrime(4, (0,)), ideal)
    with pytest.raises(DimensionMismatch):
        contains_ideal(MonomialPrime(3, (0,)), ideal)


def test_contains_ideal_matches_divisibility_oracle():
    # membership through squarefree monomials of degree <= 3: the prime
    # contains the ideal exactly when every ideal member among them is
    # also a member of the prime
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(2, 7)
        gens = [tuple(sorted(rng.sample(range(n), rng.randint(1, min(3, n)))))
                for _ in range(rng.randint(1, 4))]
        ideal = SquarefreeIdeal(n, gens)
        pvars = set(rng.sample(range(n), rng.randint(0, n)))
        prime = MonomialPrime(n, pvars)
        oracle = True
        for size in range(1, 4):
            for mono in combinations(range(n), size):
                in_ideal = any(set(g) <= set(mono) for g in ideal.generators)
                in_prime = bool(set(mono) & pvars)
                if in_ideal and not in_prime:
                    oracle = False
        assert contains_ideal(prime, ideal) == oracle


def test_sum_prime():
    p = MonomialPrime(4, (0, 1))
    q = MonomialPrime(4, (1, 2))
    assert sum_prime(p, q).variables == (0, 1, 2)
    assert sum_prime(p, p) == p
    with pytest.raises(DimensionMismatch):
        sum_prime(p, MonomialPrime(3, (0,)))


def test_output_is_sorted_and_deterministic():
    ideal = SquarefreeIdeal(6, [(0, 3), (1, 4), (2, 5)])
    first = [p.variables for p in minimal_primes(ideal)]
    second = [p.variables for p in minimal_primes(ideal)]
    assert first == second == sorted(first)


@pytest.mark.parametrize("bad", [1.5, 1.0, -1.0, True, False, "1", None])
def test_variables_must_be_ints(bad):
    # int() would silently turn these into a different ideal or prime;
    # a bad variable is refused also behind valid generators and variables
    with pytest.raises(TypeError):
        SquarefreeIdeal(4, [[0, bad]])
    with pytest.raises(TypeError):
        SquarefreeIdeal(4, [(0, 1), {bad}])
    with pytest.raises(TypeError):
        MonomialPrime(4, [bad])
    with pytest.raises(TypeError):
        MonomialPrime(4, [3, bad])
    with pytest.raises(TypeError):
        SquarefreeIdeal(bad, [])


@pytest.mark.parametrize("bad", [-1, 4, 1 << 70])
def test_variables_must_be_in_range(bad):
    with pytest.raises(ValueError):
        SquarefreeIdeal(4, [(0, 1), (2, bad)])
    with pytest.raises(ValueError):
        MonomialPrime(4, [3, bad])


def test_generator_bit_sets():
    ideal = SquarefreeIdeal(5, [(3, 4), (0, 1), (1, 2)])
    assert ideal.generators == ((0, 1), (1, 2), (3, 4))
    assert ideal.var_bits == [0b001, 0b011, 0b010, 0b100, 0b100]
    assert ideal.all_bits == 0b111
    assert ideal.hit_bits((1, 3)) == 0b111
    assert ideal.hit_bits((0, 2)) == 0b011
    assert SquarefreeIdeal(3, []).all_bits == 0
