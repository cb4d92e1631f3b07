"""Squarefree monomial ideal combinatorics.

An ideal is stored as the antichain of supports of its minimal
squarefree generators.  A monomial prime (generated by a set of
variables) contains the ideal exactly when its variable set meets every
generator support, so minimal primes are the minimal hitting sets of
the generator family.
"""

from __future__ import annotations

from itertools import groupby

from .exactlin import DimensionMismatch, _check_int


class SquarefreeIdeal:
    """Minimalized set of generator supports over a fixed variable count.
    Bit k of var_bits[v] is set when generator k contains variable v."""

    __slots__ = ("num_vars", "generators", "var_bits", "all_bits")

    def __init__(self, num_vars: int, generators):
        if _check_int(num_vars) < 0:
            raise ValueError("num_vars must be nonnegative")
        self.num_vars = num_vars
        # dict.fromkeys drops repeats but keeps the order, so generators
        # given in canonical order (as the forest scan gives them) sort
        # in linear time in _antichain
        self.generators = _antichain(
            dict.fromkeys(_support_mask(num_vars, g) for g in generators))
        self.var_bits = var_bits = [0] * num_vars
        for k, g in enumerate(self.generators):
            bit = 1 << k
            for v in g:
                var_bits[v] |= bit
        self.all_bits = (1 << len(self.generators)) - 1

    def hit_bits(self, variables) -> int:
        """Bit set of the generators that contain one of the variables."""
        bits = 0
        for v in variables:
            bits |= self.var_bits[v]
        return bits

    def is_zero(self) -> bool:
        return not self.generators

    def __eq__(self, other):
        return (isinstance(other, SquarefreeIdeal)
                and self.num_vars == other.num_vars
                and self.generators == other.generators)

    def __repr__(self):
        return f"SquarefreeIdeal({self.num_vars} vars, {len(self.generators)} generators)"

    @classmethod
    def from_json(cls, data) -> "SquarefreeIdeal":
        return cls(data["numVars"], data["generators"])


class MonomialPrime:
    """Prime generated by a set of variables."""

    __slots__ = ("num_vars", "variables")

    def __init__(self, num_vars: int, variables):
        self.num_vars = num_vars
        self.variables = _members(_support_mask(num_vars, variables))

    def __eq__(self, other):
        return (isinstance(other, MonomialPrime)
                and self.num_vars == other.num_vars
                and self.variables == other.variables)

    def __hash__(self):
        return hash((self.num_vars, self.variables))

    def __repr__(self):
        return f"MonomialPrime({list(self.variables)})"


def _support_mask(num_vars, variables) -> int:
    """Bit mask of the variables, each an int in range(num_vars); the
    plain-int test lets _check_int see only what may need refusing."""
    mask = 0
    for v in variables:
        if v.__class__ is not int or not 0 <= v < num_vars:
            if not 0 <= _check_int(v) < num_vars:
                raise ValueError("variable out of range")
        mask |= 1 << v
    return mask


def _members(mask):
    """The set bits of mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _antichain(masks):
    """Inclusion-minimal supports, canonically sorted; distinct supports
    of one size never contain each other, so only smaller ones are tried."""
    keep = []
    for _size, group in groupby(sorted(masks, key=int.bit_count), int.bit_count):
        smaller = tuple(keep)
        keep.extend(m for m in group if not any(k & ~m == 0 for k in smaller))
    return tuple(sorted(_members(m) for m in keep))


def contains_ideal(p: MonomialPrime, ideal: SquarefreeIdeal) -> bool:
    """True when the prime contains the ideal, i.e. its variable set
    meets every generator support."""
    if p.num_vars != ideal.num_vars:
        raise DimensionMismatch("prime and ideal live over different variable counts")
    return ideal.hit_bits(p.variables) == ideal.all_bits


def sum_prime(p: MonomialPrime, q: MonomialPrime) -> MonomialPrime:
    """Prime generated by the union of the two variable sets."""
    if p.num_vars != q.num_vars:
        raise DimensionMismatch("primes live over different variable counts")
    return MonomialPrime(p.num_vars, set(p.variables) | set(q.variables))


def minimal_primes(ideal: SquarefreeIdeal):
    """All minimal primes of a squarefree monomial ideal.

    These are the inclusion-minimal hitting sets of the generator
    supports, enumerated by branch and bound: branch on the lowest
    uncovered generator, ban already-branched variables to avoid
    duplicates, and prune any partial set in which some chosen variable
    no longer hits a generator privately (such a set dominates no
    minimal transversal).  Output is sorted lexicographically on the
    sorted variable lists.
    """
    gens, var_bits, full = ideal.generators, ideal.var_bits, ideal.all_bits
    results = []

    # hit: the generators met by a chosen variable; hit_twice: by two or
    # more.  The zero ideal yields the zero prime, the unit ideal nothing.
    def rec(chosen, hit, hit_twice, banned_mask):
        if hit == full:
            results.append(tuple(sorted(chosen)))
            return
        for v in gens[(~hit & (hit + 1)).bit_length() - 1]:  # lowest uncovered
            if banned_mask >> v & 1:
                continue
            twice = hit_twice | (hit & var_bits[v])
            # dominance prune: every chosen variable must keep a private generator
            if all(var_bits[u] & ~twice for u in chosen):
                chosen.append(v)
                rec(chosen, hit | var_bits[v], twice, banned_mask)
                chosen.pop()
            banned_mask |= 1 << v

    rec([], 0, 0, 0)
    return [MonomialPrime(ideal.num_vars, t) for t in sorted(results)]
