"""End-to-end connectedness verification for the moduli of quiver
representations cut out by a squarefree monomial relation ideal.

The run checks that the character is generic (on the incidence action
this settles Carathéodory genericity too, see theta_generic_quiver),
lists the irrelevant ideal as the maximal spanning forests of the
quiver's arrows with nonnegative cut values, takes the minimal primes of
the relation ideal, keeps the components (primes not containing the
irrelevant ideal, tested with its per-variable generator bit sets) and
joins two when the prime generated by both supports does not contain it
either.  A connected graph certifies that the cut-out moduli space
carries only constant global functions; the verdict h0 = One is given
for the distinguished relation ideal, whose reducedness is known.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import quiver as quiver_mod
from .monomial import SquarefreeIdeal, minimal_primes
from .toricgit import (
    StabilityCharacter,
    UnionFind,
    scan_full_rank_subsets,
    theta_generic_quiver,
)


class NonGenericTheta(ValueError):
    pass


@dataclass(frozen=True)
class ConnectednessReport:
    octuple_count: int
    relevant_octuple_count: int
    minimal_prime_count: int
    component_count: int
    edges: tuple
    connected: bool
    h0_verdict: str  # "One" or "Unknown"

    def to_json(self) -> dict:
        return {
            "octupleCount": self.octuple_count,
            "relevantOctupleCount": self.relevant_octuple_count,
            "minimalPrimeCount": self.minimal_prime_count,
            "componentCount": self.component_count,
            "edges": [list(e) for e in self.edges],
            "connected": self.connected,
            "h0Verdict": self.h0_verdict,
        }


def builtin_toric_ideal() -> SquarefreeIdeal:
    """The distinguished monomial relation ideal on the 18 arrow
    coordinates: nine disjoint composable pairs."""
    return SquarefreeIdeal(18, [list(p) for p in quiver_mod.toric_relation_arrow_pairs()])


def connectedness_details(q, theta, ideal: SquarefreeIdeal):
    """Full pipeline; returns (report, components, irrelevant_ideal)."""
    if not isinstance(theta, StabilityCharacter):
        theta = StabilityCharacter(theta)
    if not theta_generic_quiver(q, theta):
        raise NonGenericTheta("some proper vertex subset has zero character sum")
    if ideal.num_vars != len(q.arrows):
        raise ValueError("ideal must live on the arrow coordinates")
    full_rank_count, relevant = scan_full_rank_subsets(q, theta)
    irrelevant = SquarefreeIdeal(ideal.num_vars, relevant)
    primes = minimal_primes(ideal)
    # a prime contains the irrelevant ideal iff its variables hit every generator
    full = irrelevant.all_bits
    hits = [irrelevant.hit_bits(p.variables) for p in primes]
    keep = [k for k, h in enumerate(hits) if h != full]
    components = [primes[k] for k in keep]
    comp_hits = [hits[k] for k in keep]
    n = len(components)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if comp_hits[i] | comp_hits[j] != full]
    uf = UnionFind(n)
    for i, j in edges:
        uf.union(i, j)
    connected = n - len(uf.merges) <= 1
    h0 = "One" if connected and ideal == builtin_toric_ideal() else "Unknown"
    report = ConnectednessReport(
        octuple_count=full_rank_count,
        relevant_octuple_count=len(irrelevant.generators),
        minimal_prime_count=len(primes),
        component_count=n,
        edges=tuple(edges),
        connected=connected,
        h0_verdict=h0,
    )
    return report, components, irrelevant


def run_connectedness(q, theta, ideal: SquarefreeIdeal) -> ConnectednessReport:
    return connectedness_details(q, theta, ideal)[0]
