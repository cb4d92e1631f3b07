"""Seeded request streams for the benchmark workloads.

``requests(workload, seed)`` yields an endless, deterministic stream of
``{"argv": [...], "tags": {...}}`` records: ``argv`` is exactly what the
program receives, ``tags`` name the input properties the record varies
(they are for the run record only).  The same seed gives the same stream.
Every mix is stationary (fixed cycles of shapes, densities and bit
heights), so a run that completes more requests sees the same mix.

Run ``python3 perfbench/gen.py --workload NAME --seed N --count K`` to
print the first K records as JSON lines.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
from fractions import Fraction

from reference import ARROWS, NARROWS, PAPER_THETA, minimal_members, quiver_generic, transversals

WORKLOADS = ("connect", "points-relations")
CONNECT_CYCLE = ("theta", "wide", "theta", "theta", "many", "theta")
# Weighted by time: stability points carry about 70% of the block's time
# (their cone tests, the exactlin Fraction simplex, about 55%), relations,
# the lattices and the Picard suite the rest.
POINTS_BLOCK = ("stability",) * 10 + ("relations",) * 2 + ("Q", "Qtilde", "picard")
DEGENERATE_ONE_IN = 10

# Shape caps keep every ideal request near the same cost, so no
# single request dominates a run: "wide" ideals are redrawn until their
# minimal prime count lies in WIDE_PRIMES (the component graph grows with
# its square); "many" ideals have over a thousand primes and few
# components, so minimal_primes carries their ideal-side work.
WIDE_GENERATORS, WIDE_SIZES, WIDE_PRIMES = 12, (4, 5), (180, 240)
MANY_GENERATORS, MANY_SIZE = 250, 4

THETA_SCALES = (16, 32, 64, 128)       # arrow-weight ranges for cone characters
ZERO_DENSITIES = (10, 25, 40, 55, 70)  # percent of coordinates set to zero
BIT_HEIGHTS = (4, 8, 16, 32, 64)       # bits of numerators and denominators
STABILITY_THETAS = 4


def _fmt(theta):
    return ",".join(str(v) for v in theta)


def cone_theta(rng, scale):
    """A character in the cone of the arrow weights: every arrow gets a
    random weight in 0..scale, redrawn until the result is quiver-generic."""
    while True:
        theta = [0] * 9
        for src, tgt in ARROWS:
            w = rng.randint(0, scale)
            theta[src] -= w
            theta[tgt] += w
        if quiver_generic(theta):
            return tuple(theta)


def wild_theta(rng):
    """A quiver-generic character with independent entries, mostly outside
    the cone (empty semistable locus)."""
    while True:
        theta = [rng.randint(-15, 15) for _ in range(8)]
        theta.append(-sum(theta))
        if quiver_generic(theta):
            return tuple(theta)


def _thetas(rng):
    """Fresh quiver-generic characters, never repeating the paper's."""
    seen = {PAPER_THETA}
    for k in itertools.count():
        # one character in eight is drawn outside the cone
        if k % 8 == 7:
            theta, tag = wild_theta(rng), "wild"
        else:
            scale = THETA_SCALES[k % len(THETA_SCALES)]
            theta, tag = cone_theta(rng, scale), f"cone{scale}"
        if theta not in seen:
            seen.add(theta)
            yield theta, tag


def _ideal_argv(gens):
    data = {"numVars": NARROWS, "generators": [sorted(g) for g in gens]}
    return ["connectedness", "--ideal=" + json.dumps(data, separators=(",", ":"))]


def wide_ideal(rng):
    while True:
        gens = [rng.sample(range(NARROWS), rng.randint(*WIDE_SIZES))
                for _ in range(WIDE_GENERATORS)]
        masks = [sum(1 << v for v in g) for g in gens]
        low, high = WIDE_PRIMES
        if low <= len(minimal_members(transversals(masks))) <= high:
            return gens


def many_ideal(rng):
    return [rng.sample(range(NARROWS), MANY_SIZE) for _ in range(MANY_GENERATORS)]


def _connect(rng):
    """The paper's request first, then a fixed cycle of six: four fresh
    characters on the built-in ideal I0 (the toric side varies) and two
    seeded ideals at the paper character (the ideal side varies), one
    wide and one with many generators.  Two thirds of the requests share
    the toric-dominated cost, so the median sits among them and the
    ideal requests make the tail."""
    yield {"argv": ["connectedness", "--theta=" + _fmt(PAPER_THETA)],
           "tags": {"theta": "paper"}}
    thetas = _thetas(rng)
    for kind in itertools.cycle(CONNECT_CYCLE):
        if kind == "theta":
            theta, tag = next(thetas)
            yield {"argv": ["connectedness", "--theta=" + _fmt(theta)], "tags": {"theta": tag}}
        else:
            gens = wide_ideal(rng) if kind == "wide" else many_ideal(rng)
            yield {"argv": _ideal_argv(gens), "tags": {"ideal": kind}}


def _rational(rng, bits):
    num = 0
    while num == 0:
        num = rng.randint(-(1 << bits), 1 << bits)
    den = rng.randint(1, 1 << bits)
    return str(num) if den == 1 else f"{num}/{den}"


def _point(rng, theta, density):
    zero = [rng.randrange(100) < density for _ in range(NARROWS)]
    if rng.randrange(4) == 0:
        point, form = {"support": [i for i in range(NARROWS) if not zero[i]]}, "support"
    else:
        point, form = {"values": ["0" if z else _rational(rng, 4) for z in zero]}, "values"
    return {"argv": ["stability", "--point=" + json.dumps(point, separators=(",", ":")),
                     "--method=both", "--theta=" + _fmt(theta)],
            "tags": {"density": density, "form": form}}


def _parameters(rng, bits, degenerate):
    a, b, c, d = (_rational(rng, bits) for _ in range(4))
    if degenerate == "a=1":        # point 1 on the line through points 3 and 6
        a = "1"
    elif degenerate == "p1=p2":    # two of the six points coincide
        c, d = a, b
    elif degenerate == "ad=bc":    # points 1, 2 and 4 collinear
        d = str(Fraction(b) * Fraction(c) / Fraction(a))
    return a, b, c, d


def _relations(rng, bits):
    degenerate = None
    if rng.randrange(DEGENERATE_ONE_IN) == 0:
        degenerate = rng.choice(("a=1", "p1=p2", "ad=bc"))
    a, b, c, d = _parameters(rng, bits, degenerate)
    return {"argv": ["relations", f"--a={a}", f"--b={b}", f"--c={c}", f"--d={d}"],
            "tags": {"bits": bits, "degenerate": degenerate or "no"}}


def _points_relations(rng):
    """Blocks of POINTS_BLOCK in seeded order: stability points (zero
    density cycling through ZERO_DENSITIES), relations (bit heights
    cycling through BIT_HEIGHTS, one in ten degenerate), both lattices
    and the Picard suite."""
    thetas = [PAPER_THETA] + [cone_theta(rng, THETA_SCALES[k % len(THETA_SCALES)])
                              for k in range(STABILITY_THETAS - 1)]
    densities = itertools.cycle(ZERO_DENSITIES)
    heights = itertools.cycle(BIT_HEIGHTS)
    while True:
        block = list(POINTS_BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind == "stability":
                yield _point(rng, rng.choice(thetas), next(densities))
            elif kind == "relations":
                yield _relations(rng, next(heights))
            elif kind == "picard":
                yield {"argv": ["picard", "--check=all"], "tags": {}}
            else:
                yield {"argv": ["lattice", "--quiver=" + kind], "tags": {}}


_STREAMS = {
    "connect": _connect,
    "points-relations": _points_relations,
}


def requests(workload, seed):
    """The endless request stream of one workload for one seed."""
    return _STREAMS[workload](random.Random(f"{workload}:{seed}"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, default=10)
    args = parser.parse_args(argv)
    for record in itertools.islice(requests(args.workload, args.seed), args.count):
        print(json.dumps(record, sort_keys=True))


if __name__ == "__main__":
    main()
