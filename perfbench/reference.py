"""Independent reference checks for every request the benchmark sends.

Nothing here imports ``qgm``.  Each verdict is recomputed by a route that
differs from the one under test:

* connectedness: minimal primes and semistable supports are found by
  brute force over all 2**18 arrow subsets, held as one big-integer bit
  set; semistability is King's criterion (no closed vertex subset of
  negative weight), never a cone or a flow; the tree count comes from
  the matrix-tree theorem; the paper constants pin the paper's case;
* stability: the same King bit sets give the expected cone and King
  verdicts, which must agree, with stable implying semistable;
* relations: each dependence identity is evaluated at seeded plane
  points with this module's own line and conic evaluators;
* lattice and picard: fixed ranks, kernel vectors checked against this
  module's own cycle/arrow matrix, the block Gram matrix, and a brute
  force count of the 72 roots.

``check(argv, code, stdout)`` returns ``None`` when the output is right
and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

# The nine-vertex quiver, written out from its definition: vertex (i, j)
# is the i-th vertex of column j and has index 3*j + i; for columns
# j = 0, 1 the arrow x_{i,j,k} runs (i, j) -> (i+k mod 3, j+1).  Arrows
# are listed in (j, i, k) order.
NVERT = 9
ARROWS = tuple((3 * j + i, 3 * (j + 1) + (i + k) % 3)
               for j in (0, 1) for i in range(3) for k in range(3))
NARROWS = len(ARROWS)
FULL = (1 << NARROWS) - 1
SIZE = 1 << NARROWS

PAPER_THETA = (-11, -11, -11, 3, 3, 6, 7, 7, 7)
PAPER_CONNECTEDNESS = {
    "octupleCount": 8748,
    "relevantOctupleCount": 1053,
    "minimalPrimeCount": 512,
    "componentCount": 18,
    "connected": True,
    "h0Verdict": "One",
}


def arrow_index(i, j, k):
    """Index of x_{i,j,k}: the base arrows first, then (for the rolled-up
    quiver) the back arrows x_{i,2,k}: (i, 2) -> (i+k, 0)."""
    return 9 * j + 3 * (i % 3) + k % 3


def builtin_ideal():
    """The nine composable pairs x_{i+j,1,-i} x_{i,0,j}, as arrow masks."""
    return [(1 << arrow_index(i, 0, j)) | (1 << arrow_index(i + j, 1, -i))
            for i in range(3) for j in range(3)]


def quiver_generic(theta) -> bool:
    """Total weight zero and no nonempty proper vertex subset of weight zero."""
    n = len(theta)
    if n != NVERT or sum(theta) != 0:
        return False
    return all(sum(theta[v] for v in range(n) if s >> v & 1)
               for s in range(1, (1 << n) - 1))


# ---------------------------------------------------------------------------
# bit sets over all 2**18 arrow subsets

@lru_cache(maxsize=1)
def _without_bit():
    """For each arrow a, the bit set of the subsets that do not contain a."""
    out = []
    for a in range(NARROWS):
        run = 1 << a
        period = 2 * run
        block = (1 << run) - 1
        reps = SIZE // period
        out.append(block * (((1 << (period * reps)) - 1) // ((1 << period) - 1)))
    return out


def _up_closure(bits: int) -> int:
    for a, z in enumerate(_without_bit()):
        bits |= (bits & z) << (1 << a)
    return bits


def transversals(edges) -> str:
    """A string t of length 2**18 with t[A] == '1' exactly when the arrow
    subset A meets every edge mask."""
    bits = 0
    for e in set(edges):
        bits |= 1 << e
    contains_edge = format(_up_closure(bits), f"0{SIZE}b")
    # character p of that string is the bit of FULL - p, the complement of p
    return contains_edge.translate(str.maketrans("01", "10"))


def minimal_members(table: str):
    """Inclusion-minimal subsets A with table[A] == '1', sorted like the
    program sorts primes (lexicographic on the sorted arrow lists)."""
    bits = int(table[::-1], 2)
    non_minimal = 0
    for a, z in enumerate(_without_bit()):
        non_minimal |= (bits & z) << (1 << a)
    text = format(bits & ~non_minimal, f"0{SIZE}b")[::-1]
    out = []
    pos = text.find("1")
    while pos != -1:
        out.append(pos)
        pos = text.find("1", pos + 1)
    return sorted(out, key=mask_vars)


def mask_vars(mask):
    return tuple(a for a in range(NARROWS) if mask >> a & 1)


# ---------------------------------------------------------------------------
# King's criterion for dimension vector (1, ..., 1)

def _leaving(s):
    """Arrows with source in the vertex set s and target outside it."""
    m = 0
    for a, (src, tgt) in enumerate(ARROWS):
        if s >> src & 1 and not s >> tgt & 1:
            m |= 1 << a
    return m


@lru_cache(maxsize=64)
def king_tables(theta):
    """(semistable, stable) tables indexed by arrow support.

    A support is semistable when every vertex subset of negative weight
    is left by some supported arrow (so it is not a subrepresentation),
    and stable when the same holds for every nonempty proper subset of
    weight at most zero.
    """
    theta = tuple(theta)
    weight = {s: sum(theta[v] for v in range(NVERT) if s >> v & 1)
              for s in range(1, (1 << NVERT) - 1)}
    semi = transversals([_leaving(s) for s, w in weight.items() if w < 0])
    stable = transversals([_leaving(s) for s, w in weight.items() if w <= 0])
    return semi, stable


# ---------------------------------------------------------------------------
# spanning trees of the underlying graph

def _det(rows):
    m = [[Fraction(v) for v in r] for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


@lru_cache(maxsize=1)
def spanning_trees():
    """All arrow subsets forming a spanning tree, checked against the
    matrix-tree count."""
    trees = []
    for subset in combinations(range(NARROWS), NVERT - 1):
        reach = {v: 1 << v for v in range(NVERT)}
        ok = True
        for a in subset:
            s, t = ARROWS[a]
            if reach[s] == reach[t]:
                ok = False
                break
            merged = reach[s] | reach[t]
            for v in range(NVERT):
                if merged >> v & 1:
                    reach[v] = merged
        if ok:
            trees.append(sum(1 << a for a in subset))
    lap = [[0] * NVERT for _ in range(NVERT)]
    for s, t in ARROWS:
        lap[s][s] += 1
        lap[t][t] += 1
        lap[s][t] -= 1
        lap[t][s] -= 1
    kirchhoff = _det([row[1:] for row in lap[1:]])
    if kirchhoff != len(trees):
        raise RuntimeError("tree listing disagrees with the matrix-tree theorem")
    return tuple(trees)


# ---------------------------------------------------------------------------
# argv helpers

def _opt(argv, name, default=None):
    prefix = f"--{name}="
    for i, a in enumerate(argv):
        if a.startswith(prefix):
            return a[len(prefix):]
        if a == f"--{name}" and i + 1 < len(argv):
            return argv[i + 1]
    return default


def _theta(argv):
    text = _opt(argv, "theta", "default")
    return PAPER_THETA if text == "default" else tuple(int(v) for v in text.split(","))


def _json_report(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# connectedness

def expected_connectedness(theta, ideal_masks):
    semi, _stable = king_tables(tuple(theta))
    primes = minimal_members(transversals(ideal_masks))
    comps = [p for p in primes if semi[FULL ^ p] == "1"]
    edges = [[i, j] for i in range(len(comps)) for j in range(i + 1, len(comps))
             if semi[FULL ^ (comps[i] | comps[j])] == "1"]
    root = list(range(len(comps)))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for i, j in edges:
        root[find(i)] = find(j)
    connected = len({find(i) for i in range(len(comps))}) <= 1
    canonical = _antichain(ideal_masks) == _antichain(builtin_ideal())
    trees = spanning_trees()
    return {
        "octupleCount": len(trees),
        "relevantOctupleCount": sum(1 for t in trees if semi[t] == "1"),
        "minimalPrimeCount": len(primes),
        "componentCount": len(comps),
        "edges": edges,
        "connected": connected,
        "h0Verdict": "One" if connected and canonical else "Unknown",
    }


def _antichain(masks):
    masks = set(masks)
    return {m for m in masks if not any(o != m and o & m == o for o in masks)}


def _ideal_masks(argv):
    text = _opt(argv, "ideal", "builtin-I0")
    if text == "builtin-I0":
        return builtin_ideal()
    if text == "empty":
        return []
    data = json.loads(text)
    if data["numVars"] != NARROWS:
        raise ValueError("ideal must live on the 18 arrow coordinates")
    return [sum(1 << v for v in set(g)) for g in data["generators"]]


def check_connectedness(argv, code, stdout):
    theta = _theta(argv)
    if not quiver_generic(theta):
        return None if code == 2 and not stdout else f"non-generic theta gave exit {code}"
    want = expected_connectedness(theta, _ideal_masks(argv))
    if theta == PAPER_THETA and _opt(argv, "ideal", "builtin-I0") == "builtin-I0":
        for key, value in PAPER_CONNECTEDNESS.items():
            if want[key] != value:
                return f"reference disagrees with the paper on {key}"
    want_code = 0 if want["connected"] else 1
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    got = _json_report(stdout)
    if got != want:
        if not isinstance(got, dict):
            return "report missing"
        return f"report differs in {sorted(k for k in set(want) | set(got) if got.get(k) != want.get(k))}"
    return None


# ---------------------------------------------------------------------------
# stability

def _support(point):
    if "values" in point:
        return sum(1 << i for i, v in enumerate(point["values"])
                   if Fraction(str(v)) != 0)
    return sum(1 << int(i) for i in set(point["support"]))


def check_stability(argv, code, stdout):
    theta = _theta(argv)
    support = _support(json.loads(_opt(argv, "point")))
    semi, stable = king_tables(theta)
    verdict = {"semistable": semi[support] == "1", "stable": stable[support] == "1"}
    if verdict["stable"] and not verdict["semistable"]:
        return "reference found stable but not semistable"
    if code != 0:
        return f"exit {code}, expected 0"
    got = _json_report(stdout)
    want = {"cone": verdict, "king": verdict, "agreement": True}
    if got != want:
        return f"verdict {got} differs from {want}"
    return None


# ---------------------------------------------------------------------------
# relations

def _points(a, b, c, d):
    one, zero = Fraction(1), Fraction(0)
    return ((one, a, b), (one, c, d), (one, one, one),
            (one, zero, zero), (zero, one, zero), (zero, zero, one))


def _det3(p, q, r):
    return (p[0] * (q[1] * r[2] - q[2] * r[1])
            - p[1] * (q[0] * r[2] - q[2] * r[0])
            + p[2] * (q[0] * r[1] - q[1] * r[0]))


def _rank(rows):
    m = [list(r) for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        p = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = Fraction(m[r][c], 1) / m[rank][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def general_position(pts) -> bool:
    """No three points on a line and no conic through all six."""
    if any(_det3(p, q, r) == 0 for p, q, r in combinations(pts, 3)):
        return False
    conics = [[x * x, y * y, z * z, x * y, x * z, y * z] for x, y, z in pts]
    return _rank(conics) == 6


def _line(pts, i, j, x):
    """The line through points i and j (1-based), evaluated at x."""
    return _det3(pts[i - 1], pts[j - 1], x)


def _conic(pts, m, x):
    """The conic with only xy, yz, zx terms through the five points other
    than point m (m in 1..3), normalized by 2x2 minors of the other two
    of the first three points, evaluated at x."""
    (x1, y1, z1), (x2, y2, z2) = pts[m % 3], pts[(m + 1) % 3]
    return (z1 * z2 * (y1 * x2 - y2 * x1) * x[0] * x[1]
            + x1 * x2 * (z1 * y2 - z2 * y1) * x[1] * x[2]
            + y1 * y2 * (x1 * z2 - x2 * z1) * x[2] * x[0])


def _middles(i):
    return ((i + 2) % 3, i % 3, (i + 1) % 3)


def _cycle(i, j, k):
    return 9 * (i % 3) + 3 * (j % 3) + k % 3


@lru_cache(maxsize=1)
def _cycle_matrix():
    """27 x 27: row c = (i, j, k) marks the arrows of the cycle
    (i,0) -> (i+j,1) -> (i+j+k,2) -> (i,0) of the rolled-up quiver."""
    rows = []
    for i in range(3):
        for j in range(3):
            for k in range(3):
                row = [0] * 27
                for arrow in (arrow_index(i, 0, j), arrow_index(i + j, 1, k),
                              arrow_index(i + j + k, 2, -j - k)):
                    row[arrow] += 1
                rows.append(row)
    return rows


# The invariant characters of the cycle-coordinate torus that define the
# moduli point: this fixed basis is validated below against the cycle
# matrix (each vector is in the kernel of its transpose, rank 8).
M_BASIS = (
    (1, 0, -1, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 1, 0, -1, 0, 1, 0, 0, 0),
    (0, 1, -1, 0, 0, 0, 1, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 1, 0, -1, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, -1, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 1, 0, 0, 0, -1, 0, 1),
    (0, 0, 0, 0, 1, -1, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0, -1, 1),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, -1, 0, 0, 0, 1, -1, 0, 0, 0, 0, -1, 1, 0, -1, 0, 1),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 1, 0, -1, 0, 0, 0, -1, 0, 1, 0, -1, 1),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, -1, 0, 1, -1, -1, 0, 1, 0, -1, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, -1, 1, 0, 0, -1, 1, 1, -1, 0, 0, 0, 0),
)


def is_kernel_basis(vectors) -> bool:
    """Each vector m satisfies sum_c m_c * rho[c][a] == 0 for every arrow
    a, and the vectors are eight independent ones."""
    rho = _cycle_matrix()
    for m in vectors:
        if len(m) != 27 or any(sum(m[c] * rho[c][a] for c in range(27))
                               for a in range(27)):
            return False
    return len(vectors) == 8 and _rank(vectors) == 8


def check_relations(argv, code, stdout, rng):
    try:
        a, b, c, d = (Fraction(_opt(argv, n)) for n in "abcd")
    except (ValueError, ZeroDivisionError):
        return None if code == 3 else f"unparseable parameters gave exit {code}"
    pts = _points(a, b, c, d)
    if 0 in (a, b, c, d) or not general_position(pts):
        return None if code == 2 and not stdout else f"degenerate input gave exit {code}"
    if code != 0:
        return f"exit {code} on a configuration in general position"
    got = _json_report(stdout)
    if not isinstance(got, dict) or got.get("identitiesVerified") is not True:
        return "report missing or identities not verified"
    try:
        triples = {(t["source"], t["target"]): tuple(Fraction(t[k]) for k in "stu")
                   for t in got["triples"]}
        vec = [Fraction(v) for v in got["vector27"]]
        torus = [Fraction(v) for v in got["torusPoint"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return "report fields missing or not rationals"
    if sorted(triples) != [(i, j) for i in range(3) for j in range(3)] or len(vec) != 27:
        return "wrong number of relations"
    for (i, j), triple in triples.items():
        if any(vec[_cycle(i, m - i, j - m)] != v for m, v in zip(_middles(i), triple)):
            return f"vector27 disagrees with the triple for ({i},{j})"
    if any(v == 0 for v in vec):
        return "a coefficient is zero in general position"
    probes = [tuple(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))
                    for _ in range(3)) for _ in range(2)]
    for j in range(3):
        jp = j + 4
        for x in probes:
            s, t, u = triples[(0, j)]
            if s * _line(pts, 3, jp, x) + t * _line(pts, 1, jp, x) + u * _line(pts, 2, jp, x):
                return f"line identity fails for target {j}"
            s, t, u = triples[(1, j)]
            if sum(w * _line(pts, m, jp, x) * _conic(pts, m, x)
                   for w, m in zip((s, t, u), (1, 2, 3))):
                return f"cubic identity fails for target {j}"
            if triples[(2, j)] != (1, 1, 1):
                return f"quadric triple for target {j} is not (1, 1, 1)"
            if (_line(pts, 2, jp, x) * _line(pts, 3, 1, x)
                    + _line(pts, 3, jp, x) * _line(pts, 1, 2, x)
                    + _line(pts, 1, jp, x) * _line(pts, 2, 3, x)):
                return f"quadric identity fails for target {j}"
    want = []
    for m in M_BASIS:
        value = Fraction(1)
        for coeff, e in zip(vec, m):
            value *= coeff ** e
        want.append(value)
    if torus != want:
        return "torus point is not the invariant characters of the coefficients"
    return None


# ---------------------------------------------------------------------------
# lattice and picard

LATTICE_RANKS = {
    "Q": {"rankK": 8, "rankT": 10, "rankL": 8, "rankN": 10, "rankM": 10},
    "Qtilde": {"rankK": 19, "rankT": 8, "rankL": 19, "rankN": 8, "rankM": 8},
}


@lru_cache(maxsize=1)
def _lattice_constants_hold():
    """The fixed ranks follow from this module's own matrices: the
    incidence matrix of the connected nine-vertex quiver has rank 8, the
    cycle matrix has rank 19, and each cycle has three arrows."""
    incidence = []
    for s, t in ARROWS:
        row = [0] * NVERT
        row[s] -= 1
        row[t] += 1
        incidence.append(row)
    rho = _cycle_matrix()
    return (_rank(incidence) == LATTICE_RANKS["Q"]["rankK"]
            and NARROWS - _rank(incidence) == LATTICE_RANKS["Q"]["rankT"]
            and _rank(rho) == LATTICE_RANKS["Qtilde"]["rankK"]
            and all(sum(r) == 3 for r in rho)
            and is_kernel_basis(M_BASIS))


def check_lattice(argv, code, stdout):
    kind = _opt(argv, "quiver", "Qtilde")
    if code != 0:
        return f"exit {code}, expected 0"
    if not _lattice_constants_hold():
        return "reference lattice constants do not hold"
    got = _json_report(stdout)
    want = dict(LATTICE_RANKS[kind], quiver=kind, canonicalTriviality=True)
    if kind == "Qtilde":
        want["strongConvexity"] = True
        basis = got.get("mBasis") if isinstance(got, dict) else None
        if not isinstance(basis, list) or not is_kernel_basis([tuple(v) for v in basis]):
            return "mBasis is not a basis of the invariant characters"
        want["mBasis"] = basis
    if got != want:
        return f"lattice report differs: {got}"
    return None


def block_gram():
    """Euler pairings of the nine-bundle collection: 1 on the diagonal,
    0 inside a column block, 1 from column 0 to 1 and from 1 to 2, 2 from
    column 0 to 2, and 0 below the diagonal blocks."""
    between = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 1): 0, (1, 2): 1, (2, 2): 0}
    return [[1 if r == c else between.get((r // 3, c // 3), 0) for c in range(9)]
            for r in range(9)]


@lru_cache(maxsize=1)
def root_count():
    """Vectors r = (a0, ..., a6) with 3*a0 + a1 + ... + a6 == 0 (orthogonal
    to the anticanonical class) and a0**2 - a1**2 - ... - a6**2 == -2."""
    return sum(1 for a0, *rest in product(range(-2, 3), repeat=7)
               if 3 * a0 + sum(rest) == 0 and a0 * a0 - sum(v * v for v in rest) == -2)


def check_picard(argv, code, stdout):
    if code != 0:
        return f"exit {code}, expected 0"
    got = _json_report(stdout)
    want = {
        "gram": {"pass": True, "matrix": block_gram()},
        "roots": {"pass": True, "count": root_count(), "cartanMatch": True},
    }
    if not isinstance(got, dict) or {k: got.get(k) for k in want} != want:
        return "gram or root report differs"
    chain = got.get("chain")
    if not isinstance(chain, dict) or chain.get("pass") is not True \
            or len(chain.get("stages", ())) != 6:
        return "mutation chain report differs"
    return None


def check(argv, code, stdout, rng=None):
    """None when the program's answer to argv is right, else a reason."""
    if code is None:
        return "crashed"
    checks = {
        "connectedness": check_connectedness,
        "stability": check_stability,
        "relations": lambda a, c, o: check_relations(a, c, o, rng or random.Random(0)),
        "lattice": check_lattice,
        "picard": check_picard,
    }
    if argv[0] not in checks:
        return f"no reference for {argv[0]!r}"
    try:
        return checks[argv[0]](argv, code, stdout)
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed report: {exc!r}"
