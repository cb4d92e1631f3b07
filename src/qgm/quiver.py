"""Quivers, paths, relations, and potentials.

The canonical objects are a nine-vertex quiver with 18 arrows arranged
in three columns of three vertices each (arrows ``x_{i,j,k}`` going from
vertex ``(i,j)`` to ``(i+k, j+1)``, first index mod 3), and its rolled-up
extension which adds nine back arrows ``x_{i,2,k}`` from ``(i,2)`` to
``(i+k, 0)``.  Vertices are labeled ``"i,j"`` and ordered
(0,0),(1,0),(2,0),(0,1),(1,1),(2,1),(0,2),(1,2),(2,2); arrows are
ordered by (j, i, k).  Paths store their arrows target-to-source, so the
word (a_k, ..., a_1) means "apply a_1 first".
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exactlin import IntMatrix, _check_int, _rat


class UnknownVertex(ValueError):
    pass


class UnknownArrow(ValueError):
    pass


class IncompatiblePairing(ValueError):
    pass


class DegeneratePotential(ValueError):
    """A back-arrow cyclic derivative vanished where a relation was expected."""


class QuiverPresentation:
    """A finite quiver: ordered vertices and ordered labeled arrows."""

    __slots__ = ("vertices", "arrows", "_vindex", "_aindex")

    def __init__(self, vertices, arrows):
        self.vertices = tuple(str(v) for v in vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        arr = []
        for label, src, tgt in arrows:
            src, tgt = _check_int(src), _check_int(tgt)
            if not (0 <= src < len(self.vertices) and 0 <= tgt < len(self.vertices)):
                raise UnknownVertex(f"arrow {label!r} has an invalid endpoint")
            arr.append((str(label), src, tgt))
        self.arrows = tuple(arr)
        if len({a[0] for a in self.arrows}) != len(self.arrows):
            raise ValueError("duplicate arrow labels")
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        self._aindex = {a[0]: i for i, a in enumerate(self.arrows)}

    def vertex_index(self, v) -> int:
        if isinstance(v, int):
            if 0 <= _check_int(v) < len(self.vertices):  # refuses bools
                return v
            raise UnknownVertex(f"vertex index {v} out of range")
        try:
            return self._vindex[str(v)]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {v!r}") from None

    def arrow_index(self, label) -> int:
        if isinstance(label, int):
            if 0 <= _check_int(label) < len(self.arrows):  # refuses bools
                return label
            raise UnknownArrow(f"arrow index {label} out of range")
        try:
            return self._aindex[str(label)]
        except KeyError:
            raise UnknownArrow(f"unknown arrow {label!r}") from None

    def source(self, a) -> int:
        return self.arrows[self.arrow_index(a)][1]

    def target(self, a) -> int:
        return self.arrows[self.arrow_index(a)][2]

    def __eq__(self, other):
        return (isinstance(other, QuiverPresentation)
                and self.vertices == other.vertices and self.arrows == other.arrows)

    def __repr__(self):
        return f"QuiverPresentation({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


class Path:
    """A composable arrow word, stored target-to-source."""

    __slots__ = ("arrows", "source", "target")

    def __init__(self, quiver: QuiverPresentation, arrows):
        word = tuple(quiver.arrow_index(a) for a in arrows)
        for later, earlier in zip(word, word[1:]):
            if quiver.source(later) != quiver.target(earlier):
                raise ValueError("arrows do not compose")
        self.arrows = word
        if word:
            self.source = quiver.source(word[-1])
            self.target = quiver.target(word[0])
        else:
            self.source = self.target = None

    def __len__(self):
        return len(self.arrows)

    def __eq__(self, other):
        return isinstance(other, Path) and self.arrows == other.arrows \
            and self.source == other.source and self.target == other.target

    def __hash__(self):
        return hash((self.arrows, self.source, self.target))

    def __repr__(self):
        return f"Path{self.arrows}"


def trivial_path(quiver: QuiverPresentation, vertex) -> Path:
    p = Path(quiver, ())
    v = quiver.vertex_index(vertex)
    p.source = p.target = v
    return p


def compose(quiver: QuiverPresentation, later: Path, earlier: Path) -> Path:
    """Concatenate two paths (the right factor is applied first)."""
    if later.source != earlier.target:
        raise ValueError("paths do not compose")
    return Path(quiver, later.arrows + earlier.arrows)


# ---------------------------------------------------------------------------
# canonical quivers

def vertex_id(i: int, j: int) -> int:
    return 3 * (j % 3) + (i % 3)


def arrow_label(i: int, j: int, k: int) -> str:
    return f"x_{i % 3}_{j}_{k % 3}"


VERTEX_LABELS = tuple(f"{i},{j}" for j in range(3) for i in range(3))


@lru_cache(maxsize=1)
def canonical_quiver() -> QuiverPresentation:
    """The nine-vertex, 18-arrow quiver in its canonical arrow order."""
    arrows = []
    for j in (0, 1):
        for i in range(3):
            for k in range(3):
                arrows.append((arrow_label(i, j, k), vertex_id(i, j), vertex_id(i + k, j + 1)))
    return QuiverPresentation(VERTEX_LABELS, arrows)


@lru_cache(maxsize=1)
def rolled_up_quiver() -> QuiverPresentation:
    """The canonical quiver plus the nine back arrows x_{i,2,k}: (i,2) -> (i+k,0)."""
    base = canonical_quiver()
    arrows = list(base.arrows)
    for i in range(3):
        for k in range(3):
            arrows.append((arrow_label(i, 2, k), vertex_id(i, 2), vertex_id(i + k, 0)))
    return QuiverPresentation(VERTEX_LABELS, arrows)


def back_arrow_labels():
    return tuple(arrow_label(i, 2, k) for i in range(3) for k in range(3))


@lru_cache(maxsize=1)
def canonical_cycles():
    """The 27 length-three cycles of the rolled-up quiver.

    Cycle (i, j, k) runs (i,0) -> (i+j,1) -> (i+j+k,2) -> (i,0); the
    returned words are stored target-to-source (back arrow first) and
    listed in lexicographic (i, j, k) order.
    """
    qt = rolled_up_quiver()
    cycles = []
    for i in range(3):
        for j in range(3):
            for k in range(3):
                word = (qt.arrow_index(arrow_label(i + j + k, 2, -j - k)),
                        qt.arrow_index(arrow_label(i + j, 1, k)),
                        qt.arrow_index(arrow_label(i, 0, j)))
                cycles.append(word)
    return tuple(cycles)


def cycle_position(i: int, j: int, k: int) -> int:
    """Index of cycle (i, j, k) in canonical_cycles()."""
    return 9 * (i % 3) + 3 * (j % 3) + (k % 3)


@lru_cache(maxsize=1)
def toric_relation_arrow_pairs():
    """The nine distinguished monomial relations as (first, second) arrow indices.

    The relation with source (i,0) and first hop x_{i,0,j} continues
    along x_{i+j,1,-i}; its target is (j,2).
    """
    q = canonical_quiver()
    pairs = []
    for i in range(3):
        for j in range(3):
            first = q.arrow_index(arrow_label(i, 0, j))
            second = q.arrow_index(arrow_label(i + j, 1, -i))
            pairs.append((first, second))
    return tuple(pairs)


# ---------------------------------------------------------------------------
# path enumeration

def enumerate_paths(quiver: QuiverPresentation, frm, to, length: int):
    """All composable arrow words of the given length, in lexicographic
    order on arrow indices (read target-to-source)."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    src = quiver.vertex_index(frm)
    tgt = quiver.vertex_index(to)
    if length == 0:
        return [trivial_path(quiver, src)] if src == tgt else []
    by_source = {}
    for idx, (_l, s, _t) in enumerate(quiver.arrows):
        by_source.setdefault(s, []).append(idx)
    results = []

    def walk(vertex, chain):
        if len(chain) == length:
            if vertex == tgt:
                results.append(tuple(reversed(chain)))
            return
        for idx in by_source.get(vertex, ()):
            chain.append(idx)
            walk(quiver.target(idx), chain)
            chain.pop()

    walk(src, [])
    results.sort()
    return [Path(quiver, word) for word in results]


# ---------------------------------------------------------------------------
# relations

class RelationSet:
    """For each (source, target) vertex pair, rational combinations of
    equal-length paths."""

    def __init__(self, quiver: QuiverPresentation, relations):
        self.quiver = quiver
        self.relations = {}
        for (src, tgt), combos in relations.items():
            src = quiver.vertex_index(src)
            tgt = quiver.vertex_index(tgt)
            clean = []
            for combo in combos:
                terms = []
                length = None
                for coeff, path in combo:
                    coeff = _rat(coeff)
                    if coeff == 0:
                        continue
                    if not isinstance(path, Path):
                        path = Path(quiver, path)
                    if path.source != src or path.target != tgt:
                        raise ValueError("relation path has wrong endpoints")
                    if length is None:
                        length = len(path)
                    elif len(path) != length:
                        raise ValueError("relation mixes path lengths")
                    terms.append((coeff, path))
                terms.sort(key=lambda t: t[1].arrows)
                clean.append(tuple(terms))
            self.relations[(src, tgt)] = tuple(clean)

    def __eq__(self, other):
        return (isinstance(other, RelationSet)
                and self.quiver == other.quiver and self.relations == other.relations)

    def __repr__(self):
        return f"RelationSet({len(self.relations)} pairs)"


def proportional_relations(a: RelationSet, b: RelationSet) -> bool:
    """True when the relation sets agree up to one nonzero scalar per combo."""
    if a.quiver != b.quiver or set(a.relations) != set(b.relations):
        return False
    for key in a.relations:
        ca, cb = a.relations[key], b.relations[key]
        if len(ca) != len(cb):
            return False
        for ta, tb in zip(ca, cb):
            if [t[1] for t in ta] != [t[1] for t in tb]:
                return False
            if not ta:
                continue
            ratio = tb[0][0] / ta[0][0]
            if ratio == 0 or any(x[0] * ratio != y[0] for x, y in zip(ta, tb)):
                return False
    return True


def toric_relation_set() -> RelationSet:
    """The distinguished monomial relation set (one path per pair, coefficient 1)."""
    q = canonical_quiver()
    rels = {}
    for first, second in toric_relation_arrow_pairs():
        path = Path(q, (second, first))
        rels[(path.source, path.target)] = [[(Fraction(1), path)]]
    return RelationSet(q, rels)


# ---------------------------------------------------------------------------
# potentials

def _canonical_rotation(word):
    return min(word[m:] + word[:m] for m in range(len(word)))


class Potential:
    """Formal rational combination of cyclic paths.

    Each term is keyed by the lexicographically smallest rotation of its
    arrow word; equal cycles are merged and zero coefficients dropped.
    """

    def __init__(self, quiver: QuiverPresentation, terms=()):
        self.quiver = quiver
        merged = {}
        for coeff, word in terms:
            coeff = _rat(coeff)
            word = tuple(quiver.arrow_index(a) for a in word)
            if not word:
                raise ValueError("empty cyclic word")
            for later, earlier in zip(word, word[1:]):
                if quiver.source(later) != quiver.target(earlier):
                    raise ValueError("cyclic word does not compose")
            if quiver.source(word[-1]) != quiver.target(word[0]):
                raise ValueError("word is not cyclic")
            key = _canonical_rotation(word)
            merged[key] = merged.get(key, Fraction(0)) + coeff
        self.terms = {k: v for k, v in sorted(merged.items()) if v != 0}

    def __eq__(self, other):
        return (isinstance(other, Potential)
                and self.quiver == other.quiver and self.terms == other.terms)

    def __repr__(self):
        return f"Potential({len(self.terms)} cyclic terms)"


def cyclic_derivative(phi: Potential, arrow):
    """Derivative of a potential along one arrow.

    For a cyclic word (a_k, ..., a_1) each occurrence a_i of the arrow
    contributes the path (a_{i-1}, ..., a_1, a_k, ..., a_{i+1}); the
    result is independent of the chosen rotation representative.
    Returns a list of (coefficient, Path) pairs sorted by arrow word.
    """
    q = phi.quiver
    a = q.arrow_index(arrow)
    acc = {}
    for word, coeff in phi.terms.items():
        k = len(word)
        for pos in range(k):  # word[pos] = a_{k-pos}
            if word[pos] == a:
                rest = word[pos + 1:] + word[:pos]
                acc[rest] = acc.get(rest, Fraction(0)) + coeff
    out = []
    for rest, coeff in sorted(acc.items()):
        if coeff == 0:
            continue
        if rest:
            out.append((coeff, Path(q, rest)))
        else:
            out.append((coeff, trivial_path(q, q.source(a))))
    return out


def restricted_quiver(q: QuiverPresentation, excluded_labels) -> QuiverPresentation:
    """The quiver with the given arrows removed (vertices unchanged)."""
    excluded = {str(x) for x in excluded_labels}
    return QuiverPresentation(q.vertices,
                              [a for a in q.arrows if a[0] not in excluded])


def _translate_path(path: Path, from_q: QuiverPresentation,
                    to_q: QuiverPresentation) -> Path:
    labels = [from_q.arrows[a][0] for a in path.arrows]
    return Path(to_q, [to_q.arrow_index(lbl) for lbl in labels])


def potential_from_relations(relations: RelationSet, pairing,
                             rolled: QuiverPresentation | None = None) -> Potential:
    """Roll relations into a potential: one cyclic term b * r(b) per
    paired back arrow b.

    The relations live on the base quiver; the potential lives on the
    rolled-up quiver (default: the canonical one), where each back arrow
    reverses the (source, target) pair of its relation.
    """
    if rolled is None:
        rolled = rolled_up_quiver() if relations.quiver == canonical_quiver() \
            else relations.quiver
    base = relations.quiver
    seen_pairs = set()
    terms = []
    for b_label, pair in pairing.items():
        b = rolled.arrow_index(b_label)
        src = base.vertex_index(pair[0])
        tgt = base.vertex_index(pair[1])
        if rolled.source(b) != tgt or rolled.target(b) != src:
            raise IncompatiblePairing(
                f"back arrow {b_label!r} does not reverse relation pair {pair}")
        combos = relations.relations.get((src, tgt), ())
        if len(combos) != 1:
            raise IncompatiblePairing(
                f"relation pair {pair} must carry exactly one relation")
        seen_pairs.add((src, tgt))
        for coeff, path in combos[0]:
            moved = _translate_path(path, base, rolled)
            terms.append((coeff, (b,) + moved.arrows))
    if seen_pairs != set(relations.relations):
        raise IncompatiblePairing("pairing does not cover every relation")
    return Potential(rolled, terms)


def relations_from_potential(phi: Potential, back_arrows) -> RelationSet:
    """Recover a relation set from a potential by differentiating along
    the back arrows.

    Raises DegeneratePotential when a derivative vanishes.  The
    relations are emitted exactly as the derivatives produce them,
    without normalization, on the quiver with the back arrows removed.
    """
    q = phi.quiver
    base = restricted_quiver(q, back_arrows)
    rels = {}
    for b_label in back_arrows:
        b = q.arrow_index(b_label)
        combo = cyclic_derivative(phi, b_label)
        if not combo:
            raise DegeneratePotential(f"derivative along {b_label!r} vanishes")
        src = q.target(b)
        tgt = q.source(b)
        moved = []
        for coeff, path in combo:
            if path.source != src or path.target != tgt:
                raise ValueError("potential is not of relation type")
            moved.append((coeff, _translate_path(path, q, base)))
        rels.setdefault((src, tgt), []).append(moved)
    return RelationSet(base, rels)


def canonical_back_arrow_pairing():
    """Pairing of each back arrow x_{j,2,k} with the relation pair
    ((j+k,0), (j,2)) it reverses."""
    pairing = {}
    for i in range(3):
        for k in range(3):
            pairing[arrow_label(i, 2, k)] = (vertex_id(i + k, 0), vertex_id(i, 2))
    return pairing


# ---------------------------------------------------------------------------
# weight matrices

def incidence_weight_rows(quiver: QuiverPresentation) -> IntMatrix:
    """Signed incidence matrix, one row per arrow: -1 at the source,
    +1 at the target."""
    rows = []
    for _label, src, tgt in quiver.arrows:
        row = [0] * len(quiver.vertices)
        row[src] -= 1
        row[tgt] += 1
        rows.append(row)
    return IntMatrix(rows)


@lru_cache(maxsize=1)
def rho_weight_matrix() -> IntMatrix:
    """27x27 zero/one matrix: rows are the canonical cycles, columns the
    rolled-up quiver arrows; entry 1 when the arrow lies on the cycle."""
    rows = []
    for word in canonical_cycles():
        row = [0] * 27
        for a in word:
            row[a] += 1
        rows.append(row)
    return IntMatrix(rows)
