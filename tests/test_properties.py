"""Property tests (hypothesis) for the incidence route of the
connectedness pipeline: the spanning-forest index against the forest
scan and elimination oracles in tests/helpers.py, the redundancy of
Carathéodory genericity, bit-set minimal primes against brute force,
and the pipeline's bit-set containment tests against the monomial
module.  The `qgm` command is fuzzed in-process
against its exit-code contract.  Also the two elimination routes of
exactlin: the Hermite kernel basis against the Smith-form route, and
the fraction-free unique solve against plain Fraction elimination.  And
the integer relation-coefficient route of cubicrel against the Fraction
oracle in tests/fraction_relations.py."""

import contextlib
import io
import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qgm import cli, cubicrel, quiver  # noqa: E402
from qgm.exactlin import (  # noqa: E402
    IntMatrix,
    RatMatrix,
    _hermite_rows,
    integer_kernel_basis,
    rank,
    smith_normal_form,
    solve_unique,
)
from qgm.monomial import (  # noqa: E402
    SquarefreeIdeal,
    contains_ideal,
    minimal_primes,
    sum_prime,
)
from qgm.pipeline import connectedness_details  # noqa: E402
from qgm.quiver import QuiverPresentation  # noqa: E402
from qgm.toricgit import (  # noqa: E402
    SPECIAL_THETA,
    WeightAction,
    caratheodory_genericity,
    scan_full_rank_subsets,
    theta_generic_quiver,
)

import fraction_relations  # noqa: E402
from helpers import elimination_scan, forest_scan, fraction_solve_unique  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def small_quivers(draw, loops=False):
    """Up to five vertices and seven arrows; parallel arrows, isolated
    vertices and several components are all allowed."""
    n = draw(st.integers(2, 5))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    if not loops:
        pairs = pairs.filter(lambda a: a[0] != a[1])
    arrows = draw(st.lists(pairs, min_size=1, max_size=7))
    return QuiverPresentation([str(v) for v in range(n)],
                              [(f"a{k}", s, t) for k, (s, t) in enumerate(arrows)])


@st.composite
def characters(draw, q):
    """A character of q: either free small entries or a nonnegative
    combination of arrow weights (so inside the cone)."""
    n = len(q.vertices)
    if draw(st.booleans()):
        return draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    theta = [0] * n
    for _label, s, t in q.arrows:
        c = draw(st.integers(0, 3))
        theta[s] -= c
        theta[t] += c
    return theta


@st.composite
def quivers_with_characters(draw, loops=False):
    """A small quiver and one of its characters."""
    q = draw(small_quivers(loops=loops))
    return q, draw(characters(q))


def _lose_incidence_shape(weights, theta):
    """Change the torus basis by u = 1 + 2 * (strictly upper ones), which
    is unimodular: the image of e_t - e_s has two entries -1 or two
    entries +1, so no row keeps the signed-incidence shape."""
    n = len(theta)
    u = [[1 if i == j else (2 if j > i else 0) for j in range(n)] for i in range(n)]
    rows = [[sum(row[k] * u[k][j] for k in range(n)) for j in range(n)] for row in weights]
    return rows, [sum(theta[k] * u[k][j] for k in range(n)) for j in range(n)]


@PROPERTY
@given(quivers_with_characters(loops=True), quivers_with_characters(loops=True), st.data())
def test_forest_scan_matches_the_elimination_scan(first, second, data):
    # the index of each quiver is built once and then serves several
    # characters; the two quivers take turns, so an index handed to the
    # wrong quiver would show against the per-character oracles
    cases = [first, second]
    for _round in range(2):
        cases += [(q, data.draw(characters(q))) for q, _theta in cases[:2]]
    for q, theta in cases:
        action = WeightAction.from_quiver(q)
        rows, theta_u = _lose_incidence_shape(
            [list(r) for r in action.weights.entries], theta)
        transformed = WeightAction(IntMatrix(rows))
        assert transformed.ambient_rank == action.ambient_rank
        expected = forest_scan(q, theta)
        assert scan_full_rank_subsets(q, theta) == expected
        assert elimination_scan(transformed, theta_u) == expected


@PROPERTY
@given(quivers_with_characters(loops=True))
def test_quiver_genericity_implies_caratheodory_genericity(case):
    q, theta = case
    if theta_generic_quiver(q, theta):
        assert caratheodory_genericity(WeightAction.from_quiver(q), theta)


@pytest.mark.parametrize("theta", [
    SPECIAL_THETA.theta,
    (-35, -21, -17, 14, 5, 9, 20, 14, 11),     # inside the cone
    (15, 12, 3, 1, 3, 9, 5, 15, -63),          # outside the cone
])
def test_canonical_characters_are_caratheodory_generic(theta):
    q = quiver.canonical_quiver()
    assert theta_generic_quiver(q, theta)
    assert caratheodory_genericity(WeightAction.from_quiver(q), theta)


def _brute_force_minimal_transversals(num_vars, gens):
    masks = [sum(1 << v for v in g) for g in gens]
    hitting = [s for s in range(1 << num_vars) if all(s & m for m in masks)]
    minimal = [s for s in hitting
               if not any(h != s and h & s == h for h in hitting)]
    return sorted(tuple(v for v in range(num_vars) if s >> v & 1) for s in minimal)


@st.composite
def small_ideals(draw, max_vars=10):
    n = draw(st.integers(1, max_vars))
    gens = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=4),
                         max_size=8))
    return SquarefreeIdeal(n, gens)


@PROPERTY
@given(small_ideals())
def test_minimal_primes_are_the_minimal_transversals(ideal):
    got = [p.variables for p in minimal_primes(ideal)]
    assert got == _brute_force_minimal_transversals(ideal.num_vars, ideal.generators)


def _contains_by_sets(prime, ideal):
    pv = set(prime.variables)
    return all(pv & set(g) for g in ideal.generators)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(st.integers(0, 17), min_size=1, max_size=3),
                min_size=1, max_size=6))
def test_pipeline_containment_matches_the_monomial_module(gens):
    q = quiver.canonical_quiver()
    ideal = SquarefreeIdeal(18, gens)
    report, components, irrelevant = connectedness_details(q, SPECIAL_THETA, ideal)
    primes = minimal_primes(ideal)
    expected = [p for p in primes if not contains_ideal(p, irrelevant)]
    assert components == expected
    assert expected == [p for p in primes if not _contains_by_sets(p, irrelevant)]
    edges = [(i, j) for i in range(len(expected)) for j in range(i + 1, len(expected))
             if not _contains_by_sets(sum_prime(expected[i], expected[j]), irrelevant)]
    assert list(report.edges) == edges
    assert all(contains_ideal(sum_prime(components[i], components[j]), irrelevant)
               == ((i, j) not in report.edges)
               for i in range(len(components)) for j in range(i + 1, len(components)))


def _kernel_by_smith(m):
    """The Smith-form route to the kernel basis: the last columns of V in
    U*m*V = D span the kernel, and their Hermite form is canonical."""
    _u, d, v = smith_normal_form(m)
    r = sum(1 for i in range(min(d.rows, d.cols)) if d.entry(i, i))
    cols = [[v.entry(i, j) for i in range(m.cols)] for j in range(r, m.cols)]
    return [tuple(row) for row in _hermite_rows(cols)]


@st.composite
def integer_matrices(draw):
    """Random small matrices, plus the edge shapes: zero matrices,
    matrices with no columns, and full-column-rank triangular ones."""
    kind = draw(st.sampled_from(("random", "zero", "no-columns", "full-rank")))
    nr = draw(st.integers(0 if kind == "random" else 1, 5))
    if kind == "no-columns":
        return IntMatrix([[] for _ in range(nr)])
    nc = draw(st.integers(1, 6)) if kind != "full-rank" else nr
    entries = st.integers(0, 0) if kind == "zero" else st.integers(-7, 7)
    rows = draw(st.lists(st.lists(entries, min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))
    if kind == "full-rank":
        for i in range(nr):
            rows[i][:i] = [0] * i
            rows[i][i] = draw(st.integers(1, 5)) * draw(st.sampled_from((1, -1)))
    return IntMatrix(rows)


@PROPERTY
@given(integer_matrices())
def test_hermite_kernel_basis_matches_the_smith_route(m):
    basis = integer_kernel_basis(m)
    assert basis == _kernel_by_smith(m)
    assert len(basis) == m.cols - rank(m)
    assert all(not any(sum(a * b for a, b in zip(row, v)) for row in m.entries)
               for v in basis)


@st.composite
def linear_systems(draw):
    """A small rational system; half the time b = m * x is consistent."""
    nr, nc = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = st.one_of(st.integers(-4, 4),
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))
    rows = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))
    if nc and draw(st.booleans()):
        x = draw(st.lists(st.integers(-3, 3), min_size=nc, max_size=nc))
        b = [sum(v * xi for v, xi in zip(row, x)) for row in rows]
    else:
        b = draw(st.lists(st.integers(-5, 5), min_size=nr, max_size=nr))
    if draw(st.integers(0, 9)) == 0:
        b = b + [1]  # wrong length
    return rows, b


def _outcome(solve, *args):
    try:
        return "ok", solve(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(linear_systems())
def test_fraction_free_solve_matches_fraction_elimination(case):
    rows, b = case
    ints = all(type(v) is int for row in rows for v in row)
    got = _outcome(solve_unique, (IntMatrix if ints else RatMatrix)(rows), b)
    assert got == _outcome(fraction_solve_unique, rows, b)
    if got[0] == "ok" and got[1] is not None:
        assert all(type(v) is Fraction for v in got[1])
        assert [sum(a * x for a, x in zip(row, got[1])) for row in rows] == b


@st.composite
def relation_parameters(draw):
    """(a, b, c, d) with numerators and denominators of 4 to 64 bits, the
    denominators of (a, b) and (c, d) drawn apart so that their lcms d1
    and d2 mostly differ, and sometimes one of the degenerate shapes
    the benchmark draws: a = 1, p1 = p2, or ad = bc."""
    bound = 1 << draw(st.sampled_from((4, 8, 16, 32, 64)))
    rng = draw(st.randoms(use_true_random=False))  # uniform, as the benchmark draws

    def rational():
        num = rng.choice((-1, 1)) * rng.randint(1, bound)
        return Fraction(num, rng.choice((1, rng.randint(1, bound))))

    a, b, c, d = (rational() for _ in range(4))
    shape = draw(st.sampled_from(("generic",) * 5 + ("a=1", "p1=p2", "ad=bc")))
    if shape == "a=1":
        a = Fraction(1)
    elif shape == "p1=p2":
        c, d = a, b
    elif shape == "ad=bc":
        d = b * c / a
    return a, b, c, d


def _relations(route, to_point, params):
    try:
        rc = route(cubicrel.PointConfiguration(*params))
    except cubicrel.DegenerateConfiguration as exc:
        return str(exc)
    return rc.vector27, rc.triples, rc.transcript, to_point(rc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(relation_parameters())
def test_integer_relation_route_matches_the_fraction_oracle(params):
    got = _relations(cubicrel.relation_coefficients, cubicrel.to_moduli_point, params)
    assert got == _relations(fraction_relations.relation_coefficients,
                             fraction_relations.to_moduli_point, params)


# Fuzzing `qgm` in-process.  Junk tokens draw on an alphabet without
# "h", so that no token abbreviates --help, whose text is not JSON; JSON
# arguments start with "{" and so are never read as file paths.
_JUNK = st.text(alphabet="0123456789abcxyz/.,+-_ e\u0663{}[]\"", max_size=10)


def _mostly(valid, junk=_JUNK):
    """valid seven times in eight, else junk."""
    return st.integers(0, 7).flatmap(lambda k: valid if k < 7 else junk)


def _flag(name, values):
    """`--name=value`, left out one time in eight."""
    return _mostly(values.map(lambda v: [f"--{name}={v}"]), st.just([]))


_INTEGERS = st.integers(-10 ** 12, 10 ** 12)
_RATIONALS = _mostly(
    _INTEGERS.map(str) | st.builds("{}/{}".format, _INTEGERS, st.integers(1, 99)),
    _JUNK | st.sampled_from(("1/0", "9" * 801)))
_JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 20), st.floats(),
                         _RATIONALS, st.lists(st.integers(0, 3), max_size=2))
_THETAS = _mostly(
    st.just("default") | st.lists(st.integers(-20, 20), min_size=8, max_size=8).map(
        lambda v: ",".join(map(str, v + [-sum(v)]))),
    _JUNK | st.lists(st.integers(-20, 20), max_size=10).map(
        lambda v: ",".join(map(str, v))))


def _inline(objects):
    return _mostly(objects.map(json.dumps), _JUNK.map("{".__add__)
                   | st.dictionaries(_JUNK, _JSON_VALUES, max_size=2).map(json.dumps))


_POINTS = _inline(_mostly(
    st.lists(_mostly(_RATIONALS, _JSON_VALUES), min_size=18, max_size=18).map(
        lambda v: {"values": v})
    | st.lists(st.integers(0, 17), max_size=12).map(lambda v: {"support": v}),
    st.lists(_JSON_VALUES, max_size=19).map(lambda v: {"values": v})
    | st.lists(st.integers(-2, 19) | _JSON_VALUES, max_size=6).map(lambda v: {"support": v})
    | st.builds(lambda v, k: {k: v}, _JSON_VALUES, st.sampled_from(("values", "support")))))
_GENERATORS = st.lists(st.lists(st.integers(0, 17), min_size=1, max_size=4), max_size=6)
_IDEALS = st.sampled_from(("builtin-I0", "empty")) | _inline(_mostly(
    _GENERATORS.map(lambda g: {"numVars": 18, "generators": g}),
    st.fixed_dictionaries({
        "numVars": st.just(10 ** 6) | _JSON_VALUES,
        "generators": _GENERATORS | _JSON_VALUES
        | st.lists(st.lists(st.integers(-1, 19) | _JSON_VALUES, max_size=4), max_size=5)})))


@st.composite
def cheap_argvs(draw):
    """argv for every subcommand but connectedness, rarely junk."""
    command = draw(_mostly(st.sampled_from(("relations", "lattice", "picard", "stability"))))
    argv = [command]
    if command == "relations":
        for name in "abcd":
            argv += draw(_flag(name, _RATIONALS))
    elif command == "lattice":
        argv += draw(_flag("quiver", _mostly(st.sampled_from(("Q", "Qtilde")))))
    elif command == "picard":
        argv += draw(_flag("check", _mostly(st.sampled_from(("gram", "roots", "chain", "all")))))
    elif command == "stability":
        argv += draw(_flag("theta", _THETAS))
        argv += draw(_flag("method", _mostly(st.sampled_from(("cone", "king", "both")))))
        argv += draw(st.sampled_from(("point", "fuzz")).flatmap(lambda name: _flag(
            name, _POINTS if name == "point" else _mostly(st.integers(-1, 3).map(str)))))
        argv += draw(_flag("seed", _mostly(_INTEGERS.map(str))))
    return argv + draw(_mostly(st.just([]), st.lists(_JUNK, min_size=1, max_size=1)))


def connectedness_argvs():
    return st.builds(lambda theta, ideal: ["connectedness"] + theta + ideal,
                     _flag("theta", _THETAS), _flag("ideal", _IDEALS))


def _check_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        json.loads(out.getvalue())
    assert "Traceback" not in err.getvalue()


@settings(PROPERTY, max_examples=300)
@given(cheap_argvs())
def test_cli_keeps_its_exit_codes_on_fuzzed_argv(argv):
    _check_exit_contract(argv)


@PROPERTY
@given(connectedness_argvs())
def test_connectedness_keeps_its_exit_codes_on_fuzzed_argv(argv):
    _check_exit_contract(argv)
