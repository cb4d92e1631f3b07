import random
from itertools import permutations, product

import pytest

from qgm.picard import (
    DELTA,
    ChainMismatch,
    KClass,
    basis_vector,
    collection_classes,
    dot,
    euler_pairing,
    gram_matrix,
    left_mutate_class,
    line_bundle,
    line_on_surface_class,
    mutate_collection_left,
    mutate_collection_right,
    mutation_chain_transcript,
    right_mutate_class,
    root_system_check,
    tensor_canonical,
    verify_gram_matrix,
    within_block_permutation_invariance,
)


def _random_divisor(rng):
    return tuple(rng.randint(-3, 3) for _ in range(7))


def _random_class(rng):
    return KClass(rng.randint(-3, 3), _random_divisor(rng), rng.randint(-5, 5))


def test_lattice_basics():
    assert dot(DELTA, DELTA) == 3
    e0 = basis_vector(0)
    e1 = basis_vector(1)
    assert dot(e0, e0) == 1
    assert dot(e1, e1) == -1
    assert dot(e0, e1) == 0


def test_line_bundle_euler_characteristics():
    assert line_bundle([0] * 7).key() == (1, (0,) * 7, 1)
    assert line_bundle(basis_vector(1)).chi == 1
    d = tuple(a - b for a, b in zip(basis_vector(0), basis_vector(4)))
    assert line_bundle(d).chi == 2


def test_euler_pairing_examples():
    o = line_bundle([0] * 7)
    assert euler_pairing(o, line_bundle(basis_vector(1))) == 1
    d = tuple(a - b for a, b in zip(basis_vector(0), basis_vector(4)))
    assert euler_pairing(o, line_bundle(d)) == 2
    assert euler_pairing(line_bundle(basis_vector(1)), line_bundle(basis_vector(2))) == 0


def test_euler_pairing_reduces_to_line_bundle_formula():
    rng = random.Random(22)
    for _ in range(60):
        d1, d2 = _random_divisor(rng), _random_divisor(rng)
        diff = tuple(a - b for a, b in zip(d2, d1))
        expected = 1 + (dot(diff, diff) + dot(diff, DELTA)) // 2
        assert euler_pairing(line_bundle(d1), line_bundle(d2)) == expected


def test_euler_pairing_is_bilinear():
    rng = random.Random(23)
    for _ in range(40):
        e, f, g = (_random_class(rng) for _ in range(3))
        n = rng.randint(-3, 3)
        assert euler_pairing(e + f.scale(n), g) == \
            euler_pairing(e, g) + n * euler_pairing(f, g)
        assert euler_pairing(g, e + f.scale(n)) == \
            euler_pairing(g, e) + n * euler_pairing(g, f)


def test_contracted_line_classes_are_exceptional():
    for i in range(1, 7):
        c = line_on_surface_class(i)
        assert c.key() == (0, basis_vector(i), 0)
        assert euler_pairing(c, c) == 1


def test_collection_classes():
    classes = collection_classes()
    assert classes[0].key() == (1, (0,) * 7, 1)
    assert classes[1].c1 == (-2, 1, 1, 1, 1, 1, 1)
    assert classes[8].c1 == (1, 0, 0, 0, 0, 0, -1)


def test_gram_matrix():
    assert verify_gram_matrix()
    g = gram_matrix()
    assert all(g[i][i] == 1 for i in range(9))
    for a in range(3):
        for b in range(3, 6):
            assert g[a][b] == 1
        for b in range(6, 9):
            assert g[a][b] == 2
    for a in range(3, 6):
        for b in range(6, 9):
            assert g[a][b] == 1
    for a in range(9):
        for b in range(9):
            if b < a or (b // 3 == a // 3 and a != b):
                assert g[a][b] == 0
    assert within_block_permutation_invariance()


def test_root_system():
    rec = root_system_check()
    assert rec["root_count"] == 72
    assert rec["cartan_match"]
    assert rec["all_orthogonal"]
    # enlarging the search box finds nothing new
    rec4 = root_system_check(bound=4)
    assert rec4["root_count"] == 72
    assert sorted(rec4["roots"]) == sorted(rec["roots"])


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_root_system_matches_brute_force_over_the_box(bound):
    box = range(-bound, bound + 1)
    roots = sorted(r for r in product(box, repeat=7)
                   if dot(r, DELTA) == 0 and dot(r, r) == -2)
    rec = root_system_check(bound)
    assert rec["roots"] == roots
    assert rec == dict(rec, root_count=len(roots), all_orthogonal=True)


def test_root_set_is_stable_under_coordinate_permutations():
    rec = root_system_check()
    roots = set(rec["roots"])
    rng = random.Random(24)
    for _ in range(5):
        perm = list(range(1, 7))
        rng.shuffle(perm)
        mapped = {(r[0],) + tuple(r[p] for p in perm) for r in roots}
        assert mapped == roots


def test_mutation_formulas():
    rng = random.Random(25)
    for _ in range(30):
        e, f = _random_class(rng), _random_class(rng)
        chi = euler_pairing(e, f)
        assert left_mutate_class(e, f) == f + e.scale(-chi)
        assert right_mutate_class(e, f) == f.scale(chi) + (-e)
    # orthogonal pair: left mutation returns the class unchanged
    o_e1 = line_bundle(basis_vector(1))
    o_e2 = line_bundle(basis_vector(2))
    assert euler_pairing(o_e1, o_e2) == 0
    assert left_mutate_class(o_e1, o_e2) == o_e2


def test_left_then_right_restores_collection_up_to_sign():
    # mutation through odd hom spaces shifts objects, so at class level
    # the double mutation restores each slot up to sign
    classes = collection_classes()
    for i in range(1, 9):
        back = mutate_collection_right(mutate_collection_left(classes, i), i)
        for got, orig in zip(back, classes):
            assert got == orig or got == -orig


def test_tensor_canonical():
    o = line_bundle([0] * 7)
    tw = tensor_canonical(o)
    assert tw.key() == (1, tuple(-d for d in DELTA), 1)
    rank0 = line_on_surface_class(3)
    assert tensor_canonical(rank0).c1 == rank0.c1
    rng = random.Random(26)
    for _ in range(40):
        e, f = _random_class(rng), _random_class(rng)
        assert euler_pairing(tensor_canonical(e), tensor_canonical(f)) == \
            euler_pairing(e, f)


def test_serre_shadow_on_the_collection():
    classes = collection_classes()
    for e in classes:
        for f in classes:
            assert euler_pairing(f, tensor_canonical(e)) == euler_pairing(e, f)


def test_mutation_chain():
    transcript = mutation_chain_transcript()
    assert transcript["final_matches_collection"]
    signs = {entry["stage"]: entry["signs"] for entry in transcript["stages"]}
    assert signs[2] == [1] * 9
    assert signs[3] == [1, 1, 1, 1, 1, -1, -1, -1, 1]
    assert signs[4] == [1, 1, 1, 1, 1, 1, -1, -1, -1]
    assert signs[5] == [1, 1, 1, 1, 1, 1, -1, -1, -1]
    assert signs[6] == [1, 1, 1, -1, -1, -1, -1, -1, -1]
    assert signs[7] == [1, 1, 1, -1, -1, -1, -1, -1, -1]


def test_chain_mismatch_is_detected(monkeypatch):
    import qgm.picard as picard_mod

    real = picard_mod._chain_stages

    def corrupted():
        stage1, listed, recipe = real()
        bad = {k: list(v) for k, v in listed.items()}
        bad[4][6] = bad[4][6] + line_bundle([0] * 7)
        return stage1, bad, recipe

    monkeypatch.setattr(picard_mod, "_chain_stages", corrupted)
    with pytest.raises(ChainMismatch) as err:
        picard_mod.mutation_chain_transcript()
    assert "stage 4" in str(err.value)
    assert "position 7" in str(err.value)
