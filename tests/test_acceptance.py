"""Acceptance suite: one test per criterion, each printing a PASS line.

All arithmetic is exact, so every comparison below is strict equality
(tolerance zero). Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

import json
import random

from ckbundle import (
    FgAbelianGroup,
    IntMatrix,
    IntPolynomial,
    SEWitness,
    alexander_polynomial,
    bowen_franks,
    ck_functor,
    det,
    edge_dilation,
    h1,
    k0,
    k1,
    make_bundle,
    matmul,
    search_se_witness,
    se_obstruction,
    smith_normal_form,
    theorem1_check,
    trace_sequence,
    unimodular_inverse,
    verify_se_witness,
)
from ckbundle.cli import main

from conftest import (
    A2,
    A3,
    a1,
    conjugate,
    identity_minus_transpose,
    random_matrix,
    random_nonnegative,
    random_unimodular,
)
from oracles import elementary_generators, snf_2x2_oracle


def _report(criterion, text):
    print(f"ACCEPTANCE {criterion} PASS: {text}")


def test_criterion_1_k0_and_h1_of_the_unipotent_family():
    for n in range(1, 11):
        b = make_bundle(a1(n))
        expected_k0 = FgAbelianGroup.free(1) if n == 1 else FgAbelianGroup(1, (n,))
        expected_h1 = FgAbelianGroup.free(2) if n == 1 else FgAbelianGroup(2, (n,))
        assert k0(a1(n)) == expected_k0
        assert h1(b) == expected_h1
    _report(1, "k0 = Z + Z_n and h1 = Z^2 + Z_n for [[1,n],[0,1]], n = 1..10")


def test_criterion_2_k_theory_of_the_two_solvable_examples():
    assert k0(A2) == FgAbelianGroup(0, (2, 2))
    assert k0(A3) == FgAbelianGroup(0, (4,))
    for a in (A2, A3):
        assert det(identity_minus_transpose(a)) == -4
        assert k1(a) == FgAbelianGroup.trivial()
    _report(2, "k0(A2) = Z_2 + Z_2, k0(A3) = Z_4, both k1 trivial")


def test_criterion_3_alexander_polynomials_coincide():
    expected = IntPolynomial((1, -6, 1))
    p2 = alexander_polynomial(make_bundle(A2))
    p3 = alexander_polynomial(make_bundle(A3))
    assert p2 == expected and p3 == expected
    assert p2.coefficients == (1, -6, 1)
    _report(3, "alexander(A2) = alexander(A3) = t^2 - 6t + 1 exactly")


def test_criterion_4_compare_verdicts_through_the_cli(tmp_path, capsys):
    a_path = tmp_path / "a2.txt"
    a_path.write_text("5 2\n2 1\n")
    b_path = tmp_path / "a3.txt"
    b_path.write_text("5 1\n4 1\n")

    code = main(["compare", str(a_path), str(b_path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["verdict"] == "Distinct"
    assert payload["witness"] == "K0: Z_2 + Z_2 vs Z_4"

    # conjugate of A2 by a depth-3 elementary word
    gens = [IntMatrix(g) for g in elementary_generators(2)]
    word = matmul(matmul(gens[0], gens[3]), gens[4])
    conjugated = conjugate(A2, word)
    c_path = tmp_path / "conj.txt"
    c_path.write_text("\n".join(" ".join(str(x) for x in row) for row in conjugated))

    code = main(["compare", str(a_path), str(c_path), "--depth", "4", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["verdict"] == "Homeomorphic"
    certificate = IntMatrix(payload["certificate"]["rows"])
    assert conjugate(A2, certificate) == conjugated
    _report(4, "compare(A2, A3) = Distinct/K0/exit 1; conjugate pair = Homeomorphic/exit 0")


def test_criterion_5_theorem_1_property_suite():
    rng = random.Random(10**9 + 7)
    trials = 500
    for _ in range(trials):
        n = rng.choice([2, 3, 4])
        a = random_unimodular(n, rng.randint(0, 6), rng)
        b = make_bundle(a)
        assert theorem1_check(b)

        u = random_unimodular(n, rng.randint(1, 5), rng)
        b_conj = make_bundle(conjugate(a, u))
        assert h1(b) == h1(b_conj)
        assert alexander_polynomial(b) == alexander_polynomial(b_conj)
        fa, fc = ck_functor(b), ck_functor(b_conj)
        assert fa.k0 == fc.k0 and fa.k1 == fc.k1
        assert k0(a) == k0(b_conj) and k1(a) == k1(b_conj)
    _report(5, f"theorem1_check and conjugation invariance on {trials} random GL_n(Z) matrices")


def test_criterion_6_snf_oracle_equivalence():
    rng = random.Random(20**5)
    for _ in range(1000):
        a = random_matrix(rng, 2, 2, -30, 30)
        assert smith_normal_form(a).diagonal() == snf_2x2_oracle(a.to_lists())
    for _ in range(150):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = random_matrix(rng, rows, cols, -20, 20)
        dec = smith_normal_form(a)
        assert matmul(matmul(dec.u, a), dec.v) == dec.d
        assert det(dec.u) in (1, -1) and det(dec.v) in (1, -1)
        diag = dec.diagonal()
        nonzero = [x for x in diag if x != 0]
        assert all(x >= 0 for x in diag)
        assert tuple(nonzero) + (0,) * (len(diag) - len(nonzero)) == diag
        assert all(y % x == 0 for x, y in zip(nonzero, nonzero[1:]))
    _report(6, "1000 random 2x2 match the gcd oracle; 150 random n <= 6 decompositions valid")


def test_criterion_7_shift_equivalence_machinery():
    rng = random.Random(30**4)
    for _ in range(200):
        n = rng.randint(1, 4)
        a = random_nonnegative(rng, n, 5)
        assert verify_se_witness(a, a, SEWitness(a, IntMatrix.identity(n), 1))

    pairs = 0
    while pairs < 150:
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        r = random_matrix(rng, m, n, 0, 5)
        s = random_matrix(rng, n, m, 0, 5)
        a, b = matmul(r, s), matmul(s, r)
        assert verify_se_witness(a, b, SEWitness(r, s, 1))
        assert bowen_franks(a) == bowen_franks(b)
        assert trace_sequence(a, 5) == trace_sequence(b, 5)
        pairs += 1

    assert search_se_witness(A2, A3, max_lag=3, entry_bound=6) is None
    obstruction = se_obstruction(A2, A3)
    assert obstruction is not None and "Bowen-Franks" in obstruction
    _report(7, "200 trivial witnesses verify; 150 SSE pairs share invariants; (A2, A3) obstructed")


def test_criterion_8_edge_dilation_preserves_the_shift():
    assert edge_dilation(IntMatrix([[2]])) == IntMatrix([[1, 1], [1, 1]])
    rng = random.Random(40**3)
    done = 0
    while done < 100:
        n = rng.randint(1, 3)
        a = IntMatrix([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)])
        if any(all(x == 0 for x in a.row(i)) for i in range(n)):
            continue
        if any(all(x == 0 for x in a.column(j)) for j in range(n)):
            continue
        d = edge_dilation(a)
        assert d.is_zero_one
        assert bowen_franks(d) == bowen_franks(a)
        assert trace_sequence(d, 5) == trace_sequence(a, 5)
        done += 1
    _report(8, "dilation of [[2]] is the 2x2 all-ones matrix; 100 random dilations preserve invariants")


def test_criterion_9_functoriality_of_conjugation():
    rng = random.Random(50**2)
    for _ in range(200):
        n = rng.choice([2, 3])
        a = random_unimodular(n, rng.randint(0, 5), rng)
        u1 = random_unimodular(n, rng.randint(0, 4), rng)
        u2 = random_unimodular(n, rng.randint(0, 4), rng)

        composed = matmul(u2, u1)
        one_step = matmul(matmul(composed, a), unimodular_inverse(composed))
        two_steps = conjugate(conjugate(a, u1), u2)
        assert one_step == two_steps

        base = make_bundle(a)
        stepped = make_bundle(one_step)
        fa, fc = ck_functor(base), ck_functor(stepped)
        assert fa.k0 == fc.k0 and fa.k1 == fc.k1
        assert h1(base) == h1(stepped)
        assert alexander_polynomial(base) == alexander_polynomial(stepped)
    _report(9, "200 random conjugation triples compose exactly and fix every invariant")
