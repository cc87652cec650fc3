"""Acceptance suite: one test per criterion, reported as one line each in
the terminal summary (see conftest).  Time bounds are asserted where the
criterion states them."""

import time
from itertools import combinations

from chromarep.algebra import (check_na_atom_structure, chromatic_atoms,
                               compose, is_associative)
from chromarep.cli import certify_summary_row
from chromarep.colouring import (EdgeColouring, Level, canonical_form,
                                 verify)
from chromarep.constructions import (chain_colouring, construct, pentagon,
                                     walecki, walecki_witness)
from chromarep.geometry import (affine_plane, colouring_from_parallelism,
                                drop_points, linear_space_from_colouring,
                                near_pencil)
from chromarep.quasigroup import (lambda1, lambda2,
                                  quasigroup_from_colouring, standard_qn,
                                  validate)
from chromarep.search import enumerate_representations, search

from helpers import ALL_S, sig


def test_criterion_01_quasigroup_family():
    for n in (3, 5, 7, 9, 11, 13, 15):
        s = sig((3,), n)
        for build in (lambda1, lambda2):
            start = time.monotonic()
            assert verify(build(standard_qn(n)), s, Level.QUALITATIVE).passed
            assert time.monotonic() - start < 1.0, (n, build.__name__)


def test_criterion_02_odd_only_theorem():
    start = time.monotonic()
    for n in (3, 5, 7):
        outcome = search(sig((3,), n), Level.QUALITATIVE)
        assert outcome.status == "found", n
    for n in (4, 6):
        outcome = search(sig((3,), n), Level.QUALITATIVE)
        assert outcome.status == "exhausted" and outcome.m_max == 3 * (n + 1)
        assert outcome.complete_certificate
    assert time.monotonic() - start < 60.0


def test_criterion_03_trichromatic_classification():
    five, partial5 = enumerate_representations(sig((3,), 5),
                                               Level.QUALITATIVE, 5)
    six, partial6 = enumerate_representations(sig((3,), 5),
                                              Level.QUALITATIVE, 6)
    assert not partial5 and not partial6

    def restrictions(col):
        out = set()
        for gone in range(col.m):
            keep = [v for v in range(col.m) if v != gone]
            sub = EdgeColouring.from_function(
                col.m - 1, col.n,
                lambda i, j: col.colour(keep[i], keep[j]))
            if len(sub.used_colours()) == col.n:
                out.add(canonical_form(sub).colours)
        return out

    # every 5-point representation extends to exactly one 6-point one
    for small in five:
        parents = [big for big in six
                   if small.colours in restrictions(big)]
        assert len(parents) == 1, small
    for big in six:
        q = quasigroup_from_colouring(big)
        assert validate(q).valid
        assert canonical_form(lambda2(q)).colours == big.colours


def test_criterion_04_walecki():
    start = time.monotonic()
    for n in range(1, 16):
        col = walecki(n)
        assert verify(col, sig((2, 3), n), Level.QUALITATIVE).passed
        for x, y, z in combinations(range(col.m), 3):
            assert len({col.colour(x, y), col.colour(y, z),
                        col.colour(x, z)}) != 1
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(1, n + 1):
                    x, y, z = walecki_witness(n, i, j, k)
                    assert (col.colour(x, y), col.colour(x, z),
                            col.colour(y, z)) == (i, j, k)
    assert time.monotonic() - start < 10.0


def test_criterion_05_dichromatic_nonexistence(dichromatic_certificate):
    outcome, seconds = dichromatic_certificate
    assert outcome.status == "exhausted", "Aborted is a test failure"
    assert outcome.m_max == 12 and outcome.complete_certificate
    assert seconds < 600.0
    assert verify(pentagon(), sig((2,), 2), Level.STRONG).passed
    for n in range(2, 11):
        assert verify(chain_colouring(n), sig((2,), n), Level.FEEBLE).passed


def test_criterion_06_lyndon_geometries():
    for p in (3, 5, 7):
        col = colouring_from_parallelism(affine_plane(p))
        assert verify(col, sig((1, 3), p + 1), Level.STRONG).passed, p
    for q in (3, 5, 7):
        for k in range(q - 1):
            assert len(drop_points(q, k).blocks) == q + k + 1
    for n in range(4, 11):
        col = construct(sig((1, 3), n), Level.QUALITATIVE)
        assert isinstance(col, EdgeColouring), n
        assert verify(col, sig((1, 3), n), Level.QUALITATIVE).passed, n
    for n in range(3, 11):
        col = colouring_from_parallelism(near_pencil(n))
        assert verify(col, sig((1, 3), n), Level.FEEBLE).passed, n
        report = verify(col, sig((1, 3), n), Level.QUALITATIVE)
        assert not report.passed and report.missing_required, n
        # the 2-point apex lines leave their colours without monochromatic
        # triangles
        assert any(a == b == c for a, b, c in report.missing_required)


def test_criterion_07_round_trips():
    instances = [affine_plane(3), affine_plane(5), affine_plane(7),
                 near_pencil(4), near_pencil(7),
                 drop_points(5, 1), drop_points(7, 3)]
    for plane in instances:
        col = colouring_from_parallelism(plane)
        # a parallelism is its colouring (see geometry's docstring)
        assert colouring_from_parallelism(
            linear_space_from_colouring(col)) == col
    six, _ = enumerate_representations(sig((3,), 5), Level.QUALITATIVE, 6)
    for big in six:
        q = quasigroup_from_colouring(big)
        assert canonical_form(lambda2(q)).colours == big.colours


def test_criterion_08_algebra_layer():
    for s in ALL_S:
        for n in range(1, 9):
            assert check_na_atom_structure(chromatic_atoms(sig(s, n))).valid

    full = lambda n: (1 << (n + 1)) - 1
    div = lambda n: full(n) & ~1

    def table_formula(s, n, i, j):
        """Diversity-atom composition per the summary table."""
        ai, aj = 1 << i, 1 << j
        if s == frozenset({1, 2, 3}):
            return div(n) if i != j else full(n)
        if s == frozenset({2, 3}):
            return div(n) if i != j else full(n) & ~ai
        if s == frozenset({1, 3}):
            return div(n) & ~ai & ~aj if i != j else 1 | ai
        if s == frozenset({1, 2}):
            return ai | aj if i != j else full(n)
        if s == frozenset({3}):
            return div(n) & ~ai & ~aj if i != j else 1
        if s == frozenset({2}):
            return ai | aj if i != j else full(n) & ~ai
        if s == frozenset({1}):
            return 0 if i != j else 1 | ai
        return 0 if i != j else 1

    for s in ALL_S:
        for n in range(1, 7):
            st = chromatic_atoms(sig(s, n))
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert compose(st, 1 << i, 1 << j) == \
                        table_formula(frozenset(s), n, i, j), (s, n, i, j)

    for n in range(2, 7):
        assert is_associative(chromatic_atoms(sig((2,), n)))[0], n
    # S={3}: a proper triple is consistent only when its three colours are
    # distinct, so a_i;a_i = 1' and, for i != j, a_i;a_j is the sum of the
    # other colours a_k, k not in {i, j}. Hence:
    #   n = 1: Z_2, associative;
    #   n = 2: a1;a2 = 0, so (a1;a1);a2 = a2 but a1;(a1;a2) = 0 -- not
    #          associative, witness (1, 1, 2);
    #   n = 3: a_i;a_j = a_k, the Klein four-group -- associative;
    #   n >= 4: (a1;a1);a2 = a2 but a1;(a1;a2) = sum_{k>=3} a1;a_k contains
    #          a2 and a3 -- not associative, witness (1, 1, 2).
    # So the algebra is associative iff n in {1, 3}; over n = 2..6, iff n = 3.
    for n in range(2, 7):
        flag, witness = is_associative(chromatic_atoms(sig((3,), n)))
        assert flag == (n == 3), \
            (f"S={{3}}, n={n}: is_associative={flag}, witness={witness}; "
             f"expected associative iff n in {{1, 3}}")


def test_criterion_09_monotonicity_sweep():
    all_s = [frozenset(s) for s in ALL_S]
    cases = []
    for m, n in [(4, 2), (4, 3), (5, 2), (5, 3), (6, 3)]:
        e = m * (m - 1) // 2
        total = n ** e
        stride = max(1, total // 260)
        for code in range(0, total, stride):
            cols, x = [], code
            for _ in range(e):
                cols.append(x % n + 1)
                x //= n
            cases.append(EdgeColouring(m, n, tuple(cols)))
    assert len(cases) >= 1000
    for col in cases:
        for s in all_s:
            outcomes = {level: verify(col, sig(s, col.n), level).passed
                        for level in Level}
            if outcomes[Level.STRONG]:
                assert outcomes[Level.QUALITATIVE]
            if outcomes[Level.QUALITATIVE]:
                assert outcomes[Level.FEEBLE]
            if outcomes[Level.FEEBLE]:
                for bigger in all_s:
                    if s < bigger:
                        assert verify(col, sig(bigger, col.n),
                                      Level.FEEBLE).passed, (s, bigger)


def test_criterion_10_discrepancy_resolution():
    outcome = search(sig((1, 3), 3), Level.QUALITATIVE, m_range=(2, 12))
    assert outcome.status != "aborted"  # completion, not a given verdict
    cells = certify_summary_row((1, 3), [3])
    status = cells[(3, Level.QUALITATIVE)].status
    assert status in ("FoundBySearch", "CertifiedNonexistent")
    # record the verdict in the assertion trail: the search certifies
    # nonexistence at n = 3, agreeing with the table's "iff n > 3"
    assert (status == "CertifiedNonexistent") == \
        (outcome.status == "exhausted" and outcome.complete_certificate)
