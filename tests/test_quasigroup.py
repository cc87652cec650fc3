"""Quasigroups, the trichromatic colourings, and the round trip."""

from itertools import combinations, permutations, product

import pytest

from chromarep.algebra import Signature
from chromarep.colouring import EdgeColouring, Level, canonical_form, verify
from chromarep.quasigroup import (Quasigroup, lambda1, lambda2,
                                  quasigroup_from_colouring, standard_qn,
                                  validate)


def quasigroups_isomorphic(a, b):
    if a.order != b.order:
        return False
    for perm in permutations(range(a.order)):
        if all(perm[a.mul(i, j)] == b.mul(perm[i], perm[j])
               for i in range(a.order) for j in range(a.order)):
            return True
    return False


def test_standard_qn_small_values():
    q5 = standard_qn(5)
    # i*j solves 2u = i+j (mod n)
    assert q5.mul(3, 4) == 1          # 2*1 = 2 = 7 mod 5
    assert standard_qn(7).mul(3, 5) == 4   # 2*4 = 8 = 1 mod 7
    for n in (3, 5, 9):
        q = standard_qn(n)
        assert all(q.mul(i, i) == i for i in range(n))


def test_standard_qn_oracle():
    # independent congruence-solving oracle
    for n in (3, 5, 7, 11):
        q = standard_qn(n)
        for i in range(n):
            for j in range(n):
                u = next(u for u in range(n) if 2 * u % n == (i + j) % n)
                assert q.mul(i, j) == u


def test_standard_qn_rejects_even_or_tiny():
    for n in (1, 2, 4, 6):
        with pytest.raises(ValueError):
            standard_qn(n)


def test_validate_flags():
    assert validate(standard_qn(9)).valid
    # addition table of Z_4: Latin and commutative, not idempotent
    z4 = Quasigroup(tuple(tuple((i + j) % 4 for j in range(4))
                          for i in range(4)))
    report = validate(z4)
    assert not report.valid
    assert (1, 1) in report.idempotency_violations
    assert not report.latin_violations
    # a repeated row entry breaks the Latin property
    broken = Quasigroup(((0, 0, 2), (0, 1, 2), (2, 2, 2)))
    report = validate(broken)
    assert ("row", 0) in report.latin_violations
    # 0*1 = 2 while 1*0 = 1
    skew = Quasigroup(((0, 2, 1), (1, 1, 0), (2, 0, 2)))
    assert (0, 1) in validate(skew).commutativity_violations


def test_quasigroup_shape_validation():
    # the order is the number of rows, so each row needs that many entries
    for table in (((0, 1, 2), (1, 0, 2)), ((0, 1), (1,))):
        with pytest.raises(ValueError, match="one row per element"):
            Quasigroup(table)
    assert standard_qn(5).order == 5 and Quasigroup(()).order == 0


def three_cycle_failures(q):
    """Oracle: the triples x < y < z with no u, v, w such that u*v = x,
    v*w = y and w*u = z, from the definition."""
    n = q.order
    cycles = {(q.mul(u, v), q.mul(v, w), q.mul(w, u))
              for u, v, w in product(range(n), repeat=3)}
    return [t for t in combinations(range(n), 3) if t not in cycles]


def three_cycle_by_verify(q):
    """(passed, failing triples) read from ``verify`` of lambda1 at the
    qualitative level of {3}, each colour shifted down by one (see the
    module docstring)."""
    report = verify(lambda1(q), Signature(frozenset({3}), q.order),
                    Level.QUALITATIVE)
    return report.passed, [(a - 1, b - 1, c - 1)
                           for a, b, c in report.missing_required]


def test_three_cycle_condition_standard():
    # the condition holds on every standard quasigroup, and verify says so
    for n in range(3, 12, 2):
        q = standard_qn(n)
        assert three_cycle_failures(q) == []
        assert three_cycle_by_verify(q) == (True, [])


def test_three_cycle_condition_closed_form():
    # a = k-i-j mod n always yields a witness for the standard quasigroup
    for n in (5, 9, 11):
        q = standard_qn(n)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    a = (k - i - j) % n
                    u, v, w = (2 * i - a) % n, a, (2 * j - a) % n
                    assert q.mul(u, v) == i
                    assert q.mul(v, w) == j


def fano_quasigroup():
    """Steiner quasigroup of the Fano plane: x*y is the third point of the
    line through x and y."""
    table = [[i] * 7 for i in range(7)]
    for i in range(7):
        a, b, c = i, (i + 1) % 7, (i + 3) % 7
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            table[x][y] = table[y][x] = z
    return Quasigroup(table)


def test_three_cycle_condition_fano():
    # the Fano quasigroup fails the condition on 28 of its 35 triples, and
    # verify's missing multisets are exactly those triples
    q = fano_quasigroup()
    failing = three_cycle_failures(q)
    assert validate(q).valid and len(failing) == 28
    assert three_cycle_by_verify(q) == (False, failing)


def test_three_cycle_rejects_invalid():
    z4 = Quasigroup(tuple(tuple((i + j) % 4 for j in range(4))
                          for i in range(4)))
    with pytest.raises(ValueError, match="not a commutative idempotent"):
        three_cycle_by_verify(z4)


def test_lambda1():
    q = standard_qn(5)
    col = lambda1(q)
    assert col.m == 5 and col.n == 5
    assert col.colour(0, 1) == 4      # 0*1 = 3, shifted to colour 4
    # no two edges at one vertex share a colour, and vertex v misses
    # exactly the colour v + 1 (its own square)
    for v in range(5):
        cols = [col.colour(v, w) for w in range(5) if w != v]
        assert len(set(cols)) == len(cols)
        assert {1, 2, 3, 4, 5} - set(cols) == {v + 1}
    # order-3 case: the all-distinct K3
    assert sorted(lambda1(standard_qn(3)).colours) == [1, 2, 3]
    skew = Quasigroup(((0, 2, 1), (1, 1, 0), (2, 0, 2)))
    with pytest.raises(ValueError, match="not a commutative idempotent"):
        lambda1(skew)


def test_lambda2():
    q = standard_qn(5)
    col = lambda2(q)
    assert col.m == 6
    # the added vertex meets every colour; originals become saturated
    assert {col.colour(5, i) for i in range(5)} == {1, 2, 3, 4, 5}
    assert all(len({col.colour(v, w) for w in range(6) if w != v}) == 5
               for v in range(6))
    # the first n vertices carry exactly lambda1
    l1 = lambda1(q)
    assert all(col.colour(i, j) == l1.colour(i, j)
               for i in range(5) for j in range(i + 1, 5))


def test_lambda_colourings_verify():
    for n in (3, 5, 7, 9):
        s = Signature(frozenset({3}), n)
        assert verify(lambda1(standard_qn(n)), s, Level.QUALITATIVE).passed
        assert verify(lambda2(standard_qn(n)), s, Level.QUALITATIVE).passed


def test_lambda2_matches_roots_of_unity_drawing():
    # chords at constant rotation: colour of {a, b} solves 2t = a+b (mod n),
    # hub edge to v_t gets colour t
    for n in (5, 7):
        inv2 = pow(2, -1, n)

        def colour_of(i, j):
            if j == n:
                return i + 1
            if i == n:
                return j + 1
            return (i + j) * inv2 % n + 1

        drawing = EdgeColouring.from_function(n + 1, n, colour_of)
        assert canonical_form(drawing) == \
            canonical_form(lambda2(standard_qn(n)))


def test_round_trip_lambda2():
    for n in (3, 5, 7, 9):
        q = standard_qn(n)
        back = quasigroup_from_colouring(lambda2(q))
        assert validate(back).valid
        if n <= 7:
            assert quasigroups_isomorphic(back, q)
        else:
            # isomorphism via the colourings keeps the order-9 case cheap
            assert canonical_form(lambda2(back)) == \
                canonical_form(lambda2(q))


def test_round_trip_k4_matchings():
    k4 = EdgeColouring(4, 3, (1, 2, 3, 3, 2, 1))
    q = quasigroup_from_colouring(k4)
    assert q.order == 3
    assert validate(q).valid
    assert quasigroups_isomorphic(q, standard_qn(3))


def test_quasigroup_from_colouring_rejects():
    with pytest.raises(ValueError):
        quasigroup_from_colouring(EdgeColouring(3, 3, (1, 1, 2)))
    with pytest.raises(ValueError):  # wrong vertex count
        quasigroup_from_colouring(lambda1(standard_qn(5)))
    with pytest.raises(ValueError, match="not a qualitative trichromatic"):
        quasigroup_from_colouring(EdgeColouring(4, 3, (1,) * 6))
