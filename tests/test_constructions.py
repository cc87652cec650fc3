"""The per-signature construction dispatcher and its building blocks."""

import re
from itertools import combinations

import pytest

from chromarep.algebra import witness_pairs
from chromarep.colouring import (EdgeColouring, Level, VerificationReport,
                                 verify)
from chromarep.constructions import (RULES, DelegatedToSearch,
                                     NotConstructible, chain_colouring, construct, pentagon,
                                     single_colour, walecki, walecki_witness,
                                     wrap_colour)
from chromarep.geometry import cyclotomic

from helpers import ALL_S, sig


def test_wrap_colour():
    assert wrap_colour(3, 7) == 1
    assert wrap_colour(6, 0) == 6
    for n in (1, 4, 9):
        assert wrap_colour(n, n) == n
    assert wrap_colour(5, -3) == 2


def test_single_colour_and_pentagon():
    assert single_colour(3).colours == (1, 1, 1)
    p = pentagon()
    assert (p.m, p.n, p.colours) == (5, 2, (1, 2, 1, 2, 2, 1, 1, 2, 2, 1))
    assert cyclotomic(5, 2) == p


def test_chain_colouring():
    col = chain_colouring(4)
    assert col.m == 5
    # triangle {i<j<k} gets colours (j, k, k): always dichromatic
    for x, y, z in combinations(range(5), 3):
        assert len({col.colour(x, y), col.colour(y, z),
                    col.colour(x, z)}) == 2
    for n in range(2, 11):
        assert verify(chain_colouring(n), sig((2,), n), Level.FEEBLE).passed
    with pytest.raises(ValueError):
        chain_colouring(1)


def test_walecki_small_values():
    col = walecki(3)
    assert (col.m, col.n) == (6, 3)
    assert col.colour(0, 1) == 1
    assert col.colour(0, 2) == 2
    assert col.colour(0, 4) == 3
    assert walecki(1).m == 2
    with pytest.raises(ValueError):
        walecki(0)


def test_walecki_is_path_decomposition():
    # each colour class is a Hamiltonian path: m-1 edges, all degrees <= 2,
    # connected and acyclic
    for n in (2, 3, 5):
        col = walecki(n)
        m = col.m
        for c in range(1, n + 1):
            edges = [(i, j) for i, j, cc in col.edges() if cc == c]
            assert len(edges) == m - 1
            deg = [0] * m
            for i, j in edges:
                deg[i] += 1
                deg[j] += 1
            assert max(deg) == 2 and deg.count(1) == 2


def test_walecki_verifies_qualitative():
    for n in range(1, 16):
        assert verify(walecki(n), sig((2, 3), n), Level.QUALITATIVE).passed


def test_walecki_no_monochromatic_triangle():
    for n in range(2, 16):
        col = walecki(n)
        for x, y, z in combinations(range(col.m), 3):
            assert len({col.colour(x, y), col.colour(y, z),
                        col.colour(x, z)}) >= 2


def test_walecki_witness_known_case():
    # n=3, colours (1,2,3): the lemma's formulas give circle labels 6,3,4
    assert walecki_witness(3, 1, 2, 3) == (5, 2, 3)
    col = walecki(3)
    x, y, z = walecki_witness(3, 1, 2, 1)
    assert (col.colour(x, y), col.colour(x, z), col.colour(y, z)) == (1, 2, 1)


def test_walecki_witness_full_scan():
    for n in range(2, 16):
        col = walecki(n)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(1, n + 1):
                    x, y, z = walecki_witness(n, i, j, k)
                    assert len({x, y, z}) == 3
                    assert col.colour(x, y) == i
                    assert col.colour(x, z) == j
                    assert col.colour(y, z) == k


def test_walecki_witness_rejects_bad_triples():
    with pytest.raises(ValueError):
        walecki_witness(3, 2, 1, 3)   # needs i < j
    with pytest.raises(ValueError):
        walecki_witness(3, 1, 2, 4)   # colour out of range


def test_construct_self_verifies_everywhere():
    for s in ALL_S:
        for n in range(1, 8):
            for level in Level:
                result = construct(sig(s, n), level)
                assert isinstance(result, (EdgeColouring, NotConstructible,
                                           DelegatedToSearch))
                if isinstance(result, EdgeColouring):
                    assert verify(result, sig(s, n), level).passed


def test_construct_n1():
    # with one colour only the monochromatic type matters
    for s in ALL_S:
        col = construct(sig(s, 1), Level.STRONG)
        assert col.m == (3 if 1 in s else 2)


def test_construct_restrictive_signatures_nonexistent():
    for s in [(), (1,)]:
        for n in (2, 5):
            result = construct(sig(s, n), Level.FEEBLE)
            assert isinstance(result, NotConstructible)
            assert result.nonexistent


def test_construct_trichromatic():
    assert construct(sig((3,), 5), Level.QUALITATIVE).m == 6
    assert construct(sig((3,), 3), Level.STRONG).m == 4
    assert isinstance(construct(sig((3,), 5), Level.STRONG), NotConstructible)
    # even n: feeble only, via recolouring one edge of the odd case
    col = construct(sig((3,), 4), Level.FEEBLE)
    assert col.n == 4 and 4 in col.used_colours()
    assert isinstance(construct(sig((3,), 4), Level.QUALITATIVE),
                      NotConstructible)
    assert isinstance(construct(sig((3,), 2), Level.FEEBLE), NotConstructible)


def test_construct_dichromatic():
    assert construct(sig((2,), 2), Level.STRONG).m == 5  # the pentagon
    assert construct(sig((2,), 5), Level.FEEBLE).m == 6
    result = construct(sig((2,), 3), Level.QUALITATIVE)
    assert isinstance(result, NotConstructible) and result.nonexistent


def test_construct_ramsey():
    assert construct(sig((2, 3), 4), Level.QUALITATIVE).m == 8
    assert isinstance(construct(sig((2, 3), 3), Level.STRONG),
                      DelegatedToSearch)
    big = construct(sig((2, 3), 6), Level.STRONG)
    assert isinstance(big, NotConstructible) and not big.nonexistent


def test_construct_lyndon():
    assert construct(sig((1, 3), 3), Level.FEEBLE).m == 3
    assert construct(sig((1, 3), 4), Level.STRONG).m == 9
    assert construct(sig((1, 3), 5), Level.STRONG).m == 16
    assert construct(sig((1, 3), 5), Level.QUALITATIVE).m == 16
    # planes of order 8 and 9 over GF(8) and GF(9)
    assert construct(sig((1, 3), 9), Level.STRONG).m == 64
    assert construct(sig((1, 3), 10), Level.STRONG).m == 81
    # AG(2, 4) less one and two points
    assert construct(sig((1, 3), 6), Level.QUALITATIVE).m == 15
    assert construct(sig((1, 3), 7), Level.QUALITATIVE).m == 14
    for n in range(4, 11):
        assert isinstance(construct(sig((1, 3), n), Level.QUALITATIVE),
                          EdgeColouring)
    assert isinstance(construct(sig((1, 3), 3), Level.QUALITATIVE),
                      DelegatedToSearch)
    # the delegating row covers n = 2 as well as n = 3
    assert construct(sig((1, 3), 2), Level.QUALITATIVE).reason == (
        "two- and three-colour Lyndon qualitative existence is settled by "
        "exhaustive search")
    assert isinstance(construct(sig((1, 3), 7), Level.STRONG),
                      NotConstructible)  # no plane of order 6


def witness_bound(sig):
    # an edge of colour c has a distinct third vertex for each pair that a
    # strong representation must witness on it
    return 2 + max(len(pairs) for pairs in witness_pairs(sig))


def test_strong_witness_bound():
    assert {s: [witness_bound(sig(s, n)) for n in range(2, 7)]
            for s in [(2, 3), (1, 2), (1, 2, 3), (1, 3)]} == {
        (2, 3): [5, 10, 17, 26, 37], (1, 2): [6, 9, 12, 15, 18],
        (1, 2, 3): [6, 11, 18, 27, 38], (1, 3): [3, 5, 9, 15, 23]}
    tight, loose = set(), {}
    for s in RULES:
        for n in range(1, 8):
            col = construct(sig(s, n), Level.STRONG)
            if isinstance(col, EdgeColouring):
                bound = witness_bound(sig(s, n))
                assert col.m >= bound, (s, n)
                if col.m == bound:
                    tight.add((tuple(sorted(s)), n))
                else:
                    loose[tuple(sorted(s)), n] = (col.m, bound)
    # met by the n = 1 cells, the pentagon, lambda2(Q3) and AG(2, 3); AG(2, 4)
    # and AG(2, 5) exceed it
    assert tight == {(tuple(sorted(s)), 1) for s in RULES} | {
        ((2,), 2), ((3,), 3), ((1, 3), 4)}
    assert loose == {((1, 3), 5): (16, 15), ((1, 3), 6): (25, 23)}


def test_construct_all_types():
    col = construct(sig((1, 2, 3), 3), Level.QUALITATIVE)
    # walecki(3) on 6 vertices plus one monochromatic triangle per colour
    assert col.m == 15
    assert isinstance(construct(sig((1, 2, 3), 3), Level.STRONG),
                      NotConstructible)


def test_construct_mono_di():
    assert isinstance(construct(sig((1, 2), 4), Level.FEEBLE), EdgeColouring)
    assert isinstance(construct(sig((1, 2), 4), Level.QUALITATIVE),
                      DelegatedToSearch)


def test_rules_have_no_shadowed_rows():
    # every S has its rows, each deciding some (level, n) with 2 <= n <= 10,
    # and a last row that decides whatever the rows above it leave
    assert set(RULES) == {frozenset(s) for s in ALL_S}
    for s, rows in RULES.items():
        assert set(rows[-1][0]) == set(Level) and rows[-1][1] is None
        decided = set()
        for n in range(2, 11):
            for level in Level:
                i, (_, _, result) = next(
                    (i, row) for i, row in enumerate(rows)
                    if level in row[0] and (row[1] is None or row[1](n)))
                decided.add(i)
                want = result(n) if callable(result) else result
                assert construct(sig(s, n), level) == want
        assert decided == set(range(len(rows))), s


def test_built_colouring_must_pass_verify(monkeypatch):
    # every built colouring is re-checked by verify, and one that fails is a
    # defect of the builder, named by signature and level, never a verdict
    def failing(col, sig, level):
        return VerificationReport(level_requested=level, passed=False,
                                  surjective=True)
    monkeypatch.setattr("chromarep.constructions.verify", failing)
    s = sig((2, 3), 3)
    with pytest.raises(AssertionError, match=re.escape(
            f"construction defect for {s} at qualitative: ")):
        construct(s, Level.QUALITATIVE)
