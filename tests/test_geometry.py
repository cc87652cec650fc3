"""Linear spaces with their parallelisms, planes and the deletion
construction."""

from itertools import combinations

import pytest

from chromarep.colouring import EdgeColouring, Level, verify
from chromarep.geometry import (LinearSpace, _field_tables, affine_plane,
                                colouring_from_parallelism, cyclotomic,
                                drop_points, linear_space_from_colouring,
                                near_pencil, prime_power)
from chromarep.search import enumerate_representations

from helpers import sig


def ls_axioms(sp):
    """(passed, LS4 failures, LS5 failures) read from ``verify`` at the
    qualitative level of {1,3}: colour c is block c - 1, so a missing
    (b, b, b) is block b - 1 without a long line and a missing trichromatic
    (a, b, c) the block triple (a - 1, b - 1, c - 1) without a triangle."""
    report = verify(colouring_from_parallelism(sp),
                    sig((1, 3), len(sp.blocks)), Level.QUALITATIVE)
    missing = report.missing_required
    return (report.passed, [a - 1 for a, _, c in missing if a == c],
            [(a - 1, b - 1, c - 1) for a, b, c in missing if a < b < c])


def test_prime_power():
    expected = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1),
                8: (2, 3), 9: (3, 2), 11: (11, 1), 13: (13, 1), 16: (2, 4),
                17: (17, 1), 19: (19, 1), 23: (23, 1), 25: (5, 2),
                27: (3, 3), 29: (29, 1), 31: (31, 1), 32: (2, 5),
                37: (37, 1), 41: (41, 1), 43: (43, 1), 47: (47, 1),
                49: (7, 2)}
    assert {q: prime_power(q) for q in range(1, 50)
            if prime_power(q)} == expected
    assert prime_power(0) is None and prime_power(1) is None


def test_linear_space_rejects_unknown_points():
    with pytest.raises(ValueError):
        LinearSpace(3, ((frozenset({0, 5}),),))
    with pytest.raises(ValueError, match="non-negative"):
        LinearSpace(-1, ())


def test_validate_space_affine_plane():
    # a LinearSpace checks its axioms when it is built
    affine_plane(3)


def test_validate_space_witnesses():
    # two lines sharing two points
    with pytest.raises(ValueError, match=r"pair \(0, 1\) lies on two lines"):
        LinearSpace(4, ((frozenset({0, 1, 2}),), (frozenset({0, 1, 3}),),
                        (frozenset({2, 3}),)))
    # an uncovered pair
    with pytest.raises(ValueError, match=r"pair \(0, 2\) lies on no line"):
        LinearSpace(3, [[{0, 1}], [{1, 2}]])
    # a short line, named (block, index)
    with pytest.raises(ValueError,
                       match=r"line \(1, 0\) has fewer than 2 points"):
        LinearSpace(3, ((frozenset({0, 1}),), (frozenset({2}),)))


def crossed_blocks(space):
    """AG(2, 2)'s blocks with the second lines of blocks 0 and 1 swapped:
    block 0 then holds line 0 of slope 0 and line 1 of slope 1, which
    meet."""
    (a, b), (c, d), verticals = space.blocks
    return (a, d), (c, b), verticals


def test_validate_parallelism_witnesses():
    # the parallelism's witness: lines of one block that meet, named
    # (block, index); the lines themselves form a linear space
    blocks = crossed_blocks(affine_plane(2))
    with pytest.raises(ValueError, match=r"lines \(0, 0\) and \(0, 1\) meet"):
        LinearSpace(4, blocks)
    LinearSpace(4, [[line] for block in blocks for line in block])


def test_ls5_rejects_non_parallelisms():
    # crossing lines in one block are no parallelism, and blocks that miss
    # lines leave pairs uncovered; neither builds, so there are no parallel
    # classes to colour or check
    sp = affine_plane(2)
    with pytest.raises(ValueError, match=r"lines \(0, 0\) and \(0, 1\) meet"):
        sp._replace(blocks=crossed_blocks(sp))
    with pytest.raises(ValueError, match=r"pair \(0, 1\) lies on no line"):
        sp._replace(blocks=sp.blocks[:2])


def test_ls4_ls5_affine_plane():
    assert ls_axioms(affine_plane(3)) == (True, [], [])


def test_ls4_fails_on_near_pencil_even():
    passed, ls4, ls5 = ls_axioms(near_pencil(4))
    assert not passed
    # every 2-point apex line is its own block and has no long line
    assert ls4 == [1, 2, 3]
    # blocks 1-3 are the apex lines; all meet at 0, so no triangle uses them
    assert ls5 == [(1, 2, 3)]


def test_near_pencil_shapes():
    sp = near_pencil(3)
    assert sp.blocks == ((frozenset({1, 2}),), (frozenset({0, 1}),),
                         (frozenset({0, 2}),))
    assert len(near_pencil(4).blocks) == 4
    assert ls_axioms(near_pencil(5))[1] == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        near_pencil(2)


def test_affine_plane_counts():
    for p, lines, blocks in [(2, 6, 3), (3, 12, 4), (4, 20, 5), (5, 30, 6),
                             (8, 72, 9), (9, 90, 10)]:
        sp = affine_plane(p)
        assert sp.point_count == p * p
        assert sum(map(len, sp.blocks)) == lines
        assert len(sp.blocks) == blocks
    for q in (6, 12):
        with pytest.raises(ValueError):
            affine_plane(q)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_prime_field_tables_are_modular(q):
    add, mul = _field_tables(q)
    assert add == tuple(tuple((a + b) % q for b in range(q)) for a in range(q))
    assert mul == tuple(tuple(a * b % q for b in range(q)) for a in range(q))


def reference_field_tables(q):
    """GF(q), q = p**k with k > 1, by per-entry polynomial arithmetic: the
    first monic degree-k modulus, lower coefficients counted up in base p,
    whose full multiplication table has no zero divisor."""
    p, k = prime_power(q)

    def digits(a):
        return [a // p ** i % p for i in range(k)]

    def number(coeffs):
        return sum(c % p * p ** i for i, c in enumerate(coeffs))

    def times(a, b, modulus):
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(digits(a)):
            for j, y in enumerate(digits(b)):
                prod[i + j] += x * y
        for top in range(2 * k - 2, k - 1, -1):  # x^k = -(modulus - x^k)
            for i, c in enumerate(modulus):
                prod[top - k + i] -= prod[top] * c
        return number(prod[:k])

    add = tuple(tuple(number(x + y for x, y in zip(digits(a), digits(b)))
                      for b in range(q)) for a in range(q))
    for low in range(q):
        mul = tuple(tuple(times(a, b, digits(low)) for b in range(q))
                    for a in range(q))
        if all(mul[a][b] for a in range(1, q) for b in range(1, q)):
            return add, mul


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 81])
def test_prime_power_field_tables_match_reference(q):
    assert _field_tables(q) == reference_field_tables(q)


def test_affine_plane_2_is_k4_matchings():
    col = colouring_from_parallelism(affine_plane(2))
    assert col.m == 4 and col.n == 3
    # three perfect matchings: opposite edges share a colour
    assert col.colour(0, 1) == col.colour(2, 3)
    assert col.colour(0, 2) == col.colour(1, 3)
    assert col.colour(0, 3) == col.colour(1, 2)


def test_affine_plane_order4():
    sp = affine_plane(4)
    assert sp.point_count == 16
    assert ls_axioms(sp) == (True, [], [])
    # reference: GF(4) written out by hand, addition xor on {0,1,2,3}
    mul = ((0, 0, 0, 0),
           (0, 1, 2, 3),
           (0, 2, 3, 1),
           (0, 3, 1, 2))
    blocks = [tuple(frozenset(4 * x + (mul[s][x] ^ b) for x in range(4))
                    for b in range(4)) for s in range(4)]
    blocks.append(tuple(frozenset(4 * c + y for y in range(4))
                        for c in range(4)))
    assert sp.blocks == tuple(blocks)


def test_drop_points_counts():
    sp = drop_points(3, 1)
    assert sp.point_count == 8 and len(sp.blocks) == 5
    sp = drop_points(5, 3)
    assert sp.point_count == 22 and len(sp.blocks) == 9
    for q in (3, 5, 7):
        for k in range(q - 1):
            assert len(drop_points(q, k).blocks) == q + k + 1


def test_drop_points_ls_axioms_order4():
    # the order-4 plane is the least that keeps LS4 after a deletion
    for k in (1, 2):
        sp = drop_points(4, k)
        assert len(sp.blocks) == 5 + k
        assert ls_axioms(sp) == (True, [], [])


def test_drop_points_ls4_gap_at_order3():
    # deleting from the order-3 plane leaves only 2-point lines in the new
    # pencil, so the monochromatic axiom fails there
    passed, ls4, _ = ls_axioms(drop_points(3, 1))
    assert not passed
    assert ls4 == [4]


def geometric_ls_axioms(sp):
    """Oracle: (passed, LS4 failures, LS5 failures) from the definitions,
    the blocks with no line of at least 3 points and the block triples
    a < b < c for which no three points have their pairwise lines in
    blocks a, b and c."""
    block_of = {pair: b for b, block in enumerate(sp.blocks) for line in block
                for pair in combinations(sorted(line), 2)}
    ls4 = [b for b, block in enumerate(sp.blocks)
           if all(len(line) < 3 for line in block)]
    met = set()
    for p, q, r in combinations(range(sp.point_count), 3):
        kinds = {block_of[p, q], block_of[q, r], block_of[p, r]}
        if len(kinds) == 3:
            met.add(tuple(sorted(kinds)))
    ls5 = [t for t in combinations(range(len(sp.blocks)), 3) if t not in met]
    return not ls4 and not ls5, ls4, ls5


LS_STRUCTURES = ([("affine_plane", q) for q in (2, 3, 4, 5, 7, 8, 9)]
                 + [("near_pencil", n) for n in range(3, 13)]
                 + [("drop_points", q, k) for q in (3, 4, 5, 7, 8)
                    for k in range(q - 1)])


@pytest.mark.parametrize("build", LS_STRUCTURES, ids=str)
def test_verify_decides_ls4_ls5(build):
    name, *args = build
    space = {"affine_plane": affine_plane, "near_pencil": near_pencil,
             "drop_points": drop_points}[name](*args)
    assert ls_axioms(space) == geometric_ls_axioms(space)


def test_drop_points_rejections():
    with pytest.raises(ValueError):
        drop_points(3, 2)                           # k > q-2
    with pytest.raises(ValueError):
        drop_points(5, -1)                          # k < 0
    with pytest.raises(ValueError, match="not a prime power"):
        drop_points(6, 0)
    with pytest.raises(ValueError, match="below 3"):
        drop_points(2, 0)
    for n in (0, -1):                               # checked before GF(13)
        with pytest.raises(ValueError, match="at least one colour"):
            cyclotomic(13, n)


def test_colouring_from_parallelism_near_pencil():
    col = colouring_from_parallelism(near_pencil(4))
    report = verify(col, sig((1, 3), 4), Level.FEEBLE)
    assert report.passed
    # long-line triangle is monochromatic, apex triangles trichromatic
    assert len({col.colour(1, 2), col.colour(2, 3), col.colour(1, 3)}) == 1
    assert len({col.colour(0, 1), col.colour(1, 2), col.colour(0, 2)}) == 3


def test_colouring_from_parallelism_affine_plane_strong():
    col = colouring_from_parallelism(affine_plane(3))
    assert verify(col, sig((1, 3), 4), Level.STRONG).passed


def test_drop_points_colouring_qualitative_order5():
    # LS4 and LS5 hold, so the colouring is qualitative {1,3} on 7 colours
    sp = drop_points(5, 1)
    assert len(sp.blocks) == 7
    assert ls_axioms(sp) == (True, [], [])


def test_colouring_from_parallelism_rejects_invalid():
    # no crossing parallelism and no pair on two lines builds, so every
    # LinearSpace that reaches colouring_from_parallelism is valid
    with pytest.raises(ValueError, match=r"lines \(0, 0\) and \(0, 1\) meet"):
        LinearSpace(4, crossed_blocks(affine_plane(2)))
    with pytest.raises(ValueError, match=r"pair \(0, 1\) lies on two lines"):
        LinearSpace(3, ((frozenset({0, 1, 2}),), (frozenset({0, 1}),)))


def test_space_round_trip_affine_plane():
    col = colouring_from_parallelism(affine_plane(3))
    back = linear_space_from_colouring(col)
    assert back.point_count == 9
    assert sum(map(len, back.blocks)) == 12
    # a parallelism is its colouring (see geometry's docstring)
    assert colouring_from_parallelism(back) == col


def test_space_round_trip_near_pencil():
    col = colouring_from_parallelism(near_pencil(5))
    assert colouring_from_parallelism(linear_space_from_colouring(col)) == col


def test_space_round_trip_single_colour():
    col = EdgeColouring(3, 1, (1, 1, 1))
    assert linear_space_from_colouring(col).blocks == ((frozenset({0, 1, 2}),),)


def test_space_round_trip_enumerated_colourings():
    # every feeble {1,3} colouring has no dichromatic triangle, so it is the
    # colouring of the linear space it determines
    classes = 0
    for n in range(2, 6):
        for m in range(3, 10):
            found, partial = enumerate_representations(sig((1, 3), n),
                                                       Level.FEEBLE, m)
            assert not partial
            classes += len(found)
            for col in found:
                assert colouring_from_parallelism(
                    linear_space_from_colouring(col)) == col
    assert classes == 70


def test_linear_space_from_colouring_rejects_dichromatic():
    # the check is feeble {1,3}: its summary names the fault
    with pytest.raises(ValueError,
                       match=r"feeble: FAIL \(1 forbidden triangle\(s\)\)"):
        linear_space_from_colouring(EdgeColouring(3, 2, (1, 1, 2)))
    with pytest.raises(ValueError, match=r"feeble: FAIL \(not surjective\)"):
        linear_space_from_colouring(EdgeColouring(3, 2, (1, 1, 1)))
