"""Linear spaces, parallelisms, affine planes and the point-deletion
construction, plus the translation to and from edge colourings.

Points are integers 0..point_count-1 and lines frozensets of points.  A
space keeps its lines in blocks of pairwise disjoint lines, its parallel
classes (one line per block when no parallelism is chosen); block b
becomes edge colour b + 1 in the colouring translation.

Axioms LS4 (each block has a line of at least 3 points) and LS5 (any three
distinct blocks hold the pairwise lines of some three points) are
``verify`` at the qualitative level of ``{1,3}``, one colour per block
(Lyndon 1950).  In the colouring of a parallelism, colour c is block c - 1:
- no triangle is dichromatic: sides xy and xz of one colour lie on lines of
  one block through x, so on one line, and yz lies on it too;
- so a monochromatic triangle of colour c is three points of one line of
  block c - 1, which then has at least 3 points, and any three points of
  such a line are one;
- a trichromatic triangle of colours a, b, c is three points whose pairwise
  lines lie in blocks a - 1, b - 1 and c - 1: LS5's point triple.
So the colouring passes iff LS4 and LS5 hold (LS4 also makes every colour
used).  A missing (c, c, c) is an LS4 failure at block c - 1, and a missing
(a, b, c) an LS5 failure at blocks (a - 1, b - 1, c - 1).

Conversely a parallelism is its colouring: the lines of block c - 1 are the
connected components of colour c, as a colour-c edge between two (disjoint)
lines of that block would lie on a third line of it that meets both.
``linear_space_from_colouring`` lists blocks in colour order, so two
spaces on the same points are equal, block order included and the order of
lines within a block aside, iff their colourings are.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, isqrt

from .algebra import Signature, checked_tuple
from .colouring import EdgeColouring, Level, cayley, colour_rows, verify


class LinearSpace(checked_tuple("LinearSpace", "point_count blocks")):
    """Points 0..point_count-1 and ``blocks``, a tuple of parallel classes,
    each a tuple of lines (frozensets of points).  Building one checks that
    every block has a line, lines have 2 or more points, lines of one block
    are disjoint and each pair (i, j), i < j, lies on one line;
    ``ValueError`` names the witness, line i of block b as (b, i)."""

    __slots__ = ()

    def __new__(cls, point_count, blocks):
        blocks = tuple(tuple(map(frozenset, block)) for block in blocks)
        covered = set()  # the pairs on the lines so far
        for b, block in enumerate(blocks):
            if not block:
                raise ValueError(f"block {b} has no lines")
            points = set()  # the points on block b's lines so far
            for i, line in enumerate(block):
                if not all(0 <= p < point_count for p in line):
                    raise ValueError("line contains an unknown point")
                if len(line) < 2:
                    raise ValueError(f"line {(b, i)} has fewer than 2 points")
                if line & points:
                    j = next(j for j, other in enumerate(block)
                             if other & line)
                    raise ValueError(f"lines {(b, j)} and {(b, i)} meet")
                points |= line
                pairs = set(combinations(sorted(line), 2))
                if twice := pairs & covered:
                    raise ValueError(f"pair {min(twice)} lies on two lines")
                covered |= pairs
        if len(covered) < comb(point_count, 2):
            pair = next(pair for pair in combinations(range(point_count), 2)
                        if pair not in covered)
            raise ValueError(f"pair {pair} lies on no line")
        return super().__new__(cls, point_count, blocks)


def near_pencil(n: int) -> LinearSpace:
    """One long line through all points but the apex, plus the 2-point
    lines through the apex; trivial parallelism (one line per block)."""
    if n < 3:
        raise ValueError("near pencil needs at least 3 points")
    lines = [range(1, n)] + [(0, i) for i in range(1, n)]
    return LinearSpace(n, [[line] for line in lines])


def prime_power(q: int):
    """(p, k) with q = p**k and p prime, or None when q is no prime power."""
    if q < 2:
        return None
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


def _field_tables(q: int):
    """Addition and multiplication tables of GF(q), q = p**k.

    Element a is the polynomial whose coefficients are the base-p digits of
    a.  Products are reduced by the first monic degree-k modulus, lower
    coefficients counted up in base p, that leaves no zero divisors: the
    first irreducible one, so for a prime q (k = 1) arithmetic mod q.
    """
    pk = prime_power(q)
    if pk is None:
        raise ValueError(f"{q} is not a prime power")
    p = pk[0]
    top = q // p  # the place value of the top digit
    # a + b digit by digit: the last digits add mod p, and the others as in
    # row a // p, since b = p * (b // p) + b % p
    add = [tuple(range(q))]
    for a in range(1, q):
        last = [*range(a % p, p), *range(a % p)]  # (a + d) % p for d < p
        add.append(tuple(p * high + d for high in add[a // p][:top]
                         for d in last))
    for low in range(q):
        # c * -(modulus - x^k) for each digit c
        minus, neg = [0], add[low].index(0)
        for _ in range(1, p):
            minus.append(add[minus[-1]][neg])
        # a * x: the digits move up one place and x^k = -(modulus - x^k)
        times_x = [add[a % top * p][minus[a // top]] for a in range(q)]
        mul = [(0,) * q]
        for a in range(1, q):
            row = [0]
            for _ in range(1, p):  # a * b for the digits b
                row.append(add[row[-1]][a])
            # b = x * (b // p) + b % p, and both parts come before b: the
            # block b // p = j is x * (a * j) plus each of the first p
            for j in range(1, top):
                row += map(add[times_x[row[j]]].__getitem__, row[:p])
            if 0 in row[1:]:  # a zero divisor: the modulus is reducible
                break
            mul.append(tuple(row))
        else:
            return tuple(add), tuple(mul)


def cyclotomic(q: int, n: int) -> EdgeColouring:
    """``cayley`` over GF(q) with f[d] = (log_g d mod n) + 1, g the least
    primitive element (Comer 1983); symmetric if q is even or 2n | q - 1."""
    if n < 1:
        raise ValueError(f"need at least one colour, not n = {n}")
    add, mul = _field_tables(q)
    for g in range(1, q):
        log, x = {}, 1
        while x not in log:
            log[x] = len(log)
            x = mul[x][g]
        if len(log) == q - 1:
            return cayley(add, n, {d: e % n + 1 for d, e in log.items()})


def affine_plane(q: int) -> LinearSpace:
    """The affine plane AG(2, q) over the field GF(q), q a prime power.

    Points are pairs (x, y) encoded as q*x + y.  Block s < q holds the lines
    y = s*x + b in order of b, and block q the verticals x = c in order of c.
    """
    add, mul = _field_tables(q)
    blocks = [[frozenset(q * x + add[mul[s][x]][b] for x in range(q))
               for b in range(q)] for s in range(q)]
    blocks.append([frozenset(q * c + y for y in range(q)) for c in range(q)])
    return LinearSpace(q * q, blocks)


def drop_points(q: int, k: int) -> LinearSpace:
    """AG(2, q) less the k points (0, 0)..(0, k - 1), all on the vertical
    x = 0, with its parallelism regrouped; point p becomes p - k.

    Lines through exactly one deleted point form a new pencil direction for
    that point; all other lines keep their old direction.  For q >= 3 and
    0 <= k <= q - 2 the result has q + k + 1 blocks; the new pencils' lines
    keep q - 1 points, so for k >= 1 LS4 needs q >= 4.
    """
    if q < 3:
        raise ValueError(f"plane order {q} is below 3")
    if not 0 <= k <= q - 2:
        raise ValueError(f"can delete 0..{q - 2} points, not {k}")
    blocks = [[] for _ in range(q + 1 + k)]
    for b, block in enumerate(affine_plane(q).blocks):
        for line in block:
            # a line through one deleted point joins that point's pencil
            gone = [p for p in line if p < k]
            blocks[q + 1 + gone[0] if len(gone) == 1 else b].append(
                [p - k for p in line if p >= k])
    return LinearSpace(q * q - k, blocks)


def colouring_from_parallelism(sp: LinearSpace) -> EdgeColouring:
    """Colour each point pair by the block of its line (1-based)."""
    colour = {pair: b + 1 for b, block in enumerate(sp.blocks)
              for line in block for pair in combinations(sorted(line), 2)}
    return EdgeColouring.from_function(sp.point_count, len(sp.blocks),
                                       lambda i, j: colour[i, j])


def linear_space_from_colouring(col: EdgeColouring) -> LinearSpace:
    """Recover a linear space from a feeble ``{1,3}`` colouring: one with
    no dichromatic triangle that uses every colour.

    Each colour class is then a disjoint union of cliques; the cliques are
    the lines and the classes the parallel blocks.
    """
    report = verify(col, Signature(frozenset({1, 3}), col.n), Level.FEEBLE)
    if not report.passed:
        raise ValueError(f"colouring is no linear space: {report.summary()}")
    rows = colour_rows(col.m, col.colours)
    blocks = []
    for c in range(1, col.n + 1):
        block = []
        for v, row in enumerate(rows):
            # the line through v in colour c, listed at its least point
            line = [w for w, d in enumerate(row) if d == c]
            if line and v < line[0]:
                block.append(frozenset(line + [v]))
        blocks.append(block)
    return LinearSpace(col.m, blocks)
