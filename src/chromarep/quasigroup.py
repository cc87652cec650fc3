"""Commutative idempotent quasigroups and their trichromatic colourings.

The colour convention is fixed package-wide: quasigroup element k
corresponds to edge colour k+1, so public colourings always use {1..n}.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, product

from .algebra import Signature, checked_tuple
from .colouring import EdgeColouring, Level, verify


class Quasigroup(checked_tuple("Quasigroup", "order table")):
    """An order-n Cayley table over {0..n-1}."""

    __slots__ = ()

    def __new__(cls, order, table):
        if len(table) != order:
            raise ValueError("table must have one row per element")
        for row in table:
            if len(row) != order:
                raise ValueError("table rows must have order entries")
        return super().__new__(cls, order, table)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]


QuasigroupReport = namedtuple(
    "QuasigroupReport", "valid latin_violations commutativity_violations "
    "idempotency_violations", defaults=([], [], []))


def validate(q: Quasigroup) -> QuasigroupReport:
    """Check the Latin, commutative and idempotent properties with witnesses."""
    latin, commutativity, idempotency = [], [], []
    full = set(range(q.order))
    for i in range(q.order):
        if set(q.table[i]) != full:
            latin.append(("row", i))
        if {q.table[j][i] for j in range(q.order)} != full:
            latin.append(("column", i))
        if q.table[i][i] != i:
            idempotency.append((i, i))
        for j in range(i + 1, q.order):
            if q.table[i][j] != q.table[j][i]:
                commutativity.append((i, j))
    return QuasigroupReport(not (latin or commutativity or idempotency),
                            latin, commutativity, idempotency)


def standard_qn(n: int) -> Quasigroup:
    """The halved-sum quasigroup on Z_n: i*j is the u with 2u = i+j (mod n).

    Exists exactly for odd n; idempotent and commutative by construction.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("order must be odd and at least 3")
    half = pow(2, -1, n)
    table = tuple(tuple((i + j) * half % n for j in range(n))
                  for i in range(n))
    return Quasigroup(n, table)


def three_cycle_condition(q: Quasigroup):
    """Decide whether every 3-element subset is realised as a product cycle.

    For each x < y < z looks for u, v, w with u*v = x, v*w = y, w*u = z;
    since vertex relabellings reach all six assignments, the fixed one
    suffices.  Returns (flag, witnesses) with the lexicographically least
    (u, v, w) per triple, or None where the search fails.
    """
    if not validate(q).valid:
        raise ValueError("not a commutative idempotent quasigroup")
    n = q.order
    # every row is Latin, so u*v = x has one solution v = solve[u][x]; u and
    # x fix v, v and y fix w, and the least u whose cycle closes wins
    solve = [[0] * n for _ in range(n)]
    for u, v in product(range(n), repeat=2):
        solve[u][q.mul(u, v)] = v
    witnesses = {}
    for x, y, z in combinations(range(n), 3):
        witnesses[(x, y, z)] = None
        for u in range(n):
            v = solve[u][x]
            w = solve[v][y]
            if q.mul(w, u) == z:
                witnesses[(x, y, z)] = (u, v, w)
                break
    return all(witnesses.values()), witnesses


def lambda1(q: Quasigroup) -> EdgeColouring:
    """Colour edge {i,j} of K_n by the product i*j (shifted to 1-based)."""
    if not validate(q).valid:
        raise ValueError("not a commutative idempotent quasigroup")
    return EdgeColouring.from_function(q.order, q.order,
                                      lambda i, j: q.mul(i, j) + 1)


def lambda2(q: Quasigroup) -> EdgeColouring:
    """Extend lambda1 with one extra vertex joined to each i by colour i+1.

    The extra vertex is the last one (index n); the first n vertices carry
    exactly lambda1, so every original vertex becomes chromatically
    saturated.
    """
    n = q.order
    # the hub's n edges (i, n) close the edge order
    return EdgeColouring(n + 1, n, lambda1(q).colours + tuple(range(1, n + 1)))


def quasigroup_from_colouring(col: EdgeColouring) -> Quasigroup:
    """Recover a quasigroup from a trichromatic representation on n+1 points.

    Renumbers vertices so that one hub vertex sees colour i+1 on its edge
    to the vertex named i; the remaining edges then read off the Cayley
    table.  Any vertex works as hub (all are incident to every colour), but
    the recovered quasigroups are generally only isotopic, not isomorphic;
    the last vertex is used so that ``lambda2`` output, whose added vertex
    comes last, round-trips to the original quasigroup exactly.
    """
    n = col.n
    if col.m != n + 1:
        raise ValueError(f"need {n + 1} vertices, got {col.m}")
    sig = Signature(frozenset({3}), n)
    if not verify(col, sig, Level.QUALITATIVE).passed:
        raise ValueError("colouring is not a qualitative trichromatic "
                         "representation")
    # the hub's edges close the edge order: vertex i meets it in colour
    # name[i] + 1, and the edges among the other n vertices come first
    name = [c - 1 for c in col.colours[-n:]]
    table = [[i] * n for i in range(n)]  # idempotent diagonal
    for v, w, c in col.edges():
        if w < n:
            table[name[v]][name[w]] = table[name[w]][name[v]] = c - 1
    q = Quasigroup(n, tuple(tuple(r) for r in table))
    assert validate(q).valid
    return q
