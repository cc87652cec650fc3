"""Commutative idempotent quasigroups and their trichromatic colourings.

The colour convention is fixed package-wide: quasigroup element k
corresponds to edge colour k+1, so public colourings always use {1..n}.

The 3-cycle condition on a commutative idempotent quasigroup Q of order
n >= 3 (every 3-element subset {x, y, z} is realised as u*v = x, v*w = y,
w*u = z) is ``verify(lambda1(Q), Signature({3}, n), Level.QUALITATIVE)``:
- in lambda1(Q) two sides of a triangle {u, v, w} meet at a vertex, say
  u*v and u*w, and differ since row u is Latin; so every triangle is
  trichromatic.  Every colour occurs too: for x != u, row u has x at some
  v, and v != u since u*u = u;
- u, v, w with u*v = x, v*w = y and w*u = z are distinct: u = v makes
  x = u and y = u*w = z, and likewise for v = w and for w = u.  So they
  are a triangle, and it realises {x, y, z}.  Conversely triangle
  {u, v, w} realises {u*v, v*w, w*u}, and relabelling its vertices reaches
  all six ways to put x, y, z on its sides.
So lambda1(Q) passes exactly when the condition holds, and its
``missing_required``, each colour shifted down by one, lists exactly the
triples that fail.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import Signature, checked_tuple
from .colouring import EdgeColouring, Level, verify


class Quasigroup(checked_tuple("Quasigroup", "table")):
    """A Cayley table over {0..n-1}, n = ``order`` its number of rows."""

    __slots__ = ()

    def __new__(cls, table):
        table = tuple(map(tuple, table))
        if any(len(row) != len(table) for row in table):
            raise ValueError("table must have one row per element, and "
                             "each row one entry per element")
        return super().__new__(cls, table)

    @property
    def order(self) -> int:
        return len(self.table)

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
    return Quasigroup(table)


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
    q = Quasigroup(table)
    assert validate(q).valid
    return q
