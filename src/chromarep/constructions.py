"""Explicit representations per signature, where a closed construction exists.

``construct`` looks the signature and requested level up in the rule table
``RULES`` and returns either a verified colouring, a ``NotConstructible``
verdict, or ``DelegatedToSearch`` when only exhaustive search can settle the
request.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import Signature
from .colouring import EdgeColouring, Level, cayley, verify
from .geometry import (affine_plane, colouring_from_parallelism, drop_points,
                       near_pencil, prime_power)
from .quasigroup import lambda2, standard_qn


# nonexistent: True when the reason is a nonexistence result rather than a
# gap in what this library builds
NotConstructible = namedtuple("NotConstructible", "reason nonexistent",
                              defaults=(False,))

DelegatedToSearch = namedtuple("DelegatedToSearch", "reason")


def wrap_colour(n: int, x: int) -> int:
    """Fold an integer (possibly negative) into the colour range 1..n."""
    return (x - 1) % n + 1


def single_colour(m: int) -> EdgeColouring:
    return EdgeColouring(m, 1, (1,) * (m * (m - 1) // 2))


def pentagon() -> EdgeColouring:
    """C_5 edges in colour 1, diagonals in colour 2: ``cayley`` on Z_5."""
    z5 = [[(a + b) % 5 for b in range(5)] for a in range(5)]
    return cayley(z5, 2, (None, 1, 2, 2, 1))


def chain_colouring(n: int) -> EdgeColouring:
    """K_{n+1} with colour(v_i, v_j) = j for i < j: every triangle is
    dichromatic and every colour occurs."""
    if n < 2:
        raise ValueError("chain colouring needs at least 2 colours")
    return EdgeColouring.from_function(n + 1, n, lambda i, j: max(i, j))


def walecki_colour(n: int, u: int, v: int) -> int:
    """Colour of the edge {u, v} of walecki(n), without building it."""
    u, v = min(u, v), max(u, v)
    return wrap_colour(n, (v - u + 2) // 2 + u)


def walecki(n: int) -> EdgeColouring:
    """Zigzag Hamiltonian-path decomposition of K_{2n}, one colour per
    rotation; no monochromatic triangle, all other triangles realised."""
    if n < 1:
        raise ValueError("need at least one colour")
    return EdgeColouring.from_function(
        2 * n, n, lambda u, v: walecki_colour(n, u, v))


def walecki_witness(n: int, i: int, j: int, k: int):
    """A vertex triple of walecki(n) whose triangle carries colours i, j, k.

    Requires 1 <= i < j <= n and 1 <= k <= n.  Returns 0-based vertices
    (x, y, z) with colour(x,y) = i, colour(x,z) = j and colour(y,z) = k.
    """
    if not (1 <= i < j <= n and 1 <= k <= n):
        raise ValueError("need 1 <= i < j <= n and k in 1..n")
    two_n = 2 * n
    ell = (i + j - k - 1) % two_n + 1
    if k != i:
        s, t = 2 * k - 2 * j + 1, 2 * k - 2 * i
    else:
        s, t = 2 * k - 2 * j, 2 * k - 2 * i + 1

    def vertex(x):
        return (x - 1) % two_n  # 1-based circle label to internal index

    return vertex(ell), vertex(ell + s), vertex(ell + t)


def _even_trichromatic_feeble(n: int) -> EdgeColouring:
    """Feeble colouring for S = {3} with an even colour count: take the
    qualitative representation one colour down and recolour the first edge
    with the new colour."""
    base = lambda2(standard_qn(n - 1))
    cols = list(base.colours)
    cols[0] = n
    return EdgeColouring(base.m, n, tuple(cols))


def _all_types_filler(n: int) -> EdgeColouring:
    """walecki(n) beside n disjoint monochromatic triangles, one per colour,
    with colour 1 on every cross edge: m = 5n.  Walecki realises every
    non-monochromatic multiset and the triangles the monochromatic ones;
    sound for S = {1, 2, 3}, where no triangle type is forbidden."""
    two_n = 2 * n

    def colour_of(i, j):
        if j < two_n:
            return walecki_colour(n, i, j)
        if i >= two_n and (i - two_n) // 3 == (j - two_n) // 3:
            return (i - two_n) // 3 + 1
        return 1

    return EdgeColouring.from_function(5 * n, n, colour_of)


def _lyndon_qualitative(n: int) -> EdgeColouring:
    """Qualitative Lyndon representation: delete k = n - q - 1 points from
    the affine plane over the least admissible prime power q.

    Deletion leaves q + k + 1 parallel classes, and q + 1 <= n <= 2q - 1
    keeps k <= q - 2.  Deleting from the order-3 plane leaves a pencil of
    2-point lines with no monochromatic triangle, so k >= 1 needs q >= 4.
    """
    # Bertrand's postulate puts a prime in [(n + 2) // 2, n - 1] for n >= 4
    q = min(q for q in range((n + 2) // 2, n)
            if prime_power(q) and (q == n - 1 or q >= 4))
    return colouring_from_parallelism(drop_points(q, n - q - 1))


_ANY = tuple(Level)
_FEEBLE = (Level.FEEBLE,)
_QUALITATIVE = (Level.QUALITATIVE,)
_STRONG = (Level.STRONG,)

# For each S, rows (levels, applies, result) for n >= 2, read in order: the
# first row whose levels hold the level and whose applies is None or true
# for n decides.  A result is a verdict, or a callable of n returning a
# colouring or a verdict.  Every S ends with a row for any level and any n.
# Builders from geometry and quasigroup sit inside lambdas, so they are
# looked up when a row fires and a wrapper set on this module sees them.
RULES = {
    frozenset(): [
        (_ANY, None, NotConstructible(
            "all triangle types forbidden: only the one-colour K_2 exists",
            nonexistent=True))],
    frozenset({1}): [
        (_ANY, None, NotConstructible(
            "only monochromatic triangles allowed: a second colour would "
            "force a forbidden triangle", nonexistent=True))],
    frozenset({3}): [
        (_FEEBLE, lambda n: n % 2 == 0 and n >= 4,
         _even_trichromatic_feeble),
        (_ANY, lambda n: n % 2 == 0, NotConstructible(
            "trichromatic-only colourings exist qualitatively only for "
            "odd colour counts", nonexistent=True)),
        (_STRONG, lambda n: n != 3, NotConstructible(
            "the trichromatic algebras are nonassociative beyond three "
            "colours", nonexistent=True)),
        (_ANY, None, lambda n: lambda2(standard_qn(n)))],
    frozenset({2}): [
        (_FEEBLE, None, chain_colouring),
        (_ANY, lambda n: n == 2, lambda n: pentagon()),
        (_ANY, None, NotConstructible(
            "no qualitative dichromatic-only representation exists beyond "
            "two colours", nonexistent=True))],
    frozenset({2, 3}): [
        (_STRONG, lambda n: n <= 4, DelegatedToSearch(
            "strong Ramsey representations are settled by search at small "
            "colour counts only")),
        (_STRONG, None, NotConstructible(
            "strong Ramsey representations need finite-field machinery not "
            "included here")),
        (_ANY, None, walecki)],
    frozenset({1, 3}): [
        (_STRONG, lambda n: n >= 4 and prime_power(n - 1),
         lambda n: colouring_from_parallelism(affine_plane(n - 1))),
        (_STRONG, lambda n: n == 3, DelegatedToSearch(
            "no strong construction below four colours; search settles the "
            "small case")),
        (_STRONG, None, lambda n: NotConstructible(
            "strong Lyndon representations correspond to affine planes of "
            f"order {n - 1}; none is built here")),
        (_QUALITATIVE, lambda n: n >= 4, _lyndon_qualitative),
        (_QUALITATIVE, None, DelegatedToSearch(
            "two- and three-colour Lyndon qualitative existence is settled "
            "by exhaustive search")),
        (_FEEBLE, lambda n: n >= 3,
         lambda n: colouring_from_parallelism(near_pencil(n))),
        (_ANY, None, DelegatedToSearch(
            "no two-colour Lyndon construction known"))],
    frozenset({1, 2}): [
        (_FEEBLE, None, chain_colouring),
        (_ANY, None, DelegatedToSearch(
            "non-feeble representations for this signature are found by "
            "search only"))],
    frozenset({1, 2, 3}): [
        (_STRONG, None, NotConstructible(
            "finite strong representations exist in the literature but no "
            "construction is included here")),
        (_ANY, None, _all_types_filler)],
}


def construct(sig: Signature, level: Level):
    """Build a representation at the requested level by the first matching
    row of ``RULES``, or return that row's verdict."""
    n = sig.n
    if n == 1:  # one proper colour: a single triangle type matters
        result = single_colour(3 if 1 in sig.s_set else 2)
    else:
        for levels, applies, result in RULES[sig.s_set]:
            if level in levels and (applies is None or applies(n)):
                break
        if callable(result):
            result = result(n)
    if isinstance(result, EdgeColouring):
        report = verify(result, sig, level)
        if not report.passed:
            raise AssertionError(
                f"construction defect for {sig} at {level.value}: "
                f"{report.summary()}")
    return result
