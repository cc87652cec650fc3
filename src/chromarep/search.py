"""Bounded exhaustive search for representations, and enumeration up to
isomorphism.

The search colours the edges of K_m one at a time in the fixed enumeration
order, taking colours in first-occurrence order (a triangle's consistency
depends only on how many distinct colours it has, so no iso-class is lost).
It prunes when a completed triangle has a forbidden type, and on entering a
position by one bound: too few edges left for surjectivity, too few
triangles for the missing multisets, or a strong leaf's missing witness.
``search`` breaks only this colour symmetry; ``enumerate_representations``
also breaks vertex symmetry, by orderly generation (Read 1978, Faradzev
1978), whose canonical-prefix test joins the bound.  Two proved rules (see
``search``) skip every larger m and, in a range from m <= 2, certify
nonexistence: a dead m, an m whose search the bound never cut, at any
level; or, at the feeble and qualitative levels, ``restriction_bound``
reached from m <= 2.  Any other exhaustion is only a range-limited answer.
"""

from __future__ import annotations

import json
import sys
import time
from collections import namedtuple
from functools import cache
from math import comb

from .algebra import Signature, required_multisets, triangle_table
from .colouring import (EdgeColouring, Level, _is_canonical, canonical_form,
                        colour_rows, edge_index, edge_list, unwitnessed,
                        verify)


# status: "found" | "exhausted" | "aborted" | "skipped"; prunes: entries
# the bound refused, 0 on an exhausted m: dead
PerM = namedtuple("PerM", "m status nodes prunes seconds")


class SearchOutcome(namedtuple(
        "SearchOutcome", "status colouring m_max nodes per_m "
        "complete_certificate", defaults=([], False))):
    """``status`` is "found", "exhausted" or "aborted"; ``colouring`` the
    found EdgeColouring or None; ``m_max`` the last m of an exhausted range
    or None; ``per_m`` a list of PerM records; ``complete_certificate``
    True when the exhausted range certifies nonexistence (see search)."""

    __slots__ = ()

    def summary(self) -> str:
        """The verdict in one line; every front end words it this way."""
        if self.status == "found":
            return f"found on m={self.colouring.m}"
        if self.status == "aborted":
            return "budget exhausted"
        kind = ("certified nonexistent" if self.complete_certificate
                else "none found (range-limited)")
        return f"{kind} up to m={self.m_max}"

    def transcript_lines(self):
        for rec in self.per_m:
            yield json.dumps({"m": rec.m, "status": rec.status,
                              "nodes": rec.nodes, "prunes": rec.prunes,
                              "seconds": round(rec.seconds, 4)})


def default_m_range(sig: Signature) -> tuple[int, int]:
    """[2, 3 |atoms|]: the vertex counts ``search`` tries when given no
    range, and the largest m ``enumerate_representations`` accepts.  It
    decides no certificate (see ``restriction_bound``)."""
    return 2, 3 * (sig.n + 1)


def restriction_bound(sig: Signature, level: Level) -> int:
    """The vertex count within which every feeble or qualitative
    representation restricts to one: 3|R| plus 2 for each colour in no
    multiset of R, where R is ``required_multisets(sig)`` at the
    qualitative level and empty at the feeble level, so 2n there (the proof
    is in ``search``).  The strong level has no such bound."""
    if level is Level.STRONG:
        raise ValueError("the strong level has no restriction bound")
    multisets = required_multisets(sig) if level is Level.QUALITATIVE else ()
    covered = {c for t in multisets for c in t}
    return 3 * len(multisets) + 2 * (sig.n - len(covered))


class _Budget:
    def __init__(self, node_budget):
        if node_budget is not None and node_budget < 0:
            raise ValueError(f"node budget must be >= 0, got {node_budget}")
        self.limit = sys.maxsize if node_budget is None else node_budget
        self.nodes = 0
        # entries the search's one bound refused (see _search_m)
        self.prunes = 0

    @property
    def aborted(self) -> bool:
        return self.nodes > self.limit


@cache
def _pair_table(sig: Signature, multisets: bool) -> tuple:
    """``table[a][b]``, for proper colours a and b, packs into one int the
    colours c that make {a, b, c} consistent (bit c, 1..n) and, with
    ``multisets``, the bit ``1 << k`` of each one's multiset, entry k + 1 of
    ``triangle_table`` (field c: W = ``len(required_multisets(sig))`` bits
    from bit n + 1 + (c - 1) * W).  Row and column 0 are 0.  The colour bits
    follow from the count of distinct colours alone, so without multisets,
    for the feeble level, the (n+1)² entries need no ``triangle_table``."""
    n, s = sig.n, sig.s_set
    every = (2 << n) - 2
    if multisets:
        width, tri = len(required_multisets(sig)), triangle_table(sig)

    def entry(a, b):
        # c in {a, b} gives t distinct colours, any other c gives t + 1
        pair, t = 1 << a | 1 << b, len({a, b})
        bits = (pair if t in s else 0) | (every ^ pair if t + 1 in s else 0)
        if multisets:
            # set each field's bit in place: summing shifted ints would copy
            # an entry of n * W bits n times
            fields = bytearray((n + 1 + n * width + 7) // 8)
            for c, k in enumerate(tri[a][b]):
                if k:
                    at = n + k + (c - 1) * width
                    fields[at // 8] |= 1 << at % 8
            bits |= int.from_bytes(fields, "little")
        return bits

    colours = range(n + 1)
    return tuple(tuple(a and b and entry(a, b) for b in colours)
                 for a in colours)


def _search_m(sig: Signature, level: Level, m: int, budget: _Budget, *,
              orderly=False):
    """Depth-first search over colourings of K_m.

    Yields every solution, in depth-first order.  One loop walks the edge
    positions and the leaf, position ``total``, entered like any other, so
    the one bound on entering is the only site of every prune but the
    forbidden triangle.  Position idx keeps its colour ``colours[idx]`` (0 =
    none tried yet), the colour count ``entry_used[idx]`` on entering it,
    and ``first_bits[idx]``, the multisets its triangles realised first; so
    undoing a colour is one assignment and one xor.

    Colours come from ``_pair_table``.  On first entering a position, past
    the bound, one pass over its closures (the triangles {k, i, j} that
    edge (i, j) completes) ANDs their entries' colour bits into
    ``allowed[idx]``, stopping once none is left, and ORs their multiset
    fields into ``fields[idx]``.  Each next colour is the lowest allowed bit
    left, so colours are tried in ascending order, and its multisets are
    read from its field.  What a node step would compute from the colour
    count, the position or the colour (the colours up to ``used + 1``, the
    surjectivity threshold, a field's shift, a bit's colour) is read from
    tables built once per call.  Nodes, and the entries the bound refuses,
    are counted in locals, written to ``budget.nodes`` and
    ``budget.prunes`` before each yield and at the end.  The node past
    ``budget.limit`` ends the loop, so the loop is the generator's only
    exit, and ``budget.aborted`` tells an abort from an exhaustion.

    At the strong level the kernel also keeps ``neigh[v][c]``, the bitmask
    of the vertices w with colour(v, w) = c (v itself in colour 0), as
    ``neighbour_masks`` would build it from the colours stored so far:
    storing colour c at edge (i, j) sets two bits and undoing it clears
    them.  A strong leaf hands these masks to ``unwitnessed`` and is dropped
    at its first failure; no colour matrix is built for it.

    With ``orderly``, the bound also fails position comb(j, 2), the first
    edge of column j or the leaf, unless the colouring of vertices 0..j-1 is
    its own canonical form; then the solutions yielded are exactly the
    canonical forms of the solutions (see ``enumerate_representations``).
    """
    n = sig.n
    feeble = level is Level.FEEBLE
    table = _pair_table(sig, not feeble)
    width = 0 if feeble else len(required_multisets(sig))
    # field c of a table entry starts at bit shift[c]
    shift = [n + 1 + (c - 1) * width for c in range(n + 1)]
    field_mask = (1 << width) - 1
    # the colours a position entered with used colours may take: 1..used+1,
    # at most n; and the colour of each such bit
    start = [(2 << min(used + 1, n)) - 2 for used in range(n + 1)]
    colour_of = {1 << c: c for c in range(1, n + 1)}
    edges = edge_list(m)
    total = len(edges)
    strong = level is Level.STRONG

    # triangles completed by each edge: (i, j) closes {k, i, j} for k < i
    closures = [[(edge_index(k, i), edge_index(k, j)) for k in range(i)]
                for i, j in edges]
    # triangles still open before assigning (i, j): all of them, less those
    # inside the first j vertices, less the {k, i', j} with k < i' < i; none
    # at the leaf
    remaining_triangles = [comb(m, 3) - comb(j, 3) - comb(i, 2)
                           for i, j in edges] + [0]
    # surjectivity: entering idx with fewer colours than this leaves too few
    # edges for the rest
    least_used = [n - total + idx for idx in range(total + 1)]
    # entering position comb(j, 2) finds vertices 0..j-1 coloured: the
    # prefixes K_3 (K_2 has one colouring) to K_m, the last at the leaf
    prefixes = {comb(j, 2): j for j in range(3, m + 1)}

    colours, entry_used, first_bits, allowed, fields = [
        [0] * (total + 1) for _ in range(5)]
    if strong:
        neigh = [[1 << v] + [0] * n for v in range(m)]
        # per position: the endpoints' masks, each with the other's bit
        ends = [(neigh[i], 1 << j, neigh[j], 1 << i) for i, j in edges]
    # bit k of realised is set once a triangle realises multiset k; at the
    # feeble level width is 0, so no multiset bit is ever read
    missing, realised = width, 0
    nodes, prunes, limit = budget.nodes, budget.prunes, budget.limit
    used = idx = 0
    while idx >= 0:
        c = colours[idx]
        if c:  # undo the colour tried last
            used = entry_used[idx]
            if strong:
                masks_i, bit_j, masks_j, bit_i = ends[idx]
                masks_i[c] ^= bit_j
                masks_j[c] ^= bit_i
            if new := first_bits[idx]:
                realised ^= new
                missing += new.bit_count()
            left = allowed[idx]
        elif (used < least_used[idx] or missing > remaining_triangles[idx]
              or strong and idx == total
              and any(unwitnessed(neigh, colours, sig))
              or orderly and idx in prefixes
              and not _is_canonical(colour_rows(prefixes[idx], colours))):
            # the one bound: surjectivity, the missing multisets, a strong
            # leaf's missing witness, then (costlier) a non-canonical prefix
            prunes += 1
            idx -= 1
            continue
        elif idx == total:  # the leaf, past the bound
            idx -= 1
            cand = EdgeColouring(m, n, tuple(colours[:total]))
            # independent soundness check
            if not verify(cand, sig, level).passed:
                raise AssertionError("search produced an invalid colouring")
            budget.nodes, budget.prunes = nodes, prunes
            yield cand
            continue
        else:
            # first entry: the colours up to used + 1 (at most n) that every
            # closure allows, and the multiset fields of its triangles
            left = start[used]
            got = 0
            for e1, e2 in closures[idx]:
                entry = table[colours[e1]][colours[e2]]
                left &= entry
                if not left:
                    break
                got |= entry
            fields[idx] = got
        if not left:  # no colour left: leave the position
            colours[idx] = 0
            idx -= 1
            continue
        nodes += 1
        if nodes > limit:
            break
        low = left & -left
        allowed[idx] = left ^ low
        c = colours[idx] = colour_of[low]
        if strong:
            masks_i, bit_j, masks_j, bit_i = ends[idx]
            masks_i[c] |= bit_j
            masks_j[c] |= bit_i
        if c > used:
            used = c
        if new := fields[idx] >> shift[c] & field_mask & ~realised:
            realised |= new
            missing -= new.bit_count()
        first_bits[idx] = new
        idx += 1
        entry_used[idx] = used
    budget.nodes, budget.prunes = nodes, prunes


def search(sig: Signature, level: Level, m_range=None,
           node_budget=None) -> SearchOutcome:
    """Look for a representation of the signature at the given level.

    Vertex counts are tried in ascending order; budget exhaustion always
    reports "aborted", never nonexistence.  After an m that is not found,
    two rules prove that no larger m holds a representation:

    - at any level, when m is dead: its search was exhausted and its bound
      refused no entry, so every colouring of K_m in at most n colours has
      a forbidden triangle.  Forbidden-freeness is hereditary, so no
      representation, finite or infinite, has m vertices or more;
    - feeble or qualitative, when the range starts at m <= 2 and m reaches
      ``restriction_bound``.  Take a representation.  Pick one triangle
      realising each multiset of R (none at the feeble level) and one edge
      of each remaining colour.  Forbidden-freeness and realised multisets
      are inherited by induced subgraphs, and every colour is used, so the
      K_k induced on the chosen vertices, 2 <= k <= the bound, is a
      representation at the same level, and the search would have found it.

    Where either rule fires, every larger m is recorded as "skipped" and
    not searched, and ``complete_certificate`` is decided: it holds when
    the range starts at m <= 2.  Strong witnesses are not inherited by
    induced subgraphs, so the strong level has no restriction bound and
    certifies only at a dead m.  An empty range, a vertex count below 1 or
    a negative budget raises ValueError.
    """
    lo, hi = m_range if m_range is not None else default_m_range(sig)
    if lo > hi:
        raise ValueError(f"empty vertex range {lo}..{hi}")
    if lo < 1:
        raise ValueError(f"vertex count {lo} is below 1")
    budget = _Budget(node_budget)
    bound = None if level is Level.STRONG else restriction_bound(sig, level)
    per_m = []
    proved = certified = False
    for m in range(lo, hi + 1):
        if proved:
            per_m.append(PerM(m, "skipped", 0, 0, 0.0))
            continue
        start, before, refused = (time.perf_counter(), budget.nodes,
                                  budget.prunes)
        hit = next(_search_m(sig, level, m, budget), None)
        # edge (0, 1) closes no triangle, so a K_m that passes the bound at
        # position 0 ticks colour 1 there: no node means "skipped"
        status = ("found" if hit else "aborted" if budget.aborted else
                  "exhausted" if budget.nodes > before else "skipped")
        prunes = budget.prunes - refused
        per_m.append(PerM(m, status, budget.nodes - before, prunes,
                          time.perf_counter() - start))
        if status in ("found", "aborted"):
            return SearchOutcome(status, hit, None, budget.nodes, per_m)
        # a dead m, or the restriction bound from m <= 2 (see above)
        if not prunes or lo <= 2 and bound is not None and m >= bound:
            proved, certified = True, lo <= 2
    return SearchOutcome("exhausted", None, hi, budget.nodes, per_m,
                         complete_certificate=certified)


def enumerate_representations(sig: Signature, level: Level, m: int,
                              node_budget=None):
    """All pass-level colourings of K_m up to isomorphism: their canonical
    forms, in ascending order.

    Returns (colourings, partial): partial is True when the budget ran out,
    in which case the list must not be used as a completeness certificate.

    Vertex symmetry is broken by orderly generation: the search's entry
    bound drops a colouring as soon as its prefix on vertices 0..j is not
    its own canonical form, and no canonical form is dropped.  A code lists
    rows in the order in which the search colours edges, rows have fixed
    lengths, and first-occurrence renaming of a prefix depends only on the
    prefix; so if some ordering of the first j+1 vertices gave their
    colouring a smaller code, that ordering followed by the other vertices
    would give the whole colouring a smaller one.  Each iso-class therefore
    reaches exactly one leaf, its canonical form, and the kernel reaches
    leaves in ascending order, so they are kept as they come.  Each leaf is
    still checked to be its own canonical form, as the kernel verifies it:
    a failure raises AssertionError.
    """
    hi = default_m_range(sig)[1]
    if not 1 <= m <= hi:
        raise ValueError(f"vertex count {m} outside the search range 1..{hi}")
    budget = _Budget(node_budget)
    found = list(_search_m(sig, level, m, budget, orderly=True))
    # independent soundness check, as the kernel's leaf verify
    if any(canonical_form(col) != col for col in found):
        raise AssertionError("orderly search reached a non-canonical leaf")
    return found, budget.aborted
