"""Bounded exhaustive search for representations, and enumeration up to
isomorphism.

The search colours the edges of K_m one at a time in the fixed enumeration
order, taking colours in first-occurrence order (a triangle's consistency
depends only on how many distinct colours it has, so no iso-class is lost).
It prunes when a completed triangle has a forbidden type, and on entering a
position by one bound: too few edges left for surjectivity, or too few
triangles for the missing multisets.  Two exhaustions are reported as
nonexistence certificates: the default range [2, 3(n+1)] at the qualitative
level, which rests on the range being complete, unproved (ROADMAP.md, item
2); and [2, 2n] at the feeble level, which is proved (see ``search``).  Any
other exhaustion is only a range-limited answer.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from math import comb

from .algebra import FORBIDDEN, Signature, required_multisets, triangle_table
from .colouring import (EdgeColouring, Level, canonical_form, colour_rows,
                        edge_index, edge_list, unwitnessed, verify)


class BudgetExceeded(Exception):
    pass


@dataclass
class PerM:
    m: int
    status: str  # "found" | "exhausted" | "aborted" | "skipped"
    nodes: int
    seconds: float


@dataclass
class SearchOutcome:
    status: str  # "found" | "exhausted" | "aborted"
    colouring: EdgeColouring | None
    m_max: int | None
    nodes: int
    per_m: list = field(default_factory=list)
    # True when the exhausted range certifies nonexistence (see search)
    complete_certificate: bool = False

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
                              "nodes": rec.nodes,
                              "seconds": round(rec.seconds, 4)})


def default_m_range(sig: Signature) -> tuple[int, int]:
    """[2, 3 |atoms|]; qualitative certificates assume, unproved, that it
    is complete for qualitative existence.  It contains [2, 2n], which is
    proved complete for feeble existence."""
    return 2, 3 * (sig.n + 1)


class _Budget:
    def __init__(self, node_budget):
        self.node_budget = node_budget
        self.nodes = 0

    def tick(self):
        self.nodes += 1
        if self.node_budget is not None and self.nodes > self.node_budget:
            raise BudgetExceeded


def _search_m(sig: Signature, level: Level, m: int, budget: _Budget):
    """Depth-first search over colourings of K_m.

    Yields every solution, in depth-first order.
    """
    n = sig.n
    table = triangle_table(sig)
    edges = edge_list(m)
    total = len(edges)
    need_multisets = level is not Level.FEEBLE
    strong = level is Level.STRONG

    # triangles completed by each edge: (i, j) closes {k, i, j} for k < i
    closures = [[(edge_index(k, i), edge_index(k, j)) for k in range(i)]
                for i, j in edges]
    # triangles still open before assigning (i, j): all of them, less those
    # inside the first j vertices, less the {k, i', j} with k < i' < i.
    # No entry for position total: extend(total) runs only when m <= 1, and
    # the surjectivity clause returns there before the lookup.
    remaining_triangles = [comb(m, 3) - comb(j, 3) - comb(i, 2)
                           for i, j in edges]

    colours = [0] * total
    realized_count = [0] * len(required_multisets(sig))
    missing = len(realized_count)
    used = 0

    # yields once per admissible colour of position idx, left in place
    # (closures read only earlier positions); the one bound: surjectivity
    # or the missing multisets unreachable
    def extend(idx):
        nonlocal missing, used
        if used + (total - idx) < n or (
                need_multisets and missing > remaining_triangles[idx]):
            return
        for c in range(1, min(n, used + 1) + 1):
            newly = []
            for e1, e2 in closures[idx]:
                k = table[c][colours[e1]][colours[e2]]
                if k is FORBIDDEN:
                    break
                newly.append(k)
            else:
                budget.tick()
                colours[idx] = c
                new_colour = c > used
                if new_colour:
                    used += 1
                for k in newly:
                    if realized_count[k] == 0:
                        missing -= 1
                    realized_count[k] += 1
                yield
                for k in newly:
                    realized_count[k] -= 1
                    if realized_count[k] == 0:
                        missing += 1
                if new_colour:
                    used -= 1

    # gen colours the current position; those before it wait on a stack,
    # since nesting C(m, 2) generators would pass the recursion limit
    stack, gen = [], extend(0)
    while gen is not None:
        for _ in gen:
            if len(stack) + 1 < total:
                stack.append(gen)
                gen = extend(len(stack))
                break
            if used != n or (need_multisets and missing):  # bound at total
                continue
            # everything but the strong witnesses is settled by now; a leaf
            # that lacks one never reaches verify
            if strong and next(unwitnessed(colour_rows(m, colours), sig),
                               None) is not None:
                continue
            cand = EdgeColouring(m, n, tuple(colours))
            # independent soundness check
            if not verify(cand, sig, level).passed:
                raise AssertionError("search produced an invalid colouring")
            yield cand
        else:
            gen = stack.pop() if stack else None


def search(sig: Signature, level: Level, m_range=None,
           node_budget=None) -> SearchOutcome:
    """Look for a representation of the signature at the given level.

    Vertex counts are tried in ascending order; budget exhaustion always
    reports "aborted", never nonexistence.  Exhausting a range from m=2 is a
    nonexistence certificate in two cases:

    - qualitative, when the range covers the default one, assumed (unproved)
      complete;
    - feeble, when the range reaches 2n.  Pick one edge of each colour of a
      feeble representation.  The complete graph induced on their at most
      2n endpoints still uses every colour and has no forbidden triangle,
      so it is a feeble representation on 2..2n vertices.

    Strong exhaustion certifies nothing.
    """
    default_lo, default_hi = default_m_range(sig)
    lo, hi = m_range if m_range is not None else (default_lo, default_hi)
    budget = _Budget(node_budget)
    per_m = []
    for m in range(lo, hi + 1):
        start, before = time.perf_counter(), budget.nodes
        try:
            hit = next(_search_m(sig, level, m, budget), None)
            # edge (0, 1) closes no triangle, so a K_m that passes the bound
            # at position 0 ticks colour 1 there: no node means "skipped"
            status = ("found" if hit else
                      "exhausted" if budget.nodes > before else "skipped")
        except BudgetExceeded:
            hit, status = None, "aborted"
        per_m.append(PerM(m, status, budget.nodes - before,
                          time.perf_counter() - start))
        if status in ("found", "aborted"):
            return SearchOutcome(status, hit, None, budget.nodes, per_m)
    certificate = lo <= default_lo and (
        level is Level.QUALITATIVE and hi >= default_hi
        or level is Level.FEEBLE and hi >= 2 * sig.n)
    return SearchOutcome("exhausted", None, hi, budget.nodes, per_m,
                         complete_certificate=certificate)


def enumerate_representations(sig: Signature, level: Level, m: int,
                              node_budget=None):
    """All pass-level colourings of K_m up to isomorphism, sorted.

    Returns (colourings, partial): partial is True when the budget ran out,
    in which case the list must not be used as a completeness certificate.
    """
    hi = default_m_range(sig)[1]
    if not 1 <= m <= hi:
        raise ValueError(f"vertex count {m} outside the search range 1..{hi}")
    budget = _Budget(node_budget)
    partial = False
    canon = {}
    try:
        for col in _search_m(sig, level, m, budget):
            c = canonical_form(col)
            canon[c.colours] = c
    except BudgetExceeded:
        partial = True
    ordered = [canon[key] for key in sorted(canon)]
    return ordered, partial

