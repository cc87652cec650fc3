"""Edge-coloured complete graphs and the verification predicates.

An :class:`EdgeColouring` assigns a colour from ``{1..n}`` to every
unordered pair of distinct vertices of a complete graph; the diagonal
carries the invisible identity colour and is never stored.  The three
verification levels (feeble, qualitative, strong) ask progressively more
of the triangles the colouring realises.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from enum import Enum

from .algebra import (MAX_WITNESSES, Signature, _require_int, checked_tuple,
                      required_multisets, triangle_table, witness_pairs)


class Level(Enum):
    FEEBLE = "feeble"
    QUALITATIVE = "qualitative"
    STRONG = "strong"


def edge_index(i: int, j: int) -> int:
    """Position of edge {i,j} in the fixed edge enumeration.

    Edges are ordered (0,1),(0,2),(1,2),(0,3),(1,3),(2,3),... so that all
    edges incident to a new vertex come after every edge among earlier
    vertices.  Canonicalization and search both rely on this order.
    """
    if i == j:
        raise ValueError("no self-edges")
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


def edge_list(m: int) -> list[tuple[int, int]]:
    """All edges of K_m in enumeration order."""
    return [(i, j) for j in range(m) for i in range(j)]


def _int_rows(value, what: str) -> tuple:
    """A JSON list of integer lists as a tuple of tuples; else ValueError."""
    if not isinstance(value, list):
        raise ValueError(f"{what}s must be a list, got {value!r}")
    for row in value:
        if not isinstance(row, list):
            raise ValueError(f"{what} {row!r} is not a list")
        for x in row:
            _require_int(x, f"{what} {row!r} entry")
    return tuple(tuple(row) for row in value)


def _json_object(text: str) -> dict:
    """Parse a colouring file's JSON object, which needs 'vertices' and
    'edges'; else ValueError."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the decoder's stack
        raise ValueError(f"colouring input is not JSON: {exc}") from None
    if not isinstance(doc, dict) or not {"vertices", "edges"} <= doc.keys():
        raise ValueError("colouring JSON needs 'vertices' and 'edges'")
    return doc


class EdgeColouring(checked_tuple("EdgeColouring", "m n colours")):
    """Symmetric proper-colour assignment on the edges of K_m.

    ``colours`` holds one entry per edge in enumeration order.  Instances
    are immutable, so callers may share them freely.
    """

    __slots__ = ()

    def __new__(cls, m, n, colours):
        _require_int(m, "the number of vertices m")
        _require_int(n, "the number of colours n")
        if m < 1:
            raise ValueError("need at least one vertex")
        if n < 1:
            raise ValueError("need at least one colour")
        colours = tuple(colours)  # a list would make the value unhashable
        expected = m * (m - 1) // 2
        if len(colours) != expected:
            raise ValueError(
                f"expected {expected} edge colours, got {len(colours)}")
        for c in colours:
            if type(c) is not int or not 1 <= c <= n:
                raise ValueError(f"colour {c!r} outside 1..{n}")
        return super().__new__(cls, m, n, colours)

    @classmethod
    def from_function(cls, m: int, n: int, colour_of) -> "EdgeColouring":
        cols = tuple(colour_of(i, j) for i, j in edge_list(m))
        return cls(m, n, cols)

    def colour(self, i: int, j: int) -> int:
        """Colour of edge {i,j}; ValueError unless i != j both lie in 0..m-1.

        Readers at triangle scale decode the colouring once with
        ``colour_rows`` instead of calling this per side.
        """
        if not (0 <= i < self.m and 0 <= j < self.m):
            raise ValueError(f"edge {i, j} is not in K_{self.m}")
        return self.colours[edge_index(i, j)]

    def edges(self):
        """Yield (i, j, colour) triples with i < j in enumeration order."""
        for (i, j), c in zip(edge_list(self.m), self.colours):
            yield i, j, c

    def used_colours(self) -> set[int]:
        return set(self.colours)

    def to_json(self, signature) -> str:
        doc = {"vertices": self.m, "colours": self.n,
               "edges": sorted([i, j, c] for i, j, c in self.edges()),
               "signature": {"s": sorted(signature.s_set), "n": signature.n}}
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json_with_signature(cls, text: str):
        """Parse the JSON form into (colouring, the document's "signature"
        entry as a Signature, or None); malformed input raises ValueError,
        as does an entry that is not an object with 's' and 'n'."""
        doc = _json_object(text)
        declared = None
        if "signature" in doc:
            entry = doc["signature"]
            if not isinstance(entry, dict) or not {"s", "n"} <= entry.keys():
                raise ValueError(f"signature {entry!r} is not an object "
                                 "with 's' and 'n'")
            _int_rows([entry["s"]], "the signature's s")
            _require_int(entry["n"], "the signature's n")
            declared = Signature(entry["s"], entry["n"])
        elif "colours" not in doc:
            raise ValueError("colouring JSON needs 'vertices', 'edges' and "
                             "'colours' or 'signature'")
        m, edges = doc["vertices"], doc["edges"]
        n = doc["colours"] if "colours" in doc else declared.n
        _require_int(m, "vertex count")
        _require_int(n, "colour count")
        if declared is not None and declared.n != n:
            raise ValueError(f"'colours' is {n} but the signature's n "
                             f"is {declared.n}")
        _int_rows(edges, "edge")
        if len(edges) != m * (m - 1) // 2:
            raise ValueError("edge list does not cover K_m")
        cols = [None] * len(edges)
        for edge in edges:
            if len(edge) != 3:
                raise ValueError(f"edge {edge!r} is not [i, j, colour]")
            i, j, c = edge
            if not (0 <= i < m and 0 <= j < m and i != j):
                raise ValueError(f"edge {edge!r} needs two distinct vertices "
                                 f"in 0..{m - 1}")
            if cols[edge_index(i, j)] is not None:
                raise ValueError(f"edge {i},{j} is listed twice")
            cols[edge_index(i, j)] = c
        return cls(m, n, tuple(cols)), declared

    def to_dot(self) -> str:
        """Undirected DOT export with a fixed 12-colour palette.

        Colour index k maps to PALETTE[(k-1) % 12]; beyond 12 colours the
        palette cycles, and each edge's ``label="k"`` keeps colours distinct.
        """
        lines = ["graph colouring {"]
        for i, j, c in self.edges():
            name = DOT_PALETTE[(c - 1) % len(DOT_PALETTE)]
            lines.append(f'  {i} -- {j} [color={name}, label="{c}"];')
        lines.append("}")
        return "\n".join(lines)


DOT_PALETTE = ("red", "blue", "green", "orange", "purple", "brown",
               "cyan", "magenta", "gold", "gray", "darkgreen", "navy")


def cayley(add, n: int, f) -> EdgeColouring:
    """K_m on the abelian group with addition table ``add`` (identity 0),
    {x, y} coloured f[y - x]; ValueError unless f[d] == f[-d] for d != 0."""
    neg = [row.index(0) for row in add]
    for d in range(1, len(add)):
        if f[d] != f[neg[d]]:
            raise ValueError(f"f[{d}] = {f[d]} but f[-{d}] = {f[neg[d]]}")
    return EdgeColouring.from_function(len(add), n,
                                       lambda x, y: f[add[y][neg[x]]])


class VerificationReport(namedtuple(
        "VerificationReport", "level_requested passed surjective "
        "forbidden_witnesses forbidden_total missing_required "
        "strong_failures strong_total", defaults=([], 0, [], [], 0))):
    """What ``verify`` found.

    ``forbidden_witnesses``: (vertex triple, colour triple) for triangles
    whose type is forbidden.  ``missing_required``: sorted colour multisets
    required but never realised.  ``strong_failures``: ((x, y), (a, b, c))
    with no witness vertex; (v, v), (a, a, 0) marks a vertex not incident
    to colour a (the identity-triple witness condition).
    """

    __slots__ = ()

    def summary(self) -> str:
        if self.passed:
            return f"{self.level_requested.value}: pass"
        bits = []
        if not self.surjective:
            bits.append("not surjective")
        if self.forbidden_total:
            bits.append(f"{self.forbidden_total} forbidden triangle(s)")
        if self.missing_required:
            missing = self.missing_required
            text = f"missing multisets {missing[:MAX_WITNESSES]}"
            if len(missing) > MAX_WITNESSES:
                text += f" (first {MAX_WITNESSES} of {len(missing)})"
            bits.append(text)
        if self.strong_total:
            bits.append(f"{self.strong_total} unwitnessed edge/triple pair(s)")
        return f"{self.level_requested.value}: FAIL ({'; '.join(bits)})"


def colour_rows(m: int, colours) -> list[list[int]]:
    """The colour matrix of K_m whose edge colours ``colours`` come in
    enumeration order: ``rows[v][w]`` is the colour of {v, w}, and 0 on
    the diagonal.  Every triangle-scale reader works on it."""
    rows = [[0] * m for _ in range(m)]
    colours = iter(colours)
    for j in range(1, m):
        row_j = rows[j]
        for i in range(j):
            rows[i][j] = row_j[i] = next(colours)
    return rows


def neighbour_masks(rows, n: int) -> list[list[int]]:
    """``neigh[v][c]``, the bitmask of the vertices w with colour(v, w) = c,
    for the colour matrix ``rows`` with n colours; v itself sits in colour
    0.  The search keeps the same masks up to date as it colours edges."""
    neigh = []
    for row in rows:
        masks = [0] * (n + 1)
        for w, c in enumerate(row):
            masks[c] |= 1 << w
        neigh.append(masks)
    return neigh


def unwitnessed(neigh, colours, sig):
    """Yield the strong-level failures of the colouring of K_m with
    neighbour masks ``neigh`` (see ``neighbour_masks``) and edge colours
    ``colours`` in enumeration order; entries past the last edge are not
    read.

    First ``((v, v), (a, a, 0))`` for each vertex v and each colour a it
    is not incident to, then ``((i, j), (a, b, c))`` for each edge {i, j}
    of colour c, in enumeration order, and each pair (a, b) of
    ``witness_pairs(sig)[c]`` that no vertex w witnesses with
    colour(i, w) = a and colour(w, j) = b.  ``verify`` and the search's
    strong leaves share it.
    """
    n = sig.n
    for v, masks in enumerate(neigh):
        for a in range(1, n + 1):
            if not masks[a]:
                yield (v, v), (a, a, 0)
    pairs = witness_pairs(sig)
    colours = iter(colours)
    for j in range(1, len(neigh)):
        neigh_j = neigh[j]
        for i in range(j):
            neigh_i = neigh[i]
            c = next(colours)
            for a, b in pairs[c]:
                if not neigh_i[a] & neigh_j[b]:
                    yield (i, j), (a, b, c)


def verify(col: EdgeColouring, sig, level: Level) -> VerificationReport:
    """Check a colouring against a chromatic signature at the given level.

    Feeble: no triangle of a type in F occurs and every colour is used.
    Qualitative: additionally every consistent proper-colour multiset is
    realised by some triangle.  Strong: additionally every edge witnesses
    every consistent triple on its colour, and every vertex is incident to
    every colour.
    """
    if col.n != sig.n:
        raise ValueError(f"colouring has {col.n} colours, signature wants {sig.n}")
    surjective = len(col.used_colours()) == sig.n
    rows = colour_rows(col.m, col.colours)
    # one pass over the triangles, in ``combinations`` order
    table = triangle_table(sig)
    m = col.m
    forbidden_total, forbidden_witnesses, realised = 0, [], set()
    for x in range(m):
        row_x = rows[x]
        for y in range(x + 1, m):
            row_y = rows[y]
            table_xy = table[row_x[y]]
            for z in range(y + 1, m):
                entry = table_xy[row_y[z]][row_x[z]]
                if not entry:
                    forbidden_total += 1
                    if len(forbidden_witnesses) < MAX_WITNESSES:
                        forbidden_witnesses.append(
                            ((x, y, z), (row_x[y], row_y[z], row_x[z])))
                elif entry not in realised:
                    realised.add(entry)
    missing = []
    if level is not Level.FEEBLE:
        missing = [t for k, t in enumerate(required_multisets(sig), 1)
                   if k not in realised]
    strong_total, strong_failures = 0, []
    if level is Level.STRONG:
        for failure in unwitnessed(neighbour_masks(rows, sig.n),
                                   col.colours, sig):
            strong_total += 1
            if len(strong_failures) < MAX_WITNESSES:
                strong_failures.append(failure)
    passed = (surjective and forbidden_total == 0 and not missing
              and strong_total == 0)
    return VerificationReport(level, passed, surjective, forbidden_witnesses,
                              forbidden_total, missing, strong_failures,
                              strong_total)


def canonical_form(col: EdgeColouring) -> EdgeColouring:
    """Lexicographically minimal relabelling over vertex and colour permutations.

    A vertex ordering's code lists each vertex's colours to the earlier
    vertices, renamed by first occurrence; the rows come in the edge
    enumeration order, so a code is a colour tuple.  The least code is
    found by a depth-first search over orderings: each node keeps only the
    next vertices whose row is least, and a node whose row exceeds the best
    code's is dropped.  A leaf whose code equals the best code gives an
    automorphism (the colour renaming comes with it); siblings in the orbit
    of a searched sibling are skipped, and the subtree where the leaf first
    differs from the best leaf is an image of a searched one and is left.
    So a single-colour clique costs about m^2/2 nodes, not m!.  Idempotent.
    """
    *_, code = _codes(colour_rows(col.m, col.colours))
    return EdgeColouring(col.m, col.n, tuple(x for row in code for x in row))


def _is_canonical(rows) -> bool:
    """Whether the colouring with colour matrix ``rows`` is its own
    canonical form, i.e. ``canonical_form(col).colours == col.colours``.

    The search of ``canonical_form`` runs with the colouring's own rows as
    the bound, and yields nothing exactly when no ordering's code is below
    them.  A colouring not named by first occurrence always fails: its own
    ordering, renamed, has a smaller code.
    """
    bound = [row[:k] for k, row in enumerate(rows)]
    return next(_codes(rows, bound), None) is None


def _codes(rows, bound=None):
    """Search the codes of the colour matrix ``rows``, depth first.

    Yields each new best code, as a list of rows, when the search reaches
    it, so the codes strictly decrease and the last is the least code.  A
    caller may stop at any yield and resume later.

    Given ``bound``, the code of some ordering, the search keeps only
    orderings whose code does not exceed it, and yields once, the prefix of
    the first ordering that falls below it; the caller stops there.  Every
    leaf it reaches until then has the bound's code, and the first one
    plays the part of the best leaf: it was reached first, as a best leaf
    is, so the automorphisms and backjumps that later leaves give stay
    sound.
    """
    m = len(rows)

    # Vertices are tried by their colour-class sizes, largest class first:
    # an order that renaming vertices or colours does not change.  Without
    # it the benchmark's enumerate-iso workload runs about 1.8x slower.
    # The key counts the diagonal's 0 too: a class of size 1, so each key
    # gains the same trailing 1.  The other sizes sum to m - 1 in every
    # row, so no key is a proper prefix of another and the order cannot
    # change.
    ranked = sorted(range(m), key=lambda v: sorted(
        map(rows[v].count, set(rows[v])), reverse=True), reverse=True)
    placed = [False] * m
    order, code, autos = [], [], []
    best_order, best_code = None, bound

    def orbit_of(start, gens):
        """The union of the orbits of ``start`` under the group ``gens``
        generate, each generator a list mapping vertex v to g[v]."""
        seen, stack = set(start), list(start)
        while stack:
            x = stack.pop()
            for g in gens:
                if g[x] not in seen:
                    seen.add(g[x])
                    stack.append(g[x])
        return seen

    def dfs(tight, names):
        """Search below ``order``, whose code so far renames colour c to
        ``names[c]`` and, when ``tight``, equals the best code's prefix;
        return the depth to unwind to."""
        nonlocal best_order, best_code
        k = len(order)
        if k == m:
            # the first leaf under a bound has the bound's code
            if not tight or best_order is None:
                best_order = order[:]
                if not tight:
                    best_code = code[:]
                    yield best_code
                return m
            g = [0] * m
            for b, v in zip(best_order, order):
                g[b] = v
            autos.append(g)
            return next(i for i, (b, v) in enumerate(zip(best_order, order))
                        if b != v)
        # the least row to ``order`` over the unplaced vertices, and the
        # vertices that have it, each with the names its new colours take;
        # when ``tight``, no row above the best's
        least = best_code[k] if tight else None
        ties = []
        for v in ranked:
            if placed[v]:
                continue
            row_v, fresh, row, less = rows[v], {}, [], least is None
            for i, u in enumerate(order):
                c = row_v[u]
                x = names.get(c) or fresh.setdefault(
                    c, len(names) + len(fresh) + 1)
                if not less:
                    if x > least[i]:
                        break
                    less = x < least[i]
                row.append(x)
            else:
                if less:
                    least, ties = row, [(v, fresh)]
                else:
                    ties.append((v, fresh))
        if tight and least is not best_code[k]:
            if bound is not None:
                yield code + [least]
                return -1  # unwinds the whole search
            tight = False
        searched, orbit, fixing, known = [], set(), [], 0
        for v, fresh in ties:
            if len(autos) > known:
                fixing += [g for g in autos[known:]
                           if all(g[u] == u for u in order)]
                known = len(autos)
                orbit = orbit_of(searched, fixing)
            if v in orbit:
                continue
            order.append(v)
            placed[v] = True
            code.append(least)
            back = yield from dfs(tight,
                                  {**names, **fresh} if fresh else names)
            order.pop()
            placed[v] = False
            code.pop()
            if back < k:
                return back
            # the best leaf now lies below this node
            tight = True
            searched.append(v)
            if fixing:
                orbit |= orbit_of([v], fixing)
            else:
                orbit.add(v)
        return m

    yield from dfs(bound is not None, {})


def are_isomorphic(a: EdgeColouring, b: EdgeColouring) -> bool:
    """Whether a vertex and a colour permutation carry ``a`` onto ``b``.

    The sorted colour-class sizes are compared first.  Only when those
    agree are codes searched for, which can cost as much as a maximum
    clique on rigid inputs.  Each colouring's search (see ``_codes``) is
    kept open, and the side whose current code is larger is advanced to
    its next, smaller code.  Colourings that share any code are
    relabellings of each other, so equal current codes mean isomorphic.
    A side that must advance but has no further code holds its least
    code, which lies above the other side's current code, so above its
    least code: not isomorphic.
    Each search runs at most once to its end, so the worst case costs
    ``canonical_form(a)`` plus ``canonical_form(b)``.
    """
    if a.m != b.m or a.n != b.n:
        return False
    if sorted(Counter(a.colours).values()) \
            != sorted(Counter(b.colours).values()):
        return False
    searches = (_codes(colour_rows(a.m, a.colours)),
                _codes(colour_rows(b.m, b.colours)))
    codes = [next(search) for search in searches]
    while codes[0] != codes[1]:
        larger = codes[1] > codes[0]     # the side whose code is larger
        codes[larger] = next(searches[larger], None)
        if codes[larger] is None:
            return False
    return True
