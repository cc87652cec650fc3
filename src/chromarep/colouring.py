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

    One loop walks the depths, each keeping its state in arrays indexed
    by depth.  Depth k holds its least row ``code[k]``, its unplaced
    vertices ``left[k]`` in ranked order, the vertices ``ties[k]`` whose
    row is least, each with ``fresh[k]``, the colours its row names first
    (in the order they take the next names; None when it names none), the
    next tie to try ``nxt[k]``, whether the code so far equals the best
    code's prefix (``tight[k]``), and the colour names: ``names[k][c]`` is
    colour c's name, 0 while unnamed, and ``named[k]`` colours are named.
    A child copies the names only when its vertex names new colours.  A
    row is compared with the least row as it is named, and built only once
    it falls below it.  A leaf or an exhausted depth gives the depth to
    unwind to, and the loop resumes that depth after its child.  A depth's
    orbit bookkeeping (``searched``, ``orbit``, ``fixing``, ``known``)
    begins when its first child returns, as no orbit prunes before a
    sibling is searched, and is skipped once no tie is left.
    """
    m = len(rows)

    # Vertices are tried by their colour-class sizes, largest class first:
    # an order that renaming vertices or colours does not change.  It fixes
    # which codes a search yields, which tests pin; without it the
    # benchmark's enumerate-iso pass takes as long (the enumeration about
    # 6% longer, the isomorphism checks about 9% less).  The key counts the
    # diagonal's 0 too: a class of size 1, so each key gains the same
    # trailing 1.  The other sizes sum to m - 1 in every row, so no key is
    # a proper prefix of another and the order cannot change.
    keys = [sorted(map(row.count, set(row)), reverse=True) for row in rows]
    ranked = sorted(range(m), key=keys.__getitem__, reverse=True)
    order, autos = [], []
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

    code, ties, fresh, nxt, tight, names, named, left, searched, orbit, \
        fixing, known = map(list.copy, [[None] * (m + 1)] * 12)
    # every row to the empty order is [], so all vertices tie at depth 0
    code[0], ties[0], fresh[0], left[0] = [], ranked, [None] * m, ranked
    tight[0] = bound is not None
    names[0], named[0] = [0] * (max(map(max, rows)) + 1), 0
    k, i, vs = 0, 0, ranked
    while True:
        if i < len(vs):
            # descend to depth k's i-th tie
            v, new, t = vs[i], fresh[k][i], tight[k]
            nxt[k] = i + 1
            order.append(v)
            left[k + 1] = rest = left[k][:]
            rest.remove(v)
            k += 1
            if new is None:
                names[k], named[k] = names[k - 1], named[k - 1]
            else:
                names_k = names[k - 1][:]
                for x, c in enumerate(new, named[k - 1] + 1):
                    names_k[c] = x
                names[k], named[k] = names_k, named[k - 1] + len(new)
            tight[k] = t
            if k < m:
                # the least row to ``order`` over the unplaced vertices, and
                # the vertices that have it; when tight, no row above the
                # best's
                least = best_code[k] if t else None
                names_k, base = names[k], named[k]
                vs, fs = [], []
                for v in rest:
                    row_v, new, less, row = rows[v], None, least is None, []
                    for j, u in enumerate(order):
                        c = row_v[u]
                        x = names_k[c]
                        if not x:
                            if new is None:
                                x = base + 1
                                new = [c]
                            elif c in new:
                                x = base + 1 + new.index(c)
                            else:
                                new.append(c)
                                x = base + len(new)
                        if less:
                            row.append(x)
                        elif x != least[j]:
                            if x > least[j]:
                                break
                            # below ``least``: build the row from here on
                            less, row = True, least[:j]
                            row.append(x)
                    else:
                        if less:
                            least, vs, fs = row, [v], [new]
                        else:
                            vs.append(v)
                            fs.append(new)
                if t and least is not best_code[k]:
                    if bound is not None:
                        yield code[:k] + [least]
                        return
                    tight[k] = False
                code[k], ties[k], fresh[k] = least, vs, fs
                i = 0
                continue
            # a leaf; the first leaf under a bound has the bound's code
            if not t or best_order is None:
                best_order = order[:]
                if not t:
                    best_code = code[:m]
                    yield best_code
                back = m
            else:
                g = [0] * m
                for b, v in zip(best_order, order):
                    g[b] = v
                autos.append(g)
                back = next(i for i, (b, v)
                            in enumerate(zip(best_order, order)) if b != v)
        else:
            back = m
        # return ``back`` from depth k: to its parent, or to the depth at
        # which the leaf first differs from the best leaf
        k = k - 1 if back == m else back
        if k < 0:
            return
        del order[k:]
        # depth k's child returned: the best leaf now lies below it
        vs, i = ties[k], nxt[k]
        if i < len(vs):
            tight[k] = True
            v = vs[i - 1]
            if i == 1:  # the first sibling searched
                searched[k], fixing[k], known[k] = [v], [], 0
                orbit[k] = {v}
            else:
                searched[k].append(v)
                if fixing[k]:
                    orbit[k] |= orbit_of([v], fixing[k])
                else:
                    orbit[k].add(v)
            if len(autos) > known[k]:
                # the new automorphisms that fix ``order`` pointwise
                for g in autos[known[k]:]:
                    if list(map(g.__getitem__, order)) == order:
                        fixing[k].append(g)
                known[k] = len(autos)
                orbit[k] = orbit_of(searched[k], fixing[k])
            seen = orbit[k]
            while i < len(vs) and vs[i] in seen:
                i += 1


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
