"""Edge colourings, verification levels, canonical forms."""

import json
import random
import tracemalloc
from collections import Counter
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

from chromarep.algebra import (MAX_WITNESSES, chromatic_atoms, is_associative,
                               required_multisets, triangle_table)
from chromarep.colouring import (DOT_PALETTE, EdgeColouring, Level, _codes,
                                 _is_canonical, are_isomorphic, canonical_form,
                                 cayley, chromatic_degree, classify_triangle,
                                 colour_rows, edge_index, edge_list,
                                 neighbour_masks, saturate, unwitnessed,
                                 verify)
from chromarep.constructions import (chain_colouring, construct, pentagon,
                                     single_colour, walecki)
from chromarep.geometry import _field_tables, cyclotomic
from chromarep.quasigroup import lambda1, lambda2, standard_qn

from helpers import random2, relabel, sig


def zmod(r, b=1):
    """Addition table of Z_r x Z_b, with (x, y) numbered b*x + y."""
    return [[(i // b + j // b) % r * b + (i + j) % b for j in range(r * b)]
            for i in range(r * b)]


# GF(4) with {x, y} coloured x + y: three perfect matchings
K4_MATCHINGS = cayley(_field_tables(4)[0], 3, range(4))
# Z_12 with f(1..6) = (1, 1, 2, 2, 1, 2) and f(-d) = f(d)
Z12_CIRCULANT = cayley(zmod(12), 2, (None, 1, 1, 2, 2, 1, 2, 1, 2, 2, 1, 1))


def test_edge_enumeration_order():
    assert edge_list(4) == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    for idx, (i, j) in enumerate(edge_list(7)):
        assert edge_index(i, j) == idx
        assert edge_index(j, i) == idx
    with pytest.raises(ValueError):
        edge_index(2, 2)


def test_edge_colouring_validation():
    with pytest.raises(ValueError):
        EdgeColouring(3, 2, (1, 2))          # wrong length
    with pytest.raises(ValueError):
        EdgeColouring(3, 2, (1, 2, 3))       # colour out of range
    col = EdgeColouring(3, 2, (1, 2, 2))
    assert col.colour(0, 1) == 1 and col.colour(2, 1) == 2
    assert col.used_colours() == {1, 2}
    # a list of colours is stored as a tuple, so the value is hashable
    col = EdgeColouring(3, 1, [1, 1, 1])
    assert col == EdgeColouring(3, 1, (1, 1, 1)) and type(col.colours) is tuple
    assert hash(col) == hash(EdgeColouring(3, 1, (1, 1, 1)))
    # m, n and each colour must be ints, as in Signature
    for args in [(2, 2, (1.5,)), (2, 1, (True,)), (2, 1, ("1",))]:
        with pytest.raises(ValueError, match="colour .* outside 1.."):
            EdgeColouring(*args)
    for args, what in [((2.0, 1, (1,)), "m"), ((2, 1.0, (1,)), "n"),
                       ((True, 1, ()), "m"), ((2, True, (1,)), "n")]:
        with pytest.raises(ValueError, match=f"number of .* {what} must be"):
            EdgeColouring(*args)


def test_classify_triangle():
    col = EdgeColouring(3, 3, (1, 1, 1))
    assert classify_triangle(col, 0, 1, 2) == 1
    col = EdgeColouring(3, 3, (1, 1, 2))
    assert classify_triangle(col, 2, 0, 1) == 2
    col = EdgeColouring(3, 3, (1, 2, 3))
    assert classify_triangle(col, 0, 1, 2) == 3
    with pytest.raises(ValueError):
        classify_triangle(col, 0, 1, 1)
    # vertex -1 would read edge {0,1} through the edge enumeration
    with pytest.raises(ValueError):
        classify_triangle(pentagon(), -1, 0, 1)
    with pytest.raises(ValueError):
        classify_triangle(pentagon(), 0, 1, 5)
    # the accessor itself rejects a vertex outside 0..m-1
    for i, j in ((-1, 0), (0, 5)):
        with pytest.raises(ValueError, match=r"is not in K_5"):
            pentagon().colour(i, j)


def test_required_multisets():
    assert required_multisets(sig((3,), 3)) == ((1, 2, 3),)
    assert required_multisets(sig((1,), 2)) == ((1, 1, 1), (2, 2, 2))
    assert required_multisets(sig((2,), 2)) == ((1, 1, 2), (1, 2, 2))
    # counts: mono n, di n(n-1), tri C(n,3)
    n = 5
    full = required_multisets(sig((1, 2, 3), n))
    assert len(full) == n + n * (n - 1) + n * (n - 1) * (n - 2) // 6


def test_verify_k4_matchings_strong():
    report = verify(K4_MATCHINGS, sig((3,), 3), Level.STRONG)
    assert report.passed, report.summary()


def test_verify_pentagon_strong():
    report = verify(pentagon(), sig((2,), 2), Level.STRONG)
    assert report.passed
    assert report.summary() == "strong: pass"


def test_verify_z12_circulant_strong():
    # strong {1,2} and {1,2,3} at n=2, though no RULES row uses it yet
    for s in ((1, 2), (1, 2, 3)):
        report = verify(Z12_CIRCULANT, sig(s, 2), Level.STRONG)
        assert report.passed, (s, report.summary())
        assert is_associative(chromatic_atoms(sig(s, 2)))[0], s


# (q, n, S): the least p = 1 (mod 2n) with a strong cyclotomic S, n = 2..6
@pytest.mark.parametrize("q, n, s", [
    *((p, n, "23") for n, p in enumerate((5, 13, 41, 71, 97), start=2)),
    *((p, n, "123") for n, p in enumerate((13, 19, 73, 131, 181), start=2)),
    (16, 3, "23")])  # GF(16), where -1 = 1
def test_verify_cyclotomic_strong(q, n, s):
    report = verify(cyclotomic(q, n), sig(map(int, s), n), Level.STRONG)
    assert report.passed, report.summary()
    assert is_associative(chromatic_atoms(sig(map(int, s), n)))[0]


def test_cayley_translation_invariant_and_symmetric():
    for add, col in [(zmod(12), Z12_CIRCULANT),
                     (_field_tables(16)[0], cyclotomic(16, 3))]:
        assert all(col.colour(add[x][d], add[y][d]) == col.colour(x, y)
                   for x, y, d in product(range(col.m), repeat=3) if x != y)
    with pytest.raises(ValueError, match=r"f\[1\] = 1 but f\[-1\] = 2"):
        cayley(zmod(5), 2, (None, 1, 2, 2, 2))


def test_gallai_k5_not_strong_12():
    # the 3-colourings of K_5 that use every colour and have no rainbow
    # triangle (Gallai colourings); none is a strong ({1,2}, 3) colouring
    gallai = []
    for colours in product((1, 2, 3), repeat=10):
        rows = colour_rows(5, colours)
        if len(set(colours)) == 3 and all(
                len({rows[a][b], rows[a][c], rows[b][c]}) < 3
                for a, b, c in combinations(range(5), 3)):
            gallai.append(colours)
    assert len(gallai) == 3060
    for colours in gallai:
        col = EdgeColouring(5, 3, colours)
        assert not verify(col, sig((1, 2), 3), Level.STRONG).passed, colours


def glued_12(n):
    """For each colour a, a hub and one pair per colour b != a, the pair's
    edge coloured b and the rest of the part coloured a; parts joined by
    colour 1."""
    part, pair_colour = [], {}  # the part of each vertex; pair edges
    for a in range(1, n + 1):
        part.append(a)
        for b in range(1, n + 1):
            if b != a:
                pair_colour[len(part), len(part) + 1] = b
                part += [a, a]
    return EdgeColouring.from_function(
        len(part), n, lambda i, j: 1 if part[i] != part[j]
        else pair_colour.get((i, j), part[i]))


def test_verify_glued_12_qualitative():
    for n in range(3, 7):
        col = glued_12(n)
        assert col.m == n * (2 * n - 1)
        report = verify(col, sig((1, 2), n), Level.QUALITATIVE)
        assert report.passed, (n, report.summary())
    # at n = 2 each part is one triangle, and none has colour 2 all round
    report = verify(glued_12(2), sig((1, 2), 2), Level.QUALITATIVE)
    assert report.missing_required == [(2, 2, 2)]
    assert report.forbidden_total == 0


def test_verify_chain_misses_multiset():
    # the 3-vertex chain has only the (1,2,2) triangle
    report = verify(chain_colouring(2), sig((2,), 2), Level.QUALITATIVE)
    assert not report.passed
    assert report.missing_required == [(1, 1, 2)]
    assert verify(chain_colouring(2), sig((2,), 2), Level.FEEBLE).passed


def test_verify_forbidden_witnesses():
    mono = EdgeColouring(3, 1, (1, 1, 1))
    report = verify(mono, sig((2, 3), 1), Level.FEEBLE)
    assert not report.passed
    assert report.forbidden_total == 1
    assert report.forbidden_witnesses == [((0, 1, 2), (1, 1, 1))]


def test_verify_not_surjective():
    col = EdgeColouring(3, 2, (1, 1, 1))
    report = verify(col, sig((1, 2), 2), Level.FEEBLE)
    assert not report.passed and not report.surjective


def test_summary_caps_missing_multisets():
    # {1,2,3}, n=10 requires C(12, 3) = 220 multisets; K_2 realises none
    report = verify(EdgeColouring(2, 10, (1,)), sig((1, 2, 3), 10),
                    Level.QUALITATIVE)
    assert len(report.missing_required) == 220
    shown = report.missing_required[:MAX_WITNESSES]
    assert report.summary() == (
        f"qualitative: FAIL (not surjective; missing multisets {shown} "
        f"(first {MAX_WITNESSES} of 220))")


def test_verify_table_stays_small_at_moderate_n():
    # {1,2,3}, n=60 has C(62, 3) = 37,820 multisets: the (n+1)^3 table
    # verify reads must hold small indices (a few MB), not a multiset bit
    # each (about 1 GB)
    s = sig((1, 2, 3), 60)
    triangle_table.cache_clear()
    required_multisets.cache_clear()
    tracemalloc.start()
    try:
        report = verify(EdgeColouring(2, 60, (1,)), s, Level.QUALITATIVE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.missing_required) == 37820
    assert peak < 32_000_000


def test_verify_colour_count_mismatch():
    with pytest.raises(ValueError):
        verify(pentagon(), sig((2,), 3), Level.FEEBLE)


def test_verify_strong_failure_records():
    # walecki(3) is qualitative but not strong for ({2,3}, 3)
    col = walecki(3)
    assert verify(col, sig((2, 3), 3), Level.QUALITATIVE).passed
    report = verify(col, sig((2, 3), 3), Level.STRONG)
    assert not report.passed and report.strong_total > 0
    # each failure names a consistent triple lacking a witness at that edge
    for (x, y), (a, b, c) in report.strong_failures:
        assert c == 0 or col.colour(x, y) == c
        if c != 0:
            assert not any(col.colour(x, z) == a and col.colour(z, y) == b
                           for z in range(col.m) if z not in (x, y))


@pytest.mark.parametrize("s, n, m", [((2,), 2, 5), ((1, 2), 2, 5),
                                     ((2, 3), 3, 4)])
def test_unwitnessed_matches_verify(s, n, m):
    # the search drops a strong leaf at unwitnessed's first failure and
    # sends only the rest to verify, so over every colouring of K_m the two
    # must agree on which colourings have a strong failure, and on the
    # failures verify lists
    for colours in product(range(1, n + 1), repeat=m * (m - 1) // 2):
        neigh = neighbour_masks(colour_rows(m, colours), n)
        failures = list(unwitnessed(neigh, colours, sig(s, n)))
        report = verify(EdgeColouring(m, n, colours), sig(s, n), Level.STRONG)
        assert (not failures) == (report.strong_total == 0), colours
        assert failures[:MAX_WITNESSES] == report.strong_failures, colours


def oracle_verify(col, s_set, level):
    """Independent re-implementation of the three levels, sets-of-triples
    style, used to cross-check `verify` on small instances."""
    forbidden = {1, 2, 3} - set(s_set)
    triangles = {}
    for x, y, z in combinations(range(col.m), 3):
        cols = (col.colour(x, y), col.colour(y, z), col.colour(x, z))
        triangles[(x, y, z)] = cols
    if any(len(set(c)) in forbidden for c in triangles.values()):
        return False
    if len(set(col.colours)) != col.n:
        return False
    if level == "feeble":
        return True
    realized = {tuple(sorted(c)) for c in triangles.values()}
    needed = {tuple(sorted(t)) for t in
              set().union(*[{(a, b, c)
                             for a in range(1, col.n + 1)
                             for b in range(1, col.n + 1)
                             for c in range(1, col.n + 1)
                             if len({a, b, c}) in s_set}] or [set()])}
    if not needed <= realized:
        return False
    if level == "qualitative":
        return True
    for x in range(col.m):
        for y in range(col.m):
            if x == y:
                continue
            c = col.colour(x, y)
            for a in range(1, col.n + 1):
                for b in range(1, col.n + 1):
                    if len({a, b, c}) not in s_set:
                        continue
                    if not any(z not in (x, y)
                               and col.colour(x, z) == a
                               and col.colour(z, y) == b
                               for z in range(col.m)):
                        return False
    for v in range(col.m):
        if chromatic_degree(col, v) != col.n:
            return False
    return True


def test_verify_matches_oracle_on_sweep():
    # dense sweep of tiny colourings against the independent oracle
    cases = 0
    for m, n in [(3, 2), (4, 2), (4, 3)]:
        e = m * (m - 1) // 2
        for code in range(n ** e):
            cols = []
            x = code
            for _ in range(e):
                cols.append(x % n + 1)
                x //= n
            col = EdgeColouring(m, n, tuple(cols))
            for s_set in [(2,), (3,), (1, 3), (2, 3)]:
                for level in Level:
                    got = verify(col, sig(s_set, n), level).passed
                    want = oracle_verify(col, set(s_set), level.value)
                    assert got == want, (m, n, cols, s_set, level)
                    cases += 1
    assert cases > 1000


GOLDEN_REPORTS = Path(__file__).with_name("golden_reports.json")
GOLDEN_CHECKS = [(s, level) for k in range(4)
                 for s in combinations((1, 2, 3), k) for level in Level]


def golden_colourings():
    """Seeded random colourings, some missing a colour, plus a few built
    ones that pass strong checks."""
    rng = random.Random(2022)
    out = []
    for m, n, used in [(3, 1, 1), (4, 2, 2), (5, 3, 2), (6, 3, 3), (7, 4, 3),
                       (9, 2, 2)]:
        out.append(EdgeColouring(m, n, tuple(
            rng.randint(1, used) for _ in range(m * (m - 1) // 2))))
    return out + [pentagon(), K4_MATCHINGS, walecki(3),
                  lambda2(standard_qn(5))]


def report_record(report):
    """Every field of a report, in JSON form."""
    record = report._asdict()
    record["level_requested"] = report.level_requested.value
    return json.loads(json.dumps(record))


def golden_records():
    return [{"m": col.m, "n": col.n, "colours": list(col.colours),
             "reports": [report_record(verify(col, sig(s, col.n), level))
                         for s, level in GOLDEN_CHECKS]}
            for col in golden_colourings()]


def test_verify_reports_match_golden():
    # every field of every report, witness lists and their order included,
    # against golden_reports.json; regenerate it with
    # `PYTHONPATH=src python tests/test_colouring.py` only when a report is
    # meant to change
    want = json.loads(GOLDEN_REPORTS.read_text())
    got = golden_records()
    assert [(c["m"], c["n"], c["colours"]) for c in got] == \
        [(c["m"], c["n"], c["colours"]) for c in want]
    for col, case_got, case_want in zip(golden_colourings(), got, want):
        for (s, level), report in zip(GOLDEN_CHECKS, case_got["reports"]):
            assert report["passed"] == oracle_verify(col, set(s), level.value)
        assert case_got["reports"] == case_want["reports"], col
    # the cases cover truncated witness lists and strong passes
    records = [r for c in want for r in c["reports"]]
    assert any(r["forbidden_total"] > MAX_WITNESSES for r in records)
    assert any(r["strong_total"] > MAX_WITNESSES for r in records)
    assert any(r["passed"] and r["level_requested"] == "strong"
               for r in records)


def test_chromatic_degree():
    col = lambda1(standard_qn(5))
    # vertex i misses exactly the colour i+1 (its own square)
    assert chromatic_degree(col, 2) == 4
    assert 3 not in {col.colour(2, w) for w in range(5) if w != 2}
    assert chromatic_degree(EdgeColouring(3, 1, (1, 1, 1)), 0) == 1
    assert all(chromatic_degree(pentagon(), v) == 2 for v in range(5))
    with pytest.raises(ValueError):
        chromatic_degree(pentagon(), 5)


def test_saturate_chain_vertex():
    s = sig((2,), 2)
    chain = chain_colouring(2)
    out = saturate(chain, 2, s)
    # vertex 2 was missing colour 1; one new vertex is added carrying it
    assert out.m == 4
    assert out.colour(2, 3) == 1
    assert out.colour(3, 0) == chain.colour(2, 0)
    assert out.colour(3, 1) == chain.colour(2, 1)
    assert verify(out, s, Level.FEEBLE).passed
    assert chromatic_degree(out, 2) == 2
    for v in (-1, 3, 5):    # no such vertex
        with pytest.raises(ValueError):
            saturate(chain, v, s)
    with pytest.raises(ValueError, match="colouring has 2 colours, "
                                         "signature wants 3"):
        saturate(chain, 0, sig((2,), 3))
    with pytest.raises(ValueError, match="forbidden triangle"):
        saturate(EdgeColouring(3, 2, (1, 1, 1)), 0, s)
    # vertex 3 of the 3-colour chain misses colours 1 and 2, so two twins
    # are added; the edge between the twins copies the first twin's edge to 3
    s = sig((2,), 3)
    out = saturate(chain_colouring(3), 3, s)
    assert out.m == 6
    assert (out.colour(3, 4), out.colour(3, 5), out.colour(4, 5)) == (1, 2, 1)
    assert verify(out, s, Level.FEEBLE).passed
    assert chromatic_degree(out, 3) == 3


def test_saturate_noop_when_saturated():
    s = sig((2,), 2)
    assert saturate(pentagon(), 0, s) is pentagon() or \
        saturate(pentagon(), 0, s) == pentagon()


def test_saturate_rejects_other_signatures():
    with pytest.raises(ValueError):
        saturate(pentagon(), 0, sig((2, 3), 2))


def test_canonical_form_single_colour():
    a = EdgeColouring(3, 1, (1, 1, 1))
    assert canonical_form(a) == a


def test_canonical_form_colour_swap():
    swapped = cayley(zmod(5), 2, (None, 2, 1, 1, 2))  # colours swapped
    assert canonical_form(swapped) == canonical_form(pentagon())


def test_canonical_form_idempotent_and_isomorphic():
    col = walecki(3)
    canon = canonical_form(col)
    assert canonical_form(canon) == canon
    assert are_isomorphic(col, canon)


def blown_up_circulant(rng):
    """A seeded circulant colouring of Z_r with each vertex blown up into b
    twins: its automorphisms include the rotations, the reflection and
    every permutation of a twin class."""
    r, b, n = rng.randint(3, 6), rng.randint(1, 3), rng.randint(2, 4)
    # dist[k] colours the differences (x, y) in Z_r x Z_b with
    # min(x, r - x) = k: the pairs at distance k in Z_r; dist[0] the twins
    dist = [rng.randint(1, n) for _ in range(r // 2 + 1)]
    return cayley(zmod(r, b), n, [dist[min(d // b, r - d // b)]
                                  for d in range(r * b)])


def test_canonical_form_vertex_relabelling_invariant():
    col = lambda2(standard_qn(5))
    for perm in [(5, 0, 3, 1, 4, 2), (1, 2, 3, 4, 5, 0)]:
        relab = EdgeColouring.from_function(
            col.m, col.n, lambda i, j: col.colour(perm[i], perm[j]))
        assert canonical_form(relab) == canonical_form(col)
    # inputs with many tied orderings, relabelled by an affine map
    for col, vertex, colour in [
            (walecki(8), lambda v: (5 * v + 3) % 16, lambda c: 9 - c),
            (construct(sig((1, 3), 4), Level.STRONG),          # AG(2, 3)
             lambda v: (2 * v + 1) % 9, lambda c: 5 - c)]:
        relab = EdgeColouring.from_function(
            col.m, col.n, lambda i, j: colour(col.colour(vertex(i), vertex(j))))
        assert canonical_form(relab) == canonical_form(col)
    # large automorphism groups: the affine planes AG(2, q), the
    # single-colour clique and blown-up circulants; and the chain, whose
    # natural labelling is slow to canonicalise without an invariant
    # vertex order
    rng = random.Random(19)
    cols = [*(construct(sig((1, 3), q + 1), Level.STRONG) for q in (4, 5, 7)),
            single_colour(9), chain_colouring(9)]
    cols += [blown_up_circulant(rng) for _ in range(60)]
    for col in cols:
        canon = canonical_form(col)
        for _ in range(2):
            assert canonical_form(relabel(col, rng)) == canon


def reference_canonical(col):
    """The least code built row by row from every tied vertex ordering; a
    plain reference for canonical_form, whose memory grows with the ties."""
    m, rows = col.m, colour_rows(col.m, col.colours)
    tied, code = [((), {})], []
    for _ in range(m):
        least, extended = None, []
        for order, rename in tied:
            for v in range(m):
                if v in order:
                    continue
                new_rename = dict(rename)
                row = [new_rename.setdefault(rows[v][u], len(new_rename) + 1)
                       for u in order]
                if least is None or row < least:
                    least, extended = row, []
                if row == least:
                    extended.append((order + (v,), new_rename))
        code += least
        tied = extended
    return tuple(code)


def test_canonical_form_matches_reference():
    # a one-colour K_m has a single colouring, so each m is tried once
    rng = random.Random(23)
    cols = [single_colour(m) for m in range(1, 9)] + [chain_colouring(9)]
    for _ in range(500):
        m, n = rng.randint(1, 8), rng.randint(2, 4)
        cols.append(EdgeColouring(m, n, tuple(
            rng.randint(1, n) for _ in range(m * (m - 1) // 2))))
    for col in cols:
        assert canonical_form(col).colours == reference_canonical(col), col


def brute_force_canonical(col):
    """The least colour-renamed code over all vertex orderings."""
    codes = []
    for perm in permutations(range(col.m)):
        rename, code = {}, []
        for i, j in edge_list(col.m):
            c = col.colour(perm[i], perm[j])
            rename.setdefault(c, len(rename) + 1)
            code.append(rename[c])
        codes.append(tuple(code))
    return min(codes)


def test_canonical_form_exhaustive_small():
    # brute-force check: the canonical code really is the ordering minimum
    rng = random.Random(5)
    cols = [EdgeColouring(4, 2, (1, 2, 2, 1, 2, 1)), pentagon(),
            EdgeColouring(5, 2, (1,) * 10), K4_MATCHINGS, walecki(3),
            lambda2(standard_qn(5))]
    for m, n in [(3, 2), (4, 3), (5, 2), (5, 3), (6, 2), (6, 3), (6, 4)]:
        cols.append(EdgeColouring(m, n, tuple(
            rng.randint(1, n) for _ in range(m * (m - 1) // 2))))
    for col in cols:
        assert canonical_form(col).colours == brute_force_canonical(col), col


def named_by_first_occurrence(colours):
    """Whether each new colour is the next unused one, as search names them."""
    top = 0
    for c in colours:
        if c > top + 1:
            return False
        top = max(top, c)
    return True


def test_is_canonical_matches_canonical_form():
    # every colouring that search can make on K_4 (n = 3) and K_5 (n = 2)
    checked = canonical = 0
    for m, n in [(4, 3), (5, 2)]:
        for colours in product(range(1, n + 1), repeat=m * (m - 1) // 2):
            if not named_by_first_occurrence(colours):
                continue
            col = EdgeColouring(m, n, colours)
            expected = canonical_form(col).colours == colours
            assert _is_canonical(colour_rows(m, colours)) == expected, col
            checked += 1
            canonical += expected
    assert (checked, canonical) == (634, 33)


def test_is_canonical_on_relabellings():
    # a relabelling passes exactly when it is the canonical form
    rng = random.Random(29)
    for col in [pentagon(), construct(sig((1, 3), 4), Level.STRONG),
                walecki(4), cyclotomic(13, 3)]:
        canon = canonical_form(col)
        assert _is_canonical(colour_rows(canon.m, canon.colours))
        for _ in range(8):
            relab = relabel(col, rng)
            assert canonical_form(relab) == canon
            if relab != canon:
                assert not _is_canonical(colour_rows(relab.m, relab.colours))


def test_lambda1_isomorphism_invariance():
    # lambda1 over an isomorphic copy of Q5 has the same canonical form
    q = standard_qn(5)
    perm = (2, 0, 4, 1, 3)
    inv = {perm[i]: i for i in range(5)}
    from chromarep.quasigroup import Quasigroup
    iso = Quasigroup(tuple(
        tuple(perm[q.mul(inv[i], inv[j])] for j in range(5))
        for i in range(5)))
    assert canonical_form(lambda1(iso)) == canonical_form(lambda1(q))


def test_are_isomorphic_basics():
    col = walecki(2)
    assert are_isomorphic(col, col)
    assert not are_isomorphic(col, walecki(3))     # different m
    assert not are_isomorphic(pentagon(), EdgeColouring(5, 2, (1,) * 10))


def counting_searches(monkeypatch):
    """Route the code searches through a wrapper, and return the list that
    gets one record per search begun: the codes it has yielded so far,
    then None once it has run to its end."""
    from chromarep import colouring

    searches = []
    codes = colouring._codes

    def counting(rows, bound=None):
        searches.append(record := [])
        for code in codes(rows, bound):
            record.append(code)
            yield code
        record.append(None)

    monkeypatch.setattr(colouring, "_codes", counting)
    return searches


def flat(code):
    return tuple(x for row in code for x in row)


def test_codes_contract():
    # every 2-colouring of K_5 and every 3-colouring of K_4, and
    # relabellings of colourings with large automorphism groups
    cols = [EdgeColouring(m, n, colours) for m, n in [(5, 2), (4, 3)]
            for colours in product(range(1, n + 1), repeat=m * (m - 1) // 2)]
    rng = random.Random(41)
    for col in (construct(sig((1, 3), 4), Level.STRONG),     # AG(2, 3)
                construct(sig((1, 3), 6), Level.STRONG),     # AG(2, 5)
                lambda2(standard_qn(7))):
        cols += [col] + [relabel(col, rng) for _ in range(4)]
    for col in cols:
        rows = colour_rows(col.m, col.colours)
        form = canonical_form(col).colours
        # the codes strictly decrease to the least code
        codes = list(_codes(rows))
        assert all(x > y for x, y in zip(codes, codes[1:])), col
        assert flat(codes[-1]) == form, col
        # under its own code, the search yields once, a prefix below it,
        # exactly when the colouring is not its canonical form
        bound = [row[:k] for k, row in enumerate(rows)]
        below = list(_codes(rows, bound))
        assert len(below) == (form != col.colours), col
        assert all(prefix < bound[:len(prefix)] for prefix in below), col


def test_are_isomorphic_resumes_searches_on_rigid_input(monkeypatch):
    # canonical_form(random2(30, 30)) searches for about a second; its
    # seed-5 relabelling shares a code with it long before either search
    # is done
    searches = counting_searches(monkeypatch)
    col = random2(30, 30)
    assert are_isomorphic(col, relabel(col, random.Random(5)))
    assert len(searches) == 2
    assert not any(record[-1] is None for record in searches)
    assert searches[0][-1] == searches[1][-1]


def test_are_isomorphic_matches_canonical_forms(monkeypatch):
    # every 2-colouring of K_5 and every 3-colouring of K_4, against one
    # representative of each class
    searches = counting_searches(monkeypatch)
    outcomes, pairs = Counter(), 0
    for m, n in [(5, 2), (4, 3)]:
        cols = [EdgeColouring(m, n, colours) for colours in
                product(range(1, n + 1), repeat=m * (m - 1) // 2)]
        canon = {col: canonical_form(col).colours for col in cols}
        reps = {}
        for col in cols:
            reps.setdefault(canon[col], col)
        for col in cols:
            for form, rep in reps.items():
                searches.clear()
                verdict = are_isomorphic(col, rep)
                assert verdict == (canon[col] == form), col
                pairs += 1
                if not searches:
                    continue            # refuted by class sizes
                # a False verdict runs exactly one search to its end
                ended = [record[-1] is None for record in searches]
                assert sum(ended) == (not verdict), col
                # two advances when the first codes decide, more when not
                advances = sum(map(len, searches))
                outcomes[verdict, advances == 2] += 1
    assert pairs == 29367
    assert set(outcomes) == {(True, True), (True, False), (False, False)}


def test_are_isomorphic_agrees_with_canonical_forms_on_seeded_pairs():
    # each random colouring against a relabelling, which is isomorphic, and
    # a shuffle of its colour tuple, which keeps the class sizes but mostly
    # is not
    rng = random.Random(28)
    pairs = []
    for _ in range(300):
        m, n = rng.randint(2, 9), rng.randint(1, 4)
        a = EdgeColouring(m, n, tuple(rng.randint(1, n)
                                      for _ in range(m * (m - 1) // 2)))
        shuffled = list(a.colours)
        rng.shuffle(shuffled)
        pairs += [(a, relabel(a, rng)),
                  (a, EdgeColouring(m, n, tuple(shuffled)))]
    for col in (construct(sig((1, 3), 6), Level.STRONG),    # AG(2, 5)
                walecki(6), lambda2(standard_qn(9))):
        pairs.append((col, relabel(col, rng)))
    verdicts = set()
    for a, b in pairs:
        same = canonical_form(a).colours == canonical_form(b).colours
        assert are_isomorphic(a, b) == same, (a, b)
        # a's side is searched first, so swap the sides too
        assert are_isomorphic(b, a) == same, (b, a)
        verdicts.add(same)
    assert verdicts == {False, True}


def test_are_isomorphic_interleaves_two_searches(monkeypatch):
    searches = counting_searches(monkeypatch)
    col = construct(sig((1, 3), 4), Level.STRONG)            # AG(2, 3)
    assert are_isomorphic(col, relabel(col, random.Random(3)))
    # the first codes agree
    (first_a,), (first_b,) = searches
    assert first_a == first_b

    col = construct(sig((1, 3), 6), Level.STRONG)            # AG(2, 5)
    searches.clear()
    assert are_isomorphic(col, relabel(col, random.Random(3)))
    # a's first code is above b's, so a's search advances, to b's code:
    # a code that both share and that is not yet the least
    (first_a, next_a), (first_b,) = searches
    assert first_a > first_b == next_a
    assert flat(next_a) > canonical_form(col).colours


def test_are_isomorphic_refutes_by_class_sizes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("code search called")

    # both sides' searches go through _codes
    monkeypatch.setattr("chromarep.colouring._codes", refuse)
    # equal m and n, different colour-class sizes
    a, b = chain_colouring(9), lambda2(standard_qn(9))
    assert (a.m, a.n) == (b.m, b.n)
    assert not are_isomorphic(a, b)


def test_json_round_trip():
    col = walecki(3)
    s = sig((2, 3), 3)
    text = col.to_json(s)
    doc = json.loads(text)
    assert doc["vertices"] == 6 and doc["colours"] == 3
    assert doc["signature"] == {"s": [2, 3], "n": 3}
    again = EdgeColouring.from_json(text)
    assert again == col
    assert again.to_json(s) == text  # bit-exact round trip


def test_json_rejects_deep_nesting():
    with pytest.raises(ValueError, match="colouring input is not JSON"):
        EdgeColouring.from_json("[" * 100_000)


def test_json_rejects_partial_edge_list():
    with pytest.raises(ValueError):
        EdgeColouring.from_json(json.dumps(
            {"vertices": 3, "colours": 1, "edges": [[0, 1, 1]]}))


@pytest.mark.parametrize("doc, message", [
    ({"vertices": 3, "edges": []}, "needs 'vertices'"),
    ({"colours": 1, "edges": []}, "needs 'vertices'"),
    ({"vertices": 2, "colours": 1, "edges": [[0, 2, 1]]}, "distinct vertices"),
    ({"vertices": 2, "colours": 1, "edges": [["0", 1, 1]]}, "integer"),
    ({"vertices": 3, "colours": 2,
      "edges": [[0, 1, 1], [1, 0, 2], [1, 2, 1]]}, "listed twice"),
    ({"vertices": 2, "colours": 0, "signature": {"s": [1], "n": 1},
      "edges": [[0, 1, 1]]}, "signature's n"),
    ({"vertices": 2, "colours": 2, "signature": {"s": [1], "n": 1},
      "edges": [[0, 1, 1]]}, "signature's n"),
    ({"vertices": 2, "colours": 2, "signature": {"s": [2], "n": 2.0},
      "edges": [[0, 1, 1]]}, "signature's n must be an integer"),
    ({"vertices": 2, "colours": 1, "signature": {"s": [1], "n": True},
      "edges": [[0, 1, 1]]}, "signature's n must be an integer"),
    ({"vertices": 2, "colours": 1, "edges": [5]}, "edge 5 is not a list"),
    ({"vertices": 2, "colours": 1, "edges": [[0, 1]]},
     r"edge \[0, 1\] is not \[i, j, colour\]"),
    ({"vertices": 0, "colours": 1, "edges": []}, "need at least one vertex"),
    ({"vertices": 1, "colours": 0, "edges": []}, "need at least one colour"),
    ({"vertices": 2, "colours": 1, "edges": 3}, "edges must be a list"),
])
def test_json_rejects_malformed(doc, message):
    with pytest.raises(ValueError, match=message):
        EdgeColouring.from_json(json.dumps(doc))


def test_dot_export():
    dot = pentagon().to_dot()
    assert dot.startswith("graph colouring {")
    assert '0 -- 1 [color=red, label="1"]' in dot
    assert dot.count("--") == 10
    # palette cycles beyond 12 colours
    big = EdgeColouring.from_function(14, 13, lambda i, j: max(i, j))
    assert f"color={DOT_PALETTE[0]}, label=\"13\"" in big.to_dot()
    assert len(DOT_PALETTE) == 12


if __name__ == "__main__":
    GOLDEN_REPORTS.write_text(
        "[\n" + ",\n".join(json.dumps(case, separators=(",", ":"))
                             for case in golden_records())
        + "\n]\n")
