"""Exhaustive search, enumeration and the summary-table cross-check."""

import importlib
import random
from itertools import combinations, permutations, product

import pytest

from chromarep.algebra import required_multisets, triangle_table
from chromarep.cli import certify_summary_row
from chromarep.colouring import (EdgeColouring, Level, VerificationReport,
                                 canonical_form, colour_rows, edge_index,
                                 edge_list, neighbour_masks, verify)
from chromarep.constructions import construct, pentagon
from chromarep.search import (_Budget, _pair_table, _search_m,
                              default_m_range, enumerate_representations,
                              restriction_bound, search)

from helpers import ALL_S, relabel, sig


def test_default_m_range():
    assert default_m_range(sig((3,), 3)) == (2, 12)
    assert default_m_range(sig((2,), 5)) == (2, 18)


def test_search_found_results_verify():
    for s, n in [((3,), 5), ((2,), 2), ((2, 3), 3), ((1, 2), 3)]:
        outcome = search(sig(s, n), Level.QUALITATIVE)
        assert outcome.status == "found"
        assert verify(outcome.colouring, sig(s, n), Level.QUALITATIVE).passed


def test_search_trichromatic_found_small():
    outcome = search(sig((3,), 5), Level.QUALITATIVE)
    assert outcome.status == "found"
    assert outcome.colouring.m in (5, 6)


def test_search_trichromatic_even_nonexistence():
    outcome = search(sig((3,), 4), Level.QUALITATIVE)
    assert outcome.status == "exhausted"
    assert outcome.m_max == 15
    assert outcome.complete_certificate


def test_search_dichromatic_nonexistence(dichromatic_certificate):
    outcome, _ = dichromatic_certificate
    assert outcome.status == "exhausted"
    assert outcome.m_max == 12
    assert outcome.complete_certificate
    # every level of the certificate, past GOLDEN_SEARCHES' m <= 7; m=11 is
    # dead (every 3-colouring of K_11 has a forbidden triangle; the largest
    # K_m without has 10 vertices, Chung & Graham 1983), so m=12 is skipped
    per_m = _SKIPPED + [(m, "exhausted", nodes) for m, nodes in zip(
        range(5, 12), (606, 5640, 34422, 163380, 598350, 1391484,
                       1997670))] + [(12, "skipped", 0)]
    assert [(rec.m, rec.status, rec.nodes) for rec in outcome.per_m] == per_m
    assert outcome.nodes == 4191552
    assert [rec.m for rec in outcome.per_m
            if rec.status == "exhausted" and not rec.prunes] == [11]


def test_search_strong_finds_pentagon():
    outcome = search(sig((2,), 2), Level.STRONG)
    assert outcome.status == "found"
    assert canonical_form(outcome.colouring) == canonical_form(pentagon())


def test_search_no_certificate_outside_qualitative():
    outcome = search(sig((1, 2), 3), Level.STRONG, m_range=(2, 6))
    assert outcome.status in ("found", "exhausted")
    if outcome.status == "exhausted":
        assert not outcome.complete_certificate
    # feeble exhaustion below 2n vertices is no certificate
    outcome = search(sig((1,), 2), Level.FEEBLE, m_range=(2, 3))
    assert outcome.status == "exhausted"
    assert not outcome.complete_certificate


def test_search_feeble_certificate_from_2n_bound():
    # one edge of each colour spans at most 2n vertices, which induce a
    # feeble representation again; with two colours and no dichromatic
    # triangle, K_m for m >= 3 has one colour, so none exists
    for s in [(1,), (1, 3)]:
        for m_range in [(2, 4), None]:
            outcome = search(sig(s, 2), Level.FEEBLE, m_range=m_range)
            assert outcome.status == "exhausted"
            assert outcome.complete_certificate, (s, m_range)
        outcome = search(sig(s, 2), Level.FEEBLE, m_range=(3, 9))
        assert not outcome.complete_certificate


def test_restriction_bound_values():
    for s in ALL_S:
        for n in range(1, 7):
            assert restriction_bound(sig(s, n), Level.FEEBLE) == 2 * n
    for s, n, bound in [((1, 3), 2, 6), ((1, 3), 3, 12), ((2,), 3, 18)]:
        assert restriction_bound(sig(s, n), Level.QUALITATIVE) == bound
    for n in range(1, 7):
        assert restriction_bound(sig((1,), n), Level.QUALITATIVE) == 3 * n
    with pytest.raises(ValueError):
        restriction_bound(sig((1,), 3), Level.STRONG)


@pytest.mark.parametrize("s, n, m_range, certified", [
    ((1,), 3, (2, 9), True), ((1,), 3, (2, 8), False),
    ((1,), 3, (3, 9), False),
    ((1, 3), 2, (2, 6), True), ((1, 3), 2, (2, 5), False)])
def test_qualitative_certificate_at_restriction_bound(s, n, m_range,
                                                      certified):
    # with 1 in S a monochromatic K_m is forbidden-free, so no m is dead and
    # only the range reaching the bound (9 and 6 here) certifies
    outcome = search(sig(s, n), Level.QUALITATIVE, m_range=m_range)
    assert outcome.status == "exhausted"
    assert outcome.complete_certificate is certified


def test_restriction_bound_skips_every_larger_m():
    # {1}, n=3 has bound 9 and no dead m: from m=2 the bound skips m = 10..12
    # and certifies; from m=3 it proves nothing, so they are searched
    outcome = search(sig((1,), 3), Level.QUALITATIVE)
    assert outcome.summary() == "certified nonexistent up to m=12"
    assert [(rec.m, rec.status, rec.nodes) for rec in outcome.per_m[-3:]] == [
        (10, "skipped", 0), (11, "skipped", 0), (12, "skipped", 0)]
    outcome = search(sig((1,), 3), Level.QUALITATIVE, m_range=(3, 12))
    assert outcome.summary() == "none found (range-limited) up to m=12"
    assert [(rec.m, rec.status, rec.nodes) for rec in outcome.per_m[-3:]] == [
        (10, "exhausted", 52), (11, "exhausted", 63), (12, "exhausted", 75)]


def test_default_range_short_of_the_bound_is_range_limited(monkeypatch):
    # a kernel that refuses an entry at every m never finds a dead m, and
    # {2}, n=4 has bound 36, past the default range's 15
    def stub(sig, level, m, budget):
        budget.nodes += 1
        budget.prunes += 1
        yield from ()

    monkeypatch.setattr(importlib.import_module("chromarep.search"),
                        "_search_m", stub)
    outcome = search(sig((2,), 4), Level.QUALITATIVE)
    assert outcome.summary() == "none found (range-limited) up to m=15"


def test_search_range_limited_no_certificate():
    outcome = search(sig((2,), 3), Level.QUALITATIVE, m_range=(2, 6))
    assert outcome.status == "exhausted"
    assert not outcome.complete_certificate


def test_search_budget_abort():
    outcome = search(sig((2,), 3), Level.QUALITATIVE, node_budget=50)
    assert outcome.status == "aborted"
    assert outcome.colouring is None
    assert outcome.per_m[-1].status == "aborted"


def test_search_trichromatic_prunes_large_m():
    # all edges at a vertex must be distinct, so m > n+1 dies immediately;
    # search skips m=15, past the dead m=5, so run the kernel on it
    budget = _Budget(None)
    assert list(_search_m(sig((3,), 4), Level.QUALITATIVE, 15, budget)) == []
    assert budget.nodes < 200


def test_search_transcript_lines():
    import json
    outcome = search(sig((3,), 3), Level.QUALITATIVE)
    lines = list(outcome.transcript_lines())
    assert lines
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"m", "status", "nodes", "prunes", "seconds"}


def test_search_budget_edge():
    # {2}, n=3 on m <= 7 takes 40,668 nodes: a budget of exactly that many
    # exhausts the range, one less aborts on the node past it
    for budget, status in [(40668, "exhausted"), (40667, "aborted")]:
        outcome = search(sig((2,), 3), Level.QUALITATIVE, m_range=(2, 7),
                         node_budget=budget)
        assert (outcome.status, outcome.nodes) == (status, 40668)


@pytest.mark.parametrize("level", list(Level))
@pytest.mark.parametrize("s", [(2,), (2, 3)])
def test_dead_m_is_ramsey_number(s, level):
    # R(3,3) = 6: every 2-colouring of K_6 has a monochromatic triangle,
    # forbidden when 1 is not in S, so m=6 is dead at every level, while K_5
    # has the pentagon, reached as 6 labellings
    budget = _Budget(None)
    assert list(_search_m(sig(s, 2), level, 6, budget)) == []
    assert (budget.nodes, budget.prunes) == (162, 0)
    assert len(list(_search_m(sig(s, 2), level, 5, _Budget(None)))) == 6


def test_dead_m_certifies_and_skips():
    # with S = {3} the edges at a vertex have distinct colours, and K_5 has
    # no proper 4-edge-colouring nor K_8 a proper 6-edge-colouring
    for n, dead in [(4, 5), (6, 8)]:
        outcome = search(sig((3,), n), Level.QUALITATIVE)
        assert outcome.complete_certificate
        exhausted = [rec for rec in outcome.per_m if rec.status == "exhausted"]
        assert (exhausted[-1].m, exhausted[-1].prunes) == (dead, 0)
        assert all(rec.prunes for rec in exhausted[:-1])
        assert [(rec.status, rec.nodes) for rec in outcome.per_m
                if rec.m > dead] == [("skipped", 0)] * (3 * n + 3 - dead)
    # a dead m certifies at the strong level too, but only from m=2
    outcome = search(sig((2,), 2), Level.STRONG, m_range=(6, 9))
    assert not outcome.complete_certificate
    outcome = search(sig((3,), 4), Level.STRONG, m_range=(2, 6))
    assert outcome.complete_certificate
    assert outcome.summary() == "certified nonexistent up to m=6"


def test_search_deterministic():
    a = search(sig((2, 3), 2), Level.QUALITATIVE)
    b = search(sig((2, 3), 2), Level.QUALITATIVE)
    assert a.colouring == b.colouring
    assert a.nodes == b.nodes


BRUTE_FORCE_CASES = [
    ((2,), 2, Level.QUALITATIVE, 5), ((1, 2), 2, Level.QUALITATIVE, 5),
    ((2, 3), 2, Level.QUALITATIVE, 5), ((3,), 2, Level.QUALITATIVE, 4),
    ((3,), 3, Level.QUALITATIVE, 3), ((3,), 3, Level.QUALITATIVE, 4),
    ((2, 3), 3, Level.FEEBLE, 4), ((1, 3), 2, Level.FEEBLE, 5),
    ((1, 2), 2, Level.STRONG, 5), ((2,), 2, Level.STRONG, 5),
]


@pytest.mark.parametrize(
    "s, n, level, m", BRUTE_FORCE_CASES,
    ids=[f"{''.join(map(str, s))}-n{n}-{level.value}-m{m}"
         for s, n, level, m in BRUTE_FORCE_CASES])
def test_symmetry_breaking_safety(s, n, level, m):
    # first-occurrence colour order loses no iso-class: the reference runs
    # every colouring of K_m through verify, independently of the search.
    # The search finds the least passing colouring, in product order, whose
    # colours first occur in the order 1..n (a passing one uses them all)
    brute, least = set(), None
    for colours in product(range(1, n + 1), repeat=m * (m - 1) // 2):
        col = EdgeColouring(m, n, colours)
        if verify(col, sig(s, n), level).passed:
            brute.add(canonical_form(col).colours)
            if least is None and tuple(dict.fromkeys(colours)) == tuple(
                    range(1, n + 1)):
                least = col
    found, partial = enumerate_representations(sig(s, n), level, m)
    assert not partial
    assert [c.colours for c in found] == sorted(brute)
    assert search(sig(s, n), level, m_range=(m, m)).colouring == least


def test_enumerate_finds_each_class_once():
    # without canonical forms: the orbits of the 37 classes of {1,2}, n=2
    # on K_6 under the 6!·2! vertex and colour relabellings are pairwise
    # disjoint, and together they are the colourings that pass verify
    s, m = sig((1, 2), 2), 6
    found, partial = enumerate_representations(s, Level.QUALITATIVE, m)
    assert (len(found), partial) == (37, False)
    moves = [[edge_index(p[i], p[j]) for i, j in edge_list(m)]
             for p in permutations(range(m))]
    orbits = []
    for col in found:
        images = {tuple(col.colours[e] for e in move) for move in moves}
        orbits.append(images | {tuple(3 - c for c in x) for x in images})
    labelled = set().union(*orbits)
    assert sum(map(len, orbits)) == len(labelled) == 21000
    assert labelled == {
        colours for colours in product((1, 2), repeat=len(moves[0]))
        if verify(EdgeColouring(m, 2, colours), s, Level.QUALITATIVE).passed}


# each case with the leaves and nodes of the orderly kernel, measured: the
# canonical-prefix prune must cut exactly these nodes
ORDERLY_CASES = [case + pin for case, pin in zip(BRUTE_FORCE_CASES, [
    (1, 31), (3, 215), (1, 31), (0, 3), (1, 4), (1, 10), (7, 66), (0, 13),
    (0, 215), (1, 31)], strict=True)] + [
    ((1, 2), 2, Level.QUALITATIVE, 6, 37, 1331),
    ((2, 3), 3, Level.STRONG, 6, 0, 5568),
    ((1, 3), 4, Level.STRONG, 9, 1, 315),
]


@pytest.mark.parametrize(
    "s, n, level, m, leaf_count, nodes", ORDERLY_CASES,
    ids=[f"{''.join(map(str, s))}-n{n}-{level.value}-m{m}"
         for s, n, level, m, _, _ in ORDERLY_CASES])
def test_orderly_search_reaches_each_class_once(s, n, level, m, leaf_count,
                                                nodes):
    # with the canonical-prefix prune every leaf is already canonical, and
    # no two leaves share a class, so enumerate's dedupe drops nothing
    budget = _Budget(None)
    leaves = list(_search_m(sig(s, n), level, m, budget, orderly=True))
    assert (len(leaves), budget.nodes) == (leaf_count, nodes)
    assert all(canonical_form(c) == c for c in leaves)
    found, partial = enumerate_representations(sig(s, n), level, m)
    assert not partial
    assert sorted(c.colours for c in leaves) == [c.colours for c in found]


def test_enumerate_budget_edge():
    # the orderly search of {1,2}, n=2 on K_6 takes 1,331 nodes and finds
    # its last class before its last node, so one node less still returns
    # every class, but reports partial
    for budget, partial in [(1331, False), (1330, True)]:
        results, got = enumerate_representations(
            sig((1, 2), 2), Level.QUALITATIVE, 6, node_budget=budget)
        assert (len(results), got) == (37, partial)


def test_strong_leaf_tests_witnesses_before_canonical(monkeypatch):
    # most strong leaves of {2,3}, n=3 on K_6 lack a witness; the cheaper
    # witness test drops them first, so 378 canonical tests run, not 1,637
    module = importlib.import_module("chromarep.search")
    real, calls = module._is_canonical, []
    monkeypatch.setattr(module, "_is_canonical",
                        lambda rows: calls.append(rows) or real(rows))
    leaves = list(_search_m(sig((2, 3), 3), Level.STRONG, 6, _Budget(None),
                            orderly=True))
    assert (len(leaves), len(calls)) == (0, 378)


@pytest.mark.parametrize("run", [
    lambda: list(_search_m(sig((2, 3), 3), Level.STRONG, 6, _Budget(None),
                           orderly=True)),
    lambda: search(sig((2, 3), 3), Level.STRONG, m_range=(2, 6),
                   node_budget=10000),
    lambda: search(sig((1, 2), 2), Level.STRONG, m_range=(2, 6)),
], ids=["23-n3-m6-orderly", "23-n3-budgeted", "12-n2"])
def test_strong_leaf_masks_match_colours(monkeypatch, run):
    # the kernel keeps its neighbour masks by setting and clearing bits as
    # it stores and undoes colours; at every strong leaf they must be the
    # masks of the colours stored there
    module = importlib.import_module("chromarep.search")
    real, leaves = module.unwitnessed, []

    def checked(neigh, colours, sig):
        m = len(neigh)
        assert neigh == neighbour_masks(colour_rows(m, colours), sig.n)
        leaves.append(m)
        return real(neigh, colours, sig)

    monkeypatch.setattr(module, "unwitnessed", checked)
    run()
    assert leaves


def test_enumerate_m7_class_count():
    # within tier-1 reach only with the canonical-prefix prune
    results, partial = enumerate_representations(sig((1, 2), 2),
                                                 Level.QUALITATIVE, 7)
    assert not partial
    assert len(results) == 408


def test_leaf_reaching_verify_must_pass(monkeypatch):
    # a strong leaf with every witness goes to verify, and a verify that
    # disagrees stops the search instead of being skipped
    def failing(col, sig, level):
        return VerificationReport(level_requested=level, passed=False,
                                  surjective=True)
    # the package exports the function search, so name the module itself
    monkeypatch.setattr(importlib.import_module("chromarep.search"),
                        "verify", failing)
    with pytest.raises(AssertionError, match="invalid colouring"):
        search(sig((2,), 2), Level.STRONG)


def test_enumerate_refuses_non_canonical_leaf(monkeypatch):
    # enumerate keeps the orderly leaves as they come, so a leaf that is not
    # its own canonical form stops it instead of being kept
    (leaf, *_), _ = enumerate_representations(sig((1, 2), 2),
                                              Level.QUALITATIVE, 5)
    moved = relabel(leaf, random.Random(1))
    assert moved != leaf and canonical_form(moved) == leaf
    monkeypatch.setattr(importlib.import_module("chromarep.search"),
                        "_search_m", lambda *args, **kwargs: iter([moved]))
    with pytest.raises(AssertionError, match="non-canonical leaf"):
        enumerate_representations(sig((1, 2), 2), Level.QUALITATIVE, 5)


def test_too_small_k_m_visits_no_node():
    outcome = search(sig((2,), 3), Level.QUALITATIVE, m_range=(2, 4),
                     node_budget=0)
    assert outcome.summary() == "none found (range-limited) up to m=4"
    assert [(rec.m, rec.status, rec.nodes) for rec in outcome.per_m] == [
        (2, "skipped", 0), (3, "skipped", 0), (4, "skipped", 0)]
    assert enumerate_representations(sig((2,), 3), Level.QUALITATIVE, 4,
                                     node_budget=0) == ([], False)
    outcome = search(sig((1,), 2), Level.FEEBLE, m_range=(2, 3),
                     node_budget=0)
    assert outcome.status == "aborted" and outcome.nodes == 1
    assert [(rec.m, rec.status, rec.nodes) for rec in outcome.per_m] == [
        (2, "skipped", 0), (3, "aborted", 1)]


def test_search_rejects_empty_range_and_negative_budget():
    with pytest.raises(ValueError, match="empty vertex range 5..3"):
        search(sig((2,), 3), Level.QUALITATIVE, m_range=(5, 3))
    with pytest.raises(ValueError, match="node budget must be >= 0, got -1"):
        _Budget(-1)
    with pytest.raises(ValueError, match="node budget"):
        search(sig((2,), 3), Level.QUALITATIVE, node_budget=-1)
    with pytest.raises(ValueError, match="node budget"):
        enumerate_representations(sig((2,), 3), Level.QUALITATIVE, 4,
                                  node_budget=-1)


def test_search_12_n2_finds_m5_literal():
    # colour 2 on the triangle {2, 3, 4} and the edge {1, 4}, else colour 1
    literal = EdgeColouring.from_function(
        5, 2, lambda i, j: 2 if (i, j) in {(2, 3), (2, 4), (3, 4), (1, 4)}
        else 1)
    outcome = search(sig((1, 2), 2), Level.QUALITATIVE)
    assert (outcome.summary(), outcome.nodes) == ("found on m=5", 103)
    assert outcome.colouring == literal
    assert verify(literal, sig((1, 2), 2), Level.QUALITATIVE).passed


def test_enumerate_13_line_size_theorem():
    # with S = {1, 3} a line of colour a has at most n - 1 points, so at
    # n = 3 every colour class is a matching and m <= 4; at n = 2 a line
    # with a point off it has no edge, so an edge's colour covers all of K_m
    for m, count in [(3, 1), (4, 1)] + [(m, 0) for m in range(5, 10)]:
        results, partial = enumerate_representations(sig((1, 3), 3),
                                                     Level.FEEBLE, m)
        assert (len(results), partial) == (count, False), m
        for col in results:
            rows = colour_rows(m, col.colours)
            assert all(len({rows[a][b], rows[a][c], rows[b][c]}) > 1
                       for a, b, c in combinations(range(m), 3))
    for m in range(2, 7):
        assert enumerate_representations(sig((1, 3), 2), Level.FEEBLE,
                                         m) == ([], False), m


def test_enumerate_k4_matchings_unique():
    results, partial = enumerate_representations(sig((3,), 3),
                                                 Level.QUALITATIVE, 4)
    assert not partial
    assert len(results) == 1
    assert verify(results[0], sig((3,), 3), Level.STRONG).passed


def test_enumerate_pentagon_present():
    results, partial = enumerate_representations(sig((2,), 2),
                                                 Level.QUALITATIVE, 5)
    assert not partial
    assert canonical_form(pentagon()) in results
    # sorted canonical output
    assert [r.colours for r in results] == sorted(r.colours for r in results)


def test_enumerate_rejects_out_of_range_m():
    with pytest.raises(ValueError):
        enumerate_representations(sig((3,), 3), Level.QUALITATIVE, 13)


def test_enumerate_partial_flag_on_budget():
    results, partial = enumerate_representations(sig((2,), 2),
                                                 Level.QUALITATIVE, 5,
                                                 node_budget=10)
    assert partial


def test_certify_summary_row_trichromatic():
    cells = certify_summary_row((3,), range(3, 7))
    quali = [cells[(n, Level.QUALITATIVE)].status for n in range(3, 7)]
    assert quali == ["Constructed", "CertifiedNonexistent",
                     "Constructed", "CertifiedNonexistent"]


def test_certify_summary_row_dichromatic():
    cells = certify_summary_row((2,), range(2, 5))
    assert cells[(2, Level.QUALITATIVE)].status == "Constructed"
    assert cells[(3, Level.QUALITATIVE)].status == "CertifiedNonexistent"
    assert cells[(4, Level.QUALITATIVE)].status == "CertifiedNonexistent"
    assert cells[(2, Level.STRONG)].status == "Constructed"


def test_certify_summary_row_lyndon_n3():
    cells = certify_summary_row((1, 3), [3])
    assert cells[(3, Level.QUALITATIVE)].status == "CertifiedNonexistent"
    assert cells[(3, Level.FEEBLE)].status == "Constructed"


def test_search_agrees_with_construct_verdicts(dichromatic_certificate):
    # qualitative answers settled in the literature, n <= 5
    from chromarep.constructions import NotConstructible, construct
    for s, n in [((3,), 3), ((3,), 4), ((3,), 5), ((2,), 2), ((2,), 3),
                 ((2, 3), 4), ((1,), 2), ((), 3)]:
        built = construct(sig(s, n), Level.QUALITATIVE)
        if (s, n) == ((2,), 3):
            outcome, _ = dichromatic_certificate
        else:
            outcome = search(sig(s, n), Level.QUALITATIVE)
        if isinstance(built, NotConstructible) and built.nonexistent:
            assert outcome.status == "exhausted" and \
                outcome.complete_certificate
        elif isinstance(built, EdgeColouring):
            assert outcome.status == "found"


# Per-m (m, status, nodes) and the found colour tuple, recorded before the
# search kernel was rewritten; any change to node counts, verdicts or the
# colouring found first shows here.
_Q, _S, _F = Level.QUALITATIVE, Level.STRONG, Level.FEEBLE
_SKIPPED = [(2, "skipped", 0), (3, "skipped", 0), (4, "skipped", 0)]
GOLDEN_SEARCHES = [
    ((3,), 5, _Q, None, _SKIPPED + [(5, "found", 32)],
     (1, 2, 3, 3, 4, 5, 4, 5, 1, 2)),
    ((2, 3), 3, _Q, None, _SKIPPED + [(5, "found", 48)],
     (1, 1, 2, 1, 2, 3, 3, 1, 2, 3)),
    # K_5 is dead (no proper 4-edge-colouring), so m = 6..15 are skipped
    ((3,), 4, _Q, None,
     _SKIPPED[:2] + [(4, "exhausted", 16), (5, "exhausted", 74)]
     + [(m, "skipped", 0) for m in range(6, 16)], None),
    ((2,), 2, _S, None,
     _SKIPPED[:2] + [(4, "exhausted", 30), (5, "found", 26)],
     (1, 1, 2, 2, 1, 2, 2, 2, 1, 1)),
    # m=4 reaches the feeble restriction bound 2n, so m = 5..9 are skipped
    ((1,), 2, _F, None,
     [(2, "skipped", 0), (3, "exhausted", 4), (4, "exhausted", 8)]
     + [(m, "skipped", 0) for m in range(5, 10)], None),
    ((1, 2), 3, _S, (2, 6),
     _SKIPPED + [(5, "exhausted", 468), (6, "exhausted", 62780)], None),
    ((2,), 3, _Q, (2, 7),
     _SKIPPED + [(5, "exhausted", 606), (6, "exhausted", 5640),
                 (7, "exhausted", 34422)], None),
    # recorded before the search chose colours from its packed pair table:
    # 15 multisets make n + 1 + 5 * 15 = 81-bit table entries here
    ((1, 3), 5, _Q, None,
     _SKIPPED + [(5, "skipped", 0), (6, "exhausted", 9195),
                 (7, "found", 5109)],
     (1, 1, 1, 2, 3, 4, 2, 4, 5, 2, 3, 2, 5, 1, 5, 3, 4, 2, 5, 4, 3)),
    # and closures of up to 7 triangles on K_9
    ((1, 3), 4, _S, None,
     _SKIPPED + [(5, "exhausted", 157), (6, "exhausted", 1166),
                 (7, "exhausted", 5375), (8, "exhausted", 18825),
                 (9, "found", 153)],
     (1, 1, 1, 2, 3, 4, 2, 4, 3, 2, 3, 2, 4, 4, 1, 3, 4, 2, 1, 4, 3, 4, 2, 3,
      1, 3, 2, 1, 4, 3, 2, 3, 1, 1, 2, 4)),
]


@pytest.mark.parametrize(
    "s, n, level, m_range, per_m, colours", GOLDEN_SEARCHES,
    ids=[f"{''.join(map(str, s))}-n{n}-{level.value}"
         for s, n, level, *_ in GOLDEN_SEARCHES])
def test_search_golden_pin(s, n, level, m_range, per_m, colours):
    outcome = search(sig(s, n), level, m_range=m_range)
    assert [(rec.m, rec.status, rec.nodes) for rec in outcome.per_m] == per_m
    assert outcome.nodes == sum(nodes for _, _, nodes in per_m)
    if colours is None:
        assert outcome.status == "exhausted" and outcome.colouring is None
    else:
        assert outcome.status == "found"
        assert outcome.colouring.colours == colours


# (S, n, level, m): the least m of a settled cell, where search from m=2
# finds its first colouring, so every smaller m is empty.  The first four
# cells are GOLDEN_SEARCHES'; construct builds on m or more vertices.
LEAST_M = [
    ((3,), 5, _Q, 5), ((2, 3), 3, _Q, 5), ((1, 3), 5, _Q, 7),
    ((1, 3), 4, _S, 9), ((1, 2, 3), 2, _Q, 5), ((1, 2, 3), 3, _Q, 6),
    ((1, 3), 4, _Q, 7), ((2,), 2, _Q, 4), ((2, 3), 3, _F, 3),
    ((2, 3), 4, _F, 4), ((2, 3), 5, _F, 4),
]


@pytest.mark.parametrize(
    "s, n, level, m", LEAST_M,
    ids=[f"{''.join(map(str, s))}-n{n}-{level.value}"
         for s, n, level, _ in LEAST_M])
def test_search_least_m(s, n, level, m):
    outcome = search(sig(s, n), level)
    assert outcome.status == "found" and outcome.colouring.m == m
    assert verify(outcome.colouring, sig(s, n), level).passed
    assert construct(sig(s, n), level).m >= m


def test_pair_table_matches_triangle_table():
    # bit c of table[a][b] is set iff {a, b, c} is consistent, and field c
    # holds the bit of its multiset; rows and columns 0 stay empty
    for s, n in product(ALL_S, range(1, 6)):
        tri = triangle_table(sig(s, n))
        for multisets in (False, True):
            table = _pair_table(sig(s, n), multisets)
            width = len(required_multisets(sig(s, n))) if multisets else 0
            assert len(table) == n + 1 and not any(table[0])
            for a in range(1, n + 1):
                assert len(table[a]) == n + 1 and table[a][0] == 0
                for b, c in product(range(1, n + 1), repeat=2):
                    entry, k = table[a][b], tri[a][b][c]
                    assert entry >> c & 1 == (k > 0), (s, n, a, b, c)
                    field = entry >> n + 1 + (c - 1) * width
                    assert field & (1 << width) - 1 == (
                        1 << k - 1 if k and width else 0), (s, n, a, b, c)
                    # no bit outside 1..n and the n fields
                    assert entry & 1 == 0
                    assert entry >> n + 1 + n * width == 0


def test_search_budgeted_abort_pin():
    # the benchmark's strong-search pass: the budget check falls after the
    # closures and before the colour is stored, so the abort is exact
    outcome = search(sig((2, 3), 3), Level.STRONG, m_range=(2, 6),
                     node_budget=10000)
    assert (outcome.status, outcome.nodes) == ("aborted", 10001)
    assert [(rec.m, rec.status, rec.nodes) for rec in outcome.per_m] == (
        _SKIPPED + [(5, "exhausted", 4774), (6, "aborted", 5227)])


def test_enumerate_golden_pin():
    results, partial = enumerate_representations(sig((1, 2), 2),
                                                 Level.QUALITATIVE, 5)
    assert not partial
    assert [c.colours for c in results] == [
        (1, 1, 1, 1, 1, 2, 1, 2, 2, 2),
        (1, 1, 1, 1, 1, 2, 2, 2, 2, 2),
        (1, 1, 1, 1, 2, 2, 2, 1, 2, 2)]
