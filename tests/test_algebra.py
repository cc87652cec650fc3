"""Atom structures, composition and associativity."""

from itertools import product

import pytest

from chromarep.algebra import (AtomStructure, Signature,
                               check_na_atom_structure, chromatic_atoms,
                               compose, is_associative, peircean_transforms,
                               required_multisets, triangle_table)
from chromarep.colouring import EdgeColouring, Level
from chromarep.constructions import construct
from chromarep.geometry import (LinearSpace, affine_plane,
                                colouring_from_parallelism, validate_space)
from chromarep.quasigroup import Quasigroup, standard_qn

from helpers import ALL_S, sig


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(frozenset({4}), 2)
    with pytest.raises(ValueError):
        Signature(frozenset({1}), 0)
    # 2.0 and True pass as 2 and 1 in arithmetic and set membership, and a
    # search on n = 2.0 would end in a TypeError
    for bad_n in (2.0, True, "2", None):
        with pytest.raises(ValueError, match="number of colours"):
            Signature(frozenset({2}), bad_n)
    for bad_s in ({2.0}, {True}, {1, "3"}):
        with pytest.raises(ValueError, match="triangle type"):
            Signature(frozenset(bad_s), 2)
    # entries are checked before a set would merge 2.0 into 2, True into 1
    for bad_s in ((2, 2.0), [1, True]):
        with pytest.raises(ValueError, match="triangle type"):
            Signature(bad_s, 2)
    assert sig((1, 3), 4).forbidden == frozenset({2})
    assert sig((), 2).forbidden == frozenset({1, 2, 3})
    assert sig((2,), 5).atom_count == 6
    assert str(sig((1, 3), 4)) == "E_5^{1,3}"
    assert str(sig((), 2)) == "E_3^{∅}"


def test_chromatic_atoms_s3_n3():
    # only trichromatic proper triples are consistent
    st = chromatic_atoms(sig((3,), 3))
    assert (1, 2, 3) in st.triples
    assert (1, 1, 1) not in st.triples
    assert (1, 1, 2) not in st.triples


def test_chromatic_atoms_empty_s_n1():
    # identity triples survive even with every proper type forbidden
    st = chromatic_atoms(sig((), 1))
    assert st.triples == frozenset({(0, 0, 0), (0, 1, 1), (1, 0, 1),
                                    (1, 1, 0)})


def test_chromatic_atoms_full_s_n2():
    st = chromatic_atoms(sig((1, 2, 3), 2))
    proper = {t for t in st.triples if 0 not in t}
    assert len(proper) == 8  # every proper triple over two colours


def test_peircean_transforms_symmetric():
    st = chromatic_atoms(sig((3,), 3))
    assert peircean_transforms((1, 2, 3), st) == {
        (1, 2, 3), (1, 3, 2), (3, 2, 1), (2, 3, 1), (3, 1, 2), (2, 1, 3)}
    assert peircean_transforms((1, 1, 1), st) == {(1, 1, 1)}
    assert peircean_transforms((0, 1, 1), st) == {(0, 1, 1), (1, 0, 1),
                                                  (1, 1, 0)}


def test_peircean_transforms_rejects_unknown_atom():
    st = chromatic_atoms(sig((3,), 3))
    with pytest.raises(ValueError):
        peircean_transforms((1, 2, 9), st)
    for a in (-1, 4):   # atoms are 0..3
        with pytest.raises(ValueError, match=f"atom {a} not in structure"):
            st.conv(a)


def test_structure_check_all_signatures():
    for s in ALL_S:
        for n in range(1, 9):
            assert check_na_atom_structure(chromatic_atoms(sig(s, n))).valid


def test_triangle_table_format():
    # 0 for a colour 0 or a forbidden type, else the multiset's index + 1
    for s, n in product(ALL_S, range(1, 4)):
        table = triangle_table(sig(s, n))
        needed = required_multisets(sig(s, n))
        for a, b, c in product(range(n + 1), repeat=3):
            entry = table[a][b][c]
            if 0 in (a, b, c) or len({a, b, c}) not in s:
                assert entry == 0
            else:
                assert needed[entry - 1] == tuple(sorted((a, b, c)))


def test_structure_check_closure_violation():
    st = chromatic_atoms(sig((3,), 3))
    broken = AtomStructure(st.converse, st.identity,
                           st.triples - {(3, 1, 2)})
    report = check_na_atom_structure(broken)
    assert not report.valid
    assert report.closure_total > 0
    assert all(t in broken.triples for t in report.closure_violations)


def test_structure_check_identity_violation():
    st = chromatic_atoms(sig((3,), 2))
    broken = AtomStructure(st.converse, frozenset(),
                           frozenset(t for t in st.triples if 0 not in t))
    report = check_na_atom_structure(broken)
    assert not report.valid
    assert report.identity_total > 0


def test_compose_examples():
    st3 = chromatic_atoms(sig((3,), 3))
    assert compose(st3, 1 << 1, 1 << 2) == 1 << 3
    st2 = chromatic_atoms(sig((2,), 3))
    assert compose(st2, 1 << 1, 1 << 2) == 1 << 1 | 1 << 2
    # identity is a left unit on any structure
    for s in ALL_S:
        st = chromatic_atoms(sig(s, 3))
        for b in range(4):
            assert compose(st, 1 << 0, 1 << b) == 1 << b


def test_compose_distributes_over_union():
    st = chromatic_atoms(sig((2, 3), 4))
    left = compose(st, 1 << 1 | 1 << 2, 1 << 3)
    assert left == (compose(st, 1 << 1, 1 << 3)
                    | compose(st, 1 << 2, 1 << 3))


def independent_compose(st, a, b):
    """Oracle: composition computed by a plain triple scan over dicts."""
    out = set()
    for s, r, u in st.triples:
        if s == a and r == b:
            out.add(u)
    return out


def test_compose_against_oracle():
    for s in ALL_S:
        for n in (2, 4):
            st = chromatic_atoms(sig(s, n))
            for a, b in product(range(n + 1), repeat=2):
                mask = compose(st, 1 << a, 1 << b)
                got = {u for u in range(n + 1) if mask >> u & 1}
                assert got == independent_compose(st, a, b), (s, n, a, b)


def test_associativity_pattern():
    assert is_associative(chromatic_atoms(sig((3,), 3))) == (True, None)
    flag, witness = is_associative(chromatic_atoms(sig((3,), 5)))
    assert not flag and witness is not None
    assert is_associative(chromatic_atoms(sig((2,), 4)))[0]
    # the two-colour trichromatic algebra has no consistent proper triple
    # at all, which already breaks associativity: (a1;a1);a2 = a2 but
    # a1;(a1;a2) = 0
    flag, witness = is_associative(chromatic_atoms(sig((3,), 2)))
    assert not flag and witness == (1, 1, 2)


def test_associativity_cells():
    # for n <= 6 exactly these algebras are not associative, each with the
    # witness (1, 1, 2): S = {} and {1} at n >= 2, {3} at n not in {1, 3},
    # {1,3} at n in {2, 3}; every strong colouring construct builds has an
    # associative algebra
    broken = {(s, n) for s in [(), (1,)] for n in range(2, 7)} | {
        ((3,), n) for n in (2, 4, 5, 6)} | {((1, 3), 2), ((1, 3), 3)}
    for s, n in product(ALL_S, range(1, 7)):
        got = is_associative(chromatic_atoms(sig(s, n)))
        assert got == ((False, (1, 1, 2)) if (s, n) in broken
                       else (True, None)), (s, n)
        if isinstance(construct(sig(s, n), Level.STRONG), EdgeColouring):
            assert got[0], (s, n)


def test_associativity_witness_is_genuine():
    st = chromatic_atoms(sig((3,), 5))
    _, (a, b, c) = is_associative(st)
    left = compose(st, compose(st, 1 << a, 1 << b), 1 << c)
    right = compose(st, 1 << a, compose(st, 1 << b, 1 << c))
    assert left != right


def test_is_associative_rejects_invalid_structure():
    st = chromatic_atoms(sig((3,), 3))
    broken = AtomStructure(st.converse, st.identity,
                           st.triples - {(3, 1, 2)})
    with pytest.raises(ValueError):
        is_associative(broken)


@pytest.mark.parametrize("fields, message", [
    (((3,), frozenset({0}), frozenset()), "converse of atom 0 is no atom"),
    (((0,), frozenset({-1}), frozenset()), "identity atom -1 is no atom"),
    (((0, 1), frozenset({0}), frozenset({(0, 1)})),
     r"triple \(0, 1\) out of range"),
    (((0, 2, 2), frozenset({0}), frozenset()),
     "converse is not self-inverse at atom 1"),
    (((0, 1), frozenset({0}), frozenset({(0, 1, 5)})),
     r"triple \(0, 1, 5\) out of range"),
])
def test_atom_structure_rejects_malformed(fields, message):
    with pytest.raises(ValueError, match=message):
        AtomStructure(*fields)


@pytest.mark.parametrize("value, bad, message", [
    (sig((2,), 3), {"n": 0}, "need at least one proper colour"),
    (sig((2,), 3), {"s_set": frozenset({4})}, "triangle types must lie in"),
    (chromatic_atoms(sig((2,), 2)), {"converse": (0, 2, 2)},
     "converse is not self-inverse at atom 1"),
    (EdgeColouring(2, 1, (1,)), {"colours": (9,)}, "colour 9 outside 1..1"),
    (LinearSpace(3, ((frozenset({0, 1, 2}),),)),
     {"blocks": ((frozenset({5}),),)}, "line contains an unknown point"),
    (Quasigroup(((0,),)), {"table": ((0,), (0,))},
     "table must have one row per element"),
])
def test_checked_types_stay_checked_and_read_only(value, bad, message):
    # _replace and _make build through the type's own checks
    with pytest.raises(ValueError, match=message):
        value._replace(**bad)
    fields = value._asdict() | bad
    with pytest.raises(ValueError, match=message):
        type(value)._make(fields[name] for name in value._fields)
    again = value._replace()
    assert type(again) is type(value) and again == value
    for name in value._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert not hasattr(value, "__dict__")


def test_value_types_store_lists_as_tuples():
    # built from lists, each type equals and hashes like the tuple-built
    # value, and answers the same: triples membership stays a set lookup
    st = chromatic_atoms(sig((3,), 3))
    listed = AtomStructure(list(st.converse), list(st.identity),
                           [list(t) for t in st.triples])
    plane = affine_plane(2)
    listed_plane = LinearSpace(plane.point_count,
                               [[list(line) for line in block]
                                for block in plane.blocks])
    q = standard_qn(5)
    listed_q = Quasigroup([list(row) for row in q.table])
    for value, again in ((st, listed), (plane, listed_plane), (q, listed_q)):
        assert again == value and hash(again) == hash(value)
    assert is_associative(listed) == is_associative(st) == (True, None)
    assert validate_space(listed_plane) == validate_space(plane)
    # a block of two list lines that meet is an invalid parallelism, not a
    # TypeError
    crossing = LinearSpace(3, [[[0, 1], [1, 2]], [[0, 2]]])
    with pytest.raises(ValueError, match="invalid parallelism"):
        colouring_from_parallelism(crossing)


def test_package_exports_resolve():
    import chromarep
    assert [name for name in chromarep.__all__
            if not hasattr(chromarep, name)] == []
    namespace = {}
    exec("from chromarep import *", namespace)
    assert set(chromarep.__all__) <= namespace.keys()
    # a parallelism is a linear space's blocks, and the 3-cycle condition
    # is verify of lambda1
    for module, gone in ((chromarep.geometry, "Parallelism"),
                         (chromarep.quasigroup, "three_cycle_condition")):
        assert gone not in chromarep.__all__
        assert not hasattr(chromarep, gone) and not hasattr(module, gone)
